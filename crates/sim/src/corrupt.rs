//! Wire-corruption soak harness: sustained byte-level frame damage
//! against one continuous aggregation, scored end to end.
//!
//! The gray soak ([`crate::gray`]) injects *timing* pathologies; this
//! harness injects *byte* pathologies ([`crate::FaultEvent::CorruptLink`])
//! and scores the full detection → containment → recovery pipeline:
//!
//! * **No silent wrong answers.** Every node contributes the same local
//!   value, so a correct root report satisfies
//!   `sum == contributors × value` (and `min == max == value`) exactly.
//!   A single undetected corrupted partial folded into the tree breaks
//!   the identity — any deviating report is a violation.
//! * **Detection is total.** Every mutated frame is either rejected by
//!   the codec (surfacing as a `BadFrame` and counted in
//!   `bad_frames_total`) or decodes to a valid frame; nothing panics.
//! * **Degradation is visible and heals.** Completeness dips below 1.0
//!   (or the root publishes nothing for a whole epoch) while a tree link
//!   is being jammed, and returns to full coverage in the quiesce tail.
//! * **Poisoned peers are quarantined — and released.** A sustained
//!   corruption burst on one link must walk the victim through bad-frame
//!   scoring → suspicion → flap-damping quarantine, and the quarantined
//!   peer must rejoin once the wire is clean again.
//!
//! Every run is fully determined by [`CorruptConfig::seed`]; violations
//! embed the seed so a failing assert prints its own replay handle.

#![deny(clippy::unwrap_used)]

use dat_chord::{ChordConfig, HealthConfig, Id, IdPolicy, IdSpace, RoutingScheme, StaticRing};
use dat_core::tree::DatTree;
use dat_core::{AggregationMode, DatConfig, DatEvent, StackNode};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fault::{CorruptMode, FaultPlan};
use crate::harness::{addr_book, prestabilized_dat};
use crate::net::SimNet;
use crate::soak::SoakReport;

/// The attribute every node registers and feeds.
pub const CORRUPT_ATTR: &str = "cpu-usage";

/// The local value every node contributes — the exactness invariant is
/// `sum == contributors × CORRUPT_VALUE` at the root.
pub const CORRUPT_VALUE: f64 = 10.0;

/// Parameters of one corruption soak run.
#[derive(Clone, Copy, Debug)]
pub struct CorruptConfig {
    /// Ring size.
    pub nodes: usize,
    /// Identifier-space width (bits).
    pub space_bits: u8,
    /// Seed for ring construction, the transport, and every mutation coin.
    pub seed: u64,
    /// Aggregation epoch length, ms.
    pub epoch_ms: u64,
    /// Fault-free head (ring warms up, detector learns its baselines).
    pub warmup_ms: u64,
    /// Length of the jam and poison episodes, ms.
    pub episode_ms: u64,
    /// Fault-free tail (quarantine expiry, rejoin and healing land here).
    pub quiesce_ms: u64,
    /// Background corruption probability on tree links for the whole
    /// fault window (the "hostile wire" noise floor, 1–5%).
    pub noise_prob: f64,
    /// Heavy corruption probability for the jam and poison episodes.
    pub burst_prob: f64,
}

impl Default for CorruptConfig {
    fn default() -> Self {
        CorruptConfig {
            nodes: 24,
            space_bits: 32,
            seed: 1,
            epoch_ms: 5_000,
            warmup_ms: 40_000,
            episode_ms: 45_000,
            quiesce_ms: 90_000,
            noise_prob: 0.03,
            burst_prob: 0.9,
        }
    }
}

impl CorruptConfig {
    /// Episode schedule: `(noise_at, jam_at, poison_at, faults_end)`.
    /// Noise spans the whole fault window; jam and poison run
    /// back-to-back inside it.
    fn schedule(&self) -> (u64, u64, u64, u64) {
        let noise_at = self.warmup_ms;
        let jam_at = self.warmup_ms;
        let poison_at = jam_at + self.episode_ms;
        let faults_end = poison_at + self.episode_ms;
        (noise_at, jam_at, poison_at, faults_end)
    }

    /// Total virtual run length, ms.
    pub fn total_ms(&self) -> u64 {
        self.schedule().3 + self.quiesce_ms
    }
}

/// Everything a corruption run measured. `violations` embeds the seed, so
/// asserting emptiness prints the replay handle for free.
#[derive(Clone, Debug)]
pub struct CorruptOutcome {
    /// The seed that produced this run.
    pub seed: u64,
    /// Digest of the generated fault schedule.
    pub digest: u64,
    /// Virtual run length, ms.
    pub sim_ms: u64,
    /// Discrete events the simulator processed.
    pub events_processed: u64,
    /// Every root report observed, in drain order.
    pub log: Vec<SoakReport>,
    /// Invariant breaches (empty for a healthy run).
    pub violations: Vec<String>,
    /// Frames actually mutated by the episodes.
    pub injected: u64,
    /// Mutated frames the codec rejected (delivered as `BadFrame`s).
    pub rejected: u64,
    /// Mutated frames that still decoded.
    pub passed: u64,
    /// Lowest coverage ratio while faults were live; an epoch that passed
    /// with no root report at all counts as zero.
    pub min_ratio_during_faults: f64,
    /// Coverage ratio of the final report.
    pub final_ratio: f64,
    /// Fleet-wide undecodable frames, summed over every error kind.
    pub fleet_bad_frames: u64,
    /// Fleet-wide bad-frame threshold trips (scoring → suspicion).
    pub fleet_bad_frame_suspects: u64,
    /// Fleet-wide flap-damping quarantines.
    pub fleet_quarantines: u64,
    /// Fleet-wide quarantine → Healthy rejoins.
    pub fleet_rejoins: u64,
}

/// Lowest coverage a reader of the root's feed (`(drain ms, ratio)` per
/// report) saw over the epoch slots of `[from_ms, to_ms)`: zero for a slot
/// nobody published in. A root that loses its predecessor to quarantine
/// stands down; that silence is the deepest dip, not an unscored one.
fn min_slot_ratio(feed: &[(u64, f64)], epoch_ms: u64, from_ms: u64, to_ms: u64) -> f64 {
    let epoch_ms = epoch_ms.max(1);
    let ratio_in = |slot: u64| {
        let published = feed.iter().filter(|(t_ms, _)| t_ms / epoch_ms == slot);
        published.map(|(_, ratio)| *ratio).reduce(f64::min)
    };
    (from_ms / epoch_ms..to_ms / epoch_ms)
        .map(|slot| ratio_in(slot).unwrap_or(0.0))
        .fold(f64::INFINITY, f64::min)
}

/// Run one corruption soak: pre-stabilized ring, deterministic victim
/// selection from the implicit DAT, noise + jam + poison episodes,
/// scored tail.
pub fn run_corrupt(cfg: &CorruptConfig) -> CorruptOutcome {
    run_corrupt_on(cfg, 1)
}

/// [`run_corrupt`] on `shards` engine shards; the outcome does not depend
/// on the count.
fn run_corrupt_on(cfg: &CorruptConfig, shards: usize) -> CorruptOutcome {
    let space = IdSpace::new(cfg.space_bits);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let ring = StaticRing::build(space, cfg.nodes, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 2_500,
        fix_fingers_ms: 1_000,
        check_pred_ms: 2_000,
        req_timeout_ms: 1_200,
        rto_max_ms: 4_000,
        max_retries: 1,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: cfg.epoch_ms,
        hold_ms: 500,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net: SimNet<StackNode> = prestabilized_dat(&ring, ccfg, dcfg, cfg.seed);
    net.set_shards(shards);
    net.set_record_upcalls(false);
    let book = addr_book(&ring);
    let key = dat_chord::hash_to_id(space, CORRUPT_ATTR.as_bytes());
    // Quarantine short enough that release and rejoin land inside the
    // quiesce tail; flap window wide enough to collect the poison
    // episode's repeated threshold trips.
    let hcfg = HealthConfig {
        quarantine_ms: 25_000,
        flap_window_ms: 60_000,
        flap_threshold: 3,
        ..HealthConfig::default()
    };
    for &id in ring.ids() {
        if let Some(node) = net.node_mut(book[&id]) {
            let k = node.register(CORRUPT_ATTR, AggregationMode::Continuous);
            node.set_local(k, CORRUPT_VALUE);
            node.set_health_config(hcfg);
        }
    }

    // Victims from the implicit DAT, deterministically. The jam hits the
    // biggest subtree's uplink (child → parent), so destroying its update
    // frames visibly dents completeness. The poison hits a ring-neighbor
    // link *into* a victim: stabilization traffic (notify, neighbor
    // queries) flows there continuously, the victim provably knows the
    // sender, so bad-frame scoring has something to attribute and escalate.
    let tree = DatTree::build(&ring, key, RoutingScheme::Balanced);
    let root_id = tree.root();
    let mut interior: Vec<Id> = tree.interior_nodes().filter(|v| *v != root_id).collect();
    interior.sort_by_key(|v| (std::cmp::Reverse(tree.branching(*v)), v.0));
    let jam_child_id = *interior.first().unwrap_or(&ring.ids()[0]);
    let jam_child = book[&jam_child_id];
    let jam_parent = tree
        .parent(jam_child_id)
        .map(|p| book[&p])
        .unwrap_or(book[&root_id]);
    // Poison pair: the root and its ring predecessor (the predecessor
    // notifies the root every stabilization round).
    let mut sorted: Vec<Id> = ring.ids().to_vec();
    sorted.sort_by_key(|v| v.0);
    let root_pos = sorted.iter().position(|v| *v == root_id).unwrap_or(0);
    let pred_id = sorted[(root_pos + sorted.len() - 1) % sorted.len()];
    let poison_victim = book[&root_id];
    let poison_peer = book[&pred_id];

    let (noise_at, jam_at, poison_at, faults_end) = cfg.schedule();
    let noise_ms = faults_end - noise_at;
    // Noise floor: low-probability bit flips on every interior uplink
    // (capped at four links) for the whole fault window.
    let mut plan = FaultPlan::new();
    if cfg.noise_prob > 0.0 {
        for child in interior.iter().take(4) {
            let parent = tree
                .parent(*child)
                .map(|p| book[&p])
                .unwrap_or(book[&root_id]);
            plan = plan.corrupt_link_at(
                noise_at,
                book[child],
                parent,
                cfg.noise_prob,
                CorruptMode::BitFlip,
                noise_ms,
            );
        }
    }
    plan = plan
        // Jam: heavy garbage on the biggest subtree's uplink. Update
        // frames are destroyed (and detected), the cached child partial
        // ages out, completeness dips — then heals after expiry.
        .corrupt_link_at(
            jam_at,
            jam_child,
            jam_parent,
            cfg.burst_prob,
            CorruptMode::Garbage,
            cfg.episode_ms,
        )
        // Poison: heavy corruption on the predecessor → root link,
        // alternating mutation shapes across the episode via truncation.
        // Surviving ~10% of frames keeps heartbeats trickling through, so
        // the victim oscillates Suspect → recover — exactly the flap
        // pattern quarantine exists for.
        .corrupt_link_at(
            poison_at,
            poison_peer,
            poison_victim,
            cfg.burst_prob,
            CorruptMode::Truncate,
            cfg.episode_ms,
        );
    let digest = plan.digest();
    net.set_fault_plan(plan);

    // Drive in half-epoch steps, draining every node's reports.
    let total = cfg.total_ms();
    let step = (cfg.epoch_ms / 2).max(1);
    let mut log: Vec<SoakReport> = Vec::new();
    let mut wrong: Vec<String> = Vec::new();
    let cached_addrs = net.addrs();
    while net.now().as_millis() < total {
        let now = net.now().as_millis();
        net.run_for(step.min(total - now));
        let t = net.now().as_millis();
        for &addr in &cached_addrs {
            let Some(node) = net.node_mut(addr) else {
                continue;
            };
            for ev in node.take_events() {
                if let DatEvent::Report {
                    key: k,
                    epoch,
                    partial,
                    completeness,
                } = ev
                {
                    if k != key {
                        continue;
                    }
                    // Exactness: every contributor reported the same
                    // constant, so any deviation means corrupted bytes
                    // were folded into the aggregate undetected.
                    let want = completeness.contributors as f64 * CORRUPT_VALUE;
                    let sum_ok = (partial.sum - want).abs() < 1e-9;
                    let range_ok = partial.count == 0
                        || (partial.min == CORRUPT_VALUE && partial.max == CORRUPT_VALUE);
                    if !(sum_ok && range_ok) && wrong.len() < 8 {
                        wrong.push(format!(
                            "seed {}: SILENTLY WRONG report at {t} ms (epoch {epoch}): \
                             sum {} for {} contributors (want {want}), min {} max {}",
                            cfg.seed,
                            partial.sum,
                            completeness.contributors,
                            partial.min,
                            partial.max
                        ));
                    }
                    log.push(SoakReport {
                        t_ms: t,
                        addr,
                        epoch,
                        completeness,
                    });
                }
            }
        }
    }

    let fleet = crate::obs::fleet_registry(&net);
    let fleet_bad_frames = fleet.counter_sum("bad_frames_total");
    let fleet_bad_frame_suspects = fleet.counter_sum("bad_frame_suspects_total");
    let fleet_quarantines = fleet.counter_sum("quarantines_total");
    let fleet_rejoins = fleet.counter_sum("rejoins_total");
    let stats = net.corruption;

    let seed = cfg.seed;
    let n = cfg.nodes as u64;
    let mut violations = wrong;

    // The attack actually ran, and detection accounted for every frame.
    if stats.injected == 0 {
        violations.push(format!("seed {seed}: no frames were ever corrupted"));
    }
    if stats.rejected + stats.passed != stats.injected {
        violations.push(format!(
            "seed {seed}: corruption accounting leak — {} injected but {} rejected + {} passed",
            stats.injected, stats.rejected, stats.passed
        ));
    }
    if stats.rejected == 0 {
        violations.push(format!(
            "seed {seed}: every mutated frame decoded — the checksum caught nothing"
        ));
    }
    if fleet_bad_frames == 0 {
        violations.push(format!(
            "seed {seed}: rejected frames never reached the engine's bad-frame accounting"
        ));
    }

    // Containment: scoring escalated, quarantine fired, and released.
    if fleet_bad_frame_suspects == 0 {
        violations.push(format!(
            "seed {seed}: bad-frame scoring never crossed its threshold"
        ));
    }
    if fleet_quarantines == 0 {
        violations.push(format!(
            "seed {seed}: the poisoned peer was never quarantined"
        ));
    }
    if fleet_rejoins == 0 {
        violations.push(format!(
            "seed {seed}: no quarantined peer rejoined after the wire cleaned up"
        ));
    }

    // Reports kept flowing throughout.
    let after_warmup: Vec<&SoakReport> = log.iter().filter(|r| r.t_ms >= cfg.warmup_ms).collect();
    if after_warmup.len() < 2 {
        violations.push(format!("seed {seed}: too few reports after warmup"));
    }

    // Degradation visible while the faults were live…
    let feed: Vec<(u64, f64)> = log.iter().map(|r| (r.t_ms, r.completeness.ratio)).collect();
    let min_ratio_during_faults = min_slot_ratio(&feed, cfg.epoch_ms, jam_at, faults_end);
    if min_ratio_during_faults >= 1.0 {
        violations.push(format!(
            "seed {seed}: completeness never dipped below 1.0 — jamming the biggest \
             subtree's uplink was invisible"
        ));
    }
    // …and fully healed by the end of the quiesce tail.
    let final_ratio = log.last().map(|r| r.completeness.ratio).unwrap_or(0.0);
    let healed = log
        .iter()
        .any(|r| r.t_ms >= faults_end && r.completeness.contributors >= n);
    if !healed {
        violations.push(format!(
            "seed {seed}: completeness never returned to full coverage after the \
             corruption ended at {faults_end} ms"
        ));
    }

    // The victim's exposition carries the new counters as valid text.
    match net.node(poison_victim) {
        Some(node) => {
            let text = node.render_prometheus();
            for series in ["bad_frames_total", "bad_frame_suspects_total"] {
                if !text.contains(series) {
                    violations.push(format!(
                        "seed {seed}: `{series}` missing from the Prometheus exposition"
                    ));
                }
            }
            if let Err(e) = dat_obs::validate_prometheus(&text) {
                violations.push(format!("seed {seed}: invalid Prometheus exposition: {e}"));
            }
        }
        None => violations.push(format!("seed {seed}: poison victim vanished")),
    }

    CorruptOutcome {
        seed,
        digest,
        sim_ms: total,
        events_processed: net.events_processed(),
        log,
        violations,
        injected: stats.injected,
        rejected: stats.rejected,
        passed: stats.passed,
        min_ratio_during_faults,
        final_ratio,
        fleet_bad_frames,
        fleet_bad_frame_suspects,
        fleet_quarantines,
        fleet_rejoins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_ordered_and_bounded() {
        let cfg = CorruptConfig::default();
        let (noise, jam, poison, end) = cfg.schedule();
        assert_eq!(noise, cfg.warmup_ms);
        assert_eq!(jam, cfg.warmup_ms);
        assert!(jam < poison && poison < end);
        assert_eq!(cfg.total_ms(), end + cfg.quiesce_ms);
    }

    #[test]
    fn a_slot_with_no_report_scores_zero() {
        let score = |feed: &[(u64, f64)]| min_slot_ratio(feed, 5_000, 10_000, 30_000);
        // One report per slot, drained on time or a half-epoch step late;
        // reports outside the window do not score.
        let full = [(10_000, 1.0), (17_500, 1.0), (22_500, 1.0), (25_000, 1.0)];
        assert_eq!(score(&full), 1.0);
        assert_eq!(score(&[&full[..], &[(32_500, 0.5)]].concat()), 1.0);
        assert_eq!(score(&[&full[..], &[(27_500, 0.75)]].concat()), 0.75);
        // Slot 4 (20-25 s) passes with nothing published.
        assert_eq!(score(&[(10_000, 1.0), (17_500, 1.0), (25_000, 1.0)]), 0.0);
    }

    /// Two identically-seeded runs must inject the identical schedule,
    /// mutate the identical frames, and observe the identical report log.
    /// (Full invariant runs live in tests/corruption_soak.rs.)
    #[test]
    fn corrupt_run_is_seed_replayable() {
        let cfg = CorruptConfig {
            nodes: 12,
            warmup_ms: 20_000,
            episode_ms: 20_000,
            quiesce_ms: 30_000,
            seed: 7,
            ..CorruptConfig::default()
        };
        let a = run_corrupt(&cfg);
        let b = run_corrupt(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(
            (a.injected, a.rejected, a.passed),
            (b.injected, b.rejected, b.passed)
        );
        assert_eq!(a.log.len(), b.log.len());
        for (x, y) in a.log.iter().zip(&b.log) {
            assert_eq!((x.t_ms, x.addr, x.epoch), (y.t_ms, y.addr, y.epoch));
            assert_eq!(x.completeness.contributors, y.completeness.contributors);
        }
        assert!(a.injected > 0, "short run still injects corruption");
    }

    /// Every mutation coin and damaged byte comes from the receiving
    /// node's stream, so four worker threads corrupt the same frames the
    /// same way as one, for the seeds CI scores.
    #[test]
    fn corrupt_run_is_shard_count_invariant() {
        for seed in [1, 2, 3] {
            let cfg = CorruptConfig {
                seed,
                ..CorruptConfig::default()
            };
            assert_eq!(
                format!("{:?}", run_corrupt_on(&cfg, 4)),
                format!("{:?}", run_corrupt_on(&cfg, 1)),
                "seed {seed}: the shard count changed the corruption soak"
            );
        }
    }
}
