//! Churn overhead: implicit DAT vs explicit-membership trees.
//!
//! The paper's abstract claims the DAT scheme "has very low overhead
//! during node arrival and departure" *because* it maintains no explicit
//! parent-child membership — the Chord stabilization both schemes already
//! pay for is all the repair the implicit tree ever needs (§2.3). This
//! experiment runs one churn campaign (`dat_sim::campaign`: crash bursts
//! with restarts, partitions, flaky links, duplication bursts and one crash
//! of the acting root) twice under one seed, and so under one fault plan:
//! over the DAT, and over the explicit-membership tree of
//! [`dat_core::explicit`]. Every message a fleet's survivors sent is booked
//! under exactly one cost: tree membership repair, tree liveness probing,
//! ring maintenance or aggregation payload.

// Crashes in a campaign consumer must carry context, never a bare unwrap.
#![deny(clippy::unwrap_used)]

use dat_chord::Metrics;
use dat_core::ExplicitProtocol;
use dat_sim::{Campaign, FaultEvent, Outcome, Scenario, Traffic};

use crate::table::{f, Table};

/// Per-tree churn accounting over a whole campaign run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnCosts {
    /// Tree *membership repair* messages sent (joins/adoptions/leave
    /// notices/re-join storms). Zero by construction for implicit DATs —
    /// the paper's central claim.
    pub tree_maintenance: u64,
    /// Tree liveness probing: for the DAT, what its parent probes cost
    /// beyond the updates that carry them (the answering pongs, retry
    /// pings and their pongs); for the explicit tree, heartbeats + acks.
    pub liveness: u64,
    /// Chord ring maintenance messages sent (both schemes pay these).
    pub ring_maintenance: u64,
    /// Aggregation payload messages sent.
    pub payload: u64,
    /// DAT frames in none of the rows above (prunes and root-state
    /// replicas); not printed, but booked so the rows account for
    /// `chord_sent`. Always 0 for the explicit tree.
    pub other: u64,
    /// Every message the survivors' Chord layers sent: each lands in
    /// exactly one of the fields above.
    pub chord_sent: u64,
}

/// The Chord frames that carry a tree's own messages; every other Chord
/// kind is ring maintenance.
const TREE_FRAMES: [&str; 2] = ["app", "route"];
const EXP_MEMBERSHIP_KINDS: [&str; 3] = ["exp_join_tree", "exp_adopt", "exp_leave_tree"];
const EXP_LIVENESS_KINDS: [&str; 2] = ["exp_heartbeat", "exp_heartbeat_ack"];

/// Chord messages that are not tree frames.
fn ring_kinds(chord: &Metrics) -> u64 {
    chord.sent_total() - chord.sent_of_kinds(&TREE_FRAMES)
}

/// The ring-kind messages a node's Chord layer sent for the DAT's parent
/// probes. A probe rides an update, so it costs only the pong that
/// answers it: every `Ping` a node received drew exactly one pong, and
/// the pongs beyond those answered probes. A probe whose pong is late
/// adds its retry pings, and the pongs those draw back.
fn probe_liveness(chord: &Metrics) -> u64 {
    chord.sent_of("pong") - chord.received_of("ping")
        + chord.get("probe_retries_total")
        + chord.get("probe_retry_pongs_total")
}

impl ChurnCosts {
    /// The DAT's books. It never repairs membership, so that row stays 0.
    fn dat(t: &Traffic) -> ChurnCosts {
        let probes = probe_liveness(&t.chord);
        ChurnCosts {
            tree_maintenance: 0,
            liveness: probes,
            ring_maintenance: ring_kinds(&t.chord) - probes,
            payload: t.tree.sent_of("dat_update"),
            other: t.tree.sent_of_kinds(&["dat_prune", "dat_root_state"]),
            chord_sent: t.chord.sent_total(),
        }
    }

    /// The explicit tree's books. Every explicit message leaves as one
    /// Chord `app` frame, except a routed `JoinTree`, whose first hop is a
    /// `route` frame: the tree frames beyond the tree's own tally are the
    /// join's forwarding hops, which the protocol never sees, and they are
    /// membership repair too.
    fn explicit(t: &Traffic) -> ChurnCosts {
        let (chord, exp) = (&t.chord, &t.tree);
        let forwarded = chord.sent_of_kinds(&TREE_FRAMES) - exp.sent_total();
        ChurnCosts {
            tree_maintenance: exp.sent_of_kinds(&EXP_MEMBERSHIP_KINDS) + forwarded,
            liveness: exp.sent_of_kinds(&EXP_LIVENESS_KINDS),
            ring_maintenance: ring_kinds(chord),
            payload: exp.sent_of("exp_update"),
            other: 0,
            chord_sent: chord.sent_total(),
        }
    }
}

/// Experiment output: one churn campaign, run once per tree.
pub struct Churn {
    /// The campaign over the implicit DAT.
    pub dat: Outcome,
    /// The same scenario (same seed, same plan) over the explicit tree.
    pub explicit: Outcome,
    /// Departures and arrivals the plan injects: crashes and restarts.
    pub churn_events: u64,
}

/// The churn campaign both trees face: `n` nodes, 5 s epochs, a minute of
/// warmup, six fault episodes of 40 s (one crashes the acting root), then
/// two minutes of quiet.
pub fn scenario(n: usize, seed: u64) -> Scenario {
    Scenario {
        nodes: n,
        seed,
        epoch_ms: 5_000,
        warmup_ms: 60_000,
        faults_ms: 240_000,
        quiesce_ms: 120_000,
        child_ttl_epochs: 3,
        campaign: Campaign::Churn {
            episodes: 6,
            crash_root: true,
        },
    }
}

/// Run the churn comparison on `n` nodes under `seed`.
pub fn run(n: usize, seed: u64) -> Churn {
    let sc = scenario(n, seed);
    let plan = sc.plan();
    let churned = |(_, e): &&(u64, FaultEvent)| {
        matches!(e, FaultEvent::Crash { .. } | FaultEvent::Restart { .. })
    };
    Churn {
        dat: sc.run(),
        explicit: sc.run_with::<ExplicitProtocol>(),
        churn_events: plan.events().iter().filter(churned).count() as u64,
    }
}

impl Churn {
    /// Both trees' books: `(dat, explicit)`.
    pub fn costs(&self) -> (ChurnCosts, ChurnCosts) {
        (
            ChurnCosts::dat(&self.dat.traffic),
            ChurnCosts::explicit(&self.explicit.traffic),
        )
    }

    /// The cost table.
    pub fn table(&self) -> Table {
        let sc = &self.dat.scenario;
        let mut t = Table::new(
            &format!(
                "Churn overhead — n = {}, seed {:#x}: {} crashes + restarts in {}s of churn \
                 campaign, messages the survivors sent in the whole {}s run",
                sc.nodes,
                sc.seed,
                self.churn_events,
                sc.faults_ms / 1000,
                sc.total_ms() / 1000
            ),
            &["cost (messages sent)", "implicit DAT", "explicit tree"],
        );
        let (dat, exp) = self.costs();
        let rows = [
            (
                "tree membership repair",
                dat.tree_maintenance,
                exp.tree_maintenance,
            ),
            ("tree liveness probing", dat.liveness, exp.liveness),
            (
                "ring maintenance (shared substrate)",
                dat.ring_maintenance,
                exp.ring_maintenance,
            ),
            ("aggregation payload", dat.payload, exp.payload),
        ];
        for (name, d, e) in rows {
            t.row(vec![name.into(), d.to_string(), e.to_string()]);
        }
        let per_event =
            |c: &ChurnCosts| c.tree_maintenance as f64 / self.churn_events.max(1) as f64;
        t.row(vec![
            "membership msgs per churn event".into(),
            f(per_event(&dat)),
            f(per_event(&exp)),
        ]);
        t.row(vec![
            "campaign violations".into(),
            self.dat.violations.len().to_string(),
            self.explicit.violations.len().to_string(),
        ]);
        t
    }

    /// Qualitative checks: the DAT passes its campaign and repairs no
    /// membership; the explicit tree, under the same plan, does repair.
    /// The explicit tree's own violations are reported, not checked.
    pub fn check(&self) -> Vec<String> {
        let mut bad: Vec<String> = self
            .dat
            .violations
            .iter()
            .map(|v| format!("DAT {v}"))
            .collect();
        let (dat, exp) = self.costs();
        if dat.tree_maintenance != 0 {
            bad.push(format!(
                "implicit DAT sent {} membership messages (must be 0)",
                dat.tree_maintenance
            ));
        }
        if exp.tree_maintenance == 0 {
            bad.push("explicit tree sent no membership traffic?!".into());
        }
        if self.dat.digest != self.explicit.digest {
            bad.push("the two trees faced different fault plans".into());
        }
        if self.churn_events == 0 {
            bad.push("churn schedule produced no events".into());
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_beats_explicit_under_churn() {
        let c = run(48, 5);
        let bad = c.check();
        assert!(bad.is_empty(), "{bad:?}");
        let (dat, exp) = c.costs();
        assert!(exp.tree_maintenance > 50, "{exp:?}");
        assert_eq!(dat.tree_maintenance, 0);
        assert!(c.table().to_markdown().contains("membership"));
    }

    /// Each column adds up to its fleet's Chord `sent_total`, survivors
    /// only on both sides: the DAT's, prunes and root-state replicas
    /// included, books no message twice, as the parent probes once were
    /// (under liveness and ring maintenance both); the explicit tree's
    /// books the forwarding hops of a routed `JoinTree` under membership
    /// repair.
    #[test]
    fn every_dat_message_is_booked_once() {
        let c = run(32, 3);
        let (d, e) = c.costs();
        assert!(d.liveness > 0 && d.other > 0, "{d:?}");
        assert_eq!(e.other, 0, "{e:?}");
        let forwarded =
            e.tree_maintenance - c.explicit.traffic.tree.sent_of_kinds(&EXP_MEMBERSHIP_KINDS);
        assert!(forwarded > 0, "no routed join was forwarded: {e:?}");
        for (name, k) in [("dat", d), ("explicit", e)] {
            let booked = k.tree_maintenance + k.liveness + k.ring_maintenance + k.payload + k.other;
            assert_eq!(booked, k.chord_sent, "{name}: {k:?}");
        }
    }
}
