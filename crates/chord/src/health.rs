//! Phi-accrual failure detection with flap damping — the health plane.
//!
//! The RTO machinery ([`crate::node::ChordNode`]) reacts to *silence*: a
//! request times out, retries, and eventually evicts the peer. That is the
//! right tool for clean crashes, but it cannot tell a dead peer from a slow
//! one, and it reacts only after the full retry budget burns down. The
//! [`HealthDetector`] closes that gap with the phi-accrual estimator of
//! Hayashibara et al.: every ack/reply a peer sends is a heartbeat, the
//! detector learns the peer's natural cadence (mean + deviation of
//! inter-arrival times), and suspicion is the improbability of the current
//! silence under that history — `phi = -log10(P(silence this long))`.
//! Upper layers act on a *level* ([`SuspicionLevel`]), not a timeout: a
//! peer whose phi crosses the threshold turns [`SuspicionLevel::Suspect`]
//! *before* any request times out, which is what lets the DAT layer
//! re-parent proactively.
//!
//! Slow-but-alive peers oscillate: they fall silent, turn Suspect, then
//! ack and recover. Each Suspect→Healthy recovery is recorded; too many
//! recoveries inside the flap window and the peer is *quarantined* — held
//! at [`SuspicionLevel::Quarantined`] for a fixed period regardless of its
//! acks, so routing stops bouncing on and off it. A quarantined peer
//! rejoins (drops back to Healthy) only after the quarantine expires, with
//! its flap history cleared.
//!
//! The detector is sans-io and fully deterministic: it consumes only
//! `(peer, now_ms)` observations, never a clock or RNG of its own, so the
//! same input schedule yields the same suspicion trajectory on the
//! simulator and over UDP.

#![deny(clippy::unwrap_used)]

use std::collections::VecDeque;

use crate::id::Id;

/// Suspicion threshold: a peer turns [`SuspicionLevel::Suspect`] when its
/// phi (improbability exponent of the current silence) reaches this. 8 ≈
/// "this silence had a 10⁻⁸ chance under the learned cadence".
const PHI_THRESHOLD: f64 = 8.0;
/// Sliding window of inter-arrival samples kept per peer.
const WINDOW: usize = 32;
/// Floor on the inter-arrival standard deviation (ms). Simulated
/// heartbeats can be metronome-regular; without a floor the distribution
/// collapses and one millisecond of jitter reads as certain death.
const MIN_STD_MS: f64 = 100.0;
/// Inter-arrival samples required before phi is trusted; below this the
/// peer reads Healthy (phi 0).
const MIN_SAMPLES: usize = 3;
/// Recoveries inside the flap window that trigger quarantine.
const FLAP_THRESHOLD: usize = 3;
/// Silence (ms) after which a monitored peer is worth an adaptive
/// keepalive ping (see [`HealthDetector::stalest`]).
const KEEPALIVE_AFTER_MS: u64 = 3_000;

/// The detector's two tunable periods (the rest are constants). Times are
/// host milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Sliding window (ms) over which Suspect→Healthy recoveries count as
    /// flapping.
    pub flap_window_ms: u64,
    /// How long a quarantined peer is held at
    /// [`SuspicionLevel::Quarantined`] before it may rejoin.
    pub quarantine_ms: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            flap_window_ms: 30_000,
            quarantine_ms: 30_000,
        }
    }
}

/// Coarse per-peer suspicion state derived from phi + flap damping.
/// Ordered: `Healthy < Suspect < Quarantined`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SuspicionLevel {
    /// Phi below threshold (or not enough history to judge).
    Healthy,
    /// Phi crossed the threshold, or the last tracked exchange to this
    /// peer exhausted its retries.
    Suspect,
    /// The peer flapped Suspect↔Healthy too often and is held suspect for
    /// a fixed period regardless of its acks.
    Quarantined,
}

/// The most phi can be at zero silence: a 0 ms silence is below every
/// window's mean (samples are ≥ 1 ms), so `p_later ≥ ½` and
/// `phi ≤ log10 2 = 0.30103`; the margin absorbs `log10` rounding.
const ZERO_SILENCE_PHI_MAX: f64 = 0.3011;
const _: () = assert!(ZERO_SILENCE_PHI_MAX < PHI_THRESHOLD);

const _: () = assert!(WINDOW <= u8::MAX as usize);

/// A peer's flap evidence and quarantine deadline: state only a peer that
/// has left Healthy ever has, out of line so the rest keep a null pointer.
#[derive(Clone, Debug, Default)]
struct Flap {
    /// Timestamps of recent Suspect→Healthy recoveries.
    recoveries: VecDeque<u64>,
    /// When a quarantine ends (meaningful only while Quarantined).
    quarantined_until_ms: u64,
}

/// Per-peer detector state.
#[derive(Clone, Debug)]
struct PeerHealth {
    /// Sliding window of heartbeat inter-arrival times (ms), four bytes a
    /// sample: a gap past `u32::MAX` ms (49 days) is held at it. Grown by
    /// doubling up to `WINDOW` samples, so a peer heard from twice (most
    /// of what a Chord node tracks) holds 16 bytes and a full window
    /// exactly 128; from there a ring whose oldest sample is at `head`. A
    /// `VecDeque` costs every peer a word more, an inline array 128 bytes.
    intervals: Vec<u32>,
    head: u8,
    /// Host time of the last heartbeat.
    last_heard_ms: u64,
    level: SuspicionLevel,
    /// Recoveries and quarantine deadline; `None` until the first
    /// recovery, and again once a served quarantine clears the history.
    flap: Option<Box<Flap>>,
    /// `(mean, variance)` of `intervals` while `fitted`: taken by the
    /// first `level()` that needs it, stale from where `record_beat`
    /// changes the window. Between two beats, silence moves phi but not
    /// the fit.
    fit: (f64, f64),
    /// A flag, not an `Option` around the pair: it packs beside `level`,
    /// and every tracked peer of every node carries these bytes whether
    /// or not anyone ever evaluates it.
    fitted: bool,
}

/// What one evaluation did to a peer's level (each is a detector counter).
enum Moved {
    Suspected,
    Quarantined,
    Rejoined,
}

impl PeerHealth {
    fn new(now_ms: u64) -> Self {
        PeerHealth {
            intervals: Vec::new(),
            head: 0,
            last_heard_ms: now_ms,
            level: SuspicionLevel::Healthy,
            flap: None,
            fit: (0.0, 0.0),
            fitted: false,
        }
    }

    /// Append an inter-arrival sample, dropping the oldest when full.
    fn push_interval(&mut self, x: u32) {
        if self.intervals.len() < WINDOW {
            self.intervals.push(x);
        } else {
            self.intervals[usize::from(self.head)] = x;
            self.head = ((usize::from(self.head) + 1) % WINDOW) as u8;
        }
    }

    /// The window's samples, oldest first.
    fn window(&self) -> impl Iterator<Item = u32> + '_ {
        let (newer, older) = self.intervals.split_at(usize::from(self.head));
        older.iter().chain(newer).copied()
    }

    /// Mean and (population) variance of the window, in two passes.
    fn fit_window(&self) -> (f64, f64) {
        let n = self.intervals.len() as f64;
        let mean = self.window().map(|x| x as f64).sum::<f64>() / n;
        let var = self
            .window()
            .map(|x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        (mean, var)
    }

    /// Phi of the silence since the last beat under a fitted window.
    fn phi_under(&self, (mean, var): (f64, f64), now_ms: u64) -> f64 {
        let std = var.sqrt().max(MIN_STD_MS);
        let t = now_ms.saturating_sub(self.last_heard_ms) as f64;
        // Logistic approximation of the normal tail (as used by Akka's
        // accrual detector): cheap, monotone, and good to a few percent.
        let y = (t - mean) / std;
        let ex = (-y * (1.5976 + 0.070566 * y * y)).exp();
        let p_later = if t > mean {
            ex / (1.0 + ex)
        } else {
            1.0 - 1.0 / (1.0 + ex)
        };
        -p_later.max(1e-30).log10()
    }

    /// Advance the Healthy↔Suspect↔Quarantined state machine at `now_ms`,
    /// given phi (or an upper bound on it that is below the threshold).
    fn advance(&mut self, cfg: &HealthConfig, now_ms: u64, phi: f64) -> Option<Moved> {
        match self.level {
            SuspicionLevel::Quarantined => {
                let until = self.flap.as_ref().map_or(0, |f| f.quarantined_until_ms);
                if now_ms >= until && phi < PHI_THRESHOLD {
                    // Quarantine served AND the peer is currently talking:
                    // it has stabilized, let it back in with a clean slate.
                    self.level = SuspicionLevel::Healthy;
                    self.flap = None;
                    return Some(Moved::Rejoined);
                }
            }
            SuspicionLevel::Suspect => {
                if phi < PHI_THRESHOLD {
                    // Recovery. Count it as flap evidence; too many inside
                    // the window and the peer is quarantined instead.
                    let flap = self.flap.get_or_insert_with(Default::default);
                    flap.recoveries.push_back(now_ms);
                    while flap
                        .recoveries
                        .front()
                        .is_some_and(|&t| now_ms.saturating_sub(t) > cfg.flap_window_ms)
                    {
                        flap.recoveries.pop_front();
                    }
                    if flap.recoveries.len() >= FLAP_THRESHOLD {
                        self.level = SuspicionLevel::Quarantined;
                        flap.quarantined_until_ms = now_ms + cfg.quarantine_ms;
                        flap.recoveries.clear();
                        return Some(Moved::Quarantined);
                    }
                    self.level = SuspicionLevel::Healthy;
                }
            }
            SuspicionLevel::Healthy => {
                if phi >= PHI_THRESHOLD {
                    self.level = SuspicionLevel::Suspect;
                    return Some(Moved::Suspected);
                }
            }
        }
        None
    }
}

/// Per-peer state sorted by id, so every walk (keepalive target pick,
/// exports) is in id order. A node tracks a handful of peers, and a
/// `BTreeMap` leaf holds room for eleven whatever the count: these vectors
/// grow one peer at a time instead. The ids sit apart from the state so a
/// lookup's binary search reads a few cache lines of ids, not one line per
/// probe of ~100-byte entries.
#[derive(Clone, Debug, Default)]
struct Peers {
    ids: Vec<Id>,
    /// `state[i]` belongs to `ids[i]`.
    state: Vec<PeerHealth>,
}

impl Peers {
    fn get(&self, peer: Id) -> Option<&PeerHealth> {
        let i = self.ids.binary_search(&peer).ok()?;
        Some(&self.state[i])
    }

    fn get_mut(&mut self, peer: Id) -> Option<&mut PeerHealth> {
        let i = self.ids.binary_search(&peer).ok()?;
        Some(&mut self.state[i])
    }

    /// `peer`'s state, first heard of at `now_ms` if it is new.
    fn entry(&mut self, peer: Id, now_ms: u64) -> &mut PeerHealth {
        let i = match self.ids.binary_search(&peer) {
            Ok(i) => i,
            Err(i) => {
                self.ids.reserve_exact(1);
                self.ids.insert(i, peer);
                self.state.reserve_exact(1);
                self.state.insert(i, PeerHealth::new(now_ms));
                i
            }
        };
        &mut self.state[i]
    }

    /// Drop `peer`, giving its slot back: the tables grow one peer at a
    /// time, so they shrink one at a time too.
    fn remove(&mut self, peer: Id) {
        if let Ok(i) = self.ids.binary_search(&peer) {
            self.ids.remove(i);
            self.ids.shrink_to_fit();
            self.state.remove(i);
            self.state.shrink_to_fit();
        }
    }

    fn iter(&self) -> impl Iterator<Item = (Id, &PeerHealth)> + '_ {
        self.ids.iter().copied().zip(&self.state)
    }
}

/// The phi-accrual failure detector with flap damping.
///
/// Counters are loose public fields (the same pattern as
/// [`crate::metrics::Metrics`]); hosts export them into their registry.
#[derive(Clone, Debug, Default)]
pub struct HealthDetector {
    cfg: HealthConfig,
    peers: Peers,
    /// Healthy→Suspect transitions observed (phi crossings + final
    /// timeouts).
    pub suspects: u64,
    /// Suspect→Quarantined transitions (flap damping trips).
    pub quarantines: u64,
    /// Quarantined→Healthy transitions after a quarantine expired.
    pub rejoins: u64,
}

impl HealthDetector {
    /// A detector with the given tunables.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthDetector {
            cfg,
            peers: Peers::default(),
            suspects: 0,
            quarantines: 0,
            rejoins: 0,
        }
    }

    /// Mutable access to the tunables (harnesses shorten quarantines).
    pub fn config_mut(&mut self) -> &mut HealthConfig {
        &mut self.cfg
    }

    /// Record a heartbeat: any ack, reply or message that proves `peer`
    /// was alive at `now_ms`.
    pub fn heartbeat(&mut self, peer: Id, now_ms: u64) {
        // The silence scored right after a beat is 0 ms, so phi is at most
        // `ZERO_SILENCE_PHI_MAX`, below the threshold: a Healthy peer stays
        // Healthy and the recovery arms' `phi < PHI_THRESHOLD` holds,
        // without fitting the window.
        if self.record_beat(peer, now_ms) != SuspicionLevel::Healthy {
            self.transition(peer, now_ms, ZERO_SILENCE_PHI_MAX);
        }
    }

    /// Learn one beat's inter-arrival sample; returns the level it found.
    fn record_beat(&mut self, peer: Id, now_ms: u64) -> SuspicionLevel {
        let e = self.peers.entry(peer, now_ms);
        if now_ms > e.last_heard_ms {
            // Only a Healthy peer's cadence is learned: the long silence
            // that ends a Suspect episode is exactly the anomaly the
            // detector exists to flag, and absorbing it would train the
            // detector to accept ever-worse degradation (and let flappers
            // walk the threshold out from under the flap damper).
            if e.level == SuspicionLevel::Healthy {
                let gap = now_ms - e.last_heard_ms;
                e.push_interval(u32::try_from(gap).unwrap_or(u32::MAX));
                e.fitted = false;
            }
            e.last_heard_ms = now_ms;
        }
        e.level
    }

    /// Record hard evidence of failure: a tracked exchange to `peer`
    /// exhausted its retries. Forces Suspect immediately (quarantine is
    /// never overridden downward).
    pub fn miss(&mut self, peer: Id, now_ms: u64) {
        let e = self.peers.entry(peer, now_ms);
        if e.level == SuspicionLevel::Healthy {
            e.level = SuspicionLevel::Suspect;
            self.suspects += 1;
        }
    }

    /// Phi for `peer` at `now_ms`: `-log10` of the probability that a
    /// peer with this heartbeat history stays silent this long. 0.0 while
    /// the history is too short to judge.
    pub fn phi(&self, peer: Id, now_ms: u64) -> f64 {
        let Some(e) = self.peers.get(peer) else {
            return 0.0;
        };
        if e.intervals.len() < MIN_SAMPLES {
            return 0.0;
        }
        let fit = if e.fitted { e.fit } else { e.fit_window() };
        e.phi_under(fit, now_ms)
    }

    /// Evaluate and return `peer`'s suspicion level at `now_ms`,
    /// advancing the Healthy↔Suspect↔Quarantined state machine (silence
    /// alone can raise suspicion, so evaluation mutates).
    pub fn level(&mut self, peer: Id, now_ms: u64) -> SuspicionLevel {
        let Some(e) = self.peers.get_mut(peer) else {
            return SuspicionLevel::Healthy;
        };
        let phi = if e.intervals.len() < MIN_SAMPLES {
            0.0
        } else {
            if !e.fitted {
                e.fit = e.fit_window();
                e.fitted = true;
            }
            e.phi_under(e.fit, now_ms)
        };
        let moved = e.advance(&self.cfg, now_ms, phi);
        let level = e.level;
        self.count(moved);
        level
    }

    /// The last evaluated level, without re-evaluating (pure read — used
    /// for cross-transport snapshots).
    pub fn peek(&self, peer: Id) -> SuspicionLevel {
        self.peers
            .get(peer)
            .map(|e| e.level)
            .unwrap_or(SuspicionLevel::Healthy)
    }

    /// Host time `peer` was last heard from, or `None` while the detector
    /// does not track it. A peer first met through
    /// [`HealthDetector::miss`] reads the time of that miss.
    pub fn last_heard(&self, peer: Id) -> Option<u64> {
        self.peers.get(peer).map(|e| e.last_heard_ms)
    }

    /// Drop all state for `peer` (evicted / departed / replaced).
    pub fn forget(&mut self, peer: Id) {
        self.peers.remove(peer);
    }

    /// Among `candidates`, the peer silent the longest — provided its
    /// silence reaches `KEEPALIVE_AFTER_MS` (3 s) — as the target for one
    /// adaptive keepalive ping. A candidate with no history counts as
    /// silent since time zero (never heard), so fresh links get probed and
    /// a history started, without a ping storm at startup.
    pub fn stalest(&self, candidates: &[Id], now_ms: u64) -> Option<Id> {
        let mut best: Option<(u64, Id)> = None;
        for &c in candidates {
            let silence = match self.peers.get(c) {
                Some(e) => now_ms.saturating_sub(e.last_heard_ms),
                None => now_ms,
            };
            if silence < KEEPALIVE_AFTER_MS {
                continue;
            }
            if best.map(|(s, _)| silence > s).unwrap_or(true) {
                best = Some((silence, c));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Number of peers currently tracked.
    pub fn tracked(&self) -> usize {
        self.peers.ids.len()
    }

    /// Iterate `(peer, level)` in deterministic (id) order.
    pub fn peers(&self) -> impl Iterator<Item = (Id, SuspicionLevel)> + '_ {
        self.peers.iter().map(|(id, e)| (id, e.level))
    }

    /// Advance one peer's state machine at `now_ms`, given its phi (or an
    /// upper bound on it that is below the threshold).
    fn transition(&mut self, peer: Id, now_ms: u64, phi: f64) {
        let Some(e) = self.peers.get_mut(peer) else {
            return;
        };
        let moved = e.advance(&self.cfg, now_ms, phi);
        self.count(moved);
    }

    fn count(&mut self, moved: Option<Moved>) {
        match moved {
            Some(Moved::Suspected) => self.suspects += 1,
            Some(Moved::Quarantined) => self.quarantines += 1,
            Some(Moved::Rejoined) => self.rejoins += 1,
            None => {}
        }
    }
}

#[cfg(test)]
impl HealthDetector {
    /// [`HealthDetector::phi`] as it was before the fit was kept: both
    /// passes over the window on every call, no stored state read.
    fn phi_reference(&self, peer: Id, now_ms: u64) -> f64 {
        let Some(e) = self.peers.get(peer) else {
            return 0.0;
        };
        if e.intervals.len() < MIN_SAMPLES {
            return 0.0;
        }
        let n = e.intervals.len() as f64;
        let mean = e.window().map(|x| x as f64).sum::<f64>() / n;
        let var = e
            .window()
            .map(|x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        let std = var.sqrt().max(MIN_STD_MS);
        let t = now_ms.saturating_sub(e.last_heard_ms) as f64;
        let y = (t - mean) / std;
        let ex = (-y * (1.5976 + 0.070566 * y * y)).exp();
        let p_later = if t > mean {
            ex / (1.0 + ex)
        } else {
            1.0 - 1.0 / (1.0 + ex)
        };
        -p_later.max(1e-30).log10()
    }

    /// [`HealthDetector::heartbeat`] without the zero-silence shortcut:
    /// fit the window and run the state machine on every beat. The
    /// reference the property test below holds the shortcut to.
    fn heartbeat_reference(&mut self, peer: Id, now_ms: u64) {
        self.record_beat(peer, now_ms);
        self.transition(peer, now_ms, self.phi_reference(peer, now_ms));
    }

    /// [`HealthDetector::level`] on a fit taken afresh.
    fn level_reference(&mut self, peer: Id, now_ms: u64) -> SuspicionLevel {
        self.transition(peer, now_ms, self.phi_reference(peer, now_ms));
        self.peek(peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn id(x: u64) -> Id {
        Id(x)
    }

    fn cfg() -> HealthConfig {
        HealthConfig {
            flap_window_ms: 20_000,
            quarantine_ms: 5_000,
        }
    }

    /// Feed a regular cadence and return the detector + last timestamp.
    fn warmed(d: &mut HealthDetector, peer: Id, period: u64, beats: u64) -> u64 {
        let mut t = 0;
        for i in 1..=beats {
            t = i * period;
            d.heartbeat(peer, t);
        }
        t
    }

    #[test]
    fn regular_heartbeats_stay_healthy() {
        let mut d = HealthDetector::new(cfg());
        let t = warmed(&mut d, id(7), 500, 20);
        assert_eq!(d.level(id(7), t + 600), SuspicionLevel::Healthy);
        assert!(d.phi(id(7), t + 600) < 1.0);
        assert_eq!(d.suspects, 0);
    }

    #[test]
    fn unknown_peer_is_healthy_with_zero_phi() {
        let mut d = HealthDetector::new(cfg());
        assert_eq!(d.level(id(1), 10_000), SuspicionLevel::Healthy);
        assert_eq!(d.phi(id(1), 10_000), 0.0);
    }

    #[test]
    fn silence_raises_phi_until_suspect() {
        let mut d = HealthDetector::new(cfg());
        let t = warmed(&mut d, id(7), 500, 20);
        // Growing silence: phi grows monotonically past the bar (sampled
        // close to the mean so the 10⁻³⁰ probability floor is not hit).
        let p1 = d.phi(id(7), t + 550);
        let p2 = d.phi(id(7), t + 650);
        let p3 = d.phi(id(7), t + 900);
        assert!(p1 < p2 && p2 < p3, "phi not monotone: {p1} {p2} {p3}");
        assert_eq!(d.level(id(7), t + 4_000), SuspicionLevel::Suspect);
        assert_eq!(d.suspects, 1);
        // An ack recovers it.
        d.heartbeat(id(7), t + 4_100);
        assert_eq!(d.peek(id(7)), SuspicionLevel::Healthy);
    }

    #[test]
    fn miss_forces_suspect_without_history() {
        let mut d = HealthDetector::new(cfg());
        d.miss(id(9), 1_000);
        assert_eq!(d.peek(id(9)), SuspicionLevel::Suspect);
        assert_eq!(d.suspects, 1);
    }

    #[test]
    fn flapping_peer_is_quarantined_then_rejoins() {
        let mut d = HealthDetector::new(cfg());
        let mut t = warmed(&mut d, id(3), 500, 20);
        // Three suspect/recover cycles inside the flap window.
        for flap in 0..3 {
            t += 4_000; // long silence → Suspect
            assert_eq!(
                d.level(id(3), t),
                SuspicionLevel::Suspect,
                "flap {flap} did not suspect"
            );
            t += 100;
            d.heartbeat(id(3), t); // recovery
        }
        assert_eq!(d.peek(id(3)), SuspicionLevel::Quarantined);
        assert_eq!(d.quarantines, 1);
        // Acks during quarantine do not lift it.
        t += 1_000;
        d.heartbeat(id(3), t);
        assert_eq!(d.peek(id(3)), SuspicionLevel::Quarantined);
        // After it expires AND the peer is talking again, it rejoins.
        t += 6_000;
        d.heartbeat(id(3), t);
        d.heartbeat(id(3), t + 500);
        d.heartbeat(id(3), t + 1_000);
        assert_eq!(d.level(id(3), t + 1_200), SuspicionLevel::Healthy);
        assert_eq!(d.rejoins, 1);
    }

    #[test]
    fn stalest_prefers_longest_silence_and_unknowns() {
        let mut d = HealthDetector::new(cfg());
        d.heartbeat(id(1), 1_000);
        d.heartbeat(id(2), 5_000);
        // Both known peers are past the keepalive bar at t=10s; id(1) is
        // staler. An unknown candidate beats both.
        assert_eq!(d.stalest(&[id(1), id(2)], 10_000), Some(id(1)));
        assert_eq!(d.stalest(&[id(1), id(2), id(4)], 10_000), Some(id(4)));
        // Fresh peers are not pinged.
        d.heartbeat(id(1), 9_500);
        d.heartbeat(id(2), 9_600);
        assert_eq!(d.stalest(&[id(1), id(2)], 10_000), None);
    }

    #[test]
    fn forget_drops_state() {
        let mut d = HealthDetector::new(cfg());
        d.miss(id(5), 100);
        d.forget(id(5));
        assert_eq!(d.peek(id(5)), SuspicionLevel::Healthy);
        assert_eq!(d.tracked(), 0);
        assert_eq!(d.last_heard(id(5)), None);
    }

    #[test]
    fn last_heard_is_the_latest_beat() {
        let mut d = HealthDetector::new(cfg());
        assert_eq!(d.last_heard(id(2)), None);
        d.heartbeat(id(2), 300);
        d.heartbeat(id(2), 800);
        // A beat stamped in the past does not move it back; a miss does
        // not move it at all.
        d.heartbeat(id(2), 700);
        d.miss(id(2), 5_000);
        assert_eq!(d.last_heard(id(2)), Some(800));
        d.miss(id(3), 900);
        assert_eq!(d.last_heard(id(3)), Some(900));
        assert_eq!(d.suspects, 2);
    }

    #[test]
    fn full_window_never_grows_its_buffer() {
        let mut d = HealthDetector::new(cfg());
        let t = warmed(&mut d, id(7), 500, 1_000);
        d.heartbeat(id(7), t + 700);
        let e = d.peers.get(id(7)).expect("peer 7 is tracked");
        assert_eq!(e.intervals.len(), WINDOW);
        assert_eq!(e.intervals.capacity(), WINDOW);
        // Oldest first: the last push evicted one 500 and landed last.
        let kept: Vec<u32> = e.window().collect();
        assert_eq!(kept[..WINDOW - 1], [500; WINDOW - 1]);
        assert_eq!(kept[WINDOW - 1], 700);
    }

    #[test]
    fn a_tracked_peer_takes_64_bytes() {
        // The window's buffer and the flap state behind pointers.
        assert!(std::mem::size_of::<PeerHealth>() <= 64);
    }

    #[test]
    fn forget_gives_capacity_back() {
        let mut d = HealthDetector::new(cfg());
        for p in 1..=9 {
            d.heartbeat(id(p), 100);
        }
        for p in [2, 5, 9] {
            d.forget(id(p));
        }
        assert_eq!(d.tracked(), 6);
        assert_eq!(d.peers.ids.capacity(), d.peers.ids.len());
        assert_eq!(d.peers.state.capacity(), d.peers.state.len());
    }

    #[test]
    fn a_served_quarantine_drops_the_flap_state() {
        let mut d = HealthDetector::new(cfg());
        let mut t = warmed(&mut d, id(7), 500, 10);
        assert!(d.peers.get(id(7)).expect("tracked").flap.is_none());
        while d.level(id(7), t) != SuspicionLevel::Quarantined {
            d.miss(id(7), t);
            t += 100;
            d.heartbeat(id(7), t);
            assert!(d.peers.get(id(7)).expect("tracked").flap.is_some());
        }
        t += cfg().quarantine_ms;
        d.heartbeat(id(7), t);
        assert_eq!(d.level(id(7), t), SuspicionLevel::Healthy);
        assert!(d.peers.get(id(7)).expect("tracked").flap.is_none());
    }

    #[test]
    fn a_gap_past_u32_milliseconds_is_held_at_the_cap() {
        let mut d = HealthDetector::new(cfg());
        let t = warmed(&mut d, id(7), 500, 4);
        let late = t + u64::from(u32::MAX) + 1_000;
        d.heartbeat(id(7), late);
        let e = d.peers.get(id(7)).expect("peer 7 is tracked");
        assert_eq!(e.window().last(), Some(u32::MAX));
        assert_eq!(d.level(id(7), late), SuspicionLevel::Healthy);
    }

    #[test]
    fn phi_at_zero_silence_never_exceeds_the_constant() {
        assert!(ZERO_SILENCE_PHI_MAX > 2f64.log10());
        let mut closest = 0.0f64;
        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut d = HealthDetector::new(HealthConfig::default());
            let mut t = 0u64;
            for step in 0..200 {
                // A window of 1 ms beats first: the smallest mean under
                // the deviation floor, the closest phi gets to log10 2.
                t += if step < 40 {
                    1
                } else {
                    1 << rng.random_range(0..24u32)
                };
                d.heartbeat(id(1), t);
                let phi = d.phi(id(1), t);
                assert!(phi <= ZERO_SILENCE_PHI_MAX, "seed {seed}: phi {phi}");
                closest = closest.max(phi);
            }
        }
        assert!(closest > 0.29, "the bound is near tight: saw {closest}");
    }

    /// The zero-silence shortcut and the kept fit are exact: against a
    /// detector that fits the window on every beat and every evaluation,
    /// every observable agrees after every call — phi to the bit — across
    /// `forget`, `miss` and beats stamped in the past.
    #[test]
    fn heartbeat_shortcut_matches_the_always_fit_reference() {
        let (mut suspects, mut quarantines, mut rejoins) = (0, 0, 0);
        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut fast = HealthDetector::new(cfg());
            let mut slow = HealthDetector::new(cfg());
            let mut t = 0u64;
            for step in 0..2_000 {
                // Mostly a steady cadence; now and then a silence long
                // enough to cross phi (and, repeated, to flap into
                // quarantine and serve it out).
                t += match rng.random_range(0..20u32) {
                    0 => rng.random_range(3_000..9_000u64),
                    _ => rng.random_range(50..600u64),
                };
                let peer = id(rng.random_range(1..=3u64));
                match rng.random_range(0..20u32) {
                    0 => {
                        fast.forget(peer);
                        slow.forget(peer);
                    }
                    1 | 2 => {
                        fast.miss(peer, t);
                        slow.miss(peer, t);
                    }
                    3..=8 => assert_eq!(fast.level(peer, t), slow.level_reference(peer, t)),
                    // A beat stamped in the past scores a zero silence too.
                    9 => {
                        let past = t - rng.random_range(0..50u64);
                        fast.heartbeat(peer, past);
                        slow.heartbeat_reference(peer, past);
                    }
                    _ => {
                        fast.heartbeat(peer, t);
                        slow.heartbeat_reference(peer, t);
                    }
                }
                assert!(
                    fast.peers().eq(slow.peers()),
                    "seed {seed} step {step}: levels diverged"
                );
                for p in (1..=3u64).map(id) {
                    for at in [t, t + 700] {
                        assert_eq!(
                            fast.phi(p, at).to_bits(),
                            slow.phi_reference(p, at).to_bits(),
                            "seed {seed} step {step}: phi of {p:?} at {at}"
                        );
                    }
                }
                assert_eq!(
                    (fast.suspects, fast.quarantines, fast.rejoins),
                    (slow.suspects, slow.quarantines, slow.rejoins),
                    "seed {seed} step {step}"
                );
            }
            suspects += fast.suspects;
            quarantines += fast.quarantines;
            rejoins += fast.rejoins;
        }
        assert!(
            suspects > 0 && quarantines > 0 && rejoins > 0,
            "streams never left Healthy: {suspects} / {quarantines} / {rejoins}"
        );
    }

    #[test]
    fn determinism_same_schedule_same_trajectory() {
        let run = || {
            let mut d = HealthDetector::new(cfg());
            let mut levels = Vec::new();
            let t = warmed(&mut d, id(8), 400, 16);
            for step in 0..40u64 {
                let now = t + step * 300;
                if step % 7 == 0 {
                    d.heartbeat(id(8), now);
                }
                levels.push(d.level(id(8), now));
            }
            (levels, d.suspects, d.quarantines, d.rejoins)
        };
        assert_eq!(run(), run());
    }
}
