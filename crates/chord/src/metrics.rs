//! Per-node observability: message counters, histograms and event traces.
//!
//! The paper's evaluation is largely message-count based: the distribution
//! of aggregation messages across nodes (Fig. 8a), imbalance factors
//! (Fig. 8b) and maintenance overhead during churn. Every layer keeps one
//! [`Metrics`] and bumps it on every message, so a bump has to cost less
//! than the message: tallies live in small contiguous rows — one
//! `(kind, sent, received)` row per message kind, one slot per named
//! counter, one per named [`LogHist`] — found by comparing the
//! `&'static str`'s pointer and length (same literal, same row), with a
//! contents comparison only for a name not seen at that address before.
//! The sorted, mergeable, renderable [`Registry`] is a *snapshot* built
//! from those rows by [`Metrics::export_into`] at scrape / merge time; a
//! bounded [`Tracer`] records typed events with causal trace ids alongside
//! the tallies.

#![deny(clippy::unwrap_used)]

use dat_obs::{row_index, EventKind, Key, LogHist, Registry, Tracer};

/// Which direction a kind-labeled count applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Outgoing traffic (`sent_total`).
    Sent,
    /// Incoming traffic (`received_total`).
    Received,
}

/// Traffic of one message kind: `(sent, received)`.
type Traffic = (u64, u64);

/// `name`'s row, appended as `T::default()` if new (see
/// [`dat_obs::row_index`]).
fn row<'a, T: Default>(rows: &'a mut Vec<(&'static str, T)>, name: &'static str) -> &'a mut T {
    let i = row_index(rows, name);
    &mut rows[i].1
}

/// Observability state kept by every protocol node: dense tally rows
/// (per-kind traffic, named counters, named histograms), an event tracer,
/// and the three loose counters the transports bump directly. The
/// per-kind traffic rows are the tracer's label table: a traced `Send` /
/// `Recv` names its kind by that row's index.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, LogHist)>,
    tracer: Tracer<Traffic>,
    /// Requests that expired in the pending table.
    pub timeouts: u64,
    /// Requests re-sent after an RTO expiry (bounded-retry recovery).
    pub retransmits: u64,
    /// Messages dropped (hop budget, inactive node, empty table).
    pub dropped: u64,
}

impl Metrics {
    /// The single kind-label counting helper: every sent/received tally —
    /// whole messages or bare kind labels — funnels through here.
    fn count_kind(&mut self, dir: Dir, kind: &'static str) {
        let traffic = self.tracer.label_row(kind);
        match dir {
            Dir::Sent => traffic.0 += 1,
            Dir::Received => traffic.1 += 1,
        }
    }

    /// Record an outgoing message by kind label (for layers above Chord).
    pub fn count_sent_kind(&mut self, kind: &'static str) {
        self.count_kind(Dir::Sent, kind);
    }

    /// Record an incoming message by kind label (for layers above Chord).
    pub fn count_received_kind(&mut self, kind: &'static str) {
        self.count_kind(Dir::Received, kind);
    }

    /// Count an outgoing message and, under a non-zero causal `trace_id`,
    /// trace it (`peer` is the destination node id, or the routing key for
    /// routed sends). Id 0 means untraced: counted only, never ringed —
    /// no reader asks for it, and it would evict the events one does.
    pub fn on_send(&mut self, at_ms: u64, trace_id: u64, kind: &'static str, peer: u64) {
        self.count_kind(Dir::Sent, kind);
        if trace_id != 0 {
            self.tracer
                .record(at_ms, trace_id, EventKind::Send { kind, to: peer });
        }
    }

    /// Count an incoming message and, under a non-zero `trace_id`, trace
    /// it; id 0 is counted only, as in [`Metrics::on_send`].
    pub fn on_recv(&mut self, at_ms: u64, trace_id: u64, kind: &'static str, peer: u64) {
        self.count_kind(Dir::Received, kind);
        if trace_id != 0 {
            self.tracer
                .record(at_ms, trace_id, EventKind::Recv { kind, from: peer });
        }
    }

    /// Record a state event (reports, failovers…), whatever its id.
    pub fn trace(&mut self, at_ms: u64, trace_id: u64, kind: EventKind) {
        self.tracer.record(at_ms, trace_id, kind);
    }

    /// Record a histogram sample (e.g. `route_hops`, `rtt_ms`).
    pub fn observe(&mut self, name: &'static str, v: u64) {
        row(&mut self.hists, name).observe(v);
    }

    /// Bump an arbitrary unlabeled counter — for layers above Chord that
    /// need bespoke tallies (e.g. `proactive_reparents_total`). Exported
    /// with the layer stamp by [`Metrics::export_into`] like every other
    /// series.
    pub fn inc(&mut self, name: &'static str) {
        *row(&mut self.counters, name) += 1;
    }

    /// Sum of every counter series named `name`: a counter bumped with
    /// [`Metrics::inc`], or all kinds of `sent_total` / `received_total`.
    pub fn get(&self, name: &str) -> u64 {
        let named: u64 = self
            .counters
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .sum();
        let traffic: u64 = match name {
            "sent_total" => self.kinds().iter().map(|(_, t)| t.0).sum(),
            "received_total" => self.kinds().iter().map(|(_, t)| t.1).sum(),
            _ => 0,
        };
        named + traffic
    }

    /// The embedded event tracer.
    pub fn tracer(&self) -> &Tracer<Traffic> {
        &self.tracer
    }

    /// The per-kind traffic rows.
    fn kinds(&self) -> &[(&'static str, Traffic)] {
        self.tracer.labels()
    }

    /// Total messages sent.
    pub fn sent_total(&self) -> u64 {
        self.get("sent_total")
    }

    /// Total messages received.
    pub fn received_total(&self) -> u64 {
        self.get("received_total")
    }

    fn traffic_of(&self, kind: &str) -> Traffic {
        self.kinds()
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or((0, 0), |(_, t)| *t)
    }

    /// Messages sent of a given kind.
    pub fn sent_of(&self, kind: &str) -> u64 {
        self.traffic_of(kind).0
    }

    /// Messages received of a given kind.
    pub fn received_of(&self, kind: &str) -> u64 {
        self.traffic_of(kind).1
    }

    /// Sum of sent counts over `kinds`.
    pub fn sent_of_kinds(&self, kinds: &[&str]) -> u64 {
        kinds.iter().map(|k| self.sent_of(k)).sum()
    }

    /// Iterate `(kind, sent, received)` over every kind seen, sorted.
    pub fn by_kind(&self) -> Vec<(&'static str, u64, u64)> {
        let mut rows: Vec<_> = self.kinds().iter().map(|&(k, (s, r))| (k, s, r)).collect();
        rows.sort_unstable_by_key(|r| r.0);
        rows
    }

    /// Merge another metrics snapshot into this one (tallies add,
    /// histograms merge; the other's trace buffer is left alone — traces
    /// are per-node).
    pub fn merge(&mut self, other: &Metrics) {
        for &(kind, (sent, received)) in other.kinds() {
            let traffic = self.tracer.label_row(kind);
            traffic.0 += sent;
            traffic.1 += received;
        }
        for &(name, n) in &other.counters {
            *row(&mut self.counters, name) += n;
        }
        for (name, h) in &other.hists {
            row(&mut self.hists, name).merge(h);
        }
        self.timeouts += other.timeouts;
        self.retransmits += other.retransmits;
        self.dropped += other.dropped;
    }

    /// Reset every counter, histogram and the trace buffer.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.hists.clear();
        self.tracer.reset();
        self.timeouts = 0;
        self.retransmits = 0;
        self.dropped = 0;
    }

    /// Build this node's series into a wider registry, stamping every one
    /// with `layer` (e.g. `chord`, `dat`) and materializing the three
    /// loose counters as proper series. A kind that was only ever sent
    /// (or only received) exports only that side.
    pub fn export_into(&self, out: &mut Registry, layer: &'static str) {
        let stamped = |name: &'static str| Key::new(name).label("layer", layer);
        for &(kind, (sent, received)) in self.kinds() {
            for (name, n) in [("sent_total", sent), ("received_total", received)] {
                if n > 0 {
                    out.counter_add(Key::new(name).label("kind", kind).label("layer", layer), n);
                }
            }
        }
        for &(name, n) in &self.counters {
            out.counter_add(stamped(name), n);
        }
        for (name, h) in &self.hists {
            out.hist_merge(stamped(name), h);
        }
        out.counter_add(stamped("timeouts_total"), self.timeouts);
        out.counter_add(stamped("retransmits_total"), self.retransmits);
        out.counter_add(stamped("dropped_total"), self.dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn counting_and_totals() {
        let mut m = Metrics::default();
        m.count_sent_kind("ping");
        m.count_sent_kind("ping");
        m.count_received_kind("ping");
        assert_eq!(m.sent_total(), 2);
        assert_eq!(m.received_total(), 1);
        assert_eq!(m.sent_of("ping"), 2);
        assert_eq!(m.sent_of("pong"), 0);
    }

    #[test]
    fn custom_kinds_and_merge() {
        let mut a = Metrics::default();
        a.count_sent_kind("dat_update");
        a.count_received_kind("dat_update");
        let mut b = Metrics::default();
        b.count_sent_kind("dat_update");
        b.timeouts = 3;
        a.merge(&b);
        assert_eq!(a.sent_of("dat_update"), 2);
        assert_eq!(a.received_of("dat_update"), 1);
        assert_eq!(a.timeouts, 3);
    }

    #[test]
    fn by_kind_sorted() {
        let mut m = Metrics::default();
        m.count_sent_kind("zeta");
        m.count_received_kind("alpha");
        let rows = m.by_kind();
        assert_eq!(rows[0].0, "alpha");
        assert_eq!(rows[1].0, "zeta");
        assert_eq!(rows, vec![("alpha", 0, 1), ("zeta", 1, 0)]);
    }

    #[test]
    fn reset_clears() {
        let mut m = Metrics::default();
        m.count_sent_kind("ping");
        m.dropped = 2;
        m.reset();
        assert_eq!(m.sent_total(), 0);
        assert_eq!(m.dropped, 0);
    }

    #[test]
    fn send_recv_helpers_count_and_trace() {
        let mut m = Metrics::default();
        m.on_send(10, 42, "dat_update", 7);
        m.on_recv(11, 42, "dat_update", 3);
        assert_eq!(m.sent_of("dat_update"), 1);
        assert_eq!(m.received_of("dat_update"), 1);
        let evs: Vec<_> = m.tracer().events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].trace_id, 42);
        assert!(matches!(
            evs[0].kind,
            EventKind::Send {
                kind: "dat_update",
                to: 7
            }
        ));
        m.reset();
        assert!(m.tracer().is_empty());
        // Trace id 0 is "untraced": counted, never ringed.
        m.on_send(12, 0, "ping", 7);
        m.on_recv(13, 0, "ping", 3);
        assert_eq!((m.sent_of("ping"), m.received_of("ping")), (1, 1));
        assert!(m.tracer().is_empty());
    }

    #[test]
    fn export_stamps_layer_and_loose_counters() {
        let mut m = Metrics::default();
        m.count_sent_kind("ping");
        m.timeouts = 2;
        m.observe("rtt_ms", 5);
        let mut reg = Registry::new();
        m.export_into(&mut reg, "chord");
        assert_eq!(reg.counter_with("sent_total", "chord"), 1);
        assert_eq!(reg.counter_with("timeouts_total", "chord"), 2);
        assert_eq!(reg.hist_sum("rtt_ms").count(), 1);
        dat_obs::validate_prometheus(&reg.render_prometheus()).expect("valid dump");
    }

    /// Two copies of one literal need not share an address (another
    /// crate, another codegen unit); contents decide, the pointer is only
    /// the fast path.
    #[test]
    fn equal_names_at_different_addresses_share_one_row() {
        let leaked: &'static str = Box::leak(String::from("dat_update").into_boxed_str());
        assert!(!std::ptr::eq(leaked.as_ptr(), "dat_update".as_ptr()));
        let mut m = Metrics::default();
        for kind in ["dat_update", leaked, "dat_update", leaked] {
            m.count_sent_kind(kind);
            m.inc(kind);
            m.observe(kind, 3);
        }
        m.count_received_kind(leaked);
        assert_eq!(m.by_kind(), vec![("dat_update", 4, 1)]);
        assert_eq!(m.get("dat_update"), 4);
        let mut reg = Registry::new();
        m.export_into(&mut reg, "dat");
        let sent: Vec<_> = reg
            .counters()
            .filter(|(k, _)| k.name == "sent_total")
            .collect();
        assert_eq!(sent.len(), 1, "one exported series: {sent:?}");
        assert_eq!(sent[0].1, 4);
        assert_eq!(reg.hists().count(), 1);
        assert_eq!(reg.hist_sum("dat_update").count(), 4);
    }

    #[test]
    fn k_distinct_names_leave_row_capacity_k() {
        let names = ["rtt_ms", "route_hops", "branching", "fanout", "rto_ms"];
        for k in 1..=names.len() {
            let mut m = Metrics::default();
            for name in &names[..k] {
                // A repeat finds its row and allocates nothing.
                m.observe(name, 1);
                m.observe(name, 2);
                m.inc(name);
                m.count_sent_kind(name);
            }
            assert_eq!(m.hists.capacity(), k, "{k} histogram rows");
            assert_eq!(m.counters.capacity(), k, "{k} counter rows");
            assert_eq!(m.kinds().len(), k, "{k} kind rows");
        }
    }

    const KINDS: [&str; 7] = [
        "ping",
        "pong",
        "app",
        "dat_update",
        "notify",
        "find_successor",
        "route",
    ];
    const COUNTERS: [&str; 3] = ["proactive_reparents_total", "fenced_total", "sent_total"];
    const HISTS: [&str; 2] = ["rtt_ms", "route_hops"];

    /// A seeded random bump sequence over every kind of tally.
    fn bumped(rng: &mut SmallRng) -> Metrics {
        let mut m = Metrics::default();
        for _ in 0..rng.random_range(0..200usize) {
            let kind = KINDS[rng.random_range(0..KINDS.len())];
            match rng.random_range(0..8u32) {
                0 | 1 => m.count_sent_kind(kind),
                2 => m.count_received_kind(kind),
                3 => m.on_send(1, 9, kind, 2),
                4 => m.on_recv(1, 9, kind, 2),
                5 => m.inc(COUNTERS[rng.random_range(0..COUNTERS.len())]),
                6 => m.observe(
                    HISTS[rng.random_range(0..HISTS.len())],
                    rng.random::<u64>() >> 40,
                ),
                _ => match rng.random_range(0..3u32) {
                    0 => m.timeouts += 1,
                    1 => m.retransmits += 1,
                    _ => m.dropped += 1,
                },
            }
        }
        m
    }

    fn export(m: &Metrics) -> Registry {
        let mut reg = Registry::new();
        m.export_into(&mut reg, "chord");
        reg
    }

    fn merged(a: &Metrics, b: &Metrics) -> Metrics {
        let mut out = a.clone();
        out.merge(b);
        out
    }

    #[test]
    fn merge_obeys_the_registry_laws() {
        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (a, b, c) = (bumped(&mut rng), bumped(&mut rng), bumped(&mut rng));
            let identity = Metrics::default();

            assert_eq!(export(&merged(&a, &b)), export(&merged(&b, &a)), "commutes");
            assert_eq!(
                export(&merged(&merged(&a, &b), &c)),
                export(&merged(&a, &merged(&b, &c))),
                "associates"
            );
            assert_eq!(export(&merged(&a, &identity)), export(&a), "right identity");
            assert_eq!(export(&merged(&identity, &a)), export(&a), "left identity");

            // Exporting is a homomorphism: merge then export, or export
            // then merge, is the same registry — and the same answers.
            let mut regs = export(&a);
            regs.merge(&export(&b));
            let ab = merged(&a, &b);
            assert_eq!(export(&ab), regs);
            assert_eq!(ab.sent_total(), a.sent_total() + b.sent_total());
            assert_eq!(ab.sent_total(), regs.counter_sum("sent_total"));
            assert_eq!(
                ab.received_of("ping"),
                regs.counter_with("received_total", "ping")
            );

            let mut r = ab;
            r.reset();
            assert_eq!(export(&r), export(&identity), "reset is the identity");
            assert!(r.by_kind().is_empty() && r.tracer().is_empty());
        }
    }
}
