//! Structured event tracing: typed events, bounded per-node ring buffers,
//! causal trace ids, and order-insensitive digests.

use std::collections::VecDeque;

/// FNV-1a over a byte slice — the primitive every digest builds on.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The causal trace id of one aggregation epoch of one key. Every node
/// computes the same id locally (epochs advance in lockstep on a
/// pre-stabilized ring), so an epoch's sends can be correlated fleet-wide
/// without any coordination. Never returns 0 — 0 means "no trace".
pub fn trace_id_for(key: u64, epoch: u64) -> u64 {
    let t = mix64(key ^ mix64(epoch ^ 0x9e37_79b9_7f4a_7c15));
    if t == 0 {
        1
    } else {
        t
    }
}

/// What happened. Node identities are `u64`s (chord ids); message kinds
/// are the same static labels the metrics use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A message left this node for `to`.
    Send {
        /// Message-kind label (e.g. `dat_update`).
        kind: &'static str,
        /// Destination node id (or routing key for routed sends).
        to: u64,
    },
    /// A message arrived from `from`.
    Recv {
        /// Message-kind label.
        kind: &'static str,
        /// Sender node id.
        from: u64,
    },
    /// A routed payload reached its key's owner after `hops` hops.
    RouteHop {
        /// The routing key.
        key: u64,
        /// Hops traversed.
        hops: u32,
    },
    /// The acting root emitted a report.
    Report {
        /// Aggregation key.
        key: u64,
        /// Epoch index.
        epoch: u64,
        /// Contributors folded into the report.
        contributors: u64,
        /// Fencing sequence number.
        seq: u64,
    },
    /// A node adopted replicated root state (warm failover).
    Failover {
        /// Aggregation key.
        key: u64,
        /// Sequence the replica carried.
        seq: u64,
    },
    /// Stale root state (or a stale ex-root) was fenced off.
    FenceReject {
        /// Aggregation key.
        key: u64,
        /// The rejected sequence number.
        seq: u64,
    },
    /// The failure detector crossed its suspicion threshold for `node`
    /// and the layer routed around it proactively (before any RTO).
    Suspect {
        /// The suspected node's id.
        node: u64,
    },
    /// A burst of undecodable frames from one peer crossed the bad-frame
    /// scoring threshold: the peer was reported to the failure detector
    /// as poisoning the wire (repeat offenders end up quarantined).
    Poisoned {
        /// The poisoning node's id.
        node: u64,
    },
}

/// One traced event: logical timestamp, host clock, causal trace id, kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Per-tracer logical timestamp (monotone, gap-free until eviction).
    pub lts: u64,
    /// Host clock (virtual ms in sim, wall ms over UDP).
    pub at_ms: u64,
    /// Causal id (0 = untraced).
    pub trace_id: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Hash of the event's *content* — kind, fields and trace id, but NOT
    /// `lts`/`at_ms`. Two transports delivering the same causal events at
    /// different times and in different orders produce the same content
    /// hashes.
    pub fn content_hash(&self) -> u64 {
        let mut buf = [0u8; 64];
        let mut n = 0usize;
        let mut push = |bytes: &[u8], n: &mut usize| {
            buf[*n..*n + bytes.len()].copy_from_slice(bytes);
            *n += bytes.len();
        };
        push(&self.trace_id.to_le_bytes(), &mut n);
        match &self.kind {
            EventKind::Send { kind, to } => {
                push(&[1], &mut n);
                push(&fnv1a(kind.as_bytes()).to_le_bytes(), &mut n);
                push(&to.to_le_bytes(), &mut n);
            }
            EventKind::Recv { kind, from } => {
                push(&[2], &mut n);
                push(&fnv1a(kind.as_bytes()).to_le_bytes(), &mut n);
                push(&from.to_le_bytes(), &mut n);
            }
            EventKind::RouteHop { key, hops } => {
                push(&[3], &mut n);
                push(&key.to_le_bytes(), &mut n);
                push(&(*hops as u64).to_le_bytes(), &mut n);
            }
            // Tags 4 and 5 are retired: pinned digests hash these tags,
            // never renumber.
            EventKind::Report {
                key,
                epoch,
                contributors,
                seq,
            } => {
                push(&[6], &mut n);
                push(&key.to_le_bytes(), &mut n);
                push(&epoch.to_le_bytes(), &mut n);
                push(&contributors.to_le_bytes(), &mut n);
                push(&seq.to_le_bytes(), &mut n);
            }
            EventKind::Failover { key, seq } => {
                push(&[7], &mut n);
                push(&key.to_le_bytes(), &mut n);
                push(&seq.to_le_bytes(), &mut n);
            }
            EventKind::FenceReject { key, seq } => {
                push(&[8], &mut n);
                push(&key.to_le_bytes(), &mut n);
                push(&seq.to_le_bytes(), &mut n);
            }
            EventKind::Suspect { node } => {
                push(&[9], &mut n);
                push(&node.to_le_bytes(), &mut n);
            }
            EventKind::Poisoned { node } => {
                push(&[10], &mut n);
                push(&node.to_le_bytes(), &mut n);
            }
        }
        fnv1a(&buf[..n])
    }
}

/// Order-insensitive digest of a set of events: the wrapping sum of their
/// content hashes. Insensitive to delivery order and to `lts`/`at_ms`, so
/// a SimNet run and a UDP run of the same causal scenario digest equal.
pub fn digest_events<'a>(events: impl Iterator<Item = &'a Event>) -> u64 {
    events.fold(0u64, |acc, e| acc.wrapping_add(e.content_hash()))
}

/// A bounded ring buffer of [`Event`]s with a logical clock.
///
/// Recording is O(1); when the ring is full the oldest event is evicted
/// and counted in [`Tracer::dropped`]. The ring starts without heap and
/// grows with what is recorded: every layer of every node owns a tracer,
/// and many of them (quiet handlers, fleets run with tracing off) record
/// little or nothing.
#[derive(Clone, Debug)]
pub struct Tracer {
    ring: VecDeque<Event>,
    cap: usize,
    lts: u64,
    dropped: u64,
}

/// Default ring capacity — 16 epochs of a 4-key DAT node, which rings
/// about one event per key per epoch; a full ring measures 4 KiB (one per
/// layer of every node).
pub const DEFAULT_TRACE_CAP: usize = 64;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_TRACE_CAP)
    }
}

impl Tracer {
    /// A tracer holding at most `cap` events (no heap until the first).
    pub fn new(cap: usize) -> Self {
        Tracer {
            ring: VecDeque::new(),
            cap: cap.max(1),
            lts: 0,
            dropped: 0,
        }
    }

    /// Record one event.
    pub fn record(&mut self, at_ms: u64, trace_id: u64, kind: EventKind) {
        self.lts += 1;
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(Event {
            lts: self.lts,
            at_ms,
            trace_id,
            kind,
        });
    }

    /// Iterate buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Drain and return all buffered events.
    pub fn take(&mut self) -> Vec<Event> {
        self.ring.drain(..).collect()
    }

    /// Drop all buffered events (logical clock keeps running).
    pub fn clear(&mut self) {
        self.ring.clear();
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Order-insensitive digest of the buffered events.
    pub fn digest(&self) -> u64 {
        digest_events(self.ring.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(key: u64) -> EventKind {
        EventKind::RouteHop { key, hops: 1 }
    }

    #[test]
    fn trace_ids_are_stable_and_nonzero() {
        assert_eq!(trace_id_for(7, 3), trace_id_for(7, 3));
        assert_ne!(trace_id_for(7, 3), trace_id_for(7, 4));
        assert_ne!(trace_id_for(7, 3), trace_id_for(8, 3));
        assert_ne!(trace_id_for(0, 0), 0);
    }

    #[test]
    fn digest_ignores_order_and_timestamps() {
        let mut a = Tracer::new(16);
        a.record(10, 1, EventKind::Send { kind: "x", to: 2 });
        a.record(20, 1, EventKind::Recv { kind: "x", from: 1 });
        let mut b = Tracer::new(16);
        b.record(99, 1, EventKind::Recv { kind: "x", from: 1 });
        b.record(7, 1, EventKind::Send { kind: "x", to: 2 });
        assert_eq!(a.digest(), b.digest());
        let mut c = Tracer::new(16);
        c.record(10, 2, EventKind::Send { kind: "x", to: 2 });
        c.record(20, 1, EventKind::Recv { kind: "x", from: 1 });
        assert_ne!(a.digest(), c.digest(), "trace id is content");
    }

    #[test]
    fn ring_bounds_and_eviction() {
        let mut t = Tracer::new(3);
        for i in 0..5 {
            t.record(i, 0, hop(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let lts: Vec<u64> = t.events().map(|e| e.lts).collect();
        assert_eq!(lts, vec![3, 4, 5], "oldest evicted, lts monotone");
    }

    #[test]
    fn ring_holds_no_heap_until_it_records() {
        let mut t = Tracer::default();
        assert_eq!(t.ring.capacity(), 0, "a fresh tracer holds no heap");
        for i in 0..DEFAULT_TRACE_CAP as u64 {
            t.record(i, 0, hop(i));
        }
        assert_eq!((t.len(), t.dropped()), (DEFAULT_TRACE_CAP, 0));
        let room = t.ring.capacity();
        assert!(room >= DEFAULT_TRACE_CAP);
        // One event past cap evicts the first; the ring never grows past cap.
        t.record(999, 0, hop(999));
        assert_eq!((t.len(), t.dropped()), (DEFAULT_TRACE_CAP, 1));
        assert_eq!(t.events().next().map(|e| e.lts), Some(2));
        assert_eq!(t.ring.capacity(), room);
    }
}
