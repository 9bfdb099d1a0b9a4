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

/// Index of `name`'s row in a table keyed by static labels, appending
/// `T::default()` for a new name. A name already seen at this address hits
/// on pointer + length alone; only a first sighting (or a second copy of
/// the same text) compares contents, so equal strings always share one
/// row. Rows grow one at a time: a table holds a handful of names, and
/// doubling would leave most of every node's rows empty.
pub fn row_index<T: Default>(rows: &mut Vec<(&'static str, T)>, name: &'static str) -> usize {
    let same_literal = |r: &(&'static str, T)| {
        std::ptr::eq(r.0.as_ptr(), name.as_ptr()) && r.0.len() == name.len()
    };
    rows.iter()
        .position(same_literal)
        .or_else(|| rows.iter().position(|r| r.0 == name))
        .unwrap_or_else(|| {
            rows.reserve_exact(1);
            rows.push((name, T::default()));
            rows.len() - 1
        })
}

/// A bounded ring buffer of [`Event`]s with a logical clock, and the
/// table of message-kind labels its `Send` / `Recv` events name.
///
/// Recording is O(1); when the ring is full the oldest event is evicted
/// and counted in [`Tracer::dropped`]. The ring starts without heap and
/// grows with what is recorded: every layer of every node owns a tracer,
/// and many of them (quiet handlers, fleets run with tracing off) record
/// little or nothing.
///
/// The ring stores each event as a 32-byte record, not as the 64-byte
/// [`Event`] it hands back:
///
/// * `lts` is not stored: the ring only evicts from the front and empties
///   as a whole, so it stays gap-free and the newest record's `lts` is the
///   clock;
/// * `at_ms` and `trace_id` are stored as they are, 16 bytes;
/// * the kind takes the other 16: a `Send` / `Recv` label is a `u32` index
///   into the label table, beside the peer's `u64`; `RouteHop`, `Suspect`
///   and `Poisoned` fit as they are; `Report`, `Failover` and
///   `FenceReject` — several 64-bit fields, a handful per run and only at
///   roots — keep their [`EventKind`] in a `Box`.
///
/// [`Tracer::events`] decodes the records back into exactly the events
/// recorded.
///
/// Each label row carries a `T` for the owner: `dat_chord::Metrics` keeps
/// its per-kind traffic there ([`Tracer::label_row`]), so a node keeps
/// one table of the kinds it has seen, counted and traced alike, and a
/// tracer is no larger than a ring and that table.
#[derive(Clone, Debug)]
pub struct Tracer<T = ()> {
    ring: VecDeque<Record>,
    labels: Vec<(&'static str, T)>,
    cap: usize,
    lts: u64,
    dropped: u64,
}

/// One buffered event as the ring stores it (see [`Tracer`]).
#[derive(Clone, Debug)]
struct Record {
    at_ms: u64,
    trace_id: u64,
    kind: Stored,
}

/// An [`EventKind`] in 16 bytes.
#[derive(Clone, Debug)]
enum Stored {
    Send { label: u32, to: u64 },
    Recv { label: u32, from: u64 },
    RouteHop { key: u64, hops: u32 },
    Suspect { node: u64 },
    Poisoned { node: u64 },
    Wide(Box<EventKind>),
}

/// Default ring capacity — 16 epochs of a 4-key DAT node, which rings
/// about one event per key per epoch; a full ring measures 2 KiB (one per
/// layer of every node).
pub const DEFAULT_TRACE_CAP: usize = 64;

impl<T: Default> Default for Tracer<T> {
    fn default() -> Self {
        Tracer::new(DEFAULT_TRACE_CAP)
    }
}

impl<T: Default> Tracer<T> {
    /// Record one event.
    pub fn record(&mut self, at_ms: u64, trace_id: u64, kind: EventKind) {
        let mut label = |name| row_index(&mut self.labels, name) as u32;
        let kind = match kind {
            EventKind::Send { kind, to } => Stored::Send {
                label: label(kind),
                to,
            },
            EventKind::Recv { kind, from } => Stored::Recv {
                label: label(kind),
                from,
            },
            EventKind::RouteHop { key, hops } => Stored::RouteHop { key, hops },
            EventKind::Suspect { node } => Stored::Suspect { node },
            EventKind::Poisoned { node } => Stored::Poisoned { node },
            wide => Stored::Wide(Box::new(wide)),
        };
        self.lts += 1;
        if self.ring.capacity() == 0 {
            // The whole ring at once: grown by doubling, a ring that fills
            // (every DAT node's does) frees a 1 KiB, 512 B, 256 B ... chain
            // per node, which the allocator keeps as holes (~2 MiB of
            // resident set over an 8192-node fleet).
            self.ring.reserve_exact(self.cap);
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(Record {
            at_ms,
            trace_id,
            kind,
        });
    }

    /// The owner's data on `label`, its row appended if new.
    pub fn label_row(&mut self, label: &'static str) -> &mut T {
        let i = row_index(&mut self.labels, label);
        &mut self.labels[i].1
    }
}

impl<T> Tracer<T> {
    /// A tracer holding at most `cap` events: no heap until the first,
    /// which reserves all `cap` slots.
    pub fn new(cap: usize) -> Self {
        Tracer {
            ring: VecDeque::new(),
            labels: Vec::new(),
            cap: cap.max(1),
            lts: 0,
            dropped: 0,
        }
    }

    /// The label table, in order of first sighting, with the owner's data.
    pub fn labels(&self) -> &[(&'static str, T)] {
        &self.labels
    }

    /// The event `r` stores, stamped with logical time `lts`.
    fn decode(&self, lts: u64, r: &Record) -> Event {
        let kind = match &r.kind {
            Stored::Send { label, to } => EventKind::Send {
                kind: self.labels[*label as usize].0,
                to: *to,
            },
            Stored::Recv { label, from } => EventKind::Recv {
                kind: self.labels[*label as usize].0,
                from: *from,
            },
            Stored::RouteHop { key, hops } => EventKind::RouteHop {
                key: *key,
                hops: *hops,
            },
            Stored::Suspect { node } => EventKind::Suspect { node: *node },
            Stored::Poisoned { node } => EventKind::Poisoned { node: *node },
            Stored::Wide(kind) => (**kind).clone(),
        };
        Event {
            lts,
            at_ms: r.at_ms,
            trace_id: r.trace_id,
            kind,
        }
    }

    /// The buffered events, oldest first, decoded.
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        // Gap-free: the oldest buffered event's clock is the newest's
        // less the events after it.
        let first = self.lts + 1 - self.ring.len() as u64;
        (first..)
            .zip(&self.ring)
            .map(|(lts, r)| self.decode(lts, r))
    }

    /// Drain and return all buffered events.
    pub fn take(&mut self) -> Vec<Event> {
        let events = self.events().collect();
        self.ring.clear();
        events
    }

    /// Drop all buffered events (logical clock keeps running).
    pub fn clear(&mut self) {
        self.ring.clear();
    }

    /// Drop all buffered events and the label table with its data
    /// (logical clock keeps running).
    pub fn reset(&mut self) {
        self.ring.clear();
        self.labels.clear();
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
        self.events()
            .fold(0u64, |acc, e| acc.wrapping_add(e.content_hash()))
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
        let mut a: Tracer = Tracer::new(16);
        a.record(10, 1, EventKind::Send { kind: "x", to: 2 });
        a.record(20, 1, EventKind::Recv { kind: "x", from: 1 });
        let mut b: Tracer = Tracer::new(16);
        b.record(99, 1, EventKind::Recv { kind: "x", from: 1 });
        b.record(7, 1, EventKind::Send { kind: "x", to: 2 });
        assert_eq!(a.digest(), b.digest());
        let mut c: Tracer = Tracer::new(16);
        c.record(10, 2, EventKind::Send { kind: "x", to: 2 });
        c.record(20, 1, EventKind::Recv { kind: "x", from: 1 });
        assert_ne!(a.digest(), c.digest(), "trace id is content");
    }

    /// Every kind at its field extremes; `Send` and `Recv` labels with
    /// the same text at two addresses.
    fn every_kind() -> Vec<EventKind> {
        let copy: &'static str = String::from("dat_update").leak();
        assert!(!std::ptr::eq(copy.as_ptr(), "dat_update".as_ptr()));
        let mut kinds = Vec::new();
        for x in [0, u64::MAX] {
            kinds.extend([
                EventKind::Send {
                    kind: "dat_update",
                    to: x,
                },
                EventKind::Send { kind: copy, to: x },
                EventKind::Recv {
                    kind: "dat_update",
                    from: x,
                },
                EventKind::Recv {
                    kind: copy,
                    from: x,
                },
                EventKind::Send { kind: "", to: x },
                EventKind::Recv {
                    kind: "ping",
                    from: x,
                },
                EventKind::RouteHop { key: x, hops: 0 },
                EventKind::RouteHop {
                    key: x,
                    hops: u32::MAX,
                },
                EventKind::Report {
                    key: x,
                    epoch: x,
                    contributors: x,
                    seq: x,
                },
                EventKind::Report {
                    key: x,
                    epoch: !x,
                    contributors: x,
                    seq: !x,
                },
                EventKind::Failover { key: x, seq: !x },
                EventKind::FenceReject { key: !x, seq: x },
                EventKind::Suspect { node: x },
                EventKind::Poisoned { node: x },
            ]);
        }
        kinds
    }

    #[test]
    fn events_read_back_as_recorded() {
        let kinds = every_kind();
        let mut want = Vec::new();
        let mut t: Tracer = Tracer::new(kinds.len());
        for (i, kind) in kinds.into_iter().enumerate() {
            let (at_ms, trace_id) = match i % 3 {
                0 => (0, 0),
                1 => (u64::MAX, u64::MAX),
                _ => (i as u64, u64::MAX - i as u64),
            };
            want.push(Event {
                lts: i as u64 + 1,
                at_ms,
                trace_id,
                kind: kind.clone(),
            });
            t.record(at_ms, trace_id, kind);
        }
        let got: Vec<Event> = t.events().collect();
        assert_eq!(got, want);
        assert_eq!(t.digest(), digest_events(want.iter()));
        let hashes = |evs: &[Event]| evs.iter().map(Event::content_hash).collect::<Vec<_>>();
        assert_eq!(hashes(&got), hashes(&want));
        // Labels are kept once per text, whatever their address.
        assert_eq!(t.labels(), [("dat_update", ()), ("", ()), ("ping", ())]);
        assert_eq!(t.take(), want);
        assert!(t.is_empty());
    }

    #[test]
    fn ring_bounds_and_eviction() {
        // Oldest evicted and counted, `lts` gap-free across eviction.
        let kinds = every_kind();
        let cap = 5;
        let mut t: Tracer = Tracer::new(cap);
        let mut want: Vec<Event> = Vec::new();
        for (i, kind) in kinds.iter().enumerate() {
            t.record(i as u64, 7, kind.clone());
            want.push(Event {
                lts: i as u64 + 1,
                at_ms: i as u64,
                trace_id: 7,
                kind: kind.clone(),
            });
            let newest = &want[want.len().saturating_sub(cap)..];
            assert_eq!(t.len(), newest.len());
            assert_eq!(t.events().collect::<Vec<_>>(), newest);
            assert_eq!(t.dropped(), (want.len() - newest.len()) as u64);
        }
        // Emptied, the ring starts again where the clock stands.
        t.clear();
        t.record(0, 0, EventKind::Suspect { node: 1 });
        let lts: Vec<u64> = t.events().map(|e| e.lts).collect();
        assert_eq!(lts, vec![kinds.len() as u64 + 1]);
    }

    #[test]
    fn rows_grow_one_at_a_time_and_share_text() {
        let copy: &'static str = String::from("b").leak();
        let mut rows: Vec<(&'static str, u64)> = Vec::new();
        for (k, name) in ["a", "b", "c"].into_iter().enumerate() {
            assert_eq!(row_index(&mut rows, name), k);
            assert_eq!(row_index(&mut rows, name), k, "a repeat finds its row");
            assert_eq!(rows.capacity(), k + 1, "{} rows", k + 1);
        }
        assert_eq!(row_index(&mut rows, copy), 1, "same text, same row");
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn a_stored_event_takes_32_bytes() {
        assert!(std::mem::size_of::<Record>() <= 32);
    }

    #[test]
    fn ring_holds_no_heap_until_it_records() {
        let mut t: Tracer = Tracer::default();
        assert_eq!(t.ring.capacity(), 0, "a fresh tracer holds no heap");
        t.record(0, 0, hop(0));
        let room = t.ring.capacity();
        assert!(
            room >= DEFAULT_TRACE_CAP,
            "the first record takes the whole ring"
        );
        for i in 1..DEFAULT_TRACE_CAP as u64 {
            t.record(i, 0, hop(i));
        }
        assert_eq!((t.len(), t.dropped()), (DEFAULT_TRACE_CAP, 0));
        assert_eq!(t.ring.capacity(), room, "and never regrows it");
        // One event past cap evicts the first; the ring never grows past cap.
        t.record(999, 0, hop(999));
        assert_eq!((t.len(), t.dropped()), (DEFAULT_TRACE_CAP, 1));
        assert_eq!(t.events().next().map(|e| e.lts), Some(2));
        assert_eq!(t.ring.capacity(), room);
    }
}
