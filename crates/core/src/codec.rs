//! Binary wire codec for DAT-layer messages.
//!
//! DAT messages ride inside [`dat_chord::ChordMsg::App`] payloads (and over
//! the UDP RPC transport), so they need a compact, self-describing binary
//! form. The format is hand-rolled little-endian TLV-free framing: a 1-byte
//! message tag followed by fixed-order fields. No serde on the wire — the
//! format is stable, versioned by [`WIRE_VERSION`], and fuzzable.
//!
//! The byte-level primitives ([`Writer`], [`Reader`], [`CodecError`]) are
//! the workspace-shared ones from [`dat_chord::wire`]; this module adds the
//! aggregation vocabulary on top — [`AggPartial`] fields via the
//! [`WritePartial`]/[`ReadPartial`] extension traits, and the [`DatMsg`]
//! message set itself.
//!
//! Tag 6 is retired, not reused: it carried the centralized baseline's raw
//! sample, which is now an ordinary [`DatMsg::Update`], and decodes as
//! [`CodecError::BadTag`].
//!
//! Tag 9, [`DatMsg::Updates`], came without a version bump: it changes no
//! other message. A decoder that predates it refuses it as `BadTag(9)`, so
//! a mixed ring loses the multi-key pushes between the two versions, as it
//! already loses their `RootState` replicas.

#![deny(clippy::unwrap_used)]

use dat_chord::{Id, NodeRef};

use crate::aggregate::{AggPartial, Histogram};
use crate::sketch::Hll;

pub use dat_chord::wire::{CodecError, Reader, Writer};

/// Wire-format version, bumped on incompatible changes.
///
/// v2: [`AggPartial`] gained `contributors`/`age_epochs` (completeness
/// accounting) and [`DatMsg::RootState`] was added (warm root failover).
/// v3: [`AggPartial`] gained `trace_id` (causal epoch tracing).
///
/// Still v3 after [`DatMsg::RootState`] lost its trailing raw-sample list
/// and after [`DatMsg::Updates`] was added:
/// a mixed ring already rejects the other side's `RootState` (a decoder of
/// the old layout reports `Truncated`, the new one finds trailing bytes),
/// and every other message is unchanged. A bump would instead change byte
/// 0 of every DAT frame.
pub const WIRE_VERSION: u8 = 3;

/// Application-protocol discriminator for DAT messages inside
/// [`dat_chord::ChordMsg::App`].
pub const DAT_PROTO: u8 = 1;

/// Extension: encode an [`AggPartial`] onto a shared [`Writer`].
pub trait WritePartial {
    /// Append an aggregate partial.
    fn partial(&mut self, p: &AggPartial) -> &mut Self;
}

impl WritePartial for Writer {
    fn partial(&mut self, p: &AggPartial) -> &mut Self {
        self.u64(p.count)
            .f64(p.sum)
            .f64(p.sum_sq)
            .f64(p.min)
            .f64(p.max)
            .u64(p.contributors)
            .u64(p.age_epochs)
            .u64(p.trace_id);
        match p.histogram() {
            Some(h) => {
                self.u8(1).f64(h.lo).f64(h.hi).u32(h.buckets.len() as u32);
                for &b in &h.buckets {
                    self.u64(b);
                }
            }
            None => {
                self.u8(0);
            }
        }
        match p.distinct() {
            Some(h) => {
                self.u8(1).bytes(h.registers());
            }
            None => {
                self.u8(0);
            }
        }
        self
    }
}

/// Extension: decode an [`AggPartial`] from a shared [`Reader`].
pub trait ReadPartial {
    /// Read an aggregate partial.
    fn partial(&mut self) -> Result<AggPartial, CodecError>;
}

impl ReadPartial for Reader<'_> {
    fn partial(&mut self) -> Result<AggPartial, CodecError> {
        let count = self.u64()?;
        let sum = self.f64()?;
        let sum_sq = self.f64()?;
        let min = self.f64()?;
        let max = self.f64()?;
        let contributors = self.u64()?;
        let age_epochs = self.u64()?;
        let trace_id = self.u64()?;
        let histogram = match self.u8()? {
            0 => None,
            _ => {
                let lo = self.f64()?;
                let hi = self.f64()?;
                let n = self.u32()? as usize;
                if n == 0 || n > 1 << 20 || n * 8 > self.remaining() {
                    return Err(CodecError::BadLength(n as u64));
                }
                let mut buckets = Vec::with_capacity(n);
                for _ in 0..n {
                    buckets.push(self.u64()?);
                }
                Some(Histogram { lo, hi, buckets })
            }
        };
        let distinct = match self.u8()? {
            0 => None,
            _ => {
                let regs = self.bytes()?.to_vec();
                match Hll::from_registers(regs) {
                    Some(h) => Some(h),
                    None => return Err(CodecError::BadLength(0)),
                }
            }
        };
        let mut p = AggPartial::identity();
        (p.count, p.sum, p.sum_sq, p.min, p.max) = (count, sum, sum_sq, min, max);
        (p.contributors, p.age_epochs, p.trace_id) = (contributors, age_epochs, trace_id);
        p.set_sketches(histogram, distinct);
        Ok(p)
    }
}

/// The DAT-layer protocol messages (paper §4: on-demand and continuous
/// aggregate modes).
#[derive(Clone, Debug, PartialEq)]
pub enum DatMsg {
    /// Continuous mode: a child pushes its merged partial for `epoch` to
    /// its current DAT parent. Centralized mode: a node routes its
    /// one-node partial straight to the root.
    Update {
        /// Rendezvous key of the aggregation (the tree id).
        key: Id,
        /// Epoch (time slot) index the partial belongs to.
        epoch: u64,
        /// The merged partial (sender's subtree).
        partial: AggPartial,
        /// The pushing child (soft-state child registry key).
        sender: NodeRef,
    },
    /// Continuous mode: two or more [`DatMsg::Update`]s that one child
    /// pushes to one parent in the same instant, in one frame. The epoch
    /// and sender are written once; each entry is `(key, partial)` of one
    /// `Update`. A lone update always goes out as [`DatMsg::Update`].
    Updates {
        /// Epoch (time slot) index every entry belongs to.
        epoch: u64,
        /// The pushing child.
        sender: NodeRef,
        /// `(key, partial)` per update, in the order they were flushed.
        entries: Vec<(Id, AggPartial)>,
    },
    /// On-demand mode: fan-out query over finger sub-ranges. The receiver
    /// is responsible for `(receiver, limit)` and must answer `parent`.
    Query {
        /// Request id, unique at the initiator.
        reqid: u64,
        /// Rendezvous key of the aggregation being queried.
        key: Id,
        /// Exclusive end of the receiver's responsibility range.
        limit: Id,
        /// The node awaiting this receiver's response.
        parent: NodeRef,
        /// Fan-out depth (diagnostics).
        depth: u32,
    },
    /// On-demand mode: a subtree's merged partial flowing back up.
    Response {
        /// Request id of the query being answered.
        reqid: u64,
        /// Rendezvous key.
        key: Id,
        /// Merged partial of the responding subtree.
        partial: AggPartial,
        /// The responding node.
        sender: NodeRef,
    },
    /// Final answer delivered to the query's requester.
    Result {
        /// Request id of the completed query.
        reqid: u64,
        /// Rendezvous key.
        key: Id,
        /// The global partial.
        partial: AggPartial,
    },
    /// A request routed through Chord to the tree root, asking it to start
    /// an on-demand aggregation on the requester's behalf.
    Request {
        /// Request id chosen by the requester.
        reqid: u64,
        /// Rendezvous key.
        key: Id,
        /// Where the final [`DatMsg::Result`] must be sent.
        requester: NodeRef,
    },
    /// Continuous mode: the sender switched to a different parent; the
    /// receiver must drop the sender's cached partial immediately (without
    /// this, the old and new parent both forward the sender's subtree for
    /// up to the soft-state TTL — duplicate counting that compounds per
    /// tree level under heavy churn or loss).
    Prune {
        /// Rendezvous key.
        key: Id,
        /// The child that moved away.
        sender: NodeRef,
    },
    /// Warm-failover replication: the acting root ships a snapshot of its
    /// per-key soft state (freshest child partials, each with its age in
    /// epochs) to its first `k` successors.
    /// When the rendezvous key remaps after a root crash, the successor
    /// resumes reporting from this replica within one epoch instead of
    /// rebuilding from scratch. `seq` is the per-key fencing sequence: a
    /// receiver that has seen `(seq, root)` from the live root refuses to
    /// report with a stale or equal sequence of its own, so a restarted or
    /// evicted ex-root cannot split-brain the report stream.
    RootState {
        /// Rendezvous key of the replicated aggregation.
        key: Id,
        /// Monotone per-key report sequence at the replicating root.
        seq: u64,
        /// The replicating root (fence identity).
        root: NodeRef,
        /// Cached child partials: `(child id, partial, age in epochs)`.
        children: Vec<(Id, AggPartial, u64)>,
    },
}

impl DatMsg {
    /// Metrics label.
    pub fn kind(&self) -> &'static str {
        match self {
            DatMsg::Update { .. } | DatMsg::Updates { .. } => "dat_update",
            DatMsg::Query { .. } => "dat_query",
            DatMsg::Response { .. } => "dat_response",
            DatMsg::Result { .. } => "dat_result",
            DatMsg::Request { .. } => "dat_request",
            DatMsg::Prune { .. } => "dat_prune",
            DatMsg::RootState { .. } => "dat_root_state",
        }
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(WIRE_VERSION);
        match self {
            DatMsg::Update {
                key,
                epoch,
                partial,
                sender,
            } => {
                w.u8(1)
                    .id(*key)
                    .u64(*epoch)
                    .partial(partial)
                    .node_ref(*sender);
            }
            DatMsg::Updates {
                epoch,
                sender,
                entries,
            } => {
                return encode_updates(*epoch, *sender, entries.iter().map(|(k, p)| (*k, p)));
            }
            DatMsg::Query {
                reqid,
                key,
                limit,
                parent,
                depth,
            } => {
                w.u8(2)
                    .u64(*reqid)
                    .id(*key)
                    .id(*limit)
                    .node_ref(*parent)
                    .u32(*depth);
            }
            DatMsg::Response {
                reqid,
                key,
                partial,
                sender,
            } => {
                w.u8(3)
                    .u64(*reqid)
                    .id(*key)
                    .partial(partial)
                    .node_ref(*sender);
            }
            DatMsg::Result {
                reqid,
                key,
                partial,
            } => {
                w.u8(4).u64(*reqid).id(*key).partial(partial);
            }
            DatMsg::Request {
                reqid,
                key,
                requester,
            } => {
                w.u8(5).u64(*reqid).id(*key).node_ref(*requester);
            }
            DatMsg::Prune { key, sender } => {
                w.u8(7).id(*key).node_ref(*sender);
            }
            DatMsg::RootState {
                key,
                seq,
                root,
                children,
            } => {
                w.u8(8)
                    .id(*key)
                    .u64(*seq)
                    .node_ref(*root)
                    .u32(children.len() as u32);
                for (id, partial, age) in children {
                    w.id(*id).u64(*age).partial(partial);
                }
            }
        }
        w.finish()
    }

    /// Decode from wire bytes (must consume the whole input).
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let ver = r.u8()?;
        if ver != WIRE_VERSION {
            return Err(CodecError::BadVersion(ver));
        }
        let tag = r.u8()?;
        let msg = match tag {
            1 => DatMsg::Update {
                key: r.id()?,
                epoch: r.u64()?,
                partial: r.partial()?,
                sender: r.node_ref()?,
            },
            2 => DatMsg::Query {
                reqid: r.u64()?,
                key: r.id()?,
                limit: r.id()?,
                parent: r.node_ref()?,
                depth: r.u32()?,
            },
            3 => DatMsg::Response {
                reqid: r.u64()?,
                key: r.id()?,
                partial: r.partial()?,
                sender: r.node_ref()?,
            },
            4 => DatMsg::Result {
                reqid: r.u64()?,
                key: r.id()?,
                partial: r.partial()?,
            },
            5 => DatMsg::Request {
                reqid: r.u64()?,
                key: r.id()?,
                requester: r.node_ref()?,
            },
            7 => DatMsg::Prune {
                key: r.id()?,
                sender: r.node_ref()?,
            },
            UPDATES_TAG => {
                let epoch = r.u64()?;
                let sender = r.node_ref()?;
                let n = r.u32()? as usize;
                // A lone update has a frame of its own; a count the rest
                // of the frame cannot hold is refused before allocating.
                if n < 2 || n > r.remaining() / MIN_UPDATE_ENTRY {
                    return Err(CodecError::BadLength(n as u64));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((r.id()?, r.partial()?));
                }
                DatMsg::Updates {
                    epoch,
                    sender,
                    entries,
                }
            }
            8 => {
                let key = r.id()?;
                let seq = r.u64()?;
                let root = r.node_ref()?;
                let n = r.u32()? as usize;
                // A count the rest of the frame cannot hold is refused
                // before allocating.
                if n > r.remaining() / MIN_ROOT_CHILD {
                    return Err(CodecError::BadLength(n as u64));
                }
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = r.id()?;
                    let age = r.u64()?;
                    children.push((id, r.partial()?, age));
                }
                DatMsg::RootState {
                    key,
                    seq,
                    root,
                    children,
                }
            }
            t => return Err(CodecError::BadTag(t)),
        };
        r.expect_end()?;
        Ok(msg)
    }
}

/// Wire tag of [`DatMsg::Updates`].
const UPDATES_TAG: u8 = 9;

/// Fewest bytes one [`DatMsg::Updates`] entry takes: a key and a partial.
const MIN_UPDATE_ENTRY: usize = 8 + MIN_PARTIAL;

/// Bytes of a [`DatMsg::Updates`] frame before its entries: version, tag,
/// epoch, sender and entry count.
const UPDATES_HEADER: usize = 2 + 8 + 16 + 4;

/// Most bytes one [`DatMsg::Updates`] frame may take; the continuous
/// flush starts another frame to the same parent rather than pass it. The
/// frame rides in a Chord `ProbedApp` (36 bytes more), which must stay
/// within the Chord codec's `MAX_FRAME` (64 KiB) and within one UDP
/// datagram (65,507 bytes): 60 KiB keeps clear of both.
pub(crate) const MAX_UPDATES_BYTES: usize = 60 * 1024;

/// Fewest bytes [`WritePartial::partial`] writes: the eight scalars and
/// two absent-flags, with neither histogram nor sketch.
const MIN_PARTIAL: usize = 8 * 8 + 2;

/// Fewest bytes one [`DatMsg::RootState`] child takes: an id, an age and
/// a partial.
const MIN_ROOT_CHILD: usize = 8 + 8 + MIN_PARTIAL;

/// Bytes [`WritePartial::partial`] writes for `p`.
fn partial_len(p: &AggPartial) -> usize {
    let histogram = p.histogram().map_or(0, |h| 8 + 8 + 4 + 8 * h.buckets.len());
    let distinct = p.distinct().map_or(0, |h| 4 + h.registers().len());
    MIN_PARTIAL + histogram + distinct
}

/// How many of `partials`, from the first, one [`DatMsg::Updates`] frame
/// holds within [`MAX_UPDATES_BYTES`]. At least one: a partial too large
/// to share a frame goes out alone.
pub(crate) fn updates_that_fit<'a>(partials: impl IntoIterator<Item = &'a AggPartial>) -> usize {
    let mut len = UPDATES_HEADER;
    let mut n = 0;
    for p in partials {
        len += 8 + partial_len(p);
        if n > 0 && len > MAX_UPDATES_BYTES {
            break;
        }
        n += 1;
    }
    n
}

/// Encode a [`DatMsg::Updates`] frame straight from its entries (two or
/// more), without building the message: the continuous flush path sends
/// partials it keeps elsewhere.
pub(crate) fn encode_updates<'a>(
    epoch: u64,
    sender: NodeRef,
    entries: impl ExactSizeIterator<Item = (Id, &'a AggPartial)>,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(WIRE_VERSION)
        .u8(UPDATES_TAG)
        .u64(epoch)
        .node_ref(sender)
        .u32(entries.len() as u32);
    for (key, partial) in entries {
        w.id(key).partial(partial);
    }
    w.finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dat_chord::NodeAddr;

    fn nr(id: u64) -> NodeRef {
        NodeRef::new(Id(id), NodeAddr(id + 1000))
    }

    fn sample_partial() -> AggPartial {
        let mut p = AggPartial::identity_with_histogram(0.0, 100.0, 8);
        p.absorb(42.0);
        p.absorb(7.5);
        p.set_distinct(Some(crate::sketch::Hll::new(6)));
        p.observe_item(b"site-a");
        p.observe_item(b"site-b");
        p.contributors = 2;
        p.age_epochs = 3;
        p.trace_id = 0xDEAD_BEEF;
        p
    }

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            DatMsg::Update {
                key: Id(77),
                epoch: 9,
                partial: sample_partial(),
                sender: nr(3),
            },
            DatMsg::Updates {
                epoch: 9,
                sender: nr(3),
                entries: vec![
                    (Id(77), sample_partial()),
                    (Id(78), AggPartial::of(1.5)),
                    (Id(79), AggPartial::identity()),
                ],
            },
            DatMsg::Query {
                reqid: u64::MAX,
                key: Id(0),
                limit: Id(u64::MAX),
                parent: nr(12),
                depth: 4,
            },
            DatMsg::Response {
                reqid: 5,
                key: Id(1),
                partial: AggPartial::identity(),
                sender: nr(9),
            },
            DatMsg::Result {
                reqid: 0,
                key: Id(123),
                partial: AggPartial::of(-1.25),
            },
            DatMsg::Request {
                reqid: 42,
                key: Id(55),
                requester: nr(200),
            },
            DatMsg::Prune {
                key: Id(15),
                sender: nr(6),
            },
            DatMsg::RootState {
                key: Id(21),
                seq: 17,
                root: nr(30),
                children: vec![
                    (Id(31), sample_partial(), 0),
                    (Id(32), AggPartial::identity(), 4),
                ],
            },
            DatMsg::RootState {
                key: Id(22),
                seq: 0,
                root: nr(40),
                children: vec![],
            },
        ];
        for m in msgs {
            let bytes = m.encode();
            let back = DatMsg::decode(&bytes).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let m = DatMsg::Update {
            key: Id(77),
            epoch: 9,
            partial: sample_partial(),
            sender: nr(3),
        };
        let bytes = m.encode();
        for cut in 0..bytes.len() {
            assert!(
                DatMsg::decode(&bytes[..cut]).is_err(),
                "decode succeeded on {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn root_state_truncation_and_hostile_lengths_rejected() {
        let m = DatMsg::RootState {
            key: Id(21),
            seq: 17,
            root: nr(30),
            children: vec![(Id(31), sample_partial(), 1)],
        };
        let bytes = m.encode();
        for cut in 0..bytes.len() {
            assert!(
                DatMsg::decode(&bytes[..cut]).is_err(),
                "decode succeeded on {cut}-byte prefix"
            );
        }
        // A replica claiming 2^30 children must be rejected up front.
        let mut w = Writer::new();
        w.u8(WIRE_VERSION).u8(8).id(Id(1)).u64(0).node_ref(nr(2));
        w.u32(1 << 30);
        assert!(matches!(
            DatMsg::decode(&w.finish()),
            Err(CodecError::BadLength(_)) | Err(CodecError::Truncated)
        ));
        // A 64 KiB replica claiming a child per 20 bytes cannot hold them
        // (a child takes 82 B at least): refused before anything is
        // reserved for them, not after.
        let body = vec![0u8; 64 * 1024];
        let n = body.len() / 20;
        let mut w = Writer::new();
        w.u8(WIRE_VERSION).u8(8).id(Id(1)).u64(0).node_ref(nr(2));
        w.u32(n as u32);
        let mut bytes = w.finish();
        bytes.extend_from_slice(&body);
        assert_eq!(DatMsg::decode(&bytes), Err(CodecError::BadLength(n as u64)));
    }

    #[test]
    fn root_state_with_the_old_raw_list_rejected() {
        // The pre-retirement layout appended a `u32` raw-sample count (and
        // its entries) after the children; even an empty one is 4 bytes
        // past where the replica now ends.
        let mut bytes = DatMsg::RootState {
            key: Id(21),
            seq: 17,
            root: nr(30),
            children: vec![(Id(31), sample_partial(), 1)],
        }
        .encode();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(DatMsg::decode(&bytes), Err(CodecError::TrailingBytes(4)));
    }

    #[test]
    fn updates_frames_with_fewer_than_two_entries_or_a_lying_count_rejected() {
        let (a, b) = (AggPartial::of(1.0), AggPartial::of(2.0));
        // Two entries, the least a frame may carry: 30 B of header and 74 B
        // per plain entry, against 100 B per separate `Update`.
        let two = encode_updates(4, nr(3), [(Id(1), &a), (Id(2), &b)].into_iter());
        assert_eq!(two.len(), 30 + 2 * 74);
        assert!(DatMsg::decode(&two).is_ok());
        for n in [0, 1] {
            let few = encode_updates(4, nr(3), [(Id(1), &a), (Id(2), &b)].into_iter().take(n));
            assert_eq!(DatMsg::decode(&few), Err(CodecError::BadLength(n as u64)));
        }
        // A count the bytes cannot hold fails before anything is reserved
        // for it: u32::MAX entries would ask for hundreds of GiB.
        for lie in [3, 1 << 20, u32::MAX] {
            let mut bytes = two.clone();
            bytes[26..30].copy_from_slice(&lie.to_le_bytes());
            assert_eq!(
                DatMsg::decode(&bytes),
                Err(CodecError::BadLength(lie as u64))
            );
        }
        let mut long = two.clone();
        long.push(0);
        assert_eq!(DatMsg::decode(&long), Err(CodecError::TrailingBytes(1)));
        for cut in 0..two.len() {
            assert!(DatMsg::decode(&two[..cut]).is_err(), "{cut}-byte prefix");
        }
    }

    /// Four partials with a `p = 14` sketch (16 KiB of registers each)
    /// would pass 64 KiB in one frame: three fit, the fourth starts the
    /// next frame, and the three-entry frame, probed, is one datagram the
    /// Chord codec accepts.
    #[test]
    fn updates_frames_stay_within_one_datagram() {
        use dat_chord::codec::{decode, encode, MAX_FRAME};
        use dat_chord::ChordMsg;
        let mut big = sample_partial();
        big.set_distinct(Some(Hll::new(14)));
        big.observe_item(b"site-a");
        let bigs = [&big, &big, &big, &big];
        assert_eq!(updates_that_fit(bigs), 3);
        assert_eq!(updates_that_fit(bigs[3..].iter().copied()), 1);
        // A partial too large to share a frame still fits it alone.
        let mut huge = AggPartial::identity();
        huge.set_distinct(Some(Hll::new(16)));
        assert_eq!(updates_that_fit([&huge, &big]), 1);
        let plain = AggPartial::of(1.0);
        assert_eq!(updates_that_fit([&big, &plain, &big, &plain]), 4);

        let keys = [Id(1), Id(2), Id(3)];
        let three = encode_updates(7, nr(3), keys.into_iter().zip(bigs));
        let lens: usize = bigs[..3].iter().map(|p| 8 + partial_len(p)).sum();
        assert_eq!(three.len(), UPDATES_HEADER + lens, "sizes are exact");
        assert!(three.len() <= MAX_UPDATES_BYTES);
        let frame = encode(&ChordMsg::ProbedApp {
            req: u64::MAX,
            proto: DAT_PROTO,
            from: nr(3),
            payload: three.clone().into(),
        });
        assert_eq!(frame.len(), three.len() + 36);
        assert!(frame.len() <= MAX_FRAME.min(65_507), "{} B", frame.len());
        let Ok(ChordMsg::ProbedApp { payload, .. }) = decode(&frame) else {
            panic!("the Chord codec refuses a full frame of updates");
        };
        assert!(matches!(
            DatMsg::decode(&payload),
            Ok(DatMsg::Updates { entries, .. }) if entries.len() == 3
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = DatMsg::Result {
            reqid: 1,
            key: Id(2),
            partial: AggPartial::identity(),
        }
        .encode();
        bytes.push(0xFF);
        assert_eq!(DatMsg::decode(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn bad_tag_and_version() {
        assert_eq!(
            DatMsg::decode(&[WIRE_VERSION, 99]),
            Err(CodecError::BadTag(99))
        );
        // Tag 6 (the centralized raw sample) is retired, not reused: a
        // frame in its old layout fails on the tag, before any field.
        let mut w = Writer::new();
        w.u8(WIRE_VERSION)
            .u8(6)
            .id(Id(8))
            .u64(3)
            .f64(99.9)
            .node_ref(nr(4));
        assert_eq!(DatMsg::decode(&w.finish()), Err(CodecError::BadTag(6)));
        assert_eq!(DatMsg::decode(&[42, 1]), Err(CodecError::BadVersion(42)));
        assert_eq!(DatMsg::decode(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn hostile_histogram_length_rejected() {
        // Hand-craft an Update whose histogram claims 2^30 buckets.
        let mut w = Writer::new();
        w.u8(WIRE_VERSION).u8(1).id(Id(1)).u64(0);
        w.u64(1).f64(1.0).f64(1.0).f64(1.0).f64(1.0); // partial scalars
        w.u64(1).u64(0).u64(0); // contributors + age + trace_id
        w.u8(1).f64(0.0).f64(1.0).u32(1 << 30); // absurd bucket count
        let bytes = w.finish();
        assert!(matches!(
            DatMsg::decode(&bytes),
            Err(CodecError::BadLength(_)) | Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn a_plain_partial_encodes_without_regrowing_the_buffer() {
        // The two messages of the aggregation paths proper — one `Update`
        // per node per key per epoch, one `Response` per queried node —
        // must fit the buffer a `Writer` starts with: a regrow is a
        // `realloc` and a copy on every push.
        let start = Writer::new().finish().capacity();
        let update = DatMsg::Update {
            key: Id(u64::MAX),
            epoch: u64::MAX,
            partial: AggPartial::of(42.0),
            sender: nr(3),
        };
        let response = DatMsg::Response {
            reqid: u64::MAX,
            key: Id(u64::MAX),
            partial: AggPartial::of(42.0),
            sender: nr(3),
        };
        for msg in [update, response] {
            let bytes = msg.encode();
            assert_eq!(bytes.len(), 100, "{}", msg.kind());
            assert_eq!(bytes.capacity(), start, "{} regrew", msg.kind());
        }
    }

    #[test]
    fn nan_and_infinity_roundtrip() {
        let mut p = AggPartial::identity();
        // Empty partial has ±inf extremes — must survive the wire.
        p.sum = f64::NAN;
        let m = DatMsg::Response {
            reqid: 1,
            key: Id(1),
            partial: p,
            sender: nr(1),
        };
        let back = DatMsg::decode(&m.encode()).unwrap();
        match back {
            DatMsg::Response { partial, .. } => {
                assert!(partial.sum.is_nan());
                assert_eq!(partial.min, f64::INFINITY);
                assert_eq!(partial.max, f64::NEG_INFINITY);
            }
            _ => unreachable!(),
        }
    }
}
