//! Wire codec for [`ChordMsg`] frames.
//!
//! The paper's prototype implements "a RPC manager module … at the
//! socket-level to send and receive UDP packets" (§4). Every frame carries
//! one [`ChordMsg`]: a magic byte, a format version, a message tag and
//! fixed-order little-endian fields, built on the [`crate::wire`]
//! primitives (and the same [`CodecError`] vocabulary) every protocol codec
//! in the workspace uses. Application payloads (already encoded by their
//! protocol's codec) ride opaquely inside `App`, `ProbedApp` (tag 17) and
//! `Route` frames. Tags are never reused: tag 14, the retired ring
//! broadcast, decodes as [`CodecError::BadTag`] like any unknown tag.
//!
//! The codec lives next to the message type so every host can reach it:
//! `dat-rpc` uses it to frame UDP datagrams, and the simulator's codec
//! parity mode round-trips each delivered message through it to prove that
//! zero-copy in-memory delivery and wire delivery agree byte for byte.

use crate::msg::ChordMsg;
use crate::wire::{crc32c, Reader, Writer};

pub use crate::wire::CodecError;

/// First byte of every valid frame.
pub const MAGIC: u8 = 0xD7;
/// Wire-format version. v2 appended the CRC32C trailer; v1 frames are
/// rejected as [`CodecError::BadVersion`].
pub const VERSION: u8 = 2;
/// Maximum accepted frame payload (defensive bound).
pub const MAX_FRAME: usize = 64 * 1024;
/// Bytes of CRC32C trailer at the end of every frame (little-endian,
/// computed over everything before it, magic and version included).
pub const CRC_TRAILER: usize = 4;
/// Shortest well-formed frame: magic + version + tag + trailer.
const MIN_FRAME: usize = 3 + CRC_TRAILER;

/// Encode one message into a frame payload.
pub fn encode(msg: &ChordMsg) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(MAGIC).u8(VERSION);
    match msg {
        ChordMsg::FindSuccessor {
            req,
            key,
            origin,
            hops,
        } => {
            w.u8(1).u64(*req).id(*key).node_ref(*origin).u32(*hops);
        }
        ChordMsg::FoundSuccessor {
            req,
            owner,
            owner_pred,
            owner_succ,
            hops,
        } => {
            w.u8(2)
                .u64(*req)
                .node_ref(*owner)
                .opt_node_ref(*owner_pred)
                .opt_node_ref(*owner_succ)
                .u32(*hops);
        }
        ChordMsg::GetNeighbors { req, sender } => {
            w.u8(3).u64(*req).node_ref(*sender);
        }
        ChordMsg::Neighbors {
            req,
            me,
            pred,
            succ_list,
        } => {
            w.u8(4)
                .u64(*req)
                .node_ref(*me)
                .opt_node_ref(*pred)
                .node_list(succ_list);
        }
        ChordMsg::Notify { sender } => {
            w.u8(5).node_ref(*sender);
        }
        ChordMsg::Ping { req, sender } => {
            w.u8(6).u64(*req).node_ref(*sender);
        }
        ChordMsg::Pong { req, sender } => {
            w.u8(7).u64(*req).node_ref(*sender);
        }
        ChordMsg::ProbeJoin { req, origin } => {
            w.u8(8).u64(*req).node_ref(*origin);
        }
        ChordMsg::ProbeJoinReply { req, designated } => {
            w.u8(9).u64(*req).id(*designated);
        }
        ChordMsg::LeaveToPred { leaver, succ_list } => {
            w.u8(10).node_ref(*leaver).node_list(succ_list);
        }
        ChordMsg::LeaveToSucc { leaver, pred } => {
            w.u8(11).node_ref(*leaver).opt_node_ref(*pred);
        }
        ChordMsg::Route {
            key,
            payload,
            origin,
            hops,
        } => {
            w.u8(12)
                .id(*key)
                .bytes(payload)
                .node_ref(*origin)
                .u32(*hops);
        }
        ChordMsg::App {
            proto,
            from,
            payload,
        } => {
            w.u8(13).u8(*proto).node_ref(*from).bytes(payload);
        }
        ChordMsg::ProbedApp {
            req,
            proto,
            from,
            payload,
        } => {
            w.u8(17).u64(*req).u8(*proto).node_ref(*from).bytes(payload);
        }
        ChordMsg::StatsRequest { req, sender } => {
            w.u8(15).u64(*req).node_ref(*sender);
        }
        ChordMsg::StatsReply { req, sender, text } => {
            w.u8(16).u64(*req).node_ref(*sender).bytes(text);
        }
    }
    let mut frame = w.finish();
    let crc = crc32c(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Decode a frame payload into a message.
///
/// Order of defenses: size bound, magic, version (so probes and old-format
/// frames get their precise error), then the CRC32C trailer over the whole
/// body, and only then field parsing — a corrupted frame is rejected by
/// the checksum before any of its lengths or tags are believed.
pub fn decode(data: &[u8]) -> Result<ChordMsg, CodecError> {
    if data.len() > MAX_FRAME {
        return Err(CodecError::BadLength(data.len() as u64));
    }
    let mut r = Reader::new(data);
    let magic = r.u8()?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let ver = r.u8()?;
    if ver != VERSION {
        return Err(CodecError::BadVersion(ver));
    }
    if data.len() < MIN_FRAME {
        return Err(CodecError::Truncated);
    }
    let body = &data[..data.len() - CRC_TRAILER];
    let mut trailer = [0u8; CRC_TRAILER];
    trailer.copy_from_slice(&data[data.len() - CRC_TRAILER..]);
    let stored = u32::from_le_bytes(trailer);
    let computed = crc32c(body);
    if stored != computed {
        return Err(CodecError::BadChecksum { computed, stored });
    }
    // Re-read the verified body past magic + version.
    let mut r = Reader::new(&body[2..]);
    let tag = r.u8()?;
    let msg = match tag {
        1 => ChordMsg::FindSuccessor {
            req: r.u64()?,
            key: r.id()?,
            origin: r.node_ref()?,
            hops: r.u32()?,
        },
        2 => ChordMsg::FoundSuccessor {
            req: r.u64()?,
            owner: r.node_ref()?,
            owner_pred: r.opt_node_ref()?,
            owner_succ: r.opt_node_ref()?,
            hops: r.u32()?,
        },
        3 => ChordMsg::GetNeighbors {
            req: r.u64()?,
            sender: r.node_ref()?,
        },
        4 => ChordMsg::Neighbors {
            req: r.u64()?,
            me: r.node_ref()?,
            pred: r.opt_node_ref()?,
            succ_list: r.node_list()?,
        },
        5 => ChordMsg::Notify {
            sender: r.node_ref()?,
        },
        6 => ChordMsg::Ping {
            req: r.u64()?,
            sender: r.node_ref()?,
        },
        7 => ChordMsg::Pong {
            req: r.u64()?,
            sender: r.node_ref()?,
        },
        8 => ChordMsg::ProbeJoin {
            req: r.u64()?,
            origin: r.node_ref()?,
        },
        9 => ChordMsg::ProbeJoinReply {
            req: r.u64()?,
            designated: r.id()?,
        },
        10 => ChordMsg::LeaveToPred {
            leaver: r.node_ref()?,
            succ_list: r.node_list()?,
        },
        11 => ChordMsg::LeaveToSucc {
            leaver: r.node_ref()?,
            pred: r.opt_node_ref()?,
        },
        12 => ChordMsg::Route {
            key: r.id()?,
            payload: r.bytes()?.into(),
            origin: r.node_ref()?,
            hops: r.u32()?,
        },
        13 => ChordMsg::App {
            proto: r.u8()?,
            from: r.node_ref()?,
            payload: r.bytes()?.into(),
        },
        15 => ChordMsg::StatsRequest {
            req: r.u64()?,
            sender: r.node_ref()?,
        },
        16 => ChordMsg::StatsReply {
            req: r.u64()?,
            sender: r.node_ref()?,
            text: r.bytes()?.into(),
        },
        17 => ChordMsg::ProbedApp {
            req: r.u64()?,
            proto: r.u8()?,
            from: r.node_ref()?,
            payload: r.bytes()?.into(),
        },
        t => return Err(CodecError::BadTag(t)),
    };
    r.expect_end()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Id, NodeAddr, NodeRef};

    fn nr(id: u64) -> NodeRef {
        NodeRef::new(Id(id), NodeAddr(id * 3))
    }

    fn all_messages() -> Vec<ChordMsg> {
        vec![
            ChordMsg::FindSuccessor {
                req: 1,
                key: Id(u64::MAX),
                origin: nr(2),
                hops: 3,
            },
            ChordMsg::FoundSuccessor {
                req: 4,
                owner: nr(5),
                owner_pred: Some(nr(6)),
                owner_succ: None,
                hops: 7,
            },
            ChordMsg::GetNeighbors {
                req: 8,
                sender: nr(9),
            },
            ChordMsg::Neighbors {
                req: 10,
                me: nr(11),
                pred: None,
                succ_list: vec![nr(12), nr(13), nr(14)],
            },
            ChordMsg::Notify { sender: nr(15) },
            ChordMsg::Ping {
                req: 16,
                sender: nr(17),
            },
            ChordMsg::Pong {
                req: 18,
                sender: nr(19),
            },
            ChordMsg::ProbeJoin {
                req: 20,
                origin: nr(21),
            },
            ChordMsg::ProbeJoinReply {
                req: 22,
                designated: Id(23),
            },
            ChordMsg::LeaveToPred {
                leaver: nr(24),
                succ_list: vec![],
            },
            ChordMsg::LeaveToSucc {
                leaver: nr(25),
                pred: Some(nr(26)),
            },
            ChordMsg::Route {
                key: Id(27),
                payload: vec![1, 2, 3, 4, 5].into(),
                origin: nr(28),
                hops: 29,
            },
            ChordMsg::App {
                proto: 1,
                from: nr(30),
                payload: vec![0; 1000].into(),
            },
            ChordMsg::StatsRequest {
                req: 34,
                sender: nr(35),
            },
            ChordMsg::StatsReply {
                req: 36,
                sender: nr(37),
                text: b"# TYPE sent_total counter\nsent_total 1\n".to_vec().into(),
            },
            ChordMsg::ProbedApp {
                req: 38,
                proto: 1,
                from: nr(39),
                payload: vec![7; 40].into(),
            },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for m in all_messages() {
            let bytes = encode(&m);
            assert_eq!(decode(&bytes).unwrap(), m, "{:?}", m.kind());
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        for m in all_messages() {
            let bytes = encode(&m);
            for cut in 0..bytes.len() {
                assert!(
                    decode(&bytes[..cut]).is_err(),
                    "{} decoded from {cut}-byte prefix",
                    m.kind()
                );
            }
        }
    }

    /// Append a valid CRC32C trailer to a hand-built body, producing a
    /// frame that reaches the field parser.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut v = body.to_vec();
        v.extend_from_slice(&crc32c(body).to_le_bytes());
        v
    }

    #[test]
    fn bad_magic_version_tag() {
        assert_eq!(decode(&[0x00, VERSION, 1]), Err(CodecError::BadMagic(0)));
        assert_eq!(decode(&[MAGIC, 99, 1]), Err(CodecError::BadVersion(99)));
        assert_eq!(
            decode(&sealed(&[MAGIC, VERSION, 200])),
            Err(CodecError::BadTag(200))
        );
        // The retired ring-broadcast tag stays retired: a sealed frame
        // that carries the fields it once had is still an unknown tag.
        let mut w = Writer::new();
        w.u8(MAGIC)
            .u8(VERSION)
            .u8(14)
            .id(Id(31))
            .bytes(&[9, 9])
            .node_ref(nr(32))
            .u32(33);
        assert_eq!(decode(&sealed(&w.finish())), Err(CodecError::BadTag(14)));
        assert_eq!(decode(&[]), Err(CodecError::Truncated));
        // Too short to even carry a trailer.
        assert_eq!(decode(&[MAGIC, VERSION, 1]), Err(CodecError::Truncated));
        // A v1 frame (no trailer) from an old peer is rejected by version,
        // not misread as truncated garbage.
        assert_eq!(decode(&[MAGIC, 1, 5, 0]), Err(CodecError::BadVersion(1)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        // Bytes appended after the trailer shift the CRC window: checksum
        // catches it.
        let mut bytes = encode(&ChordMsg::Notify { sender: nr(1) });
        bytes.extend_from_slice(&[0xAA, 0xBB]);
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::BadChecksum { .. })
        ));
        // Garbage *inside* the checksummed body still reaches the field
        // parser and is rejected as trailing bytes.
        let good = encode(&ChordMsg::Notify { sender: nr(1) });
        let mut body = good[..good.len() - CRC_TRAILER].to_vec();
        body.extend_from_slice(&[0xAA, 0xBB]);
        assert_eq!(decode(&sealed(&body)), Err(CodecError::TrailingBytes(2)));
    }

    #[test]
    fn hostile_lengths_rejected() {
        // Neighbors with an absurd successor-list length.
        let mut w = Writer::new();
        w.u8(MAGIC)
            .u8(VERSION)
            .u8(4)
            .u64(1)
            .node_ref(nr(1))
            .u8(0)
            .u16(u16::MAX);
        assert_eq!(
            decode(&sealed(&w.finish())),
            Err(CodecError::BadLength(u16::MAX as u64))
        );
    }

    #[test]
    fn oversized_frame_rejected() {
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(decode(&huge), Err(CodecError::BadLength(_))));
    }

    #[test]
    fn checksum_catches_every_single_bit_flip() {
        // Flip each bit of each encoded variant: no flipped frame may
        // decode (most die on BadChecksum; flips in magic/version die on
        // their own checks — either way, never Ok).
        for m in all_messages() {
            let bytes = encode(&m);
            for byte in 0..bytes.len() {
                for bit in 0..8 {
                    let mut evil = bytes.clone();
                    evil[byte] ^= 1 << bit;
                    assert!(
                        decode(&evil).is_err(),
                        "{} survived flipping bit {bit} of byte {byte}",
                        m.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn app_frames_are_pinned_and_the_probed_one_only_adds_its_req() {
        // An App frame's bytes are the same with or without ProbedApp in
        // the vocabulary; the probed frame is its own tag with the request
        // id up front, and round-trips.
        let payload = [0xAB, 0xCD];
        let app = encode(&ChordMsg::App {
            proto: 1,
            from: nr(2),
            payload: payload.to_vec().into(),
        });
        let app_body = [
            MAGIC, VERSION, 13, // tag
            1,  // proto
            2, 0, 0, 0, 0, 0, 0, 0, // id = 2, LE
            6, 0, 0, 0, 0, 0, 0, 0, // addr = 6, LE
            2, 0, 0, 0, 0xAB, 0xCD, // payload, u32 length prefix
        ];
        assert_eq!(&app[..app_body.len()], &app_body);
        assert_eq!(&app[app_body.len()..], crc32c(&app_body).to_le_bytes());
        let probed = ChordMsg::ProbedApp {
            req: 9,
            proto: 1,
            from: nr(2),
            payload: payload.to_vec().into(),
        };
        let frame = encode(&probed);
        let mut body = vec![MAGIC, VERSION, 17, 9, 0, 0, 0, 0, 0, 0, 0];
        body.extend_from_slice(&app_body[3..]);
        assert_eq!(&frame[..body.len()], &body[..]);
        assert_eq!(frame.len(), body.len() + CRC_TRAILER);
        assert_eq!(decode(&frame).unwrap(), probed);
    }

    #[test]
    fn frame_layout_is_pinned() {
        // Golden bytes for the simplest variant: any accidental format
        // change (field order, endianness, trailer) breaks this first.
        let frame = encode(&ChordMsg::Notify { sender: nr(1) });
        let body = [
            MAGIC, VERSION, 5, // tag
            1, 0, 0, 0, 0, 0, 0, 0, // id = 1, LE
            3, 0, 0, 0, 0, 0, 0, 0, // addr = 3, LE
        ];
        assert_eq!(&frame[..body.len()], &body);
        assert_eq!(frame.len(), body.len() + CRC_TRAILER);
        assert_eq!(
            &frame[body.len()..],
            crc32c(&body).to_le_bytes(),
            "CRC trailer is little-endian CRC32C over magic..body"
        );
    }
}
