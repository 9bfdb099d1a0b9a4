//! Deterministic structure-aware decode fuzzing for every wire codec in
//! the workspace.
//!
//! No nightly toolchain, no external fuzzing engine: a seeded mutator
//! ([`rand::rngs::SmallRng`]) damages frames drawn from a corpus of valid
//! encodings and feeds them to the real decoder. Two properties are
//! enforced per mutation:
//!
//! 1. **Decode never panics.** Whatever the bytes, the decoder must
//!    return `Ok` or `Err` — a panic in a decoder is remote-triggerable
//!    denial of service. Each decode runs under `catch_unwind` so a
//!    failure reports the exact seed, iteration, and hex bytes needed to
//!    replay it.
//! 2. **Re-encode stability.** When damaged bytes *do* decode (a hostile
//!    writer can always forge valid frames), re-encoding the decoded
//!    message and decoding again must reproduce it exactly. A decoder
//!    that "helpfully" normalises on the way in would make message
//!    identity transport-dependent.
//!
//! Runs are pure functions of `(target, seed, iterations)`, so a CI smoke
//! (`scripts/ci.sh`) and a failure replay execute byte-identical
//! schedules.

#![deny(clippy::unwrap_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dat_chord::{ChordMsg, Id, NodeAddr, NodeRef};
use dat_core::aggregate::AggPartial;
use dat_core::codec::DatMsg;
use dat_maan::{MaanMsg, Predicate, Resource};

/// Which decoder a fuzz run targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzTarget {
    /// The chord overlay frame codec ([`dat_chord::codec`]).
    Chord,
    /// The DAT aggregation payload codec ([`dat_core::codec::DatMsg`]).
    Dat,
    /// The MAAN registration/query payload codec ([`dat_maan::MaanMsg`]).
    Maan,
    /// The Prometheus text parser ([`dat_obs::validate_prometheus`]) —
    /// attacker-reachable through [`dat_chord::ChordMsg::StatsReply`].
    Stats,
}

/// All fuzzable targets, for matrix runs.
pub const ALL_TARGETS: [FuzzTarget; 4] = [
    FuzzTarget::Chord,
    FuzzTarget::Dat,
    FuzzTarget::Maan,
    FuzzTarget::Stats,
];

impl FuzzTarget {
    /// Stable label (reports, CI output).
    pub fn label(self) -> &'static str {
        match self {
            FuzzTarget::Chord => "chord",
            FuzzTarget::Dat => "dat",
            FuzzTarget::Maan => "maan",
            FuzzTarget::Stats => "stats",
        }
    }
}

/// Outcome tallies of one fuzz run. The run itself panics on any decoder
/// panic or re-encode instability; a returned report means both
/// properties held for every mutation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuzzReport {
    /// Mutations fed to the decoder.
    pub iterations: u64,
    /// Mutated inputs the decoder rejected with a clean error.
    pub rejected: u64,
    /// Mutated inputs that still decoded (and passed the re-encode
    /// stability check). Non-zero is expected: some mutations are no-ops
    /// or hit don't-care bytes.
    pub survived: u64,
    /// Valid frames in the seed corpus.
    pub corpus: usize,
}

/// Run `iterations` seeded mutations against `target`'s decoder.
///
/// Panics — with the seed, iteration index, and a hex dump of the
/// offending input — if the decoder panics or violates re-encode
/// stability. Deterministic: same `(target, seed, iterations)`, same
/// mutation sequence, same report.
pub fn fuzz_codec(target: FuzzTarget, seed: u64, iterations: u64) -> FuzzReport {
    let corpus = corpus_for(target);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = FuzzReport {
        corpus: corpus.len(),
        ..FuzzReport::default()
    };
    for i in 0..iterations {
        let base = &corpus[rng.random_range(0..corpus.len())];
        let mutated = mutate(base, &mut rng);
        let decoded_ok = match catch_unwind(AssertUnwindSafe(|| check_one(target, &mutated))) {
            Ok(ok) => ok,
            Err(_) => panic!(
                "decoder panic: target={} seed={seed:#x} iteration={i} input={}",
                target.label(),
                hex(&mutated)
            ),
        };
        report.iterations += 1;
        if decoded_ok {
            report.survived += 1;
        } else {
            report.rejected += 1;
        }
    }
    report
}

/// Hex-encode bytes for replay lines.
fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Apply one randomly chosen mutation to a copy of `base`.
fn mutate(base: &[u8], rng: &mut SmallRng) -> Vec<u8> {
    let mut bytes = base.to_vec();
    match rng.random_range(0..7u32) {
        // Flip 1–4 random bits.
        0 if !bytes.is_empty() => {
            for _ in 0..rng.random_range(1..=4u32) {
                let bit = rng.random_range(0..bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        // Truncate at a random offset (possibly to empty).
        1 => {
            let keep = rng.random_range(0..=bytes.len());
            bytes.truncate(keep);
        }
        // Append random garbage.
        2 => {
            for _ in 0..rng.random_range(1..=16u32) {
                bytes.push(rng.random());
            }
        }
        // Overwrite a random run with random bytes.
        3 if !bytes.is_empty() => {
            let start = rng.random_range(0..bytes.len());
            let len = rng.random_range(1..=bytes.len() - start);
            for b in &mut bytes[start..start + len] {
                *b = rng.random();
            }
        }
        // Insert random bytes at a random offset.
        4 => {
            let at = rng.random_range(0..=bytes.len());
            let n = rng.random_range(1..=8u32);
            for _ in 0..n {
                bytes.insert(at, rng.random());
            }
        }
        // Delete a random run.
        5 if !bytes.is_empty() => {
            let start = rng.random_range(0..bytes.len());
            let len = rng.random_range(1..=bytes.len() - start);
            bytes.drain(start..start + len);
        }
        // Replace with a fully random buffer (structure-free probing).
        _ => {
            let n = rng.random_range(0..64usize);
            bytes.clear();
            for _ in 0..n {
                bytes.push(rng.random());
            }
        }
    }
    bytes
}

/// Decode `bytes` with `target`'s decoder; on success enforce re-encode
/// stability. Returns whether the input decoded.
fn check_one(target: FuzzTarget, bytes: &[u8]) -> bool {
    match target {
        // Stability is checked on *bytes* (encode ∘ decode ∘ encode is a
        // fixed point), not message equality — a mutant can smuggle a NaN
        // into an f64 field, and NaN != NaN would flag a byte-faithful
        // round trip as unstable.
        FuzzTarget::Chord => match dat_chord::codec::decode(bytes) {
            Ok(msg) => {
                let re = dat_chord::codec::encode(&msg);
                let again = dat_chord::codec::decode(&re)
                    .expect("re-encode of a decoded chord message must decode");
                assert_eq!(
                    dat_chord::codec::encode(&again),
                    re,
                    "chord re-encode instability"
                );
                true
            }
            Err(_) => false,
        },
        FuzzTarget::Dat => match DatMsg::decode(bytes) {
            Ok(msg) => {
                let re = msg.encode();
                let again =
                    DatMsg::decode(&re).expect("re-encode of a decoded DAT message must decode");
                assert_eq!(again.encode(), re, "DAT re-encode instability");
                true
            }
            Err(_) => false,
        },
        FuzzTarget::Maan => match MaanMsg::decode(bytes) {
            Ok(msg) => {
                let re = msg.encode();
                let again =
                    MaanMsg::decode(&re).expect("re-encode of a decoded MAAN message must decode");
                assert_eq!(again.encode(), re, "MAAN re-encode instability");
                true
            }
            Err(_) => false,
        },
        FuzzTarget::Stats => match core::str::from_utf8(bytes) {
            // The parser's contract is Ok/Err on *any* string; invalid
            // UTF-8 never reaches it on the real path (`Reader::str`
            // rejects it first), so non-UTF-8 mutants count as rejected.
            Ok(text) => dat_obs::validate_prometheus(text).is_ok(),
            Err(_) => false,
        },
    }
}

/// Valid encodings for `target` — every message variant is represented so
/// mutations explore each decode path from a near-valid starting point.
fn corpus_for(target: FuzzTarget) -> Vec<Vec<u8>> {
    match target {
        FuzzTarget::Chord => chord_corpus()
            .iter()
            .map(dat_chord::codec::encode)
            .collect(),
        FuzzTarget::Dat => dat_corpus().iter().map(DatMsg::encode).collect(),
        FuzzTarget::Maan => maan_corpus().iter().map(MaanMsg::encode).collect(),
        FuzzTarget::Stats => stats_corpus(),
    }
}

fn nr(n: u64) -> NodeRef {
    NodeRef {
        id: Id(n.wrapping_mul(0x9e37_79b9)),
        addr: NodeAddr(n),
    }
}

/// One valid message per chord frame variant.
pub fn chord_corpus() -> Vec<ChordMsg> {
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
            payload: vec![7; 64].into(),
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
            payload: vec![7; 64].into(),
        },
    ]
}

fn filled_partial() -> AggPartial {
    let mut p = AggPartial::identity_with_distinct(4);
    p.count = 5;
    p.sum = 42.5;
    p.sum_sq = 900.25;
    p.min = 1.5;
    p.max = 20.0;
    p.contributors = 5;
    p.age_epochs = 2;
    p.trace_id = 0xDEAD_BEEF;
    p.observe_item(b"site-a");
    p.observe_item(b"site-b");
    p
}

/// One valid message per DAT payload variant.
pub fn dat_corpus() -> Vec<DatMsg> {
    vec![
        DatMsg::Update {
            key: Id(1),
            epoch: 2,
            partial: filled_partial(),
            sender: nr(3),
        },
        DatMsg::Updates {
            epoch: 2,
            sender: nr(3),
            entries: vec![
                (Id(1), filled_partial()),
                (Id(24), AggPartial::identity()),
                (Id(25), AggPartial::of(26.0)),
            ],
        },
        DatMsg::Query {
            reqid: 4,
            key: Id(5),
            limit: Id(6),
            parent: nr(7),
            depth: 8,
        },
        DatMsg::Response {
            reqid: 9,
            key: Id(10),
            partial: AggPartial::identity(),
            sender: nr(11),
        },
        DatMsg::Result {
            reqid: 12,
            key: Id(13),
            partial: filled_partial(),
        },
        DatMsg::Request {
            reqid: 14,
            key: Id(15),
            requester: nr(16),
        },
        DatMsg::Prune {
            key: Id(17),
            sender: nr(18),
        },
        DatMsg::RootState {
            key: Id(19),
            seq: 20,
            root: nr(21),
            children: vec![
                (Id(22), filled_partial(), 1),
                (Id(23), AggPartial::identity(), 0),
            ],
        },
    ]
}

/// One valid message per MAAN payload variant.
pub fn maan_corpus() -> Vec<MaanMsg> {
    let res = Resource::new("grid://site-a/node-1")
        .with("cpu-speed", 2.4)
        .with("os", "linux");
    vec![
        MaanMsg::Register {
            attr: "cpu-speed".to_string(),
            value_id: Id(100),
            raw_num: Some(2.4),
            resource: res.clone(),
        },
        MaanMsg::RangeQuery {
            qid: 1,
            lo_id: Id(10),
            hi_id: Id(200),
            pred: Predicate::range("cpu-speed", 1.0, 3.0),
            origin: nr(2),
            hops_left: 16,
        },
        MaanMsg::Hits {
            qid: 3,
            resources: vec![res],
        },
        MaanMsg::Done { qid: 4 },
    ]
}

/// Valid Prometheus text exposition samples.
fn stats_corpus() -> Vec<Vec<u8>> {
    vec![
        b"# TYPE sent_total counter\nsent_total 1\n".to_vec(),
        b"# TYPE x counter\nx{layer=\"chord\"} 5\nx{layer=\"dat\"} 2\n".to_vec(),
        b"# HELP y bytes\n# TYPE y gauge\ny 3.25\n".to_vec(),
        b"bad_frames_total{kind=\"bad_checksum\"} 7\n".to_vec(),
    ]
}

#[allow(clippy::unwrap_used)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_valid_and_cover_every_variant() {
        assert_eq!(chord_corpus().len(), 16);
        assert_eq!(dat_corpus().len(), 8);
        assert_eq!(maan_corpus().len(), 4);
        for t in ALL_TARGETS {
            for frame in corpus_for(t) {
                assert!(
                    check_one(t, &frame),
                    "{} corpus entry failed to decode",
                    t.label()
                );
            }
        }
    }

    #[test]
    fn fuzz_is_deterministic_for_a_seed() {
        for t in ALL_TARGETS {
            let a = fuzz_codec(t, 0xF00D, 500);
            let b = fuzz_codec(t, 0xF00D, 500);
            assert_eq!(a, b, "{} run not deterministic", t.label());
            // A report is only three tallies, so one other seed can land on
            // the same ones by chance; a handful all doing so cannot.
            assert!(
                (1..=4).any(|d| fuzz_codec(t, 0xF00D + d, 500) != a),
                "{} seed has no effect?",
                t.label()
            );
        }
    }

    #[test]
    fn smoke_every_target_briefly() {
        for t in ALL_TARGETS {
            let r = fuzz_codec(t, 0xDA7, 2_000);
            assert_eq!(r.iterations, 2_000);
            assert_eq!(r.rejected + r.survived, r.iterations);
            assert!(r.rejected > 0, "{}: mutations never rejected?", t.label());
        }
    }
}
