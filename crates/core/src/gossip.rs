//! Gossip-based aggregation (push-sum) — the decentralized alternative.
//!
//! Tree aggregation is not the only way to compute `g(t)` without a
//! coordinator: *push-sum* (Kempe, Dobra & Gehrke, FOCS'03) lets every
//! node gossip `(sum, weight)` shares to random peers; each node's
//! `sum/weight` ratio converges to the global average in `O(log n + log ε⁻¹)`
//! rounds with `n` messages per round. We implement it as an
//! [`AppProtocol`] over the same Chord substrate (random peers drawn from
//! the finger table, which is a good expander) so `repro gossip` can
//! compare:
//!
//! * **messages to ε-accuracy**: DAT needs `n−1` messages and `height`
//!   hops per exact answer; push-sum needs `rounds × n` messages for an
//!   ε-approximation — the paper's tree wins on message count while gossip
//!   wins on robustness (no structure at all).
//!
//! One gossip round per epoch tick, woken by the engine at its deadline.

use crate::codec::{CodecError, Reader, Writer, WIRE_VERSION};
use crate::engine::{AppProtocol, Ctx, StackNode};
use dat_chord::{Metrics, NodeRef, NodeStatus};

/// Application-protocol discriminator for gossip messages.
pub const GOSSIP_PROTO: u8 = 3;

/// A push-sum share.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Share {
    /// Sum share.
    pub sum: f64,
    /// Weight share.
    pub weight: f64,
}

impl Share {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(WIRE_VERSION).f64(self.sum).f64(self.weight);
        w.finish()
    }

    fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let ver = r.u8()?;
        if ver != WIRE_VERSION {
            return Err(CodecError::BadVersion(ver));
        }
        let sum = r.f64()?;
        let weight = r.f64()?;
        r.expect_end()?;
        Ok(Share { sum, weight })
    }
}

/// Round length, ms (the DAT epoch default, for fair comparisons).
const ROUND_MS: u64 = 1_000;
/// How many random peers receive a share each round (classic push-sum).
const FANOUT: usize = 1;

/// The push-sum handler, hosted on a [`StackNode`].
pub struct GossipProtocol {
    /// Local observed value.
    local: f64,
    sum: f64,
    weight: f64,
    started: bool,
    round: u64,
    /// Engine time of the next round.
    next_round_ms: u64,
    /// Deterministic peer-selection state (seeded on start from the node
    /// address).
    rng_state: u64,
    metrics: Metrics,
    /// Per-round estimate history `(round, estimate)`.
    history: Vec<(u64, f64)>,
}

impl GossipProtocol {
    /// Create a push-sum handler with local value `value`.
    pub fn new(value: f64) -> Self {
        GossipProtocol {
            local: value,
            sum: value,
            weight: 1.0,
            started: false,
            round: 0,
            next_round_ms: 0,
            rng_state: 0,
            metrics: Metrics::default(),
            history: Vec::new(),
        }
    }

    /// Gossip message counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The local value this node contributes.
    pub fn local(&self) -> f64 {
        self.local
    }

    /// Current average estimate (`sum / weight`).
    pub fn estimate(&self) -> f64 {
        if self.weight == 0.0 {
            f64::NAN
        } else {
            self.sum / self.weight
        }
    }

    /// Completed rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Per-round estimate history.
    pub fn history(&self) -> &[(u64, f64)] {
        &self.history
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — deterministic, no shared RNG needed.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// One push-sum round: split `(sum, weight)` among `fanout` random
    /// finger peers and ourselves.
    fn on_round(&mut self, cx: &mut Ctx<'_>) {
        if cx.status() != NodeStatus::Active {
            return;
        }
        self.round += 1;
        let peers: Vec<NodeRef> = cx.table().known_nodes();
        if peers.is_empty() {
            self.history.push((self.round, self.estimate()));
            return;
        }
        let k = FANOUT.min(peers.len());
        let split = (k + 1) as f64;
        let share = Share {
            sum: self.sum / split,
            weight: self.weight / split,
        };
        self.sum = share.sum;
        self.weight = share.weight;
        for _ in 0..k {
            let peer = peers[(self.next_rand() as usize) % peers.len()];
            self.metrics.count_sent_kind("gossip_share");
            cx.send(peer, share.encode());
        }
        self.history.push((self.round, self.estimate()));
    }
}

impl AppProtocol for GossipProtocol {
    fn proto(&self) -> u8 {
        GOSSIP_PROTO
    }

    fn on_start(&mut self, cx: &mut Ctx<'_>) {
        if !self.started {
            self.started = true;
            self.rng_state = cx.me().addr.0.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            self.next_round_ms = cx.now_ms() + ROUND_MS;
            cx.wake_at(self.next_round_ms);
        }
    }

    fn on_message(&mut self, _cx: &mut Ctx<'_>, _from: NodeRef, payload: &[u8]) {
        match Share::decode(payload) {
            Ok(s) => {
                self.metrics.count_received_kind("gossip_share");
                self.sum += s.sum;
                self.weight += s.weight;
            }
            Err(_) => self.metrics.dropped += 1,
        }
    }

    fn on_wake(&mut self, cx: &mut Ctx<'_>) {
        if cx.now_ms() >= self.next_round_ms {
            self.on_round(cx);
            self.next_round_ms = cx.now_ms() + ROUND_MS;
        }
        cx.wake_at(self.next_round_ms);
    }

    fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    fn metrics(&self) -> Option<&Metrics> {
        Some(&self.metrics)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Gossip-specific conveniences on the stack engine. All of these panic if
/// no [`GossipProtocol`] is registered.
impl StackNode {
    /// The gossip handler (read-only).
    pub fn gossip(&self) -> &GossipProtocol {
        self.app::<GossipProtocol>()
    }

    /// Gossip-layer message counters.
    pub fn gossip_metrics(&self) -> &Metrics {
        self.gossip().metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dat_chord::{ChordConfig, Id, IdSpace, Input, NodeAddr, Output};

    fn mk(id: u64, value: f64) -> StackNode {
        let ccfg = ChordConfig {
            space: IdSpace::new(8),
            ..ChordConfig::default()
        };
        StackNode::new(ccfg, Id(id), NodeAddr(id)).with_app(GossipProtocol::new(value))
    }

    #[test]
    fn share_codec_roundtrip() {
        let s = Share {
            sum: 12.5,
            weight: 0.25,
        };
        assert_eq!(Share::decode(&s.encode()).unwrap(), s);
        assert!(Share::decode(&[]).is_err());
        assert!(Share::decode(&[9, 0, 0]).is_err());
    }

    #[test]
    fn single_node_estimate_is_its_value() {
        let mut n = mk(1, 42.0);
        assert_eq!(n.gossip().estimate(), 42.0);
        let _ = n.start_create();
        assert!(n.gossip().started);
    }

    #[test]
    fn receiving_share_updates_mass() {
        let mut n = mk(1, 10.0);
        let _ = n.start_create();
        let share = Share {
            sum: 5.0,
            weight: 0.5,
        };
        let _ = n.handle(Input::Message {
            from: NodeAddr(2),
            msg: dat_chord::ChordMsg::App {
                proto: GOSSIP_PROTO,
                from: NodeRef::new(Id(2), NodeAddr(2)),
                payload: share.encode().into(),
            },
        });
        // (10 + 5) / (1 + 0.5) = 10
        assert_eq!(n.gossip().estimate(), 10.0);
        assert_eq!(n.gossip_metrics().received_of("gossip_share"), 1);
    }

    #[test]
    fn mass_conservation_locally() {
        // A round splits mass between self and peers; total emitted + kept
        // equals the previous mass.
        let mut n = mk(8, 6.0);
        let _ = n.start_create();
        // Give it a peer.
        let _ = n.handle(Input::Message {
            from: NodeAddr(2),
            msg: dat_chord::ChordMsg::Notify {
                sender: NodeRef::new(Id(2), NodeAddr(2)),
            },
        });
        let ((), outs) = n.drive::<GossipProtocol, _>(|g, cx| g.on_round(cx));
        let sent: f64 = outs
            .iter()
            .filter_map(|o| match o {
                Output::Send {
                    msg: dat_chord::ChordMsg::App { payload, .. },
                    ..
                } => Share::decode(payload).ok().map(|s| s.sum),
                _ => None,
            })
            .sum();
        assert!((n.gossip().sum + sent - 6.0).abs() < 1e-12);
    }
}
