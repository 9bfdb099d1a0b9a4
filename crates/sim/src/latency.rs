//! Network latency and loss models.
//!
//! The paper's testbed is an 8-node gigabit cluster (sub-millisecond RTTs);
//! its future work points at PlanetLab-scale WANs. We model both: constant
//! LAN latency, uniform jitter, and a heavy-tailed log-normal WAN model
//! (the standard fit for wide-area RTT distributions), plus i.i.d. packet
//! loss for fault injection.

use rand::Rng;

/// One-way message latency distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyModel {
    /// Fixed latency — the cluster/LAN setting of §5.1.
    Constant(u64),
    /// Uniform in `[lo, hi]` milliseconds.
    Uniform {
        /// Lower bound (ms).
        lo: u64,
        /// Upper bound (ms), inclusive.
        hi: u64,
    },
    /// Log-normal with the given median (ms) and shape `sigma` — a standard
    /// WAN RTT model. Samples are capped at `20 × median` to keep simulated
    /// tail events finite.
    LogNormal {
        /// Median latency in ms.
        median_ms: f64,
        /// Shape parameter (σ of the underlying normal).
        sigma: f64,
    },
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Constant(1)
    }
}

impl LatencyModel {
    /// Draw a one-way latency in milliseconds (at least 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            LatencyModel::Constant(ms) => ms.max(1),
            LatencyModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform latency bounds inverted");
                rng.random_range(lo..=hi).max(1)
            }
            LatencyModel::LogNormal { median_ms, sigma } => {
                assert!(median_ms > 0.0 && sigma >= 0.0);
                // Box-Muller for a standard normal, then exponentiate:
                // X = median * exp(sigma * Z).
                let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.random();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let x = median_ms * (sigma * z).exp();
                let capped = x.min(20.0 * median_ms);
                (capped.round() as u64).max(1)
            }
        }
    }

    /// The smallest latency [`LatencyModel::sample`] can ever return — the
    /// conservative lookahead bound of multi-shard runs: no send issued
    /// at or after time `t` can be delivered before `t + min_ms()`, so a
    /// shard may safely execute the window `[t, t + min_ms())` without
    /// seeing its peers' sends from that window. Always ≥ 1 because
    /// `sample` clamps (events must advance time).
    pub fn min_ms(&self) -> u64 {
        match *self {
            LatencyModel::Constant(ms) => ms.max(1),
            LatencyModel::Uniform { lo, .. } => lo.max(1),
            // The normal tail is unbounded below; only the ≥ 1 clamp holds.
            LatencyModel::LogNormal { .. } => 1,
        }
    }
}

/// Independent per-message loss.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct LossModel {
    /// Probability in `[0, 1]` that any message is silently dropped.
    pub drop_prob: f64,
}

impl LossModel {
    /// No loss.
    pub const NONE: LossModel = LossModel { drop_prob: 0.0 };

    /// Create a loss model, clamping the probability into `[0, 1]`.
    pub fn new(drop_prob: f64) -> Self {
        LossModel {
            drop_prob: drop_prob.clamp(0.0, 1.0),
        }
    }

    /// Decide whether to drop one message.
    pub fn drops<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.drop_prob > 0.0 && rng.random::<f64>() < self.drop_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = SmallRng::seed_from_u64(0);
        let m = LatencyModel::Constant(5);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut rng), 5);
        }
        // Zero is clamped to 1 (events must advance time).
        assert_eq!(LatencyModel::Constant(0).sample(&mut rng), 1);
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = LatencyModel::Uniform { lo: 10, hi: 20 };
        for _ in 0..1000 {
            let s = m.sample(&mut rng);
            assert!((10..=20).contains(&s));
        }
    }

    #[test]
    fn lognormal_median_roughly_right() {
        let mut rng = SmallRng::seed_from_u64(2);
        let m = LatencyModel::LogNormal {
            median_ms: 80.0,
            sigma: 0.5,
        };
        let mut samples: Vec<u64> = (0..4001).map(|_| m.sample(&mut rng)).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        assert!(
            (60..=100).contains(&median),
            "median {median} too far from 80"
        );
        // Tail capped.
        assert!(*samples.last().unwrap() <= 1600);
    }

    #[test]
    fn min_ms_is_a_true_lower_bound() {
        let mut rng = SmallRng::seed_from_u64(7);
        let models = [
            LatencyModel::Constant(0),
            LatencyModel::Constant(5),
            LatencyModel::Uniform { lo: 0, hi: 3 },
            LatencyModel::Uniform { lo: 10, hi: 20 },
            LatencyModel::LogNormal {
                median_ms: 80.0,
                sigma: 0.5,
            },
        ];
        for m in models {
            let bound = m.min_ms();
            assert!(bound >= 1, "{m:?}: lookahead must advance time");
            for _ in 0..2_000 {
                assert!(m.sample(&mut rng) >= bound, "{m:?} sampled below min_ms");
            }
        }
    }

    #[test]
    fn loss_extremes() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(!LossModel::NONE.drops(&mut rng));
        let always = LossModel::new(1.0);
        for _ in 0..100 {
            assert!(always.drops(&mut rng));
        }
        // Clamping.
        assert_eq!(LossModel::new(7.0).drop_prob, 1.0);
        assert_eq!(LossModel::new(-1.0).drop_prob, 0.0);
    }

    #[test]
    fn loss_rate_statistical() {
        let mut rng = SmallRng::seed_from_u64(4);
        let m = LossModel::new(0.3);
        let dropped = (0..10_000).filter(|_| m.drops(&mut rng)).count();
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
    }
}
