//! Synthetic CPU-usage traces.
//!
//! The paper's accuracy experiment (§5.4) replays "a 2-hour long trace of
//! the CPU usages on an 8-processor Sun Fire v880 server at USC" into a
//! 512-node simulated Grid. That trace is not public, so we substitute a
//! seeded generator producing the same *class* of signal: autocorrelated
//! (AR(1)) utilisation with a slow diurnal-style drift and occasional load
//! spikes, clamped to `[0, 100]`% per processor — any such signal exercises
//! the identical aggregation path (sensor → producer → continuous DAT →
//! root report vs ground truth). See DESIGN.md §4 (substitutions).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Samples per second (paper-equivalent: 1 Hz).
const SAMPLE_HZ: u64 = 1;
/// Number of processors whose utilisation is summed (Sun Fire v880: 8).
const CPUS: u32 = 8;
/// Baseline utilisation per CPU, percent.
const BASE: f64 = 35.0;
/// Amplitude of the slow sinusoidal drift, percent.
const DRIFT_AMP: f64 = 20.0;
/// Period of the slow drift, seconds.
const DRIFT_PERIOD_S: f64 = 5400.0;
/// AR(1) coefficient (long memory).
const AR1: f64 = 0.97;
/// Standard deviation of the AR(1) innovations, percent.
const NOISE: f64 = 2.5;
/// Per-sample probability of a load spike starting.
const SPIKE_PROB: f64 = 0.002;
/// Spike amplitude, percent.
const SPIKE_AMP: f64 = 45.0;
/// Spike decay per sample (exponential).
const SPIKE_DECAY: f64 = 0.92;

/// A generated utilisation trace. Samples are *average per-CPU usage* in
/// percent (`0..=100`); [`CpuTrace::total_at`] scales by the CPU count.
#[derive(Clone, Debug)]
pub struct CpuTrace {
    samples: Vec<f64>,
}

impl CpuTrace {
    /// The seed of the default trace (any seed gives the same shape).
    pub const DEFAULT_SEED: u64 = 0x5f1f;

    /// Generate `duration_s` seconds of trace (paper: 2 h = 7200 s),
    /// deterministic per `seed`.
    pub fn generate(duration_s: u64, seed: u64) -> Self {
        assert!(duration_s >= 1);
        let n = (duration_s * SAMPLE_HZ) as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(n);
        let mut ar = 0.0f64;
        let mut spike = 0.0f64;
        for i in 0..n {
            let t = i as f64 / SAMPLE_HZ as f64;
            // AR(1) noise via Box-Muller.
            let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            ar = AR1 * ar + NOISE * z;
            // Spikes.
            spike *= SPIKE_DECAY;
            if rng.random::<f64>() < SPIKE_PROB {
                spike += SPIKE_AMP;
            }
            let drift = DRIFT_AMP * (std::f64::consts::TAU * t / DRIFT_PERIOD_S).sin();
            let v = (BASE + drift + ar + spike).clamp(0.0, 100.0);
            samples.push(v);
        }
        CpuTrace { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Average per-CPU usage (percent) at `t_s` seconds from trace start.
    /// Out-of-range times clamp to the last sample.
    pub fn at(&self, t_s: u64) -> f64 {
        let idx = ((t_s * SAMPLE_HZ) as usize).min(self.samples.len() - 1);
        self.samples[idx]
    }

    /// Total usage across all CPUs (percent × cpus) at `t_s`.
    pub fn total_at(&self, t_s: u64) -> f64 {
        self.at(t_s) * CPUS as f64
    }

    /// The raw sample vector.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Lag-1 autocorrelation of the samples — used by tests to verify the
    /// signal is trace-like (strongly autocorrelated) rather than white.
    pub fn lag1_autocorr(&self) -> f64 {
        let n = self.samples.len();
        if n < 3 {
            return 0.0;
        }
        let mean = self.samples.iter().sum::<f64>() / n as f64;
        let var: f64 = self.samples.iter().map(|x| (x - mean).powi(2)).sum();
        if var == 0.0 {
            return 1.0;
        }
        let cov: f64 = self
            .samples
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum();
        cov / var
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_trace() -> CpuTrace {
        CpuTrace::generate(7200, CpuTrace::DEFAULT_SEED)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = default_trace();
        let b = default_trace();
        assert_eq!(a.samples(), b.samples());
        let c = CpuTrace::generate(7200, 999);
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn two_hour_trace_shape() {
        let t = default_trace();
        assert_eq!(t.len(), 7200);
        assert!(t.samples().iter().all(|&v| (0.0..=100.0).contains(&v)));
        // 8-CPU totals scale accordingly.
        assert_eq!(t.total_at(0), t.at(0) * 8.0);
    }

    #[test]
    fn strongly_autocorrelated() {
        let t = default_trace();
        assert!(
            t.lag1_autocorr() > 0.8,
            "trace-like signals are smooth: r1 = {}",
            t.lag1_autocorr()
        );
    }

    #[test]
    fn out_of_range_times_clamp() {
        let t = CpuTrace::generate(10, CpuTrace::DEFAULT_SEED);
        assert_eq!(t.at(10_000), t.at(9));
    }

    #[test]
    fn spikes_present() {
        let t = default_trace();
        let max = t.samples().iter().cloned().fold(0.0, f64::max);
        let mean = t.samples().iter().sum::<f64>() / t.len() as f64;
        assert!(
            max > mean + 20.0,
            "spikes should stand out: max {max}, mean {mean}"
        );
        // The drift alone can clear that bar; a one-sample rise of 20
        // points (8 innovation deviations) is a spike's onset.
        let rise = t
            .samples()
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0, f64::max);
        assert!(rise > 20.0, "no spike onset: largest rise {rise}");
    }
}
