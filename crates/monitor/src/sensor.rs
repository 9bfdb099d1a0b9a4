//! Sensors — the bottom layer of the P-GMA architecture.
//!
//! "A sensor monitors the status of one or more resources and generates
//! events to producers. The sensor could be simply some scripts that
//! collect the system status from the /proc file system" (paper §2.1).
//! In the simulated Grid a sensor is a deterministic signal source sampled
//! at epoch boundaries; the producer pushes the readings into the DAT and
//! MAAN layers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::trace::CpuTrace;

/// A monitored signal source for one attribute.
pub trait Sensor: Send {
    /// The attribute this sensor reports (e.g. `"cpu-usage"`).
    fn attribute(&self) -> &str;
    /// Sample the signal at `t_s` seconds since monitoring began.
    fn sample(&mut self, t_s: u64) -> f64;
}

/// Replays a [`CpuTrace`], optionally phase-shifted per node.
pub struct TraceSensor {
    attr: String,
    trace: CpuTrace,
    offset_s: u64,
    scale: f64,
}

impl TraceSensor {
    /// A sensor replaying `trace` from `offset_s` with a value multiplier.
    pub fn new(attr: &str, trace: CpuTrace, offset_s: u64, scale: f64) -> Self {
        TraceSensor {
            attr: attr.to_string(),
            trace,
            offset_s,
            scale,
        }
    }
}

impl Sensor for TraceSensor {
    fn attribute(&self) -> &str {
        &self.attr
    }
    fn sample(&mut self, t_s: u64) -> f64 {
        self.trace.at(t_s + self.offset_s) * self.scale
    }
}

/// A bounded random walk (memory/disk style metrics).
pub struct RandomWalkSensor {
    attr: String,
    value: f64,
    lo: f64,
    hi: f64,
    step: f64,
    rng: SmallRng,
}

impl RandomWalkSensor {
    /// A walk over `[lo, hi]` starting at `start`, stepping ±`step`.
    pub fn new(attr: &str, start: f64, lo: f64, hi: f64, step: f64, seed: u64) -> Self {
        assert!(hi > lo && (lo..=hi).contains(&start));
        RandomWalkSensor {
            attr: attr.to_string(),
            value: start,
            lo,
            hi,
            step,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Sensor for RandomWalkSensor {
    fn attribute(&self) -> &str {
        &self.attr
    }
    fn sample(&mut self, _t_s: u64) -> f64 {
        let d: f64 = self.rng.random_range(-1.0..=1.0) * self.step;
        self.value = (self.value + d).clamp(self.lo, self.hi);
        self.value
    }
}

/// A constant signal (capacity-style attributes: cpu-speed, total memory).
pub struct ConstantSensor {
    attr: String,
    value: f64,
}

impl ConstantSensor {
    /// A sensor always reporting `value`.
    pub fn new(attr: &str, value: f64) -> Self {
        ConstantSensor {
            attr: attr.to_string(),
            value,
        }
    }
}

impl Sensor for ConstantSensor {
    fn attribute(&self) -> &str {
        &self.attr
    }
    fn sample(&mut self, _t_s: u64) -> f64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_sensor_replays_with_offset_and_scale() {
        let trace = CpuTrace::generate(7200, CpuTrace::DEFAULT_SEED);
        let mut s = TraceSensor::new("cpu-usage", trace.clone(), 100, 2.0);
        assert_eq!(s.attribute(), "cpu-usage");
        assert_eq!(s.sample(0), trace.at(100) * 2.0);
        assert_eq!(s.sample(50), trace.at(150) * 2.0);
    }

    #[test]
    fn random_walk_stays_bounded() {
        let mut s = RandomWalkSensor::new("memory-free", 32.0, 0.0, 64.0, 4.0, 1);
        for t in 0..10_000 {
            let v = s.sample(t);
            assert!((0.0..=64.0).contains(&v));
        }
    }

    #[test]
    fn random_walk_deterministic() {
        let run = |seed| {
            let mut s = RandomWalkSensor::new("m", 10.0, 0.0, 20.0, 1.0, seed);
            (0..100).map(|t| s.sample(t)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn constant_sensor() {
        let mut s = ConstantSensor::new("cpu-speed", 2.8);
        assert_eq!(s.sample(0), 2.8);
        assert_eq!(s.sample(9999), 2.8);
    }
}
