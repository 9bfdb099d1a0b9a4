//! Small statistics helpers shared by experiments.
//!
//! The paper's metrics are simple aggregates: maximum/average branching
//! factors (Fig. 7), rank-ordered message distributions (Fig. 8a) and the
//! *imbalance factor* — max/mean messages per node (Fig. 8b). [`Tally`]
//! accumulates them in one pass; [`percentile`] and [`imbalance_factor`]
//! operate on collected samples.

/// Streaming tally: count, min, max, mean and variance (Welford).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    n: u64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Tally {
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Absorb one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Absorb many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Smallest observation (NaN-free; panics if empty in debug).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// max / mean — the paper's imbalance factor (1.0 when empty).
    pub fn imbalance(&self) -> f64 {
        if self.n == 0 || self.mean() == 0.0 {
            1.0
        } else {
            self.max / self.mean()
        }
    }

    /// Merge another tally into this one (parallel-reduction friendly).
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The `q`-th percentile (0–100, nearest-rank) of `samples`; sorts a copy.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of empty sample set");
    assert!((0.0..=100.0).contains(&q));
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((q / 100.0) * (s.len() as f64 - 1.0)).round() as usize;
    s[rank]
}

/// Imbalance factor of a per-node count vector: max / mean (Fig. 8b).
pub fn imbalance_factor(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let max = *counts.iter().max().unwrap() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// Sort counts descending — the "node rank" ordering of Fig. 8a.
pub fn rank_order(counts: &[u64]) -> Vec<u64> {
    let mut s = counts.to_vec();
    s.sort_unstable_by(|a, b| b.cmp(a));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_basic() {
        let mut t = Tally::new();
        t.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.count(), 4);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 4.0);
        assert!((t.mean() - 2.5).abs() < 1e-12);
        assert!((t.variance() - 1.25).abs() < 1e-12);
        assert!((t.imbalance() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn tally_empty_and_single() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.imbalance(), 1.0);
        let mut t = Tally::new();
        t.add(7.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.mean(), 7.0);
    }

    #[test]
    fn tally_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Tally::new();
        whole.extend(xs.iter().copied());
        let mut a = Tally::new();
        a.extend(xs[..37].iter().copied());
        let mut b = Tally::new();
        b.extend(xs[37..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn tally_merge_with_empty() {
        let mut a = Tally::new();
        a.add(3.0);
        let b = Tally::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Tally::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 3.0);
    }

    #[test]
    fn percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 50.0), 51); // nearest rank on 0..99
    }

    #[test]
    fn imbalance_factors() {
        assert_eq!(imbalance_factor(&[5, 5, 5, 5]), 1.0);
        assert_eq!(imbalance_factor(&[10, 0, 0, 0]), 4.0);
        assert_eq!(imbalance_factor(&[]), 1.0);
        assert_eq!(imbalance_factor(&[0, 0]), 1.0);
    }

    #[test]
    fn rank_ordering() {
        assert_eq!(rank_order(&[3, 9, 1]), vec![9, 3, 1]);
    }
}
