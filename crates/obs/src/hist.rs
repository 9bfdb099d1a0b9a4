//! Log2-bucketed histograms: sized to their largest sample, constant-time,
//! mergeable.

/// Number of buckets: index 0 holds exact zeros, index `i > 0` holds
/// values in `[2^(i-1), 2^i - 1]` — so index 64 tops out at `u64::MAX`.
pub const BUCKETS: usize = 65;

/// A log2-bucketed histogram over `u64` samples.
///
/// Buckets are kept only up to the one holding the max, so a row of small
/// samples (hop counts, RTOs) holds a handful of counts, not [`BUCKETS`].
/// Observation cost is two array writes, plus a one-off grow when a sample
/// beats the max's bucket; merge is element-wise addition.
/// That makes the merge associative and commutative with [`LogHist::new`]
/// as the identity — the same algebra `AggPartial` requires, so fleet-wide
/// percentiles are just a fold over per-node histograms. Exact `count`,
/// `sum`, `min` and `max` ride along; quantiles are resolved to the upper
/// bound of the containing bucket (clamped to the exact max).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHist {
    /// Counts of buckets `0..=bucket_index(max)`; empty while `count` is
    /// 0. Equal histograms therefore hold equal vectors.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Upper bound (inclusive) of bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl LogHist {
    /// The empty histogram (merge identity).
    pub fn new() -> Self {
        LogHist {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        let i = bucket_index(v);
        self.grow_to(i + 1);
        self.buckets[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self` (element-wise; associative, commutative).
    pub fn merge(&mut self, other: &LogHist) {
        self.grow_to(other.buckets.len());
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Hold at least `len` buckets, growing exactly: a histogram's buckets
    /// end at its max's.
    fn grow_to(&mut self, len: usize) {
        if len > self.buckets.len() {
            self.buckets.reserve_exact(len - self.buckets.len());
            self.buckets.resize(len, 0);
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `true` when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), resolved to the upper bound of the
    /// bucket containing the rank, clamped to the exact observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Iterate `(inclusive_upper_bound, count)` over non-empty buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (bucket_bound(i), *c))
    }

    /// Raw bucket counts (index 0 holds zeros, index `i > 0` holds
    /// `[2^(i-1), 2^i − 1]`), up to the max's bucket: every later one is 0.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64, n: u64) -> LogHist {
        // Tiny xorshift so tests need no RNG dependency.
        let mut h = LogHist::new();
        let mut x = seed | 1;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.observe(x % 10_000);
        }
        h
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn merge_is_associative_and_commutative_with_identity() {
        let (a, b, c) = (sample(3, 40), sample(5, 17), sample(9, 80));
        // (a ∪ b) ∪ c == a ∪ (b ∪ c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        // a ∪ b == b ∪ a
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // identity is neutral on both sides
        let mut ai = a.clone();
        ai.merge(&LogHist::new());
        assert_eq!(ai, a);
        let mut ia = LogHist::new();
        ia.merge(&a);
        assert_eq!(ia, a);
    }

    #[test]
    fn buckets_end_at_the_max_and_merge_grows_to_the_longer() {
        let mut h = LogHist::new();
        assert!(h.buckets().is_empty());
        h.observe(0);
        assert_eq!(h.buckets(), &[1]);
        h.observe(5);
        h.observe(2);
        assert_eq!(h.buckets(), &[1, 0, 1, 1]);
        let mut big = LogHist::new();
        big.observe(1000);
        let mut m = h.clone();
        m.merge(&big);
        assert_eq!(m.buckets().len(), bucket_index(1000) + 1);
        assert_eq!(m.buckets()[..4], [1, 0, 1, 1]);
        // The shorter side merged into the longer leaves its length alone.
        let mut n = big.clone();
        n.merge(&h);
        assert_eq!(n, m);
        let mut top = LogHist::new();
        top.observe(u64::MAX);
        assert_eq!(top.buckets().len(), BUCKETS);
        assert_eq!(top.quantile(0.5), u64::MAX);
    }

    #[test]
    fn quantiles_and_exact_stats() {
        let mut h = LogHist::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(0.0), 1);
        assert!(h.quantile(0.5) >= 2 && h.quantile(0.5) <= 3);
        assert_eq!(h.quantile(1.0), 1000);
        let empty = LogHist::new();
        assert_eq!(empty.quantile(0.99), 0);
        assert_eq!(empty.min(), 0);
    }
}
