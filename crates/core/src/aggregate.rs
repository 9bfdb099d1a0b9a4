//! Aggregate functions and mergeable partial states.
//!
//! The DAT problem statement (paper §2.3): each node `i` holds a local
//! value `x_i(t)`; for an aggregate function `f : X⁺ → X` the tree computes
//! `g(t) = f(x_1(t), …, x_n(t))` by recursively applying `f` bottom-up.
//! That recursion is only correct for functions with an associative,
//! commutative merge — so we represent every aggregation by a mergeable
//! [`AggPartial`] (count / sum / sum-of-squares / min / max, plus an
//! optional fixed-width histogram) from which any of the [`AggFunc`]
//! read-outs can be finalized. One partial per tree thus serves SUM, COUNT,
//! AVG, MIN, MAX, VARIANCE and quantile estimates simultaneously, the way
//! production monitoring systems (Astrolabe, SDIMS) ship digests rather
//! than scalars.

use core::fmt;

use crate::sketch::Hll;

/// Read-outs derivable from an [`AggPartial`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, serde::Serialize, serde::Deserialize)]
pub enum AggFunc {
    /// Number of contributing values.
    Count,
    /// Sum of values.
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Population variance.
    Variance,
    /// Population standard deviation.
    Std,
}

impl AggFunc {
    /// Attribute-style label (used in reports).
    pub fn label(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Variance => "var",
            AggFunc::Std => "std",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A fixed-range, fixed-width histogram digest (for distribution queries
/// such as "how many nodes are above 90% CPU").
#[derive(Clone, PartialEq, Debug, serde::Serialize, serde::Deserialize)]
pub struct Histogram {
    /// Lower bound of the tracked range.
    pub lo: f64,
    /// Upper bound of the tracked range.
    pub hi: f64,
    /// Bucket counts; values outside `[lo, hi]` clamp into the end buckets.
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// An empty histogram over `[lo, hi]` with `n` buckets.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 1 && hi > lo, "invalid histogram shape");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
        }
    }

    /// Absorb one observation.
    pub fn add(&mut self, x: f64) {
        let n = self.buckets.len();
        let t = ((x - self.lo) / (self.hi - self.lo) * n as f64).floor();
        let idx = (t.max(0.0) as usize).min(n - 1);
        self.buckets[idx] += 1;
    }

    /// Merge another histogram of identical shape.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.buckets.len(), other.buckets.len(), "shape mismatch");
        assert!(
            (self.lo - other.lo).abs() < 1e-12 && (self.hi - other.hi).abs() < 1e-12,
            "range mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Approximate `q`-quantile (0–1) by linear scan of bucket mass.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return self.lo;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= target {
                // Midpoint of the bucket.
                return self.lo + (i as f64 + 0.5) * w;
            }
        }
        self.hi
    }
}

/// The mergeable partial aggregate shipped through DAT trees.
///
/// The optional histogram and distinct sketch share one box: a plain key
/// carries neither, and every cached child partial of every node would
/// otherwise hold 72 bytes of two `None`s. Read them through
/// [`AggPartial::histogram`] and [`AggPartial::distinct`].
#[derive(Clone, PartialEq, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct AggPartial {
    /// Number of contributing local values.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Sum of squared values (for variance).
    pub sum_sq: f64,
    /// Minimum value (`+inf` when empty — normalised by accessors).
    pub min: f64,
    /// Maximum value (`-inf` when empty).
    pub max: f64,
    /// The optional distribution digest and distinct-count sketch; `None`
    /// when the partial carries neither (never a box of two `None`s).
    sketches: Option<Box<Sketches>>,
    /// Number of distinct grid nodes whose state is folded into this
    /// partial (completeness accounting). Unlike `count` — which tallies
    /// *observations* and can exceed the node count when a node reports
    /// several samples — `contributors` is stamped once per node by the
    /// aggregation layer and summed up the tree, so the root can compare
    /// it against the estimated ring size.
    pub contributors: u64,
    /// Upper bound, in epochs, on the age of the *oldest* constituent
    /// sample. A freshly-flushed local partial carries 0; cached child
    /// state ages as it sits in a parent's soft state (see
    /// [`AggPartial::merge_aged`]). Merge takes the max, so the root's
    /// value bounds the staleness of the whole report.
    pub age_epochs: u64,
    /// Causal trace id of the epoch this partial belongs to (0 when
    /// untraced). The aggregation layer stamps every flush with
    /// `dat_obs::trace_id_for(key, epoch)`; merge takes the max — which is
    /// idempotent and keeps the merge associative/commutative with 0 as
    /// the neutral element — so a report's trace id survives the fold and
    /// the whole epoch can be replayed leaf→root from the event buffers.
    pub trace_id: u64,
}

/// The optional parts of an [`AggPartial`], out of line.
#[derive(Clone, PartialEq, Debug, Default, serde::Serialize, serde::Deserialize)]
struct Sketches {
    /// Optional distribution digest.
    histogram: Option<Histogram>,
    /// Optional distinct-count sketch (see [`crate::sketch`]).
    distinct: Option<Hll>,
}

impl AggPartial {
    /// The identity element: merging it changes nothing.
    pub fn identity() -> Self {
        AggPartial {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sketches: None,
            contributors: 0,
            age_epochs: 0,
            trace_id: 0,
        }
    }

    /// Identity carrying an (empty) distinct-count sketch of precision `p`.
    pub fn identity_with_distinct(p: u8) -> Self {
        let mut out = Self::identity();
        out.set_distinct(Some(Hll::new(p)));
        out
    }

    /// The distribution digest, if one is attached.
    pub fn histogram(&self) -> Option<&Histogram> {
        self.sketches.as_ref()?.histogram.as_ref()
    }

    /// The distinct-count sketch, if one is attached.
    pub fn distinct(&self) -> Option<&Hll> {
        self.sketches.as_ref()?.distinct.as_ref()
    }

    /// Attach (or with `None`, drop) the distribution digest.
    pub fn set_histogram(&mut self, h: Option<Histogram>) {
        let distinct = self.sketches.take().and_then(|s| s.distinct);
        self.set_sketches(h, distinct);
    }

    /// Attach (or with `None`, drop) the distinct-count sketch.
    pub fn set_distinct(&mut self, d: Option<Hll>) {
        let histogram = self.sketches.take().and_then(|s| s.histogram);
        self.set_sketches(histogram, d);
    }

    /// Replace both optional parts at once.
    pub(crate) fn set_sketches(&mut self, histogram: Option<Histogram>, distinct: Option<Hll>) {
        self.sketches = (histogram.is_some() || distinct.is_some()).then(|| {
            Box::new(Sketches {
                histogram,
                distinct,
            })
        });
    }

    /// Record an identity-bearing item (e.g. a site or user name) in the
    /// distinct-count sketch, if one is attached.
    pub fn observe_item(&mut self, item: &[u8]) {
        if let Some(h) = self.sketches.as_mut().and_then(|s| s.distinct.as_mut()) {
            h.insert(item);
        }
    }

    /// Estimated number of distinct observed items (NaN without a sketch).
    pub fn distinct_estimate(&self) -> f64 {
        self.distinct().map(Hll::estimate).unwrap_or(f64::NAN)
    }

    /// Identity carrying an (empty) histogram of the given shape.
    pub fn identity_with_histogram(lo: f64, hi: f64, buckets: usize) -> Self {
        let mut p = Self::identity();
        p.set_histogram(Some(Histogram::new(lo, hi, buckets)));
        p
    }

    /// A partial holding exactly one observation.
    pub fn of(x: f64) -> Self {
        let mut p = Self::identity();
        p.absorb(x);
        p
    }

    /// `true` when no observations have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Absorb one local observation.
    pub fn absorb(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if let Some(h) = self.sketches.as_mut().and_then(|s| s.histogram.as_mut()) {
            h.add(x);
        }
    }

    /// Merge another partial into this one. Associative and commutative —
    /// the law the tree recursion depends on (property-tested).
    ///
    /// **Duplicate-delivery contract**: merging is *not* idempotent for the
    /// additive components — `count`/`sum`/`sum_sq` (and the histogram
    /// counts) inflate if the same partial is merged twice, as happens when
    /// a retransmitting transport duplicates an aggregation message. The
    /// order-statistic and sketch components (`min`, `max`, the
    /// [`Hll`] distinct sketch) are idempotent and stay exact under
    /// duplicates. Layers that re-send partials must therefore either
    /// deduplicate by source (the continuous DAT path overwrites the
    /// per-child slot instead of accumulating) or tolerate inflation in
    /// Sum/Count read-outs.
    ///
    /// `contributors` is additive like `count` — the same non-idempotence
    /// applies, and the same per-source dedup in the continuous path keeps
    /// it exact under duplicate delivery (property-tested in
    /// `tests/properties.rs`). `age_epochs` takes the max, which *is*
    /// idempotent.
    pub fn merge(&mut self, other: &AggPartial) {
        self.merge_aged(other, 0);
    }

    /// [`AggPartial::merge`], but treating `other` as `extra_age` epochs
    /// older than it claims — used when folding in a child partial that
    /// has been sitting in soft state since it was received.
    pub fn merge_aged(&mut self, other: &AggPartial, extra_age: u64) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.contributors += other.contributors;
        self.age_epochs = self
            .age_epochs
            .max(other.age_epochs.saturating_add(extra_age));
        self.trace_id = self.trace_id.max(other.trace_id);
        let Some(theirs) = &other.sketches else {
            return;
        };
        let Some(ours) = &mut self.sketches else {
            self.sketches = Some(theirs.clone());
            return;
        };
        match (&mut ours.histogram, &theirs.histogram) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => ours.histogram = Some(b.clone()),
            _ => {}
        }
        match (&mut ours.distinct, &theirs.distinct) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => ours.distinct = Some(b.clone()),
            _ => {}
        }
    }

    /// Functional merge.
    pub fn merged(mut self, other: &AggPartial) -> Self {
        self.merge(other);
        self
    }

    /// Finalize a read-out. Empty partials yield 0 for additive functions
    /// and NaN for order statistics (no observations — no extremes).
    pub fn finalize(&self, f: AggFunc) -> f64 {
        if self.count == 0 {
            return match f {
                AggFunc::Count | AggFunc::Sum | AggFunc::Variance | AggFunc::Std => 0.0,
                AggFunc::Avg | AggFunc::Min | AggFunc::Max => f64::NAN,
            };
        }
        match f {
            AggFunc::Count => self.count as f64,
            AggFunc::Sum => self.sum,
            AggFunc::Avg => self.sum / self.count as f64,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Variance => {
                let n = self.count as f64;
                (self.sum_sq / n - (self.sum / n) * (self.sum / n)).max(0.0)
            }
            AggFunc::Std => self.finalize(AggFunc::Variance).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_partial_takes_72_bytes() {
        assert!(std::mem::size_of::<AggPartial>() <= 72);
    }

    #[test]
    fn sketches_box_only_what_is_attached() {
        let mut p = AggPartial::identity_with_histogram(0.0, 1.0, 4);
        p.set_distinct(Some(Hll::new(4)));
        p.set_histogram(None);
        assert!(p.histogram().is_none() && p.distinct().is_some());
        p.set_distinct(None);
        assert_eq!(p, AggPartial::identity(), "no box of two Nones");
    }

    #[test]
    fn single_value_readouts() {
        let p = AggPartial::of(4.0);
        assert_eq!(p.finalize(AggFunc::Count), 1.0);
        assert_eq!(p.finalize(AggFunc::Sum), 4.0);
        assert_eq!(p.finalize(AggFunc::Avg), 4.0);
        assert_eq!(p.finalize(AggFunc::Min), 4.0);
        assert_eq!(p.finalize(AggFunc::Max), 4.0);
        assert_eq!(p.finalize(AggFunc::Variance), 0.0);
    }

    #[test]
    fn duplicate_merge_inflates_additive_but_not_order_stats() {
        // The duplicate-delivery contract documented on `merge`: replaying
        // the same partial (a duplicated transport datagram) corrupts the
        // additive components but leaves min/max and the distinct sketch
        // exact.
        let mut child = AggPartial::identity_with_distinct(10);
        child.absorb(2.0);
        child.absorb(8.0);
        child.observe_item(b"site-a");
        child.observe_item(b"site-b");

        let once = AggPartial::identity_with_distinct(10).merged(&child);
        let twice = once.clone().merged(&child);

        // Additive components inflate.
        assert_eq!(once.finalize(AggFunc::Count), 2.0);
        assert_eq!(twice.finalize(AggFunc::Count), 4.0);
        assert_eq!(once.finalize(AggFunc::Sum), 10.0);
        assert_eq!(twice.finalize(AggFunc::Sum), 20.0);

        // Idempotent components stay exact.
        assert_eq!(twice.finalize(AggFunc::Min), 2.0);
        assert_eq!(twice.finalize(AggFunc::Max), 8.0);
        assert_eq!(twice.distinct_estimate(), once.distinct_estimate());
        // Avg survives only when *every* branch is duplicated alike; with
        // one sibling delivered once and the other twice it skews.
        let sibling = AggPartial::of(7.0);
        let fair = once.clone().merged(&sibling);
        let skew = twice.merged(&sibling);
        assert!((fair.finalize(AggFunc::Avg) - 17.0 / 3.0).abs() < 1e-9);
        assert!((skew.finalize(AggFunc::Avg) - 27.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn identity_is_neutral() {
        let mut p = AggPartial::of(3.0).merged(&AggPartial::of(5.0));
        let q = p.clone();
        p.merge(&AggPartial::identity());
        assert_eq!(p, q);
        let r = AggPartial::identity().merged(&q);
        assert_eq!(r, q);
    }

    #[test]
    fn empty_readouts() {
        let p = AggPartial::identity();
        assert!(p.is_empty());
        assert_eq!(p.finalize(AggFunc::Sum), 0.0);
        assert_eq!(p.finalize(AggFunc::Count), 0.0);
        assert!(p.finalize(AggFunc::Min).is_nan());
        assert!(p.finalize(AggFunc::Avg).is_nan());
    }

    #[test]
    fn merge_matches_flat_aggregation() {
        let xs = [1.0, -2.5, 7.0, 0.0, 3.5, 3.5];
        // Tree-shaped merge.
        let mut left = AggPartial::identity();
        xs[..3].iter().for_each(|&x| left.absorb(x));
        let mut right = AggPartial::identity();
        xs[3..].iter().for_each(|&x| right.absorb(x));
        let tree = left.merged(&right);
        // Flat.
        let mut flat = AggPartial::identity();
        xs.iter().for_each(|&x| flat.absorb(x));
        assert_eq!(tree, flat);
        assert_eq!(flat.finalize(AggFunc::Min), -2.5);
        assert_eq!(flat.finalize(AggFunc::Max), 7.0);
        assert!((flat.finalize(AggFunc::Avg) - 12.5 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn variance_and_std() {
        let mut p = AggPartial::identity();
        [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .for_each(|&x| p.absorb(x));
        assert!((p.finalize(AggFunc::Variance) - 4.0).abs() < 1e-12);
        assert!((p.finalize(AggFunc::Std) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.add(5.0); // bucket 0
        h.add(95.0); // bucket 9
        h.add(100.0); // clamped to bucket 9
        h.add(-3.0); // clamped to bucket 0
        h.add(1000.0); // clamped to bucket 9
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[9], 3);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_merge_through_partials() {
        let mut a = AggPartial::identity_with_histogram(0.0, 10.0, 5);
        a.absorb(1.0);
        let mut b = AggPartial::identity_with_histogram(0.0, 10.0, 5);
        b.absorb(9.0);
        a.merge(&b);
        let h = a.histogram().unwrap();
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[4], 1);
        // Histogram-less partials adopt the other side's digest.
        let mut c = AggPartial::of(2.0);
        c.merge(&a);
        assert_eq!(c.histogram().unwrap().total(), 2);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.add(i as f64 + 0.5);
        }
        assert!((h.quantile(0.5) - 50.0).abs() <= 1.0);
        assert!((h.quantile(0.99) - 99.0).abs() <= 1.5);
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), 0.0);
    }

    #[test]
    fn distinct_sketch_flows_through_merges() {
        let mut a = AggPartial::identity_with_distinct(10);
        let mut b = AggPartial::identity_with_distinct(10);
        for i in 0..400u32 {
            a.absorb(1.0);
            a.observe_item(format!("site-{}", i % 50).as_bytes());
            b.absorb(2.0);
            b.observe_item(format!("site-{}", 25 + i % 50).as_bytes());
        }
        a.merge(&b);
        // Union of {0..50} and {25..75} = 75 distinct sites.
        let e = a.distinct_estimate();
        assert!((65.0..=85.0).contains(&e), "estimate {e}");
        // Sketchless partials report NaN but adopt sketches on merge.
        let mut c = AggPartial::of(1.0);
        assert!(c.distinct_estimate().is_nan());
        c.merge(&a);
        assert!(c.distinct_estimate() > 0.0);
    }

    #[test]
    fn contributors_add_and_ages_max() {
        let mut a = AggPartial::of(1.0);
        a.contributors = 1;
        let mut b = AggPartial::of(2.0);
        b.contributors = 3;
        b.age_epochs = 2;
        // Fold `b` in as if it had been cached for 4 epochs: contributor
        // counts add, ages take max of (own, other + extra).
        a.merge_aged(&b, 4);
        assert_eq!(a.contributors, 4);
        assert_eq!(a.age_epochs, 6);
        // Plain merge is merge_aged with no extra age.
        let mut c = AggPartial::identity();
        c.merge(&a);
        assert_eq!(c.contributors, 4);
        assert_eq!(c.age_epochs, 6);
        // Identity is still neutral for the new fields.
        let d = c.clone().merged(&AggPartial::identity());
        assert_eq!(d, c);
    }

    #[test]
    #[should_panic]
    fn histogram_shape_mismatch_panics() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let b = Histogram::new(0.0, 1.0, 8);
        a.merge(&b);
    }
}
