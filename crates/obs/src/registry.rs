//! Metric registry: counters, gauges and histograms with static labels,
//! deterministic ordering, fleet merging and Prometheus-style exposition.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::LogHist;

/// Identity of one metric series: a static name plus up to two static
/// `(label, value)` pairs. Unused label slots stay `("", "")`.
///
/// Keeping everything `&'static str` means building a key allocates
/// nothing, and `Ord` on string contents makes every render and merge
/// deterministic. It also makes a bump one `BTreeMap` probe over 80-byte
/// keys compared by contents — ~220 ns once the map is cold, several
/// times what delivering a simulated message costs — so the registry is
/// the scrape-time format: per-message counting happens in
/// `dat_chord::Metrics`' dense rows and lands here via `export_into`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric name, e.g. `sent_total`.
    pub name: &'static str,
    /// Up to two label pairs; empty slots are `("", "")`.
    pub labels: [(&'static str, &'static str); 2],
}

impl Key {
    /// A label-free series.
    pub fn new(name: &'static str) -> Self {
        Key {
            name,
            labels: [("", ""); 2],
        }
    }

    /// Attach a label pair in the first free slot. Two labels are all the
    /// stack ever needs; a third is a bug — it would fold series that
    /// differ only in that label into one — so debug builds panic (release
    /// builds drop the pair).
    pub fn label(mut self, k: &'static str, v: &'static str) -> Self {
        for slot in self.labels.iter_mut() {
            if slot.0.is_empty() {
                *slot = (k, v);
                return self;
            }
        }
        debug_assert!(false, "no free label slot for {k}={v:?} on {self:?}");
        self
    }

    /// `true` when any label slot carries `value`.
    pub fn has_label_value(&self, value: &str) -> bool {
        self.labels.iter().any(|(_, v)| *v == value)
    }

    fn render_labels(&self) -> String {
        let pairs: Vec<String> = self
            .labels
            .iter()
            .filter(|(k, _)| !k.is_empty())
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        if pairs.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", pairs.join(","))
        }
    }

    fn render_labels_with(&self, extra: &str) -> String {
        let mut pairs: Vec<String> = self
            .labels
            .iter()
            .filter(|(k, _)| !k.is_empty())
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        pairs.push(extra.to_string());
        format!("{{{}}}", pairs.join(","))
    }
}

/// A bag of counters, gauges and log2 histograms.
///
/// Per-node registries are merged into fleet registries with
/// [`Registry::merge`] (counters add, gauges take the max, histograms
/// merge element-wise); layered stacks export each layer's tallies under
/// a `layer` label so `chord` and `dat` traffic stay distinguishable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    hists: BTreeMap<Key, LogHist>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add `n` to a counter (creating it at zero).
    pub fn counter_add(&mut self, key: Key, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Increment a counter by one.
    pub fn counter_inc(&mut self, key: Key) {
        self.counter_add(key, 1);
    }

    /// Current value of a counter series (0 when absent).
    pub fn counter(&self, key: &Key) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of every counter series named `name`.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Sum of every counter series named `name` that carries `label_value`
    /// in any label slot.
    pub fn counter_with(&self, name: &str, label_value: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name && k.has_label_value(label_value))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, key: Key, v: f64) {
        self.gauges.insert(key, v);
    }

    /// Current value of a gauge series (0.0 when absent).
    pub fn gauge(&self, key: &Key) -> f64 {
        self.gauges.get(key).copied().unwrap_or(0.0)
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, key: Key, v: u64) {
        self.hists.entry(key).or_default().observe(v);
    }

    /// Fold a whole histogram into a series (creating it empty).
    pub fn hist_merge(&mut self, key: Key, h: &LogHist) {
        self.hists.entry(key).or_default().merge(h);
    }

    /// One histogram series, if present.
    pub fn hist(&self, key: &Key) -> Option<&LogHist> {
        self.hists.get(key)
    }

    /// Merge of every histogram series named `name`.
    pub fn hist_sum(&self, name: &str) -> LogHist {
        let mut out = LogHist::new();
        for (_, h) in self.hists.iter().filter(|(k, _)| k.name == name) {
            out.merge(h);
        }
        out
    }

    /// Iterate every counter series in deterministic (sorted) order.
    pub fn counters(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Iterate every histogram series in deterministic (sorted) order.
    pub fn hists(&self) -> impl Iterator<Item = (&Key, &LogHist)> {
        self.hists.iter()
    }

    /// Number of series across all three metric kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }

    /// `true` when no series exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold `other` into `self`: counters add, gauges take the max (fleet
    /// merges want "worst/latest of", not a meaningless sum), histograms
    /// merge element-wise. Associative and commutative, identity
    /// [`Registry::new`].
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            self.counter_add(*k, *v);
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(*k).or_insert(f64::NEG_INFINITY);
            *g = g.max(*v);
        }
        for (k, h) in &other.hists {
            self.hist_merge(*k, h);
        }
    }

    /// Drop every series.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
    }

    /// Render the registry as Prometheus text exposition. Series are
    /// emitted in sorted order (the map order), so the dump is
    /// deterministic; histograms render cumulative `_bucket{le=…}` series
    /// up to their highest non-empty bucket plus `+Inf`, `_sum` and
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<(&str, &str)> = None;
        let mut type_line = |out: &mut String, name: &'static str, kind: &'static str| {
            if last_type != Some((name, kind)) {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_type = Some((name, kind));
            }
        };
        for (k, v) in &self.counters {
            type_line(&mut out, k.name, "counter");
            let _ = writeln!(out, "{}{} {v}", k.name, k.render_labels());
        }
        for (k, v) in &self.gauges {
            type_line(&mut out, k.name, "gauge");
            let _ = writeln!(out, "{}{} {v}", k.name, k.render_labels());
        }
        for (k, h) in &self.hists {
            type_line(&mut out, k.name, "histogram");
            let mut cum = 0u64;
            for (bound, count) in h.nonzero_buckets() {
                cum += count;
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cum}",
                    k.name,
                    k.render_labels_with(&format!("le=\"{bound}\""))
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                k.name,
                k.render_labels_with("le=\"+Inf\""),
                h.count()
            );
            let _ = writeln!(out, "{}_sum{} {}", k.name, k.render_labels(), h.sum());
            let _ = writeln!(out, "{}_count{} {}", k.name, k.render_labels(), h.count());
        }
        out
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validate a Prometheus text dump: non-empty, every sample line parses
/// (`name{labels} value`), and no series identity (name + label set)
/// appears twice. Returns the number of sample lines.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut samples = 0usize;
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line:?}", ln + 1))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("line {}: bad sample value {value:?}", ln + 1))?;
        let name = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated label set", ln + 1))?;
                for pair in labels.split(',') {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {}: bad label pair {pair:?}", ln + 1))?;
                    if !valid_name(k) {
                        return Err(format!("line {}: bad label name {k:?}", ln + 1));
                    }
                    if !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                        return Err(format!("line {}: unquoted label value {v:?}", ln + 1));
                    }
                }
                name
            }
            None => series,
        };
        if !valid_name(name) {
            return Err(format!("line {}: bad metric name {name:?}", ln + 1));
        }
        if !seen.insert(series.to_string()) {
            return Err(format!("duplicate series {series:?}"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("empty exposition: no sample lines".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> Registry {
        let mut r = Registry::new();
        r.counter_add(Key::new("sent_total").label("kind", "ping"), 3);
        r.counter_add(Key::new("sent_total").label("kind", "notify"), 2);
        r.counter_inc(Key::new("timeouts_total"));
        r.gauge_set(Key::new("epoch"), 7.0);
        r.observe(Key::new("route_hops"), 3);
        r.observe(Key::new("route_hops"), 9);
        r
    }

    #[test]
    fn counters_and_sums() {
        let r = filled();
        assert_eq!(r.counter_sum("sent_total"), 5);
        assert_eq!(r.counter_with("sent_total", "ping"), 3);
        assert_eq!(r.counter(&Key::new("timeouts_total")), 1);
        assert_eq!(r.counter(&Key::new("missing")), 0);
    }

    #[test]
    fn merge_adds_counters_and_merges_hists() {
        let mut a = filled();
        let b = filled();
        a.merge(&b);
        assert_eq!(a.counter_with("sent_total", "ping"), 6);
        assert_eq!(a.hist_sum("route_hops").count(), 4);
        assert_eq!(a.gauge(&Key::new("epoch")), 7.0);
        // Identity is neutral.
        let mut c = filled();
        c.merge(&Registry::new());
        assert_eq!(c, filled());
    }

    #[test]
    fn third_label_is_a_bug() {
        let full = Key::new("sent_total")
            .label("kind", "ping")
            .label("layer", "chord");
        let third = std::panic::catch_unwind(|| full.label("shard", "3"));
        if cfg!(debug_assertions) {
            let msg = third.expect_err("a third label must panic in debug builds");
            let msg = msg.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("sent_total") && msg.contains("shard"), "{msg}");
        } else {
            assert_eq!(third.ok(), Some(full), "release: the pair is dropped");
        }
    }

    #[test]
    fn render_is_valid_and_deterministic() {
        let r = filled();
        let text = r.render_prometheus();
        let n = validate_prometheus(&text).expect("dump must validate");
        assert!(n >= 6, "expected several series, got {n}:\n{text}");
        assert_eq!(text, filled().render_prometheus());
        assert!(text.contains("sent_total{kind=\"ping\"} 3"));
        assert!(text.contains("route_hops_bucket{le=\"+Inf\"} 2"));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("just words\n").is_err());
        assert!(
            validate_prometheus("m 1\nm 2\n").is_err(),
            "duplicate series"
        );
        assert!(validate_prometheus("1bad_name 3\n").is_err());
        assert!(validate_prometheus("m{k=unquoted} 3\n").is_err());
        assert_eq!(validate_prometheus("m{k=\"v\"} 3\nm 4\n"), Ok(2));
    }
}
