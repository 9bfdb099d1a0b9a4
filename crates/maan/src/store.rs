//! Per-node resource store.
//!
//! Each MAAN node indexes, for every attribute, the resources whose hashed
//! attribute value it owns. The index is value-ordered (`BTreeMap` keyed by
//! the hashed identifier) so a node answers its slice of a range query
//! with one ordered scan.

use std::collections::BTreeMap;

use dat_chord::Id;

use crate::types::{Predicate, Resource};

/// One stored registration: a resource filed under one attribute value.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredEntry {
    /// The hashed attribute value the entry is filed under.
    pub value_id: Id,
    /// The raw (unhashed) numeric value, when numeric — lets a node filter
    /// exactly instead of by hash bucket.
    pub raw_num: Option<f64>,
    /// The full resource (MAAN stores the complete attribute list with
    /// every registration so multi-attribute queries can filter locally).
    pub resource: Resource,
}

/// A node's local index: attribute name → value-ordered entries.
#[derive(Clone, Debug, Default)]
pub struct NodeStore {
    by_attr: BTreeMap<String, BTreeMap<Id, Vec<StoredEntry>>>,
}

impl NodeStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// File `resource` under `(attr, value_id)`.
    pub fn insert(&mut self, attr: &str, value_id: Id, raw_num: Option<f64>, resource: Resource) {
        let entry = StoredEntry {
            value_id,
            raw_num,
            resource,
        };
        self.by_attr
            .entry(attr.to_string())
            .or_default()
            .entry(value_id)
            .or_default()
            .push(entry);
    }

    /// Total entries across all attributes.
    pub fn len(&self) -> usize {
        self.by_attr
            .values()
            .flat_map(|m| m.values())
            .map(Vec::len)
            .sum()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries of `attr` whose hashed value lies in `[lo_id, hi_id]`
    /// (plain integer interval — the caller maps ring arcs to at most two
    /// such intervals), further filtered by `pred` when given.
    pub fn scan(
        &self,
        attr: &str,
        lo_id: Id,
        hi_id: Id,
        pred: Option<&Predicate>,
    ) -> Vec<&StoredEntry> {
        let Some(values) = self.by_attr.get(attr) else {
            return Vec::new();
        };
        values
            .range(lo_id..=hi_id)
            .flat_map(|(_, v)| v.iter())
            .filter(|e| pred.is_none_or(|p| e.resource.matches(p)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(uri: &str, cpu: f64) -> Resource {
        Resource::new(uri)
            .with("cpu-speed", cpu)
            .with("os", "linux")
    }

    #[test]
    fn insert_scan_filter() {
        let mut s = NodeStore::new();
        s.insert("cpu-speed", Id(100), Some(1.0), res("a", 1.0));
        s.insert("cpu-speed", Id(200), Some(2.0), res("b", 2.0));
        s.insert("cpu-speed", Id(300), Some(3.0), res("c", 3.0));
        assert_eq!(s.len(), 3);
        let hits = s.scan("cpu-speed", Id(150), Id(400), None);
        assert_eq!(hits.len(), 2);
        // Exact filtering by predicate.
        let p = Predicate::range("cpu-speed", 2.5, 3.5);
        let hits = s.scan("cpu-speed", Id(0), Id(u64::MAX), Some(&p));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].resource.uri, "c");
    }

    #[test]
    fn duplicate_value_ids_coexist() {
        let mut s = NodeStore::new();
        s.insert("os", Id(7), None, res("a", 1.0));
        s.insert("os", Id(7), None, res("b", 2.0));
        assert_eq!(s.scan("os", Id(7), Id(7), None).len(), 2);
    }

    #[test]
    fn unknown_attribute_scans_empty() {
        let s = NodeStore::new();
        assert!(s.scan("nope", Id(0), Id(10), None).is_empty());
        assert!(s.is_empty());
    }
}
