//! Labeled metric families: histograms and counters keyed by a runtime
//! string label.
//!
//! The fixed [`crate::metrics::Metric`] registry covers every duration
//! the *runtime* emits, but a serving layer needs per-**tenant** series —
//! request latency per tenant, admissions/sheds per tenant — and tenant
//! names only exist at runtime. A family is a process-global map from
//! `(family, label)` to a shared histogram or counter.
//!
//! Hot-path discipline: `family_histogram` takes a lock to get-or-create,
//! so callers resolve the `Arc<Histogram>` **once** (per tenant, at
//! setup) and record through the Arc — recording itself stays the same
//! wait-free path as every other histogram in this crate. The counter
//! helpers are lock-per-call and meant for per-request (not per-object)
//! granularity.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{HistSnapshot, Histogram};

type HistMap = HashMap<(&'static str, String), Arc<Histogram>>;
type CounterMap = HashMap<(&'static str, String), Arc<AtomicU64>>;

fn hists() -> &'static Mutex<HistMap> {
    static HISTS: OnceLock<Mutex<HistMap>> = OnceLock::new();
    HISTS.get_or_init(|| Mutex::new(HashMap::new()))
}

fn counters() -> &'static Mutex<CounterMap> {
    static COUNTERS: OnceLock<Mutex<CounterMap>> = OnceLock::new();
    COUNTERS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Gets (or creates) the histogram for `label` within `family`. Resolve
/// once and cache the `Arc`; recording through it is wait-free.
pub fn family_histogram(family: &'static str, label: &str) -> Arc<Histogram> {
    let mut map = hists().lock().unwrap();
    if let Some(h) = map.get(&(family, label.to_string())) {
        return Arc::clone(h);
    }
    let h = Arc::new(Histogram::new());
    map.insert((family, label.to_string()), Arc::clone(&h));
    h
}

/// Gets (or creates) the counter for `label` within `family`.
pub fn family_counter(family: &'static str, label: &str) -> Arc<AtomicU64> {
    let mut map = counters().lock().unwrap();
    if let Some(c) = map.get(&(family, label.to_string())) {
        return Arc::clone(c);
    }
    let c = Arc::new(AtomicU64::new(0));
    map.insert((family, label.to_string()), Arc::clone(&c));
    c
}

/// Adds to a labeled counter (get-or-create per call; per-request
/// granularity, not per-object).
pub fn family_counter_add(family: &'static str, label: &str, n: u64) {
    family_counter(family, label).fetch_add(n, Ordering::Relaxed);
}

/// Snapshots of every histogram in `family`, sorted by label.
pub fn family_snapshots(family: &'static str) -> Vec<(String, HistSnapshot)> {
    let map = hists().lock().unwrap();
    let mut out: Vec<(String, HistSnapshot)> = map
        .iter()
        .filter(|((f, _), _)| *f == family)
        .map(|((_, label), h)| (label.clone(), h.snapshot()))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Current values of every counter in `family`, sorted by label.
pub fn family_counters(family: &'static str) -> Vec<(String, u64)> {
    let map = counters().lock().unwrap();
    let mut out: Vec<(String, u64)> = map
        .iter()
        .filter(|((f, _), _)| *f == family)
        .map(|((_, label), c)| (label.clone(), c.load(Ordering::Relaxed)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The maps are process-global: each test owns its family names.

    #[test]
    fn histogram_family_is_shared_by_label() {
        let a = family_histogram("test_req_latency", "tenant-a");
        let a2 = family_histogram("test_req_latency", "tenant-a");
        assert!(Arc::ptr_eq(&a, &a2));
        a.record(100);
        a2.record(200);
        let b = family_histogram("test_req_latency", "tenant-b");
        b.record(5);
        let snaps = family_snapshots("test_req_latency");
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].0, "tenant-a");
        assert_eq!(snaps[0].1.count, 2);
        assert_eq!(snaps[1].0, "tenant-b");
        assert_eq!(snaps[1].1.count, 1);
    }

    #[test]
    fn counter_family_accumulates() {
        family_counter_add("test_sheds", "t0", 2);
        family_counter_add("test_sheds", "t0", 3);
        family_counter_add("test_sheds", "t1", 1);
        let got = family_counters("test_sheds");
        assert_eq!(
            got,
            vec![("t0".to_string(), 5), ("t1".to_string(), 1)],
            "sorted by label"
        );
    }
}
