//! The fixed registry of process-global duration histograms.
//!
//! Every instrumented duration in the runtime is one [`Metric`] variant
//! with a dedicated [`Histogram`] in a `static` array — recording is an
//! index into that array, no locks and no allocation. Workers record
//! directly into the shared histograms (they are lock-free), so "merge
//! across workers" is inherent; [`HistSnapshot::merge`] additionally lets
//! reports combine metrics or time windows.

use crate::hist::{HistSnapshot, Histogram};
use crate::{enabled, now_ns};

/// One row per instrumented duration: `Variant: "name", "category",
/// "help";`. Generates [`Metric`] (the discriminant indexes the global
/// histogram registry), [`METRIC_COUNT`], [`ALL_METRICS`] and the
/// per-metric strings.
macro_rules! metric_table {
    ($($(#[$doc:meta])* $variant:ident: $name:literal, $category:literal, $help:literal;)*) => {
        /// Every duration the runtime instruments. The discriminant indexes
        /// the global histogram registry.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Metric { $(#[doc = $help] $(#[$doc])* $variant,)* }

        /// All metrics, in discriminant order.
        pub const ALL_METRICS: [Metric; METRIC_COUNT] = [$(Metric::$variant,)*];

        /// `(name, category, help)` per metric, in discriminant order.
        const STRINGS: &[(&str, &str, &str)] = &[$(($name, $category, $help),)*];
    };
}

metric_table! {
    LgcPause: "lgc_pause", "gc.lgc", "Local collection stop-the-task pause";
    CgcPause: "cgc_pause", "gc.cgc", "Entangled collection pause (monolithic or slice)";
    /// Mark the shield closure.
    LgcShield: "lgc_shield", "gc.lgc", "LGC phase A (shield) duration";
    /// Copy live objects and fix references.
    LgcEvacuate: "lgc_evacuate", "gc.lgc", "LGC phase B (evacuate) duration";
    /// Return dead blocks.
    LgcReclaim: "lgc_reclaim", "gc.lgc", "LGC phase C (reclaim) duration";
    /// SATB trace over the entangled space.
    CgcMark: "cgc_mark", "gc.cgc", "CGC mark phase duration";
    CgcSweep: "cgc_sweep", "gc.cgc", "CGC sweep+epilogue duration";
    /// Read or write: locate/LCA/pin/remset work.
    BarrierSlow: "barrier_slow", "barrier", "Slow-tier barrier entry latency";
    /// From first probe to a job in hand.
    SchedSteal: "sched_steal", "sched", "Successful steal latency";
    SchedRun: "sched_run", "sched", "Job run time on a worker";
    SchedPark: "sched_park", "sched", "Idle worker park interval";
    /// Grouped publish to ancestor heaps.
    RemsetFlush: "remset_flush", "barrier", "Buffered remset flush duration";
    /// A trace, sweep, or epilogue unit.
    CgcPacket: "cgc_packet", "gc.cgc", "One CGC work packet on a scheduler worker";
    /// Taken when a task's cached size-class block overflows (or the
    /// object is oversized) — block acquisition plus cache re-adoption.
    AllocRefill: "alloc_refill", "alloc", "Allocation-cache refill (store-path block overflow fallback)";
    /// Ends at `Runtime::try_run*` catching the `Cancelled` payload.
    CancelUnwind: "cancel_unwind", "cancel", "Cancellation latency (token trip to run fully unwound)";
}

/// Number of [`Metric`] variants.
pub const METRIC_COUNT: usize = STRINGS.len();

impl Metric {
    /// Stable snake_case name (used for Prometheus metric names and Chrome
    /// trace event names).
    pub fn name(self) -> &'static str {
        STRINGS[self as usize].0
    }

    /// Chrome-trace category for the subsystem this metric belongs to.
    pub fn category(self) -> &'static str {
        STRINGS[self as usize].1
    }

    /// One-line description (Prometheus `# HELP`).
    pub fn help(self) -> &'static str {
        STRINGS[self as usize].2
    }

    /// Reconstruct a metric from its discriminant (span ring decode).
    pub(crate) fn from_index(i: usize) -> Option<Metric> {
        ALL_METRICS.get(i).copied()
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_HIST: Histogram = Histogram::new();
static REGISTRY: [Histogram; METRIC_COUNT] = [EMPTY_HIST; METRIC_COUNT];

/// The global histogram for a metric. Callers may `record` on it directly;
/// prefer [`record_duration`] which applies the enabled gate.
pub fn histogram(metric: Metric) -> &'static Histogram {
    &REGISTRY[metric as usize]
}

/// Record a duration (nanoseconds) into a metric's histogram. When
/// telemetry is disabled this is one relaxed load and a predicted branch.
#[inline]
pub fn record_duration(metric: Metric, ns: u64) {
    if !enabled() {
        return;
    }
    REGISTRY[metric as usize].record(ns);
}

/// Snapshot every metric's histogram (empty ones included, in
/// discriminant order).
pub fn metric_snapshots() -> Vec<(Metric, HistSnapshot)> {
    ALL_METRICS
        .iter()
        .map(|&m| (m, histogram(m).snapshot()))
        .collect()
}

/// Zero every histogram (bench-harness use, e.g. between suite phases).
pub fn reset_metrics() {
    for m in ALL_METRICS {
        histogram(m).reset();
    }
}

/// RAII duration recorder: captures a start timestamp if telemetry is on
/// and records into `metric` on drop. Used where a timed section has many
/// exit points (e.g. the slow-tier barrier).
pub struct Timer {
    metric: Metric,
    start: Option<u64>,
}

/// Start a [`Timer`] for `metric`. Disabled cost: one relaxed load.
#[inline]
pub fn timer(metric: Metric) -> Timer {
    Timer {
        metric,
        start: enabled().then(now_ns),
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_duration(self.metric, now_ns().saturating_sub(start));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for m in ALL_METRICS {
            assert!(seen.insert(m.name()), "duplicate name {}", m.name());
            assert!(m.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
            assert_eq!(Metric::from_index(m as usize), Some(m));
        }
        assert_eq!(Metric::from_index(METRIC_COUNT), None);
    }
}
