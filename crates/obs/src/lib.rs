//! # mpl-obs — always-on runtime telemetry
//!
//! Production GC runtimes treat per-phase timing and percentile latency as a
//! first-class subsystem; a single `pause_ns_max` counter cannot answer the
//! distributional questions the paper's claims are about ("small time and
//! space overhead", pauses bounded by entanglement cost metrics). This crate
//! is that subsystem for the MPL reproduction:
//!
//! * [`hist`] — lock-free log₂-bucketed histograms (p50/p90/p99/max),
//!   mergeable across workers via [`HistSnapshot::merge`].
//! * [`metrics`] — a fixed registry of process-global histograms, one per
//!   instrumented duration ([`Metric`]): LGC/CGC pause, per-GC-phase
//!   duration, slow-tier barrier latency, steal latency, job run time, …
//! * [`ring`] — the one lock-free, seqlock-validated ring primitive (and
//!   the one global sequence and worker id) that spans, GC audit events,
//!   the flight recorder and provenance samples are all instances of.
//! * [`span`] — per-worker begin/end spans (worker id + monotonic
//!   timestamps) covering GC phases, scheduler park/steal/run and remset
//!   flushes.
//! * [`phase`] — the one clock of collector phases and pauses: a guard
//!   that feeds the span, the histogram, the caller's pause counter and
//!   the open-phase slot the GC stall watchdog polls from one start.
//! * [`chrome`] — `chrome://tracing`-loadable trace-event JSON exporter,
//!   also the format of [`flight`] recorder dumps.
//! * [`prom`] — Prometheus text-exposition exporter for counters, gauges
//!   and histograms.
//! * [`sampler`] — a periodic background sampler thread for rate/gauge
//!   series (allocation rate, live/pinned bytes, worker utilization).
//!
//! ## Overhead discipline
//!
//! The crate follows the same disabled-cost rule as `mpl-heap`'s `events`
//! module: every emission site pays **one relaxed atomic load and a
//! predicted-not-taken branch** when telemetry is off. Nothing is allocated,
//! no timestamps are taken, and [`span_start`] returns `None` without
//! reading the clock. The one exception is the GC phase clock ([`phase`]),
//! whose entry read the stall watchdog and the pause counters need
//! whatever the setting. `mpl-obs` is a leaf crate — it depends on no other
//! workspace crate, so heap, gc, sched and core can all emit into it.
//!
//! Enablement is refcounted ([`enable`]/[`disable`]) so nested runtimes
//! compose, mirroring the audit layer.

pub mod census;
pub mod chrome;
pub mod flight;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod prom;
pub mod ring;
pub mod sampler;
pub mod span;

pub use census::{
    last_gc_census, note_gc_census, provenance_record, provenance_summary, reset_provenance,
    ClassCensus, GcCensus, GcCensusKind, HeapCensus, ProvenanceSample, ProvenanceSummary,
    TenantCensus, CENSUS_MAX_CLASSES,
};
pub use chrome::{chrome_trace, flight_chrome_trace};
pub use flight::{
    clear_flight, dump_flight, flight_record, flight_snapshot, FlightEvent, FlightKind,
    FlightRecord, EV_ALLOC_ERROR, EV_AUDIT_FAILURE, EV_BREAKER_OPEN, EV_CGC_CENSUS,
    EV_DEADLINE_STORM, EV_LGC_CENSUS, EV_WATCHDOG_STALL,
};
pub use hist::{bucket_bound, bucket_index, HistSnapshot, Histogram, BUCKETS};
pub use json::JsonWriter;
pub use metrics::{
    histogram, metric_snapshots, record_duration, reset_metrics, timer, Metric, Timer, METRIC_COUNT,
};
pub use phase::{gc_pause, gc_phase, open_phase, GcSection};
pub use prom::PromWriter;
pub use ring::register_worker;
pub use sampler::{Sample, Sampler};
pub use span::{
    clear_spans, snapshot_spans, span_close, span_guard, span_start, SpanGuard, SpanRecord,
};

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Fast-path flag: `true` while at least one enabler is active. Emission
/// sites check only this (one relaxed load).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Refcount of active enablers ([`enable`] calls minus [`disable`] calls).
static REFS: AtomicUsize = AtomicUsize::new(0);

/// Whether telemetry collection is currently enabled.
///
/// This is the only check on the disabled path: a relaxed load and a
/// predicted branch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable telemetry collection. Refcounted: collection stays on until every
/// `enable` has been matched by a [`disable`].
pub fn enable() {
    REFS.fetch_add(1, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Drop one enable reference; collection turns off when the count reaches
/// zero. Unbalanced calls are clamped at zero.
pub fn disable() {
    let mut cur = REFS.load(Ordering::Relaxed);
    loop {
        if cur == 0 {
            return;
        }
        match REFS.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                if cur == 1 {
                    ENABLED.store(false, Ordering::Relaxed);
                }
                return;
            }
            Err(seen) => cur = seen,
        }
    }
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process telemetry epoch (first call).
///
/// All spans and samples share this clock, so timestamps from different
/// workers interleave correctly in the exported timeline.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_is_refcounted() {
        // Note: other tests in this binary may hold references; work with
        // deltas rather than absolute state.
        let base = enabled();
        enable();
        enable();
        assert!(enabled());
        disable();
        assert!(enabled());
        disable();
        assert_eq!(enabled(), base);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
