//! GC phase-boundary audits and the entanglement-event ring buffer.
//!
//! Two halves, both off by default and together costing one predicted
//! branch per event site when disabled:
//!
//! 1. **Phase audits** — [`audit`] runs the heap checker
//!    ([`mod@crate::check`]) at the end of each collector phase (LGC
//!    shield/evacuate/reclaim, CGC sweep, graveyard reap); the phase
//!    decides which rules run. This module owns only what surrounds the
//!    checker: enablement, counters, the event dump and the failure path.
//! 2. **Event tracing** — switches on the per-worker event rings of
//!    [`mpl_heap::events`]. On any audit failure (or the collector's own
//!    corruption assertions) the failing store's events are dumped in
//!    global sequence order, so a failing run prints the exact
//!    pin/unpin/dead-mark interleaving that led to the bug — and none of
//!    the other runtimes' events that share the process-global rings.
//!
//! Enablement is either the `MPL_DEBUG_LGC_VALIDATE` environment
//! variable (read once) or the refcounted programmatic switch
//! ([`enable`]/[`disable`]) behind `RuntimeConfig::with_audit` —
//! refcounted because the parallel test harness composes runtimes.
//! Counters ([`counters`]) are process-global and overlaid onto
//! `StatsSnapshot` by the runtime, mirroring the scheduler counters.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use mpl_heap::events::{self, EventKind};
use mpl_heap::Store;

use crate::check::{check, Phase};

static AUDITS: AtomicU64 = AtomicU64::new(0);
pub(crate) static OBJECTS_CHECKED: AtomicU64 = AtomicU64::new(0);
static FAILURES: AtomicU64 = AtomicU64::new(0);

/// Programmatic enablement refcount (see [`enable`]).
static FORCED: AtomicUsize = AtomicUsize::new(0);

/// Records a task-boundary marker in the calling worker's event ring.
/// The scheduler calls this from its job-finish hook; the markers let a
/// ring dump show which task interleavings surrounded a failure. A
/// no-op (one relaxed load) unless tracing is active.
pub fn note_job_boundary(index: usize) {
    events::emit(
        events::NO_STORE,
        EventKind::TaskBoundary,
        0,
        0,
        index as u32,
    );
}

fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        let on = std::env::var_os("MPL_DEBUG_LGC_VALIDATE").is_some();
        if on {
            events::set_tracing(true);
        }
        on
    })
}

/// Whether audits and event tracing are currently active.
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed) > 0 || env_enabled()
}

/// Programmatically enables auditing (refcounted; every [`enable`] needs
/// a matching [`disable`]). Used by `RuntimeConfig::with_audit`.
pub fn enable() {
    events::set_tracing(true);
    FORCED.fetch_add(1, Ordering::AcqRel);
}

/// Releases one programmatic enablement. When the count reaches zero and
/// the environment flag is unset, event emission stops.
pub fn disable() {
    if FORCED.fetch_sub(1, Ordering::AcqRel) == 1 && !env_enabled() {
        events::set_tracing(false);
    }
}

/// Process-global audit counters (overlaid onto `StatsSnapshot`).
#[derive(Clone, Copy, Debug, Default)]
pub struct AuditCounters {
    /// Phase-boundary audits executed.
    pub audits_run: u64,
    /// Objects the heap checker visited.
    pub objects_checked: u64,
    /// Events recorded into the rings.
    pub events_recorded: u64,
    /// Ring-buffer overwrites (history lost to wraparound).
    pub ring_overflows: u64,
    /// Audits that found at least one issue.
    pub failures: u64,
}

/// Snapshot of the process-global audit counters. The event counts are
/// the event rings' own (spans and flight records share the sequence
/// numbers but not these counts).
pub fn counters() -> AuditCounters {
    let (events_recorded, ring_overflows) = events::recorded();
    AuditCounters {
        audits_run: AUDITS.load(Ordering::Relaxed),
        objects_checked: OBJECTS_CHECKED.load(Ordering::Relaxed),
        events_recorded,
        ring_overflows,
        failures: FAILURES.load(Ordering::Relaxed),
    }
}

/// Dumps the recorded events of the store with serial `store` — every
/// store's, with `None` — to stderr in global sequence order and returns
/// how many were printed. Safe to call at any time (a slot being written
/// right now is left out); the collectors call it before dying on a
/// corruption assertion.
pub fn dump_events(store: Option<u32>) -> usize {
    let all: Vec<_> = events::snapshot()
        .into_iter()
        .filter(|e| store.is_none_or(|s| e.store == s))
        .collect();
    if all.is_empty() {
        return 0;
    }
    let whose = store.map_or_else(|| "all stores".to_string(), |s| format!("store s{s}"));
    eprintln!(
        "=== mpl-gc event trace ({whose}: {} events, {} lost to ring wraparound) ===",
        all.len(),
        events::recorded().1
    );
    for e in &all {
        let (seq, ring, name) = (e.seq, e.ring, e.kind.name());
        let (store, block, word, aux) = (e.store, e.block, e.word, e.aux);
        eprintln!("[seq {seq:08} ring {ring:02}] s{store} {name:<14} b{block}w{word} aux={aux}");
    }
    eprintln!("=== end event trace ===");
    all.len()
}

/// Runs the heap checker at `phase` ([`check()`]). No-op unless
/// auditing is [`enabled`]; any issue dumps the store's events and
/// panics.
pub fn audit(store: &Store, phase: Phase<'_>) {
    if !enabled() {
        return;
    }
    AUDITS.fetch_add(1, Ordering::Relaxed);
    let issues = check(store, phase);
    if !issues.is_empty() {
        audit_failure(store, phase, &issues);
    }
}

fn audit_failure(store: &Store, phase: Phase<'_>, issues: &[String]) -> ! {
    FAILURES.fetch_add(1, Ordering::Relaxed);
    dump_events(Some(store.serial()));
    // Post-mortem: an audit failure is exactly what the flight recorder
    // exists for — dump the recent-telemetry ring next to the event trace.
    let heap = match phase {
        Phase::LgcShield(s) | Phase::LgcEvacuate(s) | Phase::LgcReclaim(s) => s.heap,
        _ => 0,
    };
    mpl_obs::flight_record(
        mpl_obs::FlightKind::Event,
        mpl_obs::EV_AUDIT_FAILURE,
        issues.len() as u64,
        u64::from(heap),
    );
    if let Some(path) = mpl_obs::dump_flight("audit-failure") {
        eprintln!("flight recorder dumped to {}", path.display());
    }
    panic!(
        "GC phase audit failed at {phase:?} (store s{}), {} issue(s):\n{}",
        store.serial(),
        issues.len(),
        issues.join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_record_and_dump_in_order() {
        enable();
        let before = counters().events_recorded;
        // Serials this high are no store's in this binary.
        let (mine, other) = (0xFF_FFF0, 0xFF_FFF1);
        events::emit(mine, events::EventKind::Pin, 1, 2, 3);
        events::emit(mine, events::EventKind::DeadMark, 4, 5, events::DEAD_BY_LGC);
        events::emit(other, events::EventKind::Pin, 1, 2, 3);
        let after = counters().events_recorded;
        assert!(after >= before + 3, "{before} -> {after}");
        assert!(dump_events(None) >= 3);
        assert_eq!(dump_events(Some(mine)), 2, "one store's events only");
        // Spans draw from the same global sequence but are not events:
        // closing one leaves the count alone. (Other tests in this binary
        // may emit concurrently, so look for one quiet attempt.)
        mpl_obs::enable();
        let quiet = (0..100).any(|_| {
            let before = counters().events_recorded;
            mpl_obs::span_close(mpl_obs::Metric::SchedRun, mpl_obs::span_start());
            counters().events_recorded == before
        });
        mpl_obs::disable();
        assert!(quiet, "closing a span moved events_recorded every time");
        disable();
    }
}
