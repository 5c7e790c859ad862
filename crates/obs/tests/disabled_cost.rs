//! Disabled-telemetry cost assertions, mirroring the disabled-mode test
//! of `mpl-heap`'s `events` module: with no enabler active, every
//! emission site must be a semantic no-op (nothing recorded, no clock
//! read observable through `span_start`), and the gate itself must be
//! cheap. Lives in its own integration-test binary so no other test's
//! `enable()` refcount can leak in.

use std::time::Instant;

use mpl_obs::{
    enabled, gc_pause, gc_phase, histogram, metric_snapshots, record_duration, snapshot_spans,
    span_close, span_start, timer, Metric,
};

#[test]
fn disabled_telemetry_records_nothing_and_is_cheap() {
    assert!(
        !enabled(),
        "this test binary must start with telemetry disabled"
    );

    // Semantic no-ops: histograms stay empty, spans stay unrecorded.
    let before = metric_snapshots();
    record_duration(Metric::LgcPause, 123);
    record_duration(Metric::BarrierSlow, 456);
    {
        let _t = timer(Metric::BarrierSlow);
    }
    assert_eq!(
        span_start(),
        None,
        "span_start must not observe a clock when disabled"
    );
    span_close(Metric::SchedRun, None);
    // A GC section still times itself (its length feeds always-on pause
    // counters) but records no span and no histogram.
    drop(gc_phase(Metric::LgcShield));
    let _ = gc_pause(Metric::LgcPause).close();
    assert_eq!(metric_snapshots(), before);
    assert!(snapshot_spans().is_empty());
    assert_eq!(histogram(Metric::LgcPause).snapshot().count, 0);

    // Cost: the gate is one relaxed load + branch. 10M disabled emissions
    // must complete in far under a second even on a loaded CI host (the
    // bound is deliberately generous — the point is catching an accidental
    // syscall/clock read on the disabled path, which would be ~100x this).
    const N: u64 = 10_000_000;
    let t0 = Instant::now();
    for i in 0..N {
        record_duration(Metric::SchedRun, i);
        span_close(Metric::SchedRun, None);
    }
    let elapsed = t0.elapsed();
    assert_eq!(histogram(Metric::SchedRun).snapshot().count, 0);
    assert!(
        elapsed.as_millis() < 2_000,
        "disabled emission cost regressed: {N} iterations took {elapsed:?}"
    );
}
