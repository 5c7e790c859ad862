//! The GC phase clock (`mpl_obs::gc_phase` / `gc_pause`): one clock read
//! at entry times a collector section for the stall watchdog's open-phase
//! slot, the pause counters and, under telemetry, the span and histogram.
//!
//! Telemetry, the failpoint registry, the open-phase slot and the span
//! rings are process-global, so the tests take turns.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mpl_obs::{Metric, SpanRecord};
use mpl_runtime::{FailAction, FailPlan, FailWhen, Runtime, RuntimeConfig, Value};

static LOCK: Mutex<()> = Mutex::new(());

/// Forces one local collection of the root heap, holding a short list.
/// Returns what it added to `lgc_runs` and to `lgc_pause_ns_total`, and
/// the newest pause span once it has ended.
fn forced_lgc(rt: &Runtime) -> (u64, u64, Option<SpanRecord>) {
    let mut out = (0, 0, None);
    rt.run(|m| {
        let mut roots = [m.alloc_tuple(&[Value::Int(1), Value::Unit])];
        roots[0] = m.alloc_tuple(&[Value::Int(2), roots[0]]);
        m.sync_stats();
        let before = m.runtime().stats();
        m.force_lgc(&mut roots);
        m.sync_stats();
        let after = m.runtime().stats();
        let span = mpl_obs::snapshot_spans()
            .into_iter()
            .filter(|s| s.kind == Metric::LgcPause)
            .max_by_key(|s| s.seq);
        out = (
            after.lgc_runs - before.lgc_runs,
            after.lgc_pause_ns_total - before.lgc_pause_ns_total,
            span,
        );
        Value::Unit
    });
    out
}

/// Raises its flag when dropped, so a watcher stops even if the test
/// panics first.
struct Stop<'a>(&'a AtomicBool);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A stalled phase is visible from another thread, under its metric, with
/// an age that grows; when the collection ends, nothing is open.
#[test]
fn a_stalled_phase_is_open_and_ageing_until_it_ends() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = FailPlan::new(1).with(
        "lgc/evacuate",
        FailAction::Delay(200_000_000),
        FailWhen::Nth(1),
    );
    let rt = Runtime::new(RuntimeConfig::managed().with_failpoints(plan));
    let done = AtomicBool::new(false);
    let ages = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut ages = Vec::new();
            while !done.load(Ordering::SeqCst) {
                match mpl_obs::open_phase() {
                    Some((Metric::LgcEvacuate, age)) => ages.push(age),
                    // The stalled phase has ended.
                    _ if !ages.is_empty() => break,
                    _ => {}
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            ages
        });
        let stop = Stop(&done);
        let (runs, _, _) = forced_lgc(&rt);
        drop(stop);
        assert_eq!(runs, 1, "one forced collection");
        watcher.join().unwrap()
    });
    assert!(
        ages.len() >= 2,
        "the stalled phase was seen {} times",
        ages.len()
    );
    assert!(
        ages.windows(2).all(|w| w[0] < w[1]),
        "the open phase's age grows: {ages:?}"
    );
    assert!(
        *ages.last().unwrap() >= 100_000_000,
        "the 200 ms stall shows: {ages:?}"
    );
    assert_eq!(mpl_obs::open_phase(), None, "nothing open after the run");
}

/// Under telemetry a pause's span and its pause counter read one clock:
/// the newest `LgcPause` span lasts exactly what the forced collection
/// added to `lgc_pause_ns_total`.
#[test]
fn a_pause_span_lasts_what_the_pause_counter_gained() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let rt = Runtime::new(RuntimeConfig::managed().with_telemetry());
    let (runs, gained, span) = forced_lgc(&rt);
    assert_eq!(runs, 1, "one forced collection");
    let span = span.expect("the forced collection left a pause span");
    assert!(gained > 0);
    assert_eq!(span.end_ns - span.start_ns, gained);
}
