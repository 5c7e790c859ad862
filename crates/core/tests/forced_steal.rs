//! `Mutator::fork_stolen` ends its wait however the right branch fares:
//! a right branch that unwinds on the thief before its body runs still
//! releases the waiting left branch, and a cancellation unwinds a left
//! branch whose right branch no worker is free to steal. Either case
//! hung when the left branch waited, without polling, on a flag the
//! right branch's body raised.
//!
//! Failpoint plans are process-wide, so the tests here take turns.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use mpl_runtime::{FailAction, FailPlan, FailWhen, RunError, Runtime, RuntimeConfig, Value};

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn forced_steal_survives_a_right_branch_failing_at_entry() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The first stolen branch to begin panics at its entry failpoint,
    // before its entry poll and its body.
    let plan = FailPlan::new(0).with("sched/migrated", FailAction::Panic, FailWhen::Nth(1));
    let rt = Runtime::new(
        RuntimeConfig::managed()
            .with_threads_exact(2)
            .with_failpoints(plan),
    );
    let got = rt.try_run(|m| {
        let (l, _) = m.fork_stolen(
            |m| m.alloc_tuple(&[Value::Int(1)]),
            |_| unreachable!("the right branch fails at entry"),
        );
        l
    });
    match got {
        Err(RunError::Panic(msg)) => assert!(msg.contains("sched/migrated"), "{msg}"),
        other => panic!("the injected fault must surface: {other:?}"),
    }
    rt.assert_heap_sound();
    // The runtime is whole afterwards: a second forced steal completes.
    let v = rt.run(|m| {
        let (a, b) = m.fork_stolen(|_| Value::Int(20), |_| Value::Int(22));
        Value::Int(a.expect_int() + b.expect_int())
    });
    assert_eq!(v, Value::Int(42));
    assert!(rt.sched_stats().steals >= 2);
    rt.assert_heap_sound();
}

#[test]
fn forced_steal_wait_ends_on_cancellation() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
    let t0 = Instant::now();
    let got = rt.try_run_deadline(Duration::from_millis(100), |m| {
        // The outer right branch occupies the second worker, allocating
        // (and so polling) until the deadline, so no worker is free to
        // steal the inner right branch: the inner left branch waits for
        // a steal that cannot come until the deadline trips.
        m.fork_stolen(
            |m| {
                m.fork_stolen(|_| Value::Unit, |_| Value::Unit);
                Value::Unit
            },
            |m| loop {
                m.alloc_tuple(&[Value::Int(0)]);
            },
        );
        Value::Unit
    });
    assert!(
        matches!(got, Err(RunError::Cancelled(_))),
        "the deadline must end the wait: {got:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "ended by the deadline, not by the steal wait's limit: {:?}",
        t0.elapsed()
    );
    rt.assert_heap_sound();
}
