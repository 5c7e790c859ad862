//! Failure injection: tasks that panic mid-computation.
//!
//! The runtime's contract is *abort-on-panic propagation*: a panicking
//! task unwinds through `fork` (joining its sibling first under real
//! threads, so no thread is leaked) and out of `Runtime::run`. These
//! tests pin that contract down — and check that a panic does not poison
//! the process: a fresh runtime afterwards works normally, and under the
//! sequential executor even the *same* store stays structurally sound
//! enough to inspect.

use std::sync::atomic::{AtomicUsize, Ordering};

use mpl_runtime::{Runtime, RuntimeConfig, Value};

mod common;
use common::quietly;

#[test]
fn panic_in_left_branch_propagates() {
    let rt = Runtime::new(RuntimeConfig::managed());
    let out = quietly(|| {
        rt.run(|m| {
            m.fork(
                |_| panic!("injected failure (left)"),
                |m| m.alloc_ref(Value::Int(1)),
            );
            Value::Unit
        })
    });
    assert!(out.is_err(), "the injected panic must escape Runtime::run");
}

#[test]
fn panic_in_right_branch_propagates() {
    let rt = Runtime::new(RuntimeConfig::managed());
    let out = quietly(|| {
        rt.run(|m| {
            m.fork(
                |m| m.alloc_ref(Value::Int(1)),
                |_| panic!("injected failure (right)"),
            );
            Value::Unit
        })
    });
    assert!(out.is_err());
}

#[test]
fn panic_deep_in_a_fork_tree_propagates() {
    fn tree(m: &mut mpl_runtime::Mutator<'_>, depth: u32, poison: u32) -> Value {
        if depth == 0 {
            if poison == 0 {
                panic!("injected failure (leaf)");
            }
            return m.alloc_ref(Value::Int(i64::from(poison)));
        }
        let (l, _r) = m.fork(
            |m| tree(m, depth - 1, poison.wrapping_sub(1)),
            |m| tree(m, depth - 1, poison.wrapping_sub(2)),
        );
        l
    }
    let rt = Runtime::new(RuntimeConfig::managed());
    let out = quietly(|| rt.run(|m| tree(m, 4, 7)));
    assert!(out.is_err());
}

#[test]
fn panic_under_real_threads_joins_the_sibling_first() {
    // The panicking branch runs on the spawning thread; the sibling runs
    // on a scoped thread. The scope guarantees the sibling completes (or
    // unwinds) before the panic escapes — this test asserts the sibling's
    // side effect is visible even though the program as a whole dies.
    static SIBLING_RAN: AtomicUsize = AtomicUsize::new(0);
    SIBLING_RAN.store(0, Ordering::SeqCst);
    let rt = Runtime::new(RuntimeConfig::managed().with_threads(2));
    let out = quietly(|| {
        rt.run(|m| {
            m.fork(
                |m| {
                    // Real work so the sibling is still running when the
                    // right branch panics.
                    let mut v = Value::Int(0);
                    for i in 0..1000 {
                        v = m.alloc_ref(Value::Int(i));
                    }
                    SIBLING_RAN.store(1, Ordering::SeqCst);
                    v
                },
                |_| panic!("injected failure (threaded)"),
            );
            Value::Unit
        })
    });
    assert!(out.is_err());
    assert_eq!(
        SIBLING_RAN.load(Ordering::SeqCst),
        1,
        "scoped spawn must join the sibling before unwinding"
    );
}

#[test]
fn fresh_runtime_after_a_panic_works_normally() {
    let rt = Runtime::new(RuntimeConfig::managed());
    let _ = quietly(|| {
        rt.run(|m| {
            m.fork(|_| panic!("injected"), |m| m.alloc_ref(Value::Int(1)));
            Value::Unit
        })
    });
    // The process is not poisoned: a new runtime computes correctly.
    let rt2 = Runtime::new(RuntimeConfig::managed());
    let v = rt2.run(|m| {
        let (a, b) = m.fork(|_| Value::Int(20), |_| Value::Int(22));
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(x + y),
            _ => unreachable!(),
        }
    });
    assert_eq!(v, Value::Int(42));
    rt2.assert_heap_sound();
}

#[test]
fn sequential_store_remains_inspectable_after_a_panic() {
    // After an unwound run, inspection and statistics must not crash,
    // and accounting must stay consistent (no negative counters,
    // live <= allocated). Unwinding joins merge the panicking task's
    // heaps into the root heap and the end-of-run reclaim collects it,
    // so nothing the run allocated outlives it.
    let rt = Runtime::new(RuntimeConfig::managed());
    let _ = quietly(|| {
        rt.run(|m| {
            let shared = m.alloc_array(2, Value::Unit);
            let hs = m.root(shared);
            m.fork(
                |m| {
                    let cell = m.alloc_ref(Value::Int(9));
                    let arr = m.get(&hs);
                    m.arr_set(arr, 0, cell);
                    Value::Unit
                },
                |m| {
                    let arr = m.get(&hs);
                    let v = m.arr_get(arr, 0);
                    let _ = m.read_ref(v); // pins (entangled)
                    panic!("injected after pinning");
                },
            );
            Value::Unit
        })
    });
    let stats = rt.stats();
    assert!(stats.live_bytes <= stats.alloc_bytes as usize);
    let report = rt.heap_report();
    assert_eq!(
        report.blocks_live, 0,
        "the unwound run's heap was fully reclaimed"
    );
    // Unwinding released the pin.
    rt.assert_heap_sound();
    // The entangled read did pin before the panic (cumulative counter).
    assert!(stats.pins >= 1);
}

#[test]
fn pool_survives_a_task_panic_and_accepts_new_runs() {
    // Regression: a panic unwinding through the persistent work-stealing
    // pool must not leave any worker permanently parked or wedge the
    // driver slot. The *same* runtime (same pool) must accept further
    // `run` calls and still execute forks in parallel.
    let rt = Runtime::new(RuntimeConfig::managed().with_threads(4));
    for round in 0..3 {
        let out = quietly(|| {
            rt.run(|m| {
                m.fork(
                    |m| {
                        let mut v = Value::Int(0);
                        for i in 0..500 {
                            v = m.alloc_ref(Value::Int(i));
                        }
                        v
                    },
                    |_| panic!("injected (pool round)"),
                );
                Value::Unit
            })
        });
        assert!(out.is_err(), "round {round}: the panic must escape");
        // The pool is immediately reusable: a real fork tree completes
        // and produces the right answer.
        let v = rt.run(|m| {
            fn sum(m: &mut mpl_runtime::Mutator<'_>, depth: u32) -> i64 {
                if depth == 0 {
                    return 1;
                }
                let (a, b) = m.fork(
                    |m| Value::Int(sum(m, depth - 1)),
                    |m| Value::Int(sum(m, depth - 1)),
                );
                match (a, b) {
                    (Value::Int(x), Value::Int(y)) => x + y,
                    _ => unreachable!(),
                }
            }
            Value::Int(sum(m, 5))
        });
        assert_eq!(v, Value::Int(32), "round {round}: pool must still compute");
    }
    // And a *fresh* runtime (new pool) also works.
    let rt2 = Runtime::new(RuntimeConfig::managed().with_threads(4));
    let v = rt2.run(|m| {
        let (a, b) = m.fork(|_| Value::Int(20), |_| Value::Int(22));
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(x + y),
            _ => unreachable!(),
        }
    });
    assert_eq!(v, Value::Int(42));
}
