//! An un-stolen right branch runs after its left sibling, in its heap.
//! The left branch's result is rooted just below the right branch's
//! frame, yet lives in the heap the right branch allocates into and
//! collects: the right branch's frame takes that root in, so its
//! collections trace and move the result, and the join reads the result
//! back from the root rather than from the value the left branch
//! returned.

use mpl_runtime::{GcPolicy, Mutator, Runtime, RuntimeConfig, Value};

/// The local-collection trigger: the right branch's churn passes it many
/// times over.
const TRIGGER: usize = 4 * 1024;

/// Allocates `n` garbage 2-tuples (32 bytes each).
fn churn(m: &mut Mutator<'_>, n: i64) {
    for i in 0..n {
        m.alloc_tuple(&[Value::Int(i), Value::Unit]);
    }
}

/// The left branch returns a fresh tuple holding a fresh tuple; the right
/// branch allocates past the collection trigger. The fork's left result
/// must read back intact, and the heap must be sound after the run.
fn a_left_result_survives_the_right_branchs_collections(threads: usize) {
    let rt = Runtime::new(
        RuntimeConfig {
            policy: GcPolicy {
                lgc_trigger_bytes: TRIGGER,
                ..GcPolicy::default()
            },
            ..RuntimeConfig::managed()
        }
        .with_threads_exact(threads),
    );
    for round in 0..8 {
        let sum = rt.run(|m| {
            let (l, runs) = m.fork(
                |m| {
                    let inner = m.alloc_tuple(&[Value::Int(1)]);
                    m.alloc_tuple(&[Value::Int(41), inner])
                },
                |m| {
                    m.sync_stats();
                    let before = m.runtime().stats().lgc_runs;
                    churn(m, (4 * TRIGGER / 32) as i64);
                    m.sync_stats();
                    Value::Int((m.runtime().stats().lgc_runs - before) as i64)
                },
            );
            assert!(
                runs.expect_int() >= 1,
                "round {round}: the right branch collected"
            );
            let inner = m.tuple_get(l, 1);
            Value::Int(m.tuple_get(l, 0).expect_int() + m.tuple_get(inner, 0).expect_int())
        });
        assert_eq!(sum, Value::Int(42), "{threads} workers, round {round}");
        rt.assert_heap_sound();
    }
}

#[test]
fn one_worker_left_result_survives_the_right_branchs_collections() {
    a_left_result_survives_the_right_branchs_collections(1);
}

#[test]
fn two_workers_left_result_survives_the_right_branchs_collections() {
    a_left_result_survives_the_right_branchs_collections(2);
}
