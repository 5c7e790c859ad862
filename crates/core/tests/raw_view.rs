//! Raw-array views (`Mutator::with_raw`): a view resolves its array once
//! and then reads and writes the array's current copy; it is checked to
//! be a raw array in every build; and it charges the same work as the
//! `raw_get`/`raw_set` loop it replaces. That the closure cannot reach
//! the mutator is the `compile_fail` example on `Mutator::with_raw`.

use mpl_runtime::{GcPolicy, Mutator, Runtime, RuntimeConfig, Value};

/// A local collection runs whenever 4 KiB were allocated.
fn small_trigger(cfg: RuntimeConfig) -> RuntimeConfig {
    RuntimeConfig {
        policy: GcPolicy {
            lgc_trigger_bytes: 4096,
            cgc_trigger_pinned_bytes: usize::MAX,
        },
        ..cfg
    }
}

/// Allocates `n` two-field tuples nothing keeps.
fn churn(m: &mut Mutator<'_>, n: usize) {
    for i in 0..n {
        m.alloc_tuple(&[Value::Int(i as i64), Value::Unit]);
    }
}

#[test]
fn a_view_after_a_collection_reads_and_writes_the_moved_copy() {
    let rt = Runtime::new(small_trigger(RuntimeConfig::managed()));
    rt.run(|m| {
        let arr = m.alloc_raw(64);
        for i in 0..64 {
            m.raw_set(arr, i, 1000 + i as u64);
        }
        let h = m.root(arr);
        let before = m.get(&h);
        churn(m, 1024);
        let arr = m.get(&h);
        assert_ne!(arr, before, "the collections moved the array");
        let sum = m.with_raw([arr], |[a]| {
            let sum: u64 = (0..a.len()).map(|i| a.get(i)).sum();
            a.set(5, 7);
            sum
        });
        assert_eq!(sum, (0..64).map(|i| 1000 + i).sum::<u64>());
        assert_eq!(m.raw_get(arr, 5), 7, "the write landed in the current copy");
        Value::Unit
    });
    assert!(rt.stats().lgc_runs > 0);
    rt.assert_heap_sound();
}

#[test]
fn stolen_branches_write_disjoint_halves_through_views() {
    const N: usize = 4096;
    const CHUNK: usize = 64;
    let rt = Runtime::new(small_trigger(
        RuntimeConfig::managed().with_threads_exact(2),
    ));
    let sum = rt.run(|m| {
        let arr = m.alloc_raw(N);
        let h = m.root(arr);
        // Each chunk allocates first, so the branch's own collections run
        // between its views of the parent's array.
        let half = |m: &mut Mutator<'_>, lo: usize, hi: usize| {
            for c in (lo..hi).step_by(CHUNK) {
                churn(m, 16);
                let a = m.get(&h);
                m.with_raw([a], |[a]| {
                    for i in c..c + CHUNK {
                        a.set(i, 3 * i as u64 + 1);
                    }
                });
            }
            Value::Unit
        };
        m.fork_stolen(|m| half(m, 0, N / 2), |m| half(m, N / 2, N));
        let a = m.get(&h);
        Value::Int(m.with_raw([a], |[a]| (0..N).map(|i| a.get(i)).sum::<u64>()) as i64)
    });
    let expect: u64 = (0..N as u64).map(|i| 3 * i + 1).sum();
    assert_eq!(sum, Value::Int(expect as i64));
    assert!(rt.sched_stats().steals >= 1, "the right branch was stolen");
    assert!(rt.stats().lgc_runs > 0, "the branches collected");
    assert_eq!(
        rt.stats().pins,
        0,
        "writes into an ancestor's array do not entangle"
    );
    rt.assert_heap_sound();
}

#[test]
#[should_panic(expected = "raw view of a Tuple, not a raw array")]
fn a_view_of_a_tuple_panics_in_every_build() {
    let rt = Runtime::new(RuntimeConfig::managed());
    rt.run(|m| {
        let t = m.alloc_tuple(&[Value::Int(1), Value::Int(2)]);
        m.with_raw([t], |[v]| v.get(0));
        Value::Unit
    });
}

/// Writes the prefix sums of `a` into `b` and sums `b`, through
/// views or through single accesses.
fn prefix_loop(m: &mut Mutator<'_>, through_views: bool) -> i64 {
    let a = m.alloc_raw(200);
    let ha = m.root(a);
    let b = m.alloc_raw(200);
    let a = m.get(&ha);
    let total = if through_views {
        m.with_raw([a, b], |[a, b]| {
            for i in 0..a.len() {
                a.set(i, i as u64 % 7);
            }
            let mut acc = 0;
            for i in 0..a.len() {
                acc += a.get(i);
                b.set(i, acc);
            }
            (0..b.len()).map(|i| b.get(i)).sum::<u64>()
        })
    } else {
        for i in 0..200 {
            m.raw_set(a, i, i as u64 % 7);
        }
        let mut acc = 0;
        for i in 0..200 {
            acc += m.raw_get(a, i);
            m.raw_set(b, i, acc);
        }
        (0..200).map(|i| m.raw_get(b, i)).sum::<u64>()
    };
    total as i64
}

#[test]
fn a_view_loop_does_the_work_of_the_accessor_loop() {
    let run = |through_views| {
        let rt = Runtime::new(RuntimeConfig::managed().with_dag());
        let v = rt.run(|m| Value::Int(prefix_loop(m, through_views)));
        (v, rt.take_dag().unwrap().total_work(), rt.stats().allocs)
    };
    let (views, accessors) = (run(true), run(false));
    assert_eq!(views, accessors);
    assert!(views.1 >= 800, "every access is charged: {}", views.1);
}
