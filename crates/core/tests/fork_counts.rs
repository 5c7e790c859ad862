//! Heap nodes a fork issues: none until a branch needs its heap. A task
//! gets one at its first store-path refill, slow-tier barrier, allocation
//! barrier or local collection, after its ancestors, so the counts below
//! follow from which branches allocate or write, at one and at two
//! workers; an un-stolen right branch runs in its left sibling's heap and
//! issues none of its own. A join collects the heap its children merged into whenever
//! the merged bytes make its collection due, at either count.

use mpl_runtime::{GcPolicy, Mutator, Runtime, RuntimeConfig, Value};

fn runtime(threads: usize) -> Runtime {
    Runtime::new(RuntimeConfig::managed().with_threads_exact(threads))
}

/// Heap ids issued so far, merged heaps included.
fn nodes(m: &Mutator<'_>) -> usize {
    m.runtime().store().heaps().len()
}

/// Runs `body` as a program and returns the heap nodes it issued, leaving
/// out the run's own root heap.
fn issued(rt: &Runtime, body: impl FnOnce(&mut Mutator<'_>)) -> usize {
    let n = rt.run(|m| {
        let before = nodes(m);
        body(m);
        Value::Int((nodes(m) - before) as i64)
    });
    match n {
        Value::Int(n) => n as usize,
        other => panic!("not a count: {other:?}"),
    }
}

/// A balanced fork tree of `depth` levels whose tasks do nothing else.
fn empty_tree(m: &mut Mutator<'_>, depth: u32) -> Value {
    if depth > 0 {
        m.fork(
            move |m| empty_tree(m, depth - 1),
            move |m| empty_tree(m, depth - 1),
        );
    }
    Value::Unit
}

/// A left spine of `depth` forks whose deepest task allocates one tuple;
/// every right sibling returns at once.
fn spine(m: &mut Mutator<'_>, depth: u32) -> Value {
    if depth == 0 {
        return m.alloc_tuple(&[Value::Int(1)]);
    }
    m.fork(move |m| spine(m, depth - 1), |_| Value::Unit).0
}

fn an_empty_fork_tree_issues_no_heap(threads: usize) {
    let rt = runtime(threads);
    let n = issued(&rt, |m| {
        empty_tree(m, 12);
    });
    assert_eq!(n, 0, "{threads} workers");
    rt.assert_heap_sound();
}

fn an_allocating_leaf_issues_one_heap_per_level(threads: usize) {
    let rt = runtime(threads);
    for depth in [1, 2, 5, 9] {
        let n = issued(&rt, |m| {
            assert!(matches!(spine(m, depth), Value::Obj(_)));
        });
        assert_eq!(n, depth as usize, "{threads} workers, depth {depth}");
    }
    rt.assert_heap_sound();
}

/// A branch storing a root-heap pointer into a root-heap cell: its own
/// heap is empty, so the store is not provably leaf-local and takes the
/// slow tier once (as with a fresh, empty child heap), which gives the
/// branch its heap. Nothing is remembered, pinned or entangled.
fn an_up_pointer_store_takes_the_slow_tier_once(threads: usize) {
    let rt = runtime(threads);
    let mut slow = 0;
    let n = issued(&rt, |m| {
        let cell = m.alloc_ref(Value::Unit);
        let cell = m.root(cell);
        let tuple = m.alloc_tuple(&[Value::Int(7)]);
        let tuple = m.root(tuple);
        m.sync_stats();
        let before = m.runtime().stats();
        m.fork(
            |m| {
                let (c, t) = (m.get(&cell), m.get(&tuple));
                m.write_ref(c, t);
                Value::Unit
            },
            |_| Value::Unit,
        );
        let after = m.runtime().stats();
        slow = after.barrier_write_slow - before.barrier_write_slow;
        assert_eq!(after.barrier_writes - before.barrier_writes, 1);
        assert_eq!(after.remset_inserts, before.remset_inserts);
        assert_eq!(after.entangled_writes, before.entangled_writes);
        assert_eq!(after.pins, before.pins);
    });
    assert_eq!(slow, 1, "{threads} workers");
    assert_eq!(n, 1, "{threads} workers: the writing branch's heap");
    rt.assert_heap_sound();
}

/// A fork whose two branches both allocate: un-stolen, the right branch
/// runs after the left one, in its heap, so the fork issues one heap;
/// stolen (forced, or by chance at two workers), the right branch runs
/// beside the left one in a heap of its own: two.
fn both_allocating_branches(threads: usize, force_steal: bool) {
    let rt = runtime(threads);
    let steals0 = rt.sched_stats().steals;
    let n = issued(&rt, |m| {
        let alloc = |m: &mut Mutator<'_>| m.alloc_tuple(&[Value::Int(1)]);
        let (l, r) = if force_steal {
            m.fork_stolen(alloc, alloc)
        } else {
            m.fork(alloc, alloc)
        };
        assert!(matches!((l, r), (Value::Obj(_), Value::Obj(_))));
    });
    let stolen = rt.sched_stats().steals > steals0;
    assert!(stolen || !force_steal, "a forced steal steals");
    assert_eq!(
        n,
        1 + usize::from(stolen),
        "{threads} workers, stolen: {stolen}"
    );
    rt.assert_heap_sound();
}

#[test]
fn one_worker_both_allocating_branches_share_one_heap() {
    both_allocating_branches(1, false);
}

#[test]
fn two_workers_both_allocating_branches_share_one_heap_unless_stolen() {
    both_allocating_branches(2, false);
}

#[test]
fn two_workers_forced_steal_issues_a_heap_per_branch() {
    both_allocating_branches(2, true);
}

/// The local-collection trigger of [`a_join_collects_its_merged_heap`].
const TRIGGER: usize = 16 * 1024;

/// Allocates `n` garbage 2-tuples (32 bytes each).
fn churn(m: &mut Mutator<'_>, n: i64) -> Value {
    for i in 0..n {
        m.alloc_tuple(&[Value::Int(i), Value::Unit]);
    }
    Value::Unit
}

/// A depth-1 task whose two branches each allocate three quarters of the
/// trigger — neither collects — joins and returns without allocating:
/// the merged bytes make its collection due, so the join runs it.
fn a_join_collects_its_merged_heap(threads: usize) {
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
    let each = (TRIGGER * 3 / 4 / 32) as i64;
    let runs = rt.run(|m| {
        let (runs, _) = m.fork(
            |m| {
                m.sync_stats();
                let before = m.runtime().stats();
                m.fork(|m| churn(m, each), |m| churn(m, each));
                m.sync_stats();
                let after = m.runtime().stats();
                assert!(after.alloc_bytes - before.alloc_bytes > TRIGGER as u64);
                Value::Int((after.lgc_runs - before.lgc_runs) as i64)
            },
            |_| Value::Unit,
        );
        runs
    });
    assert_eq!(runs, Value::Int(1), "{threads} workers");
    rt.assert_heap_sound();
}

#[test]
fn one_worker_join_collects_its_merged_heap() {
    a_join_collects_its_merged_heap(1);
}

#[test]
fn two_workers_join_collects_its_merged_heap() {
    a_join_collects_its_merged_heap(2);
}

#[test]
fn one_worker_empty_fork_tree_issues_no_heap() {
    an_empty_fork_tree_issues_no_heap(1);
}

#[test]
fn two_workers_empty_fork_tree_issues_no_heap() {
    an_empty_fork_tree_issues_no_heap(2);
}

#[test]
fn one_worker_allocating_leaf_issues_one_heap_per_level() {
    an_allocating_leaf_issues_one_heap_per_level(1);
}

#[test]
fn two_workers_allocating_leaf_issues_one_heap_per_level() {
    an_allocating_leaf_issues_one_heap_per_level(2);
}

#[test]
fn one_worker_up_pointer_store_takes_the_slow_tier_once() {
    an_up_pointer_store_takes_the_slow_tier_once(1);
}

#[test]
fn two_workers_up_pointer_store_takes_the_slow_tier_once() {
    an_up_pointer_store_takes_the_slow_tier_once(2);
}
