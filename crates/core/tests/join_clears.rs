//! A down-pointer makes its source slow only until the join that merges
//! the pointer's target heap into the source's: from then on both ends
//! are in one heap, the remembered-set entry is dropped, and reads of the
//! source are back on the fast tier. A cross-pointer (into a heap off the
//! source's path) keeps its source slow for life.

use std::sync::atomic::{AtomicBool, Ordering};

use mpl_runtime::{Mutator, Runtime, RuntimeConfig, Value};
use mpl_serve::workload::{self, Profile};
use mpl_serve::RequestKind;

fn runtime(threads: usize) -> Runtime {
    Runtime::new(RuntimeConfig::managed().with_threads_exact(threads))
}

/// Whether reads of the object `v` take the barrier's slow tier.
fn slow(m: &Mutator<'_>, v: Value) -> bool {
    m.runtime()
        .store()
        .resolved_handle(v.expect_obj())
        .is_slow()
}

/// Slow-tier reads so far, this task's included.
fn slow_reads(m: &mut Mutator<'_>) -> u64 {
    m.sync_stats();
    m.runtime().stats().barrier_read_slow
}

/// Slow-tier reads `n` reads of the ref cell `cell` take.
fn reads_of(m: &mut Mutator<'_>, cell: Value, n: usize) -> u64 {
    let before = slow_reads(m);
    for _ in 0..n {
        let y = m.read_ref(cell);
        assert_eq!(m.tuple_get(y, 0), Value::Int(7));
    }
    slow_reads(m) - before
}

/// One worker: the root's cell receives a pointer into the fork's branch
/// heap, so its ten reads inside the fork take the slow tier; the join
/// merges that heap into the root's and ends the mark, so the ten after
/// it take none.
#[test]
fn a_down_pointer_holder_is_fast_after_its_join() {
    let rt = runtime(1);
    let out = rt.run(|m| {
        let cell = m.alloc_ref(Value::Unit);
        let cell = m.root(cell);
        let inner = cell.clone();
        let (inside, _) = m.fork(
            move |m| {
                let y = m.alloc_tuple(&[Value::Int(7)]);
                let c = m.get(&inner);
                m.write_ref(c, y);
                assert!(slow(m, c), "a down-pointer source");
                Value::Int(reads_of(m, c, 10) as i64)
            },
            |_| Value::Unit,
        );
        let c = m.get(&cell);
        assert!(!slow(m, c), "the join made the pointer internal");
        let after = reads_of(m, c, 10);
        Value::Int(inside.expect_int() * 100 + after as i64)
    });
    assert_eq!(out, Value::Int(10 * 100), "10 slow reads inside, 0 after");
    rt.assert_heap_sound();
}

/// One worker, two levels: the pointer written at depth 2 leads from the
/// root heap, so the inner join (into depth 1) leaves the cell slow and
/// the outer one (into the root) ends the mark.
#[test]
fn a_holder_in_an_ancestor_clears_at_the_outer_join() {
    let rt = runtime(1);
    let out = rt.run(|m| {
        let cell = m.alloc_ref(Value::Unit);
        let cell = m.root(cell);
        let inner = cell.clone();
        let (between, _) = m.fork(
            move |m| {
                let deepest = inner.clone();
                m.fork(
                    move |m| {
                        let y = m.alloc_tuple(&[Value::Int(7)]);
                        let c = m.get(&deepest);
                        m.write_ref(c, y);
                        Value::Unit
                    },
                    |_| Value::Unit,
                );
                let c = m.get(&inner);
                assert!(slow(m, c), "the inner join leaves the root's cell slow");
                Value::Int(reads_of(m, c, 10) as i64)
            },
            |_| Value::Unit,
        );
        let c = m.get(&cell);
        assert!(!slow(m, c), "the outer join made the pointer internal");
        let after = reads_of(m, c, 10);
        Value::Int(between.expect_int() * 100 + after as i64)
    });
    assert_eq!(out, Value::Int(10 * 100), "10 slow reads between, 0 after");
    rt.assert_heap_sound();
}

/// Two workers, a forced steal: the stolen branch stores its sibling's
/// array `x` into its own array `h` (a cross-pointer: `x`'s heap is off
/// `h`'s path), then forks, and the inner branch stores a fresh tuple in
/// `h` (a down-pointer). The inner join ends the down mark; the cross
/// mark keeps `h` slow there, and after the outer join at the heaps' LCA,
/// for life. Every read of `h` takes the slow tier: ten of each field.
#[test]
fn a_cross_pointer_holder_stays_slow_after_every_join() {
    let rt = runtime(2);
    let published = AtomicBool::new(false);
    let out = rt.run(|m| {
        let shared = m.alloc_ref(Value::Unit);
        let shared = m.root(shared);
        let (ls, rs) = (shared.clone(), shared);
        let published = &published;
        let (_, h) = m.fork_stolen(
            move |m| {
                let x = m.alloc_array(1, Value::Int(5));
                let s = m.get(&ls);
                m.write_ref(s, x);
                published.store(true, Ordering::SeqCst);
                Value::Unit
            },
            move |m| {
                while !published.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                let s = m.get(&rs);
                let x = m.read_ref(s); // entangled: pins the sibling's array
                let h = m.alloc_array(2, Value::Unit);
                let h = m.root(h);
                let hv = m.get(&h);
                m.arr_set(hv, 0, x);
                let inner = h.clone();
                m.fork(
                    move |m| {
                        let z = m.alloc_tuple(&[Value::Int(3)]);
                        let hv = m.get(&inner);
                        m.arr_set(hv, 1, z);
                        Value::Unit
                    },
                    |_| Value::Unit,
                );
                let hv = m.get(&h);
                assert!(slow(m, hv), "the inner join ends `down`, not `cross`");
                let before = slow_reads(m);
                for _ in 0..10 {
                    let x = m.arr_get(hv, 0);
                    assert_eq!(m.arr_get(x, 0), Value::Int(5));
                    let z = m.arr_get(hv, 1);
                    assert_eq!(m.tuple_get(z, 0), Value::Int(3));
                }
                // (An immediate read out of a slow object is fast.)
                assert_eq!(slow_reads(m) - before, 20);
                hv
            },
        );
        assert!(slow(m, h), "cross is for life, past the LCA's join");
        let before = slow_reads(m);
        for _ in 0..10 {
            m.arr_get(h, 0);
            m.arr_get(h, 1);
        }
        Value::Int((slow_reads(m) - before) as i64)
    });
    assert_eq!(out, Value::Int(20));
    rt.assert_heap_sound();
}

/// The serving shape: a session's insert writes fresh payloads into the
/// cache its root heap holds, from the request's branch heaps. Its join
/// makes those pointers internal, so the next read and scan requests read
/// the cache on the fast tier and never need a heap of their own.
#[test]
fn a_read_request_after_an_insert_issues_no_heap() {
    let rt = runtime(1);
    let session = rt.new_tenant("tenant", 0);
    let mut st = None;
    rt.run_session(&session, |m| {
        st = Some(workload::init_session(m, 64));
        Value::Unit
    });
    let st = st.expect("session state");
    let request = |kind| {
        rt.run_session(&session, |m| {
            workload::run_request(m, &st, kind, 1, Profile::Disentangled)
        })
    };
    let counts = || (rt.store().heaps().len(), rt.stats().barrier_read_slow);
    let before = counts();
    request(RequestKind::Insert);
    let inserted = counts();
    assert_eq!(
        inserted.0 - before.0,
        1,
        "the insert's branches share a heap"
    );
    request(RequestKind::Read);
    request(RequestKind::Scan);
    assert_eq!(counts(), inserted, "no heap node, no slow-tier read");
    rt.assert_heap_sound();
}
