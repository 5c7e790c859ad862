//! The collection debt belongs to the heap, not to the task. A heap's
//! debt record (`DebtRecord`: the bytes allocated or charged to it since
//! its last local collection, what that collection kept, and the
//! survivors its budget is based on) is continued by every task that runs
//! in the heap — an un-stolen right branch continues its left sibling's,
//! a session request the previous request's — and a join charges its
//! children's debt and what their collections kept to the parent's debt,
//! once. A collection is due at `max(trigger, 2 × survivors)` of debt, so
//! copying stays linear in allocation on the suite's programs, and
//! survivors that die after their collection are still collected. All at
//! one worker, where every run is deterministic.

use std::sync::Mutex;

use mpl_runtime::{DebtRecord, GcPolicy, Mutator, Runtime, RuntimeConfig, Value};

/// The local-collection trigger of the small-heap runtimes below.
const TRIGGER: usize = 64 * 1024;

/// Bytes of an object header.
const HEADER: usize = 16;

/// Bytes of one 2-tuple: a header and two fields.
const TUPLE: usize = HEADER + 16;

fn runtime() -> Runtime {
    Runtime::new(RuntimeConfig {
        policy: GcPolicy {
            lgc_trigger_bytes: TRIGGER,
            ..GcPolicy::default()
        },
        ..RuntimeConfig::managed()
    })
}

fn lgc_runs(m: &mut Mutator<'_>) -> u64 {
    m.sync_stats();
    m.runtime().stats().lgc_runs
}

/// Allocates `bytes` of garbage 2-tuples.
fn churn(m: &mut Mutator<'_>, bytes: usize) {
    for i in 0..bytes / TUPLE {
        m.alloc_tuple(&[Value::Int(i as i64), Value::Unit]);
    }
}

/// A list of `cells` 2-tuples: `cells × TUPLE` bytes that survive a
/// collection while the list is rooted.
fn list(m: &mut Mutator<'_>, cells: usize) -> Value {
    let mark = m.mark();
    let first = m.alloc_tuple(&[Value::Int(0), Value::Unit]);
    let head = m.root(first);
    for i in 1..cells {
        let cell = m.alloc_tuple(&[Value::Int(i as i64), m.get(&head)]);
        m.set_root(&head, cell);
    }
    let l = m.get(&head);
    m.release(mark);
    l
}

/// Allocates garbage 2-tuples until a local collection runs, and returns
/// the bytes that took.
fn bytes_until_a_collection(m: &mut Mutator<'_>) -> usize {
    let before = lgc_runs(m);
    let mut bytes = 0;
    while lgc_runs(m) == before {
        m.alloc_tuple(&[Value::Int(0), Value::Unit]);
        bytes += TUPLE;
        assert!(bytes <= 64 * TRIGGER, "no collection after {bytes} bytes");
    }
    bytes
}

/// Runs suite program `name` at size `n` on a default one-worker runtime
/// and checks that local collections copy at most twice what it allocates.
fn copying_is_linear(name: &str, n: usize) {
    let b = mpl_bench_suite::by_name(name).expect("a suite program");
    let rt = Runtime::new(RuntimeConfig::managed());
    let sum = rt.run(|m| Value::Int(b.run_mpl(m, n)));
    assert_eq!(sum, Value::Int(b.run_native(n)), "{name}: checksum");
    let s = rt.stats();
    assert!(s.lgc_runs > 0, "{name}: {s:?}");
    assert!(
        s.lgc_copied_bytes <= 2 * s.alloc_bytes,
        "{name}: {} bytes copied for {} allocated",
        s.lgc_copied_bytes,
        s.alloc_bytes
    );
    rt.assert_heap_sound();
}

/// `conc_stack` at the `entangled` benchmark workload's size (seed 13):
/// every push forks down to a 2048-element grain, and the whole stack
/// survives every collection.
#[test]
fn conc_stack_copies_linearly() {
    copying_is_linear("conc_stack", 80_560);
}

/// `msqueue` at the `entangled` benchmark workload's size (seed 13).
#[test]
fn msqueue_copies_linearly() {
    copying_is_linear("msqueue", 60_540);
}

/// The left branch keeps `S` = 1.5 × trigger across a collection, so its
/// heap's budget is 2S, then makes some garbage. The un-stolen right
/// branch runs in the same heap and continues that record: its first
/// collection comes when the shared debt reaches 2S, not after a trigger's
/// worth of its own allocation.
#[test]
fn an_unstolen_right_branch_continues_its_siblings_debt() {
    const KEPT: usize = 3 * TRIGGER / 2;
    const GARBAGE: usize = TRIGGER / 2;
    let rt = runtime();
    let left_exit = Mutex::new(None);
    rt.run(|m| {
        let (kept, own) = m.fork(
            |m| {
                let mut roots = [list(m, KEPT / TUPLE)];
                m.force_lgc(&mut roots);
                let after = m.collection_debt();
                assert_eq!(
                    after,
                    DebtRecord {
                        debt: 0,
                        kept: KEPT,
                        survivors: KEPT
                    }
                );
                churn(m, GARBAGE);
                *left_exit.lock().unwrap() = Some(m.collection_debt());
                roots[0]
            },
            |m| {
                let entry = m.collection_debt();
                let left = left_exit
                    .lock()
                    .unwrap()
                    .expect("the left branch ran first");
                assert_eq!(entry, left, "the right branch continues the shared record");
                assert_eq!(entry.debt, GARBAGE);
                Value::Int(bytes_until_a_collection(m) as i64)
            },
        );
        let own = own.expect_int() as usize;
        assert!(
            own > 2 * KEPT - GARBAGE - TUPLE && own <= 2 * KEPT - GARBAGE,
            "the right branch collected after {own} bytes of its own"
        );
        assert!(own > TRIGGER, "not the trigger of a fresh task");
        // The left's list survived the right's collection.
        let mut cells = 0;
        let mut cur = kept;
        while let Value::Obj(_) = cur {
            cells += 1;
            cur = m.tuple_get(cur, 1);
        }
        assert_eq!(cells, KEPT / TUPLE);
        Value::Unit
    });
    rt.assert_heap_sound();
}

/// A grandchild that collected and kept `S` = 1.5 × trigger. The join
/// directly above that collection charges S to its debt and raises its
/// survivors to S, so it does not collect the data again; the join above
/// that carries the charge up as debt and does not charge S a second
/// time. The root's next collection comes at twice S of debt.
#[test]
fn a_join_charges_survivors_once() {
    const KEPT: usize = 3 * TRIGGER / 2;
    let rt = runtime();
    rt.run(|m| {
        let before = m.collection_debt();
        assert_eq!(before, DebtRecord::default(), "a fresh run's root heap");
        let runs_in_grandchild = Mutex::new(0);
        let above_the_collection = Mutex::new(None);
        let (kept, _) = m.fork(
            |m| {
                let (kept, _) = m.fork(
                    |m| {
                        let mut roots = [list(m, KEPT / TUPLE)];
                        m.force_lgc(&mut roots);
                        *runs_in_grandchild.lock().unwrap() = lgc_runs(m);
                        roots[0]
                    },
                    |_| Value::Unit,
                );
                *above_the_collection.lock().unwrap() = Some(m.collection_debt());
                kept
            },
            |_| Value::Unit,
        );
        let charged = DebtRecord {
            debt: KEPT,
            kept: 0,
            survivors: KEPT,
        };
        let above = above_the_collection.lock().unwrap().expect("the child ran");
        assert_eq!(above, charged, "the join above the collection charges it");
        assert_eq!(m.collection_debt(), charged, "the next join does not");
        let runs = *runs_in_grandchild.lock().unwrap();
        assert_eq!(lgc_runs(m), runs, "a join collected the kept data again");
        let mark = m.mark();
        m.root(kept);
        let own = bytes_until_a_collection(m);
        assert!(own > KEPT - TUPLE && own <= KEPT, "{own}");
        m.release(mark);
        Value::Unit
    });
    rt.assert_heap_sound();
}

/// A fork whose left branch builds a list of 1.5 × trigger, collects with
/// it rooted and drops it.
fn keep_and_drop(m: &mut Mutator<'_>) {
    m.fork(
        |m| {
            let mut roots = [list(m, 3 * TRIGGER / 2 / TUPLE)];
            m.force_lgc(&mut roots);
            Value::Unit
        },
        |_| Value::Unit,
    );
}

/// A root loop of `keep_and_drop` forks. What each child's collection
/// kept is dead by the next fork; since every join charges it to the
/// root's debt, the root collects it, and the live peak stays within a
/// few triggers however many children run.
#[test]
fn survivors_that_die_after_their_join_are_collected() {
    fn peak_after(children: usize) -> usize {
        let rt = runtime();
        rt.run(|m| {
            for _ in 0..children {
                keep_and_drop(m);
            }
            Value::Unit
        });
        rt.assert_heap_sound();
        rt.stats().max_live_bytes
    }
    let few = peak_after(8);
    let many = peak_after(64);
    assert!(many <= 4 * TRIGGER, "{many} live bytes at the peak");
    assert_eq!(few, many, "the peak grew with the number of children");
}

/// The same over a session's requests, one `keep_and_drop` fork each: a
/// request continues the root heap's budget as one long task would, so
/// the survivors of past requests do not raise it.
#[test]
fn survivors_that_die_with_their_request_are_collected() {
    fn peak_after(requests: usize) -> usize {
        let rt = runtime();
        let session = rt.new_tenant("t", 0);
        for _ in 0..requests {
            rt.run_session(&session, |m| {
                keep_and_drop(m);
                Value::Unit
            });
        }
        rt.retire_session(&session);
        rt.stats().max_live_bytes
    }
    let few = peak_after(8);
    let many = peak_after(64);
    assert!(many <= 4 * TRIGGER, "{many} live bytes at the peak");
    assert_eq!(few, many, "the peak grew with the number of requests");
}

/// A raw array of twice the trigger that trips a collection is allocated
/// after it: it is counted as kept by that collection, so the budget
/// grows with it and a join above charges it.
#[test]
fn the_allocation_that_trips_a_collection_is_kept_by_it() {
    const WORDS: usize = 2 * TRIGGER / 8;
    let rt = runtime();
    rt.run(|m| {
        churn(m, TRIGGER - TUPLE);
        let before = lgc_runs(m);
        let big = m.alloc_raw(WORDS);
        assert_eq!(lgc_runs(m), before + 1, "the array tripped a collection");
        let array = HEADER + 8 * WORDS;
        let expected = DebtRecord {
            debt: 0,
            kept: array,
            survivors: array,
        };
        assert_eq!(m.collection_debt(), expected);
        let mark = m.mark();
        m.root(big);
        let own = bytes_until_a_collection(m);
        assert!(own > 2 * array - TUPLE && own <= 2 * array, "{own}");
        m.release(mark);
        Value::Unit
    });
    rt.assert_heap_sound();
}

/// A root loop of forks whose left branch makes a trigger of garbage and
/// then a dead raw array of twice the trigger, which trips the branch's
/// collection. Each join charges the array, so the root collects them.
#[test]
fn arrays_that_trip_a_childs_collection_are_collected_above_it() {
    fn peak_after(children: usize) -> usize {
        let rt = runtime();
        rt.run(|m| {
            for _ in 0..children {
                m.fork(
                    |m| {
                        churn(m, TRIGGER - TUPLE);
                        m.alloc_raw(2 * TRIGGER / 8);
                        Value::Unit
                    },
                    |_| Value::Unit,
                );
            }
            Value::Unit
        });
        rt.assert_heap_sound();
        rt.stats().max_live_bytes
    }
    let few = peak_after(8);
    let many = peak_after(64);
    assert!(many <= 8 * TRIGGER, "{many} live bytes at the peak");
    assert_eq!(few, many, "the peak grew with the number of children");
}

/// Every leaf of a 2^k-leaf fork tree makes a quarter trigger of garbage
/// and collects nothing itself: the joins carry the debt up and collect
/// the merged heaps, so the garbage never piles up.
#[test]
fn garbage_made_in_children_is_collected() {
    const LEVELS: u32 = 8;
    fn tree(m: &mut Mutator<'_>, depth: u32) -> Value {
        if depth == 0 {
            churn(m, TRIGGER / 4);
        } else {
            m.fork(move |m| tree(m, depth - 1), move |m| tree(m, depth - 1));
        }
        Value::Unit
    }
    let rt = runtime();
    rt.run(|m| tree(m, LEVELS));
    let s = rt.stats();
    let made = (1 << LEVELS) * (TRIGGER / 4);
    assert!(
        s.lgc_runs as usize >= made / TRIGGER,
        "{} collections for {made} bytes of garbage",
        s.lgc_runs
    );
    assert!(
        s.max_live_bytes <= 2 * TRIGGER,
        "{} live bytes at the peak",
        s.max_live_bytes
    );
    assert_eq!(
        s.blocks_allocated, s.blocks_freed,
        "the run's heap died with it"
    );
    rt.assert_heap_sound();
}

/// A session's root heap carries its debt from request to request: a
/// hundred requests of a tenth of a trigger of garbage each add up to
/// about ten triggers, and each trigger's worth collects.
#[test]
fn a_sessions_debt_carries_across_requests() {
    let rt = runtime();
    let session = rt.new_tenant("t", 0);
    for _ in 0..100 {
        rt.run_session(&session, |m| {
            churn(m, TRIGGER / 10);
            Value::Unit
        });
    }
    let s = rt.stats();
    assert!(s.lgc_runs >= 9, "{} collections", s.lgc_runs);
    rt.retire_session(&session);
}
