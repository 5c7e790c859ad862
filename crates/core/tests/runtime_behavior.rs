//! Behavioral tests for the entanglement-managed runtime: barriers,
//! pinning, unpin-at-join, collector interaction, modes, and executors.

use std::sync::atomic::{AtomicBool, Ordering};

use mpl_runtime::{
    GcPolicy, Mutator, ObjRef, Runtime, RuntimeConfig, SimParams, StoreConfig, Value,
};

fn tiny_gc() -> GcPolicy {
    GcPolicy {
        lgc_trigger_bytes: 2048,
        cgc_trigger_pinned_bytes: usize::MAX,
    }
}

#[test]
fn arithmetic_through_heap() {
    let rt = Runtime::new(RuntimeConfig::managed());
    let v = rt.run(|m| {
        let a = m.alloc_ref(Value::Int(40));
        let x = m.read_ref(a).expect_int();
        m.write_ref(a, Value::Int(x + 2));
        m.read_ref(a)
    });
    assert_eq!(v, Value::Int(42));
}

#[test]
fn fork_join_returns_both_results() {
    let rt = Runtime::new(RuntimeConfig::managed());
    let v = rt.run(|m| {
        let (a, b) = m.fork(|_| Value::Int(20), |_| Value::Int(22));
        Value::Int(a.expect_int() + b.expect_int())
    });
    assert_eq!(v, Value::Int(42));
}

fn fib(m: &mut mpl_runtime::Mutator<'_>, n: i64) -> Value {
    if n < 2 {
        return Value::Int(n);
    }
    let (a, b) = m.fork(move |m| fib(m, n - 1), move |m| fib(m, n - 2));
    Value::Int(a.expect_int() + b.expect_int())
}

#[test]
fn nested_forks_fib() {
    let rt = Runtime::new(RuntimeConfig::managed());
    assert_eq!(rt.run(|m| fib(m, 12)), Value::Int(144));
}

/// Spins until `flag` is set: a stolen branch waiting for its sibling's
/// write, which depth-first order would have made certain.
fn await_flag(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
}

/// The canonical entanglement scenario: a pre-fork mutable cell, one task
/// writes a fresh allocation into it, the sibling reads it. On a pool the
/// right branch is forced to migrate and waits for the write, so the
/// read reveals a remote object; with no pool it runs after the left one,
/// in the left one's heap, and the same read is local.
fn entangling_program(rt: &Runtime) -> Value {
    rt.run(|m| {
        let cell = m.alloc_ref(Value::Unit);
        let c = m.root(cell);
        let written = AtomicBool::new(false);
        let left = |m: &mut Mutator<'_>| {
            let boxed = m.alloc_tuple(&[Value::Int(7)]);
            m.write_ref(m.get(&c), boxed);
            written.store(true, Ordering::Release);
            Value::Unit
        };
        let right = |m: &mut Mutator<'_>| {
            await_flag(&written);
            let v = m.read_ref(m.get(&c));
            match v {
                Value::Obj(_) => m.tuple_get(v, 0),
                _ => Value::Int(-1),
            }
        };
        let (_, got) = m.fork_stolen(left, right);
        got
    })
}

#[test]
fn managed_mode_pins_and_unpins() {
    let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
    let got = entangling_program(&rt);
    assert_eq!(got, Value::Int(7));
    let s = rt.stats();
    assert!(s.entangled_reads >= 1, "entangled read must be counted");
    assert!(s.pins >= 1, "the remote object must have been pinned");
    assert!(s.unpins >= 1, "the join must unpin it");
    rt.assert_heap_sound();

    // Un-stolen, the sibling's object is local: nothing pins.
    let rt = Runtime::new(RuntimeConfig::managed());
    assert_eq!(entangling_program(&rt), Value::Int(7));
    let s = rt.stats();
    assert_eq!((s.entangled_reads, s.pins, s.unpins), (0, 0, 0), "{s:?}");
    rt.assert_heap_sound();
}

#[test]
fn detect_only_mode_aborts_on_entanglement() {
    let rt = Runtime::new(RuntimeConfig::detect_only().with_threads_exact(2));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| entangling_program(&rt)));
    let msg = *r.unwrap_err().downcast::<String>().unwrap();
    assert!(msg.contains("entanglement detected"), "got: {msg}");

    // Un-stolen there is no entanglement to detect.
    let rt = Runtime::new(RuntimeConfig::detect_only());
    assert_eq!(entangling_program(&rt), Value::Int(7));
}

#[test]
fn detect_only_is_fine_when_disentangled() {
    let rt = Runtime::new(RuntimeConfig::detect_only());
    assert_eq!(rt.run(|m| fib(m, 10)), Value::Int(55));
    assert_eq!(rt.stats().pins, 0);
}

#[test]
fn no_barrier_mode_skips_entanglement_bookkeeping() {
    let rt = Runtime::new(RuntimeConfig::no_barrier());
    assert_eq!(rt.run(|m| fib(m, 10)), Value::Int(55));
    let s = rt.stats();
    assert_eq!(s.barrier_reads, 0);
    assert_eq!(s.entangled_reads, 0);
    assert_eq!(s.pins, 0);
}

#[test]
fn disentangled_programs_never_pin() {
    // The "shielding" claim: purely functional (or locally effectful)
    // parallel code pays only the barrier check.
    let rt = Runtime::new(RuntimeConfig::managed());
    rt.run(|m| {
        let (a, b) = m.fork(
            |m| {
                // Local effects only: a cell allocated and used within one task.
                let r = m.alloc_ref(Value::Int(0));
                for i in 0..50 {
                    m.write_ref(r, Value::Int(i));
                }
                m.read_ref(r)
            },
            |m| {
                let arr = m.alloc_array(32, Value::Int(1));
                let mut acc = 0;
                for i in 0..32 {
                    acc += m.arr_get(arr, i).expect_int();
                }
                Value::Int(acc)
            },
        );
        Value::Int(a.expect_int() + b.expect_int())
    });
    let s = rt.stats();
    assert!(s.barrier_reads > 0, "barriers do run");
    assert_eq!(s.entangled_reads, 0);
    assert_eq!(s.pins, 0);
    assert_eq!(s.max_pinned_bytes, 0);
}

#[test]
fn lgc_triggers_and_preserves_data() {
    let cfg = RuntimeConfig {
        policy: tiny_gc(),
        store: StoreConfig {
            block_words: 64,
            ..Default::default()
        },
        ..RuntimeConfig::managed()
    };
    let rt = Runtime::new(cfg);
    let v = rt.run(|m| {
        // Build a long-lived list while churning garbage.
        let mut list = m.alloc_tuple(&[Value::Int(0), Value::Unit]);
        let h = m.root(list);
        for i in 1..500 {
            for _ in 0..4 {
                let _junk = m.alloc_tuple(&[Value::Int(i), Value::Int(i)]);
            }
            let prev = m.get(&h);
            list = m.alloc_tuple(&[Value::Int(i), prev]);
            m.set_root(&h, list);
        }
        // Sum the list.
        let mut cur = m.get(&h);
        let mut sum = 0i64;
        loop {
            sum += m.tuple_get(cur, 0).expect_int();
            match m.tuple_get(cur, 1) {
                Value::Unit => break,
                next => cur = next,
            }
        }
        Value::Int(sum)
    });
    assert_eq!(v, Value::Int((0..500).sum::<i64>()));
    let s = rt.stats();
    assert!(s.lgc_runs > 0, "LGC must have triggered: {s:?}");
    assert!(s.lgc_reclaimed_bytes > 0);
}

#[test]
fn cgc_reclaims_dropped_entangled_objects() {
    let cfg = RuntimeConfig {
        policy: GcPolicy {
            lgc_trigger_bytes: 1024,
            cgc_trigger_pinned_bytes: usize::MAX, // manual only
        },
        store: StoreConfig {
            block_words: 32,
            ..Default::default()
        },
        ..RuntimeConfig::managed()
    };
    for threads in [2, 1] {
        let rt = Runtime::new(cfg.with_threads_exact(threads));
        rt.run(|m| {
            let cell = m.alloc_ref(Value::Unit);
            let c = m.root(cell);
            let written = AtomicBool::new(false);
            let left = |m: &mut Mutator<'_>| {
                let boxed = m.alloc_tuple(&[Value::Int(1)]);
                m.write_ref(m.get(&c), boxed);
                written.store(true, Ordering::Release);
                // Force a local collection so the pinned object is
                // shielded in place in an entangled chunk.
                for _ in 0..300 {
                    let _ = m.alloc_tuple(&[Value::Int(0)]);
                }
                Value::Unit
            };
            let right = |m: &mut Mutator<'_>| {
                await_flag(&written);
                let _ = m.read_ref(m.get(&c));
                // Drop the entangled pointer.
                m.write_ref(m.get(&c), Value::Unit);
                Value::Unit
            };
            m.fork_stolen(left, right);
            Value::Unit
        });
        // After the run the object is unpinned (join) — force CGC to account.
        rt.force_cgc();
        let s = rt.stats();
        assert!(s.cgc_runs >= 1);
        if threads > 1 {
            assert!(s.pins >= 1, "{s:?}");
        } else {
            assert_eq!(s.pins, 0, "un-stolen, the read is local: {s:?}");
        }
        rt.assert_heap_sound();
    }
}

#[test]
fn handles_track_moving_objects() {
    let cfg = RuntimeConfig {
        policy: GcPolicy {
            lgc_trigger_bytes: 512,
            ..tiny_gc()
        },
        store: StoreConfig {
            block_words: 32,
            ..Default::default()
        },
        ..RuntimeConfig::managed()
    };
    let rt = Runtime::new(cfg);
    let v = rt.run(|m| {
        let obj = m.alloc_tuple(&[Value::Int(77)]);
        let h = m.root(obj);
        // Churn enough to force several collections.
        for _ in 0..2000 {
            let _ = m.alloc_tuple(&[Value::Int(0)]);
        }
        let cur = m.get(&h);
        m.tuple_get(cur, 0)
    });
    assert_eq!(v, Value::Int(77));
    assert!(rt.stats().lgc_runs >= 2);
}

#[test]
fn down_pointer_remset_keeps_child_data_alive() {
    let cfg = RuntimeConfig {
        policy: GcPolicy {
            lgc_trigger_bytes: 512,
            ..tiny_gc()
        },
        store: StoreConfig {
            block_words: 32,
            ..Default::default()
        },
        ..RuntimeConfig::managed()
    };
    let rt = Runtime::new(cfg);
    let v = rt.run(|m| {
        let cell = m.alloc_ref(Value::Unit);
        let c = m.root(cell);
        let (got, _) = m.fork(
            |m| {
                // Child writes its own allocation into the parent's cell
                // (a down-pointer), drops its direct reference, churns to
                // force its LGC, then reads back through the cell.
                let data = m.alloc_tuple(&[Value::Int(123)]);
                m.write_ref(m.get(&c), data);
                for _ in 0..2000 {
                    let _ = m.alloc_tuple(&[Value::Int(9)]);
                }
                let back = m.read_ref(m.get(&c));
                m.tuple_get(back, 0)
            },
            |_| Value::Unit,
        );
        got
    });
    assert_eq!(v, Value::Int(123));
    assert!(rt.stats().remset_inserts >= 1);
}

#[test]
fn raw_arrays_support_atomics() {
    let rt = Runtime::new(RuntimeConfig::managed());
    let v = rt.run(|m| {
        let a = m.alloc_raw(4);
        assert!(m.raw_cas(a, 0, 0, 5));
        assert!(!m.raw_cas(a, 0, 0, 9), "CAS must fail on mismatch");
        assert_eq!(m.raw_fetch_add(a, 0, 10), 5);
        m.raw_set(a, 1, u64::MAX);
        assert_eq!(m.raw_get(a, 1), u64::MAX);
        Value::Int(m.raw_get(a, 0) as i64)
    });
    assert_eq!(v, Value::Int(15));
}

#[test]
fn alloc_raw_is_zero_initialized() {
    let rt = Runtime::new(RuntimeConfig::managed());
    rt.run(|m| {
        for len in [1, 4, 64, 1000] {
            let a = m.alloc_raw(len);
            for i in 0..len {
                assert_eq!(
                    m.raw_get(a, i),
                    0,
                    "slot {i} of a fresh {len}-word raw array"
                );
            }
        }
        Value::Unit
    });
}

/// Every accessor resolves its object once, following forwarding: a
/// value captured before two local collections moved the object (so its
/// old copy forwards to a copy that forwards again) must read and update
/// the current copy. The accesses run in a branch whose stolen sibling
/// polls nothing until they are done, so the evacuated blocks stay
/// retired — the sibling has not acknowledged their epoch — and the old
/// copies stay readable.
#[test]
fn stale_values_reach_the_current_copy_through_every_accessor() {
    let cfg = RuntimeConfig::managed().with_threads_exact(2);
    let rt = Runtime::new(cfg);
    let (running, done) = (AtomicBool::new(false), AtomicBool::new(false));
    rt.run(|m| {
        let steals0 = m.runtime().sched_stats().steals;
        m.fork(
            |m| {
                await_steal(m.runtime(), steals0);
                while !running.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                accesses_through_stale_values(m);
                done.store(true, Ordering::SeqCst);
                Value::Unit
            },
            |_| {
                running.store(true, Ordering::SeqCst);
                while !done.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                Value::Unit
            },
        );
        Value::Unit
    });
    rt.assert_heap_sound();
}

fn accesses_through_stale_values(m: &mut mpl_runtime::Mutator<'_>) {
    let raw = m.alloc_raw(3);
    m.raw_set(raw, 1, 11);
    let tuple = m.alloc_tuple(&[Value::Int(7), Value::Int(8)]);
    let arr = m.alloc_array(4, Value::Int(0));
    let cell = m.alloc_ref(Value::Int(1));
    let s = m.alloc_str("moved twice");
    let stale = [raw, tuple, arr, cell, s];
    let handles: Vec<_> = stale.iter().map(|&v| m.root(v)).collect();
    m.force_lgc(&mut []);
    m.force_lgc(&mut []);
    assert!(m.runtime().retired_blocks() > 0, "the sibling holds them");
    let current: Vec<Value> = handles.iter().map(|h| m.get(h)).collect();
    for (old, new) in stale.iter().zip(&current) {
        assert_ne!(old, new, "the collections moved every object");
    }
    let [raw, tuple, arr, cell, s] = stale;

    assert_eq!(m.raw_get(raw, 1), 11);
    m.raw_set(raw, 2, 22);
    assert_eq!(m.raw_get(current[0], 2), 22);

    assert_eq!(m.tuple_get(tuple, 1), Value::Int(8));
    assert_eq!(m.len(tuple), 2);
    assert_eq!(m.len(arr), 4);

    m.arr_set(arr, 3, Value::Int(33));
    assert_eq!(m.arr_get(current[2], 3), Value::Int(33));
    assert_eq!(m.arr_get(arr, 3), Value::Int(33));

    assert_eq!(m.read_ref(cell), Value::Int(1));
    m.write_ref(cell, Value::Int(2));
    assert_eq!(m.read_ref(current[3]), Value::Int(2));
    assert_eq!(m.ref_cas(cell, Value::Int(2), Value::Int(3)), Ok(()));
    assert_eq!(
        m.ref_cas(cell, Value::Int(2), Value::Int(4)),
        Err(Value::Int(3))
    );
    assert_eq!(m.read_ref(current[3]), Value::Int(3));

    assert_eq!(m.read_str(s), "moved twice");
}

/// Five arrays larger than a block each get a block of their own, so two
/// of them share one of the block cache's four slots (ids mod 4): the
/// interleaved accesses below keep evicting each other and take the
/// cache-miss path. Every read is checked against a plain mirror.
#[test]
fn conflicting_cache_slots_resolve_correctly() {
    let rt = Runtime::new(RuntimeConfig::managed().with_policy(GcPolicy::disabled()));
    rt.run(|m| {
        let len = 2 * StoreConfig::default().block_words;
        let arrays: Vec<Value> = (0..5).map(|_| m.alloc_raw(len)).collect();
        let mut slots: Vec<u32> = arrays.iter().map(|a| a.expect_obj().block() & 3).collect();
        slots.sort_unstable();
        slots.dedup();
        assert!(slots.len() < arrays.len(), "pigeonhole: a shared slot");
        let mut mirror = vec![vec![0u64; len]; arrays.len()];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..20_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let (a, i) = ((x >> 33) as usize % arrays.len(), (x >> 13) as usize % len);
            if step % 3 == 0 {
                m.raw_set(arrays[a], i, step);
                mirror[a][i] = step;
            } else {
                assert_eq!(m.raw_get(arrays[a], i), mirror[a][i], "array {a}[{i}]");
            }
        }
        for (a, want) in arrays.iter().zip(&mirror) {
            for (i, &w) in want.iter().enumerate() {
                assert_eq!(m.raw_get(*a, i), w);
            }
        }
        Value::Unit
    });
}

#[test]
#[should_panic(expected = "expects an object")]
fn raw_access_to_an_immediate_panics() {
    let rt = Runtime::new(RuntimeConfig::managed());
    rt.run(|m| Value::Int(m.raw_get(Value::Int(3), 0) as i64));
}

/// A reference into a live block at an offset where no object was ever
/// published (here: the first object's forwarding word).
#[test]
#[should_panic(expected = "dangling reference")]
fn an_unpublished_offset_panics_as_dangling() {
    let rt = Runtime::new(RuntimeConfig::managed());
    rt.run(|m| {
        let t = m.alloc_tuple(&[Value::Int(1)]).expect_obj();
        let inside = Value::Obj(ObjRef::new(t.block(), t.word() + 1));
        m.tuple_get(inside, 0)
    });
}

#[test]
fn disentangled_work_takes_zero_slow_path_entries() {
    // The tier-split contract: non-suspect reads and immediate stores
    // complete on the fast tier every single time — no lock, no Arc
    // clone, no heap-table query.
    let rt = Runtime::new(RuntimeConfig::managed());
    rt.run(|m| {
        let cell = m.alloc_ref(Value::Int(0));
        let arr = m.alloc_array(16, Value::Int(1));
        for i in 0..200 {
            m.write_ref(cell, Value::Int(i)); // immediate store: fast
            let _ = m.read_ref(cell); // non-suspect read: fast
            m.arr_set(arr, (i as usize) % 16, Value::Int(i)); // immediate store: fast
            let _ = m.arr_get(arr, (i as usize) % 16); // non-suspect read: fast
        }
        Value::Unit
    });
    let s = rt.stats();
    assert_eq!(s.barrier_read_slow, 0, "disentangled reads never go slow");
    assert_eq!(s.barrier_write_slow, 0, "immediate stores never go slow");
    assert!(s.barrier_read_fast >= 400, "fast reads counted: {s:?}");
    assert!(s.barrier_write_fast >= 400, "fast writes counted: {s:?}");
}

#[test]
fn same_leaf_pointer_stores_are_predominantly_fast_tier() {
    // Pointer stores within one leaf heap take the chunk-owner fast exit
    // whenever the target's chunk is already in the task's cache; only
    // cache misses (fresh chunks) fall to the slow tier.
    let rt = Runtime::new(RuntimeConfig::managed());
    rt.run(|m| {
        let arr = m.alloc_array(16, Value::Unit);
        let mut boxed = m.alloc_tuple(&[Value::Int(0)]);
        for i in 0..200 {
            m.arr_set(arr, (i as usize) % 16, boxed);
            let b = m.arr_get(arr, (i as usize) % 16);
            let _ = m.tuple_get(b, 0);
            boxed = m.alloc_tuple(&[Value::Int(i)]);
        }
        Value::Unit
    });
    let s = rt.stats();
    assert!(
        s.barrier_write_fast > s.barrier_write_slow,
        "same-leaf pointer stores mostly fast: {s:?}"
    );
    assert_eq!(s.barrier_read_slow, 0, "reads all fast: {s:?}");
}

#[test]
fn entangling_program_counts_slow_path_tiers() {
    let rt = Runtime::new(RuntimeConfig::managed());
    entangling_program(&rt);
    let s = rt.stats();
    assert!(
        s.barrier_read_slow >= 1,
        "the entangled read must be slow-tier: {s:?}"
    );
    assert!(
        s.barrier_write_slow >= 1,
        "the down-pointer write must be slow-tier: {s:?}"
    );
}

#[test]
fn force_slow_path_disables_fast_tier() {
    let rt = Runtime::new(RuntimeConfig::managed().with_force_slow_path());
    let v = rt.run(|m| {
        let cell = m.alloc_ref(Value::Int(0));
        for i in 0..50 {
            m.write_ref(cell, Value::Int(i));
            let _ = m.read_ref(cell);
        }
        m.read_ref(cell)
    });
    assert_eq!(v, Value::Int(49));
    let s = rt.stats();
    assert_eq!(s.barrier_write_fast, 0, "no fast writes when forced slow");
    assert!(s.barrier_write_slow >= 50);
    assert!(s.barrier_read_slow >= 50);
}

/// `len` and `read_str` are accessors without an entanglement barrier,
/// but they are still reads: they must charge the work model like
/// `tuple_get`/`raw_get` so DAG-based speedup simulations see them.
#[test]
fn len_and_read_str_charge_work() {
    let work_of = |f: fn(&mut mpl_runtime::Mutator<'_>) -> Value| {
        let rt = Runtime::new(RuntimeConfig::managed().with_dag());
        rt.run(f);
        rt.take_dag().expect("dag recorded").total_work()
    };
    let base = work_of(|m| {
        let _ = m.alloc_str("hello world");
        Value::Unit
    });
    let with_len = work_of(|m| {
        let s = m.alloc_str("hello world");
        for _ in 0..10 {
            let _ = m.len(s);
        }
        Value::Unit
    });
    let with_read = work_of(|m| {
        let s = m.alloc_str("hello world");
        for _ in 0..10 {
            let _ = m.read_str(s);
        }
        Value::Unit
    });
    let read_cost = mpl_runtime::config::READ_WORK;
    assert!(
        with_len >= base + 10 * read_cost,
        "len must charge work: base={base}, with_len={with_len}"
    );
    assert!(
        with_read >= base + 10 * read_cost,
        "read_str must charge work: base={base}, with_read={with_read}"
    );
}

#[test]
fn strings_roundtrip() {
    let rt = Runtime::new(RuntimeConfig::managed());
    rt.run(|m| {
        for s in ["", "a", "hello world", "ünïcodé ✓", "12345678", "123456789"] {
            let v = m.alloc_str(s);
            assert_eq!(m.read_str(v), s);
        }
        Value::Unit
    });
}

#[test]
fn ref_cas_and_failure_value() {
    let rt = Runtime::new(RuntimeConfig::managed());
    rt.run(|m| {
        let r = m.alloc_ref(Value::Int(1));
        assert_eq!(m.ref_cas(r, Value::Int(1), Value::Int(2)), Ok(()));
        assert_eq!(
            m.ref_cas(r, Value::Int(1), Value::Int(3)),
            Err(Value::Int(2))
        );
        Value::Unit
    });
}

#[test]
fn dag_recording_enables_speedup_simulation() {
    let rt = Runtime::new(RuntimeConfig::managed().with_dag());
    rt.run(|m| fib(m, 14));
    let dag = rt.take_dag().expect("dag recorded");
    assert!(dag.total_work() > 0);
    assert!(dag.parallelism() > 2.0, "fib(14) is highly parallel");
    let t1 = mpl_runtime::simulate(
        &dag,
        SimParams {
            procs: 1,
            steal_overhead: 8,
            seed: 1,
        },
    );
    let t8 = mpl_runtime::simulate(
        &dag,
        SimParams {
            procs: 8,
            steal_overhead: 8,
            seed: 1,
        },
    );
    assert!(t8.time < t1.time, "simulated speedup exists");
    assert_eq!(t1.time, dag.total_work());
}

#[test]
fn threaded_executor_matches_sequential_result() {
    let rt = Runtime::new(RuntimeConfig::managed().with_threads(4));
    assert_eq!(rt.run(|m| fib(m, 13)), Value::Int(233));
}

#[test]
fn threaded_executor_handles_entanglement() {
    for _ in 0..10 {
        let rt = Runtime::new(RuntimeConfig::managed().with_threads(4));
        let v = rt.run(|m| {
            let cell = m.alloc_ref(Value::Unit);
            let c = m.root(cell);
            let (a, b) = m.fork(
                |m| {
                    let boxed = m.alloc_tuple(&[Value::Int(5)]);
                    m.write_ref(m.get(&c), boxed);
                    Value::Int(1)
                },
                |m| {
                    // Racy read: may or may not see the sibling's write.
                    match m.read_ref(m.get(&c)) {
                        Value::Obj(o) => m.tuple_get(Value::Obj(o), 0),
                        _ => Value::Int(5), // not yet written: same answer
                    }
                },
            );
            Value::Int(a.expect_int() + b.expect_int() - 1)
        });
        assert_eq!(v, Value::Int(5));
        rt.assert_heap_sound();
    }
}

#[test]
fn entanglement_level_respects_lca() {
    // Entangle across depth-2 subtrees and check pins survive the inner
    // join but not the outer one (via the pinned-bytes gauge). The outer
    // right branch is stolen: un-stolen, it would run in the heap its left
    // sibling's inner join merged into, and read locally.
    for threads in [2, 1] {
        let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(threads));
        rt.run(|m| {
            let cell = m.alloc_ref(Value::Unit);
            let c = m.root(cell);
            let written = AtomicBool::new(false);
            let left = |m: &mut Mutator<'_>| {
                // Left subtree forks again; the inner-left task publishes.
                let (x, _) = m.fork(
                    |m| {
                        let boxed = m.alloc_tuple(&[Value::Int(3)]);
                        m.write_ref(m.get(&c), boxed);
                        written.store(true, Ordering::Release);
                        Value::Unit
                    },
                    |_| Value::Unit,
                );
                x
            };
            let right = |m: &mut Mutator<'_>| {
                // Right task reads: entanglement level = 0 (root LCA).
                await_flag(&written);
                let v = m.read_ref(m.get(&c));
                assert!(matches!(v, Value::Obj(_)));
                let pinned_now = m.runtime().stats().pinned_bytes;
                if threads > 1 {
                    assert!(pinned_now > 0, "pin active while concurrent");
                } else {
                    assert_eq!(pinned_now, 0, "un-stolen, the read is local");
                }
                Value::Unit
            };
            m.fork_stolen(left, right);
            Value::Unit
        });
        rt.assert_heap_sound();
    }
}

#[test]
fn root_marks_release_in_bulk() {
    let rt = Runtime::new(RuntimeConfig::managed());
    rt.run(|m| {
        let mark = m.mark();
        for i in 0..10 {
            let v = m.alloc_tuple(&[Value::Int(i)]);
            m.root(v);
        }
        m.release(mark);
        let v = m.alloc_tuple(&[Value::Int(99)]);
        let h = m.root(v);
        let cur = m.get(&h);
        assert_eq!(m.tuple_get(cur, 0), Value::Int(99));
        Value::Unit
    });
}

/// Boundary conformance: a program that crosses every task boundary —
/// allocation poll points, both barrier slow tiers, fork suspension,
/// triggered local collections, pin-driven CGC safepoints, task finish —
/// run to completion and with each of the three unwind kinds raised
/// inside a forked branch, under the audit layer. Whatever happened, the
/// runtime must be left exactly as a fresh one: no open mutator
/// slot (root stack + SATB buffer, a stolen branch's result root with
/// them), no pin, no audit failure, and the next run computes the
/// fresh-runtime checksum. (Debug builds also assert inside
/// `suspend`/`collect_local`/`finish` that nothing buffered survives the
/// boundary, and in `fork` that the branches left the forker's root stack
/// as they found it.)
#[test]
fn task_boundaries_leave_nothing_behind() {
    use faults::*;
    use mpl_runtime::RunError;
    use std::time::Duration;

    /// On a pool the outer right branch is stolen and its inner left
    /// task waits for the cousin's publication, polling (allocating) so a
    /// cancellation still reaches it; with no pool it runs after the
    /// cousin, in the cousin's heap, and its read is local.
    fn program(m: &mut Mutator<'_>, fault: Fault) -> Value {
        let cell = m.alloc_ref(Value::Unit);
        let c = m.root(cell);
        let left = |m: &mut Mutator<'_>| {
            // A down-pointer into the parent's cell (buffered remset
            // entry), then churn through several local collections.
            let boxed = m.alloc_tuple(&[Value::Int(7)]);
            m.write_ref(m.get(&c), boxed);
            let mut acc = 0;
            for i in 0..200 {
                let t = m.alloc_tuple(&[Value::Int(i), Value::Unit]);
                acc += m.tuple_get(t, 0).expect_int();
            }
            Value::Int(acc)
        };
        let right = |m: &mut Mutator<'_>| {
            let (x, y) = m.fork(
                |m| {
                    while !matches!(m.read_ref(m.get(&c)), Value::Obj(_)) {
                        let _ = m.alloc_tuple(&[Value::Unit]);
                        std::thread::yield_now();
                    }
                    // Entangled read once stolen: a pin, hence a CGC
                    // request.
                    let seen = match m.read_ref(m.get(&c)) {
                        v @ Value::Obj(_) => m.tuple_get(v, 0).expect_int(),
                        _ => unreachable!(),
                    };
                    for _ in 0..200 {
                        let _ = m.alloc_tuple(&[Value::Int(0), Value::Unit]);
                    }
                    Value::Int(seen)
                },
                |m| {
                    fault(m);
                    Value::Int(1)
                },
            );
            Value::Int(x.expect_int() + y.expect_int())
        };
        let (a, b) = m.fork_stolen(left, right);
        Value::Int(a.expect_int() + b.expect_int())
    }

    fn assert_fresh(rt: &Runtime, after: &str) {
        assert_eq!(rt.live_root_stacks(), 0, "{after}: mutator slots");
        rt.assert_heap_sound();
    }

    for threads in [1, 3] {
        let cfg = RuntimeConfig {
            policy: GcPolicy {
                lgc_trigger_bytes: 2048,
                cgc_trigger_pinned_bytes: 1,
            },
            ..RuntimeConfig::managed()
        }
        .with_threads_exact(threads)
        .with_heap_limit(1 << 20)
        .with_audit();
        let expected = Runtime::new(cfg).run(|m| program(m, none));
        let audit_failures = mpl_gc::audit::counters().failures;

        let rt = Runtime::new(cfg);
        assert_eq!(rt.run(|m| program(m, none)), expected);
        assert_fresh(&rt, "clean run");
        let r = rt.try_run(|m| program(m, panics));
        assert!(
            matches!(&r, Err(RunError::Panic(msg)) if msg == "boom"),
            "{r:?}"
        );
        assert_fresh(&rt, "panic");
        let r = rt.try_run(|m| program(m, exhausts));
        assert!(matches!(r, Err(RunError::Alloc(_))), "{r:?}");
        assert_fresh(&rt, "alloc error");
        let r = rt.try_run_deadline(Duration::from_millis(20), |m| program(m, spins));
        assert!(matches!(r, Err(RunError::Cancelled(_))), "{r:?}");
        assert_fresh(&rt, "cancellation");
        assert_eq!(rt.run(|m| program(m, none)), expected, "run after unwinds");
        assert_fresh(&rt, "final run");

        let s = rt.stats();
        assert!(s.lgc_runs > 0 && s.remset_flushes > 0, "{s:?}");
        if threads == 1 {
            assert_eq!(s.pins, 0, "{s:?}");
        } else {
            // The forced steal and the wait make the entangled read certain.
            assert!(s.pins > 0 && s.cgc_runs > 0, "{s:?}");
        }
        assert_eq!(mpl_gc::audit::counters().failures, audit_failures);
        rt.assert_heap_sound();
    }
}

/// The three unwind kinds a task can end by, as bodies to drop into a
/// fork branch (under a 1 MiB heap limit and, for `spins`, a deadline).
mod faults {
    use mpl_runtime::{Mutator, Value};

    pub type Fault = fn(&mut Mutator<'_>);
    pub fn none(_: &mut Mutator<'_>) {}
    pub fn panics(_: &mut Mutator<'_>) {
        panic!("boom")
    }
    pub fn exhausts(m: &mut Mutator<'_>) {
        let _ = m.alloc_array(1 << 20, Value::Unit); // 8 MiB against a 1 MiB limit
    }
    pub fn spins(m: &mut Mutator<'_>) {
        loop {
            let _ = m.alloc_tuple(&[Value::Unit]); // until the deadline trips the poll
        }
    }
}

/// Spins until the pool reports a steal beyond `steals0`: called by the
/// left branch of a fork on a quiet pool, it returns once the right
/// branch — the only job there is — has migrated to another worker.
fn await_steal(rt: &Runtime, steals0: u64) {
    while rt.sched_stats().steals == steals0 {
        std::thread::yield_now();
    }
}

#[test]
fn a_sequential_run_registers_one_slot() {
    fn tree(m: &mut mpl_runtime::Mutator<'_>, depth: u32, slots_at_leaf: usize) -> Value {
        if depth == 0 {
            assert_eq!(m.runtime().live_root_stacks(), slots_at_leaf);
            return Value::Unit;
        }
        m.fork(
            move |m| tree(m, depth - 1, slots_at_leaf),
            move |m| tree(m, depth - 1, slots_at_leaf),
        );
        Value::Unit
    }
    let rt = Runtime::new(RuntimeConfig::managed());
    rt.run(|m| tree(m, 12, 1));
    assert_eq!(rt.live_root_stacks(), 0, "the run's slot closes with it");
    // A session's slot is its own; requests on it open nothing.
    let session = rt.new_tenant("t", 0);
    rt.run(|m| tree(m, 12, 2));
    rt.run_session(&session, |m| tree(m, 12, 1));
    assert_eq!(rt.live_root_stacks(), 1);
    rt.retire_session(&session);
    assert_eq!(rt.live_root_stacks(), 0);
}

#[test]
fn stolen_branches_register_and_withdraw_their_own_slot() {
    let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(4));
    let session = rt.new_tenant("t", 0);
    for round in 0..20 {
        for on_session in [false, true] {
            let body = |m: &mut mpl_runtime::Mutator<'_>| {
                let rt = m.runtime();
                let steals0 = rt.sched_stats().steals;
                let (_, seen) = m.fork(
                    |m| {
                        await_steal(m.runtime(), steals0);
                        m.alloc_tuple(&[Value::Int(1)]) // a result root to take back
                    },
                    |m| {
                        let seen = m.runtime().live_root_stacks();
                        // The thief's slot carries this result to the join.
                        let _ = m.alloc_tuple(&[Value::Int(2)]);
                        Value::Int(seen as i64)
                    },
                );
                seen
            };
            let seen = if on_session {
                rt.run_session(&session, body)
            } else {
                rt.run(body)
            };
            // The session's, the anonymous run's (if any), the thief's.
            let expect = if on_session { 2 } else { 3 };
            assert_eq!(seen, Value::Int(expect), "round {round}: inside the steal");
            assert_eq!(rt.live_root_stacks(), 1, "round {round}: after the join");
        }
    }
    let s = rt.sched_stats();
    assert!(s.steals >= 40, "{s:?}");
    assert_eq!(s.steals + s.sequentialized, s.pushes, "{s:?}");
    rt.retire_session(&session);
    assert_eq!(rt.live_root_stacks(), 0);
}

/// Between a branch's end and the join, nothing but the branch's result
/// root keeps a returned object alive once every heap reference to it is
/// gone — and if it sits pinned in the entangled space, a concurrent
/// collection in that window sweeps it. (An object can only get there
/// while its allocator still runs — its own LGC shields it — so the
/// sibling has to be concurrent: the right branch is stolen.)
#[test]
fn a_finished_branchs_result_stays_rooted_until_the_join() {
    let rt = Runtime::new(
        RuntimeConfig {
            policy: GcPolicy {
                cgc_trigger_pinned_bytes: 1, // any pin makes the next safepoint collect
                ..tiny_gc()
            },
            ..RuntimeConfig::managed()
        }
        .with_threads_exact(2),
    );
    let x = rt.run(|m| {
        let cell = m.alloc_ref(Value::Unit);
        let c = m.root(cell);
        let pinned = AtomicBool::new(false);
        let (x, _) = m.fork(
            |m| {
                let x = m.alloc_tuple(&[Value::Int(41)]);
                let hx = m.root(x);
                m.write_ref(m.get(&c), x);
                while !pinned.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                // X is pinned: this collection shields it in place, which
                // hands its lifetime to the concurrent collector.
                m.force_lgc(&mut []);
                m.get(&hx)
            },
            |m| {
                let rt = m.runtime();
                // Entangled read: pins X in the running sibling's heap.
                while !matches!(m.read_ref(m.get(&c)), Value::Obj(_)) {
                    std::thread::yield_now();
                }
                m.write_ref(m.get(&c), Value::Unit);
                let parks0 = rt.sched_stats().parks;
                pinned.store(true, Ordering::Release);
                // The only other worker is the forker: once it parks it
                // is waiting at the join, so the left branch has finished.
                while rt.sched_stats().parks == parks0 {
                    std::thread::yield_now();
                }
                // Allocation safepoints honour the pin's CGC request.
                let cgc0 = rt.stats().cgc_runs;
                for _ in 0..10_000 {
                    let _ = m.alloc_tuple(&[Value::Unit]);
                    if rt.stats().cgc_runs > cgc0 {
                        return Value::Unit;
                    }
                }
                panic!("no concurrent collection ran inside the branch");
            },
        );
        let obj = m.runtime().store().resolve(x.expect_obj());
        assert!(
            !m.runtime().store().handle(obj).header().is_dead(),
            "the result was swept between the branch's end and the join"
        );
        m.tuple_get(x, 0)
    });
    assert_eq!(x, Value::Int(41));
    let s = rt.stats();
    assert_eq!((s.cgc_swept_bytes, s.lgc_dead_traced), (0, 0), "{s:?}");
    assert!(
        rt.sched_stats().steals >= 1,
        "the right branch ran concurrently"
    );
    rt.assert_heap_sound();
}

/// Every way a branch can end pops its frame: after a panic, an
/// `AllocError` or a cancellation in either branch — run inline, or with
/// the right branch stolen — the forker's root stack is back at its
/// pre-fork height when the fork re-raises, and the session's stack holds
/// exactly what its requests' root tasks rooted.
#[test]
fn frames_are_popped_on_every_unwind() {
    use faults::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::time::Duration;

    fn litter(m: &mut mpl_runtime::Mutator<'_>) {
        for i in 0..5 {
            let junk = m.alloc_tuple(&[Value::Int(i)]);
            m.root(junk);
        }
    }

    for (threads, stolen) in [(1, false), (4, true)] {
        let rt = Runtime::new(
            RuntimeConfig::managed()
                .with_threads_exact(threads)
                .with_heap_limit(1 << 20),
        );
        let session = rt.new_tenant("t", 0);
        rt.run_session(&session, |m| {
            litter(m); // roots of an earlier request stay, by design
            Value::Unit
        });
        let mut expect_mark = None;
        for (fault, deadline) in [(panics as Fault, 60_000), (exhausts, 60_000), (spins, 20)] {
            for in_left in [true, false] {
                let tag = format!("threads {threads}, fault in left: {in_left}");
                let r =
                    rt.try_run_session_deadline(&session, Duration::from_millis(deadline), |m| {
                        if let Some(mark) = expect_mark {
                            assert_eq!(m.mark(), mark, "{tag}: carried roots");
                        }
                        let kept = m.alloc_tuple(&[Value::Int(7)]);
                        m.root(kept);
                        let pre_fork = m.mark();
                        expect_mark = Some(pre_fork);
                        let steals0 = m.runtime().sched_stats().steals;
                        let forked = catch_unwind(AssertUnwindSafe(|| {
                            m.fork(
                                |m| {
                                    litter(m);
                                    if stolen {
                                        await_steal(m.runtime(), steals0);
                                    }
                                    if in_left {
                                        fault(m);
                                    }
                                    m.alloc_tuple(&[Value::Unit])
                                },
                                |m| {
                                    litter(m);
                                    if !in_left {
                                        fault(m);
                                    }
                                    m.alloc_tuple(&[Value::Unit])
                                },
                            )
                        }));
                        assert_eq!(m.mark(), pre_fork, "{tag}: forker's stack");
                        match forked {
                            Ok(_) => unreachable!("{tag}: the fault must surface"),
                            Err(payload) => resume_unwind(payload),
                        }
                    });
                assert!(r.is_err(), "{tag}: {r:?}");
                assert_eq!(rt.live_root_stacks(), 1, "{tag}: only the session");
            }
        }
        rt.run_session(&session, |m| {
            assert_eq!(Some(m.mark()), expect_mark, "what the requests rooted");
            Value::Unit
        });
        rt.retire_session(&session);
        rt.assert_heap_sound();
    }
}

#[test]
fn a_request_on_a_retired_session_fails_loudly() {
    use mpl_runtime::RunError;
    let rt = Runtime::new(RuntimeConfig::managed());
    let session = rt.new_tenant("gone", 0);
    rt.run_session(&session, |m| {
        let v = m.alloc_tuple(&[Value::Int(1)]);
        m.root(v);
        Value::Unit
    });
    rt.retire_session(&session);
    rt.retire_session(&session); // idempotent
    assert_eq!(rt.live_root_stacks(), 0);
    // Nothing scans the session's stack any more: roots pushed by a later
    // request would be invisible to the concurrent collector.
    let r = rt.try_run_session(&session, |_| Value::Unit);
    assert!(
        matches!(&r, Err(RunError::Panic(msg)) if msg.contains("`gone`") && msg.contains("retired")),
        "{r:?}"
    );
    assert_eq!(rt.live_root_stacks(), 0);
    assert_eq!(
        rt.run(|_| Value::Int(3)),
        Value::Int(3),
        "runtime still usable"
    );
}

// A `StatsSnapshot` field can only exist as a table row.
const _: () = assert!(
    std::mem::size_of::<mpl_runtime::StatsSnapshot>() == 8 * mpl_heap::stats::ROWS,
    "StatsSnapshot has a field outside the counter table"
);

/// Every row of the counter table reaches both exporters exactly once,
/// under the family its kind dictates, and nothing else poses as one.
#[test]
fn every_counter_row_reaches_both_exporters_exactly_once() {
    use mpl_heap::stats::{Kind, ROWS};
    let snap = mpl_runtime::StatsSnapshot::from_values(std::array::from_fn(|i| 1000 + i as u64));
    let report = mpl_runtime::TelemetryReport::render(&snap, &[], None);

    let prom_samples: Vec<&str> = report
        .prometheus
        .lines()
        .filter(|l| l.starts_with("mpl_") && !l.contains("_seconds"))
        .collect();
    // The flat `"section":{...}` object of the JSON document, as its
    // `"key":value` members.
    let json_section = |section: &str| -> Vec<&str> {
        let open = format!("\"{section}\":{{");
        let body = &report.json[report.json.find(&open).expect(section) + open.len()..];
        body[..body.find('}').unwrap()].split(',').collect()
    };
    let (counters, gauges) = (json_section("counters"), json_section("gauges"));

    for row in snap.rows() {
        let (family, kind, section) = match row.kind {
            Kind::Monotonic => (format!("mpl_{}_total", row.name), "counter", &counters),
            Kind::Gauge | Kind::HighWater => (format!("mpl_{}", row.name), "gauge", &gauges),
        };
        let sample = format!("{family} {}", row.value);
        let hits = prom_samples.iter().filter(|l| **l == sample).count();
        assert_eq!(hits, 1, "{sample}: {hits} Prometheus samples");
        let header = format!(
            "# HELP {family} {}\n# TYPE {family} {kind}\n{sample}\n",
            row.help
        );
        assert!(report.prometheus.contains(&header), "missing {header}");
        let member = format!("\"{}\":{}", row.name, row.value);
        let hits = section.iter().filter(|m| **m == member).count();
        assert_eq!(hits, 1, "{member}: {hits} JSON members");
    }
    assert_eq!(
        prom_samples.len(),
        ROWS,
        "stray mpl_ sample: {prom_samples:?}"
    );
    assert_eq!(counters.len() + gauges.len(), ROWS, "stray JSON member");
}
