//! Concurrency stress: repeated real-thread runs of the entangled suite,
//! hammering the pin/join, SATB, and graveyard protocols. These
//! tests exist to make races like "pin registered concurrently with a
//! join lands on a merged-away index" (found and fixed during
//! development) stay fixed.

use mpl_runtime::{GcPolicy, Runtime, RuntimeConfig, StoreConfig, Value};

// `with_threads_exact`: these tests deliberately oversubscribe small
// hosts — concurrency bugs need concurrency, not host-sized pools.
fn threaded_pressure(threads: usize) -> RuntimeConfig {
    RuntimeConfig {
        policy: GcPolicy {
            lgc_trigger_bytes: 16 * 1024,
            cgc_trigger_pinned_bytes: 32 * 1024,
            immediate_block_free: false,
        },
        store: StoreConfig {
            block_words: 128,
            ..Default::default()
        },
        ..RuntimeConfig::managed()
    }
    .with_threads_exact(threads)
}

#[test]
fn entangled_suite_under_threads_and_gc_pressure() {
    for round in 0..5 {
        for name in ["dedup", "conc_stack", "accounts", "msqueue", "bfs", "memo"] {
            let bench = mpl_bench_suite::by_name(name).unwrap();
            let n = bench.small_n() / 2 + round; // vary sizes slightly
            let rt = Runtime::new(threaded_pressure(4));
            let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
            assert_eq!(got, Value::Int(bench.run_native(n)), "{name} round {round}");
            let s = rt.stats();
            assert_eq!(
                s.pinned_bytes, 0,
                "{name} round {round}: leaked pins: {s:?}"
            );
        }
    }
}

#[test]
fn entangled_suite_under_threads_with_sliced_cgc() {
    // Incremental cycles interleave with running mutators on real
    // threads: the SATB protocol (plus the LGC force-finish rule) must
    // keep every checksum and the pin accounting intact.
    for round in 0..3 {
        for name in ["dedup", "msqueue", "unionfind", "accounts"] {
            let bench = mpl_bench_suite::by_name(name).unwrap();
            let n = bench.small_n() / 2 + round;
            let rt = Runtime::new(threaded_pressure(4).with_cgc_slice(32));
            let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
            assert_eq!(got, Value::Int(bench.run_native(n)), "{name} round {round}");
            let s = rt.stats();
            assert_eq!(
                s.pinned_bytes, 0,
                "{name} round {round}: leaked pins: {s:?}"
            );
            rt.assert_heap_sound();
        }
    }
}

#[test]
fn racy_publish_read_loops_never_leak_pins() {
    // A tight cross-task publish/consume loop: the reader's pins race the
    // writer's collections and the final joins.
    for seed in 0..8 {
        let rt = Runtime::new(threaded_pressure(3));
        rt.run(|m| {
            let cell = m.alloc_ref(Value::Unit);
            let c = m.root(cell);
            m.fork(
                |m| {
                    for i in 0..400 {
                        let boxed = m.alloc_tuple(&[Value::Int(i + seed)]);
                        m.write_ref(m.get(&c), boxed);
                    }
                    Value::Unit
                },
                |m| {
                    let mut acc = 0i64;
                    for _ in 0..400 {
                        if let v @ Value::Obj(_) = m.read_ref(m.get(&c)) {
                            acc += m.tuple_get(v, 0).expect_int();
                        }
                    }
                    Value::Int(acc)
                },
            );
            Value::Unit
        });
        assert_eq!(rt.stats().pinned_bytes, 0, "seed {seed}");
        rt.force_cgc();
        assert_eq!(rt.stats().pinned_bytes, 0, "seed {seed} after CGC");
    }
}

#[test]
fn deep_fork_trees_with_cross_subtree_entanglement() {
    // Cousin-level entanglement under threads: pins must survive inner
    // joins and resolve at the LCA join, every time.
    fn go(m: &mut mpl_runtime::Mutator<'_>, cell: &mpl_runtime::Handle, depth: usize) -> i64 {
        if depth == 0 {
            // Publish and read.
            let boxed = m.alloc_tuple(&[Value::Int(depth as i64 + 1)]);
            m.write_ref(m.get(cell), boxed);
            match m.read_ref(m.get(cell)) {
                v @ Value::Obj(_) => m.tuple_get(v, 0).expect_int(),
                _ => 0,
            }
        } else {
            let (a, b) = m.fork(
                |m| Value::Int(go(m, cell, depth - 1)),
                |m| Value::Int(go(m, cell, depth - 1)),
            );
            a.expect_int() + b.expect_int()
        }
    }
    for _ in 0..10 {
        let rt = Runtime::new(threaded_pressure(4));
        rt.run(|m| {
            let cell = m.alloc_ref(Value::Unit);
            let c = m.root(cell);
            let total = go(m, &c, 5);
            assert!(total >= 1, "every leaf read something or its own write");
            Value::Unit
        });
        assert_eq!(rt.stats().pinned_bytes, 0);
    }
}

#[test]
fn entangled_suite_work_stealing_worker_sweep() {
    // The tentpole acceptance: the entangled suite under the persistent
    // work-stealing pool at 2, 4, and 8 workers with GC pressure, five
    // rounds at each width. Checksums must match the native baseline and
    // no pins may leak — whichever worker a branch landed on.
    for &workers in &[2usize, 4, 8] {
        let mut suite_pushes = 0u64;
        for round in 0..5 {
            for name in ["dedup", "msqueue", "bfs", "accounts"] {
                let bench = mpl_bench_suite::by_name(name).unwrap();
                let n = bench.small_n() / 2 + round;
                let rt = Runtime::new(threaded_pressure(workers));
                let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
                assert_eq!(
                    got,
                    Value::Int(bench.run_native(n)),
                    "{name} round {round} at {workers} workers"
                );
                let s = rt.stats();
                assert_eq!(
                    s.pinned_bytes, 0,
                    "{name} round {round} at {workers} workers: leaked pins: {s:?}"
                );
                // Not every bench forks at every size (e.g. accounts below
                // its parallel grain runs sequentially), so deque traffic
                // is asserted for the suite as a whole, not per bench.
                suite_pushes += s.sched_pushes;
                assert_eq!(
                    s.sched_steals + s.sched_sequentialized,
                    s.sched_pushes,
                    "{name} at {workers} workers: every pushed branch resolves \
                     exactly once: {s:?}"
                );
            }
        }
        assert!(
            suite_pushes > 0,
            "at {workers} workers the suite's forks must go through the deques"
        );
    }
}

#[test]
fn lgc_dead_object_race_repro() {
    // Regression test for the LGC dead-object race (formerly #[ignore]d:
    // dedup at full small_n under 4 threads killed the referents of
    // objects pinned mid-collection in roughly 2 of 3 debug runs). The
    // fix is the registry re-take fixpoint before Phase C's kills
    // (lgc.rs); `lgc_dead_traced` is the always-on detector and must
    // stay zero. The rest of the suite runs at small_n / 2; this is the
    // one test at full small_n.
    for round in 0..5 {
        let bench = mpl_bench_suite::by_name("dedup").unwrap();
        let n = bench.small_n();
        let rt = Runtime::new(threaded_pressure(4));
        let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
        assert_eq!(got, Value::Int(bench.run_native(n)), "round {round}");
        let s = rt.stats();
        assert_eq!(
            s.lgc_dead_traced, 0,
            "round {round}: LGC traced a dead object: {s:?}"
        );
        assert_eq!(s.pinned_bytes, 0, "round {round}: leaked pins");
    }
}

#[test]
fn entangled_suite_with_phase_audits() {
    // The GC phase-audit layer (`RuntimeConfig::with_audit`) rides along
    // with the entangled suite under real threads: every LGC phase
    // boundary, CGC sweep, and graveyard reap re-validates the shield,
    // cross-checks reachability against dead marks, and scans for
    // dangling fields — panicking with the event trace on any violation.
    for name in ["dedup", "msqueue", "bfs", "accounts"] {
        let bench = mpl_bench_suite::by_name(name).unwrap();
        let n = bench.small_n() / 2;
        let rt = Runtime::new(threaded_pressure(4).with_audit());
        let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
        assert_eq!(got, Value::Int(bench.run_native(n)), "{name}");
        let s = rt.stats();
        assert_eq!(s.pinned_bytes, 0, "{name}: leaked pins: {s:?}");
        assert!(s.audit_runs > 0, "{name}: audits must actually run: {s:?}");
        assert_eq!(s.lgc_dead_traced, 0, "{name}: dead object traced: {s:?}");
    }
}

#[test]
fn entangled_suite_with_audits_at_env_worker_count() {
    // CI's `cgc-parallel` job runs this at 2, 4, and 8 workers
    // (`MPL_CGC_WORKERS`, matrix-driven); locally it defaults to 4.
    // Same invariants as the audit sweep above, plus proof that the
    // concurrent collector actually ran packets under pressure. The run
    // is telemetered and its Chrome trace written *before* the asserts,
    // so a CI failure uploads the exact packet interleaving that broke.
    let workers: usize = std::env::var("MPL_CGC_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let mut total_packets = 0u64;
    for name in ["dedup", "msqueue", "bfs", "accounts", "unionfind"] {
        let bench = mpl_bench_suite::by_name(name).unwrap();
        let n = bench.small_n() / 2;
        let rt = Runtime::new(threaded_pressure(workers).with_audit().with_telemetry());
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|m| Value::Int(bench.run_mpl(m, n)))
        }));
        let trace = rt.telemetry_report().chrome_trace;
        std::fs::create_dir_all("results").ok();
        std::fs::write(format!("results/cgc_parallel_trace_{workers}.json"), trace).ok();
        let got = got.unwrap_or_else(|p| std::panic::resume_unwind(p));
        assert_eq!(got, Value::Int(bench.run_native(n)), "{name} @ {workers}w");
        let s = rt.stats();
        assert_eq!(s.pinned_bytes, 0, "{name} @ {workers}w: leaked pins");
        assert_eq!(s.lgc_dead_traced, 0, "{name} @ {workers}w: dead traced");
        assert!(s.audit_runs > 0, "{name} @ {workers}w: audits must run");
        total_packets += s.cgc_packets;
    }
    assert!(
        total_packets > 0,
        "CGC never packetized across the suite at {workers} workers"
    );
}

#[test]
fn buffered_remsets_flush_at_joins_under_audit() {
    // Down-pointer remembered-set entries are buffered task-privately
    // and published at safepoints (forks, joins, collections, task
    // drop). This drives deep fork trees whose children write
    // down-pointers into ancestor cells and then churn enough that the
    // *parent's* post-join collections depend on entries the children
    // buffered — all under 4 real threads with the full audit layer
    // (the `MPL_DEBUG_LGC_VALIDATE` checks) watching every phase
    // boundary.
    fn go(m: &mut mpl_runtime::Mutator<'_>, cell: &mpl_runtime::Handle, depth: usize) -> i64 {
        if depth == 0 {
            let mut acc = 0;
            for i in 0..40 {
                // Down-pointer: child-allocated tuple into the ancestor
                // cell (buffered remset entry), then churn to force
                // local collections that must see the entry.
                let boxed = m.alloc_tuple(&[Value::Int(i)]);
                m.write_ref(m.get(cell), boxed);
                for _ in 0..20 {
                    let _ = m.alloc_tuple(&[Value::Int(0), Value::Unit]);
                }
                if let v @ Value::Obj(_) = m.read_ref(m.get(cell)) {
                    acc += m.tuple_get(v, 0).expect_int();
                }
            }
            acc
        } else {
            let (a, b) = m.fork(
                |m| Value::Int(go(m, cell, depth - 1)),
                |m| Value::Int(go(m, cell, depth - 1)),
            );
            // Post-join churn in the parent: its collections now cover
            // the merged child data, whose remset entries must have been
            // flushed by the children's task-finish safepoints.
            for _ in 0..50 {
                let _ = m.alloc_tuple(&[Value::Int(1), Value::Unit]);
            }
            a.expect_int() + b.expect_int()
        }
    }
    for round in 0..10 {
        let cfg = RuntimeConfig {
            policy: GcPolicy {
                lgc_trigger_bytes: 2048,
                cgc_trigger_pinned_bytes: 16 * 1024,
                immediate_block_free: false,
            },
            store: StoreConfig {
                block_words: 64,
                ..Default::default()
            },
            ..RuntimeConfig::managed()
        }
        .with_threads_exact(4)
        .with_audit();
        let rt = Runtime::new(cfg);
        rt.run(|m| {
            let cell = m.alloc_ref(Value::Unit);
            let c = m.root(cell);
            let total = go(m, &c, 3);
            assert!(total > 0, "round {round}: leaves observed writes");
            Value::Unit
        });
        let s = rt.stats();
        assert_eq!(s.lgc_dead_traced, 0, "round {round}: dead traced: {s:?}");
        assert_eq!(s.pinned_bytes, 0, "round {round}: leaked pins: {s:?}");
        assert!(
            s.remset_flushes > 0,
            "round {round}: buffers flushed: {s:?}"
        );
        assert!(s.audit_runs > 0, "round {round}: audits ran: {s:?}");
        rt.assert_heap_sound();
    }
}

#[test]
fn work_stealing_runtime_is_reusable_across_runs() {
    // One pool, many runs: the driver slot must hand back cleanly and the
    // workers must stay healthy across program boundaries.
    let bench = mpl_bench_suite::by_name("dedup").unwrap();
    let rt = Runtime::new(threaded_pressure(4));
    for round in 0..5 {
        let n = bench.small_n() / 2 + round;
        let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
        assert_eq!(got, Value::Int(bench.run_native(n)), "round {round}");
    }
    assert_eq!(rt.stats().pinned_bytes, 0);
}

mod executor_agreement {
    //! Property: for random problem sizes, the work-stealing executor
    //! computes exactly what the sequential depth-first executor (and the
    //! native Rust oracle) compute — scheduling must be semantically
    //! invisible.

    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn fib_matches_sequential_baseline(n in 4usize..18, workers in 2usize..=8) {
            let bench = mpl_bench_suite::by_name("fib").unwrap();
            let seq = Runtime::new(threaded_pressure(1));
            let expect = seq.run(|m| Value::Int(bench.run_mpl(m, n)));
            let rt = Runtime::new(threaded_pressure(workers));
            let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
            prop_assert_eq!(got, expect);
            prop_assert_eq!(got, Value::Int(bench.run_native(n)));
            prop_assert_eq!(rt.stats().pinned_bytes, 0);
        }

        #[test]
        fn msort_matches_sequential_baseline(n in 1usize..220, workers in 2usize..=8) {
            let bench = mpl_bench_suite::by_name("msort").unwrap();
            let seq = Runtime::new(threaded_pressure(1));
            let expect = seq.run(|m| Value::Int(bench.run_mpl(m, n)));
            let rt = Runtime::new(threaded_pressure(workers));
            let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
            prop_assert_eq!(got, expect);
            prop_assert_eq!(got, Value::Int(bench.run_native(n)));
            prop_assert_eq!(rt.stats().pinned_bytes, 0);
        }
    }
}

#[test]
fn compiled_calculus_under_threads() {
    // The compiled pipeline on the real-thread executor, including the
    // entangled examples.
    for _ in 0..5 {
        for (name, src) in mpl_lang::examples::ALL {
            let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(3));
            let out = mpl_compile::run_source(&rt, src, 50_000_000)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            // Effectful programs may be racy in value; invariants are not.
            let _ = out;
            assert_eq!(rt.stats().pinned_bytes, 0, "{name}: pins resolve");
        }
    }
}
