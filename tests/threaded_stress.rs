//! Concurrency stress: repeated real-thread runs of the entangled suite,
//! hammering the pin/join, SATB, and graveyard protocols. These
//! tests exist to make races like "pin registered concurrently with a
//! join lands on a merged-away index" (found and fixed during
//! development) stay fixed.

use mpl_runtime::{
    FailAction, FailPlan, FailWhen, GcPolicy, Runtime, RuntimeConfig, StoreConfig, Value,
};

// `with_threads_exact`: these tests deliberately oversubscribe small
// hosts — concurrency bugs need concurrency, not host-sized pools.
fn threaded_pressure(threads: usize) -> RuntimeConfig {
    RuntimeConfig {
        policy: GcPolicy {
            lgc_trigger_bytes: 16 * 1024,
            cgc_trigger_pinned_bytes: 32 * 1024,
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
            rt.assert_heap_sound();
        }
    }
}

#[test]
fn entangled_suite_under_threads_with_frequent_cgc() {
    // A cycle runs on one worker while the others keep mutating and
    // logging into their slots: with a low pinned trigger cycles overlap
    // running mutators and local collections over and over, and the SATB
    // protocol must keep every checksum and the pin accounting intact.
    for round in 0..3 {
        for name in ["dedup", "msqueue", "unionfind", "accounts"] {
            let bench = mpl_bench_suite::by_name(name).unwrap();
            let n = bench.small_n() / 2 + round;
            let mut cfg = threaded_pressure(4);
            cfg.policy.cgc_trigger_pinned_bytes = 4 * 1024;
            let rt = Runtime::new(cfg);
            let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
            assert_eq!(got, Value::Int(bench.run_native(n)), "{name} round {round}");
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
        rt.assert_heap_sound();
        rt.force_cgc();
        rt.assert_heap_sound();
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
        rt.assert_heap_sound();
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
                rt.assert_heap_sound();
                let s = rt.stats();
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

/// Rounds of [`lgc_dead_object_race_repro`] at each worker count.
const REPRO_ROUNDS: u64 = 4;

/// The schedule [`lgc_dead_object_race_repro`] runs each round under,
/// seeded by the round: thieves yield, so which worker runs what varies,
/// and each window of the three races behind a join's collection of its
/// merged heap is stretched.
/// * `cgc/marked`: the mark is done, the sweep has not begun. Local
///   collections meanwhile shield copies the tracer never marked (it
///   marked their old address), which a sweep that listed its blocks
///   only now would kill while reachable.
/// * `lgc/remset`: a remembered-set entry's target is evacuated and its
///   source field not yet repaired. A reader that chases the forwarding
///   word meanwhile repairs the field to the copy, which the collection
///   must still take for a live entry.
/// * `heap/pin`: a new pin is visible in its header. A pin indexed only
///   after this point could be passed on by a second reader that finds
///   the object pinned, past a local collection's shield.
fn repro_schedule(seed: u64) -> FailPlan {
    FailPlan::new(seed)
        .with("sched/steal", FailAction::Yield, FailWhen::OneIn(3))
        .with("cgc/marked", FailAction::Delay(2_000_000), FailWhen::Always)
        .with("lgc/remset", FailAction::Delay(50_000), FailWhen::OneIn(2))
        .with(
            "heap/pin",
            FailAction::Delay(2_000_000),
            FailWhen::OneIn(64),
        )
}

#[test]
fn lgc_dead_object_race_repro() {
    // Regression test for the LGC dead-object race (formerly #[ignore]d:
    // dedup at full small_n under 4 threads killed the referents of
    // objects pinned mid-collection in roughly 2 of 3 debug runs), and for
    // the three races a join's collection of its merged heap exposed
    // (`repro_schedule`). `lgc_dead_traced` is the always-on detector and
    // must stay zero; the audited loop (`MPL_DEBUG_LGC_VALIDATE=1`) also
    // checks every collector phase. The rest of the suite runs at
    // small_n / 2; this is the one test at full small_n.
    let bench = mpl_bench_suite::by_name("dedup").unwrap();
    let n = bench.small_n();
    for workers in [2, 4, 8] {
        for round in 0..REPRO_ROUNDS {
            let seed = workers as u64 * 1000 + round;
            let cfg = threaded_pressure(workers).with_failpoints(repro_schedule(seed));
            let rt = Runtime::new(cfg);
            let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
            assert_eq!(
                got,
                Value::Int(bench.run_native(n)),
                "{workers} workers, round {round}"
            );
            rt.assert_heap_sound();
        }
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
        rt.assert_heap_sound();
        let s = rt.stats();
        assert!(s.audit_runs > 0, "{name}: audits must actually run: {s:?}");
    }
}

#[test]
fn entangled_suite_with_audits_at_env_worker_count() {
    // CI's `cgc-parallel` job runs this at 2, 4, and 8 workers
    // (`MPL_CGC_WORKERS`, matrix-driven); locally it defaults to 4.
    // Same invariants as the audit sweep above, plus proof that after
    // each program a cycle the test forces runs its work in packets at
    // this worker count. The run is telemetered and its Chrome trace
    // written *before* the asserts, so a CI failure uploads the exact
    // packet interleaving that broke.
    let workers: usize = std::env::var("MPL_CGC_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
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
        rt.assert_heap_sound();
        let s = rt.stats();
        assert!(s.audit_runs > 0, "{name} @ {workers}w: audits must run");
        let packets = probe_cycle_packets(&rt);
        assert!(
            packets >= 3,
            "{name} @ {workers}w: the forced cycle ran {packets} packets"
        );
    }
}

/// Packets run by a concurrent cycle the caller controls. Whether a cycle
/// runs inside a run depends on where the pinned footprint crosses the
/// trigger, and by the time a run returns its joins have released every
/// pin and no entangled block is left to sweep. So a session roots three
/// packets' worth of objects across requests and a forced cycle traces
/// them: at least one trace packet each, fanned out to the workers.
fn probe_cycle_packets(rt: &Runtime) -> u64 {
    let session = rt.new_tenant("probe", 0);
    rt.run_session(&session, |m| {
        for i in 0..300 {
            let v = m.alloc_tuple(&[Value::Int(i)]);
            m.root(v);
        }
        Value::Unit
    });
    let before = rt.stats().cgc_packets;
    rt.force_cgc();
    rt.retire_session(&session);
    rt.stats().cgc_packets - before
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
    rt.assert_heap_sound();
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
            rt.assert_heap_sound();
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
            rt.assert_heap_sound();
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
            rt.assert_heap_sound();
        }
    }
}
