//! Cross-crate integration: every benchmark, every runtime, one oracle.
//!
//! These tests are the repository's end-to-end safety net: each suite
//! benchmark must produce the native checksum on the managed runtime (in
//! several configurations) and on the sequential baseline, and the
//! runtime invariants the paper proves must hold after every run.

use mpl_baselines::SeqRuntime;
use mpl_runtime::{GcPolicy, Runtime, RuntimeConfig, StoreConfig, Value};

fn gc_pressure() -> RuntimeConfig {
    RuntimeConfig {
        policy: GcPolicy {
            lgc_trigger_bytes: 32 * 1024,
            cgc_trigger_pinned_bytes: 64 * 1024,
        },
        store: StoreConfig {
            block_words: 256,
            ..Default::default()
        },
        ..RuntimeConfig::managed()
    }
}

/// Runs one benchmark at `small_n` under a configuration and checks the
/// checksum plus the universal invariants.
fn check(bench: &dyn mpl_bench_suite::Benchmark, cfg: RuntimeConfig, label: &str) {
    let n = bench.small_n();
    let native = bench.run_native(n);
    let rt = Runtime::new(cfg);
    let got = rt.run(|m| Value::Int(bench.run_mpl(m, n))).expect_int();
    assert_eq!(got, native, "{} [{}]: wrong checksum", bench.name(), label);
    let s = rt.stats();
    assert_eq!(
        s.pinned_bytes,
        0,
        "{} [{}]: pins must all resolve",
        bench.name(),
        label
    );
    // Disentangled benchmarks never pin, and at one worker no benchmark
    // does: each right branch runs after its left sibling, in its heap.
    if !bench.entangled() || cfg.threads == 1 {
        assert_eq!(
            s.pins,
            0,
            "{} [{}]: nothing ran beside what it shares with",
            bench.name(),
            label
        );
        assert_eq!(s.entangled_reads, 0, "{} [{}]", bench.name(), label);
    }
    // Independent whole-heap certification: no collection left a
    // reachable dangling reference.
    rt.assert_heap_sound();
}

#[test]
fn all_benchmarks_default_config() {
    for bench in mpl_bench_suite::all() {
        check(bench.as_ref(), RuntimeConfig::managed(), "default");
    }
}

#[test]
fn all_benchmarks_under_gc_pressure() {
    for bench in mpl_bench_suite::all() {
        check(bench.as_ref(), gc_pressure(), "gc-pressure");
    }
}

#[test]
fn all_benchmarks_with_dag_recording() {
    for bench in mpl_bench_suite::all() {
        let cfg = RuntimeConfig::managed().with_dag();
        let n = bench.small_n();
        let rt = Runtime::new(cfg);
        let got = rt.run(|m| Value::Int(bench.run_mpl(m, n))).expect_int();
        assert_eq!(got, bench.run_native(n), "{}", bench.name());
        let dag = rt.take_dag().expect("dag recorded");
        assert!(dag.total_work() > 0, "{}: work recorded", bench.name());
        assert!(
            dag.span() <= dag.total_work(),
            "{}: span <= work",
            bench.name()
        );
    }
}

#[test]
fn all_benchmarks_on_sequential_baseline() {
    for bench in mpl_bench_suite::all() {
        let n = bench.small_n();
        let mut rt = SeqRuntime::new(64 * 1024); // aggressive GC
        let got = bench.run_seq(&mut rt, n);
        assert_eq!(got, bench.run_native(n), "{}", bench.name());
    }
}

#[test]
fn disentangled_benchmarks_in_detect_only_mode() {
    // Prior-MPL semantics must accept the entire disentangled suite.
    for bench in mpl_bench_suite::all() {
        if bench.entangled() {
            continue;
        }
        check(bench.as_ref(), RuntimeConfig::detect_only(), "detect-only");
    }
}

/// At one worker every right branch runs after its left sibling, in its
/// heap: nothing entangles, and prior MPL accepts the run. Once a branch
/// is stolen and runs beside its sibling, it rejects it.
#[test]
fn entangled_benchmarks_abort_in_detect_only_mode() {
    for bench in mpl_bench_suite::all() {
        if !bench.entangled() {
            continue;
        }
        let n = bench.small_n();
        check(
            bench.as_ref(),
            RuntimeConfig::detect_only(),
            "detect-only, one worker",
        );
        mpl_bench_suite::for_stolen_runs(
            bench.as_ref(),
            n,
            RuntimeConfig::detect_only(),
            2,
            |_, got| {
                assert!(
                    got.is_err(),
                    "{}: prior MPL must reject this entangled program",
                    bench.name()
                );
            },
        );
    }
}

#[test]
fn threaded_executor_runs_the_suite() {
    // Real threads (bounded by tokens) with deferred chunk reclamation;
    // validates the concurrent pin/SATB/graveyard protocols end to end.
    for bench in mpl_bench_suite::all() {
        let n = bench.small_n();
        let rt = Runtime::new(RuntimeConfig::managed().with_threads(3));
        let got = rt.run(|m| Value::Int(bench.run_mpl(m, n))).expect_int();
        assert_eq!(got, bench.run_native(n), "{} (threads)", bench.name());
        rt.assert_heap_sound();
    }
}

#[test]
fn suspects_optimization_preserves_entanglement_accounting() {
    // The candidates fast path must not change WHAT entangles — only how
    // fast non-candidates are read. Pins and entangled accesses must be
    // identical with the optimization on and off.
    for bench in mpl_bench_suite::all() {
        let n = bench.small_n();
        let on = {
            let rt = Runtime::new(RuntimeConfig::managed());
            let c = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
            (c, rt.stats())
        };
        let off = {
            let cfg = RuntimeConfig {
                suspects: false,
                ..RuntimeConfig::managed()
            };
            let rt = Runtime::new(cfg);
            let c = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
            (c, rt.stats())
        };
        assert_eq!(on.0, off.0, "{}: checksum", bench.name());
        assert_eq!(on.1.pins, off.1.pins, "{}: pins", bench.name());
        assert_eq!(
            on.1.entangled_reads,
            off.1.entangled_reads,
            "{}: entangled reads",
            bench.name()
        );
        assert_eq!(
            on.1.entangled_writes,
            off.1.entangled_writes,
            "{}: entangled writes",
            bench.name()
        );
    }
}

#[test]
fn repeated_runs_share_a_runtime() {
    // One runtime instance, several programs back to back: heap ids,
    // chunks, and stats accumulate but stay consistent.
    let rt = Runtime::new(RuntimeConfig::managed());
    let fib = mpl_bench_suite::by_name("fib").unwrap();
    let dedup = mpl_bench_suite::by_name("dedup").unwrap();
    for _ in 0..3 {
        let a = rt.run(|m| Value::Int(fib.run_mpl(m, fib.small_n())));
        assert_eq!(a, Value::Int(fib.run_native(fib.small_n())));
        let b = rt.run(|m| Value::Int(dedup.run_mpl(m, dedup.small_n())));
        assert_eq!(b, Value::Int(dedup.run_native(dedup.small_n())));
    }
    rt.assert_heap_sound();
}
