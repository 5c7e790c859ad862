//! The shipped `.mpl` programs (in `programs/`) must compile, run, and
//! produce their documented results — under the default configuration,
//! under GC pressure, and on the real-thread executor.

use mpl_compile::run_source;
use mpl_runtime::{GcPolicy, Runtime, RuntimeConfig, StoreConfig};

fn program(name: &str) -> String {
    let path = format!("{}/../../programs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn configs() -> Vec<(&'static str, RuntimeConfig)> {
    vec![
        ("default", RuntimeConfig::managed()),
        (
            "pressure",
            RuntimeConfig {
                policy: GcPolicy {
                    lgc_trigger_bytes: 8 * 1024,
                    cgc_trigger_pinned_bytes: 16 * 1024,
                },
                store: StoreConfig {
                    block_words: 64,
                    ..Default::default()
                },
                ..RuntimeConfig::managed()
            },
        ),
        ("threads", RuntimeConfig::managed().with_threads(3)),
    ]
}

fn check(name: &str, expect: &str) {
    // Non-tail recursion in the calculus consumes Rust stack in the
    // tree-walking backend; give the programs a roomy stack.
    let name = name.to_string();
    let expect = expect.to_string();
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(move || {
            let src = program(&name);
            for (label, cfg) in configs() {
                let rt = Runtime::new(cfg);
                let out = run_source(&rt, &src, 500_000_000)
                    .unwrap_or_else(|e| panic!("{name} [{label}]: {e}"));
                assert_eq!(out.rendered, expect, "{name} [{label}]");
                rt.assert_heap_sound();
            }
        })
        .expect("spawn")
        .join()
        .expect("program thread");
}

#[test]
fn fib_program() {
    check("fib.mpl", "6765");
}

#[test]
fn array_sum_program() {
    // sum of i^2 for i in 0..256
    let expect: i64 = (0..256i64).map(|i| i * i).sum();
    check("array_sum.mpl", &expect.to_string());
}

#[test]
fn msort_program() {
    // (sorted_ok, checksum) — checksum pinned by the seeded fill.
    check("msort.mpl", "(1, 506575)");
}

#[test]
fn nqueens_program() {
    check("nqueens.mpl", "92");
}

#[test]
fn primes_program() {
    // pi(1000) = 168.
    check("primes.mpl", "168");
}

#[test]
fn histogram_program_entangles() {
    // Sequential schedules only: the refresh/bump race is resolved
    // deterministically (left first) under depth-first execution, but is
    // a genuine data race under real threads.
    let src = program("histogram.mpl");
    for cfg in [
        RuntimeConfig::managed(),
        RuntimeConfig {
            policy: GcPolicy {
                lgc_trigger_bytes: 8 * 1024,
                cgc_trigger_pinned_bytes: 16 * 1024,
            },
            store: StoreConfig {
                block_words: 64,
                ..Default::default()
            },
            ..RuntimeConfig::managed()
        },
    ] {
        let rt = Runtime::new(cfg);
        let out = run_source(&rt, &src, 10_000_000).unwrap();
        assert_eq!(out.rendered, "64");
        let s = rt.stats();
        assert_eq!(s.entangled_reads, 64, "every bump reads a sibling cell");
        assert_eq!(s.pins, 8, "one pin per bucket cell");
        rt.assert_heap_sound();
    }
    // Prior MPL rejects it.
    let rt = Runtime::new(RuntimeConfig::detect_only());
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_source(&rt, &src, 10_000_000)
    }))
    .is_err();
    assert!(refused);
}

#[test]
fn entangled_program_requires_management() {
    let src = program("entangled.mpl");
    // Managed: works.
    let rt = Runtime::new(RuntimeConfig::managed());
    let out = run_source(&rt, &src, 1_000_000).unwrap();
    assert_eq!(out.rendered, "42");
    assert!(rt.stats().pins >= 1);
    // Prior MPL: aborts.
    let rt = Runtime::new(RuntimeConfig::detect_only());
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_source(&rt, &src, 1_000_000)
    }))
    .is_err();
    assert!(refused, "DetectOnly must reject the entangled program");
}

#[test]
fn pipeline_program_runs_on_the_semantics() {
    use mpl_lang::{run_program, LangMode, Options, Schedule};
    let src = program("pipeline.mpl");
    mpl_compile::typecheck(&mpl_lang::parse(&src).unwrap()).unwrap();
    for schedule in [
        Schedule::DepthFirst,
        Schedule::RoundRobin,
        Schedule::Random(3),
    ] {
        let out = run_program(
            &src,
            Options {
                schedule,
                mode: LangMode::Managed,
                fuel: 1_000_000,
            },
        )
        .unwrap();
        assert_eq!(out.render(), "585", "{schedule:?}");
        assert_eq!(out.costs.futures, 3);
        assert!(out.store.pinned_locs().is_empty());
    }
}

#[test]
fn future_programs_typecheck_but_are_semantics_only() {
    use mpl_compile::PipelineError;
    // The front end types them (future/touch are first-class)...
    for (name, src) in mpl_lang::examples::SEMANTICS_ONLY {
        let ast = mpl_lang::parse(src).unwrap();
        mpl_compile::typecheck(&ast).unwrap_or_else(|e| panic!("{name}: {e}"));
        // ...but the compiled backend rejects them with a clear pointer
        // to the interpreter.
        let rt = Runtime::new(RuntimeConfig::managed());
        match run_source(&rt, src, 1_000_000) {
            Err(PipelineError::Lower(e)) => {
                assert!(e.to_string().contains("semantics-level"), "{name}: {e}")
            }
            other => panic!("{name}: expected a lowering rejection, got {other:?}"),
        }
    }
    // And the interpreter runs them to their documented answers.
    use mpl_lang::{run_program, LangMode, Options, Schedule};
    let o = Options {
        schedule: Schedule::DepthFirst,
        mode: LangMode::Managed,
        fuel: 1_000_000,
    };
    assert_eq!(
        run_program(mpl_lang::examples::FUTURE_PIPELINE, o)
            .unwrap()
            .render(),
        "32"
    );
    assert_eq!(
        run_program(mpl_lang::examples::FUTURE_PUBLISH, o)
            .unwrap()
            .render(),
        "1"
    );
}
