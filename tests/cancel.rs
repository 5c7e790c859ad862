//! Cooperative cancellation & deadlines: bounded-latency fork/join
//! unwinding must leave the heap exactly as sound as a normal join.
//!
//! The claims under test:
//!
//! 1. **Deadlines cancel** — a spinning fork tree under
//!    `try_run_deadline` unwinds with `CancelReason::Deadline`, promptly,
//!    and the runtime stays fully usable afterwards.
//! 2. **Explicit cancel** — tripping the runtime's root token from
//!    another thread unwinds an in-flight run and (by design) poisons
//!    future runs: the root token is the shutdown switch.
//! 3. **Watchdog escalation (opt-in)** — with `with_watchdog_cancels()`,
//!    a GC stall report trips the root token and the stalled run is
//!    cancelled instead of hanging; the per-`Runtime` report counter
//!    counts only its own runtime's stalls.
//! 4. **Soundness under storms** — hundreds of randomly-deadlined runs,
//!    and cancellations landing while a collector phase is stretched by
//!    injected delays, must leak no pins, park no results, trace no dead
//!    objects, and fail no audits.
//! 5. **Fresh-runtime equivalence** (property) — after a cancelled tree
//!    and a quiescing GC, the runtime is indistinguishable from one that
//!    never ran it.
//!
//! The failpoint registry and audit counters are process-global, so
//! tests that arm plans serialize on [`CANCEL_LOCK`].

use std::sync::Mutex;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use mpl_runtime::{
    CancelReason, FailAction, FailPlan, FailWhen, GcPolicy, Mutator, RunError, Runtime,
    RuntimeConfig, StoreConfig, Value,
};

static CANCEL_LOCK: Mutex<()> = Mutex::new(());

/// Small heaps (lots of collections), real threads, audits on: the same
/// shape as the chaos baseline so cancellations land mid-GC often.
fn cancel_config(threads: usize) -> RuntimeConfig {
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
    .with_audit()
}

/// Allocates fresh garbage forever; only cancellation ends it. Every
/// allocation is a poll point, so the unwind begins within one tuple of
/// the trip.
fn spin_leaf(m: &mut Mutator<'_>) -> Value {
    let mut i = 0i64;
    loop {
        let _ = m.alloc_tuple(&[Value::Int(i), Value::Int(i)]);
        i += 1;
    }
}

/// A binary fork tree of the given depth whose leaves spin forever: the
/// whole tree can only end by unwinding through every join.
fn spin_tree(m: &mut Mutator<'_>, depth: usize) -> Value {
    if depth == 0 {
        spin_leaf(m)
    } else {
        let (a, _) = m.fork(
            move |m| spin_tree(m, depth - 1),
            move |m| spin_tree(m, depth - 1),
        );
        a
    }
}

/// An entangled spin: one branch publishes fresh tuples into a shared
/// ref, the sibling reads them (pinning at the LCA), both forever —
/// maximal pin/remset/CGC traffic for a cancellation to land in.
fn entangled_spin(m: &mut Mutator<'_>) -> Value {
    let cell = m.alloc_ref(Value::Unit);
    let c = m.root(cell);
    let (a, _) = m.fork(
        |m| {
            let mut i = 0i64;
            loop {
                let t = m.alloc_tuple(&[Value::Int(i), Value::Int(i)]);
                m.write_ref(m.get(&c), t);
                i += 1;
            }
        },
        |m| {
            let mut acc = 0i64;
            loop {
                let v = m.read_ref(m.get(&c));
                if let Value::Obj(_) = v {
                    acc += m.tuple_get(v, 0).expect_int();
                }
                let _ = m.alloc_tuple(&[Value::Int(acc)]);
            }
        },
    );
    a
}

/// Asserts the post-cancellation soundness invariants shared by every
/// test here: nothing leaked, nothing left rooted, nothing corrupted.
fn assert_clean(rt: &Runtime, tag: &str) {
    assert_eq!(
        rt.live_root_stacks(),
        0,
        "{tag}: leaked slots (sibling results ride in them)"
    );
    rt.assert_heap_sound();
}

#[test]
fn deadline_cancels_a_spinning_tree_promptly() {
    let _guard = CANCEL_LOCK.lock().unwrap();
    let rt = Runtime::new(cancel_config(4));
    let t0 = Instant::now();
    let err = rt
        .try_run_deadline(Duration::from_millis(5), |m| spin_tree(m, 3))
        .expect_err("a spinning tree can only end by cancellation");
    let unwound = t0.elapsed();
    assert!(err.is_cancelled(), "wrong outcome: {err}");
    match err {
        RunError::Cancelled(c) => {
            assert!(matches!(c.reason, CancelReason::Deadline), "reason: {c:?}")
        }
        other => panic!("expected Cancelled, got {other}"),
    }
    // Bounded latency: generous (debug builds, loaded CI), but it must
    // not take the scenic route either.
    assert!(
        unwound < Duration::from_secs(2),
        "cancellation took {unwound:?}"
    );
    let s = rt.stats();
    assert!(s.cancel_requested >= 1, "no task observed the trip: {s:?}");
    assert_eq!(s.cancel_unwound, 1, "exactly one run unwound: {s:?}");
    assert_clean(&rt, "deadline");
    // The runtime is fully usable afterwards: the per-run child token
    // expired, not the root.
    assert_eq!(rt.try_run(|_| Value::Int(7)).unwrap(), Value::Int(7));
    let bench = mpl_bench_suite::by_name("msort").unwrap();
    let n = bench.small_n() / 2;
    let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
    assert_eq!(got, Value::Int(bench.run_native(n)));
}

/// Cancel-to-unwound latency is bounded at every tree depth: each of
/// eight deadline-cancelled runs of a spinning tree of depth 2, 4, 6 and
/// 8 on four workers records one `CancelUnwind` sample, and their p99
/// stays under 50 ms (a debug-build bound).
#[test]
fn unwind_latency_is_bounded_at_every_depth() {
    let _guard = CANCEL_LOCK.lock().unwrap();
    let unwind = || mpl_obs::histogram(mpl_obs::Metric::CancelUnwind);
    let rt = Runtime::new(
        RuntimeConfig::managed()
            .with_threads_exact(4)
            .with_telemetry(),
    );
    let cancel = |depth| {
        let err = rt
            .try_run_deadline(Duration::from_micros(500), |m| spin_tree(m, depth))
            .expect_err("a spinning tree can only end by cancellation");
        assert!(
            matches!(&err, RunError::Cancelled(c) if c.reason == CancelReason::Deadline),
            "{err}"
        );
    };
    for depth in [2, 4, 6, 8] {
        // The first run pays for waking the workers, not for unwinding.
        cancel(depth);
        unwind().reset();
        for _ in 0..8 {
            cancel(depth);
        }
        let h = unwind().snapshot();
        assert_eq!(h.count, 8, "depth {depth}: one sample per cancelled run");
        let p99_ms = h.p99() as f64 / 1e6;
        assert!(p99_ms < 50.0, "depth {depth}: unwind p99 {p99_ms:.2} ms");
    }
    assert_clean(&rt, "unwind latency");
}

#[test]
fn explicit_root_cancel_unwinds_and_poisons_future_runs() {
    let _guard = CANCEL_LOCK.lock().unwrap();
    let rt = Runtime::new(cancel_config(2));
    let token = rt.root_cancel().clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(3));
        token.cancel();
    });
    let err = rt
        .try_run(entangled_spin)
        .expect_err("the external cancel must unwind the run");
    canceller.join().unwrap();
    match err {
        RunError::Cancelled(c) => {
            assert!(matches!(c.reason, CancelReason::Explicit), "reason: {c:?}")
        }
        other => panic!("expected Cancelled, got {other}"),
    }
    assert_clean(&rt, "explicit");
    // The root token is the shutdown switch: once tripped, every future
    // run is cancelled at its first poll point.
    let err2 = rt
        .try_run(|m| {
            let _ = m.alloc_tuple(&[Value::Int(1)]);
            Value::Unit
        })
        .expect_err("a cancelled root must refuse new work");
    assert!(err2.is_cancelled(), "wrong outcome: {err2}");
}

#[test]
fn watchdog_fire_cancels_the_stalled_run_when_opted_in() {
    let _guard = CANCEL_LOCK.lock().unwrap();
    // A 100 ms stall injected inside an LGC phase with a 25 ms watchdog
    // deadline: the watchdog reports, and — because this runtime opted
    // in — trips the root token, so the spinning run is cancelled
    // instead of running forever.
    let plan = FailPlan::new(13).with(
        "lgc/evacuate",
        FailAction::Delay(100_000_000),
        FailWhen::Nth(1),
    );
    let rt = Runtime::new(
        cancel_config(2)
            .with_failpoints(plan)
            .with_gc_watchdog(Duration::from_millis(25))
            .with_watchdog_cancels(),
    );
    let err = rt
        .try_run(spin_leaf)
        .expect_err("the watchdog escalation must cancel the run");
    match err {
        RunError::Cancelled(c) => {
            assert!(matches!(c.reason, CancelReason::Watchdog), "reason: {c:?}")
        }
        other => panic!("expected Cancelled, got {other}"),
    }
    assert!(
        rt.watchdog_reports() >= 1,
        "the escalation implies at least one report"
    );
    assert_clean(&rt, "watchdog");
    drop(rt);
    // Per-runtime isolation (regression): a fresh runtime's report
    // counter starts at zero even though the process-global tally has
    // advanced, and stays zero across a healthy run.
    assert!(mpl_gc::stall::reports() >= 1, "global tally advanced");
    let rt2 = Runtime::new(cancel_config(2).with_gc_watchdog(Duration::from_millis(500)));
    assert_eq!(
        rt2.watchdog_reports(),
        0,
        "fresh runtime inherits no reports"
    );
    let bench = mpl_bench_suite::by_name("fib").unwrap();
    let n = bench.small_n() / 2;
    let got = rt2.run(|m| Value::Int(bench.run_mpl(m, n)));
    assert_eq!(got, Value::Int(bench.run_native(n)));
    assert_eq!(rt2.watchdog_reports(), 0, "healthy run must not report");
}

/// The cancel storm: hundreds of runs with randomized tiny deadlines and
/// varying tree depth, interleaved with runs that complete normally.
/// After the storm, nothing is leaked and the audits are clean.
#[test]
fn cancel_storm_leaks_nothing() {
    let _guard = CANCEL_LOCK.lock().unwrap();
    let rt = Runtime::new(cancel_config(4));
    let mut rng = mpl_serve::SplitMix64::new(0xE16);
    let (mut cancelled, mut completed) = (0u64, 0u64);
    for i in 0..1000u64 {
        if i % 5 == 4 {
            // A run that finishes on its own, well inside its deadline:
            // success and cancellation must interleave freely.
            let v = rt
                .try_run_deadline(Duration::from_secs(5), |m| {
                    let (a, b) = m.fork(
                        |m| {
                            let t = m.alloc_tuple(&[Value::Int(20), Value::Int(1)]);
                            m.tuple_get(t, 0)
                        },
                        |_| Value::Int(22),
                    );
                    Value::Int(a.expect_int() + b.expect_int())
                })
                .expect("a fast run must beat a 5s deadline");
            assert_eq!(v, Value::Int(42));
            completed += 1;
            continue;
        }
        let depth = (rng.next_u64() % 4) as usize;
        let deadline = Duration::from_micros(20 + rng.next_u64() % 600);
        let err = rt
            .try_run_deadline(deadline, move |m| spin_tree(m, depth))
            .expect_err("spinning trees only end by cancellation");
        assert!(err.is_cancelled(), "run {i}: {err}");
        cancelled += 1;
    }
    assert_eq!(cancelled, 800);
    assert_eq!(completed, 200);
    let s = rt.stats();
    assert_eq!(s.cancel_unwound, cancelled, "one unwind per cancelled run");
    assert!(s.cancel_requested >= cancelled, "every trip was observed");
    assert_clean(&rt, "storm");
    assert_eq!(
        mpl_gc::audit::counters().failures,
        0,
        "storm audit failures"
    );
}

/// Cancellations landing while a collector phase is stretched by an
/// injected delay — LGC shield, LGC evacuate, CGC mark — plus a jittered
/// delay on the unwind path itself. The deadline (4 ms) expires *inside*
/// the stretched phase, so the unwind begins at the first poll point
/// after the collector hands back control, with the heap mid-cycle.
#[test]
fn cancellation_during_stretched_gc_phases_is_sound() {
    let _guard = CANCEL_LOCK.lock().unwrap();
    for (seed, site) in [
        (21u64, "lgc/shield"),
        (22, "lgc/evacuate"),
        (23, "cgc/mark"),
    ] {
        let plan = FailPlan::new(seed)
            .with(site, FailAction::Delay(10_000_000), FailWhen::OneIn(2))
            .with(
                "cancel/unwind",
                FailAction::Delay(1_000_000),
                FailWhen::OneIn(2),
            );
        let rt = Runtime::new(cancel_config(4).with_failpoints(plan));
        let err = rt
            .try_run_deadline(Duration::from_millis(4), entangled_spin)
            .expect_err("the deadline must cancel the entangled spin");
        assert!(err.is_cancelled(), "{site}: {err}");
        assert_clean(&rt, site);
        drop(rt);
        assert_eq!(
            mpl_gc::audit::counters().failures,
            0,
            "{site}: audit failures"
        );
    }
}

/// Cancels arriving at arbitrary moments of a fork-heavy run — including
/// exactly at joins: rapid small forks mean most wall-clock time is
/// join/merge, so jittered external trips land there routinely.
#[test]
fn external_cancels_land_at_joins_soundly() {
    let _guard = CANCEL_LOCK.lock().unwrap();
    for round in 0..12u64 {
        let rt = Runtime::new(cancel_config(4));
        let token = rt.root_cancel().clone();
        let jitter = Duration::from_micros(200 + round * 377);
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(jitter);
            token.cancel();
        });
        // Rapid shallow forks: join churn dominates.
        let out = rt.try_run(|m| {
            let mut acc = 0i64;
            loop {
                let (a, b) = m.fork(
                    |m| {
                        let t = m.alloc_tuple(&[Value::Int(1), Value::Int(2)]);
                        m.tuple_get(t, 0)
                    },
                    |m| {
                        let t = m.alloc_tuple(&[Value::Int(3), Value::Int(4)]);
                        m.tuple_get(t, 1)
                    },
                );
                acc += a.expect_int() + b.expect_int();
                let _ = m.alloc_tuple(&[Value::Int(acc)]);
            }
        });
        canceller.join().unwrap();
        let err = out.expect_err("the loop only ends by cancellation");
        assert!(err.is_cancelled(), "round {round}: {err}");
        assert_clean(&rt, "join-cancel");
        drop(rt);
    }
    assert_eq!(mpl_gc::audit::counters().failures, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fresh-runtime equivalence: a cancelled tree, once quiesced, leaves
    /// the runtime byte-for-byte indistinguishable (live bytes, pins,
    /// parked results, root stacks, and a benchmark checksum) from a
    /// control runtime that never ran it.
    #[test]
    fn cancelled_tree_leaves_runtime_as_if_never_run(
        depth in 0usize..3,
        deadline_us in 50u64..1500,
        entangled in any::<bool>(),
    ) {
        let _guard = CANCEL_LOCK.lock().unwrap();
        let rt = Runtime::new(cancel_config(2));
        let err = rt
            .try_run_deadline(Duration::from_micros(deadline_us), move |m| {
                if entangled {
                    entangled_spin(m)
                } else {
                    spin_tree(m, depth)
                }
            })
            .expect_err("spin workloads only end by cancellation");
        prop_assert!(err.is_cancelled(), "{}", err);
        let control = Runtime::new(cancel_config(2));
        // Identical quiesce sequence on both, then compare. Two rounds:
        // the SATB collector allocates black, so entangled objects whose
        // pins died mid-cycle are floating garbage until the next cycle.
        for r in [&rt, &control] {
            for _ in 0..2 {
                r.run(|m| {
                    m.force_lgc(&mut []);
                    Value::Unit
                });
                r.force_cgc();
            }
        }
        let (a, b) = (rt.stats(), control.stats());
        prop_assert_eq!(a.live_bytes, b.live_bytes, "retained footprint differs");
        prop_assert_eq!(rt.live_root_stacks(), control.live_root_stacks());
        rt.assert_heap_sound();
        let bench = mpl_bench_suite::by_name("primes").unwrap();
        let n = bench.small_n() / 2;
        let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
        let want = control.run(|m| Value::Int(bench.run_mpl(m, n)));
        prop_assert_eq!(got, want, "post-cancel behavior diverged");
    }
}
