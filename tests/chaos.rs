//! Chaos harness: the benchmark suites under seeded random fault
//! schedules, with phase audits on.
//!
//! Every test here asserts the same invariants the paper's soundness
//! argument promises under *any* schedule: checksums match the native
//! baseline, no trace ever reaches a dead object (`lgc_dead_traced`),
//! no audit fails, no pin leaks past the final join — and after an
//! *injected* fault (panic, allocation error), a fresh runtime behaves
//! identically to an uninjected run.
//!
//! The failpoint registry is process-global, so every test that arms a
//! plan serializes on [`CHAOS_LOCK`]; otherwise one test's delay plan
//! would fire inside another's runtime.

use std::sync::Mutex;
use std::time::Duration;

use mpl_runtime::{
    FailAction, FailPlan, FailWhen, GcPolicy, Runtime, RuntimeConfig, StoreConfig, Value,
};

mod common;
use common::quietly;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// The chaos baseline config: real threads, small heaps (lots of
/// collections), audits on.
fn chaos_config(threads: usize) -> RuntimeConfig {
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

/// A seeded schedule of *benign* faults (delays and yields — no panics):
/// the program must still compute the right answer, just on a perturbed
/// interleaving. Sites cover both collectors, the barrier slow tier, and
/// the scheduler.
fn benign_plan(seed: u64) -> FailPlan {
    FailPlan::new(seed)
        .with("lgc/shield", FailAction::Delay(50_000), FailWhen::OneIn(3))
        .with("lgc/evacuate", FailAction::Yield, FailWhen::OneIn(4))
        .with("lgc/retake", FailAction::Delay(20_000), FailWhen::OneIn(5))
        .with("cgc/mark", FailAction::Delay(30_000), FailWhen::OneIn(3))
        .with("cgc/sweep", FailAction::Yield, FailWhen::OneIn(4))
        .with(
            "barrier/read_slow",
            FailAction::Delay(5_000),
            FailWhen::OneIn(7),
        )
        .with("barrier/write_slow", FailAction::Yield, FailWhen::OneIn(7))
        .with("sched/steal", FailAction::Yield, FailWhen::OneIn(6))
        .with(
            "heap/block_map",
            FailAction::Delay(2_000),
            FailWhen::OneIn(9),
        )
}

#[test]
fn entangled_suite_under_seeded_delay_chaos() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    for seed in [1u64, 2, 3] {
        for name in ["dedup", "msqueue", "bfs", "accounts"] {
            let bench = mpl_bench_suite::by_name(name).unwrap();
            let n = bench.small_n() / 2;
            let rt = Runtime::new(chaos_config(4).with_failpoints(benign_plan(seed)));
            let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
            assert_eq!(got, Value::Int(bench.run_native(n)), "{name} seed {seed}");
            rt.assert_heap_sound();
            drop(rt);
        }
        let audit = mpl_gc::audit::counters();
        assert_eq!(audit.failures, 0, "seed {seed}: audit failures");
    }
}

#[test]
fn disentangled_suite_under_seeded_delay_chaos() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    for seed in [1u64, 2, 3] {
        for bench in mpl_bench_suite::all().iter().filter(|b| !b.entangled()) {
            let n = bench.small_n() / 2;
            let rt = Runtime::new(chaos_config(4).with_failpoints(benign_plan(seed)));
            let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
            assert_eq!(
                got,
                Value::Int(bench.run_native(n)),
                "{} seed {seed}",
                bench.name()
            );
            rt.assert_heap_sound();
        }
        assert_eq!(mpl_gc::audit::counters().failures, 0, "seed {seed}");
    }
}

/// CGC pressure variant of the chaos baseline: a low pinned trigger so
/// the concurrent collector actually runs packets during the suite.
fn cgc_chaos_config(threads: usize) -> RuntimeConfig {
    let mut cfg = chaos_config(threads);
    cfg.policy.cgc_trigger_pinned_bytes = 16 * 1024;
    cfg
}

/// Packet-level faults: a panic injected inside one CGC trace/sweep work
/// packet mid-cycle (exercising packet crash-isolation, the repair pass,
/// and the dirty-cycle epilogue), plus delays in the packet and
/// modbuf-flush seams to stretch the windows between hand-offs. With
/// audits on, the suite must still produce native checksums, trace no
/// dead objects, and leak no pins.
#[test]
fn entangled_suite_under_cgc_packet_fault_chaos() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let (mut total_packets, mut total_retries) = (0u64, 0u64);
    for seed in 1u64..=4 {
        for name in ["dedup", "msqueue", "bfs", "accounts"] {
            let plan = FailPlan::new(seed)
                .with("cgc/packet", FailAction::Panic, FailWhen::Nth(2))
                .with("cgc/packet", FailAction::Delay(20_000), FailWhen::OneIn(5))
                .with(
                    "cgc/modbuf-flush",
                    FailAction::Delay(10_000),
                    FailWhen::OneIn(3),
                )
                .with("cgc/mark", FailAction::Yield, FailWhen::OneIn(4))
                .with("cgc/sweep", FailAction::Delay(15_000), FailWhen::OneIn(4));
            let bench = mpl_bench_suite::by_name(name).unwrap();
            let n = bench.small_n() / 2;
            let rt = Runtime::new(cgc_chaos_config(4).with_failpoints(plan));
            let got = quietly(|| rt.run(|m| Value::Int(bench.run_mpl(m, n))))
                .unwrap_or_else(|_| panic!("{name} seed {seed}: packet fault escaped the cycle"));
            assert_eq!(got, Value::Int(bench.run_native(n)), "{name} seed {seed}");
            rt.assert_heap_sound();
            let s = rt.stats();
            total_packets += s.cgc_packets;
            total_retries += s.cgc_packet_retries;
            drop(rt);
        }
        let audit = mpl_gc::audit::counters();
        assert_eq!(audit.failures, 0, "seed {seed}: audit failures");
    }
    // The low trigger guarantees the concurrent collector actually ran,
    // and with a Nth(2) panic armed per runtime at least one packet must
    // have crashed and been re-enqueued somewhere across the matrix.
    assert!(total_packets > 0, "CGC never packetized under pressure");
    assert!(
        total_retries > 0,
        "injected packet panics never exercised the retry path \
         ({total_packets} packets ran)"
    );
}

/// Watchdog false-positive regression: a whole CGC cycle under load at
/// two workers runs longer than the deadline, and were the cycle one
/// phase the watchdog would see it as ever-aging and dump healthy
/// cycles. With benign delays stretching the mark phase and every packet
/// until a cycle outlasts the deadline, no watchdog report may follow —
/// every packet and handshake is a phase of its own.
#[test]
fn whole_cgc_cycle_under_load_does_not_false_stall() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let deadline = Duration::from_millis(50);
    // `steal_schedule`'s refill delay lets the idle worker steal, which
    // puts msqueue's consumer beside its producer: the load entangles and
    // cycles run mid-run (a run that still steals nothing is load enough
    // for what follows).
    let plan = mpl_bench_suite::steal_schedule()
        .with("cgc/mark", FailAction::Delay(3_000_000), FailWhen::OneIn(2))
        .with("cgc/packet", FailAction::Delay(5_000_000), FailWhen::Always);
    let bench = mpl_bench_suite::by_name("msqueue").unwrap();
    let n = bench.small_n();
    let rt = Runtime::new(
        cgc_chaos_config(2)
            .with_failpoints(plan)
            .with_gc_watchdog(deadline),
    );
    let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
    assert_eq!(got, Value::Int(bench.run_native(n)));
    // A mid-run cycle may run early and short. A forced cycle over a
    // session-rooted probe of 16 trace packets (128 refs each), run from
    // this thread one after another, takes at least 16 × 5 ms: it
    // outlasts the deadline by construction.
    let session = rt.new_tenant("probe", 0);
    rt.run_session(&session, |m| {
        for i in 0..16 * 128 {
            let v = m.alloc_tuple(&[Value::Int(i)]);
            m.root(v);
        }
        Value::Unit
    });
    rt.force_cgc();
    rt.retire_session(&session);
    rt.assert_heap_sound();
    assert!(
        rt.stats().cgc_pause_ns_max > deadline.as_nanos() as u64,
        "no cycle outlasted the deadline"
    );
    assert_eq!(
        rt.watchdog_reports(),
        0,
        "healthy cycle must not trip the stall watchdog"
    );
}

#[test]
fn injected_panic_then_fresh_runtime_matches_uninjected_run() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let bench = mpl_bench_suite::by_name("dedup").unwrap();
    let n = bench.small_n() / 2;
    // Reference: an uninjected run.
    let expected = {
        let rt = Runtime::new(chaos_config(4));
        rt.run(|m| Value::Int(bench.run_mpl(m, n)))
    };
    for seed in [1u64, 2, 3] {
        // A panic injected at an LGC phase boundary mid-suite.
        let plan = FailPlan::new(seed).with("lgc/shield", FailAction::Panic, FailWhen::Nth(2));
        let rt = Runtime::new(chaos_config(4).with_failpoints(plan));
        let out = quietly(|| rt.run(|m| Value::Int(bench.run_mpl(m, n))));
        assert!(out.is_err(), "seed {seed}: the injected panic must escape");
        drop(rt);
        // A fresh runtime after the fault behaves identically to the
        // uninjected run.
        let rt2 = Runtime::new(chaos_config(4));
        let got = rt2.run(|m| Value::Int(bench.run_mpl(m, n)));
        assert_eq!(got, expected, "seed {seed}: post-fault run must match");
        rt2.assert_heap_sound();
    }
    assert_eq!(mpl_gc::audit::counters().failures, 0);
}

#[test]
fn injected_alloc_error_surfaces_via_try_run() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let plan = FailPlan::new(7).with("alloc/words", FailAction::Error, FailWhen::Nth(3));
    let rt = Runtime::new(RuntimeConfig::managed().with_failpoints(plan));
    let out = rt.run(|m| m.alloc_ref(Value::Int(1))); // hit 1: fast path misses on a fresh cache
    assert!(matches!(out, Value::Obj(_)));
    let err = rt
        .try_run(|m| {
            // Enough slow-path entries (chunk refills) to reach the 3rd hit.
            let mut v = Value::Unit;
            for i in 0..100_000 {
                v = m.alloc_tuple(&[Value::Int(i), Value::Int(i)]);
            }
            v
        })
        .expect_err("the injected allocation error must surface");
    let err = err.alloc_error().expect("typed outcome is an alloc error");
    assert_eq!(err.limit, 0, "limit==0 flags an injected failure");
    assert!(rt.stats().alloc_failures >= 1);
    assert!(rt.stats().failpoint_fires >= 1);
    // A fresh runtime after the fault works normally.
    drop(rt);
    let rt2 = Runtime::new(RuntimeConfig::managed());
    let got = rt2.try_run(|m| {
        let cell = m.alloc_ref(Value::Int(9));
        m.read_ref(cell)
    });
    assert_eq!(got, Ok(Value::Int(9)));
}

#[test]
fn heap_limit_pressure_is_recoverable_and_fresh_runtime_passes_suite() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    // A budget far below what the program retains live: the escalation
    // ladder (flush → LGC → CGC) cannot save it, so the allocation fails
    // recoverably.
    let rt = Runtime::new(RuntimeConfig::managed().with_heap_limit(64 * 1024));
    let err = rt
        .try_run(|m| {
            // Retain everything: a growing list, rooted at each step.
            let mut list = m.alloc_tuple(&[Value::Unit]);
            let mut h = m.root(list);
            loop {
                list = m.alloc_tuple(&[Value::Int(1), m.get(&h)]);
                h = m.root(list);
            }
        })
        .expect_err("an unbounded retained allocation must exhaust the budget");
    let err = err.alloc_error().expect("typed outcome is an alloc error");
    assert_eq!(err.limit, 64 * 1024);
    assert!(err.live_bytes > 0, "the failure reports the live footprint");
    let s = rt.stats();
    assert!(
        s.gc_forced_by_pressure >= 2,
        "LGC then CGC were forced: {s:?}"
    );
    assert!(s.alloc_retries >= 2, "each forced collection was retried");
    assert_eq!(s.alloc_failures, 1);
    drop(rt);
    // Acceptance: a fresh runtime after the fault passes the full
    // disentangled suite.
    for bench in mpl_bench_suite::all().iter().filter(|b| !b.entangled()) {
        let n = bench.small_n() / 2;
        let rt = Runtime::new(RuntimeConfig::managed());
        let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
        assert_eq!(got, Value::Int(bench.run_native(n)), "{}", bench.name());
    }
}

#[test]
fn heap_limit_forces_collections_but_fitting_programs_succeed() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    // Allocate far more than the budget, but retain almost nothing: the
    // pressure path forces collections and the program completes.
    let rt = Runtime::new(RuntimeConfig::managed().with_heap_limit(256 * 1024));
    let v = rt
        .try_run(|m| {
            let mut last = Value::Unit;
            for i in 0..20_000 {
                last = m.alloc_tuple(&[Value::Int(i)]); // garbage immediately
            }
            last
        })
        .expect("a low-retention program fits any reasonable budget");
    assert!(matches!(v, Value::Obj(_)));
    let s = rt.stats();
    assert_eq!(s.alloc_failures, 0);
    assert!(
        s.alloc_bytes as usize > 256 * 1024,
        "the program allocated well past the budget: {s:?}"
    );
}

#[test]
fn watchdog_survives_an_injected_gc_phase_stall() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    // A 120 ms delay injected inside an LGC phase, with a 40 ms
    // watchdog deadline: the watchdog fires (stderr report; nothing to
    // assert on but absence of harm), the run still completes correctly.
    let plan = FailPlan::new(11).with(
        "lgc/evacuate",
        FailAction::Delay(120_000_000),
        FailWhen::Nth(1),
    );
    let bench = mpl_bench_suite::by_name("msort").unwrap();
    let n = bench.small_n() / 2;
    let rt = Runtime::new(
        chaos_config(2)
            .with_failpoints(plan)
            .with_gc_watchdog(Duration::from_millis(40)),
    );
    let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
    assert_eq!(got, Value::Int(bench.run_native(n)));
    rt.assert_heap_sound();
}

#[test]
fn serving_survives_admission_and_shed_chaos() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    // Seeded faults on the service layer's own sites: admission errors
    // shed requests before they reach the runtime, and yield storms fire
    // exactly while a request is being shed for budget reasons — the
    // moments a degraded server is most fragile. Soundness invariants
    // must hold regardless, and the benign tenant must keep serving.
    use mpl_serve::{Profile, Server, TenantSpec, TrafficConfig};
    for seed in [3u64, 17] {
        let plan = benign_plan(seed)
            .with("serve/admit", FailAction::Error, FailWhen::OneIn(9))
            .with("serve/shed", FailAction::Yield, FailWhen::OneIn(2));
        let rt = Runtime::new(chaos_config(3).with_failpoints(plan));
        let mut srv = Server::new(
            &rt,
            vec![
                TenantSpec::new("benign", 0),
                TenantSpec::new("hot", 192 * 1024)
                    .profile(Profile::Entangled)
                    .payload_scale(48)
                    .cache_slots(256),
            ],
        );
        let rep = srv.run(&TrafficConfig {
            seed,
            requests: 240,
            rate_hz: 100_000.0,
            tenants: 2,
            ..TrafficConfig::default()
        });
        assert!(
            rep.tenants[0].counts.completed > 0,
            "seed {seed}: benign tenant starved"
        );
        assert!(
            rep.shed_total > 0,
            "seed {seed}: no sheds under admission chaos"
        );
        assert_eq!(rt.live_root_stacks(), 2, "seed {seed}: slot leak");
        srv.shutdown();
        assert_eq!(rt.live_root_stacks(), 0, "seed {seed}: root-stack leak");
        rt.assert_heap_sound();
    }
}
