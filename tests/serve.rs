//! Integration tests for the service layer: persistent tenant sessions,
//! per-tenant budget enforcement, failure-path cleanliness, and the
//! deterministic traffic generator.

use std::sync::RwLock;

use proptest::prelude::*;

use mpl_runtime::{FailAction, FailPlan, FailWhen, Runtime, RuntimeConfig};
use mpl_serve::{
    schedule, schedule_digest, ArrivalProcess, Profile, RequestMix, Server, TenantSpec,
    TrafficConfig,
};

/// The failpoint registry is process-global: a plan armed by one test
/// fires in every runtime alive in this binary. The test that arms a plan
/// takes this lock exclusively; every other runtime-creating test takes
/// it shared, so they run in parallel with each other but never under
/// someone else's injected faults. (A poisoned lock only means another
/// test failed; the guard is still good.)
static REGISTRY_LOCK: RwLock<()> = RwLock::new(());

/// Satellite regression: requests that *fail* — injected allocation
/// errors striking inside fork branches mid-request — must leave no
/// trace: no leaked pins, no parked branch results, no stray root-stack
/// registrations, no dead-object traces, and the session keeps serving.
#[test]
fn failed_requests_leak_no_pins_or_registry_entries() {
    let _guard = REGISTRY_LOCK.write().unwrap_or_else(|e| e.into_inner());
    let plan = FailPlan::new(0xfee1).with("alloc/words", FailAction::Error, FailWhen::OneIn(60));
    let audit0 = mpl_gc::audit::counters();
    let rt = Runtime::new(
        RuntimeConfig::managed()
            .with_threads_exact(2)
            .with_audit()
            .with_failpoints(plan),
    );
    let mut srv = Server::new(
        &rt,
        vec![
            TenantSpec::new("ok", 0),
            TenantSpec::new("tangled", 0).profile(Profile::Entangled),
        ],
    );
    assert_eq!(rt.live_root_stacks(), 2, "one stack per tenant session");
    let rep = srv.run(&TrafficConfig {
        seed: 0xfee1,
        requests: 400,
        rate_hz: 200_000.0,
        tenants: 2,
        ..TrafficConfig::default()
    });
    assert!(
        rep.shed_total > 0,
        "injected allocation faults never surfaced"
    );
    assert!(
        rep.completed_total > 0,
        "server stopped serving after faults"
    );
    let s = rt.stats();
    assert_eq!(s.pinned_bytes, 0, "leaked pins after failed requests");
    assert_eq!(s.lgc_dead_traced, 0, "corruption canary");
    assert_eq!(
        rt.live_root_stacks(),
        2,
        "failed requests leaked a slot (a stolen branch's, with its result root)"
    );
    let audit1 = mpl_gc::audit::counters();
    assert_eq!(audit1.failures - audit0.failures, 0, "phase audits");
    srv.shutdown();
    assert_eq!(rt.live_root_stacks(), 0, "retire must drop session roots");
    rt.assert_heap_sound();
}

/// An over-budget tenant is shed by admission control; unbudgeted
/// tenants on the same runtime are untouched and the adversary's own
/// budget never exceeds its limit by more than one admission window.
#[test]
fn budget_isolation_adversary_sheds_victims_serve() {
    let _guard = REGISTRY_LOCK.read().unwrap_or_else(|e| e.into_inner());
    let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
    let mut srv = Server::new(
        &rt,
        vec![
            TenantSpec::new("victim", 0),
            TenantSpec::new("adversary", 192 * 1024)
                .profile(Profile::Entangled)
                .payload_scale(64)
                .cache_slots(256),
        ],
    );
    let rep = srv.run(&TrafficConfig {
        seed: 7,
        requests: 300,
        rate_hz: 100_000.0,
        tenants: 2,
        ..TrafficConfig::default()
    });
    let victim = &rep.tenants[0];
    let adv = &rep.tenants[1];
    assert_eq!(
        victim.counts.shed_budget, 0,
        "victim shed by adversary pressure"
    );
    assert_eq!(victim.counts.completed, victim.counts.admitted);
    assert!(adv.counts.shed_budget > 0, "adversary never shed");
    let b = adv.budget.as_ref().expect("adversary budget");
    assert!(b.sheds > 0);
    assert!(
        b.max_live_bytes < 2 * b.limit,
        "budget enforcement window too loose: peak {} vs limit {}",
        b.max_live_bytes,
        b.limit
    );
    srv.shutdown();
    rt.assert_heap_sound();
}

/// Sessions persist across schedules: a second run on the same server
/// reuses the same root stacks and serves everything.
#[test]
fn sessions_persist_across_runs() {
    let _guard = REGISTRY_LOCK.read().unwrap_or_else(|e| e.into_inner());
    let rt = Runtime::new(RuntimeConfig::managed());
    let mut srv = Server::new(&rt, vec![TenantSpec::new("t", 0)]);
    let t1 = TrafficConfig {
        requests: 150,
        rate_hz: 100_000.0,
        ..TrafficConfig::default()
    };
    let r1 = srv.run(&t1);
    let stacks_between = rt.live_root_stacks();
    let r2 = srv.run(&TrafficConfig { seed: 99, ..t1 });
    assert_eq!(r1.completed_total, 150);
    assert_eq!(r2.completed_total, 150);
    assert_eq!(stacks_between, 1, "between runs: exactly the session stack");
    assert_eq!(rt.live_root_stacks(), 1, "no stolen branch's slot left");
    srv.shutdown();
    rt.assert_heap_sound();
}

/// Satellite: the JSON telemetry mode is machine-readable and the server
/// report's JSON carries the SLO fields CI parses.
#[test]
fn json_reports_are_machine_readable() {
    let _guard = REGISTRY_LOCK.read().unwrap_or_else(|e| e.into_inner());
    let rt = Runtime::new(RuntimeConfig::managed().with_telemetry());
    let mut srv = Server::new(&rt, vec![TenantSpec::new("j", 1 << 20)]);
    let rep = srv.run(&TrafficConfig {
        requests: 80,
        rate_hz: 50_000.0,
        ..TrafficConfig::default()
    });
    let j = rep.to_json();
    for key in [
        "\"schedule_digest\"",
        "\"goodput_rps\"",
        "\"live_slope_bytes_per_s\"",
        "\"gc\"",
        "\"lgc_dead_traced\"",
        "\"tenants\"",
        "\"p99_ns\"",
        "\"budget\"",
        "\"sheds\"",
    ] {
        assert!(j.contains(key), "server report JSON missing {key}: {j}");
    }
    let t = rt.telemetry_report();
    assert!(t.json.starts_with('{') && t.json.ends_with('}'));
    for key in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms_ns\"",
        "\"samples\"",
        "\"live_bytes\"",
        "\"lgc_dead_traced\"",
        "\"blocks_allocated\"",
        "\"blocks_freed\"",
        "\"lines_swept\"",
        "\"cgc_packets\"",
    ] {
        assert!(t.json.contains(key), "telemetry JSON missing {key}");
    }
    srv.shutdown();
}

/// Same seed, different worker counts: the *served* schedule digest and
/// per-tenant admission counts are identical — worker count affects only
/// timing, never what load is offered.
#[test]
fn served_schedule_is_worker_count_independent() {
    let _guard = REGISTRY_LOCK.read().unwrap_or_else(|e| e.into_inner());
    let mut digests = Vec::new();
    let mut admitted = Vec::new();
    for threads in [1, 4] {
        let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(threads));
        let mut srv = Server::new(
            &rt,
            vec![
                TenantSpec::new("a", 0),
                TenantSpec::new("b", 0).profile(Profile::Entangled),
            ],
        );
        let rep = srv.run(&TrafficConfig {
            seed: 0xd15e,
            requests: 200,
            rate_hz: 100_000.0,
            tenants: 2,
            ..TrafficConfig::default()
        });
        digests.push(rep.digest);
        admitted.push(
            rep.tenants
                .iter()
                .map(|t| (t.counts.admitted, t.counts.completed))
                .collect::<Vec<_>>(),
        );
        srv.shutdown();
    }
    assert_eq!(
        digests[0], digests[1],
        "schedule digest varies with threads"
    );
    assert_eq!(admitted[0], admitted[1], "admissions vary with threads");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite: the generator is a pure function of its config — same
    /// seed gives an identical arrival schedule and request mix, for any
    /// process/rate/shape. (Worker count cannot enter: `schedule` takes
    /// no runtime at all.)
    #[test]
    fn traffic_schedule_is_seed_deterministic(
        seed in 0u64..u64::MAX,
        rate_mhz in 1u64..100_000,
        requests in 1usize..500,
        tenants in 1usize..8,
        sessions in 1usize..5,
        poisson in any::<bool>(),
    ) {
        let cfg = TrafficConfig {
            seed,
            rate_hz: rate_mhz as f64 / 10.0,
            requests,
            process: if poisson { ArrivalProcess::Poisson } else { ArrivalProcess::Uniform },
            mix: RequestMix::default(),
            tenants,
            sessions_per_tenant: sessions,
        };
        let a = schedule(&cfg);
        let b = schedule(&cfg);
        prop_assert_eq!(&a, &b, "same config, different schedules");
        prop_assert_eq!(schedule_digest(&a), schedule_digest(&b));
        prop_assert_eq!(a.len(), requests);
        prop_assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        prop_assert!(a.iter().all(|x| x.tenant < tenants && x.session < sessions));
        // A different seed perturbs the digest (overwhelmingly).
        let other = schedule(&TrafficConfig { seed: seed ^ 1, ..cfg.clone() });
        prop_assert!(
            other != a || requests == 0,
            "seed change did not perturb the schedule"
        );
    }
}
