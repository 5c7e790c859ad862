//! Heap-census fidelity and flight-recorder post-mortem tests.
//!
//! Three claims the observability layer makes:
//!
//! 1. **Fidelity** — `Runtime::heap_census()` is computed from per-block
//!    side metadata, while the live-bytes gauge is maintained by
//!    allocation/reclaim deltas. After a forced LGC + CGC quiesces the
//!    heap, the two independent accountings must agree *exactly*, on any
//!    object graph — checked property-style over random shapes (retained
//!    lists, churned garbage, entangled cross-heap reads, nested forks).
//! 2. **Attribution** — per-class and per-tenant census rows partition
//!    the whole-heap totals; a budgeted tenant session's blocks show up
//!    under its name, keyed off `TenantBudget` heap ownership.
//! 3. **Post-mortem** — the two automatic dump triggers (a GC-watchdog
//!    stall and a heap-limit `AllocError`) each leave a decodable flight
//!    recording on disk containing the anomaly event that tripped them.
//!
//! The flight ring, dump counter, and `MPL_FLIGHT_DIR` are process-global,
//! so everything here serializes on [`CENSUS_LOCK`].

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;

use mpl_runtime::{
    FailAction, FailPlan, FailWhen, GcPolicy, Runtime, RuntimeConfig, StoreConfig, Value,
};

static CENSUS_LOCK: Mutex<()> = Mutex::new(());

/// Small blocks and low triggers so collections actually happen at the
/// scales proptest drives.
fn census_config(threads: usize) -> RuntimeConfig {
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

/// Waits for an automatic flight dump whose filename contains `reason`
/// to appear in `dir` (the watchdog dumps from its own thread).
fn wait_for_dump(dir: &std::path::Path, reason: &str) -> PathBuf {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                if name.contains(reason) && name.ends_with(".bin") {
                    return e.path();
                }
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no '{reason}' flight dump appeared in {}",
            dir.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A fresh per-test dump directory, exported via `MPL_FLIGHT_DIR`.
fn fresh_dump_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpl-census-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("MPL_FLIGHT_DIR", &dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fidelity on random graphs: side-metadata census == gauge after
    /// forced LGC + CGC, and the class/tenant rows partition the totals.
    #[test]
    fn census_live_bytes_matches_gauge_after_forced_gcs(
        retain in 1usize..400,
        junk in 0usize..400,
        wide in 0usize..24,
        reads in 1usize..32,
        nest in 0usize..2,
    ) {
        let _guard = CENSUS_LOCK.lock().unwrap();
        let rt = Runtime::new(census_config(2));
        rt.run(|m| {
            // Retained cons list (class 0) plus some wider tuples so
            // multiple size classes participate.
            let mut list = Value::Unit;
            for i in 0..retain as i64 {
                list = m.alloc_tuple(&[Value::Int(i), list]);
            }
            let _keep = m.root(list);
            let fat = [Value::Int(7); 14];
            for _ in 0..wide {
                let t = m.alloc_tuple(&fat);
                let _h = m.root(t);
            }
            // Immediately-dead churn the collectors must reclaim.
            for i in 0..junk as i64 {
                let _ = m.alloc_tuple(&[Value::Int(i)]);
            }
            // Entangled edge(s): a sibling reads tuples the other branch
            // published, pinning them at the LCA; optionally one level
            // deeper so owner/reader depths differ by more than one.
            let cell = m.alloc_ref(Value::Unit);
            let c = m.root(cell);
            let _ = m.fork(
                |m| {
                    let publish = |m: &mut mpl_runtime::Mutator<'_>| {
                        let t = m.alloc_tuple(&[Value::Int(40), Value::Int(2)]);
                        m.write_ref(m.get(&c), t);
                        Value::Unit
                    };
                    if nest == 1 {
                        let (a, _) = m.fork(publish, |_| Value::Unit);
                        a
                    } else {
                        publish(m)
                    }
                },
                |m| {
                    let mut seen = 0i64;
                    let mut done = 0usize;
                    while done < reads {
                        let v = m.read_ref(m.get(&c));
                        if let Value::Obj(_) = v {
                            seen += m.tuple_get(v, 0).expect_int();
                            done += 1;
                        }
                    }
                    Value::Int(seen)
                },
            );
            m.force_lgc(&mut []);
            Value::Unit
        });
        rt.force_cgc();
        let census = rt.heap_census();
        let gauge = rt.stats().live_bytes as u64;
        prop_assert_eq!(
            census.live_bytes, gauge,
            "census side-metadata total vs live-bytes gauge"
        );
        let class_sum: u64 = census.classes.iter().map(|c| c.live_bytes).sum();
        prop_assert_eq!(class_sum, census.live_bytes, "classes partition the heap");
        let attributed: u64 = census.tenants.iter().map(|t| t.live_bytes).sum();
        prop_assert_eq!(
            attributed + census.unattributed_live_bytes,
            census.live_bytes,
            "tenant rows + unattributed partition the heap"
        );
        let block_sum: u64 = census.classes.iter().map(|c| c.blocks).sum();
        prop_assert_eq!(block_sum, census.blocks, "classes partition the blocks");
    }
}

/// A budgeted tenant session's retained data is attributed to its row.
#[test]
fn census_attributes_budgeted_tenant_sessions() {
    let _guard = CENSUS_LOCK.lock().unwrap();
    let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
    let a = rt.new_tenant("tenant-a", 1 << 20);
    let b = rt.new_tenant("tenant-b", 0); // unlimited, accounting only
    for (session, n) in [(&a, 200i64), (&b, 50i64)] {
        rt.try_run_session(session, move |m| {
            let mut list = Value::Unit;
            for i in 0..n {
                list = m.alloc_tuple(&[Value::Int(i), list]);
            }
            let _keep = m.root(list);
            Value::Unit
        })
        .unwrap();
    }
    let census = rt.heap_census();
    let row = |name: &str| {
        census
            .tenants
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("census lost tenant {name}"))
    };
    let (ra, rb) = (row("tenant-a"), row("tenant-b"));
    assert!(
        ra.live_bytes > 0 && ra.blocks > 0,
        "tenant-a attribution: {ra:?}"
    );
    assert!(
        rb.live_bytes > 0 && rb.blocks > 0,
        "tenant-b attribution: {rb:?}"
    );
    assert!(
        ra.live_bytes > rb.live_bytes,
        "the 4x-retaining tenant must show more live bytes: {ra:?} vs {rb:?}"
    );
    assert_eq!(ra.budget_limit, 1 << 20);
    assert_eq!(rb.budget_limit, 0);
    // The budget's own gauge and the side-metadata agree on order of
    // magnitude (the budget charges logical bytes at allocation time).
    assert!(ra.budget_live_bytes > 0);
    rt.retire_session(&a);
    rt.retire_session(&b);
}

/// An injected GC-phase stall trips the watchdog, which must leave a
/// decodable flight recording containing the stall event (and the run
/// itself still completes correctly).
#[test]
fn watchdog_stall_dumps_a_parseable_flight_recording() {
    let _guard = CENSUS_LOCK.lock().unwrap();
    let dir = fresh_dump_dir("stall");
    let plan = FailPlan::new(11).with(
        "lgc/evacuate",
        FailAction::Delay(120_000_000),
        FailWhen::Nth(1),
    );
    let bench = mpl_bench_suite::by_name("msort").unwrap();
    let n = bench.small_n() / 2;
    let rt = Runtime::new(
        census_config(2)
            .with_telemetry()
            .with_failpoints(plan)
            .with_gc_watchdog(Duration::from_millis(40)),
    );
    let got = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
    assert_eq!(got, Value::Int(bench.run_native(n)));
    let path = wait_for_dump(&dir, "watchdog-stall");
    let events = mpl_obs::flight_decode(&std::fs::read(&path).unwrap())
        .unwrap_or_else(|e| panic!("undecodable stall dump {}: {e}", path.display()));
    assert!(
        events
            .iter()
            .any(|e| e.kind == mpl_obs::FlightKind::Event && e.code == mpl_obs::EV_WATCHDOG_STALL),
        "stall dump holds {} records but no watchdog event",
        events.len()
    );
    // The decoder's rendering of the same records is valid Chrome-trace
    // JSON (well-formed enough to brace-balance).
    let trace = mpl_obs::flight_chrome_trace(&events);
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert_eq!(
        trace.matches('{').count(),
        trace.matches('}').count(),
        "unbalanced chrome trace"
    );
    drop(rt);
    std::env::remove_var("MPL_FLIGHT_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A heap-limit `AllocError` dumps a decodable flight recording whose
/// alloc-error event carries the budget that was exhausted.
#[test]
fn heap_limit_alloc_error_dumps_a_parseable_flight_recording() {
    let _guard = CENSUS_LOCK.lock().unwrap();
    let dir = fresh_dump_dir("alloc");
    let limit = 64 * 1024;
    let rt = Runtime::new(
        RuntimeConfig::managed()
            .with_telemetry()
            .with_heap_limit(limit),
    );
    let err = rt
        .try_run(|m| {
            let mut list = m.alloc_tuple(&[Value::Unit]);
            let mut h = m.root(list);
            loop {
                list = m.alloc_tuple(&[Value::Int(1), m.get(&h)]);
                h = m.root(list);
            }
        })
        .expect_err("an unbounded retained allocation must exhaust the budget");
    let err = err.alloc_error().expect("typed outcome is an alloc error");
    assert_eq!(err.limit, limit);
    let path = wait_for_dump(&dir, "alloc-error");
    let events = mpl_obs::flight_decode(&std::fs::read(&path).unwrap())
        .unwrap_or_else(|e| panic!("undecodable alloc dump {}: {e}", path.display()));
    let ev = events
        .iter()
        .find(|e| e.kind == mpl_obs::FlightKind::Event && e.code == mpl_obs::EV_ALLOC_ERROR)
        .expect("alloc-error dump holds the alloc-error event");
    assert_eq!(ev.b, limit as u64, "the event records the exhausted limit");
    assert!(ev.a > 0, "the event records the failing request size");
    drop(rt);
    std::env::remove_var("MPL_FLIGHT_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}
