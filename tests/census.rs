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
//!    stall and a heap-limit `AllocError`) each leave a flight recording
//!    on disk, as Chrome-trace JSON, holding an instant for the anomaly
//!    event that tripped them.
//! 4. **Exports** — a census of a heap of over 100 k objects, taken
//!    while an entangled pin is live, sees the pin and the sampled
//!    provenance, and its JSON and Prometheus documents carry every field
//!    and family.
//!
//! The flight ring, dump counter, and `MPL_FLIGHT_DIR` are process-global,
//! so everything here serializes on [`CENSUS_LOCK`].

mod common;

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;

use mpl_runtime::{
    FailAction, FailPlan, FailWhen, GcPolicy, Runtime, RuntimeConfig, StoreConfig, Value,
};

static CENSUS_LOCK: Mutex<()> = Mutex::new(());

/// Live objects in the exported census's heap.
const CENSUS_OBJECTS: i64 = 120_000;
/// Entangled reads by the stolen reader: enough that the 1-in-64
/// provenance sampler keeps some.
const ENTANGLED_READS: usize = 10_000;

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
                if name.contains(reason) && name.ends_with(".json") {
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

/// The args of the first `name` instant in the flight dump at `path`
/// (Chrome-trace JSON), after checking the document is well-formed
/// enough to brace-balance.
fn dump_instant_args(path: &std::path::Path, name: &str) -> Vec<(String, u64)> {
    let trace = std::fs::read_to_string(path).unwrap();
    assert!(trace.starts_with("{\"traceEvents\":[") && trace.ends_with("]}"));
    assert_eq!(
        trace.matches('{').count(),
        trace.matches('}').count(),
        "unbalanced dump {}",
        path.display()
    );
    let instant = format!("\"name\":\"{name}\",\"cat\":\"flight\",\"ph\":\"i\"");
    let at = trace
        .find(&instant)
        .unwrap_or_else(|| panic!("no {name} instant in {}", path.display()));
    let args = &trace[at..];
    let args = &args[args.find("\"args\":{").unwrap() + "\"args\":{".len()..];
    args[..args.find('}').unwrap()]
        .split(',')
        .map(|kv| {
            let (k, v) = kv.split_once(':').unwrap();
            (k.trim_matches('"').to_string(), v.parse().unwrap())
        })
        .collect()
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
/// flight dump holding the stall instant with the deadline it overran
/// (and the run itself still completes correctly).
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
    let args = dump_instant_args(&path, "watchdog_stall");
    let deadline_ns = 40_000_000;
    assert_eq!(
        args[1],
        ("deadline_ns".to_string(), deadline_ns),
        "{args:?}"
    );
    assert_eq!(args[0].0, "phase_age_ns");
    assert!(args[0].1 > deadline_ns, "the phase overran: {args:?}");
    drop(rt);
    std::env::remove_var("MPL_FLIGHT_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A heap-limit `AllocError` dumps a flight recording whose alloc-error
/// instant carries the request size and the budget that was exhausted.
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
    let args = dump_instant_args(&path, "alloc_error");
    let (request, limit_arg) = (&args[0], &args[1]);
    assert_eq!(request.0, "requested_bytes");
    assert!(
        request.1 > 0,
        "the instant records the failing request size"
    );
    assert_eq!(
        *limit_arg,
        ("limit_bytes".to_string(), limit as u64),
        "the instant records the exhausted limit"
    );
    drop(rt);
    std::env::remove_var("MPL_FLIGHT_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A census of a heap of over 100 k objects, taken by a stolen reader
/// while its entangled pin is live, sees the pin and the sampled
/// provenance. Its JSON carries every top-level and class-row field, its
/// Prometheus document every `mpl_census_*` family in well-formed lines,
/// and the run has fed the flight ring a recording that renders as
/// Chrome-trace JSON.
#[test]
fn census_under_a_live_pin_exports_every_field_and_family() {
    let _guard = CENSUS_LOCK.lock().unwrap();
    mpl_obs::reset_provenance();
    mpl_obs::clear_flight();
    let rt = Runtime::new(
        RuntimeConfig::managed()
            .with_telemetry()
            .with_threads_exact(2),
    );
    let mut captured = None;
    rt.run(|m| {
        let mut list = Value::Unit;
        for i in 0..CENSUS_OBJECTS {
            list = m.alloc_tuple(&[Value::Int(i), list]);
        }
        let _keep = m.root(list);
        // The left branch publishes a pair from its own heap; the stolen
        // right branch reads it, pinning it at the fork, and takes the
        // census before the join releases the pin.
        let cell = m.alloc_ref(Value::Unit);
        let c = m.root(cell);
        m.fork_stolen(
            |m| {
                let pair = m.alloc_tuple(&[Value::Int(40), Value::Int(2)]);
                m.write_ref(m.get(&c), pair);
                Value::Unit
            },
            |m| {
                let mut done = 0;
                while done < ENTANGLED_READS {
                    let v = m.read_ref(m.get(&c));
                    if let Value::Obj(_) = v {
                        assert_eq!(m.tuple_get(v, 0).expect_int(), 40);
                        done += 1;
                    }
                }
                m.sync_stats();
                captured = Some(m.runtime().heap_census());
                Value::Unit
            },
        );
        Value::Unit
    });
    let census = captured.expect("the reader took a census");
    assert!(census.objects() >= 100_000, "{} objects", census.objects());
    assert!(census.pinned_objects() >= 1, "the reader's pin is live");
    let prov = mpl_obs::provenance_summary();
    assert!(prov.recorded > 0, "no entangled read was sampled");

    let json = census.to_json();
    let has = |doc: &str, key: &str| doc.contains(&format!("\"{key}\":"));
    for key in [
        "at_ns",
        "heaps",
        "blocks",
        "blocks_issued",
        "live_bytes",
        "objects",
        "pinned_objects",
        "fragmentation",
        "clean_block_ratio",
        "classes",
        "tenants",
        "unattributed",
        "provenance",
        "last_gc",
        "recorded",
        "retained",
        "pinned",
        "by_class",
        "max_depth_gap",
        "mean_depth_gap",
    ] {
        assert!(has(&json, key), "census JSON lacks {key:?}: {json}");
    }
    let classes = &json[json.find("\"classes\":[").unwrap()..json.find("],\"tenants\"").unwrap()];
    let rows: Vec<&str> = classes.split("},{").collect();
    assert_eq!(rows.len(), census.classes.len(), "{classes}");
    for row in rows {
        for key in [
            "class",
            "blocks",
            "entangled_blocks",
            "full_blocks",
            "clean_blocks",
            "capacity_words",
            "allocated_words",
            "lines_total",
            "lines_in_use",
            "lines_marked",
            "objects",
            "pinned_objects",
            "suspect_objects",
            "live_bytes",
            "occupancy",
            "fragmentation",
        ] {
            assert!(has(row, key), "class row lacks {key:?}: {row}");
        }
    }

    let mut prom = mpl_obs::PromWriter::new();
    census.write_prometheus(&mut prom);
    let prom = prom.finish();
    for family in [
        "mpl_census_live_bytes",
        "mpl_census_blocks",
        "mpl_census_objects",
        "mpl_census_pinned_objects",
        "mpl_census_fragmentation_ratio",
        "mpl_census_clean_block_ratio",
        "mpl_census_class_blocks",
        "mpl_census_class_live_bytes",
        "mpl_census_class_occupancy_ratio",
    ] {
        let header = format!("# TYPE {family} gauge\n");
        assert!(prom.contains(&header), "no family {family}");
    }
    assert!(prom.contains("# TYPE mpl_census_entanglement_samples_total counter\n"));
    assert!(common::prometheus_samples(&prom) > 0);

    let flight = mpl_obs::flight_snapshot();
    assert!(!flight.is_empty(), "the run fed the flight ring nothing");
    let trace = mpl_obs::flight_chrome_trace(&flight);
    assert!(
        trace.starts_with("{\"traceEvents\":[{"),
        "empty flight trace"
    );
}
