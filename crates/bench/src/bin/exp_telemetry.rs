//! E10 — Always-on telemetry: what the observability layer shows, and
//! what it costs.
//!
//! Three measurements:
//!
//! * **Overhead** — the disentangled suite, telemetry off vs on
//!   (interleaved repetitions, medians). "Off" must be within noise of a
//!   build without the instrumentation (claim 5 discipline: one relaxed
//!   load per emission site); "on" quantifies the always-on price.
//! * **Pause percentiles** — p50/p90/p99/max for LGC and CGC pauses on
//!   both suite classes, from the process-global histograms
//!   (`mpl-obs`), plus the per-phase breakdown.
//! * **Exporter artifacts** — one instrumented entangled run dumped as
//!   `results/telemetry_trace.json` (load in `chrome://tracing` or
//!   Perfetto), `results/telemetry.prom` (Prometheus text format) and
//!   `results/telemetry_report.json`, exactly the documents
//!   `Runtime::telemetry_report` returns.
//!
//! The disentangled invariant is re-checked **with telemetry enabled**:
//! instrumentation must not perturb entanglement accounting (zero pins,
//! zero entangled accesses).
//!
//! `--smoke` runs single repetitions (CI: validates the exporter
//! documents without paying for the full sweep).

use std::time::Duration;

use mpl_bench::{fmt_dur, run_mpl, scale_bench, write_json, Table};
use mpl_obs::Metric;
use mpl_runtime::{Runtime, RuntimeConfig, Value};
use serde::Serialize;

#[derive(Serialize)]
struct OverheadRow {
    name: String,
    t_disabled_us: u128,
    t_enabled_us: u128,
    overhead: f64,
}

#[derive(Serialize)]
struct PauseRow {
    suite: String,
    metric: String,
    count: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    mean_ns: f64,
}

#[derive(Serialize)]
struct E10 {
    smoke: bool,
    reps: usize,
    overhead: Vec<OverheadRow>,
    median_overhead: f64,
    pauses: Vec<PauseRow>,
    trace_events: usize,
    sampler_samples: usize,
}

fn median(xs: &mut [Duration]) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn ns(d: Duration) -> String {
    fmt_dur(d)
}

/// Percentile rows for the metrics that matter per suite class, from the
/// current state of the global registry.
fn pause_rows(suite: &str, metrics: &[Metric], out: &mut Vec<PauseRow>, table: &mut Table) {
    for (metric, snap) in mpl_obs::metric_snapshots() {
        if !metrics.contains(&metric) {
            continue;
        }
        table.row(vec![
            suite.into(),
            metric.name().into(),
            snap.count.to_string(),
            ns(Duration::from_nanos(snap.p50())),
            ns(Duration::from_nanos(snap.p90())),
            ns(Duration::from_nanos(snap.p99())),
            ns(Duration::from_nanos(snap.max)),
        ]);
        out.push(PauseRow {
            suite: suite.into(),
            metric: metric.name().into(),
            count: snap.count,
            p50_ns: snap.p50(),
            p90_ns: snap.p90(),
            p99_ns: snap.p99(),
            max_ns: snap.max,
            mean_ns: snap.mean(),
        });
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 5 };
    println!(
        "E10: runtime telemetry — overhead, pause percentiles, exporters{}\n",
        if smoke { " (smoke)" } else { "" }
    );

    // ------------------------------------------------------------------
    // 1. Overhead: disentangled suite, telemetry off vs on, interleaved.
    // ------------------------------------------------------------------
    let mut overhead_table = Table::new(&["benchmark", "T off", "T on", "overhead"]);
    let mut overhead_rows = Vec::new();
    let mut overheads = Vec::new();
    for bench in mpl_bench_suite::all() {
        if bench.entangled() {
            continue;
        }
        let n = scale_bench(bench.as_ref());
        let mut off = Vec::with_capacity(reps);
        let mut on = Vec::with_capacity(reps);
        for _ in 0..reps {
            let base = run_mpl(bench.as_ref(), n, RuntimeConfig::managed());
            let tele = run_mpl(bench.as_ref(), n, RuntimeConfig::managed().with_telemetry());
            assert_eq!(base.checksum, tele.checksum, "{}", bench.name());
            // Telemetry must not perturb entanglement accounting.
            assert_eq!(
                tele.stats.pins,
                0,
                "{}: disentangled never pins (telemetry on)",
                bench.name()
            );
            assert_eq!(
                tele.stats.entangled_reads + tele.stats.entangled_writes,
                0,
                "{}: no entangled accesses (telemetry on)",
                bench.name()
            );
            off.push(base.wall);
            on.push(tele.wall);
        }
        let (t_off, t_on) = (median(&mut off), median(&mut on));
        let ovh = t_on.as_secs_f64() / t_off.as_secs_f64().max(1e-9) - 1.0;
        overheads.push(ovh);
        overhead_table.row(vec![
            bench.name().into(),
            ns(t_off),
            ns(t_on),
            format!("{:+.1}%", ovh * 100.0),
        ]);
        overhead_rows.push(OverheadRow {
            name: bench.name().into(),
            t_disabled_us: t_off.as_micros(),
            t_enabled_us: t_on.as_micros(),
            overhead: ovh,
        });
    }
    overheads.sort_by(f64::total_cmp);
    let median_overhead = overheads[overheads.len() / 2];
    println!("telemetry overhead (disentangled suite, median of {reps} interleaved reps):");
    print!("{}", overhead_table.render());
    println!("suite median overhead: {:+.1}%\n", median_overhead * 100.0);

    // ------------------------------------------------------------------
    // 2. Pause percentiles per suite class. The registry is process-
    //    global, so reset between phases isolates each class's profile.
    // ------------------------------------------------------------------
    let mut pause_table = Table::new(&["suite", "metric", "count", "p50", "p90", "p99", "max"]);
    let mut pause_rows_json = Vec::new();
    let gc_metrics = [
        Metric::LgcPause,
        Metric::LgcShield,
        Metric::LgcEvacuate,
        Metric::LgcReclaim,
        Metric::CgcPause,
        Metric::CgcMark,
        Metric::CgcSweep,
        Metric::CgcPacket,
    ];

    mpl_obs::reset_metrics();
    for bench in mpl_bench_suite::all() {
        if bench.entangled() {
            continue;
        }
        let n = scale_bench(bench.as_ref());
        run_mpl(bench.as_ref(), n, RuntimeConfig::managed().with_telemetry());
    }
    pause_rows(
        "disentangled",
        &gc_metrics,
        &mut pause_rows_json,
        &mut pause_table,
    );

    mpl_obs::reset_metrics();
    for bench in mpl_bench_suite::all() {
        if !bench.entangled() {
            continue;
        }
        let n = scale_bench(bench.as_ref());
        // CGC-pressure policy so the concurrent collector actually runs
        // (the default 1 MiB trigger rarely fires at suite scale).
        let mut cfg = RuntimeConfig::managed().with_telemetry();
        cfg.policy.cgc_trigger_pinned_bytes = 64 * 1024;
        run_mpl(bench.as_ref(), n, cfg);
    }
    pause_rows(
        "entangled",
        &gc_metrics,
        &mut pause_rows_json,
        &mut pause_table,
    );

    println!("GC pause/phase percentiles (telemetry histograms):");
    print!("{}", pause_table.render());

    // ------------------------------------------------------------------
    // 3. Exporter artifacts from one instrumented entangled run.
    // ------------------------------------------------------------------
    mpl_obs::reset_metrics();
    mpl_obs::clear_spans();
    let bench = mpl_bench_suite::by_name("dedup").expect("known benchmark");
    let n = scale_bench(bench.as_ref());
    let mut cfg = RuntimeConfig::managed().with_telemetry();
    cfg.policy.cgc_trigger_pinned_bytes = 64 * 1024;
    let rt = Runtime::new(cfg);
    let _ = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
    // Let the sampler take at least one observation of the finished heap.
    std::thread::sleep(Duration::from_millis(60));
    let report = rt.telemetry_report();
    let samples = rt.telemetry_samples().len();
    drop(rt);

    let trace_events = report.chrome_trace.matches("\"ph\":").count();
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join("telemetry_trace.json"), &report.chrome_trace);
    let _ = std::fs::write(dir.join("telemetry.prom"), &report.prometheus);
    let _ = std::fs::write(dir.join("telemetry_report.json"), &report.json);
    println!(
        "\nexporters (dedup, n={n}): {trace_events} trace events, {samples} sampler samples, \
         {} prom lines",
        report.prometheus.lines().count()
    );
    assert!(
        report.chrome_trace.starts_with("{\"traceEvents\":["),
        "chrome trace shape"
    );
    assert!(
        report
            .prometheus
            .contains("# TYPE mpl_lgc_pause_seconds histogram"),
        "prometheus histograms present"
    );

    write_json(
        "e10_telemetry",
        &E10 {
            smoke,
            reps,
            overhead: overhead_rows,
            median_overhead,
            pauses: pause_rows_json,
            trace_events,
            sampler_samples: samples,
        },
    );
    println!(
        "wrote results/telemetry_trace.json, results/telemetry.prom, \
         results/telemetry_report.json, results/e10_telemetry.json"
    );
}
