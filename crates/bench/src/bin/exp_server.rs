//! E12 — mpl-serve: long-running multi-tenant serving with per-tenant
//! heap budgets, open-loop load, and SLO reporting.
//!
//! Three measurements on one persistent runtime per run:
//!
//! * **Arrival-rate sweep** — the standard three-tenant mix (a
//!   disentangled web tenant, an entangled feed tenant, a payload-heavy
//!   batch tenant) under a seeded open-loop Poisson schedule at several
//!   offered rates. Reports per-tenant p50/p99/p999 latency, goodput,
//!   shed counts, GC pause overlap and the live-bytes slope: the steady
//!   state must be flat (slope ≈ 0) even over minutes of traffic.
//! * **Budget isolation** — the same victim tenants with a fourth slot
//!   filled either by a benign control twin or by an adversary that
//!   retains huge entangled payloads against a small budget. The
//!   adversary must be shed by admission control while the victims'
//!   p99 stays within 10% of the control run — budget pressure must not
//!   leak across tenants.
//! * **CI gate numbers** — the smoke run (fixed seed/rate, audits on)
//!   writes `results/e12_server.json` plus the runtime's JSON telemetry
//!   report; CI asserts zero dead-object traces, zero audit failures, a
//!   bounded p99 and a flat live-bytes slope.
//!
//! `--smoke` shrinks every schedule to a couple of seconds; `MPL_SCALE`
//! scales the full run's duration.

use mpl_bench::{scaled, write_json, Table};
use mpl_runtime::{Runtime, RuntimeConfig};
use mpl_serve::{ArrivalProcess, Profile, Server, ServerReport, TenantSpec, TrafficConfig};
use serde::Serialize;

const SEED: u64 = 0x0e12_5eed;

#[derive(Serialize)]
struct TenantRow {
    tenant: String,
    admitted: u64,
    completed: u64,
    shed: u64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    goodput_rps: f64,
    budget_sheds: u64,
}

#[derive(Serialize)]
struct SweepRow {
    rate_hz: f64,
    offered: usize,
    completed: u64,
    shed: u64,
    goodput_rps: f64,
    gc_pause_overlap_pct: f64,
    live_slope_bytes_per_s: f64,
    live_samples: usize,
    schedule_digest: u64,
    tenants: Vec<TenantRow>,
}

#[derive(Serialize)]
struct Isolation {
    rate_hz: f64,
    control_victim_p99_us: f64,
    adversary_victim_p99_us: f64,
    victim_p99_ratio: f64,
    adversary_shed: u64,
    adversary_completed: u64,
    adversary_budget_sheds: u64,
    adversary_peak_kib: u64,
    adversary_limit_kib: u64,
}

#[derive(Serialize)]
struct E12 {
    smoke: bool,
    seed: u64,
    lgc_dead_traced: u64,
    audit_failures: u64,
    worst_p99_us: f64,
    worst_live_slope_bytes_per_s: f64,
    sweep: Vec<SweepRow>,
    isolation: Isolation,
}

fn victims() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("web", 8 << 20).cache_slots(128),
        TenantSpec::new("feed", 8 << 20).profile(Profile::Entangled),
        TenantSpec::new("batch", 16 << 20).payload_scale(4),
    ]
}

fn server_config() -> RuntimeConfig {
    RuntimeConfig::managed().with_telemetry().with_audit()
}

fn run_once(specs: Vec<TenantSpec>, traffic: &TrafficConfig) -> ServerReport {
    let rt = Runtime::new(server_config());
    let tenants = specs.len();
    let mut srv = Server::new(&rt, specs);
    let rep = srv.run(traffic);
    // Quiescent invariants every run must leave behind.
    rt.assert_heap_sound();
    assert_eq!(rt.live_root_stacks(), tenants, "leaked branch slots");
    srv.shutdown();
    assert_eq!(rt.live_root_stacks(), 0, "leaked session roots");
    // The last runtime's telemetry doubles as the CI artifact.
    let report = rt.telemetry_report();
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/e12_telemetry.json", &report.json);
    rep
}

fn tenant_rows(rep: &ServerReport) -> Vec<TenantRow> {
    rep.tenants
        .iter()
        .map(|t| TenantRow {
            tenant: t.name.clone(),
            admitted: t.counts.admitted,
            completed: t.counts.completed,
            shed: t.counts.shed_budget + t.counts.shed_injected,
            p50_us: t.p50_ns as f64 / 1e3,
            p99_us: t.p99_ns as f64 / 1e3,
            p999_us: t.p999_ns as f64 / 1e3,
            goodput_rps: t.goodput_rps,
            budget_sheds: t.budget.as_ref().map_or(0, |b| b.sheds),
        })
        .collect()
}

/// Victims' worst p99 (µs) across the first three tenants.
fn victim_p99_us(rep: &ServerReport) -> f64 {
    rep.tenants
        .iter()
        .take(3)
        .map(|t| t.p99_ns as f64 / 1e3)
        .fold(0.0, f64::max)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    mpl_fail::init_from_env();

    // Duration per measured run, seconds. Full runs are minutes-scale
    // (3 sweep rates + 2 isolation runs), smoke is a couple of seconds.
    let dur_s: f64 = if smoke { 2.0 } else { scaled(40) as f64 };
    let rates: Vec<f64> = if smoke {
        vec![300.0]
    } else {
        vec![200.0, 500.0, 1000.0]
    };

    let audit0 = mpl_gc::audit::counters();
    let mut dead = 0u64;
    let mut worst_p99 = 0.0f64;
    let mut worst_slope = 0.0f64;

    // ---- arrival-rate sweep --------------------------------------------
    let mut sweep = Vec::new();
    let mut sweep_table = Table::new(&[
        "rate",
        "offered",
        "completed",
        "shed",
        "goodput",
        "p99(web)",
        "p99(feed)",
        "p99(batch)",
        "gc-ovl%",
        "slope B/s",
    ]);
    for &rate in &rates {
        let traffic = TrafficConfig {
            seed: SEED,
            rate_hz: rate,
            requests: (rate * dur_s) as usize,
            process: ArrivalProcess::Poisson,
            tenants: 3,
            sessions_per_tenant: 2,
            ..TrafficConfig::default()
        };
        let rep = run_once(victims(), &traffic);
        dead += rep.gc.lgc_dead_traced;
        worst_p99 = worst_p99.max(victim_p99_us(&rep));
        worst_slope = if rep.live_slope_bytes_per_s.abs() > worst_slope.abs() {
            rep.live_slope_bytes_per_s
        } else {
            worst_slope
        };
        println!("-- rate {rate} rps --");
        println!("{}", rep.render_table());
        sweep_table.row(vec![
            format!("{rate:.0}"),
            rep.offered.to_string(),
            rep.completed_total.to_string(),
            rep.shed_total.to_string(),
            format!("{:.0}", rep.goodput_rps),
            format!("{:.1}", rep.tenants[0].p99_ns as f64 / 1e3),
            format!("{:.1}", rep.tenants[1].p99_ns as f64 / 1e3),
            format!("{:.1}", rep.tenants[2].p99_ns as f64 / 1e3),
            format!("{:.2}", rep.gc.pause_overlap_pct),
            format!("{:+.0}", rep.live_slope_bytes_per_s),
        ]);
        sweep.push(SweepRow {
            rate_hz: rate,
            offered: rep.offered,
            completed: rep.completed_total,
            shed: rep.shed_total,
            goodput_rps: rep.goodput_rps,
            gc_pause_overlap_pct: rep.gc.pause_overlap_pct,
            live_slope_bytes_per_s: rep.live_slope_bytes_per_s,
            live_samples: rep.live_samples,
            schedule_digest: rep.digest,
            tenants: tenant_rows(&rep),
        });
    }
    println!("E12a: open-loop arrival-rate sweep (seed {SEED:#x})");
    println!("{}", sweep_table.render());

    // ---- budget isolation ----------------------------------------------
    // Same seed and rate; slot 3 is a benign control twin in the first
    // run and the adversary in the second, so tenants 0..2 receive an
    // identical arrival stream in both.
    let iso_rate = if smoke { 300.0 } else { 500.0 };
    let iso_traffic = TrafficConfig {
        seed: SEED ^ 0xadd,
        rate_hz: iso_rate,
        requests: (iso_rate * dur_s) as usize,
        process: ArrivalProcess::Poisson,
        tenants: 4,
        sessions_per_tenant: 2,
        ..TrafficConfig::default()
    };
    let mut control_specs = victims();
    control_specs.push(TenantSpec::new("ctrl", 16 << 20));
    let control = run_once(control_specs, &iso_traffic);
    let mut adv_specs = victims();
    adv_specs.push(
        TenantSpec::new("hog", 256 * 1024)
            .profile(Profile::Entangled)
            .payload_scale(64)
            .cache_slots(256),
    );
    let adversary = run_once(adv_specs, &iso_traffic);
    dead += control.gc.lgc_dead_traced + adversary.gc.lgc_dead_traced;
    worst_p99 = worst_p99.max(victim_p99_us(&adversary));
    let hog = &adversary.tenants[3];
    let iso = Isolation {
        rate_hz: iso_rate,
        control_victim_p99_us: victim_p99_us(&control),
        adversary_victim_p99_us: victim_p99_us(&adversary),
        victim_p99_ratio: victim_p99_us(&adversary) / victim_p99_us(&control).max(1e-9),
        adversary_shed: hog.counts.shed_budget + hog.counts.shed_injected,
        adversary_completed: hog.counts.completed,
        adversary_budget_sheds: hog.budget.as_ref().map_or(0, |b| b.sheds),
        adversary_peak_kib: hog
            .budget
            .as_ref()
            .map_or(0, |b| b.max_live_bytes as u64 / 1024),
        adversary_limit_kib: hog.budget.as_ref().map_or(0, |b| b.limit as u64 / 1024),
    };
    println!("E12b: budget isolation at {iso_rate} rps");
    println!("control (benign 4th tenant):\n{}", control.render_table());
    println!(
        "adversary (hog, 256 KiB budget, 64x entangled payloads):\n{}",
        adversary.render_table()
    );
    println!(
        "victim p99: control {:.1}µs vs adversary {:.1}µs (ratio {:.3}); hog shed {} of {} offered",
        iso.control_victim_p99_us,
        iso.adversary_victim_p99_us,
        iso.victim_p99_ratio,
        iso.adversary_shed,
        hog.counts.admitted + iso.adversary_shed,
    );
    assert!(iso.adversary_shed > 0, "adversary was never shed");

    let audit1 = mpl_gc::audit::counters();
    let payload = E12 {
        smoke,
        seed: SEED,
        lgc_dead_traced: dead,
        audit_failures: audit1.failures - audit0.failures,
        worst_p99_us: worst_p99,
        worst_live_slope_bytes_per_s: worst_slope,
        sweep,
        isolation: iso,
    };
    assert_eq!(payload.lgc_dead_traced, 0, "corruption canary");
    assert_eq!(payload.audit_failures, 0, "phase audits");
    write_json("e12_server", &payload);
    println!("results/e12_server.json + results/e12_telemetry.json written");
}
