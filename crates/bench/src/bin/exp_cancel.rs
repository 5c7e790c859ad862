//! E16 — Cooperative cancellation & deadlines: bounded unwind latency,
//! the disabled cost of the poll points, and deadline-driven overload
//! behaviour in mpl-serve.
//!
//! Three measurements:
//!
//! * **Cancel-to-unwound latency vs tree depth** — a binary fork tree of
//!   depth 2/4/6/8 whose leaves spin allocating fresh garbage forever is
//!   run under a short `try_run_deadline`. Every cancelled run records
//!   one `Metric::CancelUnwind` sample (token trip → run fully
//!   unwound); per depth we report p50/p99/max over the batch. The
//!   claim: cancellation latency is bounded by the poll interval plus
//!   join/merge work, so p99 stays around a millisecond even at depth 8
//!   (2^8 = 256 spinning leaves).
//! * **Disabled cost** — the disentangled suite, plain `try_run` vs
//!   `try_run_deadline` with a deadline that never fires (one hour).
//!   The deadline arms the token and every allocation poll point, so
//!   this prices the machinery when nothing cancels; the delta must be
//!   within noise (the poll is one relaxed load on the allocation slow
//!   path).
//! * **Serve overload sweep** — the three-tenant mix with a
//!   deliberately strict per-request timeout on the batch tenant,
//!   driven at increasing offered rates. Reports per-tenant timeouts,
//!   retries, breaker opens, breaker/brownout sheds and degraded
//!   serves; the strict tenant's breaker must open under its own
//!   timeouts while the untimed web tenant keeps completing.
//!
//! `--smoke` runs single repetitions and one sweep rate; `MPL_SCALE`
//! scales the full suite sizes as usual.

use std::time::{Duration, Instant};

use mpl_bench::{fmt_dur, scale_bench, write_json, Table};
use mpl_runtime::{CancelReason, Cancelled, Mutator, RunError, Runtime, RuntimeConfig, Value};
use mpl_serve::{ArrivalProcess, Profile, Server, TenantSpec, TrafficConfig};
use serde::Serialize;

const SEED: u64 = 0x0e16_5eed;

#[derive(Serialize)]
struct DepthRow {
    depth: u32,
    cancelled_runs: u64,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

#[derive(Serialize)]
struct CostRow {
    name: String,
    t_plain_us: u128,
    t_deadline_us: u128,
    delta: f64,
}

#[derive(Serialize)]
struct OverloadRow {
    rate_hz: f64,
    offered: usize,
    completed: u64,
    web_p99_us: f64,
    timed_out: u64,
    retried: u64,
    breaker_opens: u64,
    breaker_shed: u64,
    brownout_shed: u64,
    degraded: u64,
}

#[derive(Serialize)]
struct E16 {
    smoke: bool,
    reps: usize,
    latency: Vec<DepthRow>,
    worst_p99_ns: u64,
    cost: Vec<CostRow>,
    median_deadline_delta: f64,
    overload: Vec<OverloadRow>,
    lgc_dead_traced: u64,
    audit_failures: u64,
}

fn median(xs: &mut [Duration]) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// A binary fork tree whose leaves allocate fresh garbage forever. Only
/// a cancellation ends it: the allocation poll points trip the deadline
/// and the `Cancelled` unwind joins every spinning sibling.
fn spin_tree(m: &mut Mutator<'_>, depth: u32) -> Value {
    if depth == 0 {
        loop {
            let v = m.alloc_ref(Value::Int(1));
            std::hint::black_box(&v);
        }
    }
    m.fork(|m| spin_tree(m, depth - 1), |m| spin_tree(m, depth - 1));
    Value::Unit
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 2 } else { 5 };
    mpl_fail::init_from_env();
    // Thousands of runs below end by design in a `Cancelled` unwind;
    // keep those off stderr but let real panics report normally.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<Cancelled>().is_none() {
            default_hook(info);
        }
    }));
    println!(
        "E16: cancellation — unwind latency, disabled cost, serve overload{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let audit0 = mpl_gc::audit::counters();

    // ------------------------------------------------------------------
    // 1. Cancel-to-unwound latency vs fork-tree depth.
    // ------------------------------------------------------------------
    let cancels_per_depth: u64 = if smoke { 8 } else { 40 };
    let mut latency_table = Table::new(&["depth", "leaves", "cancels", "p50", "p99", "max"]);
    let mut latency_rows = Vec::new();
    let mut worst_p99 = 0u64;
    for &depth in &[2u32, 4, 6, 8] {
        let rt = Runtime::new(
            RuntimeConfig::managed()
                .with_threads_exact(4)
                .with_telemetry(),
        );
        // One uncounted warmup cancel: the first run pays worker spin-up,
        // which is not unwind latency.
        let _ = rt
            .try_run_deadline(Duration::from_micros(500), |m| spin_tree(m, depth))
            .expect_err("warmup run must also be cancelled");
        mpl_obs::histogram(mpl_obs::Metric::CancelUnwind).reset();
        for _ in 0..cancels_per_depth {
            let err = rt
                .try_run_deadline(Duration::from_micros(500), |m| spin_tree(m, depth))
                .expect_err("a spinning tree can only end by cancellation");
            match err {
                RunError::Cancelled(c) => assert_eq!(c.reason, CancelReason::Deadline),
                other => panic!("unexpected run error: {other:?}"),
            }
        }
        let h = mpl_obs::histogram(mpl_obs::Metric::CancelUnwind).snapshot();
        assert_eq!(
            h.count, cancels_per_depth,
            "every cancelled run records exactly one unwind-latency sample"
        );
        rt.assert_heap_sound();
        worst_p99 = worst_p99.max(h.p99());
        latency_table.row(vec![
            depth.to_string(),
            (1u64 << depth).to_string(),
            h.count.to_string(),
            fmt_dur(Duration::from_nanos(h.p50())),
            fmt_dur(Duration::from_nanos(h.p99())),
            fmt_dur(Duration::from_nanos(h.max)),
        ]);
        latency_rows.push(DepthRow {
            depth,
            cancelled_runs: h.count,
            p50_ns: h.p50(),
            p99_ns: h.p99(),
            max_ns: h.max,
        });
    }
    println!("cancel-to-unwound latency ({cancels_per_depth} cancelled runs per depth):");
    print!("{}", latency_table.render());
    // Generous in-binary bound (CI runs this in debug under chaos); the
    // recorded JSON carries the real release numbers for EXPERIMENTS.md.
    assert!(
        worst_p99 < 50_000_000,
        "cancel-to-unwound p99 {worst_p99} ns — unwinding is not bounded"
    );

    // ------------------------------------------------------------------
    // 2. Disabled cost: plain try_run vs an armed never-firing deadline.
    // ------------------------------------------------------------------
    let mut cost_table = Table::new(&["benchmark", "T plain", "T deadline", "delta"]);
    let mut cost_rows = Vec::new();
    let mut deltas = Vec::new();
    for bench in mpl_bench_suite::all() {
        if bench.entangled() {
            continue;
        }
        let n = scale_bench(bench.as_ref());
        let (mut plain, mut armed) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let rt = Runtime::new(RuntimeConfig::managed());
            let t = Instant::now();
            let a = rt
                .try_run(|m| Value::Int(bench.run_mpl(m, n)))
                .expect("suite benchmark")
                .expect_int();
            plain.push(t.elapsed());
            drop(rt);
            let rt = Runtime::new(RuntimeConfig::managed());
            let t = Instant::now();
            let b = rt
                .try_run_deadline(Duration::from_secs(3600), |m| {
                    Value::Int(bench.run_mpl(m, n))
                })
                .expect("the one-hour deadline never fires")
                .expect_int();
            armed.push(t.elapsed());
            assert_eq!(a, b, "{}", bench.name());
        }
        let (t_plain, t_armed) = (median(&mut plain), median(&mut armed));
        let delta = t_armed.as_secs_f64() / t_plain.as_secs_f64().max(1e-9) - 1.0;
        deltas.push(delta);
        cost_table.row(vec![
            bench.name().into(),
            fmt_dur(t_plain),
            fmt_dur(t_armed),
            format!("{:+.1}%", delta * 100.0),
        ]);
        cost_rows.push(CostRow {
            name: bench.name().into(),
            t_plain_us: t_plain.as_micros(),
            t_deadline_us: t_armed.as_micros(),
            delta,
        });
    }
    deltas.sort_by(f64::total_cmp);
    let median_deadline_delta = deltas[deltas.len() / 2];
    println!("\narmed-deadline cost (disentangled suite, median of {reps} interleaved reps):");
    print!("{}", cost_table.render());
    println!(
        "suite median delta: {:+.1}%\n",
        median_deadline_delta * 100.0
    );

    // ------------------------------------------------------------------
    // 3. Serve overload sweep: strict timeouts, retries, breaker,
    //    brownout under increasing offered load.
    // ------------------------------------------------------------------
    let rates: Vec<f64> = if smoke {
        vec![600.0]
    } else {
        vec![500.0, 1500.0, 4000.0]
    };
    let dur_s: f64 = if smoke { 1.5 } else { 8.0 };
    let mut overload_table = Table::new(&[
        "rate",
        "offered",
        "completed",
        "p99(web)",
        "timeouts",
        "retries",
        "brk-open",
        "brk-shed",
        "brownout",
        "degraded",
    ]);
    let mut overload_rows = Vec::new();
    let mut dead = 0u64;
    for &rate in &rates {
        let rt = Runtime::new(RuntimeConfig::managed().with_telemetry().with_audit());
        let mut srv = Server::new(
            &rt,
            vec![
                TenantSpec::new("web", 8 << 20).cache_slots(128),
                TenantSpec::new("feed", 8 << 20)
                    .profile(Profile::Entangled)
                    .timeout(Duration::from_millis(5))
                    .retries(1)
                    .backoff(Duration::from_micros(50)),
                // The strict tenant: a timeout below any real request's
                // service time, one retry, tight backoff. Every request
                // times out, the retry times out again, the breaker
                // opens — the deadline-storm and breaker paths are the
                // thing under test.
                TenantSpec::new("strict", 16 << 20)
                    .payload_scale(4)
                    .timeout(Duration::from_nanos(1))
                    .retries(1)
                    .backoff(Duration::from_micros(20)),
            ],
        );
        let rep = srv.run(&TrafficConfig {
            seed: SEED,
            rate_hz: rate,
            requests: (rate * dur_s) as usize,
            process: ArrivalProcess::Poisson,
            tenants: 3,
            sessions_per_tenant: 2,
            ..TrafficConfig::default()
        });
        rt.assert_heap_sound();
        srv.shutdown();
        dead += rep.gc.lgc_dead_traced;
        let web = &rep.tenants[0];
        let strict = &rep.tenants[2].counts;
        assert!(
            strict.timed_out > 0,
            "rate {rate}: the 1 ns timeout must fire"
        );
        assert!(
            strict.breaker_opens > 0,
            "rate {rate}: consecutive timeouts must open the breaker"
        );
        assert!(
            web.counts.completed > 0,
            "rate {rate}: the untimed tenant keeps completing"
        );
        let (timed_out, retried, brk_open, brk_shed, brownout, degraded) = rep
            .tenants
            .iter()
            .map(|t| &t.counts)
            .fold((0, 0, 0, 0, 0, 0), |acc, t| {
                (
                    acc.0 + t.timed_out,
                    acc.1 + t.retried,
                    acc.2 + t.breaker_opens,
                    acc.3 + t.breaker_shed,
                    acc.4 + t.brownout_shed,
                    acc.5 + t.degraded,
                )
            });
        println!("-- rate {rate} rps --");
        println!("{}", rep.render_table());
        overload_table.row(vec![
            format!("{rate:.0}"),
            rep.offered.to_string(),
            rep.completed_total.to_string(),
            format!("{:.1}µs", web.p99_ns as f64 / 1e3),
            timed_out.to_string(),
            retried.to_string(),
            brk_open.to_string(),
            brk_shed.to_string(),
            brownout.to_string(),
            degraded.to_string(),
        ]);
        overload_rows.push(OverloadRow {
            rate_hz: rate,
            offered: rep.offered,
            completed: rep.completed_total,
            web_p99_us: web.p99_ns as f64 / 1e3,
            timed_out,
            retried,
            breaker_opens: brk_open,
            breaker_shed: brk_shed,
            brownout_shed: brownout,
            degraded,
        });
    }
    println!("E16c: overload sweep (seed {SEED:#x}, strict tenant timeout 1 ns):");
    print!("{}", overload_table.render());

    let audit1 = mpl_gc::audit::counters();
    let payload = E16 {
        smoke,
        reps,
        latency: latency_rows,
        worst_p99_ns: worst_p99,
        cost: cost_rows,
        median_deadline_delta,
        overload: overload_rows,
        lgc_dead_traced: dead,
        audit_failures: audit1.failures - audit0.failures,
    };
    assert_eq!(payload.lgc_dead_traced, 0, "corruption canary");
    assert_eq!(payload.audit_failures, 0, "phase audits");
    write_json("e16_cancel", &payload);
    println!("\nwrote results/e16_cancel.json");
}
