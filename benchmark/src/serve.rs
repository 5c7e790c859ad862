//! `serve-open`: the E12 three-tenant mix driven by the benchmark's own
//! serial dispatcher over `mpl_serve::schedule`, `Tenant::create`,
//! `Runtime::try_run_session` and `workload::run_request`.
//!
//! Each round measures, each in a child process (`unit.rs`) on a fresh
//! runtime with fresh tenants and an untimed warm-up list:
//!
//! * an **open loop** at 16 k and at 32 k requests per second (Poisson
//!   arrivals): latency in exact ns from the instant a request was *due*,
//!   so time queued behind a slow predecessor counts, and the generator's
//!   lateness is reported beside it. Lower rates are left out: their tail
//!   is host jitter, not the program;
//! * a **closed loop**, one client (the dispatcher is serial): a fixed
//!   request list back to back on a 1-worker runtime (`t1_s`, and
//!   `capacity_rps` = requests ÷ time) and on a P-worker runtime (`tp_s`);
//! * the same list **batched**: one session call per tenant running all of
//!   its requests, which is what the requests cost without per-request run
//!   entry and teardown. `overhead_x` = closed loop ÷ batched.

use std::time::Instant;

use mpl_runtime::{RunError, Runtime, RuntimeConfig, Value};
use mpl_serve::workload::{requests_counted, run_request};
use mpl_serve::{schedule, Arrival, ArrivalProcess, Profile, Tenant, TenantSpec, TrafficConfig};

use crate::common::{par_workers, summary_json, Args, Checker, Metric, WorkloadResult};
use crate::json::{obj, Json};
use crate::ledger::{self, Counts};
use crate::rounds::run_rounds;
use crate::span::{Layer, Recorder};
use crate::spec::{derive, MetricSpec, END_TO_END, WORKLOAD_ONLY};
use crate::stats::{median, percentile_sorted, Summary};
use crate::unit::{absorb, spawn, UnitRun};
use crate::units::{telemetry_sums, UnitCosts};

/// Open-loop rates, requests per second, and their metric suffixes.
const RATES: [(f64, &str); 2] = [(16_000.0, "r16k"), (32_000.0, "r32k")];
/// Seconds of arrivals per open-loop run.
const OPEN_SECONDS: f64 = 0.75;
/// Requests of the closed-loop list.
const CLOSED_REQUESTS: usize = 24_000;
/// Timed closed-loop passes per child, after one untimed pass.
const CLOSED_PASSES: usize = 2;
/// Requests served untimed before a run is measured.
const WARMUP_REQUESTS: usize = 2_000;
/// Request spans kept by a traced child.
const REQUEST_SPANS: usize = 50_000;

/// The E12 mix: a disentangled web tenant, an entangled feed tenant, a
/// payload-heavy batch tenant; two sessions each.
pub fn tenant_specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("web", 8 << 20).cache_slots(128),
        TenantSpec::new("feed", 8 << 20).profile(Profile::Entangled),
        TenantSpec::new("batch", 16 << 20).payload_scale(4),
    ]
}

pub struct Tenants {
    list: Vec<Tenant>,
    /// Index of each tenant's first session among all sessions in
    /// (tenant, session) order, and the session count at the end.
    first_session: Vec<usize>,
}

impl Tenants {
    pub fn create(rt: &Runtime) -> Tenants {
        let list: Vec<Tenant> = tenant_specs()
            .into_iter()
            .map(|s| Tenant::create(rt, s))
            .collect();
        let mut first_session = vec![0];
        for tn in &list {
            first_session.push(first_session[first_session.len() - 1] + tn.states.len());
        }
        Tenants {
            list,
            first_session,
        }
    }

    /// The tenant an arrival goes to, its session there, and that
    /// session's index among all sessions.
    fn route(&self, a: &Arrival) -> (&Tenant, usize, usize) {
        let t = a.tenant % self.list.len();
        let tn = &self.list[t];
        let s = a.session % tn.states.len();
        (tn, s, self.first_session[t] + s)
    }

    /// Serves one arrival as its own session call.
    pub fn serve(&self, rt: &Runtime, a: &Arrival) -> Result<Value, RunError> {
        let (tn, s, _) = self.route(a);
        let st = tn.states[s].clone();
        let (kind, size, profile) = (a.kind, a.size * tn.spec.payload_scale, tn.spec.profile);
        rt.try_run_session(&tn.session, move |m| {
            run_request(m, &st, kind, size, profile)
        })
    }

    /// Serves the whole list with one session call per tenant. Sessions
    /// share no state, so regrouping by tenant keeps every session's
    /// request order and therefore its work.
    fn serve_batched(&self, rt: &Runtime, sched: &[Arrival]) -> u64 {
        let mut failed = 0;
        for (t, tn) in self.list.iter().enumerate() {
            let mine = sched.iter().filter(|a| a.tenant % self.list.len() == t);
            let res = rt.try_run_session(&tn.session, |m| {
                for a in mine {
                    let st = &tn.states[a.session % tn.states.len()];
                    run_request(
                        m,
                        st,
                        a.kind,
                        a.size * tn.spec.payload_scale,
                        tn.spec.profile,
                    );
                }
                Value::Unit
            });
            failed += res.is_err() as u64;
        }
        failed
    }

    /// Requests each session counted, in (tenant, session) order.
    fn counted(&self, rt: &Runtime) -> Vec<u64> {
        let mut out = Vec::new();
        for tn in &self.list {
            for st in &tn.states {
                let st = st.clone();
                let v = rt.run_session(&tn.session, move |m| {
                    Value::Int(requests_counted(m, &st) as i64)
                });
                out.push(v.as_int().unwrap_or(-1) as u64);
            }
        }
        out
    }

    pub fn retire(self, rt: &Runtime) {
        for tn in &self.list {
            rt.retire_session(&tn.session);
        }
    }
}

fn traffic(seed: u64, label: &str, rate_hz: f64, requests: usize) -> TrafficConfig {
    TrafficConfig {
        seed: derive(seed, label),
        rate_hz,
        requests,
        process: ArrivalProcess::Poisson,
        tenants: 3,
        sessions_per_tenant: 2,
        ..TrafficConfig::default()
    }
}

fn open_requests(rate: f64, smoke: bool) -> usize {
    let full = (rate * OPEN_SECONDS) as usize;
    if smoke {
        full / 20
    } else {
        full
    }
}

fn closed_requests(smoke: bool) -> usize {
    if smoke {
        CLOSED_REQUESTS / 20
    } else {
        CLOSED_REQUESTS
    }
}

// ---- the child: one timed phase --------------------------------------------

/// A fresh runtime with its tenants, warmed by an untimed request list.
struct Service {
    rt: Runtime,
    tenants: Tenants,
    /// Requests completed, in the (tenant, session) order of `counted`.
    served: Vec<u64>,
    checks: Checker,
}

impl Service {
    fn start(cfg: RuntimeConfig, seed: u64) -> Service {
        let rt = Runtime::new(cfg);
        let tenants = Tenants::create(&rt);
        let served = vec![0; tenants.first_session[tenants.list.len()]];
        let mut service = Service {
            rt,
            tenants,
            served,
            checks: Checker::default(),
        };
        for a in &schedule(&traffic(seed, "warmup", 1e9, WARMUP_REQUESTS)) {
            service.serve(a);
        }
        service
    }

    /// Serves one arrival and books its outcome.
    fn serve(&mut self, a: &Arrival) -> bool {
        let ok = self.tenants.serve(&self.rt, a).is_ok();
        if ok {
            self.served[self.tenants.route(a).2] += 1;
        }
        ok
    }

    /// Ends the run: every session must have counted exactly the requests
    /// it completed, and the collector must have traced no dead object.
    fn finish(mut self, what: &str) -> Checker {
        let counted = self.tenants.counted(&self.rt);
        let dead = self.rt.stats().lgc_dead_traced;
        let mut problems = Vec::new();
        if counted != self.served {
            problems.push(format!(
                "requests_counted {counted:?} != completed {:?}",
                self.served
            ));
        }
        if dead != 0 {
            problems.push(format!("lgc_dead_traced = {dead}"));
        }
        self.checks.record(what, problems);
        self.tenants.retire(&self.rt);
        self.checks
    }
}

/// One open-loop run; the document holds its latency percentiles.
fn open_loop(seed: u64, label: &str, rate_hz: f64, requests: usize) -> Json {
    let sched = schedule(&traffic(seed, label, rate_hz, requests));
    let mut service = Service::start(RuntimeConfig::managed(), seed);
    let mut latency = Vec::with_capacity(sched.len());
    let mut lateness = Vec::with_capacity(sched.len());
    let mut failed = 0;
    let t0 = Instant::now();
    for a in &sched {
        // Gaps are tens of microseconds: spin, a sleep would overshoot.
        let started = loop {
            let now = t0.elapsed().as_nanos() as u64;
            if now >= a.at_ns {
                break now;
            }
            std::hint::spin_loop();
        };
        failed += !service.serve(a) as u64;
        let done = t0.elapsed().as_nanos() as u64;
        lateness.push(started - a.at_ns);
        latency.push(done - a.at_ns);
    }
    let secs = t0.elapsed().as_secs_f64();
    service
        .checks
        .record_bulk(label, sched.len() as u64, failed);
    let checks = service.finish(label);
    latency.sort_unstable();
    lateness.sort_unstable();
    let us = |sorted: &[u64], q: f64| Json::from(percentile_sorted(sorted, q) as f64 / 1e3);
    obj([
        ("secs", secs.into()),
        ("checks", checks.to_json()),
        ("offered", sched.len().into()),
        ("achieved_rps", (sched.len() as f64 / secs).into()),
        ("p50_us", us(&latency, 0.50)),
        ("p99_us", us(&latency, 0.99)),
        // Only where at least ten samples lie beyond it.
        (
            "p999_us",
            if latency.len() >= 10_000 {
                us(&latency, 0.999)
            } else {
                Json::Null
            },
        ),
        ("late_p50_us", us(&lateness, 0.50)),
        ("late_p99_us", us(&lateness, 0.99)),
    ])
}

/// How a closed-loop child serves its list.
#[derive(Clone, Copy, PartialEq)]
enum Closed {
    /// One session call per request.
    PerRequest,
    /// One session call per tenant.
    Batched,
}

/// Serves the closed list back to back: one untimed pass, then
/// `CLOSED_PASSES` timed ones, each on a fresh runtime with fresh tenants
/// and its own list. The untimed pass is not only for the page faults: on
/// P workers every request wakes the second worker, and how fast a wake-up
/// is depends on how recently that vCPU was woken (the same list read 0.28 s
/// after a pause and 0.40 s in a busy stretch), so the timed passes follow
/// a pass that has kept both vCPUs busy. Traced, every request of the
/// last pass gets a span.
fn closed_loop(cfg: RuntimeConfig, how: Closed, seed: u64, label: &str, requests: usize) -> Json {
    let mut checks = Checker::default();
    let mut samples = Vec::new();
    let mut setups = Vec::new();
    let mut counts = Counts::default();
    let mut rec = cfg.telemetry.then(|| Recorder::new(REQUEST_SPANS));
    for pass in 0..=CLOSED_PASSES {
        let timed = pass > 0;
        let born = Instant::now();
        let sched = schedule(&traffic(seed, &format!("{label}.{pass}"), 1e9, requests));
        let mut service = Service::start(cfg, seed);
        let spans = rec.as_mut().filter(|_| pass == CLOSED_PASSES);
        if spans.is_some() {
            mpl_obs::reset_metrics();
        }
        let before = service.rt.stats();
        let t0 = Instant::now();
        let (attempted, failed, dag_work) = match how {
            Closed::PerRequest => serve_list(&mut service, &sched, spans),
            Closed::Batched => (
                service.tenants.list.len() as u64,
                service.tenants.serve_batched(&service.rt, &sched),
                0,
            ),
        };
        let secs = t0.elapsed().as_secs_f64();
        if timed {
            samples.push(secs);
            setups.push(t0.duration_since(born).as_secs_f64());
            counts = Counts::of(
                &service.rt.stats().delta(&before),
                &service.rt.sched_stats(),
            );
            // Every request kind forks exactly once.
            (counts.forks, counts.runs, counts.dag_work) =
                (sched.len() as u64, sched.len() as u64, dag_work);
        }
        service.checks.record_bulk(label, attempted, failed);
        let pass_checks = match how {
            Closed::PerRequest => service.finish(label),
            // The baseline only has to fail loudly; its completions are not
            // booked per session.
            Closed::Batched => {
                service.tenants.retire(&service.rt);
                service.checks
            }
        };
        checks.merge(pass_checks);
    }
    let mut doc = obj([
        ("secs", samples.iter().sum::<f64>().into()),
        ("samples", samples.into()),
        ("setup_samples", setups.into()),
        ("checks", checks.to_json()),
        ("counts", counts.to_json()),
    ]);
    if let Some(rec) = rec {
        doc.push("telemetry_histograms", telemetry_sums());
        doc.push("spans", rec.to_rows());
    }
    doc
}

/// One session call per arrival; returns (attempted, failed, DAG work).
fn serve_list(
    service: &mut Service,
    sched: &[Arrival],
    mut spans: Option<&mut Recorder>,
) -> (u64, u64, u64) {
    let mut failed = 0;
    let mut dag_work = 0;
    for (i, a) in sched.iter().enumerate() {
        if let Some(rec) = spans.as_deref_mut() {
            rec.enter("request", Layer::Core, i as u64 + 1);
        }
        failed += !service.serve(a) as u64;
        if let Some(rec) = spans.as_deref_mut() {
            rec.exit();
            dag_work += service.rt.take_dag().map_or(0, |d| d.total_work());
        }
    }
    (sched.len() as u64, failed, dag_work)
}

/// `unit serve-open <label> <open|t1|tp|batched|traced>`; an open-loop
/// label starts with its rate's suffix (`r16k.3`).
pub fn child(label: &str, config: &str, args: &Args) -> Result<Json, String> {
    let n = closed_requests(args.smoke);
    let one = RuntimeConfig::managed();
    match config {
        "open" => {
            let (rate, _) = RATES
                .iter()
                .find(|(_, suffix)| label.starts_with(suffix))
                .ok_or_else(|| format!("no open-loop rate is called {label:?}"))?;
            Ok(open_loop(
                args.seed,
                label,
                *rate,
                open_requests(*rate, args.smoke),
            ))
        }
        "t1" => Ok(closed_loop(one, Closed::PerRequest, args.seed, label, n)),
        "tp" => Ok(closed_loop(
            one.with_threads(par_workers()),
            Closed::PerRequest,
            args.seed,
            label,
            n,
        )),
        "traced" => Ok(closed_loop(
            one.with_telemetry().with_dag(),
            Closed::PerRequest,
            args.seed,
            label,
            n,
        )),
        "batched" => Ok(closed_loop(one, Closed::Batched, args.seed, label, n)),
        _ => Err(format!("unknown configuration {config:?}")),
    }
}

// ---- the parent: rounds of children ----------------------------------------

/// What one unit of a round measured.
enum Phase {
    /// An open-loop run at `RATES[unit]`.
    Open(UnitRun),
    /// The closed-loop children: 1 worker, P workers, batched.
    Closed([UnitRun; 3]),
}

fn spec_of(name: &str) -> &'static MetricSpec {
    END_TO_END
        .iter()
        .chain(WORKLOAD_ONLY)
        .find(|m| m.name == name)
        .expect("metric is in spec.rs")
}

pub fn run(args: &Args) -> WorkloadResult {
    let workers = par_workers();
    let mut checks = Checker::default();
    let n_closed = closed_requests(args.smoke);
    // Units 0 and 1 are the open-loop rates, unit 2 the closed loop. Each
    // round draws its own schedules, so a median over rounds is also a
    // median over arrival patterns.
    let (mut by_unit, noise) = run_rounds(args.seconds, RATES.len() + 1, |round, unit| {
        let mut child =
            |label: &str, config: &str| absorb(spawn(label, config, 0.0, args), &mut checks);
        match RATES.get(unit) {
            Some((_, suffix)) => child(&format!("{suffix}.{round}"), "open").map(Phase::Open),
            None => {
                let closed = format!("closed.{round}");
                Some(Phase::Closed([
                    child(&closed, "t1")?,
                    child(&closed, "tp")?,
                    child(&closed, "batched")?,
                ]))
            }
        }
    });
    let mut result = WorkloadResult {
        args: args.clone(),
        workers,
        sizes: vec![
            ("closed_requests".into(), n_closed),
            (
                "open_requests.r16k".into(),
                open_requests(RATES[0].0, args.smoke),
            ),
            (
                "open_requests.r32k".into(),
                open_requests(RATES[1].0, args.smoke),
            ),
        ],
        checks,
        noise,
        metrics: Vec::new(),
        rows: Vec::new(),
    };
    // A child that could not run is already counted as a failed operation.
    let closed: Vec<[UnitRun; 3]> = by_unit
        .pop()
        .into_iter()
        .flatten()
        .filter_map(|phase| {
            if let Some(Phase::Closed(children)) = phase {
                Some(children)
            } else {
                None
            }
        })
        .collect();
    let open: Vec<Vec<UnitRun>> = by_unit
        .into_iter()
        .map(|runs| {
            runs.into_iter()
                .filter_map(|phase| {
                    if let Some(Phase::Open(run)) = phase {
                        Some(run)
                    } else {
                        None
                    }
                })
                .collect()
        })
        .collect();
    if closed.is_empty() || open.iter().any(Vec::is_empty) {
        return result;
    }

    let metric = |name: &str, samples: &[f64]| {
        Metric::new(spec_of(name), median(samples), Summary::of(samples))
    };
    // Every timed pass of the closed-loop children on configuration `k`.
    let passes =
        |k: usize, key: &str| -> Vec<f64> { closed.iter().flat_map(|c| c[k].list(key)).collect() };
    let (t1, tp, batched) = (
        passes(0, "samples"),
        passes(1, "samples"),
        passes(2, "samples"),
    );
    let capacity: Vec<f64> = t1.iter().map(|s| n_closed as f64 / s).collect();
    // Pass i of the per-request child against pass i of the batched one.
    let overhead: Vec<f64> = t1
        .iter()
        .zip(&batched)
        .map(|(one, batch)| one / batch)
        .collect();
    let rss = closed
        .iter()
        .flatten()
        .chain(open.iter().flatten())
        .map(|u| u.num("peak_rss_mb"))
        .fold(0.0, f64::max);
    // Reported, not gated: whether the second worker parks between two
    // requests or spins through the gap differs from session to session.
    let tp_ungated = MetricSpec {
        bound: None,
        ..*spec_of("tp_s")
    };
    result.metrics = vec![
        metric("t1_s", &t1),
        Metric::new(&tp_ungated, median(&tp), Summary::of(&tp)),
        metric("overhead_x", &overhead),
        Metric::single(spec_of("peak_rss_mb"), rss),
        metric("setup_s", &passes(0, "setup_samples")),
    ];
    for ((rate, suffix), runs) in RATES.iter().zip(&open) {
        let of = |key: &str| -> Vec<f64> { runs.iter().map(|r| r.num(key)).collect() };
        result
            .metrics
            .push(metric(&format!("p50_us.{suffix}"), &of("p50_us")));
        result
            .metrics
            .push(metric(&format!("p99_us.{suffix}"), &of("p99_us")));
        let p999: Vec<f64> = of("p999_us")
            .into_iter()
            .filter(|x| x.is_finite())
            .collect();
        result.rows.push(obj([
            ("name", (*suffix).into()),
            ("loop", "open, Poisson".into()),
            ("rate_rps", (*rate).into()),
            ("utilisation", (rate / median(&capacity)).into()),
            ("offered_per_run", median(&of("offered")).into()),
            ("achieved_rps", median(&of("achieved_rps")).into()),
            ("p50_us", summary_json(&Summary::of(&of("p50_us")))),
            ("p99_us", summary_json(&Summary::of(&of("p99_us")))),
            (
                "p999_us",
                if p999.is_empty() {
                    Json::Null
                } else {
                    summary_json(&Summary::of(&p999))
                },
            ),
            ("generator_late_p50_us", median(&of("late_p50_us")).into()),
            ("generator_late_p99_us", median(&of("late_p99_us")).into()),
        ]));
    }
    result.metrics.push(metric("capacity_rps", &capacity));
    result.rows.push(obj([
        ("name", "closed".into()),
        ("loop", "closed, 1 client".into()),
        ("requests", n_closed.into()),
        ("t1_s", summary_json(&Summary::of(&t1))),
        ("tp_s", summary_json(&Summary::of(&tp))),
        ("speedup_x", (median(&t1) / median(&tp)).into()),
        (
            "speedup_base",
            format!("t1_s / tp_s at {workers} workers").into(),
        ),
        ("batched_s", summary_json(&Summary::of(&batched))),
        (
            "overhead_base",
            "closed loop / one session call per tenant".into(),
        ),
        (
            "mean_service_us",
            (median(&t1) / n_closed as f64 * 1e6).into(),
        ),
        ("counts_at_1_worker", closed[0][0].counts().to_json()),
        ("counts_at_p_workers", closed[0][1].counts().to_json()),
    ]));
    result
}

/// The traced pass: the closed loop untraced and traced, alternating, one
/// span per request in the traced runs.
pub fn trace(args: &Args, unit: &UnitCosts, rec: &mut Recorder) -> (WorkloadResult, Json) {
    let mut checks = Checker::default();
    let (by_unit, noise) = run_rounds(args.seconds, 1, |round, _| {
        let mut timed = |config: &str| {
            rec.enter(
                &format!("child:closed:{config}"),
                Layer::Bench,
                round as u64 + 1,
            );
            let started = rec.now_ns();
            let run = absorb(spawn("closed.0", config, 0.0, args), &mut checks);
            // One round's request spans show the shape; every round's would
            // make a trace of a hundred thousand events.
            if let (Some(run), 0) = (&run, round) {
                rec.graft(run.doc.get("spans").unwrap_or(&Json::Null), started);
            }
            rec.exit();
            run
        };
        Some((timed("t1")?, timed("traced")?))
    });
    let rounds: Vec<(UnitRun, UnitRun)> = by_unit.into_iter().flatten().flatten().collect();
    let par = absorb(spawn("closed.0", "tp", 0.0, args), &mut checks);
    let mut entries = Vec::new();
    if let (Some((plain, traced)), Some(par)) = (rounds.first(), &par) {
        let untraced_s: Vec<f64> = rounds.iter().flat_map(|r| r.0.list("samples")).collect();
        let traced_s: Vec<f64> = rounds.iter().flat_map(|r| r.1.list("samples")).collect();
        let mut counts = plain.counts();
        counts.dag_work = traced.counts().dag_work;
        let mut entry = ledger::Entry::new(
            "closed",
            median(&untraced_s),
            median(&traced_s),
            counts,
            par.counts(),
            unit,
        );
        entry.telemetry = traced
            .doc
            .get("telemetry_histograms")
            .cloned()
            .unwrap_or(Json::Null);
        entries.push(entry);
    }
    let (metrics, doc) = ledger::finish(&entries, unit);
    let result = WorkloadResult {
        args: args.clone(),
        workers: par_workers(),
        sizes: vec![("closed_requests".into(), closed_requests(args.smoke))],
        checks,
        noise,
        metrics,
        rows: Vec::new(),
    };
    (result, doc)
}
