//! The batch workloads: programs of `mpl-bench-suite` (`forkjoin`,
//! `dis-array`, `entangled`) and the kernels of `churn.rs`
//! (`alloc-churn`), measured the same way.
//!
//! A round runs every program once on a fresh 1-worker `Runtime` (T_1),
//! once on a fresh `SeqRuntime` (T_s) and once on a fresh P-worker
//! `Runtime` (T_P); each is a child process (`unit.rs`) that runs the
//! program once untimed and then times the run call alone, several times.
//! The metrics are sums over the programs of the per-program medians over
//! all timed runs.

use std::time::Instant;

use mpl_baselines::SeqRuntime;
use mpl_bench_suite::Benchmark;
use mpl_runtime::{Mutator, Runtime, RuntimeConfig, Value};

use crate::churn::{Input, KERNELS};
use crate::common::{par_workers, summary_json, Args, Checker, Metric, WorkloadResult};
use crate::json::{obj, Json};
use crate::ledger::{self, Counts};
use crate::rounds::{run_rounds, MIN_ROUNDS};
use crate::span::{Layer, Recorder};
use crate::spec::{Kind, MetricSpec, Workload, END_TO_END, WORKLOAD_ONLY};
use crate::stats::{geomean, median, Summary};
use crate::unit::{absorb, spawn, UnitRun};
use crate::units::UnitCosts;

/// One program at its size for this seed, runnable on every runtime.
enum Job {
    Suite(Box<dyn Benchmark>, usize),
    Churn(Input),
}

impl Job {
    fn name(&self) -> &'static str {
        match self {
            Job::Suite(b, _) => b.name(),
            Job::Churn(input) => input.kernel.name(),
        }
    }

    fn size(&self) -> usize {
        match self {
            Job::Suite(_, n) => *n,
            Job::Churn(input) => input.n,
        }
    }

    fn run_mpl(&self, m: &mut Mutator<'_>) -> i64 {
        match self {
            Job::Suite(b, n) => b.run_mpl(m, *n),
            Job::Churn(input) => input.run_mpl(m),
        }
    }

    /// A fresh baseline runtime and the run on it, timed.
    fn time_seq(&self) -> (f64, i64) {
        let mut rt = match self {
            Job::Suite(..) => SeqRuntime::default(),
            Job::Churn(input) => input.seq_runtime(),
        };
        let start = Instant::now();
        let sum = match self {
            Job::Suite(b, n) => b.run_seq(&mut rt, *n),
            Job::Churn(input) => input.run_seq(&mut rt),
        };
        (start.elapsed().as_secs_f64(), sum)
    }

    /// The oracle: `run_native` for the suite, the Rust mirror for churn.
    fn oracle(&self) -> i64 {
        match self {
            Job::Suite(b, n) => b.run_native(*n),
            Job::Churn(input) => input.run_mirror(),
        }
    }
}

fn jobs(w: &Workload, seed: u64, smoke: bool) -> Vec<Job> {
    match w.kind {
        Kind::Suite(programs) => programs
            .iter()
            .map(|p| {
                let bench =
                    mpl_bench_suite::by_name(p.name).expect("spec.rs names a suite program");
                Job::Suite(bench, p.size(seed, smoke))
            })
            .collect(),
        Kind::Churn => KERNELS
            .iter()
            .map(|k| Job::Churn(k.input(seed, smoke)))
            .collect(),
        Kind::Serve => unreachable!("serve-open is measured by serve.rs"),
    }
}

// ---- the child: one timed run ----------------------------------------------

fn runtime_config(config: &str) -> Option<RuntimeConfig> {
    match config {
        "t1" => Some(RuntimeConfig::managed()),
        "tp" => Some(RuntimeConfig::managed().with_threads(par_workers())),
        "traced" => Some(RuntimeConfig::managed().with_telemetry().with_dag()),
        _ => None,
    }
}

/// One run on a fresh managed runtime: seconds, checksum, counts.
fn time_mpl(job: &Job, cfg: RuntimeConfig) -> (f64, i64, Counts) {
    let rt = Runtime::new(cfg);
    if cfg.threads > 1 {
        // Let the pool's threads start and park before the program's first
        // fork. Without this the run races their start-up: when they lose,
        // the program runs all but sequentially (`accounts` 0.06 s, 9 k
        // pins), when they win its halves run in parallel and entangle
        // (0.25 s, 90 k pins), and which one happens changes by session.
        rt.run(|m| {
            m.fork(|_| Value::Unit, |_| Value::Unit);
            Value::Unit
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let (before, sched_before) = (rt.stats(), rt.sched_stats());
    let start = Instant::now();
    let checksum = rt.run(|m| Value::Int(job.run_mpl(m))).expect_int();
    let secs = start.elapsed().as_secs_f64();
    let sched = rt.sched_stats();
    let sched = mpl_runtime::SchedSnapshot {
        steals: sched.steals - sched_before.steals,
        parks: sched.parks - sched_before.parks,
        sequentialized: sched.sequentialized - sched_before.sequentialized,
        ..sched
    };
    let mut counts = Counts::of(&rt.stats().delta(&before), &sched);
    counts.runs = 1;
    if let Some(dag) = rt.take_dag() {
        counts.forks = (dag.len() as u64 - 1) / 3;
        counts.dag_work = dag.total_work();
    }
    (secs, checksum, counts)
}

/// Timed runs per child: at least, and at most.
const RUNS: (usize, usize) = (2, 8);

/// `unit <workload> <program> <t1|ts|tp|traced>`: one untimed run of the
/// program at its size for the seed, so that the first-touch page faults
/// of a fresh process (which made `mcss` read anything from 0.31 to 0.52 s)
/// are paid before timing; then timed runs, each on a fresh runtime, for
/// as long as the child's share of the measuring time lasts.
pub fn child(w: &Workload, name: &str, config: &str, args: &Args) -> Result<Json, String> {
    let born = Instant::now();
    let job = jobs(w, args.seed, args.smoke)
        .into_iter()
        .find(|j| j.name() == name)
        .ok_or_else(|| format!("workload {} has no program {name:?}", w.name))?;
    let cfg = match config {
        "ts" => None,
        _ => Some(
            runtime_config(config).ok_or_else(|| format!("unknown configuration {config:?}"))?,
        ),
    };
    let run = || match cfg {
        Some(cfg) => time_mpl(&job, cfg),
        None => {
            let (secs, checksum) = job.time_seq();
            (secs, checksum, Counts::default())
        }
    };
    std::hint::black_box(run());
    let traced = cfg.is_some_and(|c| c.telemetry);
    if traced {
        mpl_obs::reset_metrics();
    }
    let mut samples = Vec::new();
    let mut checksums = Vec::new();
    let mut counts = Counts::default();
    while samples.len() < RUNS.0
        || (samples.len() < RUNS.1 && born.elapsed().as_secs_f64() + samples[0] < args.seconds)
    {
        let (secs, checksum, c) = run();
        samples.push(secs);
        // As text: a checksum may not fit the 53 bits of a JSON number.
        checksums.push(checksum.to_string());
        counts = c;
    }
    let mut doc = obj([
        ("secs", samples.iter().sum::<f64>().into()),
        ("samples", samples.into()),
        ("checksums", checksums.into()),
        ("counts", counts.to_json()),
    ]);
    if traced {
        doc.push("telemetry_histograms", crate::units::telemetry_sums());
    }
    Ok(doc)
}

// ---- the parent: rounds of children ----------------------------------------

/// A child's timed runs as the parent sees them.
struct Runs {
    /// Seconds of each timed run.
    samples: Vec<f64>,
    setup_s: f64,
    peak_rss_mb: f64,
    /// Counts of the last timed run.
    counts: Counts,
    telemetry: Json,
}

impl Runs {
    fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// A child's share of the measuring time: `MIN_ROUNDS` rounds must fit.
fn child_budget(args: &Args, children_per_round: usize) -> f64 {
    args.seconds / (MIN_ROUNDS * children_per_round) as f64
}

/// Starts the child and checks its answers: every run's checksum against
/// the oracle (one operation each), then no dead object traced and, on a
/// disentangled workload, no pin, slow-tier entry or CGC.
fn run_checked(
    w: &Workload,
    job: &Job,
    config: &str,
    oracle: i64,
    budget_s: f64,
    args: &Args,
    checks: &mut Checker,
) -> Option<Runs> {
    let what = format!("{} {config}", job.name());
    let run: UnitRun = absorb(spawn(job.name(), config, budget_s, args), checks)?;
    let samples = run.list("samples");
    let checksums = run.doc.get("checksums").map(Json::arr).unwrap_or_default();
    let wrong = checksums
        .iter()
        .filter(|c| c.str() != Some(&oracle.to_string()))
        .count();
    checks.record_bulk(
        &format!("{what} checksum vs oracle {oracle}"),
        checksums.len() as u64,
        wrong as u64,
    );
    let counts = run.counts();
    if config != "ts" {
        let mut problems = Vec::new();
        if counts.lgc_dead_traced != 0 {
            problems.push(format!("lgc_dead_traced = {}", counts.lgc_dead_traced));
        }
        if w.must_stay_disentangled
            && (counts.pins, counts.barrier_slow(), counts.cgc_runs) != (0, 0, 0)
        {
            problems.push(format!(
                "disentangled invariant: pins {} slow-tier {} cgc_runs {}",
                counts.pins,
                counts.barrier_slow(),
                counts.cgc_runs
            ));
        }
        checks.record(&format!("{what} invariants"), problems);
    }
    if samples.is_empty() {
        return None;
    }
    Some(Runs {
        samples,
        setup_s: run.setup_s(),
        peak_rss_mb: run.num("peak_rss_mb"),
        counts,
        telemetry: run
            .doc
            .get("telemetry_histograms")
            .cloned()
            .unwrap_or(Json::Null),
    })
}

/// The counts without the pause times, which are wall-clock readings and
/// not part of the work counted.
fn work_only(mut c: Counts) -> Counts {
    (
        c.lgc_pause_ns_total,
        c.lgc_pause_ns_max,
        c.cgc_pause_ns_total,
    ) = (0, 0, 0);
    c
}

fn spec_of(name: &str) -> &'static MetricSpec {
    let all = END_TO_END.iter().chain(WORKLOAD_ONLY);
    all.into_iter()
        .find(|m| m.name == name)
        .expect("metric is in spec.rs")
}

/// One round's children of one program.
struct Sample {
    one: Runs,
    seq: Runs,
    par: Runs,
}

pub fn run(w: &Workload, args: &Args) -> WorkloadResult {
    let workers = par_workers();
    let jobs = jobs(w, args.seed, args.smoke);
    let oracles: Vec<i64> = jobs.iter().map(Job::oracle).collect();
    // A program's share of a round goes 2 : 1 : 2 to T_1, T_s and T_P: the
    // baseline runs are the shortest and need the fewest repeats.
    let share = child_budget(args, jobs.len());
    let mut checks = Checker::default();
    let (by_program, noise) = run_rounds(args.seconds, jobs.len(), |_, p| {
        let mut child = |config: &str, part: f64| {
            run_checked(
                w,
                &jobs[p],
                config,
                oracles[p],
                part * share,
                args,
                &mut checks,
            )
        };
        Some(Sample {
            one: child("t1", 0.4)?,
            seq: child("ts", 0.2)?,
            par: child("tp", 0.4)?,
        })
    });
    // A child that could not run is already counted as a failed operation.
    let by_program: Vec<Vec<Sample>> = by_program
        .into_iter()
        .map(|s| s.into_iter().flatten().collect())
        .collect();
    let mut result = WorkloadResult {
        args: args.clone(),
        workers,
        sizes: jobs
            .iter()
            .map(|j| (j.name().to_string(), j.size()))
            .collect(),
        checks,
        noise,
        metrics: Vec::new(),
        rows: Vec::new(),
    };
    // Rounds every program completed.
    let n_rounds = by_program.iter().map(Vec::len).min().unwrap_or(0);
    if n_rounds == 0 {
        return result;
    }

    // All timed runs of program `p` on one configuration, over the rounds.
    let pooled = |p: usize, f: &dyn Fn(&Sample) -> &Runs| -> Vec<f64> {
        by_program[p]
            .iter()
            .flat_map(|s| f(s).samples.clone())
            .collect()
    };
    // Per-round sums over the programs: the spread behind a summed median.
    let round_sum = |f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        (0..n_rounds)
            .map(|r| by_program.iter().map(|s| f(&s[r])).sum())
            .collect()
    };
    let (mut t1_s, mut tp_s, mut setup_s) = (0.0, 0.0, 0.0);
    let mut ratios = Vec::new();
    for (p, job) in jobs.iter().enumerate() {
        let (t1, ts, tp) = (
            pooled(p, &|s| &s.one),
            pooled(p, &|s| &s.seq),
            pooled(p, &|s| &s.par),
        );
        t1_s += median(&t1);
        tp_s += median(&tp);
        setup_s += median(
            &by_program[p]
                .iter()
                .map(|s| s.one.setup_s)
                .collect::<Vec<f64>>(),
        );
        ratios.push(median(&t1) / median(&ts));
        let first = &by_program[p][0];
        // Exact at one worker: every round must count the same work.
        let repeatable = by_program[p]
            .iter()
            .all(|s| work_only(s.one.counts) == work_only(first.one.counts));
        result.rows.push(obj([
            ("name", job.name().into()),
            ("n", job.size().into()),
            ("t1_s", summary_json(&Summary::of(&t1))),
            ("ts_s", summary_json(&Summary::of(&ts))),
            ("tp_s", summary_json(&Summary::of(&tp))),
            ("overhead_x", (median(&t1) / median(&ts)).into()),
            ("overhead_base", "t1_s / ts_s (SeqRuntime)".into()),
            ("speedup_x", (median(&t1) / median(&tp)).into()),
            (
                "speedup_base",
                format!("t1_s / tp_s at {workers} workers").into(),
            ),
            (
                "peak_rss_mb",
                first.one.peak_rss_mb.max(first.par.peak_rss_mb).into(),
            ),
            ("counts_repeat_at_1_worker", repeatable.into()),
            ("counts_at_1_worker", first.one.counts.to_json()),
            ("counts_at_p_workers", first.par.counts.to_json()),
        ]));
    }
    let overhead: Vec<f64> = (0..n_rounds)
        .map(|r| {
            geomean(
                &by_program
                    .iter()
                    .map(|s| s[r].one.median() / s[r].seq.median())
                    .collect::<Vec<f64>>(),
            )
        })
        .collect();
    let all = || by_program.iter().flatten();
    let rss = all()
        .flat_map(|s| [s.one.peak_rss_mb, s.seq.peak_rss_mb, s.par.peak_rss_mb])
        .fold(0.0, f64::max);
    let timed_runs =
        |f: &dyn Fn(&Sample) -> &Runs| -> usize { all().map(|s| f(s).samples.len()).sum() };
    let with_n = |samples: &[f64], n: usize| Summary {
        n,
        ..Summary::of(samples)
    };
    result.metrics = vec![
        Metric::new(
            spec_of("t1_s"),
            t1_s,
            with_n(&round_sum(&|s| s.one.median()), timed_runs(&|s| &s.one)),
        ),
        Metric::new(
            spec_of("tp_s"),
            tp_s,
            with_n(&round_sum(&|s| s.par.median()), timed_runs(&|s| &s.par)),
        ),
        Metric::new(
            spec_of("overhead_x"),
            geomean(&ratios),
            with_n(&overhead, timed_runs(&|s| &s.seq)),
        ),
        Metric::single(spec_of("peak_rss_mb"), rss),
        Metric::new(
            spec_of("setup_s"),
            setup_s,
            Summary::of(&round_sum(&|s| s.one.setup_s)),
        ),
    ];
    result
}

/// The traced pass: every program untraced and traced (telemetry and DAG
/// recording on) in alternation, plus one P-worker run for the scheduler's
/// counters; then the ledger.
pub fn trace(
    w: &Workload,
    args: &Args,
    unit: &UnitCosts,
    rec: &mut Recorder,
) -> (WorkloadResult, Json) {
    let workers = par_workers();
    let jobs = jobs(w, args.seed, args.smoke);
    let oracles: Vec<i64> = rec.scope("oracles", Layer::Bench, 0, |_| {
        jobs.iter().map(Job::oracle).collect()
    });
    let budget = child_budget(args, 2 * jobs.len());
    let mut checks = Checker::default();
    let (by_program, noise) = run_rounds(args.seconds, jobs.len(), |round, p| {
        let job = &jobs[p];
        let group = (round * jobs.len() + p) as u64 + 1;
        let mut timed = |config: &str| {
            rec.enter(
                &format!("child:{}:{config}", job.name()),
                Layer::Bench,
                group,
            );
            let runs = run_checked(w, job, config, oracles[p], budget, args, &mut checks);
            // The child's timed runs end where the child ends, give or take
            // its teardown.
            let secs = runs.as_ref().map_or(0.0, |r| r.samples.iter().sum());
            rec.span_ending_now(
                &format!("runs:{}:{config}", job.name()),
                Layer::Core,
                group,
                secs,
            );
            rec.exit();
            runs
        };
        Some((timed("t1")?, timed("traced")?))
    });
    let mut entries = Vec::new();
    for ((job, &oracle), pairs) in jobs.iter().zip(&oracles).zip(by_program) {
        let pairs: Vec<(Runs, Runs)> = pairs.into_iter().flatten().collect();
        let Some(par) = run_checked(w, job, "tp", oracle, 0.0, args, &mut checks) else {
            continue;
        };
        let Some((plain, traced)) = pairs.first() else {
            continue;
        };
        let untraced_s: Vec<f64> = pairs.iter().flat_map(|r| r.0.samples.clone()).collect();
        let traced_s: Vec<f64> = pairs.iter().flat_map(|r| r.1.samples.clone()).collect();
        let mut counts = plain.counts;
        (counts.forks, counts.dag_work) = (traced.counts.forks, traced.counts.dag_work);
        let mut entry = ledger::Entry::new(
            job.name(),
            median(&untraced_s),
            median(&traced_s),
            counts,
            par.counts,
            unit,
        );
        entry.telemetry = traced.telemetry.clone();
        entries.push(entry);
    }
    let (metrics, doc) = ledger::finish(&entries, unit);
    let result = WorkloadResult {
        args: args.clone(),
        workers,
        sizes: jobs
            .iter()
            .map(|j| (j.name().to_string(), j.size()))
            .collect(),
        checks,
        noise,
        metrics,
        rows: Vec::new(),
    };
    (result, doc)
}
