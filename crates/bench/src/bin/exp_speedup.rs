//! E3 — Speedup curves: simulated `T_1/T_P` for P ∈ {1,2,4,8,16,32,64}
//! over the recorded computation DAGs (the paper's scalability figure),
//! plus **real-execution** speedup on the persistent work-stealing pool
//! for a smaller processor sweep.
//!
//! The simulation section is deterministic and host-independent; the
//! real-execution section measures actual wall clock on this machine and
//! reports the executor's steal counters, so its numbers are only
//! meaningful when the host has at least as many cores as workers (the
//! host's parallelism is printed alongside).

use mpl_bench::{fmt_dur, run_mpl, scale_bench, write_json, Table};
use mpl_runtime::{sweep, RuntimeConfig};
use serde::Serialize;

const PROCS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];
const SELECTED: &[&str] = &[
    "fib",
    "msort",
    "primes",
    "tokens",
    "quickhull",
    "nbody",
    "bfs",
    "dedup",
    "unionfind",
    "memo",
];

/// Real-execution sweep: disentangled divide-and-conquer benches with
/// enough work per fork to amortize scheduling.
const REAL_PROCS: &[usize] = &[1, 2, 4, 8];
const REAL_SELECTED: &[&str] = &["fib", "msort", "mcss"];

#[derive(Serialize)]
struct Series {
    name: String,
    procs: Vec<usize>,
    speedup: Vec<f64>,
    steals: Vec<u64>,
    work: u64,
    span: u64,
}

#[derive(Serialize)]
struct RealSeries {
    name: String,
    n: usize,
    host_parallelism: usize,
    procs: Vec<usize>,
    wall_us: Vec<u128>,
    speedup: Vec<f64>,
    steals: Vec<u64>,
    sequentialized: Vec<u64>,
    pushes: Vec<u64>,
}

fn simulated() -> Vec<Series> {
    println!("E3a: simulated speedup curves (work-stealing over recorded DAGs)\n");
    let mut header = vec!["benchmark"];
    let proc_labels: Vec<String> = PROCS.iter().map(|p| format!("P={p}")).collect();
    header.extend(proc_labels.iter().map(|s| s.as_str()));
    header.push("steals@64");
    let mut table = Table::new(&header);
    let mut all = Vec::new();
    for name in SELECTED {
        let bench = mpl_bench_suite::by_name(name).expect("known benchmark");
        let n = scale_bench(bench.as_ref());
        let run = run_mpl(bench.as_ref(), n, RuntimeConfig::managed().with_dag());
        let dag = run.dag.expect("dag");
        let series = sweep(&dag, PROCS, 8, 7);
        let t1 = series[0].1.time as f64;
        let speedups: Vec<f64> = series
            .iter()
            .map(|(_, r)| t1 / r.time.max(1) as f64)
            .collect();
        let steals: Vec<u64> = series.iter().map(|(_, r)| r.steals).collect();
        let mut row = vec![name.to_string()];
        row.extend(speedups.iter().map(|s| format!("{s:.1}x")));
        row.push(steals.last().copied().unwrap_or(0).to_string());
        table.row(row);
        all.push(Series {
            name: name.to_string(),
            procs: PROCS.to_vec(),
            speedup: speedups,
            steals,
            work: dag.total_work(),
            span: dag.span(),
        });
    }
    print!("{}", table.render());
    all
}

fn real_execution() -> Vec<RealSeries> {
    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "\nE3b: real-execution speedup on the work-stealing pool \
         (host parallelism: {host})\n"
    );
    let mut header = vec!["benchmark".to_string(), "n".to_string()];
    for p in REAL_PROCS {
        header.push(format!("T@{p}"));
    }
    for p in REAL_PROCS {
        header.push(format!("S@{p}"));
    }
    header.push("steals@8".to_string());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);
    let mut all = Vec::new();
    for name in REAL_SELECTED {
        let bench = mpl_bench_suite::by_name(name).expect("known benchmark");
        let n = scale_bench(bench.as_ref());
        let mut walls = Vec::new();
        let mut steals = Vec::new();
        let mut sequentialized = Vec::new();
        let mut pushes = Vec::new();
        for &p in REAL_PROCS {
            // `with_threads_exact`: the sweep deliberately runs every
            // width even on small hosts — on an undersized host the
            // wide points measure oversubscription, which the printed
            // host parallelism makes visible.
            let cfg = RuntimeConfig::managed().with_threads_exact(p);
            // Median of three (wall-clock on shared hosts is noisy).
            let mut runs: Vec<_> = (0..3).map(|_| run_mpl(bench.as_ref(), n, cfg)).collect();
            runs.sort_by_key(|r| r.wall);
            let run = runs.swap_remove(1);
            walls.push(run.wall);
            steals.push(run.stats.sched_steals);
            sequentialized.push(run.stats.sched_sequentialized);
            pushes.push(run.stats.sched_pushes);
        }
        let t1 = walls[0].as_secs_f64();
        let speedups: Vec<f64> = walls
            .iter()
            .map(|w| t1 / w.as_secs_f64().max(1e-9))
            .collect();
        let mut row = vec![name.to_string(), n.to_string()];
        row.extend(walls.iter().map(|w| fmt_dur(*w)));
        row.extend(speedups.iter().map(|s| format!("{s:.1}x")));
        row.push(steals.last().copied().unwrap_or(0).to_string());
        table.row(row);
        all.push(RealSeries {
            name: name.to_string(),
            n,
            host_parallelism: host,
            procs: REAL_PROCS.to_vec(),
            wall_us: walls.iter().map(|w| w.as_micros()).collect(),
            speedup: speedups,
            steals,
            sequentialized,
            pushes,
        });
    }
    print!("{}", table.render());
    all
}

#[derive(Serialize)]
struct Output {
    simulated: Vec<Series>,
    real: Vec<RealSeries>,
}

fn main() {
    let simulated = simulated();
    let real = real_execution();
    write_json("e3_speedup", &Output { simulated, real });
    println!("\nwrote results/e3_speedup.json");
}
