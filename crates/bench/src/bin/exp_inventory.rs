//! E1 — Benchmark inventory table: name, class (disentangled/entangled),
//! default size, and the memory-behaviour profile measured on a small run
//! (allocations, barriered accesses, entangled accesses, pins). Tasks
//! entangle only when they run at once — at one worker each right branch
//! runs in its left sibling's heap — so entangled benchmarks are profiled
//! on two workers under `mpl_bench_suite::steal_schedule()`.

use mpl_bench::{run_mpl, run_native, write_json, Table};
use mpl_runtime::RuntimeConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: String,
    entangled: bool,
    default_n: usize,
    allocs: u64,
    barrier_reads: u64,
    entangled_reads: u64,
    pins: u64,
}

fn main() {
    println!("E1: benchmark inventory (profiles from small runs)\n");
    let mut table = Table::new(&[
        "benchmark",
        "class",
        "default n",
        "allocs",
        "barrier reads",
        "entangled reads",
        "pins",
    ]);
    let mut rows = Vec::new();
    for bench in mpl_bench_suite::all() {
        let n = bench.small_n();
        let config = if bench.entangled() {
            RuntimeConfig::managed()
                .with_threads_exact(2)
                .with_failpoints(mpl_bench_suite::steal_schedule())
        } else {
            RuntimeConfig::managed()
        };
        let run = run_mpl(bench.as_ref(), n, config);
        let (native, _) = run_native(bench.as_ref(), n);
        assert_eq!(run.checksum, native, "{}: checksum mismatch", bench.name());
        let class = if bench.entangled() {
            "entangled"
        } else {
            "disentangled"
        };
        table.row(vec![
            bench.name().to_string(),
            class.to_string(),
            bench.default_n().to_string(),
            run.stats.allocs.to_string(),
            run.stats.barrier_reads.to_string(),
            run.stats.entangled_reads.to_string(),
            run.stats.pins.to_string(),
        ]);
        rows.push(Row {
            name: bench.name().to_string(),
            entangled: bench.entangled(),
            default_n: bench.default_n(),
            allocs: run.stats.allocs,
            barrier_reads: run.stats.barrier_reads,
            entangled_reads: run.stats.entangled_reads,
            pins: run.stats.pins,
        });
    }
    print!("{}", table.render());
    write_json("e1_inventory", &rows);
    println!("\nwrote results/e1_inventory.json");
}
