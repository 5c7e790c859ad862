//! E4 — Space: maximum residency of the managed runtime vs the sequential
//! baseline (`R_1/R_s`), plus the pinned-footprint high-water mark that
//! bounds entanglement's extra space (the paper's space-cost claim). Only
//! tasks that run at once entangle — at one worker each right branch runs
//! in its left sibling's heap — so the pinned columns come from the
//! multi-worker run, made under `mpl_bench_suite::steal_schedule()`.

use mpl_bench::{fmt_bytes, run_mpl, run_seq, scale_bench, write_json, Table};
use mpl_runtime::{GcPolicy, RuntimeConfig};
use serde::Serialize;

/// Workers of the `R_3thr` column: exactly this many, whatever the host
/// (`with_threads_exact`), so the column means the same everywhere.
const THREADS: usize = 3;

#[derive(Serialize)]
struct Row {
    name: String,
    entangled: bool,
    r_seq: usize,
    r_mpl: usize,
    blowup: f64,
    /// Workers of the `r_threads` run.
    threads: usize,
    /// Maximum residency at `threads` workers.
    r_threads: usize,
    /// Peak pinned bytes of the `threads` run (one worker pins nothing).
    max_pinned: usize,
    /// `max_pinned` over `r_threads`.
    pinned_share: f64,
}

fn main() {
    println!("E4: max residency and pinned footprint\n");
    let mut table = Table::new(&[
        "benchmark",
        "class",
        "R_s",
        "R_1",
        "R_1/R_s",
        "R_3thr",
        "peak pinned (3thr)",
        "pinned/R_3thr",
    ]);
    // Equal collection aggressiveness on both runtimes.
    let policy = GcPolicy {
        lgc_trigger_bytes: 256 * 1024,
        cgc_trigger_pinned_bytes: 128 * 1024,
    };
    let mut rows = Vec::new();
    for bench in mpl_bench_suite::all() {
        let n = scale_bench(bench.as_ref());
        let seq = run_seq(bench.as_ref(), n);
        let cfg = RuntimeConfig::managed().with_policy(policy);
        let mpl = run_mpl(bench.as_ref(), n, cfg);
        assert_eq!(mpl.checksum, seq.checksum, "{}", bench.name());
        // Residency with real concurrent tasks: parallel allocation
        // raises the high-water mark, the R_P effect.
        let thr = run_mpl(
            bench.as_ref(),
            n,
            RuntimeConfig::managed()
                .with_policy(policy)
                .with_threads_exact(THREADS)
                .with_failpoints(mpl_bench_suite::steal_schedule()),
        );
        assert_eq!(thr.checksum, seq.checksum, "{} (threads)", bench.name());
        let r_s = seq.stats.max_live_bytes.max(1);
        let r_1 = mpl.stats.max_live_bytes;
        let blowup = r_1 as f64 / r_s as f64;
        let tiny = r_s < 1024 && r_1 < 1024; // no residency to speak of
        assert_eq!(mpl.stats.pins, 0, "{}: one worker never pins", bench.name());
        let pinned = thr.stats.max_pinned_bytes;
        let share = pinned as f64 / thr.stats.max_live_bytes.max(1) as f64;
        table.row(vec![
            bench.name().into(),
            if bench.entangled() { "ent" } else { "dis" }.into(),
            fmt_bytes(r_s),
            fmt_bytes(r_1),
            if tiny {
                "-".into()
            } else {
                format!("{blowup:.2}x")
            },
            fmt_bytes(thr.stats.max_live_bytes),
            fmt_bytes(pinned),
            format!("{:.1}%", share * 100.0),
        ]);
        rows.push(Row {
            name: bench.name().into(),
            entangled: bench.entangled(),
            r_seq: r_s,
            r_mpl: r_1,
            blowup,
            threads: THREADS,
            r_threads: thr.stats.max_live_bytes,
            max_pinned: pinned,
            pinned_share: share,
        });
    }
    print!("{}", table.render());
    write_json("e4_space", &rows);
    println!("\nwrote results/e4_space.json");
    println!("\nNote: disentangled rows must show zero pinned bytes — the");
    println!("management machinery is free when unused (shielding claim).");
}
