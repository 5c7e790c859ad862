//! E9 — Ablations over the design parameters DESIGN.md calls out:
//!
//! * chunk size (allocation granularity vs reclamation granularity);
//! * LGC trigger (collection frequency vs residency);
//! * CGC trigger (pinned-footprint threshold vs sweep frequency).

use mpl_bench::{fmt_bytes, fmt_dur, run_mpl, scaled, write_json, Table};
use mpl_runtime::{GcPolicy, RuntimeConfig, StoreConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    ablation: String,
    benchmark: String,
    setting: String,
    wall_us: u128,
    max_live: usize,
    lgc_runs: u64,
    cgc_runs: u64,
    max_pinned: usize,
    lgc_pause_ns_total: u64,
    lgc_pause_ns_max: u64,
}

fn main() {
    println!("E9: ablations (block size, LGC trigger, CGC trigger)\n");
    let mut rows = Vec::new();

    // Block-size sweep on msort (allocation-heavy, disentangled).
    let mut t1 = Table::new(&["block words", "wall", "R_1", "LGC runs"]);
    let msort = mpl_bench_suite::by_name("msort").unwrap();
    let n = scaled(msort.default_n()) / 2;
    for words in [128usize, 512, 2048] {
        let cfg = RuntimeConfig {
            store: StoreConfig {
                block_words: words,
                ..Default::default()
            },
            ..RuntimeConfig::managed()
        };
        let run = run_mpl(msort.as_ref(), n, cfg);
        t1.row(vec![
            words.to_string(),
            fmt_dur(run.wall),
            fmt_bytes(run.stats.max_live_bytes),
            run.stats.lgc_runs.to_string(),
        ]);
        rows.push(Row {
            ablation: "block_words".into(),
            benchmark: "msort".into(),
            setting: words.to_string(),
            wall_us: run.wall.as_micros(),
            max_live: run.stats.max_live_bytes,
            lgc_runs: run.stats.lgc_runs,
            cgc_runs: run.stats.cgc_runs,
            max_pinned: run.stats.max_pinned_bytes,
            lgc_pause_ns_total: run.stats.lgc_pause_ns_total,
            lgc_pause_ns_max: run.stats.lgc_pause_ns_max,
        });
    }
    println!("chunk-size sweep (msort, n={n}):");
    print!("{}", t1.render());

    // LGC trigger sweep on msort. The pause columns make the trigger's
    // pause/residency trade explicit: smaller triggers collect more often
    // but each pause covers a smaller heap.
    let mut t2 = Table::new(&[
        "LGC trigger",
        "wall",
        "R_1",
        "LGC runs",
        "total LGC pause",
        "max LGC pause",
    ]);
    for trigger in [64 * 1024usize, 256 * 1024, 1024 * 1024] {
        let cfg = RuntimeConfig::managed().with_policy(GcPolicy {
            lgc_trigger_bytes: trigger,
            ..GcPolicy::default()
        });
        let run = run_mpl(msort.as_ref(), n, cfg);
        t2.row(vec![
            fmt_bytes(trigger),
            fmt_dur(run.wall),
            fmt_bytes(run.stats.max_live_bytes),
            run.stats.lgc_runs.to_string(),
            fmt_dur(std::time::Duration::from_nanos(
                run.stats.lgc_pause_ns_total,
            )),
            fmt_dur(std::time::Duration::from_nanos(run.stats.lgc_pause_ns_max)),
        ]);
        rows.push(Row {
            ablation: "lgc_trigger".into(),
            benchmark: "msort".into(),
            setting: trigger.to_string(),
            wall_us: run.wall.as_micros(),
            max_live: run.stats.max_live_bytes,
            lgc_runs: run.stats.lgc_runs,
            cgc_runs: run.stats.cgc_runs,
            max_pinned: run.stats.max_pinned_bytes,
            lgc_pause_ns_total: run.stats.lgc_pause_ns_total,
            lgc_pause_ns_max: run.stats.lgc_pause_ns_max,
        });
    }
    println!("\nLGC-trigger sweep (msort, n={n}):");
    print!("{}", t2.render());

    // CGC trigger sweep on dedup (entangled).
    let mut t3 = Table::new(&["CGC trigger", "wall", "CGC runs", "peak pinned"]);
    let dedup = mpl_bench_suite::by_name("dedup").unwrap();
    let dn = scaled(dedup.default_n()) / 2;
    for trigger in [32 * 1024usize, 128 * 1024, usize::MAX] {
        let cfg = RuntimeConfig::managed().with_policy(GcPolicy {
            cgc_trigger_pinned_bytes: trigger,
            ..GcPolicy::default()
        });
        let run = run_mpl(dedup.as_ref(), dn, cfg);
        let label = if trigger == usize::MAX {
            "off".to_string()
        } else {
            fmt_bytes(trigger)
        };
        t3.row(vec![
            label.clone(),
            fmt_dur(run.wall),
            run.stats.cgc_runs.to_string(),
            fmt_bytes(run.stats.max_pinned_bytes),
        ]);
        rows.push(Row {
            ablation: "cgc_trigger".into(),
            benchmark: "dedup".into(),
            setting: label,
            wall_us: run.wall.as_micros(),
            max_live: run.stats.max_live_bytes,
            lgc_runs: run.stats.lgc_runs,
            cgc_runs: run.stats.cgc_runs,
            max_pinned: run.stats.max_pinned_bytes,
            lgc_pause_ns_total: run.stats.lgc_pause_ns_total,
            lgc_pause_ns_max: run.stats.lgc_pause_ns_max,
        });
    }
    println!("\nCGC-trigger sweep (dedup, n={dn}):");
    print!("{}", t3.render());

    write_json("e9_ablation", &rows);
    println!("\nwrote results/e9_ablation.json");
}
