//! E5 — The cost of entanglement management, separated by who pays:
//!
//! * **disentangled suite** — `Managed` vs `NoEntanglementBarrier`
//!   (unsafe): the barrier is the *only* cost; the table reports its
//!   overhead and confirms zero pins.
//! * **entangled suite** — `Managed` runs (with pin/unpin/CGC activity
//!   reported); `DetectOnly` (prior MPL) *aborts*, demonstrating why
//!   management is needed at all. At one worker every right branch runs
//!   after its left sibling, in its heap, so nothing entangles: the
//!   entanglement rows are two-worker runs under
//!   [`mpl_bench_suite::steal_schedule`], beside the one-worker pins.

use mpl_bench::{fmt_bytes, fmt_dur, run_mpl, scale_bench, write_json, MplRun, Table};
use mpl_runtime::{Runtime, RuntimeConfig, Value};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: String,
    entangled: bool,
    t_managed_us: u128,
    t_nobarrier_us: Option<u128>,
    barrier_overhead: Option<f64>,
    entangled_reads: u64,
    entangled_writes: u64,
    pins: u64,
    unpins: u64,
    pins_at_1_worker: u64,
    steals: u64,
    max_pinned_bytes: usize,
    lgc_pause_ns_total: u64,
    lgc_pause_ns_max: u64,
    detect_only_aborts: bool,
}

fn main() {
    println!("E5: entanglement-management costs (barrier overhead; pin activity)\n");
    let mut table = Table::new(&[
        "benchmark",
        "class",
        "T managed",
        "T detect-only",
        "T no-barrier",
        "barrier ovh",
        "pins@1w",
        "steals",
        "ent.reads",
        "pins",
        "unpins",
        "peak pinned",
        "CGC runs",
        "max LGC pause",
        "max CGC pause",
        "prior MPL",
    ]);
    let mut rows = Vec::new();
    let stolen = RuntimeConfig::managed()
        .with_threads_exact(2)
        .with_failpoints(mpl_bench_suite::steal_schedule());
    for bench in mpl_bench_suite::all() {
        let n = scale_bench(bench.as_ref());
        let one = run_mpl(bench.as_ref(), n, RuntimeConfig::managed());
        let pins_at_1_worker = one.stats.pins;
        // Entanglement needs a branch running beside its sibling: an
        // entangled benchmark's counts come from a two-worker run that
        // steals (its time stays the one-worker run's).
        let managed = if bench.entangled() {
            let two = run_mpl(bench.as_ref(), n, stolen);
            assert_eq!(two.checksum, one.checksum, "{}", bench.name());
            MplRun {
                wall: one.wall,
                ..two
            }
        } else {
            one
        };
        let steals = managed.stats.sched_steals;

        // The no-barrier runtime is only sound for disentangled programs.
        let (t_nb, ovh) = if !bench.entangled() {
            let nb = run_mpl(bench.as_ref(), n, RuntimeConfig::no_barrier());
            assert_eq!(nb.checksum, managed.checksum, "{}", bench.name());
            let ovh = managed.wall.as_secs_f64() / nb.wall.as_secs_f64().max(1e-9) - 1.0;
            (Some(nb.wall), Some(ovh))
        } else {
            (None, None)
        };

        // Prior MPL (DetectOnly): equal cost on disentangled programs...
        let t_detect = if !bench.entangled() {
            Some(run_mpl(bench.as_ref(), n, RuntimeConfig::detect_only()).wall)
        } else {
            None
        };
        // ...and an abort on the entangled suite, once a branch is stolen.
        let aborts = if bench.entangled() {
            let rt = Runtime::new(RuntimeConfig {
                mode: RuntimeConfig::detect_only().mode,
                ..stolen
            });
            // The abort is the expected outcome; keep its backtrace out of
            // the report.
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.run(|m| Value::Int(bench.run_mpl(m, n)))
            }))
            .is_err();
            std::panic::set_hook(hook);
            refused
        } else {
            false
        };

        table.row(vec![
            bench.name().into(),
            if bench.entangled() { "ent" } else { "dis" }.into(),
            fmt_dur(managed.wall),
            t_detect.map(fmt_dur).unwrap_or_else(|| "aborts".into()),
            t_nb.map(fmt_dur).unwrap_or_else(|| "unsound".into()),
            ovh.map(|o| format!("{:+.1}%", o * 100.0))
                .unwrap_or_else(|| "-".into()),
            pins_at_1_worker.to_string(),
            steals.to_string(),
            managed.stats.entangled_reads.to_string(),
            managed.stats.pins.to_string(),
            managed.stats.unpins.to_string(),
            fmt_bytes(managed.stats.max_pinned_bytes),
            managed.stats.cgc_runs.to_string(),
            fmt_dur(std::time::Duration::from_nanos(
                managed.stats.lgc_pause_ns_max,
            )),
            fmt_dur(std::time::Duration::from_nanos(
                managed.stats.cgc_pause_ns_max,
            )),
            if bench.entangled() {
                if aborts { "aborts" } else { "??" }.into()
            } else {
                "ok".to_string()
            },
        ]);
        rows.push(Row {
            name: bench.name().into(),
            entangled: bench.entangled(),
            t_managed_us: managed.wall.as_micros(),
            t_nobarrier_us: t_nb.map(|d| d.as_micros()),
            barrier_overhead: ovh,
            entangled_reads: managed.stats.entangled_reads,
            entangled_writes: managed.stats.entangled_writes,
            pins: managed.stats.pins,
            unpins: managed.stats.unpins,
            pins_at_1_worker,
            steals,
            max_pinned_bytes: managed.stats.max_pinned_bytes,
            lgc_pause_ns_total: managed.stats.lgc_pause_ns_total,
            lgc_pause_ns_max: managed.stats.lgc_pause_ns_max,
            detect_only_aborts: aborts,
        });
        // Invariants the paper proves, checked on every run:
        assert_eq!(
            pins_at_1_worker,
            0,
            "{}: one worker never pins",
            bench.name()
        );
        if !bench.entangled() {
            assert_eq!(
                managed.stats.pins,
                0,
                "{}: disentangled never pins",
                bench.name()
            );
        }
        assert_eq!(
            managed.stats.pinned_bytes,
            0,
            "{}: all pins resolve by program end",
            bench.name()
        );
    }
    print!("{}", table.render());
    write_json("e5_entangled", &rows);

    // Addendum: CGC pause times. At full scale the default trigger (1 MiB
    // of pinned footprint, with doubling amortization) rarely fires; run
    // the pin-heaviest benchmarks under a CGC-pressure policy so the
    // concurrent collector's pause profile is visible.
    println!("\nCGC pause profile (cgc trigger = 64 KiB pinned):");
    let mut pause = Table::new(&[
        "benchmark",
        "threads",
        "CGC runs",
        "swept",
        "total pause",
        "max pause",
        "peak pinned",
    ]);
    // Two workers under the steal schedule: at one worker nothing
    // entangles.
    for name in ["dedup", "bfs", "msqueue"] {
        let bench = mpl_bench_suite::by_name(name).expect("known benchmark");
        let n = scale_bench(bench.as_ref());
        let threads = stolen.threads;
        let mut cfg = stolen;
        cfg.policy.cgc_trigger_pinned_bytes = 64 * 1024;
        let out = run_mpl(bench.as_ref(), n, cfg);
        pause.row(vec![
            name.into(),
            threads.to_string(),
            out.stats.cgc_runs.to_string(),
            fmt_bytes(out.stats.cgc_swept_bytes as usize),
            fmt_dur(std::time::Duration::from_nanos(
                out.stats.cgc_pause_ns_total,
            )),
            fmt_dur(std::time::Duration::from_nanos(out.stats.cgc_pause_ns_max)),
            fmt_bytes(out.stats.max_pinned_bytes),
        ]);
    }
    print!("{}", pause.render());

    // Second addendum (E13): deterministic reclamation at scale, under
    // the work-packet collector at several worker counts. The suite's
    // entangled benchmarks keep their structures reachable to the end
    // (checksums), so CGC finds nothing dead there. This scenario builds
    // the paper's reclamation case directly on the substrate: a sibling
    // pins 100k objects, the owner's local collection shields them in
    // place (entangled space), the pinner then drops half — the
    // concurrent collector must reclaim exactly that half. Repeated
    // rounds (fresh store each) yield full-cycle pause percentiles per
    // worker count; `workers = 0` is the packetized collector driven
    // sequentially (no executor), the single-threaded baseline.
    println!("\nE13: CGC reclamation at scale (100k shielded objects, half dropped):");
    {
        use mpl_gc::{collect_entangled, collect_local, CgcState};
        use mpl_heap::{ObjKind, ObjRef, Store, StoreConfig, Value as HVal};

        const N: usize = 100_000;
        const ROUNDS: usize = 9;

        #[derive(Serialize)]
        struct E13Row {
            workers: usize,
            rounds: usize,
            pause_p50_us: u128,
            pause_p90_us: u128,
            pause_max_us: u128,
            packets: u64,
        }

        let run_round = |state: &CgcState| -> std::time::Duration {
            let s = Store::new(StoreConfig::default());
            let root = s.new_root_heap();
            let (l, _r) = s.fork_heaps(root);
            let mut objs: Vec<ObjRef> = (0..N)
                .map(|i| s.alloc_values(l, ObjKind::Ref, &[HVal::Int(i as i64)]))
                .collect();
            // A task on the left path pins every object (entanglement
            // level 0: the pinner's LCA with the owner is the root).
            for &o in &objs {
                s.pin(o, 0);
            }
            // The owner's local collection shields the pinned population.
            let mut no_roots: [ObjRef; 0] = [];
            let emptied = collect_local(&s, l, &mut no_roots).dead_blocks;
            state.retire(&s, &emptied);
            // The pinner drops every other object.
            let survivors: Vec<ObjRef> = objs
                .drain(..)
                .enumerate()
                .filter_map(|(i, o)| (i % 2 == 0).then_some(o))
                .collect();
            // One slot roots every survivor, the way one task's root stack
            // would; the snapshot chunks it into grey packets.
            let slot = state.open_slot();
            for &o in &survivors {
                slot.roots.push(s.resolve(o));
            }
            let start = std::time::Instant::now();
            let out = collect_entangled(&s, state);
            let pause = start.elapsed();
            state.close_slot(&s, &slot);
            assert_eq!(out.swept_objects, N / 2, "exactly the dropped half");
            assert!(
                survivors
                    .iter()
                    .all(|&o| !s.resolved_handle(o).obj().header().is_dead()),
                "survivors intact"
            );
            pause
        };

        let mut e13 = Table::new(&["workers", "rounds", "p50 pause", "p90 pause", "max pause"]);
        let mut e13_rows = Vec::new();
        for workers in [0usize, 2, 4, 8] {
            let ex = (workers > 0).then(|| mpl_sched::Executor::new(workers));
            let _driver = ex.as_ref().and_then(|e| e.install_driver());
            let state = CgcState::new();
            let mut pauses: Vec<std::time::Duration> =
                (0..ROUNDS).map(|_| run_round(&state)).collect();
            pauses.sort();
            let (p50, p90, pmax) = (
                pauses[ROUNDS / 2],
                pauses[(ROUNDS * 9) / 10],
                pauses[ROUNDS - 1],
            );
            e13.row(vec![
                if workers == 0 {
                    "seq".into()
                } else {
                    workers.to_string()
                },
                ROUNDS.to_string(),
                fmt_dur(p50),
                fmt_dur(p90),
                fmt_dur(pmax),
            ]);
            e13_rows.push(E13Row {
                workers,
                rounds: ROUNDS,
                pause_p50_us: p50.as_micros(),
                pause_p90_us: p90.as_micros(),
                pause_max_us: pmax.as_micros(),
                packets: 0, // per-cycle packet counts live in StoreStats, not here
            });
        }
        print!("{}", e13.render());
        write_json("e13_cgc_parallel", &e13_rows);
    }
    println!("\nwrote results/e5_entangled.json, results/e13_cgc_parallel.json");
}
