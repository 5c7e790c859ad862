//! The repository's benchmark. See README.md.
//!
//! ```text
//! mpl-benchmark one --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! mpl-benchmark run       [--seed N] [--seconds S] [--smoke]
//! mpl-benchmark trace     [--seed N] [--seconds S] [--smoke]
//! mpl-benchmark selfcheck [--seed N] [--seconds S] [--smoke]
//! mpl-benchmark compare A.json B.json
//! mpl-benchmark spec
//! ```
//!
//! `one` measures a single workload in this process and ends with the JSON
//! line the driver reads; `BENCHMARK.json`'s command is `cargo run … -- one`.
//! `run` and `trace` start one `one` child per workload, so that each
//! workload's peak RSS is its own and at most `nproc` threads ever run.

mod churn;
mod common;
mod json;
mod ledger;
mod report;
mod rounds;
mod serve;
mod span;
mod spec;
mod stats;
mod suite;
mod unit;
mod units;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use common::{out_dir, Args, WorkloadResult};
use json::Json;
use spec::{Kind, END_TO_END, PER_LAYER, WORKLOADS};

/// Spans kept per traced run; a serve run makes one per request.
const SPAN_CAP: usize = 200_000;

fn usage() -> ExitCode {
    eprintln!(
        "usage: mpl-benchmark one --workload W --seed N --seconds S --trace 0|1 [--smoke]\n       \
         mpl-benchmark run|trace|selfcheck [--seed N] [--seconds S] [--smoke]\n       \
         mpl-benchmark compare A.json B.json\nworkloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

/// Measures one workload in this process.
fn one(args: &Args) -> ExitCode {
    let Some(w) = spec::workload(&args.workload) else {
        eprintln!("unknown workload {:?}", args.workload);
        return usage();
    };
    let out = out_dir();
    let result: WorkloadResult = if args.trace {
        let mut rec = span::Recorder::new(SPAN_CAP);
        rec.enter(&format!("workload:{}", w.name), span::Layer::Bench, 0);
        rec.enter("child:unit_costs", span::Layer::Bench, 0);
        let started = rec.now_ns();
        let costs = match unit::spawn("costs", "-", 0.0, args) {
            Ok(run) => run.doc,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        rec.graft(costs.get("spans").unwrap_or(&Json::Null), started);
        rec.exit();
        let unit_costs =
            units::UnitCosts::from_json(costs.get("unit_costs").unwrap_or(&Json::Null));
        let (result, mut ledger) = match w.kind {
            Kind::Serve => serve::trace(args, &unit_costs, &mut rec),
            _ => suite::trace(w, args, &unit_costs, &mut rec),
        };
        rec.exit();
        ledger.push("workload", w.name.into());
        ledger.push("seed", args.seed.into());
        ledger.push(
            "per_layer",
            result
                .to_json()
                .get("metrics")
                .cloned()
                .unwrap_or(Json::Null),
        );
        let self_time = rec
            .self_time_by_layer()
            .into_iter()
            .map(|(layer, ns)| (layer.to_string(), (ns as f64 / 1e9).into()));
        ledger.push("span_self_time_s", Json::Obj(self_time.collect()));
        write(
            &out.join(format!("trace.{}.json", w.name)),
            &rec.chrome_trace().compact(),
        );
        write(
            &out.join(format!("ledger.{}.json", w.name)),
            &ledger.pretty(),
        );
        result
    } else {
        let result = match w.kind {
            Kind::Serve => serve::run(args),
            _ => suite::run(w, args),
        };
        write(
            &workload_file(w.name, args.seed),
            &result.to_json().pretty(),
        );
        result
    };
    result.print();
    println!(
        "{}",
        result.driver_line(if args.trace { PER_LAYER } else { END_TO_END })
    );
    if result.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn workload_file(workload: &str, seed: u64) -> PathBuf {
    out_dir().join(format!("workload.{workload}.{seed}.json"))
}

fn write(path: &std::path::Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// Runs every workload as a child `one` process; true if all passed.
fn children(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["one", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // `status` waits for the child to end.
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("workload {} failed: {status}", w.name);
                all_ok = false;
            }
            Err(e) => {
                eprintln!("cannot start workload {}: {e}", w.name);
                all_ok = false;
            }
        }
    }
    all_ok
}

/// `run`: all workloads, then the merged result file. Returns the document.
fn run_all(args: &Args, label: &str) -> Result<Json, String> {
    let ok = children(args);
    let mut docs = Vec::new();
    for w in WORKLOADS {
        let path = workload_file(w.name, args.seed);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        docs.push(Json::parse(&text)?);
    }
    let doc = report::merge(args.seed, args.seconds, args.smoke, docs);
    let path = out_dir().join(format!("result.{label}.json"));
    write(&path, &doc.pretty());
    println!("wrote {}", path.display());
    if ok {
        Ok(doc)
    } else {
        Err("a workload failed its checks".into())
    }
}

fn selfcheck(args: &Args) -> Result<bool, String> {
    let a = run_all(args, &format!("{}.A", args.seed))?;
    let b = run_all(args, &format!("{}.B", args.seed))?;
    println!("\nA/A: the same build and seed, measured twice");
    // Either run may come out slower: a metric fails if it differs by more
    // than its bound, and by more than the runs' own spread, in either
    // direction.
    let beyond = report::print_pairs(&report::pairs(&a, &b), "A", "B")
        + report::regressed(&report::pairs(&b, &a));
    println!("{beyond} metric(s) differ by more than their own bound");
    Ok(beyond == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    if cmd == "compare" {
        let [a, b] = rest else { return usage() };
        return match (report::read(a.as_ref()), report::read(b.as_ref())) {
            (Ok(da), Ok(db)) => {
                let beyond = report::print_pairs(&report::pairs(&da, &db), "A", "B");
                println!("{beyond} metric(s) regressed beyond their bound");
                if beyond == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    if cmd == "unit" {
        return unit::child_main(rest);
    }
    if cmd == "calib" {
        // The noise guard's loop on its own, to see what the host does.
        for _ in 0..10 {
            println!(
                "calibration {:.2} ms, thread wake-up {:.1} us",
                rounds::calibrate(),
                rounds::wake_latency_us()
            );
        }
        return ExitCode::SUCCESS;
    }
    if cmd == "spec" {
        print!("{}", spec::driver_contract().pretty());
        return ExitCode::SUCCESS;
    }
    let Some(mut args) = Args::parse(rest) else {
        return usage();
    };
    let outcome = match cmd.as_str() {
        "one" => return one(&args),
        "run" => run_all(&args, &args.seed.to_string()).map(|_| true),
        "trace" => {
            args.trace = true;
            Ok(children(&args))
        }
        "selfcheck" => selfcheck(&args),
        _ => return usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
