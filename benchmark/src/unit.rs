//! One timed unit per process. Every timed run (a program on one runtime
//! configuration, one open-loop run, one closed-loop pass, the unit-cost
//! loops) executes in a child process of its own, started by the workload's
//! process and reporting one JSON line.
//!
//! The reason is the C allocator, not tidiness: in one process, `mcss`
//! after `nqueens` ran 0.6 s instead of 0.31 s, and drifted from round to
//! round, because the earlier programs had changed glibc's arena and mmap
//! thresholds. A fresh process per run gives every run the same allocator
//! state, so a program's time does not depend on which programs ran before
//! it, and its peak RSS is its own.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::common::{peak_rss_mb, Args, Checker};
use crate::json::Json;
use crate::ledger::Counts;
use crate::spec::{self, Kind};
use crate::{serve, suite, units};

/// What the parent knows about a finished child.
pub struct UnitRun {
    /// The child's JSON line.
    pub doc: Json,
    /// Spawn to exit, in seconds, on the parent's clock.
    pub wall_s: f64,
}

impl UnitRun {
    pub fn num(&self, key: &str) -> f64 {
        self.doc.get(key).and_then(Json::num).unwrap_or(f64::NAN)
    }

    /// The numbers of the list `key` names (a child's `samples`).
    pub fn list(&self, key: &str) -> Vec<f64> {
        let items = self.doc.get(key).map(Json::arr).unwrap_or_default();
        items.iter().filter_map(Json::num).collect()
    }

    pub fn counts(&self) -> Counts {
        Counts::from_json(self.doc.get("counts").unwrap_or(&Json::Null))
    }

    /// Everything but the timed part: process start, runtime construction,
    /// input generation, warm-up, teardown.
    pub fn setup_s(&self) -> f64 {
        self.wall_s - self.num("secs")
    }
}

/// Runs `unit <workload> <name> <config>` in a child and waits for it.
/// `budget_s` is the child's share of the measuring time, for children that
/// repeat their timed run.
pub fn spawn(name: &str, config: &str, budget_s: f64, args: &Args) -> Result<UnitRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["unit", &args.workload, name, config])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &budget_s.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let what = format!("unit {} {name} {config}", args.workload);
    let start = Instant::now();
    // `output` waits for the child and collects its standard output.
    let out = cmd
        .output()
        .map_err(|e| format!("{what}: cannot start: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("{what}: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{what}: no output"))?;
    let doc = Json::parse(line).map_err(|e| format!("{what}: {e}"))?;
    Ok(UnitRun { doc, wall_s })
}

/// Folds a child's outcome into the parent's failure count. A child that
/// could not run, or printed nothing usable, is one failed operation.
pub fn absorb(run: Result<UnitRun, String>, checks: &mut Checker) -> Option<UnitRun> {
    match run {
        Ok(run) => {
            checks.merge(Checker::from_json(
                run.doc.get("checks").unwrap_or(&Json::Null),
            ));
            Some(run)
        }
        Err(e) => {
            checks.record("child process", vec![e]);
            None
        }
    }
}

/// The child side: `unit <workload> <name> <config> --seed N --seconds S
/// [--smoke]`.
pub fn child_main(rest: &[String]) -> ExitCode {
    let [workload, name, config, flags @ ..] = rest else {
        eprintln!("usage: mpl-benchmark unit WORKLOAD NAME CONFIG --seed N --seconds S [--smoke]");
        return ExitCode::from(2);
    };
    let Some(mut args) = Args::parse(flags) else {
        return ExitCode::from(2);
    };
    args.workload = workload.clone();
    let doc = match spec::workload(workload) {
        _ if name == "costs" => Ok(units::child(&args)),
        Some(w) if matches!(w.kind, Kind::Serve) => serve::child(name, config, &args),
        Some(w) => suite::child(w, name, config, &args),
        None => Err(format!("unknown workload {workload:?}")),
    };
    match doc {
        Ok(mut doc) => {
            doc.push("peak_rss_mb", peak_rss_mb().into());
            println!("{}", doc.compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
