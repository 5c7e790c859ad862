//! What every workload shares: arguments, the result record, the failure
//! counter, and what the process knows about its host.

use std::path::PathBuf;

use crate::json::{obj, Json};
use crate::rounds::NoiseReport;
use crate::spec::{Better, MetricSpec, RUN_SECONDS};
use crate::stats::Summary;

/// Arguments of one workload run (`one` mode; `run` passes them down).
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measuring time asked for.
    pub seconds: f64,
    pub trace: bool,
    /// 5 % sizes: a quick functional pass, not a measurement.
    pub smoke: bool,
}

impl Args {
    /// Reads the flags after a subcommand; `None` on an unknown flag or a
    /// bad value. Defaults: seed 1, `RUN_SECONDS`, untraced, full sizes.
    pub fn parse(flags: &[String]) -> Option<Args> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: false,
            smoke: false,
        };
        let mut it = flags.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--smoke" => args.smoke = true,
                "--workload" => args.workload = it.next()?.clone(),
                "--seed" => args.seed = it.next()?.parse().ok()?,
                "--seconds" => {
                    let seconds: f64 = it.next()?.parse().ok()?;
                    args.seconds = Some(seconds).filter(|s| s.is_finite() && *s >= 0.0)?;
                }
                "--trace" => {
                    args.trace = match it.next()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    }
                }
                _ => return None,
            }
        }
        Some(args)
    }
}

/// Workers of the parallel runs: min(`nproc`, 4).
pub fn par_workers() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `benchmark/out/`, created on demand. The path is fixed at build time,
/// so results land in the checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The checkout's commit, read from `.git` without running git; the
/// driver's checkout is not a repository and reads "unknown".
pub fn commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        h => h.to_string(),
    }
}

/// Counts checked operations and keeps the first few failure messages.
#[derive(Clone, Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checker {
    /// One operation: failed if `problems` is non-empty.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages
                    .push(format!("{what}: {}", problems.join("; ")));
            }
        }
    }

    /// `n` operations checked in bulk, `failed` of them bad.
    pub fn record_bulk(&mut self, what: &str, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 && self.messages.len() < 20 {
            self.messages
                .push(format!("{what}: {failed} of {n} failed"));
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("messages", self.messages.clone().into()),
        ])
    }

    /// The checks a child process reported.
    pub fn from_json(doc: &Json) -> Checker {
        let num = |k: &str| doc.get(k).and_then(Json::num).unwrap_or(0.0) as u64;
        let messages = doc.get("messages").map(Json::arr).unwrap_or_default();
        Checker {
            attempted: num("attempted"),
            failed: num("failed"),
            messages: messages
                .iter()
                .filter_map(Json::str)
                .map(str::to_string)
                .collect(),
        }
    }

    /// Adds another counter's operations and, while there is room, messages.
    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

/// One reported metric: the value, what it is a median of, and its bound.
#[derive(Clone, Debug)]
pub struct Metric {
    pub spec: MetricSpec,
    pub value: f64,
    /// Quartiles and count of the samples behind `value`.
    pub samples: Summary,
}

impl Metric {
    pub fn new(spec: &MetricSpec, value: f64, samples: Summary) -> Metric {
        Metric {
            spec: *spec,
            value,
            samples,
        }
    }

    /// A metric measured once (a count, a process-wide reading).
    pub fn single(spec: &MetricSpec, value: f64) -> Metric {
        Metric::new(spec, value, Summary::of(&[value]))
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("value", self.value.into()),
            ("unit", self.spec.unit.into()),
            ("better", self.spec.better.as_str().into()),
            ("bound", self.spec.bound.map_or(Json::Null, Into::into)),
            ("samples", self.samples.n.into()),
            ("q1", self.samples.q1.into()),
            ("q3", self.samples.q3.into()),
        ])
    }
}

/// Everything one workload run produced.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    pub args: Args,
    pub workers: usize,
    pub sizes: Vec<(String, usize)>,
    pub checks: Checker,
    pub noise: NoiseReport,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// One object per program, kernel or rate: medians, quartiles, sample
    /// counts, speed-up with its base, count columns.
    pub rows: Vec<Json>,
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.spec.name == name)
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the last restricted to the names in `wanted`.
    pub fn driver_line(&self, wanted: &[MetricSpec]) -> String {
        let metrics = wanted
            .iter()
            .filter_map(|w| self.metric(w.name))
            .map(|m| {
                (
                    m.spec.name.to_string(),
                    obj([("value", m.value.into()), ("unit", m.spec.unit.into())]),
                )
            })
            .collect();
        obj([
            ("correct", (self.checks.failed == 0).into()),
            ("attempted", self.checks.attempted.into()),
            ("failed", self.checks.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("workload", self.args.workload.as_str().into()),
            ("seed", self.args.seed.into()),
            ("seconds", self.args.seconds.into()),
            ("smoke", self.args.smoke.into()),
            ("traced", self.args.trace.into()),
            ("commit", commit().into()),
            ("nproc", nproc().into()),
            ("workers", self.workers.into()),
            (
                "sizes",
                Json::Obj(
                    self.sizes
                        .iter()
                        .map(|(k, n)| (k.clone(), (*n).into()))
                        .collect(),
                ),
            ),
            ("attempted", self.checks.attempted.into()),
            ("failed", self.checks.failed.into()),
            ("failed_share", self.checks.failed_share().into()),
            ("failures", self.checks.messages.clone().into()),
            ("calib_ms", self.noise.calib_ms.into()),
            ("calib_max_dev", self.noise.calib_max_dev.into()),
            ("retries", self.noise.retries.into()),
            ("noisy_units_kept", self.noise.noisy_kept.into()),
            ("wake_us_before", self.noise.wake_us.0.into()),
            ("wake_us_after", self.noise.wake_us.1.into()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.spec.name.to_string(), m.to_json()))
                        .collect(),
                ),
            ),
            ("rows", Json::Arr(self.rows.clone())),
        ])
    }

    /// Prints every metric by name with unit, sample count and bound, then
    /// the per-program rows.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {} worker(s) for tp, nproc {}{}) ==",
            self.args.workload,
            self.args.seed,
            self.workers,
            nproc(),
            if self.args.smoke { ", SMOKE sizes" } else { "" }
        );
        for m in &self.metrics {
            let bound = match m.spec.bound {
                Some(b) => format!("bound {:.0}%", b * 100.0),
                None => "not gated".to_string(),
            };
            println!(
                "  {:<28} {:>14.6} {:<6} n={:<3} q1={:<12.6} q3={:<12.6} {} ({} is better)",
                m.spec.name,
                m.value,
                m.spec.unit,
                m.samples.n,
                m.samples.q1,
                m.samples.q3,
                bound,
                m.spec.better.as_str()
            );
        }
        println!(
            "  {:<28} {:>14.6} share  failed {} of {} attempted",
            "failed_share",
            self.checks.failed_share(),
            self.checks.failed,
            self.checks.attempted
        );
        println!(
            "  noise guard: calib_ms {:.2} (max deviation {:.1}%), retries {}, noisy units kept {}; thread wake-up {:.1} us before, {:.1} us after",
            self.noise.calib_ms,
            self.noise.calib_max_dev * 100.0,
            self.noise.retries,
            self.noise.noisy_kept,
            self.noise.wake_us.0,
            self.noise.wake_us.1
        );
        for msg in &self.checks.messages {
            println!("  FAILED {msg}");
        }
        for row in &self.rows {
            println!("  row {}", row.compact());
        }
    }
}

/// `{median, q1, q3, n}` of a sample, for rows.
pub fn summary_json(s: &Summary) -> Json {
    obj([
        ("median", s.median.into()),
        ("q1", s.q1.into()),
        ("q3", s.q3.into()),
        ("n", s.n.into()),
    ])
}

/// The share of `a` by which `b` is worse (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}
