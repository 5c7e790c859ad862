//! Result files and what is computed from two of them: `compare` and the
//! A/A table of `selfcheck`.
//!
//! `run` writes `out/result.<seed>.json`:
//! `{schema, commit, seed, nproc, workers, seconds, smoke, workloads: {<name>:
//! {sizes, attempted, failed, failed_share, calib_ms, retries, metrics:
//! {<name>: {value, unit, better, bound, samples, q1, q3}}, rows: [...]}}}`.

use std::path::Path;

use crate::common::worse_by;
use crate::json::{obj, Json};
use crate::spec::Better;

pub const SCHEMA: &str = "mpl-benchmark/1";

/// Joins the per-workload documents of one `run` into the result file.
pub fn merge(seed: u64, seconds: f64, smoke: bool, workloads: Vec<Json>) -> Json {
    let first = workloads.first();
    let field = |k: &str| first.and_then(|w| w.get(k)).cloned().unwrap_or(Json::Null);
    obj([
        ("schema", SCHEMA.into()),
        ("commit", field("commit")),
        ("seed", seed.into()),
        ("nproc", field("nproc")),
        ("workers", field("workers")),
        ("seconds", seconds.into()),
        ("smoke", smoke.into()),
        (
            "workloads",
            Json::Obj(
                workloads
                    .into_iter()
                    .map(|w| {
                        (
                            w.get("workload")
                                .and_then(Json::str)
                                .unwrap_or("?")
                                .to_string(),
                            w,
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get("schema").and_then(Json::str) {
        Some(SCHEMA) => Ok(doc),
        other => Err(format!(
            "{}: schema {other:?}, expected {SCHEMA:?}",
            path.display()
        )),
    }
}

/// One metric of one workload in both files.
pub struct Pair {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// Share by which B is worse than A (negative: better).
    pub worse: f64,
    pub bound: Option<f64>,
    /// The wider of the two runs' own spreads (quartile distance over
    /// median of the samples behind the value).
    pub spread: f64,
}

impl Pair {
    /// `regressed` beyond the bound, `unresolved` when the difference is
    /// inside the run-to-run spread, else `improved` or `same`.
    pub fn verdict(&self) -> &'static str {
        if self.worse == 0.0 {
            "same"
        } else if self.worse.abs() <= self.spread {
            "unresolved"
        } else if self.bound.is_some_and(|b| self.worse > b) {
            "regressed"
        } else if self.worse < 0.0 {
            "improved"
        } else {
            "same"
        }
    }
}

fn spread_of(metric: &Json) -> f64 {
    let num = |k: &str| metric.get(k).and_then(Json::num).unwrap_or(0.0);
    let value = num("value");
    if value == 0.0 {
        0.0
    } else {
        (num("q3") - num("q1")).abs() / value.abs()
    }
}

/// Every metric both files have, workload by workload.
pub fn pairs(a: &Json, b: &Json) -> Vec<Pair> {
    let mut out = Vec::new();
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .map(|w| w.fields().to_vec())
            .unwrap_or_default()
    };
    for (name, wa) in workloads(a) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(&name)) else {
            continue;
        };
        let metrics = wa
            .get("metrics")
            .map(|m| m.fields().to_vec())
            .unwrap_or_default();
        for (metric, ma) in metrics {
            let Some(mb) = wb.get("metrics").and_then(|m| m.get(&metric)) else {
                continue;
            };
            let value = |m: &Json| m.get("value").and_then(Json::num).unwrap_or(f64::NAN);
            let better = match ma.get("better").and_then(Json::str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            out.push(Pair {
                workload: name.clone(),
                metric,
                unit: ma.get("unit").and_then(Json::str).unwrap_or("").to_string(),
                a: value(&ma),
                b: value(mb),
                worse: worse_by(better, value(&ma), value(mb)),
                bound: ma.get("bound").and_then(Json::num),
                spread: spread_of(&ma).max(spread_of(mb)),
            });
        }
        let share = |w: &Json| w.get("failed_share").and_then(Json::num).unwrap_or(0.0);
        out.push(Pair {
            workload: name.clone(),
            metric: "failed_share".into(),
            unit: "share".into(),
            a: share(&wa),
            b: share(wb),
            // Any increase is a regression.
            worse: if share(wb) > share(&wa) {
                f64::INFINITY
            } else {
                0.0
            },
            bound: Some(0.0),
            spread: 0.0,
        });
    }
    out
}

/// How many rows regressed: beyond the bound and beyond the spread.
pub fn regressed(pairs: &[Pair]) -> usize {
    pairs.iter().filter(|p| p.verdict() == "regressed").count()
}

/// Prints the rows; returns how many regressed.
pub fn print_pairs(pairs: &[Pair], a_label: &str, b_label: &str) -> usize {
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:<6} {:>9} {:>8} {:>8} {:>8}  verdict   (ratio = {b_label} / {a_label}, base {a_label})",
        "workload", "metric", a_label, b_label, "unit", "ratio", "worse%", "bound%", "spread%"
    );
    for p in pairs {
        println!(
            "{:<12} {:<14} {:>14.6} {:>14.6} {:<6} {:>9.4} {:>8.2} {:>8} {:>8.2}  {}",
            p.workload,
            p.metric,
            p.a,
            p.b,
            p.unit,
            if p.a == 0.0 { 1.0 } else { p.b / p.a },
            p.worse * 100.0,
            p.bound
                .map_or("-".to_string(), |b| format!("{:.0}", b * 100.0)),
            p.spread * 100.0,
            p.verdict()
        );
    }
    regressed(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(t1: f64, q1: f64, q3: f64, failed_share: f64) -> Json {
        let metric = obj([
            ("value", t1.into()),
            ("unit", "s".into()),
            ("better", "lower".into()),
            ("bound", 0.07.into()),
            ("samples", 5usize.into()),
            ("q1", q1.into()),
            ("q3", q3.into()),
        ]);
        let w = obj([
            ("workload", "forkjoin".into()),
            ("failed_share", failed_share.into()),
            ("metrics", obj([("t1_s", metric)])),
        ]);
        merge(1, 15.0, false, vec![w])
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = doc(1.0, 0.99, 1.01, 0.0);
        let v = |b: &Json| pairs(&base, b)[0].verdict();
        assert_eq!(v(&doc(1.10, 1.09, 1.11, 0.0)), "regressed");
        assert_eq!(v(&doc(1.01, 1.00, 1.02, 0.0)), "unresolved");
        assert_eq!(v(&doc(0.90, 0.89, 0.91, 0.0)), "improved");
        assert_eq!(v(&doc(1.05, 1.04, 1.06, 0.0)), "same");
        // A wide spread hides even a large difference.
        assert_eq!(v(&doc(1.10, 0.9, 1.3, 0.0)), "unresolved");
        let failed = pairs(&base, &doc(1.0, 0.99, 1.01, 0.01));
        assert_eq!(failed[1].verdict(), "regressed");
    }
}
