//! SLO reporting: per-tenant latency percentiles, goodput, shed counts,
//! GC overlap, and the flat-memory witness (live-bytes slope).

use mpl_heap::BudgetSnapshot;
use mpl_obs::{JsonWriter, Sample};

use crate::tenant::TenantCounts;

/// Per-tenant SLO row.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// This run's admission counters.
    pub counts: TenantCounts,
    /// Median request latency, ns (from scheduled arrival).
    pub p50_ns: u64,
    /// 99th percentile latency, ns.
    pub p99_ns: u64,
    /// 99.9th percentile latency, ns.
    pub p999_ns: u64,
    /// Maximum recorded latency, ns.
    pub max_ns: u64,
    /// Mean latency, ns.
    pub mean_ns: f64,
    /// Completed requests per wall-clock second.
    pub goodput_rps: f64,
    /// Budget state at end of run (`None` if unbudgeted).
    pub budget: Option<BudgetSnapshot>,
    /// End-of-run heap-census attribution for this tenant — block count
    /// and side-metadata live bytes keyed off the tenant's budget heap
    /// ownership (`None` when the server ran without telemetry or the
    /// census had no row for the tenant).
    pub census: Option<mpl_obs::TenantCensus>,
}

/// Runtime/GC activity during the run (deltas over the run window).
#[derive(Clone, Debug, Default)]
pub struct GcReport {
    /// Local (moving) collections.
    pub lgc_runs: u64,
    /// Concurrent (entangled-space) collections.
    pub cgc_runs: u64,
    /// Total LGC pause time, ns.
    pub lgc_pause_ns: u64,
    /// Total CGC pause time, ns.
    pub cgc_pause_ns: u64,
    /// GC pause time as a percentage of wall clock: how much of the run
    /// overlapped a collector pause.
    pub pause_overlap_pct: f64,
    /// Collections forced by heap-limit or budget pressure.
    pub gc_forced_by_pressure: u64,
    /// Allocation failures raised (budget/limit sheds).
    pub alloc_failures: u64,
    /// Dead objects traced by LGC (soundness canary: must be 0).
    pub lgc_dead_traced: u64,
    /// Entanglement pins during the run.
    pub pins: u64,
    /// Global live bytes at end of run.
    pub live_bytes: usize,
    /// Global pinned bytes at end of run (0 when quiescent).
    pub pinned_bytes: usize,
}

/// The full E12 report for one server run.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// FNV digest of the replayed schedule (determinism witness).
    pub digest: u64,
    /// Wall-clock duration of the run, ns.
    pub wall_ns: u64,
    /// Requests offered by the schedule.
    pub offered: usize,
    /// Requests completed across all tenants.
    pub completed_total: u64,
    /// Requests shed across all tenants.
    pub shed_total: u64,
    /// Aggregate goodput, completed requests per second.
    pub goodput_rps: f64,
    /// Per-tenant rows, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// GC activity over the run window.
    pub gc: GcReport,
    /// Least-squares slope of the live-bytes gauge over the run,
    /// bytes/second. ≈0 is the flat-memory steady-state witness.
    pub live_slope_bytes_per_s: f64,
    /// Telemetry samples the slope was fit over (0 ⇒ sampler off, slope
    /// trivially 0 — CI requires this to be nonzero).
    pub live_samples: usize,
    /// End-of-run heap census (occupancy, fragmentation, per-tenant
    /// attribution); `None` when the server ran without telemetry.
    pub census: Option<mpl_obs::HeapCensus>,
}

/// Least-squares slope of `live_bytes` against time, in bytes/second.
/// Returns 0 for fewer than 2 samples or a degenerate time axis.
pub fn live_slope(samples: &[Sample]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let n = samples.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for s in samples {
        let x = s.t_ns as f64 / 1e9;
        let y = s.live_bytes as f64;
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return 0.0;
    }
    (n * sxy - sx * sy) / denom
}

impl ServerReport {
    /// Renders the report as a JSON document (machine-readable mode; the
    /// E12 CI gate parses this).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_str("experiment", "e12_server")
            .field_u64("schedule_digest", self.digest)
            .field_u64("wall_ns", self.wall_ns)
            .field_u64("offered", self.offered as u64)
            .field_u64("completed", self.completed_total)
            .field_u64("shed", self.shed_total)
            .field_f64("goodput_rps", self.goodput_rps)
            .field_f64("live_slope_bytes_per_s", self.live_slope_bytes_per_s)
            .field_u64("live_samples", self.live_samples as u64);
        w.key("gc").begin_object();
        w.field_u64("lgc_runs", self.gc.lgc_runs)
            .field_u64("cgc_runs", self.gc.cgc_runs)
            .field_u64("lgc_pause_ns", self.gc.lgc_pause_ns)
            .field_u64("cgc_pause_ns", self.gc.cgc_pause_ns)
            .field_f64("pause_overlap_pct", self.gc.pause_overlap_pct)
            .field_u64("gc_forced_by_pressure", self.gc.gc_forced_by_pressure)
            .field_u64("alloc_failures", self.gc.alloc_failures)
            .field_u64("lgc_dead_traced", self.gc.lgc_dead_traced)
            .field_u64("pins", self.gc.pins)
            .field_u64("live_bytes", self.gc.live_bytes as u64)
            .field_u64("pinned_bytes", self.gc.pinned_bytes as u64);
        w.end_object();
        w.key("tenants").begin_array();
        for t in &self.tenants {
            w.begin_object().field_str("name", &t.name);
            for (key, count) in t.counts.fields() {
                w.field_u64(key, count);
            }
            w.field_u64("p50_ns", t.p50_ns)
                .field_u64("p99_ns", t.p99_ns)
                .field_u64("p999_ns", t.p999_ns)
                .field_u64("max_ns", t.max_ns)
                .field_f64("mean_ns", t.mean_ns)
                .field_f64("goodput_rps", t.goodput_rps);
            if let Some(b) = &t.budget {
                w.key("budget").begin_object();
                w.field_u64("limit", b.limit as u64)
                    .field_u64("live_bytes", b.live_bytes as u64)
                    .field_u64("max_live_bytes", b.max_live_bytes as u64)
                    .field_u64("sheds", b.sheds)
                    .field_u64("forced_gcs", b.forced_gcs);
                w.end_object();
            }
            if let Some(c) = &t.census {
                w.key("census").begin_object();
                w.field_u64("blocks", c.blocks)
                    .field_u64("entangled_blocks", c.entangled_blocks)
                    .field_u64("live_bytes", c.live_bytes)
                    .field_u64("pinned_objects", c.pinned_objects);
                w.end_object();
            }
            w.end_object();
        }
        w.end_array();
        if let Some(census) = &self.census {
            // Spliced verbatim: the census renders itself so the schema
            // stays owned by `mpl_obs::HeapCensus::to_json`.
            w.key("census").value_raw(&census.to_json());
        }
        w.end_object();
        w.finish()
    }

    /// Renders a human-readable SLO table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "offered {}  completed {}  shed {}  goodput {:.0} rps  wall {:.2}s  \
             gc-overlap {:.2}%  live-slope {:+.0} B/s (n={})\n",
            self.offered,
            self.completed_total,
            self.shed_total,
            self.goodput_rps,
            self.wall_ns as f64 / 1e9,
            self.gc.pause_overlap_pct,
            self.live_slope_bytes_per_s,
            self.live_samples,
        ));
        out.push_str(&format!(
            "{:<10} {:>9} {:>9} {:>7} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
            "tenant",
            "admitted",
            "completed",
            "shed",
            "p50(us)",
            "p99(us)",
            "p999(us)",
            "max(us)",
            "goodput"
        ));
        for t in &self.tenants {
            out.push_str(&format!(
                "{:<10} {:>9} {:>9} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>12.1}\n",
                t.name,
                t.counts.admitted,
                t.counts.completed,
                t.counts.shed_total(),
                t.p50_ns as f64 / 1e3,
                t.p99_ns as f64 / 1e3,
                t.p999_ns as f64 / 1e3,
                t.max_ns as f64 / 1e3,
                t.goodput_rps,
            ));
            let c = &t.counts;
            if c.timed_out + c.breaker_opens + c.brownout_shed + c.degraded > 0 {
                out.push_str(&format!(
                    "{:<10}   timeouts {}  retries {}  breaker-opens {}  breaker-shed {}  \
                     brownout-shed {}  degraded {}\n",
                    "",
                    c.timed_out,
                    c.retried,
                    c.breaker_opens,
                    c.breaker_shed,
                    c.brownout_shed,
                    c.degraded,
                ));
            }
            if let Some(b) = &t.budget {
                if b.limit != 0 {
                    out.push_str(&format!(
                        "{:<10}   budget {}/{} KiB  peak {} KiB  sheds {}  forced-gcs {}\n",
                        "",
                        b.live_bytes / 1024,
                        b.limit / 1024,
                        b.max_live_bytes / 1024,
                        b.sheds,
                        b.forced_gcs,
                    ));
                }
            }
            if let Some(c) = &t.census {
                out.push_str(&format!(
                    "{:<10}   census {} blocks ({} entangled)  {} KiB live  {} pinned\n",
                    "",
                    c.blocks,
                    c.entangled_blocks,
                    c.live_bytes / 1024,
                    c.pinned_objects,
                ));
            }
        }
        if let Some(census) = &self.census {
            out.push_str(&format!(
                "census: {} blocks  {} objects  frag {:.1}%  clean-blocks {:.1}%  \
                 provenance {} samples\n",
                census.blocks,
                census.objects(),
                census.fragmentation() * 100.0,
                census.clean_block_ratio() * 100.0,
                census.provenance.recorded,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_ns: u64, live: u64) -> Sample {
        Sample {
            t_ns,
            alloc_bytes_per_s: 0.0,
            allocs_per_s: 0.0,
            live_bytes: live,
            pinned_bytes: 0,
            worker_utilization: 0.0,
        }
    }

    #[test]
    fn slope_of_flat_series_is_zero() {
        let s: Vec<_> = (0..10).map(|i| sample(i * 1_000_000_000, 4096)).collect();
        assert!(live_slope(&s).abs() < 1e-9);
    }

    #[test]
    fn slope_recovers_linear_growth() {
        // 1 KiB per second.
        let s: Vec<_> = (0..20)
            .map(|i| sample(i * 1_000_000_000, 1024 * i))
            .collect();
        let k = live_slope(&s);
        assert!((k - 1024.0).abs() < 1.0, "slope {k}");
    }

    #[test]
    fn slope_degenerate_cases() {
        assert_eq!(live_slope(&[]), 0.0);
        assert_eq!(live_slope(&[sample(5, 10)]), 0.0);
        assert_eq!(live_slope(&[sample(5, 10), sample(5, 99)]), 0.0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let rep = ServerReport {
            digest: 42,
            wall_ns: 1_000_000,
            offered: 10,
            completed_total: 9,
            shed_total: 1,
            goodput_rps: 9000.0,
            tenants: vec![TenantReport {
                name: "a\"b".into(),
                counts: TenantCounts {
                    admitted: 10,
                    completed: 9,
                    shed_budget: 1,
                    shed_injected: 0,
                    maintenance_gcs: 2,
                    timed_out: 3,
                    retried: 2,
                    breaker_opens: 1,
                    breaker_shed: 4,
                    brownout_shed: 5,
                    degraded: 6,
                },
                p50_ns: 100,
                p99_ns: 500,
                p999_ns: 900,
                max_ns: 1000,
                mean_ns: 150.0,
                goodput_rps: 9000.0,
                budget: Some(BudgetSnapshot {
                    name: "a\"b".into(),
                    limit: 1024,
                    live_bytes: 512,
                    max_live_bytes: 700,
                    sheds: 1,
                    forced_gcs: 3,
                }),
                census: Some(mpl_obs::TenantCensus {
                    name: "a\"b".into(),
                    blocks: 4,
                    entangled_blocks: 1,
                    live_bytes: 2048,
                    pinned_objects: 2,
                    budget_live_bytes: 512,
                    budget_limit: 1024,
                }),
            }],
            gc: GcReport::default(),
            live_slope_bytes_per_s: -1.5,
            live_samples: 7,
            census: Some(mpl_obs::HeapCensus {
                blocks: 4,
                live_bytes: 2048,
                ..mpl_obs::HeapCensus::default()
            }),
        };
        let j = rep.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"schedule_digest\":42"));
        assert!(j.contains("\"a\\\"b\""));
        assert!(j.contains("\"sheds\":1"));
        assert!(j.contains(
            "\"admitted\":10,\"completed\":9,\"shed_budget\":1,\"shed_injected\":0,\
             \"maintenance_gcs\":2,\"timed_out\":3,\"retried\":2,\"breaker_opens\":1,\
             \"breaker_shed\":4,\"brownout_shed\":5,\"degraded\":6,\"p50_ns\":100"
        ));
        assert!(j.contains("\"census\""));
        assert!(j.contains("\"clean_block_ratio\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let table = rep.render_table();
        assert!(table.contains("tenant"));
        assert!(table.contains("budget"));
        assert!(table.contains("census"));
    }
}
