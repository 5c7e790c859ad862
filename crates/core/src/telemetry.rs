//! Telemetry assembly for a [`crate::Runtime`]: the GC stall watchdog
//! thread, the gauge sampler thread, and the Prometheus / JSON exporter
//! documents. Everything here reads shared counters; nothing touches
//! mutator or collector state.

use std::sync::Arc;
use std::time::Duration;

use mpl_heap::stats::Kind;
use mpl_heap::{StatsSnapshot, Store, StoreStats};
use mpl_sched::Executor;

use crate::cancel::CancelToken;
use crate::config::RuntimeConfig;

/// The exporter documents produced by [`crate::Runtime::telemetry_report`].
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// `chrome://tracing`-loadable trace-event JSON: one track per
    /// worker with GC-phase/scheduler/remset spans, plus counter tracks
    /// from the sampler.
    pub chrome_trace: String,
    /// Prometheus text-exposition document: runtime counters and gauges
    /// plus the pause/latency histograms.
    pub prometheus: String,
    /// Machine-readable JSON document: the same counters and gauges,
    /// histogram percentile summaries (p50/p90/p99/p999/max in
    /// nanoseconds), and the sampler's gauge series — what the E12 SLO
    /// reporter and CI assertions parse instead of scraping text.
    pub json: String,
}

impl TelemetryReport {
    /// Renders the three documents: every row of `stats` plus, from the
    /// process-global telemetry registry, the recorded spans and the
    /// duration histograms. [`crate::Runtime::telemetry_report`] is this
    /// over the runtime's own snapshot, samples and census.
    pub fn render(
        stats: &StatsSnapshot,
        samples: &[mpl_obs::Sample],
        census: Option<&mpl_obs::HeapCensus>,
        sampler_interval_ns: u64,
    ) -> TelemetryReport {
        TelemetryReport {
            chrome_trace: mpl_obs::chrome_trace(&mpl_obs::snapshot_spans(), samples),
            prometheus: build_prometheus(stats, samples.last(), census),
            json: build_json(stats, samples, census, sampler_interval_ns),
        }
    }
}

/// The store's snapshot with the rows other layers own overlaid (see
/// `mpl_heap::stats::Owner`): the scheduler's counters when the
/// work-stealing pool is active, and the process-global audit and
/// failpoint counters always. Every reader of runtime counters —
/// [`crate::Runtime::stats`], the sampler, the watchdog's stall report —
/// goes through here, so they cannot disagree on a row.
pub(crate) fn overlaid_stats(stats: &StoreStats, executor: Option<&Executor>) -> StatsSnapshot {
    let mut s = stats.snapshot();
    let sched = executor.map(Executor::stats).unwrap_or_default();
    s.sched_pushes = sched.pushes;
    s.sched_steals = sched.steals;
    s.sched_sequentialized = sched.sequentialized;
    s.sched_parks = sched.parks;
    s.sched_unparks = sched.unparks;
    let audit = mpl_gc::audit::counters();
    s.audit_runs = audit.audits_run;
    s.audit_objects_checked = audit.objects_checked;
    s.audit_events = audit.events_recorded;
    s.audit_ring_overflows = audit.ring_overflows;
    s.failpoint_fires = mpl_fail::fires();
    s
}

/// Flight-recorder hook for a surfaced [`crate::AllocError`]: records the event
/// and dumps the ring. An `AllocError` reaching `try_run` is an
/// admission-control outcome (a serving layer sheds on it constantly),
/// so both calls are no-ops with telemetry disabled and the dump count
/// is bounded per process (`mpl_obs::dump_flight`).
pub(crate) fn note_alloc_error(e: &crate::mutator::AllocError) {
    mpl_obs::flight_record(
        mpl_obs::FlightKind::Event,
        mpl_obs::EV_ALLOC_ERROR,
        e.requested as u64,
        e.limit as u64,
    );
    if let Some(path) = mpl_obs::dump_flight("alloc-error") {
        eprintln!("mpl-runtime: flight recorder dumped to {}", path.display());
    }
}

/// The GC stall watchdog thread: polls the process-global GC phase clock
/// ([`mpl_gc::stall`]) and, when a phase has been in flight longer than
/// the configured deadline, flags it on stderr and dumps the audit event
/// rings plus a Prometheus counter snapshot — the post-mortem a hung
/// chaos run would otherwise take to the grave.
#[derive(Debug)]
pub(crate) struct Watchdog {
    stop: Arc<std::sync::atomic::AtomicBool>,
    /// Stalls this runtime's watchdog flagged (one per stalled phase,
    /// like the process-global `mpl_gc::stall::reports()` — but scoped
    /// to this runtime so tests and operators can attribute a report).
    pub(crate) reports: Arc<std::sync::atomic::AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

pub(crate) fn spawn_watchdog(
    store: &Store,
    executor: Option<Arc<Executor>>,
    config: RuntimeConfig,
    cancel: Option<CancelToken>,
) -> Watchdog {
    let deadline_ns = config.gc_stall_deadline_ns;
    let stats = store.stats_shared();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let reports = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let reports2 = Arc::clone(&reports);
    // Poll a few times per deadline; clamp so a tiny deadline doesn't
    // spin and a huge one still notices `stop` promptly.
    let tick = Duration::from_nanos((deadline_ns / 4).clamp(1_000_000, 100_000_000));
    let handle = std::thread::Builder::new()
        .name("mpl-gc-watchdog".into())
        .spawn(move || {
            // Re-arm only after the flagged phase completes, so one stall
            // produces one report instead of one per tick.
            let mut flagged = false;
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(tick);
                match mpl_gc::stall::current() {
                    Some((phase, age_ns)) if age_ns > deadline_ns => {
                        if !flagged {
                            flagged = true;
                            mpl_gc::stall::note_report();
                            reports2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            // Opt-in escalation: a stalled collector
                            // means in-flight runs are likely wedged
                            // behind it — trip the runtime root so
                            // every run unwinds at its next poll point
                            // instead of hanging forever.
                            if let Some(token) = &cancel {
                                token.trip_watchdog();
                            }
                            eprintln!(
                                "mpl-gc-watchdog: phase '{phase}' in flight for {:.3}s \
                                 (deadline {:.3}s); dumping audit rings + telemetry",
                                age_ns as f64 / 1e9,
                                deadline_ns as f64 / 1e9,
                            );
                            mpl_gc::audit::dump_events();
                            let snap = overlaid_stats(&stats, executor.as_deref());
                            eprintln!("{}", build_prometheus(&snap, None, None));
                            // Post-mortem artifacts behind the same
                            // stderr report: a stall event in the flight
                            // ring, the ring as a binary dump, and a
                            // Chrome-trace snapshot of recent spans. All
                            // no-ops with telemetry disabled, and dumps
                            // are bounded per process (`dump_flight`).
                            mpl_obs::flight_record(
                                mpl_obs::FlightKind::Event,
                                mpl_obs::EV_WATCHDOG_STALL,
                                age_ns,
                                deadline_ns,
                            );
                            if let Some(path) = mpl_obs::dump_flight("watchdog-stall") {
                                eprintln!(
                                    "mpl-gc-watchdog: flight recorder dumped to {}",
                                    path.display()
                                );
                                let trace = mpl_obs::chrome_trace(&mpl_obs::snapshot_spans(), &[]);
                                let trace_path = path.with_extension("trace.json");
                                match std::fs::write(&trace_path, trace) {
                                    Ok(()) => eprintln!(
                                        "mpl-gc-watchdog: chrome trace written to {}",
                                        trace_path.display()
                                    ),
                                    Err(e) => {
                                        eprintln!("mpl-gc-watchdog: chrome trace write failed: {e}")
                                    }
                                }
                            }
                        }
                    }
                    _ => flagged = false,
                }
            }
        })
        .expect("spawn mpl-gc-watchdog");
    Watchdog {
        stop,
        reports,
        handle: Some(handle),
    }
}

/// Spawns the telemetry sampler: every tick (the configured
/// [`RuntimeConfig::sampler_interval_ns`]) diffs the runtime counters
/// (`StatsSnapshot::delta`) into allocation rates and combines the
/// interval's park count with [`mpl_sched::PARK_INTERVAL`] into a
/// worker-utilization estimate (time not spent asleep).
pub(crate) fn spawn_sampler(
    store: &Store,
    executor: Option<Arc<Executor>>,
    threads: usize,
    interval: Duration,
) -> mpl_obs::Sampler {
    let stats = store.stats_shared();
    let mut prev = overlaid_stats(&stats, executor.as_deref());
    mpl_obs::Sampler::spawn(interval, move |dt| {
        let cur = overlaid_stats(&stats, executor.as_deref());
        let d = cur.delta(&prev);
        prev = cur;
        let secs = dt.as_secs_f64().max(1e-9);
        // Parks are fixed-length sleeps, so sleep time ≈ count × interval;
        // utilization is the busy remainder across the pool. With no pool
        // (sequential execution) the single mutator thread counts as busy.
        let asleep_secs = d.sched_parks as f64 * mpl_sched::PARK_INTERVAL.as_secs_f64();
        let utilization = (1.0 - asleep_secs / (threads as f64 * secs)).clamp(0.0, 1.0);
        mpl_obs::Sample {
            t_ns: mpl_obs::now_ns(),
            alloc_bytes_per_s: d.alloc_bytes as f64 / secs,
            allocs_per_s: d.allocs as f64 / secs,
            live_bytes: d.live_bytes as u64,
            pinned_bytes: d.pinned_bytes as u64,
            worker_utilization: utilization,
        }
    })
}

/// Assembles the Prometheus document: every `StatsSnapshot` row under
/// the `mpl_` prefix (monotonic rows as `mpl_<name>_total` counters,
/// gauges and high-water marks as `mpl_<name>` gauges), the duration
/// histograms from the telemetry registry, and the latest sampler rates.
fn build_prometheus(
    s: &StatsSnapshot,
    last_sample: Option<&mpl_obs::Sample>,
    census: Option<&mpl_obs::HeapCensus>,
) -> String {
    let mut w = mpl_obs::PromWriter::new();
    for row in s.rows() {
        match row.kind {
            Kind::Monotonic => w.counter(&format!("mpl_{}_total", row.name), row.help, row.value),
            Kind::Gauge | Kind::HighWater => {
                w.gauge(&format!("mpl_{}", row.name), row.help, row.value as f64)
            }
        }
    }
    if let Some(sample) = last_sample {
        w.gauge(
            "mpl_alloc_bytes_per_second",
            "Allocation rate over the last sampler interval",
            sample.alloc_bytes_per_s,
        );
        w.gauge(
            "mpl_worker_utilization",
            "Estimated fraction of worker time spent running jobs",
            sample.worker_utilization,
        );
    }
    if let Some(census) = census {
        census.write_prometheus(&mut w);
    }
    for (metric, snap) in mpl_obs::metric_snapshots() {
        w.histogram_ns_as_seconds(
            &format!("mpl_{}_seconds", metric.name()),
            metric.help(),
            &snap,
        );
    }
    w.finish()
}

/// Assembles the machine-readable JSON telemetry document: every
/// `StatsSnapshot` row (monotonic rows under `"counters"`, gauges and
/// high-water marks under `"gauges"`), per-metric histogram percentile summaries (nanoseconds), and
/// the sampler's gauge series. Consumed by the E12 SLO reporter and CI
/// assertions (live-bytes slope, pause percentiles) instead of scraping
/// the Prometheus text.
fn build_json(
    s: &StatsSnapshot,
    samples: &[mpl_obs::Sample],
    census: Option<&mpl_obs::HeapCensus>,
    sampler_interval_ns: u64,
) -> String {
    let mut w = mpl_obs::JsonWriter::new();
    w.begin_object();
    w.field_u64("sampler_interval_ns", sampler_interval_ns);
    for (section, monotonic) in [("counters", true), ("gauges", false)] {
        w.key(section).begin_object();
        for row in s
            .rows()
            .filter(|r| (r.kind == Kind::Monotonic) == monotonic)
        {
            w.field_u64(row.name, row.value);
        }
        w.end_object();
    }
    w.key("histograms_ns").begin_object();
    for (metric, snap) in mpl_obs::metric_snapshots() {
        w.key(metric.name()).begin_object();
        w.field_u64("count", snap.count);
        w.field_u64("p50", snap.percentile(0.50));
        w.field_u64("p90", snap.percentile(0.90));
        w.field_u64("p99", snap.percentile(0.99));
        w.field_u64("p999", snap.percentile(0.999));
        w.field_u64("max", snap.max);
        w.field_f64("mean", snap.mean());
        w.end_object();
    }
    w.end_object();
    if let Some(census) = census {
        // Rendered by the census itself; spliced in verbatim so the
        // schema stays owned by one place (`HeapCensus::to_json`).
        w.key("census").value_raw(&census.to_json());
    }
    w.key("samples").begin_array();
    for sample in samples {
        w.begin_object();
        w.field_u64("t_ns", sample.t_ns);
        w.field_u64("live_bytes", sample.live_bytes);
        w.field_u64("pinned_bytes", sample.pinned_bytes);
        w.field_f64("alloc_bytes_per_s", sample.alloc_bytes_per_s);
        w.field_f64("worker_utilization", sample.worker_utilization);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Runtime, Value};
    use mpl_heap::stats::Owner;

    /// The watchdog's stall report reads the same overlay `Runtime::stats`
    /// does. The overlaid rows are all monotonic and some keep moving on
    /// an idle pool (parks) or under concurrently running tests (the
    /// process-global audit and failpoint rows), so "equal" is checked as
    /// "between two `Runtime::stats` readings taken around it".
    #[test]
    fn watchdog_snapshot_overlays_what_runtime_stats_does() {
        let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
        rt.run(|m| {
            m.fork(|_| Value::Unit, |_| Value::Unit);
            Value::Unit
        });
        let before = rt.stats();
        // Exactly what `spawn_watchdog`'s thread holds and prints.
        let (stats, executor) = (rt.store().stats_shared(), rt.executor());
        let printed = overlaid_stats(&stats, executor.as_deref());
        let after = rt.stats();
        let overlaid = |s: &StatsSnapshot| -> Vec<_> {
            s.rows().filter(|r| r.owner != Owner::Store).collect()
        };
        let (lo, got, hi) = (overlaid(&before), overlaid(&printed), overlaid(&after));
        assert_eq!(got.len(), 10);
        for ((lo, got), hi) in lo.iter().zip(&got).zip(&hi) {
            assert!(
                lo.value <= got.value && got.value <= hi.value,
                "{}: {} not within {}..={}",
                got.name,
                got.value,
                lo.value,
                hi.value
            );
        }
        assert!(printed.sched_pushes > 0, "the fork pushed a job");
        assert_eq!(printed.sched_pushes, after.sched_pushes);
    }
}
