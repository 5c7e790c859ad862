//! Telemetry assembly for a [`crate::Runtime`]: the GC stall watchdog
//! thread, the gauge sampler thread, and the Prometheus / JSON exporter
//! documents. Everything here reads shared counters; nothing touches
//! mutator or collector state.

use std::sync::Arc;
use std::time::Duration;

use mpl_heap::{StatsSnapshot, Store};
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
                            let mut snap = stats.snapshot();
                            snap.failpoint_fires = mpl_fail::fires();
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
/// scheduler's park counter with [`mpl_sched::PARK_INTERVAL`] into a
/// worker-utilization estimate (time not spent parked).
pub(crate) fn spawn_sampler(
    store: &Store,
    executor: Option<Arc<Executor>>,
    threads: usize,
    interval: Duration,
) -> mpl_obs::Sampler {
    let stats = store.stats_shared();
    let mut prev = stats.snapshot();
    let mut prev_parks = executor.as_deref().map(|e| e.stats().parks).unwrap_or(0);
    mpl_obs::Sampler::spawn(interval, move |dt| {
        let cur = stats.snapshot();
        let d = cur.delta(&prev);
        prev = cur;
        let parks = executor.as_deref().map(|e| e.stats().parks).unwrap_or(0);
        let parked_intervals = parks.saturating_sub(prev_parks);
        prev_parks = parks;
        let secs = dt.as_secs_f64().max(1e-9);
        // Parks are fixed-length sleeps, so parked time ≈ count × interval;
        // utilization is the busy remainder across the pool. With no pool
        // (sequential execution) the single mutator thread counts as busy.
        let parked_secs = parked_intervals as f64 * mpl_sched::PARK_INTERVAL.as_secs_f64();
        let utilization = (1.0 - parked_secs / (threads as f64 * secs)).clamp(0.0, 1.0);
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

/// Assembles the Prometheus document: every `StatsSnapshot` counter and
/// gauge under the `mpl_` prefix, the duration histograms from the
/// telemetry registry, and the latest sampler rates.
pub(crate) fn build_prometheus(
    s: &StatsSnapshot,
    last_sample: Option<&mpl_obs::Sample>,
    census: Option<&mpl_obs::HeapCensus>,
) -> String {
    let mut w = mpl_obs::PromWriter::new();
    for (name, help, v) in [
        ("mpl_allocs_total", "Objects allocated", s.allocs),
        ("mpl_alloc_bytes_total", "Bytes allocated", s.alloc_bytes),
        (
            "mpl_barrier_reads_total",
            "Barriered mutable reads",
            s.barrier_reads,
        ),
        (
            "mpl_barrier_writes_total",
            "Barriered mutable writes",
            s.barrier_writes,
        ),
        (
            "mpl_barrier_read_fast_total",
            "Reads completed on the fast tier",
            s.barrier_read_fast,
        ),
        (
            "mpl_barrier_read_slow_total",
            "Reads that entered the slow tier",
            s.barrier_read_slow,
        ),
        (
            "mpl_barrier_write_fast_total",
            "Writes completed on the fast tier",
            s.barrier_write_fast,
        ),
        (
            "mpl_barrier_write_slow_total",
            "Writes that entered the slow tier",
            s.barrier_write_slow,
        ),
        (
            "mpl_entangled_reads_total",
            "Entangled reads (remote objects pinned)",
            s.entangled_reads,
        ),
        (
            "mpl_entangled_writes_total",
            "Entangled writes",
            s.entangled_writes,
        ),
        ("mpl_pins_total", "Objects pinned", s.pins),
        ("mpl_unpins_total", "Objects unpinned", s.unpins),
        (
            "mpl_remset_inserts_total",
            "Remembered-set insertions",
            s.remset_inserts,
        ),
        (
            "mpl_remset_flushes_total",
            "Remembered-set buffer flushes",
            s.remset_flushes,
        ),
        ("mpl_lgc_runs_total", "Local collections", s.lgc_runs),
        (
            "mpl_lgc_copied_bytes_total",
            "Bytes evacuated by local collections",
            s.lgc_copied_bytes,
        ),
        (
            "mpl_lgc_reclaimed_bytes_total",
            "Bytes reclaimed by local collections",
            s.lgc_reclaimed_bytes,
        ),
        ("mpl_cgc_runs_total", "Concurrent collections", s.cgc_runs),
        (
            "mpl_cgc_swept_bytes_total",
            "Bytes swept by concurrent collections",
            s.cgc_swept_bytes,
        ),
        (
            "mpl_cgc_packets_total",
            "CGC work packets executed on scheduler workers",
            s.cgc_packets,
        ),
        (
            "mpl_cgc_packet_retries_total",
            "CGC packets re-enqueued after an injected or real panic",
            s.cgc_packet_retries,
        ),
        (
            "mpl_blocks_allocated_total",
            "Size-class blocks handed out by the registry",
            s.blocks_allocated,
        ),
        (
            "mpl_blocks_freed_total",
            "Blocks returned to the registry (LGC, CGC, joins)",
            s.blocks_freed,
        ),
        (
            "mpl_lines_swept_total",
            "Lines reclaimed by line-mark sweeps",
            s.lines_swept,
        ),
        (
            "mpl_lgc_dead_traced_total",
            "Corruption canary: traces reaching dead objects",
            s.lgc_dead_traced,
        ),
        (
            "mpl_sched_pushes_total",
            "Jobs pushed to worker deques",
            s.sched_pushes,
        ),
        (
            "mpl_sched_steals_total",
            "Successful steals",
            s.sched_steals,
        ),
        (
            "mpl_sched_sequentialized_total",
            "Forks resolved inline (popped back)",
            s.sched_sequentialized,
        ),
        (
            "mpl_sched_parks_total",
            "Worker park intervals",
            s.sched_parks,
        ),
        (
            "mpl_gc_forced_by_pressure_total",
            "Collections forced by the heap budget",
            s.gc_forced_by_pressure,
        ),
        (
            "mpl_alloc_retries_total",
            "Allocation retries after a forced collection",
            s.alloc_retries,
        ),
        (
            "mpl_alloc_failures_total",
            "Allocations rejected (budget exhausted or injected)",
            s.alloc_failures,
        ),
        (
            "mpl_failpoint_fires_total",
            "Fault-injection failpoint fires (process-global)",
            s.failpoint_fires,
        ),
        (
            "mpl_cancel_requested_total",
            "Tasks that observed a cancel-token trip and began unwinding",
            s.cancel_requested,
        ),
        (
            "mpl_cancel_unwound_total",
            "Runs that fully unwound as cancelled",
            s.cancel_unwound,
        ),
        (
            "mpl_requests_timed_out_total",
            "Serve requests that exhausted their deadline",
            s.requests_timed_out,
        ),
        (
            "mpl_request_retries_total",
            "Serve request retry attempts after a timeout",
            s.request_retries,
        ),
        (
            "mpl_breaker_open_total",
            "Per-tenant circuit-breaker open transitions",
            s.breaker_open,
        ),
    ] {
        w.counter(name, help, v);
    }
    w.gauge("mpl_live_bytes", "Live bytes", s.live_bytes as f64);
    w.gauge(
        "mpl_max_live_bytes",
        "Live-bytes high-water mark",
        s.max_live_bytes as f64,
    );
    w.gauge(
        "mpl_pinned_bytes",
        "Pinned (entangled) bytes",
        s.pinned_bytes as f64,
    );
    w.gauge(
        "mpl_max_pinned_bytes",
        "Pinned-bytes high-water mark",
        s.max_pinned_bytes as f64,
    );
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

/// Assembles the machine-readable JSON telemetry document: counters,
/// gauges, per-metric histogram percentile summaries (nanoseconds), and
/// the sampler's gauge series. Consumed by the E12 SLO reporter and CI
/// assertions (live-bytes slope, pause percentiles) instead of scraping
/// the Prometheus text.
pub(crate) fn build_json(
    s: &StatsSnapshot,
    samples: &[mpl_obs::Sample],
    census: Option<&mpl_obs::HeapCensus>,
    sampler_interval_ns: u64,
) -> String {
    let mut w = mpl_obs::JsonWriter::new();
    w.begin_object();
    w.field_u64("sampler_interval_ns", sampler_interval_ns);
    w.key("counters").begin_object();
    for (name, v) in [
        ("allocs", s.allocs),
        ("alloc_bytes", s.alloc_bytes),
        ("barrier_reads", s.barrier_reads),
        ("barrier_writes", s.barrier_writes),
        ("barrier_read_fast", s.barrier_read_fast),
        ("barrier_read_slow", s.barrier_read_slow),
        ("barrier_write_fast", s.barrier_write_fast),
        ("barrier_write_slow", s.barrier_write_slow),
        ("entangled_reads", s.entangled_reads),
        ("entangled_writes", s.entangled_writes),
        ("pins", s.pins),
        ("unpins", s.unpins),
        ("remset_inserts", s.remset_inserts),
        ("remset_flushes", s.remset_flushes),
        ("lgc_runs", s.lgc_runs),
        ("lgc_copied_bytes", s.lgc_copied_bytes),
        ("lgc_reclaimed_bytes", s.lgc_reclaimed_bytes),
        ("cgc_runs", s.cgc_runs),
        ("cgc_swept_bytes", s.cgc_swept_bytes),
        ("cgc_packets", s.cgc_packets),
        ("cgc_packet_retries", s.cgc_packet_retries),
        ("blocks_allocated", s.blocks_allocated),
        ("blocks_freed", s.blocks_freed),
        ("lines_swept", s.lines_swept),
        ("lgc_dead_traced", s.lgc_dead_traced),
        ("sched_pushes", s.sched_pushes),
        ("sched_steals", s.sched_steals),
        ("sched_sequentialized", s.sched_sequentialized),
        ("sched_parks", s.sched_parks),
        ("gc_forced_by_pressure", s.gc_forced_by_pressure),
        ("alloc_retries", s.alloc_retries),
        ("alloc_failures", s.alloc_failures),
        ("failpoint_fires", s.failpoint_fires),
        ("audit_runs", s.audit_runs),
        ("audit_objects_checked", s.audit_objects_checked),
        ("cancel_requested", s.cancel_requested),
        ("cancel_unwound", s.cancel_unwound),
        ("requests_timed_out", s.requests_timed_out),
        ("request_retries", s.request_retries),
        ("breaker_open", s.breaker_open),
    ] {
        w.field_u64(name, v);
    }
    w.end_object();
    w.key("gauges").begin_object();
    w.field_u64("live_bytes", s.live_bytes as u64);
    w.field_u64("max_live_bytes", s.max_live_bytes as u64);
    w.field_u64("pinned_bytes", s.pinned_bytes as u64);
    w.field_u64("max_pinned_bytes", s.max_pinned_bytes as u64);
    w.end_object();
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
