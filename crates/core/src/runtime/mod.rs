//! The entanglement-managed runtime.
//!
//! A [`Runtime`] owns the store and the collectors' shared state — which
//! includes the registry of mutator slots the concurrent collector draws
//! roots from. Programs run against a [`crate::mutator::Mutator`]
//! obtained from [`Runtime::run`].
//!
//! This file holds the struct, its construction/teardown and the
//! read-only accessors; `entry` has the `run*` entry points, `session`
//! the persistent tenant sessions, `collect` the concurrent-collection
//! triggers.

mod collect;
mod entry;
mod session;

use std::sync::Arc;

use parking_lot::Mutex;

use mpl_gc::CgcState;
use mpl_heap::{Counter, StatsSnapshot, Store};
use mpl_sched::{Dag, Executor, SchedSnapshot};

use crate::cancel::CancelToken;
use crate::config::RuntimeConfig;
use crate::telemetry::{self, Watchdog};

pub use crate::telemetry::TelemetryReport;
pub use session::TenantSession;

/// The runtime: store + collectors + scheduler state.
#[derive(Debug)]
pub struct Runtime {
    store: Store,
    config: RuntimeConfig,
    /// The concurrent collector's state, the open mutator slots (sessions,
    /// runs in flight, stolen branches) among it. Shared with the root
    /// cancel token's kick, which raises the cancel bit on every slot.
    cgc_state: Arc<CgcState>,
    /// The DAG the most recently returned recorded run finished.
    last_dag: Mutex<Option<Dag>>,
    /// Pinned footprint after the previous concurrent collection; the
    /// next one triggers only once the footprint has doubled (amortizing
    /// full-graph marking against entangled allocation volume).
    cgc_baseline: std::sync::atomic::AtomicUsize,
    /// The telemetry sampler thread (present iff `config.telemetry`).
    /// Declared before `executor` so it stops (and drops its executor
    /// handle) before the pool is torn down.
    sampler: Option<mpl_obs::Sampler>,
    /// Registry token for this runtime's failpoint plan (present iff the
    /// plan is non-empty); the slots are removed on drop.
    failpoint_owner: Option<u64>,
    /// The GC stall watchdog thread (present iff
    /// `config.gc_stall_deadline_ns > 0`).
    watchdog: Option<Watchdog>,
    /// The runtime's root cancellation token. Every `run*` entry point
    /// threads a fresh *child* of this token through its task tree —
    /// never the root itself — so a per-run trip (deadline expiry,
    /// alloc-error escalation) can't poison later runs, while
    /// cancelling the root still reaches every run in flight. The
    /// token's kick unparks the worker pool so sleeping workers notice a
    /// trip immediately.
    root_cancel: CancelToken,
    /// The persistent work-stealing pool; present iff `threads > 1`.
    /// Workers live as long as the runtime and are re-used across `run`
    /// calls. Shared (`Arc`) so the sampler and watchdog threads can
    /// read scheduler counters without borrowing the runtime.
    executor: Option<Arc<Executor>>,
}

impl Runtime {
    /// Creates a runtime with the given configuration.
    pub fn new(config: RuntimeConfig) -> Runtime {
        if config.audit {
            mpl_gc::audit::enable(); // balanced by Drop
        }
        // The refcounted telemetry switch (balanced by Drop).
        if config.telemetry {
            mpl_obs::enable();
        }
        // Process-wide fault-injection opt-in via MPL_FAILPOINTS, then
        // this runtime's own plan (uninstalled by Drop). An empty plan
        // never touches the registry, so the disabled cost stays one
        // relaxed load per site.
        mpl_fail::init_from_env();
        let failpoint_owner =
            (!config.failpoints.is_empty()).then(|| mpl_fail::install(&config.failpoints));
        // Task-boundary markers in the event rings: lets an audit dump
        // reconstruct which jobs surrounded a failure.
        mpl_sched::set_job_finish_hook(mpl_gc::audit::note_job_boundary);
        let executor = (config.threads > 1).then(|| Arc::new(Executor::new(config.threads)));
        let store = Store::new(config.store);
        let cgc_state = Arc::new(CgcState::new());
        // Root cancellation token: every winning trip on it or a run's
        // child raises the cancel bit on every open slot, so the tree's
        // next poll reads the token, and wakes the pool's sleeping
        // workers so a trip is noticed within one steal probe instead of
        // a full park interval. `Weak` so the token never extends the
        // pool's or the slots' lifetime past the runtime's.
        let root_cancel = {
            let slots = Arc::downgrade(&cgc_state);
            let pool = executor.as_ref().map(Arc::downgrade);
            CancelToken::with_kick(move || {
                if let Some(state) = slots.upgrade() {
                    state.request_all(mpl_gc::REQ_CANCEL);
                }
                if let Some(e) = pool.as_ref().and_then(std::sync::Weak::upgrade) {
                    e.unpark_all();
                }
            })
        };
        let sampler = config
            .telemetry
            .then(|| telemetry::spawn_sampler(&store, executor.clone(), config.threads.max(1)));
        let watchdog = (config.gc_stall_deadline_ns > 0).then(|| {
            let cancel = config.watchdog_cancels.then(|| root_cancel.clone());
            telemetry::spawn_watchdog(&store, executor.clone(), config, cancel)
        });
        Runtime {
            store,
            cgc_state,
            last_dag: Mutex::new(None),
            cgc_baseline: std::sync::atomic::AtomicUsize::new(0),
            sampler,
            failpoint_owner,
            watchdog,
            executor,
            root_cancel,
            config,
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The runtime's root cancellation token. Cancelling it cancels
    /// every run currently in flight (each run polls a child of this
    /// token) and makes every *future* run on this runtime fail
    /// immediately with [`crate::RunError::Cancelled`] — it is the shutdown
    /// switch, not a per-request knob. For per-request deadlines use
    /// [`Runtime::try_run_deadline`] /
    /// [`Runtime::try_run_session_deadline`].
    pub fn root_cancel(&self) -> &CancelToken {
        &self.root_cancel
    }

    /// Number of times this runtime's GC stall watchdog has fired
    /// (zero when no watchdog is configured).
    pub fn watchdog_reports(&self) -> u64 {
        self.watchdog
            .as_ref()
            .map(|w| w.reports.load(std::sync::atomic::Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Records a server request whose deadline expired (exported as
    /// `requests_timed_out`). Called by dispatchers layered on top of
    /// the runtime, so the counter lives next to the GC/cancel counters
    /// it correlates with.
    pub fn note_request_timeout(&self) {
        self.store.stats().add(Counter::requests_timed_out, 1);
    }

    /// Records a server retry attempt launched after a timeout
    /// (exported as `request_retries`).
    pub fn note_request_retry(&self) {
        self.store.stats().add(Counter::request_retries, 1);
    }

    /// Records a circuit breaker opening (exported as `breaker_open`).
    pub fn note_breaker_open(&self) {
        self.store.stats().add(Counter::breaker_open, 1);
    }

    /// A snapshot of the cost-metric counters, with the scheduler's
    /// counters overlaid when the work-stealing executor is active and
    /// the (process-global) GC audit and failpoint counters overlaid
    /// always.
    pub fn stats(&self) -> StatsSnapshot {
        telemetry::overlaid_stats(self.store.stats(), self.executor.as_deref())
    }

    #[cfg(test)]
    pub(crate) fn executor(&self) -> Option<Arc<Executor>> {
        self.executor.clone()
    }

    /// A snapshot of the work-stealing scheduler's counters (zeros when
    /// the pool is not active).
    pub fn sched_stats(&self) -> SchedSnapshot {
        self.executor
            .as_deref()
            .map(Executor::stats)
            .unwrap_or_default()
    }

    pub(crate) fn cgc_state(&self) -> &CgcState {
        &self.cgc_state
    }

    /// Number of blocks local collections evacuated that wait, retired,
    /// for a running mutator slot to reach a poll point (or for the
    /// concurrent cycle in flight at their retirement to finish) before
    /// they are freed. Zero whenever at most one slot runs and no cycle
    /// is in flight.
    pub fn retired_blocks(&self) -> usize {
        self.cgc_state.retired_blocks()
    }

    /// Number of mutator slots — a root stack and a SATB buffer each —
    /// currently open with the concurrent collector: one per persistent
    /// session, per run in flight and per stolen branch not yet joined.
    /// Slots are opened in exactly three places (a new tenant session, an
    /// anonymous run, a fork branch the scheduler migrated), each of which
    /// closes its own. Diagnostics: a completed request must leave exactly
    /// the persistent sessions — a leaked slot keeps dead roots (a
    /// branch's result among them) alive forever.
    pub fn live_root_stacks(&self) -> usize {
        self.cgc_state.live_slots()
    }

    /// Certifies the heap of a quiescent runtime — no run in flight — with
    /// the heap checker's quiescent phase: no pointer field dangles, no
    /// dead object is reachable from a pin or an open slot's roots, every
    /// pin was released at its join (no pinned header, zero per-block pin
    /// counts, a zero `pinned_bytes` gauge) and `lgc_dead_traced` is zero.
    /// Panics with the checker's report otherwise (tests and debugging).
    pub fn assert_heap_sound(&self) {
        let issues = mpl_gc::check(&self.store, mpl_gc::Phase::Quiescent(&self.cgc_state));
        assert!(
            issues.is_empty(),
            "heap check failed:\n{}",
            issues.join("\n")
        );
    }

    /// Takes a structured snapshot of the heap hierarchy (debugging and
    /// operational visibility).
    pub fn heap_report(&self) -> mpl_heap::StoreReport {
        mpl_heap::report(&self.store)
    }

    /// Takes an on-demand heap census: a lock-free walk over the block
    /// registry's side metadata (obj-start/mark/line bitmaps and the
    /// per-block gauges) rolled up into per-size-class occupancy and
    /// fragmentation, per-tenant live-bytes attribution, and an
    /// aggregation of the sampled entanglement-provenance ring. Safe to
    /// call while mutators run — each block's rows are individually
    /// consistent but the whole is a racing snapshot, so totals can drift
    /// from the live-bytes gauge by in-flight allocation; on a quiescent
    /// runtime they agree exactly (the census proptest pins this down).
    /// Works with telemetry disabled; only the provenance section needs
    /// [`RuntimeConfig::telemetry`] to have samples in it.
    pub fn heap_census(&self) -> mpl_obs::HeapCensus {
        self.store.census()
    }

    /// The sampler's retained gauge history (empty unless
    /// [`RuntimeConfig::telemetry`] is set).
    pub fn telemetry_samples(&self) -> Vec<mpl_obs::Sample> {
        self.sampler
            .as_ref()
            .map(mpl_obs::Sampler::samples)
            .unwrap_or_default()
    }

    /// Renders both telemetry exporter documents: the Chrome trace-event
    /// JSON timeline (spans + sampler counter tracks) and the Prometheus
    /// text-format document (runtime counters/gauges + pause/latency
    /// histograms). Histograms and spans are process-global — under
    /// multiple concurrently-telemetered runtimes the report covers all
    /// of them; counters and sampler gauges are this runtime's own.
    pub fn telemetry_report(&self) -> TelemetryReport {
        TelemetryReport::render(
            &self.stats(),
            &self.telemetry_samples(),
            Some(&self.heap_census()),
        )
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        if let Some(watchdog) = &mut self.watchdog {
            watchdog.stop();
        }
        if let Some(owner) = self.failpoint_owner {
            // Remove this runtime's slots; env-installed failpoints (a
            // different owner) stay armed for the process lifetime.
            mpl_fail::uninstall(owner);
        }
        if let Some(sampler) = &mut self.sampler {
            sampler.stop();
        }
        if self.config.telemetry {
            // Balance the `enable` in `Runtime::new` (refcounted
            // process-wide, like auditing).
            mpl_obs::disable();
        }
        if self.config.audit {
            // Balance the `enable` in `Runtime::new`: auditing is
            // refcounted process-wide so concurrently-live audited
            // runtimes (the parallel test harness) compose.
            mpl_gc::audit::disable();
        }
    }
}
