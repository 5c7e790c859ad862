//! Runtime configuration: execution mode, processors, GC policy, and the
//! work weights charged to the recorded DAG.

use mpl_fail::FailPlan;
use mpl_gc::GcPolicy;
use mpl_heap::StoreConfig;

/// How the runtime treats entanglement — the axis of the paper's
/// comparison experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Mode {
    /// **This paper**: entanglement is *managed*. Remote accesses pin
    /// their targets at the LCA level; pinned objects are shielded from
    /// the moving local collector and reclaimed by the concurrent
    /// collector; joins unpin.
    #[default]
    Managed,
    /// **Prior MPL** (ICFP 2022): entanglement is *detected* and fatal.
    /// The same barrier runs, but a remote access panics instead of
    /// pinning.
    DetectOnly,
    /// **Unsafe baseline** for barrier-cost measurement: the entanglement
    /// read barrier is compiled away. Only sound for disentangled
    /// programs; down-pointer write barriers (remembered sets) still run
    /// because the hierarchical collector needs them regardless of
    /// entanglement.
    NoEntanglementBarrier,
}

/// Virtual work units charged per runtime operation; these weights drive
/// the DAG the speedup simulation replays. They approximate relative costs
/// of an allocation (plus one unit per 4 fields), a barriered access, and
/// task creation (charged to the parent strand) in MPL-like runtimes.
pub const ALLOC_WORK: u64 = 2;
/// Work units per read (barriered or not); see [`ALLOC_WORK`].
pub const READ_WORK: u64 = 1;
/// Work units per write; see [`ALLOC_WORK`].
pub const WRITE_WORK: u64 = 1;
/// Work units per fork; see [`ALLOC_WORK`].
pub const FORK_WORK: u64 = 8;

/// Complete runtime configuration.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Entanglement treatment.
    pub mode: Mode,
    /// Collection thresholds.
    pub policy: GcPolicy,
    /// Store parameters (block sizing).
    pub store: StoreConfig,
    /// Record the computation DAG for scheduler simulation.
    pub record_dag: bool,
    /// Processors for the work-stealing executor; `1` (the default)
    /// selects deterministic depth-first execution with no pool. It does
    /// not decide block reclamation: blocks a local collection emptied
    /// are freed once every open mutator slot has moved past the epoch
    /// they were retired at, which with one slot running is at once.
    pub threads: usize,
    /// Enables the entanglement-candidates ("suspects") read-barrier fast
    /// path (ICFP 2022): reads of objects that never received a
    /// down-pointer write and are not pinned skip the remote check
    /// entirely. Sound because every remote acquisition passes through a
    /// suspect or pinned object. Disable for the E9 ablation.
    pub suspects: bool,
    /// Forces every barriered access onto the slow tier (full
    /// locate/LCA machinery), bypassing the fast-tier exits in
    /// `crates/core/src/barrier.rs`. The slow tier is semantically
    /// complete on its own, so results must be identical with or
    /// without it — which is exactly what the tier-agreement proptest
    /// checks. Diagnostic/testing knob; never faster.
    pub force_slow_path: bool,
    /// Enables GC phase-boundary audits and entanglement-event tracing
    /// (`mpl-gc`'s audit layer) for this runtime's lifetime — the
    /// programmatic equivalent of setting `MPL_DEBUG_LGC_VALIDATE`.
    /// Expensive (whole-store scans at collection phase boundaries);
    /// meant for stress tests and debugging, not production runs.
    pub audit: bool,
    /// Enables runtime telemetry (`mpl-obs`) for this runtime's
    /// lifetime: pause/latency histograms, per-worker span timelines,
    /// and the periodic sampler thread behind
    /// [`Runtime::telemetry_report`](crate::Runtime::telemetry_report).
    /// Unlike audits this is cheap enough for production-style runs
    /// (lock-free recording at instrumented sites); when disabled every
    /// emission site costs one relaxed load and a predicted branch.
    pub telemetry: bool,
    /// Deterministic failpoints to arm for this runtime's lifetime
    /// (`mpl-fail`). Armed in [`Runtime::new`](crate::Runtime::new),
    /// disarmed on drop; an empty plan (the default) never touches the
    /// process-global registry, so disarmed sites keep their one-relaxed-
    /// load cost. The `MPL_FAILPOINTS` environment variable arms sites
    /// process-wide instead.
    pub failpoints: FailPlan,
    /// GC-phase stall deadline in nanoseconds for the watchdog thread;
    /// `0` (the default) spawns no watchdog. When a collector phase stays
    /// open past the deadline the watchdog flags it on stderr and dumps
    /// the audit event rings plus the telemetry report — the chaos
    /// harness's answer to "a fault injection wedged a collection".
    pub gc_stall_deadline_ns: u64,
    /// Escalate a GC-stall watchdog fire into cancellation: when set
    /// (and a watchdog is configured), a stalled collector phase trips
    /// the runtime's root [`CancelToken`](crate::CancelToken), so every
    /// in-flight *and future* run on this runtime unwinds with
    /// [`RunError::Cancelled`](crate::RunError) instead of hanging
    /// behind the wedged collection. Off by default because tripping
    /// the root is permanent — it turns a liveness bug into a loud,
    /// recoverable failure, which is what a serving deployment wants
    /// and an interactive debugging session may not.
    pub watchdog_cancels: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            mode: Mode::Managed,
            policy: GcPolicy::default(),
            store: StoreConfig::default(),
            record_dag: false,
            threads: 1,
            suspects: true,
            force_slow_path: false,
            audit: false,
            telemetry: false,
            failpoints: FailPlan::default(),
            gc_stall_deadline_ns: 0,
            watchdog_cancels: false,
        }
    }
}

impl RuntimeConfig {
    /// The default managed configuration.
    pub fn managed() -> RuntimeConfig {
        RuntimeConfig::default()
    }

    /// Prior-MPL behavior: abort on entanglement.
    pub fn detect_only() -> RuntimeConfig {
        RuntimeConfig {
            mode: Mode::DetectOnly,
            ..RuntimeConfig::default()
        }
    }

    /// Unsafe no-entanglement-barrier baseline.
    pub fn no_barrier() -> RuntimeConfig {
        RuntimeConfig {
            mode: Mode::NoEntanglementBarrier,
            ..RuntimeConfig::default()
        }
    }

    /// Enables DAG recording.
    pub fn with_dag(mut self) -> RuntimeConfig {
        self.record_dag = true;
        self
    }

    /// Enables GC phase-boundary audits and event tracing (see
    /// [`RuntimeConfig::audit`]).
    pub fn with_audit(mut self) -> RuntimeConfig {
        self.audit = true;
        self
    }

    /// Enables runtime telemetry collection and the periodic sampler
    /// thread (see [`RuntimeConfig::telemetry`]).
    ///
    /// # Example
    ///
    /// ```
    /// use mpl_runtime::{Runtime, RuntimeConfig, Value};
    ///
    /// let rt = Runtime::new(RuntimeConfig::managed().with_telemetry());
    /// rt.run(|m| m.alloc_ref(Value::Int(1)));
    /// let report = rt.telemetry_report();
    /// assert!(report.chrome_trace.starts_with("{\"traceEvents\":["));
    /// assert!(report.prometheus.contains("# TYPE mpl_lgc_pause_seconds histogram"));
    /// ```
    pub fn with_telemetry(mut self) -> RuntimeConfig {
        self.telemetry = true;
        self
    }

    /// Forces every barriered access onto the slow tier (see
    /// [`RuntimeConfig::force_slow_path`]).
    pub fn with_force_slow_path(mut self) -> RuntimeConfig {
        self.force_slow_path = true;
        self
    }

    /// Sets a soft heap budget in bytes (`0` = unlimited). Allocation
    /// under pressure forces a local collection, then a concurrent
    /// collection, then retries; if the budget is still exhausted the
    /// allocation surfaces a recoverable [`AllocError`](crate::AllocError)
    /// that unwinds the task through the ordinary fork/join panic
    /// propagation path — catch it with
    /// [`Runtime::try_run`](crate::Runtime::try_run).
    ///
    /// # Example
    ///
    /// ```
    /// use mpl_runtime::{Runtime, RuntimeConfig, Value};
    ///
    /// let rt = Runtime::new(RuntimeConfig::managed().with_heap_limit(2 * 1024 * 1024));
    /// let v = rt.try_run(|m| m.alloc_ref(Value::Int(1))).expect("fits");
    /// assert!(v.as_obj().is_some());
    /// ```
    pub fn with_heap_limit(mut self, bytes: usize) -> RuntimeConfig {
        self.store.heap_limit = bytes;
        self
    }

    /// Arms deterministic failpoints for this runtime's lifetime (see
    /// [`RuntimeConfig::failpoints`]).
    ///
    /// # Example
    ///
    /// ```
    /// use mpl_fail::{FailAction, FailPlan, FailWhen};
    /// use mpl_runtime::{Runtime, RuntimeConfig, Value};
    ///
    /// let plan = FailPlan::new(42).with("sched/steal", FailAction::Yield, FailWhen::OneIn(4));
    /// let rt = Runtime::new(RuntimeConfig::managed().with_failpoints(plan));
    /// rt.run(|m| m.alloc_ref(Value::Int(1)));
    /// ```
    pub fn with_failpoints(mut self, plan: FailPlan) -> RuntimeConfig {
        self.failpoints = plan;
        self
    }

    /// Spawns a GC-stall watchdog with the given deadline (see
    /// [`RuntimeConfig::gc_stall_deadline_ns`]).
    pub fn with_gc_watchdog(mut self, deadline: std::time::Duration) -> RuntimeConfig {
        self.gc_stall_deadline_ns = deadline.as_nanos() as u64;
        self
    }

    /// Makes a watchdog fire trip the runtime's root cancel token (see
    /// [`RuntimeConfig::watchdog_cancels`]). Only meaningful together
    /// with [`RuntimeConfig::with_gc_watchdog`].
    pub fn with_watchdog_cancels(mut self) -> RuntimeConfig {
        self.watchdog_cancels = true;
        self
    }

    /// Sets the real-thread executor's processor count, clamped to the
    /// host's available parallelism (with a warning on stderr) — silent
    /// oversubscription only adds context-switch overhead for the
    /// persistent worker pool. Use [`RuntimeConfig::with_threads_exact`]
    /// to deliberately oversubscribe (protocol stress tests).
    pub fn with_threads(self, threads: usize) -> RuntimeConfig {
        assert!(threads >= 1, "need at least one thread");
        let max = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(threads);
        let clamped = if threads > max {
            eprintln!(
                "mpl-runtime: requested {threads} threads but the host reports \
                 {max} available; clamping to {max} (use with_threads_exact to \
                 oversubscribe deliberately)"
            );
            max
        } else {
            threads
        };
        self.with_threads_exact(clamped)
    }

    /// Sets the processor count exactly as given, without clamping to
    /// host parallelism. Oversubscription is functionally correct (the
    /// concurrent protocols are exercised harder, which is exactly what
    /// the stress tests want) but wasteful for performance runs.
    pub fn with_threads_exact(mut self, threads: usize) -> RuntimeConfig {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Replaces the GC policy.
    pub fn with_policy(mut self, policy: GcPolicy) -> RuntimeConfig {
        self.policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(RuntimeConfig::managed().mode, Mode::Managed);
        assert_eq!(RuntimeConfig::detect_only().mode, Mode::DetectOnly);
        assert_eq!(
            RuntimeConfig::no_barrier().mode,
            Mode::NoEntanglementBarrier
        );
    }

    #[test]
    fn a_policy_set_keeps_the_thread_count() {
        let c = RuntimeConfig::managed().with_threads_exact(4);
        assert_eq!(c.threads, 4);
        let c = c.with_policy(GcPolicy::default());
        assert_eq!(c.threads, 4, "preserved across policy set");
    }

    #[test]
    fn block_freeing_follows_the_epoch() {
        // Neither the thread count nor a config field decides when a
        // local collection's emptied blocks are freed: the epoch rule
        // does. With the collecting slot the only one open, it passes at
        // the retirement itself, at one worker and at two alike.
        for threads in [1, 2] {
            let rt = crate::Runtime::new(RuntimeConfig {
                threads,
                ..RuntimeConfig::managed()
            });
            rt.run(|m| {
                let freed_before = m.runtime().stats().blocks_freed;
                let mut keep = [m.alloc_tuple(&[mpl_heap::Value::Int(1)])];
                m.force_lgc(&mut keep);
                let freed = m.runtime().stats().blocks_freed - freed_before;
                let retired = m.runtime().retired_blocks();
                assert!(
                    freed > 0 && retired == 0,
                    "threads {threads}: freed {freed}, retired {retired}"
                );
                assert_eq!(m.runtime().stats().graveyard_high_water, freed);
                keep[0]
            });
            rt.assert_heap_sound();
        }
    }

    #[test]
    fn with_threads_clamps_to_host_parallelism() {
        let max = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap();
        let c = RuntimeConfig::managed().with_threads(max * 4);
        assert_eq!(c.threads, max, "oversubscription is clamped");
        let c = RuntimeConfig::managed().with_threads(1);
        assert_eq!(c.threads, 1, "in-range requests pass through");
        let c = RuntimeConfig::managed().with_threads_exact(max * 4);
        assert_eq!(c.threads, max * 4, "exact setter never clamps");
    }

    #[test]
    fn dag_flag() {
        assert!(RuntimeConfig::managed().with_dag().record_dag);
        assert!(!RuntimeConfig::managed().record_dag);
    }

    #[test]
    fn telemetry_flag() {
        assert!(RuntimeConfig::managed().with_telemetry().telemetry);
        assert!(!RuntimeConfig::managed().telemetry);
    }

    #[test]
    fn heap_limit_flows_into_the_store_config() {
        assert_eq!(RuntimeConfig::managed().store.heap_limit, 0, "unlimited");
        let c = RuntimeConfig::managed().with_heap_limit(1 << 20);
        assert_eq!(c.store.heap_limit, 1 << 20);
    }

    #[test]
    fn failpoint_plan_rides_the_copy_config() {
        use mpl_fail::{FailAction, FailWhen};
        let plan = FailPlan::new(9).with("lgc/shield", FailAction::Yield, FailWhen::Nth(1));
        let c = RuntimeConfig::managed().with_failpoints(plan);
        let copied = c; // RuntimeConfig stays Copy with the plan aboard
        assert_eq!(copied.failpoints, plan);
        assert!(RuntimeConfig::managed().failpoints.is_empty());
    }

    #[test]
    fn watchdog_deadline() {
        let c = RuntimeConfig::managed().with_gc_watchdog(std::time::Duration::from_millis(50));
        assert_eq!(c.gc_stall_deadline_ns, 50_000_000);
        assert_eq!(RuntimeConfig::managed().gc_stall_deadline_ns, 0);
    }

    #[test]
    fn watchdog_cancels_flag() {
        assert!(!RuntimeConfig::managed().watchdog_cancels, "off by default");
        let c = RuntimeConfig::managed().with_watchdog_cancels();
        assert!(c.watchdog_cancels);
        let copied = c; // stays Copy
        assert!(copied.watchdog_cancels);
    }
}
