//! Collection triggers: when and how the concurrent collector runs on
//! behalf of a mutator safepoint (`TaskCtx::cgc_safepoint`).

use std::sync::atomic::Ordering;

use mpl_heap::Counter;
use mpl_sched::Executor;

use super::Runtime;

thread_local! {
    /// True while this thread is driving a collection pause. A worker
    /// driving CGC packets can help-steal an unrelated mutator job whose
    /// safepoint asks for a collection; without this guard a forced one
    /// would block on the collector's gate, which this very thread's
    /// cycle holds.
    static IN_GC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII set/clear of [`IN_GC`] for a collection pause.
struct InGcGuard;

impl InGcGuard {
    fn enter() -> Self {
        IN_GC.with(|g| g.set(true));
        InGcGuard
    }
}

impl Drop for InGcGuard {
    fn drop(&mut self) {
        IN_GC.with(|g| g.set(false));
    }
}

impl Runtime {
    /// The shared frame of every collection pause: marks this thread as
    /// collecting, makes sure it has a worker context (trace/sweep
    /// packets fan out via `try_join`; a caller off the pool — tests,
    /// embedders, a `run` that lost the driver slot — installs itself as
    /// the pool driver for the pause), runs `cycle`, and records the
    /// pause if `cycle` ran one. A pause nested on a collecting thread
    /// does nothing.
    fn cgc_pause(&self, cycle: impl FnOnce() -> bool) {
        if IN_GC.with(|g| g.get()) {
            return;
        }
        let _reent = InGcGuard::enter();
        let _driver = (!mpl_sched::on_worker_thread())
            .then(|| self.executor.as_deref().and_then(Executor::install_driver))
            .flatten();
        let pause = mpl_obs::gc_pause(mpl_obs::Metric::CgcPause);
        if !cycle() {
            return pause.discard();
        }
        self.store.stats().on_cgc_pause(pause.close());
    }

    /// The pinned-bytes gauge: one load, not a full [`Runtime::stats`]
    /// snapshot — every pin requests an eligibility check, so
    /// `maybe_cgc` reads this once per pin on entangled code.
    fn pinned_bytes(&self) -> usize {
        self.store.stats().get(Counter::pinned_bytes) as usize
    }

    /// Runs the concurrent collector if the pinned footprint warrants it
    /// and no other cycle is in flight.
    pub(crate) fn maybe_cgc(&self) {
        let pinned = self.pinned_bytes();
        if !self.config.policy.should_cgc(pinned) {
            return;
        }
        // Amortize: a full cycle marks the live graph, so only collect
        // once the pinned footprint doubled since the last cycle.
        let baseline = self.cgc_baseline.load(Ordering::Relaxed);
        if pinned < baseline.saturating_mul(2) {
            return;
        }
        self.cgc_pause(|| {
            let Some(cycle) = mpl_gc::cgc_begin(&self.store, &self.cgc_state) else {
                return false;
            };
            mpl_gc::cgc_finish(cycle);
            // The pinned footprint the cycle left behind.
            self.cgc_baseline
                .store(self.pinned_bytes(), Ordering::Relaxed);
            true
        });
    }

    /// Forces a concurrent collection (tests and experiments), after the
    /// cycle in flight if there is one; the recorded pause includes that
    /// wait. Re-entrant from a help-stolen mutator job on the collecting
    /// thread it returns at once — the outer cycle is already reclaiming,
    /// the same outcome the caller would see racing any other collector.
    pub fn force_cgc(&self) {
        self.cgc_pause(|| {
            mpl_gc::collect_entangled(&self.store, &self.cgc_state);
            true
        });
    }
}
