//! Collection triggers: when and how the concurrent collector runs on
//! behalf of a mutator safepoint (`TaskCtx::cgc_safepoint`).

use std::sync::atomic::Ordering;

use mpl_heap::Counter;
use mpl_sched::Executor;
use parking_lot::MutexGuard;

use super::Runtime;

thread_local! {
    /// True while this thread holds `cgc_gate` and is driving a
    /// collection. A worker driving CGC packets can help-steal an
    /// unrelated mutator job whose safepoint asks for a collection;
    /// without this guard that nested request would block on the gate
    /// this very thread holds.
    static IN_GC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII set/clear of [`IN_GC`] for the gate-holding collection bodies.
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
    /// Requests a CGC eligibility check at the caller's next safepoint.
    ///
    /// The pin path calls this: pinned-footprint growth happens on *reads*,
    /// which are not safepoints (callers may hold unrooted values across
    /// them), so the collection itself must wait for the next allocation
    /// or fork/join.
    pub(crate) fn request_cgc_poll(&self) {
        self.cgc_poll.store(true, Ordering::Relaxed);
    }

    /// True if some task pinned since the last CGC eligibility check.
    pub(crate) fn cgc_poll_requested(&self) -> bool {
        self.cgc_poll.load(Ordering::Relaxed)
    }

    /// The shared frame of every collection pause, entered with the
    /// collection gate held: marks this thread as collecting, makes sure
    /// it has a worker context (trace/sweep packets fan out via
    /// `try_join`; a caller off the pool — tests, embedders, a `run` that
    /// lost the driver slot — installs itself as the pool driver for the
    /// pause), runs `body`, and records the pause.
    fn cgc_pause(&self, _gate: MutexGuard<'_, ()>, body: impl FnOnce()) {
        let _reent = InGcGuard::enter();
        let _driver = (!mpl_sched::on_worker_thread())
            .then(|| self.executor.as_deref().and_then(Executor::install_driver))
            .flatten();
        let start = std::time::Instant::now();
        let span = mpl_obs::span_start();
        body();
        self.store
            .stats()
            .on_cgc_pause(start.elapsed().as_nanos() as u64);
        // `on_cgc_pause` fed the histogram; timeline entry only.
        mpl_obs::span_only(mpl_obs::Metric::CgcPause, span);
    }

    /// The pinned-bytes gauge: one load, not a full [`Runtime::stats`]
    /// snapshot — every pin requests an eligibility check, so
    /// `maybe_cgc` reads this once per pin on entangled code.
    fn pinned_bytes(&self) -> usize {
        self.store.stats().get(Counter::pinned_bytes) as usize
    }

    /// Records the pinned footprint a finished cycle left behind.
    fn rebaseline_cgc(&self) {
        self.cgc_baseline
            .store(self.pinned_bytes(), Ordering::Relaxed);
    }

    /// Runs (or, with `cgc_slice_objects`, advances) the concurrent
    /// collector if the pinned footprint warrants it and no other
    /// collection is in flight.
    pub(crate) fn maybe_cgc(&self) {
        self.cgc_poll.store(false, Ordering::Relaxed);
        let slice = self.config.cgc_slice_objects;

        // The collector's trace/sweep packets run as scheduler jobs; a
        // worker that help-steals a *mutator* job while driving packets
        // can reach this safepoint re-entrantly. A nested collection on
        // the same thread would self-deadlock on `cgc_gate`, so bail.
        if IN_GC.with(|g| g.get()) {
            return;
        }

        // An in-flight incremental cycle is advanced regardless of the
        // trigger: the snapshot is already taken.
        let advancing = slice > 0 && self.cgc_state.cycle_active();
        if !advancing {
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
        }
        let Some(gate) = self.cgc_gate.try_lock() else {
            return;
        };
        self.cgc_pause(gate, || {
            if slice == 0 {
                mpl_gc::collect_entangled(&self.store, &self.cgc_state);
                self.rebaseline_cgc();
                return;
            }
            if !advancing {
                // Begin the sliced cycle: handshake, then snapshot roots.
                mpl_gc::cgc_begin(&self.cgc_state);
            }
            if mpl_gc::cgc_step(&self.store, &self.cgc_state, slice).is_some() {
                self.rebaseline_cgc();
            }
        });
    }

    /// Forces a concurrent collection (tests and experiments).
    pub fn force_cgc(&self) {
        // Re-entrant force from a help-stolen mutator job on the
        // collecting thread: the blocking gate below would self-deadlock.
        // The outer collection is already reclaiming; returning is the
        // same outcome the caller would see racing any other collector.
        if IN_GC.with(|g| g.get()) {
            return;
        }
        self.cgc_pause(self.cgc_gate.lock(), || {
            if self.cgc_state.cycle_active() {
                // Finish the in-flight sliced cycle.
                while mpl_gc::cgc_step(&self.store, &self.cgc_state, usize::MAX).is_none() {}
            } else {
                mpl_gc::collect_entangled(&self.store, &self.cgc_state);
            }
        });
    }
}
