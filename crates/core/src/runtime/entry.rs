//! Run entry points: `run` / `try_run*`, the shared root-task body, and
//! the classification of unwinds into [`RunError`].

use std::sync::Arc;
use std::time::Duration;

use mpl_heap::{Counter, LazyHeap, Value};
use mpl_sched::{Dag, DagBuilder, Executor, StrandId};

use super::{Runtime, TenantSession};
use crate::cancel::{CancelReason, CancelToken, Cancelled, RunError};
use crate::mutator::{AllocError, Handoff, Mutator, TaskCtx};
use crate::telemetry::note_alloc_error;

impl Runtime {
    /// Runs a program to completion on this runtime and returns its result.
    ///
    /// The closure receives the root task's [`Mutator`]. With
    /// `config.threads > 1`, forks inside the program may execute on real
    /// threads; otherwise execution is deterministic depth-first.
    pub fn run<F>(&self, f: F) -> Value
    where
        F: FnOnce(&mut Mutator<'_>) -> Value,
    {
        self.run_root(None, self.root_cancel.child(), f)
    }

    /// The shared body of [`Runtime::run`] and [`Runtime::run_session`]:
    /// runs `f` as a root task on the session's root heap and mutator
    /// slot (or fresh ones for an anonymous run), with the cleanup a
    /// panicking program needs running unconditionally — the root task
    /// finishes (`TaskCtx::finish`: buffers flush, the slot pauses), an
    /// anonymous run's slot closes — which frees the retired blocks no
    /// other running slot holds back — and a half-built DAG recording is
    /// discarded — before the payload is re-raised. By the time a panic
    /// reaches here every fork inside `f` has already joined (joins
    /// complete both branches and merge their heaps before re-raising).
    pub(super) fn run_root<F>(
        &self,
        session: Option<&TenantSession>,
        cancel: CancelToken,
        f: F,
    ) -> Value
    where
        F: FnOnce(&mut Mutator<'_>) -> Value,
    {
        // Install this thread as the pool's driver (worker 0) so forks
        // push onto a deque. If another thread is mid-`run` and holds the
        // slot, forks from this call fall back to inline sequential
        // execution — correct, just not parallel.
        let _driver = self.executor.as_deref().and_then(Executor::install_driver);
        let (dag, strand) = if self.config.record_dag {
            let (builder, root_strand) = DagBuilder::new();
            let builder = Arc::new(builder);
            *self.dag.lock() = Some(Arc::clone(&builder));
            (Some(builder), root_strand)
        } else {
            (None, StrandId(0))
        };
        let (root_heap, slot) = match session {
            Some(s) => {
                // Nothing scans a retired session's stack any more: a
                // request on it would run with its roots invisible.
                let name = s.budget().map_or("?", |b| b.name());
                assert!(!s.slot.is_closed(), "tenant session `{name}` was retired");
                (s.root_heap, Arc::clone(&s.slot))
            }
            None => (self.store.new_root_heap(), self.cgc_state.open_slot()),
        };
        let heap = LazyHeap::root(self.store.heaps(), root_heap);
        let recording = dag.as_deref().map(|d| (d, strand));
        let ctx = TaskCtx::enter(
            self,
            &slot,
            Handoff::Paused,
            &heap,
            0,
            recording,
            &cancel,
            session,
        );
        let mut m = Mutator::new(ctx);
        let mut result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut m)));
        if session.is_none() {
            // An anonymous run's root heap dies with the run: collect it
            // now with the escaping result value as the only root, so
            // exactly the result graph survives (entangled leftovers are
            // deferred to the concurrent collector's next cycle via the
            // shield phase) and repeated runs — and cancellation storms —
            // don't strand their garbage forever. Session heaps persist
            // by design; their carried collection debt owns them.
            slot.roots.truncate(0);
            let mut escaping = [*result.as_ref().unwrap_or(&Value::Unit)];
            m.ctx.collect_local(&mut escaping);
            result = result.map(|_| escaping[0]);
        }
        drop(m);
        drop(dag); // `try_unwrap` below needs the runtime's handle to be the last
        if session.is_none() {
            self.cgc_state.close_slot(&self.store, &slot);
        }
        if let Some(builder) = self.dag.lock().take() {
            // A panic can leave strands un-joined; the partial recording
            // is useless — drop it rather than poisoning the next run.
            *self.last_dag.lock() = Arc::try_unwrap(builder).ok().map(DagBuilder::finish);
        }
        match result {
            Ok(v) => v,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Like [`Runtime::run`], but returns failures as a typed
    /// [`RunError`] value instead of unwinding:
    ///
    /// - [`RunError::Alloc`] — a heap-budget rejection
    ///   ([`crate::RuntimeConfig::with_heap_limit`], a tenant budget) or an
    ///   injected `alloc/words` failure.
    /// - [`RunError::Cancelled`] — the run's cancel token tripped
    ///   (deadline, explicit [`Runtime::root_cancel`] cancel, watchdog
    ///   escalation) and the tree unwound at a poll point.
    /// - [`RunError::Panic`] — the closure panicked with an ordinary
    ///   string payload; the message is preserved. Exotic non-string
    ///   payloads are re-raised unchanged.
    ///
    /// The runtime remains fully usable after an `Err`: every task the
    /// unwind crossed finished normally (buffers flushed, frame popped,
    /// slot paused), and joins re-raise the error only after the sibling
    /// branch finished and any stolen branch's slot closed, so no worker
    /// or registry entry leaks.
    pub fn try_run<F>(&self, f: F) -> Result<Value, RunError>
    where
        F: FnOnce(&mut Mutator<'_>) -> Value,
    {
        self.try_run_with(self.root_cancel.child(), None, f)
    }

    /// Like [`Runtime::try_run`], but the run's cancel token trips
    /// `deadline` from now (tightened by any ancestor deadline). A run
    /// that outlives the deadline unwinds at its next poll point —
    /// allocation, slow-tier barrier, fork — and comes back as
    /// [`RunError::Cancelled`] with [`CancelReason::Deadline`].
    pub fn try_run_deadline<F>(&self, deadline: Duration, f: F) -> Result<Value, RunError>
    where
        F: FnOnce(&mut Mutator<'_>) -> Value,
    {
        self.try_run_with(self.root_cancel.child_with_deadline(deadline), None, f)
    }

    /// The shared body of every `try_run*` variant: runs `f` under
    /// `token`, catches the unwind, and classifies the payload into a
    /// [`RunError`]. Cancellation outcomes close the
    /// cancellation-latency window (`cancel_unwind` histogram: token
    /// trip → run fully unwound) and bump the `cancel_unwound` counter.
    pub(super) fn try_run_with<F>(
        &self,
        token: CancelToken,
        session: Option<&TenantSession>,
        f: F,
    ) -> Result<Value, RunError>
    where
        F: FnOnce(&mut Mutator<'_>) -> Value,
    {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_root(session, token.clone(), f)
        }));
        let payload = match run {
            Ok(v) => return Ok(v),
            Err(payload) => payload,
        };
        let payload = match payload.downcast::<AllocError>() {
            Ok(e) => {
                note_alloc_error(&e);
                return Err(RunError::Alloc(*e));
            }
            Err(other) => other,
        };
        let payload = match payload.downcast::<Cancelled>() {
            Ok(c) => {
                self.store.stats().add(Counter::cancel_unwound, 1);
                if let Some((_, trip_ns)) = token.trip_info() {
                    mpl_obs::record_duration(
                        mpl_obs::Metric::CancelUnwind,
                        mpl_obs::now_ns().saturating_sub(trip_ns),
                    );
                }
                // A sibling of the branch that actually hit the
                // allocation failure can reach the join first and
                // surface the escalated trip instead of the original
                // payload; fold both races into the same outcome so
                // callers see one deterministic error kind.
                return Err(match c.reason {
                    CancelReason::Alloc(e) => {
                        note_alloc_error(&e);
                        RunError::Alloc(e)
                    }
                    reason => RunError::Cancelled(Cancelled { reason }),
                });
            }
            Err(other) => other,
        };
        let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
            Some((*s).to_string())
        } else {
            payload.downcast_ref::<String>().cloned()
        };
        match msg {
            Some(msg) => Err(RunError::Panic(msg)),
            None => std::panic::resume_unwind(payload),
        }
    }

    /// The computation DAG recorded by the most recent `run` (if
    /// `record_dag` was set).
    pub fn take_dag(&self) -> Option<Dag> {
        self.last_dag.lock().take()
    }
}
