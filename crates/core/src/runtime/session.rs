//! Persistent tenant sessions: a dedicated root heap and mutator slot
//! that outlive individual requests.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Duration;

use mpl_gc::MutatorSlot;
use mpl_heap::{TenantBudget, Value};

use super::Runtime;
use crate::cancel::RunError;
use crate::mutator::Mutator;

/// A persistent tenant execution context on one [`Runtime`]: a dedicated
/// root heap (with an optional [`TenantBudget`] attached, inherited by
/// every heap forked under it), plus a mutator slot whose root stack
/// survives across [`Runtime::run_session`] calls so
/// [`crate::mutator::Handle`]s created in one request stay valid — and
/// stay CGC roots — in the next. Each request's root task borrows the
/// slot; between requests it rests paused.
///
/// Collection debt (`alloc_since` / the size-proportional LGC budget) is
/// carried across requests: garbage accumulated in the tenant's root
/// heap over many small requests still triggers local collections, which
/// is what keeps a minutes-long serving run's memory flat.
#[derive(Debug)]
pub struct TenantSession {
    pub(crate) root_heap: u32,
    pub(crate) slot: Arc<MutatorSlot>,
    budget: Option<Arc<TenantBudget>>,
    pub(crate) alloc_debt: AtomicUsize,
    pub(crate) lgc_budget: AtomicUsize,
}

impl TenantSession {
    /// The tenant's root heap id.
    pub fn root_heap(&self) -> u32 {
        self.root_heap
    }

    /// The tenant's budget handle, if one was configured.
    pub fn budget(&self) -> Option<&Arc<TenantBudget>> {
        self.budget.as_ref()
    }
}

impl Runtime {
    /// Creates a persistent tenant session: a dedicated root heap with a
    /// [`TenantBudget`] of `budget_bytes` attached (`0` = unlimited,
    /// accounting only), and a mutator slot that outlives individual
    /// [`Runtime::run_session`] calls. The budget is inherited by every
    /// heap forked under the session's root, so the tenant's whole
    /// request DAGs are accounted against it.
    pub fn new_tenant(&self, name: &str, budget_bytes: usize) -> TenantSession {
        let budget = TenantBudget::new(name, budget_bytes);
        let root_heap = self.store.new_tenant_root_heap(Arc::clone(&budget));
        TenantSession {
            root_heap,
            // Open for the session's lifetime: objects rooted in one
            // request stay CGC roots until `retire_session`.
            slot: self.cgc_state.open_slot(),
            budget: Some(budget),
            alloc_debt: AtomicUsize::new(0),
            lgc_budget: AtomicUsize::new(self.config.policy.lgc_trigger_bytes),
        }
    }

    /// Runs one request on a tenant session. Like [`Runtime::run`], but
    /// the root task executes on the session's persistent root heap and
    /// mutator slot: handles rooted in earlier requests resolve, objects
    /// they reference survive collections, and the session's carried
    /// collection debt keeps the root heap's LGC firing across requests.
    ///
    /// Requests on the *same* session must not run concurrently (the
    /// slot is single-owner); different sessions are independent.
    ///
    /// # Panics
    ///
    /// Panics if the session was retired ([`Runtime::retire_session`]);
    /// the `try_run_session*` variants return that as
    /// [`RunError::Panic`].
    pub fn run_session<F>(&self, session: &TenantSession, f: F) -> Value
    where
        F: FnOnce(&mut Mutator<'_>) -> Value,
    {
        self.run_root(Some(session), self.root_cancel.child(), f)
    }

    /// Like [`Runtime::run_session`], but returns failures as a typed
    /// [`RunError`] — the admission-control path a serving layer sheds
    /// requests on ([`RunError::Alloc`]: tenant budget exhausted,
    /// global limit hit, or an injected allocation fault) and the
    /// timeout path it bounds request latency with
    /// ([`RunError::Cancelled`]). The session remains usable
    /// afterwards.
    pub fn try_run_session<F>(&self, session: &TenantSession, f: F) -> Result<Value, RunError>
    where
        F: FnOnce(&mut Mutator<'_>) -> Value,
    {
        self.try_run_with(self.root_cancel.child(), Some(session), f)
    }

    /// Like [`Runtime::try_run_session`], but the request's cancel
    /// token trips `deadline` from now — the per-request timeout a
    /// serving layer puts on tenant work. A request that outlives the
    /// deadline unwinds at its next poll point with the session's heap
    /// coherent and its carried collection debt intact.
    pub fn try_run_session_deadline<F>(
        &self,
        session: &TenantSession,
        deadline: Duration,
        f: F,
    ) -> Result<Value, RunError>
    where
        F: FnOnce(&mut Mutator<'_>) -> Value,
    {
        self.try_run_with(
            self.root_cancel.child_with_deadline(deadline),
            Some(session),
            f,
        )
    }

    /// Retires a tenant session: closes its mutator slot, letting the
    /// concurrent collector reclaim everything only the session kept
    /// alive. The session's heaps remain valid (heap ids are never
    /// reused) but nothing roots them anymore, so the session accepts no
    /// further request: a later `run_session` on it panics.
    pub fn retire_session(&self, session: &TenantSession) {
        self.cgc_state.close_slot(&session.slot);
    }
}
