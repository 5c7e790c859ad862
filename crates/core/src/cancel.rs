//! Cooperative cancellation: hierarchical tokens, deadlines, and the
//! typed run-outcome error.
//!
//! A [`CancelToken`] is a small shared cell that a task tree polls at
//! points it already visits for other reasons (every allocation, both
//! barrier slow tiers, fork entry — the same sites that ack SATB
//! handshakes), so the disabled cost is one relaxed load on paths that
//! already load an atomic. Tokens form a tree: a child inherits its
//! parent's trip state and the tighter of the two deadlines, so
//! cancelling a runtime's root token cancels every run in flight, while
//! a per-request deadline token cancels only that request's DAG.
//!
//! Tripping is first-writer-wins: exactly one trip records the trip
//! timestamp (the start of the cancellation-latency window) and fires
//! the *kick* — a callback the runtime uses to unpark sleeping
//! scheduler workers so a sleeping pool notices the trip in microseconds
//! instead of a full park interval.
//!
//! Cancellation *delivery* is an ordinary unwind: the polling task
//! raises a [`Cancelled`] payload with `panic_any`, which rides the
//! exact path an [`AllocError`] already takes through fork/join —
//! heaps merge, pins release, mutator slots close, remset buffers flush,
//! budgets credit — so the heap is coherent when `Runtime::try_run*`
//! catches the payload and returns [`RunError::Cancelled`].

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::mutator::AllocError;

/// No deadline: the sentinel value of `effective_deadline_ns`.
const NO_DEADLINE: u64 = u64::MAX;

// Trip reason codes stored in `Inner::state` (0 = live).
const CODE_EXPLICIT: u32 = 1;
const CODE_DEADLINE: u32 = 2;
const CODE_WATCHDOG: u32 = 3;
const CODE_ALLOC: u32 = 4;

/// Why a [`CancelToken`] tripped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called (on this token or an ancestor).
    Explicit,
    /// The token's deadline (or an ancestor's) expired.
    Deadline,
    /// The runtime's GC stall watchdog fired with
    /// `RuntimeConfig::with_watchdog_cancels` enabled.
    Watchdog,
    /// An `AllocError` in one branch escalated to cancel its siblings,
    /// so the whole run fails fast instead of computing doomed work.
    Alloc(AllocError),
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::Explicit => write!(f, "explicit cancel"),
            CancelReason::Deadline => write!(f, "deadline expired"),
            CancelReason::Watchdog => write!(f, "gc stall watchdog"),
            CancelReason::Alloc(e) => write!(f, "alloc-error escalation ({e})"),
        }
    }
}

/// The cancellation unwind payload (and the value inside
/// [`RunError::Cancelled`]). Raised with `std::panic::panic_any` at a
/// poll point; rides the fork/join panic path and is caught by
/// `Runtime::try_run*`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cancelled {
    /// Why the task tree was cancelled.
    pub reason: CancelReason,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cancelled: {}", self.reason)
    }
}

impl Error for Cancelled {}

/// Typed outcome of a failed `Runtime::try_run*` call. Callers (and
/// `mpl-serve`'s shed accounting) can now tell a budget shed from a
/// timeout from a crash instead of conflating all three.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The run exceeded a heap/tenant budget and surfaced a recoverable
    /// allocation failure. The session/heap is intact.
    Alloc(AllocError),
    /// The run was cancelled (deadline, explicit, watchdog, or
    /// alloc-escalation — see [`CancelReason`]). The heap is coherent;
    /// effects the cancelled tree published before its trip remain.
    Cancelled(Cancelled),
    /// The closure panicked with an unrecognized payload. The panic
    /// message (or a placeholder for non-string payloads) is preserved.
    Panic(String),
}

impl RunError {
    /// The `AllocError`, if this outcome is (or escalated from) one.
    /// Cancellations caused by a sibling's allocation failure report the
    /// originating error here too.
    pub fn alloc_error(&self) -> Option<&AllocError> {
        match self {
            RunError::Alloc(e) => Some(e),
            RunError::Cancelled(Cancelled {
                reason: CancelReason::Alloc(e),
            }) => Some(e),
            _ => None,
        }
    }

    /// True for cancellation outcomes (any [`CancelReason`]).
    pub fn is_cancelled(&self) -> bool {
        matches!(self, RunError::Cancelled(_))
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Alloc(e) => write!(f, "{e}"),
            RunError::Cancelled(c) => write!(f, "{c}"),
            RunError::Panic(msg) => write!(f, "task panicked: {msg}"),
        }
    }
}

impl Error for RunError {}

impl From<AllocError> for RunError {
    fn from(e: AllocError) -> RunError {
        RunError::Alloc(e)
    }
}

/// Shared trip cell. `state` is the whole protocol: 0 = live, else a
/// reason code written once by the winning trip (release; readers
/// acquire so the `alloc` payload and `trip_ns` are visible).
struct Inner {
    state: AtomicU32,
    /// Tightest deadline on the path to the root (ns on the
    /// `mpl_obs::now_ns` clock); immutable after construction because
    /// ancestors' deadlines are too. [`NO_DEADLINE`] when none.
    effective_deadline_ns: u64,
    /// `now_ns` at the winning trip (0 until tripped).
    trip_ns: AtomicU64,
    parent: Option<Arc<Inner>>,
    /// Escalated allocation error, set before the state CAS by the trip
    /// that carries one.
    alloc: OnceLock<AllocError>,
    /// Fired once by the winning trip: the runtime installs "unpark all
    /// scheduler workers" here. Inherited by children.
    kick: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl Inner {
    fn reason_of(&self, code: u32) -> CancelReason {
        match code {
            CODE_EXPLICIT => CancelReason::Explicit,
            CODE_DEADLINE => CancelReason::Deadline,
            CODE_WATCHDOG => CancelReason::Watchdog,
            _ => CancelReason::Alloc(self.alloc.get().cloned().unwrap_or(AllocError {
                requested: 0,
                limit: 0,
                live_bytes: 0,
            })),
        }
    }

    /// First-writer-wins trip. Returns true iff this call won; the
    /// winner stamps `trip_ns` and fires the kick.
    fn trip(&self, code: u32, alloc: Option<AllocError>) -> bool {
        if let Some(e) = alloc {
            let _ = self.alloc.set(e);
        }
        let won = self
            .state
            .compare_exchange(0, code, Ordering::Release, Ordering::Acquire)
            .is_ok();
        if won {
            self.trip_ns.store(mpl_obs::now_ns(), Ordering::Release);
            if let Some(kick) = &self.kick {
                kick();
            }
        }
        won
    }
}

/// A hierarchical cooperative-cancellation token. Cheap to clone (one
/// `Arc`); cheap to poll (one relaxed load when live and deadline-free).
/// See the module docs for the protocol.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field(
                "deadline",
                &(self.inner.effective_deadline_ns != NO_DEADLINE),
            )
            .finish()
    }
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    fn build(
        parent: Option<&CancelToken>,
        deadline_ns: u64,
        kick: Option<Arc<dyn Fn() + Send + Sync>>,
    ) -> CancelToken {
        let inherited = parent.map_or(NO_DEADLINE, |p| p.inner.effective_deadline_ns);
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU32::new(0),
                effective_deadline_ns: deadline_ns.min(inherited),
                trip_ns: AtomicU64::new(0),
                parent: parent.map(|p| Arc::clone(&p.inner)),
                alloc: OnceLock::new(),
                kick: kick.or_else(|| parent.and_then(|p| p.inner.kick.clone())),
            }),
        }
    }

    /// A fresh root token: no parent, no deadline, no kick.
    pub fn new() -> CancelToken {
        CancelToken::build(None, NO_DEADLINE, None)
    }

    /// A root token whose winning trip fires `kick` (children inherit
    /// it). The runtime uses this to unpark sleeping workers on trip.
    pub fn with_kick(kick: impl Fn() + Send + Sync + 'static) -> CancelToken {
        CancelToken::build(None, NO_DEADLINE, Some(Arc::new(kick)))
    }

    /// A child token: trips when this parent (or any ancestor) trips,
    /// and can be tripped independently without affecting the parent.
    pub fn child(&self) -> CancelToken {
        CancelToken::build(Some(self), NO_DEADLINE, None)
    }

    /// A child token that also trips `deadline` from now. The effective
    /// deadline is the tighter of this and every ancestor's.
    pub fn child_with_deadline(&self, deadline: Duration) -> CancelToken {
        let at =
            mpl_obs::now_ns().saturating_add(deadline.as_nanos().min(u128::from(u64::MAX)) as u64);
        CancelToken::build(Some(self), at, None)
    }

    /// Requests cancellation of this token's subtree. Returns true iff
    /// this call tripped it (false if already tripped).
    pub fn cancel(&self) -> bool {
        self.inner.trip(CODE_EXPLICIT, None)
    }

    /// Trips this token because the GC stall watchdog fired.
    pub(crate) fn trip_watchdog(&self) -> bool {
        self.inner.trip(CODE_WATCHDOG, None)
    }

    /// Trips this token because a branch hit a recoverable allocation
    /// failure, so sibling branches stop instead of computing doomed
    /// work. The originating error travels with the reason.
    pub(crate) fn trip_alloc(&self, e: AllocError) -> bool {
        self.inner.trip(CODE_ALLOC, Some(e))
    }

    /// The poll point. Returns the trip reason if this token — or an
    /// ancestor — has tripped, tripping the deadline lazily if it
    /// expired. Cost when live: one acquire load, plus a clock read
    /// only when a deadline is set, plus one load per ancestor
    /// (the chain is at most runtime-root → run-child in practice).
    #[inline]
    pub fn poll(&self) -> Option<CancelReason> {
        let s = self.inner.state.load(Ordering::Acquire);
        if s != 0 {
            return Some(self.inner.reason_of(s));
        }
        if self.inner.effective_deadline_ns != NO_DEADLINE
            && mpl_obs::now_ns() >= self.inner.effective_deadline_ns
        {
            self.inner.trip(CODE_DEADLINE, None);
            return Some(CancelReason::Deadline);
        }
        let mut cur = self.inner.parent.as_deref();
        while let Some(p) = cur {
            let s = p.state.load(Ordering::Acquire);
            if s != 0 {
                return Some(p.reason_of(s));
            }
            cur = p.parent.as_deref();
        }
        None
    }

    /// True if [`poll`](Self::poll) would report a trip (and trips an
    /// expired deadline as a side effect, like `poll`).
    pub fn is_cancelled(&self) -> bool {
        self.poll().is_some()
    }

    /// The winning trip's reason and timestamp (`mpl_obs::now_ns`
    /// clock), from whichever token on the path to the root tripped
    /// first. `None` while live. The timestamp opens the
    /// cancellation-latency window the `cancel_unwind` histogram
    /// closes.
    pub fn trip_info(&self) -> Option<(CancelReason, u64)> {
        let mut cur = Some(&self.inner);
        while let Some(i) = cur {
            let s = i.state.load(Ordering::Acquire);
            if s != 0 {
                return Some((i.reason_of(s), i.trip_ns.load(Ordering::Acquire)));
            }
            cur = i.parent.as_ref();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fresh_token_is_live_and_cheap_to_poll() {
        let t = CancelToken::new();
        assert_eq!(t.poll(), None);
        assert!(!t.is_cancelled());
        assert_eq!(t.trip_info(), None);
    }

    #[test]
    fn explicit_cancel_wins_once_and_reaches_children() {
        let root = CancelToken::new();
        let child = root.child();
        let grandchild = child.child();
        assert!(root.cancel(), "first trip wins");
        assert!(!root.cancel(), "second trip loses");
        assert_eq!(child.poll(), Some(CancelReason::Explicit));
        assert_eq!(grandchild.poll(), Some(CancelReason::Explicit));
        let (reason, at) = grandchild.trip_info().expect("tripped");
        assert_eq!(reason, CancelReason::Explicit);
        assert!(at > 0);
    }

    #[test]
    fn child_cancel_does_not_leak_to_parent() {
        let root = CancelToken::new();
        let child = root.child();
        assert!(child.cancel());
        assert_eq!(root.poll(), None);
        assert!(child.is_cancelled());
    }

    #[test]
    fn deadline_trips_lazily_on_poll() {
        let root = CancelToken::new();
        let t = root.child_with_deadline(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(t.poll(), Some(CancelReason::Deadline));
        assert_eq!(t.trip_info().unwrap().0, CancelReason::Deadline);
        // Sibling with its own generous deadline is unaffected.
        let s = root.child_with_deadline(Duration::from_secs(3600));
        assert_eq!(s.poll(), None);
    }

    #[test]
    fn child_inherits_tighter_ancestor_deadline() {
        let root = CancelToken::new();
        let tight = root.child_with_deadline(Duration::from_nanos(1));
        let loose = tight.child_with_deadline(Duration::from_secs(3600));
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(loose.poll(), Some(CancelReason::Deadline));
    }

    #[test]
    fn alloc_escalation_carries_the_error() {
        let t = CancelToken::new();
        let e = AllocError {
            requested: 64,
            limit: 32,
            live_bytes: 16,
        };
        assert!(t.trip_alloc(e.clone()));
        match t.poll() {
            Some(CancelReason::Alloc(got)) => assert_eq!(got, e),
            other => panic!("expected alloc reason, got {other:?}"),
        }
        let err = RunError::Cancelled(Cancelled {
            reason: CancelReason::Alloc(e.clone()),
        });
        assert_eq!(err.alloc_error(), Some(&e));
        assert!(err.is_cancelled());
    }

    #[test]
    fn kick_fires_exactly_once_and_is_inherited() {
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        let root = CancelToken::with_kick(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        let child = root.child();
        assert!(child.cancel());
        assert!(!child.cancel());
        assert_eq!(fired.load(Ordering::SeqCst), 1, "child inherited kick");
        // A fresh child of the same root has its own trip cell; its
        // trip fires the shared kick again (one kick per winning trip).
        let other = root.child();
        assert!(other.cancel());
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn run_error_display_and_conversions() {
        let alloc = AllocError {
            requested: 8,
            limit: 4,
            live_bytes: 2,
        };
        let e: RunError = alloc.clone().into();
        assert!(e.to_string().contains("allocation"));
        assert_eq!(e.alloc_error(), Some(&alloc));
        let c = RunError::Cancelled(Cancelled {
            reason: CancelReason::Deadline,
        });
        assert!(c.to_string().contains("deadline"));
        let p = RunError::Panic("boom".into());
        assert!(p.to_string().contains("boom"));
        assert!(!p.is_cancelled());
    }
}
