//! The mutator interface: what compiled Parallel ML code would call.
//!
//! A [`Mutator`] is one task's view of the runtime: allocation into its
//! own leaf heap, barriered mutable accesses (where entanglement is
//! detected and managed), immutable reads, rooting, and `fork`. The
//! barrier tier split itself (fast path vs slow path) lives in
//! `crate::barrier`; the lock-free root stack lives in `crate::roots`.
//!
//! # Rooting discipline
//!
//! Collections run inside *allocating* calls (and, under real threads,
//! concurrently in other tasks). Any [`Value`] held across an allocating
//! call — including [`Mutator::fork`] — must be registered with
//! [`Mutator::root`]; argument values of the call itself are rooted
//! automatically. Immediates never need rooting.
//!
//! # Hot-path design
//!
//! Mutator operations are the compiled program's inner loop, so each op
//! touches global structures as little as possible: a four-entry
//! task-local block cache short-circuits the block registry for repeated
//! accesses to the same object/array, the allocation fast path is a
//! single bump-pointer reservation in a cached size-class block (no lock,
//! no `Arc` clone, no per-object `Vec` — field words are staged in a
//! reused task scratch buffer), and rooting is a push onto the task's
//! private lock-free [`crate::roots::RootStack`]. Down-pointer
//! remembered-set entries are buffered task-locally (with per-object
//! dedup) and published in batches at the task's boundaries.
//!
//! # Layout
//!
//! `alloc` and `access` are the hot paths; `boundary` owns the per-task
//! GC state (`TaskCtx`) and the five points at which it is flushed,
//! registered or dropped. This file holds the public types, rooting, and
//! `fork` — which touches that state only through the boundary methods.

mod access;
mod alloc;
mod boundary;

use std::sync::Arc;

use mpl_heap::Value;
use mpl_sched::{DagBuilder, StrandId};

use crate::cancel::CancelToken;
use crate::roots::RootStack;
use crate::runtime::Runtime;

pub(crate) use boundary::TaskCtx;

/// Message used when `Mode::DetectOnly` encounters entanglement, matching
/// prior MPL's fatal entanglement report.
pub const ENTANGLEMENT_PANIC: &str =
    "entanglement detected: task accessed an object allocated by a concurrent task";

/// An allocation rejected by the heap budget
/// ([`crate::RuntimeConfig::with_heap_limit`]) after both collectors ran
/// and the live footprint still exceeded the limit — or injected by the
/// `alloc/words` failpoint.
///
/// The error unwinds out of the allocating call as a panic payload and
/// rides the fork/join propagation path (each join re-raises a branch
/// panic after its sibling parks), so every ancestor task's [`Mutator`]
/// drops and deregisters normally. [`crate::Runtime::try_run`] catches it
/// at the top and returns it as a value; the runtime stays usable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocError {
    /// Bytes the failing allocation requested.
    pub requested: usize,
    /// The configured heap budget (0 when the failure was injected by a
    /// failpoint rather than the budget).
    pub limit: usize,
    /// Live bytes observed after the final forced collection.
    pub live_bytes: usize,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.limit == 0 {
            write!(
                f,
                "allocation of {} bytes failed (injected)",
                self.requested
            )
        } else {
            write!(
                f,
                "allocation of {} bytes exceeds heap limit ({} live of {} budget) after forced collection",
                self.requested, self.live_bytes, self.limit
            )
        }
    }
}

impl std::error::Error for AllocError {}

/// A rooted value handle. Immediates are stored inline; objects live in
/// the creating task's lock-free root stack and survive (and track)
/// moving collections. A handle may be read from descendant tasks (the
/// creating task is suspended, so its stack is stable), which is how
/// fork branches access pre-fork values. Dereferencing is a single
/// atomic slot load — no lock, no `Arc` clone.
#[derive(Clone, Debug)]
pub struct Handle(HandleRepr);

#[derive(Clone, Debug)]
enum HandleRepr {
    Imm(Value),
    Slot(Arc<RootStack>, usize),
}

/// A watermark for bulk-releasing roots (scope exit).
#[derive(Clone, Copy, Debug)]
pub struct RootMark(usize);

/// One task's interface to the runtime.
#[derive(Debug)]
pub struct Mutator<'rt> {
    pub(crate) rt: &'rt Runtime,
    pub(crate) ctx: TaskCtx<'rt>,
}

impl<'rt> Mutator<'rt> {
    pub(crate) fn new(ctx: TaskCtx<'rt>) -> Mutator<'rt> {
        Mutator { rt: ctx.rt, ctx }
    }

    /// The runtime this mutator belongs to.
    pub fn runtime(&self) -> &'rt Runtime {
        self.rt
    }

    /// The task's root-to-leaf heap path (canonical ids).
    pub fn path(&self) -> &[u32] {
        &self.ctx.path
    }

    /// Charges `n` units of modeled computational work to the current
    /// strand (for DAG-based scheduling experiments).
    pub fn work(&mut self, n: u64) {
        self.ctx.work += n;
    }

    // ---- rooting --------------------------------------------------------

    /// Roots a value; the handle stays valid across collections.
    ///
    /// Any object value held across an allocating call (including
    /// [`Mutator::fork`]) must be rooted, or a local collection may move
    /// the object out from under it. Handles are also the way to pass
    /// parent data into fork branches: [`Mutator::get`] works from the
    /// creating task *and* from its descendants.
    ///
    /// Rooting is lock-free: a push onto the task's private
    /// [`crate::roots::RootStack`], published to collectors by a single
    /// release store.
    ///
    /// # Example
    ///
    /// ```
    /// use mpl_runtime::{Runtime, RuntimeConfig, Value};
    ///
    /// let rt = Runtime::new(RuntimeConfig::managed());
    /// let v = rt.run(|m| {
    ///     let cell = m.alloc_ref(Value::Int(5));
    ///     let h = m.root(cell);
    ///     m.force_lgc(&mut []); // may move the cell; the handle tracks it
    ///     let cell = m.get(&h);
    ///     m.read_ref(cell)
    /// });
    /// assert_eq!(v, Value::Int(5));
    /// ```
    pub fn root(&mut self, v: Value) -> Handle {
        match v {
            Value::Obj(r) => {
                let slot = self.ctx.roots.push(r);
                Handle(HandleRepr::Slot(Arc::clone(&self.ctx.roots), slot))
            }
            imm => Handle(HandleRepr::Imm(imm)),
        }
    }

    /// Reads a rooted value (tracking any moves since rooting). Works from
    /// the creating task and from its descendants; a single atomic slot
    /// load either way.
    pub fn get(&self, h: &Handle) -> Value {
        match &h.0 {
            HandleRepr::Imm(v) => *v,
            HandleRepr::Slot(stack, i) => Value::Obj(stack.get(*i)),
        }
    }

    /// Overwrites a rooted slot with a new value.
    ///
    /// # Panics
    ///
    /// Panics if the handle is an immediate or the new value is not an
    /// object.
    pub fn set_root(&mut self, h: &Handle, v: Value) {
        match &h.0 {
            HandleRepr::Slot(stack, i) => {
                stack.set(*i, v.expect_obj());
            }
            HandleRepr::Imm(_) => panic!("cannot overwrite an immediate handle"),
        }
    }

    /// Returns a watermark capturing the current root-stack height.
    pub fn mark(&self) -> RootMark {
        RootMark(self.ctx.roots.len())
    }

    /// Releases every root created after `mark`.
    pub fn release(&mut self, mark: RootMark) {
        self.ctx.roots.truncate(mark.0);
    }

    // ---- fork-join ---------------------------------------------------------

    /// Runs `f` and `g` as parallel subtasks with fresh child heaps and
    /// returns both results; the child heaps merge into this task's heap
    /// at the join, unpinning every object whose entanglement ends here.
    ///
    /// Values captured from the parent must be passed through rooted
    /// [`Handle`]s — a raw [`Value`] may be stale after a collection.
    ///
    /// # Example
    ///
    /// ```
    /// use mpl_runtime::{Runtime, RuntimeConfig, Value};
    ///
    /// let rt = Runtime::new(RuntimeConfig::managed());
    /// let v = rt.run(|m| {
    ///     let (a, b) = m.fork(|_| Value::Int(20), |_| Value::Int(22));
    ///     match (a, b) {
    ///         (Value::Int(x), Value::Int(y)) => Value::Int(x + y),
    ///         _ => unreachable!(),
    ///     }
    /// });
    /// assert_eq!(v, Value::Int(42));
    /// ```
    pub fn fork<F, G>(&mut self, f: F, g: G) -> (Value, Value)
    where
        F: FnOnce(&mut Mutator<'_>) -> Value + Send,
        G: FnOnce(&mut Mutator<'_>) -> Value + Send,
    {
        self.ctx.work += self.rt.config().work.fork;
        // The parent is suspended (or running branch bodies under their
        // own task contexts) until the join.
        let suspended = self.ctx.suspend();
        let rt = self.rt;
        let parent_heap = self.ctx.leaf_heap();
        let (lh, rh) = rt.store().fork_heaps(parent_heap);
        let (ls, rs) = match &self.ctx.dag {
            Some(dag) => dag.fork(self.ctx.strand),
            None => (StrandId(0), StrandId(0)),
        };
        let mut lpath = self.ctx.path.clone();
        lpath.push(lh);
        let mut rpath = self.ctx.path.clone();
        rpath.push(rh);
        // Branches inherit the cancellation token (like the tenant
        // budget): one tripped token unwinds the whole tree. Branch
        // bodies rebuild their task context from the captured heap
        // paths, so which worker executes a branch is invisible to the
        // heap hierarchy.
        let (ldag, lcancel) = (self.ctx.dag.clone(), self.ctx.cancel.clone());
        let (rdag, rcancel) = (self.ctx.dag.clone(), self.ctx.cancel.clone());
        let left = move || run_branch(rt, lpath, ldag, ls, lcancel, f);
        let right = move || run_branch(rt, rpath, rdag, rs, rcancel, g);
        // Parallel path: offer the right branch to thieves on this
        // worker's deque and run the left branch inline (help-first). If
        // nobody steals it, `try_join` pops it back and runs it inline —
        // an un-stolen fork costs two deque operations. Sequential path:
        // no pool (`threads == 1`), or this thread is not a pool worker
        // (a second concurrent `run` that lost the driver slot).
        let joined = if rt.config().threads > 1 {
            mpl_sched::try_join(left, right)
        } else {
            Err((left, right))
        };
        let ((lv, lend, lslot), (rv, rend, rslot)) =
            joined.unwrap_or_else(|(left, right)| (left(), right()));

        // The join merge below mutates heap structure under this task's
        // identity again: close the suspension window first.
        drop(suspended);

        // Cleanup precedes any re-raise: the join must merge both child
        // heaps (taking their state, entangled indexes included, and applying
        // unpin-at-join) and the parked sibling result must be released
        // even when a branch panicked — otherwise a shed request leaks
        // pins and pending-slot roots for the runtime's lifetime.
        let join = rt.store().join(parent_heap, lh, rh);
        rt.roots().unpark(lslot);
        rt.roots().unpark(rslot);
        if let Some(dag) = &self.ctx.dag {
            self.ctx.strand = dag.join(lend, rend);
        }
        let (lv, rv) = match (lv, rv) {
            (Ok(l), Ok(r)) => (l, r),
            (Err(p), _) | (_, Err(p)) => std::panic::resume_unwind(p),
        };
        if self.ctx.path.len() == 1 {
            // Root-level join: every other task has completed, so retired
            // blocks are unreachable by construction.
            rt.graveyard().drain(rt.store());
        }
        // Merged data counts toward this task's collection debt: garbage
        // produced inside the children must not dodge the collector just
        // because their heaps dissolved into ours. Collecting a *merged*
        // heap is only safe when no concurrent task can race its
        // forwarding: always under the sequential executor, and at
        // root-level joins (global quiescence) under real threads. Inner
        // merged-heap collection under concurrency would need the
        // mutator handshakes full MPL performs; we defer it to the next
        // quiescent point instead (documented deviation, DESIGN.md §2).
        self.ctx.alloc_since = self.ctx.alloc_since.saturating_add(join.merged_bytes);
        let quiescent = rt.config().threads <= 1 || self.ctx.path.len() == 1;
        let mut results = [lv, rv];
        if quiescent && self.ctx.alloc_since >= self.ctx.lgc_budget {
            self.ctx.collect_local(&mut results);
        } else if rt.cgc_poll_requested() {
            // Joins are safepoints: honor any pin-driven CGC request,
            // with the child results reachable during its root scan.
            self.ctx.cgc_safepoint(&results, false);
        }
        (results[0], results[1])
    }
}

/// Runs one fork branch as its own task: enter, poll, body, finish.
fn run_branch<F>(
    rt: &Runtime,
    path: Vec<u32>,
    dag: Option<Arc<DagBuilder>>,
    strand: StrandId,
    cancel: CancelToken,
    body: F,
) -> (std::thread::Result<Value>, StrandId, Option<usize>)
where
    F: FnOnce(&mut Mutator<'_>) -> Value,
{
    let mut m = Mutator::new(TaskCtx::enter(rt, path, dag, strand, cancel, None));
    // A panicking branch (entanglement abort, AllocError, injected
    // fault, cancellation) is caught here and re-raised by the parent's
    // join *after* both child heaps merged and the sibling's parked
    // result was released — the caught payload rides back as a value so
    // the fork can run its cleanup unconditionally. Branch entry is a
    // poll point, so a branch stolen after the trip unwinds immediately.
    let v = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.ctx.poll();
        body(&mut m)
    }));
    // Park the result before the task finishes (dropping its roots) so a
    // concurrent collection between branch completion and the join still
    // sees it.
    let slot = match &v {
        Ok(v) => rt.roots().park(*v),
        Err(_) => None,
    };
    let end = m.ctx.strand;
    drop(m);
    (v, end, slot)
}
