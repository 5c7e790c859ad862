//! The mutator interface: what compiled Parallel ML code would call.
//!
//! A [`Mutator`] is one task's view of the runtime: allocation into its
//! own leaf heap, barriered mutable accesses (where entanglement is
//! detected and managed), immutable reads, rooting, and `fork`. The
//! barrier tier split itself (fast path vs slow path) lives in
//! `crate::barrier`; the lock-free root stack lives in `mpl_gc::roots`.
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
//! accesses to the same object/array, and every access resolves its
//! object exactly once (`Mutator::resolve`: one slot compare, one
//! publication check, one header load giving the forwarded bit and the
//! field count, inlined into the accessor; misses and forwarding chases
//! go out of line). The allocation fast path touches only state the task
//! owns: one load of its slot's request word, one subtract-and-branch on
//! its allocation allowance, one room compare in its region for the size
//! class (a `mpl_heap::Region`: block, plain-integer cursor, limit), the
//! `saw_remote` branch, then the fields encoded straight into the block
//! and the header published — no locked instruction, no lock, no `Arc`
//! clone, no copy. Fields are staged in a reused scratch buffer only on
//! the slow path, where a collection may move them. Rooting is a push
//! onto the lock-free [`mpl_gc::roots::RootStack`] of the slot the task
//! runs on. Down-pointer remembered-set entries are buffered task-locally
//! (with per-object dedup) and published in batches at the task's
//! boundaries.
//!
//! # Layout
//!
//! `alloc` and `access` are the hot paths; `boundary` owns the per-task
//! GC state (`TaskCtx`) and the five points at which it is flushed,
//! paused or dropped. This file holds the public types, rooting, and
//! `fork` — which touches that state only through the boundary methods,
//! and is where a stolen branch's slot is opened and closed.

mod access;
mod alloc;
mod boundary;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mpl_gc::MutatorSlot;
use mpl_heap::{DebtRecord, LazyHeap, Value};
use mpl_sched::StrandId;

use crate::config::FORK_WORK;
use crate::runtime::Runtime;

pub use access::RawView;
pub(crate) use access::Resolved;
pub(crate) use boundary::{Handoff, TaskCtx};

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
/// panic after its sibling finishes), so every ancestor task's
/// [`Mutator`] drops, and pops its frame, normally. [`crate::Runtime::try_run`] catches it
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
/// the creating task's frame of a lock-free root stack and survive (and
/// track) moving collections. A handle may be read from descendant tasks
/// (the creating task is suspended, so its frame is stable), which is how
/// fork branches access pre-fork values. Dereferencing is a single
/// atomic slot load — no lock, no `Arc` clone.
#[derive(Clone, Debug)]
pub struct Handle(HandleRepr);

#[derive(Clone, Debug)]
enum HandleRepr {
    Imm(Value),
    Slot(Arc<MutatorSlot>, usize),
}

/// A watermark for bulk-releasing roots (scope exit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    /// Rooting is lock-free: a push onto the task's frame of its slot's
    /// [`mpl_gc::roots::RootStack`], published to collectors by a single
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
                let i = self.ctx.slot.roots.push(r);
                Handle(HandleRepr::Slot(Arc::clone(self.ctx.shared_slot), i))
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
            HandleRepr::Slot(slot, i) => Value::Obj(slot.roots.get(*i)),
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
            HandleRepr::Slot(slot, i) => {
                slot.roots.set(*i, v.expect_obj());
            }
            HandleRepr::Imm(_) => panic!("cannot overwrite an immediate handle"),
        }
    }

    /// Returns a watermark capturing the current root-stack height.
    pub fn mark(&self) -> RootMark {
        RootMark(self.ctx.slot.roots.len())
    }

    /// Releases every root created after `mark` — a mark this task took:
    /// roots below its frame are a suspended ancestor's.
    pub fn release(&mut self, mark: RootMark) {
        debug_assert!(mark.0 >= self.ctx.base, "a mark below the task's frame");
        self.ctx.slot.roots.truncate(mark.0);
    }

    // ---- fork-join ---------------------------------------------------------

    /// Runs `f` and `g` as parallel subtasks and returns both results.
    ///
    /// The branches get a child heap of this task's heap on first use —
    /// their first block refill, slow-tier barrier or local collection —
    /// so a fork whose branches only compute creates none. Only a right
    /// branch that migrated (was stolen) can run beside its sibling, so
    /// only it gets a heap of its own; an un-stolen right branch runs
    /// after the left one, in the left one's heap, and sees what the left
    /// allocated as local. At the join the child heaps that exist (one,
    /// or two after a steal) merge into this task's heap, unpinning
    /// every object whose entanglement ends here, and their collection
    /// debt records fold into this task's: what the children owe and what
    /// their collections kept is charged to this task's debt, once. An
    /// un-stolen right branch continues the record its left sibling left
    /// in their shared heap, so the join sees one record per heap.
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
        self.fork_signalling(f, g, None)
    }

    /// [`Mutator::fork`], raising `signal` (if given) as the right branch
    /// begins on a worker that stole it, before anything in the branch
    /// can unwind.
    fn fork_signalling<F, G>(&mut self, f: F, g: G, signal: Option<&AtomicBool>) -> (Value, Value)
    where
        F: FnOnce(&mut Mutator<'_>) -> Value + Send,
        G: FnOnce(&mut Mutator<'_>) -> Value + Send,
    {
        self.ctx.work += FORK_WORK;
        let rt = self.rt;
        let pooled = rt.config().threads > 1;
        // The parent is suspended (or running branch bodies under their
        // own task contexts) until the join.
        let suspended = self.ctx.suspend(pooled);
        let mark = self.ctx.slot.roots.len();
        let (ls, rs) = match self.ctx.dag {
            Some(dag) => dag.fork(self.ctx.strand),
            None => (StrandId(0), StrandId(0)),
        };
        // Branch bodies build their task context from this (suspended,
        // hence frozen) one, borrowing what it lends them. The scheduler
        // tells a branch whether it migrated, which decides whose slot it
        // runs on and whether it shares `cell`, the heap cell under this
        // task's that the left branch runs in.
        let cell = LazyHeap::child(self.ctx.heap, false);
        let (forker, shared) = (&self.ctx, (&cell, mark));
        let left = move |migrated| run_branch(forker, shared, migrated, None, ls, f);
        let right = move |migrated| run_branch(forker, shared, migrated, signal, rs, g);
        // Parallel path: offer the right branch to thieves on this
        // worker's deque and run the left branch inline (help-first). If
        // nobody steals it, `try_join` pops it back and runs it inline —
        // an un-stolen fork costs two deque operations. Sequential path:
        // no pool (`threads == 1`), or this thread is not a pool worker
        // (a second concurrent `run` that lost the driver slot).
        let joined = if pooled {
            mpl_sched::try_join(left, right)
        } else {
            Err((left, right))
        };
        let ((mut lv, lend, lslot, lh), (mut rv, rend, rslot, rh)) =
            joined.unwrap_or_else(|(left, right)| (left(false), right(false)));
        let own_heaps = [lh, rh];

        // The join merge below mutates heap structure under this task's
        // identity again: close the suspension window first.
        drop(suspended);

        // Cleanup precedes any re-raise: the join must merge the child
        // heaps that exist (taking their state, entangled indexes
        // included, and applying unpin-at-join) and take the branches'
        // result roots — one on top of this task's frame per object a
        // borrowing branch returned, one in the slot a migrated branch
        // hands back — even when a branch panicked; otherwise a shed
        // request leaks pins, roots and registered slots for the
        // runtime's lifetime. A child with a heap gave this task one too.
        let migrated = own_heaps.iter().flatten().map(|&(id, _)| id);
        rt.store()
            .join(self.ctx.heap.leaf(), cell.id().into_iter().chain(migrated));
        let roots = &self.ctx.slot.roots;
        for (v, own) in [(&mut rv, &rslot), (&mut lv, &lslot)] {
            if let Some(own) = own {
                // A CGC request the stolen branch left unanswered moves
                // to this task, whose join answers it below.
                if own.requests() & mpl_gc::REQ_CGC != 0 {
                    self.ctx.request_cgc_poll();
                }
                rt.cgc_state().close_slot(rt.store(), own);
            } else if let Ok(Value::Obj(_)) = v {
                // Read the result back from its root, not from the
                // branch's return: an un-stolen right branch that ran
                // after the left one in its heap may have collected it,
                // moving the left's result.
                let top = roots.len() - 1;
                *v = Ok(Value::Obj(roots.get(top)));
                roots.truncate(top);
            }
        }
        debug_assert_eq!(roots.len(), mark, "a branch left roots behind");
        if let Some(dag) = self.ctx.dag {
            self.ctx.strand = dag.join(lend, rend);
        }
        let (lv, rv) = match (lv, rv) {
            (Ok(l), Ok(r)) => (l, r),
            (Err(p), _) | (_, Err(p)) => std::panic::resume_unwind(p),
        };
        // The children's debt records fold into this task's: what they
        // owe, and what their collections kept, comes due here, so garbage
        // made in them cannot dodge the collector just because their heaps
        // dissolved into ours (`TaskCtx::join_debt`). When the debt is due,
        // the join collects the merged heap, with the branch results as
        // extra roots — at every depth and thread count, like the
        // allocation slow path.
        let children = own_heaps.into_iter().flatten().map(|(_, d)| d);
        self.ctx
            .join_debt(std::iter::once(cell.debt.get()).chain(children));
        let mut results = [lv, rv];
        if self.ctx.alloc_since >= self.ctx.lgc_budget {
            self.ctx.collect_local(&mut results);
        } else if self.ctx.slot.requests() & mpl_gc::REQ_CGC != 0 {
            // Joins are safepoints: honor any pin-driven CGC request,
            // with the child results reachable during its root scan.
            self.ctx.cgc_safepoint(&results, false);
        }
        (results[0], results[1])
    }

    /// [`Mutator::fork`] with the right branch forced to migrate (tests
    /// and experiments): the left branch waits until another worker has
    /// taken the right one, so the two run in heaps of their own, as two
    /// concurrent tasks do. With no pool to migrate to (one worker, or a
    /// thread that is not a pool worker) it is a plain `fork`.
    ///
    /// The wait ends when the right branch begins on the thief, before
    /// its entry poll, so a branch that unwinds there (a tripped token,
    /// an injected fault) still releases it; the waiting branch polls, so
    /// a cancellation unwinds it too. A pool needs a worker free to steal
    /// the right branch: if none takes it within ten seconds (every
    /// worker busy, or nested forced steals waiting on each other), the
    /// left branch panics rather than wait forever.
    ///
    /// # Panics
    ///
    /// Panics if a branch panics, or if no worker steals the right
    /// branch within ten seconds.
    pub fn fork_stolen<F, G>(&mut self, f: F, g: G) -> (Value, Value)
    where
        F: FnOnce(&mut Mutator<'_>) -> Value + Send,
        G: FnOnce(&mut Mutator<'_>) -> Value + Send,
    {
        if self.rt.config().threads < 2 || !mpl_sched::on_worker_thread() {
            return self.fork(f, g);
        }
        let stolen = AtomicBool::new(false);
        self.fork_signalling(
            |m| {
                let deadline = std::time::Instant::now() + STEAL_WAIT;
                while !stolen.load(Ordering::Acquire) {
                    m.ctx.poll();
                    assert!(
                        std::time::Instant::now() < deadline,
                        "fork_stolen: no worker stole the right branch within {STEAL_WAIT:?}"
                    );
                    std::thread::yield_now();
                }
                f(m)
            },
            g,
            Some(&stolen),
        )
    }
}

/// How long [`Mutator::fork_stolen`]'s left branch waits for a worker to
/// steal the right one before it panics.
const STEAL_WAIT: std::time::Duration = std::time::Duration::from_secs(10);

/// A migrated branch's own heap, and that heap's collection debt record,
/// for the join to merge.
type OwnHeap = (u32, DebtRecord);

/// Runs one fork branch as its own task: enter, poll, body, finish — on
/// its forker's slot (the forker is suspended directly beneath it on this
/// native stack), or, if the scheduler migrated it, on a slot of its own,
/// which it hands back (paused, rooting the result) with its outcome,
/// last strand and heap, if it came to have one ([`OwnHeap`]), for the
/// join to close.
/// The branch borrows the forker's cancellation token (like the tenant
/// budget): one tripped token unwinds the whole tree.
///
/// `shared` is the fork's heap cell and the forker's root-stack height at
/// the fork. A branch that did not migrate runs in that cell: the left
/// one, and the right one after it, which finds the left's result rooted
/// just below its own roots. That result lives in the heap the right one
/// allocates into, so the right one's frame starts at the fork's height
/// and takes it in: its collections root and update the result, which the
/// join then reads back from the root. A migrated branch may run beside
/// its sibling, so it gets a cell of its own under the forker's; it
/// raises `signal`, if given, first thing.
fn run_branch<F>(
    forker: &TaskCtx<'_>,
    (cell, mark): (&LazyHeap<'_>, usize),
    migrated: bool,
    signal: Option<&AtomicBool>,
    strand: StrandId,
    body: F,
) -> (
    std::thread::Result<Value>,
    StrandId,
    Option<Arc<MutatorSlot>>,
    Option<OwnHeap>,
)
where
    F: FnOnce(&mut Mutator<'_>) -> Value,
{
    if let (true, Some(signal)) = (migrated, signal) {
        signal.store(true, Ordering::Release);
    }
    let handoff = if forker.rt.config().threads > 1 {
        Handoff::Paused
    } else {
        Handoff::Running
    };
    let own = migrated.then(|| forker.rt.cgc_state().open_slot());
    let slot = own.as_ref().unwrap_or(forker.shared_slot);
    let own_cell = migrated.then(|| LazyHeap::child(forker.heap, true));
    let (heap, base) = match &own_cell {
        Some(own_cell) => (own_cell, 0),
        None => (cell, mark),
    };
    let top = slot.roots.len();
    let recording = forker.dag.map(|d| (d, strand));
    let ctx = TaskCtx::enter(
        forker.rt,
        slot,
        handoff,
        heap,
        base,
        recording,
        forker.cancel,
    );
    let mut m = Mutator::new(ctx);
    // A panicking branch (entanglement abort, AllocError, injected
    // fault, cancellation) is caught here and re-raised by the parent's
    // join *after* the child heaps merged and both branches' result
    // roots were taken — the caught payload rides back as a value so
    // the fork can run its cleanup unconditionally. Branch entry is a
    // poll point, so a branch stolen after the trip unwinds immediately.
    // A failpoint there can fail a stolen branch before its body runs.
    let v = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.ctx.poll();
        if migrated {
            mpl_fail::hit_hard("sched/migrated");
        }
        body(&mut m)
    }));
    // The frame collapses to the result before the task finishes (and
    // pauses the slot), so a concurrent collection between branch
    // completion and the join still sees it. A sibling's result below
    // `top` stays.
    let result = v.as_ref().ok().and_then(|v| v.as_obj());
    m.ctx.slot.roots.pop_frame(top, result);
    let end = m.ctx.strand;
    drop(m);
    let own_heap = own_cell.and_then(|c| Some((c.id()?, c.debt.get())));
    (v, end, own, own_heap)
}
