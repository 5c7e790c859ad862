//! Per-task GC state and the boundary protocol that keeps it coherent.
//!
//! A [`TaskCtx`] is everything one task owns on the mutator/collector
//! seam — allocation and block caches, the remembered-set write buffer,
//! task-buffered counters, DAG work, the tenant budget and the cancel
//! token — plus the [`MutatorSlot`] (root stack + SATB shard) it
//! *borrows*: its run's, its session's, or its forker's, unless the
//! scheduler migrated it (`crate::roots` has the ownership rule). That
//! state crosses exactly five boundaries, and each boundary is one method
//! here — the only place its work happens (DESIGN.md "Task boundaries"
//! tabulates which component does what at which boundary):
//!
//! | boundary | method | who calls it |
//! |---|---|---|
//! | poll point | [`TaskCtx::poll`] | every allocation, both barrier slow tiers, branch entry |
//! | fork (until the join) | [`TaskCtx::suspend`] | [`Mutator::fork`] |
//! | concurrent-collection safepoint | [`TaskCtx::cgc_safepoint`] | allocation, joins, the pressure ladder |
//! | local collection | [`TaskCtx::collect_local`] | allocation, joins, the pressure ladder, run end |
//! | task end | [`TaskCtx::finish`] | `Drop` (normal return and every unwind) |
//!
//! [`TaskCtx::enter`] is the one constructor. The remembered-set buffer,
//! its dedup set and the session link are private to this module, so no
//! other file can flush or drop them. Nothing here registers anything:
//! slots are opened and closed by the run, the session and the steal
//! (`runtime/`, `Mutator::fork`), and whoever catches a task's outcome
//! pops its frame (`run_branch`, `run_root`).

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mpl_heap::{
    Block, Counter, ObjRef, PendingStats, RemsetEntry, TenantBudget, Value, Word, NUM_SIZE_CLASSES,
};
use mpl_sched::{DagBuilder, StrandId};

use super::Mutator;
use crate::cancel::{CancelReason, CancelToken, Cancelled};
use crate::roots::MutatorSlot;
use crate::runtime::{Runtime, TenantSession};

/// Buffered remembered-set entries are published once the buffer reaches
/// this size, bounding the memory a write-heavy task can defer.
const REMSET_BUFFER_CAP: usize = 256;

/// Task-buffered counters are published once this many allocated bytes
/// are pending, so the allocation fast path pays no global atomics.
pub(crate) const PENDING_FLUSH_BYTES: u64 = 16 * 1024;

/// RAII collector-safe window on a slot's SATB shard: while held, the
/// concurrent collector's snapshot handshake does not wait on the slot.
/// Held around every region where the task either blocks (fork branch
/// suspension, the collection gate) or runs for an unbounded stretch
/// without reaching a poll point (a local collection).
///
/// Soundness: entering flushes the shard's SATB buffer and the exit
/// re-acks the current epoch, so a snapshot taken while this window is
/// open sees every pre-window logged pointer; the wrapped regions perform
/// no unlogged entangled-pointer deletions (a branch body borrowing the
/// slot resumes it for as long as it runs, a migrated one mutates
/// through its own, and the collectors' own heap surgery is covered by
/// the forwarding/graveyard arguments in [`TaskCtx::collect_local`]).
/// Windows nest — the shard's `safe` word is a depth counter, and a
/// slot nobody runs on rests at depth 1.
pub(crate) struct SafeWindow<'rt> {
    st: &'rt mpl_gc::CgcState,
    slot: Arc<MutatorSlot>,
}

impl Drop for SafeWindow<'_> {
    fn drop(&mut self) {
        self.st.exit_safe(&self.slot.satb);
    }
}

/// Per-task execution state. See the module docs for the protocol.
#[derive(Debug)]
pub(crate) struct TaskCtx<'rt> {
    pub(crate) rt: &'rt Runtime,
    pub(crate) path: Vec<u32>,
    /// The slot this task runs on (borrowed — see the module docs), and
    /// where its frame starts on the slot's root stack: roots below
    /// `base` belong to suspended ancestors and are not this task's to
    /// release or to collect from. 0 for a root task, so a session's
    /// roots from earlier requests are its LGC roots.
    pub(crate) slot: Arc<MutatorSlot>,
    pub(crate) base: usize,
    pub(crate) alloc_since: usize,
    pub(crate) dag: Option<Arc<DagBuilder>>,
    pub(crate) strand: StrandId,
    pub(crate) work: u64,
    pub(crate) block_cache: [Option<(u32, Arc<Block>)>; 4],
    /// Per-size-class bump targets: the task's current allocation block
    /// for each class, refreshed from the heap after every store-path
    /// (overflow) allocation and dropped at collections.
    pub(crate) alloc_cache: [Option<Arc<Block>>; NUM_SIZE_CLASSES],
    /// Reused field staging buffers so the allocation paths never build
    /// a per-object `Vec` (taken/restored around each allocation).
    pub(crate) scratch_vals: Vec<Value>,
    pub(crate) scratch_words: Vec<Word>,
    /// Task-buffered counters, flushed to the global
    /// [`mpl_heap::StoreStats`] at boundaries (forks, collections,
    /// safepoints, task end, and every [`PENDING_FLUSH_BYTES`] of
    /// allocation) so the hot path pays no global atomics.
    pub(crate) pending: PendingStats,
    /// Size-proportional collection budget: collect once `alloc_since`
    /// exceeds `max(policy trigger, 2 × last survivors)`. Keeps total
    /// copying linear even when joins repeatedly merge surviving data.
    pub(crate) lgc_budget: usize,
    /// Whether this task has ever acquired a remote (entangled) pointer.
    /// Every first acquisition flows through `pin_cached`, which sets
    /// this; once set, allocations scan their pointer fields and pin any
    /// remote target (the allocation barrier), because a raw remote
    /// pointer stored into a fresh local object creates a cross-heap
    /// edge no other barrier ever sees. Disentangled tasks never set it
    /// and keep the one-branch allocation fast path.
    pub(crate) saw_remote: bool,
    /// Mutator-private remembered-set write buffer: down-pointer entries
    /// recorded by the write barrier, published in batches by
    /// `flush_remset`. Entries only ever target heaps on this task's own
    /// path, which is why deferring publication to the task's own
    /// boundaries is sound (see `flush_remset`).
    remset_buf: Vec<(u32, RemsetEntry)>,
    /// Per-object dedup for the buffer: (dst heap, src, field) triples
    /// already buffered since the last flush. Cleared at every flush —
    /// a collection may drop a published entry (source died), so a
    /// later re-write of the same field must be able to re-insert it.
    remset_seen: HashSet<(u32, ObjRef, u32)>,
    /// The tenant budget the leaf heap is accounted against (resolved
    /// once at task setup; child heaps inherit it at fork). `None` for
    /// unbudgeted tasks — the common case, which pays one branch.
    pub(crate) budget: Option<Arc<TenantBudget>>,
    /// Set for a tenant-session root task: the collection debt is
    /// restored from the session at `enter` and carried back at `finish`.
    session: Option<&'rt TenantSession>,
    /// Cooperative-cancellation token, inherited at fork (like the
    /// tenant budget) and checked by [`TaskCtx::poll`], so a tripped
    /// token unwinds within one poll interval. Runs always carry a
    /// per-run child of the runtime's root token.
    pub(crate) cancel: CancelToken,
}

impl<'rt> TaskCtx<'rt> {
    /// **Enter**: builds the state of a task whose leaf heap is the last
    /// element of `path`, running on the (paused) `slot` it is handed:
    /// resumes the slot and opens a frame at the top of its root stack —
    /// at the bottom for a root task, which also restores its session's
    /// carried collection debt.
    pub(crate) fn enter(
        rt: &'rt Runtime,
        slot: &Arc<MutatorSlot>,
        path: Vec<u32>,
        dag: Option<Arc<DagBuilder>>,
        strand: StrandId,
        cancel: CancelToken,
        session: Option<&'rt TenantSession>,
    ) -> TaskCtx<'rt> {
        let trigger = rt.config().policy.lgc_trigger_bytes;
        let (alloc_since, lgc_budget) = session.map_or((0, trigger), |s| {
            (
                s.alloc_debt.load(Ordering::Relaxed),
                s.lgc_budget.load(Ordering::Relaxed).max(trigger),
            )
        });
        let budget = rt
            .store()
            .budget_of(*path.last().expect("task path is never empty"));
        rt.cgc_state().exit_safe(&slot.satb);
        TaskCtx {
            rt,
            base: if path.len() == 1 { 0 } else { slot.roots.len() },
            path,
            slot: Arc::clone(slot),
            alloc_since,
            dag,
            strand,
            work: 0,
            block_cache: [None, None, None, None],
            alloc_cache: std::array::from_fn(|_| None),
            scratch_vals: Vec::new(),
            scratch_words: Vec::new(),
            pending: PendingStats::default(),
            lgc_budget,
            saw_remote: false,
            remset_buf: Vec::new(),
            remset_seen: HashSet::new(),
            budget,
            session,
            cancel,
        }
    }

    pub(crate) fn leaf_heap(&self) -> u32 {
        *self.path.last().expect("task path is never empty")
    }

    /// **Poll**: acknowledges a pending SATB snapshot handshake (two
    /// relaxed loads unless the collector is mid-snapshot) and checks the
    /// cancel token. If the token (or an ancestor's) has tripped, begins
    /// unwinding with a [`Cancelled`] payload; the unwind rides the exact
    /// path an `AllocError` takes — caught per branch, re-raised by the
    /// parent's join after heap merge and sibling-result release, caught
    /// at the top by `Runtime::try_run*` — and every task it crosses
    /// drops through [`TaskCtx::finish`]. (A pure compute loop with no
    /// allocation and no slow-tier access can still delay a handshake or
    /// a cancel — the same liveness caveat as MPL's safepoint scheme.)
    #[inline]
    pub(crate) fn poll(&self) {
        self.rt.cgc_state().poll_handshake(&self.slot.satb);
        if let Some(reason) = self.cancel.poll() {
            self.unwind_cancelled(reason);
        }
    }

    #[cold]
    fn unwind_cancelled(&self, reason: CancelReason) -> ! {
        // One count per task that starts a cancellation unwind (the
        // root and each live branch of the cancelled tree).
        self.rt.store().stats().add(Counter::cancel_requested, 1);
        mpl_fail::hit_hard("cancel/unwind");
        std::panic::panic_any(Cancelled { reason });
    }

    /// **Suspend**: the task is about to fork and will not run (or poll)
    /// again until the join. A poll point first — a tripped tree stops
    /// spawning and unwinds here instead of fanning out doomed work —
    /// then everything buffered is published (DAG work, counters, and
    /// the remembered-set entries an ancestor's collection may need), and
    /// a safe window opens so a concurrent collector's snapshot handshake
    /// does not wait on a task that cannot ack. The window closes
    /// (resume-at-join) when the returned guard drops.
    #[inline]
    pub(crate) fn suspend(&mut self) -> SafeWindow<'rt> {
        self.poll();
        self.flush_work();
        self.flush_remset();
        self.debug_assert_flushed();
        self.safe_window()
    }

    /// **CGC safepoint**: gives the concurrent collector a chance to run
    /// (or advance a sliced cycle) — or, with `force`, blocks until a full
    /// cycle completes. Counters are published first so the gauges the
    /// trigger reads are current; `roots` (values the caller holds that
    /// nothing else reaches yet, e.g. join results) are rooted for the
    /// duration — CGC never moves objects, so they need no write-back;
    /// and the collection runs inside a safe window: if this thread wins
    /// the gate and begins a cycle, the snapshot handshake must not wait
    /// on this task's own shard (nor deadlock against another thread's
    /// handshake while this one blocks on the gate).
    pub(crate) fn cgc_safepoint(&mut self, roots: &[Value], force: bool) {
        self.flush_stats();
        let mark = self.slot.roots.len();
        for r in roots.iter().filter_map(|v| v.as_obj()) {
            self.slot.roots.push(r);
        }
        {
            let _safe = self.safe_window();
            if force {
                self.rt.force_cgc();
            } else {
                self.rt.maybe_cgc();
            }
        }
        self.slot.roots.truncate(mark);
    }

    /// **Local collection** of this task's leaf heap. This task's frame
    /// of the root stack plus `extra` (updated in place) are the roots —
    /// frames below it belong to suspended ancestors, whose roots point
    /// into their own heaps, not this leaf; buffered remembered-set
    /// entries targeting this task's own heaps are roots too, so they are
    /// published first. Afterwards the collection debt restarts and the
    /// caches — whose blocks the collection replaced or freed — are
    /// dropped.
    pub(crate) fn collect_local(&mut self, extra: &mut [Value]) {
        self.flush_stats();
        self.flush_remset();
        // The collection can run for an unbounded stretch without
        // reaching a poll point, and the sliced-cycle finish below blocks
        // on the collection gate: keep the shard safe throughout. Sound
        // for the same reason concurrent CGC marking is sound against
        // LGC at all — entangled-space objects are never moved or freed
        // locally, and a CGC tracer racing the move of a *local* object
        // resolves through forwarding (retired blocks are graveyard-held
        // until quiescence).
        let _safe = self.safe_window();
        let rt = self.rt;
        // A local collection moves objects and (eagerly) frees blocks; a
        // paused incremental CGC holds object refs in its mark stack, so
        // finish that cycle first. (Full MPL repairs the marker's state
        // instead; serializing keeps the interaction sound here.)
        if rt.config().cgc_slice_objects > 0 && rt.cgc_state().cycle_active() {
            rt.force_cgc();
        }
        // Snapshot this task's frame (owner read: nobody else pushes),
        // collect, then write the updated locations back with
        // atomic slot stores. A concurrent CGC root scan may interleave
        // and read a pre-collection reference; that is sound — the old
        // location forwards to the new one, and retired fromspace blocks
        // outlive the cycle (the graveyard drains only at quiescence).
        let mut roots = self.slot.roots.snapshot(self.base);
        let nroots = roots.len();
        roots.extend(extra.iter().filter_map(|v| v.as_obj()));
        let out = mpl_gc::collect_local(
            rt.store(),
            self.leaf_heap(),
            &mut roots,
            rt.graveyard(),
            rt.config().policy.immediate_block_free,
        );
        for (i, r) in roots[..nroots].iter().enumerate() {
            self.slot.roots.set(self.base + i, *r);
        }
        let mut moved = roots[nroots..].iter();
        for v in extra.iter_mut().filter(|v| v.as_obj().is_some()) {
            *v = Value::Obj(*moved.next().expect("one root per object value"));
        }
        self.alloc_since = 0;
        // Size-proportional budget: next collection once we allocate
        // about as much as survived this one. (Collection work is
        // deliberately NOT charged to the strand: in MPL, local
        // collections are distributed across otherwise idle processors,
        // so they do not serialize the computation the way charging them
        // to the recorded mutator strand would. Wall-clock measurements
        // still include the full collection cost.)
        let survivors = (out.copied_bytes + out.retained_entangled_bytes) as usize;
        self.lgc_budget = rt.config().policy.lgc_trigger_bytes.max(2 * survivors);
        self.alloc_cache = std::array::from_fn(|_| None);
        self.block_cache = [None, None, None, None];
        self.debug_assert_flushed();
    }

    /// **Finish**: the task is over — normal return or any unwind
    /// (`panic!`, `AllocError`, `Cancelled`); [`Drop`] is the one caller.
    /// Publishes everything buffered (an ancestor may resume and collect
    /// a heap the buffered remembered-set entries point into), hands the
    /// collection debt back to the session, and pauses the slot again
    /// (nobody polls it until the forker resumes or the next request
    /// enters — a running slot would stall the snapshot handshake;
    /// pausing flushes its SATB buffer). The frame was popped before
    /// this, by whoever caught the task's outcome.
    fn finish(&mut self) {
        self.flush_work();
        self.flush_remset();
        if let Some(s) = self.session {
            // Even after a shed request: the garbage is still there.
            s.alloc_debt.store(self.alloc_since, Ordering::Relaxed);
            s.lgc_budget.store(self.lgc_budget, Ordering::Relaxed);
        }
        self.rt.cgc_state().enter_safe(&self.slot.satb);
        self.debug_assert_flushed();
    }

    /// Boundary conformance: nothing buffered survives a boundary.
    fn debug_assert_flushed(&self) {
        debug_assert!(self.remset_buf.is_empty() && self.remset_seen.is_empty());
        debug_assert_eq!(self.pending, PendingStats::default());
    }

    fn safe_window(&self) -> SafeWindow<'rt> {
        let st = self.rt.cgc_state();
        st.enter_safe(&self.slot.satb);
        SafeWindow {
            st,
            slot: Arc::clone(&self.slot),
        }
    }

    fn flush_work(&mut self) {
        if let Some(dag) = &self.dag {
            if self.work > 0 {
                dag.add_work(self.strand, self.work);
            }
        }
        self.work = 0;
        self.flush_stats();
    }

    fn flush_stats(&mut self) {
        // Tenant accounting rides the same batch the global gauge uses.
        if let Some(budget) = &self.budget {
            budget.charge(self.pending.alloc_bytes as usize);
        }
        self.rt.store().stats().add_pending(&mut self.pending);
    }

    /// SATB deletion/pin log: records a pointer that must survive the
    /// current snapshot into the slot's shard (no-op unless marking).
    #[inline]
    pub(crate) fn log_satb(&self, r: ObjRef) {
        self.rt.cgc_state().satb_log_shard(&self.slot.satb, r);
    }

    /// Buffers a down-pointer remembered-set entry targeting `dst_heap`
    /// (a heap on this task's own path), deduplicating repeated writes
    /// of the same field. Publication happens at the next boundary, or
    /// here on capacity (which only bounds memory — publishing early is
    /// always sound).
    pub(crate) fn buffer_remset(&mut self, dst_heap: u32, entry: RemsetEntry) {
        if self.remset_seen.insert((dst_heap, entry.src, entry.field)) {
            self.remset_buf.push((dst_heap, entry));
            self.pending.remset_buffered += 1;
            if self.remset_buf.len() >= REMSET_BUFFER_CAP {
                self.flush_remset();
            }
        } else {
            self.pending.remset_dedup_hits += 1;
        }
    }

    /// Publishes the buffered remembered-set entries into their owning
    /// heaps (batched per destination: one heap-table acquisition and
    /// one remset lock per destination heap, instead of one of each per
    /// down-pointer write).
    ///
    /// Why flushing at suspend / collect_local / finish suffices: the
    /// write barrier only buffers an entry when both the source and the
    /// (deeper) target are **local** to this task, so every buffered
    /// entry targets a heap on this task's own root-to-leaf path. The
    /// collector that consumes a heap's remembered set is the LGC of
    /// that heap, which can only be run by the task whose path ends
    /// there — this task itself (`collect_local`), or an ancestor, and
    /// the tasks owning this task's ancestor heaps are suspended at
    /// their forks until this task has finished (`finish`) or is itself
    /// suspended below a published buffer (`suspend`).
    ///
    /// The dedup set is cleared here: a collection rebuilds remembered
    /// sets keeping only still-valid entries, so a field written again
    /// after a flush must be re-insertable.
    fn flush_remset(&mut self) {
        self.remset_seen.clear();
        if self.remset_buf.is_empty() {
            return;
        }
        let _span = mpl_obs::span_guard(mpl_obs::Metric::RemsetFlush);
        let mut buf = std::mem::take(&mut self.remset_buf);
        // Group by destination heap so each heap's lock is taken once.
        buf.sort_unstable_by_key(|(dst, _)| *dst);
        let store = self.rt.store();
        for group in buf.chunk_by(|a, b| a.0 == b.0) {
            let entries: Vec<RemsetEntry> = group.iter().map(|(_, e)| *e).collect();
            store.remember(group[0].0, &entries);
        }
        buf.clear();
        self.remset_buf = buf;
    }
}

impl Drop for TaskCtx<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Mutator<'_> {
    /// Publishes the task-buffered counters to the global
    /// [`mpl_heap::StoreStats`] now, instead of at the next boundary.
    /// Experiment harnesses call this before sampling
    /// [`Runtime::stats`] so per-tier deltas are exact.
    pub fn sync_stats(&mut self) {
        self.ctx.flush_stats();
    }

    /// Forces a local collection now (tests and experiments). `extra`
    /// values are treated as roots and updated.
    pub fn force_lgc(&mut self, extra: &mut [Value]) {
        self.ctx.collect_local(extra);
    }
}
