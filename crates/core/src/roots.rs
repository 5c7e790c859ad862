//! Mutator slots — a lock-free root stack plus a SATB shard — and the
//! registry that publishes them to the concurrent collector.
//!
//! A [`MutatorSlot`] is what the collectors see of one *thread of
//! execution*: a persistent tenant session, an anonymous run, or a fork
//! branch the scheduler migrated to another worker. [`RootRegistry::open`]
//! is the one constructor, and exactly those three call it; tasks do not
//! own slots, they *borrow* one. A root task runs on its session's or
//! run's slot; an un-migrated fork branch runs on its forker's, above a
//! frame base it records on entry (`TaskCtx::enter`), so a slot's
//! [`RootStack`] holds the frames of every task currently nested on it.
//!
//! # One OS thread per slot, frames nest LIFO
//!
//! A slot is created by the thread that starts the run or executes the
//! stolen job, and a task borrows its forker's slot only when the
//! scheduler reports it un-migrated — when it runs *directly inside* its
//! forker's `join` frame on the same native stack (`mpl_sched`'s
//! `migrated` flag; a job popped by a deeper join of the same worker
//! counts as migrated). So all pushes and truncations of one stack come
//! from one thread, every task's frame sits directly on its suspended
//! forker's, and a task finishes (popping its frame) before its forker
//! resumes. Other threads touch a slot only while it is paused: a later
//! request of the same session, or the join closing a migrated branch's
//! slot, both ordered after the pause by the hand-off itself.
//!
//! # The stack
//!
//! The set of object references rooted via
//! [`crate::mutator::Mutator::root`] used to be an
//! `Arc<Mutex<Vec<ObjRef>>>`, which put a lock acquisition on every root
//! push/pop and every handle dereference — pure mutator-side overhead,
//! since the only concurrent readers (the concurrent collector's root
//! scan, and descendants reading a suspended ancestor's handles) never
//! need mutual exclusion, only a consistent prefix.
//!
//! A `RootStack` is a segmented stack of `AtomicU64` slots (packed
//! [`ObjRef`]s) with a published length:
//!
//! * **Segments** double in size (32, 64, 128, …) and are allocated
//!   lazily by the owner behind `OnceLock`s, so a slot's address never
//!   changes once written — growing the stack never moves earlier
//!   entries, which is what lets readers run without locks.
//! * **Owner-only structure mutation**: only the task running on the
//!   slot pushes, truncates, or allocates segments. A push writes first,
//!   then publishes it with a `Release` store of `len`.
//! * **Readers** (`iter_snapshot`, `Handle` dereferences from
//!   descendants, the CGC root assembly) take an `Acquire` load of `len`
//!   and read slots atomically. They observe a consistent prefix of the
//!   stack: every slot below the observed length was fully written
//!   before the length was published.
//! * **Slot updates** (`set`) are single atomic stores, used by
//!   `set_root` and by the local collector's post-evacuation writeback.
//!   A concurrent reader sees either the old or the new reference; both
//!   denote the same object (the old location forwards to the new one),
//!   so either is a sound root.
//!
//! The result: rooting, handle reads, and root-stack publication to
//! collectors are all lock-free and `Arc`-clone-free on the access path
//! (the one `Arc` clone happens at `root()` when the handle is created).

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use mpl_gc::{CgcState, SatbShard};
use mpl_heap::ObjRef;
use parking_lot::Mutex;

/// Slots in the first segment; segment `k` holds `SEG0 << k` slots.
const SEG0: usize = 32;
const SEG0_BITS: u32 = SEG0.trailing_zeros();
/// Number of doubling segments: capacity `SEG0 << (NSEGS - 1)` slots
/// total (2^30 roots), far beyond any real program's live root count.
const NSEGS: usize = 26;

fn pack(r: ObjRef) -> u64 {
    (u64::from(r.block()) << 32) | u64::from(r.word())
}

fn unpack(bits: u64) -> ObjRef {
    ObjRef::new((bits >> 32) as u32, bits as u32)
}

/// Maps a slot index to its (segment, offset) pair.
fn locate(i: usize) -> (usize, usize) {
    let p = i + SEG0;
    let hibit = usize::BITS - 1 - p.leading_zeros();
    let seg = (hibit - SEG0_BITS) as usize;
    (seg, p ^ (1usize << hibit))
}

/// A lock-free, owner-mutated, concurrently-readable stack of rooted
/// object references. See the module docs for the protocol.
pub(crate) struct RootStack {
    len: AtomicUsize,
    segs: [OnceLock<Box<[AtomicU64]>>; NSEGS],
}

impl RootStack {
    fn new() -> RootStack {
        RootStack {
            len: AtomicUsize::new(0),
            segs: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    fn slot(&self, i: usize) -> &AtomicU64 {
        let (seg, off) = locate(i);
        let seg = self.segs[seg]
            .get()
            .expect("root-stack slot read below len must be allocated");
        &seg[off]
    }

    /// Current length. `Acquire`: every slot below it is initialized.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Pushes a root and returns its slot index. Owner-only.
    pub(crate) fn push(&self, r: ObjRef) -> usize {
        let i = self.len.load(Ordering::Relaxed);
        let (seg, off) = locate(i);
        assert!(seg < NSEGS, "root stack overflow ({i} live roots)");
        let segment =
            self.segs[seg].get_or_init(|| (0..(SEG0 << seg)).map(|_| AtomicU64::new(0)).collect());
        segment[off].store(pack(r), Ordering::Relaxed);
        // Publish: readers that observe the new length also observe the
        // slot write above.
        self.len.store(i + 1, Ordering::Release);
        i
    }

    /// Reads slot `i`. Sound from any thread for `i < len()`: the slot
    /// holds either the value published at push time or a later `set` —
    /// both valid (possibly forwarding-stale) references.
    pub(crate) fn get(&self, i: usize) -> ObjRef {
        unpack(self.slot(i).load(Ordering::Relaxed))
    }

    /// Overwrites slot `i` atomically. Used by `set_root` (possibly from
    /// a descendant task while the owner is suspended at its fork) and
    /// by the local collector's root writeback.
    pub(crate) fn set(&self, i: usize, r: ObjRef) {
        self.slot(i).store(pack(r), Ordering::Relaxed);
    }

    /// Drops every root at index `>= new_len`. Owner-only. Stale slot
    /// contents above the new length are left in place; they are never
    /// read again except by a racing reader that loaded the old length,
    /// for which the old values are still sound (conservative) roots.
    pub(crate) fn truncate(&self, new_len: usize) {
        debug_assert!(new_len <= self.len.load(Ordering::Relaxed));
        self.len.store(new_len, Ordering::Release);
    }

    /// Ends the frame that starts at `base`: drops its roots, keeping one
    /// slot for `keep` (a branch's result, which must stay rooted until
    /// the join pops it). Owner-only. The kept root goes on top first and
    /// is copied down before the length shrinks, so no reader finds the
    /// stack without it.
    pub(crate) fn pop_frame(&self, base: usize, keep: Option<ObjRef>) {
        if let Some(r) = keep {
            self.push(r);
            self.set(base, r);
        }
        self.truncate(base + usize::from(keep.is_some()));
    }

    /// Copies out the roots from index `from` up. Lock-free; concurrent
    /// `set`s may interleave, which is sound for collector root scans
    /// (every observed value denotes a live object).
    pub(crate) fn snapshot(&self, from: usize) -> Vec<ObjRef> {
        (from..self.len()).map(|i| self.get(i)).collect()
    }
}

impl fmt::Debug for RootStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RootStack")
            .field("len", &self.len())
            .finish()
    }
}

/// What the collectors see of one thread of execution (module docs): the
/// root stack the concurrent collector scans and the SATB shard its
/// snapshot handshake waits on, registered and withdrawn together. A
/// registered slot rests *paused* (the shard's safe depth is 1): a task
/// entering on it resumes it, and pauses it again when it finishes.
#[derive(Debug)]
pub(crate) struct MutatorSlot {
    pub(crate) roots: RootStack,
    pub(crate) satb: Arc<SatbShard>,
    closed: AtomicBool,
}

impl MutatorSlot {
    /// True once [`RootRegistry::close`] withdrew the slot: nothing
    /// rooted on it is scanned any more, so nothing may run on it.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

/// The concurrent collector's root set: every open slot's root stack.
/// The mutex guards only the small vector — taken when a run starts or
/// ends, a branch is stolen or joined, a session is created or retired,
/// never at an un-migrated task's enter or finish; the stacks themselves
/// are lock-free and read in place by the collector's root scan.
#[derive(Debug, Default)]
pub(crate) struct RootRegistry {
    stacks: Mutex<Vec<Arc<MutatorSlot>>>,
}

impl RootRegistry {
    /// Opens a slot: a fresh root stack and a fresh SATB shard, both
    /// registered, paused.
    pub(crate) fn open(&self, cgc: &CgcState) -> Arc<MutatorSlot> {
        let slot = Arc::new(MutatorSlot {
            roots: RootStack::new(),
            satb: cgc.register_shard(),
            closed: AtomicBool::new(false),
        });
        self.stacks.lock().push(Arc::clone(&slot));
        slot
    }

    /// Closes a paused slot: withdraws its stack from the root set and
    /// its shard from the handshake (draining the shard's buffer).
    /// Whatever it still roots — a migrated branch's result — is the
    /// caller's to keep alive from here. Closing twice is harmless.
    pub(crate) fn close(&self, cgc: &CgcState, slot: &Arc<MutatorSlot>) {
        slot.closed.store(true, Ordering::Release);
        cgc.deregister_shard(&slot.satb);
        self.stacks.lock().retain(|x| !Arc::ptr_eq(x, slot));
    }

    pub(crate) fn live_stacks(&self) -> usize {
        self.stacks.lock().len()
    }

    /// The root set: the contents of every registered stack, one vec
    /// each (the collector chunks them into grey packets, so root
    /// scanning itself fans out across workers).
    ///
    /// Lock-free with respect to the mutators: each stack is snapshot by
    /// atomic slot reads ([`RootStack::snapshot`]) while its owner
    /// keeps pushing — only the small registry mutex is held. A stale
    /// beyond-`len` slot resolves safely because retired blocks are
    /// graveyard-held until quiescence. Invoked by the collector *after*
    /// the snapshot handshake, which is what makes the per-stack
    /// snapshots sound against a mutator moving a value between a shared
    /// slot and its own stack at the snapshot boundary: post-handshake,
    /// every mutator's SATB logging is observably on, so any value that
    /// leaves a scanned location is logged.
    pub(crate) fn packets(&self) -> Vec<Vec<ObjRef>> {
        let stacks = self.stacks.lock();
        stacks.iter().map(|s| s.roots.snapshot(0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_addressing_is_dense_and_doubling() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(SEG0 - 1), (0, SEG0 - 1));
        assert_eq!(locate(SEG0), (1, 0));
        assert_eq!(locate(3 * SEG0 - 1), (1, 2 * SEG0 - 1));
        assert_eq!(locate(3 * SEG0), (2, 0));
        // Every index maps to a unique (seg, off) within bounds.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            let (seg, off) = locate(i);
            assert!(off < SEG0 << seg, "offset in bounds at {i}");
            assert!(seen.insert((seg, off)), "unique at {i}");
        }
    }

    #[test]
    fn push_get_set_truncate() {
        let s = RootStack::new();
        for i in 0..1000u32 {
            let idx = s.push(ObjRef::new(i, i + 1));
            assert_eq!(idx as u32, i);
        }
        assert_eq!(s.len(), 1000);
        assert_eq!(s.get(999), ObjRef::new(999, 1000));
        s.set(0, ObjRef::new(7, 9));
        assert_eq!(s.get(0), ObjRef::new(7, 9));
        s.truncate(10);
        assert_eq!(s.len(), 10);
        let snap = s.snapshot(0);
        assert_eq!(snap.len(), 10);
        assert_eq!(snap[3], ObjRef::new(3, 4));
        assert_eq!(s.snapshot(7), [7, 8, 9].map(|i| ObjRef::new(i, i + 1)));
        // Ending a frame keeps its result, wherever the frame stood.
        s.pop_frame(4, Some(ObjRef::new(70, 71)));
        assert_eq!(s.snapshot(3), [ObjRef::new(3, 4), ObjRef::new(70, 71)]);
        s.pop_frame(5, Some(ObjRef::new(80, 81))); // an empty frame
        assert_eq!(s.snapshot(4), [ObjRef::new(70, 71), ObjRef::new(80, 81)]);
        s.pop_frame(4, None);
        assert_eq!(s.len(), 4);
        for i in 4..10 {
            s.push(ObjRef::new(i, i + 1));
        }
        // Push after truncate reuses slots.
        s.push(ObjRef::new(42, 42));
        assert_eq!(s.get(10), ObjRef::new(42, 42));
    }

    #[test]
    fn packing_roundtrips_extreme_refs() {
        for r in [
            ObjRef::new(0, 0),
            ObjRef::new(1, 0),
            ObjRef::new(0x7FFF_FFFF, 0x7FFF_FFFF),
        ] {
            assert_eq!(unpack(pack(r)), r);
        }
    }

    #[test]
    fn concurrent_readers_see_consistent_prefixes() {
        let s = Arc::new(RootStack::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let n = s.len();
                        for i in 0..n {
                            let r = s.get(i);
                            // Writer pushes ObjRef::new(i, i+1): a reader
                            // below the published length must never see
                            // an uninitialized slot.
                            assert_eq!(r.block() + 1, r.word(), "slot {i} of {n}");
                        }
                    }
                })
            })
            .collect();
        for i in 0..50_000u32 {
            s.push(ObjRef::new(i, i + 1));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(s.len(), 50_000);
    }
}
