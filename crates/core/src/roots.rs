//! Lock-free task root stacks, and the registry that publishes them to
//! the concurrent collector.
//!
//! Every task owns a [`RootStack`]: the set of object references it has
//! rooted via [`crate::mutator::Mutator::root`]. The stack used to be an
//! `Arc<Mutex<Vec<ObjRef>>>`, which put a lock acquisition on every root
//! push/pop and every handle dereference — pure mutator-side overhead,
//! since the only concurrent readers (the concurrent collector's root
//! scan, and descendants reading a suspended parent's handles) never
//! need mutual exclusion, only a consistent prefix.
//!
//! # Design
//!
//! A `RootStack` is a segmented stack of `AtomicU64` slots (packed
//! [`ObjRef`]s) with a published length:
//!
//! * **Segments** double in size (32, 64, 128, …) and are allocated
//!   lazily by the owner behind `OnceLock`s, so a slot's address never
//!   changes once written — growing the stack never moves earlier
//!   entries, which is what lets readers run without locks.
//! * **Owner-only structure mutation**: only the owning task pushes,
//!   truncates, or allocates segments. A push writes the slot first,
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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use mpl_heap::{ObjRef, Value};
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
    pub(crate) fn new() -> RootStack {
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

    /// Copies the current contents into `out`. Lock-free; concurrent
    /// `set`s may interleave, which is sound for collector root scans
    /// (every observed value denotes a live object).
    pub(crate) fn extend_snapshot(&self, out: &mut Vec<ObjRef>) {
        let n = self.len();
        out.reserve(n);
        for i in 0..n {
            out.push(self.get(i));
        }
    }
}

impl fmt::Debug for RootStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RootStack")
            .field("len", &self.len())
            .finish()
    }
}

/// The concurrent collector's root set: every live task's (and every
/// persistent session's) root stack, plus branch results parked between
/// a branch's completion and its parent's join. The mutexes guard only
/// the two small vectors — registration at task enter/finish, parking at
/// branch end/join; the stacks themselves are lock-free and read in place
/// by the collector's root scan.
#[derive(Debug, Default)]
pub(crate) struct RootRegistry {
    stacks: Mutex<Vec<Arc<RootStack>>>,
    parked: Mutex<Vec<Option<ObjRef>>>,
}

impl RootRegistry {
    pub(crate) fn register(&self, s: &Arc<RootStack>) {
        self.stacks.lock().push(Arc::clone(s));
    }

    pub(crate) fn unregister(&self, s: &Arc<RootStack>) {
        let mut stacks = self.stacks.lock();
        if let Some(pos) = stacks.iter().position(|x| Arc::ptr_eq(x, s)) {
            stacks.swap_remove(pos);
        }
    }

    /// Parks a branch result so the concurrent collector sees it between a
    /// branch's completion and the parent's join. Returns a slot index.
    pub(crate) fn park(&self, v: Value) -> Option<usize> {
        let r = v.as_obj()?;
        let mut parked = self.parked.lock();
        if let Some(idx) = parked.iter().position(|p| p.is_none()) {
            parked[idx] = Some(r);
            Some(idx)
        } else {
            parked.push(Some(r));
            Some(parked.len() - 1)
        }
    }

    pub(crate) fn unpark(&self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.parked.lock()[idx] = None;
        }
    }

    pub(crate) fn live_stacks(&self) -> usize {
        self.stacks.lock().len()
    }

    pub(crate) fn parked(&self) -> usize {
        self.parked.lock().iter().flatten().count()
    }

    /// The root set, packetized: one `ScanRoots` packet per registered
    /// stack (parked branch results ride as one more), seeding the
    /// collector's grey queue so root scanning itself fans out across
    /// workers.
    ///
    /// Lock-free with respect to the mutators: each stack is snapshot by
    /// atomic slot reads ([`RootStack::extend_snapshot`]) while its owner
    /// keeps pushing — only the small registry mutex is held. A stale
    /// beyond-`len` slot resolves safely because retired blocks are
    /// graveyard-held until quiescence. Invoked by the collector *after*
    /// the snapshot handshake, which is what makes the per-stack
    /// snapshots sound against a mutator moving a value between a shared
    /// slot and its own stack at the snapshot boundary: post-handshake,
    /// every mutator's SATB logging is observably on, so any value that
    /// leaves a scanned location is logged.
    pub(crate) fn packets(&self) -> Vec<Vec<ObjRef>> {
        let mut packets: Vec<Vec<ObjRef>> = Vec::new();
        for s in self.stacks.lock().iter() {
            let mut p = Vec::new();
            s.extend_snapshot(&mut p);
            if !p.is_empty() {
                packets.push(p);
            }
        }
        let parked: Vec<ObjRef> = self.parked.lock().iter().flatten().copied().collect();
        if !parked.is_empty() {
            packets.push(parked);
        }
        packets
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
        let mut snap = Vec::new();
        s.extend_snapshot(&mut snap);
        assert_eq!(snap.len(), 10);
        assert_eq!(snap[3], ObjRef::new(3, 4));
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
