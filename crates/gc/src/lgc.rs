//! LGC — the local, moving collector.
//!
//! A task collects its own (leaf) heap at a safepoint, with **no
//! synchronization with other tasks**: this is the property that makes the
//! hierarchical design fast for disentangled programs. Soundness under
//! concurrency rests on two facts:
//!
//! 1. Other tasks can only reference this heap's objects through the
//!    entangled region — every remote pointer acquisition goes through a
//!    barrier that pins its target, and everything reachable from a pinned
//!    object is transferred to the heap's non-moving *entangled space*
//!    before anything else is evacuated.
//! 2. Down-pointers from ancestor heaps are recorded in the remembered
//!    set; their sources belong to suspended ancestors, so repairing them
//!    with a CAS cannot lose a racing update from the owner. Mutators
//!    buffer these records privately and flush them at fork/join/GC
//!    safepoints (see `mpl-runtime`'s mutator module); a task flushes its
//!    own buffer before collecting, and entries destined for a heap only
//!    ever come from tasks below it — which are joined (flushed) before
//!    the heap's owner runs again — so the remembered set a collection
//!    reads here is always complete for the collected heap.
//!
//! The algorithm is a sequence of phases over one `Lgc` value:
//!
//! * **Phase A (shield)** — compute the transitive closure of the heap's
//!   pinned objects (through *all* fields, conservatively, because remote
//!   readers traverse immutable edges barrier-free, and **through foreign
//!   heaps**: a sibling that read a pointer out of a pinned object's
//!   closure may have stored it in an object of its own heap, so a path
//!   from a pinned root can hop across the boundary and come back) and
//!   tag its in-heap members `entangled_space`: non-moving, retained,
//!   swept later by the CGC. The closure is one fixpoint, `Lgc::shield`:
//!   sweep the shield stack, drain the heap's entangled index, push the
//!   pins the closure lacks, and repeat until a drain brings none.
//! * **Phase B (evacuate)** — Cheney-style copy of everything reachable
//!   from the task's roots and the remembered set into fresh size-class
//!   blocks, leaving forwarding words behind; those words are the only
//!   record of what was copied. Shielded objects are kept in place and act
//!   as boundaries (their subgraph is already retained). An object a
//!   remote reader pins mid-evacuation wins the claim CAS against the
//!   copy: it stays in place and goes onto the shield stack. Evacuation
//!   ends with the same `shield()` fixpoint — the *re-take* — which sweeps
//!   those raced pins and every pin registered since Phase A.
//! * **Phase C (reclaim)** — from-space blocks that contain entangled
//!   objects are retained (and flagged for the CGC); the rest are handed
//!   back to the caller **wholesale** (`LgcOutcome::dead_blocks`) — no
//!   per-object walk is needed to give up a block, only the retained
//!   (entangled) minority is walked to dead-mark unshielded garbage. The
//!   collection frees nothing itself: a concurrent reader may still be
//!   about to chase a forwarding word in a dead block, so the runtime
//!   retires them once the task's roots are written back and frees them
//!   when every holder has moved past (`crate::graveyard`).
//!
//! **The collection resolves its own blocks itself.** `Lgc::new` takes
//! the heap's live blocks (from-space) into a collection-local
//! `BlockTable`, and every to-space block joins it as it is registered,
//! so copying an object, forwarding a field, following a forwarding word
//! and testing from-space membership cost one hash probe — no
//! process-wide lock, no `Arc` traffic. The global registry is consulted
//! only for blocks that are not this collection's: foreign objects the
//! shield passes through, and remembered-set sources (once per run of
//! entries from the same block). `LgcOutcome::registry_lookups` counts
//! exactly those. The one thing the table cannot know is a from-space
//! block freed under the collection — the CGC sweep reclaims retained
//! blocks whose every object it proved unreachable, pinned garbage
//! included, concurrently with the owner's collection — so a from-space
//! block is live only while the registry's lock-free owner index
//! (`BlockRegistry::is_live`) holds an owner for it, and a freed one
//! reads as gone everywhere, exactly as a registry miss did.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use mpl_heap::events::{self, EventKind, DEAD_BY_ABANDON, DEAD_BY_LGC};
use mpl_heap::{
    size_class, Block, Counter, HeapInfo, ObjRef, Region, RemsetEntry, Store, Value,
    NUM_SIZE_CLASSES, OBJECT_HEADER_WORDS,
};

use crate::check::{Phase, Shield};

/// Statistics from one local collection, and the blocks it emptied.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LgcOutcome {
    /// Bytes copied to to-space.
    pub copied_bytes: u64,
    /// Garbage bytes reclaimed (logically freed).
    pub reclaimed_bytes: u64,
    /// Live bytes retained in place in the entangled space.
    pub retained_entangled_bytes: u64,
    /// The from-space blocks left with nothing live in them, for the
    /// caller to free once no reader can reach them (see
    /// `crate::CgcState::retire`).
    pub dead_blocks: Vec<u32>,
    /// Number of from-space blocks retained for the CGC.
    pub retained_blocks: usize,
    /// Number of objects evacuated.
    pub copied_objects: usize,
    /// Times the collection fell back to the global block registry: one
    /// per foreign block the shield read or resolved through, per run of
    /// remembered-set entries from one source block, and per evacuated
    /// remembered-set source. Nothing per copied object.
    pub registry_lookups: usize,
}

/// A multiply-shift hasher for the collection's id-keyed tables: block
/// ids and object locations are dense integers, not adversarial input,
/// so SipHash's cost buys nothing here.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table picks buckets by the low bits: hand it the product's
        // well-mixed high half there.
        self.0.rotate_left(32)
    }
}

/// A set keyed through [`IdHasher`] (the shield closure's type).
pub type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

/// The blocks one collection owns: from-space — the heap's live blocks
/// when the collection began, slots `0..from_len` — then every to-space
/// block in registration order.
#[derive(Default)]
struct BlockTable {
    blocks: Vec<Arc<Block>>,
    slots: HashMap<u32, usize, BuildHasherDefault<IdHasher>>,
    from_len: usize,
}

impl BlockTable {
    /// Adds `block`; returns its slot.
    fn insert(&mut self, block: Arc<Block>) -> usize {
        let slot = self.blocks.len();
        self.slots.insert(block.id(), slot);
        self.blocks.push(block);
        slot
    }

    #[inline]
    fn slot(&self, id: u32) -> Option<usize> {
        self.slots.get(&id).copied()
    }

    /// The from-space slot of block `id`, if it is one.
    #[inline]
    fn fromspace_slot(&self, id: u32) -> Option<usize> {
        self.slot(id).filter(|&i| i < self.from_len)
    }
}

/// To-space: bump regions owned by the collection — one per size class,
/// plus the dedicated block of the last oversized copy — each block added
/// to the block table as it is registered. The class regions' blocks
/// become the heap's allocation blocks when the cycle installs them.
struct ToSpace<'s> {
    store: &'s Store,
    heap: u32,
    /// Each class's current region, with its block's table slot.
    current: [Option<(usize, Region)>; NUM_SIZE_CLASSES],
    big: Option<(usize, Region)>,
}

impl ToSpace<'_> {
    fn register(&self, table: &mut BlockTable, capacity: usize, class: usize) -> (usize, Region) {
        let block = self.store.blocks().register(self.heap, capacity, class);
        (table.insert(Arc::clone(&block)), Region::adopt(block))
    }

    /// Reserves room for a copy of `nwords` inline words: the table slot
    /// of its block, the region to write it through, and its offset.
    fn reserve(&mut self, table: &mut BlockTable, nwords: usize) -> (usize, &mut Region, u32) {
        let block_words = self.store.config().block_words;
        let cur = if nwords > block_words {
            let fresh = self.register(table, nwords, NUM_SIZE_CLASSES - 1);
            if let Some((_, done)) = self.big.replace(fresh) {
                done.retire();
            }
            self.big.as_mut()
        } else {
            let class = size_class(nwords);
            if self.current[class]
                .as_ref()
                .is_none_or(|(_, region)| region.room() < nwords)
            {
                let fresh = self.register(table, block_words, class);
                if let Some((_, full)) = self.current[class].replace(fresh) {
                    full.retire();
                }
            }
            self.current[class].as_mut()
        };
        let (slot, region) = cur.expect("a region was just installed");
        let off = region
            .reserve(nwords)
            .expect("a fresh region fits its copy");
        (*slot, region, off)
    }

    /// Settles every region into its block's cursor and live bytes.
    fn settle(&mut self) {
        let regions = self.current.iter_mut().flatten().chain(&mut self.big);
        for (_, region) in regions {
            region.settle();
        }
    }
}

/// Runs a local collection of `heap`.
///
/// `roots` is the owning task's shadow stack (plus any values it holds
/// across the collection, e.g. a pending result); entries are updated in
/// place to the objects' new locations. The evacuated from-space blocks
/// come back in [`LgcOutcome::dead_blocks`], still registered: their
/// forwarding words are what a reader holding a pre-collection pointer
/// resolves through, so the caller frees them — at once when nothing else
/// runs, through [`crate::CgcState::retire`] otherwise.
///
/// # Panics
///
/// Panics on heap corruption (dangling references outside the collected
/// heap's own blocks).
pub fn collect_local(store: &Store, heap: u32, roots: &mut [ObjRef]) -> LgcOutcome {
    // The whole call is the stop-the-task pause: timed here (not at call
    // sites) so allocation-triggered and forced collections are equally
    // covered. Phase spans are telemetry-gated; the pause counter is
    // always on (two clock reads per collection, noise next to the
    // collection itself).
    let pause_begin = std::time::Instant::now();
    let span_pause = mpl_obs::span_start();
    let span_phase = mpl_obs::span_start();
    let mut lgc = Lgc::new(store, heap);
    let h = lgc.h;

    // ---- Phase A: shield the entangled region --------------------------
    let mut stall = crate::stall::enter(crate::stall::LGC_SHIELD);
    lgc.shield();
    mpl_fail::hit_hard("lgc/shield");
    crate::audit::audit(
        store,
        Phase::LgcShield(Shield {
            heap: h,
            closure: &lgc.closure,
        }),
    );
    mpl_obs::span_close(mpl_obs::Metric::LgcShield, span_phase);
    let span_phase = mpl_obs::span_start();
    crate::stall::exit(stall);
    stall = crate::stall::enter(crate::stall::LGC_EVACUATE);

    // ---- Phase B: evacuate, then re-take the shield --------------------
    lgc.evacuate(roots);
    // The re-take: a pin can land at ANY point during the collection — a
    // sibling's acquisition barrier fires on objects this collection may
    // never trace (e.g. a former bucket head now reachable only through
    // the sibling's own object after it CAS'd a shared slot). A pinned
    // untraced object is spared individually by `try_kill`'s CAS, but its
    // *referents* would be dead-marked while the reader can still walk to
    // them; so the fixpoint runs again, from the pins evacuation raced.
    //
    // Soundness of stopping at a drain that brings nothing new: every
    // cross-heap acquisition pins and registers its target *before* the
    // reference escapes to the remote task (read barrier, write barrier,
    // and allocation barrier all pin first), and a new pin is indexed
    // before its header shows it (`Store::try_pin`), so a second reader
    // that finds the object pinned and passes it on cannot outrun the
    // index either. Any object a reader can possibly hold by the time
    // Phase C's kills run is therefore registered with this heap's index
    // by the time the final drain observes it empty of news. The
    // object-level pin CAS in `try_kill` covers the residual
    // window for freshly pinned objects themselves, and such objects'
    // referents are necessarily already in the closure (their reference
    // escaped through an earlier registered pin).
    mpl_fail::hit_hard("lgc/retake");
    lgc.shield();
    mpl_fail::hit_hard("lgc/evacuate");
    crate::audit::audit(
        store,
        Phase::LgcEvacuate(Shield {
            heap: h,
            closure: &lgc.closure,
        }),
    );
    mpl_obs::span_close(mpl_obs::Metric::LgcEvacuate, span_phase);
    let span_phase = mpl_obs::span_start();
    crate::stall::exit(stall);
    stall = crate::stall::enter(crate::stall::LGC_RECLAIM);

    // ---- Phase C: reclaim ------------------------------------------------
    lgc.reclaim();
    // Phase-boundary audit (formerly an ad-hoc MPL_DEBUG_LGC_VALIDATE
    // dangling-field scan printed to stderr): the reclaim-class audit
    // re-validates the shield, cross-checks reachability against dead
    // marks, scans for dangling fields, and fails loudly with the event
    // trace if anything is off. Enabled by the same environment flag or
    // `RuntimeConfig::with_audit`.
    mpl_fail::hit_hard("lgc/reclaim");
    crate::audit::audit(
        store,
        Phase::LgcReclaim(Shield {
            heap: h,
            closure: &lgc.closure,
        }),
    );
    mpl_obs::span_close(mpl_obs::Metric::LgcReclaim, span_phase);
    crate::stall::exit(stall);
    store
        .stats()
        .on_lgc_pause(pause_begin.elapsed().as_nanos() as u64);
    // `on_lgc_pause` already fed the pause histogram; record the timeline
    // span only.
    mpl_obs::span_only(mpl_obs::Metric::LgcPause, span_pause);
    lgc.out
}

/// One local collection of one heap: the state its phases share.
struct Lgc<'s> {
    store: &'s Store,
    /// The collected heap (canonical id) and its node.
    h: u32,
    info: &'s HeapInfo,
    /// From-space and to-space, and from-space's live bytes when the
    /// collection began.
    table: BlockTable,
    from_live: u64,
    tospace: ToSpace<'s>,
    /// Evacuated copies whose fields are not yet forwarded.
    scan: Vec<ObjRef>,
    /// This cycle's shield: the in-heap objects reachable from a pin,
    /// kept in place and spared from dead-marking. Only THIS cycle's
    /// closure is non-moving: a stale `entangled_space` bit from an
    /// earlier cycle (whose pin has since been released at a join) must
    /// not exempt an object from evacuation — its block is about to be
    /// freed.
    closure: IdSet<ObjRef>,
    /// Objects outside from-space the shield has passed through; they are
    /// traversed but never tagged or retained.
    foreign_seen: IdSet<ObjRef>,
    /// Per from-space slot: the block holds a closure member.
    retained: Vec<bool>,
    /// Shield members whose fields are not yet swept.
    shield: Vec<ObjRef>,
    /// Fallbacks to the global registry so far (`registry_lookups`); a
    /// cell, so lookups can count through `&self`.
    lookups: Cell<usize>,
    /// What evacuation is tracing, for corruption reports.
    phase: &'static str,
    out: LgcOutcome,
}

impl<'s> Lgc<'s> {
    fn new(store: &'s Store, heap: u32) -> Lgc<'s> {
        let h = store.heaps().find(heap);
        let info = store.heaps().info(h);
        let mut table = BlockTable::default();
        for id in info.with(|s| s.blocks.clone()) {
            if let Some(block) = store.blocks().try_get(id) {
                table.insert(block);
            }
        }
        table.from_len = table.blocks.len();
        let from_live = table.blocks.iter().map(|b| b.live_bytes() as u64).sum();
        Lgc {
            store,
            h,
            info,
            retained: vec![false; table.from_len],
            table,
            from_live,
            tospace: ToSpace {
                store,
                heap: h,
                current: std::array::from_fn(|_| None),
                big: None,
            },
            scan: Vec::new(),
            closure: IdSet::default(),
            foreign_seen: IdSet::default(),
            shield: Vec::new(),
            lookups: Cell::new(0),
            phase: "init",
            out: LgcOutcome::default(),
        }
    }

    fn in_heap(&self, r: ObjRef) -> bool {
        self.table.fromspace_slot(r.block()).is_some()
    }

    /// Whether table slot `i` still holds a live block. To-space is the
    /// collection's own until it installs it; a from-space block may have
    /// been freed by the concurrent collector's sweep since the collection
    /// began, which the registry's owner index shows without its lock.
    #[inline]
    fn live(&self, i: usize) -> bool {
        i >= self.table.from_len || self.store.blocks().is_live(self.table.blocks[i].id())
    }

    /// Emits an event of `kind` about the object at `r`.
    fn note(&self, kind: EventKind, r: ObjRef, aux: u32) {
        events::emit_obj(self.store.serial(), kind, r, aux);
    }

    fn count_lookup(&self) {
        self.lookups.set(self.lookups.get() + 1);
    }

    /// Block `id` unless it was freed: from the table if it is the
    /// collection's own, else from the registry.
    fn block(&self, id: u32) -> Option<Arc<Block>> {
        match self.table.slot(id) {
            Some(i) => self.live(i).then(|| Arc::clone(&self.table.blocks[i])),
            None => {
                self.count_lookup();
                self.store.blocks().try_get(id)
            }
        }
    }

    /// [`Store::try_resolve`] through the table: follows forwarding to
    /// `r`'s current location, or `None` if the chain meets a freed block
    /// or an empty word, and gives the table slot of the block the object
    /// lives in (`None` for a foreign one, which the store resolves).
    fn locate(&self, r: ObjRef) -> Option<(ObjRef, Option<usize>)> {
        let mut cur = r;
        loop {
            let Some(i) = self.table.slot(cur.block()) else {
                self.count_lookup();
                return self.store.try_resolve(cur).map(|r| (r, None));
            };
            if !self.live(i) {
                return None;
            }
            match self.table.blocks[i].try_get(cur.word())?.forward_ref() {
                Some(next) => cur = next,
                None => return Some((cur, Some(i))),
            }
        }
    }

    /// The shield fixpoint: sweeps the stack, then drains the entangled
    /// index for pins the closure lacks, until a drain brings none.
    fn shield(&mut self) {
        loop {
            self.sweep();
            if !self.drain_pins() {
                break;
            }
        }
    }

    /// Takes the heap's entangled index, pushes the in-heap pins the
    /// closure lacks, and returns whether there were any. The pins still
    /// standing go back, each under its current level: a join only visits
    /// the buckets at or above its depth, so an entry filed below its
    /// pin's level would miss the join that ends it. An entry whose
    /// object is alive but not pinned goes back where it was filed: its
    /// pin may be about to land (`Object::try_pin` indexes a new pin
    /// before its header shows it), and the join at its level or the
    /// next drain that finds it dead drops it.
    fn drain_pins(&mut self) -> bool {
        let entries = self.info.with(|s| s.take_entangled());
        let mut kept = Vec::with_capacity(entries.len());
        let mut fresh = false;
        for (r, filed) in entries {
            // Gone: reclaimed by the concurrent collector, block and all.
            let Some((r, _)) = self.locate(r) else {
                continue;
            };
            let Some(header) = self
                .block(r.block())
                .and_then(|b| b.try_get(r.word()).map(|o| o.header()))
            else {
                continue;
            };
            if header.is_dead() {
                continue;
            }
            if !header.is_pinned() {
                kept.push((r, filed));
                continue;
            }
            kept.push((r, header.pin_level()));
            fresh |= self.in_heap(r) && self.shield_push(r);
        }
        self.info.with(|s| {
            for (r, level) in kept {
                s.add_entangled(r, level);
            }
        });
        fresh
    }

    /// Pops the shield stack to empty, pushing each traced member's live
    /// targets.
    fn sweep(&mut self) {
        while let Some(r) = self.shield.pop() {
            let Some(block) = self.block(r.block()) else {
                continue;
            };
            let Some(obj) = block.try_get(r.word()) else {
                continue;
            };
            if !obj.header().kind().is_traced() {
                continue;
            }
            let local = self.in_heap(r);
            for t in obj.field_words().filter_map(|w| w.pointer()) {
                let Some((t, _)) = self.locate(t) else {
                    continue;
                };
                if self.shield_push(t) && self.in_heap(t) != local {
                    self.note(EventKind::ShieldCross, t, r.block());
                }
            }
        }
    }

    /// Adds `r` to the shield and its stack unless it is gone, dead, or
    /// already there; returns whether it was added. An in-heap object
    /// joins the closure: tagged entangled-space, its block retained, its
    /// bytes counted. Any other object is only traversed.
    fn shield_push(&mut self, r: ObjRef) -> bool {
        let slot = self.table.fromspace_slot(r.block());
        let seen = if slot.is_some() {
            &self.closure
        } else {
            &self.foreign_seen
        };
        if seen.contains(&r) {
            return false;
        }
        // Foreign blocks can be swept (and freed) by a concurrent
        // collection elsewhere, and so can this heap's retained ones;
        // read them defensively.
        let Some(block) = self.block(r.block()) else {
            return false;
        };
        let Some(obj) = block.try_get(r.word()) else {
            return false;
        };
        if obj.header().is_dead() {
            return false;
        }
        match slot {
            Some(i) => {
                self.closure.insert(r);
                obj.set_entangled_space();
                self.note(EventKind::Entangle, r, self.h);
                self.retained[i] = true;
                self.out.retained_entangled_bytes += obj.size_bytes() as u64;
            }
            None => {
                self.foreign_seen.insert(r);
            }
        }
        self.shield.push(r);
        true
    }

    /// Phase B: copies everything reachable from `roots` and the
    /// remembered set, updating both to the new locations.
    fn evacuate(&mut self, roots: &mut [ObjRef]) {
        self.phase = "roots";
        for root in roots.iter_mut() {
            *root = self.forward(*root);
        }

        // Remembered set: down-pointers from ancestor heaps are roots, and
        // the source fields must be repaired after the move. Entries come
        // in runs from one source block (an ancestor array's elements, a
        // table's buckets), so the registry is asked once per run, and a
        // source is resolved with one header load. Each bucket keeps its
        // source depth: the join into that depth drops the entries.
        self.phase = "remset";
        let mut remset = self.info.with(|s| std::mem::take(&mut s.remset));
        let mut run = None;
        remset.retain_map(|entry| self.remset_root(entry, &mut run));
        self.info.with(|s| s.remset.append(&mut remset));

        // Transitive scan of evacuated objects, field by field in place:
        // forwarding a field may copy an object and add a to-space block
        // to the table, so the copy's view is rebuilt from its slot each
        // time instead of held.
        self.phase = "scan";
        while let Some(nr) = self.scan.pop() {
            let i = self
                .table
                .slot(nr.block())
                .expect("copies live in to-space");
            let (off, len) = (nr.word(), self.table.blocks[i].get(nr.word()).len());
            if !self.table.blocks[i]
                .view_resolved(off, len)
                .kind()
                .is_traced()
            {
                continue;
            }
            for f in 0..len {
                let copy = self.table.blocks[i].view_resolved(off, len);
                let Some(t) = copy.field_word(f).pointer() else {
                    continue;
                };
                let Some((rt, slot)) = self.locate(t) else {
                    panic!(
                        "scan: {nr} (kind {:?}, len {len}, copied into block {} owner {}) field {f} -> dangling {t}",
                        copy.kind(),
                        nr.block(),
                        copy.block().owner(),
                    );
                };
                let nt = self.forward_one(rt, slot);
                if nt != t {
                    self.table.blocks[i]
                        .view_resolved(off, len)
                        .set_field(f, Value::Obj(nt));
                }
            }
        }
    }

    /// Forwards the target of one remembered-set entry and repairs its
    /// source field; returns the entry to keep, or `None` once it is
    /// stale. `run` caches the last source block looked up.
    fn remset_root(
        &mut self,
        entry: RemsetEntry,
        run: &mut Option<(u32, Option<Arc<Block>>)>,
    ) -> Option<RemsetEntry> {
        let id = entry.src.block();
        if run.as_ref().is_none_or(|(b, _)| *b != id) {
            self.count_lookup();
            *run = Some((id, self.store.blocks().try_get(id)));
        }
        // A reclaimed source block: the entry is stale.
        let block = run.as_ref().and_then(|(_, b)| b.as_ref())?;
        let moved;
        let (src, src_obj) = match block.resolve(entry.src.word()) {
            Ok(obj) => (entry.src, obj),
            Err(_) => {
                // The source itself was evacuated since the write.
                self.count_lookup();
                let src = self.store.resolve(entry.src);
                moved = self.store.handle(src);
                (src, moved.obj())
            }
        };
        // The join into the source's heap drops the entry, and this heap
        // has no descendants while it collects: every source is in a
        // shallower heap.
        debug_assert!(
            !self.in_heap(src),
            "remembered-set source {src} sits in the collected heap {}",
            self.h
        );
        let idx = entry.field as usize;
        if src_obj.header().is_dead() || idx >= src_obj.len() {
            return None;
        }
        loop {
            let old_word = src_obj.field_word(idx);
            let t = old_word.pointer()?;
            // The raw target decides membership: a target already
            // evacuated through another path must still have its
            // source field repaired to the forwarded location, or the
            // field dangles once from-space blocks are freed.
            // A target outside this heap: the entry is stale.
            let slot = self.table.slot(t.block())?;
            // A target in to-space is a copy this collection made.
            // Unpinned, an earlier entry for the same field repaired
            // the field to it and was kept (a field written again
            // after its writer's buffer flushed is remembered twice).
            // Pinned, a remote reader may have chased the forwarding
            // word, pinned the copy and repaired the field before
            // this, its only entry, came up (`acquire_loaded`): it
            // stays, or the copy has no root once that pin ends.
            if slot >= self.table.from_len
                && !self.table.blocks[slot].get(t.word()).header().is_pinned()
            {
                return None;
            }
            let nt = self.forward(t);
            if nt != t {
                mpl_fail::hit_hard("lgc/remset");
                let repair = src_obj.cas_field(idx, old_word.decode(), Value::Obj(nt));
                if repair.is_err() {
                    continue; // concurrent write: re-read and retry
                }
                self.note(EventKind::RemsetRepair, src, entry.field);
            }
            // Repaired, or shielded in place: either way still a live
            // down-pointer into this heap.
            return Some(RemsetEntry {
                src,
                field: entry.field,
            });
        }
    }

    /// [`Lgc::forward_one`] of `r`'s current location.
    fn forward(&mut self, r: ObjRef) -> ObjRef {
        match self.locate(r) {
            Some((r, slot)) => self.forward_one(r, slot),
            None => panic!(
                "forward_one[{}]: unresolvable {r} (block {} freed) while collecting heap {}",
                self.phase,
                r.block(),
                self.h
            ),
        }
    }

    /// Evacuates the object `r` — just resolved into table slot `slot` —
    /// unless it is foreign (not collected now), already in to-space, or
    /// shielded (non-moving), and returns where it lives now. Only this
    /// task forwards its heap's objects, so an object reaching the copy is
    /// unforwarded, and the forwarding word the copy leaves is all a later
    /// edge needs.
    fn forward_one(&mut self, r: ObjRef, slot: Option<usize>) -> ObjRef {
        let Some(i) = slot.filter(|&i| i < self.table.from_len) else {
            return r;
        };
        if self.closure.contains(&r) {
            return r;
        }
        let obj = self.table.blocks[i].get(r.word());
        let header = obj.header();
        debug_assert!(!header.is_forwarded(), "copying forwarded {r}");
        if header.is_dead() {
            // A reachable-but-swept object is a collector bug. Count it
            // unconditionally — release builds compile out the assertion
            // below but still surface the corruption through the
            // `lgc_dead_traced` stat — then log the full context, dump
            // the event trace, and die in debug builds.
            self.store.stats().add(Counter::lgc_dead_traced, 1);
            eprintln!(
                "mpl-gc ERROR: LGC({})[{}] traced a dead object {r}: kind {:?} len {} slow {} entspace {} block(owner {} entangled {} pinned_count {})",
                self.h,
                self.phase,
                header.kind(),
                obj.len(),
                obj.is_slow(),
                header.in_entangled_space(),
                obj.block().owner(),
                obj.block().is_entangled(),
                obj.block().pinned_count(),
            );
            crate::audit::dump_events(Some(self.store.serial()));
            debug_assert!(false, "traced a dead object {r} (details on stderr)");
        }
        // Copy the payload straight into a to-space reservation, keeping
        // the cross bit (part of the object's identity for the read
        // barrier), then claim the original. Not the down bit: this heap
        // has no descendants now, so every down-pointer it held was made
        // internal by its join.
        let (kind, len, cross, size) = (header.kind(), obj.len(), obj.is_cross(), obj.size_bytes());
        let (slot, region, off) = self
            .tospace
            .reserve(&mut self.table, OBJECT_HEADER_WORDS + len);
        let src = self.table.blocks[i].view_resolved(r.word(), len);
        for (f, w) in src.field_words().enumerate() {
            region.write(off, f, w);
        }
        let nr = region.publish(off, kind, len);
        if cross {
            self.table.blocks[slot].set_cross(off);
        }
        let claim = self.table.blocks[i]
            .view_resolved(r.word(), len)
            .try_forward(nr);
        match claim {
            Ok(()) => {
                self.out.copied_bytes += size as u64;
                self.out.copied_objects += 1;
                self.scan.push(nr);
                nr
            }
            Err(hdr) => {
                self.abandon_copy(nr);
                if hdr.is_forwarded() {
                    // Another collector claimed it first (cannot happen
                    // for a task-owned heap, but be defensive).
                    let obj = self.table.blocks[i].view_resolved(r.word(), len);
                    return obj.forward_ref().expect("forwarded header without fwd ref");
                }
                // A remote reader pinned the object since the shield
                // phase: it just became entangled. It stays in place, and
                // the re-take shields its reachable closure (the reader
                // may traverse its fields barrier-free).
                self.shield_push(r);
                r
            }
        }
    }

    /// Takes back a copy that lost the claim on its original. The
    /// regions settle first: the block's live bytes must count the copy
    /// before it comes back out, since the subtraction saturates at zero.
    fn abandon_copy(&mut self, r: ObjRef) {
        self.tospace.settle();
        let i = self.table.slot(r.block()).expect("copies live in to-space");
        let block = &self.table.blocks[i];
        let obj = block.get(r.word());
        obj.set_dead();
        self.note(EventKind::DeadMark, r, DEAD_BY_ABANDON);
        block.sub_live_bytes(obj.size_bytes());
    }

    /// Phase C: gives up every from-space block with nothing shielded or
    /// pinned in it, dead-marks the unshielded garbage of the rest, and
    /// installs to-space plus the retained blocks as the heap's block
    /// list.
    fn reclaim(&mut self) {
        let store = self.store;
        let from = self.table.from_len;
        // Forwarding-chain path compression: retained blocks keep
        // forwarded entries alive indefinitely (entangled readers resolve
        // lazily), so every forwarding word must point at the *final*
        // location before the intermediate to-space blocks it may pass
        // through are reclaimed — this or any future cycle. Blocks that
        // forwarded nothing (the `forwarded_count` gauge is zero) are
        // skipped without a walk.
        for i in 0..from {
            if !self.live(i) || self.table.blocks[i].forwarded_count() == 0 {
                continue;
            }
            for (_off, obj) in self.table.blocks[i].objects() {
                let Some(first) = obj.forward_ref() else {
                    continue;
                };
                if let Some((fin, _)) = self.locate(first).filter(|&(fin, _)| fin != first) {
                    obj.compress_forward(fin);
                }
            }
        }
        let mut retained_blocks = Vec::new();
        let mut dead_blocks = Vec::new();
        for i in 0..from {
            if !self.live(i) {
                continue; // freed under this collection by the CGC sweep
            }
            let block = &self.table.blocks[i];
            let bid = block.id();
            if !self.retained[i] && block.try_retire() {
                // Clean line map (nothing pinned, nothing shielded): the
                // whole block is garbage or evacuated — given up
                // wholesale, no walk. A reader that loaded a pointer to
                // its garbage before this collection can no longer pin it
                // (`Block::reserve_pin`), so nothing pinned can point into
                // a block that is about to be freed.
                dead_blocks.push(bid);
                continue;
            }
            retained_blocks.push(bid);
            block.set_entangled(true);
            // Account garbage and evacuees out of the retained block.
            for (off, obj) in block.objects() {
                let header = obj.header();
                if header.is_dead() {
                    continue;
                }
                if header.is_forwarded() {
                    block.sub_live_bytes(obj.size_bytes());
                } else if !self.closure.contains(&ObjRef::new(bid, off)) {
                    // Unreachable and unshielded: garbage in a retained
                    // block; the CGC reclaims the space later. Objects
                    // with a pin (possibly acquired concurrently, after
                    // the shield phase) or a lingering entangled-space
                    // flag are spared — the concurrent collector decides
                    // their fate with a proper global mark. `try_kill`
                    // re-checks those conditions on its CAS, so a pin
                    // landing after this loop's header load cannot be
                    // overrun.
                    if obj.try_kill().is_some() {
                        self.note(EventKind::DeadMark, ObjRef::new(bid, off), DEAD_BY_LGC);
                        block.sub_live_bytes(obj.size_bytes());
                    }
                }
            }
        }
        self.out.retained_blocks = retained_blocks.len();

        let retained_live: u64 = (0..from)
            .filter(|&i| self.retained[i] && self.live(i))
            .map(|i| self.table.blocks[i].live_bytes() as u64)
            .sum();
        self.out.reclaimed_bytes = self
            .from_live
            .saturating_sub(self.out.copied_bytes)
            .saturating_sub(retained_live);

        // The new block list: to-space first, then the retained blocks;
        // the per-class to-space blocks, settled, become the heap's
        // allocation blocks. Then the table lets go of every block, so
        // none outlives its caller's free.
        let mut blocks: Vec<u32> = self.table.blocks[from..].iter().map(|b| b.id()).collect();
        blocks.extend(retained_blocks);
        self.tospace.settle();
        let alloc_blocks = self
            .tospace
            .current
            .each_ref()
            .map(|cur| cur.as_ref().map(|(_, region)| Arc::clone(region.block())));
        self.table = BlockTable::default();
        self.out.dead_blocks = dead_blocks;
        self.info.with(|s| {
            s.blocks = blocks;
            s.alloc_blocks = alloc_blocks;
        });

        self.out.registry_lookups = self.lookups.get();
        let out = &self.out;
        store.stats().on_lgc(
            out.copied_bytes,
            out.reclaimed_bytes,
            out.retained_entangled_bytes,
        );
        // Mirror the global live-bytes adjustment onto the tenant budget
        // this heap is accounted against, if any.
        if let Some(budget) = store.heaps().budget(self.h) {
            budget.credit(out.reclaimed_bytes as usize);
        }
        // Census piggyback: the reclaim already computed this collection's
        // live/reclaimed totals, so a post-GC census delta costs two gauge
        // reads. Feeds the flight recorder and the `last_gc` census row.
        if mpl_obs::enabled() {
            mpl_obs::note_gc_census(
                mpl_obs::GcCensusKind::Lgc,
                store.stats().live_bytes() as u64,
                store.blocks().live() as u64,
                out.reclaimed_bytes,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_heap::{ObjKind, StoreConfig, Word};

    fn store() -> Store {
        Store::new(StoreConfig {
            block_words: 12,
            ..Default::default()
        })
    }

    /// Collects `heap` and frees the blocks it emptied, as the runtime
    /// does when nothing else runs.
    fn lgc(store: &Store, heap: u32, roots: &mut [ObjRef]) -> LgcOutcome {
        let out = collect_local(store, heap, roots);
        for &id in &out.dead_blocks {
            store.blocks().free(id);
        }
        out
    }

    #[test]
    fn collects_garbage_keeps_roots() {
        let s = store();
        let h = s.new_root_heap();
        let live = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(7)]);
        for i in 0..20 {
            let _garbage = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(i)]);
        }
        let mut roots = [live];
        let out = lgc(&s, h, &mut roots);
        assert!(out.reclaimed_bytes > 0);
        assert_eq!(out.copied_objects, 1);
        assert_eq!(s.handle(roots[0]).field(0), Value::Int(7));
        assert!(!out.dead_blocks.is_empty());
    }

    #[test]
    fn preserves_object_graph_shape() {
        let s = store();
        let h = s.new_root_heap();
        // pair -> (leaf_a, leaf_b); shared leaf must stay shared.
        let leaf = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]);
        let pair = s.alloc_values(h, ObjKind::Tuple, &[Value::Obj(leaf), Value::Obj(leaf)]);
        let mut roots = [pair];
        let out = lgc(&s, h, &mut roots);
        let p = s.handle(roots[0]);
        let a = p.field(0).expect_obj();
        let b = p.field(1).expect_obj();
        assert_eq!(a, b, "sharing must be preserved");
        assert_eq!(s.handle(a).field(0), Value::Int(1));
        assert_eq!(out.copied_objects, 2, "each live object copied once");
    }

    #[test]
    fn cycles_survive() {
        let s = store();
        let h = s.new_root_heap();
        let a = s.alloc_values(h, ObjKind::Ref, &[Value::Unit]);
        let b = s.alloc_values(h, ObjKind::Ref, &[Value::Obj(a)]);
        s.handle(a).set_field(0, Value::Obj(b));
        let mut roots = [a];
        lgc(&s, h, &mut roots);
        let na = roots[0];
        let nb = s.handle(na).field(0).expect_obj();
        assert_eq!(s.handle(nb).field(0).expect_obj(), na);
    }

    #[test]
    fn pinned_objects_do_not_move() {
        let s = store();
        let h = s.new_root_heap();
        let pinned = s.alloc_values(h, ObjKind::Ref, &[Value::Int(3)]);
        s.pin(pinned, 0);
        let mut roots = [pinned];
        let out = lgc(&s, h, &mut roots);
        assert_eq!(roots[0], pinned, "pinned object must stay in place");
        assert!(out.retained_entangled_bytes > 0);
        assert!(out.retained_blocks >= 1);
        assert_eq!(s.handle(pinned).field(0), Value::Int(3));
    }

    #[test]
    fn pin_closure_is_shielded() {
        let s = store();
        let h = s.new_root_heap();
        // pinned -> inner (unpinned): inner must not move either, because a
        // remote reader can traverse the immutable edge barrier-free.
        let inner = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(9)]);
        let pinned = s.alloc_values(h, ObjKind::Ref, &[Value::Obj(inner)]);
        s.pin(pinned, 0);
        let mut roots = [pinned, inner];
        lgc(&s, h, &mut roots);
        assert_eq!(roots[0], pinned);
        assert_eq!(roots[1], inner, "closure of a pin must not move");
        assert!(s.handle(inner).header().in_entangled_space());
    }

    #[test]
    fn a_pin_missing_from_the_index_shields_its_closure() {
        let s = store();
        let h = s.new_root_heap();
        // a -> b -> c, with b pinned but not yet registered: the window
        // between a reader's pin CAS and its index registration. The
        // copy of b loses its claim to the pin; b's closure must still be
        // shielded.
        let c = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(3)]);
        let b = s.alloc_values(h, ObjKind::Ref, &[Value::Obj(c)]);
        let a = s.alloc_values(h, ObjKind::Tuple, &[Value::Obj(b)]);
        assert!(matches!(
            s.handle(b).try_pin(0),
            mpl_heap::PinOutcome::NewlyPinned
        ));
        let mut roots = [a];
        let out = lgc(&s, h, &mut roots);
        assert_ne!(roots[0], a, "a is evacuated");
        assert_eq!(s.handle(roots[0]).field(0), Value::Obj(b), "b stays put");
        assert_eq!(s.handle(b).field(0), Value::Obj(c), "c stays put");
        let c_header = s.handle(c).header();
        assert!(c_header.in_entangled_space());
        assert!(!c_header.is_dead());
        assert!(out.retained_blocks >= 1);
    }

    #[test]
    fn the_shield_crosses_a_foreign_heap_and_comes_back() {
        let s = store();
        let root_heap = s.new_root_heap();
        let (l, r) = s.fork_heaps(root_heap);
        // pinned p (in l) -> q (in r) -> back_home (in l); nothing roots
        // back_home, so only a shield that passes through r keeps it.
        let back_home = s.alloc_values(l, ObjKind::Tuple, &[Value::Int(4)]);
        let q = s.alloc_values(r, ObjKind::Ref, &[Value::Obj(back_home)]);
        // As the write barrier leaves a store into another heap's object.
        s.handle(q).obj().mark_cross();
        let p = s.alloc_values(l, ObjKind::Ref, &[Value::Obj(q)]);
        s.pin(p, 0);
        let mut roots: [ObjRef; 0] = [];
        lgc(&s, l, &mut roots);
        assert_eq!(s.handle(q).field(0), Value::Obj(back_home), "kept in place");
        let header = s.handle(back_home).header();
        assert!(header.in_entangled_space());
        assert!(!header.is_dead());
    }

    #[test]
    fn remset_sources_are_repaired() {
        let s = store();
        let root_heap = s.new_root_heap();
        let (l, _r) = s.fork_heaps(root_heap);
        // A mutable cell in the root heap points down into l.
        let cell = s.alloc_values(root_heap, ObjKind::Ref, &[Value::Unit]);
        let deep = s.alloc_values(l, ObjKind::Tuple, &[Value::Int(5)]);
        s.handle(cell).set_field(0, Value::Obj(deep));
        s.handle(cell).obj().mark_down();
        s.remember(
            l,
            0,
            &[RemsetEntry {
                src: cell,
                field: 0,
            }],
        );

        // No task root references `deep`; the remset alone must keep it
        // alive, and the source field must be repaired to the new copy.
        let mut roots: [ObjRef; 0] = [];
        let out = lgc(&s, l, &mut roots);
        assert_eq!(out.copied_objects, 1);
        let moved = s.handle(cell).field(0).expect_obj();
        assert_ne!(moved, deep, "object must have been evacuated");
        assert_eq!(s.handle(moved).field(0), Value::Int(5));
        assert_eq!(s.heaps().info(l).with(|h| h.remset.len()), 1, "entry kept");
    }

    #[test]
    fn rawarr_payload_not_traced() {
        let s = store();
        let h = s.new_root_heap();
        // A raw array whose bits happen to look like a pointer must not be
        // interpreted as one.
        let raw = s.alloc(
            h,
            ObjKind::RawArr,
            &[Word::encode(Value::Obj(ObjRef::new(12345, 1)))],
        );
        let mut roots = [raw];
        lgc(&s, h, &mut roots); // would panic on dangling b12345w1 if traced
        assert!(s.handle(roots[0]).field_word(0).is_pointer());
    }

    #[test]
    fn second_collection_after_unpin_moves_object() {
        let s = store();
        let root_heap = s.new_root_heap();
        let (l, r) = s.fork_heaps(root_heap);
        let x = s.alloc_values(l, ObjKind::Ref, &[Value::Int(1)]);
        s.pin(x, 0);
        s.join(root_heap, [l, r]); // unpins (level 0 >= depth 0)
        assert!(!s.handle(x).header().is_pinned());
        // But the entangled_space bit was cleared by unpin, so LGC may now
        // move it.
        let mut roots = [x];
        let out = lgc(&s, root_heap, &mut roots);
        assert_eq!(out.copied_objects, 1);
        assert_ne!(roots[0], x);
        assert_eq!(s.handle(roots[0]).field(0), Value::Int(1));
    }

    #[test]
    fn reclaimed_bytes_accounting_consistent() {
        let s = store();
        let h = s.new_root_heap();
        let keep = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]);
        for _ in 0..50 {
            s.alloc_values(h, ObjKind::Tuple, &[Value::Unit]);
        }
        let before = s.stats().snapshot().live_bytes;
        let mut roots = [keep];
        let out = lgc(&s, h, &mut roots);
        let after = s.stats().snapshot().live_bytes;
        assert_eq!(after, before - out.reclaimed_bytes as usize);
    }
}
