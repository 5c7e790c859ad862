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
//! The algorithm:
//!
//! * **Phase A (shield)** — compute the transitive closure of the heap's
//!   pinned objects (through *all* fields, conservatively, because remote
//!   readers traverse immutable edges barrier-free, and **through foreign
//!   heaps**: a sibling that read a pointer out of a pinned object's
//!   closure may have stored it in an object of its own heap, so a path
//!   from a pinned root can hop across the boundary and come back) and
//!   tag its in-heap members `entangled_space`: non-moving, retained,
//!   swept later by the CGC.
//! * **Phase B (evacuate)** — Cheney-style copy of everything reachable
//!   from the task's roots and the remembered set into fresh size-class
//!   blocks, leaving forwarding words behind; entangled-space objects are
//!   kept in place and act as boundaries (their subgraph is already
//!   retained).
//! * **Phase C (reclaim)** — from-space blocks that contain entangled
//!   objects are retained (and flagged for the CGC); the rest are freed or
//!   retired to the graveyard **wholesale** — no per-object walk is needed
//!   to free a block, only the retained (entangled) minority is walked to
//!   dead-mark unshielded garbage.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mpl_heap::events::{self, EventKind, DEAD_BY_ABANDON, DEAD_BY_LGC};
use mpl_heap::{
    size_class, Block, Counter, HeapInfo, ObjHandle, ObjKind, ObjRef, RemsetEntry, Store, Value,
    Word, NUM_SIZE_CLASSES, OBJECT_HEADER_WORDS,
};

use crate::graveyard::Graveyard;

/// Statistics from one local collection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LgcOutcome {
    /// Bytes copied to to-space.
    pub copied_bytes: u64,
    /// Garbage bytes reclaimed (logically freed).
    pub reclaimed_bytes: u64,
    /// Live bytes retained in place in the entangled space.
    pub retained_entangled_bytes: u64,
    /// Number of from-space blocks freed or retired.
    pub freed_blocks: usize,
    /// Number of from-space blocks retained for the CGC.
    pub retained_blocks: usize,
    /// Number of objects evacuated.
    pub copied_objects: usize,
}

/// To-space: per-size-class bump blocks owned by the collection, promoted
/// to the heap's allocation blocks when the cycle installs them.
struct ToSpace<'s> {
    store: &'s Store,
    heap: u32,
    blocks: Vec<Arc<Block>>,
    current: [Option<usize>; NUM_SIZE_CLASSES],
}

impl<'s> ToSpace<'s> {
    fn new(store: &'s Store, heap: u32) -> Self {
        ToSpace {
            store,
            heap,
            blocks: Vec::new(),
            current: [None; NUM_SIZE_CLASSES],
        }
    }

    fn register(&mut self, capacity: usize, class: usize) -> Arc<Block> {
        let heap = self.heap;
        let sft = Arc::clone(self.store.sft());
        let block = self
            .store
            .blocks()
            .register(|id| Block::new(id, heap, capacity, class, sft));
        self.blocks.push(Arc::clone(&block));
        block
    }

    /// Copies an object image into to-space, preserving the suspect bit
    /// (part of the object's identity for the read barrier).
    fn alloc(&mut self, kind: ObjKind, fields: &[Word], suspect: bool) -> ObjRef {
        let nwords = OBJECT_HEADER_WORDS + fields.len();
        let block_words = self.store.config().block_words;
        if nwords > block_words {
            let block = self.register(nwords, NUM_SIZE_CLASSES - 1);
            let r = block.try_alloc(kind, fields).expect("dedicated block fits");
            if suspect {
                block.set_suspect(r.word());
            }
            return r;
        }
        let class = size_class(nwords);
        loop {
            if let Some(i) = self.current[class] {
                if let Some(r) = self.blocks[i].try_alloc(kind, fields) {
                    if suspect {
                        self.blocks[i].set_suspect(r.word());
                    }
                    return r;
                }
            }
            self.register(block_words, class);
            self.current[class] = Some(self.blocks.len() - 1);
        }
    }
}

/// Runs a local collection of `heap`.
///
/// `roots` is the owning task's shadow stack; entries are updated in place
/// to the objects' new locations. `extra_roots` (e.g. a pending result
/// value) are likewise updated.
///
/// # Panics
///
/// Panics on heap corruption (dangling references outside the collected
/// heap's own blocks).
pub fn collect_local(
    store: &Store,
    heap: u32,
    roots: &mut [ObjRef],
    graveyard: &Graveyard,
    immediate_block_free: bool,
) -> LgcOutcome {
    // The whole call is the stop-the-task pause: timed here (not at call
    // sites) so allocation-triggered and forced collections are equally
    // covered. Phase spans are telemetry-gated; the pause counter is
    // always on (two clock reads per collection, noise next to the
    // collection itself).
    let pause_begin = std::time::Instant::now();
    let span_pause = mpl_obs::span_start();
    let span_phase = mpl_obs::span_start();

    let h = store.heaps().find(heap);
    let info = store.heaps().info(h);
    let from_blocks: Vec<u32> = info.with(|s| s.blocks.clone());
    let from_set: HashSet<u32> = from_blocks.iter().copied().collect();
    let total_from_live: u64 = from_blocks
        .iter()
        .filter_map(|&b| store.blocks().try_get(b))
        .map(|b| b.live_bytes() as u64)
        .sum();

    let in_heap = |r: ObjRef| from_set.contains(&r.block());

    let mut out = LgcOutcome::default();

    // ---- Phase A: shield the entangled region --------------------------
    let mut stall = crate::stall::enter(crate::stall::LGC_SHIELD);
    let mut entangled_closure: HashSet<ObjRef> = HashSet::new();
    let mut retained_block_ids: HashSet<u32> = HashSet::new();
    {
        let entries = info.with(|s| s.take_entangled());
        let mut kept = Vec::with_capacity(entries.len());
        let mut stack: Vec<ObjRef> = Vec::new();
        // The closure traversal must pass THROUGH foreign objects: a
        // sibling that read a pointer out of a pinned object's immutable
        // closure may have stored it in an object of its own heap, so a
        // path from a pinned root can hop across the heap boundary and
        // come back. Stopping at the boundary left such comeback objects
        // unshielded. Foreign objects are traversed (tracked in
        // `foreign_seen`) but never tagged or retained; only in-heap
        // members join the closure.
        let mut foreign_seen: HashSet<ObjRef> = HashSet::new();
        for r in entries {
            let Some(r) = store.try_resolve(r) else {
                continue; // reclaimed by the concurrent collector
            };
            let header = store.handle(r).header();
            if header.is_dead() || !header.is_pinned() {
                continue;
            }
            kept.push((r, header.pin_level()));
            if in_heap(r) {
                stack.push(r);
            }
        }
        restore_entangled(info, kept);
        shield_sweep(
            store,
            h,
            &from_set,
            &mut stack,
            &mut entangled_closure,
            &mut foreign_seen,
            &mut retained_block_ids,
            &mut out,
        );
    }
    mpl_fail::hit_hard("lgc/shield");
    crate::audit::audit_phase(store, "lgc/shield", h, Some(&entangled_closure));
    mpl_obs::span_close(mpl_obs::Metric::LgcShield, span_phase);
    let span_phase = mpl_obs::span_start();
    crate::stall::exit(stall);
    stall = crate::stall::enter(crate::stall::LGC_EVACUATE);

    // ---- Phase B: evacuate ---------------------------------------------
    let phase = std::cell::Cell::new("init");
    let mut tospace = ToSpace::new(store, h);
    // Map from old location to new location for objects we copied.
    let mut forwarded: HashMap<ObjRef, ObjRef> = HashMap::new();
    let mut scan_queue: Vec<ObjRef> = Vec::new();
    // Objects pinned by a concurrent reader *after* the shield phase;
    // their reachable closures are shielded post-scan.
    let race_pinned: std::cell::RefCell<Vec<ObjRef>> = std::cell::RefCell::new(Vec::new());

    let forward_one = |store: &Store,
                       tospace: &mut ToSpace<'_>,
                       scan_queue: &mut Vec<ObjRef>,
                       forwarded: &mut HashMap<ObjRef, ObjRef>,
                       out: &mut LgcOutcome,
                       entangled_closure: &mut HashSet<ObjRef>,
                       retained_block_ids: &mut HashSet<u32>,
                       r: ObjRef|
     -> ObjRef {
        let r = match store.try_resolve(r) {
            Some(r) => r,
            None => panic!(
                "forward_one[{}]: unresolvable {r} (block {} freed) while collecting heap {h}",
                phase.get(),
                r.block()
            ),
        };
        if !from_set.contains(&r.block()) {
            return r; // foreign pointer: not collected now
        }
        if let Some(&nr) = forwarded.get(&r) {
            return nr;
        }
        let hd = store.handle(r);
        let header = hd.header();
        // Shielding is per-collection: only THIS cycle's pin closure is
        // non-moving. A stale `entangled_space` bit from an earlier cycle
        // (whose pin has since been released at a join) must not exempt
        // an object from evacuation — its block is about to be freed.
        if entangled_closure.contains(&r) {
            return r; // shielded: non-moving
        }
        if let Some(f) = hd.forward_ref() {
            return f;
        }
        if header.is_dead() {
            // A reachable-but-swept object is a collector bug. Count it
            // unconditionally — release builds compile out the assertion
            // below but still surface the corruption through the
            // `lgc_dead_traced` stat — then log the full context, dump
            // the event trace, and die in debug builds.
            store.stats().add(Counter::lgc_dead_traced, 1);
            eprintln!(
                "mpl-gc ERROR: LGC({h})[{}] traced a dead object {r}: kind {:?} len {} suspect {} entspace {} block(owner {} entangled {} pinned_count {})",
                phase.get(),
                header.kind(),
                hd.len(),
                hd.is_suspect(),
                header.in_entangled_space(),
                hd.block().owner(),
                hd.block().is_entangled(),
                hd.block().pinned_count(),
            );
            crate::audit::dump_events();
            debug_assert!(false, "traced a dead object {r} (details on stderr)");
        }
        // Copy the payload and claim the original.
        let snapshot: Vec<Word> = hd.obj().field_words().collect();
        let size = hd.size_bytes();
        let nr = tospace.alloc(header.kind(), &snapshot, hd.is_suspect());
        match hd.obj().try_forward(nr) {
            Ok(()) => {
                forwarded.insert(r, nr);
                out.copied_bytes += size as u64;
                out.copied_objects += 1;
                scan_queue.push(nr);
                nr
            }
            Err(hdr) if hdr.is_forwarded() => {
                // Another collector claimed it first (cannot happen for a
                // task-owned heap, but be defensive): abandon our copy.
                abandon_copy(store, nr);
                hd.forward_ref().expect("forwarded header without fwd ref")
            }
            Err(_pinned) => {
                // A remote reader pinned the object between our shield
                // phase and now: it just became entangled. Keep it in
                // place, abandon the copy, and remember to shield its
                // reachable closure once the scan settles (the reader may
                // traverse its fields barrier-free).
                abandon_copy(store, nr);
                hd.obj().set_entangled_space();
                events::emit_obj(EventKind::Entangle, r, h);
                entangled_closure.insert(r);
                retained_block_ids.insert(r.block());
                out.retained_entangled_bytes += size as u64;
                race_pinned.borrow_mut().push(r);
                r
            }
        }
    };

    // Roots.
    phase.set("roots");
    for root in roots.iter_mut() {
        *root = forward_one(
            store,
            &mut tospace,
            &mut scan_queue,
            &mut forwarded,
            &mut out,
            &mut entangled_closure,
            &mut retained_block_ids,
            *root,
        );
    }

    // Remembered set: down-pointers from ancestor heaps are roots, and the
    // source fields must be repaired after the move.
    phase.set("remset");
    let remset = info.with(|s| std::mem::take(&mut s.remset));
    let mut kept_remset: Vec<RemsetEntry> = Vec::new();
    for entry in remset {
        let Some(_block) = store.blocks().try_get(entry.src.block()) else {
            continue; // source block reclaimed: entry is stale
        };
        let src = store.resolve(entry.src);
        if from_set.contains(&src.block()) {
            // The source merged into this very heap; the pointer is now
            // internal and ordinary tracing covers it.
            continue;
        }
        let src_h: ObjHandle = store.handle(src);
        if src_h.header().is_dead() {
            continue;
        }
        let idx = entry.field as usize;
        if idx >= src_h.len() {
            continue;
        }
        loop {
            let old_word = src_h.field_word(idx);
            let Some(t) = old_word.pointer() else { break };
            // The raw target decides membership: a target already
            // evacuated through another path must still have its source
            // field repaired to the forwarded location, or the field
            // dangles once from-space blocks are freed.
            if !from_set.contains(&t.block()) {
                break; // points outside this heap: entry is stale
            }
            let nt = forward_one(
                store,
                &mut tospace,
                &mut scan_queue,
                &mut forwarded,
                &mut out,
                &mut entangled_closure,
                &mut retained_block_ids,
                t,
            );
            if nt == t {
                // Shielded in place (entangled space): still a live
                // down-pointer into this heap.
                kept_remset.push(RemsetEntry {
                    src,
                    field: entry.field,
                });
                break;
            }
            match src_h
                .obj()
                .cas_field(idx, old_word.decode(), Value::Obj(nt))
            {
                Ok(()) => {
                    events::emit_obj(EventKind::RemsetRepair, src, entry.field);
                    kept_remset.push(RemsetEntry {
                        src,
                        field: entry.field,
                    });
                    break;
                }
                Err(_) => continue, // concurrent write: re-read and retry
            }
        }
    }
    info.with(|s| s.remset.append(&mut kept_remset));

    // Transitive scan of evacuated objects.
    phase.set("scan");
    while let Some(nr) = scan_queue.pop() {
        let hd = store.handle(nr);
        if !hd.kind().is_traced() {
            continue;
        }
        for i in 0..hd.len() {
            let w = hd.field_word(i);
            if let Some(t) = w.pointer() {
                if store.try_resolve(t).is_none() {
                    panic!(
                        "scan: {nr} (kind {:?}, len {}, copied into block {} owner {}) field {i} -> dangling {t}",
                        hd.kind(),
                        hd.len(),
                        nr.block(),
                        store.blocks().get(nr.block()).owner(),
                    );
                }
                let nt = forward_one(
                    store,
                    &mut tospace,
                    &mut scan_queue,
                    &mut forwarded,
                    &mut out,
                    &mut entangled_closure,
                    &mut retained_block_ids,
                    t,
                );
                if nt != t {
                    hd.set_field(i, Value::Obj(nt));
                }
            }
        }
    }

    // Late shield: expand the closure from objects pinned concurrently
    // during evacuation. Members already evacuated are fine (readers
    // resolve forwarding; from-space blocks survive until quiescence via
    // the graveyard); members still in place must be retained and spared
    // from dead-marking, recursively.
    {
        // Like Phase A, the late shield crosses heap boundaries: the
        // racing reader may already have stashed pointers to this heap's
        // objects inside objects of its own heap.
        let mut foreign_seen: HashSet<ObjRef> = HashSet::new();
        let mut stack = race_pinned.into_inner();
        while let Some(r) = stack.pop() {
            let Some(block) = store.blocks().try_get(r.block()) else {
                continue;
            };
            let Some(obj) = block.try_get(r.word()) else {
                continue;
            };
            if obj.header().is_forwarded() {
                continue; // alive in to-space; reader chases forwarding
            }
            if !obj.header().kind().is_traced() {
                continue;
            }
            let targets: Vec<ObjRef> = obj.field_words().filter_map(|w| w.pointer()).collect();
            for t in targets {
                let Some(t) = store.try_resolve(t) else {
                    continue;
                };
                let local = from_set.contains(&t.block());
                if local && entangled_closure.contains(&t) {
                    continue;
                }
                if !local && !foreign_seen.insert(t) {
                    continue;
                }
                let Some(tbl) = store.blocks().try_get(t.block()) else {
                    continue;
                };
                let Some(tobj) = tbl.try_get(t.word()) else {
                    continue;
                };
                if tobj.header().is_dead() || tobj.header().is_forwarded() {
                    continue;
                }
                if local {
                    tobj.set_entangled_space();
                    events::emit_obj(EventKind::Entangle, t, h);
                    entangled_closure.insert(t);
                    retained_block_ids.insert(t.block());
                    out.retained_entangled_bytes += tobj.size_bytes() as u64;
                } else {
                    events::emit_obj(EventKind::ShieldCross, t, r.block());
                }
                stack.push(t);
            }
        }
    }
    // Registry re-take: a pin can land at ANY point during the collection
    // — a sibling's acquisition barrier fires on objects this collection
    // may never trace (e.g. a former bucket head now reachable only
    // through the sibling's own object after it CAS'd a shared slot).
    // The `race_pinned` late shield above only covers pins the evacuation
    // happened to trace; a pin on an untraced object would be spared
    // individually by `try_kill`'s CAS, but its *referents* would be
    // dead-marked while the reader can still walk to them.
    //
    // Soundness of draining again: every cross-heap acquisition pins and
    // registers its target *before* the reference escapes to the remote
    // task (read barrier, write barrier, and allocation barrier all pin
    // first), so any object a reader can possibly hold by the time Phase
    // C's kills run is registered with this heap's index by the time this
    // loop's final drain observes it empty of news. The object-level pin
    // CAS in `try_kill` covers the residual window for freshly pinned
    // objects themselves, and such objects' referents are necessarily
    // already in the closure (their reference escaped through an earlier
    // registered pin).
    {
        let mut foreign_seen: HashSet<ObjRef> = HashSet::new();
        loop {
            mpl_fail::hit_hard("lgc/retake");
            let entries = info.with(|s| s.take_entangled());
            if entries.is_empty() {
                break;
            }
            let mut kept = Vec::with_capacity(entries.len());
            let mut stack: Vec<ObjRef> = Vec::new();
            for r in entries {
                let Some(r) = store.try_resolve(r) else {
                    continue;
                };
                let header = store.handle(r).header();
                if header.is_dead() || !header.is_pinned() {
                    continue;
                }
                kept.push((r, header.pin_level()));
                if in_heap(r) && !entangled_closure.contains(&r) {
                    stack.push(r);
                }
            }
            let progress = !stack.is_empty();
            shield_sweep(
                store,
                h,
                &from_set,
                &mut stack,
                &mut entangled_closure,
                &mut foreign_seen,
                &mut retained_block_ids,
                &mut out,
            );
            restore_entangled(info, kept);
            if !progress {
                break;
            }
        }
    }
    mpl_fail::hit_hard("lgc/evacuate");
    crate::audit::audit_phase(store, "lgc/evacuate", h, Some(&entangled_closure));
    mpl_obs::span_close(mpl_obs::Metric::LgcEvacuate, span_phase);
    let span_phase = mpl_obs::span_start();
    crate::stall::exit(stall);
    stall = crate::stall::enter(crate::stall::LGC_RECLAIM);

    // ---- Phase C: reclaim ------------------------------------------------
    // Forwarding-chain path compression: retained blocks keep forwarded
    // entries alive indefinitely (entangled readers resolve lazily), so
    // every forwarding word must point at the *final* location before the
    // intermediate to-space blocks it may pass through are reclaimed —
    // this or any future cycle. Blocks that forwarded nothing (the
    // `forwarded_count` gauge is zero) are skipped without a walk.
    for &bid in &from_blocks {
        let Some(block) = store.blocks().try_get(bid) else {
            continue;
        };
        if block.forwarded_count() == 0 {
            continue;
        }
        for (_off, obj) in block.objects() {
            if let Some(first) = obj.forward_ref() {
                let fin = store.resolve(first);
                if fin != first {
                    obj.compress_forward(fin);
                }
            }
        }
    }
    for &bid in &from_blocks {
        let Some(block) = store.blocks().try_get(bid) else {
            continue;
        };
        if retained_block_ids.contains(&bid) || block.pinned_count() > 0 {
            out.retained_blocks += 1;
            block.set_entangled(true);
            // Account garbage and evacuees out of the retained block.
            for (off, obj) in block.objects() {
                let header = obj.header();
                if header.is_dead() {
                    continue;
                }
                if header.is_forwarded() {
                    block.sub_live_bytes(obj.size_bytes());
                } else if !entangled_closure.contains(&ObjRef::new(bid, off)) {
                    // Unreachable and unshielded: garbage in a retained
                    // block; the CGC reclaims the space later. Objects with
                    // a pin (possibly acquired concurrently, after the
                    // shield phase) or a lingering entangled-space flag
                    // are spared — the concurrent collector decides their
                    // fate with a proper global mark. `try_kill` re-checks
                    // those conditions on its CAS, so a pin landing after
                    // this loop's header load cannot be overrun.
                    if obj.try_kill().is_some() {
                        events::emit(EventKind::DeadMark, bid, off, DEAD_BY_LGC);
                        block.sub_live_bytes(obj.size_bytes());
                    }
                }
            }
        } else {
            // Clean line map (nothing pinned, nothing shielded): the whole
            // block is garbage or evacuated — freed wholesale, no walk.
            out.freed_blocks += 1;
            if immediate_block_free {
                store.blocks().free(bid);
            } else {
                graveyard.retire(bid);
            }
        }
    }

    let retained_live: u64 = retained_block_ids
        .iter()
        .filter_map(|&b| store.blocks().try_get(b))
        .map(|b| b.live_bytes() as u64)
        .sum();
    out.reclaimed_bytes = total_from_live
        .saturating_sub(out.copied_bytes)
        .saturating_sub(retained_live);

    // Install the new block list: to-space first, then retained entangled
    // blocks; the per-class to-space bump blocks become the heap's
    // allocation blocks.
    let mut new_blocks: Vec<u32> = tospace.blocks.iter().map(|b| b.id()).collect();
    new_blocks.extend(from_blocks.iter().copied().filter(|b| {
        retained_block_ids.contains(b)
            || store
                .blocks()
                .try_get(*b)
                .is_some_and(|bl| bl.pinned_count() > 0)
    }));
    let alloc_blocks = tospace
        .current
        .map(|cur| cur.map(|i| Arc::clone(&tospace.blocks[i])));
    info.with(|s| {
        s.blocks = new_blocks;
        s.alloc_blocks = alloc_blocks;
    });

    store.stats().on_lgc(
        out.copied_bytes,
        out.reclaimed_bytes,
        out.retained_entangled_bytes,
    );
    // Mirror the global live-bytes adjustment onto the tenant budget this
    // heap is accounted against, if any.
    if let Some(budget) = info.budget() {
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
    // Phase-boundary audit (formerly an ad-hoc MPL_DEBUG_LGC_VALIDATE
    // dangling-field scan printed to stderr): the reclaim-class audit
    // re-validates the shield, cross-checks reachability against dead
    // marks, scans for dangling fields, and fails loudly with the event
    // trace if anything is off. Enabled by the same environment flag or
    // `RuntimeConfig::with_audit`.
    mpl_fail::hit_hard("lgc/reclaim");
    crate::audit::audit_phase(store, "lgc/reclaim", h, Some(&entangled_closure));
    mpl_obs::span_close(mpl_obs::Metric::LgcReclaim, span_phase);
    crate::stall::exit(stall);
    store
        .stats()
        .on_lgc_pause(pause_begin.elapsed().as_nanos() as u64);
    // `on_lgc_pause` already fed the pause histogram; record the timeline
    // span only.
    mpl_obs::span_only(mpl_obs::Metric::LgcPause, span_pause);
    out
}

/// Puts the pins a collection found still standing back into the heap's
/// index, each under its current level: a join only visits the buckets at
/// or above its depth, so an entry filed below its pin's level would miss
/// the join that ends it.
fn restore_entangled(info: &HeapInfo, kept: Vec<(ObjRef, u16)>) {
    info.with(|s| {
        for (r, level) in kept {
            s.add_entangled(r, level);
        }
    });
}

/// Expands `entangled_closure` with everything reachable from `stack`,
/// crossing heap boundaries in both directions: foreign objects are
/// traversed (tracked in `foreign_seen`) but never tagged or retained;
/// in-heap members (blocks in `from_set`) are tagged entangled-space,
/// their blocks retained, and their retained bytes accounted.
#[allow(clippy::too_many_arguments)]
fn shield_sweep(
    store: &Store,
    h: u32,
    from_set: &HashSet<u32>,
    stack: &mut Vec<ObjRef>,
    entangled_closure: &mut HashSet<ObjRef>,
    foreign_seen: &mut HashSet<ObjRef>,
    retained_block_ids: &mut HashSet<u32>,
    out: &mut LgcOutcome,
) {
    while let Some(r) = stack.pop() {
        let local = from_set.contains(&r.block());
        if local {
            if !entangled_closure.insert(r) {
                continue;
            }
        } else if !foreign_seen.insert(r) {
            continue;
        }
        // Foreign blocks can be swept (and freed) by a concurrent
        // collection elsewhere; read them defensively.
        let Some(block) = store.blocks().try_get(r.block()) else {
            continue;
        };
        let Some(obj) = block.try_get(r.word()) else {
            continue;
        };
        if local {
            obj.set_entangled_space();
            events::emit_obj(EventKind::Entangle, r, h);
            retained_block_ids.insert(r.block());
            out.retained_entangled_bytes += obj.size_bytes() as u64;
        }
        if !obj.header().kind().is_traced() {
            continue;
        }
        let targets: Vec<ObjRef> = obj.field_words().filter_map(|w| w.pointer()).collect();
        for t in targets {
            let Some(t) = store.try_resolve(t) else {
                continue;
            };
            let t_local = from_set.contains(&t.block());
            let seen = if t_local {
                entangled_closure.contains(&t)
            } else {
                foreign_seen.contains(&t)
            };
            if seen {
                continue;
            }
            let dead = store
                .blocks()
                .try_get(t.block())
                .and_then(|b| b.try_get(t.word()).map(|o| o.header().is_dead()));
            if dead != Some(false) {
                continue;
            }
            if t_local != local {
                events::emit_obj(EventKind::ShieldCross, t, r.block());
            }
            stack.push(t);
        }
    }
}

fn abandon_copy(store: &Store, r: ObjRef) {
    let hd = store.handle(r);
    let size = hd.size_bytes();
    hd.obj().set_dead();
    events::emit_obj(EventKind::DeadMark, r, DEAD_BY_ABANDON);
    hd.block().sub_live_bytes(size);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_heap::{ObjKind, StoreConfig};

    fn store() -> Store {
        Store::new(StoreConfig {
            block_words: 12,
            ..Default::default()
        })
    }

    fn lgc(store: &Store, heap: u32, roots: &mut [ObjRef]) -> LgcOutcome {
        let g = Graveyard::new();
        collect_local(store, heap, roots, &g, true)
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
        assert!(out.freed_blocks > 0);
    }

    #[test]
    fn preserves_object_graph_shape() {
        let s = store();
        let h = s.new_root_heap();
        // pair -> (leaf_a, leaf_b); shared leaf must stay shared.
        let leaf = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]);
        let pair = s.alloc_values(h, ObjKind::Tuple, &[Value::Obj(leaf), Value::Obj(leaf)]);
        let mut roots = [pair];
        lgc(&s, h, &mut roots);
        let p = s.handle(roots[0]);
        let a = p.field(0).expect_obj();
        let b = p.field(1).expect_obj();
        assert_eq!(a, b, "sharing must be preserved");
        assert_eq!(s.handle(a).field(0), Value::Int(1));
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
    fn remset_sources_are_repaired() {
        let s = store();
        let root_heap = s.new_root_heap();
        let (l, _r) = s.fork_heaps(root_heap);
        // A mutable cell in the root heap points down into l.
        let cell = s.alloc_values(root_heap, ObjKind::Ref, &[Value::Unit]);
        let deep = s.alloc_values(l, ObjKind::Tuple, &[Value::Int(5)]);
        s.handle(cell).set_field(0, Value::Obj(deep));
        s.remember(
            l,
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
        s.join(root_heap, l, r); // unpins (level 0 >= depth 0)
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
