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
//!   objects are retained (and flagged for the CGC); the rest are freed or
//!   retired to the graveyard **wholesale** — no per-object walk is needed
//!   to free a block, only the retained (entangled) minority is walked to
//!   dead-mark unshielded garbage.

use std::collections::HashSet;
use std::sync::Arc;

use mpl_heap::events::{self, EventKind, DEAD_BY_ABANDON, DEAD_BY_LGC};
use mpl_heap::{
    size_class, Block, Counter, HeapInfo, ObjKind, ObjRef, RemsetEntry, Store, Value, Word,
    NUM_SIZE_CLASSES, OBJECT_HEADER_WORDS,
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
/// `roots` is the owning task's shadow stack (plus any values it holds
/// across the collection, e.g. a pending result); entries are updated in
/// place to the objects' new locations. With `free_now`, evacuated from-space
/// blocks are freed at once — sound only when no other thread can be
/// resolving forwarding words in them; otherwise they are retired to
/// `graveyard` until quiescence.
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
    free_now: bool,
) -> LgcOutcome {
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
    crate::audit::audit_phase(store, "lgc/shield", h, Some(&lgc.closure));
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
    // and allocation barrier all pin first), so any object a reader can
    // possibly hold by the time Phase C's kills run is registered with
    // this heap's index by the time the final drain observes it empty of
    // news. The object-level pin CAS in `try_kill` covers the residual
    // window for freshly pinned objects themselves, and such objects'
    // referents are necessarily already in the closure (their reference
    // escaped through an earlier registered pin).
    mpl_fail::hit_hard("lgc/retake");
    lgc.shield();
    mpl_fail::hit_hard("lgc/evacuate");
    crate::audit::audit_phase(store, "lgc/evacuate", h, Some(&lgc.closure));
    mpl_obs::span_close(mpl_obs::Metric::LgcEvacuate, span_phase);
    let span_phase = mpl_obs::span_start();
    crate::stall::exit(stall);
    stall = crate::stall::enter(crate::stall::LGC_RECLAIM);

    // ---- Phase C: reclaim ------------------------------------------------
    lgc.reclaim(graveyard, free_now);
    // Phase-boundary audit (formerly an ad-hoc MPL_DEBUG_LGC_VALIDATE
    // dangling-field scan printed to stderr): the reclaim-class audit
    // re-validates the shield, cross-checks reachability against dead
    // marks, scans for dangling fields, and fails loudly with the event
    // trace if anything is off. Enabled by the same environment flag or
    // `RuntimeConfig::with_audit`.
    mpl_fail::hit_hard("lgc/reclaim");
    crate::audit::audit_phase(store, "lgc/reclaim", h, Some(&lgc.closure));
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
    /// From-space: the heap's blocks when the collection began, their
    /// live bytes then, and the same ids as a set.
    from_blocks: Vec<u32>,
    from_live: u64,
    from_set: HashSet<u32>,
    tospace: ToSpace<'s>,
    /// Evacuated copies whose fields are not yet forwarded.
    scan: Vec<ObjRef>,
    /// This cycle's shield: the in-heap objects reachable from a pin,
    /// kept in place and spared from dead-marking. Only THIS cycle's
    /// closure is non-moving: a stale `entangled_space` bit from an
    /// earlier cycle (whose pin has since been released at a join) must
    /// not exempt an object from evacuation — its block is about to be
    /// freed.
    closure: HashSet<ObjRef>,
    /// Foreign objects the shield has passed through; they are traversed
    /// but never tagged or retained.
    foreign_seen: HashSet<ObjRef>,
    /// From-space blocks holding a closure member.
    retained: HashSet<u32>,
    /// Shield members whose fields are not yet swept.
    shield: Vec<ObjRef>,
    /// The field words of the object being copied.
    fields: Vec<Word>,
    /// What evacuation is tracing, for corruption reports.
    phase: &'static str,
    out: LgcOutcome,
}

impl<'s> Lgc<'s> {
    fn new(store: &'s Store, heap: u32) -> Lgc<'s> {
        let h = store.heaps().find(heap);
        let info = store.heaps().info(h);
        let from_blocks: Vec<u32> = info.with(|s| s.blocks.clone());
        let from_live = from_blocks
            .iter()
            .filter_map(|&b| store.blocks().try_get(b))
            .map(|b| b.live_bytes() as u64)
            .sum();
        Lgc {
            store,
            h,
            info,
            from_set: from_blocks.iter().copied().collect(),
            from_blocks,
            from_live,
            tospace: ToSpace::new(store, h),
            scan: Vec::new(),
            closure: HashSet::new(),
            foreign_seen: HashSet::new(),
            retained: HashSet::new(),
            shield: Vec::new(),
            fields: Vec::new(),
            phase: "init",
            out: LgcOutcome::default(),
        }
    }

    fn in_heap(&self, r: ObjRef) -> bool {
        self.from_set.contains(&r.block())
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
    /// pin's level would miss the join that ends it.
    fn drain_pins(&mut self) -> bool {
        let entries = self.info.with(|s| s.take_entangled());
        let mut kept = Vec::with_capacity(entries.len());
        let mut fresh = false;
        for r in entries {
            let Some(r) = self.store.try_resolve(r) else {
                continue; // reclaimed by the concurrent collector
            };
            let header = self.store.handle(r).header();
            if header.is_dead() || !header.is_pinned() {
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
            let Some(block) = self.store.blocks().try_get(r.block()) else {
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
                let Some(t) = self.store.try_resolve(t) else {
                    continue;
                };
                if self.shield_push(t) && self.in_heap(t) != local {
                    events::emit_obj(EventKind::ShieldCross, t, r.block());
                }
            }
        }
    }

    /// Adds `r` to the shield and its stack unless it is gone, dead, or
    /// already there; returns whether it was added. An in-heap object
    /// joins the closure: tagged entangled-space, its block retained, its
    /// bytes counted. A foreign object is only traversed.
    fn shield_push(&mut self, r: ObjRef) -> bool {
        let local = self.in_heap(r);
        let seen = if local {
            &mut self.closure
        } else {
            &mut self.foreign_seen
        };
        if seen.contains(&r) {
            return false;
        }
        // Foreign blocks can be swept (and freed) by a concurrent
        // collection elsewhere; read them defensively.
        let Some(block) = self.store.blocks().try_get(r.block()) else {
            return false;
        };
        let Some(obj) = block.try_get(r.word()) else {
            return false;
        };
        if obj.header().is_dead() {
            return false;
        }
        seen.insert(r);
        if local {
            obj.set_entangled_space();
            events::emit_obj(EventKind::Entangle, r, self.h);
            self.retained.insert(r.block());
            self.out.retained_entangled_bytes += obj.size_bytes() as u64;
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
        // the source fields must be repaired after the move.
        self.phase = "remset";
        let remset = self.info.with(|s| std::mem::take(&mut s.remset));
        let mut kept: Vec<RemsetEntry> = Vec::new();
        for entry in remset {
            if self.store.blocks().try_get(entry.src.block()).is_none() {
                continue; // source block reclaimed: entry is stale
            }
            let src = self.store.resolve(entry.src);
            if self.in_heap(src) {
                // The source merged into this very heap; the pointer is
                // now internal and ordinary tracing covers it.
                continue;
            }
            let src_h = self.store.handle(src);
            let idx = entry.field as usize;
            if src_h.header().is_dead() || idx >= src_h.len() {
                continue;
            }
            loop {
                let old_word = src_h.field_word(idx);
                let Some(t) = old_word.pointer() else { break };
                // The raw target decides membership: a target already
                // evacuated through another path must still have its
                // source field repaired to the forwarded location, or the
                // field dangles once from-space blocks are freed.
                if !self.in_heap(t) {
                    break; // points outside this heap: entry is stale
                }
                let nt = self.forward(t);
                if nt != t {
                    let repair = src_h
                        .obj()
                        .cas_field(idx, old_word.decode(), Value::Obj(nt));
                    if repair.is_err() {
                        continue; // concurrent write: re-read and retry
                    }
                    events::emit_obj(EventKind::RemsetRepair, src, entry.field);
                }
                // Repaired, or shielded in place: either way still a live
                // down-pointer into this heap.
                kept.push(RemsetEntry {
                    src,
                    field: entry.field,
                });
                break;
            }
        }
        self.info.with(|s| s.remset.append(&mut kept));

        // Transitive scan of evacuated objects.
        self.phase = "scan";
        while let Some(nr) = self.scan.pop() {
            let hd = self.store.handle(nr);
            if !hd.kind().is_traced() {
                continue;
            }
            for i in 0..hd.len() {
                let Some(t) = hd.field_word(i).pointer() else {
                    continue;
                };
                let Some(rt) = self.store.try_resolve(t) else {
                    panic!(
                        "scan: {nr} (kind {:?}, len {}, copied into block {} owner {}) field {i} -> dangling {t}",
                        hd.kind(),
                        hd.len(),
                        nr.block(),
                        self.store.blocks().get(nr.block()).owner(),
                    );
                };
                let nt = self.forward_one(rt);
                if nt != t {
                    hd.set_field(i, Value::Obj(nt));
                }
            }
        }
    }

    /// [`Lgc::forward_one`] of `r`'s current location.
    fn forward(&mut self, r: ObjRef) -> ObjRef {
        match self.store.try_resolve(r) {
            Some(r) => self.forward_one(r),
            None => panic!(
                "forward_one[{}]: unresolvable {r} (block {} freed) while collecting heap {}",
                self.phase,
                r.block(),
                self.h
            ),
        }
    }

    /// Evacuates the resolved object `r` unless it is foreign (not
    /// collected now) or shielded (non-moving), and returns where it lives
    /// now. `r` was just resolved and only this task forwards its heap's
    /// objects, so an object reaching the copy is unforwarded, and the
    /// forwarding word the copy leaves is all a later edge needs.
    fn forward_one(&mut self, r: ObjRef) -> ObjRef {
        if !self.in_heap(r) || self.closure.contains(&r) {
            return r;
        }
        let hd = self.store.handle(r);
        let header = hd.header();
        debug_assert!(!header.is_forwarded(), "copying forwarded {r}");
        if header.is_dead() {
            // A reachable-but-swept object is a collector bug. Count it
            // unconditionally — release builds compile out the assertion
            // below but still surface the corruption through the
            // `lgc_dead_traced` stat — then log the full context, dump
            // the event trace, and die in debug builds.
            self.store.stats().add(Counter::lgc_dead_traced, 1);
            eprintln!(
                "mpl-gc ERROR: LGC({})[{}] traced a dead object {r}: kind {:?} len {} suspect {} entspace {} block(owner {} entangled {} pinned_count {})",
                self.h,
                self.phase,
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
        self.fields.clear();
        self.fields.extend(hd.obj().field_words());
        let nr = self
            .tospace
            .alloc(header.kind(), &self.fields, hd.is_suspect());
        match hd.obj().try_forward(nr) {
            Ok(()) => {
                self.out.copied_bytes += hd.size_bytes() as u64;
                self.out.copied_objects += 1;
                self.scan.push(nr);
                nr
            }
            Err(hdr) => {
                abandon_copy(self.store, nr);
                if hdr.is_forwarded() {
                    // Another collector claimed it first (cannot happen
                    // for a task-owned heap, but be defensive).
                    return hd.forward_ref().expect("forwarded header without fwd ref");
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

    /// Phase C: frees or retires every from-space block with nothing
    /// shielded or pinned in it, dead-marks the unshielded garbage of the
    /// rest, and installs to-space plus the retained blocks as the heap's
    /// block list.
    fn reclaim(&mut self, graveyard: &Graveyard, free_now: bool) {
        let store = self.store;
        // Forwarding-chain path compression: retained blocks keep
        // forwarded entries alive indefinitely (entangled readers resolve
        // lazily), so every forwarding word must point at the *final*
        // location before the intermediate to-space blocks it may pass
        // through are reclaimed — this or any future cycle. Blocks that
        // forwarded nothing (the `forwarded_count` gauge is zero) are
        // skipped without a walk.
        for &bid in &self.from_blocks {
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
        let mut retained_blocks = Vec::new();
        for &bid in &self.from_blocks {
            let Some(block) = store.blocks().try_get(bid) else {
                continue;
            };
            if !self.retained.contains(&bid) && block.pinned_count() == 0 {
                // Clean line map (nothing pinned, nothing shielded): the
                // whole block is garbage or evacuated — freed wholesale,
                // no walk.
                self.out.freed_blocks += 1;
                if free_now {
                    store.blocks().free(bid);
                } else {
                    graveyard.retire(bid);
                }
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
                        events::emit(EventKind::DeadMark, bid, off, DEAD_BY_LGC);
                        block.sub_live_bytes(obj.size_bytes());
                    }
                }
            }
        }
        self.out.retained_blocks = retained_blocks.len();

        let retained_live: u64 = self
            .retained
            .iter()
            .filter_map(|&b| store.blocks().try_get(b))
            .map(|b| b.live_bytes() as u64)
            .sum();
        self.out.reclaimed_bytes = self
            .from_live
            .saturating_sub(self.out.copied_bytes)
            .saturating_sub(retained_live);

        // Install the new block list: to-space first, then the retained
        // blocks; the per-class to-space bump blocks become the heap's
        // allocation blocks.
        let mut blocks: Vec<u32> = self.tospace.blocks.iter().map(|b| b.id()).collect();
        blocks.extend(retained_blocks);
        let alloc_blocks = self
            .tospace
            .current
            .map(|cur| cur.map(|i| Arc::clone(&self.tospace.blocks[i])));
        self.info.with(|s| {
            s.blocks = blocks;
            s.alloc_blocks = alloc_blocks;
        });

        let out = self.out;
        store.stats().on_lgc(
            out.copied_bytes,
            out.reclaimed_bytes,
            out.retained_entangled_bytes,
        );
        // Mirror the global live-bytes adjustment onto the tenant budget
        // this heap is accounted against, if any.
        if let Some(budget) = self.info.budget() {
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
        let q = s.alloc_values(r, ObjKind::Tuple, &[Value::Obj(back_home)]);
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
