//! The heap checker: one walk over the store, parameterised by the
//! [`Phase`] it runs at, that turns the collectors' correctness
//! propositions into code. The phase audits ([`mod@crate::audit`]) run it at
//! every collector phase boundary; `Runtime::assert_heap_sound` runs it
//! at a quiescent point.
//!
//! | phase | shield | dangling | slow | dead-reachable | quiescent | traversal roots |
//! |---|---|---|---|---|---|---|
//! | `LgcShield`, `LgcEvacuate` | ✓ | | | | | — |
//! | `LgcReclaim` | ✓ | ✓ | ✓ | ✓ | | pin bits |
//! | `CgcSweep`, `GraveyardReap` | | ✓ | ✓ | ✓ | | pin bits |
//! | `Quiescent` | | ✓ | ✓ | ✓ | ✓ | pin bits + open slots' root stacks |
//!
//! * **Shield** — every member of a local collection's shield closure is
//!   tagged entangled-space and unmoved (concurrent readers never see it
//!   move), and alive unless the concurrent collector reclaimed it.
//! * **Dangling** — no pointer field of a live traced object leads,
//!   through forwarding words, into a freed block. A hit is re-confirmed
//!   against the field's current word: a mutator that overwrote the field
//!   since it was read may have let its old target's block be freed.
//! * **Slow** — a live traced object whose field points into a heap that
//!   is not an ancestor-or-self of its own carries the barrier's `slow`
//!   bit, unless the target is pinned at a level no deeper than the two
//!   heaps' LCA (the allocation barrier's edges: the pin covers every
//!   reader). Otherwise a fast-tier read hands out a pointer into another
//!   heap unpinned — what a join that ended a `down` mark too early, or
//!   a `cross` mark at all, would leave. A hit is re-confirmed after
//!   reading the bit: the field still holds the word and the heaps are
//!   still so related, so a racing write (which marks before it stores)
//!   or join (which merges before it clears) is not reported.
//! * **Dead-reachable** — no dead-marked object is reachable from the
//!   roots through current fields, crossing heap boundaries. This catches
//!   a reclaim mis-mark at the marking site, not cycles later when a
//!   trace walks into the corpse. Each edge to a corpse is re-confirmed
//!   against the parent's current field, so a mutator racing the check
//!   cannot produce a false positive; the report carries the path.
//! * **Quiescent** — pins are released at the LCA join, so at a quiescent
//!   point no live object carries a pin, every block's pin count matches
//!   its headers (zero), the `pinned_bytes` gauge is zero, and no local
//!   collection ever traced a dead object (`lgc_dead_traced` is zero).
//!   Every allocation region has settled, too: no published object starts
//!   at or beyond its block's allocated extent, and each block's live
//!   bytes equal the summed size of its objects neither dead nor forwarded.
//!
//! One pass over the live blocks checks every field and collects the
//! traversal roots from the header pin bits, never from the per-block pin
//! counters, so a drifted counter cannot hide a root. Mid-collection
//! checks run while other tasks mutate their root stacks; at a quiescent
//! point every slot is paused, so the open slots' stacks are roots too.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mpl_heap::{Block, Counter, ObjRef, Store};

use crate::cgc::CgcState;
use crate::lgc::IdSet;

/// A local collection as the checker sees it.
#[derive(Clone, Copy)]
pub struct Shield<'a> {
    /// The collected heap.
    pub heap: u32,
    /// This cycle's shield: the objects the collection keeps in place.
    pub closure: &'a IdSet<ObjRef>,
}

impl fmt::Debug for Shield<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "heap {}, {} shielded", self.heap, self.closure.len())
    }
}

/// Where a check runs: decides which rules apply and which roots the
/// dead-reachability traversal starts from (see the module table).
#[derive(Clone, Copy, Debug)]
pub enum Phase<'a> {
    /// After a local collection's shield (Phase A).
    LgcShield(Shield<'a>),
    /// After a local collection's evacuation and shield re-take.
    LgcEvacuate(Shield<'a>),
    /// After a local collection's reclaim (Phase C).
    LgcReclaim(Shield<'a>),
    /// At the end of a concurrent collection.
    CgcSweep,
    /// After a reclaim freed retired blocks, while other slots may run.
    GraveyardReap,
    /// No run in flight and no collection running: every slot is paused.
    Quiescent(&'a CgcState),
}

/// Checks the store at `phase` and returns human-readable issues; empty
/// certifies the heap. Counts the objects it visits into the audit
/// layer's `audit_objects_checked`.
pub fn check(store: &Store, phase: Phase<'_>) -> Vec<String> {
    let (shield, walk, quiescent) = match phase {
        Phase::LgcShield(s) | Phase::LgcEvacuate(s) => (Some(s), false, None),
        Phase::LgcReclaim(s) => (Some(s), true, None),
        Phase::CgcSweep | Phase::GraveyardReap => (None, true, None),
        Phase::Quiescent(state) => (None, true, Some(state)),
    };
    let mut issues = Vec::new();
    let mut visited = shield.map_or(0, |s| check_shield(store, s.closure, &mut issues));
    if walk {
        let mut roots = Vec::new();
        for block in store.blocks().live_blocks() {
            let mut pins = 0;
            let mut live = 0;
            let mut unsettled = None;
            for (off, obj) in block.objects() {
                visited += 1;
                if off as usize >= block.allocated() {
                    unsettled.get_or_insert(off);
                }
                let h = obj.header();
                if h.is_dead() || h.is_forwarded() {
                    continue;
                }
                live += obj.size_bytes();
                let r = ObjRef::new(block.id(), off);
                if h.is_pinned() {
                    pins += 1;
                    roots.push(r);
                    if quiescent.is_some() {
                        issues.push(format!(
                            "leaked pin: {r} still pinned at level {}",
                            h.pin_level()
                        ));
                    }
                }
                if !h.kind().is_traced() {
                    continue;
                }
                for (i, w) in obj.field_words().enumerate() {
                    let Some(to) = w.pointer() else { continue };
                    // Reclaims run while other slots mutate: a field
                    // overwritten since it was read may have named a
                    // block freed since. Only a field still holding the
                    // word dangles, or lacks a mark. And a retired block
                    // holds only garbage and forwarding words, freed block
                    // by block by the reap that frees its neighbours.
                    match chase(store, to) {
                        Err(freed) => {
                            if obj.field_word(i) != w || block.is_retired() {
                                continue;
                            }
                            issues.push(format!(
                                "dangling: {r} field {i} -> {to} -> block {freed} (freed; src owner {}, entangled {}, {h:?})",
                                block.owner(),
                                block.is_entangled(),
                            ));
                        }
                        Ok((t, t_block)) => {
                            if block.is_retired()
                                || uncovered(store, &block, t, &t_block).is_none()
                                || obj.is_slow()
                                || obj.field_word(i) != w
                            {
                                continue;
                            }
                            let Some((home, there)) = uncovered(store, &block, t, &t_block) else {
                                continue;
                            };
                            issues.push(format!(
                                "not slow: {r} field {i} -> {t} points into heap {there}, off the path of its own heap {home}, and {r} is not in the barrier's slow set ({h:?})",
                            ));
                        }
                    }
                }
            }
            if quiescent.is_none() {
                continue;
            }
            if block.pinned_count() != pins {
                issues.push(format!(
                    "pin count: block {} counts {} pins, its headers carry {pins}",
                    block.id(),
                    block.pinned_count(),
                ));
            }
            if let Some(off) = unsettled {
                issues.push(format!(
                    "unsettled region: b{}w{off} starts at or beyond the block's allocated extent {}",
                    block.id(),
                    block.allocated(),
                ));
            }
            if block.live_bytes() != live {
                issues.push(format!(
                    "live bytes: block {} counts {}, its live objects hold {live}",
                    block.id(),
                    block.live_bytes(),
                ));
            }
        }
        if let Some(state) = quiescent {
            roots.extend(state.root_packets().concat());
            for counter in [Counter::pinned_bytes, Counter::lgc_dead_traced] {
                let v = store.stats().get(counter);
                if v != 0 {
                    issues.push(format!("quiescent: {counter:?} reads {v}"));
                }
            }
        }
        visited += check_dead_reachable(store, roots, &mut issues);
    }
    crate::audit::OBJECTS_CHECKED.fetch_add(visited, Ordering::Relaxed);
    issues
}

/// Follows `r` through forwarding words to the object it denotes and
/// returns it with its block; `Err` names the first freed block on the way.
fn chase(store: &Store, mut r: ObjRef) -> Result<(ObjRef, Arc<Block>), u32> {
    loop {
        let block = store.blocks().try_get(r.block()).ok_or(r.block())?;
        match block.try_get(r.word()).and_then(|o| o.forward_ref()) {
            Some(next) => r = next,
            None => return Ok((r, block)),
        }
    }
}

/// The slow rule's test of one edge from an object in `block` to `t` in
/// `t_block`: the canonical heaps of both ends if the target's heap is
/// not an ancestor-or-self of the source's and no pin covers the edge.
fn uncovered(store: &Store, block: &Block, t: ObjRef, t_block: &Block) -> Option<(u32, u32)> {
    let heaps = store.heaps();
    let (home, there) = (heaps.find(block.owner()), heaps.find(t_block.owner()));
    if home == there {
        return None;
    }
    // Two forests (the roots of distinct runs or sessions) have no
    // common ancestor, and the barrier relates no access across them:
    // the rule leaves such an edge alone.
    let lca = heaps.common_depth(heaps.label(home), heaps.label(there))?;
    if lca == heaps.info(there).depth() {
        return None; // an ancestor-or-self
    }
    let covered = t_block
        .try_get(t.word())
        .map(|o| o.header())
        .is_some_and(|h| h.is_pinned() && h.pin_level() <= lca);
    (!covered).then_some((home, there))
}

/// The shield rule; returns the number of members visited. The CGC sweep
/// runs concurrently with local collections and may kill members — and
/// free their blocks — that its mark proved unreachable: a pin outlives
/// the reader's last reference (it ends only at the join), so the shield
/// conservatively keeps pinned garbage the sweep then rightly takes.
/// Nothing else kills a member or frees its block before the local
/// collection ends, so a member in a freed block, or dead in an entangled
/// one (the only kind the sweep visits), is the sweep's verdict; whether
/// that verdict was right is the dead-reachable rule's to say.
fn check_shield(store: &Store, closure: &IdSet<ObjRef>, issues: &mut Vec<String>) -> u64 {
    for &r in closure {
        let Some(block) = store.blocks().try_get(r.block()) else {
            continue; // freed by the CGC sweep
        };
        let Some(obj) = block.try_get(r.word()) else {
            issues.push(format!("shield: member {r} names an empty word"));
            continue;
        };
        let h = obj.header();
        if h.is_dead() {
            if !block.is_entangled() {
                issues.push(format!("shield: member {r} is dead-marked"));
            }
        } else if h.is_forwarded() {
            issues.push(format!("shield: member {r} was moved"));
        } else if !h.in_entangled_space() {
            issues.push(format!("shield: member {r} lost its entangled-space tag"));
        }
    }
    closure.len() as u64
}

/// The dead-reachable rule: traverses from `roots` and reports every
/// dead-marked object reached through a still-present edge. Returns the
/// number of live objects visited.
fn check_dead_reachable(store: &Store, roots: Vec<ObjRef>, issues: &mut Vec<String>) -> u64 {
    // Each object reached, with the edge that first reached it (`None`: a root).
    let mut came_from: HashMap<ObjRef, Option<(ObjRef, usize)>> = HashMap::new();
    let mut stack: Vec<_> = roots.into_iter().map(|r| (None, r)).collect();
    let mut visited = 0;
    while let Some((from, r)) = stack.pop() {
        let Ok((r, block)) = chase(store, r) else {
            continue; // a freed block: the dangling rule's to report
        };
        let Entry::Vacant(slot) = came_from.entry(r) else {
            continue;
        };
        slot.insert(from);
        let Some(obj) = block.try_get(r.word()) else {
            continue;
        };
        let header = obj.header();
        if !header.is_dead() {
            visited += 1;
            if header.kind().is_traced() {
                let fields = obj.field_words().enumerate();
                stack.extend(fields.filter_map(|(i, w)| Some((Some((r, i)), w.pointer()?))));
            }
            continue;
        }
        // A dead root has no edge to re-confirm: a pin root was alive when
        // the pass read it, so a concurrent join unpinned it and its
        // owner's collection then reclaimed it.
        let Some((src, field)) = from else {
            continue;
        };
        // A mutator may have overwritten the edge since we read it, making
        // the old target legitimately collectable.
        let current = store
            .blocks()
            .try_get(src.block())
            .and_then(|b| b.try_get(src.word())?.field_words().nth(field)?.pointer());
        if current.and_then(|t| chase(store, t).ok()).map(|(t, _)| t) == Some(r) {
            issues.push(format!(
                "dead-reachable: {r} is dead-marked but reachable from a root \
                 (block owner {}, {header:?})\n  path: {}",
                block.owner(),
                describe_path(store, &came_from, r),
            ));
        }
    }
    visited
}

/// Renders the discovery path from a root to `cur` for a failure report:
/// each hop with its block owner and header, root first.
fn describe_path(
    store: &Store,
    came_from: &HashMap<ObjRef, Option<(ObjRef, usize)>>,
    mut cur: ObjRef,
) -> String {
    let mut hops: Vec<String> = Vec::new();
    for _ in 0..64 {
        let what = store.blocks().try_get(cur.block()).and_then(|b| {
            let h = b.try_get(cur.word())?.header();
            Some(format!("owner {} {h:?}", b.owner()))
        });
        let what = what.unwrap_or_else(|| "gone".to_string());
        let Some((src, field)) = came_from.get(&cur).copied().flatten() else {
            hops.push(format!("{cur} ({what}) [root]"));
            break;
        };
        hops.push(format!("{cur} ({what}) <- {src}.{field}"));
        cur = src;
    }
    hops.reverse();
    hops.join("\n        ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{audit, counters, disable, enable};
    use mpl_heap::{ObjKind, StoreConfig, Value, Word};

    /// Plants a state, or a defect, into a fresh store, slot registry and
    /// shield closure.
    type Plant = fn(&Store, &CgcState, &mut IdSet<ObjRef>);

    /// Per phase, in [`phases`] order: the substrings the phase's issues
    /// must contain, one issue each. Empty: the phase passes.
    type Expect = [&'static [&'static str]; 6];

    const OK: &[&str] = &[];
    const LEAK: &[&str] = &["leaked pin", "pinned_bytes"];
    const DEAD: &[&str] = &["dead-reachable"];
    const DANGLE: &[&str] = &["dangling"];
    const UNTAGGED: &[&str] = &["entangled-space tag"];
    const KILLED: &[&str] = &["dead-marked"];
    const FAST: &[&str] = &["not slow"];

    fn phases<'a>(state: &'a CgcState, closure: &'a IdSet<ObjRef>) -> [Phase<'a>; 6] {
        let s = Shield { heap: 0, closure };
        [
            Phase::LgcShield(s),
            Phase::LgcEvacuate(s),
            Phase::LgcReclaim(s),
            Phase::CgcSweep,
            Phase::GraveyardReap,
            Phase::Quiescent(state),
        ]
    }

    fn tuple(s: &Store, h: u32, fields: &[Value]) -> ObjRef {
        s.alloc_values(h, ObjKind::Tuple, fields)
    }

    /// Dead-marks `r` and takes its bytes out of its block, as every
    /// collector kill does.
    fn kill(s: &Store, r: ObjRef) {
        let h = s.handle(r);
        h.obj().set_dead();
        h.block().sub_live_bytes(h.size_bytes());
    }

    /// A pinned holder whose field leads to a dead-marked victim: the
    /// historical reclaim mis-mark, minus the race.
    fn mismark(s: &Store) -> ObjRef {
        let h = s.new_root_heap();
        let victim = tuple(s, h, &[Value::Int(7)]);
        let holder = tuple(s, h, &[Value::Obj(victim)]);
        s.pin(holder, 0);
        kill(s, victim);
        holder
    }

    /// Three shielded members tagged into the entangled space; the first
    /// is dead-marked when `dead`.
    fn shielded(s: &Store, closure: &mut IdSet<ObjRef>, dead: bool) -> ObjRef {
        let h = s.new_root_heap();
        for i in 0..3 {
            let r = tuple(s, h, &[Value::Int(i)]);
            s.handle(r).obj().set_entangled_space();
            closure.insert(r);
        }
        let first = *closure.iter().min().unwrap();
        if dead {
            kill(s, first);
        }
        first
    }

    #[test]
    fn every_planted_state_fails_exactly_the_phases_whose_rules_see_it() {
        let cases: [(&str, Plant, Expect); 20] = [
            (
                "clean_heap_validates",
                |s, _, _| {
                    let h = s.new_root_heap();
                    let a = tuple(s, h, &[Value::Int(1)]);
                    tuple(s, h, &[Value::Obj(a)]);
                },
                [OK; 6],
            ),
            (
                "clean_store_has_no_dead_reachable",
                |s, _, _| {
                    let h = s.new_root_heap();
                    let a = tuple(s, h, &[Value::Int(1)]);
                    s.pin(tuple(s, h, &[Value::Obj(a)]), 0);
                },
                [OK, OK, OK, OK, OK, LEAK],
            ),
            (
                "crosscheck_flags_a_forced_mismark",
                |s, _, _| {
                    mismark(s);
                },
                [
                    OK,
                    OK,
                    DEAD,
                    DEAD,
                    DEAD,
                    &["leaked pin", "pinned_bytes", "dead-reachable"],
                ],
            ),
            (
                "shield_check_flags_a_moved_member",
                |s, _, closure| {
                    // Never tagged into the entangled space: the shield is broken.
                    closure.insert(tuple(s, s.new_root_heap(), &[Value::Int(1)]));
                },
                [UNTAGGED, UNTAGGED, UNTAGGED, OK, OK, OK],
            ),
            (
                "shield_check_leaves_the_sweeps_reclamation_alone: intact",
                |s, _, closure| {
                    shielded(s, closure, false);
                },
                [OK; 6],
            ),
            (
                "shield_check_leaves_the_sweeps_reclamation_alone: dead in an unswept block",
                |s, _, closure| {
                    shielded(s, closure, true);
                },
                [KILLED, KILLED, KILLED, OK, OK, OK],
            ),
            (
                "shield_check_leaves_the_sweeps_reclamation_alone: swept",
                |s, _, closure| {
                    let first = shielded(s, closure, true);
                    s.blocks().get(first.block()).set_entangled(true);
                },
                [OK; 6],
            ),
            (
                "shield_check_leaves_the_sweeps_reclamation_alone: block freed",
                |s, _, closure| {
                    let first = shielded(s, closure, true);
                    s.blocks().get(first.block()).set_entangled(true);
                    s.blocks().free(first.block());
                },
                [OK; 6],
            ),
            (
                "detects_a_planted_dangle",
                |s, _, _| {
                    let h = s.new_root_heap();
                    // Five fields: a larger size class than the holder, so the
                    // two objects land in different blocks and only `a`'s is freed.
                    let a = tuple(s, h, &[Value::Int(1); 5]);
                    let holder = tuple(s, h, &[Value::Obj(a)]);
                    assert_ne!(a.block(), holder.block());
                    s.blocks().free(a.block()); // a buggy collection
                },
                [OK, OK, DANGLE, DANGLE, DANGLE, DANGLE],
            ),
            (
                "audit_phase_counts_runs",
                |s, _, _| {
                    tuple(s, s.new_root_heap(), &[Value::Int(1)]);
                },
                [OK; 6],
            ),
            (
                "leaked_pin_fails_quiescence",
                |s, _, _| {
                    // A sibling's pin at the LCA depth, never joined.
                    let (left, _right) = s.fork_heaps(s.new_root_heap());
                    s.pin(tuple(s, left, &[Value::Int(1)]), 0);
                },
                [OK, OK, OK, OK, OK, LEAK],
            ),
            (
                "drifted_pin_count_fails_quiescence",
                |s, _, _| {
                    let a = tuple(s, s.new_root_heap(), &[Value::Int(1)]);
                    s.blocks().get(a.block()).add_pinned(1);
                },
                [OK, OK, OK, OK, OK, &["pin count"]],
            ),
            (
                "pin_bits_seed_the_roots_whatever_the_count",
                |s, _, _| {
                    let holder = mismark(s);
                    s.blocks().get(holder.block()).add_pinned(-1);
                },
                [
                    OK,
                    OK,
                    DEAD,
                    DEAD,
                    DEAD,
                    &["leaked pin", "pin count", "pinned_bytes", "dead-reachable"],
                ],
            ),
            (
                "dead_traced_fails_quiescence",
                |s, _, _| {
                    s.stats().add(Counter::lgc_dead_traced, 1);
                },
                [OK, OK, OK, OK, OK, &["lgc_dead_traced"]],
            ),
            (
                "slot_roots_seed_quiescence_only",
                |s, state, _| {
                    // Reachable only from an open slot's root stack: a root of
                    // a quiescent runtime, not of a collector phase.
                    let h = s.new_root_heap();
                    let victim = tuple(s, h, &[Value::Int(7)]);
                    let holder = tuple(s, h, &[Value::Obj(victim)]);
                    state.open_slot().roots.push(holder);
                    kill(s, victim);
                },
                [OK, OK, OK, OK, OK, DEAD],
            ),
            (
                "unsettled_region_fails_quiescence",
                |s, _, _| {
                    // An allocator that never let go of its region: the
                    // object is published, the block's cursor and live
                    // bytes never caught up.
                    let mut region = s.region(s.new_root_heap(), 3);
                    region.alloc(ObjKind::Tuple, &[Word::UNIT]).unwrap();
                },
                [OK, OK, OK, OK, OK, &["unsettled region", "live bytes"]],
            ),
            (
                "a_down_pointer_from_a_fast_object_fails_every_walk",
                |s, _, _| {
                    // A join that ended the holder's `down` mark while its
                    // target's heap was still below the holder's.
                    let h = s.new_root_heap();
                    let (l, _r) = s.fork_heaps(h);
                    let deep = tuple(s, l, &[Value::Int(1)]);
                    s.alloc_values(h, ObjKind::Ref, &[Value::Obj(deep)]);
                },
                [OK, OK, FAST, FAST, FAST, FAST],
            ),
            (
                "a_marked_down_pointer_and_a_cross_pointer_to_a_pin_pass",
                |s, _, _| {
                    let h = s.new_root_heap();
                    let (l, r) = s.fork_heaps(h);
                    let deep = tuple(s, l, &[Value::Int(1)]);
                    let holder = s.alloc_values(h, ObjKind::Ref, &[Value::Obj(deep)]);
                    s.handle(holder).obj().mark_down();
                    // The allocation barrier's edge: pinned at the LCA.
                    let remote = tuple(s, r, &[Value::Int(2)]);
                    s.pin(remote, 0);
                    tuple(s, l, &[Value::Obj(remote)]);
                },
                [OK, OK, OK, OK, OK, LEAK],
            ),
            (
                "a_cross_pointer_pinned_too_deep_fails_every_walk",
                |s, _, _| {
                    // Pinned for readers below `r` only: a reader of the
                    // holder in `l` is not covered.
                    let h = s.new_root_heap();
                    let (l, r) = s.fork_heaps(h);
                    let remote = tuple(s, r, &[Value::Int(2)]);
                    s.pin(remote, 1);
                    tuple(s, l, &[Value::Obj(remote)]);
                },
                [
                    OK,
                    OK,
                    FAST,
                    FAST,
                    FAST,
                    &["not slow", "leaked pin", "pinned_bytes"],
                ],
            ),
            (
                "skipped_live_bytes_settle_fails_quiescence",
                |s, _, _| {
                    // The cursor settled; the live-bytes add did not.
                    let r = tuple(s, s.new_root_heap(), &[Value::Int(1)]);
                    s.blocks().get(r.block()).sub_live_bytes(24);
                },
                [OK, OK, OK, OK, OK, &["live bytes"]],
            ),
        ];
        for (name, plant, expect) in cases {
            let s = Store::new(StoreConfig {
                block_words: 12,
                ..Default::default()
            });
            let state = CgcState::new();
            let mut closure = IdSet::default();
            plant(&s, &state, &mut closure);
            for (phase, want) in phases(&state, &closure).into_iter().zip(expect) {
                let issues = check(&s, phase);
                assert!(
                    issues.len() == want.len()
                        && want.iter().all(|w| issues.iter().any(|i| i.contains(w))),
                    "{name} at {phase:?}: want {want:?}, got {issues:?}"
                );
                if want.is_empty() {
                    // The audit runs the same check and counts the run.
                    enable();
                    let before = counters().audits_run;
                    audit(&s, phase);
                    assert!(counters().audits_run > before, "{name} at {phase:?}");
                    disable();
                }
            }
        }
    }
}
