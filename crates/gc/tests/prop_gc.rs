//! Property tests for the collectors: random object graphs, random pin
//! sets, random root subsets — reachability, shielding, and accounting
//! invariants must hold for every instance.

use proptest::prelude::*;

use mpl_gc::{collect_entangled, collect_local, CgcState, Graveyard};
use mpl_heap::{ObjKind, ObjRef, RemsetEntry, Store, StoreConfig, Value};

/// Specification of a random heap graph: `edges[i]` lists the children of
/// object `i` among objects with smaller index (guaranteeing a DAG for
/// easy oracle traversal; cycles are covered by dedicated unit tests).
#[derive(Clone, Debug)]
struct GraphSpec {
    edges: Vec<Vec<usize>>,
    roots: Vec<usize>,
    pins: Vec<usize>,
}

fn graph_spec(max_nodes: usize) -> impl Strategy<Value = GraphSpec> {
    (2..max_nodes)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec(proptest::collection::vec(0..n, 0..4), n);
            let roots = proptest::collection::vec(0..n, 1..6);
            let pins = proptest::collection::vec(0..n, 0..4);
            (Just(n), edges, roots, pins)
        })
        .prop_map(|(n, mut edges, roots, pins)| {
            // Make edges point only at strictly smaller indices.
            for (i, es) in edges.iter_mut().enumerate() {
                es.retain_mut(|e| {
                    *e %= n.max(1);
                    *e < i
                });
            }
            GraphSpec { edges, roots, pins }
        })
}

/// Builds the graph in a fresh child heap; returns (store, root heap,
/// child heap, objects).
fn build(spec: &GraphSpec) -> (Store, u32, u32, Vec<ObjRef>) {
    let s = Store::new(StoreConfig {
        block_words: 24,
        ..Default::default()
    });
    let root_heap = s.new_root_heap();
    let (l, _r) = s.fork_heaps(root_heap);
    let mut objs = Vec::with_capacity(spec.edges.len());
    for (i, es) in spec.edges.iter().enumerate() {
        let mut fields: Vec<Value> = es.iter().map(|&e| Value::Obj(objs[e])).collect();
        fields.push(Value::Int(i as i64)); // identity payload, last field
        objs.push(s.alloc_values(l, ObjKind::Tuple, &fields));
        // Interleave garbage to spread objects over blocks.
        s.alloc_values(l, ObjKind::Tuple, &[Value::Unit]);
    }
    (s, root_heap, l, objs)
}

/// Oracle: payloads of all objects reachable from `starts`.
fn reachable_payloads(spec: &GraphSpec, starts: &[usize]) -> std::collections::BTreeSet<i64> {
    let mut seen = std::collections::BTreeSet::new();
    let mut stack: Vec<usize> = starts.to_vec();
    while let Some(i) = stack.pop() {
        if !seen.insert(i as i64) {
            continue;
        }
        for &e in &spec.edges[i] {
            stack.push(e);
        }
    }
    seen
}

/// Walks the live graph from a root and collects payloads.
fn walk(s: &Store, r: ObjRef) -> std::collections::BTreeSet<i64> {
    let mut seen = std::collections::BTreeSet::new();
    let mut visited = std::collections::HashSet::new();
    let mut stack = vec![s.resolve(r)];
    while let Some(r) = stack.pop() {
        if !visited.insert(r) {
            continue;
        }
        let h = s.handle(r);
        assert!(!h.header().is_dead(), "reached a swept object");
        let n = h.len();
        seen.insert(h.field(n - 1).expect_int());
        for i in 0..n - 1 {
            if let Value::Obj(c) = h.field(i) {
                stack.push(s.resolve(c));
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LGC preserves exactly the reachable payloads, for any graph, root
    /// subset, and pin set.
    #[test]
    fn lgc_preserves_reachability(spec in graph_spec(24)) {
        let (s, _root, l, objs) = build(&spec);
        for &p in &spec.pins {
            s.pin(objs[p], 0);
        }
        let mut roots: Vec<ObjRef> = spec.roots.iter().map(|&i| objs[i]).collect();
        let g = Graveyard::new();
        collect_local(&s, l, &mut roots, &g, true);

        // Reachability from each root matches the oracle.
        for (k, &ri) in spec.roots.iter().enumerate() {
            let expect = reachable_payloads(&spec, &[ri]);
            prop_assert_eq!(walk(&s, roots[k]), expect);
        }
    }

    /// Pinned objects and everything reachable from them stay at their
    /// original addresses across a collection.
    #[test]
    fn lgc_never_moves_pin_closures(spec in graph_spec(24)) {
        let (s, _root, l, objs) = build(&spec);
        for &p in &spec.pins {
            s.pin(objs[p], 0);
        }
        let shielded = reachable_payloads(&spec, &spec.pins);
        let mut roots: Vec<ObjRef> = spec.roots.iter().map(|&i| objs[i]).collect();
        let g = Graveyard::new();
        collect_local(&s, l, &mut roots, &g, true);
        for (i, &r) in objs.iter().enumerate() {
            if shielded.contains(&(i as i64)) {
                prop_assert_eq!(s.resolve(r), r, "object {} must not move", i);
                prop_assert!(s.handle(r).header().in_entangled_space());
            }
        }
    }

    /// A second collection without new allocation reclaims nothing new
    /// and leaves the graph identical (idempotence).
    #[test]
    fn lgc_is_idempotent(spec in graph_spec(16)) {
        let (s, _root, l, objs) = build(&spec);
        let mut roots: Vec<ObjRef> = spec.roots.iter().map(|&i| objs[i]).collect();
        let g = Graveyard::new();
        collect_local(&s, l, &mut roots, &g, true);
        let first: Vec<_> = spec
            .roots
            .iter()
            .enumerate()
            .map(|(k, _)| walk(&s, roots[k]))
            .collect();
        let out2 = collect_local(&s, l, &mut roots, &g, true);
        prop_assert_eq!(out2.reclaimed_bytes, 0, "no garbage appears from thin air");
        for (k, expect) in first.into_iter().enumerate() {
            prop_assert_eq!(walk(&s, roots[k]), expect);
        }
    }

    /// CGC sweeps exactly the unreachable part of the entangled space:
    /// reachable pinned objects survive, unreachable ones die.
    #[test]
    fn cgc_sweeps_only_unreachable_entangled(spec in graph_spec(20)) {
        let (s, _root, l, objs) = build(&spec);
        for &p in &spec.pins {
            s.pin(objs[p], 0);
        }
        // Shield via LGC with no task roots: only pin closures survive in
        // place; everything else is reclaimed.
        let mut no_roots: Vec<ObjRef> = Vec::new();
        let g = Graveyard::new();
        collect_local(&s, l, &mut no_roots, &g, true);

        // Now run CGC with a root subset of the pinned objects.
        let keep: Vec<usize> = spec.pins.iter().copied().take(1).collect();
        let cgc_roots: Vec<ObjRef> = keep.iter().map(|&i| objs[i]).collect();
        let state = CgcState::new();
        let slot = state.open_slot();
        for &r in &cgc_roots {
            slot.roots.push(r);
        }
        collect_entangled(&s, &state);

        let live = reachable_payloads(&spec, &keep);
        for &p in &spec.pins {
            let r = objs[p];
            // The block may have been freed outright if everything in it
            // died — that counts as swept.
            let dead = match s.blocks().try_get(r.block()) {
                None => true,
                Some(c) => c.try_get(r.word()).is_none_or(|o| o.header().is_dead()),
            };
            if live.contains(&(p as i64)) {
                prop_assert!(!dead, "reachable pin survives");
            } else {
                prop_assert!(dead, "unreachable pin swept");
            }
        }
        // Survivors' graphs stay intact.
        for r in cgc_roots {
            walk(&s, r);
        }
    }

    /// Parallel (work-packet, multi-worker) marking marks exactly the
    /// same object set as the single-threaded marker on random entangled
    /// graphs: two identical stores, one collected on a 4-worker
    /// executor with the roots split across packets, one sequentially
    /// with a single root packet — object-by-object survival must agree.
    #[test]
    fn parallel_marking_matches_sequential(spec in graph_spec(20)) {
        let build_and_shield = || {
            let (s, _root, l, objs) = build(&spec);
            for &p in &spec.pins {
                s.pin(objs[p], 0);
            }
            let mut no_roots: Vec<ObjRef> = Vec::new();
            collect_local(&s, l, &mut no_roots, &Graveyard::new(), true);
            (s, objs)
        };
        let (seq, seq_objs) = build_and_shield();
        let (par, par_objs) = build_and_shield();
        let keep: Vec<usize> = spec.pins.iter().copied().take(2).collect();

        let seq_state = CgcState::new();
        let seq_slot = seq_state.open_slot();
        for &i in &keep {
            seq_slot.roots.push(seq_objs[i]);
        }
        let seq_out = collect_entangled(&seq, &seq_state);

        let ex = mpl_sched::Executor::new(4);
        let _driver = ex.install_driver();
        // One slot, hence one packet, per root: the parallel tracers race
        // on the marks.
        let par_state = CgcState::new();
        let par_slots: Vec<_> = keep.iter().map(|_| par_state.open_slot()).collect();
        for (slot, &i) in par_slots.iter().zip(&keep) {
            slot.roots.push(par_objs[i]);
        }
        let par_out = collect_entangled(&par, &par_state);

        prop_assert_eq!(seq_out.swept_objects, par_out.swept_objects);
        prop_assert_eq!(seq_out.marked_objects, par_out.marked_objects);
        // Pinned objects never move, so the pre-collection refs are
        // still the canonical addresses; a freed block counts as swept.
        let dead_in = |s: &Store, r: ObjRef| match s.blocks().try_get(r.block()) {
            None => true,
            Some(c) => c.try_get(r.word()).is_none_or(|o| o.header().is_dead()),
        };
        for &p in &spec.pins {
            prop_assert_eq!(
                dead_in(&seq, seq_objs[p]),
                dead_in(&par, par_objs[p]),
                "object {} survival must agree between markers",
                p
            );
        }
    }
}

// ---- pin / dead-mark / remset interleavings under the phase audit ------

/// One step of a randomized mutator/collector interleaving.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Pin object `i % n` at level 0 (registers it entangled).
    Pin(usize),
    /// Record an ancestor down-pointer to object `i % n` in the child
    /// heap's remembered set.
    Remset(usize),
    /// Allocate unreachable junk in the child heap (dead-mark fodder for
    /// the next collection's reclaim phase).
    Garbage,
    /// Run a local collection of the child heap (performs the actual
    /// dead-marking; each phase boundary is audited).
    Collect,
}

fn op_seq() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..32).prop_map(Op::Pin),
            (0usize..32).prop_map(Op::Remset),
            Just(Op::Garbage),
            Just(Op::Collect),
        ],
        1..16,
    )
}

/// Enables the audit layer for the test body, releasing it even if the
/// case fails (the enablement is a process-global refcount).
struct AuditGuard;
impl AuditGuard {
    fn new() -> Self {
        mpl_gc::audit::enable();
        AuditGuard
    }
}
impl Drop for AuditGuard {
    fn drop(&mut self) {
        mpl_gc::audit::disable();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of pins, remembered-set inserts, garbage
    /// allocation, and local collections keeps the audited invariants:
    /// collections dead-mark only unreachable objects (checked at the
    /// marking site by the phase-boundary audit inside `collect_local`),
    /// no live field dangles, and root reachability matches the oracle
    /// throughout.
    #[test]
    fn audited_pin_deadmark_remset_interleavings(
        spec in graph_spec(16),
        ops in op_seq(),
    ) {
        let _audit = AuditGuard::new();
        let (s, root_heap, l, objs) = build(&spec);
        let mut roots: Vec<ObjRef> = spec.roots.iter().map(|&i| objs[i]).collect();
        let g = Graveyard::new();
        let alive = |r: ObjRef| {
            let r = s.try_resolve(r)?;
            let block = s.blocks().try_get(r.block())?;
            let dead = block.try_get(r.word())?.header().is_dead();
            (!dead).then_some(r)
        };
        for op in ops {
            match op {
                Op::Pin(i) => {
                    if let Some(r) = alive(objs[i % objs.len()]) {
                        s.pin(r, 0);
                    }
                }
                Op::Remset(i) => {
                    if let Some(r) = alive(objs[i % objs.len()]) {
                        let cell = s.alloc_values(root_heap, ObjKind::Ref, &[Value::Obj(r)]);
                        s.remember(l, &[RemsetEntry { src: cell, field: 0 }]);
                    }
                }
                Op::Garbage => {
                    for _ in 0..4 {
                        s.alloc_values(l, ObjKind::Tuple, &[Value::Unit]);
                    }
                }
                Op::Collect => {
                    collect_local(&s, l, &mut roots, &g, true);
                }
            }
        }
        collect_local(&s, l, &mut roots, &g, true);

        // The audits inside collect_local already checked each phase; a
        // final explicit sweep re-confirms the end state.
        let dead = mpl_gc::check_dead_reachability(&s);
        prop_assert!(dead.is_empty(), "{dead:?}");
        let dangling = mpl_gc::dangling_fields(&s);
        prop_assert!(dangling.is_empty(), "{dangling:?}");
        for (k, &ri) in spec.roots.iter().enumerate() {
            let expect = reachable_payloads(&spec, &[ri]);
            prop_assert_eq!(walk(&s, roots[k]), expect);
        }
    }
}

/// A forced reclaim-phase mis-mark (the historical LGC dead-object race,
/// minus the race) is caught by the phase-boundary audit at the marking
/// site — not cycles later when some trace walks into the corpse.
#[test]
#[should_panic(expected = "dead-reachable")]
fn forced_reclaim_mismark_fails_the_phase_audit() {
    let _audit = AuditGuard::new();
    let s = Store::new(StoreConfig {
        block_words: 24,
        ..Default::default()
    });
    let h = s.new_root_heap();
    let victim = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(7)]);
    let holder = s.alloc_values(h, ObjKind::Tuple, &[Value::Obj(victim)]);
    s.pin(holder, 0);
    // Simulate a buggy Phase C killing a reachable object.
    s.handle(victim).obj().set_dead();
    mpl_gc::audit_phase(&s, "lgc/reclaim", h, None);
}
