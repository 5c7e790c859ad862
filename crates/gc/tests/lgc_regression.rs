//! Regression tests for collector bugs found by the integration suite.

use mpl_gc::LgcOutcome;
use mpl_heap::{ObjKind, ObjRef, RemsetEntry, Store, StoreConfig, Value};

/// A local collection that frees the blocks it emptied, as the runtime
/// does when no other slot runs.
fn collect_local(s: &Store, heap: u32, roots: &mut [ObjRef]) -> LgcOutcome {
    let out = mpl_gc::collect_local(s, heap, roots);
    for &id in &out.dead_blocks {
        s.blocks().free(id);
    }
    out
}

/// A remembered-set entry whose target is evacuated through a *root* path
/// before the remset pass reaches it must still repair the source field.
/// (The original code resolved the target first and concluded the entry
/// "no longer points into this heap", leaving the ancestor's field
/// dangling once from-space blocks were freed.)
#[test]
fn remset_repairs_target_already_evacuated_via_roots() {
    let s = Store::new(StoreConfig {
        block_words: 12,
        ..Default::default()
    });
    let root_heap = s.new_root_heap();
    let (l, _r) = s.fork_heaps(root_heap);

    // Ancestor cell with a down-pointer to `x` in the child heap; `x` is
    // ALSO a task root, so the trace reaches it before the remset pass.
    let cell = s.alloc_values(root_heap, ObjKind::Ref, &[Value::Unit]);
    let x = s.alloc_values(l, ObjKind::Tuple, &[Value::Int(5)]);
    s.handle(cell).set_field(0, Value::Obj(x));
    s.handle(cell).obj().mark_down(); // as the write barrier does
    s.remember(
        l,
        0,
        &[RemsetEntry {
            src: cell,
            field: 0,
        }],
    );

    let mut roots = [x]; // root processed before the remembered set
    collect_local(&s, l, &mut roots);

    // The field must point at the new location, resolvable without
    // touching freed blocks.
    let field = s.handle(cell).field(0).expect_obj();
    assert_eq!(field, roots[0], "field repaired to the evacuated location");
    assert_eq!(s.handle(field).field(0), Value::Int(5));
    // And the entry survives for future collections.
    assert_eq!(s.heaps().info(l).with(|h| h.remset.len()), 1);

    // A second collection (nothing else live) must also stay sound.
    let mut roots2 = [roots[0]];
    collect_local(&s, l, &mut roots2);
    let field = s.handle(cell).field(0).expect_obj();
    assert_eq!(field, roots2[0]);
    assert_eq!(s.handle(field).field(0), Value::Int(5));
}

/// Chained collections with interleaved down-pointer writes never leave a
/// dangling field (the full pattern from the dedup benchmark).
#[test]
fn repeated_collections_with_bucket_rewrites() {
    let s = Store::new(StoreConfig {
        block_words: 12,
        ..Default::default()
    });
    let root_heap = s.new_root_heap();
    let (l, _r) = s.fork_heaps(root_heap);
    let table = s.alloc_values(root_heap, ObjKind::MutArr, &[Value::Unit; 8]);

    let mut nodes: Vec<ObjRef> = Vec::new();
    for round in 0..6 {
        // Write a fresh node into a bucket (chain through the old head).
        let b = round % 3;
        let head = s.handle(table).field(b);
        let node = s.alloc_values(l, ObjKind::Tuple, &[Value::Int(round as i64), head]);
        s.handle(table).set_field(b, Value::Obj(node));
        s.handle(table).obj().mark_down();
        s.remember(
            l,
            0,
            &[RemsetEntry {
                src: table,
                field: b as u32,
            }],
        );
        nodes.push(node);

        // Garbage + collect with the newest node also rooted.
        for _ in 0..10 {
            s.alloc_values(l, ObjKind::Tuple, &[Value::Unit]);
        }
        let mut roots = [node];
        collect_local(&s, l, &mut roots);

        // Every bucket chain must resolve cleanly.
        for bb in 0..3 {
            let mut cur = s.handle(table).field(bb);
            while let Value::Obj(r) = cur {
                let h = s.handle(s.resolve(r));
                assert!(!h.header().is_dead(), "live chain node");
                cur = h.field(1);
            }
        }
    }
}

/// The cost model: evacuation resolves its own blocks through the
/// collection's table, so copying a rooted list of 2^16 four-field tuples
/// (the `gc.lgc_ns_per_copied_kb` probe's shape) never asks the global
/// registry — not once per copied object, not at all.
#[test]
fn copying_a_list_makes_no_registry_lookups() {
    let s = Store::new(StoreConfig::default());
    let h = s.new_root_heap();
    let mut head = s.alloc_values(
        h,
        ObjKind::Tuple,
        &[Value::Int(0), Value::Unit, Value::Unit, Value::Unit],
    );
    for i in 1..(1i64 << 16) {
        head = s.alloc_values(
            h,
            ObjKind::Tuple,
            &[Value::Int(i), Value::Obj(head), Value::Unit, Value::Unit],
        );
    }
    let mut roots = [head];
    let out = collect_local(&s, h, &mut roots);
    assert_eq!(out.copied_objects, 1 << 16);
    assert_eq!(out.registry_lookups, 0, "{out:?}");
    assert_eq!(s.handle(roots[0]).field(0), Value::Int((1 << 16) - 1));
}

/// Remembered-set entries arrive in runs from one source block: 10 000
/// down-pointers out of one ancestor array cost one registry lookup per
/// block the array occupies, and every source field is still repaired.
#[test]
fn remembered_set_runs_cost_one_lookup_per_source_block() {
    let s = Store::new(StoreConfig::default());
    let root_heap = s.new_root_heap();
    let (l, _r) = s.fork_heaps(root_heap);
    const N: usize = 10_000;
    let arr = s.alloc_values(root_heap, ObjKind::MutArr, &[Value::Unit; N]);
    let entries: Vec<RemsetEntry> = (0..N)
        .map(|i| {
            let x = s.alloc_values(l, ObjKind::Tuple, &[Value::Int(i as i64)]);
            s.handle(arr).set_field(i, Value::Obj(x));
            s.handle(arr).obj().mark_down();
            RemsetEntry {
                src: arr,
                field: i as u32,
            }
        })
        .collect();
    s.remember(l, 0, &entries);
    let source_blocks = 1; // an array larger than a block gets its own
    let out = collect_local(&s, l, &mut []);
    assert_eq!(out.copied_objects, N);
    assert!(out.registry_lookups <= source_blocks, "{out:?}");
    for i in 0..N {
        let x = s.handle(arr).field(i).expect_obj();
        assert_eq!(
            s.handle(x).field(0),
            Value::Int(i as i64),
            "field {i} repaired"
        );
    }
    assert_eq!(s.heaps().info(l).with(|h| h.remset.len()), N);
}

/// A pinned object keeps its block retained across collections while its
/// neighbours move on: each cycle's path compression, which now resolves
/// through the collection's table, must leave every forwarding word in the
/// retained block one hop from a live, unforwarded object — the
/// intermediate to-space blocks are freed.
#[test]
fn retained_blocks_forward_in_one_hop_to_live_objects() {
    let s = Store::new(StoreConfig {
        block_words: 12,
        ..Default::default()
    });
    let h = s.new_root_heap();
    // Four 3-word objects share one 12-word block: the pinned one and
    // three neighbours that stay rooted.
    let pinned = s.alloc_values(h, ObjKind::Ref, &[Value::Int(0)]);
    let mut roots: Vec<ObjRef> = (1..4)
        .map(|i| s.alloc_values(h, ObjKind::Tuple, &[Value::Int(i)]))
        .collect();
    let block = pinned.block();
    assert!(roots.iter().all(|r| r.block() == block));
    s.pin(pinned, 0);
    for _ in 0..2 {
        let out = collect_local(&s, h, &mut roots);
        assert_eq!(out.copied_objects, 3);
        assert_eq!(out.retained_blocks, 1);
    }
    let retained = s.blocks().get(block);
    let mut forwarded = 0;
    for (off, obj) in retained.objects() {
        let Some(to) = obj.forward_ref() else {
            continue;
        };
        forwarded += 1;
        let target = s
            .blocks()
            .try_get(to.block())
            .unwrap_or_else(|| panic!("b{block}w{off} forwards into freed block {}", to.block()));
        let header = target.get(to.word()).header();
        assert!(
            !header.is_forwarded(),
            "b{block}w{off} -> {to} is a second hop"
        );
        assert!(!header.is_dead(), "b{block}w{off} -> {to} is dead");
    }
    assert_eq!(forwarded, 3);
    for (i, r) in roots.iter().enumerate() {
        assert_eq!(s.handle(*r).field(0), Value::Int(i as i64 + 1));
    }
}
