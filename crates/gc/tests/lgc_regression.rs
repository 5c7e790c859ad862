//! Regression tests for collector bugs found by the integration suite.

use mpl_gc::{collect_local, Graveyard};
use mpl_heap::{ObjKind, ObjRef, RemsetEntry, Store, StoreConfig, Value};

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
    s.remember(
        l,
        &[RemsetEntry {
            src: cell,
            field: 0,
        }],
    );

    let g = Graveyard::new();
    let mut roots = [x]; // root processed before the remembered set
    collect_local(&s, l, &mut roots, &g, true);

    // The field must point at the new location, resolvable without
    // touching freed blocks.
    let field = s.handle(cell).field(0).expect_obj();
    assert_eq!(field, roots[0], "field repaired to the evacuated location");
    assert_eq!(s.handle(field).field(0), Value::Int(5));
    // And the entry survives for future collections.
    assert_eq!(s.heaps().info(l).with(|h| h.remset.len()), 1);

    // A second collection (nothing else live) must also stay sound.
    let mut roots2 = [roots[0]];
    collect_local(&s, l, &mut roots2, &g, true);
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
    let g = Graveyard::new();

    let mut nodes: Vec<ObjRef> = Vec::new();
    for round in 0..6 {
        // Write a fresh node into a bucket (chain through the old head).
        let b = round % 3;
        let head = s.handle(table).field(b);
        let node = s.alloc_values(l, ObjKind::Tuple, &[Value::Int(round as i64), head]);
        s.handle(table).set_field(b, Value::Obj(node));
        s.remember(
            l,
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
        collect_local(&s, l, &mut roots, &g, true);

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
