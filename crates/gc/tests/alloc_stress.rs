//! Satellite: concurrent allocation stress over the block allocator.
//!
//! Four workers allocate into sibling leaf heaps simultaneously with
//! auditing enabled, then every object is re-read — from its own thread
//! and again from the joining thread — to prove no header or field word
//! was torn by concurrent bump reservations, side-metadata publication,
//! or block-registry traffic.

use std::sync::Arc;

use mpl_heap::{ObjKind, Store, StoreConfig, Value};

const WORKERS: usize = 4;
const OBJECTS_PER_WORKER: i64 = 2_000;

type Allocated = (mpl_heap::ObjRef, ObjKind, usize, i64);

fn check(s: &Store, leaf: u32, refs: &[Allocated]) {
    for (r, kind, len, base) in refs {
        let block = s.blocks().get(r.block());
        let obj = block.get(r.word());
        let hdr = obj.header();
        assert!(
            !hdr.is_dead() && !hdr.is_forwarded(),
            "torn header at {r:?}"
        );
        assert_eq!(obj.kind(), *kind, "kind torn at {r:?}");
        assert_eq!(obj.len(), *len, "length torn at {r:?}");
        assert_eq!(block.owner(), leaf, "block owner mixed up at {r:?}");
        for f in 0..*len {
            assert_eq!(
                obj.field(f),
                Value::Int(base + f as i64),
                "field {f} torn at {r:?}"
            );
        }
    }
}

#[test]
fn four_workers_allocate_without_torn_headers() {
    mpl_gc::audit::enable();
    let s = Arc::new(Store::new(StoreConfig {
        block_words: 64, // small blocks: constant overflow + registry traffic
        ..Default::default()
    }));
    let root = s.new_root_heap();
    let (l, r) = s.fork_heaps(root);
    let (ll, lr) = s.fork_heaps(l);
    let (rl, rr) = s.fork_heaps(r);
    let leaves = [ll, lr, rl, rr];

    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let s = Arc::clone(&s);
            let leaf = leaves[w];
            std::thread::spawn(move || {
                let tag = (w as i64 + 1) << 32;
                let mut refs: Vec<Allocated> = Vec::new();
                let mut fields: Vec<Value> = Vec::new();
                for i in 0..OBJECTS_PER_WORKER {
                    // 0..=10 fields: classes 0..2, the overflow class is
                    // hit by the raw arrays below.
                    let len = (i % 11) as usize;
                    let base = tag + i * 16;
                    fields.clear();
                    fields.extend((0..len).map(|f| Value::Int(base + f as i64)));
                    let kind = if i % 2 == 0 {
                        ObjKind::Tuple
                    } else {
                        ObjKind::MutArr
                    };
                    let r = s.alloc_values(leaf, kind, &fields);
                    refs.push((r, kind, len, base));
                }
                // First pass from the allocating thread itself.
                check(&s, leaf, &refs);
                (leaf, refs)
            })
        })
        .collect();

    let per_worker: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Second pass from this thread: the publication (obj_start bit,
    // header word) must be visible across threads, not just to the
    // allocator.
    let mut total = 0usize;
    for (leaf, refs) in &per_worker {
        check(&s, *leaf, refs);
        total += refs.len();
    }
    assert_eq!(total, WORKERS * OBJECTS_PER_WORKER as usize);

    // A reclaim-class check runs the dead-reachability and dangling rules
    // over the whole store.
    let issues = mpl_gc::check(&s, mpl_gc::Phase::CgcSweep);
    assert!(issues.is_empty(), "{issues:?}");
    mpl_gc::audit::disable();
}
