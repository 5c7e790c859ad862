//! A tour of the memory substrate itself: build a heap hierarchy by hand,
//! create entanglement, watch the local collector shield pinned objects in
//! place, and see the concurrent collector reclaim them once dropped.
//!
//! Run with: `cargo run --example heap_hierarchy`

use mpl_gc::{collect_entangled, collect_local, CgcState, Graveyard};
use mpl_heap::{ObjKind, ObjRef, Store, StoreConfig, Value};

fn main() {
    let store = Store::new(StoreConfig {
        block_words: 32,
        ..Default::default()
    });
    let root = store.new_root_heap();
    let (left, right) = store.fork_heaps(root);
    println!("hierarchy: root={root} -> left={left}, right={right}");

    // The left task allocates a record; the right task acquires it.
    let record = store.alloc_values(left, ObjKind::Ref, &[Value::Int(99)]);
    let right_path = [root, right];
    println!(
        "record {record} local to right task? {}",
        store.is_local(&right_path, record)
    );
    let level = store.entanglement_level(&right_path, record);
    let (pinned, newly) = store.pin(record, level);
    println!("pinned {pinned} at level {level} (newly: {newly})");

    // The left task collects its heap: the pinned record must stay put.
    let mut roots: [ObjRef; 0] = [];
    let graveyard = Graveyard::new();
    let out = collect_local(&store, left, &mut roots, &graveyard, true);
    println!(
        "LGC(left): copied={}B reclaimed={}B retained-entangled={}B",
        out.copied_bytes, out.reclaimed_bytes, out.retained_entangled_bytes
    );
    assert_eq!(
        store.handle(record).field(0),
        Value::Int(99),
        "shielded in place"
    );

    // Nothing actually references the record (the "right task" dropped
    // it): the concurrent collector reclaims the entangled space even
    // while the pin is still nominally in place.
    let state = CgcState::new();
    let swept = collect_entangled(&store, &state);
    println!(
        "CGC: swept {} object(s), {} bytes",
        swept.swept_objects, swept.swept_bytes
    );
    assert_eq!(swept.swept_objects, 1);

    // Join: the heaps merge; had the record still been pinned, the join
    // would have unpinned it here.
    let unpinned = store.join(root, left, right).unpinned;
    println!("join(root): unpinned {unpinned} object(s)");
    println!("\nhierarchy report:\n{}", mpl_heap::report(&store));
    println!("final stats: {:#?}", store.stats().snapshot());
}
