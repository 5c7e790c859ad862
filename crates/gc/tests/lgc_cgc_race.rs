//! A local collection racing the concurrent collector's sweep over the
//! same heap. Its own test binary: it arms a process-global failpoint and
//! switches the phase audits on.

use mpl_fail::{FailAction, FailPlan, FailWhen};
use mpl_gc::{collect_entangled, CgcState, LgcOutcome};
use mpl_heap::{ObjKind, ObjRef, Store, StoreConfig, Value};

/// A local collection that frees the blocks it emptied, as the runtime
/// does when no other slot runs.
fn collect_local(s: &Store, heap: u32, roots: &mut [ObjRef]) -> LgcOutcome {
    let out = mpl_gc::collect_local(s, heap, roots);
    for &id in &out.dead_blocks {
        s.blocks().free(id);
    }
    out
}

/// Pins outlive their reader's last reference (they end at the join), so
/// a local collection shields pinned garbage, and the CGC sweep — which
/// runs concurrently with local collections — rightly reclaims it, block
/// and all, possibly while the local collection is still running. The
/// local collection must read the freed block as gone (not retain it,
/// not re-publish it), and the shield audit must not count the sweep's
/// reclamation as a broken shield.
#[test]
fn a_block_the_cgc_frees_mid_collection_reads_as_gone() {
    let s = Store::new(StoreConfig {
        block_words: 12,
        ..Default::default()
    });
    let h = s.new_root_heap();
    // One full block of pinned objects that nothing roots.
    let pinned: Vec<ObjRef> = (0..4)
        .map(|i| s.alloc_values(h, ObjKind::Ref, &[Value::Int(i)]))
        .collect();
    let block = pinned[0].block();
    assert!(pinned.iter().all(|r| r.block() == block));
    for &r in &pinned {
        s.pin(r, 0);
    }
    // The first collection shields them and retains their block for the
    // CGC.
    let out = collect_local(&s, h, &mut []);
    assert_eq!(out.retained_blocks, 1);
    assert!(s.blocks().get(block).is_entangled());

    // The second is held right after its shield phase (the failpoint
    // counts its fire before it sleeps) while a CGC with no roots sweeps
    // the block away — a few microseconds of work against a one-second
    // hold.
    mpl_gc::audit::enable();
    let plan = FailPlan::new(1).with(
        "lgc/shield",
        FailAction::Delay(1_000_000_000),
        FailWhen::Nth(1),
    );
    let owner = mpl_fail::install(&plan);
    let state = CgcState::new();
    let (out, swept) = std::thread::scope(|scope| {
        let lgc = scope.spawn(|| collect_local(&s, h, &mut []));
        while mpl_fail::site_fires() != [("lgc/shield".to_string(), 1)] {
            std::thread::yield_now();
        }
        let swept = collect_entangled(&s, &state);
        assert!(!lgc.is_finished(), "the sweep ran inside the hold");
        (lgc.join().expect("the local collection survives"), swept)
    });
    mpl_fail::uninstall(owner);
    mpl_gc::audit::disable();

    assert_eq!(swept.swept_objects, 4);
    assert_eq!(swept.freed_blocks, 1);
    assert!(s.blocks().try_get(block).is_none());
    assert!(!s.blocks().is_live(block), "freed block stays retracted");
    assert_eq!(out.retained_blocks, 0, "{out:?}");
    assert!(out.dead_blocks.is_empty(), "{out:?}");
    assert!(!s.heaps().info(h).with(|st| st.blocks.contains(&block)));
}
