//! The join's contract with the rest of the tree: a merged heap keeps
//! nothing, and nothing registered while it was being merged is lost.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use mpl_heap::{HeapInfo, HeapTable, ObjRef, RemsetEntry};

// A merged heap costs its node and nothing else, forever: keep it small.
const _: () = assert!(std::mem::size_of::<HeapInfo>() <= 48);

#[test]
fn merged_heaps_hold_no_state() {
    let t = HeapTable::new();
    let root = t.new_root(None);
    let (l, r) = t.fork(root);
    for (heap, block) in [(l, 1), (r, 2)] {
        t.info(heap).with(|s| s.blocks.push(block));
        t.remember(
            heap,
            0,
            &[RemsetEntry {
                src: ObjRef::new(0, 0),
                field: block,
            }],
        );
        t.register_entangled(heap, ObjRef::new(block, 0), 0);
    }
    let joined = t.join(root, [l, r]);
    for child in [l, r] {
        assert!(!t.is_canonical(child));
        assert_eq!(t.find(child), root);
        assert!(t.info(child).try_with(|_| ()).is_none(), "state is gone");
    }
    // Everything the children held is the parent's now, or was handed
    // back: the level-0 pins as unpin candidates of this depth-0 join, the
    // entries from depth-0 sources as the down-pointers it made internal.
    let (blocks, remset, pins) = t
        .info(root)
        .with(|s| (s.blocks.clone(), s.remset.len(), s.entangled_len()));
    assert_eq!((blocks, remset, pins), (vec![1, 2], 0, 0));
    assert_eq!((joined.unpin.len(), joined.internal.len()), (2, 2));
}

/// Registrars hammer `register_entangled(child, …)` while another thread
/// joins that child (and then the heap it was joined into, so the chase
/// crosses more than one merge). The joiner waits on the registrars'
/// progress counter, so both joins land mid-stream in every round. Every
/// ref must end up in exactly one live index: handed back by a join as an
/// unpin candidate, or still in the root's index — never dropped, never
/// duplicated, never left in a merged node (those have no state to leave
/// it in).
#[test]
fn registration_racing_a_join_lands_on_a_live_index() {
    const REGISTRARS: u32 = 4;
    const PER_REGISTRAR: u32 = 300;
    const ROUNDS: usize = 200;
    for round in 0..ROUNDS {
        let t = HeapTable::new();
        let root = t.new_root(None);
        let (l, r) = t.fork(root);
        let (ll, lr) = t.fork(l);
        let start = Barrier::new(REGISTRARS as usize + 1);
        let progress = AtomicUsize::new(0);
        let wait_for = |n: usize| {
            while progress.load(Ordering::Acquire) < n {
                std::hint::spin_loop();
            }
        };
        let mut seen: Vec<ObjRef> = Vec::new();
        std::thread::scope(|s| {
            for w in 0..REGISTRARS {
                let (t, start, progress) = (&t, &start, &progress);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_REGISTRAR {
                        // Level 2 (ll's own depth) is >= the depth of
                        // either join, so whichever join finds the entry
                        // in its parent's index hands it back.
                        t.register_entangled(ll, ObjRef::new(w, i), 2);
                        progress.fetch_add(1, Ordering::Release);
                    }
                });
            }
            start.wait();
            wait_for(100 + 37 * (round % 8));
            seen.extend(t.join(l, [ll, lr]).unpin);
            wait_for(600 + 37 * (round % 8));
            seen.extend(t.join(root, [l, r]).unpin);
        });
        // Whatever no join handed back is in the only live heap's index.
        seen.extend(
            t.info(root)
                .with(|s| s.take_entangled())
                .into_iter()
                .map(|(r, _)| r),
        );
        for merged in [l, r, ll, lr] {
            assert!(t.info(merged).try_with(|_| ()).is_none());
        }
        let expected = (REGISTRARS * PER_REGISTRAR) as usize;
        assert_eq!(seen.len(), expected, "round {round}: lost or duplicated");
        let unique: HashSet<ObjRef> = seen.iter().copied().collect();
        assert_eq!(unique.len(), expected, "round {round}: duplicated");
    }
}
