//! Seeded-interleaving regression test for the SATB snapshot race.
//!
//! The historical bug: the SATB deletion log was check-then-act — a
//! mutator loaded the `marking` flag, saw `false`, and skipped logging
//! the pointer it was about to overwrite, while the collector raised the
//! flag and took its root snapshot *between the check and the store*.
//! The overwritten pointer was then in nobody's snapshot: not in the
//! roots (the mutator held it in hand), not in the heap (the field was
//! already cleared), not in the SATB log (the check said don't). The
//! object was swept while a mutator still held a reference to it.
//!
//! The fix is the snapshot handshake: the collector raises `marking`,
//! bumps the epoch, and *waits for every registered shard to ack* (or
//! sit in a safe window) before reading roots. A mutator acks only at
//! poll points, which by the mutator protocol are never inside a
//! hold-unrooted-in-hand window — so by the time the snapshot is taken,
//! either the mutator observed `marking == true` (and logged), or its
//! hidden value is back in the heap.
//!
//! There is no loom in the dependency tree, so this drives real threads
//! through seeded interleavings instead: per-seed spin delays stretch
//! the check-to-store window at different points while repeated
//! collections hammer the snapshot boundary. With the handshake removed
//! this fails within a few seeds; with it the hidden object must survive
//! every collection, every seed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mpl_gc::{collect_entangled, CgcState, Graveyard};
use mpl_heap::{ObjKind, ObjRef, Store, StoreConfig, Value};

/// Tiny deterministic generator (xorshift64*) so each seed replays the
/// same interleaving pressure.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Burns a short, seeded amount of CPU to shift thread interleavings.
fn jitter(rng: &mut Rng) {
    let spins = rng.next() % 400;
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

/// Builds a store with two entangled-space objects: `holder` (a ref cell
/// whose field points at `victim`) and `victim`. Both are pinned and
/// shielded in place so the concurrent collector governs their lifetime.
fn entangled_pair(s: &Store) -> (ObjRef, ObjRef) {
    let root = s.new_root_heap();
    let (l, _r) = s.fork_heaps(root);
    let victim = s.alloc_values(l, ObjKind::Ref, &[Value::Int(42)]);
    let holder = s.alloc_values(l, ObjKind::Ref, &[Value::Obj(victim)]);
    s.pin(victim, 0);
    s.pin(holder, 0);
    let mut no_roots: Vec<ObjRef> = Vec::new();
    mpl_gc::collect_local(s, l, &mut no_roots, &Graveyard::new(), true);
    (s.resolve(holder), s.resolve(victim))
}

fn run_seed(seed: u64) {
    let s = Arc::new(Store::new(StoreConfig {
        block_words: 24,
        ..Default::default()
    }));
    let state = Arc::new(CgcState::new());
    let (holder, victim) = entangled_pair(&s);

    let stop = Arc::new(AtomicBool::new(false));

    // Mutator: repeatedly takes `victim` out of the holder's field (the
    // only heap reference to it), holds it unrooted "in hand" across a
    // seeded delay, and puts it back — the exact shape of the historical
    // race. The deletion barrier and poll discipline mirror the runtime's
    // write barrier: log-before-store when marking, poll only *between*
    // complete transitions, never while holding the unrooted value.
    let mutator = {
        let s = Arc::clone(&s);
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Registered paused; resume to run, pause again to leave.
            let shard = state.register_shard();
            state.exit_safe(&shard);
            let mut rng = Rng(seed | 1);
            let blk = s.blocks().get(holder.block());
            while !stop.load(Ordering::Relaxed) {
                let o = blk.get(holder.word());
                let in_hand = match o.field(0) {
                    Value::Obj(r) => r,
                    v => panic!("holder field corrupted: {v:?}"),
                };
                jitter(&mut rng);
                // Deletion barrier: the check-then-act pair under test.
                if state.is_marking() {
                    state.satb_log_shard(&shard, in_hand);
                }
                jitter(&mut rng);
                o.set_field(0, Value::Unit); // victim now only in hand
                jitter(&mut rng);
                o.set_field(0, Value::Obj(in_hand)); // put it back
                                                     // Transition complete: this is the first point the
                                                     // collector's handshake may take our ack.
                state.poll_handshake(&shard);
            }
            state.enter_safe(&shard);
            state.deregister_shard(&shard);
        })
    };

    // Collector: repeated full cycles rooted at the holder only — the
    // victim's survival depends entirely on snapshot + SATB correctness.
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    for round in 0..25 {
        jitter(&mut rng);
        collect_entangled(&s, &state, || vec![vec![holder]]);
        let alive = s
            .blocks()
            .try_get(victim.block())
            .and_then(|b| b.try_get(victim.word()).map(|o| !o.header().is_dead()))
            .unwrap_or(false);
        assert!(
            alive,
            "seed {seed}, round {round}: victim swept while a mutator held it \
             (SATB snapshot race)"
        );
    }

    stop.store(true, Ordering::Relaxed);
    mutator.join().expect("mutator thread");
}

/// Ten seeds, each replaying a different interleaving pressure pattern.
/// The acceptance bar for the fix is 10/10 green under the audited debug
/// profile.
#[test]
fn satb_snapshot_race_does_not_lose_hidden_pointers() {
    for seed in 1..=10u64 {
        run_seed(seed);
    }
}
