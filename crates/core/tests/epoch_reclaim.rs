//! Epoch reclamation at two workers: a block a local collection emptied
//! is freed once every open mutator slot has moved past the epoch it was
//! retired at — not at the end of the run, and not while a running slot
//! that has not polled since may still hold a pointer into it.

use std::sync::atomic::{AtomicBool, Ordering};

use mpl_heap::FIRST_BLOCK_WORDS;
use mpl_runtime::{FailAction, FailPlan, FailWhen, Runtime, RuntimeConfig, Value};

/// Spins until the pool reports a steal beyond `steals0`: called by the
/// left branch of a fork on a quiet pool, it returns once the right
/// branch — the only job there is — has migrated to another worker.
fn await_steal(rt: &Runtime, steals0: u64) {
    while rt.sched_stats().steals == steals0 {
        std::thread::yield_now();
    }
}

fn await_flag(flag: &AtomicBool) {
    while !flag.load(Ordering::SeqCst) {
        std::hint::spin_loop();
    }
}

/// Spins until failpoint `site` has fired once (the fire is counted
/// before the delay it injects starts).
fn await_fire(site: &str) {
    while !mpl_fail::site_fires()
        .iter()
        .any(|(s, fires)| s == site && *fires == 1)
    {
        std::thread::yield_now();
    }
}

fn garbage(m: &mut mpl_runtime::Mutator<'_>, n: i64) {
    for i in 0..n {
        let _ = m.alloc_tuple(&[Value::Int(i); 4]);
    }
}

/// The `alloc-churn` `short` shape: 2^20 four-field tuples, none of which
/// survives. The run's slot is the only one open, so every collection's
/// emptied blocks are freed by that collection: at most one collection's
/// from-space ever waits, and blocks are freed long before the run ends.
#[test]
fn a_short_lived_stream_at_two_workers_frees_as_it_goes() {
    let config = RuntimeConfig::managed().with_threads_exact(2);
    let rt = Runtime::new(config);
    let freed_in_run = rt.run(|m| {
        let before = m.runtime().stats().blocks_freed;
        garbage(m, 1 << 20);
        Value::Int((m.runtime().stats().blocks_freed - before) as i64)
    });
    let s = rt.stats();
    // One collection's from-space: the trigger's worth of 48-byte tuples
    // in a first block of `FIRST_BLOCK_WORDS` (nothing survives, so every
    // collection leaves the class without a block), then full-size ones.
    let tuple_bytes = |block_words: usize| block_words / 6 * 48;
    let first = tuple_bytes(FIRST_BLOCK_WORDS);
    let rest = config.policy.lgc_trigger_bytes - first;
    let from_space = 1 + rest.div_ceil(tuple_bytes(config.store.block_words)) as u64;
    assert!(s.lgc_runs >= 100, "{s:?}");
    assert!(
        2 * freed_in_run.expect_int() as u64 >= s.blocks_allocated,
        "freed during the run: {freed_in_run:?}, {s:?}"
    );
    assert!(s.graveyard_high_water >= 1, "{s:?}");
    assert!(
        s.graveyard_high_water <= from_space,
        "high-water {} above one collection's from-space {from_space}",
        s.graveyard_high_water
    );
    assert_eq!(rt.retired_blocks(), 0);
    rt.assert_heap_sound();
}

/// A stolen right branch spins without polling: the blocks its sibling's
/// collection empties wait for it, and go at the first reclaim after its
/// next poll.
#[test]
fn a_branch_that_does_not_poll_holds_its_siblings_retired_blocks() {
    let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
    let running = AtomicBool::new(false);
    let retired = AtomicBool::new(false);
    let released = AtomicBool::new(false);
    rt.run(|m| {
        let steals0 = m.runtime().sched_stats().steals;
        m.fork(
            |m| {
                await_steal(m.runtime(), steals0);
                await_flag(&running);
                garbage(m, 4096);
                m.force_lgc(&mut []);
                let held = m.runtime().retired_blocks();
                assert!(held > 1, "the running sibling holds them: {held}");
                retired.store(true, Ordering::SeqCst);
                await_flag(&released);
                Value::Unit
            },
            |m| {
                running.store(true, Ordering::SeqCst);
                // No allocation, no slow-tier access: no poll.
                await_flag(&retired);
                let rt = m.runtime();
                let held = rt.retired_blocks();
                assert!(held > 1);
                // The allocation polls (the retirement asked this slot to
                // acknowledge); the collection's retirement then reclaims.
                let mut keep = [m.alloc_tuple(&[Value::Int(1)])];
                let freed = rt.stats().blocks_freed;
                m.force_lgc(&mut keep);
                assert!(
                    rt.stats().blocks_freed - freed >= held as u64,
                    "the sibling's blocks go at the first reclaim after the poll"
                );
                // This collection's own block waits for the sibling, which
                // has not polled since.
                assert_eq!(rt.retired_blocks(), 1);
                released.store(true, Ordering::SeqCst);
                keep[0]
            },
        );
        Value::Unit
    });
    assert_eq!(rt.retired_blocks(), 0, "the join and the run end reclaim");
    assert!(rt.stats().graveyard_high_water > 1);
    rt.assert_heap_sound();
}

/// Two runs in flight on two OS threads: one ending must not free blocks
/// the other's running, unacknowledged slot may still read (before epoch
/// reclamation, the end of any run freed every retired block).
#[test]
fn a_run_ending_elsewhere_frees_nothing_an_unacked_slot_may_read() {
    let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
    let running = AtomicBool::new(false);
    let retired = AtomicBool::new(false);
    let other_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            rt.run(|m| {
                let steals0 = m.runtime().sched_stats().steals;
                m.fork(
                    |m| {
                        await_steal(m.runtime(), steals0);
                        await_flag(&running);
                        garbage(m, 4096);
                        m.force_lgc(&mut []);
                        retired.store(true, Ordering::SeqCst);
                        Value::Unit
                    },
                    |m| {
                        running.store(true, Ordering::SeqCst);
                        await_flag(&other_done);
                        let _ = m.alloc_tuple(&[Value::Int(2)]);
                        Value::Unit
                    },
                );
                Value::Unit
            });
        });
        await_flag(&retired);
        let held = rt.retired_blocks();
        assert!(held > 1, "the stolen branch holds them: {held}");
        // A second run on this thread (its forks run inline: the first
        // run drives the pool) ends, collecting and closing its slot.
        rt.run(|m| {
            garbage(m, 1024);
            Value::Unit
        });
        assert!(
            rt.retired_blocks() >= held,
            "another run's end freed blocks an unacked slot may read"
        );
        other_done.store(true, Ordering::SeqCst);
    });
    assert_eq!(rt.retired_blocks(), 0);
    rt.assert_heap_sound();
}

/// The read slow tier loads a pointer, then polls: an acknowledgement
/// there would let the block under the loaded pointer be freed before the
/// pin chases its forwarding word. The owner collects (and retires the
/// loaded object's block) while the reader sits between its load and its
/// poll, then reclaims while the reader sits between its poll and its
/// pin: the reader must be pinning the object's new location by then.
#[test]
fn a_read_that_loaded_before_a_retirement_reloads_after_its_ack() {
    const HOLD_NS: u64 = 300_000_000;
    let plan = FailPlan::new(1)
        .with(
            "barrier/read_loaded",
            FailAction::Delay(HOLD_NS),
            FailWhen::Nth(1),
        )
        .with(
            "barrier/read_slow",
            FailAction::Delay(HOLD_NS),
            FailWhen::Nth(1),
        );
    let rt = Runtime::new(
        RuntimeConfig::managed()
            .with_threads_exact(2)
            .with_failpoints(plan),
    );
    let written = AtomicBool::new(false);
    let read = rt.run(|m| {
        let cell = m.alloc_ref(Value::Unit);
        let cell = m.root(cell);
        let (owner_cell, reader_cell) = (cell.clone(), cell);
        let steals0 = m.runtime().sched_stats().steals;
        let (_, read) = m.fork(
            |m| {
                await_steal(m.runtime(), steals0);
                // A down-pointer into this branch's heap: the cell turns
                // suspect, and its remembered-set entry keeps `y` alive.
                let y = m.alloc_tuple(&[Value::Int(7)]);
                let c = m.get(&owner_cell);
                m.write_ref(c, y);
                written.store(true, Ordering::SeqCst);
                await_fire("barrier/read_loaded");
                // `y` moves and the cell is repaired; `y`'s old block is
                // retired, held by the reader, which has not polled.
                m.force_lgc(&mut []);
                assert!(m.runtime().retired_blocks() >= 1);
                await_fire("barrier/read_slow");
                // The reader has polled: the next reclaim frees the block
                // its first load pointed into.
                let rt = m.runtime();
                let freed = rt.stats().blocks_freed;
                let _ = m.alloc_tuple(&[Value::Unit]);
                m.force_lgc(&mut []);
                assert!(rt.stats().blocks_freed > freed);
                Value::Unit
            },
            |m| {
                await_flag(&written);
                let c = m.get(&reader_cell);
                let y = m.read_ref(c); // entangled: a sibling's object
                m.tuple_get(y, 0)
            },
        );
        read
    });
    assert_eq!(read, Value::Int(7));
    assert_eq!(rt.retired_blocks(), 0);
    rt.assert_heap_sound();
}
