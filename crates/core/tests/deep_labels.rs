//! Heap labels past 64 levels at run time. A spine of 150 forks puts the
//! bottom task at depth 150, so its heap's label is anchored at the
//! spine's depth-128 heap, which is anchored at the depth-64 one. The
//! bottom fork is forced to steal; its right branch reads a ref cell its
//! left sibling wrote a fresh tuple into. The two branches' heaps differ
//! only in the last bit of their labels, so the read entangles at the
//! bottom task's depth — the least common ancestor — and that fork's join
//! ends the pin. With no pool the right branch runs after the left one,
//! in its heap, and the same read is local.

use std::sync::atomic::{AtomicBool, Ordering};

use mpl_runtime::{Mutator, Runtime, RuntimeConfig, Value};

/// Forks below the root task before the forced steal: the depth of the
/// reading and writing branches' least common ancestor.
const SPINE: u16 = 150;

/// What the spine's bottom saw.
#[derive(Debug, Default, PartialEq, Eq)]
struct Bottom {
    /// The pin level of the tuple the right branch read, if pinned.
    pin_level: Option<u16>,
    /// Pinned bytes just after the bottom fork's join.
    pinned_after_join: usize,
}

/// Descends `depth` forks down the left branches, then runs the forced
/// steal and reports what it saw.
fn spine(m: &mut Mutator<'_>, depth: u16, cell: Value, bottom: &mut Bottom) {
    if depth > 0 {
        m.fork(
            |m| {
                spine(m, depth - 1, cell, bottom);
                Value::Unit
            },
            |_| Value::Unit,
        );
        return;
    }
    let written = AtomicBool::new(false);
    let mut pin_level = None;
    m.fork_stolen(
        |m| {
            let boxed = m.alloc_tuple(&[Value::Int(7)]);
            m.write_ref(cell, boxed);
            written.store(true, Ordering::Release);
            Value::Unit
        },
        |m| {
            while !written.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let v = m.read_ref(cell);
            assert_eq!(m.tuple_get(v, 0), Value::Int(7));
            let header = m.runtime().store().resolved_handle(v.expect_obj()).header();
            pin_level = header.is_pinned().then(|| header.pin_level());
            Value::Unit
        },
    );
    bottom.pin_level = pin_level;
    bottom.pinned_after_join = m.runtime().stats().pinned_bytes;
}

/// Runs the spine on `threads` workers; returns what its bottom saw and
/// the run's pins and unpins.
fn run(threads: usize) -> (Bottom, u64, u64) {
    let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(threads));
    let mut bottom = Bottom::default();
    rt.run(|m| {
        let cell = m.alloc_ref(Value::Unit);
        let c = m.root(cell);
        spine(m, SPINE, m.get(&c), &mut bottom);
        Value::Unit
    });
    rt.assert_heap_sound();
    let stats = rt.stats();
    (bottom, stats.pins, stats.unpins)
}

#[test]
fn a_deep_stolen_read_pins_at_the_lca_depth() {
    let (bottom, pins, unpins) = run(2);
    assert_eq!(
        bottom,
        Bottom {
            pin_level: Some(SPINE),
            pinned_after_join: 0,
        },
        "pinned at the bottom fork's depth, unpinned by its join"
    );
    assert_eq!((pins, unpins), (1, 1));
}

#[test]
fn a_deep_unstolen_read_is_local() {
    let (bottom, pins, unpins) = run(1);
    assert_eq!(bottom, Bottom::default());
    assert_eq!((pins, unpins), (0, 0));
}
