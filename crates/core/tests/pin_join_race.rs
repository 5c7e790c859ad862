//! A pin racing the join that ends its object's `down` mark.
//!
//! The join clears the `slow` bit of every source whose down-pointers it
//! made internal; a task outside the joining heap may be pinning one of
//! those sources at that moment, having set `slow` before the clear. A
//! pin must never become visible on a fast object: the join holds the
//! block's pins off while it clears, and the pinner, once its pin is
//! counted, sets `slow` again. Two failpoints line the race up: the
//! pinner holds between its first `slow` set and counting its pin
//! (`heap/pin_slow`), the join holds between its clears and letting pins
//! go on (`heap/join_clear`).

use std::sync::atomic::{AtomicBool, Ordering};

use mpl_runtime::{FailAction, FailPlan, FailWhen, Runtime, RuntimeConfig, Value};

/// How long the pinner holds after its first `slow` set: long enough for
/// the sibling to write, fork, join and reach its clear.
const PIN_HOLD_NS: u64 = 100_000_000;
/// How long the join holds after its clears: the pinner wakes inside it.
const CLEAR_HOLD_NS: u64 = 300_000_000;

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

#[test]
fn a_pin_racing_the_join_that_clears_its_object_leaves_it_slow() {
    let plan = FailPlan::new(1)
        .with(
            "heap/pin_slow",
            FailAction::Delay(PIN_HOLD_NS),
            FailWhen::Nth(1),
        )
        .with(
            "heap/join_clear",
            FailAction::Delay(CLEAR_HOLD_NS),
            FailWhen::Nth(1),
        );
    let rt = Runtime::new(
        RuntimeConfig::managed()
            .with_threads_exact(2)
            .with_failpoints(plan),
    );
    let published = AtomicBool::new(false);
    let seen = rt.run(|m| {
        let shared = m.alloc_ref(Value::Unit);
        let shared = m.root(shared);
        let (ls, rs) = (shared.clone(), shared);
        let published = &published;
        let (_, seen) = m.fork_stolen(
            move |m| {
                // `x`, in this branch's heap, reaches the stolen sibling
                // through the root's cell.
                let x = m.alloc_array(1, Value::Unit);
                let s = m.get(&ls);
                m.write_ref(s, x);
                let x = m.root(x);
                published.store(true, Ordering::SeqCst);
                // The sibling has set `x`'s slow bit and holds before
                // counting its pin. A down-pointer into `x` follows; the
                // inner join makes it internal and clears `x`'s slow bit
                // under the pinner, which wakes while the join holds.
                await_fire("heap/pin_slow");
                let inner = x.clone();
                m.fork(
                    move |m| {
                        let z = m.alloc_tuple(&[Value::Int(3)]);
                        let xv = m.get(&inner);
                        m.arr_set(xv, 0, z);
                        Value::Unit
                    },
                    |_| Value::Unit,
                );
                Value::Unit
            },
            move |m| {
                while !published.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                let s = m.get(&rs);
                let x = m.read_ref(s); // entangled: pins the sibling's `x`
                let h = m.runtime().store().resolved_handle(x.expect_obj());
                Value::Int(2 * i64::from(h.header().is_pinned()) + i64::from(h.is_slow()))
            },
        );
        seen
    });
    let fires = mpl_fail::site_fires();
    for site in ["heap/pin_slow", "heap/join_clear"] {
        assert!(
            fires.iter().any(|(s, n)| s == site && *n == 1),
            "{site} fired once: {fires:?}"
        );
    }
    assert_eq!(seen, Value::Int(3), "pinned, and slow");
    assert_eq!(rt.stats().pins, 1);
    rt.assert_heap_sound();
}
