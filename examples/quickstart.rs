//! Quickstart: parallel functional programming *with effects*.
//!
//! Two tasks share a mutable cell across a fork. One publishes a freshly
//! allocated record; the sibling reads it — an *entangled* access that
//! prior hierarchical-heap runtimes would reject, and that this runtime
//! manages transparently by pinning the record until the join.
//!
//! Entanglement needs the two tasks to run at once. A fork whose right
//! task is not stolen runs it after the left one, in the left one's heap,
//! where the same read is local; so this example runs on two workers and
//! forces the steal (`Mutator::fork_stolen`).
//!
//! Run with: `cargo run --example quickstart`

use std::sync::atomic::{AtomicBool, Ordering};

use mpl_runtime::{Runtime, RuntimeConfig, Value};

fn main() {
    let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));

    let result = rt.run(|m| {
        // A shared mutable cell, allocated before the fork.
        let cell = m.alloc_ref(Value::Unit);
        let c = m.root(cell);
        let published = AtomicBool::new(false);

        let (_, got) = m.fork_stolen(
            // Task A: allocate a record in its own heap and publish it.
            |m| {
                let record = m.alloc_tuple(&[Value::Int(6), Value::Int(7)]);
                m.write_ref(m.get(&c), record);
                published.store(true, Ordering::Release);
                Value::Unit
            },
            // Task B, running beside A: once A has published, read the
            // cell. Seeing A's record is an entangled read — the runtime
            // pins the record so B can use it safely while A's collector
            // stays out of the way.
            |m| {
                while !published.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                let v = m.read_ref(m.get(&c));
                let a = m.tuple_get(v, 0).expect_int();
                let b = m.tuple_get(v, 1).expect_int();
                Value::Int(a * b)
            },
        );
        got
    });

    println!("result: {result:?}");
    let stats = rt.stats();
    println!("entangled reads: {}", stats.entangled_reads);
    println!("objects pinned:  {}", stats.pins);
    println!("unpinned at join:{}", stats.unpins);
    println!(
        "pinned bytes now: {} (joins release everything)",
        stats.pinned_bytes
    );
    assert_eq!(result, Value::Int(42));
}
