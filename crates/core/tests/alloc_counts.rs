//! Exact allocation accounting: one program whose object, byte and block
//! counts follow from the size classes alone, run at one and at two
//! workers. With the collection trigger off, the only local collections
//! are the forced one and the run's final one, so every block is
//! accounted for below.

use mpl_heap::{DEFAULT_BLOCK_WORDS, FIRST_BLOCK_WORDS};
use mpl_runtime::{GcPolicy, Runtime, RuntimeConfig, Value};

/// Fields of the tuples in the 4-field stream.
const T4: usize = 4;
/// Fields of the tuples in the 14-field stream.
const T14: usize = 14;
/// Words of the raw array.
const RAW: usize = 100_000;

fn bytes(fields: usize) -> u64 {
    16 + 8 * fields as u64
}

/// Blocks one heap takes for `n` tuples of `fields` fields in one size
/// class: a first block of `FIRST_BLOCK_WORDS`, then full-size ones.
fn blocks(n: usize, fields: usize) -> u64 {
    let words = 2 + fields;
    let first = FIRST_BLOCK_WORDS / words;
    1 + (n - first).div_ceil(DEFAULT_BLOCK_WORDS / words) as u64
}

/// Allocates 10 000 `tuple4`, 1 000 `tuple14` and one raw array, forces a
/// local collection with the array rooted, then forks with each branch
/// allocating 1 000 `tuple4`; the array is the run's result. With no pool
/// the right branch runs in the left one's heap; at two workers it is
/// stolen and takes a heap of its own.
fn program(threads: usize) -> Runtime {
    let cfg = RuntimeConfig::managed()
        .with_policy(GcPolicy::disabled())
        .with_threads_exact(threads);
    let rt = Runtime::new(cfg);
    let result = rt.run(|m| {
        for i in 0..10_000 {
            m.alloc_tuple(&[Value::Int(i); T4]);
        }
        for i in 0..1_000 {
            m.alloc_tuple(&[Value::Int(i); T14]);
        }
        let raw = m.alloc_raw(RAW);
        let raw = m.root(raw);
        m.force_lgc(&mut []);
        let branch = |m: &mut mpl_runtime::Mutator<'_>| {
            for i in 0..1_000 {
                m.alloc_tuple(&[Value::Int(i); T4]);
            }
            Value::Unit
        };
        m.fork_stolen(branch, branch);
        m.get(&raw)
    });
    assert!(matches!(result, Value::Obj(_)));
    rt
}

fn assert_counts(rt: &Runtime) {
    let s = rt.stats();
    assert_eq!(s.allocs, 10_000 + 1_000 + 1 + 2 * 1_000);
    let raw = bytes(RAW);
    assert_eq!(
        s.alloc_bytes,
        10_000 * bytes(T4) + 1_000 * bytes(T14) + raw + 2_000 * bytes(T4)
    );
    // A 64-word first block holds 10 six-word tuples or 4 sixteen-word
    // ones, a 512-word block 85 or 32: 1 + 118 blocks for the first
    // stream, 1 + 32 for the second, 1 + 24 for the branches sharing a
    // heap or 1 + 12 for each branch in its own; the raw array gets a
    // dedicated block when allocated and another each time a collection
    // copies it (forced, then at the run's end).
    let (first, second) = (blocks(10_000, T4), blocks(1_000, T14));
    assert_eq!((first, second), (119, 33));
    let branches = if rt.config().threads > 1 {
        2 * blocks(1_000, T4)
    } else {
        blocks(2_000, T4)
    };
    assert_eq!(branches, if rt.config().threads > 1 { 26 } else { 25 });
    assert_eq!(s.blocks_allocated, first + second + 1 + 1 + branches + 1);
    assert_eq!(s.lgc_copied_bytes, 2 * raw);
    // Every region settled: the blocks' live bytes add up to the gauge,
    // which holds exactly the surviving array.
    let blocks = rt.store().blocks().live_blocks();
    let settled: usize = blocks.iter().map(|b| b.live_bytes()).sum();
    assert_eq!(settled, s.live_bytes);
    assert_eq!(s.live_bytes as u64, raw);
}

#[test]
fn one_worker_counts_every_object_byte_and_block() {
    let rt = program(1);
    assert_counts(&rt);
    rt.assert_heap_sound();
}

#[test]
fn two_workers_count_the_same_and_leave_a_sound_heap() {
    let rt = program(2);
    assert_counts(&rt);
    rt.assert_heap_sound();
}
