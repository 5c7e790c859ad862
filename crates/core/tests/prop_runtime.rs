//! Property tests for the runtime: random fork-join programs with shared
//! mutable state, executed against a plain-Rust oracle that mirrors the
//! deterministic depth-first schedule.

use proptest::prelude::*;

use mpl_runtime::{GcPolicy, Handle, Mutator, Runtime, RuntimeConfig, StoreConfig, Value};

/// A random program over `NCELLS` shared cells: a tree of forks whose
/// leaves perform read/write/accumulate operations.
#[derive(Clone, Debug)]
enum Prog {
    /// Leaf: a sequence of primitive steps.
    Leaf(Vec<Step>),
    /// Fork two subprograms and sum their results.
    Fork(Box<Prog>, Box<Prog>),
}

#[derive(Clone, Debug)]
enum Step {
    /// Read cell `c` (boxed int) and add it to the accumulator.
    ReadAdd(usize),
    /// Write a fresh boxed value `v` into cell `c`.
    WriteBox(usize, i64),
    /// Allocate garbage (exercises the collector mid-program).
    Churn(u8),
}

const NCELLS: usize = 4;

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..NCELLS).prop_map(Step::ReadAdd),
        ((0..NCELLS), -50i64..50).prop_map(|(c, v)| Step::WriteBox(c, v)),
        (1u8..16).prop_map(Step::Churn),
    ]
}

fn prog(depth: u32) -> BoxedStrategy<Prog> {
    let leaf = proptest::collection::vec(step(), 0..8).prop_map(Prog::Leaf);
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = prog(depth - 1);
    prop_oneof![
        2 => leaf,
        1 => (sub.clone(), sub).prop_map(|(a, b)| Prog::Fork(Box::new(a), Box::new(b))),
    ]
    .boxed()
}

/// Oracle: interprets the program depth-first over plain Rust state.
fn oracle(p: &Prog, cells: &mut [i64; NCELLS]) -> i64 {
    match p {
        Prog::Leaf(steps) => {
            let mut acc = 0;
            for s in steps {
                match s {
                    Step::ReadAdd(c) => acc += cells[*c],
                    Step::WriteBox(c, v) => cells[*c] = *v,
                    Step::Churn(_) => {}
                }
            }
            acc
        }
        Prog::Fork(a, b) => {
            // Depth-first: left runs fully before right.
            oracle(a, cells) + oracle(b, cells)
        }
    }
}

/// Managed-runtime interpretation: cells hold boxed integers so that
/// cross-task publications are pointer effects (entanglement).
fn run_prog(m: &mut Mutator<'_>, cells: &Handle, p: &Prog) -> i64 {
    match p {
        Prog::Leaf(steps) => {
            let mut acc = 0;
            for s in steps {
                match s {
                    Step::ReadAdd(c) => {
                        let table = m.get(cells);
                        let boxed = m.arr_get(table, *c);
                        acc += m.tuple_get(boxed, 0).expect_int();
                    }
                    Step::WriteBox(c, v) => {
                        let boxed = m.alloc_tuple(&[Value::Int(*v)]);
                        let table = m.get(cells);
                        m.arr_set(table, *c, boxed);
                    }
                    Step::Churn(n) => {
                        for i in 0..*n {
                            let _ = m.alloc_tuple(&[Value::Int(i as i64), Value::Unit]);
                        }
                    }
                }
            }
            acc
        }
        Prog::Fork(a, b) => {
            let (x, y) = m.fork(
                |m| Value::Int(run_prog(m, cells, a)),
                |m| Value::Int(run_prog(m, cells, b)),
            );
            x.expect_int() + y.expect_int()
        }
    }
}

fn configs() -> Vec<(&'static str, RuntimeConfig)> {
    vec![
        ("default", RuntimeConfig::managed()),
        (
            "pressure",
            RuntimeConfig {
                policy: GcPolicy {
                    lgc_trigger_bytes: 512,
                    cgc_trigger_pinned_bytes: 2048,
                },
                store: StoreConfig {
                    block_words: 32,
                    ..Default::default()
                },
                ..RuntimeConfig::managed()
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every random effectful fork-join program computes exactly what the
    /// depth-first oracle computes, under default and aggressive-GC
    /// configurations, with all pins resolved at the end.
    #[test]
    fn random_programs_match_oracle(p in prog(4)) {
        let mut cells = [0i64; NCELLS];
        let expect = oracle(&p, &mut cells);
        for (label, cfg) in configs() {
            let rt = Runtime::new(cfg);
            let got = rt.run(|m| {
                let table = m.alloc_array(NCELLS, Value::Unit);
                let h = m.root(table);
                for c in 0..NCELLS {
                    let zero = m.alloc_tuple(&[Value::Int(0)]);
                    let table = m.get(&h);
                    m.arr_set(table, c, zero);
                }
                Value::Int(run_prog(m, &h, &p))
            });
            prop_assert_eq!(got, Value::Int(expect), "config {}", label);
            let s = rt.stats();
            prop_assert_eq!(s.pinned_bytes, 0, "config {}: pins resolve", label);
        }
    }

    /// Tier agreement: the barrier's fast-tier exits (suspects check,
    /// immediate-store exit, same-leaf pointer-store exit) are pure
    /// elisions of the slow tier. Running the same mutation trace with
    /// the fast tiers enabled and with `force_slow_path` (every access
    /// through the full locate/LCA machinery) must produce identical
    /// results and identical final heap contents.
    #[test]
    fn fast_and_forced_slow_tiers_agree(p in prog(4)) {
        let run_with = |cfg: RuntimeConfig| {
            let rt = Runtime::new(cfg);
            let out = rt.run(|m| {
                let table = m.alloc_array(NCELLS, Value::Unit);
                let h = m.root(table);
                for c in 0..NCELLS {
                    let zero = m.alloc_tuple(&[Value::Int(0)]);
                    let table = m.get(&h);
                    m.arr_set(table, c, zero);
                }
                let acc = run_prog(m, &h, &p);
                // Fold the final heap contents (every cell's boxed int)
                // into the digest so the comparison covers state, not
                // just the accumulated result.
                let mut digest = acc;
                for c in 0..NCELLS {
                    let table = m.get(&h);
                    let boxed = m.arr_get(table, c);
                    let v = m.tuple_get(boxed, 0).expect_int();
                    digest = digest.wrapping_mul(31).wrapping_add(v);
                }
                m.sync_stats();
                let s = m.runtime().stats();
                assert_eq!(
                    s.barrier_read_fast + s.barrier_read_slow,
                    s.barrier_reads,
                    "every counted read lands in exactly one tier"
                );
                assert_eq!(
                    s.barrier_write_fast + s.barrier_write_slow,
                    s.barrier_writes,
                    "every counted write lands in exactly one tier"
                );
                Value::Int(digest)
            });
            (out, rt.stats().barrier_write_fast + rt.stats().barrier_read_fast)
        };
        let (fast_out, _) = run_with(RuntimeConfig::managed());
        let (slow_out, slow_count) = run_with(RuntimeConfig::managed().with_force_slow_path());
        prop_assert_eq!(fast_out, slow_out, "results and final heap contents agree across tiers");
        prop_assert_eq!(slow_count, 0, "force_slow_path leaves no fast-tier entries");
    }

    /// The same programs agree between the sequential executor and the
    /// real-thread executor whenever they are race-free by construction
    /// (no cell is written in one branch of a fork and accessed in the
    /// other — we conservatively only test fork-free programs here, where
    /// the two executors are trivially equivalent, plus pure fork trees).
    #[test]
    fn threaded_matches_sequential_for_leaf_programs(steps in proptest::collection::vec(step(), 0..24)) {
        let p = Prog::Leaf(steps);
        let mut cells = [0i64; NCELLS];
        let expect = oracle(&p, &mut cells);
        let rt = Runtime::new(RuntimeConfig::managed().with_threads(3));
        let got = rt.run(|m| {
            let table = m.alloc_array(NCELLS, Value::Unit);
            let h = m.root(table);
            for c in 0..NCELLS {
                let zero = m.alloc_tuple(&[Value::Int(0)]);
                let table = m.get(&h);
                m.arr_set(table, c, zero);
            }
            Value::Int(run_prog(m, &h, &p))
        });
        prop_assert_eq!(got, Value::Int(expect));
    }
}
