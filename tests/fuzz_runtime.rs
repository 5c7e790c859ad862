//! Runtime-level fuzzing: random fork trees that allocate, publish,
//! acquire (entangle), mutate, and collect — interpreted side by side
//! with a pure oracle.
//!
//! The graph-level property tests in `crates/gc` exercise the collectors
//! on fixed object graphs; this suite drives the *whole mutator surface*
//! (barriers, pinning, rooting, fork/join, LGC triggers) through random
//! programs, so collector/barrier interactions that only arise from real
//! allocation and scheduling order get covered too.
//!
//! Under the sequential executor the fork order (left, then right) is
//! deterministic, so every read is checked against the oracle exactly.
//! Under real threads results may race; those runs check the structural
//! invariants only (no crash, pins resolve, heap certifies sound).

use proptest::prelude::*;
use std::sync::Mutex;

use mpl_runtime::{GcPolicy, Mutator, Runtime, RuntimeConfig, StoreConfig, Value};

/// Number of shared "mailbox" slots through which branches entangle.
const SHARED: usize = 4;

/// One step of a fuzz program. Indices are taken modulo the live
/// environment, so every generated program is valid by construction.
#[derive(Clone, Debug)]
enum Op {
    /// Allocate a fresh ref cell holding the constant.
    New(i64),
    /// Overwrite an existing cell (no-op on an empty environment).
    Set(usize, i64),
    /// Read a cell and check it against the oracle.
    Get(usize),
    /// Store cell `i` into shared mailbox `s` (a cross-heap write: this
    /// is what creates down-pointers and suspect marks).
    Publish(usize, usize),
    /// Load mailbox `s` and read through it (the entangling read: the
    /// cell may be owned by a concurrent sibling).
    Acquire(usize),
    /// Run both halves as parallel tasks.
    Fork(Vec<Op>, Vec<Op>),
    /// Force a local collection.
    Collect,
}

fn op_strategy(depth: u32) -> BoxedStrategy<Op> {
    let leaf = prop_oneof![
        3 => (-100i64..100).prop_map(Op::New),
        2 => (any::<usize>(), -100i64..100).prop_map(|(i, v)| Op::Set(i, v)),
        3 => any::<usize>().prop_map(Op::Get),
        2 => (any::<usize>(), 0..SHARED).prop_map(|(i, s)| Op::Publish(i, s)),
        2 => (0..SHARED).prop_map(Op::Acquire),
        1 => Just(Op::Collect),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = proptest::collection::vec(op_strategy(depth - 1), 0..6);
    prop_oneof![
        5 => leaf,
        2 => (sub.clone(), sub).prop_map(|(l, r)| Op::Fork(l, r)),
    ]
    .boxed()
}

fn program() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(3), 1..12)
}

/// Pure oracle: cells are plain integers; mailboxes hold cell ids.
struct Model {
    cells: Vec<i64>,
    shared: [Option<usize>; SHARED],
}

/// Interprets `ops` in task `m`, mirroring every step in the oracle.
/// `env` pairs each rooted runtime cell with its oracle id.
fn interpret(
    m: &mut Mutator<'_>,
    ops: &[Op],
    env: &mut Vec<(mpl_runtime::Handle, usize)>,
    model: &Mutex<Model>,
    shared_arr: &mpl_runtime::Handle,
    check_values: bool,
) {
    for op in ops {
        match op {
            Op::New(v) => {
                let cell = m.alloc_ref(Value::Int(*v));
                let h = m.root(cell);
                let id = {
                    let mut mo = model.lock().unwrap();
                    mo.cells.push(*v);
                    mo.cells.len() - 1
                };
                env.push((h, id));
            }
            Op::Set(i, v) => {
                if env.is_empty() {
                    continue;
                }
                let (h, id) = &env[i % env.len()];
                let cell = m.get(h);
                m.write_ref(cell, Value::Int(*v));
                model.lock().unwrap().cells[*id] = *v;
            }
            Op::Get(i) => {
                if env.is_empty() {
                    continue;
                }
                let (h, id) = &env[i % env.len()];
                let cell = m.get(h);
                let got = m.read_ref(cell);
                if check_values {
                    assert_eq!(
                        got,
                        Value::Int(model.lock().unwrap().cells[*id]),
                        "Get({i}) disagreed with the oracle"
                    );
                }
            }
            Op::Publish(i, s) => {
                if env.is_empty() {
                    continue;
                }
                let (h, id) = &env[i % env.len()];
                let cell = m.get(h);
                let arr = m.get(shared_arr);
                m.arr_set(arr, *s, cell);
                model.lock().unwrap().shared[*s] = Some(*id);
            }
            Op::Acquire(s) => {
                let arr = m.get(shared_arr);
                let v = m.arr_get(arr, *s);
                if let Value::Obj(_) = v {
                    // The entangling read: the published cell may belong
                    // to a concurrent sibling's heap.
                    let got = m.read_ref(v);
                    if check_values {
                        let mo = model.lock().unwrap();
                        let id = mo.shared[*s].expect("oracle saw the publish");
                        assert_eq!(
                            got,
                            Value::Int(mo.cells[id]),
                            "Acquire({s}) disagreed with the oracle"
                        );
                    }
                    // Adopt the acquired cell into this task's working set
                    // so later Set/Get steps mutate remote state too.
                    if check_values {
                        let id = model.lock().unwrap().shared[*s].unwrap();
                        let h = m.root(v);
                        env.push((h, id));
                    }
                }
            }
            Op::Fork(l, r) => {
                // Children inherit the parent environment (handles are
                // readable from descendants) plus their own extensions.
                let le: Mutex<Vec<(mpl_runtime::Handle, usize)>> = Mutex::new(env.clone());
                let re: Mutex<Vec<(mpl_runtime::Handle, usize)>> = Mutex::new(env.clone());
                m.fork(
                    |m| {
                        let mut env = le.lock().unwrap();
                        interpret(m, l, &mut env, model, shared_arr, check_values);
                        Value::Unit
                    },
                    |m| {
                        let mut env = re.lock().unwrap();
                        interpret(m, r, &mut env, model, shared_arr, check_values);
                        Value::Unit
                    },
                );
            }
            Op::Collect => {
                m.force_lgc(&mut []);
            }
        }
    }
}

fn run_fuzz(ops: &[Op], cfg: RuntimeConfig, check_values: bool) {
    let rt = Runtime::new(cfg);
    let model = Mutex::new(Model {
        cells: Vec::new(),
        shared: [None; SHARED],
    });
    rt.run(|m| {
        let arr = m.alloc_array(SHARED, Value::Unit);
        let shared_arr = m.root(arr);
        let mut env = Vec::new();
        interpret(m, ops, &mut env, &model, &shared_arr, check_values);
        Value::Unit
    });
    assert_eq!(
        rt.stats().pinned_bytes,
        0,
        "all pins resolve at the root join"
    );
    rt.assert_heap_sound();
}

fn pressure() -> RuntimeConfig {
    RuntimeConfig {
        policy: GcPolicy {
            lgc_trigger_bytes: 2 * 1024,
            cgc_trigger_pinned_bytes: 4 * 1024,
        },
        store: StoreConfig {
            block_words: 32,
            ..Default::default()
        },
        ..RuntimeConfig::managed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential executor: every read agrees with the pure oracle, under
    /// the default policy and aggressive collection pressure.
    #[test]
    fn random_programs_agree_with_oracle(ops in program()) {
        run_fuzz(&ops, RuntimeConfig::managed(), true);
        run_fuzz(&ops, pressure(), true);
    }

    /// The suspects fast path is semantics-preserving on random programs.
    #[test]
    fn random_programs_suspects_off(ops in program()) {
        let mut cfg = RuntimeConfig::managed();
        cfg.suspects = false;
        run_fuzz(&ops, cfg, true);
    }
}

proptest! {
    // Thread spawns per case make these slower; fewer cases suffice
    // because the interesting schedules come from the OS anyway.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Real threads: results may race, but the structure must stay sound
    /// (no panic, pins resolve, heap certifies).
    #[test]
    fn random_programs_threaded_sound(ops in program()) {
        run_fuzz(&ops, RuntimeConfig::managed().with_threads(3), false);
        run_fuzz(&ops, pressure().with_threads(3), false);
    }
}
