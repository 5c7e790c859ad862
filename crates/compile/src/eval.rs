//! Executing compiled programs on the entanglement-managed runtime.
//!
//! This is "the back end of the MPL compiler" in miniature: the calculus
//! runs with *all* of its data in the managed hierarchical heap —
//! environments are heap-allocated frames, closures are heap records,
//! `ref`/`!`/`:=` hit the real read/write barriers (so cross-task effects
//! entangle and pin exactly as in compiled Parallel ML), and `par` maps
//! onto the runtime's fork-join, whose branches get child heaps on first
//! use.
//!
//! ## Heap representation
//!
//! * unit / bool / int — immediates;
//! * pair — a 2-field tuple `[a, b]`;
//! * closure — a 2-field tuple `[Int(code_id * 2 + is_fix), env]`;
//! * environment — unit (empty) or a 2-field tuple `[value, parent]`;
//! * `ref` — a runtime mutable cell.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mpl_lang::BinOp;
use mpl_runtime::{Mutator, Value};

use crate::lower::CExpr;

/// Runtime failures of compiled (hence well-typed) programs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// Division or modulus by zero.
    DivZero,
    /// Array index out of bounds.
    Bounds,
    /// The step budget ran out.
    Fuel,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::DivZero => write!(f, "division by zero"),
            EvalError::Bounds => write!(f, "array index out of bounds"),
            EvalError::Fuel => write!(f, "step budget exhausted"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Shared evaluation context: the dynamically-built code table (one entry
/// per distinct lambda/fix body) and the fuel counter, both shared across
/// fork branches.
pub struct EvalCx {
    code: Mutex<Vec<(Arc<CExpr>, bool)>>,
    fuel: AtomicU64,
}

impl EvalCx {
    /// Creates a context with the given step budget.
    pub fn new(fuel: u64) -> Arc<EvalCx> {
        Arc::new(EvalCx {
            code: Mutex::new(Vec::new()),
            fuel: AtomicU64::new(fuel),
        })
    }

    fn intern(&self, body: &Arc<CExpr>, is_fix: bool) -> usize {
        let mut table = self.code.lock();
        // Deduplicate by body identity (the same syntactic lambda is
        // usually interned once; duplicates are harmless).
        if let Some(i) = table
            .iter()
            .position(|(b, f)| Arc::ptr_eq(b, body) && *f == is_fix)
        {
            return i;
        }
        table.push((Arc::clone(body), is_fix));
        table.len() - 1
    }

    fn entry(&self, id: usize) -> (Arc<CExpr>, bool) {
        let table = self.code.lock();
        let (b, f) = &table[id];
        (Arc::clone(b), *f)
    }

    fn spend(&self) -> Result<(), EvalError> {
        // Saturating decrement; hitting zero ends the run.
        let prev = self.fuel.fetch_sub(1, Ordering::Relaxed);
        if prev == 0 {
            self.fuel.store(0, Ordering::Relaxed);
            return Err(EvalError::Fuel);
        }
        Ok(())
    }
}

/// Looks up de Bruijn index `i` in a heap environment chain.
fn env_lookup(m: &mut Mutator<'_>, mut env: Value, mut i: usize) -> Value {
    while i > 0 {
        env = m.tuple_get(env, 1);
        i -= 1;
    }
    m.tuple_get(env, 0)
}

/// Extends an environment with one binding (heap allocation).
fn env_bind(m: &mut Mutator<'_>, env: Value, v: Value) -> Value {
    m.alloc_tuple(&[v, env])
}

/// Evaluates `e` under `env`, all state in the managed heap.
///
/// Tail positions (application bodies, `let`/`seq` continuations, `if`
/// branches) iterate instead of recursing, so tail-recursive calculus
/// loops run in constant Rust stack.
pub fn eval(
    m: &mut Mutator<'_>,
    cx: &Arc<EvalCx>,
    e: &Arc<CExpr>,
    env: Value,
) -> Result<Value, EvalError> {
    let mut e = Arc::clone(e);
    let mut env = env;
    loop {
        cx.spend()?;
        let cur = Arc::clone(&e);
        match &*cur {
            CExpr::Var(i) => return Ok(env_lookup(m, env, *i)),
            CExpr::Int(n) => return Ok(Value::Int(*n)),
            CExpr::Bool(b) => return Ok(Value::Bool(*b)),
            CExpr::Unit => return Ok(Value::Unit),
            CExpr::Lam(body) => {
                let id = cx.intern(body, false);
                return Ok(m.alloc_tuple(&[Value::Int((id * 2) as i64), env]));
            }
            CExpr::Fix(body) => {
                let id = cx.intern(body, true);
                return Ok(m.alloc_tuple(&[Value::Int((id * 2 + 1) as i64), env]));
            }
            CExpr::App(f, a) => {
                let mark = m.mark();
                let henv = m.root(env);
                let fv = eval(m, cx, f, env)?;
                let hf = m.root(fv);
                let env2 = m.get(&henv);
                let av = eval(m, cx, a, env2)?;
                let fv = m.get(&hf);
                let tag = m.tuple_get(fv, 0).expect_int() as usize;
                let fenv = m.tuple_get(fv, 1);
                let (body, is_fix) = cx.entry(tag / 2);
                debug_assert_eq!(is_fix, tag % 2 == 1);
                // Call environment: [x, (f,)? closure-env].
                let ha = m.root(av);
                let call_env = if is_fix {
                    let hfe = m.root(fenv);
                    let fv2 = m.get(&hf);
                    let fe = m.get(&hfe);
                    let with_self = env_bind(m, fe, fv2);
                    let a2 = m.get(&ha);
                    env_bind(m, with_self, a2)
                } else {
                    let hfe = m.root(fenv);
                    let fe = m.get(&hfe);
                    let a2 = m.get(&ha);
                    env_bind(m, fe, a2)
                };
                m.release(mark);
                e = body;
                env = call_env;
            }
            CExpr::Pair(a, b) => {
                let mark = m.mark();
                let henv = m.root(env);
                let va = eval(m, cx, a, env)?;
                let ha = m.root(va);
                let env2 = m.get(&henv);
                let vb = eval(m, cx, b, env2)?;
                let va = m.get(&ha);
                let p = m.alloc_tuple(&[va, vb]);
                m.release(mark);
                return Ok(p);
            }
            CExpr::Fst(a) => {
                let v = eval(m, cx, a, env)?;
                return Ok(m.tuple_get(v, 0));
            }
            CExpr::Snd(a) => {
                let v = eval(m, cx, a, env)?;
                return Ok(m.tuple_get(v, 1));
            }
            CExpr::Let(rhs, body) => {
                let mark = m.mark();
                let henv = m.root(env);
                let v = eval(m, cx, rhs, env)?;
                let env2 = m.get(&henv);
                let env3 = env_bind(m, env2, v);
                m.release(mark);
                e = Arc::clone(body);
                env = env3;
            }
            CExpr::If(c, t, f) => {
                let mark = m.mark();
                let henv = m.root(env);
                let cv = eval(m, cx, c, env)?;
                let env2 = m.get(&henv);
                m.release(mark);
                match cv {
                    Value::Bool(true) => e = Arc::clone(t),
                    Value::Bool(false) => e = Arc::clone(f),
                    other => unreachable!("typechecked condition was {other:?}"),
                }
                env = env2;
            }
            CExpr::Ref(a) => {
                let v = eval(m, cx, a, env)?;
                return Ok(m.alloc_ref(v));
            }
            CExpr::Deref(a) => {
                let r = eval(m, cx, a, env)?;
                // The real read barrier: remote pointees pin here.
                return Ok(m.read_ref(r));
            }
            CExpr::Assign(a, b) => {
                let mark = m.mark();
                let henv = m.root(env);
                let r = eval(m, cx, a, env)?;
                let hr = m.root(r);
                let env2 = m.get(&henv);
                let v = eval(m, cx, b, env2)?;
                let r = m.get(&hr);
                // The real write barrier: remsets and entangled-write pins.
                m.write_ref(r, v);
                m.release(mark);
                return Ok(Value::Unit);
            }
            CExpr::Par(a, b) => {
                let (a, b) = (Arc::clone(a), Arc::clone(b));
                let mark = m.mark();
                let henv = m.root(env);
                let err: Mutex<Option<EvalError>> = Mutex::new(None);
                let (va, vb) = m.fork(
                    |m| {
                        let env = m.get(&henv);
                        match eval(m, cx, &a, env) {
                            Ok(v) => v,
                            Err(e) => {
                                *err.lock() = Some(e);
                                Value::Unit
                            }
                        }
                    },
                    |m| {
                        let env = m.get(&henv);
                        match eval(m, cx, &b, env) {
                            Ok(v) => v,
                            Err(e) => {
                                *err.lock() = Some(e);
                                Value::Unit
                            }
                        }
                    },
                );
                if let Some(e) = err.lock().take() {
                    return Err(e);
                }
                let ha = m.root(va);
                let hb = m.root(vb);
                let (va, vb) = (m.get(&ha), m.get(&hb));
                let p = m.alloc_tuple(&[va, vb]);
                m.release(mark);
                return Ok(p);
            }
            CExpr::Seq(a, b) => {
                let mark = m.mark();
                let henv = m.root(env);
                let _ = eval(m, cx, a, env)?;
                let env2 = m.get(&henv);
                m.release(mark);
                e = Arc::clone(b);
                env = env2;
            }
            CExpr::Array(n, init) => {
                let mark = m.mark();
                let henv = m.root(env);
                let nv = eval(m, cx, n, env)?;
                let env2 = m.get(&henv);
                let iv = eval(m, cx, init, env2)?;
                let len = nv.expect_int();
                if len < 0 {
                    return Err(EvalError::Bounds);
                }
                let arr = m.alloc_array(len as usize, iv);
                m.release(mark);
                return Ok(arr);
            }
            CExpr::Sub(a, i) => {
                let mark = m.mark();
                let henv = m.root(env);
                let av = eval(m, cx, a, env)?;
                let ha = m.root(av);
                let env2 = m.get(&henv);
                let iv = eval(m, cx, i, env2)?;
                let av = m.get(&ha);
                m.release(mark);
                let idx = iv.expect_int();
                if idx < 0 || idx as usize >= m.len(av) {
                    return Err(EvalError::Bounds);
                }
                // The real array read barrier.
                return Ok(m.arr_get(av, idx as usize));
            }
            CExpr::Update(a, i, v) => {
                let mark = m.mark();
                let henv = m.root(env);
                let av = eval(m, cx, a, env)?;
                let ha = m.root(av);
                let env2 = m.get(&henv);
                let iv = eval(m, cx, i, env2)?;
                let hi = m.root(iv);
                let env3 = m.get(&henv);
                let vv = eval(m, cx, v, env3)?;
                let (av, iv) = (m.get(&ha), m.get(&hi));
                let idx = iv.expect_int();
                if idx < 0 || idx as usize >= m.len(av) {
                    return Err(EvalError::Bounds);
                }
                // The real array write barrier.
                m.arr_set(av, idx as usize, vv);
                m.release(mark);
                return Ok(Value::Unit);
            }
            CExpr::Length(a) => {
                let av = eval(m, cx, a, env)?;
                return Ok(Value::Int(m.len(av) as i64));
            }
            CExpr::Bin(op, a, b) => {
                let mark = m.mark();
                let henv = m.root(env);
                // Short-circuit operators evaluate lazily.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let va = eval(m, cx, a, env)?;
                    let env2 = m.get(&henv);
                    m.release(mark);
                    match (op, va) {
                        (BinOp::And, Value::Bool(false)) => return Ok(Value::Bool(false)),
                        (BinOp::Or, Value::Bool(true)) => return Ok(Value::Bool(true)),
                        _ => {
                            e = Arc::clone(b);
                            env = env2;
                            continue;
                        }
                    }
                }
                let va = eval(m, cx, a, env)?;
                let env2 = m.get(&henv);
                let vb = eval(m, cx, b, env2)?;
                m.release(mark);
                return prim(*op, va, vb);
            }
        }
    }
}

fn prim(op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
    use BinOp::*;
    let ints = |a: Value, b: Value| (a.expect_int(), b.expect_int());
    Ok(match op {
        Add => {
            let (x, y) = ints(a, b);
            Value::Int(x.wrapping_add(y))
        }
        Sub => {
            let (x, y) = ints(a, b);
            Value::Int(x.wrapping_sub(y))
        }
        Mul => {
            let (x, y) = ints(a, b);
            Value::Int(x.wrapping_mul(y))
        }
        Div => {
            let (x, y) = ints(a, b);
            if y == 0 {
                return Err(EvalError::DivZero);
            }
            Value::Int(x.div_euclid(y))
        }
        Mod => {
            let (x, y) = ints(a, b);
            if y == 0 {
                return Err(EvalError::DivZero);
            }
            Value::Int(x.rem_euclid(y))
        }
        Lt => {
            let (x, y) = ints(a, b);
            Value::Bool(x < y)
        }
        Le => {
            let (x, y) = ints(a, b);
            Value::Bool(x <= y)
        }
        Gt => {
            let (x, y) = ints(a, b);
            Value::Bool(x > y)
        }
        Ge => {
            let (x, y) = ints(a, b);
            Value::Bool(x >= y)
        }
        Eq => Value::Bool(a == b),
        And | Or => unreachable!("short-circuit handled above"),
    })
}
