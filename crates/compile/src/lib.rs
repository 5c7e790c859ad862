//! # mpl-compile — the compiler pipeline onto the managed runtime
//!
//! The miniature analogue of the MPL compiler from *"Efficient Parallel
//! Functional Programming with Effects"* (PLDI 2023): source programs in
//! the λ-par-ref calculus are
//!
//! 1. **parsed** (by [`mpl_lang::parser`]),
//! 2. **typechecked** with Hindley–Milner inference and the ML value
//!    restriction ([`types`]),
//! 3. **lowered** to a de Bruijn-indexed, thread-shareable core IR
//!    ([`mod@lower`]), and
//! 4. **executed on the entanglement-managed runtime** ([`mod@eval`]) — with
//!    environments, closures, and pairs allocated in the hierarchical
//!    heap, `!`/`:=` passing through the real read/write barriers, and
//!    `par` mapped onto runtime fork-join.
//!
//! The payoff is end-to-end agreement checking: the same program runs
//! under the paper's *formal semantics* (`mpl-lang`) and under the
//! *runtime implementation*, and the entanglement cost metrics of the
//! two can be compared directly (experiment E8).
//!
//! ```
//! use mpl_compile::run_source;
//! use mpl_runtime::{Runtime, RuntimeConfig};
//!
//! let rt = Runtime::new(RuntimeConfig::managed());
//! let out = run_source(&rt, "let r = ref 41 in r := !r + 1; !r", 100_000).unwrap();
//! assert_eq!(out.rendered, "42");
//! assert_eq!(out.ty.to_string(), "int");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disentangle;
pub mod eval;
pub mod lower;
pub mod types;

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use mpl_lang::{parse, Expr, ParseError};
use mpl_runtime::{Mutator, Runtime, Value};

pub use disentangle::{analyze, Reason, Verdict};
pub use eval::{eval, EvalCx, EvalError};
pub use lower::{lower, CExpr, LowerError};
pub use types::{typecheck, typecheck_with_mutables, Type, TypeError};

/// A full pipeline failure.
#[derive(Clone, PartialEq, Debug)]
pub enum PipelineError {
    /// Parse error.
    Parse(ParseError),
    /// Type error.
    Type(TypeError),
    /// Lowering error (unbound variable that escaped the typechecker —
    /// impossible for typechecked terms, but the API is total).
    Lower(LowerError),
    /// Runtime error (division by zero, fuel).
    Eval(EvalError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "{e}"),
            PipelineError::Type(e) => write!(f, "{e}"),
            PipelineError::Lower(e) => write!(f, "{e}"),
            PipelineError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Output of a compiled run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The result rendered structurally (type-directed).
    pub rendered: String,
    /// The program's inferred type.
    pub ty: Type,
}

/// Type-directed rendering of a runtime value.
fn render(m: &mut Mutator<'_>, v: Value, ty: &Type) -> String {
    match (ty, v) {
        (Type::Int, Value::Int(n)) if n < 0 => format!("~{}", n.unsigned_abs()),
        (Type::Int, Value::Int(n)) => n.to_string(),
        (Type::Bool, Value::Bool(b)) => b.to_string(),
        (Type::Unit, Value::Unit) => "()".to_string(),
        (Type::Pair(a, b), p @ Value::Obj(_)) => {
            let va = m.tuple_get(p, 0);
            let vb = m.tuple_get(p, 1);
            let sa = render(m, va, a);
            let sb = render(m, vb, b);
            format!("({sa}, {sb})")
        }
        (Type::Ref(t), r @ Value::Obj(_)) => {
            let inner = m.read_ref(r);
            format!("ref {}", render(m, inner, t))
        }
        (Type::Array(t), a @ Value::Obj(_)) => {
            let n = m.len(a);
            let mut parts = Vec::new();
            for i in 0..n.min(8) {
                let v = m.arr_get(a, i);
                parts.push(render(m, v, t));
            }
            let ell = if n > 8 { ", …" } else { "" };
            format!("[|{}{}|]", parts.join(", "), ell)
        }
        (Type::Fn(..), _) => "<fn>".to_string(),
        (Type::Var(_), _) => "<abstract>".to_string(),
        (t, v) => format!("<ill-rendered {v:?} : {t}>"),
    }
}

/// Compiles an already-parsed expression and runs it on `rt`.
pub fn run_expr_on(rt: &Runtime, e: &Expr, fuel: u64) -> Result<RunOutput, PipelineError> {
    let ty = typecheck(e).map_err(PipelineError::Type)?;
    let core = lower(e).map_err(PipelineError::Lower)?;
    let cx = EvalCx::new(fuel);
    let result: Mutex<Result<String, EvalError>> = Mutex::new(Err(EvalError::Fuel));
    rt.run(|m| {
        let out = eval(m, &cx, &core, Value::Unit);
        *result.lock() = match out {
            Ok(v) => Ok(render(m, v, &ty)),
            Err(e) => Err(e),
        };
        Value::Unit
    });
    let rendered = result.into_inner().map_err(PipelineError::Eval)?;
    Ok(RunOutput { rendered, ty })
}

/// Parses, typechecks, lowers, and runs a source program on `rt`.
pub fn run_source(rt: &Runtime, src: &str, fuel: u64) -> Result<RunOutput, PipelineError> {
    let e = parse(src).map_err(PipelineError::Parse)?;
    run_expr_on(rt, &e, fuel)
}

/// Convenience re-export so callers can keep `Arc<CExpr>` around.
pub type CoreProgram = Arc<CExpr>;

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::RuntimeConfig;

    fn run(src: &str) -> RunOutput {
        let rt = Runtime::new(RuntimeConfig::managed());
        run_source(&rt, src, 10_000_000).unwrap_or_else(|e| panic!("{e}: {src}"))
    }

    #[test]
    fn arithmetic_and_pairs() {
        assert_eq!(run("1 + 2 * 3").rendered, "7");
        assert_eq!(run("(1, (true, ()))").rendered, "(1, (true, ()))");
        assert_eq!(run("fst (1, 2) + snd (3, 4)").rendered, "5");
        assert_eq!(run("0 - 5").rendered, "~5");
    }

    #[test]
    fn closures_and_recursion() {
        assert_eq!(run("(fn x => x + 1) 41").rendered, "42");
        assert_eq!(
            run("let f = fix f n => if n = 0 then 1 else n * f (n - 1) in f 6").rendered,
            "720"
        );
        assert_eq!(
            run("let add = fn x => fn y => x + y in add 40 2").rendered,
            "42",
            "curried closures capture their environment"
        );
    }

    #[test]
    fn refs_hit_real_barriers() {
        let rt = Runtime::new(RuntimeConfig::managed());
        let out = run_source(&rt, "let r = ref 1 in r := !r + 1; !r", 100_000).unwrap();
        assert_eq!(out.rendered, "2");
        assert!(rt.stats().barrier_reads >= 2);
        assert!(rt.stats().barrier_writes >= 1);
    }

    #[test]
    fn par_runs_on_runtime_forks() {
        let rt = Runtime::new(RuntimeConfig::managed().with_dag());
        let out = run_source(&rt, "par(1 + 1, 2 * 2)", 100_000).unwrap();
        assert_eq!(out.rendered, "(2, 4)");
        let dag = rt.take_dag().unwrap();
        assert!(dag.len() >= 4, "a real fork was recorded: {}", dag.len());
    }

    #[test]
    fn type_errors_are_rejected_before_running() {
        let rt = Runtime::new(RuntimeConfig::managed());
        let err = run_source(&rt, "1 + true", 1000).unwrap_err();
        assert!(matches!(err, PipelineError::Type(_)));
        assert_eq!(rt.stats().allocs, 0, "nothing ran");
    }

    #[test]
    fn div_zero_and_fuel_surface() {
        let rt = Runtime::new(RuntimeConfig::managed());
        assert!(matches!(
            run_source(&rt, "1 div 0", 1000).unwrap_err(),
            PipelineError::Eval(EvalError::DivZero)
        ));
        assert!(matches!(
            run_source(&rt, "let w = fix w x => w x in w 0", 5000).unwrap_err(),
            PipelineError::Eval(EvalError::Fuel)
        ));
    }

    #[test]
    fn compiled_entanglement_is_managed() {
        let rt = Runtime::new(RuntimeConfig::managed());
        let out = run_source(&rt, mpl_lang::examples::ENTANGLE_PUBLISH, 1_000_000).unwrap();
        assert_eq!(out.rendered, "3");
        let s = rt.stats();
        assert!(s.entangled_reads >= 1, "compiled deref entangles: {s:?}");
        assert!(s.pins >= 1);
        rt.assert_heap_sound();
    }

    #[test]
    fn compiled_programs_survive_gc_pressure() {
        let cfg = RuntimeConfig {
            policy: mpl_runtime::GcPolicy {
                lgc_trigger_bytes: 1024,
                cgc_trigger_pinned_bytes: 8192,
            },
            store: mpl_runtime::StoreConfig {
                block_words: 32,
                ..Default::default()
            },
            ..RuntimeConfig::managed()
        };
        let rt = Runtime::new(cfg);
        // A sequential allocating loop keeps one task hot so its local
        // collector triggers repeatedly mid-program.
        let src = "let go = fix go n => if n = 0 then 0 else (let p = (n, (n, n)) in let q = fst p in go (n - q + q - 1)) in go 500";
        let out = run_source(&rt, src, 10_000_000).unwrap();
        assert_eq!(out.rendered, "0");
        assert!(rt.stats().lgc_runs > 0, "collections ran mid-program");
        // And the fib example still computes correctly under pressure.
        let out = run_source(&rt, mpl_lang::examples::FIB, 10_000_000).unwrap();
        assert_eq!(out.rendered, "55");
    }
}
