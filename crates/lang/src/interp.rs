//! The global interpreter: a scheduled small-step semantics over the task
//! tree.
//!
//! Each global step picks one runnable task (per the configured
//! [`Schedule`]) and advances its machine. `par` splits a task in two —
//! the right one running in the left one's heap if it starts after the
//! left one finished, as in the runtime; when both children finish, their
//! heaps merge into the parent (unpinning by the join rule) and the
//! parent resumes with the result pair allocated in its own heap.
//!
//! Because entanglement depends on the interleaving of reads and writes,
//! different schedules may produce different entanglement *costs* — but
//! determinacy-race-free programs produce the same *result* under every
//! schedule, which the property tests check.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::machine::{Costs, LangError, LangMode, Machine, StepEvent};
use crate::parser::{parse, ParseError};
use crate::store::{LangStore, Stored};
use crate::syntax::Expr;
use crate::tasktree::{TaskId, TaskTree};
use crate::value::{Env, Val};

/// Task-interleaving policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Schedule {
    /// Always step the most recently spawned runnable task (left-first
    /// depth-first execution — deterministic, mirrors the runtime's
    /// sequential executor).
    #[default]
    DepthFirst,
    /// Step runnable tasks in rotation (maximal interleaving).
    RoundRobin,
    /// Uniformly random runnable task, seeded (schedule exploration).
    Random(u64),
}

/// Interpreter options.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Interleaving policy.
    pub schedule: Schedule,
    /// Entanglement treatment.
    pub mode: LangMode,
    /// Global small-step budget (guards non-termination).
    pub fuel: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            schedule: Schedule::DepthFirst,
            mode: LangMode::Managed,
            fuel: 10_000_000,
        }
    }
}

/// A completed run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The program's result value.
    pub result: Val,
    /// Measured cost metrics.
    pub costs: Costs,
    /// The final store (for inspecting entanglement state and rendering
    /// structured results).
    pub store: LangStore,
}

impl Outcome {
    /// Renders the result, following pairs and cells (depth-limited).
    pub fn render(&self) -> String {
        render_val(&self.store, self.result, 16)
    }
}

fn render_val(store: &LangStore, v: Val, depth: usize) -> String {
    if depth == 0 {
        return "…".into();
    }
    match v {
        Val::Loc(l) => match &store.get(l).stored {
            Stored::Pair(a, b) => format!(
                "({}, {})",
                render_val(store, *a, depth - 1),
                render_val(store, *b, depth - 1)
            ),
            Stored::Cell(c) => format!("ref {}", render_val(store, *c, depth - 1)),
            Stored::Arr(vs) => {
                let inner: Vec<String> = vs
                    .iter()
                    .take(8)
                    .map(|v| render_val(store, *v, depth - 1))
                    .collect();
                let ell = if vs.len() > 8 { ", …" } else { "" };
                format!("[|{}{}|]", inner.join(", "), ell)
            }
            Stored::Closure(..) | Stored::FixClosure(..) => "<fn>".into(),
        },
        imm => imm.to_string(),
    }
}

enum TState {
    Run(Machine),
    Wait {
        machine: Machine,
        left: usize,
        right: usize,
    },
    /// Parked on `touch` of an unfinished future.
    WaitFut {
        machine: Machine,
        fut: usize,
    },
    /// The machine finished, but spawned futures are still running —
    /// strict futures: completion is deferred until they are done.
    Draining(Val),
    Done(Val),
}

struct Task {
    id: TaskId,
    parent: Option<usize>,
    state: TState,
    /// Span accounting: critical-path steps up to this task's current
    /// point.
    span: u64,
    /// Futures this task spawned that have not yet completed (strict
    /// futures: this task cannot complete before they do).
    pending_futures: Vec<usize>,
    /// True if this task is a future (absorbed into its tree parent at
    /// completion rather than joining a sibling).
    is_future: bool,
    /// True for a right branch that has not taken a step. Until then its
    /// id is its left sibling's: a right branch whose first step comes
    /// after the left one finished runs in the left one's heap, as the
    /// runtime runs an un-stolen right branch; one that starts sooner gets
    /// a heap of its own.
    unstarted_right: bool,
}

/// Runs an already-parsed expression.
pub fn run_expr(e: &Expr, opts: Options) -> Result<Outcome, LangError> {
    let mut store = LangStore::new();
    let (mut tree, root) = TaskTree::new();
    let mut costs = Costs::default();
    let mut tasks = vec![Task {
        id: root,
        parent: None,
        state: TState::Run(Machine::new(e.clone().rc(), Env::empty())),
        span: 0,
        pending_futures: Vec::new(),
        is_future: false,
        unstarted_right: false,
    }];
    let mut rng = match opts.schedule {
        Schedule::Random(seed) => Some(ChaCha8Rng::seed_from_u64(seed)),
        _ => None,
    };
    let mut rr_cursor = 0usize;
    let mut fuel = opts.fuel;

    loop {
        // Collect runnable task indices.
        let runnable: Vec<usize> = tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.state, TState::Run(_)))
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            // Either the root is done, or every remaining task is parked
            // on a touch (cyclic futures): deadlock.
            match &tasks[0].state {
                TState::Done(v) => {
                    costs.span = tasks[0].span;
                    return Ok(Outcome {
                        result: *v,
                        costs,
                        store,
                    });
                }
                _ => return Err(LangError::Deadlock),
            }
        }
        let pick = match opts.schedule {
            // Left-first depth-first: the deepest runnable task, ties to
            // the earliest-created (left) one. Matches the runtime's
            // sequential executor.
            Schedule::DepthFirst => runnable
                .iter()
                .copied()
                .max_by_key(|&i| (tree.depth(tasks[i].id), std::cmp::Reverse(i)))
                .unwrap(),
            Schedule::RoundRobin => {
                rr_cursor = (rr_cursor + 1) % runnable.len();
                runnable[rr_cursor]
            }
            Schedule::Random(_) => {
                let r = rng.as_mut().unwrap().gen_range(0..runnable.len());
                runnable[r]
            }
        };
        if fuel == 0 {
            return Err(LangError::Fuel);
        }
        fuel -= 1;

        // `pick - 1` is the left sibling of a right branch.
        if std::mem::take(&mut tasks[pick].unstarted_right)
            && !matches!(tasks[pick - 1].state, TState::Done(_))
        {
            let parent = tasks[pick].parent.expect("a fork branch has a parent");
            tasks[pick].id = tree.child(tasks[parent].id);
        }
        let tid = tasks[pick].id;
        let TState::Run(machine) = &mut tasks[pick].state else {
            unreachable!()
        };
        let event = machine.step(tid, &mut store, &mut tree, opts.mode, &mut costs)?;
        tasks[pick].span += 1;

        match event {
            StepEvent::Continue => {}
            StepEvent::Fork(a, b, env) => {
                let lt = tree.child(tid);
                let span = tasks[pick].span;
                let TState::Run(machine) =
                    std::mem::replace(&mut tasks[pick].state, TState::Done(Val::Unit))
                else {
                    unreachable!()
                };
                let left = tasks.len();
                let right = left + 1;
                tasks[pick].state = TState::Wait {
                    machine,
                    left,
                    right,
                };
                tasks.push(Task {
                    id: lt,
                    parent: Some(pick),
                    state: TState::Run(Machine::new(a, env.clone())),
                    span,
                    pending_futures: Vec::new(),
                    is_future: false,
                    unstarted_right: false,
                });
                tasks.push(Task {
                    id: lt,
                    parent: Some(pick),
                    state: TState::Run(Machine::new(b, env)),
                    span,
                    pending_futures: Vec::new(),
                    is_future: false,
                    unstarted_right: true,
                });
            }
            StepEvent::SpawnFuture(body, env) => {
                let ftid = tree.child(tid);
                let fidx = tasks.len();
                let span = tasks[pick].span;
                tasks[pick].pending_futures.push(fidx);
                let TState::Run(machine) = &mut tasks[pick].state else {
                    unreachable!()
                };
                machine.resume_with(Val::Fut(fidx));
                tasks.push(Task {
                    id: ftid,
                    parent: None,
                    state: TState::Run(Machine::new(body, env)),
                    span,
                    pending_futures: Vec::new(),
                    is_future: true,
                    unstarted_right: false,
                });
            }
            StepEvent::Touch(fi) => {
                if fi >= tasks.len() {
                    return Err(LangError::Type(format!("touch of unknown future #{fi}")));
                }
                if let TState::Done(v) = tasks[fi].state {
                    touch_barrier(tid, v, &mut store, &mut tree, opts.mode, &mut costs)?;
                    let fspan = tasks[fi].span;
                    let task = &mut tasks[pick];
                    task.span = task.span.max(fspan);
                    let TState::Run(machine) = &mut task.state else {
                        unreachable!()
                    };
                    machine.resume_with(v);
                } else {
                    let TState::Run(machine) =
                        std::mem::replace(&mut tasks[pick].state, TState::Done(Val::Unit))
                    else {
                        unreachable!()
                    };
                    tasks[pick].state = TState::WaitFut { machine, fut: fi };
                }
            }
            StepEvent::Done(v) => {
                complete(
                    pick, v, &mut tasks, &mut tree, &mut store, opts.mode, &mut costs,
                )?;
            }
        }
    }
}

/// The touch read barrier: revealing a remote pointer through a future's
/// result is an entangled read (it is pinned), exactly like `!` and `sub`.
fn touch_barrier(
    toucher: TaskId,
    v: Val,
    store: &mut LangStore,
    tree: &mut TaskTree,
    mode: LangMode,
    costs: &mut Costs,
) -> Result<(), LangError> {
    if let Val::Loc(t) = v {
        let owner = store.get(t).owner;
        if !tree.is_on_path(owner, toucher) {
            if mode == LangMode::DetectOnly {
                return Err(LangError::Entangled);
            }
            costs.entangled_reads += 1;
            let level = tree.lca_depth(toucher, owner);
            crate::machine::pin(store, t, level, costs);
        }
    }
    Ok(())
}

/// Marks `idx`'s machine as finished with `v`, deferring completion while
/// spawned futures are still running (strict futures), then cascades:
/// absorb future heaps, wake parked touchers, re-check draining spawners,
/// and run the par join protocol.
fn complete(
    idx: usize,
    v: Val,
    tasks: &mut [Task],
    tree: &mut TaskTree,
    store: &mut LangStore,
    mode: LangMode,
    costs: &mut Costs,
) -> Result<(), LangError> {
    let mut work = vec![(idx, v)];
    while let Some((i, v)) = work.pop() {
        if tasks[i]
            .pending_futures
            .iter()
            .any(|&f| !matches!(tasks[f].state, TState::Done(_)))
        {
            tasks[i].state = TState::Draining(v);
            continue;
        }
        // Truly complete: a future's heap is absorbed into its tree
        // parent. Pins at level >= the future's depth belong to accessors
        // within its (fully completed) subtree, so they unpin — the
        // single-child analogue of the unpin-at-join rule. Shallower pins
        // stay: their accessors may still run.
        if tasks[i].is_future {
            let ftid = tasks[i].id;
            let fdepth = tree.depth(ftid);
            let unpinned = store.unpin_at_join_where(fdepth, |owner| tree.is_on_path(ftid, owner));
            costs.unpins += unpinned as u64;
            tree.absorb(ftid);
        }
        tasks[i].state = TState::Done(v);
        let fspan = tasks[i].span;

        // Wake every task parked on this future.
        let parked: Vec<usize> = tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(&t.state, TState::WaitFut { fut, .. } if *fut == i))
            .map(|(w, _)| w)
            .collect();
        for w in parked {
            touch_barrier(tasks[w].id, v, store, tree, mode, costs)?;
            let TState::WaitFut { mut machine, .. } =
                std::mem::replace(&mut tasks[w].state, TState::Done(Val::Unit))
            else {
                unreachable!()
            };
            machine.resume_with(v);
            tasks[w].span = tasks[w].span.max(fspan);
            tasks[w].state = TState::Run(machine);
        }

        // A draining spawner may now be unblocked.
        for j in 0..tasks.len() {
            if let TState::Draining(dv) = tasks[j].state {
                if tasks[j]
                    .pending_futures
                    .iter()
                    .all(|&f| matches!(tasks[f].state, TState::Done(_)))
                {
                    work.push((j, dv));
                }
            }
        }

        // The par join protocol (futures have no join sibling).
        try_join(i, tasks, tree, store, costs);
    }
    Ok(())
}

/// If `finished`'s parent has both children done, perform the join.
fn try_join(
    finished: usize,
    tasks: &mut [Task],
    tree: &mut TaskTree,
    store: &mut LangStore,
    costs: &mut Costs,
) {
    let Some(pidx) = tasks[finished].parent else {
        return;
    };
    let TState::Wait { left, right, .. } = &tasks[pidx].state else {
        return;
    };
    let (left, right) = (*left, *right);
    let (TState::Done(lv), TState::Done(rv)) = (&tasks[left].state, &tasks[right].state) else {
        return;
    };
    let (lv, rv) = (*lv, *rv);
    let ptid = tasks[pidx].id;
    let (lt, rt) = (tasks[left].id, tasks[right].id);
    let join_depth = tree.depth(ptid);

    // Heap merge + unpin-at-join over the joined subtree.
    tree.join(ptid, lt, rt);
    // After `tree.join`, the children canonicalize to the parent, so
    // "owner in joined subtree" is "parent on owner's root path".
    let unpinned = store.unpin_at_join_where(join_depth, |owner| tree.is_on_path(ptid, owner));
    costs.unpins += unpinned as u64;

    // The parent resumes with the result pair, allocated in its heap.
    costs.allocs += 1;
    let pair = store.alloc(Stored::Pair(lv, rv), ptid);
    let child_span = tasks[left].span.max(tasks[right].span);
    let task = &mut tasks[pidx];
    task.span = child_span;
    let TState::Wait { mut machine, .. } =
        std::mem::replace(&mut task.state, TState::Done(Val::Unit))
    else {
        unreachable!()
    };
    machine.resume_with(Val::Loc(pair));
    task.state = TState::Run(machine);
}

/// Parses and runs a source program.
pub fn run_program(src: &str, opts: Options) -> Result<Outcome, RunError> {
    let e = parse(src)?;
    run_expr(&e, opts).map_err(RunError::from)
}

/// Errors from [`run_program`]: parse or evaluation failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunError {
    /// The source failed to parse.
    Parse(ParseError),
    /// Evaluation failed.
    Eval(LangError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Parse(e) => write!(f, "{e}"),
            RunError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ParseError> for RunError {
    fn from(e: ParseError) -> Self {
        RunError::Parse(e)
    }
}

impl From<LangError> for RunError {
    fn from(e: LangError) -> Self {
        RunError::Eval(e)
    }
}
