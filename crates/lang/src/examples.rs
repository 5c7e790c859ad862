//! A library of sample λ-par-ref programs used by tests, documentation,
//! and the cost-bound experiments (E8).

/// Parallel Fibonacci — purely functional, fully disentangled.
pub const FIB: &str = r#"
let fib = fix fib n =>
  if n < 2 then n
  else
    let p = par(fib (n - 1), fib (n - 2)) in
    fst p + snd p
in fib 10
"#;

/// Parallel tree sum over an implicit balanced tree (disentangled).
pub const TREE_SUM: &str = r#"
let sum = fix sum range =>
  let lo = fst range in
  let hi = snd range in
  if hi - lo = 1 then lo
  else
    let mid = (lo + hi) div 2 in
    let p = par(sum (lo, mid), sum (mid, hi)) in
    fst p + snd p
in sum (0, 64)
"#;

/// Sequential counter loop through a ref (local effects, disentangled).
pub const COUNTER: &str = r#"
let r = ref 0 in
let loop = fix loop n =>
  if n = 0 then !r
  else (r := !r + 1; loop (n - 1))
in loop 100
"#;

/// The paper's canonical entanglement example: a pre-fork cell, one branch
/// publishes a freshly allocated pair into it, the other dereferences it.
/// Under `Managed` the read pins; under `DetectOnly` it aborts (when the
/// schedule exposes the write before the read).
pub const ENTANGLE_PUBLISH: &str = r#"
let cell = ref (0, 0) in
let p = par(
  (cell := (1, 2); 0),
  (fst !cell) + (snd !cell)
) in
snd p
"#;

/// Entanglement across a deeper tree: a grandchild publishes, the far
/// subtree reads. Pin level is the root (0), so the pin survives the inner
/// join and clears only at the outer one.
pub const ENTANGLE_DEEP: &str = r#"
let cell = ref (0, 0) in
let p = par(
  snd par((cell := (40, 2); 0), 0),
  fst !cell + snd !cell
) in
snd p
"#;

/// A deterministic-by-construction racy accumulator: both branches
/// increment a shared counter; the sum is schedule-independent even though
/// the interleaving is not.
pub const SHARED_COUNTER: &str = r#"
let c = ref 0 in
let p = par(
  (c := !c + 1; 0),
  (c := !c + 2; 0)
) in
!c
"#;

/// Builds a list (nested pairs) in one branch, shares it through a cell,
/// and measures a larger entanglement footprint in the reader. (The
/// nested-pair type is fixed so the program is also ML-well-typed.)
pub const ENTANGLE_LIST: &str = r#"
let cell = ref (0, (0, (0, (0, 0)))) in
let p = par(
  (cell := (1, (2, (3, (4, 5)))); 0),
  fst !cell
) in
snd p
"#;

/// Parallel array fill + sum: children `update` an ancestor-allocated
/// array (down-path writes: local, disentangled), then a parallel
/// reduction reads it back.
pub const ARRAY_SUM: &str = r#"
let a = array(64, 0) in
let fill = fix fill range =>
  let lo = fst range in
  let hi = snd range in
  if hi - lo = 1 then (update(a, lo, lo * 2); 0)
  else
    let mid = (lo + hi) div 2 in
    let p = par(fill (lo, mid), fill (mid, hi)) in
    0
in
let sum = fix sum range =>
  let lo = fst range in
  let hi = snd range in
  if hi - lo = 1 then sub(a, lo)
  else
    let mid = (lo + hi) div 2 in
    let p = par(sum (lo, mid), sum (mid, hi)) in
    fst p + snd p
in
let q = fill (0, length a) in
sum (0, length a)
"#;

/// Entangled arrays: one branch publishes boxed records into a shared
/// array; the sibling reads them concurrently (entangled reads through
/// `sub`).
pub const ARRAY_PUBLISH: &str = r#"
let a = array(4, (0, 0)) in
let p = par(
  (update(a, 0, (1, 2)); update(a, 1, (3, 4)); 0),
  (fst sub(a, 0)) + (snd sub(a, 1))
) in
snd p
"#;

/// All examples with names (for the experiment harness).
pub const ALL: &[(&str, &str)] = &[
    ("fib", FIB),
    ("tree_sum", TREE_SUM),
    ("counter", COUNTER),
    ("entangle_publish", ENTANGLE_PUBLISH),
    ("entangle_deep", ENTANGLE_DEEP),
    ("shared_counter", SHARED_COUNTER),
    ("entangle_list", ENTANGLE_LIST),
    ("array_sum", ARRAY_SUM),
    ("array_publish", ARRAY_PUBLISH),
];

/// True if the named example deliberately creates entanglement (a task
/// acquiring a concurrent sibling's allocation). Pure/disentangled
/// examples never pin under any schedule; entangled ones may. Note that
/// `shared_counter` is *not* here: it races on a pre-fork int cell —
/// shared state, but never a sibling's object.
pub fn is_entangled(name: &str) -> bool {
    matches!(
        name,
        "entangle_publish" | "entangle_deep" | "entangle_list" | "array_publish"
    )
}

/// A futures pipeline (semantics-level extension): three stages chained
/// by `touch`. Deterministic under every schedule.
pub const FUTURE_PIPELINE: &str = r#"
let s1 = future (2 * 3) in
let s2 = future (touch s1 + 10) in
let s3 = future (touch s2 * 2) in
touch s3
"#;

/// A future whose heap result is touched across families: the left
/// branch publishes the handle through a pre-fork cell; the right branch
/// touches it — an entangled read the managed semantics pins.
pub const FUTURE_PUBLISH: &str = r#"
let c = ref (future (0, 0)) in
let p = par((c := future (1, 2); 0), fst (touch !c)) in
snd p
"#;

/// Semantics-only examples (futures): run by the `mpl-lang` interpreter;
/// the compiled backend rejects them (fork-join only). Kept out of
/// [`ALL`] so the pipeline-agreement suites skip them.
pub const SEMANTICS_ONLY: &[(&str, &str)] = &[
    ("future_pipeline", FUTURE_PIPELINE),
    ("future_publish", FUTURE_PUBLISH),
];

/// The source of `par(left, right)` with its right branch forced onto a
/// second worker and started only after the left one finished, for
/// running an entangled program on the runtime at two workers, where a
/// right branch nobody steals runs after its left sibling, in its heap,
/// and entangles nothing. The left branch waits until the right one has
/// begun, which only a thief can make happen while it waits; the right
/// one then waits until the left one is done. The waits are events, not
/// delays, so the order holds on any machine. It needs a second worker
/// free to steal: on one worker, or under a schedule that runs a left
/// branch to its end first (`DepthFirst`), the left branch waits until
/// its fuel runs out.
pub fn forced_steal(left: &str, right: &str) -> String {
    format!(
        "(let steal_begun = ref 0 in \
         let steal_done = ref 0 in \
         let steal_wait = fix steal_wait r => if !r = 0 then steal_wait r else 0 in \
         par((steal_wait steal_begun; let steal_v = {left} in (steal_done := 1; steal_v)), \
         (steal_begun := 1; steal_wait steal_done; {right})))"
    )
}
