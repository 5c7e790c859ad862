//! The `alloc-churn` kernels: three uses of `mpl-heap` and `mpl-gc` that
//! the suite does not isolate. Each kernel exists three times, like a
//! suite program: on the managed runtime (`Mutator`), on the sequential
//! baseline (`SeqRuntime`, for T_s), and as a plain-Rust mirror that is
//! the checksum oracle.
//!
//! * `short` — a stream of 4-word tuples, none of which survives: the
//!   allocation fast path, and LGCs that find nothing to copy.
//! * `retain` — a rooted balanced tree, then the same garbage stream:
//!   every LGC copies the survivors again (the non-generational cost).
//! * `publish` — rounds in which one branch publishes fresh objects into
//!   shared slots while its sibling reads them: pin, join, CGC.
//!
//! Code on the managed runtime re-resolves every rooted value (`m.get`)
//! after each allocation, because an allocation may run a moving LGC.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::spec::{derive, jitter};

/// Stored integers stay far inside the runtime's 62-bit range.
const SALT_MASK: u64 = (1 << 40) - 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Short,
    Retain,
    Publish,
}

pub const KERNELS: [Kernel; 3] = [Kernel::Short, Kernel::Retain, Kernel::Publish];

/// One kernel's inputs, all derived from the seed.
#[derive(Clone, Copy, Debug)]
pub struct Input {
    pub kernel: Kernel,
    /// Tuples in the garbage stream (`short`, `retain`) or objects
    /// published per round (`publish`).
    pub n: usize,
    /// Nodes of the retained tree (`retain`) or rounds (`publish`).
    pub m: usize,
    pub salt: i64,
}

impl Kernel {
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Short => "short",
            Kernel::Retain => "retain",
            Kernel::Publish => "publish",
        }
    }

    pub fn input(self, seed: u64, smoke: bool) -> Input {
        // (stream or per-round objects, tree nodes or rounds), full and smoke.
        let (n, m) = match (self, smoke) {
            (Kernel::Short, false) => (4_000_000, 0),
            (Kernel::Short, true) => (200_000, 0),
            (Kernel::Retain, false) => (800_000, 1 << 18),
            (Kernel::Retain, true) => (50_000, 1 << 13),
            (Kernel::Publish, false) => (4_096, 48),
            (Kernel::Publish, true) => (512, 20),
        };
        Input {
            kernel: self,
            n: jitter(n, 10, seed, self.name()),
            m,
            salt: (derive(seed, self.name()) & SALT_MASK) as i64,
        }
    }
}

impl Input {
    pub fn run_mpl(&self, m: &mut Mutator<'_>) -> i64 {
        match self.kernel {
            Kernel::Short => stream_mpl(m, self.n, self.salt),
            Kernel::Retain => retain_mpl(m, self.m, self.n, self.salt),
            Kernel::Publish => publish_mpl(m, self.m, self.n, self.salt),
        }
    }

    pub fn run_seq(&self, rt: &mut SeqRuntime) -> i64 {
        match self.kernel {
            Kernel::Short => stream_seq(rt, self.n, self.salt),
            Kernel::Retain => retain_seq(rt, self.m, self.n, self.salt),
            Kernel::Publish => publish_seq(rt, self.m, self.n, self.salt),
        }
    }

    /// The oracle: the same arithmetic with no managed heap.
    pub fn run_mirror(&self) -> i64 {
        match self.kernel {
            Kernel::Short => stream_mirror(self.n, self.salt),
            Kernel::Retain => {
                tree_mirror(self.m, self.salt).wrapping_add(stream_mirror(self.n, self.salt))
            }
            Kernel::Publish => publish_mirror(self.m, self.n, self.salt),
        }
    }

    /// Baseline collection threshold: the default for the streams; for
    /// `retain` four times the retained bytes, so the baseline's
    /// mark-sweep re-marks the tree about as often as a heap-growth policy
    /// would rather than every 256 KB.
    pub fn seq_runtime(&self) -> SeqRuntime {
        match self.kernel {
            Kernel::Retain => SeqRuntime::new(4 * self.m * 48),
            _ => SeqRuntime::default(),
        }
    }
}

// ---- the garbage stream (short; second half of retain) -------------------

fn stream_fields(i: i64, salt: i64) -> [i64; 4] {
    let x = i ^ salt;
    [x, i, x.wrapping_add(i), salt]
}

/// Every 1024th tuple is read back, so contents are checked while the
/// allocation path stays the dominant cost.
fn stream_probe(i: i64) -> Option<usize> {
    (i & 1023 == 0).then_some((i >> 10) as usize & 3)
}

fn fold(acc: i64, x: i64) -> i64 {
    acc.wrapping_mul(31).wrapping_add(x) & SALT_MASK as i64
}

fn stream_mpl(m: &mut Mutator<'_>, n: usize, salt: i64) -> i64 {
    let mut acc = 0;
    for i in 0..n as i64 {
        let t = m.alloc_tuple(&stream_fields(i, salt).map(Value::Int));
        if let Some(k) = stream_probe(i) {
            acc = fold(acc, m.tuple_get(t, k).expect_int());
        }
    }
    acc
}

fn stream_seq(rt: &mut SeqRuntime, n: usize, salt: i64) -> i64 {
    let mut acc = 0;
    for i in 0..n as i64 {
        let t = rt.alloc(&stream_fields(i, salt).map(SeqValue::Int));
        if let Some(k) = stream_probe(i) {
            acc = fold(acc, rt.get_field(t, k).expect_int());
        }
    }
    acc
}

fn stream_mirror(n: usize, salt: i64) -> i64 {
    let mut acc = 0;
    for i in 0..n as i64 {
        if let Some(k) = stream_probe(i) {
            acc = fold(acc, stream_fields(i, salt)[k]);
        }
    }
    acc
}

// ---- retain ---------------------------------------------------------------

fn node_key(i: usize, salt: i64) -> i64 {
    (i as i64).wrapping_mul(2_654_435_761) ^ salt
}

/// Builds the implicit-heap-shaped tree (node `i` has children `2i+1`,
/// `2i+2`) bottom-up through a rooted scratch array, and roots its root.
fn retain_mpl(m: &mut Mutator<'_>, nodes: usize, stream: usize, salt: i64) -> i64 {
    let scratch = m.alloc_array(nodes, Value::Unit);
    let scratch_mark = m.mark();
    let scratch = m.root(scratch);
    for i in (0..nodes).rev() {
        let arr = m.get(&scratch);
        let child = |m: &mut Mutator<'_>, c: usize| {
            if c < nodes {
                m.arr_get(arr, c)
            } else {
                Value::Unit
            }
        };
        let (l, r) = (child(m, 2 * i + 1), child(m, 2 * i + 2));
        // The fields are roots of the allocation's own collection.
        let node = m.alloc_tuple(&[Value::Int(node_key(i, salt)), l, r]);
        let arr = m.get(&scratch);
        m.arr_set(arr, i, node);
    }
    let arr = m.get(&scratch);
    let root = m.arr_get(arr, 0);
    m.release(scratch_mark);
    let tree = m.root(root);
    let streamed = stream_mpl(m, stream, salt);
    let root = m.get(&tree);
    tree_sum_mpl(m, root).wrapping_add(streamed)
}

/// Reads only, so nothing moves during the walk.
fn tree_sum_mpl(m: &mut Mutator<'_>, node: Value) -> i64 {
    if !matches!(node, Value::Obj(_)) {
        return 0;
    }
    let key = m.tuple_get(node, 0).expect_int();
    let (l, r) = (m.tuple_get(node, 1), m.tuple_get(node, 2));
    key.wrapping_add(tree_sum_mpl(m, l))
        .wrapping_add(tree_sum_mpl(m, r))
}

fn retain_seq(rt: &mut SeqRuntime, nodes: usize, stream: usize, salt: i64) -> i64 {
    let scratch = rt.alloc_n(nodes, SeqValue::Unit);
    let mark = rt.mark();
    let _scratch_root = rt.root(scratch);
    for i in (0..nodes).rev() {
        let child = |rt: &mut SeqRuntime, c: usize| {
            if c < nodes {
                rt.get_field(scratch, c)
            } else {
                SeqValue::Unit
            }
        };
        let (l, r) = (child(rt, 2 * i + 1), child(rt, 2 * i + 2));
        let node = rt.alloc(&[SeqValue::Int(node_key(i, salt)), l, r]);
        rt.set_field(scratch, i, node);
    }
    let root = rt.get_field(scratch, 0);
    rt.release(mark);
    let _tree_root = rt.root(root);
    let streamed = stream_seq(rt, stream, salt);
    tree_sum_seq(rt, root).wrapping_add(streamed)
}

fn tree_sum_seq(rt: &mut SeqRuntime, node: SeqValue) -> i64 {
    if !matches!(node, SeqValue::Obj(_)) {
        return 0;
    }
    let key = rt.get_field(node, 0).expect_int();
    let (l, r) = (rt.get_field(node, 1), rt.get_field(node, 2));
    key.wrapping_add(tree_sum_seq(rt, l))
        .wrapping_add(tree_sum_seq(rt, r))
}

fn tree_mirror(nodes: usize, salt: i64) -> i64 {
    (0..nodes).fold(0i64, |acc, i| acc.wrapping_add(node_key(i, salt)))
}

// ---- publish --------------------------------------------------------------

fn published(round: usize, j: usize, salt: i64) -> i64 {
    ((round * 1_000_003 + j) as i64) ^ salt
}

/// Each round the left branch allocates `per_round` fresh tuples into
/// shared slots and the right branch reads whatever it finds there: an
/// object of the unjoined sibling is remote, so the read pins it. The
/// checksum is taken by the parent after the join, so it does not depend
/// on how the branches interleave.
fn publish_mpl(m: &mut Mutator<'_>, rounds: usize, per_round: usize, salt: i64) -> i64 {
    let slots = m.alloc_array(per_round, Value::Unit);
    let slots = m.root(slots);
    let mut acc = 0;
    for round in 0..rounds {
        let (ls, rs) = (slots.clone(), slots.clone());
        m.fork(
            move |m| {
                for j in 0..per_round {
                    let obj = m.alloc_tuple(&[
                        Value::Int(published(round, j, salt)),
                        Value::Int(j as i64),
                    ]);
                    let arr = m.get(&ls);
                    m.arr_set(arr, j, obj);
                }
                Value::Unit
            },
            move |m| {
                let arr = m.get(&rs);
                let mut seen = 0;
                for j in 0..per_round {
                    if let v @ Value::Obj(_) = m.arr_get(arr, j) {
                        seen += (m.tuple_get(v, 1).expect_int() == j as i64) as i64;
                    }
                }
                Value::Int(seen)
            },
        );
        let arr = m.get(&slots);
        for j in 0..per_round {
            let v = m.arr_get(arr, j);
            acc = fold(acc, m.tuple_get(v, 0).expect_int());
        }
    }
    acc
}

fn publish_seq(rt: &mut SeqRuntime, rounds: usize, per_round: usize, salt: i64) -> i64 {
    let slots = rt.alloc_n(per_round, SeqValue::Unit);
    let _slots_root = rt.root(slots);
    let mut acc = 0;
    for round in 0..rounds {
        rt.fork(
            |rt| {
                for j in 0..per_round {
                    let obj = rt.alloc(&[
                        SeqValue::Int(published(round, j, salt)),
                        SeqValue::Int(j as i64),
                    ]);
                    rt.set_field(slots, j, obj);
                }
                SeqValue::Unit
            },
            |rt| {
                let mut seen = 0;
                for j in 0..per_round {
                    if let v @ SeqValue::Obj(_) = rt.get_field(slots, j) {
                        seen += (rt.get_field(v, 1).expect_int() == j as i64) as i64;
                    }
                }
                SeqValue::Int(seen)
            },
        );
        for j in 0..per_round {
            let v = rt.get_field(slots, j);
            acc = fold(acc, rt.get_field(v, 0).expect_int());
        }
    }
    acc
}

fn publish_mirror(rounds: usize, per_round: usize, salt: i64) -> i64 {
    let mut acc = 0;
    for round in 0..rounds {
        for j in 0..per_round {
            acc = fold(acc, published(round, j, salt));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn kernels_agree_with_their_mirrors_on_every_runtime() {
        for kernel in KERNELS {
            let input = kernel.input(11, true);
            let want = input.run_mirror();
            for threads in [1, 2] {
                let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(threads));
                let got = rt.run(|m| Value::Int(input.run_mpl(m))).expect_int();
                assert_eq!(got, want, "{} on {threads} worker(s)", kernel.name());
            }
            assert_eq!(
                input.run_seq(&mut input.seq_runtime()),
                want,
                "{} seq",
                kernel.name()
            );
            assert_ne!(
                kernel.input(12, true).run_mirror(),
                want,
                "seed must matter"
            );
        }
    }

    #[test]
    fn publish_pins_and_short_does_not() {
        let rt = Runtime::new(RuntimeConfig::managed());
        let input = Kernel::Publish.input(3, true);
        rt.run(|m| Value::Int(input.run_mpl(m)));
        let s = rt.stats();
        assert!(
            s.pins as usize >= input.n,
            "each published object is read remotely"
        );
        assert_eq!(s.pinned_bytes, 0, "joins unpin");
        let rt = Runtime::new(RuntimeConfig::managed());
        let input = Kernel::Short.input(3, true);
        rt.run(|m| Value::Int(input.run_mpl(m)));
        let s = rt.stats();
        assert_eq!((s.pins, s.barrier_read_slow, s.cgc_runs), (0, 0, 0));
        assert!(s.lgc_runs > 0 && s.lgc_copied_bytes < s.lgc_reclaimed_bytes / 100);
    }
}
