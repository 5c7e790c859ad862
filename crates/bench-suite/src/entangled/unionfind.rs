//! `unionfind` — parallel graph connectivity with a concurrent union-find.
//!
//! Tasks process disjoint ranges of the edge list, performing CAS-based
//! unions on a shared parent array. A union installs a freshly allocated
//! *link cell* (a mutable ref holding the new parent index); sibling
//! tasks' finds then read through cells allocated by concurrent tasks —
//! the defining entangled access pattern. The component count is
//! schedule-independent even though the union trees are not.

use mpl_baselines::{GValue, GlobalMutator, SeqRuntime, SeqValue};
use mpl_runtime::{Handle, Mutator, Value};

use crate::util;
use crate::Benchmark;

const GRAIN: usize = 2048;
const DEGREE: usize = 2;

/// The benchmark.
pub struct UnionFind;

/// Edge list for `n` nodes: the random graph's arcs treated as undirected
/// edges, minus self-loops. Connectivity is over these edges only.
fn edges(n: usize) -> Vec<(u32, u32)> {
    let g = util::random_graph(n, DEGREE, 47);
    let mut out = Vec::with_capacity(g.targets.len());
    for u in 0..n {
        for k in g.offsets[u] as usize..g.offsets[u + 1] as usize {
            let v = g.targets[k];
            if v as usize != u {
                out.push((u as u32, v));
            }
        }
    }
    out
}

// ---- mpl -----------------------------------------------------------------
//
// parents[i] is either Int(i) (a root), Int(j) (an old-style direct edge,
// only used for initialization), or Obj(cell) where cell is a ref holding
// Int(parent). Unions CAS a link cell over a root entry; finds chase the
// chain, reading link cells that concurrent siblings allocated.

fn find_mpl(m: &mut Mutator<'_>, parents: Value, mut i: usize) -> usize {
    loop {
        let e = m.arr_get(parents, i);
        let next = match e {
            Value::Int(j) => j as usize,
            v @ Value::Obj(_) => m.read_ref(v).expect_int() as usize, // entangling read
            _ => unreachable!("parent entries are ints or link cells"),
        };
        if next == i {
            return i;
        }
        i = next;
    }
}

/// CAS-based union; returns true if the edge merged two components.
fn union_mpl(m: &mut Mutator<'_>, parents: Value, a: usize, b: usize) -> bool {
    loop {
        let ra = find_mpl(m, parents, a);
        let rb = find_mpl(m, parents, b);
        if ra == rb {
            return false;
        }
        // Union by index (deterministic direction): larger root points at
        // the smaller.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        let expected = m.arr_get(parents, hi);
        // Only a *root* entry may be overwritten; anything else means a
        // concurrent union got there first — retry from fresh finds.
        let is_root = match expected {
            Value::Int(j) => j as usize == hi,
            v @ Value::Obj(_) => m.read_ref(v).expect_int() as usize == hi,
            _ => unreachable!(),
        };
        if !is_root {
            continue;
        }
        let link = m.alloc_ref(Value::Int(lo as i64));
        if m.arr_cas(parents, hi, expected, link).is_ok() {
            return true;
        }
    }
}

fn go_mpl(m: &mut Mutator<'_>, parents: &Handle, es: &[(u32, u32)], lo: usize, hi: usize) -> i64 {
    if hi - lo <= GRAIN {
        m.work((hi - lo) as u64 * 2);
        let p = m.get(parents);
        let mut merges = 0;
        for &(a, b) in &es[lo..hi] {
            if union_mpl(m, p, a as usize, b as usize) {
                merges += 1;
            }
        }
        return merges;
    }
    let mid = lo + (hi - lo) / 2;
    let (l, r) = m.fork(
        |m| Value::Int(go_mpl(m, parents, es, lo, mid)),
        |m| Value::Int(go_mpl(m, parents, es, mid, hi)),
    );
    l.expect_int() + r.expect_int()
}

// ---- seq -----------------------------------------------------------------

fn find_seq(rt: &mut SeqRuntime, parents: SeqValue, mut i: usize) -> usize {
    loop {
        let e = rt.get_field(parents, i);
        let next = match e {
            SeqValue::Int(j) => j as usize,
            obj => rt.get_field(obj, 0).expect_int() as usize,
        };
        if next == i {
            return i;
        }
        i = next;
    }
}

fn union_seq(rt: &mut SeqRuntime, parents: SeqValue, a: usize, b: usize) -> bool {
    let ra = find_seq(rt, parents, a);
    let rb = find_seq(rt, parents, b);
    if ra == rb {
        return false;
    }
    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
    let link = rt.alloc(&[SeqValue::Int(lo as i64)]);
    rt.set_field(parents, hi, link);
    true
}

// ---- shared oracle ---------------------------------------------------------

fn components_native(n: usize, es: &[(u32, u32)]) -> i64 {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(p: &mut [u32], mut i: u32) -> u32 {
        while p[i as usize] != i {
            p[i as usize] = p[p[i as usize] as usize]; // path halving
            i = p[i as usize];
        }
        i
    }
    let mut components = n as i64;
    for &(a, b) in es {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra.max(rb) as usize] = ra.min(rb);
            components -= 1;
        }
    }
    components
}

impl Benchmark for UnionFind {
    fn name(&self) -> &'static str {
        "unionfind"
    }

    fn entangled(&self) -> bool {
        true
    }

    fn default_n(&self) -> usize {
        50_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        let es = edges(n);
        let parents = m.alloc_array(n, Value::Unit);
        let hp = m.root(parents);
        {
            let p = m.get(&hp);
            for i in 0..n {
                m.arr_set(p, i, Value::Int(i as i64));
            }
        }
        let merges = go_mpl(m, &hp, &es, 0, es.len());
        // Components = n - successful merges; also recount roots directly
        // for a second, structural answer.
        let p = m.get(&hp);
        let mut roots = 0i64;
        for i in 0..n {
            if find_mpl(m, p, i) == i {
                roots += 1;
            }
        }
        assert_eq!(roots, n as i64 - merges, "merge count vs root count");
        roots
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let es = edges(n);
        let parents = rt.alloc_n(n, SeqValue::Unit);
        let hp = rt.root(parents);
        for i in 0..n {
            rt.set_field(rt.get(hp), i, SeqValue::Int(i as i64));
        }
        let mut merges = 0i64;
        for &(a, b) in &es {
            let p = rt.get(hp);
            if union_seq(rt, p, a as usize, b as usize) {
                merges += 1;
            }
        }
        n as i64 - merges
    }

    fn run_native(&self, n: usize) -> i64 {
        components_native(n, &edges(n))
    }

    fn run_global(&self, m: &mut GlobalMutator, n: usize) -> Option<i64> {
        let es = edges(n);
        let parents = m.alloc_n(n, GValue::Unit);
        let _hold = m.root(parents);
        for i in 0..n {
            m.set_field(parents, i, GValue::Int(i as i64));
        }
        fn find(m: &mut GlobalMutator, parents: GValue, mut i: usize) -> usize {
            loop {
                let next = match m.get_field(parents, i) {
                    GValue::Int(j) => j as usize,
                    link => m.get_field(link, 0).expect_int() as usize,
                };
                if next == i {
                    return i;
                }
                i = next;
            }
        }
        let mut merges = 0i64;
        for &(a, b) in &es {
            loop {
                let ra = find(m, parents, a as usize);
                let rb = find(m, parents, b as usize);
                if ra == rb {
                    break;
                }
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                let expected = m.get_field(parents, hi);
                let is_root = match expected {
                    GValue::Int(j) => j as usize == hi,
                    link => m.get_field(link, 0).expect_int() as usize == hi,
                };
                if !is_root {
                    continue;
                }
                let link = m.alloc(&[GValue::Int(lo as i64)]);
                if m.cas_field(parents, hi, expected, link) {
                    merges += 1;
                    break;
                }
            }
        }
        Some(n as i64 - merges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn tiny_graph_components() {
        // 6 nodes, edges {0-1, 1-2, 3-4}: components {0,1,2}, {3,4}, {5}.
        let es = [(0u32, 1u32), (1, 2), (3, 4)];
        assert_eq!(components_native(6, &es), 3);
    }

    #[test]
    fn checksums_agree_and_entangle() {
        let b = UnionFind;
        let n = b.small_n();
        let native = b.run_native(n);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        // The random graph has the chain i -> i+1, so everything merges
        // into one component — and finds must cross task boundaries.
        assert_eq!(native, 1);
        // One worker: each right branch runs in its left sibling's heap.
        let s = rt.stats();
        assert_eq!((s.entangled_reads, s.pins), (0, 0), "{s:?}");
        rt.assert_heap_sound();
        crate::for_stolen_runs(&b, n, RuntimeConfig::managed(), 3, |rt, got| {
            assert_eq!(got.unwrap(), native);
            assert!(rt.stats().entangled_reads > 0, "finds read sibling links");
            rt.assert_heap_sound();
        });
    }

    #[test]
    fn threaded_run_matches() {
        let b = UnionFind;
        let n = b.small_n();
        let native = b.run_native(n);
        let rt = Runtime::new(RuntimeConfig::managed().with_threads(3));
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        assert_eq!(mpl, native, "components are schedule-independent");
        rt.assert_heap_sound();
    }
}
