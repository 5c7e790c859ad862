//! `bfs` — level-synchronous parallel breadth-first search. Tasks claim
//! vertices by CAS-publishing freshly allocated distance records into a
//! shared array; losers read the winner's record — entanglement on every
//! contended vertex (the paper's motivating graph-algorithm pattern).

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Handle, Mutator, Value};

use crate::util::{self, CsrGraph};
use crate::Benchmark;

const GRAIN: usize = 512;
const DEGREE: usize = 4;

/// The benchmark.
pub struct Bfs;

fn graph(n: usize) -> CsrGraph {
    util::random_graph(n, DEGREE, 81)
}

// ---- mpl -----------------------------------------------------------------

struct MplCtx {
    offsets: Handle,
    targets: Handle,
    claims: Handle,
}

/// Parallel bulk load of a raw array from a slice (writes into an
/// ancestor-allocated array are down-path effects: local, no barrier).
fn fill_raw_par(m: &mut Mutator<'_>, arr: &Handle, data: &[u32], lo: usize, hi: usize) {
    if hi - lo <= 4 * GRAIN {
        m.work((hi - lo) as u64);
        let a = m.get(arr);
        m.with_raw([a], |[a]| {
            for (k, &d) in data[lo..hi].iter().enumerate() {
                a.set(lo + k, d as u64);
            }
        });
        return;
    }
    let mid = lo + (hi - lo) / 2;
    m.fork(
        |m| {
            fill_raw_par(m, arr, data, lo, mid);
            Value::Unit
        },
        |m| {
            fill_raw_par(m, arr, data, mid, hi);
            Value::Unit
        },
    );
}

/// Parallel sum of claimed distances (runs after all claims joined, so
/// every record is local).
fn sum_dists_par(m: &mut Mutator<'_>, claims: &Handle, lo: usize, hi: usize) -> i64 {
    if hi - lo <= GRAIN {
        m.work((hi - lo) as u64);
        let mut total = 0i64;
        for v in lo..hi {
            let c = m.get(claims);
            if let Value::Obj(_) = m.arr_get(c, v) {
                let c = m.get(claims);
                let rec = m.arr_get(c, v);
                total += m.tuple_get(rec, 0).expect_int();
            }
        }
        return total;
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = m.fork(
        |m| Value::Int(sum_dists_par(m, claims, lo, mid)),
        |m| Value::Int(sum_dists_par(m, claims, mid, hi)),
    );
    a.expect_int() + b.expect_int()
}

/// Processes frontier vertices `slice`; returns `(next-frontier ids, collision sum)`.
fn level_mpl(m: &mut Mutator<'_>, cx: &MplCtx, slice: &[u32], dist: i64) -> (Vec<u32>, i64) {
    if slice.len() <= GRAIN {
        // The slice's out-edges, read through one view: the claims below
        // allocate, so no view may be held across them.
        let arrays = [m.get(&cx.offsets), m.get(&cx.targets)];
        let (ends, nbrs) = m.with_raw(arrays, |[offsets, targets]| {
            let mut ends = Vec::with_capacity(slice.len());
            let mut nbrs = Vec::new();
            for &u in slice {
                let lo = offsets.get(u as usize) as usize;
                let hi = offsets.get(u as usize + 1) as usize;
                nbrs.extend((lo..hi).map(|e| targets.get(e) as usize));
                ends.push(nbrs.len());
            }
            (ends, nbrs)
        });
        let mut next = Vec::new();
        let mut csum = 0i64;
        let mut start = 0;
        for end in ends {
            for &v in &nbrs[start..end] {
                // Check-then-claim: only allocate a record when the slot
                // looks empty (the sequential algorithm allocates per
                // claim, not per edge; the CAS still arbitrates races).
                let claims = m.get(&cx.claims);
                match m.arr_get(claims, v) {
                    Value::Unit => {
                        let rec = m.alloc_tuple(&[Value::Int(dist + 1)]);
                        let claims = m.get(&cx.claims);
                        match m.arr_cas(claims, v, Value::Unit, rec) {
                            Ok(()) => next.push(v as u32),
                            Err(actual) => {
                                csum += m.tuple_get(actual, 0).expect_int();
                            }
                        }
                    }
                    taken => {
                        // The loser reads the (possibly concurrent)
                        // winner's record: the entangled read.
                        csum += m.tuple_get(taken, 0).expect_int();
                    }
                }
            }
            m.work((end - start) as u64 + 1);
            start = end;
        }
        return (next, csum);
    }
    let (lo, hi) = slice.split_at(slice.len() / 2);
    // The frontier vectors travel through Rust (task-local state); the
    // shared heap state travels through the rooted handles in `cx`.
    let out = std::sync::Mutex::new((Vec::new(), Vec::new(), 0i64, 0i64));
    m.fork(
        |m| {
            let (next, csum) = level_mpl(m, cx, lo, dist);
            let mut o = out.lock().unwrap();
            o.0 = next;
            o.2 = csum;
            Value::Unit
        },
        |m| {
            let (next, csum) = level_mpl(m, cx, hi, dist);
            let mut o = out.lock().unwrap();
            o.1 = next;
            o.3 = csum;
            Value::Unit
        },
    );
    let (mut a, b, ca, cb) = out.into_inner().unwrap();
    a.extend(b);
    (a, ca + cb)
}

// ---- seq / native ------------------------------------------------------------

fn bfs_native(n: usize) -> i64 {
    let g = graph(n);
    let mut dist = vec![-1i64; n];
    dist[0] = 0;
    let mut frontier = vec![0u32];
    let mut level = 0i64;
    let mut csum = 0i64;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for e in g.offsets[u as usize] as usize..g.offsets[u as usize + 1] as usize {
                let v = g.targets[e] as usize;
                if dist[v] < 0 {
                    dist[v] = level + 1;
                    next.push(v as u32);
                } else {
                    csum += dist[v];
                }
            }
        }
        frontier = next;
        level += 1;
    }
    dist.iter().filter(|&&d| d >= 0).sum::<i64>() + csum
}

impl Benchmark for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn entangled(&self) -> bool {
        true
    }

    fn default_n(&self) -> usize {
        30_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        let g = graph(n);
        let offsets = m.alloc_raw(n + 1);
        let h_off = m.root(offsets);
        fill_raw_par(m, &h_off, &g.offsets, 0, g.offsets.len());
        let targets = m.alloc_raw(g.targets.len());
        let h_tgt = m.root(targets);
        fill_raw_par(m, &h_tgt, &g.targets, 0, g.targets.len());
        let claims = m.alloc_array(n, Value::Unit);
        let h_clm = m.root(claims);
        // Claim the source.
        let rec0 = m.alloc_tuple(&[Value::Int(0)]);
        let claims_now = m.get(&h_clm);
        m.arr_set(claims_now, 0, rec0);

        let cx = MplCtx {
            offsets: h_off,
            targets: h_tgt,
            claims: h_clm,
        };
        let mut frontier = vec![0u32];
        let mut level = 0i64;
        let mut csum = 0i64;
        while !frontier.is_empty() {
            let (next, c) = level_mpl(m, &cx, &frontier, level);
            csum += c;
            frontier = next;
            level += 1;
        }
        // Sum distances in parallel (all claims are local after joins).
        let total = sum_dists_par(m, &cx.claims, 0, n);
        total + csum
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let g = graph(n);
        let claims = rt.alloc_n(n, SeqValue::Unit);
        let hc = rt.root(claims);
        let rec0 = rt.alloc(&[SeqValue::Int(0)]);
        let c = rt.get(hc);
        rt.set_field(c, 0, rec0);
        let mut frontier = vec![0u32];
        let mut level = 0i64;
        let mut csum = 0i64;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                let lo = g.offsets[u as usize] as usize;
                let hi = g.offsets[u as usize + 1] as usize;
                for e in lo..hi {
                    let v = g.targets[e] as usize;
                    let claims = rt.get(hc);
                    match rt.get_field(claims, v) {
                        SeqValue::Unit => {
                            let rec = rt.alloc(&[SeqValue::Int(level + 1)]);
                            let claims = rt.get(hc);
                            rt.set_field(claims, v, rec);
                            next.push(v as u32);
                        }
                        rec => csum += rt.get_field(rec, 0).expect_int(),
                    }
                }
                rt.work((hi - lo) as u64 + 1);
            }
            frontier = next;
            level += 1;
        }
        let mut total = 0i64;
        for v in 0..n {
            let claims = rt.get(hc);
            if let SeqValue::Obj(_) = rt.get_field(claims, v) {
                let claims = rt.get(hc);
                let rec = rt.get_field(claims, v);
                total += rt.get_field(rec, 0).expect_int();
            }
        }
        total + csum
    }

    fn run_native(&self, n: usize) -> i64 {
        bfs_native(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn checksums_agree_and_entangle() {
        let b = Bfs;
        let n = 3000;
        let native = b.run_native(n);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        let s = rt.stats();
        // One worker: each right branch runs in its left sibling's heap.
        assert_eq!((s.entangled_reads, s.pins), (0, 0), "{s:?}");
        rt.assert_heap_sound();
        crate::for_stolen_runs(&b, n, RuntimeConfig::managed(), 3, |rt, got| {
            assert_eq!(got.unwrap(), native);
            let s = rt.stats();
            assert!(s.entangled_reads > 0, "contended claims entangle: {s:?}");
            rt.assert_heap_sound();
        });
    }

    #[test]
    fn all_nodes_reachable() {
        // The generator includes the chain i -> i+1, so everything is
        // reachable and distances are positive beyond the source.
        let n = 500;
        let total = bfs_native(n);
        assert!(total > n as i64 / 2);
    }
}
