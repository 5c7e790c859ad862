//! `quickhull` — 2D convex hull by recursive farthest-point splitting.
//! Point subsets are materialized as fresh index arrays in each task's own
//! heap. Disentangled.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::util;
use crate::Benchmark;

const GRAIN: usize = 1024;
const RADIUS: i64 = 1 << 20;

/// The benchmark.
pub struct Quickhull;

fn cross(o: (i64, i64), a: (i64, i64), b: (i64, i64)) -> i64 {
    (a.0 - o.0) * (b.1 - o.1) - (a.1 - o.1) * (b.0 - o.0)
}

/// Reference hull size (Andrew's monotone chain), the oracle used by the
/// tests to cross-check the quickhull implementation.
#[cfg_attr(not(test), allow(dead_code))]
fn native_hull_size(points: &[(i64, i64)]) -> i64 {
    let mut pts: Vec<(i64, i64)> = points.to_vec();
    pts.sort_unstable();
    pts.dedup();
    if pts.len() < 3 {
        return pts.len() as i64;
    }
    let mut lower: Vec<(i64, i64)> = Vec::new();
    for &p in &pts {
        while lower.len() >= 2 && cross(lower[lower.len() - 2], lower[lower.len() - 1], p) <= 0 {
            lower.pop();
        }
        lower.push(p);
    }
    let mut upper: Vec<(i64, i64)> = Vec::new();
    for &p in pts.iter().rev() {
        while upper.len() >= 2 && cross(upper[upper.len() - 2], upper[upper.len() - 1], p) <= 0 {
            upper.pop();
        }
        upper.push(p);
    }
    (lower.len() + upper.len() - 2) as i64
}

/// Plain quickhull over index slices (shared logic for the oracle
/// cross-check in tests).
fn native_quickhull(points: &[(i64, i64)]) -> i64 {
    fn rec(points: &[(i64, i64)], idx: &[usize], a: usize, b: usize) -> i64 {
        // Points strictly left of a->b.
        let mut best: Option<usize> = None;
        let mut best_d = 0;
        let mut left = Vec::new();
        for &i in idx {
            let d = cross(points[a], points[b], points[i]);
            if d > 0 {
                left.push(i);
                if d > best_d {
                    best_d = d;
                    best = Some(i);
                }
            }
        }
        match best {
            None => 1, // segment a-b contributes vertex a
            Some(c) => rec(points, &left, a, c) + rec(points, &left, c, b),
        }
    }
    if points.len() < 2 {
        return points.len() as i64;
    }
    let amin = (0..points.len()).min_by_key(|&i| points[i]).unwrap();
    let amax = (0..points.len()).max_by_key(|&i| points[i]).unwrap();
    let all: Vec<usize> = (0..points.len()).collect();
    rec(points, &all, amin, amax) + rec(points, &all, amax, amin)
}

// ---- mpl -----------------------------------------------------------------
//
// Points live in two raw arrays xs/ys; subsets are raw index arrays
// allocated per recursion node.

/// Parallel filter pass: collect the indices strictly left of `pa -> pb`
/// in `idx[lo..hi)` plus the farthest one.
#[allow(clippy::too_many_arguments)]
fn scan_mpl(
    m: &mut Mutator<'_>,
    hx: &mpl_runtime::Handle,
    hy: &mpl_runtime::Handle,
    hi_idx: &mpl_runtime::Handle,
    lo: usize,
    hi: usize,
    pa: (i64, i64),
    pb: (i64, i64),
) -> (Vec<usize>, i64, Option<usize>) {
    if hi - lo <= GRAIN {
        m.work((hi - lo) as u64);
        let arrays = [m.get(hi_idx), m.get(hx), m.get(hy)];
        return m.with_raw(arrays, |[idx, xs, ys]| {
            let mut left_ids = Vec::new();
            let mut best: Option<usize> = None;
            let mut best_d = 0;
            for k in lo..hi {
                let i = idx.get(k) as usize;
                let pi = (xs.get(i) as i64, ys.get(i) as i64);
                let d = cross(pa, pb, pi);
                if d > 0 {
                    left_ids.push(i);
                    if d > best_d {
                        best_d = d;
                        best = Some(i);
                    }
                }
            }
            (left_ids, best_d, best)
        });
    }
    let mid = lo + (hi - lo) / 2;
    let out = std::sync::Mutex::new(((Vec::new(), 0i64, None), (Vec::new(), 0i64, None)));
    m.fork(
        |m| {
            let r = scan_mpl(m, hx, hy, hi_idx, lo, mid, pa, pb);
            out.lock().unwrap().0 = r;
            Value::Unit
        },
        |m| {
            let r = scan_mpl(m, hx, hy, hi_idx, mid, hi, pa, pb);
            out.lock().unwrap().1 = r;
            Value::Unit
        },
    );
    let ((mut lids, ld, lbest), (rids, rd, rbest)) = out.into_inner().unwrap();
    lids.extend(rids);
    if rd > ld {
        (lids, rd, rbest)
    } else {
        (lids, ld, lbest)
    }
}

/// Parallel fill of a subset array from collected indices (writes into an
/// ancestor-allocated array: local down-path effects).
fn fill_sub_mpl(
    m: &mut Mutator<'_>,
    hs: &mpl_runtime::Handle,
    ids: &[usize],
    lo: usize,
    hi: usize,
) {
    if hi - lo <= 4 * GRAIN {
        m.work((hi - lo) as u64);
        let sub = m.get(hs);
        m.with_raw([sub], |[sub]| {
            for (k, &id) in ids[lo..hi].iter().enumerate() {
                sub.set(lo + k, id as u64);
            }
        });
        return;
    }
    let mid = lo + (hi - lo) / 2;
    m.fork(
        |m| {
            fill_sub_mpl(m, hs, ids, lo, mid);
            Value::Unit
        },
        |m| {
            fill_sub_mpl(m, hs, ids, mid, hi);
            Value::Unit
        },
    );
}

fn hull_mpl(m: &mut Mutator<'_>, xs: Value, ys: Value, idx: Value, a: usize, b: usize) -> i64 {
    let len = m.len(idx);
    let (pa, pb) = m.with_raw([xs, ys], |[xs, ys]| {
        let point = |i: usize| (xs.get(i) as i64, ys.get(i) as i64);
        (point(a), point(b))
    });
    let mark_scan = m.mark();
    let (shx, shy, shi) = (m.root(xs), m.root(ys), m.root(idx));
    let (left_ids, _best_d, best) = scan_mpl(m, &shx, &shy, &shi, 0, len, pa, pb);
    let (xs, ys) = (m.get(&shx), m.get(&shy));
    m.release(mark_scan);
    let Some(c) = best else { return 1 };
    // Materialize the subset in this task's heap (parallel fill).
    let mark = m.mark();
    let (hx, hy) = (m.root(xs), m.root(ys));
    let sub = m.alloc_raw(left_ids.len());
    let hs = m.root(sub);
    fill_sub_mpl(m, &hs, &left_ids, 0, left_ids.len());
    let total = if left_ids.len() <= GRAIN {
        let (xs, ys, sub) = (m.get(&hx), m.get(&hy), m.get(&hs));
        let l = hull_mpl(m, xs, ys, sub, a, c);
        let (xs, ys, sub) = (m.get(&hx), m.get(&hy), m.get(&hs));
        let r = hull_mpl(m, xs, ys, sub, c, b);
        l + r
    } else {
        let (l, r) = m.fork(
            |m| {
                let (xs, ys, sub) = (m.get(&hx), m.get(&hy), m.get(&hs));
                Value::Int(hull_mpl(m, xs, ys, sub, a, c))
            },
            |m| {
                let (xs, ys, sub) = (m.get(&hx), m.get(&hy), m.get(&hs));
                Value::Int(hull_mpl(m, xs, ys, sub, c, b))
            },
        );
        l.expect_int() + r.expect_int()
    };
    m.release(mark);
    total
}

// ---- seq -----------------------------------------------------------------

fn hull_seq(
    rt: &mut SeqRuntime,
    xs: SeqValue,
    ys: SeqValue,
    idx: SeqValue,
    a: usize,
    b: usize,
) -> i64 {
    let len = rt.len(idx);
    let (left_ids, best) = rt.with_raw([idx, xs, ys], |[idx, xs, ys]| {
        let point = |i: usize| (xs.get(i) as i64, ys.get(i) as i64);
        let (pa, pb) = (point(a), point(b));
        let mut left_ids = Vec::new();
        let mut best: Option<usize> = None;
        let mut best_d = 0;
        for k in 0..len {
            let i = idx.get(k) as usize;
            let d = cross(pa, pb, point(i));
            if d > 0 {
                left_ids.push(i);
                if d > best_d {
                    best_d = d;
                    best = Some(i);
                }
            }
        }
        (left_ids, best)
    });
    rt.work(len as u64);
    let Some(c) = best else { return 1 };
    let mark = rt.mark();
    let (hx, hy) = (rt.root(xs), rt.root(ys));
    let sub = rt.alloc_raw(left_ids.len());
    let hs = rt.root(sub);
    rt.with_raw([sub], |[sub]| {
        for (k, &i) in left_ids.iter().enumerate() {
            sub.set(k, i as u64);
        }
    });
    let (xs1, ys1, sub1) = (rt.get(hx), rt.get(hy), rt.get(hs));
    let l = hull_seq(rt, xs1, ys1, sub1, a, c);
    let (xs2, ys2, sub2) = (rt.get(hx), rt.get(hy), rt.get(hs));
    let r = hull_seq(rt, xs2, ys2, sub2, c, b);
    rt.release(mark);
    l + r
}

impl Benchmark for Quickhull {
    fn name(&self) -> &'static str {
        "quickhull"
    }

    fn entangled(&self) -> bool {
        false
    }

    fn default_n(&self) -> usize {
        50_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        // Filled straight from `points`: the run stages no copy of its
        // input beside the raw arrays, as `run_seq` stages none.
        let points = util::random_points(n, RADIUS, 61);
        let hx = crate::mplutil::alloc_raw_with(m, n, |i| points[i].0 as u64);
        let hy = crate::mplutil::alloc_raw_with(m, n, |i| points[i].1 as u64);
        let hi = crate::mplutil::alloc_raw_with(m, n, |i| i as u64);
        let amin = (0..n).min_by_key(|&i| points[i]).unwrap();
        let amax = (0..n).max_by_key(|&i| points[i]).unwrap();
        let (xs, ys, idx) = (m.get(&hx), m.get(&hy), m.get(&hi));
        let upper = hull_mpl(m, xs, ys, idx, amin, amax);
        let (xs, ys, idx) = (m.get(&hx), m.get(&hy), m.get(&hi));
        let lower = hull_mpl(m, xs, ys, idx, amax, amin);
        upper + lower
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let points = util::random_points(n, RADIUS, 61);
        let xs = rt.alloc_raw(n);
        let hx = rt.root(xs);
        let ys = rt.alloc_raw(n);
        let hy = rt.root(ys);
        let (xs, ys) = (rt.get(hx), rt.get(hy));
        rt.with_raw([xs, ys], |[xs, ys]| {
            for (i, &(x, y)) in points.iter().enumerate() {
                xs.set(i, x as u64);
                ys.set(i, y as u64);
            }
        });
        let amin = (0..n).min_by_key(|&i| points[i]).unwrap();
        let amax = (0..n).max_by_key(|&i| points[i]).unwrap();
        let idx = rt.alloc_raw(n);
        let hidx = rt.root(idx);
        rt.with_raw([idx], |[idx]| {
            for i in 0..n {
                idx.set(i, i as u64);
            }
        });
        let (xs, ys, idx) = (rt.get(hx), rt.get(hy), rt.get(hidx));
        let upper = hull_seq(rt, xs, ys, idx, amin, amax);
        let (xs, ys, idx) = (rt.get(hx), rt.get(hy), rt.get(hidx));
        let lower = hull_seq(rt, xs, ys, idx, amax, amin);
        upper + lower
    }

    fn run_native(&self, n: usize) -> i64 {
        let points = util::random_points(n, RADIUS, 61);
        native_quickhull(&points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn quickhull_matches_monotone_chain() {
        let points = util::random_points(2000, RADIUS, 61);
        assert_eq!(native_quickhull(&points), native_hull_size(&points));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(native_quickhull(&[]), 0);
        assert_eq!(native_quickhull(&[(1, 1)]), 1);
    }

    #[test]
    fn checksums_agree() {
        let b = Quickhull;
        let n = 4000;
        let native = b.run_native(n);
        assert!(native >= 3);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        assert_eq!(rt.stats().pins, 0);
    }
}
