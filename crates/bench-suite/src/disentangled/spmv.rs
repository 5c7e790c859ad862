//! `spmv` — sparse matrix–vector product over a CSR matrix. Rows are
//! processed by divide-and-conquer; each leaf reads the shared (raw,
//! read-only) CSR arrays and writes its rows of `y` — purely local
//! effects on disjoint index ranges. Disentangled.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Handle, Mutator, Value};

use crate::util;
use crate::Benchmark;

const GRAIN: usize = 2048;
const DEGREE: usize = 8;

/// The benchmark.
pub struct Spmv;

/// Deterministic matrix value for entry (row, col).
fn val(row: usize, col: usize) -> i64 {
    ((row * 7 + col * 3) % 13) as i64 - 6
}

/// Deterministic input-vector entry.
fn x_of(col: usize) -> i64 {
    (col % 11) as i64 - 5
}

// ---- mpl -----------------------------------------------------------------

struct Arrays<'a> {
    offsets: &'a Handle,
    targets: &'a Handle,
    y: &'a Handle,
}

fn go_mpl(m: &mut Mutator<'_>, a: &Arrays<'_>, lo: usize, hi: usize) -> i64 {
    if hi - lo <= GRAIN {
        let offsets = m.get(a.offsets);
        let targets = m.get(a.targets);
        let y = m.get(a.y);
        let mut sum = 0i64;
        for row in lo..hi {
            let start = m.raw_get(offsets, row) as usize;
            let end = m.raw_get(offsets, row + 1) as usize;
            m.work((end - start) as u64);
            let mut acc = 0i64;
            for k in start..end {
                let col = m.raw_get(targets, k) as usize;
                acc = acc.wrapping_add(val(row, col).wrapping_mul(x_of(col)));
            }
            m.raw_set(y, row, acc as u64);
            sum = sum.wrapping_add(acc);
        }
        return sum;
    }
    let mid = lo + (hi - lo) / 2;
    let (lv, rv) = m.fork(
        |m| Value::Int(go_mpl(m, a, lo, mid)),
        |m| Value::Int(go_mpl(m, a, mid, hi)),
    );
    lv.expect_int().wrapping_add(rv.expect_int())
}

// ---- seq -----------------------------------------------------------------

fn go_seq(rt: &mut SeqRuntime, offsets: SeqValue, targets: SeqValue, y: SeqValue, n: usize) -> i64 {
    let mut sum = 0i64;
    for row in 0..n {
        let start = rt.raw_get(offsets, row) as usize;
        let end = rt.raw_get(offsets, row + 1) as usize;
        rt.work((end - start) as u64);
        let mut acc = 0i64;
        for k in start..end {
            let col = rt.raw_get(targets, k) as usize;
            acc = acc.wrapping_add(val(row, col).wrapping_mul(x_of(col)));
        }
        rt.raw_set(y, row, acc as u64);
        sum = sum.wrapping_add(acc);
    }
    sum
}

impl Benchmark for Spmv {
    fn name(&self) -> &'static str {
        "spmv"
    }

    fn entangled(&self) -> bool {
        false
    }

    fn default_n(&self) -> usize {
        100_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        // Filled straight from the graph, which then goes: the run holds
        // its input once, in the raw arrays, as `run_seq` does.
        let g = util::random_graph(n, DEGREE, 31);
        let ho = crate::mplutil::alloc_raw_with(m, g.offsets.len(), |i| u64::from(g.offsets[i]));
        let ht = crate::mplutil::alloc_raw_with(m, g.targets.len(), |i| u64::from(g.targets[i]));
        drop(g);
        let y = m.alloc_raw(n);
        let hy = m.root(y);
        let arrays = Arrays {
            offsets: &ho,
            targets: &ht,
            y: &hy,
        };
        go_mpl(m, &arrays, 0, n)
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let g = util::random_graph(n, DEGREE, 31);
        let offsets = rt.alloc_raw(n + 1);
        let ho = rt.root(offsets);
        let targets = rt.alloc_raw(g.targets.len());
        let ht = rt.root(targets);
        let y = rt.alloc_raw(n);
        let hy = rt.root(y);
        for (i, &o) in g.offsets.iter().enumerate() {
            rt.raw_set(rt.get(ho), i, u64::from(o));
        }
        for (i, &t) in g.targets.iter().enumerate() {
            rt.raw_set(rt.get(ht), i, u64::from(t));
        }
        go_seq(rt, rt.get(ho), rt.get(ht), rt.get(hy), n)
    }

    fn run_native(&self, n: usize) -> i64 {
        let g = util::random_graph(n, DEGREE, 31);
        let mut sum = 0i64;
        for row in 0..n {
            let start = g.offsets[row] as usize;
            let end = g.offsets[row + 1] as usize;
            let mut acc = 0i64;
            for k in start..end {
                let col = g.targets[k] as usize;
                acc = acc.wrapping_add(val(row, col).wrapping_mul(x_of(col)));
            }
            sum = sum.wrapping_add(acc);
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn checksums_agree() {
        let b = Spmv;
        let n = b.small_n();
        let native = b.run_native(n);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        assert_eq!(rt.stats().pins, 0, "disentangled");
    }

    #[test]
    fn output_vector_rows_are_written() {
        // The y rows must contain the same values the checksum folded in.
        let b = Spmv;
        let n = 64;
        let rt = Runtime::new(RuntimeConfig::managed());
        let total = rt.run(|m| {
            let g = util::random_graph(n, DEGREE, 31);
            let ho =
                crate::mplutil::alloc_raw_with(m, g.offsets.len(), |i| u64::from(g.offsets[i]));
            let ht =
                crate::mplutil::alloc_raw_with(m, g.targets.len(), |i| u64::from(g.targets[i]));
            let y = m.alloc_raw(n);
            let hy = m.root(y);
            let arrays = Arrays {
                offsets: &ho,
                targets: &ht,
                y: &hy,
            };
            let sum = go_mpl(m, &arrays, 0, n);
            let y = m.get(&hy);
            let mut recomputed = 0i64;
            for row in 0..n {
                recomputed = recomputed.wrapping_add(m.raw_get(y, row) as i64);
            }
            assert_eq!(recomputed, sum);
            Value::Int(sum)
        });
        assert_eq!(total, Value::Int(b.run_native(n)));
    }
}
