//! `dmm` — dense integer matrix multiplication, parallel over output row
//! blocks. Children write into an output array allocated by an ancestor:
//! ancestor writes are *local* in the hierarchy (down the path), so the
//! benchmark stays disentangled despite the shared output.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::util;
use crate::Benchmark;

const ROW_GRAIN: usize = 8;
const MODULUS: i64 = 1 << 40;

/// The benchmark.
pub struct Dmm;

fn inputs(n: usize) -> (Vec<i64>, Vec<i64>) {
    let a: Vec<i64> = util::random_ints(n * n, 51)
        .iter()
        .map(|x| x % 997)
        .collect();
    let b: Vec<i64> = util::random_ints(n * n, 52)
        .iter()
        .map(|x| x % 997)
        .collect();
    (a, b)
}

fn checksum(c: impl Fn(usize, usize) -> i64, n: usize) -> i64 {
    let mut acc = 0i64;
    for i in 0..n {
        for j in 0..n {
            acc = (acc + c(i, j) * ((i + j) % 7 + 1) as i64) % MODULUS;
        }
    }
    acc
}

// ---- mpl -----------------------------------------------------------------

fn rows_mpl(m: &mut Mutator<'_>, a: Value, b: Value, c: Value, n: usize, lo: usize, hi: usize) {
    if hi - lo <= ROW_GRAIN {
        m.work(((hi - lo) * n * n) as u64);
        m.with_raw([a, b, c], |[a, b, c]| {
            for i in lo..hi {
                for j in 0..n {
                    let mut acc = 0i64;
                    for k in 0..n {
                        acc += a.get(i * n + k) as i64 * b.get(k * n + j) as i64;
                    }
                    c.set(i * n + j, acc as u64);
                }
            }
        });
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let mark = m.mark();
    let (ha, hb, hc) = (m.root(a), m.root(b), m.root(c));
    m.fork(
        |m| {
            let (a, b, c) = (m.get(&ha), m.get(&hb), m.get(&hc));
            rows_mpl(m, a, b, c, n, lo, mid);
            Value::Unit
        },
        |m| {
            let (a, b, c) = (m.get(&ha), m.get(&hb), m.get(&hc));
            rows_mpl(m, a, b, c, n, mid, hi);
            Value::Unit
        },
    );
    m.release(mark);
}

// ---- seq -----------------------------------------------------------------

fn rows_seq(rt: &mut SeqRuntime, a: SeqValue, b: SeqValue, c: SeqValue, n: usize) {
    rt.work((n * n * n) as u64);
    rt.with_raw([a, b, c], |[a, b, c]| {
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0i64;
                for k in 0..n {
                    acc += a.get(i * n + k) as i64 * b.get(k * n + j) as i64;
                }
                c.set(i * n + j, acc as u64);
            }
        }
    });
}

fn fill_raw_mpl(m: &mut Mutator<'_>, data: &[i64]) -> Value {
    let arr = m.alloc_raw(data.len());
    m.with_raw([arr], |[arr]| {
        for (i, &x) in data.iter().enumerate() {
            arr.set(i, x as u64);
        }
    });
    arr
}

impl Benchmark for Dmm {
    fn name(&self) -> &'static str {
        "dmm"
    }

    fn entangled(&self) -> bool {
        false
    }

    fn default_n(&self) -> usize {
        96
    }

    fn small_n(&self) -> usize {
        24
    }

    fn scaled_n(&self, pct: usize) -> usize {
        // Cost is cubic in n: scale the side length by the cube root.
        let f = (pct as f64 / 100.0).cbrt();
        ((self.default_n() as f64 * f) as usize).max(self.small_n())
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        let (a, b) = inputs(n);
        let av = fill_raw_mpl(m, &a);
        let ha = m.root(av);
        let bv = fill_raw_mpl(m, &b);
        let hb = m.root(bv);
        let cv = m.alloc_raw(n * n);
        let hc = m.root(cv);
        let (av, bv, cv) = (m.get(&ha), m.get(&hb), m.get(&hc));
        rows_mpl(m, av, bv, cv, n, 0, n);
        let cv = m.get(&hc);
        let vals: Vec<i64> =
            m.with_raw([cv], |[cv]| (0..n * n).map(|i| cv.get(i) as i64).collect());
        checksum(|i, j| vals[i * n + j], n)
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let (a, b) = inputs(n);
        let av = rt.alloc_raw(n * n);
        let ha = rt.root(av);
        rt.with_raw([av], |[av]| {
            for (i, &x) in a.iter().enumerate() {
                av.set(i, x as u64);
            }
        });
        let bv = rt.alloc_raw(n * n);
        let hb = rt.root(bv);
        rt.with_raw([bv], |[bv]| {
            for (i, &x) in b.iter().enumerate() {
                bv.set(i, x as u64);
            }
        });
        let cv = rt.alloc_raw(n * n);
        let hc = rt.root(cv);
        let (av, bv, cv) = (rt.get(ha), rt.get(hb), rt.get(hc));
        rows_seq(rt, av, bv, cv, n);
        let cv = rt.get(hc);
        let vals: Vec<i64> =
            rt.with_raw([cv], |[cv]| (0..n * n).map(|i| cv.get(i) as i64).collect());
        checksum(|i, j| vals[i * n + j], n)
    }

    fn run_native(&self, n: usize) -> i64 {
        let (a, b) = inputs(n);
        let mut c = vec![0i64; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0i64;
                for k in 0..n {
                    acc += a[i * n + k] * b[k * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        checksum(|i, j| c[i * n + j], n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn checksums_agree() {
        let b = Dmm;
        let n = 24;
        let native = b.run_native(n);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        assert_eq!(
            rt.stats().pins,
            0,
            "writes into the ancestor output array are local, not entangled"
        );
    }
}
