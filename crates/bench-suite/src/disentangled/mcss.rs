//! `mcss` — maximum contiguous subsequence sum by divide-and-conquer.
//! Each node returns a 4-tuple (total, best-prefix, best-suffix, best)
//! allocated in the heap; the input lives in a raw array. Disentangled.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::util;
use crate::Benchmark;

const GRAIN: usize = 4096;
const NEG_INF: i64 = i64::MIN / 4;

/// The benchmark.
pub struct Mcss;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Summary {
    total: i64,
    prefix: i64,
    suffix: i64,
    best: i64,
}

fn leaf(data: &[i64]) -> Summary {
    let mut total = 0;
    let mut prefix = NEG_INF;
    let mut suffix = NEG_INF;
    let mut best = NEG_INF;
    let mut run = 0;
    let mut cur = NEG_INF;
    for &x in data {
        total += x;
        run += x;
        prefix = prefix.max(run);
        cur = if cur < 0 { x } else { cur + x };
        best = best.max(cur);
    }
    let mut back = 0;
    for &x in data.iter().rev() {
        back += x;
        suffix = suffix.max(back);
    }
    Summary {
        total,
        prefix,
        suffix,
        best,
    }
}

fn combine(l: Summary, r: Summary) -> Summary {
    Summary {
        total: l.total + r.total,
        prefix: l.prefix.max(l.total + r.prefix),
        suffix: r.suffix.max(r.total + l.suffix),
        best: l.best.max(r.best).max(l.suffix + r.prefix),
    }
}

// ---- mpl -----------------------------------------------------------------

fn summary_to_tuple(m: &mut Mutator<'_>, s: Summary) -> Value {
    m.alloc_tuple(&[
        Value::Int(s.total),
        Value::Int(s.prefix),
        Value::Int(s.suffix),
        Value::Int(s.best),
    ])
}

fn tuple_to_summary(m: &mut Mutator<'_>, v: Value) -> Summary {
    Summary {
        total: m.tuple_get(v, 0).expect_int(),
        prefix: m.tuple_get(v, 1).expect_int(),
        suffix: m.tuple_get(v, 2).expect_int(),
        best: m.tuple_get(v, 3).expect_int(),
    }
}

fn go_mpl(m: &mut Mutator<'_>, arr: Value, lo: usize, hi: usize) -> Value {
    if hi - lo <= GRAIN {
        m.work((hi - lo) as u64 * 2);
        let data: Vec<i64> =
            m.with_raw([arr], |[arr]| (lo..hi).map(|i| arr.get(i) as i64).collect());
        let s = leaf(&data);
        return summary_to_tuple(m, s);
    }
    let mid = lo + (hi - lo) / 2;
    let mark = m.mark();
    let keep = m.root(arr);
    let (lv, rv) = m.fork(
        |m| {
            let arr = m.get(&keep);
            go_mpl(m, arr, lo, mid)
        },
        |m| {
            let arr = m.get(&keep);
            go_mpl(m, arr, mid, hi)
        },
    );
    let ls = tuple_to_summary(m, lv);
    let rs = tuple_to_summary(m, rv);
    m.release(mark);
    summary_to_tuple(m, combine(ls, rs))
}

// ---- seq -----------------------------------------------------------------

fn go_seq(rt: &mut SeqRuntime, arr: SeqValue, lo: usize, hi: usize) -> Summary {
    if hi - lo <= GRAIN {
        rt.work((hi - lo) as u64 * 2);
        let data: Vec<i64> =
            rt.with_raw([arr], |[arr]| (lo..hi).map(|i| arr.get(i) as i64).collect());
        return leaf(&data);
    }
    let mid = lo + (hi - lo) / 2;
    let l = go_seq(rt, arr, lo, mid);
    let r = go_seq(rt, arr, mid, hi);
    // Allocate the summary tuple for parity with the parallel version.
    let _ = rt.alloc(&[
        SeqValue::Int(l.total),
        SeqValue::Int(l.prefix),
        SeqValue::Int(l.suffix),
        SeqValue::Int(l.best),
    ]);
    combine(l, r)
}

impl Benchmark for Mcss {
    fn name(&self) -> &'static str {
        "mcss"
    }

    fn entangled(&self) -> bool {
        false
    }

    fn default_n(&self) -> usize {
        200_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        // Reinterpreted in place (same element size): the input is held
        // once, as in `run_seq`.
        let words: Vec<u64> = util::random_small_ints(n, 11)
            .into_iter()
            .map(|x| x as u64)
            .collect();
        let ha = crate::mplutil::alloc_filled_raw(m, &words);
        let arr = m.get(&ha);
        let s = go_mpl(m, arr, 0, n);
        m.tuple_get(s, 3).expect_int()
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let data = util::random_small_ints(n, 11);
        let arr = rt.alloc_raw(n);
        let h = rt.root(arr);
        rt.with_raw([arr], |[arr]| {
            for (i, &x) in data.iter().enumerate() {
                arr.set(i, x as u64);
            }
        });
        let arr = rt.get(h);
        go_seq(rt, arr, 0, n).best
    }

    fn run_native(&self, n: usize) -> i64 {
        let data = util::random_small_ints(n, 11);
        leaf(&data).best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn combine_is_kadane_consistent() {
        let data = util::random_small_ints(1000, 42);
        let (l, r) = data.split_at(500);
        assert_eq!(combine(leaf(l), leaf(r)), leaf(&data));
    }

    #[test]
    fn checksums_agree() {
        let b = Mcss;
        let n = b.small_n();
        let native = b.run_native(n);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        assert_eq!(rt.stats().pins, 0);
    }
}
