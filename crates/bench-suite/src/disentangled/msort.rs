//! `msort` — parallel mergesort over raw arrays with a parallel merge
//! (binary-search splitting), giving the classic `O(n)` work /
//! `O(log³ n)` span profile. Each recursion level allocates fresh output
//! arrays in the task's own heap (the hierarchical allocator's bread and
//! butter); merge workers write into the parent-allocated output, which
//! is a *local* down-path effect, not entanglement.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, RawView, Value};

use crate::util;
use crate::Benchmark;

const GRAIN: usize = 1024;
const MODULUS: i64 = 1 << 40;

/// The benchmark.
pub struct Msort;

fn checksum(sorted: impl Iterator<Item = i64>) -> i64 {
    let mut acc = 0i64;
    for (i, x) in sorted.enumerate() {
        acc = (acc + (x % MODULUS) * ((i % 64) as i64 + 1)) % MODULUS;
    }
    acc
}

// ---- mpl -----------------------------------------------------------------

fn sort_mpl(m: &mut Mutator<'_>, arr: Value, lo: usize, hi: usize) -> Value {
    let len = hi - lo;
    if len <= GRAIN {
        let mut data: Vec<i64> =
            m.with_raw([arr], |[arr]| (lo..hi).map(|i| arr.get(i) as i64).collect());
        data.sort_unstable();
        m.work((len as u64).saturating_mul(12));
        let out = m.alloc_raw(len);
        m.with_raw([out], |[out]| {
            for (i, &x) in data.iter().enumerate() {
                out.set(i, x as u64);
            }
        });
        return out;
    }
    let mid = lo + len / 2;
    let mark = m.mark();
    let keep = m.root(arr);
    let (lv, rv) = m.fork(
        |m| {
            let arr = m.get(&keep);
            sort_mpl(m, arr, lo, mid)
        },
        |m| {
            let arr = m.get(&keep);
            sort_mpl(m, arr, mid, hi)
        },
    );
    // Parallel merge of the two sorted halves into a fresh array.
    let hl = m.root(lv);
    let hr = m.root(rv);
    let out = m.alloc_raw(len);
    let ho = m.root(out);
    let (lv, rv, out) = (m.get(&hl), m.get(&hr), m.get(&ho));
    let (ll, rl) = (m.len(lv), m.len(rv));
    pmerge_mpl(m, lv, 0, ll, rv, 0, rl, out, 0);
    let out = m.get(&ho);
    m.release(mark);
    out
}

/// Binary search: first index in `arr[lo..hi)` whose value is `>= key`.
fn lower_bound_mpl(arr: RawView<'_>, mut lo: usize, mut hi: usize, key: i64) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if (arr.get(mid) as i64) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Merges `a[a0..a1)` and `b[b0..b1)` into `out[o0..)`, forking on the
/// larger side's median.
#[allow(clippy::too_many_arguments)]
fn pmerge_mpl(
    m: &mut Mutator<'_>,
    a: Value,
    a0: usize,
    a1: usize,
    b: Value,
    b0: usize,
    b1: usize,
    out: Value,
    o0: usize,
) {
    let total = (a1 - a0) + (b1 - b0);
    if total <= GRAIN {
        m.work(total as u64 * 2);
        m.with_raw([a, b, out], |[a, b, out]| {
            let (mut i, mut j, mut k) = (a0, b0, o0);
            while i < a1 && j < b1 {
                let x = a.get(i) as i64;
                let y = b.get(j) as i64;
                if x <= y {
                    out.set(k, x as u64);
                    i += 1;
                } else {
                    out.set(k, y as u64);
                    j += 1;
                }
                k += 1;
            }
            while i < a1 {
                out.set(k, a.get(i));
                i += 1;
                k += 1;
            }
            while j < b1 {
                out.set(k, b.get(j));
                j += 1;
                k += 1;
            }
        });
        return;
    }
    // Split on the larger side's median; binary-search the other side.
    let (am, bm) = m.with_raw([a, b], |[a, b]| {
        if a1 - a0 >= b1 - b0 {
            let am = a0 + (a1 - a0) / 2;
            (am, lower_bound_mpl(b, b0, b1, a.get(am) as i64))
        } else {
            let bm = b0 + (b1 - b0) / 2;
            (lower_bound_mpl(a, a0, a1, b.get(bm) as i64), bm)
        }
    });
    m.work(((a1 - a0).max(b1 - b0) as u64).ilog2() as u64 + 1);
    let osplit = o0 + (am - a0) + (bm - b0);
    let mark = m.mark();
    let (ha, hb, ho) = (m.root(a), m.root(b), m.root(out));
    m.fork(
        |m| {
            let (a, b, out) = (m.get(&ha), m.get(&hb), m.get(&ho));
            pmerge_mpl(m, a, a0, am, b, b0, bm, out, o0);
            Value::Unit
        },
        |m| {
            let (a, b, out) = (m.get(&ha), m.get(&hb), m.get(&ho));
            pmerge_mpl(m, a, am, a1, b, bm, b1, out, osplit);
            Value::Unit
        },
    );
    m.release(mark);
}

// ---- seq ------------------------------------------------------------------

fn sort_seq(rt: &mut SeqRuntime, arr: SeqValue, lo: usize, hi: usize) -> SeqValue {
    let len = hi - lo;
    if len <= GRAIN {
        let mut data: Vec<i64> =
            rt.with_raw([arr], |[arr]| (lo..hi).map(|i| arr.get(i) as i64).collect());
        data.sort_unstable();
        rt.work((len as u64).saturating_mul(12));
        let mark = rt.mark();
        let _keep = rt.root(arr);
        let out = rt.alloc_raw(len);
        rt.release(mark);
        rt.with_raw([out], |[out]| {
            for (i, &x) in data.iter().enumerate() {
                out.set(i, x as u64);
            }
        });
        return out;
    }
    let mid = lo + len / 2;
    let mark = rt.mark();
    let ha = rt.root(arr);
    let lv = sort_seq(rt, arr, lo, mid);
    let hl = rt.root(lv);
    let arr2 = rt.get(ha);
    let rv = sort_seq(rt, arr2, mid, hi);
    let hr = rt.root(rv);
    let out = rt.alloc_raw(len);
    let (lv, rv) = (rt.get(hl), rt.get(hr));
    let (ll, rl) = (rt.len(lv), rt.len(rv));
    rt.with_raw([lv, rv, out], |[lv, rv, out]| {
        let (mut i, mut j, mut k) = (0, 0, 0);
        while i < ll && j < rl {
            let a = lv.get(i) as i64;
            let b = rv.get(j) as i64;
            if a <= b {
                out.set(k, a as u64);
                i += 1;
            } else {
                out.set(k, b as u64);
                j += 1;
            }
            k += 1;
        }
        while i < ll {
            out.set(k, lv.get(i));
            i += 1;
            k += 1;
        }
        while j < rl {
            out.set(k, rv.get(j));
            j += 1;
            k += 1;
        }
    });
    rt.release(mark);
    out
}

impl Benchmark for Msort {
    fn name(&self) -> &'static str {
        "msort"
    }

    fn entangled(&self) -> bool {
        false
    }

    fn default_n(&self) -> usize {
        100_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        // Reinterpreted in place (same element size): the input is held
        // once, as in `run_seq`.
        let words: Vec<u64> = util::random_ints(n, 21)
            .into_iter()
            .map(|x| x as u64)
            .collect();
        let ha = crate::mplutil::alloc_filled_raw(m, &words);
        let arr = m.get(&ha);
        let sorted = sort_mpl(m, arr, 0, n);
        m.with_raw([sorted], |[sorted]| {
            checksum((0..n).map(|i| sorted.get(i) as i64))
        })
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let data = util::random_ints(n, 21);
        let arr = rt.alloc_raw(n);
        let h = rt.root(arr);
        rt.with_raw([arr], |[arr]| {
            for (i, &x) in data.iter().enumerate() {
                arr.set(i, x as u64);
            }
        });
        let arr = rt.get(h);
        let sorted = sort_seq(rt, arr, 0, n);
        rt.with_raw([sorted], |[sorted]| {
            checksum((0..n).map(|i| sorted.get(i) as i64))
        })
    }

    fn run_native(&self, n: usize) -> i64 {
        let mut data = util::random_ints(n, 21);
        data.sort_unstable();
        checksum(data.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn checksums_agree() {
        let b = Msort;
        let n = 5000; // spans several grains
        let native = b.run_native(n);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        assert_eq!(rt.stats().pins, 0, "msort is disentangled");
    }

    #[test]
    fn sorts_under_gc_pressure() {
        let b = Msort;
        let cfg = RuntimeConfig {
            policy: mpl_runtime::GcPolicy {
                lgc_trigger_bytes: 16 * 1024,
                cgc_trigger_pinned_bytes: usize::MAX,
            },
            ..RuntimeConfig::managed()
        };
        let rt = Runtime::new(cfg);
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, 5000))).expect_int();
        assert_eq!(mpl, b.run_native(5000));
        assert!(rt.stats().lgc_runs > 0, "GC must have run");
    }
}
