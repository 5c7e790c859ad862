//! `primes` — count primes below `n` with a segmented sieve: base primes
//! up to `√n` are computed sequentially, then segments are sieved in
//! parallel, each into a task-local bitset.

use mpl_baselines::SeqRuntime;
use mpl_runtime::{Mutator, Value};

use crate::Benchmark;

const SEGMENT: usize = 1 << 13;

/// The benchmark.
pub struct Primes;

fn base_primes(limit: usize) -> Vec<usize> {
    let mut sieve = vec![true; limit + 1];
    let mut out = Vec::new();
    for p in 2..=limit {
        if sieve[p] {
            out.push(p);
            let mut q = p * p;
            while q <= limit {
                sieve[q] = false;
                q += p;
            }
        }
    }
    out
}

/// Counts primes in `[lo, hi)` given the base primes, using a plain
/// bitset; shared by all implementations (the heap versions replicate it
/// with heap-resident bitsets).
fn sieve_segment(base: &[usize], lo: usize, hi: usize) -> i64 {
    let len = hi - lo;
    let mut composite = vec![false; len];
    for &p in base {
        if p * p >= hi {
            break;
        }
        let start = (lo.div_ceil(p) * p).max(p * p);
        let mut q = start;
        while q < hi {
            composite[q - lo] = true;
            q += p;
        }
    }
    (lo..hi).filter(|&i| i >= 2 && !composite[i - lo]).count() as i64
}

// ---- mpl -----------------------------------------------------------------

fn segment_mpl(m: &mut Mutator<'_>, base: Value, lo: usize, hi: usize) -> i64 {
    // Heap-resident bitset, one bit per candidate.
    let len = hi - lo;
    let mark = m.mark();
    let hb = m.root(base);
    let bits = m.alloc_raw(len.div_ceil(64));
    let base = m.get(&hb);
    let nbase = m.len(base);
    let count = m.with_raw([base, bits], |[base, bits]| {
        for bi in 0..nbase {
            let p = base.get(bi) as usize;
            if p * p >= hi {
                break;
            }
            let start = (lo.div_ceil(p) * p).max(p * p);
            let mut q = start;
            while q < hi {
                let idx = q - lo;
                bits.set(idx / 64, bits.get(idx / 64) | (1 << (idx % 64)));
                q += p;
            }
        }
        let mut count = 0;
        for i in lo..hi {
            if i < 2 {
                continue;
            }
            let idx = i - lo;
            if bits.get(idx / 64) & (1 << (idx % 64)) == 0 {
                count += 1;
            }
        }
        count
    });
    m.release(mark);
    m.work(len as u64);
    count
}

fn go_mpl(m: &mut Mutator<'_>, base: Value, lo: usize, hi: usize) -> i64 {
    if hi - lo <= SEGMENT {
        return segment_mpl(m, base, lo, hi);
    }
    let mid = lo + (hi - lo) / 2;
    let mark = m.mark();
    let hb = m.root(base);
    let (a, b) = m.fork(
        |m| {
            let base = m.get(&hb);
            Value::Int(go_mpl(m, base, lo, mid))
        },
        |m| {
            let base = m.get(&hb);
            Value::Int(go_mpl(m, base, mid, hi))
        },
    );
    m.release(mark);
    a.expect_int() + b.expect_int()
}

// ---- seq / native -----------------------------------------------------------

fn go_seq(rt: &mut SeqRuntime, base: &[usize], lo: usize, hi: usize) -> i64 {
    if hi - lo <= SEGMENT {
        // Same heap behaviour: allocate the segment bitset in the heap.
        let len = hi - lo;
        let bits = rt.alloc_raw(len.div_ceil(64));
        let count = rt.with_raw([bits], |[bits]| {
            for &p in base {
                if p * p >= hi {
                    break;
                }
                let start = (lo.div_ceil(p) * p).max(p * p);
                let mut q = start;
                while q < hi {
                    let idx = q - lo;
                    bits.set(idx / 64, bits.get(idx / 64) | (1 << (idx % 64)));
                    q += p;
                }
            }
            let mut count = 0;
            for i in lo..hi {
                if i < 2 {
                    continue;
                }
                let idx = i - lo;
                if bits.get(idx / 64) & (1 << (idx % 64)) == 0 {
                    count += 1;
                }
            }
            count
        });
        rt.work(len as u64);
        return count;
    }
    let mid = lo + (hi - lo) / 2;
    go_seq(rt, base, lo, mid) + go_seq(rt, base, mid, hi)
}

impl Benchmark for Primes {
    fn name(&self) -> &'static str {
        "primes"
    }

    fn entangled(&self) -> bool {
        false
    }

    fn default_n(&self) -> usize {
        300_000
    }

    fn small_n(&self) -> usize {
        30_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        let base = base_primes((n as f64).sqrt() as usize + 1);
        let arr = m.alloc_raw(base.len());
        m.with_raw([arr], |[arr]| {
            for (i, &p) in base.iter().enumerate() {
                arr.set(i, p as u64);
            }
        });
        go_mpl(m, arr, 0, n)
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let base = base_primes((n as f64).sqrt() as usize + 1);
        go_seq(rt, &base, 0, n)
    }

    fn run_native(&self, n: usize) -> i64 {
        let base = base_primes((n as f64).sqrt() as usize + 1);
        let mut total = 0;
        let mut lo = 0;
        while lo < n {
            let hi = (lo + SEGMENT).min(n);
            total += sieve_segment(&base, lo, hi);
            lo = hi;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn known_prime_counts() {
        let b = Primes;
        assert_eq!(b.run_native(100), 25);
        assert_eq!(b.run_native(10_000), 1229);
    }

    #[test]
    fn checksums_agree() {
        let b = Primes;
        let n = 40_000; // several segments
        let native = b.run_native(n);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        assert_eq!(rt.stats().pins, 0);
    }
}
