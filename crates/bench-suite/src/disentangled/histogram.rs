//! `histogram` — byte-value histogram with task-local sub-histograms
//! merged functionally at joins: the canonical "local effects only"
//! pattern that hierarchical heaps make free.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::util;
use crate::Benchmark;

const GRAIN: usize = 8192;
const BUCKETS: usize = 256;

/// The benchmark.
pub struct Histogram;

fn values(n: usize) -> Vec<u8> {
    util::random_ints(n, 41)
        .into_iter()
        .map(|x| x as u8)
        .collect()
}

fn checksum_hist(counts: impl Iterator<Item = i64>) -> i64 {
    counts
        .enumerate()
        .map(|(v, c)| c * (v as i64 + 1))
        .sum::<i64>()
}

// ---- mpl -----------------------------------------------------------------

fn go_mpl(m: &mut Mutator<'_>, data: Value, lo: usize, hi: usize) -> Value {
    if hi - lo <= GRAIN {
        m.work((hi - lo) as u64);
        let mark = m.mark();
        let hd = m.root(data);
        let hist = m.alloc_raw(BUCKETS);
        let data = m.get(&hd);
        m.with_raw([data, hist], |[data, hist]| {
            for i in lo..hi {
                let w = data.get(i / 8);
                let v = ((w >> (8 * (i % 8))) & 0xFF) as usize;
                hist.set(v, hist.get(v) + 1);
            }
        });
        m.release(mark);
        return hist;
    }
    let mid = lo + (hi - lo) / 2;
    let mark = m.mark();
    let hd = m.root(data);
    let (l, r) = m.fork(
        |m| {
            let data = m.get(&hd);
            go_mpl(m, data, lo, mid)
        },
        |m| {
            let data = m.get(&hd);
            go_mpl(m, data, mid, hi)
        },
    );
    // Functional merge into a fresh histogram.
    let hl = m.root(l);
    let hr = m.root(r);
    let out = m.alloc_raw(BUCKETS);
    let (l, r) = (m.get(&hl), m.get(&hr));
    m.with_raw([l, r, out], |[l, r, out]| {
        for v in 0..BUCKETS {
            out.set(v, l.get(v) + r.get(v));
        }
    });
    m.release(mark);
    out
}

// ---- seq -----------------------------------------------------------------

fn go_seq(rt: &mut SeqRuntime, data: SeqValue, lo: usize, hi: usize) -> SeqValue {
    if hi - lo <= GRAIN {
        rt.work((hi - lo) as u64);
        let mark = rt.mark();
        let hd = rt.root(data);
        let hist = rt.alloc_raw(BUCKETS);
        let data = rt.get(hd);
        rt.with_raw([data, hist], |[data, hist]| {
            for i in lo..hi {
                let w = data.get(i / 8);
                let v = ((w >> (8 * (i % 8))) & 0xFF) as usize;
                hist.set(v, hist.get(v) + 1);
            }
        });
        rt.release(mark);
        return hist;
    }
    let mid = lo + (hi - lo) / 2;
    let mark = rt.mark();
    let hd = rt.root(data);
    let l = go_seq(rt, data, lo, mid);
    let hl = rt.root(l);
    let data2 = rt.get(hd);
    let r = go_seq(rt, data2, mid, hi);
    let hr = rt.root(r);
    let out = rt.alloc_raw(BUCKETS);
    let (l, r) = (rt.get(hl), rt.get(hr));
    rt.with_raw([l, r, out], |[l, r, out]| {
        for v in 0..BUCKETS {
            out.set(v, l.get(v) + r.get(v));
        }
    });
    rt.release(mark);
    out
}

fn pack_bytes_mpl(m: &mut Mutator<'_>, bytes: &[u8]) -> Value {
    let words: Vec<u64> = bytes
        .chunks(8)
        .map(|chunk| {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(buf)
        })
        .collect();
    let h = crate::mplutil::alloc_filled_raw(m, &words);
    m.get(&h)
}

impl Benchmark for Histogram {
    fn name(&self) -> &'static str {
        "histogram"
    }

    fn entangled(&self) -> bool {
        false
    }

    fn default_n(&self) -> usize {
        400_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        let bytes = values(n);
        let data = pack_bytes_mpl(m, &bytes);
        let hist = go_mpl(m, data, 0, n);
        m.with_raw([hist], |[hist]| {
            checksum_hist((0..BUCKETS).map(|v| hist.get(v) as i64))
        })
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let bytes = values(n);
        let data = rt.alloc_raw(bytes.len().div_ceil(8));
        rt.with_raw([data], |[data]| {
            for (w, chunk) in bytes.chunks(8).enumerate() {
                let mut buf = [0u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                data.set(w, u64::from_le_bytes(buf));
            }
        });
        let hist = go_seq(rt, data, 0, n);
        rt.with_raw([hist], |[hist]| {
            checksum_hist((0..BUCKETS).map(|v| hist.get(v) as i64))
        })
    }

    fn run_native(&self, n: usize) -> i64 {
        let mut counts = [0i64; BUCKETS];
        for v in values(n) {
            counts[v as usize] += 1;
        }
        checksum_hist(counts.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn checksums_agree() {
        let b = Histogram;
        let n = 30_000;
        let native = b.run_native(n);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        assert_eq!(rt.stats().pins, 0);
    }

    #[test]
    fn total_count_matches_n() {
        // Sum of all buckets equals the input size.
        let n = 10_000;
        let rt = Runtime::new(RuntimeConfig::managed());
        let total = rt.run(|m| {
            let bytes = values(n);
            let data = pack_bytes_mpl(m, &bytes);
            let hist = go_mpl(m, data, 0, n);
            let mut t = 0i64;
            for v in 0..BUCKETS {
                t += m.raw_get(hist, v) as i64;
            }
            Value::Int(t)
        });
        assert_eq!(total.expect_int(), n as i64);
    }
}
