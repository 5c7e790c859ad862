//! `tokens` — count tokens (maximal runs of non-space bytes) in a text,
//! parallelized over byte ranges with boundary-aware counting. The text
//! lives in a heap string (raw array).

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::util;
use crate::Benchmark;

const GRAIN: usize = 8192;

/// The benchmark.
pub struct Tokens;

/// A byte is a token start iff it is non-space and its predecessor (or
/// the string start) is a space.
fn count_starts(text: &[u8], lo: usize, hi: usize) -> i64 {
    (lo..hi)
        .filter(|&i| text[i] != b' ' && (i == 0 || text[i - 1] == b' '))
        .count() as i64
}

/// Reads byte `i` from a string object laid out as
/// `[len, packed-words...]`.
fn byte_at_mpl(m: &mut Mutator<'_>, s: Value, i: usize) -> u8 {
    let w = m.raw_get(s, 1 + i / 8);
    (w >> (8 * (i % 8))) as u8
}

fn go_mpl(m: &mut Mutator<'_>, s: Value, lo: usize, hi: usize) -> i64 {
    if hi - lo <= GRAIN {
        m.work((hi - lo) as u64);
        let mut count = 0;
        for i in lo..hi {
            let c = byte_at_mpl(m, s, i);
            let prev = if i == 0 {
                b' '
            } else {
                byte_at_mpl(m, s, i - 1)
            };
            if c != b' ' && prev == b' ' {
                count += 1;
            }
        }
        return count;
    }
    let mid = lo + (hi - lo) / 2;
    let mark = m.mark();
    let hs = m.root(s);
    let (a, b) = m.fork(
        |m| {
            let s = m.get(&hs);
            Value::Int(go_mpl(m, s, lo, mid))
        },
        |m| {
            let s = m.get(&hs);
            Value::Int(go_mpl(m, s, mid, hi))
        },
    );
    m.release(mark);
    a.expect_int() + b.expect_int()
}

fn byte_at_seq(rt: &mut SeqRuntime, s: SeqValue, i: usize) -> u8 {
    let w = rt.raw_get(s, 1 + i / 8);
    (w >> (8 * (i % 8))) as u8
}

fn go_seq(rt: &mut SeqRuntime, s: SeqValue, lo: usize, hi: usize) -> i64 {
    if hi - lo <= GRAIN {
        rt.work((hi - lo) as u64);
        let mut count = 0;
        for i in lo..hi {
            let c = byte_at_seq(rt, s, i);
            let prev = if i == 0 {
                b' '
            } else {
                byte_at_seq(rt, s, i - 1)
            };
            if c != b' ' && prev == b' ' {
                count += 1;
            }
        }
        return count;
    }
    let mid = lo + (hi - lo) / 2;
    go_seq(rt, s, lo, mid) + go_seq(rt, s, mid, hi)
}

impl Benchmark for Tokens {
    fn name(&self) -> &'static str {
        "tokens"
    }

    fn entangled(&self) -> bool {
        false
    }

    fn default_n(&self) -> usize {
        400_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        let text = util::random_text(n, 31);
        let bytes = text.as_bytes();
        let mut words: Vec<u64> = vec![bytes.len() as u64];
        words.extend(bytes.chunks(8).map(|chunk| {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(buf)
        }));
        let h = crate::mplutil::alloc_filled_raw(m, &words);
        let s = m.get(&h);
        go_mpl(m, s, 0, n)
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let text = util::random_text(n, 31);
        let bytes = text.as_bytes();
        let s = rt.alloc_raw(1 + bytes.len().div_ceil(8));
        rt.raw_set(s, 0, bytes.len() as u64);
        for (w, chunk) in bytes.chunks(8).enumerate() {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            rt.raw_set(s, 1 + w, u64::from_le_bytes(buf));
        }
        go_seq(rt, s, 0, n)
    }

    fn run_native(&self, n: usize) -> i64 {
        let text = util::random_text(n, 31);
        count_starts(text.as_bytes(), 0, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn boundary_counting_is_exact() {
        let text = b"ab  cd e   fg";
        assert_eq!(count_starts(text, 0, text.len()), 4);
        // Split anywhere: halves sum to the whole.
        for split in 0..text.len() {
            assert_eq!(
                count_starts(text, 0, split) + count_starts(text, split, text.len()),
                4
            );
        }
    }

    #[test]
    fn checksums_agree() {
        let b = Tokens;
        let n = 20_000;
        let native = b.run_native(n);
        assert!(native > 1000, "plausible token count: {native}");
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        assert_eq!(rt.stats().pins, 0);
    }
}
