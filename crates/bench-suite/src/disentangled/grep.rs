//! `grep` — count the occurrences of a fixed pattern in a text by
//! divide-and-conquer: each half is scanned independently and matches
//! straddling the split point are counted in a small boundary window.
//! The text lives in a raw (unboxed) array; disentangled.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::util;
use crate::Benchmark;

const GRAIN: usize = 8192;
const PATTERN: &[u8] = b"ab";

/// The benchmark.
pub struct Grep;

fn count_in(text: &[u8]) -> i64 {
    if text.len() < PATTERN.len() {
        return 0;
    }
    let mut c = 0;
    for w in text.windows(PATTERN.len()) {
        if w == PATTERN {
            c += 1;
        }
    }
    c
}

// ---- mpl -----------------------------------------------------------------

fn read_window(m: &mut Mutator<'_>, arr: Value, lo: usize, hi: usize) -> Vec<u8> {
    m.with_raw([arr], |[arr]| (lo..hi).map(|i| arr.get(i) as u8).collect())
}

fn go_mpl(m: &mut Mutator<'_>, arr: Value, lo: usize, hi: usize) -> i64 {
    if hi - lo <= GRAIN {
        m.work((hi - lo) as u64);
        let text = read_window(m, arr, lo, hi);
        return count_in(&text);
    }
    let mid = lo + (hi - lo) / 2;
    let mark = m.mark();
    let keep = m.root(arr);
    let (lv, rv) = m.fork(
        |m| {
            let arr = m.get(&keep);
            Value::Int(go_mpl(m, arr, lo, mid))
        },
        |m| {
            let arr = m.get(&keep);
            Value::Int(go_mpl(m, arr, mid, hi))
        },
    );
    // Matches that straddle the split: a window of pattern-length - 1
    // bytes on each side of `mid`.
    let wlo = mid.saturating_sub(PATTERN.len() - 1).max(lo);
    let whi = (mid + PATTERN.len() - 1).min(hi);
    let arr = m.get(&keep);
    let boundary = {
        let w = read_window(m, arr, wlo, whi);
        // Only count matches that actually cross mid (start before it).
        let mut c = 0;
        for (k, win) in w.windows(PATTERN.len()).enumerate() {
            if win == PATTERN && wlo + k < mid && wlo + k + PATTERN.len() > mid {
                c += 1;
            }
        }
        c
    };
    m.release(mark);
    lv.expect_int() + rv.expect_int() + boundary
}

// ---- seq -----------------------------------------------------------------

fn read_window_seq(rt: &mut SeqRuntime, arr: SeqValue, lo: usize, hi: usize) -> Vec<u8> {
    rt.with_raw([arr], |[arr]| (lo..hi).map(|i| arr.get(i) as u8).collect())
}

fn go_seq(rt: &mut SeqRuntime, arr: SeqValue, lo: usize, hi: usize) -> i64 {
    if hi - lo <= GRAIN {
        rt.work((hi - lo) as u64);
        let text = read_window_seq(rt, arr, lo, hi);
        return count_in(&text);
    }
    let mid = lo + (hi - lo) / 2;
    let l = go_seq(rt, arr, lo, mid);
    let r = go_seq(rt, arr, mid, hi);
    let wlo = mid.saturating_sub(PATTERN.len() - 1).max(lo);
    let whi = (mid + PATTERN.len() - 1).min(hi);
    let w = read_window_seq(rt, arr, wlo, whi);
    let mut boundary = 0;
    for (k, win) in w.windows(PATTERN.len()).enumerate() {
        if win == PATTERN && wlo + k < mid && wlo + k + PATTERN.len() > mid {
            boundary += 1;
        }
    }
    l + r + boundary
}

impl Benchmark for Grep {
    fn name(&self) -> &'static str {
        "grep"
    }

    fn entangled(&self) -> bool {
        false
    }

    fn default_n(&self) -> usize {
        400_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        // The text is dropped once widened: one copy of the input is held,
        // as in `run_seq`.
        let words: Vec<u64> = util::random_text(n, 23).bytes().map(u64::from).collect();
        let ha = crate::mplutil::alloc_filled_raw(m, &words);
        let arr = m.get(&ha);
        go_mpl(m, arr, 0, n)
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let text = util::random_text(n, 23);
        let arr = rt.alloc_raw(n);
        let h = rt.root(arr);
        rt.with_raw([arr], |[arr]| {
            for (i, b) in text.bytes().enumerate() {
                arr.set(i, u64::from(b));
            }
        });
        let arr = rt.get(h);
        go_seq(rt, arr, 0, n)
    }

    fn run_native(&self, n: usize) -> i64 {
        count_in(util::random_text(n, 23).as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn boundary_matches_are_counted_once() {
        // A text that is nothing but pattern repetitions: every split
        // point potentially straddles a match.
        let text: Vec<u8> = PATTERN.iter().copied().cycle().take(64).collect();
        // "abab..." matches "ab" at every even offset.
        assert_eq!(count_in(&text), 32);
    }

    #[test]
    fn checksums_agree() {
        let b = Grep;
        let n = b.small_n();
        let native = b.run_native(n);
        assert!(native > 0, "the workload must actually match something");
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        assert_eq!(rt.stats().pins, 0, "disentangled");
    }
}
