//! Shared helpers for writing benchmarks against the managed runtime:
//! parallel bulk loads and reductions. Writes go into ancestor-allocated
//! raw arrays — down-path effects, which the hierarchy treats as local
//! (no barrier cost, no entanglement).

use mpl_runtime::{Handle, Mutator, Value};

const FILL_GRAIN: usize = 8192;

/// Fills `arr[lo..hi)` in parallel, word `i` with `word(i)`.
pub fn fill_raw_par<F>(m: &mut Mutator<'_>, arr: &Handle, word: &F, lo: usize, hi: usize)
where
    F: Fn(usize) -> u64 + Sync,
{
    if hi - lo <= FILL_GRAIN {
        m.work((hi - lo) as u64);
        let a = m.get(arr);
        for i in lo..hi {
            m.raw_set(a, i, word(i));
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    m.fork(
        |m| {
            fill_raw_par(m, arr, word, lo, mid);
            Value::Unit
        },
        |m| {
            fill_raw_par(m, arr, word, mid, hi);
            Value::Unit
        },
    );
}

/// Allocates a raw array of `len` words and fills it in parallel, word
/// `i` with `word(i)`; returns a rooted handle. Reading the input where it
/// lies stages no copy of it beside the array.
pub fn alloc_raw_with<F>(m: &mut Mutator<'_>, len: usize, word: F) -> Handle
where
    F: Fn(usize) -> u64 + Sync,
{
    let arr = m.alloc_raw(len);
    let h = m.root(arr);
    fill_raw_par(m, &h, &word, 0, len);
    h
}

/// Allocates a raw array and fills it from `data` in parallel; returns a
/// rooted handle.
pub fn alloc_filled_raw(m: &mut Mutator<'_>, data: &[u64]) -> Handle {
    alloc_raw_with(m, data.len(), |i| data[i])
}

/// Parallel sum of `f(i)` over `lo..hi` with the given grain.
pub fn sum_par(
    m: &mut Mutator<'_>,
    lo: usize,
    hi: usize,
    grain: usize,
    f: &(dyn Fn(&mut Mutator<'_>, usize) -> i64 + Sync),
) -> i64 {
    if hi - lo <= grain {
        m.work((hi - lo) as u64);
        let mut acc = 0;
        for i in lo..hi {
            acc += f(m, i);
        }
        return acc;
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = m.fork(
        |m| Value::Int(sum_par(m, lo, mid, grain, f)),
        |m| Value::Int(sum_par(m, mid, hi, grain, f)),
    );
    a.expect_int() + b.expect_int()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn fill_and_sum_roundtrip() {
        let rt = Runtime::new(RuntimeConfig::managed());
        let v = rt.run(|m| {
            let data: Vec<u64> = (0..50_000).collect();
            let h = alloc_filled_raw(m, &data);
            let total = sum_par(m, 0, data.len(), 4096, &|m, i| {
                let a = m.get(&h);
                m.raw_get(a, i) as i64
            });
            Value::Int(total)
        });
        assert_eq!(v.expect_int(), (0..50_000i64).sum::<i64>());
        assert_eq!(rt.stats().pins, 0, "ancestor writes are not entanglement");
    }
}
