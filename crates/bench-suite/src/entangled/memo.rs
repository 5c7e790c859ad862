//! `memo` — parallel Fibonacci with a *shared concurrent memo table*
//! (the MemoDyn pattern the paper cites): tasks race to publish boxed
//! results, and readers consume results computed by concurrent siblings —
//! entanglement that prior MPL would reject outright.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::Benchmark;

const CUTOFF: usize = 6;

/// The benchmark.
pub struct Memo;

fn fib_plain(n: usize) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        let c = a + b;
        a = b;
        b = c;
    }
    a
}

fn memo_fib_mpl(m: &mut Mutator<'_>, table: Value, n: usize) -> i64 {
    if n < 2 {
        return n as i64;
    }
    // Check the shared table (entangled read when a concurrent sibling
    // published the entry).
    let hit = m.arr_get(table, n);
    if let Value::Obj(_) = hit {
        return m.tuple_get(hit, 0).expect_int();
    }
    let v = if n < CUTOFF {
        m.work(fib_plain(n) as u64 + 1);
        fib_plain(n)
    } else {
        let mark = m.mark();
        let ht = m.root(table);
        let (a, b) = m.fork(
            |m| {
                let table = m.get(&ht);
                Value::Int(memo_fib_mpl(m, table, n - 1))
            },
            |m| {
                let table = m.get(&ht);
                Value::Int(memo_fib_mpl(m, table, n - 2))
            },
        );
        m.release(mark);
        a.expect_int() + b.expect_int()
    };
    // Publish (first writer wins; the value is unique anyway).
    let mark = m.mark();
    let ht = m.root(table);
    let boxed = m.alloc_tuple(&[Value::Int(v)]);
    let table2 = m.get(&ht);
    let _ = m.arr_cas(table2, n, Value::Unit, boxed);
    m.release(mark);
    v
}

impl Benchmark for Memo {
    fn name(&self) -> &'static str {
        "memo"
    }

    fn entangled(&self) -> bool {
        true
    }

    fn default_n(&self) -> usize {
        30
    }

    fn small_n(&self) -> usize {
        14
    }

    fn scaled_n(&self, pct: usize) -> usize {
        let shave = (100usize.saturating_sub(pct)) / 20 + usize::from(pct < 100);
        self.default_n().saturating_sub(shave).max(self.small_n())
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        let table = m.alloc_array(n + 1, Value::Unit);
        memo_fib_mpl(m, table, n)
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        // Same memoized recursion, sequential.
        fn go(rt: &mut SeqRuntime, table: SeqValue, n: usize) -> i64 {
            if n < 2 {
                return n as i64;
            }
            let hit = rt.get_field(table, n);
            if let SeqValue::Obj(_) = hit {
                return rt.get_field(hit, 0).expect_int();
            }
            let v = if n < CUTOFF {
                rt.work(fib_plain(n) as u64 + 1);
                fib_plain(n)
            } else {
                let mark = rt.mark();
                let ht = rt.root(table);
                let a = go(rt, table, n - 1);
                let t2 = rt.get(ht);
                let b = go(rt, t2, n - 2);
                rt.release(mark);
                a + b
            };
            let mark = rt.mark();
            let ht = rt.root(table);
            let boxed = rt.alloc(&[SeqValue::Int(v)]);
            let t2 = rt.get(ht);
            rt.set_field(t2, n, boxed);
            rt.release(mark);
            v
        }
        let table = rt.alloc_n(n + 1, SeqValue::Unit);
        go(rt, table, n)
    }

    fn run_native(&self, n: usize) -> i64 {
        fib_plain(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn checksums_agree_and_entangle() {
        let b = Memo;
        let n = 20;
        let native = b.run_native(n);
        assert_eq!(native, 6765);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        let s = rt.stats();
        // One worker: each right branch runs in its left sibling's heap.
        assert_eq!((s.entangled_reads, s.pins), (0, 0), "{s:?}");
        // Two workers: memo's forks end before a thief wakes, so the top
        // one is forced to steal. Both halves then fill the table at once
        // and, whichever publishes an entry first, the other reads it.
        for _ in 0..3 {
            let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
            let mpl = rt.run(|m| {
                let table = m.alloc_array(n + 1, Value::Unit);
                let ht = m.root(table);
                let (a, b) = m.fork_stolen(
                    |m| Value::Int(memo_fib_mpl(m, m.get(&ht), n - 1)),
                    |m| Value::Int(memo_fib_mpl(m, m.get(&ht), n - 2)),
                );
                Value::Int(a.expect_int() + b.expect_int())
            });
            assert_eq!(mpl.expect_int(), native);
            let s = rt.stats();
            assert!(
                s.entangled_reads > 0,
                "memo hits from siblings entangle: {s:?}"
            );
            rt.assert_heap_sound();
        }
    }

    #[test]
    fn memoization_actually_prunes() {
        // With a shared table the number of forks is linear in n, not
        // exponential: depth-first execution memoizes the left spine.
        let b = Memo;
        let rt = Runtime::new(RuntimeConfig::managed().with_dag());
        rt.run(|m| Value::Int(b.run_mpl(m, 30)));
        let dag = rt.take_dag().unwrap();
        assert!(
            dag.len() < 1000,
            "sharing must prune the tree: {} strands",
            dag.len()
        );
    }
}
