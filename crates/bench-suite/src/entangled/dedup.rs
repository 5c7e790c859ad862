//! `dedup` — parallel deduplication through a concurrent hash set with
//! CAS-linked bucket chains. Sibling tasks insert nodes and *read each
//! other's freshly allocated nodes* while walking chains: the archetypal
//! entangled workload.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::util;
use crate::Benchmark;

const GRAIN: usize = 2048;

fn buckets_for(n: usize) -> usize {
    (n / 4).next_power_of_two().max(64)
}

fn hash(key: u64, nbuckets: usize) -> usize {
    (key.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as usize & (nbuckets - 1)
}

/// The benchmark.
pub struct Dedup;

// ---- mpl -----------------------------------------------------------------

/// Inserts `key`; returns 1 if newly inserted.
fn insert_mpl(m: &mut Mutator<'_>, table: Value, nbuckets: usize, key: u64) -> i64 {
    let b = hash(key, nbuckets);
    loop {
        let head = m.arr_get(table, b);
        // Walk the chain; nodes may belong to concurrent siblings
        // (entangled reads through the bucket head).
        let mut cur = head;
        while let Value::Obj(_) = cur {
            if m.tuple_get(cur, 0).expect_int() as u64 == key {
                return 0;
            }
            cur = m.tuple_get(cur, 1);
        }
        let mark = m.mark();
        let ht = m.root(table);
        let hh = m.root(head);
        let head_now = m_get(m, &hh);
        let node = m.alloc_tuple(&[Value::Int(key as i64), head_now]);
        let (table2, head2) = (m_get(m, &ht), m_get(m, &hh));
        let won = m.arr_cas(table2, b, head2, node).is_ok();
        m.release(mark);
        if won {
            return 1;
        }
        // Lost the race: re-read and retry.
    }
}

fn m_get(m: &mut Mutator<'_>, h: &mpl_runtime::Handle) -> Value {
    m.get(h)
}

fn go_mpl(m: &mut Mutator<'_>, table: Value, nbuckets: usize, items: &[u64]) -> i64 {
    if items.len() <= GRAIN {
        m.work(items.len() as u64 * 2);
        let mut unique = 0;
        let mark = m.mark();
        let ht = m.root(table);
        for &key in items {
            let table = m_get(m, &ht);
            unique += insert_mpl(m, table, nbuckets, key);
        }
        m.release(mark);
        return unique;
    }
    let (lo, hi) = items.split_at(items.len() / 2);
    let mark = m.mark();
    let ht = m.root(table);
    let (a, b) = m.fork(
        |m| {
            let table = m_get(m, &ht);
            Value::Int(go_mpl(m, table, nbuckets, lo))
        },
        |m| {
            let table = m_get(m, &ht);
            Value::Int(go_mpl(m, table, nbuckets, hi))
        },
    );
    m.release(mark);
    a.expect_int() + b.expect_int()
}

// ---- seq -----------------------------------------------------------------

fn go_seq(rt: &mut SeqRuntime, n: usize) -> i64 {
    let items = util::dedup_stream(n, 71);
    let nbuckets = buckets_for(n);
    let table = rt.alloc_n(nbuckets, SeqValue::Unit);
    let ht = rt.root(table);
    let mut unique = 0;
    for &key in &items {
        let table = rt.get(ht);
        let b = hash(key, nbuckets);
        let head = rt.get_field(table, b);
        let mut cur = head;
        let mut found = false;
        while let SeqValue::Obj(_) = cur {
            if rt.get_field(cur, 0).expect_int() as u64 == key {
                found = true;
                break;
            }
            cur = rt.get_field(cur, 1);
        }
        if !found {
            let node = rt.alloc(&[SeqValue::Int(key as i64), head]);
            let table = rt.get(ht);
            rt.set_field(table, b, node);
            unique += 1;
        }
        rt.work(2);
    }
    unique
}

impl Benchmark for Dedup {
    fn name(&self) -> &'static str {
        "dedup"
    }

    fn entangled(&self) -> bool {
        true
    }

    fn default_n(&self) -> usize {
        100_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        let items = util::dedup_stream(n, 71);
        let nbuckets = buckets_for(n);
        let table = m.alloc_array(nbuckets, Value::Unit);
        go_mpl(m, table, nbuckets, &items)
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        go_seq(rt, n)
    }

    fn run_native(&self, n: usize) -> i64 {
        let items = util::dedup_stream(n, 71);
        let set: std::collections::HashSet<u64> = items.into_iter().collect();
        set.len() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn checksums_agree_and_entangle() {
        let b = Dedup;
        let n = 8000;
        let native = b.run_native(n);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        let s = rt.stats();
        // One worker: each right branch runs in its left sibling's heap.
        assert_eq!((s.entangled_reads, s.pins), (0, 0), "{s:?}");
        rt.assert_heap_sound();
        crate::for_stolen_runs(&b, n, RuntimeConfig::managed(), 3, |rt, got| {
            assert_eq!(got.unwrap(), native);
            let s = rt.stats();
            assert!(s.entangled_reads > 0, "dedup must entangle: {s:?}");
            assert!(s.pins > 0);
            rt.assert_heap_sound();
        });
    }

    #[test]
    fn detect_only_aborts_on_dedup() {
        let b = Dedup;
        let rt = Runtime::new(RuntimeConfig::detect_only());
        let got = rt.run(|m| Value::Int(b.run_mpl(m, 8000)));
        assert_eq!(
            got.expect_int(),
            b.run_native(8000),
            "one worker: nothing entangles"
        );
        crate::for_stolen_runs(&b, 8000, RuntimeConfig::detect_only(), 3, |_, got| {
            assert!(got.is_err(), "prior-MPL semantics abort on entanglement");
        });
    }
}
