//! `accounts` — concurrent account updates: balances are immutable boxed
//! records functionally replaced with CAS, so concurrent tasks constantly
//! read each other's freshly allocated records. The total is conserved,
//! making the checksum deterministic despite racing updates.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::Benchmark;

const GRAIN: usize = 2048;
const ACCOUNTS: usize = 64;

/// The benchmark.
pub struct Accounts;

fn amount(i: usize) -> i64 {
    ((i * 37) % 100) as i64 + 1
}

fn account(i: usize) -> usize {
    (i * 0x9E37) % ACCOUNTS
}

// ---- mpl -----------------------------------------------------------------

fn deposit_mpl(m: &mut Mutator<'_>, table: Value, acct: usize, amt: i64) {
    loop {
        let cur = m.arr_get(table, acct); // sibling's record: entangled
        let bal = m.tuple_get(cur, 0).expect_int();
        let mark = m.mark();
        let ht = m.root(table);
        let hc = m.root(cur);
        let fresh = m.alloc_tuple(&[Value::Int(bal + amt)]);
        let (table2, cur2) = (m.get(&ht), m.get(&hc));
        let won = m.arr_cas(table2, acct, cur2, fresh).is_ok();
        m.release(mark);
        if won {
            return;
        }
    }
}

fn go_mpl(m: &mut Mutator<'_>, table: Value, lo: usize, hi: usize) {
    if hi - lo <= GRAIN {
        m.work((hi - lo) as u64 * 2);
        let mark = m.mark();
        let ht = m.root(table);
        for i in lo..hi {
            let table = m.get(&ht);
            deposit_mpl(m, table, account(i), amount(i));
        }
        m.release(mark);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let mark = m.mark();
    let ht = m.root(table);
    m.fork(
        |m| {
            let table = m.get(&ht);
            go_mpl(m, table, lo, mid);
            Value::Unit
        },
        |m| {
            let table = m.get(&ht);
            go_mpl(m, table, mid, hi);
            Value::Unit
        },
    );
    m.release(mark);
}

impl Benchmark for Accounts {
    fn name(&self) -> &'static str {
        "accounts"
    }

    fn entangled(&self) -> bool {
        true
    }

    fn default_n(&self) -> usize {
        50_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        let table = m.alloc_array(ACCOUNTS, Value::Unit);
        let ht = m.root(table);
        for a in 0..ACCOUNTS {
            let zero = m.alloc_tuple(&[Value::Int(0)]);
            let table = m.get(&ht);
            m.arr_set(table, a, zero);
        }
        let table = m.get(&ht);
        go_mpl(m, table, 0, n);
        let mut total = 0i64;
        for a in 0..ACCOUNTS {
            let table = m.get(&ht);
            let rec = m.arr_get(table, a);
            total += m.tuple_get(rec, 0).expect_int();
        }
        total
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let table = rt.alloc_n(ACCOUNTS, SeqValue::Unit);
        let ht = rt.root(table);
        for a in 0..ACCOUNTS {
            let zero = rt.alloc(&[SeqValue::Int(0)]);
            let table = rt.get(ht);
            rt.set_field(table, a, zero);
        }
        for i in 0..n {
            let table = rt.get(ht);
            let cur = rt.get_field(table, account(i));
            let bal = rt.get_field(cur, 0).expect_int();
            let fresh = rt.alloc(&[SeqValue::Int(bal + amount(i))]);
            let table = rt.get(ht);
            rt.set_field(table, account(i), fresh);
            rt.work(2);
        }
        let mut total = 0i64;
        for a in 0..ACCOUNTS {
            let table = rt.get(ht);
            let rec = rt.get_field(table, a);
            total += rt.get_field(rec, 0).expect_int();
        }
        total
    }

    fn run_native(&self, n: usize) -> i64 {
        (0..n).map(amount).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn conservation_holds_everywhere() {
        let b = Accounts;
        let n = 6000;
        let native = b.run_native(n);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        let s = rt.stats();
        // One worker: each right branch runs in its left sibling's heap.
        assert_eq!((s.entangled_reads, s.pins), (0, 0), "{s:?}");
        crate::for_stolen_runs(&b, n, RuntimeConfig::managed(), 3, |rt, got| {
            assert_eq!(got.unwrap(), native);
            let s = rt.stats();
            assert!(s.entangled_reads > 0, "deposits entangle: {s:?}");
            assert!(s.unpins + 64 >= s.pins, "pins resolve by the end");
        });
    }

    #[test]
    fn conservation_under_threads() {
        let b = Accounts;
        let n = 4000;
        let rt = Runtime::new(RuntimeConfig::managed().with_threads(4));
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        assert_eq!(mpl, b.run_native(n), "CAS retries preserve the total");
    }
}
