//! `conc_stack` — a Treiber stack shared by concurrent producer tasks.
//! Every push reads the current head (usually a sibling's node: an
//! entangled read) and CASes a fresh cell on top.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::Benchmark;

const GRAIN: usize = 2048;

/// The benchmark.
pub struct Stack;

/// Public name used in the registry.
pub use Stack as ConcStack;

fn push_mpl(m: &mut Mutator<'_>, head: Value, v: i64) {
    loop {
        let cur = m.read_ref(head); // entangled when a sibling pushed last
        let mark = m.mark();
        let hh = m.root(head);
        let hc = m.root(cur);
        let node = m.alloc_tuple(&[Value::Int(v), m.get(&hc)]);
        let (head2, cur2) = (m.get(&hh), m.get(&hc));
        let won = m.ref_cas(head2, cur2, node).is_ok();
        m.release(mark);
        if won {
            return;
        }
    }
}

fn produce_mpl(m: &mut Mutator<'_>, head: Value, lo: i64, hi: i64) {
    if (hi - lo) as usize <= GRAIN {
        m.work((hi - lo) as u64 * 2);
        let mark = m.mark();
        let hh = m.root(head);
        for v in lo..hi {
            let head = m.get(&hh);
            push_mpl(m, head, v);
        }
        m.release(mark);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let mark = m.mark();
    let hh = m.root(head);
    m.fork(
        |m| {
            let head = m.get(&hh);
            produce_mpl(m, head, lo, mid);
            Value::Unit
        },
        |m| {
            let head = m.get(&hh);
            produce_mpl(m, head, mid, hi);
            Value::Unit
        },
    );
    m.release(mark);
}

impl Benchmark for Stack {
    fn name(&self) -> &'static str {
        "conc_stack"
    }

    fn entangled(&self) -> bool {
        true
    }

    fn default_n(&self) -> usize {
        50_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        let head = m.alloc_ref(Value::Unit);
        let hh = m.root(head);
        let head = m.get(&hh);
        produce_mpl(m, head, 0, n as i64);
        // Drain at the root and sum.
        let mut sum = 0i64;
        let mut count = 0usize;
        let mut cur = m.read_ref(m.get(&hh));
        while let Value::Obj(_) = cur {
            sum += m.tuple_get(cur, 0).expect_int();
            count += 1;
            cur = m.tuple_get(cur, 1);
        }
        assert_eq!(count, n, "every push must be observed");
        sum
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let head = rt.alloc(&[SeqValue::Unit]);
        let hh = rt.root(head);
        for v in 0..n as i64 {
            let head = rt.get(hh);
            let cur = rt.get_field(head, 0);
            let node = rt.alloc(&[SeqValue::Int(v), cur]);
            let head = rt.get(hh);
            rt.set_field(head, 0, node);
            rt.work(2);
        }
        let mut sum = 0i64;
        let head = rt.get(hh);
        let mut cur = rt.get_field(head, 0);
        while let SeqValue::Obj(_) = cur {
            sum += rt.get_field(cur, 0).expect_int();
            cur = rt.get_field(cur, 1);
        }
        sum
    }

    fn run_native(&self, n: usize) -> i64 {
        (0..n as i64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn checksums_agree_and_entangle() {
        let b = Stack;
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
        rt.assert_heap_sound();
        crate::for_stolen_runs(&b, n, RuntimeConfig::managed(), 3, |rt, got| {
            assert_eq!(got.unwrap(), native);
            let s = rt.stats();
            assert!(s.entangled_reads > 0, "stack pushes entangle: {s:?}");
            rt.assert_heap_sound();
        });
    }

    #[test]
    fn threaded_run_is_correct() {
        let b = Stack;
        let n = 3000;
        let rt = Runtime::new(RuntimeConfig::managed().with_threads(3));
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        assert_eq!(mpl, b.run_native(n));
    }
}
