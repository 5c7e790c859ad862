//! `msqueue` — a Michael–Scott-style linked queue (the classic lock-free
//! queue the paper's related work builds on): producers CAS nodes onto the
//! tail while a consumer swings the head. Consumers constantly read nodes
//! allocated by concurrent producers — sustained entanglement.

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::Benchmark;

const GRAIN: usize = 2048;

/// The benchmark.
pub struct MsQueue;

// A node is a mutable 2-array: [value, next].

fn enqueue_mpl(m: &mut Mutator<'_>, tail: Value, v: i64) {
    let mark = m.mark();
    let ht = m.root(tail);
    let node = m.alloc_array_from(&[Value::Int(v), Value::Unit]);
    let hn = m.root(node);
    loop {
        let tail = m.get(&ht);
        let t = m.read_ref(tail);
        let next = m.arr_get(t, 1);
        match next {
            Value::Unit => {
                let node = m.get(&hn);
                if m.arr_cas(t, 1, Value::Unit, node).is_ok() {
                    // Swing the tail (best effort).
                    let tail = m.get(&ht);
                    let node = m.get(&hn);
                    let _ = m.ref_cas(tail, t, node);
                    break;
                }
            }
            stale => {
                // Help a lagging enqueuer.
                let tail = m.get(&ht);
                let _ = m.ref_cas(tail, t, stale);
            }
        }
    }
    m.release(mark);
}

/// Dequeues one value, or `None` when the queue is currently empty.
fn dequeue_mpl(m: &mut Mutator<'_>, head: Value, tail: Value) -> Option<i64> {
    let mark = m.mark();
    let hh = m.root(head);
    let ht = m.root(tail);
    let out;
    loop {
        let head = m.get(&hh);
        let h = m.read_ref(head);
        let next = m.arr_get(h, 1); // the dummy's successor
        match next {
            Value::Unit => {
                out = None;
                break;
            }
            node => {
                let tail = m.get(&ht);
                let t = m.read_ref(tail);
                if t == h {
                    // Tail lags behind; help.
                    let tail = m.get(&ht);
                    let _ = m.ref_cas(tail, t, node);
                }
                let v = m.arr_get(node, 0).expect_int();
                let head = m.get(&hh);
                if m.ref_cas(head, h, node).is_ok() {
                    out = Some(v);
                    break;
                }
            }
        }
    }
    m.release(mark);
    out
}

fn produce_mpl(m: &mut Mutator<'_>, tail: Value, lo: i64, hi: i64) {
    if (hi - lo) as usize <= GRAIN {
        m.work((hi - lo) as u64 * 3);
        let mark = m.mark();
        let ht = m.root(tail);
        for v in lo..hi {
            let tail = m.get(&ht);
            enqueue_mpl(m, tail, v);
        }
        m.release(mark);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let mark = m.mark();
    let ht = m.root(tail);
    m.fork(
        |m| {
            let tail = m.get(&ht);
            produce_mpl(m, tail, lo, mid);
            Value::Unit
        },
        |m| {
            let tail = m.get(&ht);
            produce_mpl(m, tail, mid, hi);
            Value::Unit
        },
    );
    m.release(mark);
}

impl Benchmark for MsQueue {
    fn name(&self) -> &'static str {
        "msqueue"
    }

    fn entangled(&self) -> bool {
        true
    }

    fn default_n(&self) -> usize {
        50_000
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        // Dummy node + head/tail refs.
        let dummy = m.alloc_array_from(&[Value::Int(-1), Value::Unit]);
        let hd = m.root(dummy);
        let head = m.alloc_ref(m.get(&hd));
        let hh = m.root(head);
        let tail = m.alloc_ref(m.get(&hd));
        let ht = m.root(tail);

        // Producers (a fork tree) run concurrently with a consumer task.
        let consumed = std::sync::Mutex::new(0i64);
        let n_i = n as i64;
        m.fork(
            |m| {
                let tail = m.get(&ht);
                produce_mpl(m, tail, 0, n_i);
                Value::Unit
            },
            |m| {
                // Consume until all n items are seen (spins while empty —
                // under the depth-first executor producers finish first).
                let mut sum = 0i64;
                let mut got = 0usize;
                while got < n {
                    let (head, tail) = (m.get(&hh), m.get(&ht));
                    match dequeue_mpl(m, head, tail) {
                        Some(v) => {
                            sum += v;
                            got += 1;
                        }
                        None => std::hint::spin_loop(),
                    }
                }
                *consumed.lock().unwrap() = sum;
                Value::Unit
            },
        );
        let sum = *consumed.lock().unwrap();
        sum
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        // Sequential enqueue-all / dequeue-all through the same node
        // structure.
        let dummy = rt.alloc(&[SeqValue::Int(-1), SeqValue::Unit]);
        let hd = rt.root(dummy);
        let state = rt.alloc(&[dummy, dummy]); // [head, tail]
        let hs = rt.root(state);
        let _ = hd;
        for v in 0..n as i64 {
            let state = rt.get(hs);
            let t = rt.get_field(state, 1);
            let node = rt.alloc(&[SeqValue::Int(v), SeqValue::Unit]);
            let state = rt.get(hs);
            rt.set_field(t, 1, node);
            rt.set_field(state, 1, node);
            rt.work(3);
        }
        let mut sum = 0i64;
        loop {
            let state = rt.get(hs);
            let h = rt.get_field(state, 0);
            let next = rt.get_field(h, 1);
            match next {
                SeqValue::Unit => break,
                node => {
                    sum += rt.get_field(node, 0).expect_int();
                    let state = rt.get(hs);
                    rt.set_field(state, 0, node);
                }
            }
        }
        sum
    }

    fn run_native(&self, n: usize) -> i64 {
        use std::collections::VecDeque;
        let mut q = VecDeque::new();
        for v in 0..n as i64 {
            q.push_back(v);
        }
        let mut sum = 0;
        while let Some(v) = q.pop_front() {
            sum += v;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn checksums_agree_and_entangle() {
        let b = MsQueue;
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
            assert!(s.entangled_reads > 0, "queue traffic entangles: {s:?}");
            rt.assert_heap_sound();
        });
    }

    #[test]
    fn fifo_order_sequentially() {
        // Under the depth-first executor the consumer sees producer order
        // within each producer leaf; the sum is order-independent anyway,
        // but the first element must be 0 (FIFO from the first leaf).
        let rt = Runtime::new(RuntimeConfig::managed());
        let first = rt.run(|m| {
            let dummy = m.alloc_array_from(&[Value::Int(-1), Value::Unit]);
            let hd = m.root(dummy);
            let head = m.alloc_ref(m.get(&hd));
            let hh = m.root(head);
            let tail = m.alloc_ref(m.get(&hd));
            let ht = m.root(tail);
            for v in 0..10 {
                let tail = m.get(&ht);
                enqueue_mpl(m, tail, v);
            }
            let (head, tail) = (m.get(&hh), m.get(&ht));
            Value::Int(dequeue_mpl(m, head, tail).unwrap())
        });
        assert_eq!(first.expect_int(), 0);
    }
}
