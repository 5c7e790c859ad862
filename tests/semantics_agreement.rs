//! Agreement between the formal semantics (`mpl-lang`) and the runtime
//! (`mpl-runtime`): matched programs must exhibit the same entanglement
//! behaviour — same answers, entanglement iff the calculus says so, and
//! cost metrics that tell the same story.

use mpl_lang::{run_program, LangMode, Options, Schedule, Val};
use mpl_runtime::{Runtime, RuntimeConfig, Value};

fn lang_df(src: &str) -> mpl_lang::Outcome {
    run_program(
        src,
        Options {
            schedule: Schedule::DepthFirst,
            mode: LangMode::Managed,
            fuel: 50_000_000,
        },
    )
    .expect("program runs")
}

/// The publish/read pair, expressed in both systems.
#[test]
fn entangled_publish_agrees() {
    // Calculus version.
    let out = lang_df(mpl_lang::examples::ENTANGLE_PUBLISH);
    assert_eq!(out.result, Val::Int(3));
    assert!(out.costs.entangled_reads >= 1);
    assert_eq!(out.costs.pins, 1);

    // Runtime version of the same program.
    let rt = Runtime::new(RuntimeConfig::managed());
    let got = rt.run(|m| {
        let cell = m.alloc_ref(Value::Unit);
        let c = m.root(cell);
        let (_, got) = m.fork(
            |m| {
                let pair = m.alloc_tuple(&[Value::Int(1), Value::Int(2)]);
                m.write_ref(m.get(&c), pair);
                Value::Int(0)
            },
            |m| {
                let v = m.read_ref(m.get(&c));
                let a = m.tuple_get(v, 0).expect_int();
                let b = m.tuple_get(v, 1).expect_int();
                Value::Int(a + b)
            },
        );
        got
    });
    assert_eq!(got, Value::Int(3));
    let s = rt.stats();
    assert!(s.entangled_reads >= 1, "{s:?}");
    assert_eq!(s.pins, 1, "one pinned object, matching the semantics");
}

/// Purely functional programs never pin in either system.
#[test]
fn pure_programs_agree_on_zero_entanglement() {
    let out = lang_df(mpl_lang::examples::FIB);
    assert_eq!(out.result, Val::Int(55));
    assert_eq!(out.costs.pins, 0);
    assert_eq!(out.costs.entangled_reads, 0);

    let rt = Runtime::new(RuntimeConfig::managed());
    fn fib(m: &mut mpl_runtime::Mutator<'_>, n: i64) -> i64 {
        if n < 2 {
            return n;
        }
        let (a, b) = m.fork(
            move |m| Value::Int(fib(m, n - 1)),
            move |m| Value::Int(fib(m, n - 2)),
        );
        a.expect_int() + b.expect_int()
    }
    assert_eq!(rt.run(|m| Value::Int(fib(m, 10))), Value::Int(55));
    assert_eq!(rt.stats().pins, 0);
    assert_eq!(rt.stats().entangled_reads, 0);
}

/// Both systems apply the unpin-at-join rule: entanglement between
/// cousins survives the inner join and dissolves at the LCA join.
#[test]
fn unpin_at_join_depth_agrees() {
    let out = lang_df(mpl_lang::examples::ENTANGLE_DEEP);
    assert_eq!(out.result, Val::Int(42));
    assert!(out.costs.pins >= 1);
    assert!(
        out.store.pinned_locs().is_empty(),
        "all released by the end"
    );

    let rt = Runtime::new(RuntimeConfig::managed());
    rt.run(|m| {
        let cell = m.alloc_ref(Value::Unit);
        let c = m.root(cell);
        let (_, got) = m.fork(
            |m| {
                // Inner fork: grandchild publishes.
                let (x, _) = m.fork(
                    |m| {
                        let pair = m.alloc_tuple(&[Value::Int(40), Value::Int(2)]);
                        m.write_ref(m.get(&c), pair);
                        Value::Int(0)
                    },
                    |_| Value::Int(0),
                );
                // Inner join happened; the pin must still be live because
                // the reader is a cousin (LCA is the root).
                x
            },
            |m| {
                let v = m.read_ref(m.get(&c));
                let a = m.tuple_get(v, 0).expect_int();
                let b = m.tuple_get(v, 1).expect_int();
                Value::Int(a + b)
            },
        );
        assert_eq!(got, Value::Int(42));
        Value::Unit
    });
    assert!(rt.stats().pins >= 1);
    // The outer join released the pin.
    rt.assert_heap_sound();
}

/// DetectOnly agreement: both systems reject the same entangled program
/// and accept the same pure one.
#[test]
fn detect_only_agrees() {
    let err = run_program(
        mpl_lang::examples::ENTANGLE_PUBLISH,
        Options {
            schedule: Schedule::DepthFirst,
            mode: LangMode::DetectOnly,
            fuel: 1_000_000,
        },
    );
    assert!(err.is_err());

    let ok = run_program(
        mpl_lang::examples::FIB,
        Options {
            schedule: Schedule::DepthFirst,
            mode: LangMode::DetectOnly,
            fuel: 10_000_000,
        },
    );
    assert!(ok.is_ok());
}

/// The footprint bound (footprint >= pinned set) holds in the calculus,
/// and the runtime's retained-entangled accounting respects the analogous
/// bound (retained bytes >= pinned bytes at collection time).
#[test]
fn space_bounds_agree() {
    let out = lang_df(mpl_lang::examples::ENTANGLE_LIST);
    assert!(out.costs.max_footprint >= out.costs.max_pinned);

    let cfg = RuntimeConfig {
        policy: mpl_runtime::GcPolicy {
            lgc_trigger_bytes: 1024,
            cgc_trigger_pinned_bytes: usize::MAX,
        },
        ..RuntimeConfig::managed()
    };
    let rt = Runtime::new(cfg);
    rt.run(|m| {
        let cell = m.alloc_ref(Value::Unit);
        let c = m.root(cell);
        m.fork(
            |m| {
                // Left: allocate a remote mailbox and publish it.
                let mailbox = m.alloc_ref(Value::Unit);
                m.write_ref(m.get(&c), mailbox);
                Value::Unit
            },
            |m| {
                // Right: acquire the sibling's mailbox (pins it), then
                // write a list spine of its *own* allocations into it —
                // an entangled write pinning the list head; the spine is
                // the pin's closure and must survive this task's own
                // collections in place.
                let mailbox = m.read_ref(m.get(&c));
                let mut list = Value::Unit;
                for i in 0..8 {
                    let h = m.root(list);
                    list = m.alloc_tuple(&[Value::Int(i), m.get(&h)]);
                }
                m.write_ref(mailbox, list);
                // Churn to force a local collection with the pin live.
                for _ in 0..500 {
                    let _ = m.alloc_tuple(&[Value::Int(0)]);
                }
                // The spine is still intact through the mailbox.
                let mut cur = m.read_ref(mailbox);
                let mut sum = 0;
                while let Value::Obj(_) = cur {
                    sum += m.tuple_get(cur, 0).expect_int();
                    cur = m.tuple_get(cur, 1);
                }
                assert_eq!(sum, (0..8).sum::<i64>());
                Value::Int(sum)
            },
        );
        Value::Unit
    });
    let s = rt.stats();
    assert!(s.pins >= 2, "mailbox + list head: {s:?}");
    assert!(
        s.lgc_entangled_retained_bytes >= 8 * 32,
        "the whole spine is retained in place: {s:?}"
    );
}
