//! Unit costs of single operations of each layer, timed from outside
//! through the public API: the fastest of ten batches, in a child process
//! of the traced workload whose ledger they price.

use std::time::Instant;

use mpl_runtime::{GcPolicy, Mutator, Runtime, RuntimeConfig, StatsSnapshot, Value};
use mpl_serve::{ArrivalProcess, Server, TrafficConfig};

use crate::common::Args;
use crate::json::{obj, Json};
use crate::serve;
use crate::span::{Layer, Recorder};

const BATCHES: usize = 10;

/// Declares [`UnitCosts`] with its JSON form (the costs are measured in a
/// child process and handed to the workload's process).
macro_rules! unit_costs {
    ($($field:ident),* $(,)?) => {
        /// ns per operation of every priced operation.
        #[derive(Clone, Copy, Debug, Default, PartialEq)]
        pub struct UnitCosts {
            $(pub $field: f64,)*
        }

        impl UnitCosts {
            pub fn to_json(self) -> Json {
                Json::Obj(vec![$((stringify!($field).to_string(), self.$field.into()),)*])
            }

            pub fn from_json(doc: &Json) -> UnitCosts {
                UnitCosts {
                    $($field: doc.get(stringify!($field)).and_then(Json::num).unwrap_or(f64::NAN),)*
                }
            }
        }
    };
}

unit_costs! {
    fork_ns,
    alloc_tuple2_ns,
    alloc_tuple4_ns,
    alloc_array64_ns,
    alloc_raw64_ns,
    read_fast_ns,
    write_fast_ns,
    read_slow_ns,
    write_slow_ns,
    run_entry_ns,
    lgc_ns_per_copied_kb,
    cgc_ns_per_obj,
    dispatch_ns,
}

impl UnitCosts {
    /// Cost of one allocation of `words` payload words, interpolated
    /// between the measured sizes (2, 4 and 64 words) and extended past 64
    /// with the same per-word slope, which is what initialising a large
    /// array costs.
    pub fn alloc_ns(&self, words: f64) -> f64 {
        let per_word = (self.alloc_array64_ns - self.alloc_tuple4_ns) / 60.0;
        if words <= 2.0 {
            self.alloc_tuple2_ns
        } else if words <= 4.0 {
            self.alloc_tuple2_ns
                + (self.alloc_tuple4_ns - self.alloc_tuple2_ns) * (words - 2.0) / 2.0
        } else {
            self.alloc_tuple4_ns + per_word.max(0.0) * (words - 4.0)
        }
    }
}

/// Fastest batch of `f`, in ns per call, and the counters the batches moved.
fn min_of_batches(
    m: &mut Mutator<'_>,
    per_batch: usize,
    mut f: impl FnMut(&mut Mutator<'_>),
) -> (f64, StatsSnapshot) {
    for _ in 0..per_batch / 10 {
        f(m);
    }
    m.sync_stats();
    let before = m.runtime().stats();
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..per_batch {
            f(m);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    m.sync_stats();
    (best, m.runtime().stats().delta(&before))
}

fn empty_fork_tree(m: &mut Mutator<'_>, depth: u32) -> Value {
    if depth > 0 {
        m.fork(
            move |m| empty_fork_tree(m, depth - 1),
            move |m| empty_fork_tree(m, depth - 1),
        );
    }
    Value::Unit
}

fn no_gc() -> RuntimeConfig {
    RuntimeConfig::managed().with_policy(GcPolicy::disabled())
}

/// `sched.fork_ns`: a balanced tree of empty forks on one worker.
fn fork_ns() -> f64 {
    const DEPTH: u32 = 12;
    let forks = ((1u64 << DEPTH) - 1) as usize;
    let rt = Runtime::new(RuntimeConfig::managed());
    let mut ns = 0.0;
    rt.run(|m| {
        empty_fork_tree(m, DEPTH);
        // One call is a whole tree, so a batch of one call times `forks` forks.
        let (per_tree, _) = min_of_batches(m, 1, |m| {
            empty_fork_tree(m, DEPTH);
        });
        ns = per_tree / forks as f64;
        Value::Unit
    });
    ns
}

/// `heap.alloc_ns.*`: GC off, so only the bump path and its block refills
/// are timed; one run per size, so each run's heap is reclaimed at its end.
fn alloc_ns(per_batch: usize, f: impl FnMut(&mut Mutator<'_>)) -> f64 {
    let rt = Runtime::new(no_gc());
    let mut ns = 0.0;
    rt.run(|m| {
        ns = min_of_batches(m, per_batch, f).0;
        Value::Unit
    });
    ns
}

/// `core.{read,write}_{fast,slow}_ns`. The slow tiers are timed inside a
/// fork, on an object of the unjoined sibling (read) and on a down-pointer
/// into the parent's cell (write); the counters confirm the tier.
fn barrier_ns(u: &mut UnitCosts) {
    let rt = Runtime::new(no_gc());
    rt.run(|m| {
        let r = m.alloc_ref(Value::Int(1));
        let (ns, d) = min_of_batches(m, 100_000, |m| {
            std::hint::black_box(m.read_ref(r));
        });
        assert_eq!(d.barrier_read_slow, 0, "local read left the fast tier");
        u.read_fast_ns = ns;
        let (ns, d) = min_of_batches(m, 100_000, |m| m.write_ref(r, Value::Int(2)));
        assert_eq!(d.barrier_write_slow, 0, "local write left the fast tier");
        u.write_fast_ns = ns;
        Value::Unit
    });
    let rt = Runtime::new(no_gc());
    rt.run(|m| {
        let cell = m.alloc_ref(Value::Unit);
        let c = m.root(cell);
        let (cl, cr) = (c.clone(), c.clone());
        let mut read_slow = 0.0;
        let mut write_slow = 0.0;
        m.fork(
            |m| {
                let boxed = m.alloc_tuple(&[Value::Int(7)]);
                let b = m.root(boxed);
                let (ns, d) = min_of_batches(m, 20_000, |m| {
                    let (cell, boxed) = (m.get(&cl), m.get(&b));
                    m.write_ref(cell, boxed);
                });
                assert!(
                    d.barrier_write_slow > 0,
                    "down-pointer write stayed on the fast tier"
                );
                write_slow = ns;
                Value::Unit
            },
            |m| {
                let (ns, d) = min_of_batches(m, 20_000, |m| {
                    let cell = m.get(&cr);
                    std::hint::black_box(m.read_ref(cell));
                });
                assert!(
                    d.barrier_read_slow > 0,
                    "remote read stayed on the fast tier"
                );
                read_slow = ns;
                Value::Unit
            },
        );
        u.read_slow_ns = read_slow;
        u.write_slow_ns = write_slow;
        Value::Unit
    });
}

/// `core.run_entry_ns`: an empty request on a tenant session.
fn run_entry_ns() -> f64 {
    let rt = Runtime::new(RuntimeConfig::managed());
    let session = rt.new_tenant("unit", 0);
    let per_batch = 5_000;
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..per_batch {
            let _ = rt.try_run_session(&session, |_| Value::Unit);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    rt.retire_session(&session);
    best
}

/// `gc.lgc_ns_per_copied_kb`: `force_lgc` over a rooted list of 2^16
/// four-word tuples, priced by the bytes the collector reports copying.
fn lgc_ns_per_copied_kb(rec: &mut Recorder) -> f64 {
    let rt = Runtime::new(RuntimeConfig::managed());
    let mut best = f64::INFINITY;
    rt.run(|m| {
        let head = m.alloc_tuple(&[Value::Int(0), Value::Unit, Value::Unit, Value::Unit]);
        let list = m.root(head);
        for i in 1..(1i64 << 16) {
            let tail = m.get(&list);
            let node = m.alloc_tuple(&[Value::Int(i), tail, Value::Unit, Value::Unit]);
            m.set_root(&list, node);
        }
        for _ in 0..5 {
            m.sync_stats();
            let before = m.runtime().stats();
            rec.enter("force_lgc", Layer::Gc, 0);
            let start = Instant::now();
            m.force_lgc(&mut []);
            let ns = start.elapsed().as_nanos() as f64;
            rec.exit();
            m.sync_stats();
            let copied = m.runtime().stats().delta(&before).lgc_copied_bytes;
            if copied > 0 {
                best = best.min(ns / (copied as f64 / 1024.0));
            }
        }
        Value::Unit
    });
    best
}

/// `gc.cgc_ns_per_obj`: `Runtime::force_cgc` between two requests of a
/// session whose rooted slots hold objects a sibling pinned, priced per
/// object the session keeps reachable.
fn cgc_ns_per_obj(rec: &mut Recorder) -> f64 {
    const OBJECTS: usize = 16_384;
    let rt = Runtime::new(RuntimeConfig::managed());
    let session = rt.new_tenant("unit", 0);
    let mut slots = None;
    rt.run_session(&session, |m| {
        let arr = m.alloc_array(OBJECTS, Value::Unit);
        slots = Some(m.root(arr));
        Value::Unit
    });
    let slots = slots.expect("session set-up ran");
    let mut best = f64::INFINITY;
    for round in 0..5 {
        let (ls, rs) = (slots.clone(), slots.clone());
        rt.run_session(&session, move |m| {
            m.fork(
                move |m| {
                    for j in 0..OBJECTS {
                        let obj = m.alloc_tuple(&[Value::Int((round * OBJECTS + j) as i64)]);
                        let arr = m.get(&ls);
                        m.arr_set(arr, j, obj);
                    }
                    Value::Unit
                },
                move |m| {
                    let arr = m.get(&rs);
                    for j in 0..OBJECTS {
                        std::hint::black_box(m.arr_get(arr, j));
                    }
                    Value::Unit
                },
            );
            Value::Unit
        });
        rec.enter("force_cgc", Layer::Gc, 0);
        let start = Instant::now();
        rt.force_cgc();
        best = best.min(start.elapsed().as_nanos() as f64 / OBJECTS as f64);
        rec.exit();
    }
    rt.retire_session(&session);
    best
}

/// `serve.dispatch_ns`: what `Server::run` (admission, breaker, brownout
/// window, histogram) adds per request over the benchmark's bare driver on
/// the same schedule. The rate is so high that neither side ever waits.
fn dispatch_ns(seed: u64) -> f64 {
    let traffic = TrafficConfig {
        seed,
        rate_hz: 1e9,
        requests: 20_000,
        process: ArrivalProcess::Uniform,
        tenants: 3,
        sessions_per_tenant: 2,
        ..TrafficConfig::default()
    };
    let sched = mpl_serve::schedule(&traffic);
    let mut served = f64::INFINITY;
    let mut bare = f64::INFINITY;
    for _ in 0..3 {
        let rt = Runtime::new(RuntimeConfig::managed());
        let mut server = Server::new(&rt, serve::tenant_specs());
        let start = Instant::now();
        let report = server.run(&traffic);
        served = served.min(start.elapsed().as_nanos() as f64 / report.offered as f64);
        server.shutdown();
        let rt = Runtime::new(RuntimeConfig::managed());
        let tenants = serve::Tenants::create(&rt);
        let start = Instant::now();
        for a in &sched {
            let _ = tenants.serve(&rt, a);
        }
        bare = bare.min(start.elapsed().as_nanos() as f64 / sched.len() as f64);
        tenants.retire(&rt);
    }
    served - bare
}

/// Sums of the telemetry histograms this process filled, in ns.
pub fn telemetry_sums() -> Json {
    use mpl_obs::Metric as M;
    const WANTED: [M; 12] = [
        M::SchedRun,
        M::SchedSteal,
        M::SchedPark,
        M::LgcPause,
        M::LgcShield,
        M::LgcEvacuate,
        M::LgcReclaim,
        M::CgcPause,
        M::CgcMark,
        M::CgcSweep,
        M::BarrierSlow,
        M::AllocRefill,
    ];
    let sums = mpl_obs::metric_snapshots()
        .into_iter()
        .filter(|(m, _)| WANTED.contains(m))
        .map(|(m, s)| {
            let row = obj([
                ("count", s.count.into()),
                ("sum_ns", s.sum.into()),
                ("max_ns", s.max.into()),
            ]);
            (m.name().to_string(), row)
        });
    Json::Obj(sums.collect())
}

/// `unit <workload> costs -`: measures every unit cost (about two
/// seconds) and reports them with the spans around each forced collection.
pub fn child(args: &Args) -> Json {
    let mut rec = Recorder::new(1_000);
    let mut u = UnitCosts {
        fork_ns: fork_ns(),
        alloc_tuple2_ns: alloc_ns(50_000, |m| {
            std::hint::black_box(m.alloc_tuple(&[Value::Int(1), Value::Int(2)]));
        }),
        alloc_tuple4_ns: alloc_ns(50_000, |m| {
            std::hint::black_box(m.alloc_tuple(&[Value::Int(1); 4]));
        }),
        alloc_array64_ns: alloc_ns(10_000, |m| {
            std::hint::black_box(m.alloc_array(64, Value::Int(0)));
        }),
        alloc_raw64_ns: alloc_ns(10_000, |m| {
            std::hint::black_box(m.alloc_raw(64));
        }),
        run_entry_ns: run_entry_ns(),
        dispatch_ns: dispatch_ns(args.seed),
        ..UnitCosts::default()
    };
    barrier_ns(&mut u);
    u.lgc_ns_per_copied_kb = lgc_ns_per_copied_kb(&mut rec);
    u.cgc_ns_per_obj = cgc_ns_per_obj(&mut rec);
    obj([
        ("secs", 0.0.into()),
        ("unit_costs", u.to_json()),
        ("spans", rec.to_rows()),
    ])
}
