//! The per-layer ledger of a traced run: counts × unit costs per layer
//! (layer = crate), GC pause totals as the collector reports them, and the
//! residual that is left of T_1 — the interpretive/API constant. The rows
//! of one entry plus its residual sum to its T_1 by construction.

use mpl_runtime::{SchedSnapshot, StatsSnapshot};

use crate::common::Metric;
use crate::json::{obj, Json};
use crate::spec::PER_LAYER;
use crate::units::UnitCosts;

/// Declares [`Counts`]: every counter the benchmark reads, once. A child
/// process sends them as JSON and the parent reads them back by name.
macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// What one run did, counted from outside: `Runtime::stats()` and
        /// `sched_stats()` after a fresh runtime's run (exact at one
        /// worker), plus what the recorded DAG holds.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counts {
            pub fn to_json(self) -> Json {
                Json::Obj(vec![$((stringify!($field).to_string(), self.$field.into()),)*])
            }

            /// Missing fields read 0.
            pub fn from_json(doc: &Json) -> Counts {
                Counts {
                    $($field: doc.get(stringify!($field)).and_then(Json::num).unwrap_or(0.0) as u64,)*
                }
            }

            /// Field-wise sum (of maxima, the larger).
            pub fn plus(&self, other: &Counts) -> Counts {
                let mut sum = Counts { $($field: self.$field + other.$field,)* };
                sum.lgc_pause_ns_max = self.lgc_pause_ns_max.max(other.lgc_pause_ns_max);
                sum
            }
        }
    };
}

counts! {
    allocs,
    alloc_bytes,
    barrier_read_fast,
    barrier_write_fast,
    barrier_read_slow,
    barrier_write_slow,
    pins,
    remset_flushes,
    lgc_runs,
    lgc_copied_bytes,
    lgc_reclaimed_bytes,
    lgc_pause_ns_total,
    lgc_pause_ns_max,
    lgc_dead_traced,
    cgc_runs,
    cgc_pause_ns_total,
    blocks_allocated,
    blocks_freed,
    steals,
    parks,
    sequentialized,
    /// Fork calls, from the recorded DAG: (strands − 1) ÷ 3.
    forks,
    /// Run entries: 1 for a program, one per request for the server.
    runs,
    /// DAG work units: the deterministic work column.
    dag_work,
}

impl Counts {
    /// The counters of a runtime after its run; `forks`, `runs` and
    /// `dag_work` are the caller's to fill.
    pub fn of(s: &StatsSnapshot, sched: &SchedSnapshot) -> Counts {
        Counts {
            allocs: s.allocs,
            alloc_bytes: s.alloc_bytes,
            barrier_read_fast: s.barrier_read_fast,
            barrier_write_fast: s.barrier_write_fast,
            barrier_read_slow: s.barrier_read_slow,
            barrier_write_slow: s.barrier_write_slow,
            pins: s.pins,
            remset_flushes: s.remset_flushes,
            lgc_runs: s.lgc_runs,
            lgc_copied_bytes: s.lgc_copied_bytes,
            lgc_reclaimed_bytes: s.lgc_reclaimed_bytes,
            lgc_pause_ns_total: s.lgc_pause_ns_total,
            lgc_pause_ns_max: s.lgc_pause_ns_max,
            lgc_dead_traced: s.lgc_dead_traced,
            cgc_runs: s.cgc_runs,
            cgc_pause_ns_total: s.cgc_pause_ns_total,
            blocks_allocated: s.blocks_allocated,
            blocks_freed: s.blocks_freed,
            steals: sched.steals,
            parks: sched.parks,
            sequentialized: sched.sequentialized,
            ..Counts::default()
        }
    }

    pub fn barrier_fast(&self) -> u64 {
        self.barrier_read_fast + self.barrier_write_fast
    }

    pub fn barrier_slow(&self) -> u64 {
        self.barrier_read_slow + self.barrier_write_slow
    }
}

/// One ledger entry: a program's T_1 split over the layers, in seconds.
#[derive(Clone, Debug)]
pub struct Entry {
    pub name: String,
    pub t1_s: f64,
    pub traced_s: f64,
    /// Counts of the 1-worker run (with the traced run's DAG).
    pub counts: Counts,
    /// Counts of the P-worker run: the scheduler's counters come from here.
    pub par: Counts,
    pub sched_s: f64,
    pub heap_s: f64,
    pub core_s: f64,
    pub gc_s: f64,
    pub residual_s: f64,
    /// Sums of the telemetry histograms the traced run filled.
    pub telemetry: Json,
}

impl Entry {
    pub fn new(
        name: &str,
        t1_s: f64,
        traced_s: f64,
        counts: Counts,
        par: Counts,
        u: &UnitCosts,
    ) -> Entry {
        let c = &counts;
        let ns = |count: u64, unit: f64| count as f64 * unit / 1e9;
        let words = if c.allocs == 0 {
            0.0
        } else {
            // Payload words: the counter includes each object's header.
            (c.alloc_bytes as f64 / c.allocs as f64 - mpl_heap::OBJECT_OVERHEAD_BYTES as f64) / 8.0
        };
        let sched_s = ns(c.forks, u.fork_ns);
        let heap_s = ns(c.allocs, u.alloc_ns(words));
        let core_s = ns(c.barrier_read_fast, u.read_fast_ns)
            + ns(c.barrier_write_fast, u.write_fast_ns)
            + ns(c.barrier_read_slow, u.read_slow_ns)
            + ns(c.barrier_write_slow, u.write_slow_ns)
            + ns(c.runs, u.run_entry_ns);
        let gc_s = (c.lgc_pause_ns_total + c.cgc_pause_ns_total) as f64 / 1e9;
        Entry {
            name: name.to_string(),
            t1_s,
            traced_s,
            counts,
            par,
            sched_s,
            heap_s,
            core_s,
            gc_s,
            residual_s: t1_s - sched_s - heap_s - core_s - gc_s,
            telemetry: Json::Null,
        }
    }

    fn to_json(&self) -> Json {
        obj([
            ("name", self.name.as_str().into()),
            ("t1_s", self.t1_s.into()),
            ("traced_s", self.traced_s.into()),
            (
                "trace_overhead_pct",
                ((self.traced_s / self.t1_s - 1.0) * 100.0).into(),
            ),
            ("sched_s", self.sched_s.into()),
            ("heap_s", self.heap_s.into()),
            ("core_s", self.core_s.into()),
            ("gc_s", self.gc_s.into()),
            ("residual_s", self.residual_s.into()),
            ("residual_pct", (self.residual_s / self.t1_s * 100.0).into()),
            ("counts_at_1_worker", self.counts.to_json()),
            ("counts_at_p_workers", self.par.to_json()),
            ("telemetry_histograms", self.telemetry.clone()),
        ])
    }
}

/// Reduces the entries to the per-layer metrics (one value per name in
/// `PER_LAYER`, summed over the workload's programs) and the ledger
/// document written beside the trace.
pub fn finish(entries: &[Entry], u: &UnitCosts) -> (Vec<Metric>, Json) {
    let sum = |f: &dyn Fn(&Entry) -> f64| -> f64 { entries.iter().map(f).sum() };
    let one = entries
        .iter()
        .fold(Counts::default(), |acc, e| acc.plus(&e.counts));
    let par = entries
        .iter()
        .fold(Counts::default(), |acc, e| acc.plus(&e.par));
    let t1 = sum(&|e| e.t1_s);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let value = |name: &str| -> f64 {
        match name {
            "sched.fork_ns" => u.fork_ns,
            "sched.forks" => one.forks as f64,
            "sched.steals" => par.steals as f64,
            "sched.parks" => par.parks as f64,
            "sched.sequentialized" => par.sequentialized as f64,
            // Every pushed job is either stolen or run by its own pusher.
            "sched.useful_steal_ratio" => ratio(par.steals, par.steals + par.sequentialized),
            "heap.alloc_ns.tuple2" => u.alloc_tuple2_ns,
            "heap.alloc_ns.tuple4" => u.alloc_tuple4_ns,
            "heap.alloc_ns.array64" => u.alloc_array64_ns,
            "heap.alloc_ns.raw64" => u.alloc_raw64_ns,
            "heap.allocs" => one.allocs as f64,
            "heap.alloc_bytes" => one.alloc_bytes as f64,
            "heap.blocks_allocated" => one.blocks_allocated as f64,
            "heap.blocks_freed" => one.blocks_freed as f64,
            "core.read_fast_ns" => u.read_fast_ns,
            "core.write_fast_ns" => u.write_fast_ns,
            "core.read_slow_ns" => u.read_slow_ns,
            "core.write_slow_ns" => u.write_slow_ns,
            "core.run_entry_ns" => u.run_entry_ns,
            "core.barrier_fast" => one.barrier_fast() as f64,
            "core.barrier_slow" => one.barrier_slow() as f64,
            "core.pins" => one.pins as f64,
            "core.remset_flushes" => one.remset_flushes as f64,
            "gc.lgc_runs" => one.lgc_runs as f64,
            "gc.lgc_pause_ns_total" => one.lgc_pause_ns_total as f64,
            "gc.lgc_pause_ns_max" => one.lgc_pause_ns_max as f64,
            "gc.lgc_ns_per_copied_kb" => u.lgc_ns_per_copied_kb,
            "gc.lgc_yield" => ratio(
                one.lgc_reclaimed_bytes,
                one.lgc_reclaimed_bytes + one.lgc_copied_bytes,
            ),
            "gc.cgc_runs" => one.cgc_runs as f64,
            "gc.cgc_ns_per_obj" => u.cgc_ns_per_obj,
            "obs.trace_overhead_pct" => (sum(&|e| e.traced_s) / t1 - 1.0) * 100.0,
            "serve.dispatch_ns" => u.dispatch_ns,
            "dag.work_units" => one.dag_work as f64,
            "residual_pct" => sum(&|e| e.residual_s) / t1 * 100.0,
            other => unreachable!("PER_LAYER names a metric the ledger does not compute: {other}"),
        }
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|spec| Metric::single(spec, value(spec.name)))
        .collect();
    let doc = obj([
        ("t1_s", t1.into()),
        (
            "layers_s",
            obj([
                ("sched", sum(&|e| e.sched_s).into()),
                ("heap", sum(&|e| e.heap_s).into()),
                ("core", sum(&|e| e.core_s).into()),
                ("gc", sum(&|e| e.gc_s).into()),
                ("residual", sum(&|e| e.residual_s).into()),
            ]),
        ),
        ("residual_pct", value("residual_pct").into()),
        ("trace_overhead_pct", value("obs.trace_overhead_pct").into()),
        ("unit_costs_ns", u.to_json()),
        (
            "entries",
            Json::Arr(entries.iter().map(Entry::to_json).collect()),
        ),
    ]);
    (metrics, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_residual_sum_to_t1() {
        let u = UnitCosts {
            fork_ns: 100.0,
            alloc_tuple2_ns: 40.0,
            alloc_tuple4_ns: 50.0,
            alloc_array64_ns: 170.0,
            read_fast_ns: 2.0,
            run_entry_ns: 1000.0,
            ..UnitCosts::default()
        };
        let counts = Counts {
            allocs: 1_000_000,
            alloc_bytes: 1_000_000 * (32 + mpl_heap::OBJECT_OVERHEAD_BYTES as u64),
            barrier_read_fast: 5_000_000,
            lgc_pause_ns_total: 20_000_000,
            forks: 10_000,
            runs: 1,
            ..Counts::default()
        };
        let e = Entry::new("p", 0.5, 0.51, counts, Counts::default(), &u);
        assert!(
            (e.heap_s - 0.05).abs() < 1e-12,
            "4-word objects cost the tuple4 price"
        );
        let parts = e.sched_s + e.heap_s + e.core_s + e.gc_s + e.residual_s;
        assert!((parts - e.t1_s).abs() < 1e-12);
        assert!((u.alloc_ns(64.0) - 170.0).abs() < 1e-9);
        assert!(u.alloc_ns(3.0) > 40.0 && u.alloc_ns(3.0) < 50.0);
    }

    #[test]
    fn counts_survive_the_pipe() {
        let c = Counts {
            allocs: 7,
            pins: 3,
            dag_work: 1 << 40,
            ..Counts::default()
        };
        assert_eq!(
            Counts::from_json(&Json::parse(&c.to_json().compact()).unwrap()),
            c
        );
        let both = c.plus(&Counts {
            allocs: 1,
            lgc_pause_ns_max: 9,
            ..Counts::default()
        });
        assert_eq!((both.allocs, both.lgc_pause_ns_max), (8, 9));
    }
}
