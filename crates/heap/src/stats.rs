//! Global memory-manager counters: the paper's cost metrics, measured.
//!
//! The paper defines cost metrics to reason about the time and space cost
//! of entanglement: the number of entangled reads/writes (each incurring a
//! constant-cost pin), the footprint of pinned objects (the space the local
//! collector must leave in place), and the ordinary allocation/collection
//! volumes. This module is the measured counterpart: every counter here is
//! reported by the experiment harness.
//!
//! Every observable is declared exactly once, as a row of the
//! `counter_table!` invocation below: `name: Kind, Owner, "help";`. The
//! macro turns the rows into [`Counter`] (one variant per row, indexing
//! the [`StoreStats`] cells), the public [`StatsSnapshot`] struct (one
//! field per row, documented by the row's help string), the row-order
//! conversions [`StatsSnapshot::from_values`] / [`StatsSnapshot::values`],
//! and — from the `task_buffered` group — [`PendingStats`] and its flush
//! [`StoreStats::add_pending`]. Everything else (`snapshot`, `delta`,
//! `rows`, the exporters in `mpl-runtime`) is a loop over the table. To
//! add a counter: add a row, then increment it with [`StoreStats::add`].

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// How a row moves over time. Decides its exporter type (Prometheus
/// `counter` vs `gauge`, JSON `"counters"` vs `"gauges"`) and what
/// [`StatsSnapshot::delta`] does with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Only ever increases; an interval view subtracts.
    Monotonic,
    /// Rises and falls; an interval view keeps the later reading.
    Gauge,
    /// The largest value a gauge or duration has reached; kept like a gauge.
    HighWater,
}

/// Who writes a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Owner {
    /// A [`StoreStats`] cell, bumped by the store, mutators and collectors.
    Store,
    /// Overlaid by the runtime from the work-stealing executor (scheduling
    /// is not a memory-manager concern); zero when the pool is inactive.
    Sched,
    /// Overlaid by the runtime from `mpl-gc`'s process-global audit layer;
    /// zero when auditing was never enabled.
    Audit,
    /// Overlaid by the runtime from `mpl-fail` (process-global); zero when
    /// no failpoint was ever armed.
    Fail,
}

/// One table row with its value in some snapshot: what the exporters and
/// table-driven tests iterate over (see [`StatsSnapshot::rows`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    /// The field / JSON key / Prometheus stem (`mpl_<name>[_total]`).
    pub name: &'static str,
    /// See [`Kind`].
    pub kind: Kind,
    /// See [`Owner`].
    pub owner: Owner,
    /// One-line description (field doc and Prometheus `# HELP`).
    pub help: &'static str,
    /// The row's value in the snapshot it was read from.
    pub value: u64,
}

// A row's `StatsSnapshot` field type: `u64`, unless the row says
// `Kind as <type>` (the byte gauges are `usize`).
macro_rules! row_ty {
    () => {
        u64
    };
    ($ty:ty) => {
        $ty
    };
}

macro_rules! counter_table {
    (task_buffered { $($buffered:tt)* } direct { $($direct:tt)* }) => {
        counter_table!(@rows $($buffered)* $($direct)*);
        counter_table!(@pending $($buffered)*);
    };
    (@rows $($(#[$doc:meta])* $name:ident: $kind:ident $(as $ty:ty)?, $owner:ident, $help:literal;)*) => {
        /// Names a table row; `counter as usize` is its position in the
        /// table, in [`StoreStats`]' cells and in [`StatsSnapshot::values`].
        #[allow(non_camel_case_types, missing_docs)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter { $($name,)* }

        const TABLE: &[Row] = &[$(Row {
            name: stringify!($name),
            kind: Kind::$kind,
            owner: Owner::$owner,
            help: $help,
            value: 0,
        },)*];

        /// A plain-value snapshot of every row: the store's own cells as
        /// [`StoreStats::snapshot`] read them, plus the rows the runtime
        /// overlays (see [`Owner`]).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot { $(#[doc = $help] $(#[$doc])* pub $name: row_ty!($($ty)?),)* }

        impl StatsSnapshot {
            /// Builds a snapshot from one value per row, in table order.
            pub fn from_values(values: [u64; ROWS]) -> StatsSnapshot {
                StatsSnapshot { $($name: values[Counter::$name as usize] as _,)* }
            }

            /// Every row's value, in table order.
            pub fn values(&self) -> [u64; ROWS] {
                [$(self.$name as u64,)*]
            }
        }
    };
    (@pending $($(#[$doc:meta])* $name:ident: $kind:ident, $owner:ident, $help:literal;)*) => {
        /// Task-buffered counters: plain fields a task increments privately
        /// so its hot paths pay no global atomics, published by
        /// [`StoreStats::add_pending`] at task boundaries.
        #[derive(Debug, Default, PartialEq, Eq)]
        pub struct PendingStats { $(#[doc = $help] pub $name: u64,)* }

        #[cfg(test)]
        impl PendingStats {
            fn fields_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
                vec![$((stringify!($name), &mut self.$name),)*]
            }
        }

        impl StoreStats {
            /// Publishes a task's buffered counts into the identically
            /// named rows (and the live-bytes gauge), leaving `pending`
            /// zeroed.
            pub fn add_pending(&self, pending: &mut PendingStats) {
                let p = std::mem::take(pending);
                $(if p.$name != 0 {
                    self.add(Counter::$name, p.$name);
                })*
                if p.alloc_bytes != 0 {
                    self.add_live_bytes(p.alloc_bytes as usize);
                }
            }
        }
    };
}

counter_table! {
    task_buffered {
        allocs: Monotonic, Store, "Objects allocated";
        alloc_bytes: Monotonic, Store, "Bytes allocated";
        barrier_reads: Monotonic, Store, "Barriered mutable reads";
        barrier_writes: Monotonic, Store, "Barriered mutable writes";
        /// No lock, no heap-table acquisition, no `Arc` clone: the suspects
        /// header check passed, or the loaded value was an immediate.
        barrier_read_fast: Monotonic, Store, "Reads completed on the fast tier";
        /// Locate + LCA, possibly pin.
        barrier_read_slow: Monotonic, Store, "Reads that entered the slow tier";
        /// An immediate store, or a pointer store whose source and target
        /// are both in the task's own leaf heap — provably not a
        /// down-pointer, no table acquisition.
        barrier_write_fast: Monotonic, Store, "Writes completed on the fast tier";
        /// Locality/LCA checks, possibly pin + remembered-set insert.
        barrier_write_slow: Monotonic, Store, "Writes that entered the slow tier";
        entangled_reads: Monotonic, Store, "Entangled reads (remote objects pinned)";
        entangled_writes: Monotonic, Store, "Entangled writes";
        /// Deduplicated; published to the owning heap at flush.
        remset_buffered: Monotonic, Store, "Down-pointers recorded into a mutator-private remset buffer";
        remset_dedup_hits: Monotonic, Store, "Buffered remset inserts suppressed by per-object dedup";
    }
    direct {
        pins: Monotonic, Store, "Objects pinned";
        unpins: Monotonic, Store, "Objects unpinned";
        remset_inserts: Monotonic, Store, "Remembered-set insertions";
        /// At joins, GC handshakes, mutator drop and buffer capacity.
        remset_flushes: Monotonic, Store, "Remembered-set buffer flushes";
        lgc_runs: Monotonic, Store, "Local collections";
        lgc_copied_bytes: Monotonic, Store, "Bytes evacuated by local collections";
        lgc_reclaimed_bytes: Monotonic, Store, "Bytes reclaimed by local collections";
        lgc_entangled_retained_bytes: Monotonic, Store, "Pinned bytes local collections left in place";
        /// Unlike CGC pauses (timed by the runtime around the collector
        /// call), LGC pauses are timed inside `collect_local` itself, so
        /// every caller — allocation-triggered or forced — is covered.
        lgc_pause_ns_total: Monotonic, Store, "Stop-the-task nanoseconds spent in local collections";
        lgc_pause_ns_max: HighWater, Store, "Longest local-collection pause in nanoseconds";
        cgc_runs: Monotonic, Store, "Concurrent collections";
        cgc_swept_bytes: Monotonic, Store, "Bytes swept by concurrent collections";
        cgc_pause_ns_total: Monotonic, Store, "Pause nanoseconds spent in concurrent collections";
        cgc_pause_ns_max: HighWater, Store, "Longest concurrent-collection pause in nanoseconds";
        /// Trace, sweep, and epilogue units.
        cgc_packets: Monotonic, Store, "CGC work packets executed on scheduler workers";
        cgc_packet_retries: Monotonic, Store, "CGC packets re-enqueued after an injected or real panic";
        blocks_allocated: Monotonic, Store, "Size-class blocks handed out by the registry";
        blocks_freed: Monotonic, Store, "Blocks returned to the registry (LGC, CGC, joins)";
        /// Lines in use minus marked lines, summed over swept blocks.
        lines_swept: Monotonic, Store, "Lines reclaimed by line-mark sweeps";
        /// Counted in every build profile, because the matching debug
        /// assertion vanishes under `--release`; any nonzero value is a
        /// collector soundness bug (see `mpl-gc`'s audit layer).
        lgc_dead_traced: Monotonic, Store, "Corruption canary: traces reaching dead objects";
        sched_pushes: Monotonic, Sched, "Jobs pushed to worker deques";
        sched_steals: Monotonic, Sched, "Successful steals";
        sched_sequentialized: Monotonic, Sched, "Forks resolved inline (popped back)";
        sched_parks: Monotonic, Sched, "Worker park intervals";
        sched_unparks: Monotonic, Sched, "Parked workers woken by a push or a cancel kick";
        /// The limit is `RuntimeConfig::with_heap_limit` or a tenant budget.
        gc_forced_by_pressure: Monotonic, Store, "Collections forced by the heap budget";
        alloc_retries: Monotonic, Store, "Allocation retries after a forced collection";
        /// Surfaced as a recoverable `AllocError`.
        alloc_failures: Monotonic, Store, "Allocations rejected (budget exhausted or injected)";
        failpoint_fires: Monotonic, Fail, "Fault-injection failpoint fires (process-global)";
        audit_runs: Monotonic, Audit, "GC phase-boundary audits executed (process-global)";
        audit_objects_checked: Monotonic, Audit, "Objects visited by audit reachability cross-checks";
        audit_events: Monotonic, Audit, "Events recorded into the audit rings";
        audit_ring_overflows: Monotonic, Audit, "Audit ring overwrites (history lost to wraparound)";
        /// One per live task of the cancelled tree.
        cancel_requested: Monotonic, Store, "Tasks that observed a cancel-token trip and began unwinding";
        /// One per cancelled `Runtime::try_run*` call.
        cancel_unwound: Monotonic, Store, "Runs that fully unwound as cancelled";
        /// The serving-layer rows are recorded by `mpl-serve` through the
        /// runtime, so one snapshot covers the whole stack.
        requests_timed_out: Monotonic, Store, "Serve requests that exhausted their deadline";
        request_retries: Monotonic, Store, "Serve request retry attempts after a timeout";
        breaker_open: Monotonic, Store, "Per-tenant circuit-breaker open transitions";
        live_bytes: Gauge as usize, Store, "Live bytes";
        max_live_bytes: HighWater as usize, Store, "Live-bytes high-water mark";
        pinned_bytes: Gauge as usize, Store, "Pinned (entangled) bytes";
        max_pinned_bytes: HighWater as usize, Store, "Pinned-bytes high-water mark";
    }
}

/// Number of table rows (and of [`StatsSnapshot`] fields).
pub const ROWS: usize = TABLE.len();

/// The store's cell for every row. Rows another layer owns keep a zero
/// cell, so a plain [`StoreStats::snapshot`] reads them as zero.
#[derive(Debug)]
pub struct StoreStats {
    cells: [AtomicU64; ROWS],
}

impl Default for StoreStats {
    fn default() -> StoreStats {
        StoreStats::new()
    }
}

impl StoreStats {
    /// Creates zeroed counters.
    pub fn new() -> StoreStats {
        StoreStats {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    fn cell(&self, counter: Counter) -> &AtomicU64 {
        &self.cells[counter as usize]
    }

    /// Takes a consistent-enough snapshot (individual counters are loaded
    /// independently; exactness across counters is not required for
    /// reporting).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::from_values(std::array::from_fn(|i| self.cells[i].load(Relaxed)))
    }

    /// Adds `n` to a monotonic row.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.cell(counter).fetch_add(n, Relaxed);
    }

    /// One row, read directly (one atomic load). Pressure checks and
    /// collection triggers on the allocation path use this instead of
    /// building a full [`StatsSnapshot`].
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.cell(counter).load(Relaxed)
    }

    /// [`StoreStats::get`] of the live-bytes gauge.
    #[inline]
    pub fn live_bytes(&self) -> usize {
        self.get(Counter::live_bytes) as usize
    }

    fn raise(&self, gauge: Counter, high_water: Counter, bytes: usize) {
        let now = self.cell(gauge).fetch_add(bytes as u64, Relaxed) + bytes as u64;
        self.cell(high_water).fetch_max(now, Relaxed);
    }

    fn lower(&self, gauge: Counter, bytes: usize) {
        let sub = |v: u64| Some(v.saturating_sub(bytes as u64));
        let _ = self.cell(gauge).fetch_update(Relaxed, Relaxed, sub);
    }

    /// Adds to the live-bytes gauge and updates the high-water mark.
    pub fn add_live_bytes(&self, bytes: usize) {
        self.raise(Counter::live_bytes, Counter::max_live_bytes, bytes);
    }

    /// Subtracts from the live-bytes gauge (saturating).
    pub fn sub_live_bytes(&self, bytes: usize) {
        self.lower(Counter::live_bytes, bytes);
    }

    /// Adds to the pinned-bytes gauge and updates its high-water mark.
    pub fn add_pinned_bytes(&self, bytes: usize) {
        self.raise(Counter::pinned_bytes, Counter::max_pinned_bytes, bytes);
    }

    /// Subtracts from the pinned-bytes gauge (saturating).
    pub fn sub_pinned_bytes(&self, bytes: usize) {
        self.lower(Counter::pinned_bytes, bytes);
    }

    // ---- recorders that couple a counter to a gauge or histogram ----

    /// Records an allocation of `bytes`.
    pub fn on_alloc(&self, bytes: usize) {
        self.add(Counter::allocs, 1);
        self.add(Counter::alloc_bytes, bytes as u64);
        self.add_live_bytes(bytes);
    }

    /// Records a newly pinned object of `bytes`.
    pub fn on_pin(&self, bytes: usize) {
        self.add(Counter::pins, 1);
        self.add_pinned_bytes(bytes);
    }

    /// Records an unpinned object of `bytes`.
    pub fn on_unpin(&self, bytes: usize) {
        self.add(Counter::unpins, 1);
        self.sub_pinned_bytes(bytes);
    }

    /// Records a completed local collection.
    pub fn on_lgc(&self, copied_bytes: u64, reclaimed_bytes: u64, retained_entangled_bytes: u64) {
        self.add(Counter::lgc_runs, 1);
        self.add(Counter::lgc_copied_bytes, copied_bytes);
        self.add(Counter::lgc_reclaimed_bytes, reclaimed_bytes);
        self.add(
            Counter::lgc_entangled_retained_bytes,
            retained_entangled_bytes,
        );
        self.sub_live_bytes(reclaimed_bytes as usize);
    }

    /// Records a completed concurrent collection.
    pub fn on_cgc(&self, swept_bytes: u64) {
        self.add(Counter::cgc_runs, 1);
        self.add(Counter::cgc_swept_bytes, swept_bytes);
        self.sub_live_bytes(swept_bytes as usize);
    }

    /// Records a concurrent-collection pause duration. Also feeds the
    /// telemetry pause histogram (a no-op unless telemetry is enabled).
    pub fn on_cgc_pause(&self, ns: u64) {
        self.add(Counter::cgc_pause_ns_total, ns);
        self.cell(Counter::cgc_pause_ns_max).fetch_max(ns, Relaxed);
        mpl_obs::record_duration(mpl_obs::Metric::CgcPause, ns);
    }

    /// Records a local-collection pause duration (the whole
    /// `collect_local` stop-the-task window). Also feeds the telemetry
    /// pause histogram (a no-op unless telemetry is enabled).
    pub fn on_lgc_pause(&self, ns: u64) {
        self.add(Counter::lgc_pause_ns_total, ns);
        self.cell(Counter::lgc_pause_ns_max).fetch_max(ns, Relaxed);
        mpl_obs::record_duration(mpl_obs::Metric::LgcPause, ns);
    }
}

impl StatsSnapshot {
    /// Every row — name, kind, owner, help and this snapshot's value — in
    /// table order.
    pub fn rows(&self) -> impl Iterator<Item = Row> {
        let with_value = |(&row, value)| Row { value, ..row };
        TABLE.iter().zip(self.values()).map(with_value)
    }

    /// Entangled accesses (reads + writes) — the paper's primary time-cost
    /// metric for entanglement.
    pub fn entangled_accesses(&self) -> u64 {
        self.entangled_reads + self.entangled_writes
    }

    /// The per-interval view between an `earlier` snapshot and this one:
    /// [`Kind::Monotonic`] rows are subtracted (saturating, so reset
    /// counters or snapshot skew never underflow), gauges and high-water
    /// marks keep this snapshot's value. Used by the telemetry sampler and
    /// the bench harnesses instead of hand-rolled field subtraction.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let (now, then) = (self.values(), earlier.values());
        StatsSnapshot::from_values(std::array::from_fn(|i| match TABLE[i].kind {
            Kind::Monotonic => now[i].saturating_sub(then[i]),
            Kind::Gauge | Kind::HighWater => now[i],
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gauges_track_high_water() {
        let s = StoreStats::new();
        s.add_live_bytes(100);
        s.add_live_bytes(50);
        s.sub_live_bytes(120);
        assert_eq!(s.snapshot().live_bytes, 30);
        assert_eq!(s.snapshot().max_live_bytes, 150);
        s.sub_live_bytes(1000);
        assert_eq!(s.snapshot().live_bytes, 0, "saturating");
    }

    #[test]
    fn pinned_gauge_independent() {
        let s = StoreStats::new();
        s.add_pinned_bytes(64);
        s.sub_pinned_bytes(32);
        let snap = s.snapshot();
        assert_eq!(snap.pinned_bytes, 32);
        assert_eq!(snap.max_pinned_bytes, 64);
        assert_eq!(snap.live_bytes, 0);
    }

    #[test]
    fn lgc_pause_tracks_total_and_max() {
        let s = StoreStats::new();
        s.on_lgc_pause(100);
        s.on_lgc_pause(700);
        s.on_lgc_pause(50);
        let snap = s.snapshot();
        assert_eq!(snap.lgc_pause_ns_total, 850);
        assert_eq!(snap.lgc_pause_ns_max, 700);
    }

    proptest! {
        #[test]
        fn delta_subtracts_counters_and_keeps_gauges(
            a in proptest::collection::vec(any::<u64>(), ROWS),
            b in proptest::collection::vec(any::<u64>(), ROWS),
        ) {
            let earlier = StatsSnapshot::from_values(a.try_into().unwrap());
            let later = StatsSnapshot::from_values(b.try_into().unwrap());
            let d = later.delta(&earlier);
            for ((d, l), e) in d.rows().zip(later.rows()).zip(earlier.rows()) {
                let want = match d.kind {
                    // Skewed inputs saturate instead of underflowing.
                    Kind::Monotonic => l.value.saturating_sub(e.value),
                    Kind::Gauge | Kind::HighWater => l.value,
                };
                prop_assert_eq!(d.value, want, "{}", d.name);
            }
            for row in later.delta(&later).rows().filter(|r| r.kind == Kind::Monotonic) {
                prop_assert_eq!(row.value, 0, "{}", row.name);
            }
        }
    }

    /// Every task-buffered field lands in the identically named snapshot
    /// row, and the flush leaves nothing behind.
    #[test]
    fn add_pending_publishes_every_buffered_field() {
        let mut p = PendingStats::default();
        let mut want = Vec::new();
        for (i, (name, field)) in p.fields_mut().into_iter().enumerate() {
            *field = 100 + i as u64;
            want.push((name, *field));
        }
        let stats = StoreStats::new();
        stats.add_pending(&mut p);
        assert_eq!(p, PendingStats::default());
        let snap = stats.snapshot();
        for (name, value) in &want {
            let row = snap.rows().find(|r| r.name == *name).expect(name);
            assert_eq!(row.value, *value, "{name}");
        }
        // Nothing else moved, except that allocated bytes raise the gauge.
        let moved = snap.rows().filter(|r| r.value != 0).count();
        assert_eq!(moved, want.len() + 2);
        assert_eq!(snap.live_bytes as u64, snap.alloc_bytes);
        assert_eq!(snap.max_live_bytes, snap.live_bytes);
    }
}
