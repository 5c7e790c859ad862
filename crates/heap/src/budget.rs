//! Per-tenant heap budgets.
//!
//! PR 5's heap limit is one global gauge: any task's allocation can trip
//! it, and one misbehaving workload starves every other. A
//! [`TenantBudget`] scopes the same discipline to a *subtree* of the heap
//! hierarchy: the budget handle is attached to a tenant's root heap and
//! inherited by every child heap created under it
//! ([`crate::heap::HeapTable::child`]), so the live bytes of a whole
//! tenant — root heap plus all in-flight request heaps — are accounted
//! against one limit while other tenants' allocations never touch it.
//!
//! Accounting follows the global live-bytes gauge exactly:
//!
//! * **charge** — mutators charge their task-buffered allocation bytes at
//!   stats-flush safepoints (the same batching as the global gauge, so
//!   the hot allocation path pays nothing for budgets);
//! * **credit** — the local collector credits the bytes it reclaims from
//!   a budgeted heap, and the concurrent collector credits swept bytes to
//!   each swept block's owning heap's budget.
//!
//! Enforcement is the runtime's job (only it can run collectors): the
//! pressure ladder checks [`TenantBudget::would_exceed`] alongside the
//! global limit and raises the same recoverable `AllocError`, which is
//! what admission control in a serving layer catches to shed that
//! tenant's request while other tenants proceed untouched.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A live-byte budget shared by one tenant's heap subtree. Cheap to
/// clone (held by `Arc` in every [`crate::heap::HeapInfo`] under the
/// tenant's root); all counters are plain relaxed atomics.
#[derive(Debug)]
pub struct TenantBudget {
    name: String,
    limit: usize,
    live: AtomicUsize,
    max_live: AtomicUsize,
    /// Allocations rejected against this budget (admission-control sheds).
    sheds: AtomicU64,
    /// Collections forced because this budget (not the global limit) was
    /// exhausted.
    forced_gcs: AtomicU64,
}

/// A plain-value snapshot of a [`TenantBudget`] for reporting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BudgetSnapshot {
    /// Tenant name the budget was created with.
    pub name: String,
    /// Configured limit in bytes (`0` = unlimited, accounting only).
    pub limit: usize,
    /// Live bytes currently charged to the tenant.
    pub live_bytes: usize,
    /// High-water mark of the live-bytes gauge.
    pub max_live_bytes: usize,
    /// Allocations rejected against this budget.
    pub sheds: u64,
    /// Collections forced by pressure on this budget.
    pub forced_gcs: u64,
}

impl TenantBudget {
    /// Creates a budget of `limit` bytes (`0` = unlimited: the gauge is
    /// maintained for reporting but [`TenantBudget::would_exceed`] never
    /// fires).
    pub fn new(name: impl Into<String>, limit: usize) -> Arc<TenantBudget> {
        Arc::new(TenantBudget {
            name: name.into(),
            limit,
            live: AtomicUsize::new(0),
            max_live: AtomicUsize::new(0),
            sheds: AtomicU64::new(0),
            forced_gcs: AtomicU64::new(0),
        })
    }

    /// The tenant name the budget was created with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured limit in bytes (`0` = unlimited).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Live bytes currently charged to this budget.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of the live gauge.
    pub fn max_live_bytes(&self) -> usize {
        self.max_live.load(Ordering::Relaxed)
    }

    /// True when a limit is set and an allocation of `extra` bytes would
    /// push the gauge past it. Best-effort like the global limit: the
    /// gauge is updated by batched mutator flushes, so enforcement
    /// granularity is a stats-flush window.
    pub fn would_exceed(&self, extra: usize) -> bool {
        self.limit != 0 && self.live.load(Ordering::Relaxed).saturating_add(extra) > self.limit
    }

    /// Charges allocated bytes to the budget (mutator stats flush).
    pub fn charge(&self, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let mut cur = self.max_live.load(Ordering::Relaxed);
        while now > cur {
            match self.max_live.compare_exchange_weak(
                cur,
                now,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    }

    /// Credits reclaimed bytes back to the budget (collector side;
    /// saturating, so snapshot skew never underflows).
    pub fn credit(&self, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let mut cur = self.live.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .live
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Records an allocation rejected against this budget.
    pub fn on_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Allocations rejected against this budget so far.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Records a collection forced by pressure on this budget.
    pub fn on_forced_gc(&self) {
        self.forced_gcs.fetch_add(1, Ordering::Relaxed);
    }

    /// Collections forced by pressure on this budget so far.
    pub fn forced_gcs(&self) -> u64 {
        self.forced_gcs.load(Ordering::Relaxed)
    }

    /// A plain-value snapshot for reporting.
    pub fn snapshot(&self) -> BudgetSnapshot {
        BudgetSnapshot {
            name: self.name.clone(),
            limit: self.limit,
            live_bytes: self.live_bytes(),
            max_live_bytes: self.max_live_bytes(),
            sheds: self.sheds(),
            forced_gcs: self.forced_gcs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_credit_and_high_water() {
        let b = TenantBudget::new("t0", 1000);
        b.charge(600);
        b.charge(100);
        assert_eq!(b.live_bytes(), 700);
        assert_eq!(b.max_live_bytes(), 700);
        b.credit(500);
        assert_eq!(b.live_bytes(), 200);
        assert_eq!(b.max_live_bytes(), 700, "high-water sticks");
        b.credit(10_000);
        assert_eq!(b.live_bytes(), 0, "saturating");
    }

    #[test]
    fn would_exceed_respects_limit() {
        let b = TenantBudget::new("t0", 100);
        assert!(!b.would_exceed(100));
        assert!(b.would_exceed(101));
        b.charge(80);
        assert!(!b.would_exceed(20));
        assert!(b.would_exceed(21));
        let unlimited = TenantBudget::new("t1", 0);
        unlimited.charge(usize::MAX / 2);
        assert!(!unlimited.would_exceed(usize::MAX / 2), "0 = unlimited");
    }

    #[test]
    fn shed_and_forced_counters() {
        let b = TenantBudget::new("t0", 10);
        b.on_shed();
        b.on_shed();
        b.on_forced_gc();
        let s = b.snapshot();
        assert_eq!(s.sheds, 2);
        assert_eq!(s.forced_gcs, 1);
        assert_eq!(s.name, "t0");
        assert_eq!(s.limit, 10);
    }
}
