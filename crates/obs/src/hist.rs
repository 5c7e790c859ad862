//! Lock-free log₂-bucketed histograms.
//!
//! A [`Histogram`] is a fixed array of 64 power-of-two buckets plus exact
//! count/sum/max, all plain atomics — [`Histogram::record`] is wait-free and
//! safe to call from any worker concurrently. Bucket `i` covers
//! `[2^(i-1), 2^i)` (bucket 0 holds only the value 0), so relative error of
//! a reported percentile is bounded by 2× — plenty for pause/latency
//! distributions spanning nanoseconds to seconds.
//!
//! Readers take a [`HistSnapshot`] (a plain value type) and aggregate
//! across workers or time windows with [`HistSnapshot::merge`]; percentiles
//! are answered from the snapshot so a report is internally consistent even
//! while writers keep recording.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets; covers the whole `u64` range.
pub const BUCKETS: usize = 64;

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`, clamped to
/// the last bucket. Monotone non-decreasing in `v`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`; the last bucket is
/// clamped to `u64::MAX`).
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free histogram of `u64` values (durations in nanoseconds, sizes in
/// bytes, …). Const-constructible so it can live in `static` registries.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// A new empty histogram (usable in `static` initializers).
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: ZERO,
            sum: ZERO,
            max: ZERO,
            buckets: [ZERO; BUCKETS],
        }
    }

    /// Record one value. Wait-free: three `fetch_add`s and a CAS-max loop
    /// that only retries while other writers are raising the max.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.max.load(Ordering::Relaxed);
        while value > cur {
            match self
                .max
                .compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Copy the current contents out. Not atomic across fields (writers may
    /// land between loads), but each field is itself consistent and the
    /// skew is at most the handful of records in flight.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Reset all cells to zero (test/bench harness use; racy against
    /// concurrent writers by design).
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A plain-value copy of a [`Histogram`], suitable for merging and
/// percentile queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: [u64; BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Element-wise merge of two snapshots (e.g. the same metric from two
    /// workers, or two time windows). Associative and commutative.
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, dst) in buckets.iter_mut().enumerate() {
            *dst = self.buckets[i] + other.buckets[i];
        }
        HistSnapshot {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            max: self.max.max(other.max),
            buckets,
        }
    }

    /// The recordings made after `earlier`, a snapshot of the same
    /// histogram: bucket-wise differences (saturating, should the
    /// histogram be reset in between). The max stays this snapshot's,
    /// an upper bound (a maximum cannot be subtracted).
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut out = *self;
        out.count = out.count.saturating_sub(earlier.count);
        out.sum = out.sum.saturating_sub(earlier.sum);
        for (o, e) in out.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *o = o.saturating_sub(*e);
        }
        out
    }

    /// Upper bound of the value at quantile `q` in `[0, 1]`: the inclusive
    /// bound of the bucket holding the rank-`ceil(q·count)` value, clamped
    /// to the exact recorded max. Returns 0 for an empty snapshot.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Exact arithmetic mean of recorded values (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every value is <= its bucket's inclusive bound.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, 1 << 40, u64::MAX] {
            assert!(v <= bucket_bound(bucket_index(v)), "v={v}");
        }
    }

    #[test]
    fn record_and_percentiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // p50 of 1..=1000 lands in bucket for ~500 → bound 511; never above
        // the true max, never below the true median's bucket lower bound.
        let p50 = s.p50();
        assert!((500..=1000).contains(&p50), "p50={p50}");
        assert!(s.p50() <= s.p90());
        assert!(s.p90() <= s.p99());
        assert!(s.p99() <= s.max);
        assert_eq!(s.percentile(1.0), 1000);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [3u64, 17, 17, 4096, 0] {
            a.record(v);
            both.record(v);
        }
        for v in [9u64, 1 << 33, 2] {
            b.record(v);
            both.record(v);
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), both.snapshot());
    }

    #[test]
    fn since_holds_the_later_recordings() {
        let h = Histogram::new();
        let later = Histogram::new();
        h.record(5);
        let earlier = h.snapshot();
        for v in [9u64, 1 << 20] {
            h.record(v);
            later.record(v);
        }
        let got = h.snapshot().since(&earlier);
        assert_eq!(got, later.snapshot());
        assert_eq!(got.p99(), later.snapshot().p99());
    }
}
