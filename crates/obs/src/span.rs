//! Telemetry spans: begin/end intervals on one worker thread.
//!
//! A *span* — a GC phase, a scheduler park/steal/run, a remset flush — is
//! identified by its [`Metric`] kind and recorded, when it closes, into
//! the calling worker's shard of one [`Ring`] (slot protocol and reader
//! validation: [`crate::ring`]). Closing a span also records its
//! duration into the kind's histogram, so the timeline and the percentile
//! tables always agree on what was measured. The flight recorder reads
//! the same rings; a span is written once.
//!
//! Disabled cost: [`span_start`] is one relaxed load returning `None`
//! (no clock read); [`span_close`] on a `None` start is one branch.

use crate::metrics::{record_duration, Metric};
use crate::ring::{worker_id, Ring, SHARDS};
use crate::{enabled, now_ns};

/// Spans retained per worker shard; older spans are overwritten.
const RING_CAP: usize = 8192;

/// Payload: `kind << 32 | worker`, begin ns, end ns.
static SPANS: Ring<3, RING_CAP, SHARDS> = Ring::new();

/// Begin a span: returns the start timestamp if telemetry is enabled,
/// `None` otherwise (one relaxed load, no clock read).
#[inline]
pub fn span_start() -> Option<u64> {
    enabled().then(now_ns)
}

/// Close a span begun with [`span_start`]: records the span into the
/// calling worker's ring and its duration into `kind`'s histogram. A
/// `None` start (telemetry was off at begin) is a no-op.
#[inline]
pub fn span_close(kind: Metric, start: Option<u64>) {
    let Some(start) = start else { return };
    let end = now_ns();
    record_duration(kind, end.saturating_sub(start));
    record_span(kind, start, end);
}

/// RAII span: closes (span + histogram) on drop. For sections with
/// multiple exit points.
pub struct SpanGuard {
    kind: Metric,
    start: Option<u64>,
}

/// Open a [`SpanGuard`] for `kind`. Disabled cost: one relaxed load.
#[inline]
pub fn span_guard(kind: Metric) -> SpanGuard {
    SpanGuard {
        kind,
        start: span_start(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        span_close(self.kind, self.start);
    }
}

pub(crate) fn record_span(kind: Metric, start: u64, end: u64) {
    let meta = ((kind as u64) << 32) | (worker_id() as u64 & 0xffff_ffff);
    SPANS.push([meta, start, end]);
}

/// A decoded span from the rings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Global sequence number (close order).
    pub seq: u64,
    pub kind: Metric,
    /// Worker id recorded at close ([`crate::ring::worker_id`]: the pool
    /// index, or an id disjoint from every pool index for a thread that
    /// never registered).
    pub worker: u32,
    /// Begin, ns since the telemetry epoch.
    pub start_ns: u64,
    /// End, ns since the telemetry epoch.
    pub end_ns: u64,
}

/// Snapshot all retained spans, sorted by start time (sequence number as
/// tie-break). Safe to call while workers keep recording.
pub fn snapshot_spans() -> Vec<SpanRecord> {
    let mut out: Vec<SpanRecord> = SPANS
        .snapshot()
        .into_iter()
        .filter_map(|r| {
            let [meta, start_ns, end_ns] = r.words;
            Some(SpanRecord {
                seq: r.seq,
                kind: Metric::from_index((meta >> 32) as usize)?,
                worker: meta as u32,
                start_ns,
                end_ns,
            })
        })
        .collect();
    out.sort_by_key(|s| (s.start_ns, s.seq));
    out
}

/// Clear all rings (bench-harness use between suite phases; racy against
/// concurrent writers by design).
pub fn clear_spans() {
    SPANS.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_start_is_none_and_close_is_noop() {
        // Telemetry is off by default in this test binary.
        if crate::enabled() {
            return; // another test holds an enable ref; covered elsewhere
        }
        assert_eq!(span_start(), None);
        let before = SPANS.pushed();
        span_close(Metric::SchedRun, None);
        assert_eq!(SPANS.pushed(), before);
    }
}
