//! The GC flight recorder: a bounded ring of recent telemetry.
//!
//! Aviation-style black box for the runtime: while telemetry is enabled,
//! every closed span, every GC census delta, and every anomaly event
//! (allocation failure, watchdog stall, audit failure) is retained in a
//! bounded ring. When something goes wrong the recording is **dumped** —
//! automatically on a GC-watchdog stall, an `AllocError`, or a
//! chaos-detected audit failure — so a post-mortem has the last few
//! thousand things the runtime did, in order, without anyone having had
//! to arrange tracing in advance.
//!
//! Closed spans are not copied: the recording *is* the span rings' newest
//! records merged, by global sequence number, with one small [`Ring`] of
//! anomaly/census records (slot protocol: [`crate::ring`]), truncated to
//! the newest `FLIGHT_CAP`. Disabled cost is the usual one relaxed load
//! upstream.
//!
//! A dump is Chrome-trace JSON ([`crate::chrome::flight_chrome_trace`]),
//! loadable at `chrome://tracing` or <https://ui.perfetto.dev> as it is:
//! spans on their worker tracks, anomaly and census records as global
//! instants whose args name their two payload words.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::ring::{self, Ring};
use crate::span::SpanRecord;
use crate::{enabled, now_ns};

/// Kinds of the records the flight ring keeps beside the spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A point anomaly event (`EV_*` code); `a`/`b` carry context.
    Event = 2,
    /// A GC census delta: `a` = live bytes after, `b` = reclaimed bytes.
    Census = 3,
}

impl FlightKind {
    fn from_u32(v: u32) -> Option<FlightKind> {
        match v {
            2 => Some(FlightKind::Event),
            3 => Some(FlightKind::Census),
            _ => None,
        }
    }
}

/// Event code: a recoverable allocation failure surfaced as `AllocError`
/// (`a` = requested bytes, `b` = the exhausted limit in bytes).
pub const EV_ALLOC_ERROR: u32 = 1;
/// Event code: the GC watchdog declared a phase stalled (`a` = phase
/// age ns, `b` = deadline ns).
pub const EV_WATCHDOG_STALL: u32 = 2;
/// Event code: a heap audit failed (`a` = issue count, `b` = the
/// collected heap).
pub const EV_AUDIT_FAILURE: u32 = 3;
/// Census code: LGC reclaim epilogue.
pub const EV_LGC_CENSUS: u32 = 4;
/// Census code: CGC sweep/epilogue completion.
pub const EV_CGC_CENSUS: u32 = 5;
/// Event code: a server tenant's circuit breaker opened (`a` = tenant
/// index, `b` = consecutive failures that tripped it).
pub const EV_BREAKER_OPEN: u32 = 6;
/// Event code: a deadline storm — a burst of request timeouts in one
/// observation window (`a` = timeouts in the window, `b` = window
/// length in requests).
pub const EV_DEADLINE_STORM: u32 = 7;

/// The name of an event/census code and of its two payload words, as a
/// dump's instants carry them.
pub(crate) fn describe(kind: FlightKind, code: u32) -> (&'static str, [&'static str; 2]) {
    match (kind, code) {
        (FlightKind::Event, EV_ALLOC_ERROR) => ("alloc_error", ["requested_bytes", "limit_bytes"]),
        (FlightKind::Event, EV_WATCHDOG_STALL) => {
            ("watchdog_stall", ["phase_age_ns", "deadline_ns"])
        }
        (FlightKind::Event, EV_AUDIT_FAILURE) => ("audit_failure", ["issues", "heap"]),
        (FlightKind::Event, EV_BREAKER_OPEN) => ("breaker_open", ["tenant", "failures"]),
        (FlightKind::Event, EV_DEADLINE_STORM) => ("deadline_storm", ["timeouts", "window"]),
        (FlightKind::Census, EV_LGC_CENSUS) => ("lgc_census", ["live_bytes", "reclaimed_bytes"]),
        (FlightKind::Census, EV_CGC_CENSUS) => ("cgc_census", ["live_bytes", "reclaimed_bytes"]),
        _ => ("unknown", ["a", "b"]),
    }
}

/// An anomaly or census record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Record timestamp, ns since the telemetry epoch.
    pub t_ns: u64,
    /// Record kind.
    pub kind: FlightKind,
    /// The `EV_*` code.
    pub code: u32,
    /// First payload word (see the code's docs).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// One record of a flight recording.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightRecord {
    /// A closed span.
    Span(SpanRecord),
    /// An anomaly or census record.
    Event(FlightEvent),
}

/// Records in a flight recording; older records are dropped.
const FLIGHT_CAP: usize = 4096;

/// Anomaly and census records. Payload: `t_ns`, `kind << 32 | code`, `a`,
/// `b`.
static EVENTS: Ring<4, FLIGHT_CAP> = Ring::new();
/// Records at or below this sequence number are hidden ([`clear_flight`]).
static FLOOR: AtomicU64 = AtomicU64::new(0);
static DUMPS: AtomicU64 = AtomicU64::new(0);

/// Per-process cap on automatic dumps: post-mortems want the first few
/// incidents, not a disk full of rings when a chaos suite sheds
/// thousands of requests.
const MAX_DUMPS: u64 = 16;

/// Append one record with an explicit timestamp (collectors pass the
/// timestamp they already took). No enabled gate — callers apply it.
pub(crate) fn flight_record_at(t_ns: u64, kind: FlightKind, code: u32, a: u64, b: u64) {
    EVENTS.push([t_ns, (kind as u64) << 32 | u64::from(code), a, b]);
}

/// Append one record stamped now, if telemetry is enabled (the usual
/// one-relaxed-load gate otherwise).
#[inline]
pub fn flight_record(kind: FlightKind, code: u32, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    flight_record_at(now_ns(), kind, code, a, b);
}

/// The newest `FLIGHT_CAP` records — closed spans and anomaly/census
/// records interleaved — in global sequence (arrival) order.
pub fn flight_snapshot() -> Vec<FlightRecord> {
    let mut all: Vec<(u64, FlightRecord)> = EVENTS
        .snapshot()
        .into_iter()
        .filter_map(|r| {
            let [t_ns, meta, a, b] = r.words;
            let kind = FlightKind::from_u32((meta >> 32) as u32)?;
            let code = meta as u32;
            let event = FlightEvent {
                t_ns,
                kind,
                code,
                a,
                b,
            };
            Some((r.seq, FlightRecord::Event(event)))
        })
        .collect();
    all.extend(
        crate::span::snapshot_spans()
            .into_iter()
            .map(|s| (s.seq, FlightRecord::Span(s))),
    );
    let floor = FLOOR.load(Ordering::Relaxed);
    all.retain(|(seq, _)| *seq > floor);
    all.sort_unstable_by_key(|(seq, _)| *seq);
    let older = all.len().saturating_sub(FLIGHT_CAP);
    all.into_iter().skip(older).map(|(_, e)| e).collect()
}

/// Start a fresh recording: everything recorded so far is hidden from
/// later snapshots (bench-harness use; nothing is erased, so this is
/// safe against concurrent writers).
pub fn clear_flight() {
    FLOOR.store(ring::current_seq(), Ordering::Relaxed);
}

/// Dump the current recording as Chrome-trace JSON to a file and return
/// its path.
///
/// The dump lands in `MPL_FLIGHT_DIR` if set, else the OS temp dir, as
/// `mpl-flight-<reason>-<pid>-<n>.json`. Returns `None` when telemetry
/// is disabled, the per-process dump cap is exhausted, or the write
/// fails — automatic dumping must never take down the process it is
/// trying to explain.
pub fn dump_flight(reason: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let n = DUMPS.fetch_add(1, Ordering::Relaxed);
    if n >= MAX_DUMPS {
        return None;
    }
    let dir = std::env::var_os("MPL_FLIGHT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let path = dir.join(format!(
        "mpl-flight-{reason}-{}-{n}.json",
        std::process::id()
    ));
    let trace = crate::chrome::flight_chrome_trace(&flight_snapshot());
    std::fs::write(&path, trace).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::flight_chrome_trace;
    use crate::metrics::Metric;

    #[test]
    fn ring_records_in_order_and_survives_wrap() {
        // Direct `flight_record_at` bypasses the enabled gate, so this
        // test is independent of other tests' telemetry refs.
        clear_flight();
        for i in 0..(FLIGHT_CAP as u64 + 10) {
            flight_record_at(i, FlightKind::Event, EV_WATCHDOG_STALL, i, 0);
        }
        let a = |r: &FlightRecord| match r {
            FlightRecord::Event(e) => e.a,
            FlightRecord::Span(_) => unreachable!("no span was closed"),
        };
        let snap: Vec<u64> = flight_snapshot().iter().map(a).collect();
        assert_eq!(snap.len(), FLIGHT_CAP);
        // In arrival order, and only the newest CAP retained.
        assert!(snap.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*snap.last().unwrap(), FLIGHT_CAP as u64 + 9);
        clear_flight();
        assert!(flight_snapshot().is_empty());
    }

    #[test]
    fn chrome_trace_renders_all_kinds() {
        let records = [
            FlightRecord::Span(SpanRecord {
                seq: 1,
                kind: Metric::LgcPause,
                worker: 3,
                start_ns: 5_000,
                end_ns: 10_000,
            }),
            FlightRecord::Event(FlightEvent {
                t_ns: 20_000,
                kind: FlightKind::Event,
                code: EV_ALLOC_ERROR,
                a: 48,
                b: 65_536,
            }),
            FlightRecord::Event(FlightEvent {
                t_ns: 30_000,
                kind: FlightKind::Census,
                code: EV_LGC_CENSUS,
                a: 12_345,
                b: 678,
            }),
        ];
        let json = flight_chrome_trace(&records);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(
            json.contains("\"name\":\"lgc_pause\",\"cat\":\"gc.lgc\",\"ph\":\"B\",\"ts\":5.000000,\"pid\":1,\"tid\":3"),
            "the span sits on its worker's track: {json}"
        );
        assert!(
            json.contains("\"args\":{\"requested_bytes\":48,\"limit_bytes\":65536}"),
            "{json}"
        );
        assert!(json.contains("\"name\":\"lgc_census\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
