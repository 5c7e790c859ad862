//! The GC flight recorder: a bounded binary ring of recent telemetry.
//!
//! Aviation-style black box for the runtime: while telemetry is enabled,
//! every closed span, every GC census delta, and every anomaly event
//! (allocation failure, watchdog stall, audit failure) is retained in a
//! bounded ring. When something goes wrong the recording is **dumped** to a
//! compact binary file — automatically on a GC-watchdog stall, an
//! `AllocError`, or a chaos-detected audit failure — so a post-mortem
//! has the last few thousand things the runtime did, in order, without
//! anyone having had to arrange tracing in advance.
//!
//! Closed spans are not copied: the recording *is* the span rings' newest
//! records merged, by global sequence number, with one small [`Ring`] of
//! anomaly/census records (slot protocol: [`crate::ring`]), truncated to
//! the newest [`FLIGHT_CAP`]. Disabled cost is the usual one relaxed load
//! upstream.
//!
//! The dump format is deliberately simple — a magic header, a record
//! count, and fixed 32-byte little-endian records — decodable by
//! [`flight_decode`] and renderable as Chrome-trace JSON by
//! [`crate::chrome::flight_chrome_trace`] (see `examples/flight_decode.rs`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::ring::{self, Ring};
use crate::{enabled, now_ns};

/// Record kinds in the ring / dump format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A closed telemetry span: `code` = metric index, `a` = start ns,
    /// `b` = end ns.
    Span = 1,
    /// A point anomaly event (`EV_*` code); `a`/`b` carry context.
    Event = 2,
    /// A GC census delta: `a` = live bytes after, `b` = reclaimed bytes.
    Census = 3,
}

impl FlightKind {
    fn from_u32(v: u32) -> Option<FlightKind> {
        match v {
            1 => Some(FlightKind::Span),
            2 => Some(FlightKind::Event),
            3 => Some(FlightKind::Census),
            _ => None,
        }
    }
}

/// Event code: a recoverable allocation failure surfaced as `AllocError`
/// (`a` = requested bytes, `b` = live bytes at failure).
pub const EV_ALLOC_ERROR: u32 = 1;
/// Event code: the GC watchdog declared a phase stalled (`a` = phase
/// age ns, `b` = deadline ns).
pub const EV_WATCHDOG_STALL: u32 = 2;
/// Event code: a heap audit failed (`a` = issue count).
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

/// Human-readable name for an event/census code.
pub fn event_name(kind: FlightKind, code: u32) -> &'static str {
    match (kind, code) {
        (FlightKind::Event, EV_ALLOC_ERROR) => "alloc_error",
        (FlightKind::Event, EV_WATCHDOG_STALL) => "watchdog_stall",
        (FlightKind::Event, EV_AUDIT_FAILURE) => "audit_failure",
        (FlightKind::Event, EV_BREAKER_OPEN) => "breaker_open",
        (FlightKind::Event, EV_DEADLINE_STORM) => "deadline_storm",
        (FlightKind::Census, EV_LGC_CENSUS) => "lgc_census",
        (FlightKind::Census, EV_CGC_CENSUS) => "cgc_census",
        (FlightKind::Span, _) => "span",
        _ => "unknown",
    }
}

/// One decoded flight record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Record timestamp, ns since the telemetry epoch.
    pub t_ns: u64,
    /// Record kind.
    pub kind: FlightKind,
    /// Kind-specific code (metric index for spans, `EV_*` otherwise).
    pub code: u32,
    /// First payload word (see the kind docs).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
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
pub fn flight_record_at(t_ns: u64, kind: FlightKind, code: u32, a: u64, b: u64) {
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

/// The newest [`FLIGHT_CAP`] records — closed spans and anomaly/census
/// records interleaved — in global sequence (arrival) order.
pub fn flight_snapshot() -> Vec<FlightEvent> {
    let mut all: Vec<(u64, FlightEvent)> = EVENTS
        .snapshot()
        .into_iter()
        .filter_map(|r| {
            let [t_ns, meta, a, b] = r.words;
            let kind = FlightKind::from_u32((meta >> 32) as u32)?;
            let code = meta as u32;
            Some((
                r.seq,
                FlightEvent {
                    t_ns,
                    kind,
                    code,
                    a,
                    b,
                },
            ))
        })
        .collect();
    all.extend(crate::span::snapshot_spans().into_iter().map(|s| {
        let span = FlightEvent {
            t_ns: s.end_ns,
            kind: FlightKind::Span,
            code: s.kind as u32,
            a: s.start_ns,
            b: s.end_ns,
        };
        (s.seq, span)
    }));
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

// ---------------------------------------------------------------------------
// Binary dump format.
// ---------------------------------------------------------------------------

/// Magic bytes opening every flight dump (format version in the tail).
pub const FLIGHT_MAGIC: &[u8; 8] = b"MPLFLT01";

/// Encode records into the dump format: magic, little-endian u32 count,
/// then fixed 32-byte records (`t_ns`, `kind`, `code`, `a`, `b`).
pub fn flight_encode(events: &[FlightEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FLIGHT_MAGIC.len() + 4 + events.len() * 32);
    out.extend_from_slice(FLIGHT_MAGIC);
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for e in events {
        out.extend_from_slice(&e.t_ns.to_le_bytes());
        out.extend_from_slice(&(e.kind as u32).to_le_bytes());
        out.extend_from_slice(&e.code.to_le_bytes());
        out.extend_from_slice(&e.a.to_le_bytes());
        out.extend_from_slice(&e.b.to_le_bytes());
    }
    out
}

/// Decode a dump produced by [`flight_encode`].
pub fn flight_decode(bytes: &[u8]) -> Result<Vec<FlightEvent>, String> {
    if bytes.len() < FLIGHT_MAGIC.len() + 4 {
        return Err("truncated flight dump: missing header".to_string());
    }
    if &bytes[..FLIGHT_MAGIC.len()] != FLIGHT_MAGIC {
        return Err("not a flight dump (bad magic)".to_string());
    }
    let mut off = FLIGHT_MAGIC.len();
    let read_u32 = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    let read_u64 = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let count = read_u32(off) as usize;
    off += 4;
    if bytes.len() < off + count * 32 {
        return Err(format!(
            "truncated flight dump: header promises {count} records, payload holds {}",
            (bytes.len() - off) / 32
        ));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let base = off + i * 32;
        let kind = FlightKind::from_u32(read_u32(base + 8))
            .ok_or_else(|| format!("record {i}: unknown kind"))?;
        out.push(FlightEvent {
            t_ns: read_u64(base),
            kind,
            code: read_u32(base + 12),
            a: read_u64(base + 16),
            b: read_u64(base + 24),
        });
    }
    Ok(out)
}

/// Dump the current ring to a file and return its path.
///
/// The dump lands in `MPL_FLIGHT_DIR` if set, else the OS temp dir, as
/// `mpl-flight-<reason>-<pid>-<n>.bin`. Returns `None` when telemetry
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
        "mpl-flight-{reason}-{}-{n}.bin",
        std::process::id()
    ));
    let events = flight_snapshot();
    std::fs::write(&path, flight_encode(&events)).ok()?;
    Some(path)
}

/// Number of automatic dumps attempted since process start.
pub fn flight_dumps() -> u64 {
    DUMPS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::flight_chrome_trace;

    #[test]
    fn encode_decode_roundtrip() {
        let events = vec![
            FlightEvent {
                t_ns: 10,
                kind: FlightKind::Span,
                code: 0,
                a: 5,
                b: 10,
            },
            FlightEvent {
                t_ns: 20,
                kind: FlightKind::Event,
                code: EV_ALLOC_ERROR,
                a: 4096,
                b: 1 << 20,
            },
            FlightEvent {
                t_ns: 30,
                kind: FlightKind::Census,
                code: EV_LGC_CENSUS,
                a: 12345,
                b: 678,
            },
        ];
        let bytes = flight_encode(&events);
        assert_eq!(flight_decode(&bytes).unwrap(), events);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(flight_decode(b"short").is_err());
        assert!(flight_decode(b"NOTMAGIC\x00\x00\x00\x00").is_err());
        // Count promising more records than the payload holds.
        let mut bytes = FLIGHT_MAGIC.to_vec();
        bytes.extend_from_slice(&5u32.to_le_bytes());
        assert!(flight_decode(&bytes).is_err());
    }

    #[test]
    fn empty_dump_is_parseable() {
        let bytes = flight_encode(&[]);
        assert_eq!(flight_decode(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn ring_records_in_order_and_survives_wrap() {
        // Direct `flight_record_at` bypasses the enabled gate, so this
        // test is independent of other tests' telemetry refs.
        clear_flight();
        for i in 0..(FLIGHT_CAP as u64 + 10) {
            flight_record_at(i, FlightKind::Event, EV_WATCHDOG_STALL, i, 0);
        }
        let snap = flight_snapshot();
        assert_eq!(snap.len(), FLIGHT_CAP);
        // In arrival order, and only the newest CAP retained.
        assert!(snap.windows(2).all(|w| w[0].a < w[1].a));
        assert_eq!(snap.last().unwrap().a, FLIGHT_CAP as u64 + 9);
        clear_flight();
        assert!(flight_snapshot().is_empty());
    }

    #[test]
    fn chrome_trace_renders_all_kinds() {
        let events = vec![
            FlightEvent {
                t_ns: 10_000,
                kind: FlightKind::Span,
                code: 0,
                a: 5_000,
                b: 10_000,
            },
            FlightEvent {
                t_ns: 20_000,
                kind: FlightKind::Event,
                code: EV_WATCHDOG_STALL,
                a: 1,
                b: 2,
            },
        ];
        let json = flight_chrome_trace(&events);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"lgc_pause\""), "{json}");
        assert!(json.contains("\"watchdog_stall\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
