//! The GC phase clock: one guard times every collector section.
//!
//! A collector phase (an LGC phase, a CGC handshake, mark or sweep, one
//! CGC packet, a graveyard reap) or pause is opened with [`gc_phase`] or
//! [`gc_pause`] and timed by the one clock read the guard takes at entry,
//! whatever the telemetry setting. When it closes, that same start feeds
//! its [`Metric`]'s span and histogram (under telemetry only) and, through
//! [`GcSection::close`], the caller's always-on counters.
//!
//! A phase is also *published*: [`gc_phase`] writes its metric and entry
//! time into one process-global open-phase slot, which the runtime's GC
//! stall watchdog polls through [`open_phase`] without taking part in the
//! collection. The slot is best-effort by design: last writer wins, so
//! with several tasks collecting at once a stalled phase can be masked by
//! a healthy one until the healthy one exits. That is acceptable for a
//! watchdog (a persistent stall wins the slot as soon as everything else
//! drains) and keeps the always-on cost to a few relaxed stores per
//! phase. Each entry takes a fresh token, and an exit clears the slot
//! only while its own token is current, so a stale exit never clears a
//! newer entry. Pauses are not published: each one spans phases that are.
//!
//! Disabled cost: one clock read at entry; dropping a guard reads no
//! clock unless telemetry is on.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::metrics::{record_duration, Metric};
use crate::span::record_span;
use crate::{enabled, now_ns};

/// The open-phase slot: which phase was entered last, and when.
#[derive(Debug)]
struct OpenPhase {
    /// 0 = idle; otherwise the metric's discriminant + 1.
    phase: AtomicUsize,
    enter_ns: AtomicU64,
    token: AtomicU64,
    next_token: AtomicU64,
}

impl OpenPhase {
    const fn new() -> OpenPhase {
        OpenPhase {
            phase: AtomicUsize::new(0),
            enter_ns: AtomicU64::new(0),
            token: AtomicU64::new(0),
            next_token: AtomicU64::new(0),
        }
    }

    /// Publishes `kind` as entered at `at_ns`; returns the exit token.
    fn enter(&self, kind: Metric, at_ns: u64) -> u64 {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed) + 1;
        self.enter_ns.store(at_ns, Ordering::Relaxed);
        self.token.store(token, Ordering::Relaxed);
        self.phase.store(kind as usize + 1, Ordering::Relaxed);
        token
    }

    /// Clears the slot if `token`'s entry still owns it. Token 0, an
    /// unpublished section's, owns nothing.
    fn exit(&self, token: u64) {
        if token != 0 && self.token.load(Ordering::Relaxed) == token {
            self.phase.store(0, Ordering::Relaxed);
        }
    }

    fn current(&self) -> Option<(Metric, u64)> {
        let p = self.phase.load(Ordering::Relaxed);
        let kind = Metric::from_index(p.checked_sub(1)?)?;
        let age = now_ns().saturating_sub(self.enter_ns.load(Ordering::Relaxed));
        Some((kind, age))
    }
}

static OPEN: OpenPhase = OpenPhase::new();

/// The collector phase entered last and still open, with its age in
/// nanoseconds, if any.
pub fn open_phase() -> Option<(Metric, u64)> {
    OPEN.current()
}

/// A collector section in flight; see the module docs. Dropping it ends
/// the section; [`GcSection::close`] ends it and returns its length.
#[must_use = "a section is timed until the guard drops"]
#[derive(Debug)]
pub struct GcSection {
    kind: Metric,
    start: u64,
    /// The open-phase slot's exit token; 0 for an unpublished pause.
    token: u64,
}

/// Opens collector phase `kind` and publishes it to the open-phase slot.
#[inline]
pub fn gc_phase(kind: Metric) -> GcSection {
    let start = now_ns();
    let token = OPEN.enter(kind, start);
    GcSection { kind, start, token }
}

/// Opens collector pause `kind`, which the watchdog does not see.
#[inline]
pub fn gc_pause(kind: Metric) -> GcSection {
    GcSection {
        kind,
        start: now_ns(),
        token: 0,
    }
}

impl GcSection {
    /// Ends the section and returns its length in nanoseconds: the
    /// length its span and histogram record under telemetry.
    pub fn close(self) -> u64 {
        let ns = self.end(now_ns());
        std::mem::forget(self);
        ns
    }

    /// Ends the section without recording it (a pause that found nothing
    /// to collect).
    pub fn discard(self) {
        OPEN.exit(self.token);
        std::mem::forget(self);
    }

    /// Unpublishes the section and, under telemetry, records it as ending
    /// at `end_ns`; returns its length.
    fn end(&self, end_ns: u64) -> u64 {
        OPEN.exit(self.token);
        let ns = end_ns.saturating_sub(self.start);
        if enabled() {
            record_duration(self.kind, ns);
            record_span(self.kind, self.start, end_ns);
        }
        ns
    }
}

impl Drop for GcSection {
    fn drop(&mut self) {
        // The end is read only when something records it.
        let end_ns = if enabled() { now_ns() } else { self.start };
        self.end(end_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_exit_round_trip() {
        // A private slot: the global one is shared with every other test
        // in this binary.
        let c = OpenPhase::new();
        let t = c.enter(Metric::LgcShield, now_ns());
        assert_eq!(c.current().expect("phase open").0, Metric::LgcShield);
        c.exit(t);
        assert!(c.current().is_none());
        // A stale exit must not clear a newer entry.
        let t2 = c.enter(Metric::CgcMark, now_ns());
        c.exit(t);
        assert_eq!(c.current().expect("still open").0, Metric::CgcMark);
        c.exit(t2);
        assert!(c.current().is_none());
    }
}
