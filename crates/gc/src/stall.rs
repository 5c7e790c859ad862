//! GC phase stall clock: which phase is running, and since when.
//!
//! The chaos harness injects delays into collector phases and needs an
//! external observer (the runtime's watchdog thread) that can tell "a GC
//! phase has been open for longer than the deadline" without participating
//! in the collection. This module is that clock: phase entry/exit publish a
//! `(phase, enter-timestamp)` pair into three atomics.
//!
//! Best-effort by design: the slot is process-global and last-writer-wins,
//! so with several tasks collecting at once a stalled phase can be masked
//! by a healthy one until the healthy one exits. That is acceptable for a
//! watchdog (a persistent stall wins the slot as soon as everything else
//! drains) and keeps the always-on cost to two relaxed stores per phase.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Phase names an open slot can report, indexed by the `enter` argument.
pub const PHASES: [&str; 6] = [
    "lgc/shield",
    "lgc/evacuate",
    "lgc/reclaim",
    "cgc/mark",
    "cgc/sweep",
    "graveyard/reap",
];

/// Index into [`PHASES`] for the LGC shield phase.
pub const LGC_SHIELD: usize = 0;
/// Index into [`PHASES`] for the LGC evacuate phase.
pub const LGC_EVACUATE: usize = 1;
/// Index into [`PHASES`] for the LGC reclaim phase.
pub const LGC_RECLAIM: usize = 2;
/// Index into [`PHASES`] for CGC marking.
pub const CGC_MARK: usize = 3;
/// Index into [`PHASES`] for CGC sweeping.
pub const CGC_SWEEP: usize = 4;
/// Index into [`PHASES`] for graveyard reaping.
pub const GRAVEYARD: usize = 5;

#[derive(Debug, Default)]
struct StallClock {
    /// 0 = idle; otherwise `phase index + 1`.
    phase: AtomicUsize,
    enter_ns: AtomicU64,
    token: AtomicU64,
    next_token: AtomicU64,
}

impl StallClock {
    fn enter(&self, idx: usize) -> u64 {
        debug_assert!(idx < PHASES.len());
        let token = self.next_token.fetch_add(1, Ordering::Relaxed) + 1;
        self.enter_ns.store(mpl_obs::now_ns(), Ordering::Relaxed);
        self.token.store(token, Ordering::Relaxed);
        self.phase.store(idx + 1, Ordering::Relaxed);
        token
    }

    fn exit(&self, token: u64) {
        if self.token.load(Ordering::Relaxed) == token {
            self.phase.store(0, Ordering::Relaxed);
        }
    }

    fn current(&self) -> Option<(&'static str, u64)> {
        let p = self.phase.load(Ordering::Relaxed);
        if p == 0 {
            return None;
        }
        let name = PHASES.get(p - 1)?;
        let age = mpl_obs::now_ns().saturating_sub(self.enter_ns.load(Ordering::Relaxed));
        Some((name, age))
    }
}

static GLOBAL: StallClock = StallClock {
    phase: AtomicUsize::new(0),
    enter_ns: AtomicU64::new(0),
    token: AtomicU64::new(0),
    next_token: AtomicU64::new(0),
};

/// Marks phase `idx` (an index into [`PHASES`]) as entered now. Returns a
/// token for [`exit`]; an enter while another phase is open simply takes
/// over the slot (last-writer-wins).
pub fn enter(idx: usize) -> u64 {
    GLOBAL.enter(idx)
}

/// Clears the slot if this enterer still owns it.
pub fn exit(token: u64) {
    GLOBAL.exit(token)
}

/// The currently open phase and its age in nanoseconds, if any.
pub fn current() -> Option<(&'static str, u64)> {
    GLOBAL.current()
}

static REPORTS: AtomicU64 = AtomicU64::new(0);

/// Records that the watchdog flagged a stalled phase and dumped state.
/// Called by the runtime's watchdog thread; tests use [`reports`] to
/// assert that whole cycles under load, their clock re-armed by every
/// packet and handshake, do *not* trip it.
pub fn note_report() {
    REPORTS.fetch_add(1, Ordering::Relaxed);
}

/// Number of stall reports the watchdog has emitted, process-wide.
pub fn reports() -> u64 {
    REPORTS.load(Ordering::Relaxed)
}

/// RAII wrapper around [`enter`]/[`exit`] for phases with multiple exit
/// paths.
#[derive(Debug)]
pub struct StallGuard(u64);

/// Enters phase `idx`; the returned guard exits it on drop.
pub fn guard(idx: usize) -> StallGuard {
    StallGuard(enter(idx))
}

impl Drop for StallGuard {
    fn drop(&mut self) {
        exit(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_exit_round_trip() {
        // A private clock: the global one is shared with every other test
        // in this binary (any collection touches it).
        let c = StallClock::default();
        let t = c.enter(LGC_SHIELD);
        assert_eq!(c.current().expect("phase open").0, "lgc/shield");
        c.exit(t);
        assert!(c.current().is_none());
        // A stale exit must not clear a newer enter.
        let t2 = c.enter(CGC_MARK);
        c.exit(t);
        assert_eq!(c.current().expect("still open").0, "cgc/mark");
        c.exit(t2);
        assert!(c.current().is_none());
    }
}
