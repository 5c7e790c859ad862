//! Structured entanglement/GC event hooks.
//!
//! The collectors, the store, and the runtime's barriers announce
//! *events* — pin, unpin, remembered-set traffic, dead-marks, shield
//! tagging and boundary crossings, block retire/free — through this
//! module. When tracing is off (the default) an emission is a single
//! relaxed atomic load and a predicted-not-taken branch, so the
//! disentangled fast path keeps the paper's near-zero-cost discipline.
//! When tracing is on, events go into a per-worker [`Ring`] (the `mpl-obs`
//! ring primitive); `mpl-gc`'s `audit` module switches tracing
//! on and dumps the rings in global sequence order to reconstruct the
//! exact interleaving behind a GC audit failure.

use std::sync::atomic::{AtomicBool, Ordering};

use mpl_obs::ring::{Record, Ring, SHARDS};

use crate::value::ObjRef;

/// `aux` value for [`EventKind::DeadMark`]: killed by the local
/// collector's reclaim phase.
pub const DEAD_BY_LGC: u32 = 0;
/// `aux` value for [`EventKind::DeadMark`]: swept by the entanglement
/// (full-heap) collector.
pub const DEAD_BY_CGC: u32 = 1;
/// `aux` value for [`EventKind::DeadMark`]: an abandoned evacuation copy
/// (never published, killed by the copying collector's unwind path).
pub const DEAD_BY_ABANDON: u32 = 2;

/// What happened. Each variant documents how the generic `block`/`word`
/// (the subject object, when there is one) and `aux` fields are used.
#[repr(u8)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// An object was newly pinned (`aux` = pin level).
    Pin = 0,
    /// An object was unpinned at a join (`aux` = join depth).
    Unpin = 1,
    /// A remembered-set entry was recorded (`block`/`word` name the
    /// *source* object, `aux` = field index).
    RemsetInsert = 2,
    /// A remembered-set source field was repaired after an evacuation
    /// (`block`/`word` name the source object, `aux` = field index).
    RemsetRepair = 3,
    /// An object was dead-marked (`aux` = one of [`DEAD_BY_LGC`],
    /// [`DEAD_BY_CGC`], [`DEAD_BY_ABANDON`]).
    DeadMark = 4,
    /// The shield closure tagged an object into its heap's entangled
    /// space (`aux` = the collecting heap's id).
    Entangle = 5,
    /// The shield closure traversed *through* a foreign object — a
    /// cross-heap hop on a path from a pinned root (`block`/`word` name
    /// the foreign object, `aux` = the block the edge came from).
    ShieldCross = 6,
    /// A block was freed (`block` = its id, `aux` = its last owner).
    BlockFree = 7,
    /// A block was retired to the graveyard (`block` = its id).
    BlockRetire = 8,
    /// The allocation barrier pinned a remote pointee of a freshly
    /// allocated object (`aux` = pin level).
    AllocPin = 9,
    /// A mutator-private remembered-set buffer was flushed into a heap
    /// (`block` = the destination heap id, `aux` = entries published).
    RemsetFlush = 10,
    /// A scheduler worker finished executing a job (`aux` = the worker's
    /// pool index). Task-boundary markers let event-ring dumps
    /// reconstruct which task interleavings surround a GC failure.
    TaskBoundary = 11,
}

impl EventKind {
    /// Short stable name, used by the audit layer's dump format.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Pin => "pin",
            EventKind::Unpin => "unpin",
            EventKind::RemsetInsert => "remset-insert",
            EventKind::RemsetRepair => "remset-repair",
            EventKind::DeadMark => "dead-mark",
            EventKind::Entangle => "entangle",
            EventKind::ShieldCross => "shield-cross",
            EventKind::BlockFree => "block-free",
            EventKind::BlockRetire => "block-retire",
            EventKind::AllocPin => "alloc-pin",
            EventKind::RemsetFlush => "remset-flush",
            EventKind::TaskBoundary => "task-boundary",
        }
    }

    /// Decodes the `repr(u8)` discriminant (ring slots store raw bits).
    pub fn from_bits(bits: u8) -> Option<EventKind> {
        Some(match bits {
            0 => EventKind::Pin,
            1 => EventKind::Unpin,
            2 => EventKind::RemsetInsert,
            3 => EventKind::RemsetRepair,
            4 => EventKind::DeadMark,
            5 => EventKind::Entangle,
            6 => EventKind::ShieldCross,
            7 => EventKind::BlockFree,
            8 => EventKind::BlockRetire,
            9 => EventKind::AllocPin,
            10 => EventKind::RemsetFlush,
            11 => EventKind::TaskBoundary,
            _ => return None,
        })
    }
}

/// One recorded event, decoded from the rings.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Global sequence number (arrival order).
    pub seq: u64,
    /// The ring shard (emitting worker's id modulo the shard count).
    pub ring: usize,
    /// What happened.
    pub kind: EventKind,
    /// Block id of the subject (or the block itself for block events).
    pub block: u32,
    /// Word offset of the subject within its block (0 for block events).
    pub word: u32,
    /// Kind-specific extra word (see [`EventKind`]).
    pub aux: u32,
}

/// Events retained per worker shard; older events are overwritten
/// (counted as overflows).
const RING_CAP: usize = 16384;

static TRACING: AtomicBool = AtomicBool::new(false);
/// Payload: `kind << 32 | block`, `aux << 32 | word`.
static RINGS: Ring<2, RING_CAP, SHARDS> = Ring::new();

/// Turns event emission on or off. Off is the default; emission sites
/// pay one relaxed load either way.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Release);
}

/// Whether events are currently being recorded.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Emits one event into the calling worker's ring if tracing is enabled.
#[inline]
pub fn emit(kind: EventKind, block: u32, word: u32, aux: u32) {
    if !TRACING.load(Ordering::Relaxed) {
        return;
    }
    RINGS.push([
        (u64::from(kind as u8) << 32) | u64::from(block),
        (u64::from(aux) << 32) | u64::from(word),
    ]);
}

/// Every retained event in global sequence order. Safe to call while
/// workers keep emitting.
pub fn snapshot() -> Vec<Event> {
    let decode = |r: Record<2>| {
        let [a, b] = r.words;
        Some(Event {
            seq: r.seq,
            ring: r.shard,
            kind: EventKind::from_bits((a >> 32) as u8)?,
            block: a as u32,
            word: b as u32,
            aux: (b >> 32) as u32,
        })
    };
    RINGS.snapshot().into_iter().filter_map(decode).collect()
}

/// `(recorded, overwritten)`: events ever emitted into the rings, and how
/// many of those wraparound has since evicted.
pub fn recorded() -> (u64, u64) {
    (RINGS.pushed(), RINGS.overwritten())
}

/// Emits one event about an object reference.
#[inline]
pub fn emit_obj(kind: EventKind, r: ObjRef, aux: u32) {
    emit(kind, r.block(), r.word(), aux);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_through_bits() {
        for k in [
            EventKind::Pin,
            EventKind::Unpin,
            EventKind::RemsetInsert,
            EventKind::RemsetRepair,
            EventKind::DeadMark,
            EventKind::Entangle,
            EventKind::ShieldCross,
            EventKind::BlockFree,
            EventKind::BlockRetire,
            EventKind::AllocPin,
            EventKind::RemsetFlush,
            EventKind::TaskBoundary,
        ] {
            assert_eq!(EventKind::from_bits(k as u8), Some(k), "{}", k.name());
        }
        assert_eq!(EventKind::from_bits(200), None);
    }

    #[test]
    fn emission_with_tracing_off_records_nothing() {
        // Nothing in this test binary turns tracing on.
        emit(EventKind::Pin, 1, 2, 3);
        assert_eq!(recorded(), (0, 0));
        assert!(snapshot().is_empty());
    }
}
