//! The one lock-free diagnostic ring: fixed slots, overwrite-oldest,
//! seqlock-validated reads.
//!
//! Every bounded in-memory record stream of the runtime — telemetry
//! spans, GC audit events, flight-recorder anomalies, entanglement
//! provenance samples — is an instance of [`Ring`], with one shard or
//! with one per worker. All instances draw from **one** process-global
//! sequence counter, so records from different streams merge into one
//! causal order, and shard by **one** worker id ([`register_worker`]).
//!
//! # Slot protocol
//!
//! A slot is a sequence word plus `WORDS` payload words. A writer claims
//! a slot by `fetch_add` on its shard's cursor, swaps `BUSY` into the
//! sequence word, stores the payload relaxed behind a release fence, and
//! publishes by storing its (globally unique, nonzero) sequence number
//! with `Release`.
//! A reader loads the sequence word with `Acquire`, skips `0` (empty) and
//! `BUSY`, reads the payload relaxed, and **re-loads the sequence word
//! after an acquire fence**, discarding the record unless both loads
//! agree:
//!
//! * agreement means the second load read the very store that published
//!   the first value (sequence numbers are never reused), so no writer's
//!   `BUSY` swap precedes it — and a payload word can only come from a
//!   later writer if that writer's swap happened-before the re-load
//!   (release fence after the swap, acquire fence before the re-load);
//! * the first `Acquire` load synchronises with the publishing `Release`
//!   store, so no payload word is older than the published record either.
//!
//! That holds however many times the ring wraps during the read: a lapped
//! writer landing on the slot mid-read changes the sequence word first.
//! Two *writers* can also meet on one slot (one stalls mid-write while
//! the cursor laps it); the swap arbitrates — whoever finds `BUSY`
//! already there drops its record instead of interleaving payload words,
//! so a published sequence number always names one writer's payload.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// The process-global sequence: every record of every ring gets the next
/// value, starting at 1 (0 marks an empty slot).
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Sequence-word value of a slot whose payload is being written.
const BUSY: u64 = u64::MAX;

/// The most recently assigned sequence number (0 before the first push).
pub fn current_seq() -> u64 {
    SEQ.load(Ordering::Relaxed)
}

/// Worker ids of threads that never called [`register_worker`] start
/// here, far above any pool index, so their records never alias a pool
/// worker's. A multiple of [`SHARDS`], so the n-th such thread shares
/// shard `n % SHARDS`.
pub const UNREGISTERED_BASE: usize = 1 << 16;
static NEXT_UNREGISTERED: AtomicUsize = AtomicUsize::new(UNREGISTERED_BASE);

thread_local! {
    static WORKER_ID: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Makes `index` the calling thread's worker id: its records land in
/// shard `index % SHARDS` of every per-worker ring and its spans on the
/// `worker-<index>` timeline track. The scheduler calls this whenever a
/// thread takes a pool-worker role.
pub fn register_worker(index: usize) {
    WORKER_ID.with(|c| c.set(index));
}

/// The calling thread's worker id: its registered pool index, or a
/// process-unique id at or above [`UNREGISTERED_BASE`] assigned on first
/// use.
pub fn worker_id() -> usize {
    WORKER_ID.with(|c| {
        let mut id = c.get();
        if id == usize::MAX {
            id = NEXT_UNREGISTERED.fetch_add(1, Ordering::Relaxed);
            c.set(id);
        }
        id
    })
}

/// One validated record read out of a ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record<const WORDS: usize> {
    /// Global sequence number (arrival order across every ring).
    pub seq: u64,
    /// The shard it was read from (the writer's worker id modulo the
    /// ring's shard count).
    pub shard: usize,
    /// The payload as pushed.
    pub words: [u64; WORDS],
}

struct Slot<const WORDS: usize> {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

struct Shard<const WORDS: usize, const CAP: usize> {
    /// Records ever pushed; slot `cursor % CAP` is written next.
    cursor: AtomicUsize,
    slots: [Slot<WORDS>; CAP],
}

/// Shard count of the per-worker rings. Sharing a shard is harmless
/// (records carry global sequence numbers), it only shortens per-thread
/// history.
pub const SHARDS: usize = 32;

/// A fixed-capacity, overwrite-oldest ring of `WORDS`-word records: `CAP`
/// slots in each of `SHARDS` shards, a thread pushing into shard
/// `worker_id() % SHARDS`. One shard is a plain shared ring; [`SHARDS`]
/// of them give each worker its own, so the common case is a single
/// writer per shard and a busy worker cannot evict a quiet worker's
/// history. Const-constructible, so instances are plain `static`s; any
/// number of threads may push and snapshot concurrently.
pub struct Ring<const WORDS: usize, const CAP: usize, const SHARDS: usize = 1> {
    shards: [Shard<WORDS, CAP>; SHARDS],
}

impl<const WORDS: usize, const CAP: usize, const SHARDS: usize> Ring<WORDS, CAP, SHARDS> {
    /// An empty ring.
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        Ring {
            shards: [const {
                Shard {
                    cursor: AtomicUsize::new(0),
                    slots: [const {
                        Slot {
                            seq: AtomicU64::new(0),
                            words: [const { AtomicU64::new(0) }; WORDS],
                        }
                    }; CAP],
                }
            }; SHARDS],
        }
    }

    /// Appends one record to the calling worker's shard, overwriting the
    /// shard's oldest once it is full. Wait-free: three atomic RMWs,
    /// `WORDS + 1` stores. Never inlined: every caller sits behind an
    /// enabled-check in otherwise hot code, which should stay small.
    #[inline(never)]
    pub fn push(&self, words: [u64; WORDS]) {
        let seq = SEQ.fetch_add(1, Ordering::Relaxed) + 1;
        let shard = &self.shards[worker_id() % SHARDS];
        let slot = &shard.slots[shard.cursor.fetch_add(1, Ordering::Relaxed) % CAP];
        // `Acquire` orders our payload stores after the previous
        // occupant's (its publishing store heads the release sequence
        // this swap reads from).
        if slot.seq.swap(BUSY, Ordering::Acquire) == BUSY {
            return; // a lapped writer is still mid-write here; see module docs
        }
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(seq, Ordering::Release);
    }

    /// The retained records of every shard, merged into sequence (arrival)
    /// order. Safe against concurrent pushes: a slot caught mid-write or
    /// overwritten during the read is left out, never returned torn.
    pub fn snapshot(&self) -> Vec<Record<WORDS>> {
        let mut out = Vec::new();
        for (shard, ring) in self.shards.iter().enumerate() {
            let filled = ring.cursor.load(Ordering::Relaxed).min(CAP);
            out.extend(ring.slots[..filled].iter().filter_map(|slot| {
                let seq = slot.seq.load(Ordering::Acquire);
                if seq == 0 || seq == BUSY {
                    return None;
                }
                let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
                fence(Ordering::Acquire);
                (slot.seq.load(Ordering::Relaxed) == seq).then_some(Record { seq, shard, words })
            }));
        }
        out.sort_unstable_by_key(|r| r.seq);
        out
    }

    /// Records ever pushed (retained or not) since the last [`clear`](Self::clear).
    pub fn pushed(&self) -> u64 {
        let pushed = |s: &Shard<WORDS, CAP>| s.cursor.load(Ordering::Relaxed) as u64;
        self.shards.iter().map(pushed).sum()
    }

    /// Records lost to wraparound since the last [`clear`](Self::clear).
    pub fn overwritten(&self) -> u64 {
        let lost = |s: &Shard<WORDS, CAP>| s.cursor.load(Ordering::Relaxed).saturating_sub(CAP);
        self.shards.iter().map(lost).sum::<usize>() as u64
    }

    /// Empties the ring and zeroes its counts (harness use between
    /// phases; racy against concurrent writers by design).
    pub fn clear(&self) {
        for shard in &self.shards {
            let filled = shard.cursor.load(Ordering::Relaxed).min(CAP);
            for slot in &shard.slots[..filled] {
                slot.seq.store(0, Ordering::Release);
            }
            shard.cursor.store(0, Ordering::Relaxed);
        }
    }
}
