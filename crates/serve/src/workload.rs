//! Per-session state and fork/join request bodies.
//!
//! Every session owns three structures in its tenant's heap forest, all
//! rooted on the tenant's persistent root stack so they survive between
//! requests and across collections:
//!
//! * a **cache**: a mutable array of payload slots, overwritten by
//!   inserts (old payloads become garbage — the flat-memory invariant
//!   depends on the local collector reclaiming them);
//! * **counters**: a raw (pointer-free) array, updated with atomic RMWs
//!   from concurrent branches without any barrier traffic;
//! * a **feed**: a cons list pushed at the head and truncated once it
//!   reaches [`FEED_CAP`], bounding retained memory.
//!
//! Requests fork two branches over this state. Under
//! [`Profile::Disentangled`] the branches touch disjoint cache halves and
//! only read pre-request (ancestor-heap) objects, so the entanglement
//! barrier stays on its fast path. Under [`Profile::Entangled`] branches
//! deliberately publish fresh allocations into slots the sibling reads —
//! the sibling's read observes a remote object and the runtime pins it:
//! sustained entanglement pressure, the adversarial case E12 measures.
//!
//! Code here follows the moving-collector discipline the benchmark
//! suite uses throughout: a `Value` resolved from a [`Handle`] is
//! re-resolved (`m.get`) after every allocation and every fork, because
//! either may trigger a local collection that moves the object.

use mpl_heap::Value;
use mpl_runtime::{Handle, Mutator};

use crate::traffic::RequestKind;

/// Feed length at which the list is dropped and restarted. Bounds each
/// session's retained feed memory.
pub const FEED_CAP: u64 = 256;

/// Counter slot indices in the session's raw counter array.
const C_REQUESTS: usize = 0;
const C_READS: usize = 1;
const C_INSERTS: usize = 2;
const C_FEED_PUSHES: usize = 3;
const C_FEED_LEN: usize = 4;
const C_SCANS: usize = 5;
/// Number of raw counter slots.
const C_SLOTS: usize = 6;

/// How sibling branches of a request touch shared session state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Branches read only ancestor-heap data and write disjoint slots:
    /// no entangled reads, no pins, barrier fast path throughout.
    Disentangled,
    /// Branches publish fresh allocations into slots the sibling then
    /// reads: entangled reads, pinning, remset and CGC traffic.
    Entangled,
}

/// Handles to one session's rooted state. Cloneable (handles are slot
/// references into the tenant's persistent root stack).
#[derive(Clone, Debug)]
pub struct SessionState {
    /// The payload cache array.
    pub cache: Handle,
    /// The raw counter array.
    pub counters: Handle,
    /// Ref cell holding the feed list head (`Unit` when empty).
    pub feed: Handle,
    /// Cache slot count (fixed at init).
    pub slots: usize,
}

/// Allocates one session's state in the current (tenant root) heap and
/// roots it on the task's — i.e. the tenant session's — root stack.
/// Each structure is rooted before the next allocation so a collection
/// triggered mid-init cannot sweep it.
pub fn init_session(m: &mut Mutator<'_>, cache_slots: usize) -> SessionState {
    let slots = cache_slots.max(2);
    let cache = m.alloc_array(slots, Value::Unit);
    let cache = m.root(cache);
    let counters = m.alloc_raw(C_SLOTS);
    let counters = m.root(counters);
    let feed = m.alloc_ref(Value::Unit);
    let feed = m.root(feed);
    SessionState {
        cache,
        counters,
        feed,
        slots,
    }
}

/// Runs one request against `st`. Returns a checksum value (ignored by
/// the server, asserted by tests).
pub fn run_request(
    m: &mut Mutator<'_>,
    st: &SessionState,
    kind: RequestKind,
    size: usize,
    profile: Profile,
) -> Value {
    let counters = m.get(&st.counters);
    let seq = m.raw_fetch_add(counters, C_REQUESTS, 1);
    match kind {
        RequestKind::Read => read_request(m, st, seq),
        RequestKind::Insert => insert_request(m, st, seq, size, profile),
        RequestKind::Feed => feed_request(m, st, seq, size, profile),
        RequestKind::Scan => scan_request(m, st, seq),
    }
}

/// Sums payloads over one half of the cache. Reads only (no allocation,
/// so the resolved array cannot move mid-loop); every object it can see
/// was merged into the tenant root heap by an earlier join — or, under
/// the entangled profile, freshly published by the concurrent sibling.
fn sum_range(m: &mut Mutator<'_>, st: &SessionState, lo: usize, hi: usize) -> i64 {
    let cache = m.get(&st.cache);
    let mut acc = 0i64;
    for i in lo..hi {
        let v = m.arr_get(cache, i);
        if let Value::Obj(_) = v {
            if let Value::Int(x) = m.arr_get(v, 0) {
                acc = acc.wrapping_add(x);
            }
        }
    }
    acc
}

fn bump(m: &mut Mutator<'_>, st: &SessionState, slot: usize, by: u64) -> u64 {
    let counters = m.get(&st.counters);
    m.raw_fetch_add(counters, slot, by)
}

fn read_request(m: &mut Mutator<'_>, st: &SessionState, _seq: u64) -> Value {
    let mid = st.slots / 2;
    let slots = st.slots;
    let (stl, str_) = (st.clone(), st.clone());
    let (a, b) = m.fork(
        move |m| Value::Int(sum_range(m, &stl, 0, mid)),
        move |m| Value::Int(sum_range(m, &str_, mid, slots)),
    );
    bump(m, st, C_READS, 1);
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(y)),
        _ => Value::Unit,
    }
}

/// Allocates one payload array of `size` cells, first cell = `tag`.
fn alloc_payload(m: &mut Mutator<'_>, size: usize, tag: i64) -> Value {
    m.alloc_array(size.max(1) * 8, Value::Int(tag))
}

/// One insert branch: publish a fresh payload into `write_slot`, then
/// read back `read_slot` (under the entangled profile that is the slot
/// the *sibling* writes, so the read may observe a remote object).
fn insert_branch(
    m: &mut Mutator<'_>,
    st: &SessionState,
    write_slot: usize,
    read_slot: usize,
    size: usize,
    tag: i64,
) -> Value {
    let p = alloc_payload(m, size, tag);
    // Re-resolve: the payload allocation may have moved the cache.
    let cache = m.get(&st.cache);
    m.arr_set(cache, write_slot, p);
    let v = m.arr_get(cache, read_slot);
    if let Value::Obj(_) = v {
        m.arr_get(v, 0)
    } else {
        Value::Int(0)
    }
}

fn insert_request(
    m: &mut Mutator<'_>,
    st: &SessionState,
    seq: u64,
    size: usize,
    profile: Profile,
) -> Value {
    let slots = st.slots;
    let mid = slots / 2;
    // Each branch publishes a fresh payload. Disentangled: branches keep
    // to their own half and read back only their *own* slot. Entangled:
    // each branch reads the slot the *sibling* writes — whichever branch
    // reads after its sibling's write observes a remote (unjoined-heap)
    // object, and the barrier pins it.
    let la = (seq as usize) % mid.max(1);
    let rb = mid + (seq as usize) % (slots - mid).max(1);
    let (read_l, read_r) = match profile {
        Profile::Disentangled => (la, rb),
        Profile::Entangled => (rb, la),
    };
    let (stl, str_) = (st.clone(), st.clone());
    let tag = seq as i64;
    let (a, b) = m.fork(
        move |m| insert_branch(m, &stl, la, read_l, size, tag),
        move |m| insert_branch(m, &str_, rb, read_r, size, -tag),
    );
    bump(m, st, C_INSERTS, 1);
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(y)),
        _ => Value::Unit,
    }
}

/// Pushes `n` nodes onto the feed list head. Re-resolves the head ref
/// on every iteration: each node allocation can move it.
fn push_feed(m: &mut Mutator<'_>, st: &SessionState, n: usize, tag: i64) -> i64 {
    let mut acc = 0i64;
    for i in 0..n {
        let feed = m.get(&st.feed);
        let head = m.read_ref(feed);
        let node = m.alloc_tuple(&[Value::Int(tag.wrapping_add(i as i64)), head]);
        let feed = m.get(&st.feed);
        m.write_ref(feed, node);
        acc = acc.wrapping_add(tag.wrapping_add(i as i64));
    }
    acc
}

/// Walks up to `limit` feed nodes, summing values. Read-only: no
/// allocation, so the chain cannot move underfoot (remote nodes are
/// pinned by the read barrier as they are traversed).
fn walk_feed(m: &mut Mutator<'_>, st: &SessionState, limit: usize) -> i64 {
    let feed = m.get(&st.feed);
    let mut cur = m.read_ref(feed);
    let mut acc = 0i64;
    let mut n = 0;
    while let Value::Obj(_) = cur {
        if n >= limit {
            break;
        }
        if let Value::Int(x) = m.tuple_get(cur, 0) {
            acc = acc.wrapping_add(x);
        }
        cur = m.tuple_get(cur, 1);
        n += 1;
    }
    acc
}

fn feed_request(
    m: &mut Mutator<'_>,
    st: &SessionState,
    seq: u64,
    size: usize,
    profile: Profile,
) -> Value {
    let n = size.max(1);
    let (stl, str_) = (st.clone(), st.clone());
    let (a, b) = match profile {
        // Left pushes; right only touches the pointer-free counters, so
        // it never observes the sibling's fresh nodes.
        Profile::Disentangled => m.fork(
            move |m| Value::Int(push_feed(m, &stl, n, seq as i64)),
            move |m| {
                let c = bump(m, &str_, C_FEED_PUSHES, n as u64);
                Value::Int(c as i64)
            },
        ),
        // Left pushes while right walks the head: the walk crosses into
        // the sibling's unjoined heap and pins every node it traverses.
        Profile::Entangled => m.fork(
            move |m| Value::Int(push_feed(m, &stl, n, seq as i64)),
            move |m| {
                bump(m, &str_, C_FEED_PUSHES, n as u64);
                Value::Int(walk_feed(m, &str_, n * 2))
            },
        ),
    };
    // Truncate: once the list reaches FEED_CAP the whole chain is
    // dropped, so retained feed memory is bounded and the old nodes are
    // the local collector's to reclaim.
    let len = bump(m, st, C_FEED_LEN, n as u64) + n as u64;
    if len >= FEED_CAP {
        let feed = m.get(&st.feed);
        m.write_ref(feed, Value::Unit);
        let counters = m.get(&st.counters);
        m.raw_set(counters, C_FEED_LEN, 0);
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(y)),
        _ => Value::Unit,
    }
}

fn scan_request(m: &mut Mutator<'_>, st: &SessionState, _seq: u64) -> Value {
    let slots = st.slots;
    let (stl, str_) = (st.clone(), st.clone());
    let (a, b) = m.fork(
        move |m| Value::Int(walk_feed(m, &stl, FEED_CAP as usize)),
        move |m| Value::Int(sum_range(m, &str_, 0, slots)),
    );
    bump(m, st, C_SCANS, 1);
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(y)),
        _ => Value::Unit,
    }
}

/// Reads the session's request counter (tests/diagnostics).
pub fn requests_counted(m: &mut Mutator<'_>, st: &SessionState) -> u64 {
    let counters = m.get(&st.counters);
    m.raw_get(counters, C_REQUESTS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::RequestKind;
    use mpl_runtime::{FailAction, FailPlan, FailWhen, Runtime, RuntimeConfig};

    fn drive(profile: Profile) -> (u64, mpl_heap::StatsSnapshot) {
        drive_on(profile, RuntimeConfig::managed().with_threads_exact(2))
    }

    fn drive_on(profile: Profile, config: RuntimeConfig) -> (u64, mpl_heap::StatsSnapshot) {
        let rt = Runtime::new(config);
        let session = rt.new_tenant("w", 0);
        let mut states = Vec::new();
        rt.run_session(&session, |m| {
            states.push(init_session(m, 16));
            Value::Unit
        });
        let st = states.pop().unwrap();
        let kinds = [
            RequestKind::Insert,
            RequestKind::Read,
            RequestKind::Feed,
            RequestKind::Insert,
            RequestKind::Scan,
            RequestKind::Feed,
        ];
        for (i, k) in kinds.iter().cycle().take(60).enumerate() {
            let stc = st.clone();
            rt.run_session(&session, move |m| {
                run_request(m, &stc, *k, 1 + i % 4, profile)
            });
        }
        let stc = st.clone();
        let counted = match rt.run_session(&session, move |m| {
            Value::Int(requests_counted(m, &stc) as i64)
        }) {
            Value::Int(x) => x as u64,
            _ => 0,
        };
        rt.assert_heap_sound();
        (counted, rt.stats())
    }

    #[test]
    fn disentangled_requests_never_pin() {
        let (counted, stats) = drive(Profile::Disentangled);
        assert_eq!(counted, 60);
        assert_eq!(stats.entangled_reads, 0, "disentangled profile pinned");
        assert_eq!(stats.pins, 0);
    }

    #[test]
    fn entangled_requests_pin_and_unpin() {
        // One worker: each right branch runs after its sibling, in its
        // heap, and reads what the sibling published locally.
        let (counted, stats) = drive_on(Profile::Entangled, RuntimeConfig::managed());
        assert_eq!(counted, 60);
        assert_eq!(stats.pins, 0, "{stats:?}");
        // Two workers, with every block refill sleeping 200 µs so the idle
        // worker steals the branch left on the deque: the stolen branches
        // read their running siblings' publications.
        let steal =
            FailPlan::new(0).with("heap/alloc", FailAction::Delay(200_000), FailWhen::Always);
        let config = RuntimeConfig::managed()
            .with_threads_exact(2)
            .with_failpoints(steal);
        let (counted, stats) = drive_on(Profile::Entangled, config);
        assert_eq!(counted, 60);
        assert!(stats.sched_steals > 0, "{stats:?}");
        assert!(stats.pins > 0, "entangled profile never entangled");
        assert_eq!(stats.pins, stats.unpins, "every pin ends at a join");
    }

    #[test]
    fn state_survives_across_requests() {
        let rt = Runtime::new(RuntimeConfig::managed());
        let session = rt.new_tenant("persist", 0);
        let mut states = Vec::new();
        rt.run_session(&session, |m| {
            states.push(init_session(m, 8));
            Value::Unit
        });
        let st = states.pop().unwrap();
        for i in 0..200u64 {
            let stc = st.clone();
            rt.run_session(&session, move |m| {
                run_request(m, &stc, RequestKind::Insert, 4, Profile::Disentangled)
            });
            // Plenty of garbage from overwritten slots; collections run
            // via carried debt. State must stay readable throughout.
            if i % 50 == 49 {
                let stc = st.clone();
                let counted = rt.run_session(&session, move |m| {
                    Value::Int(requests_counted(m, &stc) as i64)
                });
                assert!(matches!(counted, Value::Int(x) if x as u64 >= i));
            }
        }
        rt.assert_heap_sound();
    }
}
