//! GC phase-boundary audits and the entanglement-event ring buffer.
//!
//! Two halves, both off by default and together costing one predicted
//! branch per event site when disabled:
//!
//! 1. **Phase audits** — [`audit_phase`] re-validates heap invariants at
//!    the end of each collector phase (LGC shield/evacuate/reclaim, CGC
//!    sweep, graveyard reap): the shield closure must be intact, no
//!    *reachable* object may carry a dead mark
//!    ([`check_dead_reachability`] — the check that catches a reclaim
//!    mis-mark at the marking site instead of cycles later at a trace),
//!    and no live field may dangle
//!    ([`validate::dangling_fields`](crate::validate::dangling_fields)).
//! 2. **Event tracing** — switches on the per-worker event rings of
//!    [`mpl_heap::events`]. On any audit failure (or the collector's own
//!    corruption assertions) the rings are dumped in global sequence
//!    order, so a failing run prints the exact pin/unpin/dead-mark
//!    interleaving that led to the bug.
//!
//! Enablement is either the `MPL_DEBUG_LGC_VALIDATE` environment
//! variable (read once) or the refcounted programmatic switch
//! ([`enable`]/[`disable`]) behind `RuntimeConfig::with_audit` —
//! refcounted because the parallel test harness composes runtimes.
//! Counters ([`counters`]) are process-global and overlaid onto
//! `StatsSnapshot` by the runtime, mirroring the scheduler counters.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use mpl_heap::events::{self, EventKind};
use mpl_heap::{ObjRef, Store};

static AUDITS: AtomicU64 = AtomicU64::new(0);
static OBJECTS_CHECKED: AtomicU64 = AtomicU64::new(0);
static FAILURES: AtomicU64 = AtomicU64::new(0);

/// Programmatic enablement refcount (see [`enable`]).
static FORCED: AtomicUsize = AtomicUsize::new(0);

/// Records a task-boundary marker in the calling worker's event ring.
/// The scheduler calls this from its job-finish hook; the markers let a
/// ring dump show which task interleavings surrounded a failure. A
/// no-op (one relaxed load) unless tracing is active.
pub fn note_job_boundary(index: usize) {
    events::emit(EventKind::TaskBoundary, 0, 0, index as u32);
}

fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        let on = std::env::var_os("MPL_DEBUG_LGC_VALIDATE").is_some();
        if on {
            events::set_tracing(true);
        }
        on
    })
}

/// Whether audits and event tracing are currently active.
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed) > 0 || env_enabled()
}

/// Programmatically enables auditing (refcounted; every [`enable`] needs
/// a matching [`disable`]). Used by `RuntimeConfig::with_audit`.
pub fn enable() {
    events::set_tracing(true);
    FORCED.fetch_add(1, Ordering::AcqRel);
}

/// Releases one programmatic enablement. When the count reaches zero and
/// the environment flag is unset, event emission stops.
pub fn disable() {
    if FORCED.fetch_sub(1, Ordering::AcqRel) == 1 && !env_enabled() {
        events::set_tracing(false);
    }
}

/// Process-global audit counters (overlaid onto `StatsSnapshot`).
#[derive(Clone, Copy, Debug, Default)]
pub struct AuditCounters {
    /// Phase-boundary audits executed.
    pub audits_run: u64,
    /// Objects visited by reachability cross-checks.
    pub objects_checked: u64,
    /// Events recorded into the rings.
    pub events_recorded: u64,
    /// Ring-buffer overwrites (history lost to wraparound).
    pub ring_overflows: u64,
    /// Audits that found at least one issue.
    pub failures: u64,
}

/// Snapshot of the process-global audit counters. The event counts are
/// the event rings' own (spans and flight records share the sequence
/// numbers but not these counts).
pub fn counters() -> AuditCounters {
    let (events_recorded, ring_overflows) = events::recorded();
    AuditCounters {
        audits_run: AUDITS.load(Ordering::Relaxed),
        objects_checked: OBJECTS_CHECKED.load(Ordering::Relaxed),
        events_recorded,
        ring_overflows,
        failures: FAILURES.load(Ordering::Relaxed),
    }
}

/// Dumps every recorded event to stderr in global sequence order and
/// returns how many were printed. Safe to call at any time (a slot being
/// written right now is left out); the collectors call it before dying on
/// a corruption assertion.
pub fn dump_events() -> usize {
    let all = events::snapshot();
    if all.is_empty() {
        return 0;
    }
    eprintln!(
        "=== mpl-gc event trace ({} events, {} lost to ring wraparound) ===",
        all.len(),
        events::recorded().1
    );
    for e in &all {
        let (seq, ring, name) = (e.seq, e.ring, e.kind.name());
        let (block, word, aux) = (e.block, e.word, e.aux);
        eprintln!("[seq {seq:08} ring {ring:02}] {name:<14} b{block}w{word} aux={aux}");
    }
    eprintln!("=== end event trace ===");
    all.len()
}

/// Checks every member of a local collection's shield closure: members
/// must be alive, tagged into the entangled space, and unmoved (the
/// whole point of the shield is that concurrent readers never see them
/// move). Returns human-readable issues; empty means the closure holds.
pub fn check_shield_closure(store: &Store, closure: &HashSet<ObjRef>) -> Vec<String> {
    let mut issues = Vec::new();
    let mut checked = 0u64;
    for &r in closure {
        checked += 1;
        let Some(block) = store.blocks().try_get(r.block()) else {
            issues.push(format!("shield: member {r} sits in a freed block"));
            continue;
        };
        let Some(obj) = block.try_get(r.word()) else {
            issues.push(format!("shield: member {r} names an empty word"));
            continue;
        };
        let h = obj.header();
        if h.is_dead() {
            issues.push(format!("shield: member {r} is dead-marked"));
        } else if h.is_forwarded() {
            issues.push(format!("shield: member {r} was moved"));
        } else if !h.in_entangled_space() {
            issues.push(format!("shield: member {r} lost its entangled-space tag"));
        }
    }
    OBJECTS_CHECKED.fetch_add(checked, Ordering::Relaxed);
    issues
}

/// The reachability-vs-dead-mark cross-check: traverses the object graph
/// from every pinned object in the store, **crossing heap boundaries**,
/// and reports any dead-marked object still reachable through current
/// fields. This is exactly the invariant the local collector's reclaim
/// phase must preserve, checked at the marking site — a mis-mark is
/// reported by the audit at the end of that collection, not two cycles
/// later when a trace happens to walk into the corpse.
///
/// Runs concurrently with mutators: an edge to a dead object is
/// re-confirmed against the parent's *current* field before being
/// reported, so a mutation racing the scan cannot produce a false
/// positive.
pub fn check_dead_reachability(store: &Store) -> Vec<String> {
    let mut issues = Vec::new();
    let mut visited: HashSet<ObjRef> = HashSet::new();
    // First-discovered parent edge of each visited node, for path
    // reconstruction in failure reports.
    let mut came_from: std::collections::HashMap<ObjRef, (ObjRef, usize)> =
        std::collections::HashMap::new();
    // (parent, field index, target) — parent None for pinned roots.
    let mut stack: Vec<(Option<(ObjRef, usize)>, ObjRef)> = Vec::new();
    for block in store.blocks().live_blocks() {
        if block.pinned_count() == 0 {
            continue;
        }
        for (off, obj) in block.objects() {
            let h = obj.header();
            if h.is_pinned() && !h.is_dead() && !h.is_forwarded() {
                stack.push((None, ObjRef::new(block.id(), off)));
            }
        }
    }
    while let Some((from, r)) = stack.pop() {
        if !visited.insert(r) {
            continue;
        }
        if let Some(edge) = from {
            came_from.insert(r, edge);
        }
        let Some(block) = store.blocks().try_get(r.block()) else {
            continue; // freed concurrently; dangling_fields owns that check
        };
        let Some(obj) = block.try_get(r.word()) else {
            continue;
        };
        let header = obj.header();
        if header.is_dead() {
            // A pin root was alive and pinned when the scan above queued
            // it (dead headers are never queued). Dead by the time it is
            // visited means a concurrent join unpinned it and its owner's
            // collection then reclaimed it — there is no edge to
            // re-confirm, and the object is legitimately collectable.
            let Some((src, field)) = from else {
                continue;
            };
            // Re-confirm against the parent's current field: a mutator may
            // have overwritten the edge after we read it, making the old
            // target legitimately collectable.
            if !edge_still_present(store, src, field, r) {
                continue;
            }
            issues.push(format!(
                "dead-reachable: {r} is dead-marked but reachable from a pinned object \
                 (kind {:?}, entspace {}, block owner {}, via {src} field {field})\n  path: {}",
                header.kind(),
                header.in_entangled_space(),
                block.owner(),
                describe_path(store, &came_from, from, r),
            ));
            continue; // don't traverse a corpse
        }
        if header.is_forwarded() {
            if let Some(next) = obj.forward_ref() {
                stack.push((from, next));
            }
            continue;
        }
        OBJECTS_CHECKED.fetch_add(1, Ordering::Relaxed);
        if !header.kind().is_traced() {
            continue;
        }
        for (i, w) in obj.field_words().enumerate() {
            if let Some(t) = w.pointer() {
                if !visited.contains(&t) {
                    stack.push((Some((r, i)), t));
                }
            }
        }
    }
    issues
}

/// Renders the discovery path from a pinned root to `last` for a failure
/// report: each hop with its block owner and header flags, root first.
fn describe_path(
    store: &Store,
    came_from: &std::collections::HashMap<ObjRef, (ObjRef, usize)>,
    last_edge: Option<(ObjRef, usize)>,
    last: ObjRef,
) -> String {
    let mut hops: Vec<String> = Vec::new();
    let mut cur = last;
    let mut edge = last_edge;
    for _ in 0..64 {
        let flags = match store
            .blocks()
            .try_get(cur.block())
            .and_then(|b| b.try_get(cur.word()).map(|o| (b.owner(), o.header())))
        {
            Some((owner, h)) => format!(
                "owner {owner}{}{}{}{}",
                if h.is_pinned() {
                    format!(" pinned@{}", h.pin_level())
                } else {
                    String::new()
                },
                if h.in_entangled_space() { " ent" } else { "" },
                if h.is_dead() { " DEAD" } else { "" },
                if h.is_forwarded() { " fwd" } else { "" },
            ),
            None => "gone".to_string(),
        };
        match edge {
            Some((src, field)) => {
                hops.push(format!("{cur} ({flags}) <- {src}.{field}"));
                cur = src;
                edge = came_from.get(&src).copied();
            }
            None => {
                hops.push(format!("{cur} ({flags}) [root]"));
                break;
            }
        }
    }
    hops.reverse();
    hops.join("\n        ")
}

/// `true` if `src.field` still points (possibly through forwarding) at
/// `target`.
fn edge_still_present(store: &Store, src: ObjRef, field: usize, target: ObjRef) -> bool {
    let Some(block) = store.blocks().try_get(src.block()) else {
        return false;
    };
    let Some(obj) = block.try_get(src.word()) else {
        return false;
    };
    let Some(w) = obj.field_words().nth(field) else {
        return false;
    };
    let Some(mut t) = w.pointer() else {
        return false;
    };
    for _ in 0..64 {
        if t == target {
            return true;
        }
        match store
            .blocks()
            .try_get(t.block())
            .and_then(|b| b.try_get(t.word()).and_then(|o| o.forward_ref()))
        {
            Some(next) => t = next,
            None => return false,
        }
    }
    false
}

/// Runs the phase-boundary audit for `phase` (e.g. `"lgc/reclaim"`) of a
/// collection over `heap`. No-op unless auditing is [`enabled`]. The
/// shield `closure`, when given, is checked for integrity; reclaim-class
/// phases (`lgc/reclaim`, `cgc/sweep`, `graveyard/reap`) additionally
/// run the dead-reachability cross-check and the dangling-field scan.
/// Any issue dumps the event rings and panics.
pub fn audit_phase(store: &Store, phase: &str, heap: u32, closure: Option<&HashSet<ObjRef>>) {
    if !enabled() {
        return;
    }
    AUDITS.fetch_add(1, Ordering::Relaxed);
    let mut issues: Vec<String> = Vec::new();
    if let Some(c) = closure {
        issues.extend(check_shield_closure(store, c));
    }
    if matches!(phase, "lgc/reclaim" | "cgc/sweep" | "graveyard/reap") {
        issues.extend(check_dead_reachability(store));
        issues.extend(crate::validate::dangling_fields(store));
    }
    if !issues.is_empty() {
        audit_failure(phase, heap, &issues);
    }
}

fn audit_failure(phase: &str, heap: u32, issues: &[String]) -> ! {
    FAILURES.fetch_add(1, Ordering::Relaxed);
    dump_events();
    // Post-mortem: an audit failure is exactly what the flight recorder
    // exists for — dump the recent-telemetry ring next to the event trace.
    mpl_obs::flight_record(
        mpl_obs::FlightKind::Event,
        mpl_obs::EV_AUDIT_FAILURE,
        issues.len() as u64,
        u64::from(heap),
    );
    if let Some(path) = mpl_obs::dump_flight("audit-failure") {
        eprintln!("flight recorder dumped to {}", path.display());
    }
    panic!(
        "GC phase audit failed at {phase} (heap {heap}), {} issue(s):\n{}",
        issues.len(),
        issues.join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_heap::{ObjKind, StoreConfig, Value};

    #[test]
    fn clean_store_has_no_dead_reachable() {
        let s = Store::new(StoreConfig::default());
        let h = s.new_root_heap();
        let a = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]);
        let holder = s.alloc_values(h, ObjKind::Tuple, &[Value::Obj(a)]);
        s.pin(holder, 0);
        assert!(check_dead_reachability(&s).is_empty());
        let closure: HashSet<ObjRef> = HashSet::new();
        assert!(check_shield_closure(&s, &closure).is_empty());
    }

    #[test]
    fn crosscheck_flags_a_forced_mismark() {
        // Simulate the historical reclaim bug: an object reachable from a
        // pinned holder gets dead-marked anyway. The cross-check must
        // report it immediately.
        let s = Store::new(StoreConfig::default());
        let h = s.new_root_heap();
        let victim = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(7)]);
        let holder = s.alloc_values(h, ObjKind::Tuple, &[Value::Obj(victim)]);
        s.pin(holder, 0);
        s.handle(victim).obj().set_dead();
        let issues = check_dead_reachability(&s);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("dead-reachable"), "{issues:?}");
    }

    #[test]
    fn shield_check_flags_a_moved_member() {
        let s = Store::new(StoreConfig::default());
        let h = s.new_root_heap();
        let a = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]);
        let mut closure = HashSet::new();
        closure.insert(a);
        // Never tagged into the entangled space: the shield is broken.
        let issues = check_shield_closure(&s, &closure);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("entangled-space tag"), "{issues:?}");
    }

    #[test]
    fn rings_record_and_dump_in_order() {
        enable();
        let before = counters().events_recorded;
        events::emit(events::EventKind::Pin, 1, 2, 3);
        events::emit(events::EventKind::DeadMark, 4, 5, events::DEAD_BY_LGC);
        let after = counters().events_recorded;
        assert!(after >= before + 2, "{before} -> {after}");
        assert!(dump_events() >= 2);
        // Spans draw from the same global sequence but are not events:
        // closing one leaves the count alone. (Other tests in this binary
        // may emit concurrently, so look for one quiet attempt.)
        mpl_obs::enable();
        let quiet = (0..100).any(|_| {
            let before = counters().events_recorded;
            mpl_obs::span_close(mpl_obs::Metric::SchedRun, mpl_obs::span_start());
            counters().events_recorded == before
        });
        mpl_obs::disable();
        assert!(quiet, "closing a span moved events_recorded every time");
        disable();
    }

    #[test]
    fn audit_phase_counts_runs() {
        let s = Store::new(StoreConfig::default());
        let h = s.new_root_heap();
        let _ = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]);
        enable();
        let before = counters().audits_run;
        audit_phase(&s, "lgc/reclaim", h, None);
        assert!(counters().audits_run > before);
        disable();
    }
}
