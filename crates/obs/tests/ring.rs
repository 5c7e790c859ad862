//! The ring primitive under load and at its edges: no torn record ever
//! leaves `snapshot()`, wrap accounting is exact, the flight recording is
//! one sequence-ordered merge of spans and events, and a thread that never
//! registered cannot land on a pool worker's timeline track.
//!
//! CI also runs this binary with `--release`: tearing needs the reordering
//! and speed of optimised code to show.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;

use mpl_obs::ring::{Ring, UNREGISTERED_BASE};
use mpl_obs::{FlightKind, Metric};

/// Serialises the tests that use the process-global span rings.
static SPANS_LOCK: Mutex<()> = Mutex::new(());

/// Every word is a function of the first, so a record mixing two writers'
/// payloads cannot pass for a whole one.
fn payload(v: u64) -> [u64; 8] {
    std::array::from_fn(|i| {
        v.rotate_left(7 * i as u32) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    })
}

#[test]
fn snapshot_never_returns_a_torn_record() {
    const WRITERS: u64 = 3;
    const SNAPSHOTS: usize = 1_000_000;
    // Four slots under three writers: every snapshot races several wraps.
    static RING: Ring<8, 4> = Ring::new();
    let stop = AtomicBool::new(false);
    let start = Barrier::new(WRITERS as usize + 1);
    let mut seen = 0usize;
    // The first bad snapshot. Asserted after the scope: a panic inside it
    // would leave the writers spinning and the test hung instead of failed.
    let mut violation = None;
    thread::scope(|s| {
        for id in 0..WRITERS {
            let (stop, start) = (&stop, &start);
            s.spawn(move || {
                start.wait();
                let mut v = id;
                while !stop.load(Ordering::Relaxed) {
                    RING.push(payload(v));
                    v += WRITERS;
                }
            });
        }
        start.wait();
        for _ in 0..SNAPSHOTS {
            let snap = RING.snapshot();
            let whole = snap.iter().all(|r| r.words == payload(r.words[0]));
            let ordered = snap.windows(2).all(|w| w[0].seq < w[1].seq);
            if !(whole && ordered) {
                violation = Some(snap);
                break;
            }
            seen += snap.len();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        violation.is_none(),
        "a snapshot held a torn record or out-of-order sequence numbers: {violation:?}"
    );
    assert!(seen > 0, "the reader never saw a published record");
}

#[test]
fn wrap_accounting_is_exact() {
    static RING: Ring<2, 8> = Ring::new();
    for i in 0..5 {
        RING.push([i, i * i]);
    }
    assert_eq!((RING.pushed(), RING.overwritten()), (5, 0));
    assert_eq!(RING.snapshot().len(), 5);
    for i in 5..11 {
        RING.push([i, i * i]);
    }
    assert_eq!((RING.pushed(), RING.overwritten()), (11, 3));
    // The newest eight, oldest first.
    let retained: Vec<[u64; 2]> = RING.snapshot().iter().map(|r| r.words).collect();
    let expect: Vec<[u64; 2]> = (3..11).map(|i| [i, i * i]).collect();
    assert_eq!(retained, expect);
    RING.clear();
    assert_eq!((RING.pushed(), RING.overwritten()), (0, 0));
    assert!(RING.snapshot().is_empty());
}

#[test]
fn flight_snapshot_merges_spans_and_events_by_sequence() {
    let _guard = SPANS_LOCK.lock().unwrap();
    mpl_obs::enable();
    mpl_obs::clear_spans();
    mpl_obs::clear_flight();
    // 6000 records, alternating span / event, each tagged with its pair
    // index (a span's `a` is its start timestamp).
    const PAIRS: u64 = 3000;
    for i in 0..PAIRS {
        mpl_obs::span_close(Metric::SchedRun, Some(i));
        mpl_obs::flight_record(FlightKind::Event, mpl_obs::EV_WATCHDOG_STALL, i, 0);
    }
    let snap = mpl_obs::flight_snapshot();
    mpl_obs::disable();
    assert_eq!(snap.len(), 4096, "only the newest 4096 are kept");
    let first_pair = PAIRS - 2048;
    for (k, pair) in snap.chunks(2).enumerate() {
        let i = first_pair + k as u64;
        assert_eq!((pair[0].kind, pair[0].a), (FlightKind::Span, i));
        assert_eq!((pair[1].kind, pair[1].a), (FlightKind::Event, i));
    }
    mpl_obs::clear_flight();
    assert!(mpl_obs::flight_snapshot().is_empty());
}

#[test]
fn unregistered_thread_does_not_share_worker_zeros_track() {
    let _guard = SPANS_LOCK.lock().unwrap();
    mpl_obs::enable();
    mpl_obs::clear_spans();
    // A pool worker 0 ...
    thread::spawn(|| {
        mpl_obs::register_worker(0);
        mpl_obs::span_close(Metric::SchedRun, mpl_obs::span_start());
    })
    .join()
    .unwrap();
    // ... and a sampler/watchdog-style thread that never registered.
    thread::spawn(|| mpl_obs::span_close(Metric::SchedPark, mpl_obs::span_start()))
        .join()
        .unwrap();
    let spans = mpl_obs::snapshot_spans();
    mpl_obs::disable();
    let worker_of = |kind| spans.iter().find(|s| s.kind == kind).unwrap().worker;
    let (pool, stray) = (worker_of(Metric::SchedRun), worker_of(Metric::SchedPark));
    assert_eq!(pool, 0);
    assert!(
        stray as usize >= UNREGISTERED_BASE,
        "stray worker id {stray}"
    );
    // And the rendered timeline keeps them apart.
    let trace = mpl_obs::chrome_trace(&spans, &[]);
    let tid_of = |name: &str| -> String {
        let event = trace
            .split("},{")
            .find(|e| e.contains(&format!("\"name\":\"{name}\"")) && e.contains("\"ph\":\"B\""))
            .unwrap_or_else(|| panic!("no B event for {name} in {trace}"));
        let tid = event.split("\"tid\":").nth(1).unwrap();
        tid.chars().take_while(char::is_ascii_digit).collect()
    };
    assert_eq!(tid_of("sched_run"), "0");
    assert_eq!(tid_of("sched_park"), stray.to_string());
}
