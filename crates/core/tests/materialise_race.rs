//! Racing materialisation: two sibling tasks running on different workers
//! allocate at once while their parent, and its parent, have no heap
//! yet. Both must land under one heap for their shared parent, pushed
//! once, after the grandparent's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use mpl_runtime::{FailAction, FailPlan, FailWhen, Mutator, Runtime, RuntimeConfig, Value};

const ROUNDS: u64 = 20;

/// How long the left sibling waits for the right one to be stolen before
/// it goes on alone (the right one then runs inline after it).
const RENDEZVOUS: Duration = Duration::from_millis(500);

/// What each grandchild saw: its thread and its heap's parent heap.
type Seen = Mutex<Vec<(ThreadId, u32)>>;

/// Arrives at the rendezvous and waits for the sibling — the left one
/// (`patient == false`) no longer than [`RENDEZVOUS`] — then allocates
/// and records its heap's parent.
fn grandchild(m: &mut Mutator<'_>, arrived: &AtomicUsize, seen: &Seen, patient: bool) -> Value {
    arrived.fetch_add(1, Ordering::SeqCst);
    let start = Instant::now();
    while arrived.load(Ordering::SeqCst) < 2 && (patient || start.elapsed() < RENDEZVOUS) {
        std::hint::spin_loop();
    }
    let v = m.alloc_tuple(&[Value::Int(1)]);
    let store = m.runtime().store();
    let parent = store.heaps().parent_of(store.heap_of(v.expect_obj()));
    seen.lock()
        .unwrap()
        .push((std::thread::current().id(), parent));
    v
}

#[test]
fn racing_grandchildren_push_one_heap_for_their_parent() {
    let mut raced = 0;
    for round in 0..ROUNDS {
        // Thieves yield at random before they look for work, so which
        // worker takes which of the three offered branches varies.
        let plan = FailPlan::new(round).with("sched/steal", FailAction::Yield, FailWhen::OneIn(3));
        let rt = Runtime::new(
            RuntimeConfig::managed()
                .with_threads_exact(4)
                .with_failpoints(plan),
        );
        let (arrived, seen) = (AtomicUsize::new(0), Seen::default());
        let issued = rt.run(|m| {
            let before = m.runtime().store().heaps().len();
            // The grandparent and the parent never allocate, and neither
            // does any right sibling but the last.
            m.fork(
                |m| {
                    m.fork(
                        |m| {
                            m.fork(
                                |m| grandchild(m, &arrived, &seen, false),
                                |m| grandchild(m, &arrived, &seen, true),
                            );
                            Value::Unit
                        },
                        |_| Value::Unit,
                    );
                    Value::Unit
                },
                |_| Value::Unit,
            );
            Value::Int((m.runtime().store().heaps().len() - before) as i64)
        });
        // One heap each for the grandparent, the parent and the two
        // grandchildren.
        assert_eq!(issued, Value::Int(4), "round {round}");
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].1, seen[1].1, "round {round}: one shared parent");
        raced += usize::from(seen[0].0 != seen[1].0);
        rt.assert_heap_sound();
    }
    assert!(raced > 0, "no round ran the grandchildren on two workers");
}
