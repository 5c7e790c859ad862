//! Virtual-time work-stealing simulation.
//!
//! Replays a recorded computation DAG under a P-processor randomized
//! work-stealing scheduler in *virtual time*: each strand occupies its
//! executing processor for exactly its recorded work, and a successful
//! steal adds a fixed overhead. This reproduces the *shape* of the paper's
//! speedup curves on a host without many physical cores; absolute numbers
//! are in work units, not seconds.
//!
//! The simulation respects the classic greedy-scheduling envelope: for any
//! schedule it produces, `W/P <= T_P <= W/P + c·S` (work `W`, span `S`,
//! steal-overhead factor `c`), which the property tests check.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::dag::Dag;

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimParams {
    /// Number of virtual processors.
    pub procs: usize,
    /// Virtual-time cost added to a strand executed after a steal.
    pub steal_overhead: u64,
    /// RNG seed for victim selection (determinism).
    pub seed: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            procs: 1,
            steal_overhead: 8,
            seed: 0x5eed,
        }
    }
}

/// Result of one simulated execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Virtual completion time `T_P`.
    pub time: u64,
    /// Number of successful steals.
    pub steals: u64,
    /// Strands executed (sanity: equals the DAG size).
    pub executed: usize,
}

/// Simulates the DAG under work stealing.
///
/// # Panics
///
/// Panics if `params.procs == 0` or the DAG is malformed (unreachable
/// strands would deadlock the simulation).
pub fn simulate(dag: &Dag, params: SimParams) -> SimResult {
    assert!(params.procs > 0, "need at least one processor");
    let n = dag.len();
    let mut pending: Vec<usize> = (0..n).map(|i| dag.preds_of(i)).collect();
    let mut deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); params.procs];
    // (finish_time, proc, node) — min-heap over time, tie-broken on proc
    // then node for determinism.
    let mut running: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    let mut busy = vec![false; params.procs];
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);

    deques[0].push_back(0);
    let mut executed = 0usize;
    let mut steals = 0u64;
    let mut now = 0u64;

    loop {
        // Dispatch work to every idle processor. A processor first pops
        // its own deque (LIFO bottom), then steals from a random victim's
        // top (FIFO), paying the steal overhead.
        loop {
            let mut dispatched = false;
            for p in 0..params.procs {
                if busy[p] {
                    continue;
                }
                let (node, stolen) = if let Some(nd) = deques[p].pop_back() {
                    (Some(nd), false)
                } else {
                    let mut found = None;
                    // One round of steal attempts over random victims.
                    let start: usize = rng.gen_range(0..params.procs);
                    for k in 0..params.procs {
                        let v = (start + k) % params.procs;
                        if v == p {
                            continue;
                        }
                        if let Some(nd) = deques[v].pop_front() {
                            found = Some(nd);
                            break;
                        }
                    }
                    (found, true)
                };
                if let Some(nd) = node {
                    let overhead = if stolen && nd != 0 {
                        steals += 1;
                        params.steal_overhead
                    } else {
                        0
                    };
                    let finish = now + overhead + dag.work_of(nd);
                    running.push(Reverse((finish, p, nd)));
                    busy[p] = true;
                    dispatched = true;
                }
            }
            if !dispatched {
                break;
            }
        }

        // Advance to the next completion.
        let Some(Reverse((t, p, nd))) = running.pop() else {
            break; // nothing running and nothing dispatchable: done
        };
        now = t;
        busy[p] = false;
        executed += 1;
        for &s in dag.succs_of(nd) {
            pending[s] -= 1;
            if pending[s] == 0 {
                deques[p].push_back(s);
            }
        }
        // Also complete any other tasks finishing at the same instant so
        // their successors are visible before dispatch.
        while let Some(&Reverse((t2, _, _))) = running.peek() {
            if t2 != now {
                break;
            }
            let Reverse((_, p2, nd2)) = running.pop().unwrap();
            busy[p2] = false;
            executed += 1;
            for &s in dag.succs_of(nd2) {
                pending[s] -= 1;
                if pending[s] == 0 {
                    deques[p2].push_back(s);
                }
            }
        }
    }

    assert_eq!(executed, n, "simulation deadlocked: malformed DAG");
    SimResult {
        time: now,
        steals,
        executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;

    /// A balanced binary fork tree of the given depth; each leaf strand
    /// carries `leaf_work`.
    fn fork_tree(depth: usize, leaf_work: u64) -> Dag {
        let (b, root) = DagBuilder::new();
        fn go(
            b: &DagBuilder,
            cur: crate::dag::StrandId,
            depth: usize,
            w: u64,
        ) -> crate::dag::StrandId {
            if depth == 0 {
                b.add_work(cur, w);
                return cur;
            }
            let (l, r) = b.fork(cur);
            let le = go(b, l, depth - 1, w);
            let re = go(b, r, depth - 1, w);
            b.join(le, re)
        }
        let _end = go(&b, root, depth, leaf_work);
        b.finish()
    }

    #[test]
    fn one_proc_time_equals_work() {
        let d = fork_tree(4, 100);
        let r = simulate(
            &d,
            SimParams {
                procs: 1,
                steal_overhead: 8,
                seed: 1,
            },
        );
        assert_eq!(r.time, d.total_work(), "P=1 never steals");
        assert_eq!(r.steals, 0);
    }

    #[test]
    fn parallel_run_is_faster_and_bounded() {
        let d = fork_tree(6, 200);
        let w = d.total_work();
        let s = d.span();
        for p in [2usize, 4, 8] {
            let r = simulate(
                &d,
                SimParams {
                    procs: p,
                    steal_overhead: 8,
                    seed: 42,
                },
            );
            assert!(r.time < w, "P={p} should beat sequential");
            assert!(r.time >= w / p as u64, "work law violated at P={p}");
            // Greedy bound with generous steal slack.
            let bound = w / p as u64 + 10 * s + 10_000;
            assert!(r.time <= bound, "P={p}: {} > {}", r.time, bound);
        }
    }

    #[test]
    fn speedup_is_monotonic_in_shape() {
        let d = fork_tree(8, 500);
        let time = |procs| {
            let p = SimParams {
                procs,
                steal_overhead: 8,
                seed: 7,
            };
            simulate(&d, p).time as f64
        };
        let t1 = time(1);
        let speedups: Vec<f64> = [1, 2, 4, 8, 16].map(|p| t1 / time(p)).to_vec();
        assert!(speedups[1] > 1.5, "2 procs should speed up: {speedups:?}");
        assert!(
            speedups[4] > speedups[1],
            "16 procs should beat 2: {speedups:?}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = fork_tree(5, 50);
        let p = SimParams {
            procs: 4,
            steal_overhead: 8,
            seed: 99,
        };
        assert_eq!(simulate(&d, p), simulate(&d, p));
    }

    #[test]
    fn sequential_chain_gains_nothing() {
        let (b, root) = DagBuilder::new();
        b.add_work(root, 1000);
        let d = b.finish();
        let r = simulate(
            &d,
            SimParams {
                procs: 8,
                steal_overhead: 8,
                seed: 3,
            },
        );
        assert_eq!(r.time, 1000);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_panics() {
        let d = fork_tree(1, 1);
        simulate(
            &d,
            SimParams {
                procs: 0,
                steal_overhead: 0,
                seed: 0,
            },
        );
    }
}
