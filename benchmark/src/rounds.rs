//! The measuring loop shared by every workload: rounds over the workload's
//! units (a program's runs, one open-loop run, ...), each unit followed by
//! a fixed calibration loop, for as long as `--seconds` asks.
//!
//! The calibration loop is the host-noise guard. It does the same
//! pure-Rust work every time, so its duration measures the host, not the
//! program. A unit with a neighbouring calibration more than 10 % away
//! from the session median ran beside a stall; it is dropped and run again
//! (at most three times per session), and the count is reported so that a
//! noisy neighbour reads as such and not as a regression.

use std::time::Instant;

use crate::stats::median;

/// Iterations of the calibration loop: about 50 ms on the 2-vCPU host the
/// sizes were frozen on. Short, because it runs after every unit, not
/// only around the workload.
const CALIB_ITERS: u64 = 27_500_000;
const CALIB_TOLERANCE: f64 = 0.10;
const MAX_RETRIES: usize = 3;
/// Every unit runs at least twice, in two processes, so that what is
/// peculiar to one process (its address-space layout) is averaged over.
pub const MIN_ROUNDS: usize = 2;

/// Runs the fixed calibration loop; returns its duration in ms.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..CALIB_ITERS {
        // xorshift64: a serial dependency chain the compiler cannot fold.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Median time for a parked thread to run again after `unpark`, in µs: a
/// thread ping-pong of 200 round trips, about 10 ms. What a P-worker run
/// costs depends on this more than on anything in the program (every fork
/// of a short branch wakes a worker), and on a shared host it moves between
/// sessions, so it is printed beside every result.
pub fn wake_latency_us() -> f64 {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    const TRIPS: usize = 200;
    let ping = Arc::new(AtomicUsize::new(0));
    let pong = Arc::new(AtomicUsize::new(0));
    let main = std::thread::current();
    let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
    let partner = std::thread::spawn(move || {
        for trip in 1..=TRIPS {
            while ping2.load(Ordering::Acquire) < trip {
                std::thread::park();
            }
            pong2.store(trip, Ordering::Release);
            main.unpark();
        }
    });
    let mut trips_us = Vec::with_capacity(TRIPS);
    for trip in 1..=TRIPS {
        let start = Instant::now();
        ping.store(trip, Ordering::Release);
        partner.thread().unpark();
        while pong.load(Ordering::Acquire) < trip {
            std::thread::park();
        }
        trips_us.push(start.elapsed().as_secs_f64() * 1e6 / 2.0);
    }
    partner
        .join()
        .expect("the partner thread only parks and stores");
    median(&trips_us)
}

#[derive(Clone, Debug, Default)]
pub struct NoiseReport {
    /// Thread wake-up latency before the first and after the last unit.
    pub wake_us: (f64, f64),
    /// Median calibration time of the session.
    pub calib_ms: f64,
    /// Largest deviation of any calibration from that median.
    pub calib_max_dev: f64,
    /// Units run again because a neighbouring calibration deviated.
    pub retries: usize,
    /// Flagged units that stayed in the sample (retries exhausted).
    pub noisy_kept: usize,
}

/// One executed unit: which one, its result, and the calibrations around it.
struct Slot<R> {
    unit: usize,
    result: Option<R>,
    calib_before: f64,
    calib_after: f64,
}

/// Runs `run(round, unit)` for every unit in `0..units`, round after round
/// for about `seconds` (at least `MIN_ROUNDS` rounds). Returns, per unit,
/// the results of its clean executions in order.
pub fn run_rounds<R>(
    seconds: f64,
    units: usize,
    mut run: impl FnMut(usize, usize) -> R,
) -> (Vec<Vec<R>>, NoiseReport) {
    let start = Instant::now();
    let wake_before = wake_latency_us();
    let mut slots: Vec<Slot<R>> = Vec::new();
    let mut last_calib = calibrate();
    let mut execute = |round: usize, unit: usize, slots: &mut Vec<Slot<R>>| {
        let result = Some(run(round, unit));
        let calib_after = calibrate();
        slots.push(Slot {
            unit,
            result,
            calib_before: last_calib,
            calib_after,
        });
        last_calib = calib_after;
    };
    let mut rounds = 0;
    let mut longest = 0.0f64;
    loop {
        let t = Instant::now();
        for unit in 0..units {
            execute(rounds, unit, &mut slots);
        }
        rounds += 1;
        longest = longest.max(t.elapsed().as_secs_f64());
        // Stop once another round would overshoot by more than half of it.
        if rounds >= MIN_ROUNDS && start.elapsed().as_secs_f64() + longest / 2.0 > seconds {
            break;
        }
    }
    let session_median = |slots: &[Slot<R>]| {
        let mut all: Vec<f64> = slots.iter().map(|s| s.calib_after).collect();
        all.extend(slots.first().map(|s| s.calib_before));
        median(&all)
    };
    let noisy = |s: &Slot<R>, mid: f64| {
        let off = |c: f64| (c / mid - 1.0).abs() > CALIB_TOLERANCE;
        s.result.is_some() && (off(s.calib_before) || off(s.calib_after))
    };
    let mut retries = 0;
    while retries < MAX_RETRIES {
        let mid = session_median(&slots);
        let Some(i) = slots.iter().position(|s| noisy(s, mid)) else {
            break;
        };
        retries += 1;
        slots[i].result = None;
        let unit = slots[i].unit;
        execute(rounds + retries, unit, &mut slots);
    }
    let mid = session_median(&slots);
    let report = NoiseReport {
        wake_us: (wake_before, wake_latency_us()),
        calib_ms: mid,
        calib_max_dev: slots
            .iter()
            .flat_map(|s| [s.calib_before, s.calib_after])
            .map(|c| (c / mid - 1.0).abs())
            .fold(0.0, f64::max),
        retries,
        noisy_kept: slots.iter().filter(|s| noisy(s, mid)).count(),
    };
    let mut by_unit: Vec<Vec<R>> = (0..units).map(|_| Vec::new()).collect();
    for slot in slots {
        if let Some(r) = slot.result {
            by_unit[slot.unit].push(r);
        }
    }
    (by_unit, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_unit_runs_every_round_and_keeps_its_order() {
        let (by_unit, noise) = run_rounds(0.0, 3, |round, unit| (round, unit));
        assert_eq!(by_unit.len(), 3);
        for (unit, results) in by_unit.iter().enumerate() {
            // A retry replaces a result, so the count only ever stays.
            assert_eq!(results.len(), MIN_ROUNDS, "unit {unit}");
            assert!(results.iter().all(|&(_, u)| u == unit));
        }
        assert!(noise.retries <= MAX_RETRIES);
        assert!(noise.calib_ms > 0.0);
    }
}
