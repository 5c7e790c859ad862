//! The open-loop dispatcher: admission control, timeouts with
//! retry/backoff, per-tenant circuit breaking, brownout shedding, SLO
//! capture.

use std::time::{Duration, Instant};

use mpl_heap::Value;
use mpl_obs::{flight_record, histogram, FlightKind, Metric, EV_BREAKER_OPEN, EV_DEADLINE_STORM};
use mpl_runtime::{CancelReason, RunError, Runtime};

use crate::report::{live_slope, GcReport, ServerReport, TenantReport};
use crate::tenant::{Tenant, TenantSpec};
use crate::traffic::{schedule, schedule_digest, RequestKind, SplitMix64, TrafficConfig};
use crate::workload::{run_request, Profile};

/// Failpoint site on the admission path: an injected `Error` here sheds
/// the request before it touches the runtime (simulating an upstream
/// admission-control fault).
pub const FP_ADMIT: &str = "serve/admit";
/// Failpoint site on the shed path: fires as a request is being shed for
/// budget reasons (chaos schedules use it to add delay/yield storms in
/// exactly the moments the server is degraded).
pub const FP_SHED: &str = "serve/shed";

/// Default admission estimate: a request is admitted only if the tenant
/// budget has at least this much headroom (after at most one maintenance
/// collection). Coarse on purpose — admission is a gate, not a meter.
pub const DEFAULT_ADMIT_ESTIMATE: usize = 32 * 1024;

/// Consecutive run failures (timeouts after retries, panics) before a
/// tenant's circuit breaker opens.
pub const BREAKER_THRESHOLD: u32 = 4;

/// Dispatched-arrival window over which the brownout ladder and the
/// deadline-storm detector are recomputed.
pub const BROWNOUT_WINDOW: u64 = 64;

/// The server's brownout ladder: graduated load shedding under memory
/// or latency pressure, recomputed every [`BROWNOUT_WINDOW`] arrivals
/// from the window's timeout rate plus (when the runtime is
/// telemetered) heap-census fragmentation and GC pause-histogram
/// deltas. Each rung keeps the previous rung's behavior.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Brownout {
    /// No pressure: all requests run as scheduled.
    Normal,
    /// Shed entangled-profile tenants' requests at the door: entangled
    /// work is what pins objects, fragments the entangled space, and
    /// feeds CGC pauses, so it goes first.
    ShedEntangled,
    /// Additionally degrade every remaining request to a cheap
    /// read-only response (minimum payload), trading fidelity for
    /// bounded latency.
    Degraded,
}

/// Why one admitted request ultimately failed (dispatcher-internal).
enum Failure {
    /// Deadline exhausted on the final attempt.
    Timeout,
    /// Mid-flight budget `AllocError` — ordinary shed, not a breaker
    /// failure.
    Budget,
    /// Unexpected panic or non-deadline cancellation.
    Fatal,
}

/// A multi-tenant server bound to one persistent [`Runtime`].
pub struct Server<'rt> {
    rt: &'rt Runtime,
    /// Live tenants, in spec order. Arrivals are routed modulo this.
    pub tenants: Vec<Tenant>,
    /// Admission headroom estimate in bytes (see [`DEFAULT_ADMIT_ESTIMATE`]).
    pub admit_estimate: usize,
    /// Current brownout rung (recomputed during [`Server::run`]).
    pub brownout: Brownout,
}

impl<'rt> Server<'rt> {
    /// Creates all tenants (allocating their budgeted sessions) on `rt`.
    pub fn new(rt: &'rt Runtime, specs: Vec<TenantSpec>) -> Server<'rt> {
        let tenants = specs.into_iter().map(|s| Tenant::create(rt, s)).collect();
        Server {
            rt,
            tenants,
            admit_estimate: DEFAULT_ADMIT_ESTIMATE,
            brownout: Brownout::Normal,
        }
    }

    /// Runs one open-loop traffic schedule to completion and reports.
    ///
    /// The dispatcher replays the precomputed schedule against real time:
    /// it sleeps until each arrival's instant, then admits or sheds. A
    /// request's latency is `completion − scheduled arrival`, so time a
    /// request spends queued behind a slow predecessor counts against the
    /// SLO (no coordinated omission). Admission control:
    ///
    /// 1. the `serve/admit` failpoint may shed it (injected fault);
    /// 2. the brownout ladder may shed it (entangled-profile tenants
    ///    first) or degrade it to a cheap read — see [`Brownout`];
    /// 3. the tenant's circuit breaker may shed it while open after a
    ///    streak of run failures — see [`crate::tenant::Breaker`];
    /// 4. if the tenant budget lacks [`Self::admit_estimate`] headroom,
    ///    one maintenance collection runs on the tenant's root heap and
    ///    the check retries — still over means shed (`serve/shed` fires,
    ///    the budget records it);
    /// 5. admitted requests run under the tenant's deadline (when
    ///    `timeout_ns > 0`) via `try_run_session_deadline`; a timed-out
    ///    attempt unwinds coherently and retries up to `retries` times
    ///    with seeded-jitter exponential backoff before counting as a
    ///    run failure;
    /// 6. requests that exhaust the budget mid-flight are shed by the
    ///    `AllocError` backstop, leaving the session intact.
    ///
    /// Every [`BROWNOUT_WINDOW`] arrivals the dispatcher recomputes the
    /// brownout rung and, when ≥ 1/4 of the window timed out, records a
    /// deadline-storm flight event for post-mortems.
    pub fn run(&mut self, traffic: &TrafficConfig) -> ServerReport {
        let sched = schedule(traffic);
        let digest = schedule_digest(&sched);
        let offered = sched.len();
        let stats0 = self.rt.stats();
        let samples0 = self.rt.telemetry_samples().len();
        let ntenants = self.tenants.len().max(1);
        let lat0: Vec<_> = self.tenants.iter().map(|t| t.latency.snapshot()).collect();
        // Tenant counters accumulate for the server's lifetime; the
        // report covers this run only.
        let counts0: Vec<_> = self.tenants.iter().map(|t| t.counts).collect();
        // Retry jitter is seeded from the traffic seed so overload runs
        // replay deterministically.
        let mut rng = SplitMix64::new(traffic.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut window_total: u64 = 0;
        let mut window_timeouts: u64 = 0;
        let mut pause0 = (
            histogram(Metric::LgcPause).snapshot(),
            histogram(Metric::CgcPause).snapshot(),
        );
        let t0 = Instant::now();
        for a in &sched {
            // Open loop: wait out the gap to the scheduled instant.
            let target = Duration::from_nanos(a.at_ns);
            loop {
                let now = t0.elapsed();
                if now >= target {
                    break;
                }
                let gap = target - now;
                if gap > Duration::from_micros(300) {
                    std::thread::sleep(gap - Duration::from_micros(200));
                } else {
                    std::hint::spin_loop();
                }
            }
            // Window bookkeeping: recompute the brownout rung and check
            // for a deadline storm every BROWNOUT_WINDOW arrivals.
            window_total += 1;
            if window_total >= BROWNOUT_WINDOW {
                if window_timeouts * 4 >= window_total {
                    flight_record(
                        FlightKind::Event,
                        EV_DEADLINE_STORM,
                        window_timeouts,
                        window_total,
                    );
                }
                let frac = window_timeouts as f64 / window_total as f64;
                self.brownout = brownout_level(self.rt, frac, &mut pause0);
                window_total = 0;
                window_timeouts = 0;
            }
            let brownout = self.brownout;
            let tn = &mut self.tenants[a.tenant % ntenants];
            // 1. Injected admission fault.
            if mpl_fail::hit(FP_ADMIT).is_err() {
                tn.counts.shed_injected += 1;
                continue;
            }
            // 2. Brownout ladder: entangled-profile work (the pin and
            //    CGC feeder) is shed at the door under pressure.
            if brownout >= Brownout::ShedEntangled && tn.spec.profile == Profile::Entangled {
                mpl_fail::hit_hard(FP_SHED);
                tn.counts.brownout_shed += 1;
                continue;
            }
            // 3. Circuit breaker: a tenant with a streak of run failures
            //    is shed without touching the runtime until its breaker
            //    half-opens for a probe.
            if !tn.breaker.admit(t0.elapsed().as_nanos() as u64) {
                tn.counts.breaker_shed += 1;
                continue;
            }
            // 4. Budget admission gate, with one collect-and-retry. A
            //    collection that created no headroom is not repeated
            //    until the budget reading moves (sheds allocate nothing,
            //    so re-collecting the same retained set is futile).
            if let Some(b) = tn.session.budget().cloned() {
                if b.would_exceed(self.admit_estimate) {
                    if tn.futile_at != Some(b.live_bytes()) {
                        tn.counts.maintenance_gcs += 1;
                        let _ = self.rt.try_run_session(&tn.session, |m| {
                            m.force_lgc(&mut []);
                            Value::Unit
                        });
                    }
                    if b.would_exceed(self.admit_estimate) {
                        tn.futile_at = Some(b.live_bytes());
                        mpl_fail::hit_hard(FP_SHED);
                        b.on_shed();
                        tn.counts.shed_budget += 1;
                        continue;
                    }
                    tn.futile_at = None;
                }
            }
            // 5. Run it, under the tenant deadline when one is set; the
            //    AllocError backstop sheds mid-flight exhaustion without
            //    poisoning the session.
            tn.counts.admitted += 1;
            let mut kind = a.kind;
            let mut size = a.size * tn.spec.payload_scale;
            if brownout >= Brownout::Degraded && kind != RequestKind::Read {
                kind = RequestKind::Read;
                size = 1;
                tn.counts.degraded += 1;
            }
            let profile = tn.spec.profile;
            let timeout_ns = tn.spec.timeout_ns;
            let mut attempt: u32 = 0;
            let outcome: Result<(), Failure> = loop {
                attempt += 1;
                let st = tn.states[a.session % tn.states.len()].clone();
                let res = if timeout_ns > 0 {
                    self.rt.try_run_session_deadline(
                        &tn.session,
                        Duration::from_nanos(timeout_ns),
                        move |m| run_request(m, &st, kind, size, profile),
                    )
                } else {
                    self.rt.try_run_session(&tn.session, move |m| {
                        run_request(m, &st, kind, size, profile)
                    })
                };
                match res {
                    Ok(_) => break Ok(()),
                    Err(RunError::Cancelled(c)) if matches!(c.reason, CancelReason::Deadline) => {
                        tn.counts.timed_out += 1;
                        window_timeouts += 1;
                        self.rt.note_request_timeout();
                        if attempt <= tn.spec.retries {
                            tn.counts.retried += 1;
                            self.rt.note_request_retry();
                            // Exponential backoff jittered into [½, 1]×
                            // so a storm's retries decorrelate.
                            let base = tn.spec.backoff_ns.max(1) << (attempt - 1).min(16);
                            let sleep = base / 2 + rng.next_u64() % (base / 2 + 1);
                            std::thread::sleep(Duration::from_nanos(sleep));
                            continue;
                        }
                        break Err(Failure::Timeout);
                    }
                    Err(RunError::Alloc(_)) => break Err(Failure::Budget),
                    Err(_) => break Err(Failure::Fatal),
                }
            };
            match outcome {
                Ok(()) => {
                    tn.breaker.on_success();
                    tn.counts.completed += 1;
                    let done_ns = t0.elapsed().as_nanos() as u64;
                    tn.latency.record(done_ns.saturating_sub(a.at_ns));
                }
                Err(Failure::Budget) => {
                    // Ordinary budget shed: not a breaker failure (the
                    // budget gate, not the tenant's latency, is at fault).
                    mpl_fail::hit_hard(FP_SHED);
                    tn.counts.shed_budget += 1;
                }
                Err(Failure::Timeout) | Err(Failure::Fatal) => {
                    let now_ns = t0.elapsed().as_nanos() as u64;
                    let open_ns = (4 * timeout_ns.max(500_000)).max(2_000_000);
                    if tn.breaker.on_failure(now_ns, BREAKER_THRESHOLD, open_ns) {
                        tn.counts.breaker_opens += 1;
                        self.rt.note_breaker_open();
                        flight_record(
                            FlightKind::Event,
                            EV_BREAKER_OPEN,
                            (a.tenant % ntenants) as u64,
                            tn.breaker.consecutive_failures as u64,
                        );
                    }
                }
            }
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let stats1 = self.rt.stats();
        let d = stats1.delta(&stats0);
        let wall_s = (wall_ns as f64 / 1e9).max(1e-9);
        let mut all_samples = self.rt.telemetry_samples();
        let samples = if samples0 <= all_samples.len() {
            all_samples.split_off(samples0)
        } else {
            Vec::new()
        };
        // End-of-run heap census: only when the runtime is telemetered —
        // the walk is cheap but the report should stay byte-identical to
        // earlier runs for untelemetered configurations.
        let census = self.rt.config().telemetry.then(|| self.rt.heap_census());
        let tenants = self
            .tenants
            .iter()
            .zip(lat0.iter())
            .zip(counts0.iter())
            .map(|((t, l0), c0)| {
                let snap = t.latency.snapshot();
                // This run's own recordings: the family histogram is
                // process-global, so subtract the pre-run snapshot.
                let lat = diff_hist(&snap, l0);
                let counts = t.counts.since(c0);
                TenantReport {
                    name: t.spec.name.clone(),
                    counts,
                    p50_ns: lat.percentile(0.50),
                    p99_ns: lat.percentile(0.99),
                    p999_ns: lat.percentile(0.999),
                    max_ns: lat.max,
                    mean_ns: lat.mean(),
                    goodput_rps: counts.completed as f64 / wall_s,
                    budget: t.session.budget().map(|b| b.snapshot()),
                    census: census
                        .as_ref()
                        .and_then(|c| c.tenants.iter().find(|r| r.name == t.spec.name).cloned()),
                }
            })
            .collect::<Vec<_>>();
        let completed_total: u64 = tenants.iter().map(|t| t.counts.completed).sum();
        let shed_total: u64 = tenants.iter().map(|t| t.counts.shed_total()).sum();
        ServerReport {
            digest,
            wall_ns,
            offered,
            completed_total,
            shed_total,
            goodput_rps: completed_total as f64 / wall_s,
            tenants,
            gc: GcReport {
                lgc_runs: d.lgc_runs,
                cgc_runs: d.cgc_runs,
                lgc_pause_ns: d.lgc_pause_ns_total,
                cgc_pause_ns: d.cgc_pause_ns_total,
                pause_overlap_pct: 100.0 * (d.lgc_pause_ns_total + d.cgc_pause_ns_total) as f64
                    / wall_ns.max(1) as f64,
                gc_forced_by_pressure: d.gc_forced_by_pressure,
                alloc_failures: d.alloc_failures,
                lgc_dead_traced: d.lgc_dead_traced,
                pins: d.pins,
                live_bytes: stats1.live_bytes,
                pinned_bytes: stats1.pinned_bytes,
            },
            // Steady-state slope: fit on the second half of the window so
            // startup growth (caches and feeds filling) doesn't read as a
            // leak. The witness E12 wants is the long-run trend.
            live_slope_bytes_per_s: live_slope(&samples[samples.len() / 2..]),
            live_samples: samples.len(),
            census,
        }
    }

    /// Retires every tenant session, releasing their persistent roots.
    pub fn shutdown(self) {
        for t in &self.tenants {
            self.rt.retire_session(&t.session);
        }
    }
}

/// Computes the brownout rung from this window's timeout fraction plus,
/// when the runtime is telemetered, heap-census fragmentation and the
/// window's GC pause-histogram p99 delta. Takes the worst rung any
/// signal demands; `pause0` is advanced to the current pause snapshots
/// so the next window measures only its own pauses.
fn brownout_level(
    rt: &Runtime,
    timeout_frac: f64,
    pause0: &mut (mpl_obs::HistSnapshot, mpl_obs::HistSnapshot),
) -> Brownout {
    let mut level = if timeout_frac >= 0.5 {
        Brownout::Degraded
    } else if timeout_frac >= 0.25 {
        Brownout::ShedEntangled
    } else {
        Brownout::Normal
    };
    if rt.config().telemetry {
        // Memory pressure: fragmentation of the allocated blocks. A
        // heavily fragmented heap means evacuation/sweep work is about
        // to get expensive, so back off before pauses spike.
        let frag = rt.heap_census().fragmentation();
        level = level.max(if frag >= 0.75 {
            Brownout::Degraded
        } else if frag >= 0.55 {
            Brownout::ShedEntangled
        } else {
            Brownout::Normal
        });
        // Latency pressure: the pause p99 over this window only.
        let lgc = histogram(Metric::LgcPause).snapshot();
        let cgc = histogram(Metric::CgcPause).snapshot();
        let p99 = diff_hist(&lgc, &pause0.0)
            .percentile(0.99)
            .max(diff_hist(&cgc, &pause0.1).percentile(0.99));
        level = level.max(if p99 >= 20_000_000 {
            Brownout::Degraded
        } else if p99 >= 5_000_000 {
            Brownout::ShedEntangled
        } else {
            Brownout::Normal
        });
        *pause0 = (lgc, cgc);
    }
    level
}

/// Bucket-wise difference of two snapshots of one (monotone) histogram:
/// the recordings that happened between them.
fn diff_hist(now: &mpl_obs::HistSnapshot, then: &mpl_obs::HistSnapshot) -> mpl_obs::HistSnapshot {
    let mut out = *now;
    out.count = now.count.saturating_sub(then.count);
    out.sum = now.sum.saturating_sub(then.sum);
    for (o, t) in out.buckets.iter_mut().zip(then.buckets.iter()) {
        *o = o.saturating_sub(*t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::ArrivalProcess;
    use crate::workload::Profile;
    use mpl_runtime::RuntimeConfig;

    #[test]
    fn serves_all_offered_requests_when_unbudgeted() {
        let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
        let mut srv = Server::new(
            &rt,
            vec![
                TenantSpec::new("a", 0),
                TenantSpec::new("b", 0).profile(Profile::Entangled),
            ],
        );
        let rep = srv.run(&TrafficConfig {
            requests: 120,
            rate_hz: 20_000.0,
            tenants: 2,
            process: ArrivalProcess::Uniform,
            ..TrafficConfig::default()
        });
        assert_eq!(rep.offered, 120);
        assert_eq!(rep.completed_total, 120);
        assert_eq!(rep.shed_total, 0);
        assert!(rep.tenants.iter().all(|t| t.p99_ns > 0));
        srv.shutdown();
        assert_eq!(rt.live_root_stacks(), 0);
        rt.assert_heap_sound();
    }

    #[test]
    fn deadline_timeouts_retry_and_open_the_breaker() {
        use crate::traffic::RequestMix;
        let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
        // A 1 ns deadline is expired by the first poll point of every
        // insert, so each attempt unwinds; one retry per request, then
        // the breaker opens after BREAKER_THRESHOLD final failures and
        // sheds the rest of the burst at the door.
        let mut srv = Server::new(
            &rt,
            vec![TenantSpec::new("storm", 0)
                .timeout(Duration::from_nanos(1))
                .retries(1)
                .backoff(Duration::from_micros(1))],
        );
        let rep = srv.run(&TrafficConfig {
            requests: 40,
            rate_hz: 50_000.0,
            mix: RequestMix {
                read: 0,
                insert: 100,
                feed: 0,
                scan: 0,
            },
            ..TrafficConfig::default()
        });
        let t = &rep.tenants[0].counts;
        assert!(t.timed_out > 0, "1ns deadline never timed out: {t:?}");
        assert!(t.retried > 0, "timeouts must retry: {t:?}");
        assert!(
            t.breaker_opens >= 1,
            "failure streak must open breaker: {t:?}"
        );
        assert!(
            t.breaker_shed > 0,
            "open breaker must shed at the door: {t:?}"
        );
        assert!(
            rep.shed_total >= t.breaker_shed,
            "breaker sheds count as sheds"
        );
        let s = rt.stats();
        assert!(s.requests_timed_out > 0, "runtime timeout counter");
        assert!(s.request_retries > 0, "runtime retry counter");
        assert!(s.breaker_open > 0, "runtime breaker counter");
        assert!(s.cancel_unwound > 0, "each timeout is a cancelled unwind");
        // Storms of mid-request unwinds leave the sessions coherent.
        srv.shutdown();
        rt.assert_heap_sound();
        assert_eq!(rt.live_root_stacks(), 0);
    }

    #[test]
    fn brownout_sheds_entangled_and_degrades_the_rest() {
        use crate::traffic::RequestMix;
        let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
        let mut srv = Server::new(
            &rt,
            vec![
                TenantSpec::new("pin", 0).profile(Profile::Entangled),
                TenantSpec::new("plain", 0),
            ],
        );
        // Pin the ladder at its last rung; with fewer arrivals than
        // BROWNOUT_WINDOW the dispatcher never recomputes it, so the
        // rung's behavior is observed in isolation.
        srv.brownout = Brownout::Degraded;
        let rep = srv.run(&TrafficConfig {
            requests: 60,
            rate_hz: 20_000.0,
            tenants: 2,
            mix: RequestMix {
                read: 0,
                insert: 100,
                feed: 0,
                scan: 0,
            },
            ..TrafficConfig::default()
        });
        let pin = &rep.tenants[0].counts;
        let plain = &rep.tenants[1].counts;
        assert!(pin.brownout_shed > 0, "entangled tenant must shed: {pin:?}");
        assert_eq!(pin.completed, 0, "shed at the door, never admitted");
        assert!(plain.completed > 0, "disentangled tenant keeps serving");
        assert_eq!(
            plain.degraded, plain.admitted,
            "at Degraded every insert is rewritten to a cheap read"
        );
        assert_eq!(
            rep.completed_total + rep.shed_total,
            rep.offered as u64,
            "every arrival either completed or shed"
        );
        srv.shutdown();
        rt.assert_heap_sound();
    }

    #[test]
    fn timeout_storm_raises_the_brownout_ladder() {
        use crate::traffic::RequestMix;
        let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
        // Tenant 0 times out every attempt (4 retries keeps the window's
        // timeout fraction over the ShedEntangled threshold even after
        // its breaker opens); tenant 1 is the entangled victim the
        // ladder sheds once the rung rises.
        let mut srv = Server::new(
            &rt,
            vec![
                TenantSpec::new("storm", 0)
                    .timeout(Duration::from_nanos(1))
                    .retries(4)
                    .backoff(Duration::from_micros(1)),
                TenantSpec::new("victim", 0).profile(Profile::Entangled),
            ],
        );
        let rep = srv.run(&TrafficConfig {
            requests: 256,
            rate_hz: 50_000.0,
            tenants: 2,
            mix: RequestMix {
                read: 0,
                insert: 100,
                feed: 0,
                scan: 0,
            },
            ..TrafficConfig::default()
        });
        // The rung itself may have relaxed again by the end of the run
        // (an open breaker silences the storm), so the witness is the
        // victim's shed count, not the final rung.
        let victim = &rep.tenants[1].counts;
        assert!(
            victim.brownout_shed > 0,
            "entangled victim must be shed under brownout: {victim:?}"
        );
        srv.shutdown();
        rt.assert_heap_sound();
        assert_eq!(rt.live_root_stacks(), 0);
    }

    #[test]
    fn tiny_budget_sheds_but_server_survives() {
        let rt = Runtime::new(RuntimeConfig::managed().with_threads_exact(2));
        // 64 KiB budget + huge payloads: this tenant must shed.
        let mut srv = Server::new(
            &rt,
            vec![TenantSpec::new("hog", 64 * 1024).payload_scale(64)],
        );
        let rep = srv.run(&TrafficConfig {
            requests: 80,
            rate_hz: 50_000.0,
            ..TrafficConfig::default()
        });
        assert_eq!(rep.offered, 80);
        assert!(rep.shed_total > 0, "hog tenant never shed");
        let b = &rep.tenants[0].budget.as_ref().unwrap();
        assert!(b.sheds > 0);
        // The session survives shedding: runtime invariants hold.
        srv.shutdown();
        rt.assert_heap_sound();
        assert_eq!(rt.live_root_stacks(), 0);
    }
}
