//! Tenants: a budgeted session group on one persistent runtime.

use std::sync::Arc;

use mpl_heap::Value;
use mpl_obs::{family_histogram, Histogram};
use mpl_runtime::Runtime;
use mpl_runtime::TenantSession;

use crate::workload::{init_session, Profile, SessionState};

/// Static description of one tenant.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant name (budget label, report row, histogram label).
    pub name: String,
    /// Heap budget in bytes; `0` = unlimited (accounting only).
    pub budget_bytes: usize,
    /// How this tenant's request branches share state.
    pub profile: Profile,
    /// Number of persistent sessions the tenant owns.
    pub sessions: usize,
    /// Cache slots per session.
    pub cache_slots: usize,
    /// Multiplier on every request's payload size — the adversarial
    /// tenant in E12 sets this high to blow through its budget.
    pub payload_scale: usize,
    /// Per-request timeout in nanoseconds; `0` (the default) runs
    /// requests without a deadline. Timed-out requests unwind at the
    /// runtime's next cancellation poll point
    /// (`Runtime::try_run_session_deadline`) with the session heap
    /// coherent, then retry per [`TenantSpec::retries`].
    pub timeout_ns: u64,
    /// Retry attempts after a timed-out request (exponential backoff
    /// with seeded jitter between attempts; see
    /// [`TenantSpec::backoff_ns`]).
    pub retries: u32,
    /// Base backoff in nanoseconds before a retry. Attempt `k` sleeps
    /// `backoff · 2^(k-1)` jittered in `[½, 1]×` by the dispatcher's
    /// seeded PRNG, so a deadline storm's retries decorrelate
    /// deterministically.
    pub backoff_ns: u64,
}

impl TenantSpec {
    /// A default spec: disentangled, 2 sessions, 64 cache slots.
    pub fn new(name: &str, budget_bytes: usize) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            budget_bytes,
            profile: Profile::Disentangled,
            sessions: 2,
            cache_slots: 64,
            payload_scale: 1,
            timeout_ns: 0,
            retries: 0,
            backoff_ns: 200_000,
        }
    }

    /// Sets the access profile.
    pub fn profile(mut self, p: Profile) -> TenantSpec {
        self.profile = p;
        self
    }

    /// Sets the session count.
    pub fn sessions(mut self, n: usize) -> TenantSpec {
        self.sessions = n.max(1);
        self
    }

    /// Sets the per-session cache slot count.
    pub fn cache_slots(mut self, n: usize) -> TenantSpec {
        self.cache_slots = n.max(2);
        self
    }

    /// Sets the payload multiplier.
    pub fn payload_scale(mut self, n: usize) -> TenantSpec {
        self.payload_scale = n.max(1);
        self
    }

    /// Sets the per-request timeout (see [`TenantSpec::timeout_ns`]).
    pub fn timeout(mut self, d: std::time::Duration) -> TenantSpec {
        self.timeout_ns = d.as_nanos() as u64;
        self
    }

    /// Sets the retry budget for timed-out requests.
    pub fn retries(mut self, n: u32) -> TenantSpec {
        self.retries = n;
        self
    }

    /// Sets the base retry backoff (see [`TenantSpec::backoff_ns`]).
    pub fn backoff(mut self, d: std::time::Duration) -> TenantSpec {
        self.backoff_ns = d.as_nanos() as u64;
        self
    }
}

/// Circuit-breaker state for one tenant (see [`Breaker`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests are shed without touching the runtime until `until_ns`
    /// (dispatcher clock), then one probe is allowed through.
    Open {
        /// Dispatcher-clock instant the breaker half-opens.
        until_ns: u64,
    },
    /// One probe request is in flight; success closes the breaker,
    /// failure re-opens it.
    HalfOpen,
}

/// A per-tenant circuit breaker over *run failures* (timeouts after all
/// retries, panics — not budget sheds, which are ordinary admission
/// control). A tenant whose requests keep burning their full deadline
/// gets its traffic shed at the door, protecting every other tenant's
/// latency from the doomed work.
#[derive(Clone, Copy, Debug)]
pub struct Breaker {
    /// Current state.
    pub state: BreakerState,
    /// Run failures since the last success.
    pub consecutive_failures: u32,
}

impl Default for Breaker {
    fn default() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
        }
    }
}

impl Breaker {
    /// Whether a request may proceed at dispatcher-clock `now_ns`. An
    /// expired `Open` transitions to `HalfOpen` and admits the probe.
    pub fn admit(&mut self, now_ns: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { until_ns } if now_ns >= until_ns => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Records a completed request: resets the failure streak and closes
    /// a half-open breaker.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Records a run failure; once `threshold` consecutive failures
    /// accumulate (or a half-open probe fails) the breaker opens until
    /// `now_ns + open_ns`. Returns true iff this call opened it.
    pub fn on_failure(&mut self, now_ns: u64, threshold: u32, open_ns: u64) -> bool {
        self.consecutive_failures += 1;
        let reopen = matches!(self.state, BreakerState::HalfOpen);
        if reopen || self.consecutive_failures >= threshold {
            self.state = BreakerState::Open {
                until_ns: now_ns.saturating_add(open_ns),
            };
            return true;
        }
        false
    }
}

/// Declares [`TenantCounts`] from one list of its fields, so the struct,
/// its interval view and the report's key order cannot drift apart.
macro_rules! tenant_counts {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Per-tenant dispatcher counters: one field per admission
        /// outcome. [`Tenant`] accumulates them for the server's lifetime;
        /// a [`crate::report::TenantReport`] holds one run's share
        /// ([`TenantCounts::since`]).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct TenantCounts { $($(#[$doc])* pub $name: u64,)* }

        impl TenantCounts {
            /// Every counter with its report key, in report order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name),)*].into_iter()
            }

            /// What was counted after `earlier` was taken.
            pub fn since(&self, earlier: &TenantCounts) -> TenantCounts {
                TenantCounts { $($name: self.$name - earlier.$name,)* }
            }
        }
    };
}

tenant_counts! {
    /// Requests that passed admission.
    admitted,
    /// Requests that completed successfully.
    completed,
    /// Requests shed by budget admission control or by a mid-request
    /// budget `AllocError`.
    shed_budget,
    /// Requests shed by an injected `serve/admit` failpoint.
    shed_injected,
    /// Maintenance collections run when admission found the tenant over
    /// budget (the retry-after-collection path).
    maintenance_gcs,
    /// Request attempts that exhausted their deadline (every timed-out
    /// attempt counts, including ones that later succeeded on retry).
    timed_out,
    /// Retry attempts launched after a timeout.
    retried,
    /// Times this tenant's circuit breaker opened.
    breaker_opens,
    /// Requests shed at the door by an open breaker.
    breaker_shed,
    /// Requests shed by the server's brownout ladder (entangled-profile
    /// load shedding under memory/pause pressure).
    brownout_shed,
    /// Requests served degraded (cheap read instead of the scheduled
    /// kind) while the server was at the brownout ladder's last rung.
    degraded,
}

impl TenantCounts {
    /// Total requests shed for any reason (budget, injected fault, open
    /// breaker, brownout).
    pub fn shed_total(&self) -> u64 {
        self.shed_budget + self.shed_injected + self.breaker_shed + self.brownout_shed
    }
}

/// A live tenant: its runtime session (root heap + budget + persistent
/// root stack), its session states, its latency histogram, and the
/// dispatcher's admission counters.
pub struct Tenant {
    /// The spec this tenant was created from.
    pub spec: TenantSpec,
    /// The runtime session carrying heap, budget and roots.
    pub session: TenantSession,
    /// Per-session workload state, `spec.sessions` entries.
    pub states: Vec<SessionState>,
    /// Request latency (ns), measured from scheduled arrival to
    /// completion. Registered in the `"serve_latency"` histogram family
    /// under the tenant name, so exporters see it too.
    pub latency: Arc<Histogram>,
    /// The dispatcher's admission counters, accumulated over the
    /// server's lifetime.
    pub counts: TenantCounts,
    /// Circuit-breaker state over this tenant's run failures.
    pub breaker: Breaker,
    /// Budget live-bytes after the last maintenance collection that
    /// failed to create headroom. While the reading is unchanged (shed
    /// requests allocate nothing), re-collecting is provably futile and
    /// the gate sheds without another GC.
    pub(crate) futile_at: Option<usize>,
}

impl Tenant {
    /// Creates the tenant on `rt`: allocates its budgeted session and
    /// initialises all per-session state in one setup request.
    pub fn create(rt: &Runtime, spec: TenantSpec) -> Tenant {
        let session = rt.new_tenant(&spec.name, spec.budget_bytes);
        let mut states = Vec::with_capacity(spec.sessions);
        {
            let states = &mut states;
            let sessions = spec.sessions.max(1);
            let slots = spec.cache_slots;
            rt.run_session(&session, move |m| {
                for _ in 0..sessions {
                    states.push(init_session(m, slots));
                }
                Value::Unit
            });
        }
        let latency = family_histogram("serve_latency", &spec.name);
        Tenant {
            spec,
            session,
            states,
            latency,
            counts: TenantCounts::default(),
            breaker: Breaker::default(),
            futile_at: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::RuntimeConfig;

    #[test]
    fn create_roots_sessions_and_budget() {
        let rt = Runtime::new(RuntimeConfig::managed());
        let t = Tenant::create(&rt, TenantSpec::new("alpha", 1 << 20).sessions(3));
        assert_eq!(t.states.len(), 3);
        let b = t.session.budget().expect("budget attached");
        assert_eq!(b.limit(), 1 << 20);
        assert!(b.live_bytes() > 0, "session state must be charged");
        rt.retire_session(&t.session);
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_half_open() {
        let mut b = Breaker::default();
        assert!(b.admit(0));
        assert!(!b.on_failure(100, 3, 1_000), "1 failure: still closed");
        assert!(!b.on_failure(200, 3, 1_000));
        assert!(b.on_failure(300, 3, 1_000), "3rd failure opens");
        assert_eq!(b.state, BreakerState::Open { until_ns: 1_300 });
        assert!(!b.admit(500), "open: shed");
        assert!(b.admit(1_300), "expired: probe admitted");
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert!(b.on_failure(1_400, 3, 1_000), "failed probe re-opens");
        assert!(b.admit(3_000));
        b.on_success();
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.consecutive_failures, 0);
    }

    #[test]
    fn spec_timeout_retry_backoff_builders() {
        use std::time::Duration;
        let s = TenantSpec::new("t", 0)
            .timeout(Duration::from_millis(2))
            .retries(3)
            .backoff(Duration::from_micros(50));
        assert_eq!(s.timeout_ns, 2_000_000);
        assert_eq!(s.retries, 3);
        assert_eq!(s.backoff_ns, 50_000);
        let d = TenantSpec::new("d", 0);
        assert_eq!(d.timeout_ns, 0, "no deadline by default");
        assert_eq!(d.retries, 0);
    }
}
