//! # mpl-fail — deterministic failpoints
//!
//! The paper's safety claims are about *adversarial interleavings* — yet a
//! runtime with no way to provoke them on demand can only test the schedules
//! the OS happens to produce. This crate gives every hot seam of the runtime
//! a **named failpoint**: a site that, when armed, deterministically injects
//! a fault — a panic, a recoverable error, a delay, or a scheduler yield —
//! on a schedule derived from a seed.
//!
//! ## Overhead discipline
//!
//! Same rule as `mpl-obs`: a disarmed site costs **one relaxed atomic load
//! and a predicted-not-taken branch**. No string hashing, no registry
//! lookup, no clock. Sites are always compiled in; arming is a runtime
//! decision ([`install`], `mpl_runtime::RuntimeConfig::with_failpoints` upstream, or
//! the `MPL_FAILPOINTS` environment variable).
//!
//! ## Determinism
//!
//! Whether hit number *h* at a site fires is a **pure function** of
//! `(seed, site name, h)` — per-site hit counters are atomic, so the
//! decision does not depend on thread count or interleaving, only on how
//! many times the site has been reached. `"fire on the Nth hit"`
//! ([`FailWhen::Nth`]) and `"1-in-k with a seeded RNG"`
//! ([`FailWhen::OneIn`], SplitMix64 over `seed ^ site ^ h`) are both stable
//! across runs with the same hit sequence; a property test upstream pins
//! this down.
//!
//! `mpl-fail` is a leaf crate — it depends on no other workspace crate, so
//! heap, gc, sched and core can all host sites.
//!
//! ## Site naming
//!
//! Sites are named `subsystem/seam` after the phase boundary they sit on:
//! `lgc/shield`, `cgc/mark`, `cgc/sweep`, `alloc/words`,
//! `barrier/read_slow`, `sched/steal`, … Concurrency-bearing seams get
//! their own sites so chaos schedules can target exactly one unit of
//! parallel work: `cgc/packet` fires inside a single trace/sweep work
//! packet on whichever scheduler worker picked it up (exercising packet
//! crash-isolation and retry), and `cgc/modbuf-flush` fires where a
//! mutator slot's SATB entries change hands — the collector's drain of a
//! non-empty slot buffer, and a closing slot's hand-off of its leftovers
//! (exercising the drain's ordering against slots opening and closing).
//! Grep for `hit_hard(` / `hit(` for the authoritative list.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Duration;

/// Maximum number of failpoints one [`FailPlan`] can carry. The runtime has
/// a dozen sites; 16 leaves headroom while keeping the plan `Copy`.
pub const MAX_FAILPOINTS: usize = 16;

/// Cap on the recorded fire log (oldest-first; fires beyond the cap are
/// counted but not recorded).
const FIRE_LOG_CAP: usize = 1 << 16;

/// What an armed site does when its schedule says "fire".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a message naming the site. Unwinds through the normal
    /// fork/join panic-propagation path.
    Panic,
    /// Return an [`Injected`] error to the call site. Only meaningful at
    /// sites with a recoverable error path (e.g. allocation); sites without
    /// one escalate it to a panic via [`hit_hard`].
    Error,
    /// Sleep for the given number of nanoseconds — stretches the window of
    /// whatever race the site sits in.
    Delay(u64),
    /// `std::thread::yield_now()` — perturbs the schedule without cost.
    Yield,
}

/// When an armed site fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailWhen {
    /// Fire on every hit.
    Always,
    /// Fire exactly once, on the Nth hit (1-based).
    Nth(u64),
    /// Fire on roughly one in `k` hits, decided by SplitMix64 over
    /// `(plan seed, site name, hit number)` — deterministic for a given
    /// hit sequence.
    OneIn(u64),
}

/// One armed site: name, action, schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Failpoint {
    /// Site name as written at the call site (e.g. `"lgc/shield"`).
    pub site: &'static str,
    /// Injected fault.
    pub action: FailAction,
    /// Schedule.
    pub when: FailWhen,
}

/// A `Copy` bundle of failpoints plus the seed their schedules derive from.
/// Carried by value inside `RuntimeConfig`; installed process-globally by
/// [`install`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailPlan {
    /// Seed feeding every [`FailWhen::OneIn`] decision in this plan.
    pub seed: u64,
    points: [Option<Failpoint>; MAX_FAILPOINTS],
    len: usize,
}

impl Default for FailPlan {
    fn default() -> Self {
        Self::new(0)
    }
}

impl FailPlan {
    /// An empty plan with the given seed.
    pub const fn new(seed: u64) -> Self {
        Self {
            seed,
            points: [None; MAX_FAILPOINTS],
            len: 0,
        }
    }

    /// Add a failpoint (builder-style). Panics if the plan is full.
    #[must_use]
    pub fn with(mut self, site: &'static str, action: FailAction, when: FailWhen) -> Self {
        assert!(
            self.len < MAX_FAILPOINTS,
            "FailPlan holds at most {MAX_FAILPOINTS} points"
        );
        self.points[self.len] = Some(Failpoint { site, action, when });
        self.len += 1;
        self
    }

    /// Number of failpoints in the plan.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan arms no sites.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The armed failpoints, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Failpoint> {
        self.points[..self.len].iter().flatten()
    }
}

/// The error payload an [`FailAction::Error`] fire hands to the call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injected {
    /// The site that fired.
    pub site: &'static str,
}

impl std::fmt::Display for Injected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failpoint '{}' fired (injected error)", self.site)
    }
}

impl std::error::Error for Injected {}

/// One recorded fire, for the deterministic-schedule property tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FireRecord {
    /// Site name.
    pub site: String,
    /// 1-based hit number at that site when it fired.
    pub hit: u64,
    /// Action taken.
    pub action: FailAction,
}

// ---------------------------------------------------------------------------
// Process-global registry.
// ---------------------------------------------------------------------------

struct Slot {
    owner: u64,
    site: String,
    action: FailAction,
    when: FailWhen,
    seed: u64,
    hits: AtomicU64,
    fires: AtomicU64,
}

/// Fast-path flag: `true` while at least one site is armed. Disarmed sites
/// check only this (one relaxed load).
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_OWNER: AtomicU64 = AtomicU64::new(1);
static FIRES: AtomicU64 = AtomicU64::new(0);
static REGISTRY: RwLock<Vec<Slot>> = RwLock::new(Vec::new());
static FIRE_LOG: Mutex<Vec<FireRecord>> = Mutex::new(Vec::new());

/// Whether any failpoint is currently armed. This is the only check on the
/// disarmed path.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Total fires since process start (all sites, all plans). Monotonic;
/// surfaced as `failpoint_fires` in `StatsSnapshot` upstream.
pub fn fires() -> u64 {
    FIRES.load(Ordering::Relaxed)
}

/// Arm a plan's failpoints. Returns an owner token for [`uninstall`].
/// Multiple plans can be armed at once (sites are matched by name against
/// every armed slot, in installation order).
pub fn install(plan: &FailPlan) -> u64 {
    let owner = NEXT_OWNER.fetch_add(1, Ordering::Relaxed);
    let mut reg = REGISTRY.write().unwrap();
    for fp in plan.iter() {
        reg.push(Slot {
            owner,
            site: fp.site.to_string(),
            action: fp.action,
            when: fp.when,
            seed: plan.seed,
            hits: AtomicU64::new(0),
            fires: AtomicU64::new(0),
        });
    }
    ENABLED.store(!reg.is_empty(), Ordering::Relaxed);
    owner
}

/// Disarm every failpoint installed under `owner`.
pub fn uninstall(owner: u64) {
    let mut reg = REGISTRY.write().unwrap();
    reg.retain(|s| s.owner != owner);
    ENABLED.store(!reg.is_empty(), Ordering::Relaxed);
}

/// Drain the recorded fire log (site, hit number, action — in fire order;
/// capped at `FIRE_LOG_CAP` records between drains).
pub fn take_fire_log() -> Vec<FireRecord> {
    std::mem::take(&mut *FIRE_LOG.lock().unwrap())
}

/// Per-site fire counts for every armed slot, in installation order.
pub fn site_fires() -> Vec<(String, u64)> {
    REGISTRY
        .read()
        .unwrap()
        .iter()
        .map(|s| (s.site.clone(), s.fires.load(Ordering::Relaxed)))
        .collect()
}

/// Apply the `MPL_FAILPOINTS` environment opt-in once per process. The spec
/// grammar is `site=action[:when]` entries separated by `;`, with
/// `action ∈ panic | error | yield | delay(NS)` and
/// `when ∈ always | nth(N) | 1in(K)` (default `always`). The schedule seed
/// comes from `MPL_FAILPOINT_SEED` (default 0). Malformed specs are
/// reported on stderr and skipped — fault injection must never take down a
/// process that didn't ask for it.
pub fn init_from_env() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let Ok(spec) = std::env::var("MPL_FAILPOINTS") else {
            return;
        };
        if spec.is_empty() {
            return;
        }
        let seed = std::env::var("MPL_FAILPOINT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        match parse_spec(&spec) {
            Ok(points) => {
                let owner = NEXT_OWNER.fetch_add(1, Ordering::Relaxed);
                let mut reg = REGISTRY.write().unwrap();
                for (site, action, when) in points {
                    reg.push(Slot {
                        owner,
                        site,
                        action,
                        when,
                        seed,
                        hits: AtomicU64::new(0),
                        fires: AtomicU64::new(0),
                    });
                }
                ENABLED.store(!reg.is_empty(), Ordering::Relaxed);
            }
            Err(e) => eprintln!("mpl-fail: ignoring MPL_FAILPOINTS: {e}"),
        }
    });
}

/// Parse an `MPL_FAILPOINTS`-grammar spec into (site, action, schedule)
/// triples. Public so harnesses can validate specs they are about to export.
pub fn parse_spec(spec: &str) -> Result<Vec<(String, FailAction, FailWhen)>, String> {
    let mut out = Vec::new();
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let (site, rest) = entry
            .split_once('=')
            .ok_or_else(|| format!("'{entry}': expected site=action"))?;
        let (action_s, when_s) = match rest.split_once(':') {
            Some((a, w)) => (a, Some(w)),
            None => (rest, None),
        };
        let action = parse_action(action_s.trim())?;
        let when = match when_s {
            None => FailWhen::Always,
            Some(w) => parse_when(w.trim())?,
        };
        out.push((site.trim().to_string(), action, when));
    }
    Ok(out)
}

fn parse_paren(s: &str, prefix: &str) -> Option<u64> {
    s.strip_prefix(prefix)?
        .strip_prefix('(')?
        .strip_suffix(')')?
        .parse()
        .ok()
}

fn parse_action(s: &str) -> Result<FailAction, String> {
    match s {
        "panic" => Ok(FailAction::Panic),
        "error" => Ok(FailAction::Error),
        "yield" => Ok(FailAction::Yield),
        _ => parse_paren(s, "delay")
            .map(FailAction::Delay)
            .ok_or_else(|| format!("'{s}': expected panic|error|yield|delay(NS)")),
    }
}

fn parse_when(s: &str) -> Result<FailWhen, String> {
    match s {
        "always" => Ok(FailWhen::Always),
        _ => parse_paren(s, "nth")
            .map(FailWhen::Nth)
            .or_else(|| parse_paren(s, "1in").map(FailWhen::OneIn))
            .ok_or_else(|| format!("'{s}': expected always|nth(N)|1in(K)")),
    }
}

// ---------------------------------------------------------------------------
// The decision function.
// ---------------------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Pure fire decision: does hit `h` (1-based) at `site` fire under
/// (`seed`, `when`)? Exposed for the determinism property tests.
pub fn decides(seed: u64, site: &str, when: FailWhen, h: u64) -> bool {
    match when {
        FailWhen::Always => true,
        FailWhen::Nth(n) => h == n,
        FailWhen::OneIn(k) => k != 0 && splitmix64(seed ^ fnv1a(site) ^ h).is_multiple_of(k),
    }
}

#[cold]
fn hit_slow(site: &'static str) -> Result<(), Injected> {
    let mut fired = None;
    {
        let reg = REGISTRY.read().unwrap();
        for slot in reg.iter().filter(|s| s.site == site) {
            let h = slot.hits.fetch_add(1, Ordering::Relaxed) + 1;
            if decides(slot.seed, site, slot.when, h) {
                slot.fires.fetch_add(1, Ordering::Relaxed);
                FIRES.fetch_add(1, Ordering::Relaxed);
                fired = Some((h, slot.action));
                break;
            }
        }
    }
    let Some((h, action)) = fired else {
        return Ok(());
    };
    {
        let mut log = FIRE_LOG.lock().unwrap();
        if log.len() < FIRE_LOG_CAP {
            log.push(FireRecord {
                site: site.to_string(),
                hit: h,
                action,
            });
        }
    }
    match action {
        FailAction::Panic => panic!("failpoint '{site}' fired (injected panic)"),
        FailAction::Error => Err(Injected { site }),
        FailAction::Delay(ns) => {
            std::thread::sleep(Duration::from_nanos(ns));
            Ok(())
        }
        FailAction::Yield => {
            std::thread::yield_now();
            Ok(())
        }
    }
}

/// A failpoint at a site with a recoverable error path. Disarmed cost: one
/// relaxed load. Armed: may panic, sleep, yield, or return [`Injected`]
/// for the caller to surface as its native error.
#[inline(always)]
pub fn hit(site: &'static str) -> Result<(), Injected> {
    if !enabled() {
        return Ok(());
    }
    hit_slow(site)
}

/// A failpoint at a site with no error path: `error` escalates to a panic
/// so a misdirected spec still produces a visible fault instead of being
/// silently swallowed.
#[inline(always)]
pub fn hit_hard(site: &'static str) {
    if !enabled() {
        return;
    }
    if let Err(e) = hit_slow(site) {
        panic!("{e} at a site with no error path");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry is process-global and tests run in parallel: serialize.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_sites_do_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        assert!(hit("tests/nowhere").is_ok());
        hit_hard("tests/nowhere");
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _g = TEST_LOCK.lock().unwrap();
        let plan = FailPlan::new(7).with("tests/nth", FailAction::Error, FailWhen::Nth(3));
        let owner = install(&plan);
        let results: Vec<bool> = (0..6).map(|_| hit("tests/nth").is_err()).collect();
        uninstall(owner);
        assert_eq!(results, [false, false, true, false, false, false]);
    }

    #[test]
    fn one_in_k_matches_the_pure_decision_function() {
        let _g = TEST_LOCK.lock().unwrap();
        let _ = take_fire_log();
        let plan = FailPlan::new(42).with("tests/onein", FailAction::Error, FailWhen::OneIn(3));
        let owner = install(&plan);
        let observed: Vec<bool> = (0..64).map(|_| hit("tests/onein").is_err()).collect();
        uninstall(owner);
        let expected: Vec<bool> = (1..=64)
            .map(|h| decides(42, "tests/onein", FailWhen::OneIn(3), h))
            .collect();
        assert_eq!(observed, expected);
        assert!(observed.iter().any(|&b| b), "1-in-3 over 64 hits must fire");
        let log = take_fire_log();
        assert_eq!(log.len(), observed.iter().filter(|&&b| b).count());
        assert!(log.iter().all(|r| r.site == "tests/onein"));
    }

    #[test]
    fn delay_and_yield_do_not_error() {
        let _g = TEST_LOCK.lock().unwrap();
        let plan = FailPlan::new(0)
            .with("tests/delay", FailAction::Delay(1), FailWhen::Always)
            .with("tests/yield", FailAction::Yield, FailWhen::Always);
        let owner = install(&plan);
        assert!(hit("tests/delay").is_ok());
        hit_hard("tests/yield");
        uninstall(owner);
        assert!(!enabled());
    }

    #[test]
    fn panic_action_panics_with_the_site_name() {
        let _g = TEST_LOCK.lock().unwrap();
        let plan = FailPlan::new(0).with("tests/panic", FailAction::Panic, FailWhen::Always);
        let owner = install(&plan);
        let out = std::panic::catch_unwind(|| hit_hard("tests/panic"));
        uninstall(owner);
        let msg = *out.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("tests/panic"), "{msg}");
    }

    #[test]
    fn spec_grammar_round_trips() {
        let spec = "lgc/shield=delay(1000):1in(7); sched/steal=yield; heap/alloc=error:nth(2)";
        let parsed = parse_spec(spec).unwrap();
        assert_eq!(
            parsed,
            vec![
                (
                    "lgc/shield".to_string(),
                    FailAction::Delay(1000),
                    FailWhen::OneIn(7)
                ),
                (
                    "sched/steal".to_string(),
                    FailAction::Yield,
                    FailWhen::Always
                ),
                (
                    "heap/alloc".to_string(),
                    FailAction::Error,
                    FailWhen::Nth(2)
                ),
            ]
        );
        assert!(parse_spec("oops").is_err());
        assert!(parse_spec("a=explode").is_err());
        assert!(parse_spec("a=panic:sometimes").is_err());
    }

    #[test]
    fn plan_is_copy_and_bounded() {
        let plan = FailPlan::new(1).with("a", FailAction::Yield, FailWhen::Always);
        let copy = plan; // Copy, not move
        assert_eq!(plan, copy);
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
    }
}
