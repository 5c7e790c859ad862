//! Collection-trigger policies.
//!
//! The paper's design keeps the two collectors on independent triggers:
//! the local collector (LGC) is driven by a task's own allocation volume —
//! it never synchronizes with other tasks — while the concurrent collector
//! (CGC) is driven by the footprint of pinned (entangled) objects, so a
//! fully disentangled program never runs it at all.
//!
//! Diagnostics are deliberately *not* part of the policy: phase-boundary
//! auditing and event tracing (the [`crate::audit`] layer) are enabled
//! per-process via `MPL_DEBUG_LGC_VALIDATE` or `RuntimeConfig::with_audit`
//! and run at the end of whatever collections these triggers schedule.

/// Tunable collection thresholds (ablation experiment E9 sweeps these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcPolicy {
    /// Run a local collection once a task has allocated this many logical
    /// bytes since its previous local collection.
    pub lgc_trigger_bytes: usize,
    /// Run a concurrent collection once the global pinned footprint
    /// exceeds this many bytes. `usize::MAX` disables the CGC.
    pub cgc_trigger_pinned_bytes: usize,
}

impl Default for GcPolicy {
    fn default() -> Self {
        GcPolicy {
            lgc_trigger_bytes: 256 * 1024,
            cgc_trigger_pinned_bytes: 1024 * 1024,
        }
    }
}

impl GcPolicy {
    /// A policy that never collects — used by overhead experiments to
    /// isolate barrier costs, and by tests that inspect raw heap state.
    pub fn disabled() -> GcPolicy {
        GcPolicy {
            lgc_trigger_bytes: usize::MAX,
            cgc_trigger_pinned_bytes: usize::MAX,
        }
    }

    /// True if a task that allocated `bytes` since its last local
    /// collection should collect now.
    pub fn should_lgc(&self, bytes: usize) -> bool {
        bytes >= self.lgc_trigger_bytes
    }

    /// True if the global pinned footprint warrants a concurrent
    /// collection.
    pub fn should_cgc(&self, pinned_bytes: usize) -> bool {
        pinned_bytes >= self.cgc_trigger_pinned_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thresholds() {
        let p = GcPolicy::default();
        assert!(!p.should_lgc(0));
        assert!(p.should_lgc(p.lgc_trigger_bytes));
        assert!(!p.should_cgc(p.cgc_trigger_pinned_bytes - 1));
        assert!(p.should_cgc(p.cgc_trigger_pinned_bytes));
    }

    #[test]
    fn disabled_never_triggers() {
        let p = GcPolicy::disabled();
        assert!(!p.should_lgc(usize::MAX - 1));
        assert!(!p.should_cgc(usize::MAX - 1));
    }
}
