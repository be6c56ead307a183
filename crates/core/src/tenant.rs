//! Tenant identity and the scoped addressing scheme.
//!
//! A *tenant* is one full looking-glass instance (its own dispatcher,
//! introspection, knob registry, and actuation journal) living alongside
//! siblings on a shared machine. The [`Arbiter`](crate::arbiter::Arbiter)
//! hosts N of them and arbitrates machine-wide budgets; everything the
//! governor mirrors from a tenant — gauges, allocation knobs — is
//! addressed under a per-tenant namespace so one flat registry can hold
//! the whole fleet without collisions.
//!
//! The namespace is purely textual: tenant 3's `thread_cap` mirror lives
//! at `"t3.thread_cap"`. `TenantId::scoped` builds such names, and
//! [`TenantId::prefix`] is the part that names the tenant.

use std::fmt;

/// Identity of one tenant under an arbiter. Copyable, ordered, and dense:
/// arbiters hand out ids as small slot indexes so per-tenant state can
/// live in plain vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant's namespace prefix, without the trailing dot (`"t3"`).
    pub fn prefix(&self) -> String {
        format!("t{}", self.0)
    }

    /// Scope a metric or knob name under this tenant: `"t3.thread_cap"`.
    pub(crate) fn scoped(&self, name: &str) -> String {
        format!("t{}.{name}", self.0)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Service-level class of a tenant — the coarse priority the governor's
/// preemption rule keys on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SloClass {
    /// Latency-sensitive: may preempt [`SloClass::Batch`] capacity (down
    /// to batch floors) when its pressure signal crosses its SLO.
    Latency,
    /// Throughput-oriented: yields to latency tenants under pressure,
    /// soaks up slack capacity otherwise.
    Batch,
}

impl SloClass {
    /// Preemption rank — higher preempts lower.
    pub fn rank(&self) -> u8 {
        match self {
            SloClass::Latency => 1,
            SloClass::Batch => 0,
        }
    }

    /// Short label for tables and traces.
    pub fn label(&self) -> &'static str {
        match self {
            SloClass::Latency => "latency",
            SloClass::Batch => "batch",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_round_trips() {
        let id = TenantId(7);
        let name = id.scoped("serve.p99_window_ns");
        assert_eq!(name, "t7.serve.p99_window_ns");
        // The scoped name is the prefix, a dot, and the name.
        let tail = name
            .strip_prefix(&id.prefix())
            .and_then(|t| t.strip_prefix('.'));
        assert_eq!(tail, Some("serve.p99_window_ns"));
    }

    #[test]
    fn slo_rank_orders_preemption() {
        assert!(SloClass::Latency.rank() > SloClass::Batch.rank());
        assert_eq!(SloClass::Latency.label(), "latency");
        assert_eq!(SloClass::Batch.label(), "batch");
    }

    #[test]
    fn display_matches_prefix() {
        assert_eq!(TenantId(3).to_string(), "t3");
        assert_eq!(TenantId(3).prefix(), "t3");
    }
}
