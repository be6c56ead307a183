//! Requests: the unit of open-loop serving work.

use lg_core::RequestClass;

/// One serving request, generated by an arrival process and carried
/// through admission, the reliable link, and the service stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Unique id; doubles as the wire sequence number and the brownout
    /// shed ticket. Dense within a stream — the `i`-th request's id is the
    /// first one's plus `i` — which [`ServeEngine::run`](super::ServeEngine::run)
    /// relies on, panicking on a gap.
    pub id: u64,
    /// Brownout class: optional work is shed before mandatory work.
    pub class: RequestClass,
    /// Absolute arrival time, ns.
    pub arrival_ns: u64,
    /// Absolute deadline, ns — a response after this point is worthless
    /// (counts as a miss, not as goodput).
    pub deadline_ns: u64,
    /// Nominal service demand at an uncontended server, ns.
    pub service_ns: u64,
    /// Destination locality of the backing server.
    pub dest: u32,
}

impl Request {
    /// Relative deadline (time budget from arrival), ns.
    pub fn budget_ns(&self) -> u64 {
        self.deadline_ns.saturating_sub(self.arrival_ns)
    }
}
