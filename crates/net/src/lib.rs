//! # lg-net — parcel transport substrate with adaptive coalescing
//!
//! Task-parallel runtimes move work and data between localities as
//! *parcels* (active messages). Sending each parcel individually pays the
//! per-message cost `α` once per parcel; coalescing `n` parcels into one
//! wire message amortizes `α` at the price of queueing delay while the
//! buffer fills. The coalescing window is therefore a classic online-tuning
//! knob: the right setting depends on the offered load, which changes at
//! phase boundaries.
//!
//! * [`parcel::Parcel`] — destination, tag, payload.
//! * [`cost::TransportCost`] — LogP-flavored `α + β·bytes` wire cost plus
//!   propagation latency.
//! * [`coalesce::Coalescer`] — buffers parcels until `window` parcels have
//!   accumulated or `max_delay` has elapsed since the oldest buffered
//!   parcel; both triggers are observable and the window is a knob.
//! * [`link::SimLink`] — a simulated serialized link over virtual time:
//!   computes departure/arrival times, tracks per-parcel latency and
//!   achieved throughput.
//! * [`fault::FaultPlan`] — seeded, virtual-time fault injection for the
//!   link: random drops, duplicates, delay jitter, and link flaps.
//! * [`reliable::ReliableLink`] — ack/timeout retransmission with
//!   exponential backoff, per-destination retry budgets (token bucket),
//!   and per-destination circuit breakers; delivers each parcel exactly
//!   once despite injected faults. Retry aggressiveness is exposed as the
//!   `retry_budget` knob.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coalesce;
pub mod cost;
pub mod fault;
mod intmap;
pub mod link;
pub mod parcel;
pub mod reliable;

pub use coalesce::{Coalescer, FlushReason};
pub use cost::TransportCost;
pub use fault::{FaultAction, FaultPlan};
pub use link::{LinkReport, SimLink};
pub use parcel::Parcel;
pub use reliable::{ReliableConfig, ReliableLink, ReliableReport};
