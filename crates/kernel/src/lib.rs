//! # cscw-kernel — the engineering substrate under the CSCW stack
//!
//! The paper this workspace reproduces (Navarro/Prinz/Rodden, ICDCS
//! 1992) argues that an open CSCW system should stand on a small set of
//! cross-cutting engineering functions rather than each service growing
//! its own. This crate is that substrate for the whole workspace:
//!
//! * [`Clock`] — one notion of time, with a wall-clock impl
//!   ([`WallClock`]) and an externally-driven test fake
//!   ([`ManualClock`]); `simnet`'s simulator is itself a `Clock`.
//! * [`SeededRng`] — seeded ChaCha8 randomness, so any platform (not
//!   just the simulator) is reproducible from a seed.
//! * [`Telemetry`] / [`Layer`] — one layer-tagged observability stream
//!   unifying what used to be per-crate counters, so a single exchange
//!   can be traced App → Env → Odp → Messaging/Directory → Net.
//! * [`LayerError`] / [`KernelError`] — a common classification trait
//!   over the per-crate error enums, including a transient-vs-permanent
//!   [`ErrorClass`] for retry decisions.
//! * [`RetryPolicy`] / [`CircuitBreaker`] / [`Deadline`] — the
//!   failure-transparency policy mechanics platforms apply at their
//!   port boundaries; jitter comes from [`SeededRng`], so resilience
//!   never costs reproducibility.
//! * [`EventQueue`] / [`Periodic`] — the deterministic discrete-event
//!   scheduling core (time-ordered events, recurring schedules with
//!   seeded jittered phases). `simnet` drives its network model with
//!   it; the federation layer drives gossip, TTL expiry and delivery
//!   pumping with it.
//! * [`percent_escape_into`] / [`percent_unescape`] — the one escaping
//!   rule the hand-rolled text codecs (gossip frames, replica records,
//!   mailbox names) apply to their separators.
//!
//! The kernel sits **below** `simnet`: it knows nothing about nodes or
//! topologies. [`Timestamp`] is the one value type for instants —
//! microseconds since the owning clock's epoch — in every crate,
//! `simnet` included; spans are plain `u64` microseconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod error;
mod escape;
mod metrics;
mod resilience;
mod rng;
mod sched;
mod telemetry;
mod time;
mod trace;

pub use clock::{Clock, ManualClock, WallClock};
pub use error::{ErrorClass, KernelError, LayerError};
pub use escape::{percent_escape_into, percent_unescape};
pub use metrics::{json_escape, LogHistogram, MetricsSnapshot};
pub use resilience::{BreakerState, CircuitBreaker, Deadline, RetryPolicy};
pub use rng::SeededRng;
pub use sched::{EventQueue, Periodic};
pub use telemetry::{HistogramSummary, Layer, Telemetry, TelemetryEvent};
pub use time::Timestamp;
pub use trace::{SpanContext, SpanId, SpanRecord, Trace, TraceId};
