//! # spsim — virtual-time simulation kernel for the simulated RS/6000 SP
//!
//! This crate provides the substrate on which the LAPI reproduction runs:
//! every simulated SP *node* is a cooperative task multiplexed M:N onto a
//! fixed worker pool ([`sched`]; `SPSIM_SCHED=threads` restores the legacy
//! thread-per-node runtime), and time is **virtual**.
//! Each node owns a [`VClock`] — a monotonically advancing virtual-nanosecond
//! counter. CPU work performed by the communication libraries is charged to
//! the clock with [`VClock::advance`]; messages carry virtual timestamps, and
//! a receiver that observes an event *merges* the event time into its own
//! clock ([`VClock::merge`]). A node that is blocked waiting does **not**
//! advance its clock, which makes latency and bandwidth measurements
//! deterministic and independent of the host machine.
//!
//! The pieces:
//!
//! * [`VTime`] / [`VDur`] — virtual instants and durations (nanoseconds).
//! * [`VClock`] — a shareable per-node clock.
//! * [`MachineConfig`] — the calibrated cost model of the simulated SP
//!   (packet sizes, wire bandwidth, software overheads, interrupt costs).
//! * [`TimedQueue`] — a blocking queue whose elements carry virtual
//!   timestamps; receiving merges the element's timestamp into the caller's
//!   clock. This is how packet arrival times propagate between node threads.
//! * [`VBarrier`] — a barrier that aligns the virtual clocks of all
//!   participants (to the maximum, plus a configurable cost).
//! * [`run_spmd`] — run `n` node tasks executing the same closure
//!   (single-program-multiple-data, like a parallel job on the SP), with
//!   panic propagation.
//! * [`SimRng`] — a tiny deterministic RNG (SplitMix64) used for route
//!   selection and drop injection in the switch model.
//! * [`trace`] — virtual-time event tracing: per-node ring buffers in one
//!   [`trace::TraceSink`] per session, merged into a deterministic timeline
//!   when the session finishes. Disabled by default (one branch on the hot
//!   path); powers the deadlock diagnostics and
//!   [`trace::TraceSink::assert_quiescent`].
//! * [`diag`] — the diagnostic-panic discipline for engine hot paths
//!   ([`sim_panic!`], [`OrDiag`]); enforced statically by `spsim-lint`.

#![warn(missing_docs)]

pub mod barrier;
pub mod clock;
pub mod config;
pub mod diag;
pub mod fault;
pub mod mutation;
pub mod queue;
pub mod rng;
pub mod runtime;
pub mod sched;
pub mod spsc;
pub mod stats;
pub mod time;
pub mod trace;

pub use barrier::VBarrier;
pub use clock::VClock;
pub use config::{DeliveryPath, MachineConfig};
pub use diag::OrDiag;
pub use fault::{FaultPlan, FaultProfile, FaultWindow, LinkFaults, NodeFault};
pub use mutation::Mutant;
pub use queue::{QueueClosed, Stamped, TimedQueue, DEFAULT_ESCAPE};
pub use rng::SimRng;
pub use runtime::{
    run_spmd, run_spmd_with, schedule_tiebreak, set_schedule_tiebreak, spawn_service, NodeId,
    ServiceHandle,
};
pub use sched::{
    on_fiber, sched_mode, set_sched_mode, set_worker_cap, yield_now, SchedMode, SimCondvar,
    SimWaitTimeoutResult,
};
pub use spsc::{DeliveryQueue, DeliveryRings};
pub use stats::{Histogram, StatCounter};
pub use time::{VDur, VTime};
pub use trace::{EventKind, Timeline, TraceEvent, TraceSession, TraceSink};
