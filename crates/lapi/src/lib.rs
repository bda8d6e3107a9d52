//! # lapi — the Low-level Applications Programming Interface
//!
//! A Rust reproduction of LAPI, the one-sided communication library of the
//! IBM RS/6000 SP (Shah et al., IPPS 1998), running over the simulated SP
//! switch in [`spswitch`]. The public surface mirrors Table 1 of the paper:
//!
//! | Paper operation | Here |
//! |---|---|
//! | `LAPI_Init`, `LAPI_Term` | [`LapiWorld::init`], [`LapiContext::term`] |
//! | `LAPI_Amsend` | [`LapiContext::amsend`] |
//! | `LAPI_Put`, `LAPI_Get` | [`LapiContext::put`], [`LapiContext::get`] |
//! | `LAPI_Rmw` | [`LapiContext::rmw`] (Swap, CompareAndSwap, FetchAndAdd, FetchAndOr) |
//! | `LAPI_Setcntr`, `LAPI_Waitcntr`, `LAPI_Getcntr` | [`LapiContext::setcntr`], [`LapiContext::waitcntr`], [`LapiContext::getcntr`] |
//! | `LAPI_Fence`, `LAPI_Gfence` | [`LapiContext::fence`], [`LapiContext::gfence`] |
//! | `LAPI_Address_init` | [`LapiContext::address_init`] (and the general [`LapiContext::exchange`]) |
//! | `LAPI_Qenv`, `LAPI_Senv` | [`LapiContext::qenv`], [`LapiContext::senv`] |
//!
//! ## Semantics reproduced from the paper
//!
//! * **Active messages with decoupled handlers** (§2.1): the *header
//!   handler* runs when the first packet of a message arrives and returns
//!   the receive buffer plus an optional *completion handler*; the
//!   completion handler runs once every packet has been deposited. Only one
//!   header handler runs at a time per context (it executes on the
//!   dispatcher); completion handlers run on their own thread(s).
//! * **Unilateral progress**: in interrupt mode the target needs no LAPI
//!   calls for communication to complete; in polling mode progress happens
//!   only inside LAPI calls of the target — including the documented
//!   deadlock if the target never polls.
//! * **Out-of-order delivery** (§2.5): packets of concurrent operations —
//!   and of a single message — may arrive in any order; reassembly and the
//!   three-counter scheme (`org_cntr`, `tgt_cntr`, `cmpl_cntr`) signal the
//!   events of Figure 1 exactly.
//! * **Fences** (§5.3.2): `fence`/`gfence` order *data transfer*, not
//!   completion handlers: they wait until data of outstanding operations is
//!   in the remote user buffers, while `cmpl_cntr` additionally waits for
//!   the completion handler to finish.
//!
//! Remote memory is addressed with [`Addr`] handles into each node's
//! demand-zero [`AddressSpace`] — the simulation-safe stand-in for raw
//! virtual addresses on the SP.

#![warn(missing_docs)]

pub mod addr;
pub mod context;
pub mod counter;
pub mod engine;
pub mod error;
pub mod handlers;
pub mod stats;
pub mod wire;
pub mod world;

pub use addr::{Addr, AddressSpace};
pub use context::{LapiContext, Mode, Qenv, Senv};
pub use counter::{Counter, RemoteCounter};
pub use engine::ErrHandler;
pub use error::LapiError;
pub use handlers::{AmInfo, HandlerCtx, HdrOutcome};
pub use stats::LapiStats;
pub use wire::{IoVec, RmwOp};
pub use world::LapiWorld;

/// Result alias for LAPI calls.
pub type LapiResult<T = ()> = Result<T, LapiError>;
