//! # spswitch — packet-level model of the SP switch and adapter
//!
//! The IBM RS/6000 SP interconnect is a multistage, packet-switched network
//! reached through a per-node communication adapter; each node pair sustains
//! on the order of 110 MB/s per direction, and packets of one message may
//! take different routes and therefore arrive **out of order** — a property
//! LAPI embraces (its handlers reassemble) and MPL must mask (in-order
//! delivery guarantees). This crate models the interconnect at exactly the
//! granularity the paper's arguments live at:
//!
//! * per-node **injection** and **ejection** links that serialize packets at
//!   the wire bandwidth (this produces bandwidth saturation and the
//!   header-tax difference between LAPI's 48-byte and MPL's 16-byte packet
//!   headers);
//! * a **fabric** with a fixed base latency and several routes per node
//!   pair, each with a small latency skew (this produces visible reordering);
//! * a real **reliability protocol** in the adapter: per-flow sequence
//!   numbers, receiver-side duplicate suppression, coalesced cumulative
//!   ACKs charged to the wire, and bounded go-back-N retransmission driven
//!   by virtual-time timers. The fabric genuinely drops and duplicates
//!   packets per a seeded [`spsim::FaultPlan`]; an unrecoverable flow
//!   surfaces as a structured [`DeliveryTimeout`];
//! * a per-adapter [`spsim::DeliveryQueue`] of arrived packets (one SPSC
//!   ring per source, [`spsim::DeliveryRings`]), from which the protocol
//!   layer (LAPI dispatcher / MPL progress engine) receives in arrival-time
//!   order.
//!
//! The switch is generic over the packet body type `M`, so the LAPI and MPL
//! crates each instantiate it with their own wire formats. The switch itself
//! never inspects bodies: reliability and ordering properties are uniform.

#![warn(missing_docs)]

pub mod adapter;
pub mod link;
pub mod network;
pub mod packet;

pub use adapter::{Adapter, AdapterStats, DeliveryTimeout, PeerHealth, SendReceipt};
pub use link::Link;
pub use network::Network;
pub use packet::WirePacket;
