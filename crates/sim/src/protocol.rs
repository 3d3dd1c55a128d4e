//! The protocol interface, re-exported from [`radio_transport::protocol`].
//!
//! [`RadioProtocol`], [`Behavior`] and the error vocabulary live below
//! the simulator so the engines and `colord`'s shard loop drive the
//! FSM through one definition. This module keeps their
//! `radio_sim::protocol` paths; see the transport crate for the
//! intra-slot ordering contract.

pub use radio_transport::protocol::{Behavior, BehaviorFault, ProtocolError, RadioProtocol, Slot};
