//! The protocol contract, frame codec and per-node RNG shared by the
//! simulator, the coloring algorithm and the `colord` service.
//!
//! * [`protocol`]: the MW-2005 node state machine is written against
//!   [`RadioProtocol`], a handful of callbacks fired on wake-up,
//!   deadlines, transmissions and receptions. The simulator's engines
//!   (`radio-sim` re-exports these types) and colord's shard loop are
//!   the drivers that fire them.
//! * [`frame`]: length-prefixed byte frames and the [`WireMessage`]
//!   codec, used by the coloring messages and colord's client protocol.
//! * [`rng`]: [`node_rng`], the per-node RNG stream every driver hands
//!   to the callbacks, so a node's coin flips replay from
//!   `(seed, index)` whichever driver runs it.
//!
//! Layering: this crate sits *below* `radio-sim` and depends only on
//! the vendored `rand`.

pub mod frame;
pub mod protocol;
pub mod rng;

pub use frame::{read_frame, write_frame, FrameError, FramePayload, FrameReader, WireMessage};
pub use protocol::{Behavior, BehaviorFault, ProtocolError, RadioProtocol, Slot};
pub use rng::node_rng;
