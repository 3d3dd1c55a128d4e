//! `colord` — a long-running coloring service over real sockets.
//!
//! The simulator (`radio-sim`) answers "what does the MW-2005 protocol
//! do on a fixed graph with a fixed wake schedule"; this crate answers
//! "what does it take to *operate* that protocol as a network service":
//! nodes join and leave while the algorithm runs, the membership is a
//! mutating unit disk graph ([`radio_graph::DynamicUdg`]), and clients
//! observe the coloring through a request/response wire protocol
//! instead of a returned outcome struct.
//!
//! The layering is deliberate:
//!
//! * [`service`] — the deterministic core, a facade over the spatial
//!   sharding: one [`ColoringNode`] FSM per joined node (the *same*
//!   FSM type the simulator runs — no forked protocol logic), stepped
//!   slot-by-slot with exactly the simulator's intra-slot ordering and
//!   per-node RNG streams, plus the incrementally patched TDMA view.
//!   No sockets, no clocks; fully unit-testable.
//! * `router` (internal) — session→shard placement (Lemma 1 strips over the
//!   join x-coordinate), the mutating unit disk graph with its cached
//!   adjacency, the boundary-node registry, and the online κ₂
//!   estimator feeding `AlgorithmParams`.
//! * `shard` (internal) — the per-strip slot engine: each shard owns its
//!   strip's FSMs and steps them in barrier-separated phases, with
//!   boundary frames exchanged through per-pair mailboxes (mirroring
//!   the sharded sim engine). Single- and k-shard runs of the same
//!   session schedule settle to bit-identical colorings.
//! * `crew` (internal) — the worker threads that step shards 1..k,
//!   started once per service and parked between batches.
//! * [`wire`] — the framed request/response vocabulary
//!   ([`radio_transport::WireMessage`] codecs) plus a small blocking
//!   client.
//! * [`server`] — glue: a TCP accept loop, one handler thread per
//!   connection (locking only the router plus its target shard), and a
//!   ticker thread that advances the slot clock while any node is
//!   still undecided.
//!
//! [`ColoringNode`]: urn_coloring::ColoringNode

mod crew;
mod router;
pub mod server;
pub mod service;
mod shard;
pub mod wire;

pub use server::{run_server, ServerConfig};
pub use service::{Service, ServiceConfig, ServiceError, ServiceStats, Snapshot};
pub use wire::{Client, Request, Response};
