//! Deterministic randomness, re-exported from [`radio_transport::rng`].
//!
//! Per-node RNG streams live below the simulator so `colord` derives a
//! node's private stream exactly like a simulated one. This module
//! keeps their `radio_sim::rng` paths.

pub use radio_transport::rng::{
    geometric_failures, has_duplicate_ids, node_rng, random_ids, splitmix64,
};
