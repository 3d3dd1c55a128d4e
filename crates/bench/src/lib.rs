//! Experiment harness and benchmark support for the *Coloring
//! Unstructured Radio Networks* reproduction.
//!
//! The `experiments` binary (`cargo run --release -p radio-bench --bin
//! experiments -- all`) regenerates every quantitative claim of the
//! paper; the `slot_throughput` binary is the delivery-kernel perf gate
//! that `ci.sh` runs. See DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.

pub mod experiments;
pub mod scenario;
pub mod stats;
pub mod table;
pub mod workloads;
