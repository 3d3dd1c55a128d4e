//! End-to-end and per-layer benchmark of the coloring simulator and the
//! `colord` service.
//!
//! Four workloads, each run in a fresh process by `src/main.rs`:
//!
//! | workload | path exercised |
//! |---|---|
//! | `udg-event-monitored` | `color_graph` on the event engine with the invariant monitor |
//! | `udg-sharded-k2` | `run_sharded`, two spatial shards, no monitor |
//! | `colord-churn-k2` | in-process `Service`, two shards, join/leave/heartbeat/snapshot/step script |
//! | `colord-tcp-mixed` | `run_server` on loopback, one closed-loop client, leave + rejoin cycles |
//!
//! An untraced run reports the end-to-end metrics of
//! [`report::END_TO_END`]; a traced run times each layer from outside,
//! through the layer's public functions, and reports
//! [`report::PER_LAYER`]. The layers' crates are used unchanged.

mod lattice;
mod procfs;
pub mod report;
mod sim;
mod svc;
mod tcp;
mod timed;
pub mod trace;

use report::{Report, PER_LAYER};
use sim::{SimKind, UdgSize};
use svc::ChurnSize;
use tcp::TcpSize;
use trace::Tracer;

/// Run options shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of repeated measurement in an untraced run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
}

/// Input sizes: the benchmark's own, or tiny ones for the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small enough for a unit test.
    Tiny,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uniform UDG, event engine, invariant monitor attached.
    UdgEventMonitored,
    /// The same UDG through the sharded driver with two spatial shards.
    UdgShardedK2,
    /// In-process two-shard service under a join/churn/heartbeat script.
    ColordChurnK2,
    /// The TCP server under closed-loop heartbeats, snapshots and
    /// leave + rejoin cycles.
    ColordTcpMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists those it
    /// benchmarks (`predictions.json` names the others and why).
    pub const ALL: [Workload; 4] = [
        Workload::UdgEventMonitored,
        Workload::UdgShardedK2,
        Workload::ColordChurnK2,
        Workload::ColordTcpMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UdgEventMonitored => "udg-event-monitored",
            Workload::UdgShardedK2 => "udg-sharded-k2",
            Workload::ColordChurnK2 => "colord-churn-k2",
            Workload::ColordTcpMixed => "colord-tcp-mixed",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn udg_size(scale: Scale) -> UdgSize {
    match scale {
        Scale::Full => UdgSize {
            n: 512,
            target_delta: 12.0,
            graphs: 16,
            min_rounds: 2,
        },
        Scale::Tiny => UdgSize {
            n: 256,
            target_delta: 8.0,
            graphs: 2,
            min_rounds: 2,
        },
    }
}

fn churn_size(scale: Scale) -> ChurnSize {
    match scale {
        Scale::Full => ChurnSize {
            sessions: 4096,
            heartbeats: 256,
            churn_after: 20,
            setup_reps: 5,
        },
        Scale::Tiny => ChurnSize {
            sessions: 144,
            heartbeats: 32,
            churn_after: 2,
            setup_reps: 2,
        },
    }
}

fn tcp_size(scale: Scale) -> TcpSize {
    match scale {
        Scale::Full => TcpSize {
            sessions: 100,
            heartbeats: 64,
            lifetimes: 3,
            traced_cycles: 8,
        },
        Scale::Tiny => TcpSize {
            sessions: 64,
            heartbeats: 16,
            lifetimes: 2,
            traced_cycles: 2,
        },
    }
}

/// Runs one workload. A traced report carries the whole per-layer
/// catalogue, 0 for each layer the workload does not exercise.
pub fn run(workload: Workload, scale: Scale, opts: &Opts, tracer: &mut Tracer) -> Report {
    let mut report = match workload {
        Workload::UdgEventMonitored => {
            sim::run(SimKind::EventMonitored, udg_size(scale), opts, tracer)
        }
        Workload::UdgShardedK2 => sim::run(SimKind::ShardedK2, udg_size(scale), opts, tracer),
        Workload::ColordChurnK2 => svc::run(churn_size(scale), opts, tracer),
        Workload::ColordTcpMixed => tcp::run(tcp_size(scale), opts, tracer),
    };
    if opts.trace {
        report.zero_fill(&PER_LAYER);
    }
    report
}
