//! The two simulator workloads, both on one uniform unit disk graph
//! per seed:
//!
//! * `udg-event-monitored` — [`color_graph`] on the event engine with
//!   the [`ColoringMonitor`] attached;
//! * `udg-sharded-k2` — [`run_sharded`] over a two-strip
//!   [`Partition::spatial`] with the [`NullMonitor`].
//!
//! A "request" on these workloads is one complete coloring run.

use crate::report::{median, percentile, Report, Tally};
use crate::timed::{replay_kernel, KernelReplay, TimedMonitor, TimedNode};
use crate::trace::{SpanId, Tracer};
use crate::{procfs, Opts};
use radio_graph::analysis::check_coloring;
use radio_graph::analysis::independence::{kappa_bounded, kappa_greedy};
use radio_graph::generators::{build_udg, udg_side_for_target_degree, uniform_square};
use radio_graph::{Graph, NodeId, Partition, Point2};
use radio_sim::rng::node_rng;
use radio_sim::{run_sharded, EngineKind, NullMonitor, SimConfig, Slot, WakePattern};
use std::time::Instant;
use urn_coloring::{color_graph, AlgorithmParams, ColoringConfig, ColoringMonitor, ColoringNode};

/// Which simulator workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    /// Event engine, invariant monitor attached.
    EventMonitored,
    /// Sharded lock-step driver, two spatial shards, no monitor.
    ShardedK2,
}

impl SimKind {
    fn shards(self) -> Option<usize> {
        match self {
            SimKind::EventMonitored => None,
            SimKind::ShardedK2 => Some(2),
        }
    }
}

/// Input size of a simulator workload.
#[derive(Clone, Copy, Debug)]
pub struct UdgSize {
    /// Nodes.
    pub n: usize,
    /// Target expected closed degree Δ* of the generator.
    pub target_delta: f64,
    /// Graphs per untraced run, each generated from the run seed; the
    /// median over them gives `setup_s` and `time_to_coloring_s`.
    pub graphs: usize,
    /// Rounds (one coloring of every graph) each untraced run makes
    /// at least; more colorings follow while another fits in its time.
    pub min_rounds: usize,
}

/// Fuel per neighbourhood for the exact κ solver before falling back
/// to the greedy lower bound (the experiments' setting).
const KAPPA_FUEL: u64 = 5_000_000;

/// Everything a coloring run needs, generated from the seed.
struct UdgInput {
    points: Vec<Point2>,
    graph: Graph,
    kappa2: usize,
    delta: usize,
    params: AlgorithmParams,
    wake: Vec<Slot>,
    max_slots: Slot,
    partition: Option<Partition>,
    boundary_nodes: usize,
}

/// Wall seconds of the set-up phases.
#[derive(Clone, Copy, Debug, Default)]
struct SetupTimes {
    total: f64,
    udg_build: f64,
    kappa: f64,
    partition: f64,
}

/// The slot budget the experiments use: ≤ κ₂+2 classes per node plus
/// leader-serving time, with a 50× margin.
fn slot_cap(params: &AlgorithmParams) -> Slot {
    let per_class = params.waiting_slots() + 2 * params.threshold().unsigned_abs();
    50 * ((params.kappa2 as u64 + 2) * per_class
        + params.delta_est as u64 * params.serve_slots()
        + 1000)
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Generates the graph, measures Δ and κ₂, derives the practical
/// parameters and the wake-up schedule, and partitions into `shards`
/// spatial strips when asked.
fn setup(
    size: UdgSize,
    seed: u64,
    shards: Option<usize>,
    tracer: &mut Tracer,
) -> (UdgInput, SetupTimes) {
    let start = Instant::now();
    let span = tracer.open("setup", None);

    let t = Instant::now();
    let mut rng = node_rng(seed, 0xF00D);
    let side = udg_side_for_target_degree(size.n, size.target_delta);
    let points = uniform_square(size.n, side, &mut rng);
    let graph = build_udg(&points, 1.0);
    let udg_build = secs(t);
    tracer.span_since("setup.udg_build", span, t);

    let t = Instant::now();
    let kappa = kappa_bounded(&graph, KAPPA_FUEL).unwrap_or_else(|| kappa_greedy(&graph));
    let delta = graph.max_closed_degree();
    let kappa_s = secs(t);
    tracer.span_since("setup.kappa", span, t);

    let params = AlgorithmParams::practical(kappa.k2.max(2), delta.max(2), size.n.max(16));
    let wake = WakePattern::UniformWindow {
        window: 2 * params.waiting_slots(),
    }
    .generate(size.n, &mut node_rng(seed, 95));

    let t = Instant::now();
    let partition = shards.map(|k| Partition::spatial(&points, k));
    let boundary_nodes = partition
        .as_ref()
        .map_or(0, |p| p.boundary(&graph).iter().map(Vec::len).sum());
    let partition_s = secs(t);
    if shards.is_some() {
        tracer.span_since("setup.partition", span, t);
    }
    tracer.close(span);

    let input = UdgInput {
        points,
        graph,
        kappa2: kappa.k2,
        delta,
        max_slots: slot_cap(&params),
        params,
        wake,
        partition,
        boundary_nodes,
    };
    let times = SetupTimes {
        total: secs(start),
        udg_build,
        kappa: kappa_s,
        partition: partition_s,
    };
    (input, times)
}

/// What one coloring run produced, whichever way it was run.
#[derive(Clone, Debug, PartialEq)]
struct SimRun {
    slots: Slot,
    colors: Vec<Option<u32>>,
    all_decided: bool,
    errored: bool,
    violations: usize,
    parallel: bool,
    transmissions: u64,
    deliveries: u64,
    collisions: u64,
}

impl SimRun {
    fn from_stats<P>(out: &radio_sim::SimOutcome<P>, colors: Vec<Option<u32>>) -> SimRun {
        SimRun {
            slots: out.slots_run,
            colors,
            all_decided: out.all_decided,
            errored: out.error.is_some(),
            violations: out.violations.len(),
            parallel: out.executed.is_parallel(),
            transmissions: out.total_sent(),
            deliveries: out.stats.iter().map(|s| s.received).sum(),
            collisions: out.total_collisions(),
        }
    }

    /// The run-level correctness check: complete, proper, error-free,
    /// monitor-clean, and parallel when the workload shards.
    fn check(&self, kind: SimKind, graph: &Graph, tally: &mut Tally) {
        let proper = check_coloring(graph, &self.colors).valid();
        let ok = self.all_decided
            && proper
            && !self.errored
            && self.violations == 0
            && (kind != SimKind::ShardedK2 || self.parallel);
        tally.check(
            ok,
            &format!(
                "{kind:?}: all_decided={} proper={proper} error={} violations={} parallel={}",
                self.all_decided, self.errored, self.violations, self.parallel
            ),
        );
    }
}

fn sim_config(input: &UdgInput) -> SimConfig {
    SimConfig::with_max_slots(input.max_slots)
}

/// One untraced coloring run; returns its wall seconds (engine start
/// to return) and outcome.
fn plain_run(kind: SimKind, input: &UdgInput, seed: u64) -> (f64, SimRun) {
    let n = input.graph.len();
    match kind {
        SimKind::EventMonitored => {
            let mut config = ColoringConfig::new(input.params).with_monitor();
            config.engine = EngineKind::Event;
            config.sim = sim_config(input);
            let start = Instant::now();
            let out = color_graph(&input.graph, &input.wake, &config, seed);
            let wall = secs(start);
            let run = SimRun {
                slots: out.slots_run,
                all_decided: out.all_decided,
                errored: out.error.is_some(),
                violations: out.violations.len(),
                parallel: out.executed.is_parallel(),
                transmissions: out.stats.iter().map(|s| s.sent).sum(),
                deliveries: out.stats.iter().map(|s| s.received).sum(),
                collisions: out.stats.iter().map(|s| s.collisions).sum(),
                colors: out.colors,
            };
            (wall, run)
        }
        SimKind::ShardedK2 => {
            let partition = input
                .partition
                .as_ref()
                .expect("sharded input is partitioned");
            let protocols: Vec<ColoringNode> = (1..=n as u64)
                .map(|id| ColoringNode::new(id, input.params))
                .collect();
            let start = Instant::now();
            let out = run_sharded(
                &input.graph,
                &input.wake,
                protocols,
                seed,
                &sim_config(input),
                &mut NullMonitor,
                partition,
            );
            let wall = secs(start);
            let colors = out.protocols.iter().map(ColoringNode::color).collect();
            (wall, SimRun::from_stats(&out, colors))
        }
    }
}

/// Per-layer figures of one traced run.
#[derive(Clone, Debug, Default)]
struct Layers {
    wall: f64,
    fsm_calls: u64,
    fsm_s: f64,
    shard_fsm_s: Vec<f64>,
    monitor_hooks: u64,
    monitor_s: f64,
    kernel: KernelReplay,
}

/// One traced coloring run: the same run with every FSM call and
/// monitor hook timed, then the transmission log replayed through the
/// delivery kernel.
fn traced_run(
    kind: SimKind,
    input: &UdgInput,
    seed: u64,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> (SimRun, Layers) {
    let n = input.graph.len();
    let protocols: Vec<TimedNode> = (1..=n as u64)
        .map(|id| TimedNode::new(ColoringNode::new(id, input.params)))
        .collect();
    let cfg = sim_config(input);
    let mut layers = Layers::default();
    let start = Instant::now();
    let out = match kind {
        SimKind::EventMonitored => {
            let mut monitor = TimedMonitor::new(ColoringMonitor::new(&input.graph));
            let out = EngineKind::Event.run_monitored(
                &input.graph,
                &input.wake,
                protocols,
                seed,
                &cfg,
                &mut monitor,
            );
            layers.monitor_hooks = monitor.hooks;
            layers.monitor_s = monitor.ns as f64 * 1e-9;
            out
        }
        SimKind::ShardedK2 => run_sharded(
            &input.graph,
            &input.wake,
            protocols,
            seed,
            &cfg,
            &mut NullMonitor,
            input
                .partition
                .as_ref()
                .expect("sharded input is partitioned"),
        ),
    };
    layers.wall = secs(start);
    tracer.span_since("traced_run.engine", parent, start);

    let colors = out.protocols.iter().map(|p| p.inner().color()).collect();
    let run = SimRun::from_stats(&out, colors);
    layers.fsm_calls = out.protocols.iter().map(|p| p.calls).sum();
    layers.fsm_s = out.protocols.iter().map(|p| p.ns).sum::<u64>() as f64 * 1e-9;
    layers.shard_fsm_s = match &input.partition {
        Some(p) => p
            .members
            .iter()
            .map(|m| m.iter().map(|&v| out.protocols[v as usize].ns).sum::<u64>() as f64 * 1e-9)
            .collect(),
        None => vec![layers.fsm_s],
    };
    let mut log: Vec<(Slot, NodeId)> = out
        .protocols
        .iter()
        .enumerate()
        .flat_map(|(v, p)| p.tx_slots.iter().map(move |&s| (s, v as NodeId)))
        .collect();
    drop(out);
    let start = Instant::now();
    layers.kernel = replay_kernel(&input.graph, &mut log);
    tracer.span_since("traced_run.kernel_replay", parent, start);
    (run, layers)
}

/// Seed of the run's `g`-th graph: graph 0 uses the run seed itself, so
/// both simulator workloads color the same first graph.
fn graph_seed(seed: u64, g: usize) -> u64 {
    if g == 0 {
        return seed;
    }
    let mut s = seed ^ (g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    radio_sim::rng::splitmix64(&mut s)
}

/// Runs a simulator workload on `size.graphs` graphs generated from the
/// seed. Untraced: one coloring run per graph, repeated in rounds, at
/// least `size.min_rounds`, then graph by graph while another coloring
/// fits in `opts.seconds`, every graph set up again before its second
/// coloring (end-to-end metrics). Traced: the first graph once untraced and once
/// traced (per-layer metrics).
pub fn run(kind: SimKind, size: UdgSize, opts: &Opts, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let graphs = if opts.trace { 1 } else { size.graphs.max(1) };
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for g in 0..graphs {
        let (input, times) = setup(size, graph_seed(opts.seed, g), kind.shards(), tracer);
        report.note("n", input.graph.len() as f64);
        report.note("delta", input.delta as f64);
        report.note("kappa2", input.kappa2 as f64);
        report.note("graph.boundary_nodes", input.boundary_nodes as f64);
        setups.push(times);
        inputs.push(input);
    }
    if !opts.trace {
        let mut walls: Vec<Vec<f64>> = vec![Vec::new(); graphs];
        let mut firsts: Vec<Option<SimRun>> = vec![None; graphs];
        // Longest set-up plus coloring of one graph so far: another
        // coloring starts only if one that long still fits.
        let mut longest = 0.0_f64;
        let start = Instant::now();
        'rounds: for round in 0.. {
            for (g, input) in inputs.iter().enumerate() {
                if round >= size.min_rounds && secs(start) + longest > opts.seconds {
                    break 'rounds;
                }
                let each = Instant::now();
                if round == 1 {
                    // Set up every graph once more, half a run later, so
                    // that the set-up samples spread over the run's time.
                    let (_, times) = setup(size, graph_seed(opts.seed, g), kind.shards(), tracer);
                    setups.push(times);
                }
                let span = tracer.open("coloring_run", None);
                let (wall, run) = plain_run(kind, input, graph_seed(opts.seed, g));
                tracer.close(span);
                run.check(kind, &input.graph, &mut report.tally);
                if let Some(f) = &firsts[g] {
                    report.tally.check(
                        f.slots == run.slots && f.colors == run.colors,
                        "repeated run reproduces the first",
                    );
                }
                eprintln!("perfbench: graph {g}: coloring took {wall:.3} s");
                firsts[g].get_or_insert(run);
                walls[g].push(wall);
                longest = longest.max(secs(each));
            }
        }
        // A request is one coloring of one graph; its latency is the
        // graph's median over its colorings, so that a slow moment of
        // the host does not become the slowest request.
        let ttc: Vec<f64> = walls.iter().map(|w| median(w)).collect();
        let node_slots_per_s: Vec<f64> = inputs
            .iter()
            .zip(&firsts)
            .zip(&ttc)
            .map(|((i, f), t)| i.graph.len() as f64 * f.as_ref().map_or(0, |r| r.slots) as f64 / t)
            .collect();
        for f in firsts.iter().flatten() {
            report.note("slots", f.slots as f64);
        }
        report.note(
            "colorings",
            walls.iter().map(Vec::len).sum::<usize>() as f64,
        );
        report.note("req_samples", ttc.len() as f64);
        report.set(
            "setup_s",
            median(&setups.iter().map(|t| t.total).collect::<Vec<_>>()),
        );
        report.set("time_to_coloring_s", median(&ttc));
        report.set("node_slots_per_s", median(&node_slots_per_s));
        report.set("req_p50_us", median(&ttc) * 1e6);
        report.set("req_p99_us", percentile(&ttc, 0.99) * 1e6);
        report.set("req_per_s", ttc.len() as f64 / ttc.iter().sum::<f64>());
        report.set("peak_rss_mib", procfs::peak_rss_mib());
        return report;
    }

    // Traced: one untraced run (reference outcome, wall, CPU use), then
    // the same run traced.
    let setup_med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let input = &inputs[0];
    let root: Option<SpanId> = tracer.open("untraced_run", None);
    let cpu0 = procfs::cpu_seconds();
    let (plain_wall, plain) = plain_run(kind, input, opts.seed);
    let cpu = procfs::cpu_seconds() - cpu0;
    tracer.close(root);
    plain.check(kind, &input.graph, &mut report.tally);

    let span = tracer.open("traced_run", None);
    let (traced, layers) = traced_run(kind, input, opts.seed, tracer, span);
    tracer.close(span);
    traced.check(kind, &input.graph, &mut report.tally);
    report.tally.check(
        traced.slots == plain.slots && traced.colors == plain.colors,
        "traced run reproduces the untraced run",
    );
    tracer.count("core.fsm_calls", layers.fsm_calls);
    tracer.count("sim.monitor_hooks", layers.monitor_hooks);
    tracer.count("sim.kernel_tx", layers.kernel.transmissions);
    tracer.count("sim.kernel_deliveries", layers.kernel.deliveries);
    tracer.count("sim.kernel_collisions", layers.kernel.collisions);

    let n = input.graph.len() as f64;
    let shard_max = layers.shard_fsm_s.iter().copied().fold(0.0, f64::max);
    let shard_mean = layers.shard_fsm_s.iter().sum::<f64>() / layers.shard_fsm_s.len() as f64;
    report.note("slots", traced.slots as f64);
    report.set("graph.udg_build_s", setup_med(|t| t.udg_build));
    report.set("graph.kappa_s", setup_med(|t| t.kappa));
    // The event workload never partitions. Its traced run still cuts the
    // graph into the two strips the sharded path would use, so that the
    // graph layer's `Partition` is measured on a workload of
    // BENCHMARK.json (udg-sharded-k2 is not one).
    let (partition_s, boundary_nodes) = match kind.shards() {
        Some(_) => (setup_med(|t| t.partition), input.boundary_nodes),
        None => {
            let t = Instant::now();
            let p = Partition::spatial(&input.points, 2);
            let boundary: usize = p.boundary(&input.graph).iter().map(Vec::len).sum();
            (secs(t), boundary)
        }
    };
    report.set("graph.partition_s", partition_s);
    report.set("graph.boundary_nodes", boundary_nodes as f64);
    report.set("sim.slots", traced.slots as f64);
    report.set("sim.node_slots", n * traced.slots as f64);
    report.set("sim.transmissions", traced.transmissions as f64);
    report.set("sim.deliveries", traced.deliveries as f64);
    report.set("sim.collisions", traced.collisions as f64);
    report.set(
        "sim.delivery_ratio",
        traced.deliveries as f64 / (traced.deliveries + traced.collisions).max(1) as f64,
    );
    let engine_self = match kind {
        SimKind::EventMonitored => layers.wall - layers.fsm_s - layers.monitor_s,
        SimKind::ShardedK2 => layers.wall - shard_max,
    };
    report.set("sim.engine_self_s", engine_self);
    report.set(
        "sim.kernel_ns_per_tx",
        layers.kernel.ns as f64 / layers.kernel.transmissions.max(1) as f64,
    );
    if kind == SimKind::EventMonitored {
        report.set("sim.monitor_s", layers.monitor_s);
        report.set(
            "sim.monitor_ns_per_hook",
            layers.monitor_s * 1e9 / layers.monitor_hooks.max(1) as f64,
        );
    }
    report.set("sim.shard_fsm_max_s", shard_max);
    report.set("sim.shard_fsm_imbalance", shard_max / shard_mean);
    report.set("core.fsm_calls", layers.fsm_calls as f64);
    report.set("core.fsm_s", layers.fsm_s);
    report.set(
        "core.fsm_ns_per_call",
        layers.fsm_s * 1e9 / layers.fsm_calls.max(1) as f64,
    );
    report.set("proc.cpu_util", cpu / plain_wall);
    report.set("proc.trace_overhead", layers.wall / plain_wall);
    report
}
