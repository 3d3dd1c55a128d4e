//! `colord-churn-k2`: an in-process [`Service`] with two shards and the
//! online κ̂₂ estimator, driven by a fixed call script until its
//! snapshot is valid.
//!
//! Script: join every lattice session; then per batch `step(128)`,
//! `heartbeats` round-robin heartbeats and one snapshot. After batch
//! `churn_after`, 1% of the sessions (drawn from the seed) leave and
//! rejoin at the same position. The call order is fixed, so the slot
//! count to a valid snapshot is a function of the seed alone. A
//! "request" is one `join`, `leave`, `heartbeat` or `snapshot` call.
//!
//! A traced run also logs each call as the request and reply the wire
//! would carry and replays that mix through the wire codec.

use crate::lattice::{pick, Lattice};
use crate::report::{median, percentile, Report, Tally};
use crate::timed::codec_replay;
use crate::trace::Tracer;
use crate::{procfs, Opts};
use colord::{Request, Response, Service, ServiceConfig, Snapshot};
use std::time::Instant;

/// Input size of the churn workload.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSize {
    /// Lattice sessions.
    pub sessions: usize,
    /// Heartbeats per batch.
    pub heartbeats: usize,
    /// The batch after which 1% of the sessions leave and rejoin.
    pub churn_after: usize,
    /// Extra set-ups measured after each run, so that the set-up
    /// samples spread over the run's time (each run adds its own too).
    pub setup_reps: usize,
}

/// Service shards.
const SHARDS: usize = 2;
/// Slots per `step` call.
pub const BATCH: u64 = 128;
/// A run that has not settled by this slot fails.
const MAX_SLOTS: u64 = 2_000_000;
/// Wall-clock cap on one scripted run; past it the settle fails.
const MAX_RUN_S: f64 = 60.0;

/// The service configuration of both `colord` workloads: online κ̂₂,
/// default watchdog, seeded FSM streams.
pub fn service_config(seed: u64, shards: usize) -> ServiceConfig {
    ServiceConfig {
        seed,
        shards,
        ..ServiceConfig::default()
    }
}

/// Per-kind call latencies in nanoseconds.
#[derive(Clone, Debug, Default)]
struct CallTimes {
    join: Vec<u64>,
    leave: Vec<u64>,
    heartbeat: Vec<u64>,
    snapshot: Vec<u64>,
}

impl CallTimes {
    /// Every latency, in microseconds.
    fn all_us(&self) -> Vec<f64> {
        [&self.join, &self.leave, &self.heartbeat, &self.snapshot]
            .into_iter()
            .flatten()
            .map(|&ns| ns as f64 * 1e-3)
            .collect()
    }

    /// Median of one kind, in microseconds.
    fn p50_us(xs: &[u64]) -> f64 {
        median(&xs.iter().map(|&ns| ns as f64 * 1e-3).collect::<Vec<_>>())
    }
}

/// The scripted client of one run: every `Service` call timed, counted
/// against the tally and, when recording, logged as the request and
/// reply the wire would carry.
struct Script<'a> {
    svc: &'a Service,
    calls: CallTimes,
    tally: &'a mut Tally,
    tracer: &'a mut Tracer,
    mix: Option<Vec<(Request, Response)>>,
}

impl Script<'_> {
    fn log(&mut self, req: Request, rsp: impl FnOnce() -> Response) {
        if let Some(mix) = &mut self.mix {
            mix.push((req, rsp()));
        }
    }

    fn join(&mut self, x: f64, y: f64) -> u64 {
        let t = Instant::now();
        let r = self.svc.join(x, y);
        let ns = elapsed_ns(t);
        self.calls.join.push(ns);
        self.tracer.sample("svc.join", ns);
        self.tally.op(r.is_ok());
        self.log(Request::Join { x, y }, || match &r {
            Ok(token) => Response::Joined { token: *token },
            Err(e) => Response::Err {
                reason: e.to_string(),
            },
        });
        r.unwrap_or(u64::MAX)
    }

    fn leave(&mut self, token: u64) {
        let t = Instant::now();
        let r = self.svc.leave(token);
        let ns = elapsed_ns(t);
        self.calls.leave.push(ns);
        self.tracer.sample("svc.leave", ns);
        self.tally.op(r.is_ok());
        self.log(Request::Leave { token }, || match &r {
            Ok(()) => Response::Ok,
            Err(e) => Response::Err {
                reason: e.to_string(),
            },
        });
    }

    fn heartbeat(&mut self, token: u64) {
        let t = Instant::now();
        let r = self.svc.heartbeat(token);
        let ns = elapsed_ns(t);
        self.calls.heartbeat.push(ns);
        self.tracer.sample("svc.heartbeat", ns);
        self.tally.op(r.is_ok());
        self.log(Request::Heartbeat { token }, || match &r {
            Ok(hb) => Response::State {
                slot: hb.slot,
                color: hb.color,
                leader: hb.leader,
            },
            Err(e) => Response::Err {
                reason: e.to_string(),
            },
        });
    }

    fn snapshot(&mut self) -> Snapshot {
        let t = Instant::now();
        let snap = self.svc.snapshot();
        let ns = elapsed_ns(t);
        self.calls.snapshot.push(ns);
        self.tracer.sample("svc.snapshot", ns);
        self.tally.op(true);
        self.log(Request::Snapshot, || Response::Snapshot {
            json: snap.to_json().into_bytes(),
        });
        snap
    }
}

/// What one scripted run produced.
struct ChurnRun {
    lattice: Lattice,
    setup_s: f64,
    wall_s: f64,
    calls: CallTimes,
    step_ns: u64,
    stepped_slots: u64,
    settled: Option<Snapshot>,
    colors: Vec<Option<u32>>,
    cpu_s: f64,
    /// The calls as wire requests and replies (recording runs only).
    mix: Vec<(Request, Response)>,
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The set-up of one scripted run: the session layout with its
/// measured unit disk graph, a fresh service and the churn draw.
fn setup(size: ChurnSize, seed: u64) -> (Lattice, Service, Vec<usize>) {
    let lattice = Lattice::new(size.sessions);
    let svc = Service::new(service_config(seed, SHARDS));
    let victims = pick(seed, 0xC4A2, (size.sessions / 100).max(1), size.sessions);
    (lattice, svc, victims)
}

/// Runs the script once against a fresh service.
fn churn_run(
    size: ChurnSize,
    seed: u64,
    record: bool,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> ChurnRun {
    let start = Instant::now();
    let (lattice, svc, victims) = setup(size, seed);
    let setup_s = start.elapsed().as_secs_f64();

    let (mut step_ns, mut stepped_slots) = (0u64, 0u64);
    let root = tracer.open("churn_run", None);
    let mut s = Script {
        svc: &svc,
        calls: CallTimes::default(),
        tally,
        tracer,
        mix: record.then(Vec::new),
    };
    let cpu0 = procfs::cpu_seconds();
    let start = Instant::now();

    let span = s.tracer.open("join_phase", root);
    let mut tokens: Vec<u64> = lattice
        .positions
        .iter()
        .map(|&(x, y)| s.join(x, y))
        .collect();
    s.tracer.close(span);

    let mut cursor = 0;
    let mut batches = 0;
    let settled = loop {
        let t = Instant::now();
        svc.step(BATCH);
        step_ns += elapsed_ns(t);
        stepped_slots += BATCH;
        s.tracer.span_since("step_batch", root, t);
        for _ in 0..size.heartbeats {
            s.heartbeat(tokens[cursor]);
            cursor = (cursor + 1) % tokens.len();
        }
        let snap = s.snapshot();
        batches += 1;
        if snap.valid() {
            break Some(snap);
        }
        if batches == size.churn_after {
            let span = s.tracer.open("churn", root);
            for &v in &victims {
                s.leave(tokens[v]);
                let (x, y) = lattice.positions[v];
                tokens[v] = s.join(x, y);
            }
            s.tracer.close(span);
        }
        if snap.slot >= MAX_SLOTS || start.elapsed().as_secs_f64() > MAX_RUN_S {
            break None;
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu0;
    let Script {
        calls,
        tally,
        tracer,
        mix,
        ..
    } = s;
    tracer.close(root);
    tally.check(settled.is_some(), "churn run settles to a valid snapshot");

    // Independent check of the final coloring, outside the timed region.
    let colors: Vec<Option<u32>> = tokens
        .iter()
        .map(|&t| svc.heartbeat(t).ok().and_then(|hb| hb.color))
        .collect();
    ChurnRun {
        lattice,
        setup_s,
        wall_s,
        calls,
        step_ns,
        stepped_slots,
        settled,
        colors,
        cpu_s,
        mix: mix.unwrap_or_default(),
    }
}

/// Runs the churn workload: scripted runs while another fits in
/// `opts.seconds` (end-to-end metrics) or, traced, one untraced and one
/// traced run (per-layer metrics).
pub fn run(size: ChurnSize, opts: &Opts, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();

    // Per run: wall seconds, request p50 and p99 (us), requests per
    // second. Only the first run (and, traced, the second) is kept whole,
    // so memory does not grow with the number of runs.
    let mut reps: Vec<[f64; 4]> = Vec::new();
    let mut first: Option<ChurnRun> = None;
    let mut traced: Option<ChurnRun> = None;
    let start = Instant::now();
    let mut quiet = Tracer::new(false);
    loop {
        let rep = Instant::now();
        let traced_now = opts.trace && first.is_some();
        let t = if traced_now { &mut *tracer } else { &mut quiet };
        let run = churn_run(size, opts.seed, traced_now, &mut report.tally, t);
        report.tally.check(
            run.lattice.proper(&run.colors),
            "final heartbeat colors are complete and proper on the lattice",
        );
        if let Some(first) = &first {
            let same = match (&first.settled, &run.settled) {
                (Some(a), Some(b)) => a.to_json() == b.to_json(),
                _ => false,
            };
            let what = if traced_now {
                "traced run reproduces the untraced snapshot"
            } else {
                "repeated run reproduces the first snapshot"
            };
            report.tally.check(same, what);
        }
        let all = run.calls.all_us();
        eprintln!(
            "perfbench: churn run {}: {:.3} s",
            reps.len() + 1,
            run.wall_s
        );
        reps.push([
            run.wall_s,
            median(&all),
            percentile(&all, 0.99),
            all.len() as f64 / run.wall_s,
        ]);
        setups.push(run.setup_s);
        for _ in 0..size.setup_reps {
            let t = Instant::now();
            drop(setup(size, opts.seed));
            setups.push(t.elapsed().as_secs_f64());
        }
        let settled = run.settled.is_some();
        if first.is_none() {
            first = Some(run);
        } else if traced_now {
            traced = Some(run);
        }
        let done = if opts.trace {
            traced.is_some()
        } else {
            // Another run only if it fits in the budget.
            (start.elapsed() + rep.elapsed()).as_secs_f64() > opts.seconds
        };
        if done || !settled {
            break;
        }
    }

    let first = first.expect("at least one run");
    report.note("n", first.lattice.len() as f64);
    report.note("delta", first.lattice.delta as f64);
    report.note("kappa2", first.lattice.kappa2 as f64);
    report.note("graph.boundary_nodes", 0.0);
    let settle_slots = first.settled.as_ref().map_or(0, |s| s.slot);
    report.note("settle_slots", settle_slots as f64);
    report.note("reps", reps.len() as f64);
    report.note("setup_reps", setups.len() as f64);
    report.note("req_samples", first.calls.all_us().len() as f64);
    if !opts.trace {
        let per_run = |i: usize| median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>());
        let ttc = per_run(0);
        report.set("setup_s", median(&setups));
        report.set("time_to_coloring_s", ttc);
        report.set(
            "node_slots_per_s",
            size.sessions as f64 * settle_slots as f64 / ttc,
        );
        report.set("req_p50_us", per_run(1));
        report.set("req_p99_us", per_run(2));
        report.set("req_per_s", per_run(3));
        report.set("peak_rss_mib", procfs::peak_rss_mib());
        return report;
    }
    let Some(traced) = traced else {
        return report;
    };

    let plain = &first;
    report.set("graph.udg_build_s", traced.lattice.build_s);
    report.set("graph.kappa_s", traced.lattice.kappa_s);
    if let Some(s) = &traced.settled {
        report.set("svc.settle_slots", s.slot as f64);
        report.set("svc.reprovisions", s.stats.reprovisions as f64);
        report.set("svc.resets", s.stats.resets as f64);
        report.set("svc.transmissions", s.stats.transmissions as f64);
        report.set("svc.deliveries", s.stats.deliveries as f64);
        report.set("svc.collisions", s.stats.collisions as f64);
    }
    report.set(
        "svc.step_us_per_slot",
        traced.step_ns as f64 * 1e-3 / traced.stepped_slots.max(1) as f64,
    );
    report.set("svc.join_us_p50", CallTimes::p50_us(&traced.calls.join));
    report.set("svc.leave_us_p50", CallTimes::p50_us(&traced.calls.leave));
    report.set(
        "svc.heartbeat_us_p50",
        CallTimes::p50_us(&traced.calls.heartbeat),
    );
    report.set(
        "svc.snapshot_us_p50",
        CallTimes::p50_us(&traced.calls.snapshot),
    );
    let t = Instant::now();
    let codec = codec_replay(&traced.mix, 5, &mut report.tally);
    tracer.span_since("codec_replay", None, t);
    report.set("wire.encode_ns", codec.encode_ns);
    report.set("wire.decode_ns", codec.decode_ns);
    report.set("wire.bytes_per_req", codec.bytes);
    report.set("proc.cpu_util", plain.cpu_s / plain.wall_s);
    report.set("proc.trace_overhead", traced.wall_s / plain.wall_s);
    tracer.count("svc.batches", traced.calls.snapshot.len() as u64);
    report
}
