//! `colord-tcp-mixed`: [`run_server`] on loopback (one shard, batch
//! 128) and one closed-loop client connection in this process.
//!
//! A server lifetime has a set-up and a timed phase. Set-up starts the
//! server and joins the lattice sessions one at a time, each after the
//! membership has settled. The timed phase runs churn cycles: one
//! session (drawn from the seed) leaves and rejoins at the same
//! position, then the client sends heartbeats round-robin over the
//! sessions, a snapshot after every `heartbeats` of them, until a
//! snapshot is valid again. Every request waits for the previous reply.
//! The heartbeats of a cycle contend with the ticker, which steps the
//! whole membership until the rejoined node has decided.
//!
//! Writes are only sent once the membership has settled and the ticker
//! has parked. A join or leave sent while the ticker steps undecided
//! nodes waits for the router write lock, and on a 2-core host it can
//! lose that race batch after batch until the whole membership settles
//! (1024 back-to-back joins took 0.02–0.04 s in some runs and over
//! 30 s in others), so neither joining the membership at full speed nor a
//! leave + rejoin pair every 64 requests on a live membership was
//! steady. Settling first also keeps every cycle clear of the
//! orphaned-requester case (a requester whose leader left waits for the
//! stall watchdog), and it makes the service state after every write a
//! function of the seed, which the run checks.

use crate::lattice::{pick, Lattice};
use crate::report::{median, LatencyHist, Report, Tally};
use crate::svc::{service_config, BATCH};
use crate::timed::codec_replay;
use crate::trace::{SpanId, Tracer};
use crate::{procfs, Opts};
use colord::{run_server, Client, Request, Response, ServerConfig};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use urn_coloring::json;

/// Input size of the TCP workload.
#[derive(Clone, Copy, Debug)]
pub struct TcpSize {
    /// Lattice sessions joined during set-up.
    pub sessions: usize,
    /// Heartbeats between two snapshot polls of a cycle.
    pub heartbeats: usize,
    /// Server lifetimes per untraced run; the run's time is split
    /// evenly between them.
    pub lifetimes: usize,
    /// Churn cycles of each lifetime in a traced run.
    pub traced_cycles: usize,
}

/// Bound on each wait for a valid snapshot.
const SETTLE_WAIT: Duration = Duration::from_secs(30);
/// Cycles every untraced lifetime runs, even past its time share.
const MIN_CYCLES: usize = 2;

/// The kind of a timed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Heartbeat,
    Snapshot,
    Leave,
    Join,
}

/// One churn cycle: rejoin to the first valid snapshot.
#[derive(Clone, Copy, Debug)]
struct Cycle {
    wall_s: f64,
    slots: u64,
}

/// What one server lifetime (set-up, timed phase, checks) produced.
struct Lifetime {
    setup_s: f64,
    cycles: Vec<Cycle>,
    /// Client round trips of every request, of heartbeats, and of
    /// joins and leaves.
    all: LatencyHist,
    heartbeats: LatencyHist,
    writes: LatencyHist,
    /// Wall seconds of the timed phase (requests only: nothing sleeps).
    timed_s: f64,
    /// The timed requests with their replies, kept for the codec replay
    /// in a traced lifetime.
    mix: Vec<(Request, Response)>,
    /// The settled service state after each leave (see [`state_key`]):
    /// after set-up, then after each cycle.
    states: Vec<String>,
    /// The last settled snapshot.
    snapshot: json::Value,
    cpu_s: f64,
}

impl Lifetime {
    fn cycle_s(&self) -> f64 {
        self.cycles.iter().map(|c| c.wall_s).sum()
    }

    fn cycle_slots(&self) -> u64 {
        self.cycles.iter().map(|c| c.slots).sum()
    }
}

fn snapshot_field(v: &json::Value, key: &str) -> Option<f64> {
    let obj = v.as_obj("snapshot").ok()?;
    match json::get(obj, key).ok()? {
        json::Value::Num(x) => Some(*x),
        json::Value::Bool(b) => Some(f64::from(u8::from(*b))),
        _ => None,
    }
}

fn parse_snapshot(bytes: &[u8]) -> Option<json::Value> {
    json::parse(std::str::from_utf8(bytes).ok()?).ok()
}

/// `true` when every live node has decided and no edge is in conflict,
/// as [`colord::Snapshot::valid`] decides it.
fn valid(snap: &json::Value) -> bool {
    let live = snapshot_field(snap, "live");
    live.is_some()
        && live == snapshot_field(snap, "decided")
        && snapshot_field(snap, "conflicts") == Some(0.0)
}

/// A server running on its own thread.
struct Server {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl Server {
    fn start(seed: u64) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let cfg = ServerConfig {
            service: service_config(seed, 1),
            batch: BATCH,
        };
        let thread = std::thread::spawn(move || run_server(listener, cfg));
        Ok(Server { addr, thread })
    }

    /// Sends the shutdown request on a fresh connection and joins the
    /// server thread.
    fn stop(self) -> bool {
        let sent = Client::connect(self.addr).and_then(|mut c| c.shutdown());
        sent.is_ok() && matches!(self.thread.join(), Ok(Ok(())))
    }
}

/// The client side of the timed phase: one connection, every request
/// timed and checked.
struct Session<'a> {
    client: Client,
    tally: &'a mut Tally,
    tracer: &'a mut Tracer,
    root: Option<SpanId>,
    all: LatencyHist,
    heartbeats: LatencyHist,
    writes: LatencyHist,
    mix: Option<Vec<(Request, Response)>>,
}

impl Session<'_> {
    /// One timed round trip; `None` on an I/O error or an error reply.
    fn request(&mut self, kind: Kind, req: Request) -> Option<Response> {
        let t = Instant::now();
        let r = self.client.roundtrip(&req);
        let ns = t.elapsed().as_nanos() as u64;
        self.all.add(ns);
        let name = match kind {
            Kind::Heartbeat => {
                self.heartbeats.add(ns);
                "request.heartbeat"
            }
            Kind::Snapshot => "request.snapshot",
            Kind::Leave | Kind::Join => {
                self.writes.add(ns);
                if kind == Kind::Leave {
                    "request.leave"
                } else {
                    "request.join"
                }
            }
        };
        self.tracer.span_since(name, self.root, t);
        self.tracer.sample(name, ns);
        let ok = matches!(&r, Ok(rsp) if !matches!(rsp, Response::Err { .. }));
        self.tally.op(ok);
        let rsp = r.ok().filter(|_| ok)?;
        if let Some(mix) = &mut self.mix {
            mix.push((req, rsp.clone()));
        }
        Some(rsp)
    }

    /// Leaves `token`'s session, then looks at the settled service:
    /// records its state and returns its snapshot.
    fn leave_and_look(&mut self, token: u64, states: &mut Vec<String>) -> Option<json::Value> {
        self.request(Kind::Leave, Request::Leave { token })?;
        let snap = self.snapshot()?;
        if !valid(&snap) {
            self.tally.check(false, "service settled after a leave");
            return None;
        }
        states.push(state_key(&snap));
        Some(snap)
    }

    fn snapshot(&mut self) -> Option<json::Value> {
        match self.request(Kind::Snapshot, Request::Snapshot)? {
            Response::Snapshot { json } => parse_snapshot(&json),
            _ => None,
        }
    }
}

/// Sends snapshot requests until one is valid; `None` on an error or
/// after `SETTLE_WAIT`.
fn wait_valid(client: &mut Client) -> Option<()> {
    let deadline = Instant::now() + SETTLE_WAIT;
    loop {
        let snap = parse_snapshot(client.snapshot().ok()?.as_bytes())?;
        if valid(&snap) {
            return Some(());
        }
        if Instant::now() > deadline {
            return None;
        }
    }
}

/// Joins the sessions one at a time, each after the membership has
/// settled, so that no join waits on the ticker; returns the tokens.
fn join_and_settle(client: &mut Client, lattice: &Lattice) -> Option<Vec<u64>> {
    let mut tokens = Vec::with_capacity(lattice.len());
    for &(x, y) in &lattice.positions {
        tokens.push(client.join(x, y).ok()?);
        wait_valid(client)?;
    }
    Some(tokens)
}

/// The snapshot without its heartbeat counter, which depends on how
/// often the client polled: equal keys mean equal service states.
fn state_key(snap: &json::Value) -> String {
    match snap {
        json::Value::Obj(fields) => json::dump(&json::Value::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "heartbeats")
                .cloned()
                .collect(),
        )),
        other => json::dump(other),
    }
}

/// One server lifetime: set-up, then churn cycles until `cycles` ran,
/// or, without a count, while another fits in `budget` seconds from
/// the lifetime's start; then the color check and shutdown.
#[allow(clippy::too_many_arguments)]
fn lifetime(
    size: TcpSize,
    seed: u64,
    lattice: &Lattice,
    cycles: Option<usize>,
    budget: f64,
    record: bool,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Option<Lifetime> {
    let start = Instant::now();
    let span = tracer.open("setup", None);
    let server = match Server::start(seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: server start failed: {e}");
            tally.check(false, "server starts");
            return None;
        }
    };
    let run = (|| {
        let mut client = Client::connect(server.addr).ok()?;
        let joined = join_and_settle(&mut client, lattice);
        tally.check(joined.is_some(), "initial membership settles");
        let mut tokens = joined?;
        let setup_s = start.elapsed().as_secs_f64();
        tracer.close(span);

        let victims = pick(seed, 0x7C9, lattice.len(), lattice.len());
        let root = tracer.open("timed", None);
        let mut s = Session {
            client,
            tally: &mut *tally,
            tracer: &mut *tracer,
            root,
            all: LatencyHist::default(),
            heartbeats: LatencyHist::default(),
            writes: LatencyHist::default(),
            mix: record.then(Vec::new),
        };
        let mut done = Vec::new();
        let mut states = Vec::new();
        let mut cursor = 0;
        let cpu0 = procfs::cpu_seconds();
        let t0 = Instant::now();
        // A leave waits for the ticker's batch to end and leaves the
        // membership settled, so the snapshot right after it shows the
        // parked service (a snapshot taken mid-slot can count a node
        // decided before the slot commits).
        let mut v = victims[0];
        let mut last = s.leave_and_look(tokens[v], &mut states)?;
        let mut slot0 = snapshot_field(&last, "slot")? as u64;
        loop {
            let (x, y) = lattice.positions[v];
            let t = Instant::now();
            tokens[v] = match s.request(Kind::Join, Request::Join { x, y })? {
                Response::Joined { token } => token,
                _ => return None,
            };
            let deadline = t + SETTLE_WAIT;
            loop {
                for _ in 0..size.heartbeats {
                    let token = tokens[cursor];
                    s.request(Kind::Heartbeat, Request::Heartbeat { token })?;
                    cursor = (cursor + 1) % tokens.len();
                }
                if valid(&s.snapshot()?) {
                    break;
                }
                if Instant::now() > deadline {
                    s.tally
                        .check(false, "churn cycle settles to a valid snapshot");
                    return None;
                }
            }
            let wall_s = t.elapsed().as_secs_f64();
            s.tracer.span_since("cycle", root, t);
            // The next victim's leave closes the cycle's slot count.
            v = victims[(done.len() + 1) % victims.len()];
            last = s.leave_and_look(tokens[v], &mut states)?;
            let slot1 = snapshot_field(&last, "slot")? as u64;
            done.push(Cycle {
                wall_s,
                slots: slot1 - slot0,
            });
            slot0 = slot1;
            let fits = start.elapsed().as_secs_f64() + wall_s < budget;
            let more = match cycles {
                Some(n) => done.len() < n,
                None => done.len() < MIN_CYCLES || fits,
            };
            if !more {
                break;
            }
        }
        let timed_s = t0.elapsed().as_secs_f64();
        let cpu_s = procfs::cpu_seconds() - cpu0;
        s.tracer.close(root);

        // Independent check of the final coloring, outside the timed
        // region. The last victim has left (it counts as a color of its
        // own); every other session must hold a color proper on the
        // lattice.
        let colors: Vec<Option<u32>> = tokens
            .iter()
            .map(|&t| s.client.heartbeat(t).ok().and_then(|(_, c, _)| c))
            .collect();
        let mut graph_colors = colors.clone();
        graph_colors[v] = Some(u32::MAX);
        let left = colors[v].is_none();
        s.tally.check(
            left && lattice.proper(&graph_colors),
            "final heartbeat colors are complete and proper on the lattice",
        );
        eprintln!(
            "perfbench: tcp lifetime: set-up {setup_s:.3} s, {} cycles, {} requests in {timed_s:.3} s",
            done.len(),
            s.all.len()
        );
        Some(Lifetime {
            setup_s,
            cycles: done,
            all: s.all,
            heartbeats: s.heartbeats,
            writes: s.writes,
            timed_s,
            mix: s.mix.unwrap_or_default(),
            states,
            snapshot: last,
            cpu_s,
        })
    })();
    let stopped = server.stop();
    tally.check(stopped, "server shuts down cleanly");
    if run.is_none() {
        tally.check(false, "TCP lifetime completed");
    }
    run
}

/// Runs the TCP workload: `size.lifetimes` server lifetimes sharing
/// `opts.seconds` (end-to-end metrics) or, traced, one untraced and one
/// traced lifetime of `size.traced_cycles` cycles each plus the codec
/// replay (per-layer metrics).
pub fn run(size: TcpSize, opts: &Opts, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let lattice = Lattice::new(size.sessions);
    report.note("n", lattice.len() as f64);
    report.note("delta", lattice.delta as f64);
    report.note("kappa2", lattice.kappa2 as f64);
    report.note("graph.boundary_nodes", 0.0);

    let mut runs: Vec<Lifetime> = Vec::new();
    let mut quiet = Tracer::new(false);
    let (count, cycles) = if opts.trace {
        (2, Some(size.traced_cycles))
    } else {
        (size.lifetimes.max(1), None)
    };
    let budget = opts.seconds / count as f64;
    for i in 0..count {
        let traced = opts.trace && i == 1;
        let t = if traced { &mut *tracer } else { &mut quiet };
        let Some(run) = lifetime(
            size,
            opts.seed,
            &lattice,
            cycles,
            budget,
            traced,
            &mut report.tally,
            t,
        ) else {
            break;
        };
        runs.push(run);
    }
    // Every write lands on a settled service, so the service state is a
    // function of the seed: each lifetime must pass through the first
    // one's states for as many cycles as both ran (a traced lifetime
    // runs as many as the untraced one, so it ends in the same state).
    for run in runs.iter().skip(1) {
        let same = run.states.iter().zip(&runs[0].states).all(|(a, b)| a == b);
        let what = if opts.trace {
            "traced lifetime reproduces the untraced one"
        } else {
            "repeated lifetime reproduces the first"
        };
        report.tally.check(same, what);
    }
    report.note("lifetimes", runs.len() as f64);
    let cycles: Vec<Cycle> = runs.iter().flat_map(|r| r.cycles.iter().copied()).collect();
    report.note("cycles", cycles.len() as f64);
    report.note(
        "req_samples",
        runs.iter().map(|r| r.all.len()).sum::<u64>() as f64,
    );
    if runs.len() < count {
        return report;
    }

    if !opts.trace {
        let mut all = LatencyHist::default();
        for r in &runs {
            all.merge(&r.all);
        }
        let timed_s: f64 = runs.iter().map(|r| r.timed_s).sum();
        report.set(
            "setup_s",
            median(&runs.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        );
        report.set(
            "time_to_coloring_s",
            median(&cycles.iter().map(|c| c.wall_s).collect::<Vec<_>>()),
        );
        report.set(
            "node_slots_per_s",
            median(
                &cycles
                    .iter()
                    .map(|c| size.sessions as f64 * c.slots as f64 / c.wall_s)
                    .collect::<Vec<_>>(),
            ),
        );
        report.set("req_p50_us", all.percentile_us(0.5));
        report.set("req_p99_us", all.percentile_us(0.99));
        report.set("req_per_s", all.len() as f64 / timed_s);
        report.set("peak_rss_mib", procfs::peak_rss_mib());
        return report;
    }

    let (plain, traced) = (&runs[0], &runs[1]);
    let t = Instant::now();
    let codec = codec_replay(&traced.mix, 5, &mut report.tally);
    tracer.span_since("codec_replay", None, t);

    report.set("graph.udg_build_s", lattice.build_s);
    report.set("graph.kappa_s", lattice.kappa_s);
    let field = |k: &str| snapshot_field(&traced.snapshot, k).unwrap_or(f64::NAN);
    report.set("svc.settle_slots", field("slots"));
    report.set("svc.reprovisions", field("reprovisions"));
    report.set("svc.resets", field("resets"));
    report.set("svc.transmissions", field("transmissions"));
    report.set("svc.deliveries", field("deliveries"));
    report.set("svc.collisions", field("collisions"));
    report.set("wire.encode_ns", codec.encode_ns);
    report.set("wire.decode_ns", codec.decode_ns);
    report.set("wire.bytes_per_req", codec.bytes);
    report.set("server.hb_rtt_us_p50", traced.heartbeats.percentile_us(0.5));
    report.set(
        "server.hb_rtt_us_p99",
        traced.heartbeats.percentile_us(0.99),
    );
    report.set("server.write_rtt_us_p50", traced.writes.percentile_us(0.5));
    report.set("server.write_rtt_us_p99", traced.writes.percentile_us(0.99));
    report.set(
        "server.slots_per_s",
        traced.cycle_slots() as f64 / traced.cycle_s(),
    );
    report.set("proc.cpu_util", plain.cpu_s / plain.timed_s);
    report.set("proc.trace_overhead", traced.cycle_s() / plain.cycle_s());
    report
}
