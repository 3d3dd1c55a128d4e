//! The per-shard slot engine: one strip of the membership, stepped in
//! lockstep with its peers.
//!
//! A [`Shard`] owns the [`ColoringNode`] FSMs of every node whose join
//! position falls in its strip (see [`crate::router`]), plus the
//! per-slot scratch the delivery rule needs. Shards advance together
//! through a three-phase slot loop ([`worker_loop`]) separated by a
//! [`SpinBarrier`], mirroring `radio-sim`'s sharded engine:
//!
//! 1. **detect** — scan for watchdog-stalled sessions (read-only);
//!    the barrier leader then issues their fresh protocol tokens in
//!    ascending node order, exactly the sequence a single ascending
//!    scan would produce.
//! 2. **transmit** — apply resets, run wake-ups/deadlines, draw
//!    transmissions, and scatter contention counts: local listeners
//!    are counted in place, boundary-crossing frames are staged per
//!    destination shard and flushed into the mailbox with one lock per
//!    destination.
//! 3. **deliver** — drain inbound mailboxes in ascending source-shard
//!    order and apply the ideal channel rule (a listener hears a frame
//!    iff exactly one neighbor transmitted); decide transitions are
//!    staged, and the barrier leader commits them to the TDMA schedule
//!    in ascending node order before advancing the shared slot clock.
//!
//! Because the channel rule only ever *counts* transmitting neighbors —
//! and reads the frame only when the count is exactly one — the scatter
//! is commutative, so the phase split computes the same deliveries as
//! the monolithic ascending scan. Everything order-sensitive (token
//! issue, TDMA commit) runs serially in a leader closure, sorted by
//! global node id. That is the whole bit-identity argument: a k-shard
//! run is the single-shard run with the loop body re-bracketed.

use crate::router::Router;
use crate::service::TdmaState;
use radio_graph::NodeId;
use radio_sim::SpinBarrier;
use radio_transport::rng::node_rng;
use radio_transport::{Behavior, RadioProtocol, Slot};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use urn_coloring::{AlgorithmParams, ColoringMsg, ColoringNode, ProtoId};

/// Cross-shard service state. Every field is an atomic and every
/// access goes through an approved accessor — lint rule R7 pins that
/// discipline on this file. All counters are `Relaxed`: the barrier
/// provides the cross-phase ordering (see [`SpinBarrier::wait`]), and
/// outside the slot loop the router lock serializes writers.
pub(crate) struct Shared {
    /// The service slot clock; advanced once per slot by the commit
    /// barrier leader.
    pub(crate) slot: AtomicU64,
    /// Undecided nodes across all shards — the server's idle signal.
    pub(crate) undecided: AtomicUsize,
    /// Next session/protocol token. Tokens are unique forever; a
    /// watchdog reset or reprovision consumes one just like a join.
    pub(crate) next_token: AtomicU64,
    /// Heartbeats answered (stats only).
    pub(crate) heartbeats: AtomicU64,
}

impl Shared {
    pub(crate) fn new() -> Self {
        Shared {
            slot: AtomicU64::new(0),
            undecided: AtomicUsize::new(0),
            next_token: AtomicU64::new(1),
            heartbeats: AtomicU64::new(0),
        }
    }
}

/// One joined node: the FSM, its private RNG stream, and the pump
/// state the simulator keeps per node.
pub(crate) struct LiveNode {
    pub(crate) token: u64,
    pub(crate) proto: ColoringNode,
    pub(crate) rng: SmallRng,
    pub(crate) behavior: Option<Behavior>,
    pub(crate) wake: Slot,
}

/// Per-shard slot counters, summed into [`crate::ServiceStats`] at
/// snapshot time.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ShardStats {
    pub(crate) transmissions: u64,
    pub(crate) deliveries: u64,
    pub(crate) collisions: u64,
    pub(crate) resets: u64,
}

/// One boundary frame in flight between shards: the listener it is
/// addressed to and the protocol message it carries.
pub(crate) type Frame = (NodeId, ColoringMsg);

/// Read-only context shared by every worker for the duration of one
/// `step` batch. Holding it implies the router's read lock is held, so
/// membership, adjacency and shard placement are frozen.
pub(crate) struct StepCtx<'a> {
    pub(crate) router: &'a Router,
    pub(crate) shared: &'a Shared,
    /// `mailbox[src][dst]`: boundary frames staged by shard `src` for
    /// listeners owned by shard `dst`.
    pub(crate) mailbox: &'a [Vec<Mutex<Vec<Frame>>>],
    /// Parameters for FSMs re-admitted this batch (watchdog resets).
    pub(crate) params: AlgorithmParams,
    pub(crate) seed: u64,
    pub(crate) stall_slots: u64,
}

/// One strip of the service: the FSMs it owns plus slot scratch.
pub(crate) struct Shard {
    /// Live nodes keyed by global node id — ascending iteration keeps
    /// the slot loop deterministic.
    pub(crate) nodes: BTreeMap<NodeId, LiveNode>,
    /// Undecided nodes in this shard (a partition of
    /// [`Shared::undecided`]; reported per shard in the snapshot).
    pub(crate) undecided: usize,
    pub(crate) stats: ShardStats,
    // Per-slot scratch, reused across slots; indexed by global node id.
    /// Transmitting-neighbor count per local listener this slot.
    counts: Vec<u32>,
    /// The (single) frame a listener would hear; only read at count 1.
    winner: Vec<Option<ColoringMsg>>,
    /// Local listeners with a nonzero count this slot.
    touched: Vec<NodeId>,
    /// Local node → this slot's transmitter mark, or `u32::MAX`.
    tx_of: Vec<u32>,
    /// This slot's local transmitters with their drawn frames.
    txs: Vec<(NodeId, ColoringMsg)>,
    /// Boundary frames staged per destination shard, flushed into the
    /// mailbox with one lock per destination.
    outgoing: Vec<Vec<(NodeId, ColoringMsg)>>,
    /// Watchdog-stalled node ids detected this slot.
    stalled: Vec<NodeId>,
    /// Watchdog resets to apply in the transmit phase: (node, fresh
    /// protocol token), token issued by the barrier leader.
    resets: Vec<(NodeId, u64)>,
    /// Decide transitions staged for the commit leader:
    /// (node, color, is_leader).
    events: Vec<(NodeId, u32, bool)>,
}

impl Shard {
    pub(crate) fn new(shards: usize) -> Shard {
        Shard {
            nodes: BTreeMap::new(),
            undecided: 0,
            stats: ShardStats::default(),
            counts: Vec::new(),
            winner: Vec::new(),
            touched: Vec::new(),
            tx_of: Vec::new(),
            txs: Vec::new(),
            outgoing: vec![Vec::new(); shards],
            stalled: Vec::new(),
            resets: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Grows the id-indexed scratch to the router's current capacity.
    /// Called once per `step` batch, before the workers start; capacity
    /// cannot change while the router's read lock is held.
    pub(crate) fn reserve(&mut self, cap: usize) {
        self.counts.resize(cap, 0);
        self.winner.resize(cap, None);
        self.tx_of.resize(cap, u32::MAX);
    }

    /// Phase 1: the stall watchdog scan (read-only). Stalled ids are
    /// staged; their fresh tokens are issued by the barrier leader
    /// ([`assign_reset_tokens`]) so the issue order is shard-count
    /// independent.
    pub(crate) fn phase_detect(&mut self, now: Slot, ctx: &StepCtx<'_>) {
        if ctx.stall_slots == 0 {
            return;
        }
        let Shard { nodes, stalled, .. } = self;
        for (&id, node) in nodes.iter() {
            if node.proto.color().is_none() && now >= node.wake && now - node.wake > ctx.stall_slots
            {
                stalled.push(id);
            }
        }
    }

    /// Phase 2: watchdog re-admissions, wake-ups / deadlines,
    /// transmission draws, and the contention scatter.
    pub(crate) fn phase_transmit(&mut self, at: usize, now: Slot, ctx: &StepCtx<'_>) {
        let Shard {
            nodes,
            undecided,
            stats,
            counts,
            winner,
            touched,
            tx_of,
            txs,
            outgoing,
            resets,
            events,
            ..
        } = self;

        // Stall watchdog: under churn the paper's FSM can wait on a
        // neighbor that no longer exists (a requester's leader that
        // left — state `R` sets no deadline), so an undecided node that
        // outlives the bound is restarted as a brand-new protocol node.
        // Same session token; fresh protocol ID and RNG stream, so to
        // its neighbors it is simply a late joiner.
        for (id, fresh) in resets.drain(..) {
            let node = nodes.get_mut(&id).expect("stalled node is live");
            node.proto = ColoringNode::new(fresh as ProtoId, ctx.params);
            node.rng = node_rng(ctx.seed, fresh as u32);
            node.behavior = None;
            node.wake = now + 1;
            stats.resets += 1;
        }

        for (&id, node) in nodes.iter_mut() {
            let was_decided = node.proto.color().is_some();
            if now >= node.wake && node.behavior.is_none() {
                let b = node.proto.on_wake(now, &mut node.rng);
                debug_assert!(b.validate_at(now).is_ok());
                node.behavior = Some(b);
            } else if let Some(b) = node.behavior {
                if b.until() == Some(now) {
                    let nb = node.proto.on_deadline(now, &mut node.rng);
                    debug_assert!(nb.validate_at(now).is_ok());
                    node.behavior = Some(nb);
                }
            }
            if !was_decided {
                if let Some(c) = node.proto.color() {
                    *undecided -= 1;
                    ctx.shared.undecided.fetch_sub(1, Ordering::Relaxed);
                    events.push((id, c, node.proto.is_leader()));
                }
            }
            if let Some(Behavior::Transmit { p, .. }) = node.behavior {
                if node.rng.gen_bool(p) {
                    let msg = node.proto.message(now, &mut node.rng);
                    tx_of[id as usize] = txs.len() as u32;
                    txs.push((id, msg));
                }
            }
        }
        stats.transmissions += txs.len() as u64;

        // Contention scatter. Counting is commutative, so each shard
        // scatters its own transmitters independently; the boundary
        // registry lets interior transmitters (the overwhelming
        // majority, by Lemma 1's bounded-boundary argument) skip the
        // per-neighbor shard lookup entirely.
        for &(v, msg) in txs.iter() {
            if ctx.router.is_interior(v) {
                for &w in ctx.router.neighbors(v) {
                    let wi = w as usize;
                    if counts[wi] == 0 {
                        touched.push(w);
                    }
                    counts[wi] += 1;
                    winner[wi] = Some(msg);
                }
            } else {
                for &w in ctx.router.neighbors(v) {
                    let dst = ctx.router.shard_of(w) as usize;
                    if dst == at {
                        let wi = w as usize;
                        if counts[wi] == 0 {
                            touched.push(w);
                        }
                        counts[wi] += 1;
                        winner[wi] = Some(msg);
                    } else {
                        outgoing[dst].push((w, msg));
                    }
                }
            }
        }
        for (dst, staged) in outgoing.iter_mut().enumerate() {
            if !staged.is_empty() {
                ctx.mailbox[at][dst]
                    .lock()
                    .expect("mailbox lock")
                    .append(staged);
            }
        }
    }

    /// Phase 3: drain inbound mailboxes (ascending source shard), then
    /// resolve contention — a listener hears a frame iff exactly one
    /// neighbor transmitted and it is awake and not transmitting
    /// itself, the ideal channel rule shared with the engines.
    pub(crate) fn phase_deliver(&mut self, at: usize, now: Slot, ctx: &StepCtx<'_>) {
        let shard_count = self.outgoing.len();
        let Shard {
            nodes,
            undecided,
            stats,
            counts,
            winner,
            touched,
            tx_of,
            txs,
            events,
            ..
        } = self;

        for src in 0..shard_count {
            if src == at {
                continue;
            }
            let mut inbound = ctx.mailbox[src][at].lock().expect("mailbox lock");
            for (w, msg) in inbound.drain(..) {
                let wi = w as usize;
                if counts[wi] == 0 {
                    touched.push(w);
                }
                counts[wi] += 1;
                winner[wi] = Some(msg);
            }
        }

        for &w in touched.iter() {
            let wi = w as usize;
            let heard = counts[wi] == 1;
            counts[wi] = 0;
            let frame = winner[wi].take();
            if !heard {
                stats.collisions += 1;
                continue;
            }
            if tx_of[wi] != u32::MAX {
                continue; // transmitters never receive
            }
            let node = nodes.get_mut(&w).expect("listener is live");
            if now < node.wake {
                continue; // still asleep
            }
            let msg = frame.expect("a count of one recorded its frame");
            let was_decided = node.proto.color().is_some();
            if let Some(nb) = node.proto.on_receive(now, &msg, &mut node.rng) {
                debug_assert!(nb.validate_at(now).is_ok());
                // Effective next slot: this slot's tx phase already ran.
                node.behavior = Some(nb);
            }
            stats.deliveries += 1;
            if !was_decided {
                if let Some(c) = node.proto.color() {
                    *undecided -= 1;
                    ctx.shared.undecided.fetch_sub(1, Ordering::Relaxed);
                    events.push((w, c, node.proto.is_leader()));
                }
            }
        }
        touched.clear();
        for &(v, _) in txs.iter() {
            tx_of[v as usize] = u32::MAX;
        }
        txs.clear();
    }
}

/// Barrier-leader step between detect and transmit: gathers every
/// shard's stalled ids, sorts them globally, and issues fresh protocol
/// tokens in ascending node order — the exact sequence the monolithic
/// ascending scan produced, which keeps the k-shard token stream
/// bit-identical to k = 1.
pub(crate) fn assign_reset_tokens(shards: &[Mutex<Shard>], ctx: &StepCtx<'_>) {
    let mut all: Vec<(NodeId, usize)> = Vec::new();
    for (at, cell) in shards.iter().enumerate() {
        let mut shard = cell.lock().expect("shard lock");
        all.extend(shard.stalled.drain(..).map(|id| (id, at)));
    }
    if all.is_empty() {
        return;
    }
    all.sort_unstable();
    for (id, at) in all {
        let fresh = ctx.shared.next_token.fetch_add(1, Ordering::Relaxed);
        shards[at]
            .lock()
            .expect("shard lock")
            .resets
            .push((id, fresh));
    }
}

/// Barrier-leader step closing a slot: applies every shard's staged
/// decide events to the TDMA schedule in ascending node order (so the
/// conflict and frame accounting is shard-count independent), then
/// advances the shared slot clock.
pub(crate) fn commit_slot(shards: &[Mutex<Shard>], tdma: &Mutex<TdmaState>, ctx: &StepCtx<'_>) {
    let mut all: Vec<(NodeId, u32, bool)> = Vec::new();
    for cell in shards {
        let mut shard = cell.lock().expect("shard lock");
        all.append(&mut shard.events);
    }
    if !all.is_empty() {
        all.sort_unstable_by_key(|&(id, _, _)| id);
        let mut schedule = tdma.lock().expect("tdma lock");
        for (id, color, leader) in all {
            schedule.decide(id, color, leader, ctx.router.neighbors(id));
        }
    }
    ctx.shared.slot.fetch_add(1, Ordering::Relaxed);
}

/// One worker's slot loop: exactly three barrier waits per slot
/// (detect → token issue, transmit → mailbox flush, deliver → TDMA
/// commit); lint rule R7 pins the count. `k = 1` runs the same loop on
/// a one-party barrier, so single- and multi-shard executions share
/// every line of slot logic.
pub(crate) fn worker_loop(
    at: usize,
    shards: &[Mutex<Shard>],
    tdma: &Mutex<TdmaState>,
    ctx: &StepCtx<'_>,
    barrier: &SpinBarrier,
    slots: u64,
) {
    for _ in 0..slots {
        let now = ctx.shared.slot.load(Ordering::Relaxed);
        shards[at]
            .lock()
            .expect("shard lock")
            .phase_detect(now, ctx);
        barrier.wait(|| assign_reset_tokens(shards, ctx));
        shards[at]
            .lock()
            .expect("shard lock")
            .phase_transmit(at, now, ctx);
        barrier.wait(|| {});
        shards[at]
            .lock()
            .expect("shard lock")
            .phase_deliver(at, now, ctx);
        barrier.wait(|| commit_slot(shards, tdma, ctx));
    }
}
