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
//!    scan would produce. The scan runs only when a stall is due: each
//!    shard keeps a floor under the wake slot of its undecided nodes,
//!    and no node can stall while `now − floor ≤ stall_slots`.
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
//! The FSMs live in a packed node table ([`NodeTable`]): a dense vector
//! in local-index order plus a global-id → local-index array, so every
//! lookup is O(1) and the phases sweep contiguous memory. Sweep order
//! never changes an outcome:
//!
//! - every random draw comes from the node's own `node_rng` stream, so
//!   no node's draws depend on when its peers are visited;
//! - the channel rule only ever *counts* transmitting neighbors, and
//!   reads the frame only when the count is exactly one, so the
//!   scatter commutes;
//! - everything order-sensitive (reset-token issue, TDMA commit) runs
//!   serially in a leader closure that sorts by global node id first.
//!
//! The same argument is why a k-shard run is bit-identical to the
//! single-shard run: the loop body is re-bracketed, never reordered in
//! any way an outcome can see.

use crate::router::Router;
use crate::service::TdmaState;
use radio_graph::NodeId;
use radio_sim::SpinBarrier;
use radio_transport::rng::node_rng;
use radio_transport::{Behavior, RadioProtocol, Slot};
use rand::rngs::SmallRng;
use rand::Rng;
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

impl LiveNode {
    /// A fresh FSM for session `token`, asleep until `wake`; its
    /// protocol ID and RNG stream both derive from the token.
    pub(crate) fn new(token: u64, params: AlgorithmParams, seed: u64, wake: Slot) -> LiveNode {
        LiveNode {
            token,
            proto: ColoringNode::new(token as ProtoId, params),
            rng: node_rng(seed, token as u32),
            behavior: None,
            wake,
        }
    }

    /// Re-admits the node as a brand-new protocol node under the fresh
    /// protocol token `fresh`, keeping its session token.
    pub(crate) fn restart(&mut self, fresh: u64, params: AlgorithmParams, seed: u64, wake: Slot) {
        *self = LiveNode {
            token: self.token,
            ..LiveNode::new(fresh, params, seed, wake)
        };
    }
}

/// [`NodeTable::local`] entry for an id this shard does not own.
const ABSENT: u32 = u32::MAX;

/// A shard's live nodes, packed: the FSMs sit in a dense vector in
/// local-index order, with a parallel vector of their global ids and an
/// array from global id to local index. Lookups are O(1) and sweeps
/// walk contiguous memory. Local order is arbitrary — `remove`
/// swap-removes — which is safe because no outcome depends on sweep
/// order (see the module docs).
#[derive(Default)]
pub(crate) struct NodeTable {
    /// Live nodes in local-index order.
    nodes: Vec<LiveNode>,
    /// Global id of each packed node, parallel to `nodes`.
    ids: Vec<NodeId>,
    /// Global id → local index, or [`ABSENT`].
    local: Vec<u32>,
}

impl NodeTable {
    /// Live nodes in this shard.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Appends node `id`.
    ///
    /// # Panics
    /// Panics if `id` is already in the table.
    fn insert(&mut self, id: NodeId, node: LiveNode) {
        let gi = id as usize;
        if gi >= self.local.len() {
            self.local.resize(gi + 1, ABSENT);
        }
        assert_eq!(self.local[gi], ABSENT, "node {id} is already live");
        self.local[gi] = self.nodes.len() as u32;
        self.nodes.push(node);
        self.ids.push(id);
    }

    /// Removes node `id` by swap-remove, re-indexing the node that
    /// moves into its place.
    pub(crate) fn remove(&mut self, id: NodeId) -> Option<LiveNode> {
        let at = self.index(id)?;
        self.local[id as usize] = ABSENT;
        let node = self.nodes.swap_remove(at);
        self.ids.swap_remove(at);
        if let Some(&moved) = self.ids.get(at) {
            self.local[moved as usize] = at as u32;
        }
        Some(node)
    }

    fn index(&self, id: NodeId) -> Option<usize> {
        match self.local.get(id as usize) {
            Some(&at) if at != ABSENT => Some(at as usize),
            _ => None,
        }
    }

    pub(crate) fn get(&self, id: NodeId) -> Option<&LiveNode> {
        self.index(id).map(|at| &self.nodes[at])
    }

    pub(crate) fn get_mut(&mut self, id: NodeId) -> Option<&mut LiveNode> {
        self.index(id).map(|at| &mut self.nodes[at])
    }

    /// Every node with its global id, in local-index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &LiveNode)> {
        self.ids.iter().copied().zip(self.nodes.iter())
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut LiveNode)> {
        self.ids.iter().copied().zip(self.nodes.iter_mut())
    }
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
    /// Live nodes, packed for O(1) lookup and contiguous sweeps. Sweep
    /// order is unobservable: draws are per-node streams, contention
    /// counts commute, and the leader closures sort by global id.
    pub(crate) nodes: NodeTable,
    /// Undecided nodes in this shard (a partition of
    /// [`Shared::undecided`]; reported per shard in the snapshot).
    pub(crate) undecided: usize,
    /// Watchdog floor: no undecided node in this shard woke before this
    /// slot (`Slot::MAX` when none can stall). Admissions and resets
    /// lower it; a full detect scan recomputes it. Until `now` is more
    /// than `stall_slots` past it, no node can stall and the detect
    /// phase skips its scan.
    pub(crate) stall_floor: Slot,
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
            nodes: NodeTable::default(),
            undecided: 0,
            stall_floor: Slot::MAX,
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

    /// Admits a fresh (undecided) node.
    pub(crate) fn admit(&mut self, id: NodeId, node: LiveNode) {
        self.watch(node.wake);
        self.nodes.insert(id, node);
        self.undecided += 1;
    }

    /// Puts an undecided node that wakes at `wake` under the stall
    /// watchdog.
    pub(crate) fn watch(&mut self, wake: Slot) {
        self.stall_floor = self.stall_floor.min(wake);
    }

    /// Grows the id-indexed scratch to the router's current capacity.
    /// Called once per `step` batch, before the workers start; capacity
    /// cannot change while the router's read lock is held.
    pub(crate) fn reserve(&mut self, cap: usize) {
        self.counts.resize(cap, 0);
        self.winner.resize(cap, None);
        self.tx_of.resize(cap, u32::MAX);
    }

    /// Phase 1: the stall watchdog scan (read-only on the nodes).
    /// Stalled ids are staged; their fresh tokens are issued by the
    /// barrier leader ([`assign_reset_tokens`]) so the issue order is
    /// shard-count independent. The scan runs only once a stall is due
    /// by the shard's floor, and recomputes the floor from the nodes
    /// that did not stall (the stalled ones re-enter it on reset).
    pub(crate) fn phase_detect(&mut self, now: Slot, ctx: &StepCtx<'_>) {
        if ctx.stall_slots == 0 || now.saturating_sub(self.stall_floor) <= ctx.stall_slots {
            return;
        }
        let Shard {
            nodes,
            stalled,
            stall_floor,
            ..
        } = self;
        *stall_floor = Slot::MAX;
        for (id, node) in nodes.iter() {
            if node.proto.color().is_some() {
                continue;
            }
            if now >= node.wake && now - node.wake > ctx.stall_slots {
                stalled.push(id);
            } else {
                *stall_floor = (*stall_floor).min(node.wake);
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
            stall_floor,
            ..
        } = self;

        // Stall watchdog: under churn the paper's FSM can wait on a
        // neighbor that no longer exists (a requester's leader that
        // left — state `R` sets no deadline), so an undecided node that
        // outlives the bound is restarted as a brand-new protocol node.
        // Same session token; fresh protocol ID and RNG stream, so to
        // its neighbors it is simply a late joiner.
        for (id, fresh) in resets.drain(..) {
            let node = nodes.get_mut(id).expect("stalled node is live");
            node.restart(fresh, ctx.params, ctx.seed, now + 1);
            *stall_floor = (*stall_floor).min(now + 1);
            stats.resets += 1;
        }

        for (id, node) in nodes.iter_mut() {
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
            let node = nodes.get_mut(w).expect("listener is live");
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
