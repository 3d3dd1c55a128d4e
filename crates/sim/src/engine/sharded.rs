//! The spatially-sharded slot-parallel driver: shards of the node set
//! run the slot core ([`super::slot`]) concurrently within each slot,
//! with a deterministic boundary exchange merging cross-shard
//! transmissions — bit-identical to [`SimDriver`] running the
//! [`Lockstep`] strategy, which is the same core at `k = 1`.
//!
//! # Execution model
//!
//! The node set is split by a [`Partition`] (spatial for UDG workloads,
//! contiguous otherwise). Each shard owns one [`SlotCore`] over its
//! members (indexed by local index, its `View` mapping them to global
//! ids), and one thread per shard steps the slot loop in lock-step,
//! synchronized by a [`SpinBarrier`]. Per slot:
//!
//! ```text
//!   phase A   core.phase_wakes_deadlines (shard-local)
//!   phase B   core.phase_tx: local scatter into the shard's kernel,
//!             boundary scatter staged per destination shard, then
//!             flushed into the (src, dst) mailboxes
//!   --------- barrier: all transmissions visible ----------
//!   phase C   mailbox merge (ascending source shard), then
//!             core.phase_deliver over the touched local listeners
//!   --------- barrier: evaluate global termination ----------
//! ```
//!
//! # Why this is bit-identical to the sequential driver
//!
//! * **RNG privacy.** Every random draw a node makes (`on_wake`,
//!   `on_deadline`, Bernoulli transmission, `message`, `on_receive`)
//!   comes from its private [`node_rng`](crate::rng::node_rng) stream,
//!   and the draw sequence is a function of the node's own event
//!   timeline only. Sharding changes which thread performs a draw,
//!   never its position in the node's stream.
//! * **Exact contention counts.** The per-listener transmitter counts a
//!   shard accumulates (local adds + merged boundary adds) equal the
//!   sequential kernel's counts — addition is commutative, and the
//!   built-in channel models only distinguish `1` from `≥ 2`.
//! * **Channel privacy.** Every shard builds the same full-size channel
//!   model from the same run seed; the built-in models keep per-listener
//!   state (counter-keyed draws, per-listener Markov chains), and each
//!   listener is decided only on its home shard, in the same
//!   (listener, slot) query sequence as the sequential run. The one
//!   globally order-dependent model,
//!   [`AdversarialJam`](crate::channel::ChannelSpec::AdversarialJam),
//!   reports [`is_shardable`](crate::channel::ChannelSpec::is_shardable)
//!   `= false` and the entry point falls back to the sequential driver.
//! * **Canonical logs.** Channel faults are merged and sorted into the
//!   same `(slot, node)` order the sequential driver emits, and
//!   monitor violations are canonically sorted by the shared epilogue.
//!
//! # Monitor replay
//!
//! [`InvariantMonitor`]s are not required to be [`Send`], and the
//! monitor contract only guarantees hook-order independence *within* a
//! slot. The sharded driver therefore never calls the monitor from a
//! worker: each core's hooks go to its shard's `Recorder`, and the
//! main thread replays them (sorted by node id, phases in sequential
//! order) between barrier pairs while the workers are parked.
//! Unmonitored runs ([`InvariantMonitor::is_null`]) record nothing,
//! skip the replay windows and run two barriers per slot instead of
//! six.
//!
//! # Divergence on protocol errors
//!
//! The sequential driver stops mid-slot at the first malformed
//! behavior, in visit order. The sharded driver halts the erroring
//! shard but lets the other shards finish the slot's phases, then
//! stops; when several shards error in the same slot the smallest
//! `(slot, node)` error is reported. Stats of *error* runs can thus
//! differ between the two drivers (`all_decided` is `false` and
//! [`SimOutcome::error`] is `Some` either way); error-free runs — the
//! only ones the identity pin exercises — are bit-identical.

use super::driver::SimDriver;
use super::lockstep::Lockstep;
use super::slot::{coin_flip, Delivery, Placement, SlotCore};
use super::{collect_violations, ExecutedEngine, NodeStats, SimConfig, SimOutcome, MAX_FAULT_LOG};
use crate::channel::BuiltinChannel;
use crate::monitor::InvariantMonitor;
use crate::protocol::{ProtocolError, RadioProtocol, Slot};
use crate::trace::Event;
use parking_lot::Mutex;
use radio_graph::{Graph, NodeId, Partition};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::MutexGuard;

/// A reusable spinning barrier with a leader closure, shared by the
/// sharded engine and `colord`'s shard workers.
///
/// `std::sync::Barrier` parks threads through the OS on every wait; at
/// up to six waits per simulated slot that dominates the slot loop.
/// This barrier spins briefly (the phases it separates are
/// microseconds long) and then yields, so it stays correct — if slow —
/// when shards outnumber cores. The closure passed to
/// [`wait`](SpinBarrier::wait) runs exactly once per generation, on
/// the last-arriving thread, strictly before any thread is released.
pub struct SpinBarrier {
    /// Threads arrived in the current generation.
    count: AtomicUsize,
    /// Generation counter; incremented by the leader to release waiters.
    gen: AtomicUsize,
    /// Number of participating threads.
    total: usize,
}

impl SpinBarrier {
    /// A barrier for `total` participating threads.
    pub fn new(total: usize) -> Self {
        SpinBarrier {
            count: AtomicUsize::new(0),
            gen: AtomicUsize::new(0),
            total,
        }
    }

    /// Blocks until all `total` threads have arrived. The last arriver
    /// runs `leader`, resets the barrier and releases everyone.
    ///
    /// Memory ordering: every arriver's prior writes are published by
    /// the `AcqRel` increment of `count`; the leader's release-store of
    /// `gen` (after running `leader`) is observed by the waiters'
    /// acquire-loads, so all phase-N writes happen-before any phase-N+1
    /// read.
    pub fn wait(&self, leader: impl FnOnce()) {
        let g = self.gen.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            leader();
            self.count.store(0, Ordering::Relaxed);
            self.gen.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.gen.load(Ordering::Acquire) == g {
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Cross-shard termination flags, written only by the per-slot
/// evaluation (`Relaxed`: the barrier provides the ordering, see
/// [`SpinBarrier::wait`]).
struct Shared {
    /// All threads leave the slot loop at the end of the slot in which
    /// it is raised.
    stop: AtomicBool,
    /// Every node woke and decided (pending the error veto).
    all_decided: AtomicBool,
}

/// One `(src, dst)` mailbox cell of boundary deliveries.
type Mailbox<P> = Mutex<Vec<Delivery<<P as RadioProtocol>::Message>>>;

/// Read-only per-run context shared by all shard threads.
struct Ctx<'a, P: RadioProtocol> {
    /// Global node id → owning shard.
    shard_of: &'a [u32],
    /// Global node id → index within its shard's arrays.
    local_of: &'a [u32],
    shared: &'a Shared,
    /// `mailbox[src][dst]`: boundary deliveries scattered by shard
    /// `src` in phase B, drained by shard `dst` in phase C. Each cell
    /// has exactly one writer and one reader per slot, on opposite
    /// sides of a barrier.
    mailbox: &'a [Vec<Mailbox<P>>],
}

impl<P: RadioProtocol> Ctx<'_, P> {
    /// Shard `id`'s placement over its `members`.
    fn view<'c>(&'c self, id: usize, members: &'c [NodeId]) -> View<'c> {
        View {
            id,
            members,
            shard_of: self.shard_of,
            local_of: self.local_of,
        }
    }
}

/// Shard `id`'s [`Placement`]: its members (ascending global ids) are
/// its local indices.
struct View<'c> {
    id: usize,
    members: &'c [NodeId],
    shard_of: &'c [u32],
    local_of: &'c [u32],
}

impl Placement for View<'_> {
    #[inline]
    fn global(&self, l: u32) -> NodeId {
        self.members[l as usize]
    }

    #[inline]
    fn locate(&self, g: NodeId) -> Result<u32, usize> {
        let s = self.shard_of[g as usize] as usize;
        if s == self.id {
            Ok(self.local_of[g as usize])
        } else {
            Err(s)
        }
    }
}

/// A shard's monitor stand-in: records the hooks its core fires for the
/// main thread's replay. Disabled (records nothing) on unmonitored runs.
struct Recorder<P: RadioProtocol> {
    on: bool,
    woken: Vec<NodeId>,
    fired: Vec<NodeId>,
    sent: Vec<NodeId>,
    received: Vec<(NodeId, P::Message)>,
    /// Nodes whose `on_decided` fired this phase (at most once each;
    /// it belongs to the node's wake, deadline or receive hook).
    decided: Vec<NodeId>,
}

impl<P: RadioProtocol> InvariantMonitor<P> for Recorder<P> {
    fn after_wake(&mut self, node: NodeId, _slot: Slot, _proto: &P) {
        if self.on {
            self.woken.push(node);
        }
    }

    fn after_deadline(&mut self, node: NodeId, _slot: Slot, _proto: &P) {
        if self.on {
            self.fired.push(node);
        }
    }

    fn on_transmit(&mut self, node: NodeId, _slot: Slot, _msg: &P::Message, _proto: &P) {
        if self.on {
            self.sent.push(node);
        }
    }

    fn after_receive(&mut self, node: NodeId, _slot: Slot, msg: &P::Message, _proto: &P) {
        if self.on {
            self.received.push((node, msg.clone()));
        }
    }

    fn on_decided(&mut self, node: NodeId, _slot: Slot, _proto: &P) {
        if self.on {
            self.decided.push(node);
        }
    }
}

/// One shard: its members, its slot core and its hook recorder.
struct Shard<'a, P: RadioProtocol> {
    id: usize,
    /// Global ids of owned nodes, ascending.
    members: Vec<NodeId>,
    core: SlotCore<'a, P, BuiltinChannel>,
    rec: Recorder<P>,
}

impl<P: RadioProtocol> Shard<'_, P> {
    /// Phase A: the core's wake-ups and deadlines.
    fn phase_wakes_deadlines(&mut self, slot: Slot, ctx: &Ctx<'_, P>) {
        let view = ctx.view(self.id, &self.members);
        self.core.phase_wakes_deadlines(slot, &view, &mut self.rec);
    }

    /// Phase B: the core's transmission draws and scatter, then the
    /// boundary staging buffers flushed to the mailboxes.
    fn phase_tx(&mut self, slot: Slot, ctx: &Ctx<'_, P>) {
        let view = ctx.view(self.id, &self.members);
        self.core.phase_tx(slot, &view, coin_flip, &mut self.rec);
        for (dst, q) in self.core.outgoing.iter_mut().enumerate() {
            if !q.is_empty() {
                ctx.mailbox[self.id][dst].lock().append(q);
            }
        }
    }

    /// Phase C: merge boundary deliveries (ascending source shard),
    /// then the core's delivery step over this shard's listeners.
    fn phase_deliver(&mut self, slot: Slot, ctx: &Ctx<'_, P>) {
        if self.core.halted() {
            return;
        }
        for row in ctx.mailbox {
            let mut q = row[self.id].lock();
            for (u, t, msg) in q.drain(..) {
                // Local contributions were added in phase B, so a
                // first-contribution boundary add means the winner (if
                // unique) is remote and this is its message.
                self.core.accept(ctx.local_of[u as usize], t, msg);
            }
        }
        let view = ctx.view(self.id, &self.members);
        self.core.phase_deliver(slot, &view, &mut self.rec);
    }
}

/// Global termination evaluation, run once per slot strictly between
/// the delivery barrier and the slot-end release, with every shard
/// locked.
fn evaluate<P: RadioProtocol>(shards: &[MutexGuard<'_, Shard<'_, P>>], shared: &Shared) {
    if shards.iter().any(|s| s.core.halted()) {
        shared.stop.store(true, Ordering::Relaxed);
    } else if shards.iter().all(|s| s.core.done()) {
        shared.all_decided.store(true, Ordering::Relaxed);
        shared.stop.store(true, Ordering::Relaxed);
    }
}

/// Worker slot loop for shards `1..k` (the main thread runs shard 0
/// inline so the non-`Send` monitor never leaves it). The barrier
/// schedule must mirror the main thread's exactly: six waits per
/// monitored slot (two per phase, bracketing the main thread's replay
/// windows), two per unmonitored slot.
fn worker_loop<P: RadioProtocol>(
    i: usize,
    max_slots: Slot,
    ctx: &Ctx<'_, P>,
    cells: &[Mutex<Shard<'_, P>>],
    barrier: &SpinBarrier,
    monitored: bool,
) {
    let mut slot: Slot = 0;
    while slot <= max_slots {
        {
            let mut s = cells[i].lock();
            s.phase_wakes_deadlines(slot, ctx);
            if !monitored {
                s.phase_tx(slot, ctx);
            }
        }
        if monitored {
            barrier.wait(|| {});
            barrier.wait(|| {}); // main: replay wakes + deadlines
            cells[i].lock().phase_tx(slot, ctx);
            barrier.wait(|| {});
            barrier.wait(|| {}); // main: replay transmissions
            cells[i].lock().phase_deliver(slot, ctx);
            barrier.wait(|| {});
            barrier.wait(|| {}); // main: replay receptions, evaluate
        } else {
            barrier.wait(|| {});
            cells[i].lock().phase_deliver(slot, ctx);
            barrier.wait(|| evaluate(&lock_all(cells), ctx.shared));
        }
        if ctx.shared.stop.load(Ordering::Relaxed) {
            break;
        }
        cells[i].lock().core.compact();
        slot += 1;
    }
}

/// Locks every shard cell for a main-thread replay window or the
/// termination evaluation. The workers are parked in a barrier while
/// these guards are held, so the locks never contend.
fn lock_all<'a, 'b, P: RadioProtocol>(
    cells: &'a [Mutex<Shard<'b, P>>],
) -> Vec<MutexGuard<'a, Shard<'b, P>>> {
    cells.iter().map(|c| c.lock()).collect()
}

/// Shard cell and local index of global node `g`.
fn home<'g, 'a, P: RadioProtocol>(
    guards: &'g [MutexGuard<'_, Shard<'a, P>>],
    ctx: &Ctx<'_, P>,
    g: NodeId,
) -> (&'g Shard<'a, P>, usize) {
    (
        &guards[ctx.shard_of[g as usize] as usize],
        ctx.local_of[g as usize] as usize,
    )
}

/// Drains every shard's `on_decided` record for the phase, sorted.
fn decided_in_phase<P: RadioProtocol>(guards: &mut [MutexGuard<'_, Shard<'_, P>>]) -> Vec<NodeId> {
    let mut decided: Vec<NodeId> = Vec::new();
    for s in guards.iter_mut() {
        decided.append(&mut s.rec.decided);
    }
    decided.sort_unstable();
    decided
}

/// Replays phase A hooks in the sequential driver's order: all
/// wake-ups (ascending node id — exactly the sequential tie-break),
/// then all deadline firings, each followed by `on_decided` if its
/// decision flipped. (A node woken this slot cannot also meet a
/// deadline in it: `validate_at` rejects `until <= now`.)
fn replay_phase_a<P: RadioProtocol, M: InvariantMonitor<P>>(
    monitor: &mut M,
    slot: Slot,
    guards: &mut [MutexGuard<'_, Shard<'_, P>>],
    ctx: &Ctx<'_, P>,
) {
    let mut woken: Vec<NodeId> = Vec::new();
    let mut fired: Vec<NodeId> = Vec::new();
    for s in guards.iter_mut() {
        woken.append(&mut s.rec.woken);
        fired.append(&mut s.rec.fired);
    }
    woken.sort_unstable();
    fired.sort_unstable();
    let decided = decided_in_phase(guards);
    for g in woken {
        let (s, l) = home(guards, ctx, g);
        monitor.after_wake(g, slot, &s.core.protocols()[l]);
        if decided.binary_search(&g).is_ok() {
            monitor.on_decided(g, slot, &s.core.protocols()[l]);
        }
    }
    for g in fired {
        let (s, l) = home(guards, ctx, g);
        monitor.after_deadline(g, slot, &s.core.protocols()[l]);
        if decided.binary_search(&g).is_ok() {
            monitor.on_decided(g, slot, &s.core.protocols()[l]);
        }
    }
}

/// Replays `on_transmit` for every transmitter, ascending node id.
fn replay_phase_tx<P: RadioProtocol, M: InvariantMonitor<P>>(
    monitor: &mut M,
    slot: Slot,
    guards: &mut [MutexGuard<'_, Shard<'_, P>>],
    ctx: &Ctx<'_, P>,
) {
    let mut sent: Vec<NodeId> = Vec::new();
    for s in guards.iter_mut() {
        sent.append(&mut s.rec.sent);
    }
    sent.sort_unstable();
    for g in sent {
        let (s, l) = home(guards, ctx, g);
        let Some(msg) = s.core.nodes.air[l].as_ref() else {
            debug_assert!(false, "transmitter {g} has no message");
            continue;
        };
        monitor.on_transmit(g, slot, msg, &s.core.protocols()[l]);
    }
}

/// Replays `after_receive` (+ `on_decided`) for every delivered
/// listener, ascending node id.
fn replay_phase_deliver<P: RadioProtocol, M: InvariantMonitor<P>>(
    monitor: &mut M,
    slot: Slot,
    guards: &mut [MutexGuard<'_, Shard<'_, P>>],
    ctx: &Ctx<'_, P>,
) {
    let mut recv: Vec<(NodeId, P::Message)> = Vec::new();
    for s in guards.iter_mut() {
        recv.append(&mut s.rec.received);
    }
    recv.sort_by_key(|r| r.0);
    let decided = decided_in_phase(guards);
    for (g, msg) in &recv {
        let (s, l) = home(guards, ctx, *g);
        monitor.after_receive(*g, slot, msg, &s.core.protocols()[l]);
        if decided.binary_search(g).is_ok() {
            monitor.on_decided(*g, slot, &s.core.protocols()[l]);
        }
    }
}

/// Runs `protocols` on `graph` with the shards of `partition` stepped
/// in parallel — bit-identical to
/// `SimDriver::run::<Lockstep>` for error-free runs (see the module
/// docs for the argument, `tests/driver_identity.rs` for the pin).
///
/// Falls back to the sequential driver when the partition has a single
/// shard or the channel model is not shardable
/// ([`crate::channel::ChannelSpec::is_shardable`]).
///
/// # Panics
/// Panics if `wake.len()`, `protocols.len()` or `partition.len()`
/// differ from `graph.len()`.
pub fn run_sharded<P, M>(
    graph: &Graph,
    wake: &[Slot],
    protocols: Vec<P>,
    seed: u64,
    cfg: &SimConfig,
    monitor: &mut M,
    partition: &Partition,
) -> SimOutcome<P>
where
    P: RadioProtocol + Send,
    P::Message: Send,
    M: InvariantMonitor<P>,
{
    let n = graph.len();
    assert_eq!(wake.len(), n, "wake schedule length mismatch");
    assert_eq!(protocols.len(), n, "protocol vector length mismatch");
    assert_eq!(partition.len(), n, "partition length mismatch");
    let k = partition.shards();
    if k <= 1 || !cfg.channel.is_shardable() {
        // Not a silent degradation: scaling sweeps must be able to tell
        // that this run was sequential (the outcome's `executed` field
        // says so too; this line leaves a trace in the run log).
        let why = if k <= 1 {
            "partition has a single shard"
        } else {
            "channel model is not shardable"
        };
        eprintln!("radio-sim: sharded driver falling back to sequential ({why}; n={n}, k={k})");
        return SimDriver::run::<Lockstep>(graph, wake, protocols, (), seed, cfg, monitor);
    }

    // Global id → local index within the owning shard.
    let mut local_of = vec![0u32; n];
    for members in &partition.members {
        for (l, &g) in members.iter().enumerate() {
            local_of[g as usize] = l as u32;
        }
    }

    let shared = Shared {
        stop: AtomicBool::new(false),
        all_decided: AtomicBool::new(false),
    };
    let mailbox: Vec<Vec<Mailbox<P>>> = (0..k)
        .map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let ctx = Ctx {
        shard_of: &partition.shard_of,
        local_of: &local_of,
        shared: &shared,
        mailbox: &mailbox,
    };

    // Distribute the protocols to their shards without cloning.
    let monitored = !monitor.is_null();
    let mut pool: Vec<Option<P>> = protocols.into_iter().map(Some).collect();
    let cells: Vec<Mutex<Shard<'_, P>>> = partition
        .members
        .iter()
        .enumerate()
        .map(|(id, members)| {
            let protos: Vec<P> = members
                .iter()
                .filter_map(|&g| pool[g as usize].take())
                .collect();
            assert_eq!(
                protos.len(),
                members.len(),
                "partition covers each node once"
            );
            let view = ctx.view(id, members);
            let channel = cfg.channel.build(n, seed);
            Mutex::new(Shard {
                id,
                members: members.clone(),
                core: SlotCore::new(graph, wake, &view, protos, seed, channel).with_boundary(k),
                rec: Recorder {
                    on: monitored,
                    woken: Vec::new(),
                    fired: Vec::new(),
                    sent: Vec::new(),
                    received: Vec::new(),
                    decided: Vec::new(),
                },
            })
        })
        .collect();
    let barrier = SpinBarrier::new(k);

    let mut slots_run: Slot = 0;
    std::thread::scope(|scope| {
        for i in 1..k {
            let (ctx, cells, barrier) = (&ctx, &cells, &barrier);
            scope.spawn(move || worker_loop(i, cfg.max_slots, ctx, cells, barrier, monitored));
        }
        // Main thread: shard 0, plus every monitor call (replay windows
        // while the workers are parked between paired barriers).
        let mut slot: Slot = 0;
        while slot <= cfg.max_slots {
            slots_run = slot;
            {
                let mut s = cells[0].lock();
                s.phase_wakes_deadlines(slot, &ctx);
                if !monitored {
                    s.phase_tx(slot, &ctx);
                }
            }
            if monitored {
                barrier.wait(|| {});
                replay_phase_a(monitor, slot, &mut lock_all(&cells), &ctx);
                barrier.wait(|| {});
                cells[0].lock().phase_tx(slot, &ctx);
                barrier.wait(|| {});
                replay_phase_tx(monitor, slot, &mut lock_all(&cells), &ctx);
                barrier.wait(|| {});
                cells[0].lock().phase_deliver(slot, &ctx);
                barrier.wait(|| {});
                {
                    let mut guards = lock_all(&cells);
                    replay_phase_deliver(monitor, slot, &mut guards, &ctx);
                    evaluate(&guards, &shared);
                }
                barrier.wait(|| {});
            } else {
                barrier.wait(|| {});
                cells[0].lock().phase_deliver(slot, &ctx);
                barrier.wait(|| evaluate(&lock_all(&cells), &shared));
            }
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            cells[0].lock().core.compact();
            slot += 1;
        }
    });

    // Merge the shards back into global node order and run the shared
    // epilogue (canonical fault sort, violation collection). When
    // several shards erred, the smallest `(slot, node)` error wins.
    let mut faults: Vec<Event> = Vec::new();
    let mut faults_dropped: u64 = 0;
    let mut error: Option<ProtocolError> = None;
    let mut rows: Vec<(NodeId, P, NodeStats)> = Vec::with_capacity(n);
    for cell in cells {
        let Shard { members, core, .. } = cell.into_inner();
        faults_dropped += core.faults_dropped;
        faults.extend(core.faults);
        if let Some(e) = core.error {
            if error
                .as_ref()
                .is_none_or(|prev| (e.slot, e.node) < (prev.slot, prev.node))
            {
                error = Some(e);
            }
        }
        for ((g, p), st) in members
            .into_iter()
            .zip(core.nodes.protocols)
            .zip(core.nodes.stats)
        {
            rows.push((g, p, st));
        }
    }
    rows.sort_by_key(|r| r.0);
    faults.sort_by_key(|e| (e.slot(), e.node()));
    if faults.len() > MAX_FAULT_LOG {
        faults_dropped += (faults.len() - MAX_FAULT_LOG) as u64;
        faults.truncate(MAX_FAULT_LOG);
    }
    let violations = collect_violations::<P, M>(monitor, &mut faults, &mut faults_dropped);
    let (protocols, stats): (Vec<P>, Vec<NodeStats>) =
        rows.into_iter().map(|(_, p, st)| (p, st)).unzip();
    SimOutcome {
        protocols,
        stats,
        all_decided: shared.all_decided.load(Ordering::Relaxed) && error.is_none(),
        slots_run,
        error,
        faults,
        faults_dropped,
        violations,
        executed: ExecutedEngine::Sharded { shards: k as u32 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelSpec;
    use crate::monitor::{EngineOrderMonitor, NullMonitor};
    use crate::protocol::Behavior;
    use radio_graph::generators::gnp;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Exercises every phase: random-length transmit/silent segments
    /// switched by deadlines, receive-driven behavior changes, decision
    /// after enough traffic. All randomness flows through the per-node
    /// stream, so any drift between drivers desynchronizes everything.
    struct Hopper {
        id: u32,
        need: u64,
        got: u64,
        phases: u64,
    }

    impl Hopper {
        fn new(id: u32, need: u64) -> Self {
            Hopper {
                id,
                need,
                got: 0,
                phases: 0,
            }
        }
    }

    impl RadioProtocol for Hopper {
        type Message = u32;

        fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
            Behavior::Transmit {
                p: rng.gen_range(0.05..0.6),
                until: Some(now + rng.gen_range(1..6)),
            }
        }

        fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
            self.phases += 1;
            if self.phases.is_multiple_of(2) {
                Behavior::Transmit {
                    p: rng.gen_range(0.05..0.6),
                    until: Some(now + rng.gen_range(1..6)),
                }
            } else {
                Behavior::Silent {
                    until: Some(now + rng.gen_range(1..4)),
                }
            }
        }

        fn message(&mut self, _now: Slot, rng: &mut SmallRng) -> u32 {
            self.id ^ (rng.gen_range(0..16) << 8)
        }

        fn on_receive(&mut self, now: Slot, _msg: &u32, rng: &mut SmallRng) -> Option<Behavior> {
            self.got += 1;
            if self.got >= self.need {
                Some(Behavior::Silent { until: None })
            } else if rng.gen_bool(0.3) {
                Some(Behavior::Transmit {
                    p: rng.gen_range(0.05..0.6),
                    until: Some(now + rng.gen_range(1..6)),
                })
            } else {
                None
            }
        }

        fn is_decided(&self) -> bool {
            self.got >= self.need
        }
    }

    fn workload(n: usize, seed: u64) -> (Graph, Vec<Slot>, Vec<Hopper>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = gnp(n, 0.3, &mut rng);
        let wake: Vec<Slot> = (0..n).map(|_| rng.gen_range(0..12)).collect();
        let protos: Vec<Hopper> = (0..n as u32).map(|v| Hopper::new(v, 2)).collect();
        (g, wake, protos)
    }

    fn fresh(protos: &[Hopper]) -> Vec<Hopper> {
        protos.iter().map(|h| Hopper::new(h.id, h.need)).collect()
    }

    fn assert_identical(a: &SimOutcome<Hopper>, b: &SimOutcome<Hopper>, what: &str) {
        assert_eq!(a.stats, b.stats, "{what}: stats");
        assert_eq!(a.all_decided, b.all_decided, "{what}: all_decided");
        assert_eq!(a.slots_run, b.slots_run, "{what}: slots_run");
        assert_eq!(a.error, b.error, "{what}: error");
        assert_eq!(a.faults, b.faults, "{what}: faults");
        assert_eq!(a.faults_dropped, b.faults_dropped, "{what}: faults_dropped");
        assert_eq!(a.violations, b.violations, "{what}: violations");
    }

    #[test]
    fn matches_sequential_across_shards_and_channels() {
        let channels = [
            ChannelSpec::Ideal,
            ChannelSpec::ProbabilisticLoss { p: 0.25 },
            ChannelSpec::GilbertElliott {
                p_bad: 0.05,
                p_good: 0.15,
                loss_good: 0.02,
                loss_bad: 0.9,
            },
        ];
        for n in [1usize, 2, 5, 17, 48] {
            let (g, wake, protos) = workload(n, 0x5AADED ^ n as u64);
            for (ci, channel) in channels.iter().enumerate() {
                let cfg = SimConfig::with_max_slots(3_000).with_channel(*channel);
                let seq = SimDriver::run::<Lockstep>(
                    &g,
                    &wake,
                    fresh(&protos),
                    (),
                    7 + ci as u64,
                    &cfg,
                    &mut NullMonitor,
                );
                for k in [2usize, 3, 8] {
                    let part = Partition::contiguous(n, k);
                    let shd = run_sharded(
                        &g,
                        &wake,
                        fresh(&protos),
                        7 + ci as u64,
                        &cfg,
                        &mut NullMonitor,
                        &part,
                    );
                    assert_identical(&seq, &shd, &format!("n={n} ch={ci} k={k}"));
                    let expect = if part.shards() <= 1 {
                        ExecutedEngine::Sequential
                    } else {
                        ExecutedEngine::Sharded {
                            shards: part.shards() as u32,
                        }
                    };
                    assert_eq!(shd.executed, expect, "n={n} ch={ci} k={k}: executed");
                    assert_eq!(seq.executed, ExecutedEngine::Sequential);
                }
            }
        }
    }

    #[test]
    fn matches_sequential_monitored() {
        for n in [5usize, 23] {
            let (g, wake, protos) = workload(n, 0xC0FFEE ^ n as u64);
            let cfg = SimConfig::with_max_slots(3_000)
                .with_channel(ChannelSpec::ProbabilisticLoss { p: 0.2 });
            let mut seq_mon = EngineOrderMonitor::new();
            let seq =
                SimDriver::run::<Lockstep>(&g, &wake, fresh(&protos), (), 11, &cfg, &mut seq_mon);
            for k in [2usize, 4] {
                let part = Partition::contiguous(n, k);
                let mut mon = EngineOrderMonitor::new();
                let shd = run_sharded(&g, &wake, fresh(&protos), 11, &cfg, &mut mon, &part);
                assert_identical(&seq, &shd, &format!("monitored n={n} k={k}"));
            }
        }
    }

    #[test]
    fn unshardable_channel_falls_back_to_sequential() {
        let (g, wake, protos) = workload(9, 0xBAD);
        let cfg = SimConfig::with_max_slots(500).with_channel(ChannelSpec::AdversarialJam {
            window: 16,
            budget: 2,
        });
        let seq =
            SimDriver::run::<Lockstep>(&g, &wake, fresh(&protos), (), 3, &cfg, &mut NullMonitor);
        let shd = run_sharded(
            &g,
            &wake,
            fresh(&protos),
            3,
            &cfg,
            &mut NullMonitor,
            &Partition::contiguous(9, 4),
        );
        assert_identical(&seq, &shd, "adversarial fallback");
        // The fallback must be visible to callers, not silent.
        assert_eq!(shd.executed, ExecutedEngine::Sequential);
        assert!(!shd.executed.is_parallel());
    }

    #[test]
    fn single_shard_and_empty_graph_take_the_sequential_path() {
        let (g, wake, protos) = workload(6, 0x0411);
        let cfg = SimConfig::with_max_slots(500);
        let seq =
            SimDriver::run::<Lockstep>(&g, &wake, fresh(&protos), (), 5, &cfg, &mut NullMonitor);
        let shd = run_sharded(
            &g,
            &wake,
            fresh(&protos),
            5,
            &cfg,
            &mut NullMonitor,
            &Partition::contiguous(6, 1),
        );
        assert_identical(&seq, &shd, "k=1");
        assert_eq!(shd.executed, ExecutedEngine::Sequential);

        let empty = Graph::empty(0);
        let out = run_sharded::<Hopper, _>(
            &empty,
            &[],
            vec![],
            1,
            &cfg,
            &mut NullMonitor,
            &Partition::contiguous(0, 4),
        );
        assert!(out.all_decided);
        assert_eq!(out.slots_run, 0);
    }

    /// Node 3 returns an out-of-range probability on wake: the run must
    /// stop gracefully with the error surfaced, never panic or hang.
    struct BadApple {
        id: u32,
    }

    impl RadioProtocol for BadApple {
        type Message = ();

        fn on_wake(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
            Behavior::Transmit {
                p: if self.id == 3 { 2.0 } else { 0.5 },
                until: None,
            }
        }

        fn on_deadline(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
            Behavior::Silent { until: None }
        }

        fn message(&mut self, _now: Slot, _rng: &mut SmallRng) {}

        fn on_receive(&mut self, _now: Slot, _msg: &(), _rng: &mut SmallRng) -> Option<Behavior> {
            None
        }

        fn is_decided(&self) -> bool {
            false
        }
    }

    #[test]
    fn protocol_error_stops_the_parallel_run() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = gnp(12, 0.4, &mut rng);
        let wake = vec![0; 12];
        let protos: Vec<BadApple> = (0..12).map(|id| BadApple { id }).collect();
        let out = run_sharded(
            &g,
            &wake,
            protos,
            2,
            &SimConfig::with_max_slots(100),
            &mut NullMonitor,
            &Partition::contiguous(12, 4),
        );
        assert!(!out.all_decided);
        let err = out.error.expect("error must surface");
        assert_eq!(err.node, 3);
        assert_eq!(err.slot, 0);
    }
}
