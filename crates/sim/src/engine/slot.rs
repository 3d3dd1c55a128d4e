//! The slot core: the one implementation of the paper's slot rule
//! (Sect. 2).
//!
//! Every slot runs three phases over one shard of the node set:
//!
//! ```text
//!   phase_wakes_deadlines   wake-ups due this slot (ascending id), then
//!                           deadline firings over the active set
//!   phase_tx                one transmission decision per node in a
//!                           Transmit segment; each transmission scatters
//!                           into the DeliveryKernel (local listeners) or
//!                           the boundary staging buffers (remote ones)
//!   phase_deliver           the channel model decides every touched,
//!                           awake, non-transmitting listener — a message
//!                           is delivered iff exactly one neighbour
//!                           transmitted (under the ideal channel)
//! ```
//!
//! Every protocol callback goes through `NodeTable`, which writes the
//! per-node sequence once: callback → breach check →
//! [`Behavior::validate_at`] → install → monitor hook → decided
//! bookkeeping. Three callers run the phases:
//!
//! * [`Lockstep`](super::lockstep::Lockstep) at `k = 1` on the calling
//!   thread ([`Solo`] placement), calling the monitor directly;
//! * [`run_sharded`](super::sharded::run_sharded), one core per shard
//!   between barriers, recording monitor hooks for a main-thread
//!   replay;
//! * the model checker's `SlotStepper` (`urn-coloring`) at `k = 1`,
//!   with bitmasks in place of the coin flips: its transmit mask is
//!   the `draw` of [`SlotCore::phase_tx`], its drop mask a
//!   [`ChannelModel`].
//!
//! The event-driven engine reuses the per-node hooks and the delivery
//! step through [`SimDriver`](super::driver::SimDriver); only its slot
//! advance (a heap of events) is its own.

use super::{log_fault, NodeStats};
use crate::channel::{ChannelModel, Contention, Reception};
use crate::delivery::DeliveryKernel;
use crate::monitor::InvariantMonitor;
use crate::protocol::{Behavior, ProtocolError, RadioProtocol, Slot};
use crate::rng::node_rng;
use crate::trace::Event;
use radio_graph::bitset::BitSet;
use radio_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

/// Struct-of-arrays storage for per-node behavior segments.
///
/// Two [`BitSet`] words answer "woken?" and "transmitting?" for 64
/// nodes per load, and the `f64` probabilities / deadline slots are
/// dense arrays the sweeps walk linearly. [`BehaviorTable::get`] /
/// [`BehaviorTable::set`] round-trip [`Behavior`] values exactly (a
/// `has_deadline` bitset keeps `until: Some(Slot::MAX)` distinct from
/// `until: None`).
#[derive(Clone)]
pub(crate) struct BehaviorTable {
    /// Node has a behavior installed (woke up).
    present: BitSet,
    /// Node's current segment is `Transmit { .. }`.
    transmit: BitSet,
    /// Node's current segment carries a deadline (`until` is `Some`).
    has_deadline: BitSet,
    /// Transmission probability; meaningful iff the transmit bit is set.
    p: Vec<f64>,
    /// Segment deadline; meaningful iff the has_deadline bit is set.
    until: Vec<Slot>,
}

impl BehaviorTable {
    /// An empty table for `n` nodes (no behaviors installed).
    fn new(n: usize) -> Self {
        BehaviorTable {
            present: BitSet::new(n),
            transmit: BitSet::new(n),
            has_deadline: BitSet::new(n),
            p: vec![0.0; n],
            until: vec![0; n],
        }
    }

    /// Node `v`'s behavior (`None` before wake-up).
    #[inline]
    pub(crate) fn get(&self, v: u32) -> Option<Behavior> {
        let vi = v as usize;
        if !self.present.contains(vi) {
            return None;
        }
        let until = self.has_deadline.contains(vi).then(|| self.until[vi]);
        Some(if self.transmit.contains(vi) {
            Behavior::Transmit {
                p: self.p[vi],
                until,
            }
        } else {
            Behavior::Silent { until }
        })
    }

    /// Installs behavior `b` for node `v`.
    #[inline]
    fn set(&mut self, v: u32, b: Behavior) {
        let vi = v as usize;
        self.present.insert(vi);
        let until = match b {
            Behavior::Transmit { p, until } => {
                self.transmit.insert(vi);
                self.p[vi] = p;
                until
            }
            Behavior::Silent { until } => {
                self.transmit.remove(vi);
                until
            }
        };
        match until {
            Some(u) => {
                self.has_deadline.insert(vi);
                self.until[vi] = u;
            }
            None => self.has_deadline.remove(vi),
        }
    }

    /// Node `v`'s segment deadline, if present and set.
    #[inline]
    pub(crate) fn until(&self, v: u32) -> Option<Slot> {
        let vi = v as usize;
        (self.present.contains(vi) && self.has_deadline.contains(vi)).then(|| self.until[vi])
    }

    /// Transmission probability iff `v` is in a transmit segment.
    #[inline]
    pub(crate) fn tx_p(&self, v: u32) -> Option<f64> {
        let vi = v as usize;
        self.transmit.contains(vi).then(|| self.p[vi])
    }

    /// `true` iff `v` is installed as `Silent { until: None }`.
    #[inline]
    fn silent_forever(&self, v: u32) -> bool {
        let vi = v as usize;
        self.present.contains(vi) && !self.transmit.contains(vi) && !self.has_deadline.contains(vi)
    }
}

/// Per-node state of one shard, indexed by local node index, and the
/// one implementation of the per-node hook sequence.
///
/// Each stepping method takes the node's local index `l` and global id
/// `g`, fires the protocol callback, polls
/// [`RadioProtocol::take_breach`], validates and installs the returned
/// behavior, fires the matching [`InvariantMonitor`] hook and then the
/// decided bookkeeping (`on_decided` once, right after the hook that
/// caused it). A returned error means the run must stop.
#[derive(Clone)]
pub(crate) struct NodeTable<P: RadioProtocol> {
    pub(crate) protocols: Vec<P>,
    /// Private per-node streams `node_rng(seed, g)`.
    pub(crate) rngs: Vec<SmallRng>,
    pub(crate) behaviors: BehaviorTable,
    pub(crate) stats: Vec<NodeStats>,
    decided: BitSet,
    /// Nodes of this table that have not yet decided.
    pub(crate) undecided: usize,
    /// The message a node parked on the air: valid for the current slot
    /// iff the node transmitted in it, never cleared.
    pub(crate) air: Vec<Option<P::Message>>,
}

impl<P: RadioProtocol> NodeTable<P> {
    /// Node `l` wakes at `slot`: `on_wake`, then the shared install
    /// sequence with `after_wake`.
    #[inline]
    pub(crate) fn wake<M: InvariantMonitor<P>>(
        &mut self,
        l: u32,
        g: NodeId,
        slot: Slot,
        monitor: &mut M,
    ) -> Result<(), ProtocolError> {
        let li = l as usize;
        let b = self.protocols[li].on_wake(slot, &mut self.rngs[li]);
        self.install(l, g, slot, Some(b), monitor, |m, p| {
            m.after_wake(g, slot, p)
        })
        .map(drop)
    }

    /// Node `l`'s deadline fires at `slot`: `on_deadline`, then the
    /// shared install sequence with `after_deadline`.
    #[inline]
    pub(crate) fn deadline<M: InvariantMonitor<P>>(
        &mut self,
        l: u32,
        g: NodeId,
        slot: Slot,
        monitor: &mut M,
    ) -> Result<(), ProtocolError> {
        let li = l as usize;
        let b = self.protocols[li].on_deadline(slot, &mut self.rngs[li]);
        self.install(l, g, slot, Some(b), monitor, |m, p| {
            m.after_deadline(g, slot, p)
        })
        .map(drop)
    }

    /// Node `l` builds its message for `slot` and parks it on the air:
    /// `message`, breach check, `on_transmit`, `sent` counter.
    #[inline]
    pub(crate) fn compose<M: InvariantMonitor<P>>(
        &mut self,
        l: u32,
        g: NodeId,
        slot: Slot,
        monitor: &mut M,
    ) -> Result<(), ProtocolError> {
        let li = l as usize;
        let msg = self.protocols[li].message(slot, &mut self.rngs[li]);
        if let Some(fault) = self.protocols[li].take_breach() {
            return Err(ProtocolError {
                node: g,
                slot,
                fault,
            });
        }
        monitor.on_transmit(g, slot, &msg, &self.protocols[li]);
        self.stats[li].sent += 1;
        self.air[li] = Some(msg);
        Ok(())
    }

    /// Delivers `msg` to listener `l` at its local `slot`: `received`
    /// counter, `on_receive`, then the shared install sequence with
    /// `after_receive`. `Ok(true)` means a new behavior segment was
    /// installed.
    #[inline]
    pub(crate) fn receive<M: InvariantMonitor<P>>(
        &mut self,
        l: u32,
        g: NodeId,
        slot: Slot,
        msg: &P::Message,
        monitor: &mut M,
    ) -> Result<bool, ProtocolError> {
        let li = l as usize;
        self.stats[li].received += 1;
        let nb = self.protocols[li].on_receive(slot, msg, &mut self.rngs[li]);
        self.install(l, g, slot, nb, monitor, |m, p| {
            m.after_receive(g, slot, msg, p)
        })
    }

    /// The shared tail of every callback: breach check, validation,
    /// install, monitor `hook`, decided bookkeeping.
    #[inline]
    fn install<M: InvariantMonitor<P>>(
        &mut self,
        l: u32,
        g: NodeId,
        slot: Slot,
        b: Option<Behavior>,
        monitor: &mut M,
        hook: impl FnOnce(&mut M, &P),
    ) -> Result<bool, ProtocolError> {
        let li = l as usize;
        let checked = match self.protocols[li].take_breach() {
            Some(fault) => Err(fault),
            None => b.map_or(Ok(()), |b| b.validate_at(slot)),
        };
        checked.map_err(|fault| ProtocolError {
            node: g,
            slot,
            fault,
        })?;
        if let Some(b) = b {
            self.behaviors.set(l, b);
        }
        hook(monitor, &self.protocols[li]);
        if !self.decided.contains(li) && self.protocols[li].is_decided() {
            self.decided.insert(li);
            self.stats[li].decided_at = Some(slot);
            self.undecided -= 1;
            monitor.on_decided(g, slot, &self.protocols[li]);
        }
        Ok(b.is_some())
    }

    /// `true` when `l` has decided and is permanently silent: it draws
    /// no randomness, meets no deadline and never transmits again (it
    /// can still receive).
    #[inline]
    pub(crate) fn retired(&self, l: u32) -> bool {
        self.decided.contains(l as usize) && self.behaviors.silent_forever(l)
    }
}

/// Where a shard's nodes sit in the global id space.
pub trait Placement {
    /// Global id of local node `l`.
    fn global(&self, l: u32) -> NodeId;
    /// `Ok(local index)` if this shard owns global node `g`, otherwise
    /// `Err(owning shard)`.
    fn locate(&self, g: NodeId) -> Result<u32, usize>;

    /// Scatters a transmission of local node `l` (global id `g`) into
    /// `kernel`, handing each listener another shard owns to
    /// `remote(owning shard, listener)`.
    #[inline]
    fn scatter(
        &self,
        graph: &Graph,
        kernel: &mut DeliveryKernel,
        l: u32,
        g: NodeId,
        mut remote: impl FnMut(usize, NodeId),
    ) {
        kernel.mark_transmitter(l);
        for &u in graph.neighbors(g) {
            match self.locate(u) {
                Ok(lu) => {
                    kernel.add(lu, g);
                }
                Err(shard) => remote(shard, u),
            }
        }
    }
}

/// The whole node set in one shard: local index = global id.
#[derive(Clone, Copy, Debug, Default)]
pub struct Solo;

impl Placement for Solo {
    #[inline]
    fn global(&self, l: u32) -> NodeId {
        l
    }

    #[inline]
    fn locate(&self, g: NodeId) -> Result<u32, usize> {
        Ok(g)
    }

    #[inline]
    fn scatter(
        &self,
        graph: &Graph,
        kernel: &mut DeliveryKernel,
        _l: u32,
        g: NodeId,
        _remote: impl FnMut(usize, NodeId),
    ) {
        kernel.transmit(graph, g);
    }
}

/// The engines' transmission decision: one Bernoulli(`p`) draw from
/// the node's private stream.
#[inline]
pub(crate) fn coin_flip(_node: NodeId, rng: &mut SmallRng, p: f64) -> bool {
    rng.gen_bool(p)
}

/// One boundary delivery: `(listener, sender, message)`, global ids.
pub(crate) type Delivery<M> = (NodeId, NodeId, M);

/// One shard's slot state and the three phases of the slot rule (see
/// the module docs).
///
/// All per-node arrays are indexed by local node index; the
/// [`Placement`] passed to each phase maps them to global ids.
#[derive(Clone)]
pub struct SlotCore<'a, P: RadioProtocol, C> {
    graph: &'a Graph,
    wake: &'a [Slot],
    pub(crate) nodes: NodeTable<P>,
    channel: C,
    pub(crate) kernel: DeliveryKernel,
    /// Message of the slot's first remote contributor per local
    /// listener; read only when the unique winner is remote, in which
    /// case that sole contribution wrote it this slot. Empty at `k = 1`.
    pending: Vec<Option<P::Message>>,
    /// Local indices stable-sorted by wake slot (ties: ascending id).
    wake_order: Vec<u32>,
    next_wake: usize,
    /// Local indices needing per-slot attention: awake and not retired.
    active: Vec<u32>,
    in_active: Vec<bool>,
    /// Per-destination-shard boundary staging, flushed by the sharded
    /// driver once per slot. Empty at `k = 1`.
    pub(crate) outgoing: Vec<Vec<Delivery<P::Message>>>,
    /// Listeners that installed a new behavior in the last delivery
    /// step, in delivery order.
    pub(crate) changed: Vec<u32>,
    pub(crate) faults: Vec<Event>,
    pub(crate) faults_dropped: u64,
    /// The first protocol error; once set, every phase is a no-op.
    pub(crate) error: Option<ProtocolError>,
}

impl<'a, P: RadioProtocol, C: ChannelModel> SlotCore<'a, P, C> {
    /// A core at slot 0 with every node asleep. `protocols[l]` is the
    /// node with global id `place.global(l)`; its stream is
    /// `node_rng(seed, global id)`.
    pub fn new(
        graph: &'a Graph,
        wake: &'a [Slot],
        place: &impl Placement,
        protocols: Vec<P>,
        seed: u64,
        channel: C,
    ) -> Self {
        let m = protocols.len();
        let mut wake_order: Vec<u32> = (0..m as u32).collect();
        wake_order.sort_by_key(|&l| wake[place.global(l) as usize]);
        SlotCore {
            graph,
            wake,
            nodes: NodeTable {
                protocols,
                rngs: (0..m as u32)
                    .map(|l| node_rng(seed, place.global(l)))
                    .collect(),
                behaviors: BehaviorTable::new(m),
                stats: (0..m as u32)
                    .map(|l| NodeStats {
                        wake: wake[place.global(l) as usize],
                        ..NodeStats::default()
                    })
                    .collect(),
                decided: BitSet::new(m),
                undecided: m,
                air: std::iter::repeat_with(|| None).take(m).collect(),
            },
            channel,
            kernel: DeliveryKernel::new(m),
            pending: Vec::new(),
            wake_order,
            next_wake: 0,
            active: Vec::with_capacity(m),
            in_active: vec![false; m],
            outgoing: Vec::new(),
            changed: Vec::new(),
            faults: Vec::new(),
            faults_dropped: 0,
            error: None,
        }
    }

    /// Sizes the boundary buffers for a `k`-shard run.
    pub(crate) fn with_boundary(mut self, k: usize) -> Self {
        self.pending = std::iter::repeat_with(|| None)
            .take(self.wake_order.len())
            .collect();
        self.outgoing = (0..k).map(|_| Vec::new()).collect();
        self
    }

    /// The network graph.
    pub(crate) fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Per-node wake slots, by global id.
    pub(crate) fn wake(&self) -> &'a [Slot] {
        self.wake
    }

    /// Protocol states, by local index.
    pub fn protocols(&self) -> &[P] {
        &self.nodes.protocols
    }

    /// Local node `l`'s current behavior segment (`None` before
    /// wake-up).
    pub fn behavior(&self, l: u32) -> Option<Behavior> {
        self.nodes.behaviors.get(l)
    }

    /// The channel model, e.g. to set the next slot's drop mask.
    pub fn channel_mut(&mut self) -> &mut C {
        &mut self.channel
    }

    /// `true` once every node of this core woke and decided.
    pub fn done(&self) -> bool {
        self.nodes.undecided == 0 && self.next_wake == self.wake_order.len()
    }

    /// `true` once a protocol error stopped this core.
    pub(crate) fn halted(&self) -> bool {
        self.error.is_some()
    }

    /// Keeps the first protocol error of `r` (every later phase is then
    /// a no-op) and passes the success value on.
    #[inline]
    pub(crate) fn check<T>(&mut self, r: Result<T, ProtocolError>) -> Option<T> {
        r.map_err(|e| {
            self.error.get_or_insert(e);
        })
        .ok()
    }

    /// Wake-ups due at `slot` (wake order), then deadline firings over
    /// the active set.
    pub fn phase_wakes_deadlines<M: InvariantMonitor<P>>(
        &mut self,
        slot: Slot,
        place: &impl Placement,
        monitor: &mut M,
    ) {
        let SlotCore {
            wake,
            nodes,
            wake_order,
            next_wake,
            active,
            in_active,
            error,
            ..
        } = self;
        if error.is_some() {
            return;
        }
        while let Some(&l) = wake_order.get(*next_wake) {
            let g = place.global(l);
            if wake[g as usize] != slot {
                break;
            }
            *next_wake += 1;
            active.push(l);
            in_active[l as usize] = true;
            if let Err(e) = nodes.wake(l, g, slot, monitor) {
                error.get_or_insert(e);
                return;
            }
        }
        for &l in active.iter() {
            if nodes.behaviors.until(l) != Some(slot) {
                continue;
            }
            let g = place.global(l);
            if let Err(e) = nodes.deadline(l, g, slot, monitor) {
                error.get_or_insert(e);
                return;
            }
        }
    }

    /// One transmission decision per active node in a `Transmit { p, ..
    /// }` segment — `draw(global id, node stream, p)`, a Bernoulli(`p`)
    /// draw from the node's stream for the engines — and the scatter of
    /// every transmission.
    pub fn phase_tx<M: InvariantMonitor<P>>(
        &mut self,
        slot: Slot,
        place: &impl Placement,
        mut draw: impl FnMut(NodeId, &mut SmallRng, f64) -> bool,
        monitor: &mut M,
    ) {
        if self.halted() {
            return;
        }
        self.kernel.begin_slot();
        // Taken out for the loop so its buffer stays in registers while
        // `transmit` borrows the core; phases never change the active
        // set here.
        let active = std::mem::take(&mut self.active);
        for &l in &active {
            let Some(p) = self.nodes.behaviors.tx_p(l) else {
                continue;
            };
            let g = place.global(l);
            if draw(g, &mut self.nodes.rngs[l as usize], p)
                && !self.transmit(l, g, slot, place, monitor)
            {
                break;
            }
        }
        self.active = active;
    }

    /// Composes local node `l`'s message and scatters it: local
    /// listeners into the kernel, awake remote ones into the boundary
    /// staging buffers. `false` on a protocol error.
    #[inline]
    pub(crate) fn transmit<M: InvariantMonitor<P>>(
        &mut self,
        l: u32,
        g: NodeId,
        slot: Slot,
        place: &impl Placement,
        monitor: &mut M,
    ) -> bool {
        let composed = self.nodes.compose(l, g, slot, monitor);
        if self.check(composed).is_none() {
            return false;
        }
        let SlotCore {
            graph,
            wake,
            nodes,
            kernel,
            outgoing,
            ..
        } = self;
        let msg = &nodes.air[l as usize];
        place.scatter(graph, kernel, l, g, |shard, u| {
            // Sleeping remote listeners receive nothing and record no
            // collisions; skipping them sheds boundary traffic without
            // changing any outcome.
            if wake[u as usize] <= slot {
                if let Some(msg) = msg {
                    outgoing[shard].push((u, g, msg.clone()));
                }
            }
        });
        true
    }

    /// Accumulates one boundary delivery from remote `sender` at local
    /// listener `lu`, keeping the message of the first contribution.
    #[inline]
    pub(crate) fn accept(&mut self, lu: u32, sender: NodeId, msg: P::Message) {
        if self.kernel.add(lu, sender) {
            self.pending[lu as usize] = Some(msg);
        }
    }

    /// The delivery step, then re-activation of retired listeners that
    /// picked up a new behavior segment.
    pub fn phase_deliver<M: InvariantMonitor<P>>(
        &mut self,
        slot: Slot,
        place: &impl Placement,
        monitor: &mut M,
    ) {
        if self.halted() || !self.deliver(slot, place, monitor) {
            return;
        }
        for l in self.changed.drain(..) {
            if !self.in_active[l as usize] {
                self.in_active[l as usize] = true;
                self.active.push(l);
            }
        }
    }

    /// The delivery step: the channel decides every touched, awake,
    /// non-transmitting listener; deliveries fire `on_receive`, and
    /// listeners that installed a new segment are queued in `changed`.
    /// `false` on a protocol error.
    #[inline]
    pub(crate) fn deliver<M: InvariantMonitor<P>>(
        &mut self,
        slot: Slot,
        place: &impl Placement,
        monitor: &mut M,
    ) -> bool {
        let SlotCore {
            wake,
            nodes,
            channel,
            kernel,
            pending,
            changed,
            faults,
            faults_dropped,
            error,
            ..
        } = self;
        for &lu in kernel.touched() {
            if kernel.is_transmitter(lu) {
                continue; // transmitting itself: cannot receive
            }
            let g = place.global(lu);
            if wake[g as usize] > slot {
                continue; // still asleep
            }
            let c = Contention {
                listener: g,
                slot,
                transmitters: kernel.tx_count(lu),
                winner: kernel.unique_sender(lu),
            };
            let stats = &mut nodes.stats[lu as usize];
            let Some(w) = resolve(channel, stats, faults, faults_dropped, &c) else {
                continue;
            };
            let msg = match place.locate(w) {
                Ok(lw) => nodes.air[lw as usize].clone(),
                Err(_) => pending[lu as usize].take(),
            };
            // The kernel only reports transmitters, and every one parked
            // its message this slot; a missing one would be an engine
            // defect, so skip the delivery rather than panic.
            let Some(msg) = msg else {
                debug_assert!(false, "winner {w} has no message at listener {g}");
                continue;
            };
            match nodes.receive(lu, g, slot, &msg, monitor) {
                Ok(true) => changed.push(lu),
                Ok(false) => {}
                Err(e) => {
                    error.get_or_insert(e);
                    return false;
                }
            }
        }
        true
    }

    /// Lets the channel model decide contention `c` at local listener
    /// `l` (see [`resolve`]).
    #[inline]
    pub(crate) fn resolve(&mut self, l: u32, c: &Contention) -> Option<NodeId> {
        let stats = &mut self.nodes.stats[l as usize];
        resolve(
            &mut self.channel,
            stats,
            &mut self.faults,
            &mut self.faults_dropped,
            c,
        )
    }

    /// End-of-slot compaction: drops retired nodes from the active set
    /// (they draw no randomness and never transmit, so removal cannot
    /// change an outcome).
    pub fn compact(&mut self) {
        if self.halted() {
            return;
        }
        let nodes = &self.nodes;
        let in_active = &mut self.in_active;
        self.active.retain(|&l| {
            let keep = !nodes.retired(l);
            in_active[l as usize] = keep;
            keep
        });
    }
}

/// Lets `channel` decide contention `c`. On [`Reception::Deliver`]
/// returns the winner; Collide / Drop / Jam are absorbed into the
/// listener's `stats` and the bounded fault log.
#[inline]
fn resolve(
    channel: &mut impl ChannelModel,
    stats: &mut NodeStats,
    faults: &mut Vec<Event>,
    faults_dropped: &mut u64,
    c: &Contention,
) -> Option<NodeId> {
    let event = match channel.decide(c) {
        Reception::Deliver(w) => return Some(w),
        Reception::Collide => {
            stats.collisions += 1;
            return None;
        }
        Reception::Drop => {
            stats.drops += 1;
            Event::Drop {
                node: c.listener,
                slot: c.slot,
            }
        }
        Reception::Jam => {
            stats.jams += 1;
            Event::Jam {
                node: c.listener,
                slot: c.slot,
            }
        }
    };
    log_fault(faults, faults_dropped, event);
    None
}
