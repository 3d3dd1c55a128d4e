//! The generic simulation driver: the run-level owner of everything
//! the engines share.
//!
//! [`SimDriver::run`] builds one [`SlotCore`] over the whole node set
//! (the [`Solo`] placement: local index = global id), hands it to an
//! [`Engine`] — a *slot-advance strategy* — and assembles the
//! [`SimOutcome`] epilogue. The core owns the per-node RNG streams,
//! behaviors, stats, decision bookkeeping, channel model, delivery
//! kernel and fault log; the driver adds the slot budget and the
//! [`InvariantMonitor`], which every hook calls directly:
//!
//! ```text
//!                SimDriver::run::<E, P, M>
//!                          │
//!                E::drive (slot advance)
//!        ┌─────────────────┼──────────────────────┐
//!    Lockstep          EventSkip               Jittered
//!   step_slot:      wake_up / fire_deadline   wake_up / fire_deadline
//!   the three       transmit + deliver_slot   compose / resolve / deliver
//!   core phases     (the core's delivery step) (half-slot overlap rule)
//!        └─────────────────┼──────────────────────┘
//!                          ▼
//!   NodeTable: callback → take_breach → validate_at → install
//!              → InvariantMonitor hook → on_decided
//!                          ▼
//!   ChannelModel::decide → NodeStats / fault log
//! ```
//!
//! The slot-parallel driver ([`super::sharded`]) runs the same core
//! phases per shard; `tests/driver_identity.rs` pins it bit-identical
//! to `SimDriver::run::<Lockstep>`.

use super::slot::{coin_flip, SlotCore, Solo};
use super::{collect_violations, ExecutedEngine, SimConfig, SimOutcome};
use crate::channel::{BuiltinChannel, Contention};
use crate::monitor::InvariantMonitor;
use crate::protocol::{Behavior, RadioProtocol, Slot};
use radio_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

/// What an [`Engine::drive`] implementation reports back to
/// [`SimDriver::run`] when the slot-advance loop ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// `true` if every node woke and decided before the slot budget ran
    /// out (the driver still vetoes this when a protocol error stopped
    /// the run).
    pub all_decided: bool,
    /// The highest slot processed.
    pub slots_run: Slot,
}

/// A slot-advance strategy: how simulated time moves forward.
///
/// Implementors are unit structs ([`Lockstep`](super::lockstep::Lockstep),
/// [`EventSkip`](super::event::EventSkip),
/// [`Jittered`](super::jittered::Jittered)) selected statically via
/// [`SimDriver::run`]; all protocol, channel, monitor and bookkeeping
/// semantics live in the driver, so an engine only decides *which node
/// acts at which slot* — never *what acting means*.
pub trait Engine {
    /// Extra per-run input the strategy needs beyond the common
    /// arguments: `()` for the aligned engines, the per-node phase bits
    /// for [`Jittered`](super::jittered::Jittered).
    type Aux<'a>: Copy;

    /// Advances the simulation to completion, calling back into the
    /// driver for every wake-up, deadline, transmission and delivery.
    fn drive<P: RadioProtocol, M: InvariantMonitor<P>>(
        driver: &mut SimDriver<'_, P, M>,
        aux: Self::Aux<'_>,
    ) -> Completion;
}

/// Shared simulation state and hook threading for all engines.
///
/// Constructed internally by [`SimDriver::run`]; engines receive
/// `&mut SimDriver` in [`Engine::drive`] and use the accessor and
/// stepping methods below. See the module docs for the hook stack.
pub struct SimDriver<'a, P: RadioProtocol, M: InvariantMonitor<P>> {
    max_slots: Slot,
    monitor: &'a mut M,
    core: SlotCore<'a, P, BuiltinChannel>,
}

impl<'a, P: RadioProtocol, M: InvariantMonitor<P>> SimDriver<'a, P, M> {
    /// Runs `protocols` on `graph` under slot-advance strategy `E`.
    ///
    /// The single code path behind every sequential run: it builds the
    /// slot core (RNG streams, channel model, stats, fault log), hands
    /// control to [`Engine::drive`], and assembles the [`SimOutcome`]
    /// epilogue (canonically sorted violations mirrored into the fault
    /// log).
    ///
    /// # Panics
    /// Panics if `wake.len()` or `protocols.len()` differ from
    /// `graph.len()` (and, for [`Jittered`](super::jittered::Jittered),
    /// if the phase vector length differs).
    pub fn run<E: Engine>(
        graph: &'a Graph,
        wake: &'a [Slot],
        protocols: Vec<P>,
        aux: E::Aux<'_>,
        seed: u64,
        cfg: &SimConfig,
        monitor: &'a mut M,
    ) -> SimOutcome<P> {
        let n = graph.len();
        assert_eq!(wake.len(), n, "wake schedule length mismatch");
        assert_eq!(protocols.len(), n, "protocol vector length mismatch");
        let mut driver = SimDriver {
            max_slots: cfg.max_slots,
            monitor,
            core: SlotCore::new(
                graph,
                wake,
                &Solo,
                protocols,
                seed,
                cfg.channel.build(n, seed),
            ),
        };
        let completion = E::drive(&mut driver, aux);
        driver.finish(completion)
    }

    // ---- read-only accessors -------------------------------------------

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.core.wake().len()
    }

    /// The network graph (untied from the driver borrow, so engines can
    /// hold it across mutating driver calls).
    #[inline]
    pub fn graph(&self) -> &'a Graph {
        self.core.graph()
    }

    /// Per-node wake slots, in each node's local slot count.
    #[inline]
    pub fn wake(&self) -> &'a [Slot] {
        self.core.wake()
    }

    /// The run's slot budget ([`SimConfig::max_slots`]).
    #[inline]
    pub fn max_slots(&self) -> Slot {
        self.max_slots
    }

    /// Node `v`'s current behavior segment (`None` before wake-up).
    #[inline]
    pub fn behavior(&self, v: NodeId) -> Option<Behavior> {
        self.core.behavior(v)
    }

    /// Node `v`'s current segment deadline, if any.
    #[inline]
    pub fn until(&self, v: NodeId) -> Option<Slot> {
        self.core.nodes.behaviors.until(v)
    }

    /// Number of nodes that have not yet decided.
    #[inline]
    pub fn undecided(&self) -> usize {
        self.core.nodes.undecided
    }

    /// Node `v`'s private RNG stream (for engine-side schedule draws
    /// such as geometric transmission skips).
    #[inline]
    pub fn rng(&mut self, v: NodeId) -> &mut SmallRng {
        &mut self.core.nodes.rngs[v as usize]
    }

    // ---- stepping methods ----------------------------------------------

    /// One lock-step slot: the three core phases, with Bernoulli
    /// transmission draws. Returns `false` once a protocol error stopped
    /// the run.
    #[inline]
    pub fn step_slot(&mut self, slot: Slot) -> bool {
        let (core, monitor) = (&mut self.core, &mut *self.monitor);
        core.phase_wakes_deadlines(slot, &Solo, monitor);
        core.phase_tx(slot, &Solo, coin_flip, monitor);
        core.phase_deliver(slot, &Solo, monitor);
        !core.halted()
    }

    /// `true` once every node woke and decided under
    /// [`step_slot`](Self::step_slot).
    #[inline]
    pub fn all_done(&self) -> bool {
        self.core.done()
    }

    /// End-of-slot compaction of the lock-step active set.
    #[inline]
    pub fn compact(&mut self) {
        self.core.compact();
    }

    /// Wakes node `v` at `slot`: `on_wake` and the shared install
    /// sequence. Returns `false` if the node misbehaved (the error is
    /// recorded and the engine must stop).
    #[inline]
    pub fn wake_up(&mut self, v: NodeId, slot: Slot) -> bool {
        let r = self.core.nodes.wake(v, v, slot, self.monitor);
        self.core.check(r).is_some()
    }

    /// Fires node `v`'s deadline at `slot`: `on_deadline` and the
    /// shared install sequence. Returns `false` if the node misbehaved.
    #[inline]
    pub fn fire_deadline(&mut self, v: NodeId, slot: Slot) -> bool {
        let r = self.core.nodes.deadline(v, v, slot, self.monitor);
        self.core.check(r).is_some()
    }

    /// One Bernoulli transmission draw for node `v`'s current segment:
    /// `true` iff `v` is in a `Transmit { p, .. }` segment and the draw
    /// with probability `p` succeeds. Draws nothing for silent nodes.
    #[inline]
    pub fn bernoulli_tx(&mut self, v: NodeId) -> bool {
        match self.core.nodes.behaviors.tx_p(v) {
            Some(p) => self.core.nodes.rngs[v as usize].gen_bool(p),
            None => false,
        }
    }

    /// Starts an aligned slot's delivery accumulation (event engine).
    #[inline]
    pub fn begin_slot(&mut self) {
        self.core.kernel.begin_slot();
    }

    /// Node `v` transmits at `slot` (event engine): composes its
    /// message (monitor `on_transmit`, `sent` counter) and scatters it
    /// into the delivery kernel. Returns `false` if the node misbehaved.
    #[inline]
    pub fn transmit(&mut self, v: NodeId, slot: Slot) -> bool {
        self.core.transmit(v, v, slot, &Solo, self.monitor)
    }

    /// The core's delivery step for `slot` (event engine): every
    /// listener touched since [`begin_slot`](Self::begin_slot) is
    /// decided by the channel model, and listeners that installed a
    /// new behavior segment are appended to `changed`. Returns `false`
    /// if a node misbehaved.
    #[inline]
    pub fn deliver_slot(&mut self, slot: Slot, changed: &mut Vec<NodeId>) -> bool {
        let ok = self.core.deliver(slot, &Solo, self.monitor);
        changed.append(&mut self.core.changed);
        ok
    }

    /// Builds node `v`'s message for `slot` (jittered engine) and fires
    /// the transmit-side hooks; the caller owns the returned message.
    /// `None` if the node misbehaved.
    #[inline]
    pub fn compose(&mut self, v: NodeId, slot: Slot) -> Option<P::Message> {
        let r = self.core.nodes.compose(v, v, slot, self.monitor);
        self.core.check(r)?;
        self.core.nodes.air[v as usize].clone()
    }

    /// Lets the channel model decide a contention (jittered engine). On
    /// [`Reception::Deliver`](crate::channel::Reception::Deliver)
    /// returns the winning transmitter; the other outcomes are absorbed
    /// into the listener's stats and the bounded fault log.
    #[inline]
    pub fn resolve(&mut self, c: &Contention) -> Option<NodeId> {
        self.core.resolve(c.listener, c)
    }

    /// Delivers `msg` to listener `u` at its local `slot` (jittered
    /// engine): `received` counter, `on_receive` and the shared install
    /// sequence. `Ok(true)` means the node installed a new behavior
    /// segment; `Err(())` means it misbehaved and the run must stop —
    /// the typed [`crate::ProtocolError`] is recorded on the driver and
    /// surfaces in [`SimOutcome::error`].
    #[inline]
    #[allow(clippy::result_unit_err)]
    pub fn deliver(&mut self, u: NodeId, slot: Slot, msg: &P::Message) -> Result<bool, ()> {
        let r = self.core.nodes.receive(u, u, slot, msg, self.monitor);
        self.core.check(r).ok_or(())
    }

    /// The engine epilogue: canonicalizes the channel-fault log, drains
    /// and sorts monitor violations, mirrors them into the fault log,
    /// and assembles the outcome.
    fn finish(self, completion: Completion) -> SimOutcome<P> {
        let SimDriver { monitor, core, .. } = self;
        let SlotCore {
            nodes,
            mut faults,
            mut faults_dropped,
            error,
            ..
        } = core;
        // Channel faults are logged in delivery-visit order, an
        // engine-internal detail. Sort them into the canonical
        // (slot, node) order — unique per fault, since a listener records
        // at most one Drop/Jam per slot — *before* the monitor's
        // violations are mirrored in, so outcomes compare across
        // execution strategies.
        faults.sort_by_key(|e| (e.slot(), e.node()));
        let violations = collect_violations::<P, M>(monitor, &mut faults, &mut faults_dropped);
        SimOutcome {
            protocols: nodes.protocols,
            stats: nodes.stats,
            all_decided: completion.all_decided && error.is_none(),
            slots_run: completion.slots_run,
            error,
            faults,
            faults_dropped,
            violations,
            executed: ExecutedEngine::Sequential,
        }
    }
}
