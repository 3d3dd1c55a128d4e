//! Timing wrappers and replays of the layers, used only by traced
//! runs. The wrappers are pure observers: they delegate every call unchanged,
//! so a traced run must reproduce the untraced run bit for bit (the
//! workloads check that it does).
//!
//! * [`TimedNode`] wraps a [`ColoringNode`]: per-node FSM call counts
//!   and nanoseconds, plus the slots at which the node transmitted. The
//!   counters are the node's own fields, so the sharded driver's
//!   threads never share them.
//! * [`TimedMonitor`] wraps an [`InvariantMonitor`] and times every
//!   hook.
//! * [`replay_kernel`] re-runs the logged transmissions through the
//!   delivery kernel and the ideal channel to time that layer alone.
//! * [`codec_replay`] re-encodes and re-decodes a logged `colord`
//!   request mix through the wire codec on in-memory buffers.

use crate::report::{median, Tally};
use colord::wire::{read_message, write_message};
use colord::{Request, Response};
use radio_graph::{Graph, NodeId};
use radio_sim::{
    Behavior, BehaviorFault, ChannelModel, ChannelSpec, DeliveryKernel, InvariantMonitor,
    RadioProtocol, Reception, Slot, Violation,
};
use rand::rngs::SmallRng;
use std::hint::black_box;
use std::time::Instant;
use urn_coloring::{
    AlgorithmParams, ColoringMsg, ColoringNode, ObservableColoring, ObservedState, ProtoId,
};

/// A [`ColoringNode`] whose FSM transitions are counted and timed.
#[derive(Clone, Debug)]
pub struct TimedNode {
    inner: ColoringNode,
    /// FSM transition calls (`on_wake`, `on_deadline`, `message`,
    /// `on_receive`).
    pub calls: u64,
    /// Nanoseconds spent inside those calls.
    pub ns: u64,
    /// Slot of every `message` call, i.e. every transmission.
    pub tx_slots: Vec<Slot>,
}

impl TimedNode {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: ColoringNode) -> Self {
        TimedNode {
            inner,
            calls: 0,
            ns: 0,
            tx_slots: Vec::new(),
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &ColoringNode {
        &self.inner
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut ColoringNode) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

impl RadioProtocol for TimedNode {
    type Message = ColoringMsg;

    fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        self.timed(|n| n.on_wake(now, rng))
    }

    fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        self.timed(|n| n.on_deadline(now, rng))
    }

    fn message(&mut self, now: Slot, rng: &mut SmallRng) -> ColoringMsg {
        self.tx_slots.push(now);
        self.timed(|n| n.message(now, rng))
    }

    fn on_receive(&mut self, now: Slot, msg: &ColoringMsg, rng: &mut SmallRng) -> Option<Behavior> {
        self.timed(|n| n.on_receive(now, msg, rng))
    }

    fn is_decided(&self) -> bool {
        self.inner.is_decided()
    }

    fn take_breach(&mut self) -> Option<BehaviorFault> {
        self.inner.take_breach()
    }
}

impl ObservableColoring for TimedNode {
    fn observe(&self, now: Slot) -> ObservedState {
        self.inner.observe(now)
    }

    fn proto_id(&self) -> ProtoId {
        self.inner.id()
    }

    fn observe_params(&self) -> &AlgorithmParams {
        self.inner.params()
    }
}

/// An [`InvariantMonitor`] whose hooks are counted and timed.
#[derive(Clone, Debug)]
pub struct TimedMonitor<M> {
    inner: M,
    /// Hook calls.
    pub hooks: u64,
    /// Nanoseconds spent inside the hooks.
    pub ns: u64,
}

impl<M> TimedMonitor<M> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: M) -> Self {
        TimedMonitor {
            inner,
            hooks: 0,
            ns: 0,
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut M) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.ns += start.elapsed().as_nanos() as u64;
        self.hooks += 1;
        out
    }
}

impl<P: RadioProtocol, M: InvariantMonitor<P>> InvariantMonitor<P> for TimedMonitor<M> {
    fn after_wake(&mut self, node: NodeId, slot: Slot, proto: &P) {
        self.timed(|m| m.after_wake(node, slot, proto));
    }

    fn after_deadline(&mut self, node: NodeId, slot: Slot, proto: &P) {
        self.timed(|m| m.after_deadline(node, slot, proto));
    }

    fn on_transmit(&mut self, node: NodeId, slot: Slot, msg: &P::Message, proto: &P) {
        self.timed(|m| m.on_transmit(node, slot, msg, proto));
    }

    fn after_receive(&mut self, node: NodeId, slot: Slot, msg: &P::Message, proto: &P) {
        self.timed(|m| m.after_receive(node, slot, msg, proto));
    }

    fn on_decided(&mut self, node: NodeId, slot: Slot, proto: &P) {
        self.timed(|m| m.on_decided(node, slot, proto));
    }

    fn take_violations(&mut self) -> Vec<Violation> {
        self.inner.take_violations()
    }

    fn is_null(&self) -> bool {
        self.inner.is_null()
    }
}

/// What [`replay_kernel`] measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelReplay {
    /// Transmissions replayed.
    pub transmissions: u64,
    /// Nanoseconds for the whole replay.
    pub ns: u64,
    /// Listener slots the ideal channel decided as deliveries.
    pub deliveries: u64,
    /// Listener slots the ideal channel decided as collisions.
    pub collisions: u64,
}

/// Replays the `(slot, transmitter)` log through [`DeliveryKernel`]
/// and the [`ChannelSpec::Ideal`] model — the aligned engines' delivery
/// step without the protocol or the engine around it. Every listener
/// next to a transmitter is decided, awake or not, so the delivery
/// counts are an upper bound on the engine's.
pub fn replay_kernel(graph: &Graph, log: &mut [(Slot, NodeId)]) -> KernelReplay {
    log.sort_unstable();
    let mut kernel = DeliveryKernel::new(graph.len());
    let mut channel = ChannelSpec::Ideal.build(graph.len(), 0);
    let mut out = KernelReplay {
        transmissions: log.len() as u64,
        ..KernelReplay::default()
    };
    let start = Instant::now();
    let mut i = 0;
    while i < log.len() {
        let slot = log[i].0;
        kernel.begin_slot();
        while i < log.len() && log[i].0 == slot {
            kernel.transmit(graph, log[i].1);
            i += 1;
        }
        for &u in kernel.touched() {
            if kernel.is_transmitter(u) {
                continue;
            }
            match channel.decide(&kernel.contention(u, slot)) {
                Reception::Deliver(_) => out.deliveries += 1,
                _ => out.collisions += 1,
            }
        }
    }
    black_box(&kernel);
    out.ns = start.elapsed().as_nanos() as u64;
    out
}

/// Per-request cost of the wire codec on a request mix.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecReplay {
    /// Nanoseconds to frame a request and its reply.
    pub encode_ns: f64,
    /// Nanoseconds to read both frames back.
    pub decode_ns: f64,
    /// Framed bytes of a request and its reply.
    pub bytes: f64,
}

/// Replays `mix` (requests with their replies) through
/// `write_message`/`read_message` on in-memory buffers, `passes`
/// times; the median pass, per request. Checks that every message
/// decodes to itself.
pub fn codec_replay(mix: &[(Request, Response)], passes: usize, tally: &mut Tally) -> CodecReplay {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    for _ in 0..passes {
        buf.clear();
        let t = Instant::now();
        for (rq, rs) in mix {
            let ok = write_message(&mut buf, rq).is_ok() && write_message(&mut buf, rs).is_ok();
            debug_assert!(ok, "writing to a Vec cannot fail");
        }
        enc.push(t.elapsed().as_nanos() as f64);

        let mut decoded: Vec<(Option<Request>, Option<Response>)> = Vec::with_capacity(mix.len());
        let mut cur: &[u8] = &buf;
        let t = Instant::now();
        for _ in mix {
            let rq = read_message::<Request>(&mut cur).ok().flatten();
            let rs = read_message::<Response>(&mut cur).ok().flatten();
            decoded.push((rq, rs));
        }
        dec.push(t.elapsed().as_nanos() as f64);
        let same = decoded
            .iter()
            .zip(mix)
            .all(|((a, b), (rq, rs))| a.as_ref() == Some(rq) && b.as_ref() == Some(rs));
        tally.check(same, "wire codec round-trips the request mix");
    }
    let per = mix.len().max(1) as f64;
    CodecReplay {
        encode_ns: median(&enc) / per,
        decode_ns: median(&dec) / per,
        bytes: buf.len() as f64 / per,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generators::special::{path, star};

    #[test]
    fn replay_counts_deliveries_and_collisions() {
        // Star with center 0: two leaves transmitting collide at the
        // center; one leaf alone is delivered to the center.
        let g = star(4);
        let mut log = vec![(1, 1), (1, 2), (2, 3)];
        let r = replay_kernel(&g, &mut log);
        assert_eq!(r.transmissions, 3);
        assert_eq!(r.collisions, 1);
        assert_eq!(r.deliveries, 1);
    }

    #[test]
    fn replay_skips_transmitting_listeners() {
        let g = path(2);
        let mut log = vec![(5, 0), (5, 1)];
        let r = replay_kernel(&g, &mut log);
        assert_eq!(r.deliveries + r.collisions, 0);
    }
}
