//! Engine → witness → stepper: the model checker's deterministic
//! stepper must reproduce a monitored lock-step run when fed that
//! run's own resolution of the nondeterminism.
//!
//! Each run records, per slot, which nodes transmitted (through the
//! monitor's `on_transmit` hook) and which singleton deliveries the
//! channel dropped (the outcome's `Event::Drop` fault log). That is
//! exactly a [`Witness`]; replaying it through [`step::replay`] must
//! end in the same per-node protocol states, with every node deciding
//! in the same slot and the invariant monitor reporting the same
//! violations (small lossy runs occasionally end in a w.h.p. conflict).

use radio_graph::generators::gnp;
use radio_graph::{Graph, NodeId};
use radio_sim::{
    sort_violations, ChannelSpec, EngineKind, Event, Fanout, InvariantMonitor, SimConfig, Slot,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use urn_coloring::step::{self, SlotChoice, Witness};
use urn_coloring::{AlgorithmParams, ColoringMonitor, ColoringMsg, ColoringNode, ProtoId};

/// Records the slot-indexed transmitter masks and the decide slots.
#[derive(Default)]
struct Log {
    tx: Vec<u64>,
    decided: Vec<Option<Slot>>,
}

impl InvariantMonitor<ColoringNode> for Log {
    fn on_transmit(&mut self, node: NodeId, slot: Slot, _msg: &ColoringMsg, _p: &ColoringNode) {
        let s = slot as usize;
        if self.tx.len() <= s {
            self.tx.resize(s + 1, 0);
        }
        self.tx[s] |= 1 << node;
    }

    fn on_decided(&mut self, node: NodeId, slot: Slot, _p: &ColoringNode) {
        let v = node as usize;
        if self.decided.len() <= v {
            self.decided.resize(v + 1, None);
        }
        self.decided[v] = Some(slot);
    }
}

fn nodes(n: usize, params: AlgorithmParams) -> Vec<ColoringNode> {
    (1..=n as ProtoId)
        .map(|id| ColoringNode::new(id, params))
        .collect()
}

/// One engine run and its stepper replay; panics on any divergence.
fn check(g: &Graph, wake: &[Slot], channel: ChannelSpec, seed: u64) {
    let n = g.len();
    let params = AlgorithmParams::practical(2, g.max_closed_degree().max(2), 64);
    let cfg = SimConfig::with_max_slots(200_000).with_channel(channel);
    let mut monitor = Fanout(ColoringMonitor::new(g), Log::default());
    let out =
        EngineKind::Lockstep.run_monitored(g, wake, nodes(n, params), seed, &cfg, &mut monitor);
    let label = format!("n={n} seed={seed} {channel:?}");
    assert!(out.all_decided, "{label}: engine run must finish");
    assert_eq!(out.faults_dropped, 0, "{label}: fault log complete");

    // The witness: one choice per slot the engine ran.
    let log = monitor.1;
    let mut schedule = vec![SlotChoice::default(); out.slots_run as usize + 1];
    for (s, &tx) in log.tx.iter().enumerate() {
        schedule[s].tx = tx;
    }
    for e in &out.faults {
        if let Event::Drop { node, slot } = *e {
            schedule[slot as usize].drop |= 1 << node;
        }
    }
    let witness = Witness { schedule };

    let mut replayed = Fanout(ColoringMonitor::new(g), Log::default());
    let mut stepper = step::SlotStepper::new(g, wake, nodes(n, params));
    for &choice in &witness.schedule {
        if stepper.step(choice, &mut replayed) {
            break;
        }
    }
    let mut violations = InvariantMonitor::<ColoringNode>::take_violations(&mut replayed);
    sort_violations(&mut violations);
    assert_eq!(violations, out.violations, "{label}: violations");
    assert!(stepper.all_decided(), "{label}: replay must finish");
    assert_eq!(stepper.slot(), out.slots_run + 1, "{label}: slots run");
    for v in 0..n {
        assert_eq!(
            format!("{:?}", stepper.nodes()[v]),
            format!("{:?}", out.protocols[v]),
            "{label}: node {v} end state"
        );
        assert_eq!(
            replayed.1.decided.get(v).copied().flatten(),
            out.stats[v].decided_at,
            "{label}: node {v} decide slot"
        );
    }
    // The `replay` helper agrees.
    assert!(step::replay(
        g,
        wake,
        nodes(n, params),
        &witness,
        &mut Log::default()
    ));
}

#[test]
fn lockstep_runs_replay_through_the_stepper() {
    let channels = [
        ChannelSpec::Ideal,
        ChannelSpec::ProbabilisticLoss { p: 0.25 },
    ];
    for seed in 0..24u64 {
        let mut setup = SmallRng::seed_from_u64(seed ^ 0x5_7E99);
        let n = setup.gen_range(1..=12);
        let g = gnp(n, 0.35, &mut setup);
        let wake: Vec<Slot> = (0..n).map(|_| setup.gen_range(0..30)).collect();
        for channel in channels {
            check(&g, &wake, channel, seed);
        }
    }
}
