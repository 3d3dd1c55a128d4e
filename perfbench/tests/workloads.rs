//! Tiny-input versions of every workload: each must finish with a
//! valid coloring, report every catalogue metric with its unit, and
//! (traced) reproduce its untraced run.

use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::{run, Opts, Scale, Workload};
use urn_coloring::json;

const SEED: u64 = 3;

fn run_tiny(workload: Workload, trace: bool) -> (Report, Tracer) {
    let opts = Opts {
        seed: SEED,
        seconds: 0.01,
        trace,
    };
    let mut tracer = Tracer::new(trace);
    let report = run(workload, Scale::Tiny, &opts, &mut tracer);
    (report, tracer)
}

/// Runs `workload` untraced and traced and checks both reports;
/// `exercised` lists the per-layer metrics that must be nonzero.
fn check(workload: Workload, exercised: &[&str]) {
    let (plain, _) = run_tiny(workload, false);
    assert!(plain.correct(), "{workload:?} untraced: {:?}", plain.tally);
    assert_eq!(plain.tally.failed, 0);
    let (missing, extra) = plain.catalogue_mismatch(&END_TO_END);
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{missing:?} {extra:?}"
    );
    for (name, _) in END_TO_END {
        let v = plain.metrics[name];
        assert!(v.is_finite() && v > 0.0, "{workload:?}: {name} = {v}");
    }
    let line = plain.result_line(&END_TO_END);
    let parsed = json::parse(&line).expect("result line is JSON");
    let metrics = json::get(parsed.as_obj("result").unwrap(), "metrics").unwrap();
    for (name, unit) in END_TO_END {
        let m = json::get(metrics.as_obj("metrics").unwrap(), name).unwrap();
        let u = json::get(m.as_obj("metric").unwrap(), "unit").unwrap();
        assert_eq!(u.as_str("unit").unwrap(), unit);
    }
    for key in ["n", "delta", "kappa2", "graph.boundary_nodes"] {
        assert!(plain.info.contains_key(key), "{workload:?} records {key}");
    }

    let (traced, tracer) = run_tiny(workload, true);
    assert!(
        traced.correct(),
        "{workload:?} traced (includes the traced-equals-untraced check): {:?}",
        traced.tally
    );
    let (missing, extra) = traced.catalogue_mismatch(&PER_LAYER);
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{missing:?} {extra:?}"
    );
    for name in exercised {
        let v = traced.metrics[name];
        assert!(v.is_finite() && v > 0.0, "{workload:?}: {name} = {v}");
    }
    assert!(traced.result_line(&PER_LAYER).contains("\"correct\":true"));
    let trace = json::parse(&tracer.to_json(Vec::new())).expect("trace is JSON");
    let spans = json::get(trace.as_obj("trace").unwrap(), "spans").unwrap();
    assert!(
        !spans.as_arr("spans").unwrap().is_empty(),
        "{workload:?} records spans"
    );
}

const SIM_LAYERS: [&str; 14] = [
    "graph.udg_build_s",
    "graph.kappa_s",
    "sim.slots",
    "sim.node_slots",
    "sim.transmissions",
    "sim.deliveries",
    "sim.delivery_ratio",
    "sim.kernel_ns_per_tx",
    "sim.shard_fsm_max_s",
    "sim.shard_fsm_imbalance",
    "core.fsm_calls",
    "core.fsm_s",
    "core.fsm_ns_per_call",
    "proc.trace_overhead",
];

#[test]
fn udg_event_monitored_tiny() {
    let mut exercised = SIM_LAYERS.to_vec();
    exercised.extend([
        "sim.monitor_s",
        "sim.monitor_ns_per_hook",
        "graph.partition_s",
        "graph.boundary_nodes",
    ]);
    check(Workload::UdgEventMonitored, &exercised);
}

#[test]
fn udg_sharded_k2_tiny() {
    let mut exercised = SIM_LAYERS.to_vec();
    exercised.extend(["graph.partition_s", "graph.boundary_nodes"]);
    check(Workload::UdgShardedK2, &exercised);
}

/// Layers both `colord` workloads report.
const COLORD_LAYERS: [&str; 9] = [
    "graph.udg_build_s",
    "svc.settle_slots",
    "svc.transmissions",
    "svc.deliveries",
    "wire.encode_ns",
    "wire.decode_ns",
    "wire.bytes_per_req",
    "proc.cpu_util",
    "proc.trace_overhead",
];

#[test]
fn colord_churn_k2_tiny() {
    let mut exercised = COLORD_LAYERS.to_vec();
    exercised.extend([
        "svc.step_us_per_slot",
        "svc.join_us_p50",
        "svc.leave_us_p50",
        "svc.heartbeat_us_p50",
        "svc.snapshot_us_p50",
    ]);
    check(Workload::ColordChurnK2, &exercised);
}

#[test]
fn colord_tcp_mixed_tiny() {
    let mut exercised = COLORD_LAYERS.to_vec();
    exercised.extend([
        "server.hb_rtt_us_p50",
        "server.hb_rtt_us_p99",
        "server.write_rtt_us_p50",
        "server.write_rtt_us_p99",
        "server.slots_per_s",
    ]);
    check(Workload::ColordTcpMixed, &exercised);
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    assert_eq!(Workload::from_name("nope"), None);
}
