//! What one benchmark run reports: the metric catalogue, the result
//! line, and the order statistics the metrics are built from.

use std::collections::BTreeMap;
use urn_coloring::json::{self, Value};

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("time_to_coloring_s", "s"),
    ("node_slots_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
    ("req_per_s", "1/s"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// a workload does not exercise reports 0 (see `perfbench/README.md`).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("graph.udg_build_s", "s"),
    ("graph.kappa_s", "s"),
    ("graph.partition_s", "s"),
    ("graph.boundary_nodes", "count"),
    ("sim.slots", "count"),
    ("sim.node_slots", "count"),
    ("sim.transmissions", "count"),
    ("sim.deliveries", "count"),
    ("sim.collisions", "count"),
    ("sim.delivery_ratio", "ratio"),
    ("sim.engine_self_s", "s"),
    ("sim.kernel_ns_per_tx", "ns"),
    ("sim.monitor_s", "s"),
    ("sim.monitor_ns_per_hook", "ns"),
    ("sim.shard_fsm_max_s", "s"),
    ("sim.shard_fsm_imbalance", "ratio"),
    ("core.fsm_calls", "count"),
    ("core.fsm_s", "s"),
    ("core.fsm_ns_per_call", "ns"),
    ("svc.settle_slots", "count"),
    ("svc.reprovisions", "count"),
    ("svc.resets", "count"),
    ("svc.transmissions", "count"),
    ("svc.deliveries", "count"),
    ("svc.collisions", "count"),
    ("svc.step_us_per_slot", "us"),
    ("svc.join_us_p50", "us"),
    ("svc.leave_us_p50", "us"),
    ("svc.heartbeat_us_p50", "us"),
    ("svc.snapshot_us_p50", "us"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_req", "bytes"),
    ("server.hb_rtt_us_p50", "us"),
    ("server.hb_rtt_us_p99", "us"),
    ("server.write_rtt_us_p50", "us"),
    ("server.write_rtt_us_p99", "us"),
    ("server.slots_per_s", "1/s"),
    ("proc.cpu_util", "ratio"),
    ("proc.trace_overhead", "ratio"),
];

/// Attempted and failed operations of one run, plus whether every
/// output check passed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (coloring runs, service calls, requests).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// `false` once any output check failed.
    pub wrong: bool,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one operation whose *output* is checked: a failure also
    /// marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.op(ok);
        if !ok {
            self.wrong = true;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// The result of one run: the tally, the metrics by name, and the
/// measured workload facts (n, Δ, κ₂, boundary nodes, sample counts).
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Attempted / failed operations.
    pub tally: Tally,
    /// Metric values by name; units come from the catalogues above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Measured facts about the inputs (one value per input graph),
    /// printed beside the result.
    pub info: BTreeMap<&'static str, Vec<f64>>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a fact about the inputs; repeated names collect one
    /// value per input.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.info.entry(name).or_default().push(value);
    }

    /// Fills every catalogue metric this workload does not exercise
    /// with 0, so the traced line always carries the full catalogue.
    pub fn zero_fill(&mut self, catalogue: &[(&'static str, &str)]) {
        for (name, _) in catalogue {
            self.metrics.entry(name).or_insert(0.0);
        }
    }

    /// `true` iff every run check held and no operation failed.
    pub fn correct(&self) -> bool {
        !self.tally.wrong && self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// Names that `catalogue` lists but this report lacks, then names
    /// the report has that `catalogue` does not list.
    pub fn catalogue_mismatch(&self, catalogue: &[(&str, &str)]) -> (Vec<String>, Vec<String>) {
        let missing = catalogue
            .iter()
            .filter(|(n, _)| !self.metrics.contains_key(n))
            .map(|(n, _)| n.to_string())
            .collect();
        let extra = self
            .metrics
            .keys()
            .filter(|k| !catalogue.iter().any(|(n, _)| n == *k))
            .map(|k| k.to_string())
            .collect();
        (missing, extra)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric `{"value": .., "unit": ..}`, in catalogue
    /// order. A non-finite value is reported as 0 and marks the run
    /// incorrect.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> String {
        let mut correct = self.correct();
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            let mut value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            if !value.is_finite() {
                eprintln!("perfbench: metric {name} is not a finite number");
                correct = false;
                value = 0.0;
            }
            metrics.push((
                name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(unit.to_string())),
                ]),
            ));
        }
        json::dump(&Value::Obj(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::Num(self.tally.attempted as f64)),
            ("failed".into(), Value::Num(self.tally.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ]))
    }

    /// The measured input facts as one JSON object (a number, or an
    /// array when several inputs were measured).
    pub fn info_json(&self) -> String {
        json::dump(&Value::Obj(
            self.info
                .iter()
                .map(|(k, vs)| {
                    let v = match vs.as_slice() {
                        [one] => Value::Num(*one),
                        _ => Value::Arr(vs.iter().map(|&x| Value::Num(x)).collect()),
                    };
                    (k.to_string(), v)
                })
                .collect(),
        ))
    }
}

/// Median of `xs` (mean of the two middle values for even lengths);
/// NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `xs`; NaN for an empty
/// slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Width of a [`LatencyHist`] bin, in nanoseconds.
const BIN_NS: u64 = 10;
/// Bins of a [`LatencyHist`]: 10 ns each up to 200 µs.
const BINS: usize = 20_000;

/// Latencies in nanoseconds, in 10 ns bins up to 200 µs and exact
/// above. Its memory is touched once when it is made and does not grow
/// with the sample count (apart from the rare slow sample), so a run's
/// peak RSS depends neither on how many requests fit in its time nor on
/// how their latencies spread.
#[derive(Clone, Debug)]
pub struct LatencyHist {
    bins: Vec<u32>,
    over: Vec<u64>,
    count: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        // Write every bin, so that all its pages are resident from the
        // start (a zeroed allocation is mapped lazily).
        let mut bins = vec![0; BINS];
        std::hint::black_box(&mut bins[..]).fill(0);
        LatencyHist {
            bins,
            over: Vec::new(),
            count: 0,
        }
    }
}

impl LatencyHist {
    /// Adds one latency.
    pub fn add(&mut self, ns: u64) {
        match self.bins.get_mut((ns / BIN_NS) as usize) {
            Some(b) => *b += 1,
            None => self.over.push(ns),
        }
        self.count += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.count += other.count;
    }

    /// Samples added.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// `true` when nothing was added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Nearest-rank percentile `q ∈ (0, 1]` in microseconds (a bin's
    /// midpoint below 200 µs); NaN when empty.
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return (i as u64 * BIN_NS) as f64 * 1e-3 + BIN_NS as f64 * 0.5e-3;
            }
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        over[(rank - seen - 1) as usize] as f64 * 1e-3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn latency_hist_percentiles() {
        let mut h = LatencyHist::default();
        assert!(h.percentile_us(0.5).is_nan());
        for ns in [1_000, 2_000, 3_000] {
            h.add(ns);
        }
        let mut slow = LatencyHist::default();
        slow.add(5_000_000);
        h.merge(&slow);
        assert_eq!(h.len(), 4);
        assert!((h.percentile_us(0.5) - 2.005).abs() < 1e-9);
        assert_eq!(h.percentile_us(0.99), 5_000.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.tally.op(true);
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.result_line(&END_TO_END);
        let v = json::parse(&line).expect("result line is JSON");
        let obj = v.as_obj("result").expect("object");
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"correct\":true"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
    }

    #[test]
    fn missing_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.tally.op(true);
        let line = r.result_line(&END_TO_END);
        assert!(line.contains("\"correct\":false"));
    }

    #[test]
    fn catalogue_names_are_unique_and_within_limits() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
        for (name, unit) in all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
