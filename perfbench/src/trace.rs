//! The benchmark's own tracer: spans with parents for coarse
//! boundaries (set-up phases, coloring runs, step batches, TCP
//! requests), named counters and log2 latency histograms for per-call
//! boundaries. Everything stays in memory and is written out once, at
//! exit. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::time::Instant;
use urn_coloring::json::{self, Value};

/// Identifies a recorded span (its index in the span log).
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// A histogram over `ceil(log2(ns))` buckets.
#[derive(Clone, Debug)]
pub struct Log2Hist {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl Log2Hist {
    /// Adds one sample of `ns` nanoseconds.
    pub fn add(&mut self, ns: u64) {
        let b = (64 - ns.leading_zeros()) as usize;
        self.buckets[b.min(63)] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    fn to_json(&self) -> Value {
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        Value::Obj(vec![
            ("count".into(), Value::Num(self.count as f64)),
            ("sum_ns".into(), Value::Num(self.sum_ns as f64)),
            (
                "log2_buckets".into(),
                Value::Arr(
                    self.buckets[..last]
                        .iter()
                        .map(|&c| Value::Num(c as f64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The span/counter/histogram store of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Log2Hist>,
}

impl Tracer {
    /// A tracer; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`; `None` when disabled.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records a finished span that began at `start` and ends now.
    pub fn span_since(&mut self, name: &'static str, parent: Option<SpanId>, start: Instant) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Adds `by` to a named counter.
    pub fn count(&mut self, name: &'static str, by: u64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0) += by;
        }
    }

    /// Adds a latency sample to a named histogram.
    pub fn sample(&mut self, name: &'static str, ns: u64) {
        if self.enabled {
            self.hists.entry(name).or_default().add(ns);
        }
    }

    /// The whole trace as JSON: spans (with parent indices), counters,
    /// histograms, plus whatever `extra` entries the caller adds.
    pub fn to_json(&self, extra: Vec<(String, Value)>) -> String {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::Obj(vec![
                    ("id".into(), Value::Num(i as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::Num(s.start_ns as f64)),
                    ("end_ns".into(), Value::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let mut obj = extra;
        obj.push(("spans".into(), Value::Arr(spans)));
        obj.push((
            "counters".into(),
            Value::Obj(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
                    .collect(),
            ),
        ));
        obj.push((
            "histograms".into(),
            Value::Obj(
                self.hists
                    .iter()
                    .map(|(k, h)| (k.to_string(), h.to_json()))
                    .collect(),
            ),
        ));
        json::dump(&Value::Obj(obj))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("x", None);
        assert!(s.is_none());
        t.close(s);
        t.count("c", 3);
        t.sample("h", 10);
        assert!(t.spans.is_empty() && t.counters.is_empty() && t.hists.is_empty());
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new(true);
        let root = t.open("root", None);
        let child = t.open("child", root);
        t.close(child);
        t.close(root);
        t.count("c", 2);
        t.sample("h", 1000);
        let v = json::parse(&t.to_json(Vec::new())).expect("trace is JSON");
        let obj = v.as_obj("trace").expect("object");
        let spans = json::get(obj, "spans").unwrap().as_arr("spans").unwrap();
        assert_eq!(spans.len(), 2);
        let parent = json::get(spans[1].as_obj("span").unwrap(), "parent").unwrap();
        assert_eq!(parent, &Value::Num(0.0));
    }

    #[test]
    fn log2_buckets() {
        let mut h = Log2Hist::default();
        h.add(0);
        h.add(1);
        h.add(1024);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[11], 1);
        assert_eq!(h.count, 3);
    }
}
