//! `BENCHMARK.json` at the repository root and this crate agree: the
//! same workloads and the same metrics with the same units. Also keeps
//! the benchmark's sources free of hash-ordered collections, the
//! repository's determinism rule for scanned crates.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::Workload;
use std::path::Path;
use urn_coloring::json::{self, Value};

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("readable JSON file");
    json::parse(&text).expect("valid JSON")
}

fn manifest() -> Value {
    load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

fn entries<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    json::get(v.as_obj("manifest").unwrap(), key)
        .unwrap()
        .as_arr(key)
        .unwrap()
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    json::get(v.as_obj("entry").unwrap(), key)
        .unwrap()
        .as_str(key)
        .unwrap()
}

#[test]
fn manifest_lists_the_crates_workloads_and_metrics() {
    let m = manifest();
    let workloads: Vec<&str> = entries(&m, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    // Every workload, minus those `predictions.json` keeps out of
    // BENCHMARK.json (each with the reason).
    let predictions = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("predictions.json"));
    let kept_out: Vec<&str> = entries(&predictions, "not_in_benchmark_json")
        .iter()
        .map(|w| {
            assert!(!field(w, "dropped_because").is_empty());
            field(w, "workload")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .filter(|n| !kept_out.contains(n))
        .collect();
    assert_eq!(workloads, ours);
    for (key, catalogue) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str)> = entries(&m, key)
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect();
        assert_eq!(listed, catalogue, "{key}");
    }
}

#[test]
fn sources_use_no_hash_ordered_collections() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    for sub in ["src", "tests"] {
        for entry in std::fs::read_dir(dir.join(sub)).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            for banned in [concat!("Hash", "Map"), concat!("Hash", "Set")] {
                assert!(!text.contains(banned), "{} uses {banned}", path.display());
            }
        }
    }
}

#[test]
fn predictions_cover_every_layer_metric_on_real_workloads() {
    let p = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("predictions.json"));
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let mut covered = Vec::new();
    for row in entries(&p, "predictions") {
        let obj = row.as_obj("prediction").unwrap();
        for m in json::get(obj, "metrics")
            .unwrap()
            .as_arr("metrics")
            .unwrap()
        {
            covered.push(m.as_str("metric").unwrap());
        }
        for w in json::get(obj, "measured_on")
            .unwrap()
            .as_arr("measured_on")
            .unwrap()
        {
            assert!(names.contains(&w.as_str("workload").unwrap()), "{w:?}");
        }
    }
    for (name, _) in PER_LAYER {
        assert!(covered.contains(&name), "{name} has no prediction row");
    }
}
