//! Every metric `BENCHMARK.json` names is emitted, with its unit, by a
//! smoke-sized run of every workload; the layer map covers exactly the
//! per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;

use perfbench::{run, RunArgs, Workload};
use serde::Value;

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn list(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, found {other:?}"),
    }
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn metric_units(bench: &Value, key: &str) -> BTreeMap<String, String> {
    list(field(bench, key))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn every_named_metric_is_emitted_by_every_workload() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench = load(&dir.join("../BENCHMARK.json"));
    let layers = load(&dir.join("layers.json"));

    let workloads: Vec<&str> = list(field(&bench, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let end_to_end = metric_units(&bench, "end_to_end");
    let per_layer = metric_units(&bench, "per_layer");
    let Value::Object(map) = &layers else {
        panic!("layers.json is an object")
    };
    let mapped: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
    let named: Vec<&str> = list(field(&bench, "per_layer"))
        .iter()
        .map(|m| text(field(m, "name")))
        .collect();
    assert_eq!(
        mapped, named,
        "layers.json must map exactly the per-layer metrics"
    );
    for (name, entry) in map {
        for key in ["crate", "source", "moves"] {
            assert!(!text(field(entry, key)).is_empty(), "{name}: empty {key}");
        }
        for w in list(field(entry, "workloads")) {
            assert!(
                workloads.contains(&text(w)),
                "{name}: unknown workload {w:?}"
            );
        }
    }

    for workload in Workload::ALL {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let args = RunArgs {
                workload,
                seed: 3,
                seconds: 1.0,
                trace,
                smoke: true,
                out_dir: None,
            };
            let result = run(&args).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(result.correct, "{}: {:?}", workload.name(), result.notes);
            assert!(result.attempted > 0);
            let emitted: BTreeMap<String, String> = result
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(
                &emitted,
                expected,
                "{} trace={trace}: emitted metrics and units differ from BENCHMARK.json",
                workload.name()
            );
            for m in &result.metrics {
                assert!(
                    m.value.is_finite(),
                    "{}: {} = {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
        }
    }
}
