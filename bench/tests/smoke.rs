//! Smoke tests of the benchmark itself: every workload's spec, its pinned
//! digests at both seeds, the traced replay, and the metric names against
//! `BENCHMARK.json`.

use dlb_common::json::Json;
use dlb_core::scenario::ScenarioSpec;
use hierdb_bench::workload::{find, pass, work, DEFAULT_SEED, HELDOUT_SEED, WORKLOADS};
use hierdb_bench::{digest, pinned, run_timed, run_traced, trace, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_spec_parses_validates_and_runs_standalone() {
    for w in &WORKLOADS {
        let spec = w.spec(DEFAULT_SEED).unwrap();
        // The file is a plain scenario spec: it round-trips through the
        // scenario API's own JSON form.
        let again = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(again, spec, "{}", w.name);
        assert_ne!(
            w.spec(HELDOUT_SEED).unwrap(),
            spec,
            "{}: the seed reaches the generator",
            w.name
        );
    }
}

#[test]
fn one_pass_matches_its_pinned_digest_at_both_seeds() {
    for w in &WORKLOADS {
        let pins = pinned(w.name).unwrap();
        for seed in [DEFAULT_SEED, HELDOUT_SEED] {
            let pin = pins
                .iter()
                .find(|p| p.seed == seed)
                .unwrap_or_else(|| panic!("{}: no pin for seed {seed}", w.name));
            let report = pass(&w.spec(seed).unwrap()).unwrap();
            assert_eq!(
                digest::hex(digest::digest(&report)),
                digest::hex(pin.digest),
                "{} at seed {seed}",
                w.name
            );
            assert_eq!(work(&report), pin.work, "{}", w.name);
        }
    }
}

#[test]
fn the_traced_replay_equals_the_scenario_report() {
    for w in &WORKLOADS {
        let spec = w.spec(DEFAULT_SEED).unwrap();
        let traced = trace::trace(&spec, 0.0).unwrap();
        assert!(
            traced.mismatches.is_empty(),
            "{}: {:?}",
            w.name,
            traced.mismatches
        );
        let pin = pinned(w.name)
            .unwrap()
            .into_iter()
            .find(|p| p.seed == DEFAULT_SEED)
            .expect("a default-seed pin");
        for got in traced.digests {
            assert_eq!(got, pin.digest, "{}", w.name);
        }
        for (name, _) in PER_LAYER {
            assert!(
                traced.metrics.contains_key(name),
                "{}: {name} missing",
                w.name
            );
        }
    }
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    let doc = benchmark_json();
    let names: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name.to_string()));

    let printed = |out: hierdb_bench::Outcome| -> Vec<(String, String)> {
        assert!(out.correct);
        out.metrics.into_iter().map(|(n, _, u)| (n, u)).collect()
    };
    // The workload with the shortest pass.
    let quick = find("wide-node").unwrap();
    let timed = printed(run_timed(quick, DEFAULT_SEED, 0.0).unwrap());
    assert_eq!(timed, declared(&doc, "end_to_end"));
    let traced = printed(run_traced(quick, DEFAULT_SEED, 0.0).unwrap());
    assert_eq!(traced, declared(&doc, "per_layer"));
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(timed, pairs(&END_TO_END));
    assert_eq!(traced, pairs(&PER_LAYER));
}
