//! A tiny-size pass over every workload: each metric `BENCHMARK.json` names is
//! printed with its unit, in both modes, and every gate holds.

use perfbench::{run, Plan, Scale, END_TO_END, PER_LAYER, WORKLOADS};

/// `(name, unit)` of every metric listed in `BENCHMARK.json`'s `section`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("closed string")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_metrics_the_code_prints() {
    assert_eq!(listed("end_to_end"), pairs(&END_TO_END));
    assert_eq!(listed("per_layer"), pairs(&PER_LAYER));
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    for workload in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{workload}\"")),
            "{workload} listed"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let plan = Plan {
        seed: 2015,
        seconds: 0.0,
        scale: Scale::Tiny,
    };
    for workload in WORKLOADS {
        for (traced, expected) in [(false, pairs(&END_TO_END)), (true, pairs(&PER_LAYER))] {
            let outcome = run(workload, &plan, traced).expect("known workload");
            assert!(outcome.correct(), "{workload}: {:?}", outcome.failures);
            assert!(outcome.attempted > 0, "{workload} verified something");
            let printed: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|&(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(printed, expected, "{workload} traced={traced}");
            let line = outcome.json();
            for (name, unit) in &expected {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": "))
                        && line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} [{unit}] in {line}"
                );
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert_eq!(outcome.spans.is_some(), traced);
            if !traced {
                for &(name, value, _) in &outcome.metrics {
                    assert!(value > 0.0, "{workload}: end-to-end {name} is never 0");
                }
            }
        }
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let plan = Plan {
        seed: 1,
        seconds: 0.0,
        scale: Scale::Tiny,
    };
    assert!(run("no-such-workload", &plan, false).is_err());
}
