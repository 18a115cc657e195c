//! The benchmark binary end to end: the kill-switch guard, exact layer
//! accounting, counts that repeat exactly, and `BENCHMARK.json` naming
//! what the binary reports.

use std::collections::BTreeMap;
use std::process::{Command, Output};

#[path = "../src/metrics.rs"]
#[allow(dead_code)]
mod metrics;

use metrics::{Kind, END_TO_END, PER_LAYER};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// The metrics of the result line, by name.
fn metrics_of(line: &str) -> BTreeMap<String, f64> {
    let (_, body) = line.split_once("\"metrics\": {").expect("metrics object");
    body.split("}, ")
        .filter_map(|entry| {
            let (name, rest) = entry.trim_start().split_once("\": {\"value\": ")?;
            let value = rest.split(',').next()?;
            Some((name.trim_start_matches('"').to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// A one-second traced run; panics unless it reports correct.
fn traced(workload: &str, seed: u64) -> BTreeMap<String, f64> {
    let seed = seed.to_string();
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        line.starts_with("{\"correct\": true,"),
        "{workload}: {line}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    metrics_of(line)
}

fn counts(m: &BTreeMap<String, f64>) -> BTreeMap<&'static str, f64> {
    PER_LAYER
        .iter()
        .filter(|(_, _, kind)| *kind == Kind::Count)
        .map(|(name, _, _)| (*name, m[*name]))
        .collect()
}

#[test]
fn kill_switches_refuse_to_run() {
    for var in [
        "TRUST_VO_WIRE",
        "TRUST_VO_ADMISSION",
        "TRUST_VO_CRED_CACHE",
        "TRUST_VO_MAP_CACHE",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args("--workload lifecycle --seed 1 --seconds 1 --trace 0".split(' '))
            .env(var, "0")
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: no result line");
        assert!(String::from_utf8_lossy(&out.stderr).contains(var));
    }
}

#[test]
fn traced_runs_account_exactly_and_repeat_their_counts() {
    for (workload, seed_independent) in [
        ("formation_cold", true),
        ("tn_service", true),
        ("lifecycle", false),
    ] {
        let first = traced(workload, 3);
        for (name, _, _) in PER_LAYER {
            assert!(first.contains_key(name), "{workload} reports {name}");
        }
        assert_eq!(first["obs.dropped_records"], 0.0, "{workload}");
        // Layer self times plus the residual are the traced op time.
        let layers: f64 = [
            "vo.self_us_per_op",
            "negotiation.self_us_per_op",
            "soa.caller_self_us_per_op",
            "soa.bus_self_us_per_op",
            "admission.self_us_per_op",
            "soa.tn_self_us_per_op",
            "soa.tn_checkpoint_us_per_op",
            "netsim.transit_self_us_per_op",
            "journal.replay_us_per_op",
            "unattributed_us_per_op",
        ]
        .iter()
        .map(|name| first[*name])
        .sum();
        let op = first["obs.traced_op_us"];
        assert!(
            (layers - op).abs() <= 1e-6 * op,
            "{workload}: {layers} vs {op}"
        );

        let again = traced(workload, 3);
        assert_eq!(counts(&first), counts(&again), "{workload}: same seed");
        if seed_independent {
            let other = traced(workload, 4);
            assert_eq!(counts(&first), counts(&other), "{workload}: other seed");
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let listed = |section: &str| -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..json[start..].find(']').expect("list ends") + start];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let (name, rest) = entry.split_once('"').expect("name");
                let unit = rest
                    .split_once("\"unit\": \"")
                    .and_then(|(_, u)| u.split_once('"'))
                    .expect("unit")
                    .0;
                (name.to_owned(), unit.to_owned())
            })
            .collect()
    };
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let layer: Vec<_> = PER_LAYER
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    assert_eq!(listed("per_layer"), layer);
    for workload in ["formation_cold", "tn_service", "lifecycle"] {
        assert!(
            json.contains(&format!("{{\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
}
