//! End-to-end wall-clock benchmark of the trust-vo workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <formation_cold|tn_service|lifecycle> --seed <u64> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off;
//! `--trace 1` prints the per-layer metrics of a traced run. A
//! human-readable report goes to standard error; the last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! See `README.md` beside this package for what each workload covers.

mod attrib;
mod host;
mod metrics;
mod run;
mod stats;
mod workload;
mod workloads;
mod wrap;

use std::process::ExitCode;

use run::RunReport;
use workload::Workload;
use workloads::formation_cold::FormationCold;
use workloads::lifecycle::Lifecycle;
use workloads::tn_service::TnServiceWorkload;

/// Runtime switches that bring back pre-feature code paths. The
/// benchmark measures the default build only, so it refuses to run
/// while any of them is set.
const KILL_SWITCHES: [&str; 4] = [
    "TRUST_VO_WIRE",
    "TRUST_VO_ADMISSION",
    "TRUST_VO_CRED_CACHE",
    "TRUST_VO_MAP_CACHE",
];

const WORKLOADS: [&str; 3] = ["formation_cold", "tn_service", "lifecycle"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run<W: Workload>(args: &Args) -> RunReport {
    if args.trace {
        run::traced::<W>(args.seed, args.seconds)
    } else {
        run::untraced::<W>(args.seed, args.seconds)
    }
}

/// The result line: every value printed with all its digits.
fn json(report: &RunReport) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, _)| {
            let unit = metrics::unit(name).expect("every reported metric is listed");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    if let Some(var) = KILL_SWITCHES.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "e2ebench: refusing to run: {var} is set; the benchmark measures the default \
             build with every kill switch unset"
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "formation_cold" => run::<FormationCold>(&args),
        "tn_service" => run::<TnServiceWorkload>(&args),
        _ => run::<Lifecycle>(&args),
    };
    eprintln!(
        "e2ebench {} seed {} ({}, {} s)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.seconds
    );
    for (name, value, samples) in &report.metrics {
        let unit = metrics::unit(name).unwrap_or("?");
        eprintln!("  {name:<42} {value:>14.4} {unit:<6} n={samples}");
    }
    for note in &report.notes {
        eprintln!("  {note}");
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload lifecycle --seed 7 --seconds 10 --trace 1").expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("lifecycle", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload lifecycle --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload lifecycle --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload lifecycle --seed 1 --seconds 1").is_err());
        assert!(args("--workload lifecycle --seed").is_err());
        assert!(args("--frobnicate 1").is_err());
    }
}
