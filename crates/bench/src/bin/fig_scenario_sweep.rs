//! E16 — scenario DSL sweep: generated VO lifecycles under generated
//! fault plans, with every run checked against the four lifecycle
//! properties (DESIGN §8).
//!
//! The sweep generates `N` scenarios from `--seed` via
//! `trust-vo-scenario` (`--smoke`: 500, full: 2000), runs each one every
//! way it supports (serial, replay, parallel when order-independent),
//! and fails the process on the first property violation — after
//! shrinking it to a minimal scenario and printing the
//! `trustvo scenario repro` command line that reproduces it.
//!
//! A fixed *showcase* scenario (3 parties, depth-2 chains, 20 % loss, a
//! mid-formation crash window, a revocation storm, replacement churn,
//! ontology drift) then runs once more with the obs collector attached;
//! `--emit-obs` / `--emit-trace` write its dumps with wall-clock fields
//! scrubbed, so two same-seed runs are byte-identical — the ci chaos
//! gate diffs them. Any observed run also gates on the critical-path
//! analyzer attributing ≥ 95 % of the formation root's simulated time.
//!
//! `--canary` inverts the harness to prove it end-to-end: every scenario
//! is additionally required to FAIL formation, so a healthy seed
//! violates the canary property, the shrinker minimizes it, and the
//! process asserts the repro is tiny (≤ 3 parties, ≤ 2 fault clauses)
//! before printing it and exiting 0.

use trust_vo_bench::obsutil::{verify_attribution, ObsArgs};
use trust_vo_bench::report::Report;
use trust_vo_obs::Collector;
use trust_vo_scenario::run::{run_scenario, Mode};
use trust_vo_scenario::{check_scenario, fuzz, fuzz_with, Scenario, Storm, Window};
use trust_vo_soa::simclock::SimDuration;

const DEFAULT_SEED: u64 = 16;
/// Shrink budget: property checks the shrinker may spend minimizing one
/// failing scenario.
const SHRINK_BUDGET: usize = 400;

/// The fixed scenario whose obs stream the ci gate diffs: loss, a crash
/// window, a revocation storm, and ontology drift at once. The seed is
/// pinned (not `--seed`) because whether the crash window catches a call
/// in flight depends on the loss stream — this one is known to crash the
/// service mid-formation and recover. No churn: windows anchor to the
/// *clean* run's elapsed time, and a replacement renegotiation would
/// inflate that base until the window lands past formation. (The sweep
/// covers churn: ~40 % of generated scenarios carry it.)
const SHOWCASE_SEED: u64 = 17;

fn showcase() -> Scenario {
    Scenario {
        parties: 3,
        depth: 2,
        loss_pct: 20,
        drift: 2,
        storms: vec![Storm { revoke: 1 }],
        crashes: vec![Window {
            start_pct: 40,
            len_ms: 900,
        }],
        ..Scenario::minimal(SHOWCASE_SEED)
    }
}

/// `--canary` mode: require every scenario to fail formation, so the
/// first healthy seed trips the canary property and exercises the
/// shrinker on a real (deliberately injected) failure.
fn run_canary(seed: u64) {
    let report = fuzz_with(seed, 40, SHRINK_BUDGET, true);
    let shrunk = report.failure.unwrap_or_else(|| {
        eprintln!("canary never fired in 40 scenarios from seed {seed}");
        std::process::exit(1);
    });
    assert_eq!(shrunk.failure.property, "canary", "{}", shrunk.failure);
    assert!(
        shrunk.scenario.parties <= 3,
        "shrunk repro still has {} parties",
        shrunk.scenario.parties
    );
    assert!(
        shrunk.scenario.fault_clauses() <= 2,
        "shrunk repro still has {} fault clauses",
        shrunk.scenario.fault_clauses()
    );
    println!(
        "canary fired after {} scenario(s); shrunk in {} check run(s) to \
         {} party(ies), {} fault clause(s)",
        report.checked,
        shrunk.runs,
        shrunk.scenario.parties,
        shrunk.scenario.fault_clauses()
    );
    println!("repro: {}", shrunk.repro());
}

fn main() {
    let args = ObsArgs::from_env();
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    if std::env::args().any(|a| a == "--canary") {
        run_canary(seed);
        return;
    }
    let count = if args.smoke { 500 } else { 2_000 };

    let sweep = fuzz(seed, count, SHRINK_BUDGET);
    if let Some(shrunk) = &sweep.failure {
        eprintln!("property violation: {}", shrunk.failure);
        eprintln!("shrunk ({} check runs): {:?}", shrunk.runs, shrunk.scenario);
        eprintln!("repro: {}", shrunk.repro());
        std::process::exit(1);
    }

    // The showcase scenario: checked like any sweep member first, then
    // re-run with the collector riding the serial drive for the
    // deterministic dumps.
    let show = showcase();
    let outcome = check_scenario(&show).unwrap_or_else(|failure| {
        eprintln!("showcase scenario failed: {failure}");
        eprintln!("repro: {}", show.repro_command());
        std::process::exit(1);
    });
    let collector = if args.emit_obs.is_some() || args.emit_trace.is_some() {
        Collector::new()
    } else {
        Collector::disabled()
    };
    // Windows anchor to the fault-free formation time, exactly as
    // `check_scenario` measures it (same clean-world serial probe).
    let clean = Scenario {
        loss_pct: 0,
        crashes: Vec::new(),
        ..show.clone()
    };
    let base = SimDuration(
        run_scenario(&clean, Mode::Serial, SimDuration::ZERO, None)
            .outcome
            .elapsed_us,
    );
    let observed = run_scenario(&show, Mode::Serial, base, Some(&collector));
    assert_eq!(
        observed.outcome, outcome,
        "attaching the collector must not perturb the run"
    );
    args.dump_deterministic(&collector);
    args.dump_trace_deterministic(&collector);
    if collector.is_enabled() {
        verify_attribution(&collector, "E16");
    }

    let formed = observed
        .outcome
        .formed
        .as_ref()
        .expect("the showcase scenario forms");
    assert!(
        observed.outcome.crashes > 0,
        "the showcase crash window must fire"
    );
    assert!(
        formed.resumes + formed.restarts > 0,
        "the showcase crash must force session recovery"
    );
    let mut report = Report::new(
        "E16",
        "Scenario DSL sweep: generated lifecycles under generated fault plans",
        &["scenarios", "formed", "refusals", "drops", "crashes"],
    );
    report.row(
        "sweep",
        &[
            sweep.checked.to_string(),
            sweep.formed.to_string(),
            sweep.refusals.to_string(),
            sweep.drops.to_string(),
            sweep.crashes.to_string(),
        ],
    );
    report.row(
        "showcase",
        &[
            "1".to_string(),
            "1".to_string(),
            observed.outcome.refusals.to_string(),
            observed.outcome.drops.to_string(),
            observed.outcome.crashes.to_string(),
        ],
    );
    report.note(&format!(
        "seed = {seed}; every scenario checked for: membership ⇔ completed TN, \
         serial ≡ replay (≡ parallel when order-independent), kill-anywhere \
         journal recovery, honored retry_after_us hints"
    ));
    report.note(&format!(
        "showcase: 3 parties / depth 2 / 20% loss / crash window / storm / drift; \
         crashed {} time(s), recovered via {} resume(s) + {} restart(s), \
         revoked {} certificate(s), {} drift lookup(s) mapped",
        observed.outcome.crashes,
        formed.resumes,
        formed.restarts,
        formed.revoked,
        observed.outcome.mapped,
    ));
    report.print();
}
