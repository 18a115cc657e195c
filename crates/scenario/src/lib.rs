//! Seeded scenario DSL + lifecycle fuzzer for the VO stack.
//!
//! The paper's trust-establishment pipeline (admission TN → membership
//! certificate → operation → dissolution, §5) is exercised everywhere in
//! this repo by *hand-written* worlds. This crate closes the coverage
//! gap with generated ones: a declarative [`Scenario`] —
//! parties, policy-chain shape, ontology drift, revocation storms,
//! churn, partitions, crash windows, flow budgets — compiled into a
//! `netsim` fault plan plus a lifecycle script whose formation is a
//! `vo::Formation` through the TN service, under admission control.
//!
//! Three layers:
//!
//! * [`dsl`] — the scenario grammar, its SplitMix64 generator, and a
//!   lossless command-line round trip (`trustvo scenario repro …`);
//! * [`run`] — compile + execute + check the four lifecycle properties
//!   (membership ⇔ completed TN, drive equivalence, kill-anywhere
//!   journal recovery, honored refusal hints);
//! * [`mod@shrink`] — delta-debug a failing seed to a minimal scenario that
//!   still violates the same property, printed as a repro command.
//!
//! [`fuzz`] ties them together: generate `count` scenarios from a base
//! seed, check each, shrink the first failure. The E16 harness
//! (`fig_scenario_sweep`) and the ci smoke gate are thin wrappers over
//! it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dsl;
pub mod run;
pub mod shrink;
pub mod world;

pub use dsl::{Churn, ManaClause, Scenario, Storm, Window};
pub use run::{check_scenario, check_scenario_canary, Failure, Mode, Outcome};
pub use shrink::{shrink, Shrunk};

/// Aggregate result of a fuzzing sweep.
#[derive(Debug)]
pub struct FuzzReport {
    /// Scenarios generated and checked.
    pub checked: usize,
    /// Of those, scenarios whose formation completed.
    pub formed: usize,
    /// Total typed refusals observed across all runs.
    pub refusals: u64,
    /// Total injected drops across all runs.
    pub drops: u64,
    /// Total crash firings across all runs.
    pub crashes: u64,
    /// The first property violation, shrunk — `None` when every scenario
    /// passed.
    pub failure: Option<shrink::Shrunk>,
}

/// Check `count` generated scenarios starting at `base_seed`. Stops at
/// the first property violation and shrinks it (budget `shrink_runs`
/// checks). Pure in `(base_seed, count)`.
pub fn fuzz(base_seed: u64, count: usize, shrink_runs: usize) -> FuzzReport {
    fuzz_with(base_seed, count, shrink_runs, false)
}

/// [`fuzz`] with the ci canary: every scenario is additionally required
/// to FAIL formation, so healthy seeds violate the canary property and
/// prove the shrinker end-to-end.
pub fn fuzz_with(base_seed: u64, count: usize, shrink_runs: usize, canary: bool) -> FuzzReport {
    let mut report = FuzzReport {
        checked: 0,
        formed: 0,
        refusals: 0,
        drops: 0,
        crashes: 0,
        failure: None,
    };
    for i in 0..count {
        let scenario = dsl::Scenario::generate(base_seed.wrapping_add(i as u64));
        report.checked += 1;
        match run::check_scenario_canary(&scenario, canary) {
            Ok(outcome) => {
                report.formed += usize::from(outcome.formed.is_ok());
                report.refusals += outcome.refusals;
                report.drops += outcome.drops;
                report.crashes += outcome.crashes;
            }
            Err(failure) => {
                report.failure = Some(shrink::shrink(&scenario, &failure, shrink_runs, |s| {
                    run::check_scenario_canary(s, canary)
                }));
                return report;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_sweep_passes_and_is_deterministic() {
        let a = fuzz(1000, 12, 0);
        assert_eq!(a.checked, 12);
        assert!(a.failure.is_none(), "sweep failed: {:?}", a.failure);
        assert!(a.formed >= 6, "only {}/12 scenarios formed", a.formed);
        let b = fuzz(1000, 12, 0);
        assert_eq!(
            (a.formed, a.refusals, a.drops, a.crashes),
            (b.formed, b.refusals, b.drops, b.crashes)
        );
    }

    #[test]
    fn canary_failure_shrinks_to_a_tiny_repro() {
        let report = fuzz_with(2000, 8, 300, true);
        let shrunk = report.failure.expect("the canary must fire");
        assert_eq!(shrunk.failure.property, "canary");
        assert!(
            shrunk.scenario.parties <= 3,
            "shrunk to {} parties",
            shrunk.scenario.parties
        );
        assert!(
            shrunk.scenario.fault_clauses() <= 2,
            "shrunk to {} fault clauses",
            shrunk.scenario.fault_clauses()
        );
        assert!(shrunk.repro().starts_with("trustvo scenario repro --seed"));
    }
}
