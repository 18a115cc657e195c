//! `lifecycle`: generated E16 scenarios run end to end on the serial
//! driver (`run_scenario(.., Mode::Serial, ..)`: world build, ontology
//! drift, formation over the netsim fault plan and admission gate,
//! revocation storms, churn, dissolution), each followed by the
//! restart-recovery read path: the run's journal replayed into a fresh
//! database whose digest must equal the live one.
//!
//! `check_scenario` is never called: its parallel leg spawns worker
//! threads.

use std::time::Instant;

use trust_vo_journal::Journal;
use trust_vo_obs::Collector;
use trust_vo_scenario::run::{run_scenario, RunResult};
use trust_vo_scenario::{Mode, Outcome, Scenario};
use trust_vo_soa::simclock::SimDuration;
use trust_vo_store::Database;

use crate::attrib::Layer;
use crate::workload::{Op, Workload};

/// Scenarios per set; ops cycle through the set in order. Sets differ
/// by seed, so the set must be large enough that its mix (and the few
/// heavy scenarios behind the tail latency) barely changes between
/// seeds.
const CASES: usize = 1024;

/// One input: a scenario, the base its fault windows anchor to, and the
/// outcome set-up recorded for it.
struct Case {
    scenario: Scenario,
    base: SimDuration,
    expected: Outcome,
}

/// The fault-free formation time a scenario's partition and crash
/// windows anchor to (zero when it has none), from a probe run.
fn window_base(s: &Scenario) -> SimDuration {
    if s.partitions.is_empty() && s.crashes.is_empty() {
        return SimDuration::ZERO;
    }
    let clean = Scenario {
        loss_pct: 0,
        partitions: Vec::new(),
        crashes: Vec::new(),
        mana: None,
        ..s.clone()
    };
    SimDuration(
        run_scenario(&clean, Mode::Serial, SimDuration::ZERO, None)
            .outcome
            .elapsed_us,
    )
}

/// Replays `journal` into a fresh database: its state digest and the
/// records replayed.
fn recover(journal: &[u8]) -> (u64, u64) {
    let db = Database::new();
    let replay = db.restore_from_journal(&Journal::from_bytes(journal.to_vec()));
    (db.state_digest(), replay.records)
}

/// The op's output check. A formation that fails is correct when set-up
/// saw it fail the same way (e.g. an uncoverable flow budget).
fn check(case: &Case, run: &RunResult, recovered: u64) -> Result<(), String> {
    if recovered != run.live_digest {
        return Err(format!(
            "seed {}: recovered digest {recovered:#x} != live {:#x}",
            case.scenario.seed, run.live_digest
        ));
    }
    if let Ok(formed) = &run.outcome.formed {
        if formed.revoked_still_valid != 0 || formed.intact_invalid != 0 {
            return Err(format!(
                "seed {}: {} revoked certificates verify, {} intact ones fail",
                case.scenario.seed, formed.revoked_still_valid, formed.intact_invalid
            ));
        }
    }
    if run.outcome != case.expected {
        return Err(format!(
            "seed {}: outcome differs from set-up's",
            case.scenario.seed
        ));
    }
    Ok(())
}

pub struct Lifecycle {
    cases: Vec<Case>,
    obs: Option<Collector>,
}

impl Workload for Lifecycle {
    /// One pass over the scenario set: every round does the same mix.
    const ROUND: usize = CASES;
    const OPS_PER_S: usize = 768;
    const COUNT_OPS: usize = CASES;

    /// Generates the scenario set for `seed`, probes each one's window
    /// base, and records its outcome. Every set-up does the same work.
    fn setup(seed: u64, _generation: u64) -> Result<Self, String> {
        let first = seed.wrapping_mul(CASES as u64);
        let mut cases = Vec::with_capacity(CASES);
        for i in 0..CASES as u64 {
            let scenario = Scenario::generate(first.wrapping_add(i));
            let base = window_base(&scenario);
            let run = run_scenario(&scenario, Mode::Serial, base, None);
            let (recovered, _) = recover(&run.journal);
            let case = Case {
                scenario,
                base,
                expected: run.outcome.clone(),
            };
            check(&case, &run, recovered)?;
            cases.push(case);
        }
        Ok(Lifecycle { cases, obs: None })
    }

    fn trace_into(&mut self, collector: &Collector) {
        self.obs = Some(collector.clone());
    }

    fn op(&mut self, i: u64) -> Op {
        let case = &self.cases[(i % CASES as u64) as usize];
        let started = Instant::now();
        let run = run_scenario(&case.scenario, Mode::Serial, case.base, self.obs.as_ref());
        let replay_started = Instant::now();
        let (recovered, records) = recover(&run.journal);
        let ended = Instant::now();
        let wall = ended - started;
        let replay_us = (ended - replay_started).as_secs_f64() * 1e6;
        let o = &run.outcome;
        let (negotiations, retries, resumes, restarts) = match &o.formed {
            Ok(f) => (f.negotiations, f.retries, f.resumes, f.restarts),
            Err(_) => (0, 0, 0, 0),
        };
        Op {
            wall,
            negotiations,
            failure: check(case, &run, recovered).err(),
            counts: vec![
                ("vo.sim_us", o.elapsed_us as f64),
                ("soa.retries", retries as f64),
                ("soa.resumes", resumes as f64),
                ("soa.restarts", restarts as f64),
                ("netsim.drops", o.drops as f64),
                ("netsim.dedup_replays", o.dedup_replays as f64),
                ("journal.bytes", run.journal.len() as f64),
                ("journal.records", records as f64),
            ],
            outside: vec![(Layer::JournalReplay, replay_us)],
        }
    }
}
