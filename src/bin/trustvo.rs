//! `trustvo` — a small CLI over the trust-vo library.
//!
//! ```text
//! trustvo form [--strategy <s>]        run the Formation phase of the Aircraft VO
//! trustvo negotiate [--strategy <s>]   run the Fig. 2 negotiation, print tree + sequence
//! trustvo views                        enumerate all satisfiable trust sequences
//! trustvo lifecycle                    full lifecycle incl. operation + dissolution
//! trustvo strategies                   compare the four strategies side by side
//! trustvo trace <dump.jsonl> [--top k] timeline + critical path of an obs export
//! trustvo scenario repro <flags…>      re-run a generated lifecycle scenario
//! ```
//!
//! Strategies: standard (default), trusting, suspicious, strong-suspicious.
//!
//! `trace` reads a JSONL observability export (written by the bench
//! binaries' `--emit-obs`), then prints for every root span its
//! negotiation timeline, sim-time attribution table, and top-k critical
//! path.
//!
//! `scenario repro` takes the flag set printed by the lifecycle fuzzer's
//! shrinker (`fig_scenario_sweep`, `trust-vo-scenario`), rebuilds the
//! scenario, runs every property check on it, and prints the outcome —
//! so a shrunk failing seed reproduces outside the fuzzing harness.

use trust_vo::credential::RevocationList;
use trust_vo::negotiation::message::Side;
use trust_vo::negotiation::{choose_minimal, enumerate_sequences, NegotiationConfig, Strategy};
use trust_vo::obs::{critical, parse_jsonl, Record, SpanRecord, Value};
use trust_vo::vo::initiator_party_for_role;
use trust_vo::vo::operation::{authorize_operation, OperationLog};
use trust_vo::vo::scenario::{names, roles, scenario_time, AircraftScenario};

fn parse_strategy(args: &[String]) -> Result<Strategy, String> {
    match args.iter().position(|a| a == "--strategy") {
        None => Ok(Strategy::Standard),
        Some(i) => {
            let value = args
                .get(i + 1)
                .ok_or_else(|| "--strategy requires a value".to_owned())?;
            Strategy::from_wire_name(value).ok_or_else(|| {
                format!(
                    "unknown strategy '{value}' (expected: {})",
                    Strategy::ALL.map(|s| s.wire_name()).join(", ")
                )
            })
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: trustvo <command> [--strategy <s>]\n\
         commands:\n\
         \x20 form        run the Formation phase of the Aircraft Optimization VO\n\
         \x20 negotiate   run the Fig. 2 negotiation (tree + trust sequence)\n\
         \x20 views       enumerate all satisfiable trust sequences\n\
         \x20 lifecycle   walk the whole VO lifecycle\n\
         \x20 strategies  compare the four Trust-X strategies\n\
         \x20 trace       render an obs JSONL export: timeline, attribution, critical path\n\
         \x20             (trustvo trace <dump.jsonl> [--top <k>])\n\
         \x20 scenario    re-run a generated lifecycle scenario and check its properties\n\
         \x20             (trustvo scenario repro --seed <s> --parties <n> …)\n\
         strategies: standard | trusting | suspicious | strong-suspicious"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let strategy = match parse_strategy(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match command.as_str() {
        "form" => cmd_form(strategy),
        "negotiate" => cmd_negotiate(strategy),
        "views" => cmd_views(),
        "lifecycle" => cmd_lifecycle(strategy),
        "strategies" => cmd_strategies(),
        "trace" => cmd_trace(&args),
        "scenario" => cmd_scenario(&args),
        _ => usage(),
    }
}

fn cmd_scenario(args: &[String]) {
    use trust_vo::scenario_dsl::{check_scenario, Scenario};
    if args.get(1).map(String::as_str) != Some("repro") {
        eprintln!("usage: trustvo scenario repro --seed <s> --parties <n> [--depth <d>] …");
        std::process::exit(2);
    }
    let scenario = Scenario::from_args(&args[2..]).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    println!("scenario: {scenario:?}");
    match check_scenario(&scenario) {
        Ok(outcome) => {
            match &outcome.formed {
                Ok(formed) => {
                    println!(
                        "formed {} member(s) in {} ({} negotiation(s), {} retry(ies), \
                         {} resume(s), {} restart(s)):",
                        formed.members.len(),
                        fmt_sim(outcome.elapsed_us),
                        formed.negotiations,
                        formed.retries,
                        formed.resumes,
                        formed.restarts,
                    );
                    for (provider, role, serial) in &formed.members {
                        println!("  {provider:<12} as {role} (serial {serial})");
                    }
                }
                Err(e) => println!("formation failed (a legitimate outcome): {e}"),
            }
            println!(
                "network: {} delivered, {} dropped, {} crash(es), {} partitioned, {} refused",
                outcome.delivered,
                outcome.drops,
                outcome.crashes,
                outcome.partitioned,
                outcome.refusals,
            );
            println!("all lifecycle properties hold");
        }
        Err(failure) => {
            eprintln!("property violation: {failure}");
            std::process::exit(1);
        }
    }
}

/// Human-readable simulated microseconds.
fn fmt_sim(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

fn cmd_trace(args: &[String]) {
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: trustvo trace <dump.jsonl> [--top <k>]");
        std::process::exit(2);
    };
    let top = match args.iter().position(|a| a == "--top") {
        None => 10usize,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(k) => k,
            None => {
                eprintln!("--top requires a positive integer");
                std::process::exit(2);
            }
        },
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let records = parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    let spans: Vec<&SpanRecord> = records
        .iter()
        .filter_map(|r| match r {
            Record::Span(s) => Some(s),
            _ => None,
        })
        .collect();
    let roots: Vec<&&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
    if roots.is_empty() {
        println!("no root spans in {path} ({} records)", records.len());
        return;
    }
    println!(
        "{}: {} records, {} spans, {} roots",
        path,
        records.len(),
        spans.len(),
        roots.len()
    );
    for root in roots {
        println!();
        println!(
            "root '{}' (span {}, trace {}) — sim {} @ {}",
            root.name,
            root.id,
            root.trace_id,
            fmt_sim(root.sim_us),
            fmt_sim(root.sim_start_us)
        );
        // Timeline: the root's direct children in sim-start order.
        let mut children: Vec<&&SpanRecord> =
            spans.iter().filter(|s| s.parent == Some(root.id)).collect();
        children.sort_by_key(|s| (s.sim_start_us, s.id));
        if !children.is_empty() {
            println!("  timeline:");
            for child in children {
                println!(
                    "    [{:>10} +{:>9}] {}{}",
                    fmt_sim(child.sim_start_us),
                    fmt_sim(child.sim_us),
                    child.name,
                    span_note(child)
                );
            }
        }
        if let Some(a) = critical::attribute(&records, root.id) {
            print!(
                "  {}",
                critical::render_attribution(&a).replace('\n', "\n  ")
            );
            println!();
        }
        let path_spans = critical::critical_path(&records, root.id);
        if !path_spans.is_empty() {
            println!("  critical path (top {top}):");
            print!("{}", critical::render_critical_path(&path_spans, top));
        }
    }
}

/// A short annotation for a timeline line from the span's fields.
fn span_note(span: &SpanRecord) -> String {
    let mut parts = Vec::new();
    for key in [
        "requester",
        "provider",
        "role",
        "operation",
        "outcome",
        "result",
    ] {
        for (k, v) in &span.fields {
            if k == key {
                let rendered = match v {
                    Value::I64(n) => n.to_string(),
                    Value::F64(f) => format!("{f}"),
                    Value::Bool(b) => b.to_string(),
                    Value::Str(s) => s.clone(),
                };
                parts.push(format!("{k}={rendered}"));
            }
        }
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("  ({})", parts.join(", "))
    }
}

fn cmd_form(strategy: Strategy) {
    let mut scenario = AircraftScenario::build();
    match scenario.form_vo(strategy) {
        Ok(vo) => {
            println!("VO '{}' formed with strategy '{strategy}':", vo.name);
            for m in vo.members() {
                println!("  {:<32} as {}", m.provider, m.role);
            }
            println!(
                "simulated formation time: {:.2} s",
                scenario.toolkit.clock.elapsed().as_secs_f64()
            );
        }
        Err(e) => {
            eprintln!("formation failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_negotiate(strategy: Strategy) {
    let scenario = AircraftScenario::build();
    match scenario.fig2_negotiation(strategy) {
        Ok(outcome) => {
            println!("negotiation tree:");
            print!("{}", outcome.tree.render());
            println!("trust sequence: {}", outcome.sequence);
            println!("transcript:     {}", outcome.transcript.summary());
        }
        Err(e) => {
            eprintln!("negotiation failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_views() {
    let scenario = AircraftScenario::build();
    let initiator = initiator_party_for_role(
        scenario.provider(names::AIRCRAFT),
        &scenario.contract,
        roles::DESIGN_PORTAL,
    );
    let aerospace = scenario.provider(names::AEROSPACE).party.clone();
    let cfg = NegotiationConfig::new(Strategy::Standard, scenario_time());
    let sequences = enumerate_sequences(&aerospace, &initiator, "VoMembership", &cfg, 100);
    println!("{} satisfiable trust sequences:", sequences.len());
    for s in &sequences {
        println!("  {s}");
    }
    if let Some(best) = choose_minimal(&sequences, Side::Requester) {
        println!("requester-minimal: {best}");
    }
}

fn cmd_lifecycle(strategy: Strategy) {
    let mut scenario = AircraftScenario::build();
    let vo = match scenario.form_vo(strategy) {
        Ok(vo) => vo,
        Err(e) => {
            eprintln!("formation failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "[formation]  {} members, phase {}",
        vo.members().len(),
        vo.lifecycle.phase()
    );
    let providers = scenario.toolkit.providers.clone();
    let clock = scenario.toolkit.clock.clone();
    let auth = authorize_operation(
        &vo,
        &providers,
        names::CONSULTANCY,
        names::HPC,
        "FlowSolution",
        &mut scenario.toolkit.reputation,
        &clock,
        strategy,
    );
    match auth {
        Ok(a) => println!(
            "[operation]  authorization for '{}' granted to {}",
            a.resource, a.granted_to
        ),
        Err(e) => println!("[operation]  authorization failed: {e}"),
    }
    let mut log = OperationLog::new();
    log.record(
        &vo,
        &mut scenario.toolkit.reputation,
        names::HPC,
        names::STORAGE,
        "store results",
        false,
        clock.timestamp(),
    )
    .expect("members interact");
    println!(
        "[operation]  {} interactions monitored",
        log.records().len()
    );
    let mut vo = vo;
    let mut crl = RevocationList::new();
    let report = trust_vo::vo::dissolution::dissolve(&mut vo, &mut crl, &clock).expect("dissolves");
    println!(
        "[dissolved]  {} certificates revoked, total sim time {:.2} s",
        report.certificates_revoked,
        clock.elapsed().as_secs_f64()
    );
}

fn cmd_strategies() {
    let scenario = AircraftScenario::build();
    println!(
        "{:<18} {:>9} {:>7} {:>9} {:>12} {:>7}",
        "strategy", "messages", "rounds", "policies", "credentials", "proofs"
    );
    for strategy in Strategy::ALL {
        match scenario.fig2_negotiation(strategy) {
            Ok(o) => println!(
                "{:<18} {:>9} {:>7} {:>9} {:>12} {:>7}",
                strategy.wire_name(),
                o.transcript.message_count(),
                o.transcript.policy_rounds,
                o.transcript.policies_disclosed,
                o.transcript.credentials_disclosed,
                o.transcript.ownership_proofs,
            ),
            Err(e) => println!("{:<18} failed: {e}", strategy.wire_name()),
        }
    }
}
