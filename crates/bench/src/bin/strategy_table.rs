//! E6 — strategy ablation table: disclosure and message counts for the
//! four Trust-X strategies and the eager (TrustBuilder-style) baseline on
//! the Fig. 2 negotiation.

use trust_vo_bench::report::Report;
use trust_vo_bench::workloads;
use trust_vo_negotiation::baseline::negotiate_eager;
use trust_vo_negotiation::Strategy;
use trust_vo_vo::initiator_party_for_role;
use trust_vo_vo::scenario::{names, roles};

fn main() {
    let s = workloads::scenario(workloads::free_clock());
    let mut report = Report::new(
        "E6",
        "Strategy comparison on the Fig. 2 negotiation (VoMembership)",
        &[
            "strategy",
            "messages",
            "policy rounds",
            "policies",
            "credentials",
            "ownership proofs",
        ],
    );
    for strategy in Strategy::ALL {
        let outcome = s.fig2_negotiation(strategy).expect("satisfiable");
        report.row(
            strategy.wire_name(),
            &[
                outcome.transcript.message_count().to_string(),
                outcome.transcript.policy_rounds.to_string(),
                outcome.transcript.policies_disclosed.to_string(),
                outcome.transcript.credentials_disclosed.to_string(),
                outcome.transcript.ownership_proofs.to_string(),
            ],
        );
    }

    // The eager baseline over-discloses: every releasable credential is
    // pushed, not just the ones a trust sequence needs.
    let initiator = initiator_party_for_role(
        s.provider(names::AIRCRAFT),
        &s.contract,
        roles::DESIGN_PORTAL,
    );
    let aerospace = s.provider(names::AEROSPACE).party.clone();
    let eager = negotiate_eager(&aerospace, &initiator, "VoMembership", workloads::at())
        .expect("satisfiable");
    report.row(
        "eager (TrustBuilder-style)",
        &[
            "-".into(),
            eager.transcript.policy_rounds.to_string(),
            "0".into(),
            eager.transcript.credentials_disclosed.to_string(),
            "0".into(),
        ],
    );
    report.note(
        "eager discloses no policies but pushes every releasable credential (over-disclosure)",
    );
    report.print();
}
