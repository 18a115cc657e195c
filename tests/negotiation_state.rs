//! One negotiation state at every cursor: the in-process engine, the TN
//! service run without interruption, and a service session crashed after
//! any number of verified disclosures and resumed from its last token all
//! drive the one phase-2 step, so they agree on the trust sequence, on the
//! disclosed credentials in order, on the work each disclosure is charged
//! for, and on where a revoked credential stops the exchange.

use std::collections::BTreeMap;
use trust_vo::credential::Timestamp;
use trust_vo::negotiation::message::{Message, Side};
use trust_vo::negotiation::view::TrustSequence;
use trust_vo::negotiation::{
    evaluate_policies, negotiate, Collector, NegotiationConfig, NegotiationError, ObsContext,
    Party, Strategy,
};
use trust_vo::soa::simclock::{CostKind, CostModel, SimClock};
use trust_vo::soa::{
    Body, Envelope, Fault, ServiceEndpoint, SignedToken, StartNegotiation, TnService,
};
use trust_vo::store::Database;
use trust_vo::vo::initiator_party_for_role;
use trust_vo::vo::scenario::{names, roles, scenario_time, AircraftScenario};
use trust_vo_bench::workloads::{self, parallel_join_world};

const RESOURCE: &str = "VoMembership";

/// A membership negotiation: a candidate asks the initiator's per-role
/// identity for VO membership at instant `at`.
struct Case {
    name: &'static str,
    requester: Party,
    controller: Party,
    at: Timestamp,
    /// The length of the trust sequence every strategy agrees on.
    disclosures: usize,
}

fn cases() -> Vec<Case> {
    let scenario = AircraftScenario::build();
    let aircraft = Case {
        name: "aircraft",
        requester: scenario.provider(names::AEROSPACE).party.clone(),
        controller: initiator_party_for_role(
            scenario.provider(names::AIRCRAFT),
            &scenario.contract,
            roles::DESIGN_PORTAL,
        ),
        at: scenario_time(),
        disclosures: 2,
    };
    let world = parallel_join_world(1, 8, 2);
    let chain = Case {
        name: "e10-depth-8",
        requester: world.providers["Applicant000"].party.clone(),
        controller: initiator_party_for_role(&world.initiator, &world.contract, "Role000"),
        at: workloads::at(),
        disclosures: 8,
    };
    vec![aircraft, chain]
}

/// Who discloses which credential, in sequence order.
type Sequence = Vec<(Side, String)>;

/// What a run observed: the agreed sequence, the credentials disclosed
/// and verified in order, and where the exchange stopped on a trust
/// failure (the position of the rejected disclosure).
#[derive(Debug, PartialEq)]
struct Run {
    sequence: Sequence,
    verified: Vec<String>,
    failed_at: Option<usize>,
}

fn sequence_of(sequence: &TrustSequence) -> Sequence {
    sequence
        .disclosures()
        .iter()
        .map(|d| (d.by, d.cred_id.0.clone()))
        .collect()
}

/// The in-process engine's run; a trust failure's position is read from
/// the engine's own verification count.
fn in_process(case: &Case, strategy: Strategy) -> Run {
    let collector = Collector::new();
    let cfg =
        NegotiationConfig::new(strategy, case.at).with_obs(ObsContext::new(collector.clone()));
    match negotiate(&case.requester, &case.controller, RESOURCE, &cfg) {
        Ok(outcome) => Run {
            sequence: sequence_of(&outcome.sequence),
            verified: outcome
                .transcript
                .entries()
                .iter()
                .filter_map(|e| match &e.message {
                    Message::CredentialDisclosure { credential, .. } => {
                        Some(credential.id().0.clone())
                    }
                    _ => None,
                })
                .collect(),
            failed_at: None,
        },
        Err(NegotiationError::TrustFailure { .. }) => {
            let cfg = NegotiationConfig::new(strategy, case.at);
            let phase =
                evaluate_policies(&case.requester, &case.controller, RESOURCE, &cfg).unwrap();
            let sequence = sequence_of(&phase.sequence);
            let failed = collector.metrics().counter("negotiation.verifications") as usize - 1;
            Run {
                verified: sequence[..failed]
                    .iter()
                    .map(|(_, id)| id.clone())
                    .collect(),
                sequence,
                failed_at: Some(failed),
            }
        }
        Err(e) => panic!("{}/{strategy}: {e}", case.name),
    }
}

/// A TN service holding both parties, and the clock it charges.
fn service(case: &Case) -> (TnService, SimClock) {
    let clock = SimClock::new(CostModel::paper_testbed(), case.at);
    let svc = TnService::new(clock.clone(), Database::new());
    svc.register_party(case.requester.clone());
    svc.register_party(case.controller.clone());
    (svc, clock)
}

fn call(svc: &TnService, body: Body, id: Option<u64>) -> Result<Envelope, Fault> {
    let mut request = Envelope::new(body);
    request.negotiation_id = id;
    svc.handle(&request)
}

/// A resumable session through PolicyExchange: its id, the sequence it
/// agreed and the phase-1 resume token.
fn open(svc: &TnService, case: &Case, strategy: Strategy) -> (u64, Sequence, SignedToken) {
    let start = Body::StartNegotiation(StartNegotiation {
        strategy,
        requester: case.requester.name.clone(),
        controller: case.controller.name.clone(),
        resource: RESOURCE.into(),
        resumable: true,
    });
    let id = call(svc, start, None).unwrap().negotiation_id.unwrap();
    let policy = call(svc, Body::PolicyExchange, Some(id)).unwrap();
    let Body::PolicyExchangeResponse(policy) = &*policy.body else {
        panic!("a policy reply")
    };
    let sequence = policy
        .sequence
        .disclosures()
        .iter()
        .map(|d| (d.by, d.cred_id.0.clone()))
        .collect();
    (id, sequence, policy.token.clone().unwrap())
}

/// The work one call charged, by kind.
fn charged(clock: &SimClock, before: &BTreeMap<CostKind, u64>) -> BTreeMap<CostKind, u64> {
    clock
        .counts()
        .into_iter()
        .map(|(kind, n)| (kind, n - before.get(&kind).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// A service-side exchange: the run so far plus, per disclosure call, the
/// work it charged.
struct Exchange {
    run: Run,
    charges: Vec<BTreeMap<CostKind, u64>>,
    token: Option<SignedToken>,
}

impl Exchange {
    /// Make `calls` CredentialExchange calls on session `id` (or run to the
    /// end when `None`), stopping at completion or at a trust failure.
    fn drive(&mut self, svc: &TnService, clock: &SimClock, id: u64, calls: Option<usize>) {
        let mut made = 0;
        while calls.is_none_or(|calls| made < calls) {
            let before = clock.counts();
            let reply = call(svc, Body::CredentialExchange, Some(id));
            self.charges.push(charged(clock, &before));
            made += 1;
            match reply {
                Ok(reply) => {
                    let Body::CredentialExchangeResponse(reply) = &*reply.body else {
                        panic!("a credential reply")
                    };
                    // The disclosed credential, decoded from the bytes its
                    // issuer signed, verifies.
                    let cred = reply.credential.as_ref().unwrap().decode().unwrap();
                    assert!(cred.verify_signature().is_ok());
                    self.run.verified.push(cred.id().0.clone());
                    if let Some(token) = &reply.token {
                        self.token = Some(token.clone());
                    }
                    if reply.is_completed() {
                        return;
                    }
                }
                Err(fault) => {
                    assert_eq!(fault.code, "TrustFailure", "{fault}");
                    self.run.failed_at = Some(self.run.verified.len());
                    return;
                }
            }
        }
    }
}

/// The service run, crashed after `crash_after` verified disclosures
/// (never, when `None`) and resumed from the last token it received.
fn service_run(case: &Case, strategy: Strategy, crash_after: Option<usize>) -> Exchange {
    let (svc, clock) = service(case);
    let (id, sequence, token) = open(&svc, case, strategy);
    let mut exchange = Exchange {
        run: Run {
            sequence,
            verified: Vec::new(),
            failed_at: None,
        },
        charges: Vec::new(),
        token: Some(token),
    };
    exchange.drive(&svc, &clock, id, crash_after);
    let Some(k) = crash_after else {
        return exchange;
    };
    assert_eq!(exchange.run.verified.len(), k, "{}/{strategy}", case.name);
    svc.on_crash();
    let token = exchange
        .token
        .take()
        .expect("a checkpoint with disclosures left");
    let resumed = call(&svc, Body::ResumeNegotiation(token), None).unwrap();
    let Body::ResumeNegotiationResponse(reply) = &*resumed.body else {
        panic!("a resume reply")
    };
    assert_eq!(reply.next as usize, k);
    exchange.drive(&svc, &clock, resumed.negotiation_id.unwrap(), None);
    assert_eq!(svc.session_counts().0, 0, "{}/{strategy}", case.name);
    exchange
}

/// The work the service charges for disclosure `i` of `n`: the fetch and
/// signature check, an ownership proof's signature and check when the
/// strategy demands one, then a checkpoint while disclosures remain, or
/// the slot's purge once the exchange ends (complete, or `rejected`).
fn disclosure_work(i: usize, n: usize, proves: bool, rejected: bool) -> BTreeMap<CostKind, u64> {
    let ends = u64::from(rejected || i + 1 == n);
    let proof = u64::from(proves);
    [
        (CostKind::DbQuery, 2),
        (CostKind::SignatureVerify, 1 + proof),
        (CostKind::SignatureSign, proof + 1 - ends),
    ]
    .into_iter()
    .filter(|&(_, count)| count > 0)
    .collect()
}

/// Every run of `case` agrees with the in-process one, at every cursor.
fn agree_at_every_cursor(case: &Case) {
    for strategy in Strategy::ALL {
        let expected = in_process(case, strategy);
        let n = expected.sequence.len();
        let whole = service_run(case, strategy, None);
        assert_eq!(
            whole.run, expected,
            "{}/{strategy}: uninterrupted",
            case.name
        );
        let calls = expected.failed_at.map_or(n, |j| j + 1);
        let work: Vec<_> = (0..calls)
            .map(|i| {
                let proves = strategy.requires_ownership_proof();
                disclosure_work(i, n, proves, expected.failed_at == Some(i))
            })
            .collect();
        assert_eq!(whole.charges, work, "{}/{strategy}: work", case.name);
        // A token exists after every verified disclosure that leaves one
        // to run; a trust failure at j ends the exchange there.
        for k in 0..expected.failed_at.unwrap_or(n) {
            let resumed = service_run(case, strategy, Some(k));
            assert_eq!(
                resumed.run, expected,
                "{}/{strategy}: crashed after {k}",
                case.name
            );
            assert_eq!(
                resumed.charges, whole.charges,
                "{}/{strategy}: crashed after {k}: per-disclosure work",
                case.name
            );
        }
    }
}

/// `case` with the receiver of disclosure `j` revoking that credential.
fn revoked_at(case: &Case, j: usize) -> Case {
    let cfg = NegotiationConfig::new(Strategy::Standard, case.at);
    let phase = evaluate_policies(&case.requester, &case.controller, RESOURCE, &cfg).unwrap();
    let disclosure = &phase.sequence.disclosures()[j];
    let (mut requester, mut controller) = (case.requester.clone(), case.controller.clone());
    let receiver = match disclosure.by {
        Side::Requester => &mut controller,
        Side::Controller => &mut requester,
    };
    receiver.crl.revoke(disclosure.cred_id.clone(), case.at);
    Case {
        requester,
        controller,
        ..*case
    }
}

#[test]
fn engine_service_and_resume_agree_at_every_cursor() {
    for case in cases() {
        for strategy in Strategy::ALL {
            let run = in_process(&case, strategy);
            assert_eq!(run.sequence.len(), case.disclosures, "{}", case.name);
            assert_eq!(run.failed_at, None, "{}/{strategy}", case.name);
            let cfg = NegotiationConfig::new(strategy, case.at);
            let outcome = negotiate(&case.requester, &case.controller, RESOURCE, &cfg).unwrap();
            let proofs = if strategy.requires_ownership_proof() {
                case.disclosures
            } else {
                0
            };
            assert_eq!(outcome.transcript.ownership_proofs, proofs, "{strategy}");
        }
        agree_at_every_cursor(&case);
    }
}

#[test]
fn a_revoked_credential_fails_at_its_position_in_every_driver() {
    for case in cases() {
        for j in 0..case.disclosures {
            let revoked = revoked_at(&case, j);
            for strategy in Strategy::ALL {
                assert_eq!(
                    in_process(&revoked, strategy).failed_at,
                    Some(j),
                    "{}/{strategy}: revoked at {j}",
                    case.name
                );
            }
            // The service runs, uninterrupted and resumed before `j`.
            agree_at_every_cursor(&revoked);
        }
    }
}
