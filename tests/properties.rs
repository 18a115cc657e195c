//! Cross-crate property tests: the DESIGN.md §6 invariants that span
//! multiple crates, checked on randomized policy graphs.

use proptest::prelude::*;
use trust_vo::credential::{Attribute, CredentialAuthority, Sensitivity, TimeRange, Timestamp};
use trust_vo::negotiation::message::Message;
use trust_vo::negotiation::{negotiate, NegotiationConfig, Party, Strategy};
use trust_vo::policy::{DisclosurePolicy, Resource, Term};

fn window() -> TimeRange {
    TimeRange::one_year_from(Timestamp::parse_iso("2009-10-26T21:32:52").unwrap())
}

fn at() -> Timestamp {
    Timestamp::parse_iso("2009-12-01T00:00:00").unwrap()
}

/// A randomized two-party world: `n` credential types alternating between
/// the parties, each protected either by a DELIV rule or by the next type,
/// with random sensitivities.
fn random_parties(depth: usize, deliv_mask: &[bool], sensitivities: &[u8]) -> (Party, Party) {
    let mut ca = CredentialAuthority::new("PropCA");
    let mut requester = Party::new("prop-requester");
    let mut controller = Party::new("prop-controller");
    for level in 0..depth {
        let ty = format!("T{level}");
        let owner = if level % 2 == 0 {
            &mut requester
        } else {
            &mut controller
        };
        let cred = ca
            .issue(
                &ty,
                &owner.name.clone(),
                owner.keys.public,
                vec![Attribute::new("L", level as i64)],
                window(),
            )
            .unwrap();
        let sens = match sensitivities.get(level).copied().unwrap_or(0) % 3 {
            0 => Sensitivity::Low,
            1 => Sensitivity::Medium,
            _ => Sensitivity::High,
        };
        owner.profile.add_with_sensitivity(cred, sens);
        let resource = Resource::credential(ty);
        // The last level is always deliverable so the chain can terminate.
        if level + 1 >= depth || deliv_mask.get(level).copied().unwrap_or(true) {
            owner
                .policies
                .add(DisclosurePolicy::deliv(format!("d{level}"), resource));
        } else {
            owner.policies.add(DisclosurePolicy::rule(
                format!("p{level}"),
                resource,
                vec![Term::of_type(format!("T{}", level + 1))],
            ));
        }
    }
    controller.policies.add(DisclosurePolicy::rule(
        "root",
        Resource::service("Target"),
        vec![Term::of_type("T0")],
    ));
    requester.trust_root(ca.public_key());
    controller.trust_root(ca.public_key());
    (requester, controller)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any terminating chain world is satisfiable, under every strategy,
    /// and all strategies agree on the outcome.
    #[test]
    fn strategies_agree_on_random_chains(
        depth in 1usize..8,
        deliv_mask in proptest::collection::vec(any::<bool>(), 8),
        sens in proptest::collection::vec(any::<u8>(), 8),
    ) {
        let (requester, controller) = random_parties(depth, &deliv_mask, &sens);
        let mut sequences = Vec::new();
        for strategy in Strategy::ALL {
            let cfg = NegotiationConfig::new(strategy, at());
            let outcome = negotiate(&requester, &controller, "Target", &cfg);
            prop_assert!(outcome.is_ok(), "strategy {strategy}: {outcome:?}");
            sequences.push(outcome.unwrap().sequence);
        }
        // Same satisfiable graph ⇒ the agreed sequence is strategy-independent.
        for seq in &sequences[1..] {
            prop_assert_eq!(seq, &sequences[0]);
        }
    }

    /// Negotiation safety: in the transcript, every credential disclosure
    /// is preceded by a policy disclosure governing the exchange (no
    /// credential leaves before phase 1 produced a sequence).
    #[test]
    fn credentials_never_precede_policies(
        depth in 2usize..8,
        sens in proptest::collection::vec(any::<u8>(), 8),
    ) {
        let deliv_mask = vec![false; depth]; // full chain, no shortcuts
        let (requester, controller) = random_parties(depth, &deliv_mask, &sens);
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate(&requester, &controller, "Target", &cfg).unwrap();
        let entries = outcome.transcript.entries();
        let first_credential = entries
            .iter()
            .position(|e| matches!(e.message, Message::CredentialDisclosure { .. }));
        let first_policy = entries
            .iter()
            .position(|e| matches!(e.message, Message::PolicyDisclosure { .. }));
        if let (Some(cred), Some(policy)) = (first_credential, first_policy) {
            prop_assert!(policy < cred, "a credential was disclosed before any policy");
        }
    }

    /// The trust sequence respects the dependency order of the chain: the
    /// credential satisfying a policy is disclosed before the credential
    /// that policy protects.
    #[test]
    fn sequence_respects_chain_order(depth in 2usize..8) {
        let deliv_mask = vec![false; depth];
        let (requester, controller) = random_parties(depth, &deliv_mask, &[]);
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate(&requester, &controller, "Target", &cfg).unwrap();
        let types: Vec<&str> = outcome
            .sequence
            .disclosures()
            .iter()
            .map(|d| d.cred_type.as_str())
            .collect();
        // T(depth-1) must come before T(depth-2) … before T0.
        for level in 0..depth.saturating_sub(1) {
            let outer = types.iter().position(|t| *t == format!("T{level}"));
            let inner = types.iter().position(|t| *t == format!("T{}", level + 1));
            if let (Some(outer), Some(inner)) = (outer, inner) {
                prop_assert!(inner < outer, "T{} disclosed after T{level}", level + 1);
            }
        }
    }

    /// Revoking any credential in the sequence makes the negotiation fail
    /// with a trust failure — never a panic, never a silent success.
    #[test]
    fn revocation_anywhere_fails_closed(
        depth in 1usize..6,
        victim in any::<prop::sample::Index>(),
    ) {
        let deliv_mask = vec![false; depth];
        let (requester, mut controller) = random_parties(depth, &deliv_mask, &[]);
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let baseline = negotiate(&requester, &controller, "Target", &cfg).unwrap();
        if baseline.sequence.is_empty() {
            return Ok(());
        }
        let disclosures = baseline.sequence.disclosures();
        let victim_id = disclosures[victim.index(disclosures.len())].cred_id.clone();
        // Both parties learn of the revocation via their CRL view; the
        // receiver-side check is what the paper specifies.
        controller.crl.revoke(victim_id.clone(), at());
        let mut requester2 = requester.clone();
        requester2.crl.revoke(victim_id, at());
        let result = negotiate(&requester2, &controller, "Target", &cfg);
        prop_assert!(
            matches!(result, Err(trust_vo::negotiation::NegotiationError::TrustFailure { .. })),
            "{result:?}"
        );
    }

    /// Message counts: trusting never uses more policy rounds than
    /// strong-suspicious on the same workload.
    #[test]
    fn trusting_rounds_lower_bound(depth in 1usize..7) {
        let deliv_mask = vec![false; depth];
        let (requester, controller) = random_parties(depth, &deliv_mask, &[]);
        let trusting = negotiate(
            &requester, &controller, "Target",
            &NegotiationConfig::new(Strategy::Trusting, at()),
        ).unwrap();
        let strong = negotiate(
            &requester, &controller, "Target",
            &NegotiationConfig::new(Strategy::StrongSuspicious, at()),
        ).unwrap();
        prop_assert!(trusting.transcript.policy_rounds <= strong.transcript.policy_rounds);
        prop_assert!(strong.transcript.ownership_proofs >= trusting.transcript.ownership_proofs);
    }
}

/// A randomized AND-OR policy world (not just chains): `n` credential
/// types split between the parties; each protected by up to `alts`
/// alternatives, each alternative a conjunction of up to `width` random
/// deeper types (acyclic by construction: requirements only reference
/// strictly higher indices), or DELIV at the frontier.
fn random_dag(
    n: usize,
    structure: &[u8], // randomness source, consumed round-robin
) -> (Party, Party) {
    let mut ca = CredentialAuthority::new("DagCA");
    let mut requester = Party::new("dag-requester");
    let mut controller = Party::new("dag-controller");
    let byte = |i: usize| {
        structure
            .get(i % structure.len().max(1))
            .copied()
            .unwrap_or(0) as usize
    };
    for level in 0..n {
        let ty = format!("T{level}");
        let owner = if level % 2 == 0 {
            &mut requester
        } else {
            &mut controller
        };
        let cred = ca
            .issue(
                &ty,
                &owner.name.clone(),
                owner.keys.public,
                vec![],
                window(),
            )
            .unwrap();
        owner.profile.add(cred);
        let resource = Resource::credential(ty);
        let remaining = n - level - 1;
        let alts = 1 + byte(level) % 3;
        let mut governed = false;
        for alt in 0..alts {
            // Terms reference types at least one level deeper with the
            // OPPOSITE parity (so the counterpart holds them); if no such
            // type exists, fall back to DELIV.
            let width = 1 + byte(level * 7 + alt) % 2;
            let mut terms = Vec::new();
            for w in 0..width {
                let offset = 1 + byte(level * 13 + alt * 5 + w) % remaining.max(1);
                let target = level + offset;
                if target < n && (target % 2) != (level % 2) {
                    terms.push(Term::of_type(format!("T{target}")));
                }
            }
            if terms.is_empty() {
                owner.policies.add(DisclosurePolicy::deliv(
                    format!("d{level}-{alt}"),
                    resource.clone(),
                ));
            } else {
                owner.policies.add(DisclosurePolicy::rule(
                    format!("p{level}-{alt}"),
                    resource.clone(),
                    terms,
                ));
            }
            governed = true;
        }
        let _ = governed;
    }
    controller.policies.add(DisclosurePolicy::rule(
        "root",
        Resource::service("Target"),
        vec![Term::of_type("T0")],
    ));
    requester.trust_root(ca.public_key());
    controller.trust_root(ca.public_key());
    (requester, controller)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine completeness: negotiate() succeeds exactly when the
    /// exhaustive enumerator finds at least one satisfiable view.
    #[test]
    fn engine_agrees_with_enumerator_on_random_dags(
        n in 1usize..8,
        structure in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        let (requester, controller) = random_dag(n, &structure);
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let views = trust_vo::negotiation::enumerate_sequences(
            &requester, &controller, "Target", &cfg, 500,
        );
        let outcome = negotiate(&requester, &controller, "Target", &cfg);
        prop_assert_eq!(
            outcome.is_ok(),
            !views.is_empty(),
            "engine {:?} vs {} enumerated views",
            outcome.err(),
            views.len()
        );
    }

    /// The engine's chosen sequence always appears among the enumerated
    /// views (it never invents a sequence the enumerator can't derive).
    #[test]
    fn engine_sequence_is_an_enumerated_view(
        n in 1usize..8,
        structure in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        let (requester, controller) = random_dag(n, &structure);
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        if let Ok(outcome) = negotiate(&requester, &controller, "Target", &cfg) {
            let views = trust_vo::negotiation::enumerate_sequences(
                &requester, &controller, "Target", &cfg, 2000,
            );
            prop_assert!(
                views.contains(&outcome.sequence),
                "sequence {} not among {} views",
                outcome.sequence,
                views.len()
            );
        }
    }
}
