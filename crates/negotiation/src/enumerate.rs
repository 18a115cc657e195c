//! Exhaustive view enumeration.
//!
//! "The interplay goes on until one or more potential trust sequences are
//! determined, that is, whenever both parties determine one or more sets
//! of policies that can be satisfied for all the involved resources."
//! (§4.2)
//!
//! [`crate::engine::negotiate`] commits to the *first* satisfiable view
//! (policy order × sensitivity order). This module enumerates **all**
//! satisfiable views (bounded by a cap) so callers can apply their own
//! selection criterion — e.g. fewest disclosures, or fewest disclosures by
//! one side — before entering the credential exchange phase.

use crate::engine::NegotiationConfig;
use crate::message::Side;
use crate::party::Party;
use crate::view::{Disclosure, TrustSequence};

/// Enumerate every satisfiable trust sequence for `resource` (up to `cap`
/// sequences). The returned order is deterministic: alternatives in policy
/// order, candidate credentials least-sensitive first.
pub fn enumerate_sequences(
    requester: &Party,
    controller: &Party,
    resource: &str,
    cfg: &NegotiationConfig,
    cap: usize,
) -> Vec<TrustSequence> {
    let mut stack = Vec::new();
    let partials = release_options(
        requester,
        controller,
        cfg,
        Side::Controller,
        resource,
        &mut stack,
        cap,
    );
    partials
        .into_iter()
        .take(cap)
        .map(|disclosures| {
            let mut seq = TrustSequence::new();
            for d in disclosures {
                seq.push(d);
            }
            seq
        })
        .collect()
}

/// All ways `owner` can release `resource`, each as the ordered disclosure
/// list that must precede (and include) the release.
fn release_options<'a>(
    requester: &'a Party,
    controller: &'a Party,
    cfg: &NegotiationConfig,
    owner: Side,
    resource: &'a str,
    stack: &mut Vec<(Side, &'a str)>,
    cap: usize,
) -> Vec<Vec<Disclosure>> {
    if cap == 0 || stack.len() >= cfg.max_depth {
        return Vec::new();
    }
    let key = (owner, resource);
    if stack.contains(&key) {
        return Vec::new();
    }
    stack.push(key);
    let owner_party = match owner {
        Side::Requester => requester,
        Side::Controller => controller,
    };
    let policies = &owner_party.policies;
    let mut out: Vec<Vec<Disclosure>> = Vec::new();
    if !policies.governs(resource) {
        out.push(Vec::new()); // ungoverned ⇒ freely released
    }
    for policy in policies.alternatives_for(resource) {
        if out.len() >= cap {
            break;
        }
        if policy.is_deliv() {
            out.push(Vec::new());
            continue;
        }
        // Cross product over the terms: each term contributes its own set
        // of (prerequisites + credential) options.
        let counterpart = owner.other();
        let counterpart_party = match counterpart {
            Side::Requester => requester,
            Side::Controller => controller,
        };
        let mut policy_options: Vec<Vec<Disclosure>> = vec![Vec::new()];
        for term in policy.terms() {
            let mut term_options: Vec<Vec<Disclosure>> = Vec::new();
            for cred in counterpart_party.satisfying(term) {
                if !cred.header().validity.contains(cfg.at) {
                    continue;
                }
                let sub = release_options(
                    requester,
                    controller,
                    cfg,
                    counterpart,
                    cred.cred_type(),
                    stack,
                    cap,
                );
                for mut prereq in sub {
                    prereq.push(Disclosure {
                        by: counterpart,
                        cred_id: cred.id().clone(),
                        cred_type: cred.cred_type().to_owned(),
                    });
                    term_options.push(prereq);
                    if term_options.len() >= cap {
                        break;
                    }
                }
                if term_options.len() >= cap {
                    break;
                }
            }
            // Combine with what we have so far.
            let mut next: Vec<Vec<Disclosure>> = Vec::new();
            'outer: for base in &policy_options {
                for opt in &term_options {
                    let mut combined = base.clone();
                    combined.extend(opt.iter().cloned());
                    next.push(combined);
                    if next.len() >= cap {
                        break 'outer;
                    }
                }
            }
            policy_options = next;
            if policy_options.is_empty() {
                break; // term unsatisfiable ⇒ alternative fails
            }
        }
        out.extend(policy_options);
    }
    stack.pop();
    out.truncate(cap);
    out
}

/// Selection criterion over enumerated sequences: fewest total
/// disclosures, ties broken by fewest disclosures made by `minimize_side`,
/// then by display order (deterministic).
pub fn choose_minimal(sequences: &[TrustSequence], minimize_side: Side) -> Option<&TrustSequence> {
    sequences
        .iter()
        .min_by_key(|s| (s.len(), s.by_side(minimize_side).count(), s.to_string()))
}

/// How to pick among multiple satisfiable views before the exchange phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Take the engine's first view (policy order) — what plain
    /// [`crate::engine::negotiate`] does.
    #[default]
    First,
    /// Fewest total disclosures.
    MinimalDisclosures,
    /// Fewest disclosures by the requester (privacy-favouring).
    MinimizeRequester,
    /// Fewest disclosures by the controller.
    MinimizeController,
}

/// Negotiate with explicit view selection: enumerate the satisfiable
/// views (bounded by `cap`), pick one per `policy`, then run the
/// credential exchange phase over it. Falls back to the plain engine for
/// [`SelectionPolicy::First`].
pub fn negotiate_with_selection(
    requester: &Party,
    controller: &Party,
    resource: &str,
    cfg: &NegotiationConfig,
    policy: SelectionPolicy,
    cap: usize,
) -> Result<crate::engine::NegotiationOutcome, crate::error::NegotiationError> {
    if policy == SelectionPolicy::First {
        return crate::engine::negotiate(requester, controller, resource, cfg);
    }
    let sequences = enumerate_sequences(requester, controller, resource, cfg, cap);
    let chosen = match policy {
        SelectionPolicy::First => unreachable!("handled above"),
        SelectionPolicy::MinimalDisclosures => {
            sequences.iter().min_by_key(|s| (s.len(), s.to_string()))
        }
        SelectionPolicy::MinimizeRequester => choose_minimal(&sequences, Side::Requester),
        SelectionPolicy::MinimizeController => choose_minimal(&sequences, Side::Controller),
    };
    let Some(chosen) = chosen else {
        return Err(crate::error::NegotiationError::NoTrustSequence {
            resource: resource.to_owned(),
        });
    };
    let phase = crate::engine::PolicyPhase::agreed(resource, chosen.clone());
    crate::engine::exchange_credentials(requester, controller, phase, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use trust_vo_credential::{CredentialAuthority, TimeRange, Timestamp};
    use trust_vo_policy::{DisclosurePolicy, Resource, Term};

    fn window() -> TimeRange {
        TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0))
    }

    fn at() -> Timestamp {
        Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0)
    }

    /// Controller accepts Quality OR (Sheet AND Member); requester holds
    /// all three, Quality gated on the controller's deliverable Accr.
    fn world() -> (Party, Party) {
        let mut ca = CredentialAuthority::new("CA");
        let mut requester = Party::new("R");
        let mut controller = Party::new("C");
        for ty in ["Quality", "Sheet", "Member"] {
            let cred = ca
                .issue(ty, "R", requester.keys.public, vec![], window())
                .unwrap();
            requester.profile.add(cred);
        }
        let accr = ca
            .issue("Accr", "C", controller.keys.public, vec![], window())
            .unwrap();
        controller.profile.add(accr);
        controller.policies.add(DisclosurePolicy::rule(
            "alt1",
            Resource::service("Svc"),
            vec![Term::of_type("Quality")],
        ));
        controller.policies.add(DisclosurePolicy::rule(
            "alt2",
            Resource::service("Svc"),
            vec![Term::of_type("Sheet"), Term::of_type("Member")],
        ));
        controller
            .policies
            .add(DisclosurePolicy::deliv("d", Resource::credential("Accr")));
        requester.policies.add(DisclosurePolicy::rule(
            "q",
            Resource::credential("Quality"),
            vec![Term::of_type("Accr")],
        ));
        requester.trust_root(ca.public_key());
        controller.trust_root(ca.public_key());
        (requester, controller)
    }

    #[test]
    fn enumerates_both_alternatives() {
        let (requester, controller) = world();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let seqs = enumerate_sequences(&requester, &controller, "Svc", &cfg, 100);
        assert_eq!(seqs.len(), 2);
        // Alternative 1: Accr then Quality (2 disclosures).
        assert_eq!(seqs[0].len(), 2);
        // Alternative 2: Sheet + Member (2 disclosures, no counter-req).
        assert_eq!(seqs[1].len(), 2);
    }

    #[test]
    fn cap_limits_enumeration() {
        let (requester, controller) = world();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let seqs = enumerate_sequences(&requester, &controller, "Svc", &cfg, 1);
        assert_eq!(seqs.len(), 1);
    }

    #[test]
    fn choose_minimal_prefers_fewer_requester_disclosures() {
        let (requester, controller) = world();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let seqs = enumerate_sequences(&requester, &controller, "Svc", &cfg, 100);
        // Both views need 2 disclosures; the quality route has only ONE
        // requester disclosure (Accr comes from the controller), so a
        // requester-minimizing selection picks it.
        let best = choose_minimal(&seqs, Side::Requester).unwrap();
        let requester_count = best.by_side(Side::Requester).count();
        for s in &seqs {
            assert!(requester_count <= s.by_side(Side::Requester).count());
        }
        assert_eq!(requester_count, 1);
    }

    #[test]
    fn unsatisfiable_resource_yields_nothing() {
        let (mut requester, controller) = world();
        for ty in ["Quality", "Sheet", "Member"] {
            let ids: Vec<_> = requester
                .profile
                .of_type(ty)
                .map(|c| c.id().clone())
                .collect();
            for id in ids {
                requester.profile.remove(&id);
            }
        }
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        assert!(enumerate_sequences(&requester, &controller, "Svc", &cfg, 100).is_empty());
    }

    #[test]
    fn ungoverned_resource_yields_one_empty_sequence() {
        let (requester, controller) = world();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let seqs = enumerate_sequences(&requester, &controller, "Public", &cfg, 100);
        assert_eq!(seqs.len(), 1);
        assert!(seqs[0].is_empty());
    }

    #[test]
    fn expired_candidates_skipped() {
        let (requester, controller) = world();
        let cfg = NegotiationConfig::new(Strategy::Standard, window().not_after.plus_days(10));
        assert!(enumerate_sequences(&requester, &controller, "Svc", &cfg, 100).is_empty());
    }
}

#[cfg(test)]
mod selection_tests {
    use super::*;
    use crate::strategy::Strategy;
    use trust_vo_credential::{CredentialAuthority, TimeRange, Timestamp};
    use trust_vo_policy::{DisclosurePolicy, Resource, Term};

    fn window() -> TimeRange {
        TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0))
    }

    fn at() -> Timestamp {
        Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0)
    }

    /// Alternative A costs the requester 2 disclosures; alternative B
    /// costs 1 (but the controller 1 as well, via a counter-requirement).
    fn world() -> (Party, Party) {
        let mut ca = CredentialAuthority::new("CA");
        let mut requester = Party::new("R");
        let mut controller = Party::new("C");
        for ty in ["Sheet", "Member", "Quality"] {
            let cred = ca
                .issue(ty, "R", requester.keys.public, vec![], window())
                .unwrap();
            requester.profile.add(cred);
        }
        let accr = ca
            .issue("Accr", "C", controller.keys.public, vec![], window())
            .unwrap();
        controller.profile.add(accr);
        controller.policies.add(DisclosurePolicy::rule(
            "two-cred-route",
            Resource::service("Svc"),
            vec![Term::of_type("Sheet"), Term::of_type("Member")],
        ));
        controller.policies.add(DisclosurePolicy::rule(
            "one-cred-route",
            Resource::service("Svc"),
            vec![Term::of_type("Quality")],
        ));
        controller
            .policies
            .add(DisclosurePolicy::deliv("d", Resource::credential("Accr")));
        requester.policies.add(DisclosurePolicy::rule(
            "q",
            Resource::credential("Quality"),
            vec![Term::of_type("Accr")],
        ));
        requester.trust_root(ca.public_key());
        controller.trust_root(ca.public_key());
        (requester, controller)
    }

    #[test]
    fn first_policy_matches_engine_order() {
        let (requester, controller) = world();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate_with_selection(
            &requester,
            &controller,
            "Svc",
            &cfg,
            SelectionPolicy::First,
            100,
        )
        .unwrap();
        // The engine tries "two-cred-route" first.
        assert_eq!(outcome.sequence.len(), 2);
        assert_eq!(outcome.sequence.by_side(Side::Requester).count(), 2);
    }

    #[test]
    fn minimize_requester_prefers_quality_route() {
        let (requester, controller) = world();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate_with_selection(
            &requester,
            &controller,
            "Svc",
            &cfg,
            SelectionPolicy::MinimizeRequester,
            100,
        )
        .unwrap();
        assert_eq!(outcome.sequence.by_side(Side::Requester).count(), 1);
        let types: Vec<_> = outcome
            .sequence
            .disclosures()
            .iter()
            .map(|d| d.cred_type.as_str())
            .collect();
        assert!(types.contains(&"Quality"));
    }

    #[test]
    fn minimize_controller_prefers_two_cred_route() {
        let (requester, controller) = world();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate_with_selection(
            &requester,
            &controller,
            "Svc",
            &cfg,
            SelectionPolicy::MinimizeController,
            100,
        )
        .unwrap();
        assert_eq!(outcome.sequence.by_side(Side::Controller).count(), 0);
    }

    #[test]
    fn minimal_disclosures_overall() {
        let (requester, controller) = world();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate_with_selection(
            &requester,
            &controller,
            "Svc",
            &cfg,
            SelectionPolicy::MinimalDisclosures,
            100,
        )
        .unwrap();
        // Both routes need 2 disclosures in total; any is acceptable, but
        // the exchange must succeed and verify everything.
        assert_eq!(outcome.sequence.len(), 2);
        assert_eq!(outcome.transcript.verifications, 2);
    }

    #[test]
    fn unsatisfiable_selection_errors() {
        let (mut requester, controller) = world();
        for ty in ["Sheet", "Member", "Quality"] {
            let ids: Vec<_> = requester
                .profile
                .of_type(ty)
                .map(|c| c.id().clone())
                .collect();
            for id in ids {
                requester.profile.remove(&id);
            }
        }
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let err = negotiate_with_selection(
            &requester,
            &controller,
            "Svc",
            &cfg,
            SelectionPolicy::MinimalDisclosures,
            100,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            crate::error::NegotiationError::NoTrustSequence { .. }
        ));
    }
}
