//! Compliance checking: does an X-Profile satisfy a term?
//!
//! During the policy evaluation phase "the receiving party verifies whether
//! its χ-Profile satisfies the conditions stated by the policies" (§4.2).
//! For plain typed/variable terms this is direct matching; for concept
//! terms the receiver first resolves the concept through its ontology
//! (Algorithm 1) and then checks the mapped credential against the term's
//! conditions.

use crate::term::{CredentialSpec, Term};
use trust_vo_credential::{Credential, XProfile};
use trust_vo_ontology::Ontology;

/// Default similarity threshold for concept resolution, matching the
/// confidence floor used throughout the workspace.
pub const DEFAULT_SIMILARITY_THRESHOLD: f64 = 0.25;

/// All credentials in `profile` that satisfy `term`.
///
/// For concept terms, resolution goes through `ontology` (when provided):
/// the mapped credential is checked against the term's conditions; per
/// Algorithm 1 a single best credential is selected, so the result has at
/// most one element in that case.
pub fn satisfying_credentials<'a>(
    term: &Term,
    profile: &'a XProfile,
    ontology: Option<&Ontology>,
) -> Vec<&'a Credential> {
    match &term.spec {
        CredentialSpec::Type(_) | CredentialSpec::Variable => profile
            .credentials()
            .iter()
            .filter(|c| term.matches_credential(c))
            .collect(),
        CredentialSpec::Concept(name) => {
            let Some(ontology) = ontology else {
                return Vec::new();
            };
            // Resolve the concept as Algorithm 1 does (direct lookup, then
            // one indexed similarity scan — the ontology's inverted token
            // index makes this O(candidates), not O(concepts)). Unlike
            // `map_concept`, the result depends on the term's conditions …
            let resolved = if ontology.contains(name) {
                name.clone()
            } else {
                match trust_vo_ontology::match_concept(name, ontology, DEFAULT_SIMILARITY_THRESHOLD)
                {
                    Some(m) => m.target,
                    None => return Vec::new(),
                }
            };
            // … then select among the bound credentials, but filter by the
            // term's conditions *before* the sensitivity clustering, so a
            // conditioned concept term is satisfied by the least-sensitive
            // credential that actually meets the conditions.
            let types = ontology.credential_types_for(&resolved);
            let mut candidates: Vec<&Credential> = profile
                .credentials()
                .iter()
                .filter(|c| types.contains(c.cred_type()))
                .filter(|c| term.conditions.iter().all(|cond| cond.holds_for(c)))
                .collect();
            candidates.sort_by_key(|&c| (profile.sensitivity_of(c.id()), c.id()));
            candidates
        }
    }
}

/// Is the term satisfiable from `profile` at all?
pub fn term_satisfied(term: &Term, profile: &XProfile, ontology: Option<&Ontology>) -> bool {
    !satisfying_credentials(term, profile, ontology).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trust_vo_credential::{Attribute, CredentialAuthority, Sensitivity, TimeRange, Timestamp};
    use trust_vo_crypto::KeyPair;
    use trust_vo_ontology::Concept;

    fn window() -> TimeRange {
        TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0))
    }

    fn profile() -> XProfile {
        let mut ca = CredentialAuthority::new("INFN");
        let keys = KeyPair::from_seed(b"aero");
        let mut p = XProfile::new("Aerospace");
        p.add(
            ca.issue(
                "ISO9000Certified",
                "Aerospace",
                keys.public,
                vec![Attribute::new("QualityRegulation", "UNI EN ISO 9000")],
                window(),
            )
            .unwrap(),
        );
        p.add_with_sensitivity(
            ca.issue(
                "CertificationAuthorityCompany",
                "Aerospace",
                keys.public,
                vec![Attribute::new("Issuer", "BBB")],
                window(),
            )
            .unwrap(),
            Sensitivity::Medium,
        );
        p
    }

    fn ontology() -> Ontology {
        let mut o = Ontology::new();
        o.add(
            Concept::new("QualityCertification")
                .keyword("ISO")
                .implemented_by("ISO9000Certified"),
        );
        o.add(Concept::new("BalanceSheet").implemented_by("CertificationAuthorityCompany"));
        o
    }

    #[test]
    fn typed_term_finds_credential() {
        let t = Term::of_type("ISO9000Certified");
        assert!(term_satisfied(&t, &profile(), None));
        assert_eq!(satisfying_credentials(&t, &profile(), None).len(), 1);
    }

    #[test]
    fn typed_term_with_failing_condition() {
        let t = Term::of_type("ISO9000Certified").where_attr("QualityRegulation", "ISO 14000");
        assert!(!term_satisfied(&t, &profile(), None));
    }

    #[test]
    fn variable_term_scans_all_credentials() {
        let t = Term::variable().where_attr("Issuer", "BBB");
        let profile = profile();
        let found = satisfying_credentials(&t, &profile, None);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].cred_type(), "CertificationAuthorityCompany");
    }

    #[test]
    fn concept_term_requires_ontology() {
        let t = Term::of_concept("QualityCertification");
        assert!(!term_satisfied(&t, &profile(), None));
        assert!(term_satisfied(&t, &profile(), Some(&ontology())));
    }

    #[test]
    fn concept_term_resolves_via_mapping() {
        // The paper's §5 example: the policy `VoMembership <-
        // WebDesignerQuality {UNI EN ISO 9000}` is mapped by the receiver
        // onto its local ISO credential.
        let t = Term::of_concept("Quality_Certification_ISO")
            .where_attr("QualityRegulation", "UNI EN ISO 9000");
        let profile = profile();
        let ontology = ontology();
        let found = satisfying_credentials(&t, &profile, Some(&ontology));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].cred_type(), "ISO9000Certified");
    }

    #[test]
    fn concept_term_conditions_still_enforced() {
        let t = Term::of_concept("QualityCertification").where_attr("QualityRegulation", "WRONG");
        assert!(!term_satisfied(&t, &profile(), Some(&ontology())));
    }

    #[test]
    fn unknown_concept_unsatisfied() {
        let t = Term::of_concept("Xylophone");
        assert!(!term_satisfied(&t, &profile(), Some(&ontology())));
    }
}
