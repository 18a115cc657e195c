//! Algorithm 1: mapping policy concepts onto local credentials.
//!
//! "Given a certain policy, expressed in terms of concepts and related
//! conditions over them, the algorithm first searches the required concept
//! in the local ontology. If the concept does not belong to the ontology, a
//! similar concept is determined … by using the similarity matching
//! algorithm. Once the concept of interest is identified, the algorithm
//! determines the corresponding credential to be sent to the counterpart.
//! In case more than one credential is available … the selection occurs
//! based on the credentials' ownership … and its sensitivity." (§4.3.1)
//!
//! The sensitivity selection is the paper's `CredCluster` cascade: probe
//! the **low** cluster, then **medium**, then **high**, returning the first
//! held credential found.
//!
//! Every call runs the algorithm; no outcome is kept between calls. A
//! fallback costs one indexed scan, and no workload asks the same
//! question twice of an unchanged ontology and profile (DESIGN.md §4b).

use crate::graph::Ontology;
use crate::matcher::{best_local_match, ConceptMatch};
use crate::stats;
use trust_vo_credential::{CredentialId, Sensitivity, XProfile};

/// The result of mapping one requested concept.
#[derive(Debug, Clone, PartialEq)]
pub enum MappingOutcome {
    /// A credential was found for the concept.
    Mapped {
        /// The concept as requested by the counterpart.
        concept: String,
        /// The similarity match used, if the concept was not local
        /// (`None` when the concept was found directly).
        via: Option<ConceptMatch>,
        /// The selected credential.
        credential: CredentialId,
        /// Its sensitivity label (the cluster it came from).
        sensitivity: Sensitivity,
    },
    /// The concept resolved to a local concept, but the party holds no
    /// credential implementing it.
    NoCredential {
        /// The concept as requested.
        concept: String,
        /// The local concept it resolved to.
        resolved: String,
    },
    /// No local concept reached the similarity threshold.
    UnknownConcept {
        /// The concept as requested.
        concept: String,
        /// The best (sub-threshold) confidence observed, for diagnostics.
        best_confidence: f64,
    },
}

impl MappingOutcome {
    /// The selected credential id, if mapping succeeded.
    pub fn credential(&self) -> Option<&CredentialId> {
        match self {
            MappingOutcome::Mapped { credential, .. } => Some(credential),
            _ => None,
        }
    }

    /// Did the mapping succeed?
    pub fn is_mapped(&self) -> bool {
        matches!(self, MappingOutcome::Mapped { .. })
    }
}

/// Map one concept (Algorithm 1's inner loop body) against the
/// ontology's `ConceptIndex`: direct lookup, one indexed similarity scan
/// as the fallback, closure-backed `is_a` inference, and the
/// `CredCluster` low→high sensitivity probe.
pub fn map_concept(
    ontology: &Ontology,
    profile: &XProfile,
    concept: &str,
    threshold: f64,
) -> MappingOutcome {
    // Line 3: `if Cᵢ ∈ CSet` — direct lookup first.
    let (resolved, via) = if ontology.contains(concept) {
        stats::DIRECT_HITS.inc();
        (concept.to_owned(), None)
    } else {
        // Lines 20–29: similarity fallback, one indexed scan. The best
        // sub-threshold confidence for the `UnknownConcept` diagnostics
        // comes from the same pass — the seed ran the whole O(concepts)
        // scan a second time to recover it.
        match best_local_match(concept, ontology) {
            Some(m) if m.confidence >= threshold && m.confidence > 0.0 => {
                (m.target.clone(), Some(m))
            }
            best => {
                return MappingOutcome::UnknownConcept {
                    concept: concept.to_owned(),
                    best_confidence: best.map(|m| m.confidence).unwrap_or(0.0),
                }
            }
        }
    };
    // Lines 4–18: collect the credentials associated with the concept
    // (is_a inference included) and probe sensitivity clusters low→high.
    let types = ontology.credential_types_for(&resolved);
    let candidates: Vec<CredentialId> = profile
        .credentials()
        .iter()
        .filter(|c| types.contains(c.cred_type()))
        .map(|c| c.id().clone())
        .collect();
    for level in Sensitivity::ALL {
        if let Some(cred) = profile.cred_cluster(&candidates, level).next() {
            return MappingOutcome::Mapped {
                concept: concept.to_owned(),
                via,
                credential: cred.id().clone(),
                sensitivity: level,
            };
        }
    }
    MappingOutcome::NoCredential {
        concept: concept.to_owned(),
        resolved,
    }
}

/// Algorithm 1 proper: map every concept of a policy.
pub fn map_policy_concepts(
    ontology: &Ontology,
    profile: &XProfile,
    concepts: &[String],
    threshold: f64,
) -> Vec<MappingOutcome> {
    concepts
        .iter()
        .map(|c| map_concept(ontology, profile, c, threshold))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::Concept;
    use trust_vo_credential::{Attribute, CredentialAuthority, TimeRange, Timestamp};
    use trust_vo_crypto::KeyPair;

    fn window() -> TimeRange {
        TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0))
    }

    fn setup() -> (Ontology, XProfile, Vec<CredentialId>) {
        let mut o = Ontology::new();
        o.add(
            Concept::new("QualityCertification")
                .keyword("ISO 9000")
                .implemented_by("ISO9000Certified"),
        );
        o.add(Concept::new("BalanceSheet").implemented_by("CertificationAuthorityCompany"));
        o.add(Concept::new("BusinessProof"));
        o.add(Concept::new("Identity"));
        assert!(o.add_is_a("BalanceSheet", "BusinessProof"));

        let mut ca = CredentialAuthority::new("INFN");
        let keys = KeyPair::from_seed(b"aerospace");
        let mut profile = XProfile::new("Aerospace");
        let mut ids = Vec::new();
        let iso = ca
            .issue(
                "ISO9000Certified",
                "Aerospace",
                keys.public,
                vec![Attribute::new("QualityRegulation", "UNI EN ISO 9000")],
                window(),
            )
            .unwrap();
        ids.push(iso.id().clone());
        profile.add_with_sensitivity(iso, Sensitivity::Low);
        let sheet = ca
            .issue(
                "CertificationAuthorityCompany",
                "Aerospace",
                keys.public,
                vec![Attribute::new("Issuer", "BBB")],
                window(),
            )
            .unwrap();
        ids.push(sheet.id().clone());
        profile.add_with_sensitivity(sheet, Sensitivity::High);
        (o, profile, ids)
    }

    #[test]
    fn direct_concept_maps_to_credential() {
        let (o, p, ids) = setup();
        let out = map_concept(&o, &p, "QualityCertification", 0.4);
        match out {
            MappingOutcome::Mapped {
                credential,
                via,
                sensitivity,
                ..
            } => {
                assert_eq!(credential, ids[0]);
                assert!(via.is_none());
                assert_eq!(sensitivity, Sensitivity::Low);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn similarity_fallback_resolves_foreign_name() {
        let (o, p, ids) = setup();
        // Foreign naming schema: "Quality_Certification_ISO9000".
        let out = map_concept(&o, &p, "Quality_Certification_ISO9000", 0.3);
        match out {
            MappingOutcome::Mapped {
                credential, via, ..
            } => {
                assert_eq!(credential, ids[0]);
                let via = via.expect("similarity used");
                assert_eq!(via.target, "QualityCertification");
                assert!(via.confidence >= 0.3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn is_a_inference_satisfies_parent_concept() {
        let (o, p, ids) = setup();
        // BusinessProof has no direct bindings, but BalanceSheet is_a
        // BusinessProof and the profile holds a balance-sheet credential.
        let out = map_concept(&o, &p, "BusinessProof", 0.4);
        assert_eq!(out.credential(), Some(&ids[1]));
    }

    #[test]
    fn least_sensitive_credential_preferred() {
        let (o, mut p, _) = setup();
        // Add a second, low-sensitivity balance sheet; it should win over
        // the high-sensitivity one.
        let mut ca = CredentialAuthority::new("BBB");
        let keys = KeyPair::from_seed(b"aerospace");
        let low = ca
            .issue(
                "CertificationAuthorityCompany",
                "Aerospace",
                keys.public,
                vec![Attribute::new("Issuer", "BBB")],
                window(),
            )
            .unwrap();
        let low_id = low.id().clone();
        p.add_with_sensitivity(low, Sensitivity::Low);
        let out = map_concept(&o, &p, "BalanceSheet", 0.4);
        match out {
            MappingOutcome::Mapped {
                credential,
                sensitivity,
                ..
            } => {
                assert_eq!(credential, low_id);
                assert_eq!(sensitivity, Sensitivity::Low);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn concept_without_credential_reports_no_credential() {
        let (o, p, _) = setup();
        let out = map_concept(&o, &p, "Identity", 0.4);
        assert_eq!(
            out,
            MappingOutcome::NoCredential {
                concept: "Identity".into(),
                resolved: "Identity".into()
            }
        );
    }

    #[test]
    fn unknown_concept_reports_best_confidence() {
        let (o, p, _) = setup();
        let out = map_concept(&o, &p, "Xylophone", 0.4);
        match out {
            MappingOutcome::UnknownConcept {
                best_confidence, ..
            } => {
                assert!(best_confidence < 0.4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mapping_never_returns_unheld_credential() {
        let (o, p, _) = setup();
        for concept in [
            "QualityCertification",
            "BalanceSheet",
            "BusinessProof",
            "Identity",
        ] {
            if let Some(id) = map_concept(&o, &p, concept, 0.3).credential() {
                assert!(
                    p.get(id).is_some(),
                    "returned a credential not in the profile"
                );
            }
        }
    }

    #[test]
    fn policy_level_mapping_preserves_order() {
        let (o, p, _) = setup();
        let outs = map_policy_concepts(
            &o,
            &p,
            &["QualityCertification".into(), "Identity".into()],
            0.4,
        );
        assert_eq!(outs.len(), 2);
        assert!(outs[0].is_mapped());
        assert!(!outs[1].is_mapped());
    }
}
