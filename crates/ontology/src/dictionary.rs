//! Dictionaries: lightweight name disambiguation (paper §4.3).
//!
//! "An interesting approach to address such issues is to employ ontologies
//! and/or dictionaries when conducting trust negotiations. … Dictionaries
//! have a more limited scope, but they are similar to ontologies, in that
//! they provide a way to disambiguate similar names and assign a clear
//! semantics to these names."
//!
//! A [`Dictionary`] maps aliases (synonyms, local naming-schema variants)
//! onto canonical concept names. It is consulted *before* the Jaccard
//! similarity fallback: an exact alias hit is cheaper and more precise
//! than fuzzy matching, and lets parties "employ local naming schemas,
//! without worrying about mapping issues".
//!
//! A dictionary holds only the aliases its owner registers. Nothing fills
//! it from mapping results, so it is not journaled: whoever builds it
//! rebuilds it after a restart.

use crate::graph::Ontology;
use crate::mapping::{map_concept, MappingOutcome};
use std::collections::BTreeMap;
use trust_vo_credential::XProfile;

/// A synonym table: alias → canonical concept name.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    aliases: BTreeMap<String, String>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an alias for a canonical name. Lookup is case- and
    /// separator-insensitive (`Balance_Sheet`, `balance-sheet`, and
    /// `BalanceSheet` normalize identically).
    pub fn alias(&mut self, alias: &str, canonical: impl Into<String>) {
        self.aliases.insert(normalize(alias), canonical.into());
    }

    /// Resolve an alias to its canonical name, if registered.
    pub fn resolve(&self, name: &str) -> Option<&str> {
        self.aliases.get(&normalize(name)).map(String::as_str)
    }

    /// Number of registered aliases.
    pub fn len(&self) -> usize {
        self.aliases.len()
    }

    /// True when no aliases are registered.
    pub fn is_empty(&self) -> bool {
        self.aliases.is_empty()
    }
}

/// Case- and separator-insensitive normal form.
fn normalize(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_alphanumeric())
        .flat_map(char::to_lowercase)
        .collect()
}

/// Algorithm 1 with a dictionary front-end: try the dictionary first; on a
/// hit, map the canonical name; otherwise fall back to plain
/// [`map_concept`] (direct lookup, then similarity).
pub fn map_concept_with_dictionary(
    ontology: &Ontology,
    dictionary: &Dictionary,
    profile: &XProfile,
    concept: &str,
    threshold: f64,
) -> MappingOutcome {
    if let Some(canonical) = dictionary.resolve(concept) {
        let outcome = map_concept(ontology, profile, canonical, threshold);
        // Report the original request name, not the canonical one.
        return match outcome {
            MappingOutcome::Mapped {
                via,
                credential,
                sensitivity,
                ..
            } => MappingOutcome::Mapped {
                concept: concept.to_owned(),
                via,
                credential,
                sensitivity,
            },
            MappingOutcome::NoCredential { resolved, .. } => MappingOutcome::NoCredential {
                concept: concept.to_owned(),
                resolved,
            },
            MappingOutcome::UnknownConcept {
                best_confidence, ..
            } => MappingOutcome::UnknownConcept {
                concept: concept.to_owned(),
                best_confidence,
            },
        };
    }
    map_concept(ontology, profile, concept, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::Concept;
    use trust_vo_credential::{Attribute, CredentialAuthority, TimeRange, Timestamp};
    use trust_vo_crypto::KeyPair;

    fn setup() -> (Ontology, Dictionary, XProfile) {
        let mut o = Ontology::new();
        o.add(Concept::new("BalanceSheet").implemented_by("CertificationAuthorityCompany"));
        let mut d = Dictionary::new();
        d.alias("Bilancio", "BalanceSheet");
        d.alias("financial_statement", "BalanceSheet");
        let mut ca = CredentialAuthority::new("BBB");
        let keys = KeyPair::from_seed(b"holder");
        let mut p = XProfile::new("holder");
        p.add(
            ca.issue(
                "CertificationAuthorityCompany",
                "holder",
                keys.public,
                vec![Attribute::new("Issuer", "BBB")],
                TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0)),
            )
            .unwrap(),
        );
        (o, d, p)
    }

    #[test]
    fn alias_resolution_is_separator_insensitive() {
        let (_, d, _) = setup();
        assert_eq!(d.resolve("Bilancio"), Some("BalanceSheet"));
        assert_eq!(d.resolve("bilancio"), Some("BalanceSheet"));
        assert_eq!(d.resolve("Financial-Statement"), Some("BalanceSheet"));
        assert_eq!(d.resolve("FINANCIAL_STATEMENT"), Some("BalanceSheet"));
        assert_eq!(d.resolve("Unknown"), None);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn dictionary_hit_maps_to_credential() {
        let (o, d, p) = setup();
        // "Bilancio" shares zero tokens with "BalanceSheet" — pure
        // similarity matching could never resolve it; the dictionary does.
        let out = map_concept_with_dictionary(&o, &d, &p, "Bilancio", 0.25);
        match out {
            MappingOutcome::Mapped {
                concept,
                credential,
                ..
            } => {
                assert_eq!(concept, "Bilancio");
                assert!(p.get(&credential).is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Without the dictionary, the same request is unknown.
        let out = map_concept(&o, &p, "Bilancio", 0.25);
        assert!(matches!(out, MappingOutcome::UnknownConcept { .. }));
    }

    #[test]
    fn fallback_to_plain_mapping_when_no_alias() {
        let (o, d, p) = setup();
        let out = map_concept_with_dictionary(&o, &d, &p, "BalanceSheet", 0.25);
        assert!(out.is_mapped());
    }

    #[test]
    fn alias_to_unknown_concept_reports_unknown() {
        let (o, mut d, p) = setup();
        d.alias("Ghost", "NonexistentConcept");
        let out = map_concept_with_dictionary(&o, &d, &p, "Ghost", 0.9);
        match out {
            MappingOutcome::UnknownConcept { concept, .. } => assert_eq!(concept, "Ghost"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
