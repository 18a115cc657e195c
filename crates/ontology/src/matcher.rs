//! Cross-ontology concept matching (the Falcon-AO / GLUE substitute).
//!
//! "Given ontologies O₁ and O₂, an ontology matching algorithm takes O₁ and
//! O₂ as input and returns a mapping M between the two ontologies. The
//! mapping contains for each concept Cᵢ in ontology O₁ a matching concept
//! Cⱼ in O₂ along with a confidence measure m, that is, a value between 0
//! and 1. … The concept with higher similarity score is the one selected.
//! This is achieved by taking C and matching it with every concept in
//! ontology O₂." (§4.3.1)

use crate::concept::tokenize_into;
use crate::graph::Ontology;
use crate::similarity::{compute_similarity, name_similarity};
use crate::stats;
use std::collections::BTreeSet;

/// One entry of an ontology mapping: a source concept matched to a target
/// concept with a confidence in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConceptMatch {
    /// The source concept name (from the counterpart policy / ontology).
    pub source: String,
    /// The best-matching local concept name.
    pub target: String,
    /// The similarity score.
    pub confidence: f64,
}

/// Match a single foreign concept name against every local concept and
/// return the argmax, provided it reaches `threshold`.
///
/// This is the fallback branch of Algorithm 1 (lines 20–29): "the
/// negotiator … can compute the mapping according to a matching algorithm,
/// and resolve the ambiguity". Scoring goes through the inverted token
/// index (`crate::index`), which only scores concepts sharing ≥ 1 token
/// with the query — byte-identical outcomes to
/// [`match_concept_reference`], measurably faster on large ontologies.
pub fn match_concept(name: &str, local: &Ontology, threshold: f64) -> Option<ConceptMatch> {
    best_local_match(name, local).filter(|m| m.confidence >= threshold && m.confidence > 0.0)
}

/// The unfiltered similarity argmax of `name` over `local` — one indexed
/// scan, no threshold. Returns `None` only when `local` is empty.
///
/// This is the single-scan primitive behind [`match_concept`] and the
/// `UnknownConcept` diagnostics of [`crate::map_concept`]: the best sub-threshold
/// confidence comes from the same pass that computed the argmax, where
/// the seed ran the full scan a second time just to report it.
pub fn best_local_match(name: &str, local: &Ontology) -> Option<ConceptMatch> {
    let index = local.index();
    let mut tokens = BTreeSet::new();
    tokenize_into(name, &mut tokens);
    stats::SIMILARITY_SCANS.inc();
    let (id, confidence) = index.best_match(&tokens)?;
    Some(ConceptMatch {
        source: name.to_owned(),
        target: index.name(id).to_owned(),
        confidence,
    })
}

/// The seed's naive scan, retained verbatim as the differential oracle
/// for the indexed path: re-tokenizes every concept and scores all of
/// them. Must return byte-identical results to [`match_concept`].
pub fn match_concept_reference(
    name: &str,
    local: &Ontology,
    threshold: f64,
) -> Option<ConceptMatch> {
    stats::REFERENCE_SCANS.inc();
    let mut best: Option<ConceptMatch> = None;
    for concept in local.concepts() {
        let score = name_similarity(name, concept);
        let better = match &best {
            None => true,
            Some(b) => score > b.confidence || (score == b.confidence && concept.name < b.target),
        };
        if better {
            best = Some(ConceptMatch {
                source: name.to_owned(),
                target: concept.name.clone(),
                confidence: score,
            });
        }
    }
    best.filter(|m| m.confidence >= threshold && m.confidence > 0.0)
}

/// Match every concept of `source` against `target`, returning the best
/// match per source concept (no threshold — callers filter by confidence).
/// Each source concept is one indexed query against `target`.
pub fn match_ontologies(source: &Ontology, target: &Ontology) -> Vec<ConceptMatch> {
    let index = target.index();
    let mut out = Vec::with_capacity(source.len());
    for sc in source.concepts() {
        stats::SIMILARITY_SCANS.inc();
        if let Some((id, confidence)) = index.best_match(&sc.feature_tokens()) {
            out.push(ConceptMatch {
                source: sc.name.clone(),
                target: index.name(id).to_owned(),
                confidence,
            });
        }
    }
    out
}

/// The seed's all-pairs cross-ontology scan, retained as the
/// differential oracle for [`match_ontologies`].
pub fn match_ontologies_reference(source: &Ontology, target: &Ontology) -> Vec<ConceptMatch> {
    let mut out = Vec::with_capacity(source.len());
    for sc in source.concepts() {
        stats::REFERENCE_SCANS.inc();
        let mut best: Option<ConceptMatch> = None;
        for tc in target.concepts() {
            let score = compute_similarity(sc, tc);
            let better = match &best {
                None => true,
                Some(b) => score > b.confidence || (score == b.confidence && tc.name < b.target),
            };
            if better {
                best = Some(ConceptMatch {
                    source: sc.name.clone(),
                    target: tc.name.clone(),
                    confidence: score,
                });
            }
        }
        if let Some(m) = best {
            out.push(m);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::Concept;

    fn local() -> Ontology {
        let mut o = Ontology::new();
        o.add(
            Concept::new("QualityCertification")
                .keyword("ISO 9000")
                .implemented_by("ISO9000Certified.QualityRegulation"),
        );
        o.add(Concept::new("BalanceSheet").implemented_by("CertificationAuthorityCompany.Issuer"));
        o.add(Concept::new("StorageCapacity").implemented_by("StorageSLA.Capacity"));
        o
    }

    #[test]
    fn exact_name_matches_with_high_confidence() {
        let m = match_concept("QualityCertification", &local(), 0.25).unwrap();
        assert_eq!(m.target, "QualityCertification");
        // Keywords and bindings dilute the Jaccard union, so an exact name
        // match on a richly-annotated concept still scores well below 1.
        assert!(m.confidence > 0.25, "{}", m.confidence);
    }

    #[test]
    fn paraphrase_matches_best_concept() {
        let m = match_concept("Quality_ISO_Certification", &local(), 0.2).unwrap();
        assert_eq!(m.target, "QualityCertification");
    }

    #[test]
    fn below_threshold_returns_none() {
        assert!(match_concept("CompletelyDifferentThing", &local(), 0.5).is_none());
    }

    #[test]
    fn zero_similarity_never_matches_even_with_zero_threshold() {
        assert!(match_concept("Zzz", &local(), 0.0).is_none());
    }

    #[test]
    fn empty_ontology_matches_nothing() {
        assert!(match_concept("QualityCertification", &Ontology::new(), 0.0).is_none());
    }

    #[test]
    fn ontology_mapping_covers_every_source_concept() {
        let mut foreign = Ontology::new();
        foreign.add(Concept::new("Quality_Certification").keyword("ISO"));
        foreign.add(Concept::new("Balance_Sheet"));
        let mapping = match_ontologies(&foreign, &local());
        assert_eq!(mapping.len(), 2);
        let quality = mapping
            .iter()
            .find(|m| m.source == "Quality_Certification")
            .unwrap();
        assert_eq!(quality.target, "QualityCertification");
        let balance = mapping
            .iter()
            .find(|m| m.source == "Balance_Sheet")
            .unwrap();
        assert_eq!(balance.target, "BalanceSheet");
        for m in &mapping {
            assert!((0.0..=1.0).contains(&m.confidence));
        }
    }

    #[test]
    fn tie_breaks_are_deterministic() {
        let mut o = Ontology::new();
        o.add(Concept::new("AlphaThing"));
        o.add(Concept::new("BetaThing"));
        // "Thing" ties between the two; lexicographically smaller name wins.
        let m = match_concept("Thing", &o, 0.0).unwrap();
        assert_eq!(m.target, "AlphaThing");
    }
}
