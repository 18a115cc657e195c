//! Regression: the `UnknownConcept` path must run exactly ONE similarity
//! scan. The seed ran the full O(concepts) scan twice — once for the
//! argmax, once more to recover the best sub-threshold confidence for
//! diagnostics.
//!
//! This file deliberately holds a single `#[test]`: the assertion reads
//! process-global `ontology.*` counters, and a sibling test in the same
//! binary would race the delta.

use trust_vo_credential::XProfile;
use trust_vo_ontology::{map_concept, stats, Concept, MappingOutcome, Ontology};

#[test]
fn unknown_concept_runs_exactly_one_scan() {
    let mut o = Ontology::new();
    o.add(Concept::new("QualityCertification").keyword("ISO 9000"));
    o.add(Concept::new("BalanceSheet"));
    let p = XProfile::new("ScanParty");
    o.is_subconcept("BalanceSheet", "BalanceSheet"); // force the index build

    let before = stats::snapshot();
    let out = map_concept(&o, &p, "QualityAssessment", 0.9);
    let after = stats::snapshot();

    assert!(
        matches!(out, MappingOutcome::UnknownConcept { best_confidence, .. } if best_confidence > 0.0),
        "expected a sub-threshold miss with diagnostics, got {out:?}"
    );
    assert_eq!(
        after.similarity_scans,
        before.similarity_scans + 1,
        "UnknownConcept must cost exactly one similarity scan"
    );
    assert_eq!(after.reference_scans, before.reference_scans);
    assert_eq!(after.direct_hits, before.direct_hits);
}
