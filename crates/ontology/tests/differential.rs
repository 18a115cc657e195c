//! Differential tests: the indexed engine must be outcome-identical to
//! the retained naive reference scans, over random ontologies, queries,
//! thresholds, and profiles. These are the tentpole's oracle — any
//! divergence between `match_concept` and `match_concept_reference` (or
//! between `map_concept` and the naive Algorithm 1 reimplemented here
//! from the reference primitives) is a bug in the index.

use proptest::prelude::*;
use std::collections::BTreeSet;
use trust_vo_credential::{
    Attribute, CredentialAuthority, Sensitivity, TimeRange, Timestamp, XProfile,
};
use trust_vo_crypto::KeyPair;
use trust_vo_ontology::similarity::name_similarity;
use trust_vo_ontology::{
    map_concept, match_concept, match_concept_reference, match_ontologies,
    match_ontologies_reference, Concept, MappingOutcome, Ontology,
};

/// A small shared vocabulary so random names collide, tie, and partially
/// overlap — the regimes where the index's argmax must agree exactly.
const WORDS: &[&str] = &[
    "quality", "iso", "9000", "cert", "license", "driver", "texas", "balance", "sheet", "storage",
    "web", "designer", "sla", "x509",
];

const THRESHOLDS: &[f64] = &[0.0, 0.1, 0.25, 0.5, 1.0];

fn camel(words: &[&str]) -> String {
    words
        .iter()
        .map(|w| {
            let mut chars = w.chars();
            match chars.next() {
                Some(first) => first.to_uppercase().chain(chars).collect::<String>(),
                None => String::new(),
            }
        })
        .collect()
}

fn arb_words(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(0usize..WORDS.len(), len)
        .prop_map(|ixs| ixs.into_iter().map(|i| WORDS[i]).collect())
}

#[derive(Debug, Clone)]
struct ConceptSpec {
    name_words: Vec<&'static str>,
    keyword_words: Vec<&'static str>,
    bindings: Vec<(u8, bool)>,
}

fn arb_concept() -> impl Strategy<Value = ConceptSpec> {
    (
        arb_words(1..=3),
        arb_words(0..=2),
        prop::collection::vec((0u8..6, any::<bool>()), 0..=2),
    )
        .prop_map(|(name_words, keyword_words, bindings)| ConceptSpec {
            name_words,
            keyword_words,
            bindings,
        })
}

#[derive(Debug, Clone)]
struct OntologySpec {
    concepts: Vec<ConceptSpec>,
    /// `is_a` edge attempts as index pairs; rejected edges are fine.
    edges: Vec<(usize, usize)>,
}

fn arb_ontology() -> impl Strategy<Value = OntologySpec> {
    (
        prop::collection::vec(arb_concept(), 0..=12),
        prop::collection::vec((0usize..12, 0usize..12), 0..=10),
    )
        .prop_map(|(concepts, edges)| OntologySpec { concepts, edges })
}

fn build_ontology(spec: &OntologySpec) -> Ontology {
    let mut o = Ontology::new();
    for c in &spec.concepts {
        let mut concept = Concept::new(camel(&c.name_words));
        if !c.keyword_words.is_empty() {
            concept = concept.keyword(c.keyword_words.join(" "));
        }
        for &(ty, whole) in &c.bindings {
            let binding = if whole {
                format!("Type{ty}")
            } else {
                format!("Type{ty}.Attr{ty}")
            };
            concept = concept.implemented_by(&binding);
        }
        o.add(concept);
    }
    let names: Vec<String> = o.concepts().map(|c| c.name.clone()).collect();
    if !names.is_empty() {
        for &(a, b) in &spec.edges {
            o.add_is_a(&names[a % names.len()], &names[b % names.len()]);
        }
    }
    o
}

fn arb_query() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_words(1..=3).prop_map(|ws| camel(&ws)),
        arb_words(1..=3).prop_map(|ws| ws.join("_")),
        Just(String::new()),
        Just("###".to_owned()),
        Just("Zzz".to_owned()),
    ]
}

fn build_profile(held: &[(u8, u8)]) -> XProfile {
    let mut ca = CredentialAuthority::new("DiffCA");
    let keys = KeyPair::from_seed(b"differential");
    let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
    let mut profile = XProfile::new("DiffParty");
    for &(ty, level) in held {
        let cred = ca
            .issue(
                &format!("Type{ty}"),
                "DiffParty",
                keys.public,
                vec![Attribute::new(format!("Attr{ty}"), "v")],
                window,
            )
            .expect("open schema");
        let label = match level % 3 {
            0 => Sensitivity::Low,
            1 => Sensitivity::Medium,
            _ => Sensitivity::High,
        };
        profile.add_with_sensitivity(cred, label);
    }
    profile
}

/// The seed's Algorithm 1, reassembled from the naive reference
/// primitives only (`match_concept_reference`, `ancestors`-based
/// subsumption, a second full scan for the sub-threshold diagnostic).
fn map_concept_naive(o: &Ontology, p: &XProfile, concept: &str, threshold: f64) -> MappingOutcome {
    let (resolved, via) = if o.contains(concept) {
        (concept.to_owned(), None)
    } else {
        match match_concept_reference(concept, o, threshold) {
            Some(m) => (m.target.clone(), Some(m)),
            None => {
                let best_confidence = o
                    .concepts()
                    .map(|c| name_similarity(concept, c))
                    .fold(0.0f64, f64::max);
                return MappingOutcome::UnknownConcept {
                    concept: concept.to_owned(),
                    best_confidence,
                };
            }
        }
    };
    let mut types: BTreeSet<&str> = BTreeSet::new();
    for c in o.concepts() {
        if c.name == resolved || o.ancestors(&c.name).contains(&resolved.as_str()) {
            types.extend(c.credential_types());
        }
    }
    let candidates: Vec<_> = p
        .credentials()
        .iter()
        .filter(|c| types.contains(c.cred_type()))
        .map(|c| c.id().clone())
        .collect();
    for level in Sensitivity::ALL {
        if let Some(cred) = p.cred_cluster(&candidates, level).next() {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_match_equals_naive_reference(
        spec in arb_ontology(),
        queries in prop::collection::vec(arb_query(), 1..8),
        t_idx in 0usize..THRESHOLDS.len(),
    ) {
        let o = build_ontology(&spec);
        let threshold = THRESHOLDS[t_idx];
        for q in &queries {
            let indexed = match_concept(q, &o, threshold);
            let naive = match_concept_reference(q, &o, threshold);
            prop_assert_eq!(indexed, naive, "query {:?} threshold {}", q, threshold);
        }
    }

    #[test]
    fn indexed_cross_match_equals_naive_reference(
        source in arb_ontology(),
        target in arb_ontology(),
    ) {
        let source = build_ontology(&source);
        let target = build_ontology(&target);
        prop_assert_eq!(
            match_ontologies(&source, &target),
            match_ontologies_reference(&source, &target)
        );
    }

    #[test]
    fn closure_subsumption_equals_bfs_oracle(spec in arb_ontology()) {
        let o = build_ontology(&spec);
        let mut names: Vec<String> = o.concepts().map(|c| c.name.clone()).collect();
        names.push("Ghost".to_owned()); // absent endpoint: always false
        for child in &names {
            for ancestor in &names {
                let oracle = (child == ancestor && o.contains(child))
                    || o.ancestors(child).contains(&ancestor.as_str());
                prop_assert_eq!(
                    o.is_subconcept(child, ancestor),
                    oracle,
                    "{} is_a {}",
                    child,
                    ancestor
                );
            }
        }
    }

    #[test]
    fn engine_mapping_equals_naive_algorithm1(
        spec in arb_ontology(),
        held in prop::collection::vec((0u8..6, 0u8..3), 0..=5),
        queries in prop::collection::vec(arb_query(), 1..6),
        t_idx in 0usize..THRESHOLDS.len(),
    ) {
        let o = build_ontology(&spec);
        let p = build_profile(&held);
        let threshold = THRESHOLDS[t_idx];
        for q in &queries {
            let engine = map_concept(&o, &p, q, threshold);
            let naive = map_concept_naive(&o, &p, q, threshold);
            prop_assert_eq!(&engine, &naive, "query {:?} threshold {}", q, threshold);
            // Second call is a memo hit (when enabled) — byte-identical.
            prop_assert_eq!(&map_concept(&o, &p, q, threshold), &naive);
        }
    }
}

#[test]
fn empty_and_tokenless_edge_cases_agree() {
    // The naive scan scores empty-token concepts 1.0 against empty
    // queries (jaccard(∅, ∅) = 1) and 0.0 against everything else; the
    // index special-cases both. Pin the equivalence explicitly.
    let empty = Ontology::new();
    assert_eq!(
        match_concept("anything", &empty, 0.0),
        match_concept_reference("anything", &empty, 0.0)
    );
    let mut o = Ontology::new();
    o.add(Concept::new("_")); // tokenizes to the empty set
    o.add(Concept::new("Quality"));
    for query in ["", "###", "_", "Quality", "quality_iso"] {
        for &threshold in THRESHOLDS {
            assert_eq!(
                match_concept(query, &o, threshold),
                match_concept_reference(query, &o, threshold),
                "query {query:?} threshold {threshold}"
            );
        }
    }
}

#[test]
fn replaced_concept_remaps_fresh() {
    // `add` replacing a concept must drop the built index: the same
    // request maps differently afterwards.
    let mut o = Ontology::new();
    o.add(Concept::new("QualityCert").implemented_by("Type1"));
    let p = build_profile(&[(1, 0)]);
    let before = map_concept(&o, &p, "QualityCert", 0.25);
    assert!(before.is_mapped());
    o.add(Concept::new("QualityCert")); // replace: bindings dropped
    let after = map_concept(&o, &p, "QualityCert", 0.25);
    assert_eq!(
        after,
        MappingOutcome::NoCredential {
            concept: "QualityCert".into(),
            resolved: "QualityCert".into(),
        },
        "stale index served after mutation"
    );
}

#[test]
fn new_is_a_edge_remaps_fresh() {
    // `add_is_a` after an index build must rebuild the closure, so the
    // affected concepts map through the new edge.
    let mut o = Ontology::new();
    o.add(Concept::new("BusinessProof"));
    o.add(Concept::new("BalanceSheet").implemented_by("Type2"));
    let p = build_profile(&[(2, 2)]);
    let before = map_concept(&o, &p, "BusinessProof", 0.25);
    assert!(!before.is_mapped());
    assert!(o.add_is_a("BalanceSheet", "BusinessProof"));
    let after = map_concept(&o, &p, "BusinessProof", 0.25);
    assert!(
        after.is_mapped(),
        "is_a inference not visible after edge insertion: {after:?}"
    );
    assert_eq!(map_concept_naive(&o, &p, "BusinessProof", 0.25), after);
}

#[test]
fn profile_mutation_remaps_fresh() {
    // Adding a credential after a mapping must not leave the stale
    // `NoCredential` outcome.
    let mut o = Ontology::new();
    o.add(Concept::new("StorageSla").implemented_by("Type3"));
    let mut p = build_profile(&[]);
    assert!(!map_concept(&o, &p, "StorageSla", 0.25).is_mapped());
    let mut ca = CredentialAuthority::new("DiffCA");
    let keys = KeyPair::from_seed(b"differential");
    let cred = ca
        .issue(
            "Type3",
            "DiffParty",
            keys.public,
            vec![Attribute::new("Attr3", "v")],
            TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0)),
        )
        .expect("open schema");
    p.add(cred);
    assert!(map_concept(&o, &p, "StorageSla", 0.25).is_mapped());
}

#[test]
fn diverged_clones_map_independently() {
    // A clone shares the original's built index until it changes; then
    // each maps against its own content.
    let mut o = Ontology::new();
    o.add(Concept::new("QualityCert").implemented_by("Type1"));
    let p = build_profile(&[(1, 0)]);
    let original = map_concept(&o, &p, "QualityCert", 0.25);
    let mut clone = o.clone();
    clone.add(Concept::new("QualityCert")); // diverge: bindings dropped
    assert!(!map_concept(&clone, &p, "QualityCert", 0.25).is_mapped());
    assert_eq!(map_concept(&o, &p, "QualityCert", 0.25), original);
}
