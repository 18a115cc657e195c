//! The ontology graph: concepts plus the `is_a` hierarchy.
//!
//! "Within the ontology, concepts are related by different relationships,
//! and hierarchically organized according to the conventional is_a
//! relationship. As such, if concept Cᵢ is in a relation is_a with Cₖ, the
//! information conveyed by concept Cᵢ can be used to infer information
//! conveyed by concept Cₖ." (§4.3)

use crate::concept::Concept;
use crate::index::ConceptIndex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};

/// A party's local ontology: a set of named concepts and `is_a` edges.
///
/// Queries that scan or traverse — similarity matching, `is_subconcept`,
/// `credential_types_for` — run against a lazily-built
/// `ConceptIndex` (token interner, inverted token index, subsumption
/// closure bitsets). Only `add` and `add_is_a` change the ontology, and
/// both take `&mut self` and drop the index, so an index that is present
/// is current and `&self` queries always see current data. A clone shares
/// the built index, which depends on content only.
#[derive(Clone, Default)]
pub struct Ontology {
    concepts: BTreeMap<String, Concept>,
    /// `is_a` edges: child concept name → parent concept names.
    parents: BTreeMap<String, BTreeSet<String>>,
    /// The index of the current content, once a query has built it.
    index: OnceLock<Arc<ConceptIndex>>,
}

impl std::fmt::Debug for Ontology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ontology")
            .field("concepts", &self.concepts)
            .field("parents", &self.parents)
            .finish_non_exhaustive()
    }
}

impl Ontology {
    /// Create an empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) a concept. "Each party maintains a local ontology
    /// and adds more concepts to it as needed."
    pub fn add(&mut self, concept: Concept) {
        self.concepts.insert(concept.name.clone(), concept);
        self.index.take();
    }

    /// Declare `child is_a parent`. Returns `false` (and does nothing) if
    /// the edge would create a cycle or either endpoint is unknown.
    pub fn add_is_a(&mut self, child: &str, parent: &str) -> bool {
        if !self.concepts.contains_key(child) || !self.concepts.contains_key(parent) {
            return false;
        }
        // Cycle check on the raw edge maps: going through the index here
        // would force a rebuild per inserted edge while an ontology is
        // still being populated.
        if child == parent || self.is_subconcept_scan(parent, child) {
            return false; // would create a cycle
        }
        self.parents
            .entry(child.to_owned())
            .or_default()
            .insert(parent.to_owned());
        self.index.take();
        true
    }

    /// The index of the current content, building it on first use.
    pub(crate) fn index(&self) -> &ConceptIndex {
        self.index
            .get_or_init(|| Arc::new(ConceptIndex::build(&self.concepts, &self.parents)))
    }

    /// Look up a concept by name.
    pub fn get(&self, name: &str) -> Option<&Concept> {
        self.concepts.get(name)
    }

    /// Does the ontology contain the named concept?
    pub fn contains(&self, name: &str) -> bool {
        self.concepts.contains_key(name)
    }

    /// Iterate over all concepts.
    pub fn concepts(&self) -> impl Iterator<Item = &Concept> {
        self.concepts.values()
    }

    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// True when the ontology has no concepts.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Direct parents of `name` in the `is_a` hierarchy.
    pub fn direct_parents(&self, name: &str) -> impl Iterator<Item = &str> {
        self.parents
            .get(name)
            .into_iter()
            .flat_map(|set| set.iter().map(String::as_str))
    }

    /// Is `child` a (possibly transitive) subconcept of `ancestor`?
    /// Reflexive: every concept is a subconcept of itself.
    ///
    /// Answered from the precomputed subsumption closure: one bit test
    /// instead of a BFS per query.
    pub fn is_subconcept(&self, child: &str, ancestor: &str) -> bool {
        let index = self.index();
        match (index.concept_id(child), index.concept_id(ancestor)) {
            (Some(c), Some(a)) => index.is_subconcept(c, a),
            _ => false,
        }
    }

    /// BFS subsumption test on the raw edge maps — used by the
    /// `add_is_a` cycle check so that populating an ontology never
    /// triggers index rebuilds, and by the differential tests as the
    /// closure's oracle.
    pub(crate) fn is_subconcept_scan(&self, child: &str, ancestor: &str) -> bool {
        if child == ancestor {
            return self.concepts.contains_key(child);
        }
        let mut queue: VecDeque<&str> = VecDeque::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        queue.push_back(child);
        while let Some(current) = queue.pop_front() {
            for parent in self.direct_parents(current) {
                if parent == ancestor {
                    return true;
                }
                if seen.insert(parent) {
                    queue.push_back(parent);
                }
            }
        }
        false
    }

    /// All ancestors of `name` (excluding itself), nearest first.
    ///
    /// Stays a BFS on purpose: the nearest-first contract encodes BFS
    /// discovery order, which the closure's id-ordered bitsets cannot
    /// reproduce, and the walk is already output-sensitive
    /// (O(reachable), not O(concepts)). The closure still bounds it —
    /// every name returned is a set bit in the ancestor row.
    pub fn ancestors(&self, name: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        queue.push_back(name);
        while let Some(current) = queue.pop_front() {
            for parent in self.direct_parents(current) {
                if seen.insert(parent) {
                    out.push(parent);
                    queue.push_back(parent);
                }
            }
        }
        out
    }

    /// All concepts that are subconcepts of `name` (including itself, if
    /// present). Credentials bound to any of these satisfy a request for
    /// `name`, by the `is_a` inference rule.
    ///
    /// Enumerated from the closure's descendant bitset (name order, same
    /// as the seed's full filter scan) rather than one BFS per concept.
    pub fn subconcepts_of(&self, name: &str) -> Vec<&Concept> {
        let index = self.index();
        let Some(id) = index.concept_id(name) else {
            return Vec::new();
        };
        index
            .descendants_of(id)
            .map(|c| {
                self.concepts
                    .get(index.name(c))
                    .expect("index is in sync with the concept map")
            })
            .collect()
    }

    /// The credential types that can convey concept `name`, taking `is_a`
    /// inference into account.
    pub fn credential_types_for(&self, name: &str) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        for c in self.subconcepts_of(name) {
            out.extend(c.credential_types());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's driving-license example hierarchy plus bindings.
    fn licenses() -> Ontology {
        let mut o = Ontology::new();
        o.add(Concept::new("Civilian_DriverLicense").implemented_by("CivilianLicense"));
        o.add(Concept::new("Texas_DriverLicense").implemented_by("TexasLicense"));
        o.add(Concept::new("DriverLicense"));
        assert!(o.add_is_a("Texas_DriverLicense", "Civilian_DriverLicense"));
        assert!(o.add_is_a("Civilian_DriverLicense", "DriverLicense"));
        o
    }

    #[test]
    fn paper_is_a_example() {
        let o = licenses();
        // "Texas_Driver License is_a Civilian_Driver License"
        assert!(o.is_subconcept("Texas_DriverLicense", "Civilian_DriverLicense"));
        assert!(o.is_subconcept("Texas_DriverLicense", "DriverLicense")); // transitive
        assert!(!o.is_subconcept("Civilian_DriverLicense", "Texas_DriverLicense"));
    }

    #[test]
    fn reflexive_subconcept_only_for_existing() {
        let o = licenses();
        assert!(o.is_subconcept("DriverLicense", "DriverLicense"));
        assert!(!o.is_subconcept("Nope", "Nope"));
    }

    #[test]
    fn cycle_rejected() {
        let mut o = licenses();
        assert!(!o.add_is_a("DriverLicense", "Texas_DriverLicense"));
        assert!(!o.add_is_a("DriverLicense", "DriverLicense"));
    }

    #[test]
    fn unknown_endpoints_rejected() {
        let mut o = licenses();
        assert!(!o.add_is_a("Ghost", "DriverLicense"));
        assert!(!o.add_is_a("DriverLicense", "Ghost"));
    }

    #[test]
    fn ancestors_ordered_nearest_first() {
        let o = licenses();
        assert_eq!(
            o.ancestors("Texas_DriverLicense"),
            ["Civilian_DriverLicense", "DriverLicense"]
        );
        assert!(o.ancestors("DriverLicense").is_empty());
    }

    #[test]
    fn inference_expands_credential_types() {
        let o = licenses();
        // Requesting the generic concept admits the specific credentials.
        let types = o.credential_types_for("DriverLicense");
        assert!(types.contains("TexasLicense"));
        assert!(types.contains("CivilianLicense"));
        // Requesting the specific concept does NOT admit the generic.
        let types = o.credential_types_for("Texas_DriverLicense");
        assert_eq!(types.into_iter().collect::<Vec<_>>(), ["TexasLicense"]);
    }

    #[test]
    fn diamond_hierarchy_handled() {
        let mut o = Ontology::new();
        for n in ["a", "b", "c", "d"] {
            o.add(Concept::new(n));
        }
        assert!(o.add_is_a("a", "b"));
        assert!(o.add_is_a("a", "c"));
        assert!(o.add_is_a("b", "d"));
        assert!(o.add_is_a("c", "d"));
        assert!(o.is_subconcept("a", "d"));
        let ancestors = o.ancestors("a");
        assert_eq!(ancestors.len(), 3); // b, c, d — d only once
    }

    #[test]
    fn replace_concept_keeps_edges() {
        let mut o = licenses();
        o.add(Concept::new("Texas_DriverLicense").implemented_by("NewTexasLicense"));
        assert!(o.is_subconcept("Texas_DriverLicense", "DriverLicense"));
        assert!(o
            .credential_types_for("DriverLicense")
            .contains("NewTexasLicense"));
    }
}
