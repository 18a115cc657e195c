//! The ontology reasoning engine of the extended Trust-X (paper §4.3).
//!
//! Trust-X was "extended with a reasoning engine … The engine relies on a
//! reference ontology, capturing the main concepts used by the negotiation
//! parties". Each concept is "associated with the concept name, a set of
//! attributes and credential types names" — e.g.
//! `⟨gender; Passport.gender; DrivingLicense.sex⟩` — and concepts are
//! "hierarchically organized according to the conventional is_a
//! relationship".
//!
//! The engine supports three operations the paper relies on:
//!
//! 1. **Concept lookup and `is_a` inference** ([`graph`]) — if `Cᵢ is_a
//!    Cₖ`, information conveyed by `Cᵢ` can be used to infer `Cₖ`
//!    (Texas driver license ⇒ civilian driver license).
//! 2. **Similarity matching** ([`similarity`], [`matcher`]) — when a
//!    requested concept is absent from the local ontology, the GLUE-style
//!    Jaccard coefficient picks the closest local concept with a
//!    confidence in `[0, 1]`.
//! 3. **Algorithm 1** ([`mapping`]) — map a policy's concept list onto
//!    concrete local credentials, preferring the least-sensitive
//!    satisfying credential (the `CredCluster` probe order).
//!
//! A [`Dictionary`] (§4.3) can resolve registered aliases before the
//! similarity fallback. Every mapping runs Algorithm 1 in full: the crate
//! keeps no outcome between calls, and its only process-wide state is the
//! [`stats`] counters.
//!
//! The paper's prototype used Jena + OWL + Falcon-AO; this crate
//! implements the same observable behaviour natively (see DESIGN.md §4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concept;
pub mod dictionary;
pub mod graph;
mod index;
pub mod mapping;
pub mod matcher;
pub mod owl;
pub mod similarity;
pub mod stats;

pub use concept::{Binding, Concept};
pub use dictionary::{map_concept_with_dictionary, Dictionary};
pub use graph::Ontology;
pub use mapping::{map_concept, map_policy_concepts, MappingOutcome};
pub use matcher::{
    best_local_match, match_concept, match_concept_reference, match_ontologies,
    match_ontologies_reference, ConceptMatch,
};
pub use owl::{ontology_from_xml, ontology_to_xml};
