//! The indexed feature representation behind Algorithm 1.
//!
//! GLUE-style instance matchers and Falcon-AO both precompute indexed
//! feature representations before scoring; this module does the same for
//! the Jaccard matcher so that `match_concept` scales to 10k-concept
//! ontologies:
//!
//! * a **token interner** — every distinct feature token gets a dense
//!   `u32` id, and each concept's feature-token set is cached once as a
//!   sorted interned-id slice instead of being re-tokenized into a fresh
//!   `BTreeSet<String>` per comparison;
//! * an **inverted token → concept index** (postings lists), so a query
//!   only scores concepts sharing at least one token. This is
//!   exact-argmax-preserving: zero-overlap concepts score exactly 0, the
//!   matcher already rejects confidence ≤ 0, and ties at equal positive
//!   score break toward the lexicographically smaller name — which is
//!   ascending concept-id order here, because ids are assigned in the
//!   ontology's name-sorted iteration order;
//! * a precomputed **subsumption closure** — one ancestor bitset and one
//!   descendant bitset per concept, built in one Kahn pass over the
//!   `is_a` DAG — backing `is_subconcept`, `subconcepts_of`, and
//!   `credential_types_for` with O(1) bit tests instead of a BFS per
//!   query.
//!
//! The index is immutable once built. [`crate::graph::Ontology`] builds it
//! on the first query and drops it on every `add` / `add_is_a`, which take
//! `&mut self`, so an index that exists always describes the current
//! content.

use crate::concept::Concept;
use crate::similarity::jaccard_counts;
use crate::stats;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// The immutable index over an ontology's concepts and `is_a` edges.
#[derive(Debug)]
pub(crate) struct ConceptIndex {
    /// Concept names in `BTreeMap` (lexicographic) order; the position is
    /// the concept id, so ascending id order is ascending name order.
    names: Vec<String>,
    /// Interner: feature token → dense token id.
    token_ids: HashMap<String, u32>,
    /// Per-concept cached feature-token set, as a sorted interned-id slice.
    concept_tokens: Vec<Box<[u32]>>,
    /// Inverted index: token id → ascending concept ids containing it.
    postings: Vec<Vec<u32>>,
    /// Concepts whose feature-token set is empty (they score 1.0 against
    /// an empty query and 0.0 against everything else), ascending.
    empty_concepts: Vec<u32>,
    /// Bitset row width in 64-bit words.
    words: usize,
    /// `ancestors[c]`: proper ancestors of concept `c` (self excluded).
    ancestors: Vec<u64>,
    /// `descendants[c]`: subconcepts of `c` (self included).
    descendants: Vec<u64>,
}

impl ConceptIndex {
    /// Build the full index over the ontology maps.
    pub(crate) fn build(
        concepts: &BTreeMap<String, Concept>,
        parents: &BTreeMap<String, BTreeSet<String>>,
    ) -> Self {
        stats::INDEX_BUILDS.inc();
        let n = concepts.len();
        let names: Vec<String> = concepts.keys().cloned().collect();
        let mut token_ids: HashMap<String, u32> = HashMap::new();
        let mut concept_tokens: Vec<Box<[u32]>> = Vec::with_capacity(n);
        let mut postings: Vec<Vec<u32>> = Vec::new();
        let mut empty_concepts = Vec::new();
        for (cid, concept) in concepts.values().enumerate() {
            let mut ids: Vec<u32> = concept
                .feature_tokens()
                .into_iter()
                .map(|tok| {
                    let next = token_ids.len() as u32;
                    let tid = *token_ids.entry(tok).or_insert(next);
                    if tid as usize == postings.len() {
                        postings.push(Vec::new());
                    }
                    postings[tid as usize].push(cid as u32);
                    tid
                })
                .collect();
            ids.sort_unstable();
            if ids.is_empty() {
                empty_concepts.push(cid as u32);
            }
            concept_tokens.push(ids.into_boxed_slice());
        }

        // Subsumption closure over the is_a DAG (cycles are rejected at
        // edge insertion, so the Kahn pass always drains).
        let words = n.div_ceil(64);
        let mut ancestors = vec![0u64; n * words];
        let id_of = |name: &str| {
            names
                .binary_search_by(|probe| probe.as_str().cmp(name))
                .ok()
        };
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut pending: Vec<u32> = vec![0; n];
        for (child, parent_set) in parents {
            let Some(c) = id_of(child) else { continue };
            for parent in parent_set {
                let Some(p) = id_of(parent) else { continue };
                children[p].push(c as u32);
                pending[c] += 1;
            }
        }
        let mut queue: VecDeque<u32> = (0..n as u32)
            .filter(|&c| pending[c as usize] == 0)
            .collect();
        let mut row_scratch = vec![0u64; words];
        let mut drained = 0usize;
        while let Some(p) = queue.pop_front() {
            drained += 1;
            let p = p as usize;
            row_scratch.copy_from_slice(&ancestors[p * words..(p + 1) * words]);
            for &child in &children[p] {
                let child = child as usize;
                let row = &mut ancestors[child * words..(child + 1) * words];
                for (dst, src) in row.iter_mut().zip(&row_scratch) {
                    *dst |= src;
                }
                row[p / 64] |= 1u64 << (p % 64);
                pending[child] -= 1;
                if pending[child] == 0 {
                    queue.push_back(child as u32);
                }
            }
        }
        debug_assert_eq!(drained, n, "is_a graph contained a cycle");

        // Transpose into descendant sets, adding the reflexive bit.
        let mut descendants = vec![0u64; n * words];
        for c in 0..n {
            descendants[c * words + c / 64] |= 1u64 << (c % 64);
            let row = &ancestors[c * words..(c + 1) * words];
            for (w, &bits) in row.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let a = w * 64 + bits.trailing_zeros() as usize;
                    descendants[a * words + c / 64] |= 1u64 << (c % 64);
                    bits &= bits - 1;
                }
            }
        }

        ConceptIndex {
            names,
            token_ids,
            concept_tokens,
            postings,
            empty_concepts,
            words,
            ancestors,
            descendants,
        }
    }

    /// Concept id for `name`, if present.
    pub(crate) fn concept_id(&self, name: &str) -> Option<usize> {
        self.names
            .binary_search_by(|probe| probe.as_str().cmp(name))
            .ok()
    }

    /// Concept name for `id`.
    pub(crate) fn name(&self, id: usize) -> &str {
        &self.names[id]
    }

    /// Is `child` a (possibly transitive, reflexive) subconcept of
    /// `ancestor`? Ids must come from this index.
    pub(crate) fn is_subconcept(&self, child: usize, ancestor: usize) -> bool {
        child == ancestor
            || self.ancestors[child * self.words + ancestor / 64] >> (ancestor % 64) & 1 == 1
    }

    /// All subconcepts of `id` (including itself), ascending — i.e. in
    /// the ontology's name order.
    pub(crate) fn descendants_of(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.descendants[id * self.words..(id + 1) * self.words];
        row.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let c = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(c)
            })
        })
    }

    /// The exact Jaccard argmax of `query` over every indexed concept,
    /// scoring only concepts that share at least one token.
    ///
    /// Returns `None` only when the index is empty; otherwise the winning
    /// concept id plus its score, bit-identical to the naive scan's
    /// argmax (same integer counts, same `f64` division, same
    /// smallest-name tie-break).
    pub(crate) fn best_match(&self, query: &BTreeSet<String>) -> Option<(usize, f64)> {
        let n = self.names.len();
        if n == 0 {
            return None;
        }
        let a_len = query.len();
        if a_len == 0 {
            // Empty query: empty-token concepts score 1.0, all others 0.0.
            // The naive scan keeps the smallest-named 1.0 if any exists,
            // else the smallest-named concept at 0.0.
            if let Some(&id) = self.empty_concepts.first() {
                return Some((id as usize, 1.0));
            }
            return Some((0, 0.0));
        }
        let mut counts = vec![0u32; n];
        let mut touched: Vec<u32> = Vec::new();
        for token in query {
            if let Some(&tid) = self.token_ids.get(token) {
                for &cid in &self.postings[tid as usize] {
                    if counts[cid as usize] == 0 {
                        touched.push(cid);
                    }
                    counts[cid as usize] += 1;
                }
            }
        }
        stats::INDEX_CANDIDATES.add(touched.len() as u64);
        stats::INDEX_PRUNED.add((n - touched.len()) as u64);
        if touched.is_empty() {
            // Zero overlap everywhere: every score is 0.0 and the naive
            // argmax keeps the lexicographically smallest name.
            return Some((0, 0.0));
        }
        touched.sort_unstable();
        let mut best_id = 0usize;
        let mut best = -1.0f64;
        for &cid in &touched {
            let cid = cid as usize;
            let overlap = counts[cid] as usize;
            let score = jaccard_counts(overlap, a_len, self.concept_tokens[cid].len());
            // Strictly-greater on ascending ids == smallest-name tie-break.
            if score > best {
                best = score;
                best_id = cid;
            }
        }
        Some((best_id, best))
    }
}
