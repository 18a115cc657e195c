//! The process-wide mapping memo changes what a mapping costs, never what
//! it returns: E5b's workloads map to identical outcomes with the memo
//! off, on and cold (its first pass), and on and hot (every request a
//! hit).
//!
//! This file holds a single test on purpose: it toggles the process-wide
//! memo, so no other test may run in the same process.

use trust_vo::ontology::{MapMemo, MappingOutcome};
use trust_vo_bench::workloads::{self, map_concept, OntologyWorkload, SIMILARITY_THRESHOLD};

fn map_all(w: &OntologyWorkload) -> Vec<MappingOutcome> {
    w.requests
        .iter()
        .map(|request| map_concept(&w.ontology, &w.profile, request, SIMILARITY_THRESHOLD))
        .collect()
}

#[test]
fn memo_off_cold_and_hot_map_identically() {
    let memo = MapMemo::global();
    for (n, paraphrased) in [(50, 25), (200, 100), (800, 400)] {
        let w = workloads::ontology_workload(n, paraphrased);
        memo.set_enabled(false);
        let off = map_all(&w);
        memo.set_enabled(true);
        let cold = map_all(&w);
        let before_hot = memo.stats();
        let hot = map_all(&w);
        let after_hot = memo.stats();
        assert_eq!(
            after_hot.hits - before_hot.hits,
            w.requests.len() as u64,
            "n={n}: the hot pass is all hits"
        );
        assert!(off.iter().any(MappingOutcome::is_mapped), "n={n}");
        assert_eq!(off, cold, "n={n}: memo off vs cold");
        assert_eq!(off, hot, "n={n}: memo off vs hot");
    }
}
