//! E5 — Algorithm 1 mapping: hit rate and cost of direct lookups vs. the
//! Jaccard similarity fallback, over growing ontologies.

use std::time::Instant;
use trust_vo_bench::report::Report;
use trust_vo_bench::workloads::{self, map_concept, SIMILARITY_THRESHOLD};

fn main() {
    let mut report = Report::new(
        "E5",
        "Algorithm 1: concept-to-credential mapping",
        &[
            "concepts",
            "paraphrased",
            "mapped",
            "via similarity",
            "unmapped",
            "us/request",
        ],
    );
    for (n, paraphrased) in [
        (20usize, 0usize),
        (20, 10),
        (100, 0),
        (100, 50),
        (400, 0),
        (400, 200),
        (800, 400),
        (3200, 1600),
        (10_000, 5000),
    ] {
        let w = workloads::ontology_workload(n, paraphrased);
        let mut mapped = 0;
        let mut via_similarity = 0;
        let started = Instant::now();
        for request in &w.requests {
            if let trust_vo_ontology::MappingOutcome::Mapped { via, .. } =
                map_concept(&w.ontology, &w.profile, request, SIMILARITY_THRESHOLD)
            {
                mapped += 1;
                if via.is_some() {
                    via_similarity += 1;
                }
            }
        }
        let per_request = started.elapsed().as_secs_f64() * 1e6 / w.requests.len() as f64;
        report.row(
            &n.to_string(),
            &[
                paraphrased.to_string(),
                mapped.to_string(),
                via_similarity.to_string(),
                (w.requests.len() - mapped).to_string(),
                format!("{per_request:.1}"),
            ],
        );
    }
    report.note(
        "similarity fallback runs one inverted-index scan per request (O(candidates)); \
         direct lookup is O(log concepts); every request runs Algorithm 1 in full",
    );
    report.print();
}
