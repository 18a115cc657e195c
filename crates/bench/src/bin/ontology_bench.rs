//! E5b — the indexed Algorithm 1 engine at scale.
//!
//! Measures the similarity-fallback mapping rate on all-paraphrased
//! workloads at n ∈ {800, 3200, 10000} concepts in two regimes:
//!
//! * **reference** — the seed's naive `match_concept_reference` scan
//!   (re-tokenizes every concept per request);
//! * **indexed** — the full Algorithm 1, `map_concept` (inverted-index
//!   scan + closure-backed credential lookup).
//!
//! Writes `BENCH_ontology.json` (not in `--smoke`) and asserts the E5b
//! floors in-binary: indexed ≥ 10x reference at n=800, and the n=10000
//! workload completes with every request mapped.

use std::hint::black_box;
use std::time::Instant;
use trust_vo_bench::obsutil::{publish_ontology_metrics, ObsArgs};
use trust_vo_bench::report::Report;
use trust_vo_bench::workloads::{self, map_concept, SIMILARITY_THRESHOLD};
use trust_vo_obs::Collector;
use trust_vo_ontology::match_concept_reference;

/// Time `iters` runs of `f`, three times, and return the best ops/s (the
/// first repetition doubles as warmup; see `crypto_bench::measure`).
fn measure(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut best = 0f64;
    for _ in 0..3 {
        let start = Instant::now();
        for i in 0..iters {
            f(i);
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max(iters as f64 / secs);
    }
    best
}

fn fmt_ops(ops: f64) -> String {
    if ops >= 1e6 {
        format!("{:.2}M", ops / 1e6)
    } else if ops >= 1e3 {
        format!("{:.1}k", ops / 1e3)
    } else {
        format!("{ops:.0}")
    }
}

fn main() {
    let args = ObsArgs::from_env();
    let scale: u64 = if args.smoke { 1 } else { 8 };
    let mut report = Report::new(
        "E5b",
        "Indexed Algorithm 1 at scale: similarity-fallback mapping rates",
        &["mode", "ops/s", "vs reference", "notes"],
    );

    let mut speedup_800 = 0f64;
    let mut completed_10k = false;
    // Smoke keeps the two floor-bearing sizes; the full run adds the
    // middle point for the E5b table.
    let sizes: &[usize] = if args.smoke {
        &[800, 10_000]
    } else {
        &[800, 3200, 10_000]
    };
    for &n in sizes {
        let w = workloads::ontology_workload(n, n); // every request paraphrased
        let sample: Vec<&String> = w.requests.iter().step_by((n / 64).max(1)).collect();
        let pick = |i: u64| sample[(i as usize) % sample.len()].as_str();

        // Seed path: one full naive scan per request. Iteration counts
        // shrink with n — the scan is O(n) tokenizations.
        let ref_iters = ((160_000 / n) as u64 * scale).max(2);
        let reference_ops = measure(ref_iters, |i| {
            black_box(match_concept_reference(
                pick(i),
                &w.ontology,
                SIMILARITY_THRESHOLD,
            ));
        });

        // Indexed engine: Algorithm 1 in full on every request.
        let map =
            |request: &str| map_concept(&w.ontology, &w.profile, request, SIMILARITY_THRESHOLD);
        map(pick(0)); // build the index outside the timed region
        let indexed_ops = measure(400 * scale, |i| {
            black_box(map(pick(i)));
        });

        let speedup = indexed_ops / reference_ops;
        if n == 800 {
            speedup_800 = speedup;
        }
        report.row(
            &format!("reference (n={n})"),
            &[
                fmt_ops(reference_ops),
                "1.0x".into(),
                "seed scan: re-tokenize every concept".into(),
            ],
        );
        report.row(
            &format!("indexed (n={n})"),
            &[
                fmt_ops(indexed_ops),
                format!("{speedup:.1}x"),
                "inverted token index + closure bitsets".into(),
            ],
        );

        // Completeness: one full pass over every request must map all of
        // them (the paraphrase resolves to its concept at the shared
        // threshold).
        let started = Instant::now();
        let mapped = w.requests.iter().filter(|r| map(r).is_mapped()).count();
        let us_per_request = started.elapsed().as_secs_f64() * 1e6 / n as f64;
        assert_eq!(mapped, n, "n={n}: {} requests failed to map", n - mapped);
        if n == 10_000 {
            completed_10k = true;
        }
        report.row(
            &format!("full pass (n={n})"),
            &[
                format!("{mapped}/{n} mapped"),
                "-".into(),
                format!("{us_per_request:.1} us/request"),
            ],
        );
    }

    report.note(
        "all-paraphrased workloads: every request takes Algorithm 1's similarity \
         fallback; reference = the seed's O(concepts) rescans",
    );
    report.print();

    if let Some(path) = &args.emit_obs {
        let collector = Collector::new();
        publish_ontology_metrics(&collector);
        std::fs::write(path, collector.to_jsonl())
            .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
        eprintln!("observability dump written to {}", path.display());
    }

    if !args.smoke {
        std::fs::write("BENCH_ontology.json", report.to_json() + "\n")
            .expect("writing BENCH_ontology.json");
        eprintln!("wrote BENCH_ontology.json");
    }

    // Acceptance gates (ISSUE 5 / EXPERIMENTS E5b).
    assert!(
        speedup_800 >= 10.0,
        "n=800 indexed similarity fallback {speedup_800:.1}x below the 10x floor"
    );
    assert!(completed_10k, "n=10000 workload did not complete");
}
