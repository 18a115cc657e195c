//! E5 — Algorithm 1 mapping cost: direct concept lookups vs. the Jaccard
//! similarity fallback (lines 20–29), over growing ontologies. Every
//! iteration runs the per-request engine (direct lookup / indexed scan).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trust_vo_bench::workloads::{self, map_concept, SIMILARITY_THRESHOLD};

fn bench_direct_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("ontology_direct");
    for n in [10usize, 50, 200, 800, 3200, 10_000] {
        let w = workloads::ontology_workload(n, 0);
        let request = format!("Concept{}Quality", n / 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(map_concept(
                    &w.ontology,
                    &w.profile,
                    &request,
                    SIMILARITY_THRESHOLD,
                ))
            })
        });
    }
    group.finish();
}

fn bench_similarity_fallback(c: &mut Criterion) {
    let mut group = c.benchmark_group("ontology_similarity");
    for n in [10usize, 50, 200, 800, 3200, 10_000] {
        let w = workloads::ontology_workload(n, n);
        let request = format!("Quality_Concept{}", n / 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(map_concept(
                    &w.ontology,
                    &w.profile,
                    &request,
                    SIMILARITY_THRESHOLD,
                ))
            })
        });
    }
    group.finish();
}

fn bench_similarity_fallback_reference(c: &mut Criterion) {
    // The seed's O(concepts) scan, kept as the before/after baseline.
    let mut group = c.benchmark_group("ontology_similarity_reference");
    for n in [10usize, 50, 200, 800] {
        let w = workloads::ontology_workload(n, n);
        let request = format!("Quality_Concept{}", n / 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(trust_vo_ontology::match_concept_reference(
                    &request,
                    &w.ontology,
                    SIMILARITY_THRESHOLD,
                ))
            })
        });
    }
    group.finish();
}

fn bench_cross_ontology_match(c: &mut Criterion) {
    let mut group = c.benchmark_group("ontology_cross_match");
    for n in [10usize, 50, 200, 800] {
        let a = workloads::ontology_workload(n, 0).ontology;
        let b_onto = workloads::ontology_workload(n, 0).ontology;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| black_box(trust_vo_ontology::match_ontologies(&a, &b_onto)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_direct_lookup,
    bench_similarity_fallback,
    bench_similarity_fallback_reference,
    bench_cross_ontology_match
);
criterion_main!(benches);
