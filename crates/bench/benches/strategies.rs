//! E6 — strategy ablation: the four Trust-X strategies plus the
//! TrustBuilder-style eager baseline, on the Fig. 2 negotiation.
//! Disclosure/message counts are printed by
//! `cargo run --release --bin strategy_table`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trust_vo_bench::workloads;
use trust_vo_negotiation::baseline::negotiate_eager;
use trust_vo_negotiation::Strategy;
use trust_vo_vo::initiator_party_for_role;
use trust_vo_vo::scenario::{names, roles};

fn bench_strategies(c: &mut Criterion) {
    let s = workloads::scenario(workloads::free_clock());
    let mut group = c.benchmark_group("strategies");
    for strategy in Strategy::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.wire_name()),
            &strategy,
            |b, &strategy| b.iter(|| black_box(s.fig2_negotiation(strategy).unwrap())),
        );
    }
    group.finish();
}

fn bench_eager_baseline(c: &mut Criterion) {
    let s = workloads::scenario(workloads::free_clock());
    let initiator = initiator_party_for_role(
        s.provider(names::AIRCRAFT),
        &s.contract,
        roles::DESIGN_PORTAL,
    );
    let aerospace = s.provider(names::AEROSPACE).party.clone();
    c.bench_function("eager_baseline", |b| {
        b.iter(|| {
            black_box(
                negotiate_eager(&aerospace, &initiator, "VoMembership", workloads::at()).unwrap(),
            )
        })
    });
}

criterion_group!(benches, bench_strategies, bench_eager_baseline);
criterion_main!(benches);
