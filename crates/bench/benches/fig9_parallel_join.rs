//! E10 — parallel batch admission: serial vs. parallel formation.
//!
//! Measures the real CPU cost of forming a VO whose contract has one role
//! per applicant, each guarded by a deep chain of interlocking disclosure
//! policies (the E4 chain shape), on a zero-latency clock. The parallel
//! formation speculates every admission negotiation on the sharded
//! executor; the serial one runs them in contract order. The calibrated
//! comparison table (with the ≥2× speedup check at 16 applicants) is
//! printed by `cargo run --release --bin parallel_join_times`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trust_vo_bench::workloads::{self, ParallelJoinWorld};
use trust_vo_vo::mailbox::MailboxSystem;
use trust_vo_vo::{Formation, FormedVo, NegotiationSource, ReputationLedger};

/// Chain depth / failing alternatives per level for each admission
/// negotiation — deep enough that negotiation dominates bookkeeping.
const DEPTH: usize = 20;
const ALTERNATIVES: usize = 10;

fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Form `w` on a zero-latency clock with `workers` workers.
fn form(w: &ParallelJoinWorld, workers: usize) -> FormedVo {
    let clock = workloads::free_clock();
    let source = NegotiationSource::in_process(&clock);
    Formation::new(&w.initiator, &w.providers, &w.registry, source)
        .with_workers(workers)
        .run(
            w.contract.clone(),
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
        )
        .expect("formation succeeds")
        .0
}

fn bench_parallel_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_parallel_join");
    for &applicants in &[4usize, 16, 64] {
        let world = workloads::parallel_join_world(applicants, DEPTH, ALTERNATIVES);
        group.bench_with_input(BenchmarkId::new("serial", applicants), &world, |b, w| {
            b.iter(|| black_box(form(w, 1)))
        });
        group.bench_with_input(BenchmarkId::new("parallel", applicants), &world, |b, w| {
            b.iter(|| black_box(form(w, workers())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_join);
criterion_main!(benches);
