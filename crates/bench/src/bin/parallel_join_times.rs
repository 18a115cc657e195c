//! E10 — parallel batch admission: serial vs. parallel formation table.
//!
//! Forms a VO whose contract has one role per applicant (4 / 16 / 64),
//! each admission guarded by a deep chain of interlocking disclosure
//! policies, and compares a serial `Formation` against the same formation
//! on every core, on real CPU time. Both must produce identical
//! membership — members, roles, certificate serials — which this harness
//! also checks.

use std::time::Instant;
use trust_vo_bench::obsutil::ObsArgs;
use trust_vo_bench::report::Report;
use trust_vo_bench::workloads;
use trust_vo_negotiation::ConcurrentSequenceCache;
use trust_vo_vo::mailbox::MailboxSystem;
use trust_vo_vo::{Formation, FormedVo, NegotiationSource, ReputationLedger};

const DEPTH: usize = 20;
const ALTERNATIVES: usize = 10;

fn membership(vo: &FormedVo) -> Vec<(String, String, u64)> {
    vo.members()
        .iter()
        .map(|m| (m.provider.clone(), m.role.clone(), m.certificate.serial))
        .collect()
}

fn main() {
    let args = ObsArgs::from_env();
    // --smoke: one tiny workload so CI can exercise the binary (including
    // with the obs feature compiled out) in well under a second.
    let (sizes, depth, alternatives): (&[usize], usize, usize) = if args.smoke {
        (&[4], 4, 2)
    } else {
        (&[4, 16, 64], DEPTH, ALTERNATIVES)
    };
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut report = Report::new(
        "E10",
        "Parallel batch admission: serial vs. parallel formation (chain depth 20, 10 alternatives)",
        &[
            "applicants",
            "serial (ms)",
            "parallel (ms)",
            "speedup",
            "cache misses",
        ],
    );

    let mut speedup_at_16 = 0.0_f64;
    for &applicants in sizes {
        let world = workloads::parallel_join_world(applicants, depth, alternatives);

        let serial_clock = workloads::free_clock();
        let start = Instant::now();
        let (serial, _) = Formation::new(
            &world.initiator,
            &world.providers,
            &world.registry,
            NegotiationSource::in_process(&serial_clock),
        )
        .run(
            world.contract.clone(),
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
        )
        .expect("serial formation succeeds");
        let serial_cpu = start.elapsed();

        let parallel_clock = workloads::free_clock();
        let collector = args.collector_for(&parallel_clock);
        let cache = ConcurrentSequenceCache::new();
        let start = Instant::now();
        let source = NegotiationSource::cached(&parallel_clock, &cache);
        let (parallel, _) =
            Formation::new(&world.initiator, &world.providers, &world.registry, source)
                .with_workers(workers)
                .run(
                    world.contract.clone(),
                    &mut MailboxSystem::new(),
                    &mut ReputationLedger::new(),
                )
                .expect("parallel formation succeeds");
        let parallel_cpu = start.elapsed();

        assert_eq!(
            membership(&serial),
            membership(&parallel),
            "parallel membership must be byte-identical to serial"
        );
        assert_eq!(
            serial_clock.elapsed(),
            parallel_clock.elapsed(),
            "replay must charge the sim-clock exactly like serial"
        );

        if collector.is_enabled() {
            collector.event(
                "bench.case",
                vec![
                    ("experiment".to_string(), "E10".into()),
                    ("applicants".to_string(), applicants.into()),
                ],
            );
            args.dump(&collector);
        }

        let speedup = serial_cpu.as_secs_f64() / parallel_cpu.as_secs_f64();
        if applicants == 16 {
            speedup_at_16 = speedup;
        }
        report.row(
            &applicants.to_string(),
            &[
                format!("{:.2}", serial_cpu.as_secs_f64() * 1e3),
                format!("{:.2}", parallel_cpu.as_secs_f64() * 1e3),
                format!("{speedup:.2}x"),
                cache.stats().misses.to_string(),
            ],
        );
    }

    report.note(&format!(
        "workers = {workers}; parallel speculates every (role, accepting-candidate) \
         negotiation on the sharded executor, then replays the serial decision procedure"
    ));
    report.print();

    // Shape assertion: on a multi-core host the fan-out must pay for
    // itself by 16 applicants (skipped in --smoke, which runs one size).
    if workers >= 4 && !args.smoke {
        assert!(
            speedup_at_16 >= 2.0,
            "expected >= 2x speedup at 16 applicants on {workers} workers, got {speedup_at_16:.2}x"
        );
    }
}
