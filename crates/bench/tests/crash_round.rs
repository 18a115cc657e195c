//! E15's crash round forces a checkpointed resume at every seed, at both
//! the smoke size and the full-run size of `fig_wire_throughput`, and
//! replays exactly.

use trust_vo_bench::wire_formation::crash_round;
use trust_vo_bench::workloads::parallel_join_world;

/// (applicants, depth, alternatives): `fig_wire_throughput --smoke`, and
/// its full run.
const SIZES: [(usize, usize, usize); 2] = [(3, 4, 2), (5, 8, 2)];

#[test]
fn the_crash_round_resumes_from_a_checkpoint_at_every_seed() {
    for (applicants, depth, alternatives) in SIZES {
        let world = parallel_join_world(applicants, depth, alternatives);
        for seed in (1..=20).chain([42]) {
            let round = crash_round(&world, seed);
            let at = format!("{applicants} applicants, depth {depth}, seed {seed}");
            assert!(round.outage_start < round.heavy.elapsed, "{at}: {round:?}");
            assert!(
                round.crashed.resumes > 0 && round.crashed.service_resumed > 0,
                "{at}: no checkpointed resume: {round:?}"
            );
            assert_eq!(round.crashed, round.replay, "{at}");
        }
    }
}
