//! E1 / Fig. 9 — regenerate the paper's join-execution-time figure.
//!
//! The paper reports (on a P4 2 GHz, Tomcat + Axis + Oracle):
//! join ≈ 3 s, join with trust negotiation ≈ 4 s (a ~27–33 % increase),
//! standalone trust negotiation ≈ 1 s. We reproduce the *shape* on the
//! calibrated sim-clock and report the real CPU time alongside.

use std::time::Instant;
use trust_vo_bench::obsutil::ObsArgs;
use trust_vo_bench::report::Report;
use trust_vo_bench::workloads;
use trust_vo_negotiation::Strategy;

fn main() {
    let args = ObsArgs::from_env();
    let mut report = Report::new(
        "E1/Fig9",
        "Join execution times (Aircraft Optimization VO, Design Partner Web Portal joining)",
        &["case", "sim wall-clock (s)", "paper (s)", "cpu (ms)"],
    );
    // Under --smoke the cpu column is suppressed so stdout is a pure
    // function of the sim-clock; the smoke run's purpose is the shape
    // assertions at the end.
    let cpu_cell = |d: std::time::Duration| {
        if args.smoke {
            "-".to_string()
        } else {
            format!("{:.3}", d.as_secs_f64() * 1e3)
        }
    };

    // (a) Join with trust negotiation. The clock is reset after scenario
    // construction so only the join process itself is measured. With
    // --emit-obs, this is the instrumented case that lands in the dump.
    let clock = workloads::paper_clock();
    let collector = args.collector_for(&clock);
    let mut s = workloads::scenario(clock);
    s.toolkit.clock.reset();
    let cpu = Instant::now();
    workloads::join_with_tn(&mut s, Strategy::Standard).expect("join succeeds");
    let cpu_with = cpu.elapsed();
    let sim_with = s.toolkit.clock.elapsed();
    if collector.is_enabled() {
        collector.event(
            "bench.case",
            vec![
                ("experiment".to_string(), "E1/Fig9".into()),
                ("case".to_string(), "join-with-tn".into()),
            ],
        );
        args.dump(&collector);
    }

    // (b) Join without trust negotiation.
    let mut s = workloads::scenario(workloads::paper_clock());
    s.toolkit.clock.reset();
    let cpu = Instant::now();
    workloads::join_without_tn(&mut s).expect("join succeeds");
    let cpu_without = cpu.elapsed();
    let sim_without = s.toolkit.clock.elapsed();

    // (c) Standalone trust negotiation from the TN service.
    let s = workloads::scenario(workloads::paper_clock());
    s.toolkit.clock.reset();
    let cpu = Instant::now();
    workloads::standalone_tn(&s, Strategy::Standard).expect("negotiation succeeds");
    let cpu_tn = cpu.elapsed();
    let sim_tn = s.toolkit.clock.elapsed();

    report.row(
        "Join with trust negotiation",
        &[
            format!("{:.2}", sim_with.as_secs_f64()),
            "~4".into(),
            cpu_cell(cpu_with),
        ],
    );
    report.row(
        "Join",
        &[
            format!("{:.2}", sim_without.as_secs_f64()),
            "~3".into(),
            cpu_cell(cpu_without),
        ],
    );
    report.row(
        "Trust negotiation",
        &[
            format!("{:.2}", sim_tn.as_secs_f64()),
            "~1".into(),
            cpu_cell(cpu_tn),
        ],
    );
    let overhead = (sim_with.as_secs_f64() / sim_without.as_secs_f64() - 1.0) * 100.0;
    report.note(&format!(
        "TN adds {overhead:.0}% to the join (paper: ~27-33%); sim wall-clock uses \
         the CostModel::paper_testbed() latencies (DESIGN.md §3)"
    ));
    report.print();

    // Shape assertions: fail loudly if the reproduction drifts.
    assert!(sim_with > sim_without, "join with TN must cost more");
    assert!(
        sim_tn < sim_without,
        "standalone TN must be cheaper than the join"
    );
    let ratio = sim_with.as_secs_f64() / sim_without.as_secs_f64();
    assert!(
        (1.1..=1.7).contains(&ratio),
        "overhead ratio {ratio} outside the paper's shape"
    );
}
