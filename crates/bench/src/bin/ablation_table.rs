//! E9 — extension ablation table: repeat negotiations with the full
//! protocol and with trust tickets, plus what each path still verifies.

use std::time::Instant;
use trust_vo_bench::report::Report;
use trust_vo_bench::workloads;
use trust_vo_credential::{TimeRange, Timestamp};
use trust_vo_negotiation::ticket::negotiate_with_ticket;
use trust_vo_negotiation::{negotiate, NegotiationConfig, Strategy};

fn main() {
    let (requester, controller) = workloads::chain_parties(6, 2);
    let cfg = NegotiationConfig::new(Strategy::Standard, workloads::at());
    let window = TimeRange::one_year_from(Timestamp::parse_iso("2009-10-26T21:32:52").unwrap());
    const ITERS: u32 = 300;

    let timed = |f: &dyn Fn()| {
        let started = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        started.elapsed().as_secs_f64() * 1e6 / f64::from(ITERS)
    };

    let full_us = timed(&|| {
        negotiate(&requester, &controller, "Target", &cfg).unwrap();
    });

    let (ticket, _) =
        negotiate_with_ticket(&requester, &controller, "Target", &cfg, None, window).unwrap();
    let ticket_us = timed(&|| {
        negotiate_with_ticket(
            &requester,
            &controller,
            "Target",
            &cfg,
            Some(&ticket),
            window,
        )
        .unwrap();
    });

    let mut report = Report::new(
        "E9",
        "Repeat-negotiation ablation (chain depth 6, 2 alternatives/level)",
        &["path", "us/negotiation", "speedup", "still verifies"],
    );
    report.row(
        "full two-phase protocol",
        &[format!("{full_us:.1}"), "1.0x".into(), "everything".into()],
    );
    report.row(
        "trust ticket redemption",
        &[
            format!("{ticket_us:.1}"),
            format!("{:.1}x", full_us / ticket_us),
            "ticket signature + holder proof".into(),
        ],
    );
    report.note("tickets reduce a repeat negotiation to two signature operations");
    report.print();

    assert!(ticket_us < full_us, "ticket redemption must be faster");
}
