//! The timed loops and the metrics computed from them.
//!
//! An untraced run sets up [`SETUPS`] times (reporting the median set-up
//! time), then runs one closed loop over `--seconds` and reports the
//! end-to-end metrics. A traced run sets up once, runs half its time
//! with every op's spans collected and attributed to layers, then sets
//! up again and runs the other half untraced, as the base of the
//! tracing overhead.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use trust_vo_credential::VerifiedCache;
use trust_vo_journal::frame;
use trust_vo_obs::{Collector, Record};
use trust_vo_soa::simclock::CostKind;

use crate::attrib::{Breakdown, Layer};
use crate::host::{self, HostWindow};
use crate::metrics::{Kind, PER_LAYER};
use crate::stats::{beyond, median, percentile, ratio, MIN_BEYOND};
use crate::workload::{Op, Workload};
use crate::wrap;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Fewest timed ops per untraced loop, so that p99 has at least
/// [`MIN_BEYOND`] samples beyond it.
const MIN_OPS: usize = 1000;

/// No loop runs past this, however slow the ops: the run must end well
/// within its 180 s limit.
const HARD_STOP: Duration = Duration::from_secs(120);

/// What a run reports.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, samples)` in report order.
    pub metrics: Vec<(&'static str, f64, usize)>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

#[derive(Debug, Default)]
struct LoopStats {
    op_ms: Vec<f64>,
    /// Summed wall time of the ops, s.
    op_secs: f64,
    failed: u64,
    first_failure: Option<String>,
    negotiations: u64,
    loop_secs: f64,
}

/// Runs `seconds × W::OPS_PER_S` ops (at least `min_ops`) in whole
/// rounds, starting round `r` no earlier than `r / rounds` of the way
/// through the window, so the rounds sample the host across the whole
/// window however fast the ops run. The client spins rather than sleeps
/// between rounds: after a sleep the first ops of a round ran on a cold
/// core and set the p99. `observe` sees every op after it ran, outside
/// its timing.
fn timed_loop<W: Workload>(
    w: &mut W,
    seconds: f64,
    min_ops: usize,
    mut observe: impl FnMut(&W, u64, &Op),
) -> LoopStats {
    let rounds = (seconds * W::OPS_PER_S as f64 / W::ROUND as f64)
        .ceil()
        .max(min_ops.div_ceil(W::ROUND) as f64)
        .max(1.0) as usize;
    let slot = seconds / rounds as f64;
    let started = Instant::now();
    let mut stats = LoopStats::default();
    let mut i = 0u64;
    for r in 0..rounds {
        let due = started + Duration::from_secs_f64(slot * r as f64);
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        for _ in 0..W::ROUND {
            let op = w.op(i);
            observe(w, i, &op);
            let secs = op.wall.as_secs_f64();
            stats.op_ms.push(secs * 1e3);
            stats.op_secs += secs;
            stats.negotiations += op.negotiations;
            if let Some(failure) = op.failure {
                stats.failed += 1;
                stats.first_failure.get_or_insert(failure);
            }
            i += 1;
        }
        if started.elapsed() >= HARD_STOP {
            break;
        }
    }
    stats.loop_secs = started.elapsed().as_secs_f64();
    stats
}

fn setup<W: Workload>(seed: u64, generation: u64) -> Result<(W, f64), String> {
    let started = Instant::now();
    let w = W::setup(seed, generation)?;
    Ok((w, started.elapsed().as_secs_f64()))
}

fn failed_setup(e: String) -> RunReport {
    RunReport {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        notes: vec![format!("set-up failed: {e}")],
    }
}

fn single_threaded_note(notes: &mut Vec<String>) -> bool {
    let threads = host::threads().unwrap_or(0);
    notes.push(format!("threads: {threads} (nproc {})", host::nproc()));
    threads == 1
}

/// The untraced run: the end-to-end metrics.
pub fn untraced<W: Workload>(seed: u64, seconds: f64) -> RunReport {
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut state = None;
    for generation in 0..SETUPS as u64 {
        // Drop the previous set-up first: two never coexist.
        drop(state.take());
        match setup::<W>(seed, generation) {
            Ok((w, secs)) => {
                setup_secs.push(secs);
                state = Some(w);
            }
            Err(e) => return failed_setup(e),
        }
    }
    let mut w = state.expect("at least one set-up");
    let window = HostWindow::start();
    let stats = timed_loop(&mut w, seconds, MIN_OPS, |_, _, _| {});
    let host_share = window.finish();
    let peak_rss_mib = host::peak_rss_mib();
    let mut notes = Vec::new();
    let single = single_threaded_note(&mut notes);

    let n = stats.op_ms.len();
    let rounds = n / W::ROUND;
    let p99s = block_p99s(&stats.op_ms, W::ROUND);
    let p99_valid = !p99s.is_empty();
    notes.push(format!(
        "failed_op_ratio: {} ({} of {n} ops){}",
        ratio(stats.failed as f64, n as f64),
        stats.failed,
        stats
            .first_failure
            .as_deref()
            .map(|f| format!("; first: {f}"))
            .unwrap_or_default()
    ));
    notes.push(format!(
        "loop: {:.2} s wall, {:.2} s in ops, {rounds} rounds of {} ops; {} negotiations",
        stats.loop_secs,
        stats.op_secs,
        W::ROUND,
        stats.negotiations
    ));
    notes.push(format!(
        "host: nproc {}, steal_ratio {:.4}, runq_wait_ratio {:.4} (recorded, never used to filter)",
        host::nproc(),
        host_share.steal_ratio,
        host_share.runq_wait_ratio
    ));
    notes.push(format!(
        "op_p99_ms: median of {} blocks of {} ops",
        p99s.len(),
        latency_block(W::ROUND)
    ));
    if !p99_valid {
        notes.push(format!("fewer than {MIN_OPS} ops: no valid op_p99_ms"));
    }
    RunReport {
        correct: stats.failed == 0 && p99_valid && single,
        attempted: n as u64,
        failed: stats.failed,
        metrics: vec![
            ("ops_per_s", ratio(n as f64, stats.op_secs), n),
            (
                "negotiations_per_s",
                ratio(stats.negotiations as f64, stats.op_secs),
                n,
            ),
            ("op_p50_ms", round_p50(&stats.op_ms, W::ROUND), n),
            (
                "op_p99_ms",
                median(&p99s).unwrap_or(0.0),
                p99s.len() * latency_block(W::ROUND),
            ),
            ("peak_rss_mib", peak_rss_mib, 1),
            (
                "setup_s",
                median(&setup_secs).unwrap_or(0.0),
                setup_secs.len(),
            ),
        ],
        notes,
    }
}

/// The mean over rounds of each round's median op time. The host
/// alternates between fast and slow spells that last seconds to
/// minutes; the median of the pooled ops jumps from one spell's level to
/// the other's as a run's mix crosses one half, while this mean moves in
/// proportion to the mix.
fn round_p50(op_ms: &[f64], round: usize) -> f64 {
    let medians: Vec<f64> = op_ms.chunks(round).filter_map(median).collect();
    ratio(medians.iter().sum(), medians.len() as f64)
}

/// Ops per latency block: whole rounds, at least [`MIN_OPS`], so each
/// block's p99 has at least [`MIN_BEYOND`] samples beyond it.
fn latency_block(round: usize) -> usize {
    round * MIN_OPS.div_ceil(round)
}

/// The p99 of every full block of consecutive ops. Their median is the
/// reported p99: a slow spell of the host that covers a few blocks
/// moves it far less than it moves the p99 of the pooled ops.
fn block_p99s(op_ms: &[f64], round: usize) -> Vec<f64> {
    let block = latency_block(round);
    debug_assert!(beyond(block, 99.0) >= MIN_BEYOND);
    op_ms
        .chunks_exact(block)
        .filter_map(|b| {
            let mut sorted = b.to_vec();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, 99.0)
        })
        .collect()
}

/// Every counter the traced report reads, flattened by name.
fn counters<W: Workload>(w: &W, obs: &Collector) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let cred = VerifiedCache::global().stats();
    let crypto = trust_vo_crypto::stats::snapshot();
    let onto = trust_vo_ontology::stats::snapshot();
    for (name, v) in [
        ("credcache.hits", cred.hits),
        ("credcache.misses", cred.misses),
        ("credcache.evictions", cred.evictions),
        ("crypto.verify", crypto.verify),
        ("crypto.batch_sigs", crypto.verify_batch_sigs),
        ("crypto.sign", crypto.sign),
        ("crypto.table_builds", crypto.table_builds),
        ("ontology.similarity_scans", onto.similarity_scans),
        ("ontology.direct_hits", onto.direct_hits),
    ] {
        out.insert(name.to_owned(), v as f64);
    }
    for (name, v) in obs.metrics().counters {
        out.insert(name, v as f64);
    }
    for (name, v) in w.counters() {
        out.insert(name.to_owned(), v as f64);
    }
    out
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

fn add_counts(into: &mut BTreeMap<String, f64>, op: &Op) {
    for (name, v) in &op.counts {
        *into.entry((*name).to_owned()).or_default() += v;
    }
}

/// The traced run: per-layer metrics.
pub fn traced<W: Workload>(seed: u64, seconds: f64) -> RunReport {
    let (mut w, _) = match setup::<W>(seed, 0) {
        Ok(s) => s,
        Err(e) => return failed_setup(e),
    };
    let obs = Collector::new();
    w.trace_into(&obs);
    let window = HostWindow::start();
    let c0 = counters(&w, &obs);
    let rss0 = host::status_kib("VmRSS").unwrap_or(0);
    let mut window_counters = None;
    let mut window_counts: BTreeMap<String, f64> = BTreeMap::new();
    let mut window_negotiations = 0u64;
    let mut all_counts: BTreeMap<String, f64> = BTreeMap::new();
    let mut breakdown = Breakdown::default();
    let mut exact = true;
    let count_ops = W::COUNT_OPS as u64;
    let phase = seconds / 2.0;
    let traced = timed_loop(&mut w, phase, W::COUNT_OPS, |w, i, op| {
        let spans: Vec<_> = obs
            .drain()
            .into_iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        let total_us = op.wall.as_secs_f64() * 1e6;
        let b = Breakdown::of_op(total_us, &spans, &op.outside);
        let sum = b.layers.iter().sum::<f64>() + b.unattributed_us;
        exact &= (sum - total_us).abs() <= 1e-6 * total_us.max(1.0);
        breakdown.absorb(&b);
        add_counts(&mut all_counts, op);
        if i < count_ops {
            add_counts(&mut window_counts, op);
            window_negotiations += op.negotiations;
            if i + 1 == count_ops {
                window_counters = Some(counters(w, &obs));
            }
        }
    });
    let c_end = counters(&w, &obs);
    let rss1 = host::status_kib("VmRSS").unwrap_or(0);
    let dropped = obs.dropped();
    drop(w);

    // The untraced half: a fresh set-up, since a collector attached to a
    // long-lived service clock cannot be detached.
    let (mut w, _) = match setup::<W>(seed, 1) {
        Ok(s) => s,
        Err(e) => return failed_setup(e),
    };
    let base = timed_loop(&mut w, phase, 1, |_, _, _| {});
    let host_share = window.finish();
    let mut notes = Vec::new();
    let single = single_threaded_note(&mut notes);

    let counted = window_counters.is_some();
    let d = delta(&c0, &window_counters.unwrap_or_default());
    let d_all = delta(&c0, &c_end);
    let n = W::COUNT_OPS as f64;
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    // A count held either by the workload (its counters) or by its ops.
    let count = |k: &str| get(&d, k) + get(&window_counts, k);
    let ops_t = traced.op_ms.len() as f64;
    let negs_t = traced.negotiations as f64;
    let calls_t = get(&d_all, "bus.calls");
    let layer = |l: Layer| breakdown.layer_us(l);
    let span = |k: &str| breakdown.span(k);
    let per_call = |k: &str| ratio(span(k).wall_us, span(k).calls as f64);
    let hits = get(&d, "credcache.hits");
    let lookups = hits + get(&d, "credcache.misses");
    let disclosed = get(&d, "negotiation.policies_disclosed");
    // Frame payloads only: the envelope and reply encodings.
    let wire_bytes = get(&d, "bus.wire.tx_bytes") + get(&d, "bus.wire.rx_bytes")
        - frame::HEADER_LEN as f64 * get(&d, "bus.wire.frames");
    // The transport boundary: the benchmark's wrapper where it can reach
    // the bus, else the simulated network's own span around each call.
    let call_us = if span(wrap::TRANSPORT).calls > 0 {
        per_call(wrap::TRANSPORT)
    } else {
        per_call("net.transit")
    };
    let overhead = ratio(
        round_p50(&traced.op_ms, W::ROUND),
        round_p50(&base.op_ms, W::ROUND),
    ) - 1.0;

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("vo.negotiations_per_op", window_negotiations as f64 / n),
        ("vo.sim_ms_per_op", count("vo.sim_us") / 1e3 / n),
        (
            "negotiation.policy_phase_us_per_neg",
            ratio(
                span("negotiation.policy_phase").self_us
                    + span("tn.operation/PolicyExchange").self_us,
                negs_t,
            ),
        ),
        (
            "negotiation.exchange_phase_us_per_neg",
            ratio(
                span("negotiation.exchange_phase").self_us
                    + span("tn.operation/CredentialExchange").self_us,
                negs_t,
            ),
        ),
        (
            "negotiation.policy_evaluations_per_neg",
            ratio(
                get(&d, "sim.charge.policy-evaluation"),
                window_negotiations as f64,
            ),
        ),
        (
            "negotiation.useful_policy_ratio",
            ratio(
                disclosed - get(&d, "negotiation.failed_alternatives"),
                disclosed,
            ),
        ),
        ("credential.checks_per_op", lookups / n),
        ("credential.cache_hit_ratio", ratio(hits, lookups)),
        (
            "credential.cache_evictions_per_op",
            get(&d, "credcache.evictions") / n,
        ),
        ("crypto.verify_per_op", get(&d, "crypto.verify") / n),
        ("crypto.batch_sigs_per_op", get(&d, "crypto.batch_sigs") / n),
        ("crypto.sign_per_op", get(&d, "crypto.sign") / n),
        (
            "crypto.table_builds_per_op",
            get(&d, "crypto.table_builds") / n,
        ),
        ("soa.calls_per_op", get(&d, "bus.calls") / n),
        ("soa.call_us", call_us),
        (
            "soa.bus_self_us_per_call",
            ratio(layer(Layer::SoaBus), calls_t),
        ),
        (
            "soa.wire_bytes_per_call",
            ratio(wire_bytes, get(&d, "bus.calls")),
        ),
        (
            "soa.faults_per_call",
            ratio(get(&d, "bus.faults"), get(&d, "bus.calls")),
        ),
        ("soa.tn_start_us", per_call("tn.operation/StartNegotiation")),
        (
            "soa.tn_policy_exchange_us",
            per_call("tn.operation/PolicyExchange"),
        ),
        (
            "soa.tn_credential_exchange_us",
            per_call("tn.operation/CredentialExchange"),
        ),
        (
            "soa.tn_resume_us",
            per_call("tn.operation/ResumeNegotiation"),
        ),
        (
            "soa.tn_start_calls_per_op",
            get(&d, "tn.start_negotiation") / n,
        ),
        (
            "soa.tn_policy_exchange_calls_per_op",
            get(&d, "tn.policy_exchange") / n,
        ),
        (
            "soa.tn_credential_exchange_calls_per_op",
            get(&d, "tn.credential_exchange") / n,
        ),
        (
            "soa.tn_resume_calls_per_op",
            get(&d, "tn.resume_negotiation") / n,
        ),
        (
            "soa.tn_retained_kib_per_neg",
            ratio(rss1 as f64 - rss0 as f64, negs_t),
        ),
        ("soa.retries_per_op", count("soa.retries") / n),
        ("soa.resumes_per_op", count("soa.resumes") / n),
        ("soa.restarts_per_op", count("soa.restarts") / n),
        (
            "admission.gate_us_per_call",
            ratio(layer(Layer::Admission), calls_t),
        ),
        (
            "admission.refusals_per_op",
            get(&d, "admission.rejected") / n,
        ),
        ("journal.bytes_per_op", count("journal.bytes") / n),
        ("journal.records_per_op", count("journal.records") / n),
        ("store.ops_per_op", count("store.ops") / n),
        (
            "journal.replay_mib_per_s",
            ratio(
                get(&all_counts, "journal.bytes") / (1024.0 * 1024.0),
                layer(Layer::JournalReplay) / 1e6,
            ),
        ),
        ("netsim.drops_per_op", count("netsim.drops") / n),
        (
            "netsim.dedup_replays_per_op",
            count("netsim.dedup_replays") / n,
        ),
        (
            "ontology.similarity_scans_per_op",
            get(&d, "ontology.similarity_scans") / n,
        ),
        (
            "ontology.direct_hits_per_op",
            get(&d, "ontology.direct_hits") / n,
        ),
    ]);
    for l in Layer::ALL {
        values.insert(l.metric(), ratio(layer(l), ops_t));
    }
    for (kind, name) in CostKind::ALL.iter().zip(SIM_METRICS) {
        values.insert(name, get(&d, &format!("sim.charge.{}", kind.label())) / n);
    }
    values.extend([
        ("obs.traced_op_us", ratio(breakdown.total_us, ops_t)),
        (
            "unattributed_us_per_op",
            ratio(breakdown.unattributed_us, ops_t),
        ),
        ("obs.trace_overhead_ratio", overhead),
        ("obs.dropped_records", dropped as f64),
        ("host.steal_ratio", host_share.steal_ratio),
        ("host.runq_wait_ratio", host_share.runq_wait_ratio),
        ("host.nproc", host::nproc() as f64),
    ]);

    let failed = traced.failed + base.failed;
    notes.push(format!(
        "traced: {} ops in {:.2} s; counts over the first {} ops; untraced base: {} ops in {:.2} s",
        traced.op_ms.len(),
        traced.loop_secs,
        W::COUNT_OPS,
        base.op_ms.len(),
        base.loop_secs
    ));
    if let Some(f) = traced
        .first_failure
        .as_ref()
        .or(base.first_failure.as_ref())
    {
        notes.push(format!("first failed op: {f}"));
    }
    if dropped > 0 {
        notes.push(format!("collector dropped {dropped} records"));
    }
    if !exact {
        notes.push("layer self times do not sum to the traced op time".to_owned());
    }
    if !counted {
        notes.push(format!(
            "fewer than {} traced ops: no count window",
            W::COUNT_OPS
        ));
    }
    RunReport {
        correct: failed == 0 && dropped == 0 && exact && counted && single,
        attempted: (traced.op_ms.len() + base.op_ms.len()) as u64,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, _, kind)| {
                let value = values[name];
                let samples = match kind {
                    Kind::Count => W::COUNT_OPS,
                    Kind::Measured => traced.op_ms.len(),
                };
                (name, value, samples)
            })
            .collect(),
        notes,
    }
}

/// `sim.<cost kind>_per_op`, in `CostKind::ALL` order.
const SIM_METRICS: [&str; 8] = [
    "sim.soap-roundtrip_per_op",
    "sim.db-query_per_op",
    "sim.signature-verify_per_op",
    "sim.signature-sign_per_op",
    "sim.policy-evaluation_per_op",
    "sim.ontology-mapping_per_op",
    "sim.gui-step_per_op",
    "sim.certificate-issue_per_op",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_blocks_are_whole_rounds_of_at_least_a_thousand_ops() {
        assert_eq!(latency_block(32), 1024);
        assert_eq!(latency_block(128), 1024);
        assert_eq!(latency_block(256), 1024);
        assert_eq!(latency_block(300), 1200);
        assert!(beyond(latency_block(7), 99.0) >= MIN_BEYOND);
    }

    #[test]
    fn round_p50_averages_the_medians_of_rounds() {
        assert_eq!(round_p50(&[1.0, 2.0, 3.0, 10.0, 20.0, 30.0], 3), 11.0);
        assert_eq!(round_p50(&[], 3), 0.0);
    }

    #[test]
    fn block_p99s_take_each_full_block_and_drop_the_tail() {
        // Two full blocks of 1000 (1..=1000, then 1001..=2000) and 500
        // ops that fill no block.
        let ms: Vec<f64> = (1..=2500).map(f64::from).collect();
        assert_eq!(block_p99s(&ms, 250), vec![990.0, 1990.0]);
        assert!(block_p99s(&ms[..999], 1).is_empty());
    }
}
