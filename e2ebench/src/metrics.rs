//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! lists the same names in the same order (a test holds them together).

/// What a per-layer metric measures, which decides whether it must
/// repeat exactly between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Work counted by the program or the benchmark: identical across
    /// two runs with the same seed.
    Count,
    /// Wall time or memory: varies with the host.
    Measured,
}

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("negotiations_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

use Kind::{Count, Measured};

/// Per-layer metrics, from the traced run: `(name, unit, kind)`.
pub const PER_LAYER: [(&str, &str, Kind); 64] = [
    // vo
    ("vo.self_us_per_op", "us", Measured),
    ("vo.negotiations_per_op", "count", Count),
    ("vo.sim_ms_per_op", "ms", Count),
    // negotiation
    ("negotiation.self_us_per_op", "us", Measured),
    ("negotiation.policy_phase_us_per_neg", "us", Measured),
    ("negotiation.exchange_phase_us_per_neg", "us", Measured),
    ("negotiation.policy_evaluations_per_neg", "count", Count),
    ("negotiation.useful_policy_ratio", "ratio", Count),
    // credential, crypto
    ("credential.checks_per_op", "count", Count),
    ("credential.cache_hit_ratio", "ratio", Count),
    ("credential.cache_evictions_per_op", "count", Count),
    ("crypto.verify_per_op", "count", Count),
    ("crypto.batch_sigs_per_op", "count", Count),
    ("crypto.sign_per_op", "count", Count),
    ("crypto.table_builds_per_op", "count", Count),
    // soa bus, wire and client
    ("soa.calls_per_op", "count", Count),
    ("soa.call_us", "us", Measured),
    ("soa.bus_self_us_per_call", "us", Measured),
    ("soa.bus_self_us_per_op", "us", Measured),
    ("soa.wire_bytes_per_call", "B", Count),
    ("soa.caller_self_us_per_op", "us", Measured),
    ("soa.faults_per_call", "ratio", Count),
    // soa tn_service
    ("soa.tn_start_us", "us", Measured),
    ("soa.tn_policy_exchange_us", "us", Measured),
    ("soa.tn_credential_exchange_us", "us", Measured),
    ("soa.tn_resume_us", "us", Measured),
    ("soa.tn_start_calls_per_op", "count", Count),
    ("soa.tn_policy_exchange_calls_per_op", "count", Count),
    ("soa.tn_credential_exchange_calls_per_op", "count", Count),
    ("soa.tn_resume_calls_per_op", "count", Count),
    ("soa.tn_self_us_per_op", "us", Measured),
    ("soa.tn_checkpoint_us_per_op", "us", Measured),
    ("soa.tn_retained_kib_per_neg", "KiB", Measured),
    // soa retry and resume
    ("soa.retries_per_op", "count", Count),
    ("soa.resumes_per_op", "count", Count),
    ("soa.restarts_per_op", "count", Count),
    // admission
    ("admission.gate_us_per_call", "us", Measured),
    ("admission.self_us_per_op", "us", Measured),
    ("admission.refusals_per_op", "count", Count),
    // store, journal
    ("journal.bytes_per_op", "B", Count),
    ("journal.records_per_op", "count", Count),
    ("store.ops_per_op", "count", Count),
    ("journal.replay_us_per_op", "us", Measured),
    ("journal.replay_mib_per_s", "MiB/s", Measured),
    // netsim
    ("netsim.drops_per_op", "count", Count),
    ("netsim.dedup_replays_per_op", "count", Count),
    ("netsim.transit_self_us_per_op", "us", Measured),
    // ontology
    ("ontology.similarity_scans_per_op", "count", Count),
    ("ontology.direct_hits_per_op", "count", Count),
    // SimClock charges per op, by cost kind
    ("sim.soap-roundtrip_per_op", "count", Count),
    ("sim.db-query_per_op", "count", Count),
    ("sim.signature-verify_per_op", "count", Count),
    ("sim.signature-sign_per_op", "count", Count),
    ("sim.policy-evaluation_per_op", "count", Count),
    ("sim.ontology-mapping_per_op", "count", Count),
    ("sim.gui-step_per_op", "count", Count),
    ("sim.certificate-issue_per_op", "count", Count),
    // obs, residual, host
    ("obs.traced_op_us", "us", Measured),
    ("unattributed_us_per_op", "us", Measured),
    ("obs.trace_overhead_ratio", "ratio", Measured),
    ("obs.dropped_records", "count", Count),
    ("host.steal_ratio", "ratio", Measured),
    ("host.runq_wait_ratio", "ratio", Measured),
    ("host.nproc", "count", Measured),
];

/// The unit of a metric of either list.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(n, u)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
