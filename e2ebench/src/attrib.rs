//! Wall-time attribution of one traced op to layers, from the spans the
//! program emits plus the benchmark's own boundary spans (see
//! [`crate::wrap`]).
//!
//! A span's self time is its wall time minus the wall time of its
//! direct children. Self times are grouped by layer, and whatever part
//! of the op's measured time no known span covers is the residual
//! (`unattributed`), so the layers plus the residual equal the op time
//! exactly.

use std::collections::BTreeMap;
use std::collections::HashMap;

use trust_vo_obs::{SpanRecord, Value};

use crate::wrap;

/// The layers an op's wall time is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Formation logic: candidate ranking, join flow, certificates.
    Vo,
    /// Trust-X policy and credential exchange (in-process phases, or the
    /// service's PolicyExchange/CredentialExchange minus checkpoints).
    Negotiation,
    /// Caller-side SOA client: envelopes, retry, resume.
    SoaClient,
    /// Bus, wire framing and codec, dispatch (the gate excluded).
    SoaBus,
    /// Admission gate.
    Admission,
    /// TN service operations other than the two exchange phases.
    TnService,
    /// TN service checkpoints: store write, journal append, token signing.
    TnCheckpoint,
    /// Simulated network transit (lifecycle only; includes wire framing
    /// there, since the bus inside a scenario run cannot be wrapped).
    Netsim,
    /// Journal replay into a fresh database plus its state digest.
    JournalReplay,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Vo,
        Layer::Negotiation,
        Layer::SoaClient,
        Layer::SoaBus,
        Layer::Admission,
        Layer::TnService,
        Layer::TnCheckpoint,
        Layer::Netsim,
        Layer::JournalReplay,
    ];

    /// The per-layer metric reporting this layer's self time per op.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Vo => "vo.self_us_per_op",
            Layer::Negotiation => "negotiation.self_us_per_op",
            Layer::SoaClient => "soa.caller_self_us_per_op",
            Layer::SoaBus => "soa.bus_self_us_per_op",
            Layer::Admission => "admission.self_us_per_op",
            Layer::TnService => "soa.tn_self_us_per_op",
            Layer::TnCheckpoint => "soa.tn_checkpoint_us_per_op",
            Layer::Netsim => "netsim.transit_self_us_per_op",
            Layer::JournalReplay => "journal.replay_us_per_op",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|l| *l == self)
            .expect("every layer is in ALL")
    }
}

/// The value of a string field on a span.
fn field_str<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a str> {
    span.fields.iter().find_map(|(k, v)| match v {
        Value::Str(s) if k == key => Some(s.as_str()),
        _ => None,
    })
}

/// The key a span is aggregated under: its name, with the operation
/// appended for TN service operations (`tn.operation/PolicyExchange`).
fn span_key(span: &SpanRecord) -> String {
    match (span.name.as_str(), field_str(span, "operation")) {
        ("tn.operation", Some(op)) => format!("tn.operation/{op}"),
        (name, _) => name.to_owned(),
    }
}

/// The layer a span's self time belongs to; `None` for names this
/// benchmark does not know, whose time stays in the residual.
fn layer_of(span: &SpanRecord) -> Option<Layer> {
    Some(match span.name.as_str() {
        name if name.starts_with("formation.") => Layer::Vo,
        "negotiation.policy_phase" | "negotiation.exchange_phase" => Layer::Negotiation,
        "client.negotiation" | "client.call" | "client.reconnect" | "soa.attempt"
        | "retry.backoff" => Layer::SoaClient,
        wrap::TRANSPORT | "bus.dispatch" | wrap::ENDPOINT => Layer::SoaBus,
        wrap::GATE | "admission.gate" => Layer::Admission,
        "tn.operation" => match field_str(span, "operation") {
            Some("PolicyExchange" | "CredentialExchange") => Layer::Negotiation,
            _ => Layer::TnService,
        },
        "tn.checkpoint" => Layer::TnCheckpoint,
        "net.transit" => Layer::Netsim,
        _ => return None,
    })
}

/// Totals for one span key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    pub calls: u64,
    pub wall_us: f64,
    pub self_us: f64,
}

/// Wall time split into layers plus the residual, summed over one or
/// more ops.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// The ops' measured time, µs.
    pub total_us: f64,
    /// Self time per layer, µs, in [`Layer::ALL`] order.
    pub layers: [f64; Layer::ALL.len()],
    /// Measured time no known span covers, µs.
    pub unattributed_us: f64,
    /// Per span key totals.
    spans: BTreeMap<String, SpanTotal>,
}

impl Breakdown {
    /// Splits one op. `total_us` is the op's measured time; `spans` are
    /// the spans it emitted; `outside` are parts of the op the benchmark
    /// timed itself, outside every span.
    pub fn of_op(total_us: f64, spans: &[SpanRecord], outside: &[(Layer, f64)]) -> Breakdown {
        let mut children_us: HashMap<u64, u64> = HashMap::new();
        for span in spans {
            if let Some(parent) = span.parent {
                *children_us.entry(parent).or_default() += span.wall_us;
            }
        }
        let mut out = Breakdown {
            total_us,
            ..Breakdown::default()
        };
        for span in spans {
            let self_us =
                span.wall_us as f64 - children_us.get(&span.id).copied().unwrap_or(0) as f64;
            let total = out.spans.entry(span_key(span)).or_default();
            total.calls += 1;
            total.wall_us += span.wall_us as f64;
            total.self_us += self_us;
            if let Some(layer) = layer_of(span) {
                out.layers[layer.index()] += self_us;
            }
        }
        for (layer, us) in outside {
            out.layers[layer.index()] += us;
        }
        out.unattributed_us = total_us - out.layers.iter().sum::<f64>();
        out
    }

    /// Adds another op's split into this one.
    pub fn absorb(&mut self, other: &Breakdown) {
        self.total_us += other.total_us;
        for (mine, theirs) in self.layers.iter_mut().zip(other.layers) {
            *mine += theirs;
        }
        self.unattributed_us += other.unattributed_us;
        for (key, t) in &other.spans {
            let mine = self.spans.entry(key.clone()).or_default();
            mine.calls += t.calls;
            mine.wall_us += t.wall_us;
            mine.self_us += t.self_us;
        }
    }

    pub fn layer_us(&self, layer: Layer) -> f64 {
        self.layers[layer.index()]
    }

    pub fn span(&self, key: &str) -> SpanTotal {
        self.spans.get(key).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, wall_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            trace_id: 1,
            name: name.to_owned(),
            wall_start_us: 0,
            wall_us,
            sim_start_us: 0,
            sim_us: 0,
            fields: Vec::new(),
        }
    }

    fn op(id: u64, parent: Option<u64>, operation: &str, wall_us: u64) -> SpanRecord {
        let mut s = span(id, parent, "tn.operation", wall_us);
        s.fields
            .push(("operation".to_owned(), Value::Str(operation.to_owned())));
        s
    }

    fn sum(b: &Breakdown) -> f64 {
        b.layers.iter().sum::<f64>() + b.unattributed_us
    }

    #[test]
    fn layers_plus_residual_equal_the_op_time() {
        let spans = [
            span(1, None, "formation.form_vo", 100),
            span(2, Some(1), "negotiation.policy_phase", 30),
            span(3, Some(1), "negotiation.exchange_phase", 20),
        ];
        let b = Breakdown::of_op(110.5, &spans, &[]);
        assert_eq!(b.layer_us(Layer::Vo), 50.0);
        assert_eq!(b.layer_us(Layer::Negotiation), 50.0);
        assert_eq!(b.unattributed_us, 10.5);
        assert_eq!(sum(&b), 110.5);
    }

    #[test]
    fn unknown_spans_and_outside_time_keep_the_sum_exact() {
        let spans = [
            span(1, None, "formation.form_vo_resilient", 80),
            span(2, Some(1), "mystery.stage", 25),
            span(3, Some(2), "tn.checkpoint", 5),
        ];
        let b = Breakdown::of_op(130.0, &spans, &[(Layer::JournalReplay, 40.0)]);
        assert_eq!(b.layer_us(Layer::Vo), 55.0);
        assert_eq!(b.layer_us(Layer::TnCheckpoint), 5.0);
        assert_eq!(b.layer_us(Layer::JournalReplay), 40.0);
        // The unknown span's 20 µs self time joins the 10 µs outside
        // every span in the residual.
        assert_eq!(b.unattributed_us, 30.0);
        assert_eq!(sum(&b), 130.0);
    }

    #[test]
    fn exchange_operations_are_negotiation_time() {
        let spans = [
            span(1, None, wrap::ENDPOINT, 60),
            op(2, Some(1), "PolicyExchange", 40),
            span(3, Some(2), "tn.checkpoint", 15),
            op(4, Some(1), "StartNegotiation", 12),
        ];
        let b = Breakdown::of_op(60.0, &spans, &[]);
        assert_eq!(b.layer_us(Layer::Negotiation), 25.0);
        assert_eq!(b.layer_us(Layer::TnCheckpoint), 15.0);
        assert_eq!(b.layer_us(Layer::TnService), 12.0);
        assert_eq!(b.layer_us(Layer::SoaBus), 8.0);
        assert_eq!(b.unattributed_us, 0.0);
        let policy = b.span("tn.operation/PolicyExchange");
        assert_eq!(
            (policy.calls, policy.wall_us, policy.self_us),
            (1, 40.0, 25.0)
        );
    }

    #[test]
    fn absorbing_ops_keeps_the_sum_exact() {
        let a = Breakdown::of_op(10.0, &[span(1, None, "net.transit", 7)], &[]);
        let b = Breakdown::of_op(4.0, &[span(9, None, "bus.dispatch", 5)], &[]);
        let mut total = Breakdown::default();
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.total_us, 14.0);
        assert_eq!(total.unattributed_us, 2.0);
        assert_eq!(sum(&total), 14.0);
    }
}
