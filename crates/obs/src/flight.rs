//! A per-negotiation flight recorder: a bounded ring of recent
//! protocol-level moments, dumped as a post-mortem artifact when a
//! negotiation dies.
//!
//! The collector's ring buffer is global and long-lived; by the time a
//! chaos run ends, the spans around one failed negotiation may be
//! thousands of records back (or evicted). A [`FlightRecorder`] is the
//! cheap, local complement: the resilient client driver notes each
//! call, retry burst, resume, and restart into it, and on a terminal
//! fault / abandonment / failed resume [`FlightRecorder::dump`] emits
//! one `flight.dump` event (plus a `flight.dumps` counter) carrying the
//! rendered tail — so E11-style chaos runs always leave a compact
//! "what were the last N things this negotiation did" artifact in the
//! export.
//!
//! Entries are timestamped with the **simulated** clock only, so dumps
//! are deterministic and survive the wall-time scrub of the
//! deterministic exporters. When the `TRUST_VO_FLIGHT_DIR` environment
//! variable names a directory, each dump is additionally written there
//! as `flight-<label>.log` (best effort; I/O errors are ignored — a
//! post-mortem writer must never take the process down with it).

use crate::collector::Collector;
use crate::record::Value;
use std::collections::VecDeque;

/// Default bound on retained entries per negotiation.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

/// One noted moment: simulated timestamp, what happened, detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEntry {
    /// Simulated-clock timestamp (µs) when the moment was noted.
    pub sim_us: u64,
    /// Short machine-ish tag, e.g. `call`, `retry`, `resume`, `fault`.
    pub what: String,
    /// Free-form detail, e.g. the operation and fault code.
    pub detail: String,
}

/// A bounded ring of [`FlightEntry`]s (oldest evicted first).
///
/// A disabled recorder ([`FlightRecorder::disabled`]) ignores notes and
/// dumps, mirroring the disabled-[`Collector`] contract so callers can
/// construct one unconditionally.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    entries: Option<VecDeque<FlightEntry>>,
    capacity: usize,
    evicted: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            entries: Some(VecDeque::with_capacity(capacity.min(64))),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// A recorder that records nothing and dumps nothing.
    pub fn disabled() -> Self {
        FlightRecorder {
            entries: None,
            capacity: 0,
            evicted: 0,
        }
    }

    /// A recorder enabled exactly when `collector` is.
    pub fn for_collector(collector: &Collector) -> Self {
        if collector.is_enabled() {
            Self::default()
        } else {
            Self::disabled()
        }
    }

    /// Whether notes are retained.
    pub fn is_enabled(&self) -> bool {
        self.entries.is_some()
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.as_ref().map_or(0, VecDeque::len)
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Notes one moment; evicts the oldest entry when full.
    pub fn note(&mut self, sim_us: u64, what: &str, detail: impl Into<String>) {
        let capacity = self.capacity;
        if let Some(entries) = &mut self.entries {
            if entries.len() >= capacity {
                entries.pop_front();
                self.evicted += 1;
            }
            entries.push_back(FlightEntry {
                sim_us,
                what: what.to_string(),
                detail: detail.into(),
            });
        }
    }

    /// Renders the retained tail, one line per entry, oldest first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.evicted > 0 {
            out.push_str(&format!("({} earlier entries evicted)\n", self.evicted));
        }
        for e in self.entries.iter().flatten() {
            out.push_str(&format!(
                "sim {:>12}us  {:<8} {}\n",
                e.sim_us, e.what, e.detail
            ));
        }
        out
    }

    /// Dumps the recorder into `collector` as one `flight.dump` event
    /// (fields: `reason`, `label`, `entries`, `log`) and bumps the
    /// `flight.dumps` counter. Also writes `flight-<label>.log` under
    /// `$TRUST_VO_FLIGHT_DIR` when that directory is configured. No-op
    /// when either side is disabled.
    pub fn dump(&self, collector: &Collector, reason: &str, label: &str) {
        if !self.is_enabled() || !collector.is_enabled() {
            return;
        }
        let log = self.render();
        collector.counter_add("flight.dumps", 1);
        collector.event(
            "flight.dump",
            vec![
                ("reason".to_string(), Value::Str(reason.to_string())),
                ("label".to_string(), Value::Str(label.to_string())),
                ("entries".to_string(), Value::from(self.len())),
                ("log".to_string(), Value::Str(log.clone())),
            ],
        );
        if let Ok(dir) = std::env::var("TRUST_VO_FLIGHT_DIR") {
            if !dir.is_empty() {
                let path = std::path::Path::new(&dir).join(format!("flight-{label}.log"));
                let body = format!("reason: {reason}\n{log}");
                let _ = std::fs::write(path, body);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    #[test]
    fn ring_bounds_entries_and_counts_evictions() {
        let mut fr = FlightRecorder::new(2);
        for i in 0..5u64 {
            fr.note(i * 10, "call", format!("op{i}"));
        }
        assert_eq!(fr.len(), 2);
        let text = fr.render();
        assert!(text.contains("(3 earlier entries evicted)"));
        assert!(text.contains("op3"));
        assert!(text.contains("op4"));
        assert!(!text.contains("op2"));
    }

    #[test]
    fn dump_emits_event_and_counter() {
        let c = Collector::new();
        let mut fr = FlightRecorder::for_collector(&c);
        assert!(fr.is_enabled());
        fr.note(100, "call", "StartNegotiation");
        fr.note(200, "fault", "[Timeout] lost");
        fr.dump(&c, "transport-fault", "neg-7");
        assert_eq!(c.metrics().counter("flight.dumps"), 1);
        let events: Vec<_> = c
            .records()
            .into_iter()
            .filter_map(|r| match r {
                Record::Event(e) if e.name == "flight.dump" => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(events.len(), 1);
        let log = events[0]
            .fields
            .iter()
            .find_map(|(k, v)| match v {
                Value::Str(s) if k == "log" => Some(s.clone()),
                _ => None,
            })
            .unwrap();
        assert!(log.contains("StartNegotiation"));
        assert!(log.contains("[Timeout] lost"));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut fr = FlightRecorder::disabled();
        fr.note(1, "call", "x");
        assert!(fr.is_empty());
        let c = Collector::new();
        fr.dump(&c, "whatever", "l");
        assert!(c.records().is_empty());
        // And a live recorder against a disabled collector stays quiet.
        let mut live = FlightRecorder::for_collector(&Collector::disabled());
        live.note(1, "call", "x");
        assert!(live.is_empty());
    }
}
