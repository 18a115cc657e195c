//! `--emit-obs` support shared by the bench binaries.
//!
//! Every table-printing binary accepts:
//!
//! * `--emit-obs <path>` — attach a [`Collector`] to the workload clock
//!   and, after the run, dump every span/event/metric as JSON lines to
//!   `<path>` (see `trust-vo-obs` for the line schema);
//! * `--emit-trace <path>` — same collector, exported as a Chrome
//!   trace-event / Perfetto JSON file instead (open in `ui.perfetto.dev`
//!   or `chrome://tracing`); combinable with `--emit-obs`;
//! * `--smoke` (where documented) — shrink the workload to a single tiny
//!   iteration so CI can exercise the binary in seconds;
//! * `--seed <u64>` (where documented) — the fault-plan / idempotency
//!   seed for chaos binaries such as `fig9_faulty_join`, so a run can be
//!   replayed exactly.
//!
//! Without `--emit-obs` or `--emit-trace` the clock keeps its disabled
//! collector: every span and event call is an early-returning no-op, and
//! the binary's in-binary asserts run all the same.

use std::path::PathBuf;
use trust_vo_obs::Collector;
use trust_vo_soa::simclock::SimClock;

/// Flags recognised by the bench binaries.
#[derive(Debug, Default)]
pub struct ObsArgs {
    /// Dump collected observability records to this path after the run.
    pub emit_obs: Option<PathBuf>,
    /// Dump the run's spans as Perfetto/Chrome trace-event JSON.
    pub emit_trace: Option<PathBuf>,
    /// Run a single shrunken iteration (CI smoke).
    pub smoke: bool,
    /// Deterministic seed for chaos binaries (`--seed <u64>`).
    pub seed: Option<u64>,
}

impl ObsArgs {
    /// Parse `--emit-obs <path>` and `--smoke` from `std::env::args`,
    /// ignoring anything else (so harness-injected flags pass through).
    pub fn from_env() -> Self {
        let mut parsed = ObsArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--emit-obs" => {
                    let path = args.next().unwrap_or_else(|| {
                        eprintln!("--emit-obs requires a path argument");
                        std::process::exit(2);
                    });
                    parsed.emit_obs = Some(PathBuf::from(path));
                }
                "--emit-trace" => {
                    let path = args.next().unwrap_or_else(|| {
                        eprintln!("--emit-trace requires a path argument");
                        std::process::exit(2);
                    });
                    parsed.emit_trace = Some(PathBuf::from(path));
                }
                "--smoke" => parsed.smoke = true,
                "--seed" => {
                    let value = args.next().unwrap_or_else(|| {
                        eprintln!("--seed requires a u64 argument");
                        std::process::exit(2);
                    });
                    parsed.seed = Some(value.parse().unwrap_or_else(|e| {
                        eprintln!("--seed {value}: not a u64 ({e})");
                        std::process::exit(2);
                    }));
                }
                _ => {}
            }
        }
        parsed
    }

    /// A collector for the run: enabled (and attached to `clock`) when
    /// `--emit-obs` or `--emit-trace` was given, disabled otherwise so
    /// the bench pays no instrumentation cost.
    pub fn collector_for(&self, clock: &SimClock) -> Collector {
        if self.emit_obs.is_none() && self.emit_trace.is_none() {
            return Collector::disabled();
        }
        let collector = Collector::new();
        clock.attach_obs(&collector);
        collector
    }

    /// Write the collector's JSONL dump to the `--emit-obs` path (no-op
    /// without the flag). Panics on I/O errors: a bench run that cannot
    /// write its requested artifact should fail loudly.
    ///
    /// Process-wide `crypto.*` and `credcache.*` totals are published
    /// into the dump as metric lines. They are deliberately **absent**
    /// from [`ObsArgs::dump_deterministic`]: under parallel formation the
    /// interleaving of speculative negotiations makes cache hit/miss
    /// splits run-dependent, which would break the byte-identical chaos
    /// gate in ci.sh.
    pub fn dump(&self, collector: &Collector) {
        let Some(path) = &self.emit_obs else {
            return;
        };
        publish_crypto_metrics(collector);
        publish_ontology_metrics(collector);
        std::fs::write(path, collector.to_jsonl())
            .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
        eprintln!("observability dump written to {}", path.display());
    }

    /// Like [`ObsArgs::dump`], but scrubs wall-clock fields from every
    /// record first (see `Collector::to_jsonl_deterministic`), so two runs
    /// of a deterministic workload produce byte-identical files. The CI
    /// chaos smoke diffs two such dumps.
    pub fn dump_deterministic(&self, collector: &Collector) {
        let Some(path) = &self.emit_obs else {
            return;
        };
        std::fs::write(path, collector.to_jsonl_deterministic())
            .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
        eprintln!(
            "deterministic observability dump written to {}",
            path.display()
        );
    }

    /// Write the collector's Perfetto/Chrome trace-event export to the
    /// `--emit-trace` path (no-op without the flag).
    pub fn dump_trace(&self, collector: &Collector) {
        let Some(path) = &self.emit_trace else {
            return;
        };
        std::fs::write(path, collector.to_perfetto())
            .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
        eprintln!("perfetto trace written to {}", path.display());
    }

    /// Like [`ObsArgs::dump_trace`], but with wall-clock timings scrubbed
    /// (see `Collector::to_perfetto_deterministic`) so two same-seed runs
    /// produce byte-identical trace files — the contract the CI chaos
    /// gate diffs.
    pub fn dump_trace_deterministic(&self, collector: &Collector) {
        let Some(path) = &self.emit_trace else {
            return;
        };
        std::fs::write(path, collector.to_perfetto_deterministic())
            .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
        eprintln!("deterministic perfetto trace written to {}", path.display());
    }
}

/// Publish the process-wide crypto-substrate totals — `crypto.*`
/// operation counters and `credcache.*` verified-cache counters — into
/// `collector`'s metrics registry so they land in the JSONL dump. No-op
/// when the collector is disabled. Counters are cumulative per process;
/// each name is brought up to the current total (idempotent across
/// repeated dumps).
pub fn publish_crypto_metrics(collector: &Collector) {
    let Some(registry) = collector.registry() else {
        return;
    };
    let set_total = |name: &str, total: u64| {
        let counter = registry.counter(name);
        counter.add(total.saturating_sub(counter.get()));
    };
    let crypto = trust_vo_crypto::stats::snapshot();
    set_total("crypto.sign", crypto.sign);
    set_total("crypto.verify", crypto.verify);
    set_total("crypto.verify_reference", crypto.verify_reference);
    set_total("crypto.table_builds", crypto.table_builds);
    set_total("crypto.table_hits", crypto.table_hits);
    let cache = trust_vo_credential::VerifiedCache::global().stats();
    set_total("credcache.hits", cache.hits);
    set_total("credcache.misses", cache.misses);
    set_total("credcache.insertions", cache.insertions);
    set_total("credcache.evictions", cache.evictions);
}

/// Publish the process-wide ontology-engine totals — the `ontology.*`
/// mapping and index counters — into `collector`'s metrics registry.
/// Same idempotent bring-up-to-total contract as
/// [`publish_crypto_metrics`].
pub fn publish_ontology_metrics(collector: &Collector) {
    let Some(registry) = collector.registry() else {
        return;
    };
    let set_total = |name: &str, total: u64| {
        let counter = registry.counter(name);
        counter.add(total.saturating_sub(counter.get()));
    };
    let onto = trust_vo_ontology::stats::snapshot();
    set_total("ontology.direct_hits", onto.direct_hits);
    set_total("ontology.similarity_scans", onto.similarity_scans);
    set_total("ontology.reference_scans", onto.reference_scans);
    set_total("ontology.index_candidates", onto.index_candidates);
    set_total("ontology.index_pruned", onto.index_pruned);
    set_total("ontology.index_builds", onto.index_builds);
}

#[cfg(test)]
mod tests {
    use super::*;
    use trust_vo_credential::Timestamp;
    use trust_vo_soa::simclock::CostModel;

    #[test]
    fn no_flag_means_disabled_collector() {
        let args = ObsArgs::default();
        let clock = SimClock::new(CostModel::free(), Timestamp(0));
        assert!(!args.collector_for(&clock).is_enabled());
        args.dump(&Collector::disabled()); // no path: must not write
    }

    #[test]
    fn emit_obs_attaches_and_dumps() {
        let dir = std::env::temp_dir().join("trust-vo-obsutil-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        let args = ObsArgs {
            emit_obs: Some(path.clone()),
            ..ObsArgs::default()
        };
        let clock = SimClock::new(CostModel::paper_testbed(), Timestamp(0));
        let collector = args.collector_for(&clock);
        assert!(collector.is_enabled());
        clock.charge(trust_vo_soa::simclock::CostKind::DbQuery);
        args.dump(&collector);
        let text = std::fs::read_to_string(&path).unwrap();
        let records = trust_vo_obs::parse_jsonl(&text).unwrap();
        assert!(!records.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
