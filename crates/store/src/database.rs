//! A thread-safe database of named collections.
//!
//! Plays the role of the prototype's Oracle/MySQL instance: each party's TN
//! service connects with its own connection parameters (§6.2,
//! `StartNegotiationRequest` carries "the parameters to connect to the
//! Oracle database containing the disclosure policies and credentials of
//! the invoker") — here, each party gets its own [`Database`] handle.

use crate::collection::Collection;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
#[cfg(feature = "journal")]
use trust_vo_journal::{Fact, Fnv64, Journal, Replay};
use trust_vo_obs::Collector;

/// Aggregate statistics over the whole database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of collections.
    pub collections: usize,
    /// Live documents across all collections.
    pub documents: usize,
    /// Total operations performed.
    pub operations: u64,
}

/// A shareable database handle.
#[derive(Debug, Clone, Default)]
pub struct Database {
    inner: Arc<RwLock<BTreeMap<String, Collection>>>,
    obs: Arc<OnceLock<Collector>>,
    #[cfg(feature = "journal")]
    journal: Arc<OnceLock<Arc<Journal>>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a collector: subsequent collection accesses record their
    /// wall-clock latency to the `store.<collection>.op_us` histogram of
    /// the collector's registry. First attachment wins; shared by clones.
    pub fn attach_obs(&self, collector: &Collector) {
        if collector.is_enabled() {
            let _ = self.obs.set(collector.clone());
        }
    }

    fn record_latency(&self, name: &str, started: Instant) {
        if let Some(registry) = self.obs.get().and_then(Collector::registry) {
            registry
                .latency_histogram(&format!("store.{name}.op_us"))
                .record(started.elapsed().as_micros() as u64);
        }
    }

    /// Attach a journal: every subsequent `put`/`delete` through any
    /// collection of this database (existing or created later) appends a
    /// replayable [`Fact`]. First attachment wins; shared by clones.
    #[cfg(feature = "journal")]
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        if self.journal.set(journal.clone()).is_ok() {
            let mut guard = self.inner.write();
            for (name, collection) in guard.iter_mut() {
                collection.ensure_journal(&journal, name);
            }
        }
    }

    /// Run `f` with mutable access to the named collection (created on
    /// first use).
    pub fn with_collection<R>(&self, name: &str, f: impl FnOnce(&mut Collection) -> R) -> R {
        let started = Instant::now();
        let result = {
            let mut guard = self.inner.write();
            let collection = guard.entry(name.to_owned()).or_default();
            #[cfg(feature = "journal")]
            if let Some(journal) = self.journal.get() {
                collection.ensure_journal(journal, name);
            }
            f(collection)
        };
        self.record_latency(name, started);
        result
    }

    /// Run `f` with shared read access to the named collection. Unlike
    /// [`Database::with_collection`] this takes the read lock, so any
    /// number of readers proceed concurrently (collection reads are
    /// `&self`); returns `None` when the collection does not exist.
    pub fn read_collection<R>(&self, name: &str, f: impl FnOnce(&Collection) -> R) -> Option<R> {
        let started = Instant::now();
        let result = {
            let guard = self.inner.read();
            guard.get(name).map(f)
        };
        // Only record latency for collections that exist: probing a missing
        // name must not register a phantom `store.<name>.op_us` histogram.
        if result.is_some() {
            self.record_latency(name, started);
        }
        result
    }

    /// Rebuild state from replayed facts (e.g. after a crash). Facts apply
    /// through the replay path, which neither re-journals nor counts ops —
    /// so a restored database digests identically to the original. A
    /// `Put` installs the document bytes it carries, after checking that
    /// they decode; no XML is parsed. [`Fact::Mapping`] facts belong to
    /// the ontology layer and [`Fact::Reputation`]/[`Fact::Mana`] to the
    /// admission layer; all three are skipped here.
    ///
    /// Returns how many facts were applied (skipped ones included). That
    /// is all of them unless a `Put` whose document does not decode came
    /// first: the restore stops there, like replay at an undecodable
    /// record, so the state is always that of a clean prefix of `facts`.
    #[cfg(feature = "journal")]
    pub fn restore_from_facts<'a>(&self, facts: impl IntoIterator<Item = &'a Fact>) -> usize {
        let mut guard = self.inner.write();
        let mut applied = 0;
        for fact in facts {
            match fact {
                Fact::Put {
                    collection,
                    id,
                    doc,
                } => {
                    if trust_vo_xmldoc::decode_element(doc).is_none() {
                        break;
                    }
                    guard
                        .entry(collection.clone())
                        .or_default()
                        .apply_put(id.as_str().into(), Arc::clone(doc));
                }
                Fact::Delete { collection, id } => {
                    if let Some(c) = guard.get_mut(collection) {
                        c.apply_delete(&id.as_str().into());
                    }
                }
                Fact::Mapping { .. } | Fact::Reputation { .. } | Fact::Mana { .. } => {}
            }
            applied += 1;
        }
        applied
    }

    /// Replay a journal into this database; returns the replay (digest,
    /// truncation flag) for the caller to inspect. A `Put` whose document
    /// does not decode ends the restore like a torn tail: `truncated` is
    /// set and `facts` keeps only the facts applied before it (`records`
    /// and `clean_len` still describe the frame scan).
    #[cfg(feature = "journal")]
    pub fn restore_from_journal(&self, journal: &Journal) -> Replay {
        let mut replay = journal.replay();
        let applied = self.restore_from_facts(&replay.facts);
        if applied < replay.facts.len() {
            replay.facts.truncate(applied);
            replay.truncated = true;
        }
        replay
    }

    /// Facts that rebuild the entire database — full revision histories
    /// and tombstones included. The input to snapshot compaction.
    #[cfg(feature = "journal")]
    pub fn snapshot_facts(&self) -> Vec<Fact> {
        let guard = self.inner.read();
        let mut out = Vec::new();
        for (name, c) in guard.iter() {
            c.snapshot_facts(name, &mut out);
        }
        out
    }

    /// Compact `journal` down to a single snapshot of this database's
    /// current state.
    #[cfg(feature = "journal")]
    pub fn compact_into(&self, journal: &Journal) {
        journal.compact(&self.snapshot_facts());
    }

    /// Deterministic digest of the logical state: collection names, ids,
    /// revision histories (their stored bytes, folded as they are),
    /// tombstones. Op counters are excluded so a replayed database
    /// digests equal to the original.
    #[cfg(feature = "journal")]
    pub fn state_digest(&self) -> u64 {
        let guard = self.inner.read();
        let mut h = Fnv64::new();
        for (name, c) in guard.iter() {
            c.digest_into(name, &mut h);
        }
        h.finish()
    }

    /// Does the named collection exist?
    pub fn has_collection(&self, name: &str) -> bool {
        self.inner.read().contains_key(name)
    }

    /// Drop a collection entirely. Returns whether it existed.
    pub fn drop_collection(&self, name: &str) -> bool {
        self.inner.write().remove(name).is_some()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        let guard = self.inner.read();
        StoreStats {
            collections: guard.len(),
            documents: guard.values().map(Collection::len).sum(),
            operations: guard.values().map(Collection::ops).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trust_vo_xmldoc::Element;

    #[test]
    fn collections_created_on_demand() {
        let db = Database::new();
        assert!(!db.has_collection("policies"));
        db.with_collection("policies", |c| {
            c.put("p1", Element::new("policy"));
        });
        assert!(db.has_collection("policies"));
        let found = db.with_collection("policies", |c| c.get(&"p1".into()));
        assert!(found.is_some());
    }

    #[test]
    fn stats_aggregate() {
        let db = Database::new();
        db.with_collection("a", |c| {
            c.put("1", Element::new("x"));
            c.put("2", Element::new("y"));
        });
        db.with_collection("b", |c| {
            c.put("1", Element::new("z"));
        });
        let stats = db.stats();
        assert_eq!(stats.collections, 2);
        assert_eq!(stats.documents, 3);
        assert!(stats.operations >= 3);
    }

    #[test]
    fn drop_collection() {
        let db = Database::new();
        db.with_collection("tmp", |c| {
            c.put("1", Element::new("x"));
        });
        assert!(db.drop_collection("tmp"));
        assert!(!db.drop_collection("tmp"));
        assert!(!db.has_collection("tmp"));
    }

    #[test]
    fn handles_share_state() {
        let db = Database::new();
        let db2 = db.clone();
        db.with_collection("shared", |c| {
            c.put("1", Element::new("x"));
        });
        assert!(db2.has_collection("shared"));
        assert_eq!(db2.stats().documents, 1);
    }

    #[test]
    fn read_collection_shares_access() {
        let db = Database::new();
        assert!(db.read_collection("missing", |_| ()).is_none());
        db.with_collection("docs", |c| {
            c.put("1", Element::new("x"));
        });
        let got = db.read_collection("docs", |c| c.get(&"1".into()));
        assert!(got.expect("collection exists").is_some());
        // Reads are counted even through the shared path.
        let ops = db.stats().operations;
        db.read_collection("docs", |c| {
            c.get(&"1".into());
        });
        assert_eq!(db.stats().operations, ops + 1);
    }

    #[test]
    fn concurrent_readers_count_every_op() {
        let db = Database::new();
        db.with_collection("docs", |c| {
            c.put("1", Element::new("x"));
        });
        let ops_before = db.stats().operations;
        std::thread::scope(|s| {
            for _ in 0..8 {
                let db = db.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        db.read_collection("docs", |c| {
                            c.get(&"1".into());
                        });
                    }
                });
            }
        });
        assert_eq!(db.stats().operations, ops_before + 8 * 50);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn attached_collector_records_op_latencies() {
        let db = Database::new();
        let collector = Collector::new();
        db.attach_obs(&collector);
        db.with_collection("profiles", |c| {
            c.put("1", Element::new("x"));
        });
        db.read_collection("profiles", |c| {
            c.get(&"1".into());
        });
        let snapshot = collector.metrics();
        let hist = snapshot
            .histograms
            .get("store.profiles.op_us")
            .expect("histogram registered");
        assert_eq!(hist.count, 2);
        // Clones share the attachment.
        db.clone().with_collection("profiles", |c| c.len());
        assert_eq!(
            collector.metrics().histograms["store.profiles.op_us"].count,
            3
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn read_collection_miss_records_no_latency() {
        let db = Database::new();
        let collector = Collector::new();
        db.attach_obs(&collector);
        assert!(db.read_collection("never-created", |_| ()).is_none());
        assert!(
            !collector
                .metrics()
                .histograms
                .contains_key("store.never-created.op_us"),
            "a miss must not register a phantom histogram"
        );
        // A hit still records.
        db.with_collection("real", |c| {
            c.put("1", Element::new("x"));
        });
        db.read_collection("real", |c| c.len());
        assert_eq!(collector.metrics().histograms["store.real.op_us"].count, 2);
    }

    #[cfg(feature = "journal")]
    #[test]
    fn journaled_mutations_replay_to_identical_state() {
        use std::sync::Arc;
        use trust_vo_journal::Journal;

        let db = Database::new();
        let journal = Arc::new(Journal::in_memory());
        db.attach_journal(journal.clone());
        // Mutations through both pre-existing and on-demand collections.
        db.with_collection("profiles", |c| {
            c.put("p1", Element::new("profile").attr("v", "1"));
            c.put("p1", Element::new("profile").attr("v", "2"));
        });
        db.with_collection("checkpoints", |c| {
            c.put("ck", Element::new("checkpoint"));
            c.delete(&"ck".into());
            c.delete(&"ck".into()); // no-op delete: not journaled
        });
        assert_eq!(journal.stats().appends, 4);

        let restored = Database::new();
        let replay = restored.restore_from_journal(&journal);
        assert!(!replay.truncated);
        assert_eq!(restored.state_digest(), db.state_digest());
        // Restore did not echo facts into a journal or count ops.
        assert_eq!(restored.stats().operations, 0);
        // Revision history is reconstructed exactly.
        let v1 = restored
            .read_collection("profiles", |c| c.get_revision(&"p1".into(), 1))
            .flatten()
            .expect("revision 1 restored");
        assert_eq!(v1.get_attr("v"), Some("1"));
        assert!(restored
            .read_collection("checkpoints", |c| c.get(&"ck".into()).is_none())
            .unwrap());
    }

    #[cfg(feature = "journal")]
    #[test]
    fn restore_stops_at_an_undecodable_put() {
        use std::sync::Arc;
        use trust_vo_journal::Journal;

        let db = Database::new();
        let journal = Arc::new(Journal::in_memory());
        db.attach_journal(journal.clone());
        db.with_collection("docs", |c| {
            c.put("before", Element::new("a"));
        });
        let prefix_digest = db.state_digest();
        // A checksum-valid record whose document bytes do not decode, then
        // a valid one: applying the later fact would restore a state no
        // clean prefix of the log ever had.
        journal.append(&Fact::Put {
            collection: "docs".into(),
            id: "hole".into(),
            doc: Arc::from(&b"not an encoding"[..]),
        });
        journal.append(&Fact::Put {
            collection: "docs".into(),
            id: "after".into(),
            doc: trust_vo_xmldoc::encode_element(&Element::new("b")).into(),
        });
        assert!(
            !journal.replay().truncated,
            "every record is checksum-valid"
        );

        let restored = Database::new();
        let replay = restored.restore_from_journal(&journal);
        assert!(replay.truncated);
        assert_eq!(replay.facts.len(), 1, "only the fact before the hole");
        assert_eq!(restored.state_digest(), prefix_digest);
        assert!(restored
            .read_collection("docs", |c| c.get(&"after".into()))
            .flatten()
            .is_none());
    }

    #[cfg(feature = "journal")]
    #[test]
    fn restore_survives_a_bogus_snapshot_count() {
        use trust_vo_journal::{frame, Journal};

        // One checksum-valid snapshot record (kind 1) claiming u32::MAX
        // facts with none behind the claim: 13 bytes in all.
        let mut log = Vec::new();
        frame::push_record(&mut log, &[1, 0xff, 0xff, 0xff, 0xff]);
        assert_eq!(log.len(), 13);
        let restored = Database::new();
        let replay = restored.restore_from_journal(&Journal::from_bytes(log));
        assert!(replay.truncated);
        assert!(replay.facts.is_empty());
        assert_eq!(restored.state_digest(), Database::new().state_digest());
    }

    #[cfg(feature = "journal")]
    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        use std::sync::Arc;
        use trust_vo_journal::Journal;

        let db = Database::new();
        let journal = Arc::new(Journal::in_memory());
        db.attach_journal(journal.clone());
        for i in 0..20 {
            db.with_collection("docs", |c| {
                c.put("hot", Element::new("d").attr("i", i.to_string()));
            });
        }
        db.with_collection("docs", |c| c.delete(&"hot".into()));
        let before = journal.len_bytes();
        db.compact_into(&journal);
        assert!(journal.len_bytes() < before);

        let restored = Database::new();
        restored.restore_from_journal(&journal);
        assert_eq!(restored.state_digest(), db.state_digest());
    }

    #[cfg(feature = "journal")]
    #[test]
    fn clones_share_the_journal_attachment() {
        use std::sync::Arc;
        use trust_vo_journal::Journal;

        let db = Database::new();
        let journal = Arc::new(Journal::in_memory());
        db.attach_journal(journal.clone());
        db.clone().with_collection("via-clone", |c| {
            c.put("1", Element::new("x"));
        });
        assert_eq!(journal.stats().appends, 1);
    }

    #[test]
    fn concurrent_access() {
        let db = Database::new();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for j in 0..50 {
                        db.with_collection("c", |c| {
                            c.put(format!("{i}-{j}").as_str(), Element::new("doc"));
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.stats().documents, 400);
    }
}
