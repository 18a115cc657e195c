//! The cross-negotiation mapping memo.
//!
//! Algorithm 1 resolves the *same* requested concept names over and over:
//! every admission in a VO formation maps the same policy concepts, and
//! the operation phase re-maps them on renewal. A [`MappingOutcome`] is a
//! pure function of `(ontology content, profile content, threshold,
//! requested name)` — so it can be memoized process-wide, exactly like
//! the PR 4 verified-credential cache memoizes signature checks.
//!
//! # Soundness
//!
//! The key embeds a *cache identity* and a *generation counter* for both
//! the ontology and the profile. Every [`crate::graph::Ontology`] /
//! `XProfile` instance gets a process-unique id at construction (clones
//! get fresh ids, so divergent clones can never alias), and every
//! mutation bumps the owning instance's generation — a stale entry is
//! therefore unreachable the moment its source mutates, and a hit can
//! never change a mapping *result*, only its cost. The threshold is part
//! of the key (as raw `f64` bits), so callers with different confidence
//! floors never share entries.
//!
//! The memo is sharded (16 ways) and capacity-bounded with per-shard
//! FIFO eviction; hit/miss/insertion/eviction counters are always-on
//! [`trust_vo_obs::Counter`]s. [`MapMemo::set_enabled`] turns the
//! process-wide instance ([`MapMemo::global`]) off and on; the workspace
//! test `tests/memo_off.rs` proves E5b's mapping outcomes identical with
//! the memo off, cold and hot.

use crate::mapping::MappingOutcome;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::sync::{LazyLock, Mutex};
use trust_vo_journal::{Fact, Journal};
use trust_vo_obs::Counter;

/// Memo key: everything a [`MappingOutcome`] is a pure function of.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// Ontology `(cache_id, generation)`.
    ontology: (u64, u64),
    /// Profile `(cache_id, generation)`.
    profile: (u64, u64),
    /// Similarity threshold, as raw bits (distinct floors never alias).
    threshold_bits: u64,
    /// The requested concept name.
    concept: Box<str>,
}

impl MemoKey {
    /// Build a key from the two source identities plus the request.
    pub fn new(ontology: (u64, u64), profile: (u64, u64), threshold: f64, concept: &str) -> Self {
        MemoKey {
            ontology,
            profile,
            threshold_bits: threshold.to_bits(),
            concept: concept.into(),
        }
    }

    /// Shard selector.
    fn shard(&self, shards: usize) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish() as usize % shards
    }
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<MemoKey, MappingOutcome>,
    order: VecDeque<MemoKey>,
}

/// Point-in-time memo counter totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapMemoStats {
    /// Mapping requests answered from the memo.
    pub hits: u64,
    /// Mapping requests that ran Algorithm 1.
    pub misses: u64,
    /// Outcomes inserted.
    pub insertions: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

impl MapMemoStats {
    /// Hit rate in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, capacity-bounded memo of mapping outcomes.
#[derive(Debug)]
pub struct MapMemo {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    enabled: AtomicBool,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    /// When armed, every genuinely-inserted similarity resolution
    /// (`alias → canonical`) spills a [`Fact::Mapping`] record — the
    /// durable form of the paper's §4.3 dictionary.
    journal: OnceLock<Arc<Journal>>,
}

/// Shards in the global memo.
const GLOBAL_SHARDS: usize = 16;
/// Per-shard capacity of the global memo: 16 × 1024 = 16384 outcomes —
/// far beyond any scenario's live concept vocabulary, small enough to
/// never matter even with per-clone key churn.
const GLOBAL_PER_SHARD: usize = 1024;

static GLOBAL: LazyLock<MapMemo> = LazyLock::new(|| MapMemo::new(GLOBAL_SHARDS, GLOBAL_PER_SHARD));

impl MapMemo {
    /// A new enabled memo with `shards` shards of `per_shard_capacity`
    /// entries each.
    pub fn new(shards: usize, per_shard_capacity: usize) -> Self {
        let shards = shards.max(1);
        MapMemo {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: per_shard_capacity.max(1),
            enabled: AtomicBool::new(true),
            hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            evictions: Counter::new(),
            journal: OnceLock::new(),
        }
    }

    /// Attach a journal: each subsequently-memoized concept resolution
    /// that went through similarity matching appends a [`Fact::Mapping`]
    /// (the alias the counterpart used and the local canonical concept it
    /// resolved to). First attachment wins. On the process-wide
    /// [`MapMemo::global`] this is a startup-time call — tests use private
    /// memos via `MappingEngine::with_memo` instead.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        let _ = self.journal.set(journal);
    }

    /// The process-wide memo every `map_concept` call goes through.
    pub fn global() -> &'static MapMemo {
        &GLOBAL
    }

    /// Toggle the memo. Disabled, every lookup misses silently (no
    /// counter movement) and inserts are dropped — mapping results are
    /// identical either way, only the cost changes.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Is the memo currently enabled?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Look up a memoized outcome. Counts a hit or a miss when enabled.
    pub fn get(&self, key: &MemoKey) -> Option<MappingOutcome> {
        if !self.is_enabled() {
            return None;
        }
        let shard = &self.shards[key.shard(self.shards.len())];
        let hit = shard.lock().expect("map memo lock").map.get(key).cloned();
        if hit.is_some() {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        hit
    }

    /// Record a computed outcome.
    pub fn insert(&self, key: MemoKey, outcome: &MappingOutcome) {
        if !self.is_enabled() {
            return;
        }
        let shard = &self.shards[key.shard(self.shards.len())];
        let mut guard = shard.lock().expect("map memo lock");
        if guard.map.insert(key.clone(), outcome.clone()).is_some() {
            return; // racing mapper got there first
        }
        // Only genuine first inserts spill, and only resolutions that went
        // through similarity matching carry dictionary information (a
        // direct hit's alias *is* its canonical name).
        if let Some(journal) = self.journal.get() {
            if let MappingOutcome::Mapped { via: Some(m), .. } = outcome {
                journal.append(&Fact::Mapping {
                    alias: key.concept.to_string(),
                    canonical: m.target.clone(),
                });
            }
        }
        guard.order.push_back(key);
        if guard.order.len() > self.per_shard_capacity {
            if let Some(old) = guard.order.pop_front() {
                guard.map.remove(&old);
                self.evictions.inc();
            }
        }
        self.insertions.inc();
    }

    /// Number of memoized outcomes across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("map memo lock").map.len())
            .sum()
    }

    /// True when no outcomes are memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counter totals.
    pub fn stats(&self) -> MapMemoStats {
        MapMemoStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64, concept: &str) -> MemoKey {
        MemoKey::new((tag, 0), (tag + 1, 0), 0.25, concept)
    }

    fn outcome(concept: &str) -> MappingOutcome {
        MappingOutcome::UnknownConcept {
            concept: concept.to_owned(),
            best_confidence: 0.125,
        }
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let memo = MapMemo::new(4, 8);
        let k = key(1, "gender");
        assert!(memo.get(&k).is_none());
        memo.insert(k.clone(), &outcome("gender"));
        assert_eq!(memo.get(&k), Some(outcome("gender")));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn distinct_generations_are_distinct_entries() {
        let memo = MapMemo::new(4, 8);
        memo.insert(key(1, "gender"), &outcome("gender"));
        let bumped = MemoKey::new((1, 1), (2, 0), 0.25, "gender");
        assert!(memo.get(&bumped).is_none());
        let other_threshold = MemoKey::new((1, 0), (2, 0), 0.5, "gender");
        assert!(memo.get(&other_threshold).is_none());
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let memo = MapMemo::new(1, 3);
        for t in 1..=4u64 {
            memo.insert(key(t, "c"), &outcome("c"));
        }
        assert_eq!(memo.len(), 3);
        assert_eq!(memo.stats().evictions, 1);
        assert!(memo.get(&key(1, "c")).is_none(), "oldest entry evicted");
        assert!(memo.get(&key(4, "c")).is_some());
    }

    #[test]
    fn disabled_memo_is_inert() {
        let memo = MapMemo::new(2, 8);
        memo.set_enabled(false);
        let k = key(3, "x");
        memo.insert(k.clone(), &outcome("x"));
        assert!(memo.get(&k).is_none());
        assert_eq!(memo.stats(), MapMemoStats::default());
        assert!(memo.is_empty());
        memo.set_enabled(true);
        memo.insert(k.clone(), &outcome("x"));
        assert!(memo.get(&k).is_some());
    }
}
