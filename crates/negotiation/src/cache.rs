//! Trust-sequence caching.
//!
//! Long-lived VOs repeat negotiations: the operation phase re-checks
//! certifications, members re-authorize flows, replacements re-run the
//! formation join (§5.1). The policy-evaluation phase is the expensive
//! part (AND-OR search over both policy sets), and — as long as neither
//! party's policies or profile changed — its result is deterministic. The
//! [`ConcurrentSequenceCache`] memoizes the agreed trust sequence per
//! `(requester, controller, resource, strategy)` and invalidates on a
//! fingerprint of both parties' negotiation state. It is the one cache:
//! a single-threaded caller uses it as is.
//!
//! Unlike [`crate::ticket`], caching is a *local* optimization: the
//! credential exchange phase (and all its verification) still runs, so a
//! revocation that happened since the last negotiation is still caught.

use crate::engine::{
    evaluate_policies, exchange_credentials, NegotiationConfig, NegotiationOutcome, PolicyPhase,
};
use crate::error::NegotiationError;
use crate::party::Party;
use crate::strategy::Strategy;
use crate::view::TrustSequence;
use std::collections::{BTreeMap, HashMap};
use trust_vo_crypto::sha256::Sha256;
use trust_vo_crypto::Digest;
use trust_vo_obs::{Counter, Registry};

/// A fingerprint of everything phase 1 depends on for one party.
///
/// Each credential contributes its [`Credential::fingerprint`]: a digest
/// of its *full canonical encoding* (header incl. issuer/subject keys and
/// both validity bounds, every content attribute) plus the issuer
/// signature, not just a projection of selected header fields. A
/// credential reissued under the same id — new subject key, changed
/// attributes, shifted `not_before` — therefore changes the fingerprint
/// and invalidates cached sequences instead of serving a stale hit. The
/// per-credential digest is computed once and shared by clones, so
/// fingerprints stay cheap on every cache access.
///
/// [`Credential::fingerprint`]: trust_vo_credential::Credential::fingerprint
fn party_fingerprint(party: &Party) -> Digest {
    let mut h = Sha256::new();
    h.update(party.name.as_bytes());
    h.update(&[0]);
    for cred in party.profile.credentials() {
        h.update(&cred.fingerprint());
        h.update(&[1]);
        // Sensitivity lives in the profile, not the credential encoding.
        h.update(party.profile.sensitivity_of(cred.id()).label().as_bytes());
        h.update(&[2]);
    }
    h.update(&[0xff]);
    let mut sink = HashWrite(&mut h);
    for policy in party.policies.iter() {
        use std::fmt::Write;
        let _ = write!(sink, "{policy}");
        sink.0.update(&[3]);
    }
    h.finalize()
}

/// A `fmt::Write` adapter feeding formatted output straight into a hasher.
struct HashWrite<'a>(&'a mut Sha256);

impl std::fmt::Write for HashWrite<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.update(s.as_bytes());
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    requester: String,
    controller: String,
    resource: String,
    strategy: Strategy,
}

#[derive(Debug, Clone)]
struct Entry {
    requester_fp: Digest,
    controller_fp: Digest,
    sequence: TrustSequence,
    last_used: u64,
}

/// Statistics for the cache ablation bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Phase-1 computations skipped.
    pub hits: u64,
    /// Full phase-1 runs (cold or invalidated).
    pub misses: u64,
    /// Entries dropped because a fingerprint changed.
    pub invalidations: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
}

/// Atomic counters backing [`CacheStats`].
///
/// Counters work whether or not an observability [`Registry`] is
/// attached; [`CacheMetrics::in_registry`] additionally publishes them
/// under `cache.*` metric names.
#[derive(Debug, Default)]
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
    evictions: Counter,
}

impl CacheMetrics {
    /// Counters registered in `registry` as `cache.hits`, `cache.misses`,
    /// `cache.invalidations`, and `cache.evictions`. Calling this twice
    /// with the same registry yields handles to the same counters.
    fn in_registry(registry: &Registry) -> Self {
        CacheMetrics {
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            invalidations: registry.counter("cache.invalidations"),
            evictions: registry.counter("cache.evictions"),
        }
    }

    /// Current totals as the plain [`CacheStats`] façade.
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            invalidations: self.invalidations.get(),
            evictions: self.evictions.get(),
        }
    }
}

/// Default number of cached sequences in a [`ConcurrentSequenceCache`].
pub const DEFAULT_CACHE_CAPACITY: usize = 16_384;

/// The memo behind a [`ConcurrentSequenceCache`]: agreed trust
/// sequences, bounded by a least-recently-used eviction policy.
#[derive(Debug)]
struct Memo {
    entries: HashMap<Key, Entry>,
    /// LRU side index: `last_used` tick → key. Ticks are unique, so this
    /// is a total order; the first entry is the eviction victim.
    lru: BTreeMap<u64, Key>,
    capacity: usize,
    tick: u64,
    metrics: CacheMetrics,
    /// Stores that found their key present and replaced it in place: a
    /// miss that added no entry.
    replaced: u64,
}

impl Memo {
    /// An empty memo holding at most `capacity` sequences (`>= 1`),
    /// reporting into `metrics`.
    fn new(capacity: usize, metrics: CacheMetrics) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        Memo {
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            capacity,
            tick: 0,
            metrics,
            replaced: 0,
        }
    }

    /// Mark `key` as most recently used.
    fn touch(&mut self, key: &Key) {
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(key) {
            self.lru.remove(&entry.last_used);
            entry.last_used = self.tick;
            self.lru.insert(self.tick, key.clone());
        }
    }

    /// Drop the least-recently-used entry to make room.
    fn evict_one(&mut self) {
        if let Some((&oldest, _)) = self.lru.iter().next() {
            if let Some(victim) = self.lru.remove(&oldest) {
                self.entries.remove(&victim);
                self.metrics.evictions.inc();
            }
        }
    }

    /// Look up a fingerprint-valid cached sequence, updating statistics:
    /// a valid entry counts a hit (and is touched), a stale entry counts
    /// an invalidation and is dropped, and absence counts a miss.
    fn lookup(
        &mut self,
        key: &Key,
        requester_fp: &Digest,
        controller_fp: &Digest,
    ) -> Option<TrustSequence> {
        if let Some(entry) = self.entries.get(key) {
            if entry.requester_fp == *requester_fp && entry.controller_fp == *controller_fp {
                self.metrics.hits.inc();
                let sequence = entry.sequence.clone();
                self.touch(key);
                return Some(sequence);
            }
            self.metrics.invalidations.inc();
            if let Some(old) = self.entries.remove(key) {
                self.lru.remove(&old.last_used);
            }
        }
        self.metrics.misses.inc();
        None
    }

    /// Insert a freshly computed sequence, evicting if at capacity. A key
    /// already present (two threads missed it together) is replaced in
    /// place as the most recently used: its old tick goes, and nothing is
    /// evicted.
    fn store(
        &mut self,
        key: Key,
        requester_fp: Digest,
        controller_fp: Digest,
        sequence: TrustSequence,
    ) {
        self.tick += 1;
        let entry = Entry {
            requester_fp,
            controller_fp,
            sequence,
            last_used: self.tick,
        };
        if let Some(old) = self.entries.get_mut(&key) {
            self.lru.remove(&old.last_used);
            *old = entry;
            self.lru.insert(self.tick, key);
            self.replaced += 1;
            return;
        }
        if self.entries.len() >= self.capacity {
            self.evict_one();
        }
        self.lru.insert(self.tick, key.clone());
        self.entries.insert(key, entry);
    }
}

/// A thread-safe sequence cache: one least-recently-used memo behind one
/// lock.
///
/// The expensive work — phase-1 policy evaluation and phase-2 credential
/// exchange — always runs *outside* the lock; it is only held for the
/// memo lookup or insert itself.
#[derive(Debug)]
pub struct ConcurrentSequenceCache {
    memo: parking_lot::Mutex<Memo>,
}

impl Default for ConcurrentSequenceCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentSequenceCache {
    /// An empty cache of [`DEFAULT_CACHE_CAPACITY`] sequences.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY, CacheMetrics::default())
    }

    /// Default-sized cache publishing `cache.*` metrics in `registry`.
    pub fn observed(registry: &Registry) -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY, CacheMetrics::in_registry(registry))
    }

    /// An empty cache of `capacity` sequences reporting into `metrics`.
    fn with_capacity(capacity: usize, metrics: CacheMetrics) -> Self {
        ConcurrentSequenceCache {
            memo: parking_lot::Mutex::new(Memo::new(capacity, metrics)),
        }
    }

    /// Negotiate with sequence reuse, safe to call from many threads: on
    /// a fingerprint-valid hit, phase 1 is skipped and the cached sequence
    /// goes straight to the credential exchange phase; otherwise the full
    /// protocol runs and the resulting sequence is cached. Two threads
    /// missing on the same key may both run phase 1 (last insert wins),
    /// which is wasteful but correct — the memo only ever holds computed
    /// results.
    pub fn negotiate(
        &self,
        requester: &Party,
        controller: &Party,
        resource: &str,
        cfg: &NegotiationConfig,
    ) -> Result<NegotiationOutcome, NegotiationError> {
        let key = Key {
            requester: requester.name.clone(),
            controller: controller.name.clone(),
            resource: resource.to_owned(),
            strategy: cfg.strategy,
        };
        let requester_fp = party_fingerprint(requester);
        let controller_fp = party_fingerprint(controller);
        let cached = self.memo.lock().lookup(&key, &requester_fp, &controller_fp);
        let phase = match cached {
            Some(sequence) => PolicyPhase::agreed(resource, sequence),
            None => {
                let phase = evaluate_policies(requester, controller, resource, cfg)?;
                self.memo
                    .lock()
                    .store(key, requester_fp, controller_fp, phase.sequence.clone());
                phase
            }
        };
        exchange_credentials(requester, controller, phase, cfg)
    }

    /// Hit, miss, invalidation and eviction totals.
    pub fn stats(&self) -> CacheStats {
        self.memo.lock().metrics.snapshot()
    }

    /// Cached sequences.
    pub fn len(&self) -> usize {
        self.memo.lock().entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trust_vo_credential::{CredentialAuthority, CredentialError, TimeRange, Timestamp};
    use trust_vo_policy::{DisclosurePolicy, Resource, Term};

    fn window() -> TimeRange {
        TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0))
    }

    fn at() -> Timestamp {
        Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0)
    }

    fn parties() -> (Party, Party) {
        let mut ca = CredentialAuthority::new("CA");
        let mut requester = Party::new("R");
        let mut controller = Party::new("C");
        let cred = ca
            .issue("Quality", "R", requester.keys.public, vec![], window())
            .unwrap();
        requester.profile.add(cred);
        controller.policies.add(DisclosurePolicy::rule(
            "p",
            Resource::service("Svc"),
            vec![Term::of_type("Quality")],
        ));
        requester.trust_root(ca.public_key());
        controller.trust_root(ca.public_key());
        (requester, controller)
    }

    fn key(name: &str) -> Key {
        Key {
            requester: name.to_owned(),
            controller: "C".to_owned(),
            resource: "Svc".to_owned(),
            strategy: Strategy::Standard,
        }
    }

    /// A key stored twice into a full memo (two threads that missed it
    /// together) replaces its entry in place: nothing is evicted, and the
    /// next eviction takes the least recently used *other* key.
    #[test]
    fn storing_a_present_key_replaces_it_in_place() {
        let mut memo = Memo::new(2, CacheMetrics::default());
        let store = |memo: &mut Memo, name: &str| {
            memo.store(key(name), [0; 32], [0; 32], TrustSequence::new());
        };
        store(&mut memo, "A");
        store(&mut memo, "B");
        store(&mut memo, "B");
        assert_eq!(memo.entries.len(), 2);
        assert_eq!(memo.lru.len(), 2, "one tick per entry");
        assert_eq!(memo.metrics.snapshot().evictions, 0);
        assert_eq!(memo.replaced, 1);
        store(&mut memo, "C");
        assert_eq!(memo.metrics.snapshot().evictions, 1);
        assert!(!memo.entries.contains_key(&key("A")), "A was the LRU entry");
        assert!(memo.entries.contains_key(&key("B")));
        assert!(memo.entries.contains_key(&key("C")));
        assert_eq!(memo.entries.len(), 2);
    }

    #[test]
    fn second_run_hits_and_produces_same_sequence() {
        let (requester, controller) = parties();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let cache = ConcurrentSequenceCache::new();
        let first = cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap();
        let second = cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap();
        assert_eq!(first.sequence, second.sequence);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                invalidations: 0,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn reissued_credential_with_same_id_invalidates() {
        use trust_vo_credential::Credential;
        use trust_vo_crypto::KeyPair;

        let (mut requester, controller) = parties();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let cache = ConcurrentSequenceCache::new();
        cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap();

        // Reissue the credential under the SAME id, type, sensitivity, and
        // not_after — only the subject key differs. A fingerprint built from
        // selected header fields would treat this as unchanged and serve a
        // stale hit; the full-encoding fingerprint must invalidate.
        let old = requester.profile.credentials()[0].clone();
        let rogue_keys = KeyPair::from_seed(b"rogue-subject");
        let mut header = old.header().clone();
        header.subject_key = rogue_keys.public;
        let ca_keys = KeyPair::from_seed(b"authority:CA");
        let reissued = Credential::issue_signed(header, old.content().to_vec(), &ca_keys);
        assert_eq!(reissued.id(), old.id());
        assert_eq!(
            reissued.header().validity.not_after,
            old.header().validity.not_after
        );
        requester.profile.remove(old.id());
        requester.profile.add(reissued);

        cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "stale cache hit on a reissued credential");
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let (requester, controller) = parties();
        let cache = ConcurrentSequenceCache::with_capacity(2, CacheMetrics::default());
        let cfg_of = |s| NegotiationConfig::new(s, at());
        let [a, b, c, _] = Strategy::ALL;

        cache
            .negotiate(&requester, &controller, "Svc", &cfg_of(a))
            .unwrap();
        cache
            .negotiate(&requester, &controller, "Svc", &cfg_of(b))
            .unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        cache
            .negotiate(&requester, &controller, "Svc", &cfg_of(a))
            .unwrap();
        // Inserting `c` exceeds capacity and evicts `b`.
        cache
            .negotiate(&requester, &controller, "Svc", &cfg_of(c))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);

        // `a` survived the eviction...
        cache
            .negotiate(&requester, &controller, "Svc", &cfg_of(a))
            .unwrap();
        assert_eq!(cache.stats().hits, 2);
        // ...while `b` was dropped and must recompute.
        let misses_before = cache.stats().misses;
        cache
            .negotiate(&requester, &controller, "Svc", &cfg_of(b))
            .unwrap();
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn concurrent_cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConcurrentSequenceCache>();
    }

    #[test]
    fn concurrent_cache_shared_across_threads() {
        let (requester, controller) = parties();
        let cache = ConcurrentSequenceCache::new();
        // 4 strategies × 4 repeats each, all through one shared cache.
        crossbeam::thread::scope(|s| {
            for strategy in Strategy::ALL {
                for _ in 0..4 {
                    let (cache, requester, controller) = (&cache, &requester, &controller);
                    s.spawn(move |_| {
                        let cfg = NegotiationConfig::new(strategy, at());
                        cache.negotiate(requester, controller, "Svc", &cfg).unwrap();
                    });
                }
            }
        })
        .unwrap();
        let stats = cache.stats();
        // Every negotiation either hit or missed; at least one miss per
        // strategy, and no entry was ever stale or evicted.
        assert_eq!(stats.hits + stats.misses, 16);
        assert!(stats.misses >= 4, "{stats:?}");
        assert_eq!(stats.invalidations, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn stats_conserved_under_concurrent_access() {
        // The counters must conserve every event: each negotiate() call is
        // exactly one hit or one miss, and evictions are forced by a
        // capacity of 16 for 40 keys.
        let (requester, controller) = parties();
        let cache = ConcurrentSequenceCache::with_capacity(16, CacheMetrics::default());
        const THREADS: usize = 8;
        const CALLS_PER_THREAD: usize = 24;
        crossbeam::thread::scope(|s| {
            for t in 0..THREADS {
                let (cache, requester, controller) = (&cache, &requester, &controller);
                s.spawn(move |_| {
                    for i in 0..CALLS_PER_THREAD {
                        // Ungoverned resources (no policy matches ⇒ trivially
                        // granted) keep each negotiation cheap while still
                        // exercising lookup/store on many keys.
                        let resource = format!("R{}", (t * CALLS_PER_THREAD + i) % 40);
                        let cfg = NegotiationConfig::new(Strategy::Standard, at());
                        cache
                            .negotiate(requester, controller, &resource, &cfg)
                            .unwrap();
                    }
                });
            }
        })
        .unwrap();
        let stats = cache.stats();
        let total = (THREADS * CALLS_PER_THREAD) as u64;
        assert_eq!(stats.hits + stats.misses, total, "{stats:?}");
        assert_eq!(stats.invalidations, 0, "{stats:?}");
        assert!(stats.evictions > 0, "capacity 16 must evict: {stats:?}");
        // Every miss inserted an entry, unless another thread's miss on
        // the same key had (then it replaced that entry); evicted entries
        // are no longer resident.
        let replaced = cache.memo.lock().replaced;
        assert_eq!(
            cache.len() as u64,
            stats.misses - stats.evictions - replaced,
            "{stats:?}, {replaced} replaced"
        );
    }

    #[test]
    fn observed_cache_publishes_registry_counters() {
        let (requester, controller) = parties();
        let registry = Registry::new();
        let cache = ConcurrentSequenceCache::observed(&registry);
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap();
        cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cache.hits"), 1);
        assert_eq!(snap.counter("cache.misses"), 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn profile_change_invalidates() {
        let (mut requester, controller) = parties();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let cache = ConcurrentSequenceCache::new();
        cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap();
        // The requester's profile changes (new credential) — the cached
        // sequence may no longer be optimal/valid.
        let mut ca = CredentialAuthority::new("CA2");
        let extra = ca
            .issue("Extra", "R", requester.keys.public, vec![], window())
            .unwrap();
        requester.profile.add(extra);
        cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap();
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn policy_change_invalidates() {
        let (requester, mut controller) = parties();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let cache = ConcurrentSequenceCache::new();
        cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap();
        controller.policies.add(DisclosurePolicy::deliv(
            "extra",
            Resource::credential("Whatever"),
        ));
        cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap();
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn cached_exchange_still_detects_revocation() {
        let (requester, mut controller) = parties();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let cache = ConcurrentSequenceCache::new();
        cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap();
        // A revocation arrives at the controller (its own fingerprint is
        // unchanged — CRLs are not part of the phase-1 state).
        let victim = requester.profile.credentials()[0].id().clone();
        controller.crl.revoke(victim, at());
        let err = cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap_err();
        assert!(matches!(
            err,
            NegotiationError::TrustFailure {
                cause: CredentialError::Revoked { .. }
            }
        ));
        // The hit was counted — the cache worked; safety came from phase 2.
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn abandoned_phase1_leaves_no_phantom_entry() {
        // Satellite: a negotiation abandoned mid-flight — phase 1 never
        // produces a sequence — must not leave a phantom cache entry, and
        // the stats must still account for every attempt.
        let (mut requester, controller) = parties();
        let id = requester.profile.credentials()[0].id().clone();
        requester.profile.remove(&id);
        let cache = ConcurrentSequenceCache::with_capacity(16, CacheMetrics::default());
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        for _ in 0..5 {
            let err = cache
                .negotiate(&requester, &controller, "Svc", &cfg)
                .unwrap_err();
            assert!(matches!(err, NegotiationError::NoTrustSequence { .. }));
        }
        assert!(cache.is_empty(), "phantom entry after abandoned phase 1");
        let stats = cache.stats();
        // Every attempt was a miss (nothing was ever stored to hit on),
        // and nothing was invalidated or evicted.
        assert_eq!(
            stats,
            CacheStats {
                hits: 0,
                misses: 5,
                invalidations: 0,
                evictions: 0
            }
        );
    }

    #[test]
    fn abandoned_phase2_keeps_valid_sequence_without_double_entry() {
        // A negotiation that agrees a sequence but dies in phase 2 (here:
        // a revocation discovered mid-exchange) keeps the — still valid —
        // memoized sequence, and retries hit it instead of duplicating it.
        let (requester, mut controller) = parties();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let cache = ConcurrentSequenceCache::new();
        cache
            .negotiate(&requester, &controller, "Svc", &cfg)
            .unwrap();
        let victim = requester.profile.credentials()[0].id().clone();
        controller.crl.revoke(victim, at());
        for _ in 0..3 {
            let err = cache
                .negotiate(&requester, &controller, "Svc", &cfg)
                .unwrap_err();
            assert!(matches!(err, NegotiationError::TrustFailure { .. }));
        }
        assert_eq!(
            cache.len(),
            1,
            "phase-2 failures must not duplicate entries"
        );
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn stat_conservation_holds_with_concurrent_abandonment() {
        // Mixed workload: one requester succeeds, one abandons every
        // negotiation in phase 1. Residency and stats must still conserve:
        // hits + misses == attempts, and every resident entry was stored
        // by a *successful* phase 1 (failures store nothing).
        let (good, controller) = parties();
        let (mut bad, _) = parties();
        bad.name = "R-bad".into();
        let id = bad.profile.credentials()[0].id().clone();
        bad.profile.remove(&id);

        const RESOURCES: usize = 10;
        const REPEATS: usize = 4;
        let cache = ConcurrentSequenceCache::new();
        crossbeam::thread::scope(|s| {
            for r in 0..RESOURCES {
                for _ in 0..REPEATS {
                    let (cache, good, bad, controller) = (&cache, &good, &bad, &controller);
                    s.spawn(move |_| {
                        let cfg = NegotiationConfig::new(Strategy::Standard, at());
                        // Ungoverned resources: trivially granted for the
                        // good requester; `Svc` fails for the bad one.
                        let resource = format!("R{r}");
                        cache.negotiate(good, controller, &resource, &cfg).unwrap();
                        cache.negotiate(bad, controller, "Svc", &cfg).unwrap_err();
                    });
                }
            }
        })
        .unwrap();
        let stats = cache.stats();
        let attempts = (RESOURCES * REPEATS * 2) as u64;
        assert_eq!(stats.hits + stats.misses, attempts, "{stats:?}");
        assert_eq!(stats.invalidations, 0, "{stats:?}");
        assert_eq!(stats.evictions, 0, "{stats:?}");
        // Exactly one resident entry per successful key; the bad
        // requester's 40 abandoned attempts left nothing behind.
        assert_eq!(cache.len(), RESOURCES);
        // All abandoned attempts missed (their key never gets an entry).
        assert!(stats.misses >= (RESOURCES * REPEATS) as u64, "{stats:?}");
    }

    #[test]
    fn different_strategies_cached_separately() {
        let (requester, controller) = parties();
        let cache = ConcurrentSequenceCache::new();
        for strategy in Strategy::ALL {
            let cfg = NegotiationConfig::new(strategy, at());
            cache
                .negotiate(&requester, &controller, "Svc", &cfg)
                .unwrap();
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().misses, 4);
    }
}
