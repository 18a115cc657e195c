//! The cross-negotiation verified-credential cache.
//!
//! Credential signature checking dominates the join-with-TN overhead
//! (Fig. 9), and the *same* credentials get re-verified across
//! negotiations: every admission re-discloses the same issuer-signed
//! certificates, chain links repeat across parties, and the operation
//! phase re-checks certifications on renewal. A signature check is a pure
//! function of `(credential content, issuer key, signature)` — so its
//! *successful* outcome can be memoized process-wide.
//!
//! # Soundness
//!
//! Only **signature validity** is cached, keyed by a domain-tagged digest
//! of the exact bytes the signature covers plus the issuer key and the
//! signature bits — the full input of the verification predicate, so a
//! hit can only answer "yes" where a full check would. An X-TNL
//! credential is immutable and computes this digest at most once, over
//! the same stored encoding its signature check verifies (see
//! [`crate::credential::Credential::fingerprint`]). Everything time- or
//! state-dependent — the validity window and the revocation check — is
//! *never* cached; callers ([`crate::credential::Credential::verify`],
//! chains, the negotiation engine's `verify_disclosure`) still evaluate
//! those on every call. A revocation that lands after a cache hit is
//! therefore still caught, and a hit can never change a verification
//! *result*, only its cost. Failed checks are never inserted: a forged
//! credential pays full price every time and can never poison the cache.
//! Every inserted key passed a full single-signature check.
//!
//! The cache is sharded (16 ways) and capacity-bounded with per-shard
//! FIFO eviction; `credcache.*` counters (hits / misses / insertions /
//! evictions) are always-on [`trust_vo_obs::Counter`]s that bench
//! binaries export at dump time. [`VerifiedCache::set_enabled`] turns
//! the process-wide instance ([`VerifiedCache::global`]) off and on; the
//! workspace test `tests/verified_cache_off.rs` proves Fig. 9 results
//! identical either way.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{LazyLock, Mutex};
use trust_vo_crypto::{Digest, PublicKey, Signature};
use trust_vo_obs::Counter;

/// Cache key: what a successful signature check is a pure function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifiedKey {
    fingerprint: Digest,
    issuer_key: u64,
    sig: (u64, u64),
}

impl VerifiedKey {
    /// Build a key from a content fingerprint, the issuer key, and the
    /// signature. The fingerprint must digest the exact bytes the
    /// signature covers (the credential formats each prepend a
    /// domain-separation tag so keys never collide across formats).
    pub fn new(fingerprint: Digest, issuer: PublicKey, sig: Signature) -> Self {
        VerifiedKey {
            fingerprint,
            issuer_key: issuer.0,
            sig: (sig.r, sig.s),
        }
    }

    /// Shard selector: the fingerprint is already uniform.
    fn shard(&self, shards: usize) -> usize {
        let mut w = [0u8; 8];
        w.copy_from_slice(&self.fingerprint[..8]);
        (u64::from_be_bytes(w) ^ self.issuer_key) as usize % shards
    }
}

#[derive(Debug, Default)]
struct Shard {
    set: HashSet<VerifiedKey>,
    order: VecDeque<VerifiedKey>,
}

/// Point-in-time `credcache.*` counter totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifiedCacheStats {
    /// Signature checks answered from the cache.
    pub hits: u64,
    /// Signature checks that had to run the real verification.
    pub misses: u64,
    /// Successful checks inserted.
    pub insertions: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

impl VerifiedCacheStats {
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

/// A sharded, capacity-bounded memo of *successful* signature checks.
#[derive(Debug)]
pub struct VerifiedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    enabled: AtomicBool,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
}

/// Shards in the global cache.
const GLOBAL_SHARDS: usize = 16;
/// Per-shard capacity of the global cache: 16 × 2048 = 32768 credentials,
/// ~3 MiB worst case — far beyond any scenario in the workspace, small
/// enough to never matter.
const GLOBAL_PER_SHARD: usize = 2048;

static GLOBAL: LazyLock<VerifiedCache> =
    LazyLock::new(|| VerifiedCache::new(GLOBAL_SHARDS, GLOBAL_PER_SHARD));

impl VerifiedCache {
    /// A new enabled cache with `shards` shards of `per_shard_capacity`
    /// entries each.
    pub fn new(shards: usize, per_shard_capacity: usize) -> Self {
        let shards = shards.max(1);
        VerifiedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: per_shard_capacity.max(1),
            enabled: AtomicBool::new(true),
            hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// The process-wide cache every credential format verifies through.
    pub fn global() -> &'static VerifiedCache {
        &GLOBAL
    }

    /// Toggle the cache. Disabled, every lookup misses silently (no
    /// counter movement) and inserts are dropped — verification results
    /// are identical either way, only the cost changes.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Is the cache currently enabled?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Was this exact (content, issuer, signature) triple verified
    /// successfully before? Counts a hit or a miss when enabled.
    pub fn check(&self, key: &VerifiedKey) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let shard = &self.shards[key.shard(self.shards.len())];
        let hit = shard.lock().expect("credcache lock").set.contains(key);
        if hit {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        hit
    }

    /// Record a *successful* verification. Callers must never insert a
    /// key whose verification failed.
    pub fn insert(&self, key: VerifiedKey) {
        if !self.is_enabled() {
            return;
        }
        let shard = &self.shards[key.shard(self.shards.len())];
        let mut guard = shard.lock().expect("credcache lock");
        if !guard.set.insert(key) {
            return; // racing verifier got there first
        }
        guard.order.push_back(key);
        if guard.order.len() > self.per_shard_capacity {
            if let Some(old) = guard.order.pop_front() {
                guard.set.remove(&old);
                self.evictions.inc();
            }
        }
        self.insertions.inc();
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("credcache lock").set.len())
            .sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counter totals.
    pub fn stats(&self) -> VerifiedCacheStats {
        VerifiedCacheStats {
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

    fn key(tag: u8) -> VerifiedKey {
        let mut fp = [0u8; 32];
        fp[0] = tag;
        fp[9] = tag.wrapping_mul(31);
        VerifiedKey::new(fp, PublicKey(u64::from(tag) + 7), Signature { r: 9, s: 4 })
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let cache = VerifiedCache::new(4, 8);
        let k = key(1);
        assert!(!cache.check(&k));
        cache.insert(k);
        assert!(cache.check(&k));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn distinct_signatures_are_distinct_entries() {
        let cache = VerifiedCache::new(4, 8);
        let a = key(1);
        let b = VerifiedKey::new([1u8; 32], PublicKey(8), Signature { r: 9, s: 5 });
        cache.insert(a);
        assert!(!cache.check(&b));
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let cache = VerifiedCache::new(1, 3);
        for t in 1..=4 {
            cache.insert(key(t));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 1);
        assert!(!cache.check(&key(1)), "oldest entry evicted");
        assert!(cache.check(&key(4)));
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = VerifiedCache::new(2, 8);
        cache.set_enabled(false);
        let k = key(3);
        cache.insert(k);
        assert!(!cache.check(&k));
        assert_eq!(cache.stats(), VerifiedCacheStats::default());
        assert!(cache.is_empty());
        cache.set_enabled(true);
        cache.insert(k);
        assert!(cache.check(&k));
    }

    #[test]
    fn duplicate_insert_counts_once() {
        let cache = VerifiedCache::new(2, 8);
        cache.insert(key(5));
        cache.insert(key(5));
        assert_eq!(cache.stats().insertions, 1);
        assert_eq!(cache.len(), 1);
    }
}
