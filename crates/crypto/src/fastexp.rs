//! Precomputed fixed-base exponentiation.
//!
//! The workspace's hot loop is credential signature checking (the paper's
//! Fig. 9 join-with-TN overhead is dominated by it), and every check costs
//! full square-and-multiply exponentiations in [`crate::group`]. Three
//! classic accelerations live here:
//!
//! * **Fixed-base window tables** ([`FixedBaseTable`]): for a base that
//!   never changes (the generator `G`, or an issuer public key seen over
//!   and over), precompute `base^(d·16^w)` for every 4-bit window `w` and
//!   digit `d`. An exponentiation then costs at most 16 modular
//!   multiplications — no squarings at all — instead of ~93 for a 62-bit
//!   square-and-multiply.
//! * **A global generator table** (used transparently by
//!   [`crate::group::g_pow`]) built once per process in a `LazyLock`.
//! * **A bounded per-key table cache** ([`key_table`]): verifiers see the
//!   same issuer keys repeatedly, so the `y^e` term of Schnorr
//!   verification is served from a sharded map of precomputed tables.
//!
//! All arithmetic is modulo the fixed group prime [`crate::group::P`].

use crate::group::{mul_mod, G, P};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};

/// Window width in bits. Four bits × sixteen windows covers any `u64`
/// exponent; the tables stay small (16×16 u64 = 2 KiB per base).
const WINDOW_BITS: u32 = 4;
/// Number of windows needed to cover a full 64-bit exponent.
const NUM_WINDOWS: usize = (u64::BITS / WINDOW_BITS) as usize;
/// Digits representable per window.
const RADIX: usize = 1 << WINDOW_BITS;

/// A fixed-base exponentiation table: `table[w][d] = base^(d · 16^w) mod P`.
///
/// Building one costs ~300 modular multiplications; every subsequent
/// [`FixedBaseTable::pow`] costs at most `NUM_WINDOWS` multiplications.
#[derive(Debug, Clone)]
pub struct FixedBaseTable {
    base: u64,
    in_group: bool,
    table: Box<[[u64; RADIX]; NUM_WINDOWS]>,
}

impl FixedBaseTable {
    /// Precompute the window table for `base` (reduced mod `P`).
    pub fn new(base: u64) -> Self {
        crate::stats::TABLE_BUILDS.inc();
        let base = base % P;
        let mut table = Box::new([[1u64; RADIX]; NUM_WINDOWS]);
        let mut window_base = base;
        for w in 0..NUM_WINDOWS {
            let mut acc = 1u64;
            for d in 1..RADIX {
                acc = mul_mod(acc, window_base, P);
                table[w][d] = acc;
            }
            // The next window's unit is this window's unit raised 2^WINDOW_BITS.
            for _ in 0..WINDOW_BITS {
                window_base = mul_mod(window_base, window_base, P);
            }
        }
        let in_group = crate::group::in_subgroup(base);
        FixedBaseTable {
            base,
            in_group,
            table,
        }
    }

    /// The (reduced) base this table was built for.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Whether the (reduced) base is a member of the order-`Q` subgroup.
    ///
    /// Memoized at build time so verifiers that cache a table per public
    /// key ([`key_table`]) pay the Jacobi-symbol check once per key rather
    /// than once per signature. The reduction in [`FixedBaseTable::new`]
    /// means callers that must distinguish `base >= P` from its residue
    /// (Schnorr verification rejects out-of-range encodings) still need
    /// their own range check.
    pub fn in_group(&self) -> bool {
        self.in_group
    }

    /// `base^exp mod P`, for any `u64` exponent. Agrees with
    /// [`crate::group::pow_mod`] on the full exponent range.
    ///
    /// Branchless over the significant windows: `table[w][0] == 1`, so a
    /// zero digit multiplies by one rather than taking a data-dependent
    /// branch — random exponents would mispredict such a branch roughly
    /// half the time, which costs more than the spared multiplication.
    /// The windows land in four independent accumulators folded at the
    /// end: in Schnorr verification this call sits on the critical path
    /// (the exponent is the challenge hash output), and one shared
    /// accumulator would chain all sixteen multiplications serially.
    pub fn pow(&self, exp: u64) -> u64 {
        let windows = ((u64::BITS - exp.leading_zeros()).div_ceil(WINDOW_BITS)) as usize;
        let mut accs = [1u64; 4];
        for w in 0..windows {
            let d = ((exp >> (w as u32 * WINDOW_BITS)) & (RADIX as u64 - 1)) as usize;
            accs[w & 3] = mul_mod(accs[w & 3], self.table[w][d], P);
        }
        mul_mod(
            mul_mod(accs[0], accs[1], P),
            mul_mod(accs[2], accs[3], P),
            P,
        )
    }
}

/// The process-wide generator table backing [`crate::group::g_pow`].
static G_TABLE: LazyLock<FixedBaseTable> = LazyLock::new(|| FixedBaseTable::new(G));

/// `G^exp mod P` through the precomputed generator table.
#[inline]
pub(crate) fn g_pow_windowed(exp: u64) -> u64 {
    G_TABLE.pow(exp)
}

/// Shards in the per-key table cache.
const KEY_CACHE_SHARDS: usize = 8;
/// Per-shard capacity; 8 × 128 keys ≈ 2 MiB of tables at most.
const KEY_CACHE_PER_SHARD: usize = 128;

/// One shard of the shared per-key table cache.
type KeyTableShard = Mutex<HashMap<u64, Arc<FixedBaseTable>>>;

/// Sharded bounded map `public key → Arc<FixedBaseTable>`. A full shard is
/// cleared wholesale: eviction precision is irrelevant (tables are pure
/// caches), cheapness and boundedness are what matter.
static KEY_TABLES: LazyLock<[KeyTableShard; KEY_CACHE_SHARDS]> =
    LazyLock::new(|| std::array::from_fn(|_| Mutex::new(HashMap::new())));

/// Slots in the per-thread direct-mapped table cache fronting [`KEY_TABLES`].
const TLS_SLOTS: usize = 16;

/// One slot of the per-thread table cache: the unreduced key and its table.
type TlsSlot = Option<(u64, Arc<FixedBaseTable>)>;

thread_local! {
    /// Direct-mapped recently-used tables. A verifier loop over a handful
    /// of issuer keys hits here without touching the shard mutex or its
    /// `Arc` refcount traffic; collisions simply fall through to the
    /// shared map.
    static TLS_TABLES: std::cell::RefCell<[TlsSlot; TLS_SLOTS]> =
        const { std::cell::RefCell::new([const { None }; TLS_SLOTS]) };
}

/// The cached window table for a repeatedly-seen base (an issuer public
/// key), building and memoizing it on first use.
pub fn key_table(key: u64) -> Arc<FixedBaseTable> {
    TLS_TABLES.with(|slots| {
        let slot = (key % TLS_SLOTS as u64) as usize;
        let mut slots = slots.borrow_mut();
        if let Some((k, t)) = &slots[slot] {
            if *k == key {
                crate::stats::TABLE_HITS.inc();
                return Arc::clone(t);
            }
        }
        let t = shared_key_table(key);
        slots[slot] = Some((key, Arc::clone(&t)));
        t
    })
}

/// The shared-map path behind [`key_table`]'s thread-local front.
fn shared_key_table(key: u64) -> Arc<FixedBaseTable> {
    let shard = &KEY_TABLES[(key % KEY_CACHE_SHARDS as u64) as usize];
    if let Some(t) = shard.lock().expect("key-table lock").get(&key) {
        crate::stats::TABLE_HITS.inc();
        return Arc::clone(t);
    }
    // Build outside the lock; a racing builder just does redundant work.
    let table = Arc::new(FixedBaseTable::new(key));
    let mut guard = shard.lock().expect("key-table lock");
    if guard.len() >= KEY_CACHE_PER_SHARD {
        guard.clear();
    }
    Arc::clone(guard.entry(key).or_insert(table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{pow_mod, Q};
    use proptest::prelude::*;

    #[test]
    fn table_matches_pow_mod_on_edges() {
        let t = FixedBaseTable::new(G);
        for e in [0u64, 1, 2, 15, 16, 17, Q - 1, Q, u64::MAX] {
            assert_eq!(t.pow(e), pow_mod(G, e, P), "exp {e}");
        }
    }

    #[test]
    fn zero_base_behaves_like_pow_mod() {
        let t = FixedBaseTable::new(0);
        assert_eq!(t.pow(0), 1);
        assert_eq!(t.pow(5), 0);
        let t = FixedBaseTable::new(P); // reduces to zero
        assert_eq!(t.pow(0), 1);
        assert_eq!(t.pow(7), 0);
    }

    #[test]
    fn key_table_is_memoized() {
        let a = key_table(123_456);
        let b = key_table(123_456);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.pow(77), pow_mod(123_456, 77, P));
    }

    proptest! {
        #[test]
        fn windowed_pow_matches_pow_mod_full_range(base in any::<u64>(), exp in any::<u64>()) {
            let t = FixedBaseTable::new(base);
            prop_assert_eq!(t.pow(exp), pow_mod(base, exp, P));
        }

        #[test]
        fn generator_table_matches_pow_mod(exp in any::<u64>()) {
            prop_assert_eq!(g_pow_windowed(exp), pow_mod(G, exp, P));
        }
    }
}
