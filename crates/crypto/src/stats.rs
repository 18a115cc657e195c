//! Process-wide `crypto.*` operation counters.
//!
//! The counters are [`trust_vo_obs::Counter`]s (sharded atomics, always
//! active regardless of the obs crate's `enabled` feature) held in
//! statics: the crypto layer has no per-call context to thread a registry
//! through, and the benches want one authoritative count of how much
//! signature work a whole run performed. Bench binaries export a
//! [`snapshot`] into their collector as `crypto.*` counters at dump time.

use std::sync::LazyLock;
use trust_vo_obs::Counter;

/// Single-signature verifications through the fast path.
pub(crate) static VERIFY: LazyLock<Counter> = LazyLock::new(Counter::new);
/// Single-signature verifications through the reference path.
pub(crate) static VERIFY_REFERENCE: LazyLock<Counter> = LazyLock::new(Counter::new);
/// Signing operations.
pub(crate) static SIGN: LazyLock<Counter> = LazyLock::new(Counter::new);
/// Fixed-base window tables built (generator + issuer keys).
pub(crate) static TABLE_BUILDS: LazyLock<Counter> = LazyLock::new(Counter::new);
/// Per-key window-table cache hits.
pub(crate) static TABLE_HITS: LazyLock<Counter> = LazyLock::new(Counter::new);

/// A point-in-time copy of every `crypto.*` counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CryptoStats {
    /// Fast-path single verifications.
    pub verify: u64,
    /// Reference-path single verifications.
    pub verify_reference: u64,
    /// Always 0: signatures are verified one at a time and count under
    /// `verify`. Kept because the end-to-end benchmark still reads it.
    pub verify_batch_sigs: u64,
    /// Signing operations.
    pub sign: u64,
    /// Window tables built.
    pub table_builds: u64,
    /// Per-key table cache hits.
    pub table_hits: u64,
}

/// Read the current totals.
pub fn snapshot() -> CryptoStats {
    CryptoStats {
        verify: VERIFY.get(),
        verify_reference: VERIFY_REFERENCE.get(),
        verify_batch_sigs: 0,
        sign: SIGN.get(),
        table_builds: TABLE_BUILDS.get(),
        table_hits: TABLE_HITS.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let before = snapshot();
        VERIFY.inc();
        SIGN.add(2);
        let after = snapshot();
        assert!(after.verify > before.verify);
        assert!(after.sign >= before.sign + 2);
    }
}
