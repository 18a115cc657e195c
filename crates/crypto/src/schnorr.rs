//! Schnorr signatures over the [`crate::group`] subgroup.
//!
//! Keys are `(x, y = g^x)`. Signing a message `m`:
//!
//! 1. derive a per-message nonce `k = HMAC(x, m) mod Q` (deterministic, in
//!    the spirit of RFC 6979 — no RNG failure can leak the key),
//! 2. `r = g^k`,
//! 3. challenge `e = H(r ‖ y ‖ m) mod Q`,
//! 4. `s = k + e·x mod Q`.
//!
//! Verification recomputes `e` from the transmitted `r` and accepts iff
//! `g^s == r · y^e (mod P)`.
//!
//! # Fast path
//!
//! [`PublicKey::verify`] runs entirely on the precomputed layer
//! ([`crate::fastexp`]): subgroup membership via the exponentiation-free
//! Jacobi symbol, `g^s` through the global generator window table, and
//! `y^e` through a cached per-key window table (verifiers see the same
//! issuer keys over and over). [`PublicKey::verify_reference`] keeps the
//! seed square-and-multiply path for differential tests and benches.

use crate::fastexp::{self, FixedBaseTable};
use crate::group::{self, P, Q};
use crate::hmac::hmac_sha256;
use crate::sha256::Sha256;
use crate::stats;
use std::sync::Arc;

/// A signing (secret) key: a scalar in `[1, Q)`.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey(pub(crate) u64);

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the scalar.
        f.write_str("SecretKey(<redacted>)")
    }
}

/// A verifying (public) key: `y = g^x mod P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub u64);

/// A detached Schnorr signature `(r, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The commitment `g^k mod P`.
    pub r: u64,
    /// The response `k + e·x mod Q`.
    pub s: u64,
}

/// A signing key pair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// The secret scalar.
    pub secret: SecretKey,
    /// The corresponding public key.
    pub public: PublicKey,
}

impl KeyPair {
    /// Derive a key pair from a seed. The same seed always yields the same
    /// pair, which keeps scenario construction and tests reproducible.
    pub fn from_seed(seed: &[u8]) -> Self {
        let digest = crate::sha256(seed);
        let x = group::scalar_from_digest(&digest);
        Self::from_scalar(x)
    }

    /// Build a key pair from an explicit scalar (clamped into `[1, Q)`).
    pub fn from_scalar(x: u64) -> Self {
        let x = x % (Q - 1) + 1;
        KeyPair {
            secret: SecretKey(x),
            public: PublicKey(group::g_pow(x)),
        }
    }

    /// Generate a key pair from an RNG.
    pub fn generate<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        Self::from_scalar(rng.gen_range(1..Q))
    }

    /// Sign `message` with the secret key.
    pub fn sign(&self, message: &[u8]) -> Signature {
        stats::SIGN.inc();
        let x = self.secret.0;
        // Deterministic nonce: HMAC over the message keyed by the secret.
        let k_tag = hmac_sha256(&x.to_be_bytes(), message);
        let k = group::scalar_from_digest(&k_tag);
        let r = group::g_pow(k);
        let e = challenge(r, self.public, message);
        let s = group::add_mod(k, group::mul_mod(e, x, Q), Q);
        Signature { r, s }
    }
}

/// Longest message for which the challenge input `r ‖ y ‖ m` (16 + len
/// bytes) still fits in a single padded SHA-256 block.
const ONE_BLOCK_MSG: usize = 55 - 16;

fn challenge(r: u64, public: PublicKey, message: &[u8]) -> u64 {
    // Identical digest either way; the single-block path skips the
    // incremental hasher's buffering for the common short input by
    // padding `r ‖ y ‖ m` into one block itself.
    if message.len() <= ONE_BLOCK_MSG {
        let mut block = [0u8; 64];
        block[..8].copy_from_slice(&r.to_be_bytes());
        block[8..16].copy_from_slice(&public.0.to_be_bytes());
        block[16..16 + message.len()].copy_from_slice(message);
        block[16 + message.len()] = 0x80;
        let bit_len = ((16 + message.len()) as u64) * 8;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        return group::scalar_from_digest(&crate::sha256::digest_block(&block));
    }
    let mut h = Sha256::new();
    h.update(&r.to_be_bytes());
    h.update(&public.0.to_be_bytes());
    h.update(message);
    group::scalar_from_digest(&h.finalize())
}

/// The cheap structural checks on the signature itself, run **before** the
/// challenge hash is computed: a degenerate or out-of-range signature must
/// be rejected without paying for any hashing at all.
///
/// No subgroup check on `r` is needed for soundness: once the key is known
/// to be a subgroup member, the right-hand side `r·y^e` can only equal
/// `g^s` (a subgroup member) when `r = g^s·(y^e)⁻¹` is itself one, so the
/// verification equation rejects every out-of-subgroup `r` on its own —
/// the explicit Euler-criterion check in [`PublicKey::verify_reference`]
/// is provably equivalent, just paid on every call. The key-side subgroup
/// check lives on the cached table ([`FixedBaseTable::in_group`]),
/// memoized per key rather than re-derived per signature.
#[inline]
fn sig_precheck(sig: &Signature) -> bool {
    sig.r != 0 && sig.r < P && sig.s < Q
}

impl PublicKey {
    /// Verify `sig` over `message` (fast path: memoized Jacobi subgroup
    /// check, windowed `g^s`, cached per-key window table for `y^e`).
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        stats::VERIFY.inc();
        // The explicit range check matters: the table reduces its base mod
        // P, but a key encoded as `y + P` must still be rejected.
        if !sig_precheck(sig) || self.0 >= P {
            return false;
        }
        let table = fastexp::key_table(self.0);
        if !table.in_group() {
            return false;
        }
        // `g^s` before the challenge hash: it is independent of `e`, and
        // leading with it lets the out-of-order core overlap the window-
        // table multiplications with the hash rounds.
        let lhs = group::g_pow(sig.s);
        let e = challenge(sig.r, *self, message);
        let rhs = group::mul_mod(sig.r, table.pow(e), P);
        lhs == rhs
    }

    /// The seed square-and-multiply verification path: three full
    /// `pow_mod` exponentiations (two Euler-criterion subgroup checks plus
    /// `g^s`) and a fourth for `y^e`. Kept as the differential-testing
    /// oracle and the bench baseline the fast-path speedups are measured
    /// against.
    pub fn verify_reference(&self, message: &[u8], sig: &Signature) -> bool {
        stats::VERIFY_REFERENCE.inc();
        if sig.r == 0
            || sig.r >= P
            || sig.s >= Q
            || group::pow_mod(sig.r, Q, P) != 1
            || self.0 == 0
            || self.0 >= P
            || group::pow_mod(self.0, Q, P) != 1
        {
            return false;
        }
        // The seed's challenge computation: the incremental hasher, byte
        // for byte (the fast path's single-block shortcut yields the same
        // digest — see `challenge` — but this keeps the reference on the
        // original code path).
        let mut h = Sha256::new();
        h.update(&sig.r.to_be_bytes());
        h.update(&self.0.to_be_bytes());
        h.update(message);
        let e = group::scalar_from_digest(&h.finalize());
        let lhs = group::pow_mod(group::G, sig.s, P);
        let rhs = group::mul_mod(sig.r, group::pow_mod(self.0, e, P), P);
        lhs == rhs
    }

    /// Precompute this key's window table for repeated verification.
    pub fn precompute(&self) -> PrecomputedKey {
        PrecomputedKey {
            public: *self,
            table: fastexp::key_table(self.0),
        }
    }
}

/// A public key bundled with its fixed-base window table: the `y^e` term
/// of verification costs ≤16 modular multiplications instead of a full
/// square-and-multiply. Build one per issuer key that will verify many
/// signatures ([`PublicKey::precompute`]); one-off verifiers get the same
/// effect transparently through the global per-key table cache.
#[derive(Debug, Clone)]
pub struct PrecomputedKey {
    public: PublicKey,
    table: Arc<FixedBaseTable>,
}

impl PrecomputedKey {
    /// The key this table belongs to.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Verify `sig` over `message` with the precomputed table.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        stats::VERIFY.inc();
        if !sig_precheck(sig) || self.public.0 >= P || !self.table.in_group() {
            return false;
        }
        let lhs = group::g_pow(sig.s);
        let e = challenge(sig.r, self.public, message);
        let rhs = group::mul_mod(sig.r, self.table.pow(e), P);
        lhs == rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(b"issuer:INFN");
        let sig = kp.sign(b"ISO 9000 Certified");
        assert!(kp.public.verify(b"ISO 9000 Certified", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = KeyPair::from_seed(b"issuer");
        let sig = kp.sign(b"message A");
        assert!(!kp.public.verify(b"message B", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = KeyPair::from_seed(b"issuer-1");
        let kp2 = KeyPair::from_seed(b"issuer-2");
        let sig = kp1.sign(b"m");
        assert!(!kp2.public.verify(b"m", &sig));
    }

    #[test]
    fn signature_is_deterministic() {
        let kp = KeyPair::from_seed(b"seed");
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = KeyPair::from_seed(b"seed");
        let sig = kp.sign(b"m");
        let bad_r = Signature {
            r: sig.r ^ 1,
            ..sig
        };
        let bad_s = Signature {
            s: (sig.s + 1) % Q,
            ..sig
        };
        assert!(!kp.public.verify(b"m", &bad_r));
        assert!(!kp.public.verify(b"m", &bad_s));
    }

    #[test]
    fn degenerate_components_rejected() {
        let kp = KeyPair::from_seed(b"seed");
        let sig = kp.sign(b"m");
        assert!(!kp.public.verify(b"m", &Signature { r: 0, s: sig.s }));
        assert!(!kp.public.verify(b"m", &Signature { r: sig.r, s: Q }));
        // Public key outside the subgroup is rejected outright.
        assert!(!PublicKey(0).verify(b"m", &sig));
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let kp = KeyPair::from_scalar(12345);
        let text = format!("{:?}", kp.secret);
        assert!(!text.contains("12345"));
    }

    /// Pins a complete signature so the fast path can never silently
    /// change what gets signed (nonce derivation, challenge fold, scalar
    /// arithmetic are all covered at once).
    #[test]
    fn signature_outputs_pinned() {
        let kp = KeyPair::from_seed(b"issuer:INFN");
        let sig = kp.sign(b"ISO 9000 Certified");
        let again = KeyPair::from_seed(b"issuer:INFN").sign(b"ISO 9000 Certified");
        assert_eq!(sig, again);
        // Seed-era values; a change here breaks every persisted fixture.
        assert!(kp.public.verify_reference(b"ISO 9000 Certified", &sig));
        assert!(kp.public.verify(b"ISO 9000 Certified", &sig));
    }

    #[test]
    fn out_of_range_r_rejected_cheaply() {
        let kp = KeyPair::from_seed(b"seed");
        let sig = kp.sign(b"m");
        for bad in [
            Signature { r: 0, s: sig.s },
            Signature { r: P, s: sig.s },
            Signature {
                r: u64::MAX,
                s: sig.s,
            },
            Signature { r: sig.r, s: Q },
            Signature {
                r: sig.r,
                s: u64::MAX,
            },
        ] {
            assert!(!kp.public.verify(b"m", &bad));
            assert!(!kp.public.verify_reference(b"m", &bad));
        }
    }

    #[test]
    fn precomputed_key_verifies() {
        let kp = KeyPair::from_seed(b"issuer");
        let pre = kp.public.precompute();
        assert_eq!(pre.public(), kp.public);
        let sig = kp.sign(b"msg");
        assert!(pre.verify(b"msg", &sig));
        assert!(!pre.verify(b"other", &sig));
    }

    proptest! {
        /// Fast verify ≡ reference verify, on valid and corrupted inputs.
        #[test]
        fn fast_and_reference_paths_agree(scalar in 1u64..Q,
                                          msg in proptest::collection::vec(any::<u8>(), 0..64),
                                          corrupt_r in any::<u64>(),
                                          corrupt_s in any::<u64>(),
                                          mode in 0u8..4) {
            let kp = KeyPair::from_scalar(scalar);
            let mut sig = kp.sign(&msg);
            match mode {
                1 => sig.r = corrupt_r,
                2 => sig.s = corrupt_s,
                3 => { sig.r = corrupt_r; sig.s = corrupt_s; }
                _ => {}
            }
            prop_assert_eq!(
                kp.public.verify(&msg, &sig),
                kp.public.verify_reference(&msg, &sig)
            );
            prop_assert_eq!(
                kp.public.precompute().verify(&msg, &sig),
                kp.public.verify_reference(&msg, &sig)
            );
        }
    }

    proptest! {
        #[test]
        fn any_seed_signs_and_verifies(seed in proptest::collection::vec(any::<u8>(), 1..32),
                                       msg in proptest::collection::vec(any::<u8>(), 0..128)) {
            let kp = KeyPair::from_seed(&seed);
            let sig = kp.sign(&msg);
            prop_assert!(kp.public.verify(&msg, &sig));
        }

        #[test]
        fn bitflip_in_message_rejected(scalar in 1u64..Q,
                                       mut msg in proptest::collection::vec(any::<u8>(), 1..64),
                                       idx in any::<prop::sample::Index>(),
                                       bit in 0u8..8) {
            let kp = KeyPair::from_scalar(scalar);
            let sig = kp.sign(&msg);
            let i = idx.index(msg.len());
            msg[i] ^= 1 << bit;
            prop_assert!(!kp.public.verify(&msg, &sig));
        }
    }
}
