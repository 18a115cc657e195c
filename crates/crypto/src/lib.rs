//! Simulation-grade cryptographic substrate for the `trust-vo` workspace.
//!
//! The paper's prototype relies on a conventional PKI (X.509 certificates
//! signed by commercial credential authorities) purely for *sign / verify /
//! revoke* semantics: the trust-negotiation logic never inspects the inside
//! of a signature, it only needs issuance and verification to behave like a
//! digital-signature scheme and to have a realistic, constant per-operation
//! cost.
//!
//! Because no cryptography crates are available in this reproduction, the
//! primitives are implemented from scratch:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 (test-vector checked), on a
//!   SHA-NI kernel where the CPU has one.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104).
//! * [`base64`] — the standard alphabet with padding, used for the
//!   `<signature>` element of X-TNL credentials.
//! * [`hex`] — lowercase hex encoding for digests and identifiers.
//! * [`group`] — modular arithmetic in a 62-bit safe-prime group, with
//!   subgroup membership via the exponentiation-free Jacobi symbol.
//! * [`fastexp`] — precomputed fixed-base window tables (generator +
//!   cached issuer keys).
//! * [`schnorr`] — Schnorr signatures over the order-`q` subgroup, each
//!   verified on its own through the fast path.
//! * [`stats`] — process-wide `crypto.*` operation counters.
//!
//! # Security disclaimer
//!
//! The group is only 62 bits wide so that all arithmetic fits in `u128`
//! intermediates. That is **orders of magnitude below any acceptable
//! security level** — this module simulates the *behaviour* of a PKI for a
//! systems-research reproduction; it must never be used to protect real
//! data. See `DESIGN.md` §4 for the substitution rationale.
//!
//! # Unsafe code
//!
//! The crate's only `unsafe` block is the call into the SHA-NI kernel,
//! made after the CPU reported every feature the kernel enables (see
//! [`mod@sha256`]). Every digest equals the portable kernel's, whichever
//! kernel computed it. Every other crate in the workspace forbids
//! `unsafe`.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod base64;
pub mod fastexp;
pub mod group;
pub mod hex;
pub mod hmac;
pub mod schnorr;
pub mod sha256;
pub mod stats;

pub use schnorr::{KeyPair, PrecomputedKey, PublicKey, SecretKey, Signature};
pub use sha256::{sha256, Digest};

/// Convenience: digest arbitrary bytes and return the lowercase hex form.
pub fn digest_hex(data: &[u8]) -> String {
    hex::encode(&sha256(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_hex_matches_known_vector() {
        // SHA-256("abc")
        assert_eq!(
            digest_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }
}
