//! Soundness tests for the process-wide verified-credential cache,
//! exercised through the public verification APIs (not the cache type
//! directly, which has its own unit tests).
//!
//! These run against the *global* cache, which is shared across the whole
//! test process — so they assert verification **results** only, never
//! global hit/miss counts (those would race with other tests).

use trust_vo_credential::x509::AttributeCertificate;
use trust_vo_credential::{
    Attribute, Credential, CredentialAuthority, CredentialError, RevocationList, TimeRange,
    Timestamp, VerifiedCache,
};
use trust_vo_crypto::{base64, KeyPair, Signature};

fn window() -> TimeRange {
    TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0))
}

fn at() -> Timestamp {
    Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0)
}

/// The attacker's path: a credential is immutable, so a tampered one is
/// built by editing the XML text and parsing it back.
fn reparse(text: &str) -> Credential {
    Credential::from_xml(&trust_vo_xmldoc::parse(text).unwrap()).unwrap()
}

fn signature_text(sig: Signature) -> String {
    let mut raw = sig.r.to_be_bytes().to_vec();
    raw.extend_from_slice(&sig.s.to_be_bytes());
    base64::encode(&raw)
}

/// `cred` with its `<signature>` replaced by `sig`.
fn resigned(cred: &Credential, sig: Signature) -> Credential {
    let text = cred
        .xml_text()
        .replace(&signature_text(cred.signature()), &signature_text(sig));
    let forged = reparse(&text);
    assert_eq!(forged.signature(), sig);
    forged
}

#[test]
fn repeated_verification_stays_correct() {
    let mut ca = CredentialAuthority::new("CA-cache-1");
    let subject = KeyPair::from_seed(b"cache-subject-1");
    let cred = ca
        .issue(
            "Quality",
            "S",
            subject.public,
            vec![Attribute::new("k", "v")],
            window(),
        )
        .unwrap();
    for _ in 0..5 {
        assert!(cred.verify(at(), None).is_ok());
    }
}

#[test]
fn revocation_after_cached_hit_is_still_caught() {
    let mut ca = CredentialAuthority::new("CA-cache-2");
    let subject = KeyPair::from_seed(b"cache-subject-2");
    let cred = ca
        .issue(
            "Quality",
            "S",
            subject.public,
            vec![Attribute::new("k", "v")],
            window(),
        )
        .unwrap();
    // Warm the signature cache with a successful full verification.
    assert!(cred.verify(at(), None).is_ok());
    // Revocation arriving afterwards must be caught even though the
    // signature check now hits the cache.
    let mut crl = RevocationList::new();
    crl.revoke(cred.id().clone(), at());
    assert!(matches!(
        cred.verify(at(), Some(&crl)),
        Err(CredentialError::Revoked { .. })
    ));
    // Expiry likewise.
    assert!(matches!(
        cred.verify(window().not_after.plus_days(1), None),
        Err(CredentialError::Expired { .. })
    ));
}

#[test]
fn tampering_after_a_cached_success_is_still_rejected() {
    let mut ca = CredentialAuthority::new("CA-cache-3");
    let subject = KeyPair::from_seed(b"cache-subject-3");
    let cred = ca
        .issue(
            "Quality",
            "S",
            subject.public,
            vec![Attribute::new("k", "v")],
            window(),
        )
        .unwrap();
    // Cache the genuine credential first...
    assert!(cred.verify_signature().is_ok());
    // ...then tamper. The cache key digests the signed bytes, so the
    // cached success for the genuine bytes cannot be replayed.
    let forged = reparse(&cred.xml_text().replace(">v</k>", ">FORGED</k>"));
    assert_eq!(forged.attr("k"), Some(&"FORGED".into()));
    assert_eq!(forged.signature(), cred.signature());
    for _ in 0..2 {
        assert!(matches!(
            forged.verify_signature(),
            Err(CredentialError::BadSignature { .. })
        ));
    }
}

#[test]
fn failures_are_never_cached() {
    let mut ca = CredentialAuthority::new("CA-cache-4");
    let subject = KeyPair::from_seed(b"cache-subject-4");
    let cred = ca
        .issue(
            "Quality",
            "S",
            subject.public,
            vec![Attribute::new("k", "v")],
            window(),
        )
        .unwrap();
    let genuine = cred.signature();
    let forged = resigned(
        &cred,
        Signature {
            r: genuine.r,
            s: genuine.s ^ 1,
        },
    );
    // Verify the forgery twice: both must fail (a cached failure turning
    // into a hit would be reported as success by the fast path).
    assert!(forged.verify_signature().is_err());
    assert!(forged.verify_signature().is_err());
    // Restoring the genuine signature verifies fine afterwards, and the
    // forgery still fails once the genuine credential is cached.
    assert!(resigned(&forged, genuine).verify_signature().is_ok());
    assert!(forged.verify_signature().is_err());
}

#[test]
fn x509_tampering_after_cached_success_is_rejected() {
    let issuer = KeyPair::from_seed(b"cache-x509-issuer");
    let holder = KeyPair::from_seed(b"cache-x509-holder");
    let mut cert = AttributeCertificate::issue(
        77,
        "Holder",
        holder.public,
        "Issuer",
        &issuer,
        window(),
        vec![("role".into(), "Member".into())],
    );
    assert!(cert.verify(at(), None).is_ok());
    cert.attributes[0].1 = "Admin".into();
    assert!(cert.verify_signature().is_err());
    // Revocation after a warm cache is still caught.
    cert.attributes[0].1 = "Member".into();
    assert!(cert.verify_signature().is_ok());
    let mut crl = RevocationList::new();
    crl.revoke(cert.revocation_id(), at());
    assert!(matches!(
        cert.verify(at(), Some(&crl)),
        Err(CredentialError::Revoked { .. })
    ));
}

#[test]
fn results_identical_with_local_cache_disabled_semantics() {
    // The kill-switch path: a disabled cache must change cost only, never
    // results. Exercised on a local instance (the global one is shared).
    let cache = VerifiedCache::new(4, 16);
    cache.set_enabled(false);
    let mut ca = CredentialAuthority::new("CA-cache-5");
    let subject = KeyPair::from_seed(b"cache-subject-5");
    let cred = ca
        .issue(
            "Quality",
            "S",
            subject.public,
            vec![Attribute::new("k", "v")],
            window(),
        )
        .unwrap();
    // Global-path verification result does not depend on local cache
    // state; this pins the API contract that check() on a disabled cache
    // is always a silent miss.
    assert!(cred.verify(at(), None).is_ok());
    assert_eq!(cache.stats().hits + cache.stats().misses, 0);
}
