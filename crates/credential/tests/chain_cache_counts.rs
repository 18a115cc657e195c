//! Chain verification looks each link up in the verified-credential cache
//! exactly once: a link that misses is verified from its stored bytes, not
//! through `Credential::verify_signature` (which would look it up again).
//!
//! This file holds a single test on purpose. It asserts deltas of the
//! process-wide cache counters, so no other test may run in the same
//! process.

use trust_vo_credential::chain::verify_chain;
use trust_vo_credential::{
    Attribute, Credential, CredentialAuthority, CredentialError, TimeRange, Timestamp,
    VerifiedCache, VerifiedCacheStats,
};
use trust_vo_crypto::KeyPair;

fn window() -> TimeRange {
    TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0))
}

fn at() -> Timestamp {
    Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0)
}

/// Counter movement across `f`: (hits, misses, insertions).
fn delta(f: impl FnOnce()) -> (u64, u64, u64) {
    let before: VerifiedCacheStats = VerifiedCache::global().stats();
    f();
    let after = VerifiedCache::global().stats();
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.insertions - before.insertions,
    )
}

#[test]
fn chain_links_are_looked_up_once() {
    // Counting needs the cache on, whatever the environment says.
    VerifiedCache::global().set_enabled(true);
    let mut root = CredentialAuthority::new("Chain Root");
    let roots = [root.public_key()];
    let mid = KeyPair::from_seed(b"chain-mid");
    let holder = KeyPair::from_seed(b"chain-holder");
    let chain = |tag: &str, ca: &mut CredentialAuthority| {
        let link = ca
            .issue("CACert", "Mid CA", mid.public, vec![], window())
            .unwrap();
        let header = trust_vo_credential::Header {
            cred_id: format!("{tag}-target").as_str().into(),
            cred_type: "T".into(),
            issuer: "Mid CA".into(),
            issuer_key: mid.public,
            subject: "Holder".into(),
            subject_key: holder.public,
            validity: window(),
        };
        let target = Credential::issue_signed(header, vec![Attribute::new("k", "v")], &mid);
        (link, target)
    };

    // One uncached link: the cached root link hits, the target misses and
    // is verified from its stored bytes, then inserted.
    let (link, target) = chain("single", &mut root);
    assert!(link.verify_signature().is_ok());
    let counts = delta(|| {
        assert!(verify_chain(&[link, target], &roots, at(), None).is_ok());
    });
    assert_eq!(counts, (1, 1, 1), "(hits, misses, insertions)");

    // Batch failure: both links miss, the batch rejects, and the
    // individual fallback re-verifies without looking either up again.
    // The good root link is inserted; the forged target is not.
    let (link, target) = chain("batch", &mut root);
    let text = target.xml_text().replace(">v</k>", ">forged</k>");
    let forged = Credential::from_xml(&trust_vo_xmldoc::parse(&text).unwrap()).unwrap();
    let counts = delta(|| {
        let err = verify_chain(&[link, forged], &roots, at(), None).unwrap_err();
        assert!(
            matches!(err, CredentialError::BadSignature { .. }),
            "{err:?}"
        );
    });
    assert_eq!(counts, (0, 2, 1), "(hits, misses, insertions)");
}
