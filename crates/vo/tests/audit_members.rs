//! The membership audit rejects a tampered certificate, names its member,
//! and stays outside the verified-credential cache.
//!
//! This file holds a single test on purpose. It asserts that the audit
//! moves none of the process-wide `credcache.*` counters, so no other test
//! may run in the same process.

use trust_vo_credential::VerifiedCache;
use trust_vo_negotiation::Strategy;
use trust_vo_vo::{audit_members, AircraftScenario, VoError};

#[test]
fn a_tampered_membership_signature_names_its_member() {
    let mut vo = AircraftScenario::build()
        .form_vo(Strategy::Standard)
        .expect("the Aircraft VO forms");
    assert!(vo.members.len() >= 2, "a member besides the tampered one");
    let cache = VerifiedCache::global();

    let before = cache.stats();
    assert_eq!(audit_members(&vo), Ok(()));
    assert_eq!(cache.stats(), before, "a clean audit moves no counter");

    let victim = vo.members.len() - 1;
    let signature = &mut vo.members[victim].certificate.signature;
    signature.s ^= 1;
    let err = audit_members(&vo).expect_err("a tampered signature fails the audit");
    let VoError::InvalidMembership { member, detail } = err else {
        panic!("expected InvalidMembership, got {err:?}");
    };
    assert_eq!(member, vo.members[victim].provider);
    assert!(detail.contains("signature"), "{detail}");
    assert_eq!(cache.stats(), before, "a failed audit moves no counter");
}
