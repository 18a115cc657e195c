//! Cross-crate XML interop: credentials and policies survive the full
//! serialize → store → query → parse → verify pipeline (the prototype's
//! Oracle/MySQL round trip, §6.3).

use trust_vo::credential::{Attribute, Credential, CredentialAuthority, TimeRange, Timestamp};
use trust_vo::crypto::KeyPair;
use trust_vo::policy::xml::{policy_from_xml, policy_to_xml};
use trust_vo::policy::{Condition, DisclosurePolicy, Resource, Term};
use trust_vo::store::Database;
use trust_vo::xmldoc::XPathExpr;

fn window() -> TimeRange {
    TimeRange::one_year_from(Timestamp::parse_iso("2009-10-26T21:32:52").unwrap())
}

#[test]
fn credential_survives_store_roundtrip_and_still_verifies() {
    let mut ca = CredentialAuthority::new("INFN");
    let holder = KeyPair::from_seed(b"holder");
    let cred = ca
        .issue(
            "ISO9000Certified",
            "Aerospace Company",
            holder.public,
            vec![
                Attribute::new("QualityRegulation", "UNI EN ISO 9000"),
                Attribute::new("AuditScore", 97i64),
                Attribute::new("Audited", true),
            ],
            window(),
        )
        .unwrap();

    let db = Database::new();
    db.with_collection("credentials", |c| {
        c.put(cred.id().0.as_str(), cred.to_xml());
    });

    // Query it back by an XPath condition, as the TN service does.
    let found = db.with_collection("credentials", |c| {
        c.find(&XPathExpr::parse("//credType = 'ISO9000Certified'").unwrap())
    });
    let (_, doc) = found.expect("stored credential matches");
    let text = trust_vo::xmldoc::to_string(&doc);
    let parsed = Credential::from_xml(&trust_vo::xmldoc::parse(&text).unwrap()).unwrap();
    assert_eq!(parsed, cred);
    assert!(parsed.verify_signature().is_ok());
    assert_eq!(
        parsed.attr("AuditScore"),
        Some(&trust_vo::credential::AttrValue::Int(97))
    );
}

#[test]
fn policy_survives_store_roundtrip() {
    let policy = DisclosurePolicy::rule(
        "vo-portal",
        Resource::service("VoMembership").with_attr("vo", "AircraftOptimization"),
        vec![
            Term::of_type("ISO9000Certified").where_attr("QualityRegulation", "UNI EN ISO 9000"),
            Term::of_concept("BusinessProof")
                .with_condition(Condition::parse("//content/Issuer = 'BBB'").unwrap()),
        ],
    );
    let db = Database::new();
    db.with_collection("policies", |c| {
        c.put("vo-portal", policy_to_xml(&policy));
    });
    let doc = db
        .with_collection("policies", |c| c.get(&"vo-portal".into()))
        .unwrap();
    let text = trust_vo::xmldoc::to_string(&doc);
    let back = policy_from_xml(&trust_vo::xmldoc::parse(&text).unwrap()).unwrap();
    assert_eq!(back, policy);
}

#[test]
fn tampered_stored_credential_fails_verification() {
    let mut ca = CredentialAuthority::new("INFN");
    let holder = KeyPair::from_seed(b"holder");
    let cred = ca
        .issue(
            "T",
            "holder",
            holder.public,
            vec![Attribute::new("k", "honest")],
            window(),
        )
        .unwrap();
    // An attacker edits the stored XML.
    let mut doc = cred.to_xml();
    let text = trust_vo::xmldoc::to_string(&doc).replace("honest", "forged!");
    doc = trust_vo::xmldoc::parse(&text).unwrap();
    let parsed = Credential::from_xml(&doc).unwrap();
    assert!(parsed.verify_signature().is_err());
}

#[test]
fn profile_document_queryable_with_xpath() {
    let mut ca = CredentialAuthority::new("CA");
    let holder = KeyPair::from_seed(b"holder");
    let mut profile = trust_vo::credential::XProfile::new("holder");
    for (ty, sens) in [
        ("A", trust_vo::credential::Sensitivity::Low),
        ("B", trust_vo::credential::Sensitivity::High),
    ] {
        let cred = ca
            .issue(ty, "holder", holder.public, vec![], window())
            .unwrap();
        profile.add_with_sensitivity(cred, sens);
    }
    let doc = profile.to_xml();
    // Count high-sensitivity credentials via an attribute predicate.
    let sel = trust_vo::xmldoc::Selector::parse("//credential[@sensitivity='high']").unwrap();
    assert_eq!(sel.select(&doc).len(), 1);
    let sel = trust_vo::xmldoc::Selector::parse("//credential/@credID").unwrap();
    assert_eq!(sel.values(&doc).len(), 2);
}

#[test]
fn store_versioning_keeps_policy_history() {
    // The identification phase may revise policies; prior revisions stay
    // auditable.
    let v1 = DisclosurePolicy::deliv("p", Resource::service("VoMembership"));
    let v2 = DisclosurePolicy::rule(
        "p",
        Resource::service("VoMembership"),
        vec![Term::of_type("ISO9000Certified")],
    );
    let db = Database::new();
    db.with_collection("policies", |c| {
        c.put("p", policy_to_xml(&v1));
        c.put("p", policy_to_xml(&v2));
    });
    let (r1, r2) = db.with_collection("policies", |c| {
        (
            c.get_revision(&"p".into(), 1),
            c.get_revision(&"p".into(), 2),
        )
    });
    assert_eq!(policy_from_xml(&r1.unwrap()).unwrap(), v1);
    assert_eq!(policy_from_xml(&r2.unwrap()).unwrap(), v2);
}
