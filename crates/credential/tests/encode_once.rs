//! The encode-once invariant over generated credentials: a credential's
//! stored encoding is exactly what the issuer signs, its XML text
//! (`xml_text`, with the signature) is the canonical serialization, and
//! parsing that text back yields an equal credential with an equal
//! verified-cache key.
//!
//! Attribute values and header text mix XML-special characters, control
//! whitespace and non-ASCII; attribute names (which become element names)
//! use every punctuation character the parser accepts in a name.

use proptest::prelude::*;
use trust_vo_credential::credential::signing_bytes;
use trust_vo_credential::{
    AttrValue, Attribute, Credential, CredentialId, Header, TimeRange, Timestamp,
};
use trust_vo_crypto::{KeyPair, PublicKey};

fn arb_text() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 &<>\"'=;\n\téß中日😀]{0,12}"
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z_][a-zA-Z0-9_.:-]{0,8}"
}

fn arb_time() -> impl Strategy<Value = Timestamp> {
    // 1970-01-01 .. 2100-01-01: four-digit years, as the ISO form needs.
    (0i64..4_102_444_800).prop_map(Timestamp)
}

fn arb_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        arb_text().prop_map(AttrValue::Str),
        any::<i64>().prop_map(AttrValue::Int),
        any::<bool>().prop_map(AttrValue::Bool),
        arb_time().prop_map(AttrValue::Date),
    ]
}

fn arb_credential() -> impl Strategy<Value = Credential> {
    (
        (arb_text(), arb_text(), arb_text(), arb_text()),
        (any::<u64>(), any::<u64>(), arb_time(), 0i64..100_000_000),
        proptest::collection::vec((arb_name(), arb_value()), 0..5),
    )
        .prop_map(
            |((id, cred_type, issuer, subject), (seed, subject_key, from, span), attrs)| {
                let keys = KeyPair::from_seed(&seed.to_be_bytes());
                let header = Header {
                    cred_id: CredentialId(id),
                    cred_type,
                    issuer,
                    issuer_key: keys.public,
                    subject,
                    subject_key: PublicKey(subject_key),
                    validity: TimeRange::new(from, from.plus_seconds(span)),
                };
                let content = attrs
                    .into_iter()
                    .map(|(name, value)| Attribute::new(name, value))
                    .collect();
                Credential::issue_signed(header, content, &keys)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn one_encoding_serves_signature_text_and_cache_key(cred in arb_credential()) {
        // The stored bytes are exactly what the issuer signs...
        let signed = signing_bytes(cred.header(), cred.content());
        prop_assert_eq!(cred.signed_bytes(), signed.as_slice());
        prop_assert!(cred.verify_signature().is_ok());
        // ...its XML text is the canonical serialization...
        let text = cred.xml_text();
        prop_assert_eq!(&text, &trust_vo_xmldoc::to_string(&cred.to_xml()));
        // ...and it parses back to the same credential and cache key.
        let back = Credential::from_xml(&trust_vo_xmldoc::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back, &cred);
        prop_assert_eq!(back.signed_bytes(), cred.signed_bytes());
        prop_assert_eq!(back.fingerprint(), cred.fingerprint());
    }
}
