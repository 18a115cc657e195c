//! One shape, three sinks: every stored or signed document — the
//! credential (unsigned and signed), the X-Profile, the disclosure policy
//! and the resume checkpoint — is written once against
//! `trust_vo::xmldoc::Sink`. Its text sink must write exactly what the
//! tree serializer `to_string` writes for its tree sink, and its binary
//! sink exactly what `encode_element` writes for it; the two tree
//! serializers are independent of the sinks, so they are the oracles.
//!
//! Names and values mix the characters the canonical text escapes
//! (`& < > "`, newline, tab) with non-ASCII text.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use trust_vo::credential::{
    AttrValue, Attribute, Credential, CredentialDocument, CredentialId, Header, Sensitivity,
    TimeRange, Timestamp, XProfile,
};
use trust_vo::crypto::{KeyPair, PublicKey};
use trust_vo::negotiation::message::Side;
use trust_vo::negotiation::view::{Disclosure, TrustSequence};
use trust_vo::negotiation::{Negotiation, Strategy as NegotiationStrategy};
use trust_vo::policy::{Condition, DisclosurePolicy, Resource, Term};
use trust_vo::xmldoc::{encode_element, to_string, Document};

fn sinks_agree<D: Document>(doc: &D) -> Result<(), TestCaseError> {
    let tree = doc.to_tree();
    prop_assert_eq!(doc.to_text(), to_string(&tree));
    let (streamed, oracle) = (doc.encode(), encode_element(&tree));
    prop_assert_eq!(streamed.as_bytes(), oracle.as_slice());
    Ok(())
}

fn arb_text() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 &<>\"'=;\n\téß中日😀]{0,12}"
}

/// Content attribute names become element names: both serializers write
/// them unescaped, whatever they hold.
fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z_&<>\"é中][a-zA-Z0-9_.:\n\t-]{0,8}"
}

fn arb_time() -> impl Strategy<Value = Timestamp> {
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

fn arb_sensitivity() -> impl Strategy<Value = Sensitivity> {
    prop_oneof![
        Just(Sensitivity::Low),
        Just(Sensitivity::Medium),
        Just(Sensitivity::High),
    ]
}

fn arb_profile() -> impl Strategy<Value = XProfile> {
    (
        arb_text(),
        proptest::collection::vec((arb_credential(), arb_sensitivity()), 0..4),
    )
        .prop_map(|(owner, creds)| {
            let mut profile = XProfile::new(owner);
            for (cred, label) in creds {
                profile.add_with_sensitivity(cred, label);
            }
            profile
        })
}

/// XPath conditions: comparisons (`<`, `>=` need escaping in text) and
/// string equalities over arbitrary quoted values.
fn arb_condition() -> impl Strategy<Value = Condition> {
    let path = "[a-zA-Z_][a-zA-Z0-9_]{0,6}";
    prop_oneof![
        (path, 0usize..6, any::<i32>()).prop_map(|(attr, op, n)| {
            let op = ["=", "!=", "<", "<=", ">", ">="][op];
            Condition::parse(&format!("//content/{attr} {op} {n}")).unwrap()
        }),
        (path, "[a-zA-Z0-9 &<>\"=;é中😀]{0,10}")
            .prop_map(|(attr, value)| Condition::attr_equals(&attr, &value)),
    ]
}

fn arb_term() -> impl Strategy<Value = Term> {
    (
        prop_oneof![
            arb_text().prop_map(Term::of_type),
            Just(Term::variable()),
            arb_text().prop_map(Term::of_concept),
        ],
        proptest::collection::vec(arb_condition(), 0..3),
    )
        .prop_map(|(term, conditions)| {
            conditions
                .into_iter()
                .fold(term, |term, c| term.with_condition(c))
        })
}

fn arb_policy() -> impl Strategy<Value = DisclosurePolicy> {
    (
        (arb_text(), arb_text(), 0usize..3),
        proptest::collection::vec((arb_text(), arb_text()), 0..3),
        proptest::collection::vec(arb_term(), 0..4),
    )
        .prop_map(|((id, target, kind), attrs, terms)| {
            let resource = match kind {
                0 => Resource::credential(target),
                1 => Resource::service(target),
                _ => Resource::file(target),
            };
            let resource = attrs
                .into_iter()
                .fold(resource, |r, (name, value)| r.with_attr(name, value));
            if terms.is_empty() {
                DisclosurePolicy::deliv(id, resource)
            } else {
                DisclosurePolicy::rule(id, resource, terms)
            }
        })
}

fn arb_checkpoint() -> impl Strategy<Value = Negotiation> {
    (
        (arb_text(), arb_text(), arb_text(), 0usize..4),
        any::<bool>(),
        proptest::collection::vec((any::<bool>(), arb_text(), arb_text()), 0..5),
        any::<usize>(),
    )
        .prop_map(
            |((requester, controller, resource, strategy), agreed, disclosures, next)| {
                let strategy = [
                    NegotiationStrategy::Trusting,
                    NegotiationStrategy::Standard,
                    NegotiationStrategy::Suspicious,
                    NegotiationStrategy::StrongSuspicious,
                ][strategy];
                let mut negotiation = Negotiation::new(requester, controller, resource, strategy);
                if agreed {
                    let mut sequence = TrustSequence::new();
                    for (by_requester, id, cred_type) in disclosures {
                        sequence.push(Disclosure {
                            by: if by_requester {
                                Side::Requester
                            } else {
                                Side::Controller
                            },
                            cred_id: CredentialId(id),
                            cred_type,
                        });
                    }
                    let len = sequence.len();
                    negotiation.agree(sequence);
                    negotiation.next = next % (len + 1);
                }
                negotiation
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The unsigned credential is what an issuer signs: the credential
    /// keeps exactly its text sink's bytes.
    #[test]
    fn unsigned_credential_sinks_agree(cred in arb_credential()) {
        let unsigned = CredentialDocument::unsigned(cred.header(), cred.content());
        sinks_agree(&unsigned)?;
        let text = unsigned.to_text();
        prop_assert_eq!(cred.signed_bytes(), text.as_bytes());
    }

    #[test]
    fn signed_credential_sinks_agree(cred in arb_credential(), label in arb_sensitivity()) {
        sinks_agree(&cred.document(None))?;
        sinks_agree(&cred.document(Some(label)))?;
        prop_assert_eq!(cred.xml_text(), to_string(&cred.to_xml()));
    }

    #[test]
    fn profile_sinks_agree(profile in arb_profile()) {
        sinks_agree(&profile)?;
    }

    #[test]
    fn policy_sinks_agree(policy in arb_policy()) {
        sinks_agree(&policy)?;
    }

    #[test]
    fn checkpoint_sinks_agree(negotiation in arb_checkpoint()) {
        sinks_agree(&negotiation)?;
        let (doc, _) = negotiation.checkpoint();
        let oracle = encode_element(&negotiation.to_tree());
        prop_assert_eq!(doc.as_bytes(), oracle.as_slice());
    }
}

/// Every `AttrValue` kind, every sensitivity and every term kind at least
/// once, whatever the generators draw.
#[test]
fn fixed_documents_cover_every_kind() {
    let keys = KeyPair::from_seed(b"issuer");
    let header = Header {
        cred_id: CredentialId("c&1".into()),
        cred_type: "T<\"\n\t>".into(),
        issuer: "Iss é中".into(),
        issuer_key: keys.public,
        subject: String::new(),
        subject_key: PublicKey(7),
        validity: TimeRange::new(Timestamp(0), Timestamp(86_400)),
    };
    let content = vec![
        Attribute::new("s", "a & b < c > d \" e"),
        Attribute::new("i", -42i64),
        Attribute::new("b", true),
        Attribute::new("d", AttrValue::Date(Timestamp(1_234_567_890))),
        Attribute::new("e", ""),
    ];
    let cred = Credential::issue_signed(header, content, &keys);
    let mut profile = XProfile::new("Owner \"&\"");
    for label in [Sensitivity::Low, Sensitivity::Medium, Sensitivity::High] {
        profile.add_with_sensitivity(cred.clone(), label);
    }
    let policy = DisclosurePolicy::rule(
        "p<1>",
        Resource::service("Svc").with_attr("vo", "A&B"),
        vec![
            Term::of_type("T").with_condition(Condition::parse("//content/i < 0").unwrap()),
            Term::variable().where_attr("Issuer", "B\"B"),
            Term::of_concept("BusinessProof"),
        ],
    );
    let deliv = DisclosurePolicy::deliv("d", Resource::file("/a&b"));
    let unagreed = Negotiation::new("R&", "C<", "S>", NegotiationStrategy::Suspicious);
    let mut agreed = unagreed.clone();
    agreed.agree(TrustSequence::new());
    let check = || -> Result<(), TestCaseError> {
        sinks_agree(&CredentialDocument::unsigned(cred.header(), cred.content()))?;
        sinks_agree(&cred.document(None))?;
        sinks_agree(&profile)?;
        sinks_agree(&policy)?;
        sinks_agree(&deliv)?;
        sinks_agree(&unagreed)?;
        sinks_agree(&agreed)?;
        Ok(())
    };
    check().unwrap();
}
