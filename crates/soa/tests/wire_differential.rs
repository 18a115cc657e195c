//! Differential properties pinning the binary wire codec against the XML
//! rendering, which is kept as the oracle: for every typed message,
//! `decode(encode(x)) == x == from_xml(parse(to_string(to_xml(x))))`, and
//! for credentials and policies `decode(binary(x)) == parse(xml(x)) == x`.
//! Plus totality: torn, truncated and bit-flipped frames decode to
//! `None`, CRC-valid junk payloads never panic, and no decoder allocates
//! from a count it has not read the items of.

mod common;

use proptest::prelude::*;
use trust_vo_credential::{Attribute, Credential};
use trust_vo_journal::frame;
use trust_vo_negotiation::Strategy as Negotiating;
use trust_vo_obs::TraceContext;
use trust_vo_policy::xml::{policy_from_xml, policy_to_xml};
use trust_vo_policy::{DisclosurePolicy, Resource, Term};
use trust_vo_soa::{
    wire, Body, CredentialExchangeResponse, Envelope, PolicyExchangeResponse,
    ResumeNegotiationResponse, SignedCredential, SignedToken, StartNegotiation,
};
use trust_vo_xmldoc::{decode_element, encode_element, Element, Node};

/// `Option`-valued strategy (the vendored proptest has no `option` module).
fn opt<S>(s: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: std::fmt::Debug + Clone,
{
    prop_oneof![Just(None), s.prop_map(Some)]
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_.-]{0,8}"
}

fn arb_text() -> impl Strategy<Value = String> {
    // Printable, never whitespace-only (not canonical through the parser).
    "[ -~]{1,20}"
}

/// Canonical trees — deduped attribute keys, merged adjacent text — the
/// same shape the XML parser's own round-trip property generates.
fn arb_element() -> impl Strategy<Value = Element> {
    let leaf = (
        arb_name(),
        proptest::collection::vec((arb_name(), arb_text()), 0..3),
    )
        .prop_map(|(name, attrs)| {
            let mut seen = std::collections::HashSet::new();
            let mut e = Element::new(name);
            for (k, v) in attrs {
                if seen.insert(k.clone()) {
                    e.attrs.push((k, v));
                }
            }
            e
        });
    leaf.prop_recursive(3, 16, 4, |inner| {
        (
            arb_name(),
            proptest::collection::vec(
                prop_oneof![
                    inner.prop_map(Node::Element),
                    arb_text().prop_map(Node::Text),
                ],
                0..4,
            ),
        )
            .prop_map(|(name, children)| {
                let mut e = Element::new(name);
                for c in children {
                    match (e.children.last_mut(), c) {
                        (Some(Node::Text(prev)), Node::Text(t)) => prev.push_str(&t),
                        (_, c) => e.children.push(c),
                    }
                }
                e
            })
    })
}

fn arb_trace() -> impl Strategy<Value = TraceContext> {
    (any::<u64>(), any::<u64>(), opt(any::<u64>())).prop_map(
        |(trace_id, span_id, parent_span_id)| TraceContext {
            // 0 is the "untraced" sentinel; keep generated traces real.
            trace_id: trace_id.max(1),
            span_id,
            parent_span_id,
        },
    )
}

fn arb_strategy() -> impl Strategy<Value = Negotiating> {
    (0usize..4).prop_map(|i| Negotiating::ALL[i])
}

/// Unique attribute names: a credential's content is a map.
fn arb_attrs() -> impl Strategy<Value = Vec<Attribute>> {
    proptest::collection::vec((arb_name(), arb_text()), 0..4).prop_map(|attrs| {
        let mut seen = std::collections::HashSet::new();
        attrs
            .into_iter()
            .filter(|(name, _)| seen.insert(name.clone()))
            .map(|(name, value)| Attribute::new(name, value.as_str()))
            .collect()
    })
}

fn arb_credential() -> impl Strategy<Value = SignedCredential> {
    (arb_name(), arb_name(), arb_attrs()).prop_map(|(cred_type, subject, attrs)| {
        SignedCredential::of(&common::credential(&cred_type, &subject, attrs))
    })
}

fn arb_token() -> impl Strategy<Value = SignedToken> {
    (any::<u64>(), arb_name(), arb_name(), arb_text()).prop_map(
        |(slot, holder, issuer, resource)| {
            SignedToken::of(&common::token(slot, &holder, &issuer, &resource))
        },
    )
}

/// Every variant of [`Body`], each with arbitrary contents.
fn arb_body() -> impl Strategy<Value = Body> {
    prop_oneof![
        (
            arb_strategy(),
            arb_text(),
            arb_text(),
            arb_text(),
            any::<bool>()
        )
            .prop_map(|(strategy, requester, controller, resource, resumable)| {
                Body::StartNegotiation(StartNegotiation {
                    strategy,
                    requester,
                    controller,
                    resource,
                    resumable,
                })
            }),
        Just(Body::StartNegotiationResponse),
        Just(Body::PolicyExchange),
        (any::<u32>(), any::<u32>(), 0usize..6, opt(arb_token())).prop_map(
            |(policies_disclosed, rounds, n, token)| {
                Body::PolicyExchangeResponse(PolicyExchangeResponse {
                    policies_disclosed,
                    rounds,
                    sequence: common::sequence(n),
                    token,
                })
            }
        ),
        Just(Body::CredentialExchange),
        (any::<u32>(), opt(arb_credential()), opt(arb_token())).prop_map(
            |(remaining, credential, token)| {
                Body::CredentialExchangeResponse(CredentialExchangeResponse {
                    remaining,
                    credential,
                    token,
                })
            }
        ),
        arb_token().prop_map(Body::ResumeNegotiation),
        (any::<u32>(), any::<u32>()).prop_map(|(next, remaining)| {
            Body::ResumeNegotiationResponse(ResumeNegotiationResponse { next, remaining })
        }),
        ("[A-Za-z][A-Za-z0-9]{0,15}", arb_element()).prop_map(|(operation, root)| {
            // A document never travels under a TN operation name.
            match Body::document(operation.clone(), root.clone()) {
                Some(doc) => doc,
                None => Body::document(format!("{operation}Doc"), root).unwrap(),
            }
        }),
    ]
}

fn with_headers(
    body: Body,
    negotiation: Option<u64>,
    idempotency: Option<u64>,
    trace: Option<TraceContext>,
) -> Envelope {
    let mut env = Envelope::new(body);
    env.negotiation_id = negotiation;
    env.idempotency_key = idempotency;
    env.trace = trace;
    env
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        arb_body(),
        opt(any::<u64>()),
        opt(any::<u64>()),
        opt(arb_trace()),
    )
        .prop_map(|(body, negotiation, idempotency, trace)| {
            with_headers(body, negotiation, idempotency, trace)
        })
}

fn xml_roundtrip(env: &Envelope) -> Envelope {
    let text = trust_vo_xmldoc::to_string(&env.to_xml());
    Envelope::from_xml(&trust_vo_xmldoc::parse(&text).expect("canonical XML parses"))
        .expect("canonical envelope parses")
}

proptest! {
    /// Binary and XML codecs agree with each other and with the original,
    /// for every typed message and the whole header surface (ids, keys,
    /// trace chains).
    #[test]
    fn envelope_binary_matches_xml_oracle(env in arb_envelope()) {
        let binary = wire::decode_envelope(&wire::encode_envelope(&env));
        prop_assert_eq!(binary.as_ref(), Some(&env));
        let xml = xml_roundtrip(&env);
        prop_assert_eq!(binary, Some(xml));
    }

    /// Replies — a response envelope or a fault — round-trip too.
    #[test]
    fn reply_roundtrips(env in arb_envelope(), code in arb_name(), reason in arb_text()) {
        let ok = Ok(env);
        prop_assert_eq!(wire::decode_reply(&wire::encode_reply(&ok)), Some(ok));
        let fault = Err(trust_vo_soa::Fault::new(code, reason));
        prop_assert_eq!(wire::decode_reply(&wire::encode_reply(&fault)), Some(fault));
    }

    /// The 0 trace-id sentinel decodes to "untraced" in both codecs: a
    /// trace context with `trace_id == 0` is dropped identically by the
    /// lenient XML parse and the binary decoder.
    #[test]
    fn zero_trace_sentinel_agrees(span in any::<u64>(), parent in opt(any::<u64>())) {
        let env = Envelope::new(Body::PolicyExchange).with_trace(TraceContext {
            trace_id: 0,
            span_id: span,
            parent_span_id: parent,
        });
        let binary = wire::decode_envelope(&wire::encode_envelope(&env)).unwrap();
        let xml = xml_roundtrip(&env);
        prop_assert_eq!(binary.trace, None);
        prop_assert_eq!(xml.trace, None);
        prop_assert_eq!(binary, xml);
    }

    /// A credential crosses as its signed bytes: the wire form decodes to
    /// the very credential, keeping the bytes its signature covers, and
    /// its XML tree round-trips identically through the binary element
    /// codec and the parser.
    #[test]
    fn credential_binary_matches_xml_oracle(signed in arb_credential()) {
        let cred = signed.decode().unwrap();
        prop_assert_eq!(cred.signed_bytes(), signed.signed_bytes());
        prop_assert!(cred.verify_signature().is_ok());
        let tree = cred.to_xml();
        let via_binary = decode_element(&encode_element(&tree)).expect("binary roundtrip");
        let via_xml = trust_vo_xmldoc::parse(&trust_vo_xmldoc::to_string(&tree)).unwrap();
        prop_assert_eq!(&via_binary, &via_xml);
        let back_b = Credential::from_xml(&via_binary).unwrap();
        let back_x = Credential::from_xml(&via_xml).unwrap();
        prop_assert_eq!(&back_b, &cred);
        prop_assert_eq!(back_b, back_x);
    }

    /// Disclosure policies: same differential, over the policy XML schema.
    #[test]
    fn policy_binary_matches_xml_oracle(
        id in arb_name(),
        service in arb_name(),
        types in proptest::collection::vec(arb_name(), 1..4),
    ) {
        let policy = DisclosurePolicy::rule(
            id,
            Resource::service(service),
            types.into_iter().map(Term::of_type).collect(),
        );
        let tree = policy_to_xml(&policy);
        let via_binary = decode_element(&encode_element(&tree)).expect("binary roundtrip");
        let via_xml = trust_vo_xmldoc::parse(&trust_vo_xmldoc::to_string(&tree)).unwrap();
        prop_assert_eq!(&via_binary, &via_xml);
        let back_b = policy_from_xml(&via_binary).unwrap();
        let back_x = policy_from_xml(&via_xml).unwrap();
        prop_assert_eq!(&back_b, &policy);
        prop_assert_eq!(back_b, back_x);
    }

    /// Torn frames: any prefix of a framed envelope stream never panics
    /// the scanner and yields exactly the records whose frames fit.
    #[test]
    fn torn_frame_stream_decodes_longest_clean_prefix(
        envs in proptest::collection::vec(arb_envelope(), 1..5),
        cut_ratio in 0u64..=1024,
    ) {
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for env in &envs {
            stream.extend_from_slice(&wire::frame_envelope(env));
            ends.push(stream.len());
        }
        let cut = (stream.len() as u64 * cut_ratio / 1024) as usize;
        let torn = &stream[..cut.min(stream.len())];
        let outcome = frame::scan(torn);
        // Exactly the whole frames that fit before the cut survive…
        let whole = ends.iter().filter(|&&e| e <= torn.len()).count();
        prop_assert_eq!(outcome.payloads.len(), whole);
        prop_assert_eq!(outcome.clean_len, ends[..whole].last().copied().unwrap_or(0));
        // …and each surviving payload decodes to its original envelope.
        for (payload, env) in outcome.payloads.iter().zip(&envs) {
            let decoded = wire::decode_envelope(payload);
            prop_assert_eq!(decoded.as_ref(), Some(env));
        }
    }

    /// A single frame, request or reply, truncated anywhere or with any
    /// one bit flipped, unframes to `None`.
    #[test]
    fn truncated_and_bit_flipped_frames_give_none(
        env in arb_envelope(),
        cut_ratio in 0u64..1024,
        flip in any::<u64>(),
    ) {
        for framed in [wire::frame_envelope(&env), wire::frame_reply(&Ok(env.clone()))] {
            let cut = (framed.len() as u64 * cut_ratio / 1024) as usize;
            prop_assert_eq!(wire::unframe_envelope(&framed[..cut]), None);
            prop_assert_eq!(wire::unframe_reply(&framed[..cut]), None);
            let bit = (flip % (framed.len() as u64 * 8)) as usize;
            let mut flipped = framed.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(wire::unframe_envelope(&flipped), None);
            prop_assert_eq!(wire::unframe_reply(&flipped), None);
        }
    }

    /// Junk under a valid CRC reaches the payload decoders, past the
    /// header and into every body tag's field decoder, and never panics.
    #[test]
    fn crc_valid_junk_payloads_never_panic(
        header in proptest::collection::vec(any::<u8>(), 0..27),
        tag in 0u8..11,
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        flags in 0u8..16,
    ) {
        // A well-formed prefix (version, envelope kind, flags, the header
        // words the flags promise) steers the junk into the body decoder.
        let words = (flags & 1) + ((flags >> 1) & 1) + 2 * ((flags >> 2) & 1) + ((flags >> 3) & 1);
        let mut payload = vec![wire::VERSION, 0x00, flags];
        payload.extend(std::iter::repeat_n(0x5A, 8 * words as usize));
        payload.push(tag);
        payload.extend_from_slice(&junk);
        for payload in [payload, header] {
            let mut framed = Vec::new();
            frame::push_record(&mut framed, &payload);
            let _ = wire::unframe_envelope(&framed);
            let _ = wire::unframe_reply(&framed);
        }
    }

    /// Arbitrary byte soup through the unframers never panics.
    #[test]
    fn garbage_frames_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::unframe_envelope(&bytes);
        let _ = wire::unframe_reply(&bytes);
        let _ = wire::decode_envelope(&bytes);
        let _ = wire::decode_reply(&bytes);
    }
}

/// Every variant, with and without its optional parts, satisfies the
/// oracle equality (the proptest above draws variants at random; this
/// names each one).
#[test]
fn every_variant_matches_the_xml_oracle() {
    let bodies = common::every_body();
    let mut seen = std::collections::BTreeSet::new();
    for body in bodies {
        seen.insert(body.operation().to_owned());
        let env = with_headers(body, Some(3), Some(9), None);
        assert_eq!(
            wire::decode_envelope(&wire::encode_envelope(&env)).as_ref(),
            Some(&env)
        );
        assert_eq!(xml_roundtrip(&env), env);
    }
    assert_eq!(seen.len(), 9, "one operation per variant: {seen:?}");
}

/// A payload that claims a huge count or length but does not hold the
/// items decodes to `None` at once: nothing is allocated from the claim.
#[test]
fn claimed_counts_and_lengths_allocate_nothing() {
    let policy = |count: u32| {
        let mut p = vec![wire::VERSION, 0x00, 0x00, 0x04];
        p.extend_from_slice(&0u32.to_le_bytes()); // policies disclosed
        p.extend_from_slice(&0u32.to_le_bytes()); // rounds
        p.extend_from_slice(&count.to_le_bytes());
        p
    };
    assert_eq!(wire::decode_envelope(&policy(u32::MAX)), None);
    // One well-formed disclosure, then the claim runs out.
    let mut one = policy(u32::MAX);
    one.push(0);
    for s in ["T", "c"] {
        one.extend_from_slice(&(s.len() as u32).to_le_bytes());
        one.extend_from_slice(s.as_bytes());
    }
    assert_eq!(wire::decode_envelope(&one), None);
    // A signed run or a string that claims 4 GiB.
    let mut resume = vec![wire::VERSION, 0x00, 0x00, 0x07];
    resume.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(wire::decode_envelope(&resume), None);
    let mut start = vec![wire::VERSION, 0x00, 0x00, 0x01, 0x00, 0x01];
    start.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(wire::decode_envelope(&start), None);
    // A signed run too short to hold its signature.
    let mut short = vec![wire::VERSION, 0x00, 0x00, 0x07];
    short.extend_from_slice(&15u32.to_le_bytes());
    short.extend_from_slice(&[0; 15]);
    assert_eq!(wire::decode_envelope(&short), None);
}

/// The wire never decodes what it carries: a credential or token run of
/// junk crosses intact, and only a receiver that decodes it finds out.
#[test]
fn signed_runs_cross_undecoded() {
    let mut payload = vec![wire::VERSION, 0x00, 0x00, 0x07];
    payload.extend_from_slice(&20u32.to_le_bytes());
    payload.extend_from_slice(&[0xAB; 20]);
    let env = wire::decode_envelope(&payload).expect("a signed run is opaque");
    let Body::ResumeNegotiation(token) = &*env.body else {
        panic!("a resume request")
    };
    assert_eq!(token.decode(), None);
    assert_eq!(wire::encode_envelope(&env), payload);
}

/// Non-proptest sanity: encoding and framing the same envelope twice
/// give the same bytes.
#[test]
fn encoding_twice_gives_the_same_bytes() {
    for body in common::every_body() {
        let env = Envelope::new(body).with_negotiation(1).with_idempotency(2);
        assert_eq!(wire::encode_envelope(&env), wire::encode_envelope(&env));
        assert_eq!(wire::frame_envelope(&env), wire::frame_envelope(&env));
    }
}
