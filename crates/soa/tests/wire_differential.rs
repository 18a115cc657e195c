//! Differential properties pinning the binary wire codec against the XML
//! path, which is kept as the oracle: for envelopes, credentials, and
//! policies, `decode(binary(x)) == parse(xml(x)) == x`. Plus the torn-frame
//! property: any byte prefix of a framed stream decodes to the longest
//! clean record prefix and never panics.

use proptest::prelude::*;
use trust_vo_credential::{Attribute, Credential, Timestamp};
use trust_vo_credential::{CredentialAuthority, TimeRange};
use trust_vo_obs::TraceContext;
use trust_vo_policy::xml::{policy_from_xml, policy_to_xml};
use trust_vo_policy::{DisclosurePolicy, Resource, Term};
use trust_vo_soa::wire;
use trust_vo_soa::Envelope;
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

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        "[A-Za-z][A-Za-z0-9]{0,15}",
        arb_element(),
        opt(any::<u64>()),
        opt(any::<u64>()),
        opt(arb_trace()),
    )
        .prop_map(|(operation, body, negotiation, idempotency, trace)| {
            let mut env = Envelope::request(operation, body);
            if let Some(id) = negotiation {
                env = env.with_negotiation(id);
            }
            if let Some(key) = idempotency {
                env = env.with_idempotency(key);
            }
            if let Some(trace) = trace {
                env = env.with_trace(trace);
            }
            env
        })
}

fn xml_roundtrip(env: &Envelope) -> Envelope {
    let text = trust_vo_xmldoc::to_string(&env.to_xml());
    Envelope::from_xml(&trust_vo_xmldoc::parse(&text).expect("canonical XML parses"))
        .expect("canonical envelope parses")
}

proptest! {
    /// Binary and XML envelope codecs agree with each other and with the
    /// original, for the whole header surface (ids, keys, trace chains).
    #[test]
    fn envelope_binary_matches_xml_oracle(env in arb_envelope()) {
        let binary = wire::decode_envelope(&wire::encode_envelope(&env));
        prop_assert_eq!(binary.as_ref(), Some(&env));
        let xml = xml_roundtrip(&env);
        prop_assert_eq!(binary, Some(xml));
    }

    /// The 0 trace-id sentinel decodes to "untraced" in both codecs: a
    /// trace context with `trace_id == 0` is dropped identically by the
    /// lenient XML parse and the binary decoder.
    #[test]
    fn zero_trace_sentinel_agrees(span in any::<u64>(), parent in opt(any::<u64>())) {
        let env = Envelope::request("Echo", Element::new("x")).with_trace(TraceContext {
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

    /// Signed credentials survive both paths byte-for-byte: the XML tree a
    /// credential serializes to round-trips identically through the binary
    /// element codec, and re-parses to an equal credential either way.
    #[test]
    fn credential_binary_matches_xml_oracle(
        cred_type in arb_name(),
        subject in arb_name(),
        attrs in proptest::collection::vec((arb_name(), arb_text()), 0..4),
    ) {
        let mut ca = CredentialAuthority::new("DiffOracle CA");
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let keys = trust_vo_crypto::KeyPair::generate(&mut rng);
        let mut seen = std::collections::HashSet::new();
        let content: Vec<Attribute> = attrs
            .into_iter()
            .filter(|(name, _)| seen.insert(name.clone()))
            .map(|(name, value)| Attribute::new(name, value.as_str()))
            .collect();
        let cred = ca
            .issue(
                &cred_type,
                &subject,
                keys.public,
                content,
                TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0)),
            )
            .unwrap();
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
        let outcome = trust_vo_journal::frame::scan(torn);
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

    /// Arbitrary byte soup through the unframers never panics.
    #[test]
    fn garbage_frames_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::unframe_envelope(&bytes);
        let _ = wire::unframe_reply(&bytes);
        let _ = wire::decode_envelope(&bytes);
        let _ = wire::decode_reply(&bytes);
    }
}

/// Non-proptest sanity: encoding and framing the same envelope twice
/// give the same bytes.
#[test]
fn encoding_twice_gives_the_same_bytes() {
    let env = Envelope::request("PolicyExchange", Element::new("big"))
        .with_negotiation(1)
        .with_idempotency(2);
    assert_eq!(wire::encode_envelope(&env), wire::encode_envelope(&env));
    assert_eq!(wire::frame_envelope(&env), wire::frame_envelope(&env));
}
