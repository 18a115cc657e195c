//! Sample message bodies shared by the wire tests: every `Body` variant,
//! with and without its optional parts, carrying a real signed credential
//! and a real signed resume token.

use trust_vo_credential::{Attribute, Credential, CredentialAuthority, TimeRange, Timestamp};
use trust_vo_crypto::{sha256, KeyPair};
use trust_vo_negotiation::message::Side;
use trust_vo_negotiation::view::{Disclosure, TrustSequence};
use trust_vo_negotiation::{ResumeToken, Strategy};
use trust_vo_soa::{
    Body, CredentialExchangeResponse, PolicyExchangeResponse, ResumeNegotiationResponse,
    SignedCredential, SignedToken, StartNegotiation,
};
use trust_vo_xmldoc::Element;

/// A credential issued to `subject` with `attrs` as its content.
pub fn credential(cred_type: &str, subject: &str, attrs: Vec<Attribute>) -> Credential {
    let holder = KeyPair::from_seed(subject.as_bytes());
    CredentialAuthority::new("Wire CA")
        .issue(
            cred_type,
            subject,
            holder.public,
            attrs,
            TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0)),
        )
        .expect("open schema")
}

/// A resume token for checkpoint slot `slot`.
pub fn token(slot: u64, holder: &str, issuer: &str, resource: &str) -> ResumeToken {
    let start = Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0);
    ResumeToken::issue(
        slot,
        holder,
        KeyPair::from_seed(holder.as_bytes()).public,
        issuer,
        &KeyPair::from_seed(issuer.as_bytes()),
        resource,
        sha256(format!("checkpoint {slot}").as_bytes()),
        TimeRange::new(start, start.plus_seconds(3_600)),
    )
}

/// A trust sequence of `n` disclosures, alternating sides.
pub fn sequence(n: usize) -> TrustSequence {
    let mut sequence = TrustSequence::new();
    for i in 0..n {
        sequence.push(Disclosure {
            by: if i % 2 == 0 {
                Side::Requester
            } else {
                Side::Controller
            },
            cred_id: format!("cred-{i:04}").as_str().into(),
            cred_type: format!("Type{i}"),
        });
    }
    sequence
}

/// Every body variant, each optional part both absent and present.
pub fn every_body() -> Vec<Body> {
    let cred = SignedCredential::of(&credential(
        "WebDesignerQuality",
        "Aerospace",
        vec![Attribute::new("QualityRegulation", "UNI EN ISO 9000")],
    ));
    let tok = SignedToken::of(&token(7, "Aerospace", "Aircraft", "VoMembership"));
    let mut bodies = Vec::new();
    for (strategy, resumable) in [
        (Strategy::Standard, false),
        (Strategy::StrongSuspicious, true),
    ] {
        bodies.push(Body::StartNegotiation(StartNegotiation {
            strategy,
            requester: "Aerospace".into(),
            controller: "Aircraft".into(),
            resource: "VoMembership".into(),
            resumable,
        }));
    }
    bodies.push(Body::StartNegotiationResponse);
    bodies.push(Body::PolicyExchange);
    for (n, token) in [(0, None), (3, Some(tok.clone()))] {
        bodies.push(Body::PolicyExchangeResponse(PolicyExchangeResponse {
            policies_disclosed: 4,
            rounds: 2,
            sequence: sequence(n),
            token,
        }));
    }
    bodies.push(Body::CredentialExchange);
    for (remaining, credential, token) in [
        (0, None, None),
        (0, Some(cred.clone()), None),
        (2, Some(cred.clone()), Some(tok.clone())),
    ] {
        bodies.push(Body::CredentialExchangeResponse(
            CredentialExchangeResponse {
                remaining,
                credential,
                token,
            },
        ));
    }
    bodies.push(Body::ResumeNegotiation(tok));
    bodies.push(Body::ResumeNegotiationResponse(ResumeNegotiationResponse {
        next: 1,
        remaining: 2,
    }));
    bodies.push(
        Body::document(
            "CreateVo",
            Element::new("CreateVoRequest")
                .attr("initiator", "Aircraft")
                .child(Element::new("contract").attr("name", "VO")),
        )
        .unwrap(),
    );
    bodies
}
