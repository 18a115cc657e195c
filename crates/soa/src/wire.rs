//! The wire path: canonical binary envelope codec and length framing.
//!
//! Every bus call crosses a real byte boundary (see
//! [`ServiceBus::call`](crate::bus::ServiceBus::call)): the request
//! envelope is encoded to the canonical binary payload below, framed
//! with the journal's `[len: u32 LE][crc32: u32 LE][payload]` discipline
//! ([`trust_vo_journal::frame`]), and decoded on the far side before the
//! endpoint sees it; the reply — response envelope or fault — crosses
//! back the same way.
//!
//! The payload is typed: each [`Body`] variant is encoded field by field,
//! with no element tree and no per-node tags, except a
//! [`Document`](crate::body::Document), whose element goes through the
//! [`trust_vo_xmldoc::binary`] element codec. A disclosed credential or
//! resume token is one length-prefixed run of its signed bytes plus its
//! 16-byte signature, copied once and never decoded here (see
//! [`crate::body`]). The XML rendering ([`Envelope::to_xml`] /
//! [`Envelope::from_xml`]) is the differential oracle: both codecs read
//! any envelope back to the same value (pinned by proptests in
//! `tests/wire_differential.rs`).
//!
//! Payload layout, version 2 (integers little-endian; `str` and `bytes`
//! are a `u32` length then the bytes, `str` UTF-8; `signed` is `bytes`
//! holding the signed bytes then the signature's `r` and `s` as
//! big-endian `u64`s):
//!
//! ```text
//! envelope := VERSION  kind:0x00  flags:u8
//!             [negotiation_id:u64] [idempotency_key:u64]
//!             [trace_id:u64 span_id:u64 [parent_span_id:u64]]
//!             body
//! body     := 0x01 resumable:u8 strategy:u8 requester:str
//!                  controller:str resource:str          StartNegotiation
//!           | 0x02                                       StartNegotiationResponse
//!           | 0x03                                       PolicyExchange
//!           | 0x04 policies_disclosed:u32 rounds:u32 count:u32
//!                  (by:u8 cred_type:str cred_id:str)*
//!                  has_token:u8 [token:signed]          PolicyExchangeResponse
//!           | 0x05                                       CredentialExchange
//!           | 0x06 remaining:u32 parts:u8
//!                  [credential:signed] [token:signed]   CredentialExchangeResponse
//!           | 0x07 token:signed                          ResumeNegotiation
//!           | 0x08 next:u32 remaining:u32                ResumeNegotiationResponse
//!           | 0x09 operation:str element                 Document
//! reply    := envelope                                   (successful response)
//!           | VERSION kind:0x01 fault_kind:u8 flags:u8
//!             code:str reason:str [retry_after_us:u64]
//! ```
//!
//! `flags` marks the optional header fields (bit 0 negotiation id, 1
//! idempotency key, 2 trace, 3 parent span); `parts` marks the optional
//! reply parts (bit 0 credential, 1 token). Strategies are tagged 0
//! trusting, 1 standard, 2 suspicious, 3 strong-suspicious; sides 0
//! requester, 1 controller. A document cannot carry a TN operation name
//! ([`Body::document`] refuses one, and so does the decoder), so every
//! envelope has one encoding.
//!
//! Trace contexts ride the binary header (the PR 7 causal-tracing
//! contract): `trace_id` 0 is the untraced sentinel, mirroring the XML
//! path's lenient parse — a decoded trace with id 0 is dropped, so both
//! codecs agree on it. Decoding is total: torn frames, checksum
//! failures, and malformed payloads yield `None`, never a panic, and no
//! decoder allocates from a claimed count (sequences grow per decoded
//! item, strings and byte runs only once their bytes are in hand).
//!
//! The boundary is transparent: an endpoint receives exactly the envelope
//! that was sent, and the caller exactly the endpoint's reply or fault
//! (pinned by `tests/wire_transparency.rs`).

use crate::body::{
    Body, CredentialExchangeResponse, PolicyExchangeResponse, ResumeNegotiationResponse,
    SignedCredential, SignedToken, StartNegotiation,
};
use crate::envelope::{Envelope, Fault, FaultKind};
use trust_vo_credential::CredentialId;
use trust_vo_journal::frame;
use trust_vo_negotiation::message::Side;
use trust_vo_negotiation::view::{Disclosure, TrustSequence};
use trust_vo_negotiation::Strategy;
use trust_vo_obs::TraceContext;
use trust_vo_xmldoc::binary as xbin;

/// Wire format version byte; bump on incompatible layout changes.
pub const VERSION: u8 = 2;

/// Payload kind byte: a request/response envelope.
const KIND_ENVELOPE: u8 = 0x00;
/// Payload kind byte: a fault reply.
const KIND_FAULT: u8 = 0x01;

/// Body tag bytes, one per [`Body`] variant.
const TAG_START: u8 = 0x01;
const TAG_START_RESPONSE: u8 = 0x02;
const TAG_POLICY: u8 = 0x03;
const TAG_POLICY_RESPONSE: u8 = 0x04;
const TAG_CREDENTIAL: u8 = 0x05;
const TAG_CREDENTIAL_RESPONSE: u8 = 0x06;
const TAG_RESUME: u8 = 0x07;
const TAG_RESUME_RESPONSE: u8 = 0x08;
const TAG_DOCUMENT: u8 = 0x09;

/// A generous first guess at an envelope's payload length, so framing
/// rarely grows its buffer: a fixed header allowance plus the byte runs
/// the body carries.
fn payload_hint(env: &Envelope) -> usize {
    let signed = |c: Option<&SignedCredential>, t: Option<&SignedToken>| {
        c.map_or(0, |c| c.wire_bytes().len()) + t.map_or(0, |t| t.wire_bytes().len())
    };
    64 + match &*env.body {
        Body::PolicyExchangeResponse(p) => 48 * p.sequence.len() + signed(None, p.token.as_ref()),
        Body::CredentialExchangeResponse(c) => signed(c.credential.as_ref(), c.token.as_ref()),
        Body::ResumeNegotiation(t) => t.wire_bytes().len(),
        _ => 0,
    }
}

/// Encode `env` to its canonical binary payload (unframed).
pub fn encode_envelope(env: &Envelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload_hint(env));
    encode_envelope_into(&mut out, env);
    out
}

/// Append the canonical binary payload of `env` to `out`.
pub fn encode_envelope_into(out: &mut Vec<u8>, env: &Envelope) {
    out.push(VERSION);
    out.push(KIND_ENVELOPE);
    let mut flags = 0u8;
    if env.negotiation_id.is_some() {
        flags |= 1;
    }
    if env.idempotency_key.is_some() {
        flags |= 2;
    }
    if let Some(trace) = &env.trace {
        flags |= 4;
        if trace.parent_span_id.is_some() {
            flags |= 8;
        }
    }
    out.push(flags);
    if let Some(id) = env.negotiation_id {
        out.extend_from_slice(&id.to_le_bytes());
    }
    if let Some(key) = env.idempotency_key {
        out.extend_from_slice(&key.to_le_bytes());
    }
    if let Some(trace) = &env.trace {
        out.extend_from_slice(&trace.trace_id.to_le_bytes());
        out.extend_from_slice(&trace.span_id.to_le_bytes());
        if let Some(parent) = trace.parent_span_id {
            out.extend_from_slice(&parent.to_le_bytes());
        }
    }
    encode_body(out, &env.body);
}

fn encode_body(out: &mut Vec<u8>, body: &Body) {
    match body {
        Body::StartNegotiation(start) => {
            out.push(TAG_START);
            out.push(u8::from(start.resumable));
            out.push(strategy_tag(start.strategy));
            put_str(out, &start.requester);
            put_str(out, &start.controller);
            put_str(out, &start.resource);
        }
        Body::StartNegotiationResponse => out.push(TAG_START_RESPONSE),
        Body::PolicyExchange => out.push(TAG_POLICY),
        Body::PolicyExchangeResponse(reply) => {
            out.push(TAG_POLICY_RESPONSE);
            put_u32(out, reply.policies_disclosed);
            put_u32(out, reply.rounds);
            let disclosures = reply.sequence.disclosures();
            put_u32(out, disclosures.len() as u32);
            for d in disclosures {
                out.push(match d.by {
                    Side::Requester => 0,
                    Side::Controller => 1,
                });
                put_str(out, &d.cred_type);
                put_str(out, &d.cred_id.0);
            }
            out.push(u8::from(reply.token.is_some()));
            if let Some(token) = &reply.token {
                put_bytes(out, token.wire_bytes());
            }
        }
        Body::CredentialExchange => out.push(TAG_CREDENTIAL),
        Body::CredentialExchangeResponse(reply) => {
            out.push(TAG_CREDENTIAL_RESPONSE);
            put_u32(out, reply.remaining);
            out.push(u8::from(reply.credential.is_some()) | u8::from(reply.token.is_some()) << 1);
            if let Some(credential) = &reply.credential {
                put_bytes(out, credential.wire_bytes());
            }
            if let Some(token) = &reply.token {
                put_bytes(out, token.wire_bytes());
            }
        }
        Body::ResumeNegotiation(token) => {
            out.push(TAG_RESUME);
            put_bytes(out, token.wire_bytes());
        }
        Body::ResumeNegotiationResponse(reply) => {
            out.push(TAG_RESUME_RESPONSE);
            put_u32(out, reply.next);
            put_u32(out, reply.remaining);
        }
        Body::Document(doc) => {
            out.push(TAG_DOCUMENT);
            put_str(out, doc.operation());
            xbin::encode_element_into(out, doc.root());
        }
    }
}

/// Decode a canonical binary payload back to an envelope. `None` on any
/// malformation (wrong version/kind, truncation, trailing bytes). A
/// trace with `trace_id` 0 decodes as untraced — the same lenient
/// sentinel rule as the XML header parse.
pub fn decode_envelope(bytes: &[u8]) -> Option<Envelope> {
    let mut pos = 0usize;
    let env = decode_envelope_at(bytes, &mut pos)?;
    if pos == bytes.len() {
        Some(env)
    } else {
        None
    }
}

fn decode_envelope_at(bytes: &[u8], pos: &mut usize) -> Option<Envelope> {
    if get_u8(bytes, pos)? != VERSION || get_u8(bytes, pos)? != KIND_ENVELOPE {
        return None;
    }
    let flags = get_u8(bytes, pos)?;
    if flags & !0x0F != 0 {
        return None;
    }
    let negotiation_id = if flags & 1 != 0 {
        Some(get_u64(bytes, pos)?)
    } else {
        None
    };
    let idempotency_key = if flags & 2 != 0 {
        Some(get_u64(bytes, pos)?)
    } else {
        None
    };
    let trace = if flags & 4 != 0 {
        let trace_id = get_u64(bytes, pos)?;
        let span_id = get_u64(bytes, pos)?;
        let parent_span_id = if flags & 8 != 0 {
            Some(get_u64(bytes, pos)?)
        } else {
            None
        };
        // 0 is the untraced sentinel, exactly like the XML header path.
        (trace_id != 0).then_some(TraceContext {
            trace_id,
            span_id,
            parent_span_id,
        })
    } else {
        None
    };
    let mut env = Envelope::new(decode_body(bytes, pos)?);
    env.negotiation_id = negotiation_id;
    env.idempotency_key = idempotency_key;
    env.trace = trace;
    Some(env)
}

fn decode_body(bytes: &[u8], pos: &mut usize) -> Option<Body> {
    Some(match get_u8(bytes, pos)? {
        TAG_START => {
            let resumable = get_bool(bytes, pos)?;
            let strategy = strategy_from_tag(get_u8(bytes, pos)?)?;
            Body::StartNegotiation(StartNegotiation {
                strategy,
                requester: get_str(bytes, pos)?,
                controller: get_str(bytes, pos)?,
                resource: get_str(bytes, pos)?,
                resumable,
            })
        }
        TAG_START_RESPONSE => Body::StartNegotiationResponse,
        TAG_POLICY => Body::PolicyExchange,
        TAG_POLICY_RESPONSE => {
            let policies_disclosed = get_u32(bytes, pos)?;
            let rounds = get_u32(bytes, pos)?;
            let count = get_u32(bytes, pos)?;
            let mut sequence = TrustSequence::new();
            for _ in 0..count {
                let by = match get_u8(bytes, pos)? {
                    0 => Side::Requester,
                    1 => Side::Controller,
                    _ => return None,
                };
                let cred_type = get_str(bytes, pos)?;
                sequence.push(Disclosure {
                    by,
                    cred_id: CredentialId(get_str(bytes, pos)?),
                    cred_type,
                });
            }
            let token = if get_bool(bytes, pos)? {
                Some(SignedToken::from_wire(get_bytes(bytes, pos)?)?)
            } else {
                None
            };
            Body::PolicyExchangeResponse(PolicyExchangeResponse {
                policies_disclosed,
                rounds,
                sequence,
                token,
            })
        }
        TAG_CREDENTIAL => Body::CredentialExchange,
        TAG_CREDENTIAL_RESPONSE => {
            let remaining = get_u32(bytes, pos)?;
            let parts = get_u8(bytes, pos)?;
            if parts & !0x03 != 0 {
                return None;
            }
            let credential = if parts & 1 != 0 {
                Some(SignedCredential::from_wire(get_bytes(bytes, pos)?)?)
            } else {
                None
            };
            let token = if parts & 2 != 0 {
                Some(SignedToken::from_wire(get_bytes(bytes, pos)?)?)
            } else {
                None
            };
            Body::CredentialExchangeResponse(CredentialExchangeResponse {
                remaining,
                credential,
                token,
            })
        }
        TAG_RESUME => Body::ResumeNegotiation(SignedToken::from_wire(get_bytes(bytes, pos)?)?),
        TAG_RESUME_RESPONSE => Body::ResumeNegotiationResponse(ResumeNegotiationResponse {
            next: get_u32(bytes, pos)?,
            remaining: get_u32(bytes, pos)?,
        }),
        TAG_DOCUMENT => {
            let operation = get_str(bytes, pos)?;
            Body::document(operation, xbin::decode_element_at(bytes, pos)?)?
        }
        _ => return None,
    })
}

/// Encode a reply — response envelope or fault — to its binary payload.
pub fn encode_reply(reply: &Result<Envelope, Fault>) -> Vec<u8> {
    let mut out = Vec::with_capacity(reply.as_ref().map_or(64, payload_hint));
    encode_reply_into(&mut out, reply);
    out
}

/// Append the binary reply payload to `out` (the zero-intermediate-
/// buffer path [`frame_reply`] encodes straight into its frame with).
pub fn encode_reply_into(out: &mut Vec<u8>, reply: &Result<Envelope, Fault>) {
    match reply {
        Ok(env) => encode_envelope_into(out, env),
        Err(fault) => {
            out.reserve(12 + fault.code.len() + fault.reason.len());
            out.push(VERSION);
            out.push(KIND_FAULT);
            out.push(fault_kind_tag(fault.kind));
            out.push(u8::from(fault.retry_after_us.is_some()));
            put_str(out, &fault.code);
            put_str(out, &fault.reason);
            if let Some(hint) = fault.retry_after_us {
                out.extend_from_slice(&hint.to_le_bytes());
            }
        }
    }
}

/// Decode a binary reply payload. `None` on any malformation.
pub fn decode_reply(bytes: &[u8]) -> Option<Result<Envelope, Fault>> {
    match bytes.get(1).copied()? {
        KIND_ENVELOPE => Some(Ok(decode_envelope(bytes)?)),
        KIND_FAULT => {
            let mut pos = 0usize;
            if get_u8(bytes, &mut pos)? != VERSION || get_u8(bytes, &mut pos)? != KIND_FAULT {
                return None;
            }
            let kind = fault_kind_from_tag(get_u8(bytes, &mut pos)?)?;
            let has_hint = get_bool(bytes, &mut pos)?;
            let code = get_str(bytes, &mut pos)?;
            let reason = get_str(bytes, &mut pos)?;
            let retry_after_us = if has_hint {
                Some(get_u64(bytes, &mut pos)?)
            } else {
                None
            };
            if pos != bytes.len() {
                return None;
            }
            Some(Err(Fault {
                code,
                reason,
                kind,
                retry_after_us,
            }))
        }
        _ => None,
    }
}

/// Frame a request envelope for transmission: one journal-framed record
/// holding its canonical payload, encoded straight into the frame buffer
/// like [`frame_reply`].
pub fn frame_envelope(env: &Envelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame::HEADER_LEN + payload_hint(env));
    let start = frame::begin_record(&mut out);
    encode_envelope_into(&mut out, env);
    frame::end_record(&mut out, start);
    out
}

/// Frame a reply for transmission back to the caller, encoding straight
/// into the frame buffer (no intermediate payload allocation).
pub fn frame_reply(reply: &Result<Envelope, Fault>) -> Vec<u8> {
    let hint = reply.as_ref().map_or(64, payload_hint);
    let mut out = Vec::with_capacity(frame::HEADER_LEN + hint);
    let start = frame::begin_record(&mut out);
    encode_reply_into(&mut out, reply);
    frame::end_record(&mut out, start);
    out
}

/// Unframe and decode one request envelope: exactly one intact record
/// whose payload is a well-formed envelope. `None` otherwise.
pub fn unframe_envelope(bytes: &[u8]) -> Option<Envelope> {
    decode_envelope(frame::single_record(bytes)?)
}

/// Unframe and decode one reply. `None` on torn or malformed frames.
pub fn unframe_reply(bytes: &[u8]) -> Option<Result<Envelope, Fault>> {
    decode_reply(frame::single_record(bytes)?)
}

fn strategy_tag(strategy: Strategy) -> u8 {
    match strategy {
        Strategy::Trusting => 0,
        Strategy::Standard => 1,
        Strategy::Suspicious => 2,
        Strategy::StrongSuspicious => 3,
    }
}

fn strategy_from_tag(tag: u8) -> Option<Strategy> {
    Some(match tag {
        0 => Strategy::Trusting,
        1 => Strategy::Standard,
        2 => Strategy::Suspicious,
        3 => Strategy::StrongSuspicious,
        _ => return None,
    })
}

fn fault_kind_tag(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::Application => 0,
        FaultKind::NoSuchService => 1,
        FaultKind::Transport => 2,
        FaultKind::BudgetExhausted => 3,
        FaultKind::Overloaded => 4,
    }
}

fn fault_kind_from_tag(tag: u8) -> Option<FaultKind> {
    Some(match tag {
        0 => FaultKind::Application,
        1 => FaultKind::NoSuchService,
        2 => FaultKind::Transport,
        3 => FaultKind::BudgetExhausted,
        4 => FaultKind::Overloaded,
        _ => return None,
    })
}

fn put_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn get_u8(bytes: &[u8], pos: &mut usize) -> Option<u8> {
    let b = bytes.get(*pos).copied()?;
    *pos += 1;
    Some(b)
}

fn get_bool(bytes: &[u8], pos: &mut usize) -> Option<bool> {
    match get_u8(bytes, pos)? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

fn get_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let end = pos.checked_add(4)?;
    let slice = bytes.get(*pos..end)?;
    *pos = end;
    Some(u32::from_le_bytes(slice.try_into().ok()?))
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let end = pos.checked_add(8)?;
    let slice = bytes.get(*pos..end)?;
    *pos = end;
    Some(u64::from_le_bytes(slice.try_into().ok()?))
}

fn get_bytes<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = get_u32(bytes, pos)? as usize;
    let end = pos.checked_add(len)?;
    let slice = bytes.get(*pos..end)?;
    *pos = end;
    Some(slice)
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    std::str::from_utf8(get_bytes(bytes, pos)?)
        .ok()
        .map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trust_vo_xmldoc::Element;

    fn traced() -> Envelope {
        Envelope::new(Body::StartNegotiation(StartNegotiation {
            strategy: Strategy::Suspicious,
            requester: "INFN".into(),
            controller: "Aircraft".into(),
            resource: "VoMembership".into(),
            resumable: true,
        }))
        .with_negotiation(42)
        .with_idempotency(0xDEAD_BEEF_u64)
        .with_trace(TraceContext {
            trace_id: 11,
            span_id: 7,
            parent_span_id: Some(3),
        })
    }

    #[test]
    fn envelope_roundtrips_exactly() {
        for env in [
            traced(),
            Envelope::new(Body::StartNegotiationResponse),
            Envelope::new(Body::PolicyExchange).with_negotiation(1),
            Envelope::new(Body::document("Echo", Element::new("x").attr("k", "v")).unwrap()),
        ] {
            assert_eq!(decode_envelope(&encode_envelope(&env)), Some(env));
        }
    }

    #[test]
    fn zero_trace_id_is_the_untraced_sentinel() {
        let mut env = traced();
        env.trace = Some(TraceContext {
            trace_id: 0,
            span_id: 9,
            parent_span_id: None,
        });
        let back = decode_envelope(&encode_envelope(&env)).unwrap();
        assert_eq!(back.trace, None);
        // The XML oracle agrees: both paths drop the sentinel.
        let xml = Envelope::from_xml(&env.to_xml()).unwrap();
        assert_eq!(xml.trace, None);
    }

    #[test]
    fn replies_roundtrip_for_every_fault_kind() {
        let ok: Result<Envelope, Fault> = Ok(traced());
        assert_eq!(decode_reply(&encode_reply(&ok)), Some(ok));
        for fault in [
            Fault::new("NoSuchNegotiation", "id 9 unknown"),
            Fault::no_such_service("ghost"),
            Fault::transport("Timeout", "request lost"),
            Fault::budget_exhausted("Flooder", 250_000),
            Fault::overloaded("tn", 1_250),
        ] {
            let reply: Result<Envelope, Fault> = Err(fault);
            assert_eq!(decode_reply(&encode_reply(&reply)), Some(reply));
        }
    }

    #[test]
    fn framed_roundtrip_and_torn_frames_fail_clean() {
        let env = traced();
        let frame = frame_envelope(&env);
        assert_eq!(unframe_envelope(&frame), Some(env.clone()));
        for cut in 0..frame.len() {
            assert_eq!(unframe_envelope(&frame[..cut]), None);
        }
        // A flipped payload byte fails the CRC, not the decoder.
        let mut corrupt = frame.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert_eq!(unframe_envelope(&corrupt), None);
        let reply = frame_reply(&Ok(env));
        assert!(unframe_reply(&reply).is_some());
        assert_eq!(unframe_reply(&reply[..reply.len() - 1]), None);
    }

    /// The header fields are public, so they can change after the
    /// envelope is built: an encoding always carries the current values.
    #[test]
    fn a_field_written_after_encoding_is_encoded() {
        let fresh = |env: &Envelope| unframe_envelope(&frame_envelope(env)).unwrap();
        let mut env = traced();
        env.negotiation_id = None;
        env.idempotency_key = Some(1);
        env.trace = None;
        assert_eq!(fresh(&env), env);
        // The body too: replaced, or changed in place.
        let mut env = traced();
        if let Body::StartNegotiation(start) = std::sync::Arc::make_mut(&mut env.body) {
            start.resource = "Other".into();
        }
        assert_eq!(fresh(&env), env);
        env.body = std::sync::Arc::new(Body::CredentialExchange);
        assert_eq!(fresh(&env), env);
        assert_eq!(fresh(&env).operation(), "CredentialExchange");
    }

    #[test]
    fn version_and_kind_are_checked() {
        let mut bytes = encode_envelope(&traced());
        bytes[0] = VERSION + 1;
        assert_eq!(decode_envelope(&bytes), None);
        bytes[0] = VERSION;
        bytes[1] = 0x7F;
        assert_eq!(decode_envelope(&bytes), None);
        assert_eq!(decode_reply(&bytes), None);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_envelope(&traced());
        bytes.push(0);
        assert_eq!(decode_envelope(&bytes), None);
    }

    /// A start names a strategy by its tag, so an unknown strategy is a
    /// payload no decoder accepts: it never reaches the service.
    #[test]
    fn an_unknown_strategy_tag_does_not_decode() {
        let bytes = encode_envelope(&Envelope::new(traced().body));
        // version, kind, flags, body tag, resumable, then the strategy.
        assert_eq!(bytes[3], TAG_START);
        for tag in [4u8, 0x7F, 0xFF] {
            let mut bad = bytes.clone();
            bad[5] = tag;
            assert_eq!(decode_envelope(&bad), None);
        }
    }

    /// A document cannot carry a TN operation name: the XML rendering
    /// would read it back as the typed message. No constructor makes
    /// one, and no payload decodes to one.
    #[test]
    fn no_document_carries_a_tn_operation() {
        let root = Element::new("x");
        for operation in ["StartNegotiation", "ResumeNegotiation"] {
            assert_eq!(Body::document(operation, root.clone()), None);
        }
        let payload = |operation: &str| {
            let mut bytes = vec![VERSION, KIND_ENVELOPE, 0, TAG_DOCUMENT];
            put_str(&mut bytes, operation);
            xbin::encode_element_into(&mut bytes, &root);
            bytes
        };
        let echo = Envelope::new(Body::document("Echo", root.clone()).unwrap());
        assert_eq!(payload("Echo"), encode_envelope(&echo));
        assert_eq!(decode_envelope(&payload("PolicyExchange")), None);
    }
}
