//! The wire path: canonical binary envelope codec and length framing.
//!
//! Every bus call crosses a real byte boundary (see
//! [`ServiceBus::call`](crate::bus::ServiceBus::call)): the request
//! envelope is encoded to the canonical binary payload below, framed
//! with the journal's `[len: u32 LE][crc32: u32 LE][payload]` discipline
//! ([`trust_vo_journal::frame`]), and decoded on the far side before the
//! endpoint sees it; the reply — response envelope or fault — crosses
//! back the same way. The XML serialization
//! ([`Envelope::to_xml`]/[`Envelope::from_xml`]) is retained as the
//! differential oracle: both codecs decode any envelope to the same
//! value (pinned by proptests in `tests/wire_differential.rs`).
//!
//! Payload layout (integers little-endian; `str` is `u32` length +
//! UTF-8; the body is the [`trust_vo_xmldoc::binary`] element codec):
//!
//! ```text
//! envelope := VERSION  kind:0x00  flags:u8  operation:str
//!             [negotiation_id:u64] [idempotency_key:u64]
//!             [trace_id:u64 span_id:u64 [parent_span_id:u64]]
//!             body:element
//! reply    := envelope                            (successful response)
//!           | VERSION kind:0x01 fault_kind:u8 flags:u8
//!             code:str reason:str [retry_after_us:u64]
//! ```
//!
//! Trace contexts ride the binary header (the PR 7 causal-tracing
//! contract): `trace_id` 0 is the untraced sentinel, mirroring the XML
//! path's lenient parse — a decoded trace with id 0 is dropped, so both
//! codecs agree on it. Decoding is total: torn frames, checksum
//! failures, and malformed payloads yield `None`, never a panic.
//!
//! The boundary is transparent: an endpoint receives exactly the envelope
//! that was sent, and the caller exactly the endpoint's reply or fault
//! (pinned by `tests/wire_transparency.rs`).

use crate::envelope::{Envelope, Fault, FaultKind};
use trust_vo_journal::frame;
use trust_vo_obs::TraceContext;
use trust_vo_xmldoc::binary as xbin;

/// Wire format version byte; bump on incompatible layout changes.
pub const VERSION: u8 = 1;

/// Payload kind byte: a request/response envelope.
const KIND_ENVELOPE: u8 = 0x00;
/// Payload kind byte: a fault reply.
const KIND_FAULT: u8 = 0x01;

/// Encode `env` to its canonical binary payload (unframed).
pub fn encode_envelope(env: &Envelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + env.operation.len());
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
    put_str(out, &env.operation);
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
    xbin::encode_element_into(out, &env.body);
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
    let operation = get_str(bytes, pos)?;
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
    let body = xbin::decode_element_at(bytes, pos)?;
    let mut env = Envelope::request(operation, body);
    env.negotiation_id = negotiation_id;
    env.idempotency_key = idempotency_key;
    env.trace = trace;
    Some(env)
}

/// Encode a reply — response envelope or fault — to its binary payload.
pub fn encode_reply(reply: &Result<Envelope, Fault>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_reply_into(&mut out, reply);
    out
}

/// Append the binary reply payload to `out` (the zero-intermediate-
/// buffer path [`frame_reply`] encodes straight into its frame with).
pub fn encode_reply_into(out: &mut Vec<u8>, reply: &Result<Envelope, Fault>) {
    match reply {
        // Reuse a cached request encoding when one exists; replies are
        // typically fresh envelopes, encoded straight into the frame.
        Ok(env) if env.wire_cached() => out.extend_from_slice(env.wire_bytes()),
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
            let has_hint = match get_u8(bytes, &mut pos)? {
                0 => false,
                1 => true,
                _ => return None,
            };
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
/// holding the (cached) canonical payload.
pub fn frame_envelope(env: &Envelope) -> Vec<u8> {
    let payload = env.wire_bytes();
    let mut out = Vec::with_capacity(frame::HEADER_LEN + payload.len());
    frame::push_record(&mut out, payload);
    out
}

/// Frame a reply for transmission back to the caller, encoding straight
/// into the frame buffer (no intermediate payload allocation).
pub fn frame_reply(reply: &Result<Envelope, Fault>) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame::HEADER_LEN + 64);
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

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_u8(bytes: &[u8], pos: &mut usize) -> Option<u8> {
    let b = bytes.get(*pos).copied()?;
    *pos += 1;
    Some(b)
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let end = pos.checked_add(8)?;
    let slice = bytes.get(*pos..end)?;
    *pos = end;
    Some(u64::from_le_bytes(slice.try_into().ok()?))
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let len = u32::from_le_bytes(bytes.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
    *pos += 4;
    let end = pos.checked_add(len)?;
    let slice = bytes.get(*pos..end)?;
    *pos = end;
    Some(std::str::from_utf8(slice).ok()?.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trust_vo_xmldoc::Element;

    fn traced() -> Envelope {
        Envelope::request(
            "CredentialExchange",
            Element::new("CredentialExchangeRequest").child(Element::new("requester").text("INFN")),
        )
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
            Envelope::request("StartNegotiation", Element::new("x")),
            Envelope::request("PolicyExchange", Element::new("p")).with_negotiation(1),
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

    /// The encode-once hot path: one canonical encoding per logical
    /// call, shared by clones, invalidated by builder mutations.
    #[test]
    fn encode_is_cached_once_per_envelope() {
        let env = traced();
        assert!(!env.wire_cached());
        let first = env.wire_bytes().clone();
        assert!(env.wire_cached());
        // Same Arc (pointer-equal), not a re-encoding.
        assert!(std::sync::Arc::ptr_eq(&first, env.wire_bytes()));
        // Clones carry the cache; builder mutations clear it.
        let copy = env.clone();
        assert!(copy.wire_cached());
        assert!(std::sync::Arc::ptr_eq(&first, copy.wire_bytes()));
        let moved = copy.with_negotiation(99);
        assert!(!moved.wire_cached());
        assert_ne!(moved.wire_bytes(), &first);
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
}
