//! Resume tokens for interrupted negotiations.
//!
//! The paper motivates trust tickets so that repeated or *interrupted*
//! negotiations between the same parties need not restart from scratch
//! (§5.1). This module provides the token half of the controller-side
//! machinery: when a phase-2 credential exchange dies mid-flight
//! (transport loss, endpoint crash), the controller has already
//! **checkpointed** the [`crate::Negotiation`] (trust sequence and
//! progress cursor) to durable storage, and every progress response
//! carries a signed, `TrustTicket`-style **resume token** bound to that
//! checkpoint's digest. A re-connecting requester presents the token; the
//! controller verifies it (signature, half-open validity window — see
//! [`crate::ticket::session_window_contains`] — and party binding),
//! decodes the checkpoint, and the exchange continues from the cursor
//! instead of re-running phase 1.
//!
//! Wire format: a token crosses the `trust-vo-soa` wire as its
//! [`ResumeToken::signed_bytes`] plus its signature, and the controller
//! decodes it with [`ResumeToken::from_signed`], so the signature check
//! covers exactly the bytes received. [`ResumeToken::to_xml`] is the
//! token's XML rendering, kept for the SOAP-shaped envelope form.

use crate::ticket::session_window_contains;
use trust_vo_credential::{TimeRange, Timestamp};
use trust_vo_crypto::{hex, Digest, KeyPair, PublicKey, Signature};
use trust_vo_xmldoc::Element;

/// Why a presented [`ResumeToken`] was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The issuer signature over the token fields does not verify.
    BadSignature,
    /// The token is outside its validity window at the presented instant
    /// (start-inclusive, end-exclusive).
    Expired {
        /// The instant the token was presented at.
        at: Timestamp,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::BadSignature => f.write_str("resume token signature invalid"),
            ResumeError::Expired { at } => write!(f, "resume token expired at {at:?}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// A signed, short-lived session token — the [`crate::ticket::TrustTicket`]
/// idea applied to an *unfinished* negotiation. It binds (holder, issuer,
/// resource, checkpoint digest, validity) under the issuer's signature; the
/// validity window is half-open exactly like a trust ticket's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeToken {
    /// Checkpoint slot id at the issuing controller.
    pub token_id: u64,
    /// The requester the token was granted to.
    pub holder: String,
    /// The holder's public key (the resumed session re-binds to it).
    pub holder_key: PublicKey,
    /// The controller that issued the token.
    pub issuer: String,
    /// The issuer's verification key.
    pub issuer_key: PublicKey,
    /// The negotiated resource.
    pub resource: String,
    /// Digest of the checkpoint the token resumes from.
    pub checkpoint: Digest,
    /// Validity window (start-inclusive, end-exclusive).
    pub validity: TimeRange,
    /// Issuer signature over all the above.
    pub signature: Signature,
}

impl ResumeToken {
    /// Issue a token over a checkpoint digest; the controller signs with
    /// its own keys.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        token_id: u64,
        holder: impl Into<String>,
        holder_key: PublicKey,
        issuer: impl Into<String>,
        issuer_keys: &KeyPair,
        resource: impl Into<String>,
        checkpoint: Digest,
        validity: TimeRange,
    ) -> Self {
        let mut token = ResumeToken {
            token_id,
            holder: holder.into(),
            holder_key,
            issuer: issuer.into(),
            issuer_key: issuer_keys.public,
            resource: resource.into(),
            checkpoint,
            validity,
            signature: Signature { r: 0, s: 0 },
        };
        token.signature = issuer_keys.sign(&token.signed_bytes());
        token
    }

    /// The bytes the issuer signs: every field but the signature.
    ///
    /// ```text
    /// token_id:u64 (holder:str holder_key:u64) (issuer:str issuer_key:u64)
    /// resource:str checkpoint:[u8; 32] not_before:i64 not_after:i64
    /// ```
    ///
    /// Integers are big-endian; `str` is a `u32` length and UTF-8.
    pub fn signed_bytes(&self) -> Vec<u8> {
        let (holder, issuer, resource) = (&self.holder, &self.issuer, &self.resource);
        let mut out = Vec::with_capacity(96 + holder.len() + issuer.len() + resource.len());
        out.extend_from_slice(&self.token_id.to_be_bytes());
        out.extend_from_slice(&(holder.len() as u32).to_be_bytes());
        out.extend_from_slice(holder.as_bytes());
        out.extend_from_slice(&self.holder_key.0.to_be_bytes());
        out.extend_from_slice(&(issuer.len() as u32).to_be_bytes());
        out.extend_from_slice(issuer.as_bytes());
        out.extend_from_slice(&self.issuer_key.0.to_be_bytes());
        out.extend_from_slice(&(resource.len() as u32).to_be_bytes());
        out.extend_from_slice(resource.as_bytes());
        out.extend_from_slice(&self.checkpoint);
        out.extend_from_slice(&self.validity.not_before.0.to_be_bytes());
        out.extend_from_slice(&self.validity.not_after.0.to_be_bytes());
        out
    }

    /// Rebuild a token from its [`ResumeToken::signed_bytes`] and
    /// signature. `None` on any malformation (truncation, trailing bytes,
    /// invalid UTF-8, an inverted validity window); the signature is
    /// checked separately, by [`ResumeToken::verify`].
    pub fn from_signed(bytes: &[u8], signature: Signature) -> Option<Self> {
        let mut rest = bytes;
        let token_id = take_u64(&mut rest)?;
        let holder = take_str(&mut rest)?;
        let holder_key = PublicKey(take_u64(&mut rest)?);
        let issuer = take_str(&mut rest)?;
        let issuer_key = PublicKey(take_u64(&mut rest)?);
        let resource = take_str(&mut rest)?;
        let checkpoint: Digest = take(&mut rest, 32)?.try_into().ok()?;
        let not_before = Timestamp(take_u64(&mut rest)? as i64);
        let not_after = Timestamp(take_u64(&mut rest)? as i64);
        if !rest.is_empty() || not_before > not_after {
            return None;
        }
        Some(ResumeToken {
            token_id,
            holder,
            holder_key,
            issuer,
            issuer_key,
            resource,
            checkpoint,
            validity: TimeRange::new(not_before, not_after),
            signature,
        })
    }

    /// Verify signature and validity at instant `at`. The end boundary is
    /// exclusive: a token presented exactly at `validity.not_after` is
    /// rejected.
    pub fn verify(&self, at: Timestamp) -> Result<(), ResumeError> {
        if !self
            .issuer_key
            .verify(&self.signed_bytes(), &self.signature)
        {
            return Err(ResumeError::BadSignature);
        }
        if !session_window_contains(&self.validity, at) {
            return Err(ResumeError::Expired { at });
        }
        Ok(())
    }

    /// Serialize for transport inside an envelope body.
    pub fn to_xml(&self) -> Element {
        Element::new("ResumeToken")
            .attr("tokenId", self.token_id.to_string())
            .attr("holder", &self.holder)
            .attr("holderKey", self.holder_key.0.to_string())
            .attr("issuer", &self.issuer)
            .attr("issuerKey", self.issuer_key.0.to_string())
            .attr("resource", &self.resource)
            .attr("checkpoint", hex::encode(&self.checkpoint))
            .attr("notBefore", self.validity.not_before.0.to_string())
            .attr("notAfter", self.validity.not_after.0.to_string())
            .attr("sigR", self.signature.r.to_string())
            .attr("sigS", self.signature.s.to_string())
    }

    /// Parse a transported token. Returns `None` on any malformation; the
    /// cryptographic checks happen separately in [`ResumeToken::verify`].
    pub fn from_xml(root: &Element) -> Option<Self> {
        if root.name != "ResumeToken" {
            return None;
        }
        let digest_bytes = hex::decode(root.get_attr("checkpoint")?)?;
        let checkpoint: Digest = digest_bytes.try_into().ok()?;
        let not_before = Timestamp(root.get_attr("notBefore")?.parse().ok()?);
        let not_after = Timestamp(root.get_attr("notAfter")?.parse().ok()?);
        if not_before > not_after {
            return None;
        }
        Some(ResumeToken {
            token_id: root.get_attr("tokenId")?.parse().ok()?,
            holder: root.get_attr("holder")?.to_string(),
            holder_key: PublicKey(root.get_attr("holderKey")?.parse().ok()?),
            issuer: root.get_attr("issuer")?.to_string(),
            issuer_key: PublicKey(root.get_attr("issuerKey")?.parse().ok()?),
            resource: root.get_attr("resource")?.to_string(),
            checkpoint,
            validity: TimeRange::new(not_before, not_after),
            signature: Signature {
                r: root.get_attr("sigR")?.parse().ok()?,
                s: root.get_attr("sigS")?.parse().ok()?,
            },
        })
    }
}

/// The first `n` bytes of `rest`, which then starts after them.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = rest.split_at_checked(n)?;
    *rest = tail;
    Some(head)
}

fn take_u64(rest: &mut &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(take(rest, 8)?.try_into().ok()?))
}

fn take_str(rest: &mut &[u8]) -> Option<String> {
    let len = u32::from_be_bytes(take(rest, 4)?.try_into().ok()?) as usize;
    std::str::from_utf8(take(rest, len)?)
        .ok()
        .map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue_token(validity: TimeRange) -> (ResumeToken, KeyPair) {
        let issuer_keys = KeyPair::from_seed(b"controller-C");
        let holder_keys = KeyPair::from_seed(b"requester-R");
        let token = ResumeToken::issue(
            7,
            "R",
            holder_keys.public,
            "C",
            &issuer_keys,
            "Svc",
            trust_vo_crypto::sha256(b"checkpoint"),
            validity,
        );
        (token, issuer_keys)
    }

    fn window() -> TimeRange {
        TimeRange::new(Timestamp(1_000), Timestamp(2_000))
    }

    #[test]
    fn token_verifies_inside_half_open_window() {
        let (token, _) = issue_token(window());
        assert!(token.verify(Timestamp(1_000)).is_ok());
        assert!(token.verify(Timestamp(1_999)).is_ok());
        assert_eq!(
            token.verify(Timestamp(2_000)),
            Err(ResumeError::Expired {
                at: Timestamp(2_000)
            })
        );
        assert_eq!(
            token.verify(Timestamp(999)),
            Err(ResumeError::Expired { at: Timestamp(999) })
        );
    }

    #[test]
    fn tampered_token_rejected() {
        let (mut token, _) = issue_token(window());
        token.resource = "OtherSvc".into();
        assert_eq!(
            token.verify(Timestamp(1_500)),
            Err(ResumeError::BadSignature)
        );
    }

    #[test]
    fn token_roundtrips_through_xml() {
        let (token, _) = issue_token(window());
        let text = trust_vo_xmldoc::to_string(&token.to_xml());
        let parsed = trust_vo_xmldoc::parse(&text).unwrap();
        let back = ResumeToken::from_xml(&parsed).unwrap();
        assert_eq!(back, token);
        assert!(back.verify(Timestamp(1_500)).is_ok());
    }

    #[test]
    fn token_roundtrips_through_its_signed_bytes() {
        let (token, _) = issue_token(window());
        let bytes = token.signed_bytes();
        let back = ResumeToken::from_signed(&bytes, token.signature).unwrap();
        assert_eq!(back, token);
        assert!(back.verify(Timestamp(1_500)).is_ok());
        // Every truncation and any trailing byte is malformed.
        for cut in 0..bytes.len() {
            assert_eq!(
                ResumeToken::from_signed(&bytes[..cut], token.signature),
                None
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(ResumeToken::from_signed(&longer, token.signature), None);
    }

    #[test]
    fn from_xml_rejects_malformation() {
        let (token, _) = issue_token(window());
        assert!(ResumeToken::from_xml(&Element::new("NotAToken")).is_none());
        let mut xml = token.to_xml();
        xml.attrs.retain(|(n, _)| n != "checkpoint");
        let xml = xml.attr("checkpoint", "zz");
        assert!(ResumeToken::from_xml(&xml).is_none());
    }
}
