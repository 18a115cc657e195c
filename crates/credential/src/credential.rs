//! The X-TNL credential: `<header>`, `<content>`, `<signature>`.
//!
//! Mirrors the paper's Example 1 (§6.2): the header carries the credential
//! type, issuer, and validity window; the content carries the typed
//! attributes; the signature is the issuer's signature "on the whole
//! credential encoded in base64". Signing is performed over the canonical
//! compact XML of the credential *without* its `<signature>` element, so
//! any mutation of header or content invalidates the credential. A
//! credential is immutable and encoded once: it keeps those bytes for
//! every later signature check, cache key and transcript entry.
//!
//! The document is written once, as [`CredentialDocument`]: the signing
//! text, the signed element inside an X-Profile and the element tree are
//! that one shape through the three `trust_vo_xmldoc::stream` sinks.

use crate::attribute::{AttrValue, Attribute};
use crate::error::CredentialError;
use crate::revocation::RevocationList;
use crate::sensitivity::Sensitivity;
use crate::time::{TimeRange, Timestamp};
use crate::verified::{VerifiedCache, VerifiedKey};
use std::sync::{Arc, OnceLock};
use trust_vo_crypto::base64::{self, Base64};
use trust_vo_crypto::sha256::Sha256;
use trust_vo_crypto::{hex, Digest, KeyPair, PublicKey, Signature};
use trust_vo_xmldoc::{Document, Element, Sink};

/// A unique credential identifier assigned by the issuing authority.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CredentialId(pub String);

impl std::fmt::Display for CredentialId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for CredentialId {
    fn from(s: &str) -> Self {
        CredentialId(s.to_owned())
    }
}

/// The credential header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Unique id assigned at issuance.
    pub cred_id: CredentialId,
    /// The credential type name (`<credType>`).
    pub cred_type: String,
    /// Issuer display name (`<issuer>`).
    pub issuer: String,
    /// Issuer verification key.
    pub issuer_key: PublicKey,
    /// Subject (owner) display name.
    pub subject: String,
    /// Subject key, used to authenticate ownership at exchange time.
    pub subject_key: PublicKey,
    /// Validity window (`<expiration_Date>` pair in the paper's format).
    pub validity: TimeRange,
}

/// A signed X-TNL credential.
///
/// Immutable: the only constructors are [`Credential::issue_signed`],
/// which keeps the bytes it just signed, [`Credential::from_signed`],
/// which keeps the bytes it received, and [`Credential::from_xml`],
/// which encodes the parsed fields once. That one canonical encoding is
/// what the signature check verifies, what the [`VerifiedCache`] key
/// digests (lazily, at most once), and what a disclosed credential
/// crosses the wire as. Clones share it, and the fields, through an `Arc`.
#[derive(Clone, PartialEq, Eq)]
pub struct Credential(Arc<Signed>);

/// The shared body of a [`Credential`].
struct Signed {
    header: Header,
    content: Vec<Attribute>,
    signature: Signature,
    /// The canonical unsigned encoding: exactly the bytes the issuer
    /// signed, `signing_bytes(header, content)`.
    encoding: Box<str>,
    /// [`Credential::fingerprint`], computed on first use.
    fingerprint: OnceLock<Digest>,
}

impl PartialEq for Signed {
    // The encoding and fingerprint are functions of the fields.
    fn eq(&self, other: &Self) -> bool {
        self.header == other.header
            && self.content == other.content
            && self.signature == other.signature
    }
}

impl Eq for Signed {}

impl std::fmt::Debug for Credential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Credential")
            .field("header", &self.0.header)
            .field("content", &self.0.content)
            .field("signature", &self.0.signature)
            .finish()
    }
}

impl Credential {
    fn from_parts(
        header: Header,
        content: Vec<Attribute>,
        signature: Signature,
        encoding: String,
    ) -> Self {
        Credential(Arc::new(Signed {
            header,
            content,
            signature,
            encoding: encoding.into_boxed_str(),
            fingerprint: OnceLock::new(),
        }))
    }

    /// Sign `header` + `content` with the issuer key pair, producing a
    /// complete credential that keeps the signed bytes. (Authorities call
    /// this; see [`crate::authority::CredentialAuthority::issue`].)
    pub fn issue_signed(header: Header, content: Vec<Attribute>, issuer: &KeyPair) -> Self {
        let encoding = canonical_text(&header, &content);
        let signature = issuer.sign(encoding.as_bytes());
        Self::from_parts(header, content, signature, encoding)
    }

    /// The header.
    pub fn header(&self) -> &Header {
        &self.0.header
    }

    /// The typed attributes (`<content>`).
    pub fn content(&self) -> &[Attribute] {
        &self.0.content
    }

    /// The issuer signature over [`Credential::signed_bytes`].
    pub fn signature(&self) -> Signature {
        self.0.signature
    }

    /// The canonical unsigned encoding the issuer signed: equal to
    /// [`signing_bytes`] of the header and content, built once.
    pub fn signed_bytes(&self) -> &[u8] {
        self.0.encoding.as_bytes()
    }

    /// Look up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.0
            .content
            .iter()
            .find(|a| a.name == name)
            .map(|a| &a.value)
    }

    /// The credential id.
    pub fn id(&self) -> &CredentialId {
        &self.0.header.cred_id
    }

    /// The credential type name.
    pub fn cred_type(&self) -> &str {
        &self.0.header.cred_type
    }

    /// A collision-resistant fingerprint of the whole credential: a
    /// domain-tagged SHA-256 of [`Credential::signed_bytes`] followed by
    /// the signature. Computed at most once per credential (clones share
    /// it). Keys the [`VerifiedCache`].
    ///
    /// The digest input is exactly the input of the signature check (the
    /// issuer key is inside the signed bytes and in the cache key), so two
    /// credentials share a fingerprint only if a full check would give
    /// them the same answer. The tag and the fixed-width signature make
    /// the stream injective without length prefixes.
    pub fn fingerprint(&self) -> Digest {
        *self.0.fingerprint.get_or_init(|| {
            let mut h = Sha256::new();
            h.update(&[0x01]); // domain tag: X-TNL credential
            h.update(self.signed_bytes());
            h.update(&self.0.signature.r.to_be_bytes());
            h.update(&self.0.signature.s.to_be_bytes());
            h.finalize()
        })
    }

    /// The [`VerifiedCache`] key for this credential's signature check.
    pub(crate) fn verified_key(&self) -> VerifiedKey {
        VerifiedKey::new(
            self.fingerprint(),
            self.0.header.issuer_key,
            self.0.signature,
        )
    }

    /// Verify the stored bytes against the issuer key without consulting
    /// the cache; a success is inserted into `cache`.
    pub(crate) fn verify_uncached(&self, cache: &VerifiedCache) -> Result<(), CredentialError> {
        if self
            .0
            .header
            .issuer_key
            .verify(self.signed_bytes(), &self.0.signature)
        {
            cache.insert(self.verified_key());
            Ok(())
        } else {
            Err(CredentialError::BadSignature {
                cred_id: self.0.header.cred_id.0.clone(),
            })
        }
    }

    /// Verify the issuer signature only.
    ///
    /// Consults the process-wide [`VerifiedCache`] first: a hit skips the
    /// signature exponentiations. The cache key digests the signed bytes
    /// and the signature, so any credential whose signed content differs
    /// forces a real verification; failures are never cached.
    pub fn verify_signature(&self) -> Result<(), CredentialError> {
        let cache = VerifiedCache::global();
        if cache.check(&self.verified_key()) {
            return Ok(());
        }
        self.verify_uncached(cache)
    }

    /// The time- and state-dependent checks: validity window and
    /// revocation. Split out of [`Credential::verify`] so chain
    /// verification can answer the signature work from the cache while
    /// still running these **uncached, on every call**.
    pub fn verify_nonsig(
        &self,
        at: Timestamp,
        crl: Option<&RevocationList>,
    ) -> Result<(), CredentialError> {
        let header = &self.0.header;
        if !header.validity.contains(at) {
            return Err(CredentialError::Expired {
                cred_id: header.cred_id.0.clone(),
                at,
            });
        }
        if let Some(crl) = crl {
            if crl.is_revoked(&header.cred_id) {
                return Err(CredentialError::Revoked {
                    cred_id: header.cred_id.0.clone(),
                });
            }
        }
        Ok(())
    }

    /// The full exchange-time check the paper describes (§4.2): signature,
    /// validity dates, and revocation status. Only the signature check is
    /// memoized (see [`VerifiedCache`]); expiry and revocation are
    /// re-evaluated every time.
    pub fn verify(
        &self,
        at: Timestamp,
        crl: Option<&RevocationList>,
    ) -> Result<(), CredentialError> {
        self.verify_signature()?;
        self.verify_nonsig(at, crl)
    }

    /// Produce an ownership proof: the holder signs `nonce` with the
    /// subject key. The verifier calls [`Credential::authenticate_ownership`].
    pub fn prove_ownership(subject_keys: &KeyPair, nonce: &[u8]) -> Signature {
        subject_keys.sign(nonce)
    }

    /// Authenticate ownership: does `proof` show possession of this
    /// credential's subject key for the given `nonce`?
    pub fn authenticate_ownership(
        &self,
        nonce: &[u8],
        proof: &Signature,
    ) -> Result<(), CredentialError> {
        if self.0.header.subject_key.verify(nonce, proof) {
            Ok(())
        } else {
            Err(CredentialError::NotOwner {
                cred_id: self.0.header.cred_id.0.clone(),
            })
        }
    }

    /// This credential as a document: its signed `<credential>` element,
    /// labelled with `sensitivity` when an X-Profile holds it.
    pub fn document(&self, sensitivity: Option<Sensitivity>) -> CredentialDocument<'_> {
        CredentialDocument {
            header: &self.0.header,
            content: &self.0.content,
            sensitivity,
            signature: Some(self.0.signature),
        }
    }

    /// Canonical XML encoding (includes the signature).
    pub fn to_xml(&self) -> Element {
        self.document(None).to_tree()
    }

    /// The canonical compact XML text (includes the signature): equal to
    /// `trust_vo_xmldoc::to_string(&self.to_xml())`.
    pub fn xml_text(&self) -> String {
        self.document(None).to_text()
    }

    /// Parse a credential from its XML encoding. Verifies structure only —
    /// call [`Credential::verify`] for the cryptographic checks.
    pub fn from_xml(root: &Element) -> Result<Self, CredentialError> {
        let (header, content) = fields_from_xml(root)?;
        let sig_text = root
            .child_text("signature")
            .ok_or_else(|| CredentialError::Malformed("missing <signature>".into()))?;
        let signature = decode_signature(&sig_text)
            .ok_or_else(|| CredentialError::Malformed("undecodable signature".into()))?;
        // Re-encode from the parsed fields, never keep the received text:
        // non-canonical input cannot change what gets verified.
        let encoding = canonical_text(&header, &content);
        Ok(Self::from_parts(header, content, signature, encoding))
    }

    /// Rebuild a credential from the bytes its issuer signed
    /// ([`Credential::signed_bytes`]) and the signature, as they cross
    /// the wire. Verifies structure only, like [`Credential::from_xml`];
    /// unlike it, nothing is re-encoded: the received bytes become the
    /// encoding the signature check covers. Bytes that are not the
    /// canonical encoding of the fields they hold are malformed: an
    /// issuer signs nothing else.
    pub fn from_signed(signed: &[u8], signature: Signature) -> Result<Self, CredentialError> {
        let malformed =
            || CredentialError::Malformed("signed bytes are not a canonical credential".into());
        let text = std::str::from_utf8(signed).map_err(|_| malformed())?;
        let root = trust_vo_xmldoc::parse(text).map_err(|_| malformed())?;
        let (header, content) = fields_from_xml(&root)?;
        if canonical_text(&header, &content) != text {
            return Err(malformed());
        }
        Ok(Self::from_parts(
            header,
            content,
            signature,
            text.to_owned(),
        ))
    }
}

/// The header and content of a `<credential>` element.
fn fields_from_xml(root: &Element) -> Result<(Header, Vec<Attribute>), CredentialError> {
    if root.name != "credential" {
        return Err(CredentialError::Malformed(format!(
            "expected <credential>, found <{}>",
            root.name
        )));
    }
    let cred_id = root
        .get_attr("credID")
        .ok_or_else(|| CredentialError::Malformed("missing credID attribute".into()))?;
    let header_el = root
        .first("header")
        .ok_or_else(|| CredentialError::Malformed("missing <header>".into()))?;
    let cred_type = header_el
        .child_text("credType")
        .ok_or_else(|| CredentialError::Malformed("missing <credType>".into()))?;
    let issuer_el = header_el
        .first("issuer")
        .ok_or_else(|| CredentialError::Malformed("missing <issuer>".into()))?;
    let subject_el = header_el
        .first("subject")
        .ok_or_else(|| CredentialError::Malformed("missing <subject>".into()))?;
    let validity_el = header_el
        .first("validity")
        .ok_or_else(|| CredentialError::Malformed("missing <validity>".into()))?;
    let parse_key = |e: &Element, what: &str| -> Result<PublicKey, CredentialError> {
        let hex_key = e
            .get_attr("key")
            .ok_or_else(|| CredentialError::Malformed(format!("{what} missing key attr")))?;
        let bytes = hex::decode(hex_key)
            .filter(|b| b.len() == 8)
            .ok_or_else(|| CredentialError::Malformed(format!("{what} key is not 8 hex bytes")))?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&bytes);
        Ok(PublicKey(u64::from_be_bytes(raw)))
    };
    let parse_ts = |attr: &str| -> Result<Timestamp, CredentialError> {
        let text = validity_el
            .get_attr(attr)
            .ok_or_else(|| CredentialError::Malformed(format!("validity missing '{attr}'")))?;
        Timestamp::parse_iso(text)
            .ok_or_else(|| CredentialError::Malformed(format!("bad timestamp '{text}'")))
    };
    let not_before = parse_ts("from")?;
    let not_after = parse_ts("to")?;
    if not_before > not_after {
        return Err(CredentialError::Malformed(
            "inverted validity window".into(),
        ));
    }
    let header = Header {
        cred_id: CredentialId(cred_id.to_owned()),
        cred_type,
        issuer: issuer_el.text_content(),
        issuer_key: parse_key(issuer_el, "issuer")?,
        subject: subject_el.text_content(),
        subject_key: parse_key(subject_el, "subject")?,
        validity: TimeRange {
            not_before,
            not_after,
        },
    };
    let content_el = root
        .first("content")
        .ok_or_else(|| CredentialError::Malformed("missing <content>".into()))?;
    let mut content = Vec::new();
    for attr_el in content_el.elements() {
        let tag = attr_el.get_attr("type").unwrap_or("string");
        let value = AttrValue::from_tagged(tag, &attr_el.text_content()).ok_or_else(|| {
            CredentialError::Malformed(format!(
                "attribute '{}' has invalid {tag} value",
                attr_el.name
            ))
        })?;
        content.push(Attribute {
            name: attr_el.name.clone(),
            value,
        });
    }
    Ok((header, content))
}

/// The X-TNL credential document, the one spelling of its shape. The
/// unsigned form — no `sensitivity`, no `<signature>` — is what an issuer
/// signs ([`signing_bytes`]); a signed credential ends with its
/// base64 `<signature>`, and an X-Profile labels each credential it holds
/// with its `sensitivity`.
#[derive(Debug, Clone, Copy)]
pub struct CredentialDocument<'a> {
    header: &'a Header,
    content: &'a [Attribute],
    sensitivity: Option<Sensitivity>,
    signature: Option<Signature>,
}

impl<'a> CredentialDocument<'a> {
    /// The unsigned document of `header` and `content`.
    pub fn unsigned(header: &'a Header, content: &'a [Attribute]) -> Self {
        CredentialDocument {
            header,
            content,
            sensitivity: None,
            signature: None,
        }
    }
}

impl Document for CredentialDocument<'_> {
    fn write_to<S: Sink>(&self, s: &mut S) {
        let header = self.header;
        s.open("credential");
        s.attr("credID", &header.cred_id.0);
        if let Some(label) = self.sensitivity {
            s.attr("sensitivity", label.label());
        }
        s.open("header");
        s.open("credType");
        s.text(&header.cred_type);
        s.close();
        for (element, key, name) in [
            ("issuer", header.issuer_key, &header.issuer),
            ("subject", header.subject_key, &header.subject),
        ] {
            s.open(element);
            // The key's big-endian bytes in lowercase hex.
            s.attr_fmt("key", format_args!("{:016x}", key.0));
            s.text(name);
            s.close();
        }
        s.open("validity");
        s.attr_fmt("from", format_args!("{}", header.validity.not_before));
        s.attr_fmt("to", format_args!("{}", header.validity.not_after));
        s.close();
        s.close();
        s.open("content");
        for attr in self.content {
            s.open(&attr.name);
            s.attr("type", attr.value.type_tag());
            s.text_fmt(format_args!("{}", attr.value));
            s.close();
        }
        s.close();
        if let Some(sig) = self.signature {
            s.open("signature");
            s.text_fmt(format_args!("{}", Base64(&signature_bytes(&sig))));
            s.close();
        }
        s.close();
    }
}

/// The canonical compact text of the unsigned encoding.
fn canonical_text(header: &Header, content: &[Attribute]) -> String {
    CredentialDocument::unsigned(header, content).to_text()
}

/// The byte string issuers sign. A credential keeps these bytes as
/// [`Credential::signed_bytes`]; this rebuilds them from the fields.
pub fn signing_bytes(header: &Header, content: &[Attribute]) -> Vec<u8> {
    canonical_text(header, content).into_bytes()
}

/// A signature's `r` then `s`, big-endian: the bytes `<signature>`
/// carries in base64.
fn signature_bytes(sig: &Signature) -> [u8; 16] {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&sig.r.to_be_bytes());
    bytes[8..].copy_from_slice(&sig.s.to_be_bytes());
    bytes
}

fn decode_signature(text: &str) -> Option<Signature> {
    let bytes = base64::decode(text.trim()).ok()?;
    if bytes.len() != 16 {
        return None;
    }
    let mut r = [0u8; 8];
    let mut s = [0u8; 8];
    r.copy_from_slice(&bytes[..8]);
    s.copy_from_slice(&bytes[8..]);
    Some(Signature {
        r: u64::from_be_bytes(r),
        s: u64::from_be_bytes(s),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeRange;
    use trust_vo_xmldoc::Node;

    fn issuer_keys() -> KeyPair {
        KeyPair::from_seed(b"INFN")
    }

    fn subject_keys() -> KeyPair {
        KeyPair::from_seed(b"AerospaceCo")
    }

    fn sample(issuer: &KeyPair, subject: &KeyPair) -> Credential {
        let header = Header {
            cred_id: CredentialId("cred-0001".into()),
            cred_type: "ISO9000Certified".into(),
            issuer: "INFN".into(),
            issuer_key: issuer.public,
            subject: "Aerospace Company".into(),
            subject_key: subject.public,
            validity: TimeRange::one_year_from(
                Timestamp::parse_iso("2009-10-26T21:32:52").unwrap(),
            ),
        };
        Credential::issue_signed(
            header,
            vec![Attribute::new("QualityRegulation", "UNI EN ISO 9000")],
            issuer,
        )
    }

    #[test]
    fn issue_and_verify() {
        let cred = sample(&issuer_keys(), &subject_keys());
        let inside = Timestamp::parse_iso("2010-01-01T00:00:00").unwrap();
        assert!(cred.verify(inside, None).is_ok());
    }

    #[test]
    fn expired_rejected() {
        let cred = sample(&issuer_keys(), &subject_keys());
        let late = Timestamp::parse_iso("2011-01-01T00:00:00").unwrap();
        assert!(matches!(
            cred.verify(late, None),
            Err(CredentialError::Expired { .. })
        ));
        let early = Timestamp::parse_iso("2009-01-01T00:00:00").unwrap();
        assert!(matches!(
            cred.verify(early, None),
            Err(CredentialError::Expired { .. })
        ));
    }

    #[test]
    fn revoked_rejected() {
        let cred = sample(&issuer_keys(), &subject_keys());
        let mut crl = RevocationList::default();
        crl.revoke(cred.id().clone(), Timestamp(0));
        let at = Timestamp::parse_iso("2010-01-01T00:00:00").unwrap();
        assert!(matches!(
            cred.verify(at, Some(&crl)),
            Err(CredentialError::Revoked { .. })
        ));
    }

    /// The attacker's path: edit the XML of a genuine credential (its
    /// signature kept), serialize, and parse it back. `None` when the
    /// edited text no longer parses as a credential.
    fn try_tamper(cred: &Credential, edit: impl FnOnce(&mut Element)) -> Option<Credential> {
        let mut doc = cred.to_xml();
        edit(&mut doc);
        let text = trust_vo_xmldoc::to_string(&doc);
        Credential::from_xml(&trust_vo_xmldoc::parse(&text).ok()?).ok()
    }

    fn tamper(cred: &Credential, edit: impl FnOnce(&mut Element)) -> Credential {
        try_tamper(cred, edit).expect("tampered credential parses")
    }

    fn child_mut<'a>(el: &'a mut Element, name: &str) -> &'a mut Element {
        el.children
            .iter_mut()
            .find_map(|n| match n {
                Node::Element(e) if e.name == name => Some(e),
                _ => None,
            })
            .unwrap()
    }

    #[test]
    fn tampered_content_rejected() {
        let cred = sample(&issuer_keys(), &subject_keys());
        assert!(cred.verify_signature().is_ok()); // the genuine one is cached
        let forged = tamper(&cred, |doc| {
            let attr = child_mut(child_mut(doc, "content"), "QualityRegulation");
            attr.children = vec![Node::Text("FORGED".into())];
        });
        assert_eq!(forged.attr("QualityRegulation"), Some(&"FORGED".into()));
        assert!(matches!(
            forged.verify_signature(),
            Err(CredentialError::BadSignature { .. })
        ));
    }

    #[test]
    fn tampered_header_rejected() {
        let cred = sample(&issuer_keys(), &subject_keys());
        assert!(cred.verify_signature().is_ok());
        let forged = tamper(&cred, |doc| {
            let ty = child_mut(child_mut(doc, "header"), "credType");
            ty.children = vec![Node::Text("PlatinumCertified".into())];
        });
        assert_eq!(forged.cred_type(), "PlatinumCertified");
        assert!(forged.verify_signature().is_err());
    }

    #[test]
    fn ownership_proof() {
        let subject = subject_keys();
        let cred = sample(&issuer_keys(), &subject);
        let nonce = b"negotiation-42-nonce";
        let proof = Credential::prove_ownership(&subject, nonce);
        assert!(cred.authenticate_ownership(nonce, &proof).is_ok());
        // A different party cannot prove ownership.
        let thief = KeyPair::from_seed(b"thief");
        let bad = Credential::prove_ownership(&thief, nonce);
        assert!(matches!(
            cred.authenticate_ownership(nonce, &bad),
            Err(CredentialError::NotOwner { .. })
        ));
        // Replaying the proof for a different nonce fails.
        assert!(cred.authenticate_ownership(b"other-nonce", &proof).is_err());
    }

    #[test]
    fn xml_roundtrip_preserves_everything() {
        let cred = sample(&issuer_keys(), &subject_keys());
        let xml = cred.to_xml();
        let text = trust_vo_xmldoc::to_string(&xml);
        let parsed = trust_vo_xmldoc::parse(&text).unwrap();
        let back = Credential::from_xml(&parsed).unwrap();
        assert_eq!(back, cred);
        assert_eq!(back.signed_bytes(), cred.signed_bytes());
        assert_eq!(back.fingerprint(), cred.fingerprint());
        // And it still verifies after the round trip.
        assert!(back.verify_signature().is_ok());
    }

    #[test]
    fn from_xml_rejects_malformed() {
        let cred = sample(&issuer_keys(), &subject_keys());
        let good = cred.to_xml();

        // Wrong root name.
        let mut bad = good.clone();
        bad.name = "creds".into();
        assert!(Credential::from_xml(&bad).is_err());

        // Drop each mandatory child in turn.
        for victim in ["header", "content", "signature"] {
            let mut bad = good.clone();
            bad.children
                .retain(|c| c.as_element().map(|e| e.name != victim).unwrap_or(true));
            assert!(Credential::from_xml(&bad).is_err(), "dropping <{victim}>");
        }
    }

    #[test]
    fn xml_matches_paper_shape() {
        let cred = sample(&issuer_keys(), &subject_keys());
        let text = trust_vo_xmldoc::to_string_pretty(&cred.to_xml());
        assert!(text.contains("<credential credID=\"cred-0001\">"));
        assert!(text.contains("<credType>ISO9000Certified</credType>"));
        assert!(
            text.contains("<QualityRegulation type=\"string\">UNI EN ISO 9000</QualityRegulation>")
        );
        assert!(text.contains("<signature>"));
    }

    /// The collision families that broke separator-joined fingerprints:
    /// each pair below hashed identically under a `0x1f`/`=`-separated
    /// stream. Their signed bytes, and so their cache keys, must differ,
    /// and the variant carrying the genuine signature must not ride the
    /// verified cache once the genuine credential has been checked.
    #[test]
    fn collision_families_have_distinct_bytes_and_keys() {
        let issuer = issuer_keys();
        let subject = subject_keys();
        let with = |content: Vec<Attribute>| {
            Credential::issue_signed(sample(&issuer, &subject).header().clone(), content, &issuer)
        };
        let with_ids = |cred_id: &str, cred_type: &str| {
            let mut header = sample(&issuer, &subject).header().clone();
            header.cred_id = CredentialId(cred_id.into());
            header.cred_type = cred_type.into();
            Credential::issue_signed(header, vec![], &issuer)
        };
        let pairs = [
            // Separator char inside a value vs. a real field boundary.
            (
                with(vec![Attribute::new("a", "b=c")]),
                with(vec![Attribute::new("a=b", "c")]),
            ),
            // Typed value vs. its canonical string form.
            (
                with(vec![Attribute::new("a", AttrValue::Str("42".into()))]),
                with(vec![Attribute::new("a", AttrValue::Int(42))]),
            ),
            // A 0x1f inside one value vs. two separate attributes.
            (
                with(vec![Attribute::new("a", "x\u{1f}b=c")]),
                with(vec![Attribute::new("a", "x"), Attribute::new("b", "c")]),
            ),
            // Header fields across their boundary.
            (with_ids("a\u{1f}b", "c"), with_ids("a", "b\u{1f}c")),
        ];
        let mut forgeries = 0;
        for (legit, other) in &pairs {
            assert_ne!(legit.signed_bytes(), other.signed_bytes());
            assert_ne!(legit.fingerprint(), other.fingerprint());
            // The forgery: `other`'s fields under `legit`'s signature. An
            // element named `a=b` does not parse, so that variant cannot
            // even be delivered.
            let Some(forged) = try_tamper(legit, |doc| {
                let theirs = other.to_xml();
                doc.set_attr("credID", theirs.get_attr("credID").unwrap());
                for part in ["header", "content"] {
                    *child_mut(doc, part) = theirs.first(part).unwrap().clone();
                }
            }) else {
                continue;
            };
            forgeries += 1;
            assert_eq!(forged.signed_bytes(), other.signed_bytes());
            assert_eq!(forged.signature(), legit.signature());
            assert_ne!(forged.fingerprint(), legit.fingerprint());
            assert!(legit.verify_signature().is_ok()); // populates the cache
            assert!(matches!(
                forged.verify_signature(),
                Err(CredentialError::BadSignature { .. })
            ));
        }
        assert_eq!(forgeries, 3);
    }

    /// `from_xml` re-encodes the parsed fields: insignificant differences
    /// in the received text (whitespace, attribute quoting) cannot change
    /// the bytes that are verified.
    #[test]
    fn from_xml_reencodes_non_canonical_input() {
        let cred = sample(&issuer_keys(), &subject_keys());
        let pretty = trust_vo_xmldoc::to_string_pretty(&cred.to_xml());
        let quoted = cred
            .xml_text()
            .replace("credID=\"cred-0001\"", "credID='cred-0001'");
        for text in [pretty, quoted] {
            assert_ne!(text, cred.xml_text());
            let back = Credential::from_xml(&trust_vo_xmldoc::parse(&text).unwrap()).unwrap();
            assert_eq!(back.signed_bytes(), cred.signed_bytes());
            assert!(back.verify_signature().is_ok());
        }
    }

    /// The wire path: the signed bytes and the signature rebuild the same
    /// credential, keeping the received bytes, and a flipped byte fails
    /// the signature check or the parse.
    #[test]
    fn from_signed_keeps_the_received_bytes() {
        let cred = sample(&issuer_keys(), &subject_keys());
        let back = Credential::from_signed(cred.signed_bytes(), cred.signature()).unwrap();
        assert_eq!(back, cred);
        assert_eq!(back.signed_bytes(), cred.signed_bytes());
        assert_eq!(back.fingerprint(), cred.fingerprint());
        assert!(back.verify_signature().is_ok());
        let mut flipped = cred.signed_bytes().to_vec();
        let at = flipped.len() / 2;
        flipped[at] ^= 0x01;
        if let Ok(forged) = Credential::from_signed(&flipped, cred.signature()) {
            assert!(forged.verify_signature().is_err());
        }
        assert!(Credential::from_signed(&[0xFF, 0xFE], cred.signature()).is_err());
        assert!(Credential::from_signed(b"<credential/>", cred.signature()).is_err());
        // Text that parses to the same fields but is not the canonical
        // encoding is malformed.
        let canonical = std::str::from_utf8(cred.signed_bytes()).unwrap();
        let pretty = trust_vo_xmldoc::to_string_pretty(&trust_vo_xmldoc::parse(canonical).unwrap());
        for text in [
            format!("{canonical} "),
            canonical.replace("credID=\"cred-0001\"", "credID='cred-0001'"),
            pretty,
        ] {
            assert!(Credential::from_signed(text.as_bytes(), cred.signature()).is_err());
        }
        // Typed values, an empty content element, and every character the
        // writer escapes, in text and in attributes.
        let issuer = issuer_keys();
        let header = Header {
            cred_id: CredentialId("a\"b<c>&d\n\te".into()),
            cred_type: "x<y>&z\"q".into(),
            ..cred.header().clone()
        };
        for content in [
            vec![],
            vec![
                Attribute::new("Count", AttrValue::Int(-42)),
                Attribute::new("Ok", AttrValue::Bool(true)),
                Attribute::new("Since", AttrValue::Date(Timestamp(86_400))),
                Attribute::new("Note", "a&b <c> \"d\"\n"),
                Attribute::new("Empty", ""),
            ],
        ] {
            let typed = Credential::issue_signed(header.clone(), content, &issuer);
            let back = Credential::from_signed(typed.signed_bytes(), typed.signature()).unwrap();
            assert_eq!(back, typed);
            let reparsed = trust_vo_xmldoc::parse(&typed.xml_text()).unwrap();
            assert_eq!(Credential::from_xml(&reparsed).unwrap(), typed);
        }
        // A non-canonical value: `+5` reads as 5, which writes as `5`.
        let five = Credential::issue_signed(
            cred.header().clone(),
            vec![Attribute::new("N", AttrValue::Int(5))],
            &issuer,
        );
        let plus = std::str::from_utf8(five.signed_bytes())
            .unwrap()
            .replace(">5<", ">+5<");
        assert!(Credential::from_signed(plus.as_bytes(), five.signature()).is_err());
    }

    #[test]
    fn attr_lookup() {
        let cred = sample(&issuer_keys(), &subject_keys());
        assert_eq!(
            cred.attr("QualityRegulation"),
            Some(&AttrValue::Str("UNI EN ISO 9000".into()))
        );
        assert_eq!(cred.attr("Missing"), None);
    }
}
