//! Typed message bodies, and their XML rendering.
//!
//! Every envelope carries one [`Body`]: a typed request or reply of the
//! TN web service's four operations (§6.2's `StartNegotiation`,
//! `PolicyExchange` and `CredentialExchange`, plus `ResumeNegotiation`),
//! or a [`Document`], the paper-format XML the VO Management service
//! exchanges (contracts with X-TNL policies). [`crate::wire`] encodes a
//! body field by field; nothing on the wire is an element tree except a
//! document.
//!
//! A disclosed credential crosses as the bytes its issuer signed plus the
//! signature ([`SignedCredential`]), and a resume token as its
//! [`ResumeToken::signed_bytes`] plus the signature ([`SignedToken`]),
//! each in one shared buffer. Neither is decoded on the way: a receiver
//! that needs the value decodes it once, and the signature check then
//! covers exactly the bytes received. The client driver reads neither.
//!
//! [`Body::to_xml`] and [`Body::from_xml`] render a body in the element
//! shapes the SOAP-style service always used (`<StartNegotiationRequest>`,
//! `<PolicyExchangeResponse>` with its `<trustSequence>`, …). This module
//! is the only place product code spells those shapes; the rendering is
//! E15's XML comparison side and the differential oracle of the binary
//! codec (`tests/wire_differential.rs`).

use std::sync::Arc;
use trust_vo_credential::{Credential, CredentialError, CredentialId};
use trust_vo_crypto::Signature;
use trust_vo_negotiation::message::Side;
use trust_vo_negotiation::view::{Disclosure, TrustSequence};
use trust_vo_negotiation::{ResumeToken, Strategy};
use trust_vo_xmldoc::{Element, Node};

/// The body of an envelope: one TN message type, or a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// `StartNegotiation` request: opens a session.
    StartNegotiation(StartNegotiation),
    /// `StartNegotiation` reply. The new negotiation id rides the
    /// envelope header.
    StartNegotiationResponse,
    /// `PolicyExchange` request: run the policy phase of the session the
    /// header names.
    PolicyExchange,
    /// `PolicyExchange` reply: the agreed trust sequence.
    PolicyExchangeResponse(PolicyExchangeResponse),
    /// `CredentialExchange` request: run the next disclosure of the
    /// session the header names.
    CredentialExchange,
    /// `CredentialExchange` reply: the disclosed credential.
    CredentialExchangeResponse(CredentialExchangeResponse),
    /// `ResumeNegotiation` request: the token of the checkpoint to resume.
    ResumeNegotiation(SignedToken),
    /// `ResumeNegotiation` reply. The new negotiation id rides the header.
    ResumeNegotiationResponse(ResumeNegotiationResponse),
    /// Any other operation's XML document.
    Document(Document),
}

/// The operation names of the TN service's message types, in the order
/// of [`Body`]'s variants: [`Body::operation`] reads them here, and a
/// [`Document`] may carry none of them.
const TN_OPERATIONS: [&str; 8] = [
    "StartNegotiation",
    "StartNegotiationResponse",
    "PolicyExchange",
    "PolicyExchangeResponse",
    "CredentialExchange",
    "CredentialExchangeResponse",
    "ResumeNegotiation",
    "ResumeNegotiationResponse",
];

impl Body {
    /// A document body for `operation`; `None` when `operation` names a
    /// TN message type, which a document cannot carry: its XML rendering
    /// would read back as the typed message.
    pub fn document(operation: impl Into<String>, root: Element) -> Option<Self> {
        let operation = operation.into();
        (!TN_OPERATIONS.contains(&operation.as_str()))
            .then_some(Body::Document(Document { operation, root }))
    }

    /// The operation name the envelope travels under: the TN message
    /// type's name, or the document's operation.
    pub fn operation(&self) -> &str {
        let tn = match self {
            Body::StartNegotiation(_) => 0,
            Body::StartNegotiationResponse => 1,
            Body::PolicyExchange => 2,
            Body::PolicyExchangeResponse(_) => 3,
            Body::CredentialExchange => 4,
            Body::CredentialExchangeResponse(_) => 5,
            Body::ResumeNegotiation(_) => 6,
            Body::ResumeNegotiationResponse(_) => 7,
            Body::Document(doc) => return &doc.operation,
        };
        TN_OPERATIONS[tn]
    }

    /// The body as its XML element.
    pub fn to_xml(&self) -> Element {
        match self {
            Body::StartNegotiation(start) => start.to_xml(),
            Body::StartNegotiationResponse => Element::new("StartNegotiationResponse"),
            Body::PolicyExchange => Element::new("PolicyExchangeRequest"),
            Body::PolicyExchangeResponse(reply) => reply.to_xml(),
            Body::CredentialExchange => Element::new("CredentialExchangeRequest"),
            Body::CredentialExchangeResponse(reply) => reply.to_xml(),
            Body::ResumeNegotiation(token) => {
                Element::new("ResumeNegotiationRequest").child(token.to_xml())
            }
            Body::ResumeNegotiationResponse(reply) => reply.to_xml(),
            Body::Document(doc) => doc.root.clone(),
        }
    }

    /// Read the body of an `operation` envelope from its XML element.
    /// `None` when a TN message's element is malformed.
    pub fn from_xml(operation: &str, root: &Element) -> Option<Self> {
        let named = |name: &str| (root.name == name).then_some(());
        Some(match operation {
            "StartNegotiation" => Body::StartNegotiation(StartNegotiation::from_xml(root)?),
            "StartNegotiationResponse" => {
                named("StartNegotiationResponse")?;
                Body::StartNegotiationResponse
            }
            "PolicyExchange" => {
                named("PolicyExchangeRequest")?;
                Body::PolicyExchange
            }
            "PolicyExchangeResponse" => {
                Body::PolicyExchangeResponse(PolicyExchangeResponse::from_xml(root)?)
            }
            "CredentialExchange" => {
                named("CredentialExchangeRequest")?;
                Body::CredentialExchange
            }
            "CredentialExchangeResponse" => {
                Body::CredentialExchangeResponse(CredentialExchangeResponse::from_xml(root)?)
            }
            "ResumeNegotiation" => {
                named("ResumeNegotiationRequest")?;
                let mut children = root.elements();
                let token = SignedToken::from_xml(children.next()?)?;
                if children.next().is_some() {
                    return None;
                }
                Body::ResumeNegotiation(token)
            }
            "ResumeNegotiationResponse" => {
                Body::ResumeNegotiationResponse(ResumeNegotiationResponse::from_xml(root)?)
            }
            other => Body::document(other, root.clone())?,
        })
    }
}

/// The `StartNegotiation` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartNegotiation {
    /// The strategy to negotiate under.
    pub strategy: Strategy,
    /// The requesting party.
    pub requester: String,
    /// The controlling party (the paper's counterpart URL).
    pub controller: String,
    /// The resource requested.
    pub resource: String,
    /// Whether the service should checkpoint the session so that a
    /// reconnecting client can resume it.
    pub resumable: bool,
}

impl StartNegotiation {
    fn to_xml(&self) -> Element {
        let mut root = Element::new("StartNegotiationRequest");
        if self.resumable {
            root = root.attr("resumable", "true");
        }
        root.child(Element::new("strategy").text(self.strategy.wire_name()))
            .child(Element::new("requester").text(&self.requester))
            .child(Element::new("counterpartUrl").text(&self.controller))
            .child(Element::new("resource").text(&self.resource))
    }

    fn from_xml(root: &Element) -> Option<Self> {
        if root.name != "StartNegotiationRequest" {
            return None;
        }
        Some(StartNegotiation {
            strategy: Strategy::from_wire_name(&root.child_text("strategy")?)?,
            requester: root.child_text("requester")?,
            controller: root.child_text("counterpartUrl")?,
            resource: root.child_text("resource")?,
            resumable: root.get_attr("resumable") == Some("true"),
        })
    }
}

/// The `PolicyExchange` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyExchangeResponse {
    /// Disclosure policies the policy phase transmitted.
    pub policies_disclosed: u32,
    /// Policy-evaluation round trips it took.
    pub rounds: u32,
    /// The agreed trust sequence.
    pub sequence: TrustSequence,
    /// The phase-1 checkpoint's resume token, for a resumable session.
    pub token: Option<SignedToken>,
}

impl PolicyExchangeResponse {
    fn to_xml(&self) -> Element {
        let mut sequence = Element::new("trustSequence");
        for d in self.sequence.disclosures() {
            sequence.children.push(Node::Element(
                Element::new("disclosure")
                    .attr("by", d.by.to_string())
                    .attr("credType", &d.cred_type)
                    .attr("credId", &d.cred_id.0),
            ));
        }
        let mut root = Element::new("PolicyExchangeResponse")
            .attr("policiesDisclosed", self.policies_disclosed.to_string())
            .attr("rounds", self.rounds.to_string())
            .child(sequence);
        if let Some(token) = &self.token {
            root.children.push(Node::Element(token.to_xml()));
        }
        root
    }

    fn from_xml(root: &Element) -> Option<Self> {
        if root.name != "PolicyExchangeResponse" {
            return None;
        }
        let mut sequence = TrustSequence::new();
        for d in root.first("trustSequence")?.elements() {
            if d.name != "disclosure" {
                return None;
            }
            sequence.push(Disclosure {
                by: side_from_name(d.get_attr("by")?)?,
                cred_id: CredentialId(d.get_attr("credId")?.to_owned()),
                cred_type: d.get_attr("credType")?.to_owned(),
            });
        }
        Some(PolicyExchangeResponse {
            policies_disclosed: root.get_attr("policiesDisclosed")?.parse().ok()?,
            rounds: root.get_attr("rounds")?.parse().ok()?,
            sequence,
            token: optional_token(root)?,
        })
    }
}

/// The `CredentialExchange` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CredentialExchangeResponse {
    /// Disclosures still to run; 0 once the negotiation completed.
    pub remaining: u32,
    /// The credential this exchange disclosed; `None` when no disclosure
    /// was pending.
    pub credential: Option<SignedCredential>,
    /// The fresh checkpoint's resume token, for a resumable session with
    /// disclosures left.
    pub token: Option<SignedToken>,
}

impl CredentialExchangeResponse {
    /// Did the negotiation complete?
    pub fn is_completed(&self) -> bool {
        self.remaining == 0
    }

    /// The XML `status` attribute, which follows from `remaining`.
    fn status(&self) -> &'static str {
        if self.is_completed() {
            "completed"
        } else {
            "in-progress"
        }
    }

    fn to_xml(&self) -> Element {
        let mut root = Element::new("CredentialExchangeResponse").attr("status", self.status());
        if self.credential.is_some() || self.remaining != 0 {
            root = root.attr("remaining", self.remaining.to_string());
        }
        if let Some(credential) = &self.credential {
            root.children.push(Node::Element(credential.to_xml()));
        }
        if let Some(token) = &self.token {
            root.children.push(Node::Element(token.to_xml()));
        }
        root
    }

    fn from_xml(root: &Element) -> Option<Self> {
        if root.name != "CredentialExchangeResponse" {
            return None;
        }
        let remaining = match root.get_attr("remaining") {
            Some(text) => text.parse().ok()?,
            None => 0,
        };
        let reply = CredentialExchangeResponse {
            remaining,
            credential: match root.first("credential") {
                Some(el) => Some(SignedCredential::from_xml(el)?),
                None => None,
            },
            token: optional_token(root)?,
        };
        (root.get_attr("status") == Some(reply.status())).then_some(reply)
    }
}

/// The `ResumeNegotiation` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeNegotiationResponse {
    /// Index of the next disclosure of the resumed session.
    pub next: u32,
    /// Disclosures still to run.
    pub remaining: u32,
}

impl ResumeNegotiationResponse {
    fn to_xml(self) -> Element {
        Element::new("ResumeNegotiationResponse")
            .attr("status", "resumed")
            .attr("next", self.next.to_string())
            .attr("remaining", self.remaining.to_string())
    }

    fn from_xml(root: &Element) -> Option<Self> {
        if root.name != "ResumeNegotiationResponse" || root.get_attr("status") != Some("resumed") {
            return None;
        }
        Some(ResumeNegotiationResponse {
            next: root.get_attr("next")?.parse().ok()?,
            remaining: root.get_attr("remaining")?.parse().ok()?,
        })
    }
}

/// An XML document sent under an operation that is not a TN message
/// type: the VO Management service's requests and replies. Made only by
/// [`Body::document`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    operation: String,
    root: Element,
}

impl Document {
    /// The operation name (never a TN message type's).
    pub fn operation(&self) -> &str {
        &self.operation
    }

    /// The document.
    pub fn root(&self) -> &Element {
        &self.root
    }
}

/// Bytes an issuer signed, followed by the 16-byte signature (`r`, `s`
/// big-endian), in one shared buffer: clones and header-only envelope
/// copies share it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signed(Arc<[u8]>);

/// Length of the signature that ends a [`Signed`] buffer.
const SIGNATURE_LEN: usize = 16;

impl Signed {
    fn new(signed: &[u8], signature: Signature) -> Self {
        let (r, s) = (signature.r.to_be_bytes(), signature.s.to_be_bytes());
        Signed(signed.iter().chain(&r).chain(&s).copied().collect())
    }

    fn from_wire(bytes: &[u8]) -> Option<Self> {
        (bytes.len() >= SIGNATURE_LEN).then(|| Signed(bytes.into()))
    }

    fn signed(&self) -> &[u8] {
        &self.0[..self.0.len() - SIGNATURE_LEN]
    }

    fn signature(&self) -> Signature {
        let tail = &self.0[self.0.len() - SIGNATURE_LEN..];
        let word = |at: usize| {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&tail[at..at + 8]);
            u64::from_be_bytes(raw)
        };
        Signature {
            r: word(0),
            s: word(8),
        }
    }
}

/// A disclosed credential as it crosses the wire: the bytes its issuer
/// signed plus the signature, undecoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedCredential(Signed);

impl SignedCredential {
    /// The wire form of `credential`.
    pub fn of(credential: &Credential) -> Self {
        SignedCredential(Signed::new(
            credential.signed_bytes(),
            credential.signature(),
        ))
    }

    /// Decode the credential ([`Credential::from_signed`]): the received
    /// bytes become the encoding its signature check covers.
    pub fn decode(&self) -> Result<Credential, CredentialError> {
        Credential::from_signed(self.0.signed(), self.0.signature())
    }

    /// The bytes the issuer signed.
    pub fn signed_bytes(&self) -> &[u8] {
        self.0.signed()
    }

    /// The signed bytes followed by the signature.
    pub(crate) fn wire_bytes(&self) -> &[u8] {
        &self.0 .0
    }

    /// Rebuild from [`SignedCredential::wire_bytes`]; `None` when too
    /// short to hold a signature. The bytes are not decoded.
    pub(crate) fn from_wire(bytes: &[u8]) -> Option<Self> {
        Signed::from_wire(bytes).map(SignedCredential)
    }

    /// The credential's XML element; an empty `<credential/>`, which no
    /// reader accepts, when the bytes do not decode.
    pub fn to_xml(&self) -> Element {
        self.decode()
            .map_or_else(|_| Element::new("credential"), |c| c.to_xml())
    }

    /// Read a `<credential>` element.
    pub fn from_xml(root: &Element) -> Option<Self> {
        Credential::from_xml(root).ok().map(|c| Self::of(&c))
    }
}

/// A resume token as it crosses the wire: its
/// [`ResumeToken::signed_bytes`] plus the signature, undecoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedToken(Signed);

impl SignedToken {
    /// The wire form of `token`.
    pub fn of(token: &ResumeToken) -> Self {
        SignedToken(Signed::new(&token.signed_bytes(), token.signature))
    }

    /// Decode the token ([`ResumeToken::from_signed`]); `None` when
    /// malformed. Its signature is checked by [`ResumeToken::verify`].
    pub fn decode(&self) -> Option<ResumeToken> {
        ResumeToken::from_signed(self.0.signed(), self.0.signature())
    }

    /// The signed bytes followed by the signature.
    pub(crate) fn wire_bytes(&self) -> &[u8] {
        &self.0 .0
    }

    /// Rebuild from [`SignedToken::wire_bytes`]; `None` when too short to
    /// hold a signature. The bytes are not decoded.
    pub(crate) fn from_wire(bytes: &[u8]) -> Option<Self> {
        Signed::from_wire(bytes).map(SignedToken)
    }

    /// The token's `<ResumeToken>` element; an empty one, which no reader
    /// accepts, when the bytes do not decode.
    pub fn to_xml(&self) -> Element {
        self.decode()
            .map_or_else(|| Element::new("ResumeToken"), |t| t.to_xml())
    }

    /// Read a `<ResumeToken>` element.
    pub fn from_xml(root: &Element) -> Option<Self> {
        ResumeToken::from_xml(root).map(|t| Self::of(&t))
    }
}

fn side_from_name(name: &str) -> Option<Side> {
    match name {
        "requester" => Some(Side::Requester),
        "controller" => Some(Side::Controller),
        _ => None,
    }
}

/// The `<ResumeToken>` child of `root`, if any: `Some(None)` without one,
/// `None` when it is malformed.
fn optional_token(root: &Element) -> Option<Option<SignedToken>> {
    match root.first("ResumeToken") {
        Some(el) => SignedToken::from_xml(el).map(Some),
        None => Some(None),
    }
}
