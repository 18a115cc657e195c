//! The state of one in-flight Trust-X negotiation, and its phase-2 step.
//!
//! Phase 2 is written once, as [`Negotiation::disclose`]: the engine's
//! [`crate::engine::exchange_credentials`], the TN web service's
//! `CredentialExchange` and a session resumed from a checkpoint all drive
//! it. The value is also the controller's durable checkpoint, so an
//! interrupted negotiation resumes instead of restarting (§5.1).

use crate::engine::session_nonce;
use crate::message::Side;
use crate::party::Party;
use crate::strategy::Strategy;
use crate::view::{Disclosure, TrustSequence};
use trust_vo_credential::{Credential, CredentialError, CredentialId, Timestamp};
use trust_vo_crypto::{sha256, Digest, Signature};
use trust_vo_xmldoc::binary::Encoded;
use trust_vo_xmldoc::{Document, Element, Sink};

/// One in-flight negotiation: the parties, the resource, the strategy
/// and, once the policy phase agreed it, the trust sequence with a cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Negotiation {
    /// The requesting party.
    pub requester: String,
    /// The controlling party (the checkpoint owner).
    pub controller: String,
    /// The negotiated resource.
    pub resource: String,
    /// The strategy the negotiation runs under.
    pub strategy: Strategy,
    /// The trust sequence the policy phase agreed, once it ran.
    pub sequence: Option<TrustSequence>,
    /// Index of the next disclosure: everything before it has been
    /// disclosed *and verified*.
    pub next: usize,
}

/// What one [`Negotiation::disclose`] step did.
#[derive(Debug)]
pub enum Step<'p> {
    /// No disclosure is pending: the agreed sequence is exhausted, or no
    /// sequence is agreed yet ([`Negotiation::is_agreed`] tells which).
    Done,
    /// The sender no longer holds the sequenced credential (a renewal
    /// re-issued it under a new id after the policy phase, say). Nothing
    /// was disclosed or charged, and the cursor stays.
    Stale {
        /// The side that should have disclosed.
        by: Side,
        /// What is missing, for the failure message.
        reason: String,
    },
    /// The pending credential was disclosed and checked.
    Disclosed(Disclosed<'p>),
}

/// One disclosure made by [`Negotiation::disclose`].
#[derive(Debug)]
pub struct Disclosed<'p> {
    /// The side that disclosed.
    pub by: Side,
    /// The disclosed credential, as its sender holds it.
    pub credential: &'p Credential,
    /// The sender's ownership proof, when the strategy demands one.
    pub ownership: Option<Signature>,
    /// The receiver's verdict; the cursor advanced only on `Ok`.
    pub verdict: Result<(), CredentialError>,
}

impl Negotiation {
    /// A negotiation whose policy phase has not run yet.
    pub fn new(
        requester: impl Into<String>,
        controller: impl Into<String>,
        resource: impl Into<String>,
        strategy: Strategy,
    ) -> Self {
        Negotiation {
            requester: requester.into(),
            controller: controller.into(),
            resource: resource.into(),
            strategy,
            sequence: None,
            next: 0,
        }
    }

    /// Record the trust sequence the policy phase agreed; phase 2 starts
    /// at its first disclosure.
    pub fn agree(&mut self, sequence: TrustSequence) {
        self.sequence = Some(sequence);
        self.next = 0;
    }

    /// Has the policy phase agreed a trust sequence?
    pub fn is_agreed(&self) -> bool {
        self.sequence.is_some()
    }

    /// Disclosures still to run (none before the policy phase).
    pub fn remaining(&self) -> usize {
        self.sequence
            .as_ref()
            .map_or(0, |s| s.len().saturating_sub(self.next))
    }

    /// The phase-2 step: the sender of the pending disclosure discloses
    /// it, and the receiver verifies it.
    ///
    /// The sender's credential is looked up first; a sequence naming one
    /// the sender no longer holds is [`Step::Stale`]. Then `verify_at`
    /// runs, told whether the strategy demands an ownership proof, and
    /// returns the instant to verify at: a driver that charges a clock
    /// for the step charges it there. The sender proves ownership if the
    /// strategy demands it, the receiver checks signature, validity,
    /// revocation, issuer trust (directly or through a chain) and the
    /// proof, and the cursor moves past a verified disclosure only.
    pub fn disclose<'p>(
        &mut self,
        requester: &'p Party,
        controller: &'p Party,
        verify_at: impl FnOnce(bool) -> Timestamp,
    ) -> Step<'p> {
        let Some(pending) = self
            .sequence
            .as_ref()
            .and_then(|s| s.disclosures().get(self.next))
        else {
            return Step::Done;
        };
        let by = pending.by;
        let (sender, receiver) = match by {
            Side::Requester => (requester, controller),
            Side::Controller => (controller, requester),
        };
        let Some(credential) = sender.profile.get(&pending.cred_id) else {
            return Step::Stale {
                by,
                reason: format!(
                    "trust sequence names credential '{}' that {} no longer holds",
                    pending.cred_id, sender.name
                ),
            };
        };
        let proves = self.strategy.requires_ownership_proof();
        let at = verify_at(proves);
        let proof = proves.then(|| {
            let nonce = session_nonce(requester, controller, &self.resource);
            let signature = Credential::prove_ownership(&sender.keys, &nonce);
            (nonce, signature)
        });
        let verdict = verify_disclosure(credential, receiver, at, proves, proof.as_ref());
        if verdict.is_ok() {
            self.next += 1;
        }
        Step::Disclosed(Disclosed {
            by,
            credential,
            ownership: proof.map(|(_, signature)| signature),
            verdict,
        })
    }

    /// Encode once for durable storage: the `ResumeCheckpoint` document
    /// in the binary form a store keeps and journals, written straight
    /// from the fields, and the digest of those bytes, which a
    /// [`crate::ResumeToken`] binds so the token cannot be replayed
    /// against another checkpoint.
    pub fn checkpoint(&self) -> (Encoded, Digest) {
        let doc = self.encode();
        let digest = sha256(doc.as_bytes());
        (doc, digest)
    }

    /// Decode a stored checkpoint. Returns `None` on any malformation,
    /// including a cursor past the end of the sequence.
    pub fn from_xml(root: &Element) -> Option<Self> {
        if root.name != "ResumeCheckpoint" {
            return None;
        }
        let strategy = Strategy::from_wire_name(root.get_attr("strategy")?)?;
        let next = root.get_attr("next")?.parse().ok()?;
        let sequence = match root.first("sequence") {
            None => None,
            Some(seq) => {
                let mut sequence = TrustSequence::new();
                for d in seq.elements() {
                    if d.name != "disclosure" {
                        return None;
                    }
                    let by = match d.get_attr("by")? {
                        "requester" => Side::Requester,
                        "controller" => Side::Controller,
                        _ => return None,
                    };
                    sequence.push(Disclosure {
                        by,
                        cred_id: CredentialId(d.get_attr("id")?.to_string()),
                        cred_type: d.get_attr("type")?.to_string(),
                    });
                }
                Some(sequence)
            }
        };
        if next > sequence.as_ref().map_or(0, TrustSequence::len) {
            return None;
        }
        Some(Negotiation {
            requester: root.get_attr("requester")?.to_string(),
            controller: root.get_attr("controller")?.to_string(),
            resource: root.get_attr("resource")?.to_string(),
            strategy,
            sequence,
            next,
        })
    }
}

/// The `ResumeCheckpoint` document: the parties, resource, strategy and
/// cursor as attributes, with a `sequence` child once agreed.
impl Document for Negotiation {
    fn write_to<S: Sink>(&self, s: &mut S) {
        s.open("ResumeCheckpoint");
        s.attr("requester", &self.requester);
        s.attr("controller", &self.controller);
        s.attr("resource", &self.resource);
        s.attr("strategy", self.strategy.wire_name());
        s.attr_fmt("next", format_args!("{}", self.next));
        if let Some(sequence) = &self.sequence {
            s.open("sequence");
            for d in sequence.disclosures() {
                s.open("disclosure");
                s.attr_fmt("by", format_args!("{}", d.by));
                s.attr("id", &d.cred_id.0);
                s.attr("type", &d.cred_type);
                s.close();
            }
            s.close();
        }
        s.close();
    }
}

/// Receiver-side checks on one disclosed credential: signature, validity
/// at `at`, revocation, trusted issuer and, when `demands_proof`, the
/// sender's ownership `proof` over the session nonce.
fn verify_disclosure(
    cred: &Credential,
    receiver: &Party,
    at: Timestamp,
    demands_proof: bool,
    proof: Option<&(Vec<u8>, Signature)>,
) -> Result<(), CredentialError> {
    cred.verify(at, Some(&receiver.crl))?;
    if !receiver.trusted_roots.is_empty()
        && !receiver.trusted_roots.contains(&cred.header().issuer_key)
    {
        // The issuer is not directly trusted: try to reach a trusted root
        // through the receiver's known intermediate credentials ("…
        // eventually retrieving those credentials that are not immediately
        // available through credentials chains", §4.2).
        let chain = receiver
            .chains
            .resolve(cred, &receiver.trusted_roots)
            .ok_or_else(|| CredentialError::UnknownIssuer(cred.header().issuer.clone()))?;
        trust_vo_credential::chain::verify_chain(
            &chain,
            &receiver.trusted_roots,
            at,
            Some(&receiver.crl),
        )?;
    }
    if demands_proof {
        let (nonce, signature) = proof.ok_or(CredentialError::NotOwner {
            cred_id: cred.id().0.clone(),
        })?;
        cred.authenticate_ownership(nonce, signature)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trust_vo_credential::{CredentialAuthority, TimeRange};
    use trust_vo_policy::{DisclosurePolicy, Resource, Term};

    fn sample_sequence() -> TrustSequence {
        let mut seq = TrustSequence::new();
        for (i, by) in [Side::Requester, Side::Controller, Side::Requester]
            .into_iter()
            .enumerate()
        {
            seq.push(Disclosure {
                by,
                cred_id: CredentialId(format!("c{i}")),
                cred_type: format!("T{i}"),
            });
        }
        seq
    }

    fn checkpoint() -> Negotiation {
        let mut negotiation = Negotiation::new("R", "C", "Svc", Strategy::Standard);
        negotiation.agree(sample_sequence());
        negotiation.next = 1;
        negotiation
    }

    #[test]
    fn checkpoint_roundtrips_through_xml() {
        let ck = checkpoint();
        let text = trust_vo_xmldoc::to_string(&ck.to_tree());
        let parsed = trust_vo_xmldoc::parse(&text).unwrap();
        assert_eq!(Negotiation::from_xml(&parsed), Some(ck.clone()));
        assert_eq!(ck.remaining(), 2);
        // Before the policy phase there is no sequence to encode.
        let unagreed = Negotiation::new("R", "C", "Svc", Strategy::Suspicious);
        assert!(unagreed.to_tree().first("sequence").is_none());
        assert_eq!(Negotiation::from_xml(&unagreed.to_tree()), Some(unagreed));
    }

    /// The stored document is the one checkpoints have always had, and
    /// the digest a resume token binds is the hash of the bytes stored.
    #[test]
    fn checkpoint_encoding_is_stable() {
        let (doc, digest) = checkpoint().checkpoint();
        let text = trust_vo_xmldoc::to_string(
            &trust_vo_xmldoc::decode_element(doc.as_bytes()).expect("a canonical encoding"),
        );
        assert_eq!(
            text,
            "<ResumeCheckpoint requester=\"R\" controller=\"C\" resource=\"Svc\" \
             strategy=\"standard\" next=\"1\"><sequence>\
             <disclosure by=\"requester\" id=\"c0\" type=\"T0\"/>\
             <disclosure by=\"controller\" id=\"c1\" type=\"T1\"/>\
             <disclosure by=\"requester\" id=\"c2\" type=\"T2\"/>\
             </sequence></ResumeCheckpoint>"
        );
        assert_eq!(digest, sha256(doc.as_bytes()));
    }

    #[test]
    fn checkpoint_digest_is_content_sensitive() {
        let a = checkpoint();
        let mut b = a.clone();
        b.next = 2;
        assert_ne!(a.checkpoint().1, b.checkpoint().1);
        assert_eq!(a.checkpoint().1, checkpoint().checkpoint().1);
    }

    #[test]
    fn checkpoint_rejects_cursor_past_sequence() {
        let with_next = |mut xml: Element, next: &str| {
            xml.attrs.retain(|(n, _)| n != "next");
            xml.attr("next", next)
        };
        assert_eq!(
            Negotiation::from_xml(&with_next(checkpoint().to_tree(), "9")),
            None
        );
        let unagreed = Negotiation::new("R", "C", "Svc", Strategy::Standard).to_tree();
        assert_eq!(Negotiation::from_xml(&with_next(unagreed, "1")), None);
    }

    fn window() -> TimeRange {
        TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0))
    }

    fn at() -> Timestamp {
        Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0)
    }

    /// R holds a `Quality` credential the controller C asks for.
    fn parties() -> (Party, Party) {
        let mut ca = CredentialAuthority::new("CA");
        let mut requester = Party::new("R");
        let mut controller = Party::new("C");
        let cred = ca
            .issue("Quality", "R", requester.keys.public, vec![], window())
            .unwrap();
        requester.profile.add(cred);
        controller.policies.add(DisclosurePolicy::rule(
            "p",
            Resource::service("Svc"),
            vec![Term::of_type("Quality")],
        ));
        requester.trust_root(ca.public_key());
        controller.trust_root(ca.public_key());
        (requester, controller)
    }

    fn agreed(requester: &Party, strategy: Strategy) -> Negotiation {
        let cred = &requester.profile.credentials()[0];
        let mut sequence = TrustSequence::new();
        sequence.push(Disclosure {
            by: Side::Requester,
            cred_id: cred.id().clone(),
            cred_type: cred.cred_type().to_owned(),
        });
        let mut negotiation = Negotiation::new("R", "C", "Svc", strategy);
        negotiation.agree(sequence);
        negotiation
    }

    #[test]
    fn disclose_proves_ownership_only_when_the_strategy_demands_it() {
        let (requester, controller) = parties();
        for strategy in Strategy::ALL {
            let mut negotiation = agreed(&requester, strategy);
            let mut asked = None;
            let step = negotiation.disclose(&requester, &controller, |proves| {
                asked = Some(proves);
                at()
            });
            let Step::Disclosed(d) = step else {
                panic!("{strategy}: {step:?}")
            };
            assert_eq!(d.by, Side::Requester);
            assert!(d.verdict.is_ok(), "{strategy}: {:?}", d.verdict);
            let demanded = strategy.requires_ownership_proof();
            assert_eq!(asked, Some(demanded));
            assert_eq!(d.ownership.is_some(), demanded);
            assert_eq!(negotiation.next, 1);
            assert!(matches!(
                negotiation.disclose(&requester, &controller, |_| at()),
                Step::Done
            ));
        }
    }

    #[test]
    fn a_rejected_disclosure_keeps_the_cursor() {
        let (requester, mut controller) = parties();
        let id = requester.profile.credentials()[0].id().clone();
        controller.crl.revoke(id, at());
        let mut negotiation = agreed(&requester, Strategy::Standard);
        let Step::Disclosed(d) = negotiation.disclose(&requester, &controller, |_| at()) else {
            panic!("expected a disclosure")
        };
        assert!(matches!(d.verdict, Err(CredentialError::Revoked { .. })));
        assert_eq!(negotiation.next, 0);
    }

    /// A stale sequence fails before `verify_at` runs, so a driver that
    /// charges there charges nothing for it.
    #[test]
    fn a_stale_sequence_fails_before_any_charge() {
        let (mut requester, controller) = parties();
        let mut negotiation = agreed(&requester, Strategy::Suspicious);
        let id = requester.profile.credentials()[0].id().clone();
        requester.profile.remove(&id);
        let step = negotiation.disclose(&requester, &controller, |_| {
            panic!("a stale sequence charges nothing")
        });
        assert!(
            matches!(&step, Step::Stale { by: Side::Requester, reason } if reason.contains(&id.0)),
            "{step:?}"
        );
        assert_eq!(negotiation.next, 0);
    }

    #[test]
    fn an_unagreed_negotiation_has_nothing_to_disclose() {
        let (requester, controller) = parties();
        let mut negotiation = Negotiation::new("R", "C", "Svc", Strategy::Standard);
        assert!(!negotiation.is_agreed());
        assert_eq!(negotiation.remaining(), 0);
        assert!(matches!(
            negotiation.disclose(&requester, &controller, |_| at()),
            Step::Done
        ));
    }

    #[test]
    fn expired_credential_detected_when_the_sender_lies() {
        // If a (buggy or malicious) sender bypasses the planning filter,
        // the receiver's exchange-phase check still catches the expiry.
        let (requester, _) = parties();
        let cred = requester.profile.credentials()[0].clone();
        let late = window().not_after.plus_days(30);
        let err = verify_disclosure(&cred, &Party::new("receiver"), late, false, None).unwrap_err();
        assert!(matches!(err, CredentialError::Expired { .. }));
    }

    #[test]
    fn a_demanded_proof_that_is_missing_fails() {
        let (requester, controller) = parties();
        let cred = &requester.profile.credentials()[0];
        let err = verify_disclosure(cred, &controller, at(), true, None).unwrap_err();
        assert!(matches!(err, CredentialError::NotOwner { .. }));
    }
}
