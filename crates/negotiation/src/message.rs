//! Wire messages exchanged during a negotiation.
//!
//! These mirror the TN web service operations (§6.2): `StartNegotiation`
//! opens a session, `PolicyExchange` carries disclosure policies back and
//! forth during the policy evaluation phase, and `CredentialExchange`
//! carries credentials (with optional ownership proofs) during the
//! credential exchange phase.

use crate::strategy::Strategy;
use std::sync::Arc;
use trust_vo_credential::Credential;
use trust_vo_crypto::Signature;
use trust_vo_policy::DisclosurePolicy;

/// Which side of the negotiation sent a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The party requesting the resource (the negotiation initiator).
    Requester,
    /// The party controlling the resource.
    Controller,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::Requester => Side::Controller,
            Side::Controller => Side::Requester,
        }
    }
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Side::Requester => "requester",
            Side::Controller => "controller",
        })
    }
}

/// A message in the negotiation transcript.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Open a negotiation for a resource with a strategy.
    Start {
        /// The requested resource name.
        resource: String,
        /// The requester's strategy.
        strategy: Strategy,
    },
    /// Request the policies protecting a resource/credential.
    PolicyRequest {
        /// The resource whose policies are requested.
        resource: String,
    },
    /// Disclose one or more policies protecting a resource.
    PolicyDisclosure {
        /// The disclosed policies, shared with the sender's policy set.
        policies: Vec<Arc<DisclosurePolicy>>,
    },
    /// Inform the counterpart that a requested credential is not possessed
    /// (sent only by strategies that reveal missing credentials).
    NotPossessed {
        /// The credential type that is not held.
        resource: String,
    },
    /// Decline to continue on a branch without giving a reason (the
    /// suspicious-strategy counterpart of [`Message::NotPossessed`]).
    Decline,
    /// Disclose a credential, optionally with an ownership proof over the
    /// session nonce. The entry shares the credential's canonical
    /// encoding with the sender's profile; its text is
    /// [`Credential::xml_text`].
    CredentialDisclosure {
        /// The disclosed credential.
        credential: Credential,
        /// Ownership proof (suspicious strategies).
        ownership: Option<Signature>,
    },
    /// Acknowledge a received credential and ask for the next.
    Ack,
    /// The negotiation succeeded; the resource is granted.
    Success,
    /// The negotiation failed.
    Failure {
        /// Reason description.
        reason: String,
    },
}

impl Message {
    /// Short tag for transcript summaries.
    pub fn tag(&self) -> &'static str {
        match self {
            Message::Start { .. } => "start",
            Message::PolicyRequest { .. } => "policy-request",
            Message::PolicyDisclosure { .. } => "policy-disclosure",
            Message::NotPossessed { .. } => "not-possessed",
            Message::Decline => "decline",
            Message::CredentialDisclosure { .. } => "credential-disclosure",
            Message::Ack => "ack",
            Message::Success => "success",
            Message::Failure { .. } => "failure",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_other_is_involutive() {
        assert_eq!(Side::Requester.other(), Side::Controller);
        assert_eq!(Side::Controller.other(), Side::Requester);
        assert_eq!(Side::Requester.other().other(), Side::Requester);
    }

    #[test]
    fn tags_cover_all_variants() {
        let msgs = [
            Message::Start {
                resource: "r".into(),
                strategy: Strategy::Standard,
            },
            Message::PolicyRequest {
                resource: "r".into(),
            },
            Message::PolicyDisclosure { policies: vec![] },
            Message::NotPossessed {
                resource: "r".into(),
            },
            Message::Decline,
            Message::CredentialDisclosure {
                credential: trust_vo_credential::CredentialAuthority::new("CA")
                    .issue(
                        "T",
                        "holder",
                        trust_vo_crypto::KeyPair::from_seed(b"holder").public,
                        vec![],
                        trust_vo_credential::TimeRange::one_year_from(
                            trust_vo_credential::Timestamp(0),
                        ),
                    )
                    .unwrap(),
                ownership: None,
            },
            Message::Ack,
            Message::Success,
            Message::Failure {
                reason: "nope".into(),
            },
        ];
        let tags: Vec<_> = msgs.iter().map(Message::tag).collect();
        assert_eq!(tags.len(), 9);
        assert!(tags.contains(&"start") && tags.contains(&"failure"));
    }
}
