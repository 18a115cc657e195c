//! Transcript: the accounting record of a negotiation.
//!
//! The paper's efficiency claims ("trust negotiations help in determining
//! and verifying with a relatively small number of messages…", §1; "short
//! and efficient negotiations", §1) are about message and round counts —
//! the transcript captures exactly those, and the benches report them.

use crate::message::{Message, Side};

/// One logged transcript entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Who sent the message.
    pub from: Side,
    /// The message.
    pub message: Message,
}

/// The accounting record of a negotiation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Transcript {
    entries: Vec<Entry>,
    /// Policy-evaluation round trips.
    pub policy_rounds: usize,
    /// Number of disclosure policies transmitted.
    pub policies_disclosed: usize,
    /// Number of credentials transmitted.
    pub credentials_disclosed: usize,
    /// Signature/credential verifications performed.
    pub verifications: usize,
    /// Ownership proofs performed and checked.
    pub ownership_proofs: usize,
    /// Policy alternatives that were tried and abandoned.
    pub failed_alternatives: usize,
}

impl Transcript {
    /// An empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Log a message.
    pub fn log(&mut self, from: Side, message: Message) {
        self.entries.push(Entry { from, message });
    }

    /// All logged entries in order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Total number of messages exchanged.
    pub fn message_count(&self) -> usize {
        self.entries.len()
    }

    /// Count of entries with a given tag.
    pub fn count_tag(&self, tag: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.message.tag() == tag)
            .count()
    }

    /// A one-line summary for logs and examples.
    pub fn summary(&self) -> String {
        format!(
            "{} messages, {} policy rounds, {} policies disclosed, {} credentials disclosed, {} verifications",
            self.message_count(),
            self.policy_rounds,
            self.policies_disclosed,
            self.credentials_disclosed,
            self.verifications,
        )
    }
}

impl Transcript {
    /// Export as an XML document — the data the prototype's GUI renders to
    /// let users "monitor the negotiation process" (§6.2).
    pub fn to_xml(&self) -> trust_vo_xmldoc::Element {
        use trust_vo_xmldoc::{Element, Node};
        let mut root = Element::new("transcript")
            .attr("messages", self.message_count().to_string())
            .attr("policyRounds", self.policy_rounds.to_string())
            .attr("policiesDisclosed", self.policies_disclosed.to_string())
            .attr(
                "credentialsDisclosed",
                self.credentials_disclosed.to_string(),
            )
            .attr("verifications", self.verifications.to_string())
            .attr("ownershipProofs", self.ownership_proofs.to_string())
            .attr("failedAlternatives", self.failed_alternatives.to_string());
        for entry in &self.entries {
            let mut el = Element::new("message")
                .attr("from", entry.from.to_string())
                .attr("kind", entry.message.tag());
            match &entry.message {
                Message::Start { resource, strategy } => {
                    el.set_attr("resource", resource);
                    el.set_attr("strategy", strategy.wire_name());
                }
                Message::PolicyRequest { resource } | Message::NotPossessed { resource } => {
                    el.set_attr("resource", resource);
                }
                Message::PolicyDisclosure { policies } => {
                    el.set_attr("count", policies.len().to_string());
                    for p in policies {
                        el.children.push(Node::Text(format!("{p}; ")));
                    }
                }
                Message::CredentialDisclosure { credential, .. } => {
                    el.set_attr("credId", &credential.id().0);
                }
                Message::Failure { reason } => {
                    el.set_attr("reason", reason);
                }
                Message::Decline | Message::Ack | Message::Success => {}
            }
            root.children.push(Node::Element(el));
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    #[test]
    fn logging_and_counting() {
        let mut t = Transcript::new();
        t.log(
            Side::Requester,
            Message::Start {
                resource: "r".into(),
                strategy: Strategy::Standard,
            },
        );
        t.log(
            Side::Controller,
            Message::PolicyDisclosure { policies: vec![] },
        );
        t.log(Side::Requester, Message::Ack);
        assert_eq!(t.message_count(), 3);
        assert_eq!(t.count_tag("start"), 1);
        assert_eq!(t.count_tag("ack"), 1);
        assert_eq!(t.count_tag("failure"), 0);
        assert_eq!(t.entries()[1].from, Side::Controller);
    }

    #[test]
    fn summary_mentions_counters() {
        let mut t = Transcript::new();
        t.policy_rounds = 3;
        t.policies_disclosed = 4;
        t.credentials_disclosed = 5;
        t.verifications = 5;
        let s = t.summary();
        assert!(s.contains("3 policy rounds"));
        assert!(s.contains("4 policies"));
        assert!(s.contains("5 credentials"));
    }
}

#[cfg(test)]
mod xml_tests {
    use super::*;
    use crate::strategy::Strategy;

    #[test]
    fn transcript_exports_monitorable_xml() {
        let mut t = Transcript::new();
        t.log(
            Side::Requester,
            Message::Start {
                resource: "VoMembership".into(),
                strategy: Strategy::Standard,
            },
        );
        t.log(
            Side::Controller,
            Message::PolicyDisclosure { policies: vec![] },
        );
        t.log(
            Side::Requester,
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
        );
        t.log(Side::Controller, Message::Success);
        t.credentials_disclosed = 1;
        let xml = t.to_xml();
        assert_eq!(xml.get_attr("messages"), Some("4"));
        assert_eq!(xml.get_attr("credentialsDisclosed"), Some("1"));
        assert_eq!(xml.all("message").count(), 4);
        let start = xml.all("message").next().unwrap();
        assert_eq!(start.get_attr("kind"), Some("start"));
        assert_eq!(start.get_attr("strategy"), Some("standard"));
        let disclosure = xml.all("message").nth(2).unwrap();
        assert_eq!(disclosure.get_attr("credId"), Some("ca-000001"));
        // It parses back as well-formed XML.
        let text = trust_vo_xmldoc::to_string(&xml);
        assert!(trust_vo_xmldoc::parse(&text).is_ok());
    }
}
