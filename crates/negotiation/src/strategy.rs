//! The Trust-X negotiation strategies.
//!
//! Trust-X offers "a number of negotiation strategies catering to different
//! levels of confidentiality that may be required by the negotiation
//! parties" (§1), and the TN web service "supports the operations to carry
//! on a TN according to the standard, the strong suspicious, the suspicious
//! and the trusting negotiation strategies" (§6.2).
//!
//! The strategies differ in *what is revealed while negotiating*, not in
//! whether a satisfiable negotiation succeeds (all four are complete):
//!
//! | strategy          | reveals "I lack X" | batches alternatives | ownership proofs | terms per message |
//! |-------------------|--------------------|----------------------|------------------|-------------------|
//! | Trusting          | yes                | yes (all at once)    | no               | whole policy      |
//! | Standard          | yes                | no (one at a time)   | no               | whole policy      |
//! | Suspicious        | no                 | no                   | yes              | whole policy      |
//! | StrongSuspicious  | no                 | no                   | yes              | one               |
//!
//! No strategy requests or discloses a policy for a credential its holder
//! lacks: phase 1 recurses only into credentials the counterpart holds
//! (the engine takes each term's candidates from `Party::satisfying`).
//!
//! §6.3 adds a format constraint: "A drawback of using X509 v2 credentials
//! is that only the standard and trusting negotiation strategies can be
//! adopted, because this standard does not support partial hiding of the
//! credential contents" — lifted by the selective-disclosure extension.

/// The credential wire format a negotiation runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CredentialFormat {
    /// The proprietary X-TNL XML format (full Trust-X feature set).
    Xtnl,
    /// Plain X.509 v2 attribute certificates (attributes in the clear).
    X509v2,
    /// X.509 v2 with hash-commitment attributes (the §6.3 extension).
    SelectiveX509,
}

/// A Trust-X negotiation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Disclose policies freely and batch all alternatives per resource:
    /// fastest, least confidential.
    Trusting,
    /// The default: alternatives offered one at a time.
    Standard,
    /// Never reveal which credentials the party lacks; require ownership
    /// proofs on received credentials.
    Suspicious,
    /// Suspicious, plus minimal term disclosure (one term per message).
    StrongSuspicious,
}

impl Strategy {
    /// All strategies, in the order the paper lists them in §6.2.
    pub const ALL: [Strategy; 4] = [
        Strategy::Standard,
        Strategy::StrongSuspicious,
        Strategy::Suspicious,
        Strategy::Trusting,
    ];

    /// Does the strategy tell the counterpart *which* requested credential
    /// it does not possess ("the receiver informs the other party that it
    /// does not possess the requested credentials", §4.2)? The suspicious
    /// variants decline without detail instead.
    pub fn reveals_missing(self) -> bool {
        matches!(self, Strategy::Trusting | Strategy::Standard)
    }

    /// Does the strategy send every alternative policy for a resource in
    /// one message (fewer rounds, more disclosure)?
    pub fn batches_alternatives(self) -> bool {
        matches!(self, Strategy::Trusting)
    }

    /// Does the strategy demand an ownership proof with every disclosed
    /// credential?
    pub fn requires_ownership_proof(self) -> bool {
        matches!(self, Strategy::Suspicious | Strategy::StrongSuspicious)
    }

    /// Messages per policy disclosure: strong-suspicious sends one term per
    /// message; the others send whole policies.
    pub fn terms_per_message(self) -> usize {
        match self {
            Strategy::StrongSuspicious => 1,
            _ => usize::MAX,
        }
    }

    /// Can the strategy run over the given credential format (§6.3)?
    pub fn compatible_with(self, format: CredentialFormat) -> bool {
        match format {
            CredentialFormat::Xtnl | CredentialFormat::SelectiveX509 => true,
            CredentialFormat::X509v2 => {
                matches!(self, Strategy::Standard | Strategy::Trusting)
            }
        }
    }

    /// Lowercase wire name (used in `StartNegotiationRequest`).
    pub fn wire_name(self) -> &'static str {
        match self {
            Strategy::Trusting => "trusting",
            Strategy::Standard => "standard",
            Strategy::Suspicious => "suspicious",
            Strategy::StrongSuspicious => "strong-suspicious",
        }
    }

    /// Parse the wire name.
    pub fn from_wire_name(text: &str) -> Option<Self> {
        match text {
            "trusting" => Some(Strategy::Trusting),
            "standard" => Some(Strategy::Standard),
            "suspicious" => Some(Strategy::Suspicious),
            "strong-suspicious" => Some(Strategy::StrongSuspicious),
            _ => None,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidentiality_ordering() {
        // Trusting reveals the most, strong-suspicious the least.
        assert!(Strategy::Trusting.reveals_missing());
        assert!(Strategy::Standard.reveals_missing());
        assert!(!Strategy::Suspicious.reveals_missing());
        assert!(!Strategy::StrongSuspicious.reveals_missing());
        assert!(Strategy::Trusting.batches_alternatives());
        assert!(!Strategy::Standard.batches_alternatives());
    }

    #[test]
    fn x509_restriction_matches_paper() {
        // §6.3: plain X.509v2 supports only standard and trusting.
        for s in Strategy::ALL {
            let ok = s.compatible_with(CredentialFormat::X509v2);
            assert_eq!(
                ok,
                matches!(s, Strategy::Standard | Strategy::Trusting),
                "{s}"
            );
            // Every strategy works on X-TNL and on the selective extension.
            assert!(s.compatible_with(CredentialFormat::Xtnl));
            assert!(s.compatible_with(CredentialFormat::SelectiveX509));
        }
    }

    #[test]
    fn wire_names_roundtrip() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::from_wire_name(s.wire_name()), Some(s));
        }
        assert_eq!(Strategy::from_wire_name("bogus"), None);
    }

    #[test]
    fn strong_suspicious_minimizes_terms_per_message() {
        assert_eq!(Strategy::StrongSuspicious.terms_per_message(), 1);
        assert_eq!(Strategy::Standard.terms_per_message(), usize::MAX);
    }
}
