//! Credential sensitivity labels.
//!
//! Algorithm 1 in the paper assumes "sensitivity is … represented by means
//! of a label associated with each credential … the label takes values from
//! the set {low, medium, high}", and the `CredCluster` function groups a
//! party's credentials by label so the least-sensitive satisfying
//! credential is disclosed first.

/// A privacy label attached to a credential in a party's X-Profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Sensitivity {
    /// Freely disclosable.
    #[default]
    Low,
    /// Disclose only when a lower-sensitivity alternative is unavailable.
    Medium,
    /// Disclose last.
    High,
}

impl Sensitivity {
    /// All levels, least sensitive first — the probe order of Algorithm 1.
    pub const ALL: [Sensitivity; 3] = [Sensitivity::Low, Sensitivity::Medium, Sensitivity::High];

    /// Parse from the paper's lowercase label form.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "low" => Some(Sensitivity::Low),
            "medium" | "med" => Some(Sensitivity::Medium),
            "high" => Some(Sensitivity::High),
            _ => None,
        }
    }

    /// The lowercase label form.
    pub fn label(self) -> &'static str {
        match self {
            Sensitivity::Low => "low",
            Sensitivity::Medium => "medium",
            Sensitivity::High => "high",
        }
    }
}

impl std::fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Automatic sensitivity labeling.
///
/// The paper assumes the label "can be determined efficiently in an
/// automated fashion" (§4.3.1). This heuristic classifies a credential by
/// its type and attribute names: financial/medical/internal markers are
/// **high**, identity/affiliation markers are **medium**, everything else
/// (public certifications, SLAs) is **low**.
pub fn auto_label(
    cred_type: &str,
    attribute_names: impl Iterator<Item = impl AsRef<str>>,
) -> Sensitivity {
    const HIGH_MARKERS: [&str; 10] = [
        "balance", "salary", "income", "financ", "medical", "health", "internal", "risk",
        "revenue", "tax",
    ];
    const MEDIUM_MARKERS: [&str; 8] = [
        "passport", "license", "identity", "ssn", "birth", "address", "member", "employee",
    ];
    let mut tokens: Vec<String> = vec![cred_type.to_lowercase()];
    tokens.extend(attribute_names.map(|a| a.as_ref().to_lowercase()));
    if tokens
        .iter()
        .any(|t| HIGH_MARKERS.iter().any(|m| t.contains(m)))
    {
        Sensitivity::High
    } else if tokens
        .iter()
        .any(|t| MEDIUM_MARKERS.iter().any(|m| t.contains(m)))
    {
        Sensitivity::Medium
    } else {
        Sensitivity::Low
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_low_to_high() {
        assert!(Sensitivity::Low < Sensitivity::Medium);
        assert!(Sensitivity::Medium < Sensitivity::High);
        assert_eq!(Sensitivity::ALL.to_vec(), {
            let mut v = Sensitivity::ALL.to_vec();
            v.sort();
            v
        });
    }

    #[test]
    fn parse_and_label_roundtrip() {
        for s in Sensitivity::ALL {
            assert_eq!(Sensitivity::parse(s.label()), Some(s));
        }
        assert_eq!(Sensitivity::parse("med"), Some(Sensitivity::Medium));
        assert_eq!(Sensitivity::parse("HIGH"), None);
        assert_eq!(Sensitivity::parse(""), None);
    }

    #[test]
    fn default_is_low() {
        assert_eq!(Sensitivity::default(), Sensitivity::Low);
    }
}

#[cfg(test)]
mod auto_tests {
    use super::*;

    #[test]
    fn financial_credentials_are_high() {
        assert_eq!(
            auto_label("BalanceSheet", std::iter::empty::<&str>()),
            Sensitivity::High
        );
        assert_eq!(
            auto_label("EmploymentRecord", ["Salary"].into_iter()),
            Sensitivity::High
        );
        assert_eq!(
            auto_label("InternalAudit", std::iter::empty::<&str>()),
            Sensitivity::High
        );
    }

    #[test]
    fn identity_credentials_are_medium() {
        assert_eq!(
            auto_label("Passport", std::iter::empty::<&str>()),
            Sensitivity::Medium
        );
        assert_eq!(
            auto_label("DrivingLicense", ["sex"].into_iter()),
            Sensitivity::Medium
        );
        assert_eq!(
            auto_label("AAAMember", std::iter::empty::<&str>()),
            Sensitivity::Medium
        );
    }

    #[test]
    fn public_certifications_are_low() {
        assert_eq!(
            auto_label("ISO9000Certified", ["QualityRegulation"].into_iter()),
            Sensitivity::Low
        );
        assert_eq!(
            auto_label("HpcSla", ["Availability"].into_iter()),
            Sensitivity::Low
        );
    }

    #[test]
    fn high_wins_over_medium() {
        // A credential with both identity and financial markers is high.
        assert_eq!(
            auto_label("EmployeeRecord", ["Salary", "Address"].into_iter()),
            Sensitivity::High
        );
    }
}
