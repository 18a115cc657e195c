//! X-Profiles: a party's credential portfolio.
//!
//! "All credentials associated with a party are collected into a unique XML
//! document, referred to as X-Profile" (§4.1). The profile also carries the
//! per-credential sensitivity labels Algorithm 1 clusters on, and the
//! `cred_cluster` operation itself (the paper's `CredCluster` function).

use crate::credential::{Credential, CredentialId};
use crate::sensitivity::Sensitivity;
use std::collections::HashMap;
use trust_vo_xmldoc::{Document, Element, Sink};

/// A party's X-Profile: its credentials plus sensitivity labels. Plain
/// data: a clone is an independent copy with no identity of its own.
#[derive(Debug, Clone, Default)]
pub struct XProfile {
    /// The owning party's display name.
    pub owner: String,
    credentials: Vec<Credential>,
    sensitivity: HashMap<CredentialId, Sensitivity>,
}

impl XProfile {
    /// Create an empty profile for `owner`.
    pub fn new(owner: impl Into<String>) -> Self {
        XProfile {
            owner: owner.into(),
            ..Default::default()
        }
    }

    /// Add a credential with an explicit sensitivity label.
    pub fn add_with_sensitivity(&mut self, cred: Credential, label: Sensitivity) {
        self.sensitivity.insert(cred.id().clone(), label);
        self.credentials.push(cred);
    }

    /// Add a credential with the default (low) sensitivity.
    pub fn add(&mut self, cred: Credential) {
        self.add_with_sensitivity(cred, Sensitivity::Low);
    }

    /// Remove a credential (e.g. when it expires and is re-issued).
    pub fn remove(&mut self, id: &CredentialId) -> Option<Credential> {
        let idx = self.credentials.iter().position(|c| c.id() == id)?;
        self.sensitivity.remove(id);
        Some(self.credentials.remove(idx))
    }

    /// All credentials.
    pub fn credentials(&self) -> &[Credential] {
        &self.credentials
    }

    /// Number of credentials held.
    pub fn len(&self) -> usize {
        self.credentials.len()
    }

    /// True when no credentials are held.
    pub fn is_empty(&self) -> bool {
        self.credentials.is_empty()
    }

    /// The sensitivity label of a credential (default low).
    pub fn sensitivity_of(&self, id: &CredentialId) -> Sensitivity {
        self.sensitivity.get(id).copied().unwrap_or_default()
    }

    /// All credentials of a given type.
    pub fn of_type<'a>(&'a self, cred_type: &'a str) -> impl Iterator<Item = &'a Credential> + 'a {
        self.credentials
            .iter()
            .filter(move |c| c.cred_type() == cred_type)
    }

    /// Does the profile hold at least one credential of this type?
    pub fn holds_type(&self, cred_type: &str) -> bool {
        self.of_type(cred_type).next().is_some()
    }

    /// Look up a credential by id.
    pub fn get(&self, id: &CredentialId) -> Option<&Credential> {
        self.credentials.iter().find(|c| c.id() == id)
    }

    /// The paper's `CredCluster`: among `candidates` (credential ids assumed
    /// to be in this profile), the subset whose sensitivity equals `level`.
    pub fn cred_cluster<'a>(
        &'a self,
        candidates: &'a [CredentialId],
        level: Sensitivity,
    ) -> impl Iterator<Item = &'a Credential> + 'a {
        candidates
            .iter()
            .filter(move |id| self.sensitivity_of(id) == level)
            .filter_map(|id| self.get(id))
    }

    /// Serialize the whole profile as the single XML document the paper
    /// describes (the tree of its [`Document`] shape).
    pub fn to_xml(&self) -> Element {
        self.to_tree()
    }
}

/// The X-Profile document: an `owner` attribute and every credential,
/// signed and labelled with its sensitivity.
impl Document for XProfile {
    fn write_to<S: Sink>(&self, s: &mut S) {
        s.open("X-Profile");
        s.attr("owner", &self.owner);
        for cred in &self.credentials {
            cred.document(Some(self.sensitivity_of(cred.id())))
                .write_to(s);
        }
        s.close();
    }
}

impl XProfile {
    /// Add a credential with an automatically determined sensitivity label
    /// (the §4.3.1 "automated fashion").
    pub fn add_auto(&mut self, cred: crate::credential::Credential) {
        let label = crate::sensitivity::auto_label(
            cred.cred_type(),
            cred.content().iter().map(|a| a.name.as_str()),
        );
        self.add_with_sensitivity(cred, label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::authority::CredentialAuthority;
    use crate::time::{TimeRange, Timestamp};
    use trust_vo_crypto::KeyPair;

    fn build_profile() -> (XProfile, Vec<CredentialId>) {
        let mut ca = CredentialAuthority::new("INFN");
        let subject = KeyPair::from_seed(b"aerospace");
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
        let mut profile = XProfile::new("Aerospace Company");
        let mut ids = Vec::new();
        for (ty, label) in [
            ("ISO9000Certified", Sensitivity::Low),
            ("BalanceSheet", Sensitivity::High),
            ("AAAMember", Sensitivity::Medium),
            ("ISO9000Certified", Sensitivity::Medium),
        ] {
            let cred = ca
                .issue(
                    ty,
                    "Aerospace Company",
                    subject.public,
                    vec![Attribute::new("k", "v")],
                    window,
                )
                .unwrap();
            ids.push(cred.id().clone());
            profile.add_with_sensitivity(cred, label);
        }
        (profile, ids)
    }

    #[test]
    fn type_queries() {
        let (profile, _) = build_profile();
        assert_eq!(profile.len(), 4);
        assert_eq!(profile.of_type("ISO9000Certified").count(), 2);
        assert!(profile.holds_type("BalanceSheet"));
        assert!(!profile.holds_type("Nonexistent"));
    }

    #[test]
    fn sensitivity_lookup_defaults_low() {
        let (profile, ids) = build_profile();
        assert_eq!(profile.sensitivity_of(&ids[1]), Sensitivity::High);
        assert_eq!(
            profile.sensitivity_of(&CredentialId("missing".into())),
            Sensitivity::Low
        );
    }

    #[test]
    fn cred_cluster_filters_by_level() {
        let (profile, ids) = build_profile();
        let low: Vec<_> = profile.cred_cluster(&ids, Sensitivity::Low).collect();
        assert_eq!(low.len(), 1);
        assert_eq!(low[0].id(), &ids[0]);
        let med: Vec<_> = profile.cred_cluster(&ids, Sensitivity::Medium).collect();
        assert_eq!(med.len(), 2);
        let high: Vec<_> = profile.cred_cluster(&ids, Sensitivity::High).collect();
        assert_eq!(high.len(), 1);
    }

    #[test]
    fn remove_credential() {
        let (mut profile, ids) = build_profile();
        assert!(profile.remove(&ids[0]).is_some());
        assert_eq!(profile.len(), 3);
        assert!(profile.remove(&ids[0]).is_none());
    }

    #[test]
    fn profile_xml_contains_all_credentials() {
        let (profile, _) = build_profile();
        let xml = profile.to_xml();
        assert_eq!(xml.name, "X-Profile");
        assert_eq!(xml.get_attr("owner"), Some("Aerospace Company"));
        assert_eq!(xml.all("credential").count(), 4);
        // Sensitivity labels serialized on each credential element.
        let labels: Vec<_> = xml
            .all("credential")
            .filter_map(|c| c.get_attr("sensitivity").map(str::to_owned))
            .collect();
        assert_eq!(labels.len(), 4);
        assert!(labels.contains(&"high".to_owned()));
    }
}

#[cfg(test)]
mod auto_label_tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::authority::CredentialAuthority;
    use crate::time::{TimeRange, Timestamp};
    use trust_vo_crypto::KeyPair;

    #[test]
    fn add_auto_assigns_heuristic_labels() {
        let mut ca = CredentialAuthority::new("CA");
        let keys = KeyPair::from_seed(b"h");
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
        let mut profile = XProfile::new("h");
        let sheet = ca
            .issue(
                "BalanceSheet",
                "h",
                keys.public,
                vec![Attribute::new("Year", 2009i64)],
                window,
            )
            .unwrap();
        let sheet_id = sheet.id().clone();
        profile.add_auto(sheet);
        let sla = ca
            .issue("HpcSla", "h", keys.public, vec![], window)
            .unwrap();
        let sla_id = sla.id().clone();
        profile.add_auto(sla);
        assert_eq!(profile.sensitivity_of(&sheet_id), Sensitivity::High);
        assert_eq!(profile.sensitivity_of(&sla_id), Sensitivity::Low);
    }
}
