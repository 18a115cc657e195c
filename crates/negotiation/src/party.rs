//! A negotiating party: identity, X-Profile, policy set, ontology, and
//! trust anchors.

use trust_vo_credential::chain::ChainDirectory;
use trust_vo_credential::{Credential, RevocationList, XProfile};
use trust_vo_crypto::{KeyPair, PublicKey};
use trust_vo_ontology::Ontology;
use trust_vo_policy::{satisfying_credentials, DisclosurePolicy, PolicySet, Term};

/// One side of a trust negotiation.
#[derive(Debug, Clone)]
pub struct Party {
    /// Display name.
    pub name: String,
    /// The party's own key pair (subject key of its credentials).
    pub keys: KeyPair,
    /// The credential portfolio.
    pub profile: XProfile,
    /// The disclosure policies protecting local resources.
    pub policies: PolicySet,
    /// The local ontology, if the party runs the reasoning engine.
    pub ontology: Option<Ontology>,
    /// Issuer keys this party trusts.
    pub trusted_roots: Vec<PublicKey>,
    /// The party's aggregated view of revocations (unions of the CRLs of
    /// the authorities it trusts).
    pub crl: RevocationList,
    /// Known intermediate credentials, used to build chains when a
    /// received credential's issuer is not directly trusted ("retrieving
    /// those credentials that are not immediately available through
    /// credentials chains", §4.2).
    pub chains: ChainDirectory,
}

impl Party {
    /// Create a party with keys derived from its name and an empty profile.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let keys = KeyPair::from_seed(format!("party:{name}").as_bytes());
        Party {
            profile: XProfile::new(name.clone()),
            name,
            keys,
            policies: PolicySet::new(),
            ontology: None,
            trusted_roots: Vec::new(),
            crl: RevocationList::new(),
            chains: ChainDirectory::new(),
        }
    }

    /// Builder: set the ontology.
    #[must_use]
    pub fn with_ontology(mut self, ontology: Ontology) -> Self {
        self.ontology = Some(ontology);
        self
    }

    /// Trust an issuer key.
    pub fn trust_root(&mut self, key: PublicKey) {
        if !self.trusted_roots.contains(&key) {
            self.trusted_roots.push(key);
        }
    }

    /// The policy alternatives protecting `resource`, in preference order.
    pub fn alternatives_for<'a>(&'a self, resource: &'a str) -> Vec<&'a DisclosurePolicy> {
        self.policies
            .alternatives_for(resource)
            .map(|p| &**p)
            .collect()
    }

    /// Credentials in this party's profile that satisfy `term` (concept
    /// terms resolved through the local ontology), least sensitive first.
    pub fn satisfying(&self, term: &Term) -> Vec<&Credential> {
        let mut found = satisfying_credentials(term, &self.profile, self.ontology.as_ref());
        found.sort_by_key(|&c| (self.profile.sensitivity_of(c.id()), c.id()));
        found
    }

    /// Does this party hold a credential of the given type?
    pub fn holds(&self, cred_type: &str) -> bool {
        self.profile.holds_type(cred_type)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trust_vo_credential::{Attribute, CredentialAuthority, Sensitivity, TimeRange, Timestamp};
    use trust_vo_policy::Resource;

    fn window() -> TimeRange {
        TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0))
    }

    #[test]
    fn keys_are_deterministic_per_name() {
        let a = Party::new("Aircraft Company");
        let b = Party::new("Aircraft Company");
        assert_eq!(a.keys.public, b.keys.public);
        assert_ne!(a.keys.public, Party::new("Other").keys.public);
    }

    #[test]
    fn trust_root_dedupes() {
        let mut p = Party::new("X");
        let k = KeyPair::from_seed(b"ca").public;
        p.trust_root(k);
        p.trust_root(k);
        assert_eq!(p.trusted_roots.len(), 1);
    }

    #[test]
    fn satisfying_sorts_by_sensitivity() {
        let mut ca = CredentialAuthority::new("CA");
        let mut p = Party::new("X");
        let high = ca
            .issue(
                "T",
                "X",
                p.keys.public,
                vec![Attribute::new("k", "v")],
                window(),
            )
            .unwrap();
        let low = ca
            .issue(
                "T",
                "X",
                p.keys.public,
                vec![Attribute::new("k", "v")],
                window(),
            )
            .unwrap();
        p.profile
            .add_with_sensitivity(high.clone(), Sensitivity::High);
        p.profile
            .add_with_sensitivity(low.clone(), Sensitivity::Low);
        let found = p.satisfying(&Term::of_type("T"));
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].id(), low.id());
        assert_eq!(found[1].id(), high.id());
    }

    #[test]
    fn alternatives_reflect_policy_set() {
        let mut p = Party::new("X");
        p.policies
            .add(DisclosurePolicy::deliv("d", Resource::credential("Free")));
        assert_eq!(p.alternatives_for("Free").len(), 1);
        assert!(p.alternatives_for("Other").is_empty());
    }

    #[test]
    fn holds_checks_profile() {
        let mut ca = CredentialAuthority::new("CA");
        let mut p = Party::new("X");
        assert!(!p.holds("T"));
        let c = ca.issue("T", "X", p.keys.public, vec![], window()).unwrap();
        p.profile.add(c);
        assert!(p.holds("T"));
    }
}
