//! Disclosure policies and policy sets.
//!
//! "Disclosure policies can assume one of the following forms:
//!
//! 1. `R ← T₁, T₂, …, Tₙ, n ≥ 1` … terms and R an R-Term identifying the
//!    name of the target resource.
//! 2. `R ← DELIV`. A rule of this form is called delivery rule, meaning
//!    that R can be delivered as is." (§4.1)
//!
//! "Each party adopts its own Trust-X set of disclosure policies to
//! regulate release of local information … and access to services."
//! Multiple policies for the same resource are *alternatives*: satisfying
//! any one of them releases the resource (this is what multiedges in the
//! negotiation tree branch over).

use crate::rterm::Resource;
use crate::term::Term;
use std::sync::Arc;

/// A policy identifier. [`PolicySet::add`] keeps ids unique within a set;
/// only [`PolicySet::layer`] lets two policies share one.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PolicyId(pub String);

impl std::fmt::Display for PolicyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The right-hand side of a policy rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyBody {
    /// `R ← DELIV`: the resource is freely released.
    Deliv,
    /// `R ← T₁, …, Tₙ`: all terms must be satisfied (a conjunction).
    Terms(Vec<Term>),
}

/// A disclosure policy rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisclosurePolicy {
    /// The policy id.
    pub id: PolicyId,
    /// The protected resource (the rule head `R`).
    pub target: Resource,
    /// The rule body.
    pub body: PolicyBody,
}

impl DisclosurePolicy {
    /// A delivery rule for `target`.
    pub fn deliv(id: impl Into<String>, target: Resource) -> Self {
        DisclosurePolicy {
            id: PolicyId(id.into()),
            target,
            body: PolicyBody::Deliv,
        }
    }

    /// A conjunctive rule `target ← terms`.
    ///
    /// # Panics
    /// Panics when `terms` is empty (the paper requires `n ≥ 1`; an empty
    /// conjunction must be written as a delivery rule instead).
    pub fn rule(id: impl Into<String>, target: Resource, terms: Vec<Term>) -> Self {
        assert!(
            !terms.is_empty(),
            "a policy rule requires n >= 1 terms; use a delivery rule"
        );
        DisclosurePolicy {
            id: PolicyId(id.into()),
            target,
            body: PolicyBody::Terms(terms),
        }
    }

    /// Is this a delivery rule?
    pub fn is_deliv(&self) -> bool {
        matches!(self.body, PolicyBody::Deliv)
    }

    /// The terms of a conjunctive rule (empty for delivery rules).
    pub fn terms(&self) -> &[Term] {
        match &self.body {
            PolicyBody::Deliv => &[],
            PolicyBody::Terms(terms) => terms,
        }
    }
}

impl std::fmt::Display for DisclosurePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} <- ", self.target)?;
        match &self.body {
            PolicyBody::Deliv => f.write_str("DELIV"),
            PolicyBody::Terms(terms) => {
                for (i, t) in terms.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
        }
    }
}

/// A party's set of disclosure policies.
///
/// Each policy is allocated once and shared: a negotiation transcript,
/// its tree and a role identity built over this set hold clones of the
/// same [`Arc`], never copies of the rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicySet {
    policies: Vec<Arc<DisclosurePolicy>>,
}

impl PolicySet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a policy, replacing the one with the same id if present.
    pub fn add(&mut self, policy: DisclosurePolicy) {
        let policy = Arc::new(policy);
        if let Some(slot) = self.policies.iter_mut().find(|p| p.id == policy.id) {
            *slot = policy;
        } else {
            self.policies.push(policy);
        }
    }

    /// Append every policy of `over` after this set's own, sharing each
    /// one. Unlike [`PolicySet::add`] nothing is replaced: a policy of
    /// `over` whose id this set already uses is kept after the one here,
    /// so no protection of this set is lost.
    pub fn layer(&mut self, over: &PolicySet) {
        self.policies.extend(over.policies.iter().cloned());
    }

    /// All policies protecting a resource name, in insertion order — the
    /// *alternatives* for that resource.
    pub fn alternatives_for<'a>(
        &'a self,
        resource: &'a str,
    ) -> impl Iterator<Item = &'a Arc<DisclosurePolicy>> + 'a {
        self.policies
            .iter()
            .filter(move |p| p.target.name == resource)
    }

    /// Is there any policy (including DELIV) governing this resource?
    pub fn governs(&self, resource: &str) -> bool {
        self.alternatives_for(resource).next().is_some()
    }

    /// Is the resource freely deliverable (has a DELIV rule)?
    pub fn is_deliverable(&self, resource: &str) -> bool {
        self.alternatives_for(resource).any(|p| p.is_deliv())
    }

    /// Look up a policy by id.
    pub fn get(&self, id: &PolicyId) -> Option<&DisclosurePolicy> {
        self.iter().find(|p| &p.id == id)
    }

    /// Iterate over all policies.
    pub fn iter(&self) -> impl Iterator<Item = &DisclosurePolicy> {
        self.policies.iter().map(|p| &**p)
    }

    /// Number of policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True when no policies are present.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Example 1 policies from §4.1.
    fn example_1() -> PolicySet {
        let mut set = PolicySet::new();
        set.add(DisclosurePolicy::rule(
            "p1",
            Resource::service("VoMembership"),
            vec![Term::of_type("WebDesignerQuality")],
        ));
        set.add(DisclosurePolicy::rule(
            "p2",
            Resource::credential("QualityCertification"),
            vec![Term::of_type("AAACreditation")],
        ));
        set
    }

    #[test]
    fn example_1_policies_display_like_the_paper() {
        let set = example_1();
        let p1 = set.get(&PolicyId("p1".into())).unwrap();
        assert_eq!(p1.to_string(), "VoMembership() <- WebDesignerQuality()");
        let p2 = set.get(&PolicyId("p2".into())).unwrap();
        assert_eq!(p2.to_string(), "QualityCertification() <- AAACreditation()");
    }

    #[test]
    fn deliv_rule() {
        let p = DisclosurePolicy::deliv("d1", Resource::credential("PublicCert"));
        assert!(p.is_deliv());
        assert!(p.terms().is_empty());
        assert_eq!(p.to_string(), "PublicCert() <- DELIV");
    }

    #[test]
    #[should_panic(expected = "n >= 1")]
    fn empty_rule_panics() {
        DisclosurePolicy::rule("bad", Resource::credential("X"), vec![]);
    }

    #[test]
    fn alternatives_are_ordered() {
        let mut set = example_1();
        // A second alternative for QualityCertification (the paper's
        // Fig. 2 shows AAACreditation OR BalanceSheet).
        set.add(DisclosurePolicy::rule(
            "p3",
            Resource::credential("QualityCertification"),
            vec![Term::of_type("BalanceSheet")],
        ));
        let alts: Vec<_> = set.alternatives_for("QualityCertification").collect();
        assert_eq!(alts.len(), 2);
        assert_eq!(alts[0].id.0, "p2");
        assert_eq!(alts[1].id.0, "p3");
    }

    #[test]
    fn governance_and_deliverability() {
        let mut set = example_1();
        assert!(set.governs("VoMembership"));
        assert!(!set.governs("Unprotected"));
        assert!(!set.is_deliverable("VoMembership"));
        set.add(DisclosurePolicy::deliv(
            "d",
            Resource::service("VoMembership"),
        ));
        assert!(set.is_deliverable("VoMembership"));
    }

    #[test]
    fn layer_shares_and_keeps_colliding_ids() {
        let mut base = example_1();
        let mut over = PolicySet::new();
        over.add(DisclosurePolicy::deliv(
            "p1",
            Resource::service("VoMembership"),
        ));
        base.layer(&over);
        assert_eq!(base.len(), 3);
        let alts: Vec<_> = base.alternatives_for("VoMembership").collect();
        assert_eq!(alts.len(), 2);
        assert!(!alts[0].is_deliv(), "the base policy comes first");
        // Shared, not copied: the same allocation as in `over`.
        assert!(std::ptr::eq(&**alts[1], over.iter().next().unwrap()));
    }

    #[test]
    fn duplicate_id_replaces() {
        let mut set = example_1();
        set.add(DisclosurePolicy::deliv(
            "p1",
            Resource::service("VoMembership"),
        ));
        assert_eq!(set.len(), 2);
        assert!(set.get(&PolicyId("p1".into())).unwrap().is_deliv());
    }
}
