//! The proprietary XML policy format (paper Fig. 7).
//!
//! "A policy is defined essentially by three components: `<resource>`,
//! `<properties>` and type. The `<resource>` element simply specifies the
//! credential protected by the disclosure policy (target attribute). The
//! `<properties>` element specifies the conditions that the credential of
//! the other party should satisfy … as many subelements, named
//! `<certificate>`, as the number of conditions. The element
//! `<certificate>` has an attribute named targetCertType … Additional
//! conditions … are specified in the subelements `<certCond>`." (§6.2)

use crate::condition::Condition;
use crate::policy::{DisclosurePolicy, PolicyBody, PolicyId};
use crate::rterm::{Resource, ResourceKind};
use crate::term::{CredentialSpec, Term};
use trust_vo_xmldoc::{Document, Element, Sink};

/// Error produced when an XML document is not a valid policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyParseError(pub String);

impl std::fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed policy document: {}", self.0)
    }
}

impl std::error::Error for PolicyParseError {}

/// Serialize a policy to its XML form (the tree of its [`Document`]
/// shape).
pub fn policy_to_xml(policy: &DisclosurePolicy) -> Element {
    policy.to_tree()
}

/// The policy document (Fig. 7): `id` and `form`, the `<resource>` with
/// its attribute constraints, then — for a rule — one `<certificate>`
/// per term with its `<certCond>` conditions.
impl Document for DisclosurePolicy {
    fn write_to<S: Sink>(&self, s: &mut S) {
        s.open("policy");
        s.attr("id", &self.id.0);
        s.attr("form", if self.is_deliv() { "deliv" } else { "rule" });
        s.open("resource");
        s.attr("target", &self.target.name);
        s.attr("kind", self.target.kind.label());
        for (name, value) in &self.target.attrs {
            s.open("attr");
            s.attr("name", name);
            s.attr("value", value);
            s.close();
        }
        s.close();
        if let PolicyBody::Terms(terms) = &self.body {
            s.open("properties");
            for term in terms {
                s.open("certificate");
                match &term.spec {
                    CredentialSpec::Type(name) => s.attr("targetCertType", name),
                    CredentialSpec::Variable => s.attr("targetCertType", "*"),
                    CredentialSpec::Concept(name) => s.attr("targetConcept", name),
                }
                for cond in &term.conditions {
                    s.open("certCond");
                    s.text(cond.source());
                    s.close();
                }
                s.close();
            }
            s.close();
        }
        s.close();
    }
}

/// Parse a policy from its XML form.
pub fn policy_from_xml(root: &Element) -> Result<DisclosurePolicy, PolicyParseError> {
    if root.name != "policy" {
        return Err(PolicyParseError(format!(
            "expected <policy>, found <{}>",
            root.name
        )));
    }
    let id = root
        .get_attr("id")
        .ok_or_else(|| PolicyParseError("missing id attribute".into()))?;
    let form = root.get_attr("form").unwrap_or("rule");
    let resource_el = root
        .first("resource")
        .ok_or_else(|| PolicyParseError("missing <resource>".into()))?;
    let target_name = resource_el
        .get_attr("target")
        .ok_or_else(|| PolicyParseError("<resource> missing target".into()))?;
    let kind = resource_el
        .get_attr("kind")
        .and_then(ResourceKind::parse)
        .unwrap_or(ResourceKind::Credential);
    let mut target = Resource {
        name: target_name.to_owned(),
        kind,
        attrs: Vec::new(),
    };
    for attr_el in resource_el.all("attr") {
        let name = attr_el
            .get_attr("name")
            .ok_or_else(|| PolicyParseError("<attr> missing name".into()))?;
        let value = attr_el
            .get_attr("value")
            .ok_or_else(|| PolicyParseError("<attr> missing value".into()))?;
        target.attrs.push((name.to_owned(), value.to_owned()));
    }
    match form {
        "deliv" => Ok(DisclosurePolicy {
            id: PolicyId(id.to_owned()),
            target,
            body: PolicyBody::Deliv,
        }),
        "rule" => {
            let properties = root
                .first("properties")
                .ok_or_else(|| PolicyParseError("rule policy missing <properties>".into()))?;
            let mut terms = Vec::new();
            for cert in properties.all("certificate") {
                let spec = if let Some(concept) = cert.get_attr("targetConcept") {
                    CredentialSpec::Concept(concept.to_owned())
                } else {
                    match cert.get_attr("targetCertType") {
                        Some("*") => CredentialSpec::Variable,
                        Some(name) => CredentialSpec::Type(name.to_owned()),
                        None => {
                            return Err(PolicyParseError(
                                "<certificate> needs targetCertType or targetConcept".into(),
                            ))
                        }
                    }
                };
                let mut conditions = Vec::new();
                for cond_el in cert.all("certCond") {
                    let text = cond_el.text_content();
                    let cond = Condition::parse(&text)
                        .map_err(|e| PolicyParseError(format!("bad certCond '{text}': {e}")))?;
                    conditions.push(cond);
                }
                terms.push(Term { spec, conditions });
            }
            if terms.is_empty() {
                return Err(PolicyParseError(
                    "rule policy has no <certificate> terms".into(),
                ));
            }
            Ok(DisclosurePolicy {
                id: PolicyId(id.to_owned()),
                target,
                body: PolicyBody::Terms(terms),
            })
        }
        other => Err(PolicyParseError(format!("unknown policy form '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 7 policy: disclosing "ISO 9000 Certified" requires an
    /// Aircraft-association accreditation credential.
    fn fig7_policy() -> DisclosurePolicy {
        DisclosurePolicy::rule(
            "pol-iso-9000",
            Resource::credential("ISO9000Certified"),
            vec![Term::of_type("AAAccreditation").with_condition(
                Condition::parse("//header/issuer = 'American Aircraft Association'").unwrap(),
            )],
        )
    }

    #[test]
    fn fig7_shape() {
        let xml = policy_to_xml(&fig7_policy());
        let text = trust_vo_xmldoc::to_string_pretty(&xml);
        assert!(text.contains("<resource target=\"ISO9000Certified\" kind=\"credential\"/>"));
        assert!(text.contains("<certificate targetCertType=\"AAAccreditation\">"));
        assert!(text.contains("<certCond>"));
    }

    #[test]
    fn roundtrip_rule() {
        let p = fig7_policy();
        let text = trust_vo_xmldoc::to_string(&policy_to_xml(&p));
        let back = policy_from_xml(&trust_vo_xmldoc::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn roundtrip_deliv() {
        let p = DisclosurePolicy::deliv("d1", Resource::file("/designs/wing-7.cad"));
        let text = trust_vo_xmldoc::to_string(&policy_to_xml(&p));
        let back = policy_from_xml(&trust_vo_xmldoc::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn roundtrip_variable_and_concept_terms() {
        let p = DisclosurePolicy::rule(
            "p",
            Resource::service("VoMembership").with_attr("vo", "AircraftOptimization"),
            vec![
                Term::variable().where_attr("Issuer", "BBB"),
                Term::of_concept("BusinessProof"),
            ],
        );
        let text = trust_vo_xmldoc::to_string(&policy_to_xml(&p));
        let back = policy_from_xml(&trust_vo_xmldoc::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn rejects_malformed() {
        let cases = [
            "<notpolicy/>",
            "<policy/>",
            r#"<policy id="x"/>"#,
            r#"<policy id="x" form="rule"><resource target="R"/></policy>"#,
            r#"<policy id="x" form="rule"><resource target="R"/><properties/></policy>"#,
            r#"<policy id="x" form="weird"><resource target="R"/></policy>"#,
            r#"<policy id="x"><resource target="R"/><properties><certificate/></properties></policy>"#,
        ];
        for doc in cases {
            let el = trust_vo_xmldoc::parse(doc).unwrap();
            assert!(policy_from_xml(&el).is_err(), "{doc}");
        }
    }

    #[test]
    fn bad_cert_cond_reported() {
        let doc = r#"<policy id="x"><resource target="R"/><properties><certificate targetCertType="T"><certCond>///bad</certCond></certificate></properties></policy>"#;
        let el = trust_vo_xmldoc::parse(doc).unwrap();
        let err = policy_from_xml(&el).unwrap_err();
        assert!(err.to_string().contains("bad certCond"));
    }
}
