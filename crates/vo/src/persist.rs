//! VO state persistence.
//!
//! The prototype's VO Management toolkit "adopts MySQL as storage support"
//! (§6.3): active VOs, their members, and their membership certificates
//! survive toolkit restarts. This module serializes a [`FormedVo`] to an
//! XML document and back, and provides the save/load helpers over the
//! workspace [`Database`].
//!
//! The VO document embeds each X.509v2 membership certificate field by
//! field (including the signature), and deserialization reconstructs the
//! exact signed content — so reloaded certificates still verify.

use crate::contract::{CollaborationRule, Contract, Role};
use crate::formation::FormedVo;
use crate::lifecycle::{Phase, VoLifecycle};
use crate::member::MemberRecord;
use trust_vo_credential::x509::AttributeCertificate;
use trust_vo_credential::{TimeRange, Timestamp};
use trust_vo_crypto::{hex, KeyPair, PublicKey, Signature};
use trust_vo_store::Database;
use trust_vo_xmldoc::{Element, Node};

/// Error while (de)serializing VO state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError(pub String);

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VO persistence error: {}", self.0)
    }
}

impl std::error::Error for PersistError {}

fn cert_to_xml(cert: &AttributeCertificate) -> Element {
    let mut el = Element::new("membershipCertificate")
        .attr("serial", cert.serial.to_string())
        .attr("holder", &cert.holder)
        .attr("holderKey", hex::encode(&cert.holder_key.0.to_be_bytes()))
        .attr("issuer", &cert.issuer)
        .attr("issuerKey", hex::encode(&cert.issuer_key.0.to_be_bytes()))
        .attr("from", cert.validity.not_before.to_iso())
        .attr("to", cert.validity.not_after.to_iso())
        .attr("sigR", cert.signature.r.to_string())
        .attr("sigS", cert.signature.s.to_string());
    for (name, value) in &cert.attributes {
        el.children.push(Node::Element(
            Element::new("attr").attr("name", name).attr("value", value),
        ));
    }
    el
}

fn key_from_hex(text: &str, what: &str) -> Result<PublicKey, PersistError> {
    let bytes = hex::decode(text)
        .filter(|b| b.len() == 8)
        .ok_or_else(|| PersistError(format!("{what}: bad key encoding")))?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes);
    Ok(PublicKey(u64::from_be_bytes(raw)))
}

fn cert_from_xml(el: &Element) -> Result<AttributeCertificate, PersistError> {
    let attr = |name: &str| {
        el.get_attr(name)
            .map(str::to_owned)
            .ok_or_else(|| PersistError(format!("certificate missing '{name}'")))
    };
    let parse_ts = |name: &str| -> Result<Timestamp, PersistError> {
        Timestamp::parse_iso(&attr(name)?)
            .ok_or_else(|| PersistError(format!("certificate: bad timestamp in '{name}'")))
    };
    let not_before = parse_ts("from")?;
    let not_after = parse_ts("to")?;
    if not_before > not_after {
        return Err(PersistError("certificate: inverted validity".into()));
    }
    let mut attributes = Vec::new();
    for a in el.all("attr") {
        let name = a
            .get_attr("name")
            .ok_or_else(|| PersistError("attr missing name".into()))?;
        let value = a
            .get_attr("value")
            .ok_or_else(|| PersistError("attr missing value".into()))?;
        attributes.push((name.to_owned(), value.to_owned()));
    }
    let parse_u64 = |name: &str| -> Result<u64, PersistError> {
        attr(name)?
            .parse()
            .map_err(|_| PersistError(format!("certificate: bad number in '{name}'")))
    };
    Ok(AttributeCertificate {
        serial: parse_u64("serial")?,
        holder: attr("holder")?,
        holder_key: key_from_hex(&attr("holderKey")?, "holderKey")?,
        issuer: attr("issuer")?,
        issuer_key: key_from_hex(&attr("issuerKey")?, "issuerKey")?,
        validity: TimeRange {
            not_before,
            not_after,
        },
        attributes,
        signature: Signature {
            r: parse_u64("sigR")?,
            s: parse_u64("sigS")?,
        },
    })
}

/// Serialize a VO to its persistence document.
pub fn vo_to_xml(vo: &FormedVo) -> Element {
    let mut contract_el = Element::new("contract").attr("goal", &vo.contract.goal);
    for role in &vo.contract.roles {
        contract_el.children.push(Node::Element(
            Element::new("role")
                .attr("name", &role.name)
                .attr("capability", &role.capability)
                .attr("requirements", &role.requirements),
        ));
    }
    for rule in &vo.contract.rules {
        let mut rule_el = Element::new("rule")
            .attr("id", &rule.id)
            .attr("description", &rule.description);
        for r in &rule.applies_to {
            rule_el
                .children
                .push(Node::Element(Element::new("appliesTo").text(r)));
        }
        contract_el.children.push(Node::Element(rule_el));
    }
    // Role admission policies. Without these, a reloaded VO's renewal and
    // admission negotiations run ungoverned — the negotiation engine treats
    // resources with no policy as freely released, so dropping them here
    // silently disables the membership gate.
    for (role, set) in &vo.contract.role_policies {
        let mut rp_el = Element::new("rolePolicies").attr("role", role);
        for policy in set.iter() {
            rp_el
                .children
                .push(Node::Element(trust_vo_policy::xml::policy_to_xml(policy)));
        }
        contract_el.children.push(Node::Element(rp_el));
    }
    let mut lifecycle_el = Element::new("lifecycle");
    for (phase, at) in vo.lifecycle.history() {
        lifecycle_el.children.push(Node::Element(
            Element::new("transition")
                .attr("phase", phase.to_string())
                .attr("at", at.to_iso()),
        ));
    }
    let mut members_el = Element::new("members");
    for m in &vo.members {
        members_el.children.push(Node::Element(
            Element::new("member")
                .attr("provider", &m.provider)
                .attr("role", &m.role)
                .child(cert_to_xml(&m.certificate)),
        ));
    }
    Element::new("virtualOrganization")
        .attr("name", &vo.name)
        .attr("initiator", &vo.initiator)
        .attr(
            "voPublicKey",
            hex::encode(&vo.vo_keys.public.0.to_be_bytes()),
        )
        .child(contract_el)
        .child(lifecycle_el)
        .child(members_el)
}

fn phase_from_str(text: &str) -> Option<Phase> {
    Phase::ORDER.into_iter().find(|p| p.to_string() == text)
}

/// Deserialize a VO from its persistence document.
///
/// The VO key pair is re-derived from the VO name (keys are deterministic
/// in this reproduction); the stored public key is checked against it.
pub fn vo_from_xml(root: &Element) -> Result<FormedVo, PersistError> {
    if root.name != "virtualOrganization" {
        return Err(PersistError(format!(
            "expected <virtualOrganization>, found <{}>",
            root.name
        )));
    }
    let name = root
        .get_attr("name")
        .ok_or_else(|| PersistError("missing name".into()))?
        .to_owned();
    let initiator = root
        .get_attr("initiator")
        .ok_or_else(|| PersistError("missing initiator".into()))?
        .to_owned();
    let vo_keys = KeyPair::from_seed(format!("vo:{name}").as_bytes());
    let stored_key = key_from_hex(
        root.get_attr("voPublicKey")
            .ok_or_else(|| PersistError("missing voPublicKey".into()))?,
        "voPublicKey",
    )?;
    if stored_key != vo_keys.public {
        return Err(PersistError(
            "stored VO public key does not match the VO name".into(),
        ));
    }
    // Contract.
    let contract_el = root
        .first("contract")
        .ok_or_else(|| PersistError("missing <contract>".into()))?;
    let mut contract = Contract::new(
        name.clone(),
        contract_el.get_attr("goal").unwrap_or_default().to_owned(),
    );
    for role_el in contract_el.all("role") {
        contract.roles.push(Role::new(
            role_el.get_attr("name").unwrap_or_default(),
            role_el.get_attr("capability").unwrap_or_default(),
            role_el.get_attr("requirements").unwrap_or_default(),
        ));
    }
    for rule_el in contract_el.all("rule") {
        let mut rule = CollaborationRule::global(
            rule_el.get_attr("id").unwrap_or_default(),
            rule_el.get_attr("description").unwrap_or_default(),
        );
        for applies in rule_el.all("appliesTo") {
            rule.applies_to.push(applies.text_content());
        }
        contract.rules.push(rule);
    }
    for rp_el in contract_el.all("rolePolicies") {
        let role = rp_el
            .get_attr("role")
            .ok_or_else(|| PersistError("rolePolicies missing role".into()))?;
        let mut set = trust_vo_policy::PolicySet::new();
        for policy_el in rp_el.all("policy") {
            set.add(
                trust_vo_policy::xml::policy_from_xml(policy_el)
                    .map_err(|e| PersistError(format!("role '{role}': {e}")))?,
            );
        }
        contract.set_role_policies(role, set);
    }
    // Lifecycle replay.
    let lifecycle_el = root
        .first("lifecycle")
        .ok_or_else(|| PersistError("missing <lifecycle>".into()))?;
    let mut transitions = lifecycle_el.all("transition");
    let first = transitions
        .next()
        .ok_or_else(|| PersistError("empty lifecycle history".into()))?;
    let first_at = Timestamp::parse_iso(first.get_attr("at").unwrap_or_default())
        .ok_or_else(|| PersistError("bad lifecycle timestamp".into()))?;
    if first.get_attr("phase") != Some("preparation") {
        return Err(PersistError(
            "lifecycle history must start at preparation".into(),
        ));
    }
    let mut lifecycle = VoLifecycle::new(first_at);
    for t in transitions {
        let phase = phase_from_str(t.get_attr("phase").unwrap_or_default())
            .ok_or_else(|| PersistError("unknown lifecycle phase".into()))?;
        let at = Timestamp::parse_iso(t.get_attr("at").unwrap_or_default())
            .ok_or_else(|| PersistError("bad lifecycle timestamp".into()))?;
        lifecycle
            .advance_to(phase, at)
            .map_err(|e| PersistError(format!("invalid lifecycle history: {e}")))?;
    }
    // Members.
    let members_el = root
        .first("members")
        .ok_or_else(|| PersistError("missing <members>".into()))?;
    let mut members = Vec::new();
    let mut max_serial = 0;
    for m in members_el.all("member") {
        let cert_el = m
            .first("membershipCertificate")
            .ok_or_else(|| PersistError("member missing certificate".into()))?;
        let certificate = cert_from_xml(cert_el)?;
        max_serial = max_serial.max(certificate.serial);
        members.push(MemberRecord {
            provider: m.get_attr("provider").unwrap_or_default().to_owned(),
            role: m.get_attr("role").unwrap_or_default().to_owned(),
            certificate,
        });
    }
    Ok(FormedVo {
        name,
        contract,
        initiator,
        vo_keys,
        members,
        lifecycle,
        // Resume serial allocation past every persisted certificate.
        next_serial: max_serial,
    })
}

/// Persist a VO into the `vos` collection of `db`.
pub fn save_vo(db: &Database, vo: &FormedVo) -> u64 {
    db.with_collection("vos", |c| c.put(vo.name.as_str(), vo_to_xml(vo)))
}

/// Load a VO by name from `db`.
pub fn load_vo(db: &Database, name: &str) -> Result<FormedVo, PersistError> {
    // Shared read access: loading must not take the write lock (which
    // serializes concurrent loaders) nor create an empty `vos` collection
    // as a side effect of a miss.
    let doc = db
        .read_collection("vos", |c| c.get(&name.into()).cloned())
        .flatten()
        .ok_or_else(|| PersistError(format!("no persisted VO named '{name}'")))?;
    vo_from_xml(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::MailboxSystem;
    use crate::member::ServiceProvider;
    use crate::registry::{ResourceDescription, ServiceRegistry};
    use crate::reputation::ReputationLedger;
    use std::collections::BTreeMap;
    use trust_vo_credential::{CredentialAuthority, TimeRange};
    use trust_vo_negotiation::{Party, Strategy};
    use trust_vo_policy::{DisclosurePolicy, PolicySet, Resource, Term};
    use trust_vo_soa::simclock::{CostModel, SimClock};

    struct World {
        vo: FormedVo,
        clock: SimClock,
        initiator: ServiceProvider,
        providers: BTreeMap<String, ServiceProvider>,
        ca: CredentialAuthority,
    }

    fn formed_world() -> World {
        let clock = SimClock::new(
            CostModel::free(),
            Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
        );
        let mut ca = CredentialAuthority::new("CA");
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
        let mut initiator_party = Party::new("Aircraft");
        initiator_party.trust_root(ca.public_key());
        let mut member = Party::new("StoreCo");
        let sla = ca
            .issue("StorageSla", "StoreCo", member.keys.public, vec![], window)
            .unwrap();
        member.profile.add(sla);
        member.trust_root(ca.public_key());
        let mut contract = Contract::new("PersistVO", "goal")
            .with_role(Role::new("Storage", "storage", "SLA"))
            .with_rule(CollaborationRule::for_roles("r1", "encrypt", &["Storage"]));
        let mut policies = PolicySet::new();
        policies.add(DisclosurePolicy::rule(
            "p",
            Resource::service("VoMembership"),
            vec![Term::of_type("StorageSla")],
        ));
        contract.set_role_policies("Storage", policies);
        let mut registry = ServiceRegistry::new();
        registry.publish(ResourceDescription::new("StoreCo", "storage", "x", 0.9));
        let mut providers = BTreeMap::new();
        providers.insert("StoreCo".to_owned(), ServiceProvider::new(member));
        let initiator = ServiceProvider::new(initiator_party);
        let (vo, _) = crate::Formation::new(
            &initiator,
            &providers,
            &registry,
            crate::NegotiationSource::in_process(&clock),
        )
        .run(
            contract,
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
        )
        .unwrap();
        World {
            vo,
            clock,
            initiator,
            providers,
            ca,
        }
    }

    fn formed() -> (FormedVo, SimClock) {
        let w = formed_world();
        (w.vo, w.clock)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (vo, _clock) = formed();
        let doc = vo_to_xml(&vo);
        let text = trust_vo_xmldoc::to_string(&doc);
        let back = vo_from_xml(&trust_vo_xmldoc::parse(&text).unwrap()).unwrap();
        assert_eq!(back.name, vo.name);
        assert_eq!(back.initiator, vo.initiator);
        assert_eq!(back.members.len(), 1);
        assert_eq!(back.members[0].provider, "StoreCo");
        assert_eq!(back.lifecycle.phase(), Phase::Operation);
        assert_eq!(back.contract.roles.len(), 1);
        assert_eq!(back.contract.rules.len(), 1);
        assert_eq!(back.vo_keys.public, vo.vo_keys.public);
    }

    #[test]
    fn role_policies_survive_roundtrip() {
        let (vo, _clock) = formed();
        let doc = vo_to_xml(&vo);
        let text = trust_vo_xmldoc::to_string(&doc);
        let back = vo_from_xml(&trust_vo_xmldoc::parse(&text).unwrap()).unwrap();
        let set = back
            .contract
            .policies_for("Storage")
            .expect("role policies must survive save/load");
        assert_eq!(set.len(), 1);
        let policy = set.iter().next().unwrap();
        assert_eq!(policy.target.name, "VoMembership");
    }

    /// The reloaded admission gate must still gate: a renewal negotiation
    /// against a provider stripped of its SLA credential has to fail.
    /// Before role policies were persisted, this renewal *succeeded* — the
    /// negotiation engine treats ungoverned resources as freely released,
    /// so the lost PolicySet silently disabled membership checks.
    #[test]
    fn reloaded_vo_renewal_enforces_role_policies() {
        let w = formed_world();
        let db = Database::new();
        save_vo(&db, &w.vo);
        let mut reloaded = load_vo(&db, "PersistVO").unwrap();

        let mut bare = Party::new("StoreCo");
        bare.trust_root(w.ca.public_key());
        let mut stripped = BTreeMap::new();
        stripped.insert("StoreCo".to_owned(), ServiceProvider::new(bare));
        let denied = crate::operation::renew_membership(
            &mut reloaded,
            &w.initiator,
            &stripped,
            "StoreCo",
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
            &w.clock,
            Strategy::Standard,
        );
        assert!(
            denied.is_err(),
            "renewal without the SLA credential must fail against the reloaded policy"
        );

        // The genuine provider still renews successfully.
        let record = crate::operation::renew_membership(
            &mut reloaded,
            &w.initiator,
            &w.providers,
            "StoreCo",
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
            &w.clock,
            Strategy::Standard,
        )
        .expect("renewal with the credentialed provider succeeds");
        assert_eq!(record.provider, "StoreCo");
    }

    #[test]
    fn reloaded_certificates_still_verify() {
        let (vo, clock) = formed();
        let db = Database::new();
        save_vo(&db, &vo);
        let back = load_vo(&db, "PersistVO").unwrap();
        for m in back.members() {
            assert!(m.certificate.verify_signature().is_ok(), "{}", m.provider);
            assert!(m.certificate.verify(clock.timestamp(), None).is_ok());
        }
    }

    #[test]
    fn serial_counter_restored() {
        let (vo, _clock) = formed();
        let db = Database::new();
        save_vo(&db, &vo);
        let mut back = load_vo(&db, "PersistVO").unwrap();
        let old_max = vo.members()[0].certificate.serial;
        assert!(back.next_serial() > old_max);
    }

    #[test]
    fn tampered_certificate_detected_after_reload() {
        let (vo, _clock) = formed();
        let doc = vo_to_xml(&vo);
        let text = trust_vo_xmldoc::to_string(&doc).replace("Storage", "Sabotage");
        let back = vo_from_xml(&trust_vo_xmldoc::parse(&text).unwrap()).unwrap();
        assert!(back.members()[0].certificate.verify_signature().is_err());
    }

    #[test]
    fn wrong_vo_key_rejected() {
        let (vo, _clock) = formed();
        let mut doc = vo_to_xml(&vo);
        doc.set_attr("voPublicKey", "0000000000000001");
        assert!(vo_from_xml(&doc).is_err());
    }

    #[test]
    fn malformed_documents_rejected() {
        for text in [
            "<notVo/>",
            r#"<virtualOrganization/>"#,
            r#"<virtualOrganization name="x" initiator="i" voPublicKey="zz"/>"#,
        ] {
            let doc = trust_vo_xmldoc::parse(text).unwrap();
            assert!(vo_from_xml(&doc).is_err(), "{text}");
        }
        let db = Database::new();
        assert!(load_vo(&db, "ghost").is_err());
    }

    #[test]
    fn invalid_lifecycle_history_rejected() {
        let (vo, _clock) = formed();
        let mut doc = vo_to_xml(&vo);
        // Corrupt the history: drop the first transition so it starts at
        // identification.
        let lc = doc
            .children
            .iter_mut()
            .filter_map(|c| match c {
                Node::Element(e) if e.name == "lifecycle" => Some(e),
                _ => None,
            })
            .next()
            .unwrap();
        lc.children.remove(0);
        assert!(vo_from_xml(&doc).is_err());
    }
}
