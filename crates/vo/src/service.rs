//! The VO Management web service (paper Fig. 5 / §6.1).
//!
//! "The VO Management toolkit is a Web-based application … built over a
//! SOA combining several Web services for managing VOs" — and the TN
//! system "is integrated as part of the VO Management tool, and invoked as
//! a web service when needed" (§6). This endpoint exposes the toolkit's
//! edition operations over the same [`ServiceBus`] the TN service runs
//! on:
//!
//! [`ServiceBus`]: trust_vo_soa::bus::ServiceBus
//!
//! | operation        | edition   | §6.1 behaviour                         |
//! |------------------|-----------|----------------------------------------|
//! | `RegisterMember` | Host      | member registration + publication       |
//! | `ListServices`   | Host      | "the list of services that are available"|
//! | `ListActiveVos`  | Host      | "shows the active VO"                   |
//! | `CreateVo`       | Initiator | contract + per-role policies → formation|
//! | `MonitorVo`      | Host      | the VO monitoring snapshot              |
//! | `ReadMailbox`    | Member    | pending invitations                     |
//!
//! Contracts arrive as XML (`<contract>` with `<role>` children and
//! per-role `<policies>` holding X-TNL policy documents), so an external
//! tool can drive a full formation without linking against the library.

use crate::contract::{Contract, Role};
use crate::error::VoError;
use crate::formation::FormedVo;
use crate::member::ServiceProvider;
use crate::registry::ResourceDescription;
use crate::toolkit::VoToolkit;
use parking_lot::Mutex;
use trust_vo_credential::RevocationList;
use trust_vo_negotiation::{Party, Strategy};
use trust_vo_policy::xml::policy_from_xml;
use trust_vo_policy::PolicySet;
use trust_vo_soa::bus::ServiceEndpoint;
use trust_vo_soa::envelope::{Envelope, Fault};
use trust_vo_soa::Body;
use trust_vo_xmldoc::{Element, Node};

/// The VO Management service endpoint: a thread-safe facade over a
/// [`VoToolkit`] plus the VOs formed through it.
pub struct VoManagementService {
    state: Mutex<ServiceState>,
}

struct ServiceState {
    toolkit: VoToolkit,
    vos: Vec<FormedVo>,
}

impl VoManagementService {
    /// Wrap a toolkit.
    pub fn new(toolkit: VoToolkit) -> Self {
        VoManagementService {
            state: Mutex::new(ServiceState {
                toolkit,
                vos: Vec::new(),
            }),
        }
    }

    /// Run `f` with the underlying toolkit (test/setup access).
    pub fn with_toolkit<R>(&self, f: impl FnOnce(&mut VoToolkit) -> R) -> R {
        f(&mut self.state.lock().toolkit)
    }

    /// A snapshot of a formed VO by name.
    pub fn vo(&self, name: &str) -> Option<FormedVo> {
        self.state
            .lock()
            .vos
            .iter()
            .find(|v| v.name == name)
            .cloned()
    }

    fn register_member(&self, request: &Envelope) -> Result<Envelope, Fault> {
        let body = document(request)?;
        let name = body
            .get_attr("name")
            .ok_or_else(|| Fault::new("BadRequest", "RegisterMember missing name attribute"))?
            .to_owned();
        let mut descriptions = Vec::new();
        for d in body.all("resource") {
            let capability = d
                .get_attr("capability")
                .ok_or_else(|| Fault::new("BadRequest", "<resource> missing capability"))?;
            let interaction = d.get_attr("interaction").unwrap_or("");
            let quality: f64 = d
                .get_attr("quality")
                .unwrap_or("0.5")
                .parse()
                .map_err(|_| Fault::new("BadRequest", "bad quality value"))?;
            descriptions.push(ResourceDescription::new(
                &name,
                capability,
                interaction,
                quality,
            ));
        }
        let mut state = self.state.lock();
        // An externally registered member starts with an empty profile;
        // richer parties are installed via `with_toolkit` (the GUI path).
        if !state.toolkit.providers.contains_key(&name) {
            let party = Party::new(name.clone());
            state
                .toolkit
                .host_register(ServiceProvider::new(party), descriptions);
        } else {
            for d in descriptions {
                state.toolkit.registry.publish(d);
            }
        }
        Ok(message(
            "RegisterMemberResponse",
            Element::new("RegisterMemberResponse").attr("member", &name),
        ))
    }

    fn list_services(&self) -> Envelope {
        let state = self.state.lock();
        let mut body = Element::new("ListServicesResponse");
        for d in state.toolkit.host_available_services() {
            body.children.push(Node::Element(
                Element::new("service")
                    .attr("provider", &d.provider)
                    .attr("capability", &d.capability)
                    .attr("quality", format!("{:.2}", d.quality)),
            ));
        }
        message("ListServicesResponse", body)
    }

    fn list_active_vos(&self) -> Envelope {
        let state = self.state.lock();
        let mut body = Element::new("ListActiveVosResponse");
        for name in state.toolkit.host_active_vos() {
            body.children
                .push(Node::Element(Element::new("vo").attr("name", name)));
        }
        message("ListActiveVosResponse", body)
    }

    fn parse_contract(body: &Element) -> Result<Contract, Fault> {
        let contract_el = body
            .first("contract")
            .ok_or_else(|| Fault::new("BadRequest", "CreateVo missing <contract>"))?;
        let vo_name = contract_el
            .get_attr("name")
            .ok_or_else(|| Fault::new("BadRequest", "<contract> missing name"))?;
        let goal = contract_el.get_attr("goal").unwrap_or("");
        let mut contract = Contract::new(vo_name, goal);
        for role_el in contract_el.all("role") {
            let role_name = role_el
                .get_attr("name")
                .ok_or_else(|| Fault::new("BadRequest", "<role> missing name"))?;
            let capability = role_el
                .get_attr("capability")
                .ok_or_else(|| Fault::new("BadRequest", "<role> missing capability"))?;
            contract.roles.push(Role::new(
                role_name,
                capability,
                role_el.get_attr("requirements").unwrap_or(""),
            ));
            if let Some(policies_el) = role_el.first("policies") {
                let mut set = PolicySet::new();
                for policy_el in policies_el.all("policy") {
                    let policy = policy_from_xml(policy_el)
                        .map_err(|e| Fault::new("BadPolicy", e.to_string()))?;
                    set.add(policy);
                }
                contract.set_role_policies(role_name, set);
            }
        }
        Ok(contract)
    }

    fn create_vo(&self, request: &Envelope) -> Result<Envelope, Fault> {
        let body = document(request)?;
        let initiator = body
            .get_attr("initiator")
            .ok_or_else(|| Fault::new("BadRequest", "CreateVo missing initiator"))?
            .to_owned();
        let strategy = body
            .get_attr("strategy")
            .and_then(Strategy::from_wire_name)
            .unwrap_or(Strategy::Standard);
        let contract = Self::parse_contract(body)?;
        let mut state = self.state.lock();
        match state
            .toolkit
            .initiator_form_vo(contract, &initiator, strategy, None)
        {
            Ok(vo) => {
                let mut resp = Element::new("CreateVoResponse")
                    .attr("vo", &vo.name)
                    .attr("members", vo.members().len().to_string());
                for m in vo.members() {
                    resp.children.push(Node::Element(
                        Element::new("member")
                            .attr("provider", &m.provider)
                            .attr("role", &m.role)
                            .attr("serial", m.certificate.serial.to_string()),
                    ));
                }
                state.vos.push(vo);
                Ok(message("CreateVoResponse", resp))
            }
            Err(VoError::Negotiation(e)) => Err(Fault::new("NegotiationFailed", e.to_string())),
            Err(e) => Err(Fault::new("FormationFailed", e.to_string())),
        }
    }

    fn monitor_vo(&self, request: &Envelope) -> Result<Envelope, Fault> {
        let name = document(request)?
            .get_attr("vo")
            .ok_or_else(|| Fault::new("BadRequest", "MonitorVo missing vo attribute"))?;
        let state = self.state.lock();
        let vo = state
            .vos
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| Fault::new("NoSuchVo", format!("VO '{name}' unknown")))?;
        let report = state.toolkit.host_monitor(
            vo,
            &RevocationList::new(),
            crate::operation::REPLACEMENT_THRESHOLD,
        );
        let mut body = Element::new("MonitorVoResponse")
            .attr("vo", &report.vo_name)
            .attr("phase", report.phase.to_string())
            .attr("members", report.members.to_string());
        for m in &report.invalid_memberships {
            body.children
                .push(Node::Element(Element::new("invalidMembership").text(m)));
        }
        for m in &report.below_threshold {
            body.children
                .push(Node::Element(Element::new("belowThreshold").text(m)));
        }
        Ok(message("MonitorVoResponse", body))
    }

    fn read_mailbox(&self, request: &Envelope) -> Result<Envelope, Fault> {
        let member = document(request)?
            .get_attr("member")
            .ok_or_else(|| Fault::new("BadRequest", "ReadMailbox missing member attribute"))?;
        let state = self.state.lock();
        let mut body = Element::new("ReadMailboxResponse").attr("member", member);
        for invitation in state.toolkit.mailboxes.read(member) {
            body.children.push(Node::Element(
                Element::new("invitation")
                    .attr("vo", &invitation.vo_name)
                    .attr("role", &invitation.role)
                    .attr("from", &invitation.from)
                    .text(&invitation.text),
            ));
        }
        Ok(message("ReadMailboxResponse", body))
    }
}

/// The request's document: every operation of this service takes one.
fn document(request: &Envelope) -> Result<&Element, Fault> {
    match &*request.body {
        Body::Document(doc) => Ok(doc.root()),
        other => Err(Fault::new(
            "BadRequest",
            format!("'{}' carries no document", other.operation()),
        )),
    }
}

/// An envelope under `operation` carrying `root`.
fn message(operation: &str, root: Element) -> Envelope {
    Envelope::new(Body::document(operation, root).expect("a VO operation is not a TN message"))
}

impl ServiceEndpoint for VoManagementService {
    fn handle(&self, request: &Envelope) -> Result<Envelope, Fault> {
        match request.operation() {
            "RegisterMember" => self.register_member(request),
            "ListServices" => Ok(self.list_services()),
            "ListActiveVos" => Ok(self.list_active_vos()),
            "CreateVo" => self.create_vo(request),
            "MonitorVo" => self.monitor_vo(request),
            "ReadMailbox" => self.read_mailbox(request),
            other => Err(Fault::new(
                "NoSuchOperation",
                format!("operation '{other}' not supported"),
            )),
        }
    }

    fn operations(&self) -> Vec<String> {
        [
            "RegisterMember",
            "ListServices",
            "ListActiveVos",
            "CreateVo",
            "MonitorVo",
            "ReadMailbox",
        ]
        .into_iter()
        .map(str::to_owned)
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trust_vo_credential::{CredentialAuthority, TimeRange, Timestamp};
    use trust_vo_policy::{xml::policy_to_xml, DisclosurePolicy, Resource, Term};
    use trust_vo_soa::bus::ServiceBus;
    use trust_vo_soa::simclock::{CostModel, SimClock};

    fn service() -> (ServiceBus, Arc<VoManagementService>) {
        let clock = SimClock::new(
            CostModel::paper_testbed(),
            Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
        );
        let toolkit = VoToolkit::new(clock.clone());
        let svc = Arc::new(VoManagementService::new(toolkit));
        // Install credentialed parties through the GUI path.
        svc.with_toolkit(|tk| {
            let mut ca = CredentialAuthority::new("CA");
            let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
            let mut initiator = Party::new("Aircraft");
            initiator.trust_root(ca.public_key());
            tk.host_register(ServiceProvider::new(initiator), vec![]);
            let mut member = Party::new("StoreCo");
            let sla = ca
                .issue("StorageSla", "StoreCo", member.keys.public, vec![], window)
                .unwrap();
            member.profile.add(sla);
            member.trust_root(ca.public_key());
            tk.host_register(
                ServiceProvider::new(member),
                vec![ResourceDescription::new(
                    "StoreCo",
                    "storage",
                    "soap://store",
                    0.9,
                )],
            );
        });
        let bus = ServiceBus::new(clock);
        bus.register("vo-mgmt", svc.clone());
        (bus, svc)
    }

    fn create_vo_request() -> Envelope {
        let policy = DisclosurePolicy::rule(
            "p",
            Resource::service("VoMembership"),
            vec![Term::of_type("StorageSla")],
        );
        let body = Element::new("CreateVoRequest")
            .attr("initiator", "Aircraft")
            .attr("strategy", "standard")
            .child(
                Element::new("contract")
                    .attr("name", "SvcVO")
                    .attr("goal", "store data")
                    .child(
                        Element::new("role")
                            .attr("name", "Storage")
                            .attr("capability", "storage")
                            .child(Element::new("policies").child(policy_to_xml(&policy))),
                    ),
            );
        message("CreateVo", body)
    }

    #[test]
    fn full_service_driven_formation() {
        let (bus, svc) = service();
        let resp = bus.call("vo-mgmt", &create_vo_request()).unwrap();
        let resp = resp.body.to_xml();
        assert_eq!(resp.get_attr("vo"), Some("SvcVO"));
        assert_eq!(resp.get_attr("members"), Some("1"));
        let member = resp.first("member").unwrap();
        assert_eq!(member.get_attr("provider"), Some("StoreCo"));
        // The VO is queryable afterwards.
        let vo = svc.vo("SvcVO").unwrap();
        assert!(vo.is_member("StoreCo"));
    }

    #[test]
    fn list_and_monitor_operations() {
        let (bus, _svc) = service();
        let services = bus
            .call("vo-mgmt", &message("ListServices", Element::new("x")))
            .unwrap();
        assert_eq!(services.body.to_xml().all("service").count(), 1);
        bus.call("vo-mgmt", &create_vo_request()).unwrap();
        let vos = bus
            .call("vo-mgmt", &message("ListActiveVos", Element::new("x")))
            .unwrap();
        assert_eq!(vos.body.to_xml().all("vo").count(), 1);
        let monitor = bus
            .call(
                "vo-mgmt",
                &message("MonitorVo", Element::new("m").attr("vo", "SvcVO")),
            )
            .unwrap();
        assert_eq!(monitor.body.to_xml().get_attr("phase"), Some("operation"));
        assert_eq!(monitor.body.to_xml().all("invalidMembership").count(), 0);
    }

    #[test]
    fn register_member_via_service() {
        let (bus, svc) = service();
        let resp = bus
            .call(
                "vo-mgmt",
                &message(
                    "RegisterMember",
                    Element::new("r").attr("name", "NewCo").child(
                        Element::new("resource")
                            .attr("capability", "hpc-compute")
                            .attr("interaction", "soap://newco")
                            .attr("quality", "0.8"),
                    ),
                ),
            )
            .unwrap();
        assert_eq!(resp.body.to_xml().get_attr("member"), Some("NewCo"));
        svc.with_toolkit(|tk| {
            assert!(tk.providers.contains_key("NewCo"));
            assert_eq!(tk.registry.find_by_capability("hpc-compute").len(), 1);
        });
    }

    #[test]
    fn faults_for_bad_requests() {
        let (bus, _svc) = service();
        let err = bus
            .call("vo-mgmt", &message("CreateVo", Element::new("x")))
            .unwrap_err();
        assert_eq!(err.code, "BadRequest");
        let err = bus
            .call(
                "vo-mgmt",
                &message("MonitorVo", Element::new("m").attr("vo", "Ghost")),
            )
            .unwrap_err();
        assert_eq!(err.code, "NoSuchVo");
        let err = bus
            .call("vo-mgmt", &message("Frobnicate", Element::new("x")))
            .unwrap_err();
        assert_eq!(err.code, "NoSuchOperation");
        // Unfillable role → FormationFailed fault, not a panic.
        let body = Element::new("CreateVoRequest")
            .attr("initiator", "Aircraft")
            .child(
                Element::new("contract").attr("name", "BadVO").child(
                    Element::new("role")
                        .attr("name", "R")
                        .attr("capability", "quantum"),
                ),
            );
        let err = bus.call("vo-mgmt", &message("CreateVo", body)).unwrap_err();
        assert_eq!(err.code, "FormationFailed");
    }

    #[test]
    fn mailbox_readable_over_the_service() {
        let (bus, svc) = service();
        svc.with_toolkit(|tk| {
            tk.mailboxes.deliver(
                "StoreCo",
                crate::mailbox::Invitation {
                    vo_name: "SvcVO".into(),
                    role: "Storage".into(),
                    from: "Aircraft".into(),
                    text: "join us".into(),
                },
            );
        });
        let resp = bus
            .call(
                "vo-mgmt",
                &message("ReadMailbox", Element::new("m").attr("member", "StoreCo")),
            )
            .unwrap();
        assert_eq!(resp.body.to_xml().all("invitation").count(), 1);
    }
}
