//! The VO Management toolkit with integrated trust negotiation.
//!
//! Implements the five lifecycle phases of §2 — Preparation,
//! Identification, Formation, Operation, Dissolution — and the three
//! TN interaction points of §5.1:
//!
//! * **Identification**: the VO Initiator authors per-role disclosure
//!   policies for the upcoming negotiations.
//! * **Formation**: the Initiator invites candidates; acceptance triggers a
//!   *mutual* trust negotiation; success yields an X.509v2 membership
//!   certificate carrying the VO public key; failure removes the candidate
//!   and the Initiator "looks for other potential members".
//! * **Operation**: members interact under the contract's collaboration
//!   rules; credential expiry or revocation triggers re-negotiation whose
//!   result "is not a credential, but … an authorization to execute the
//!   next VO operations"; contract violations lower reputation and can
//!   lead to member replacement (again via TN).
//!
//! Modules: [`contract`] (roles, requirements, collaboration rules),
//! [`registry`] (the Preparation-phase public repository), [`member`]
//! (service providers and their editions), [`mailbox`] (invitations),
//! [`reputation`], [`lifecycle`] (the phase state machine), [`formation`]
//! (the one formation driver, [`Formation`], with [`admitted`] admission
//! control and the [`resilient`] TN-service source), [`operation`],
//! [`dissolution`], [`toolkit`] (Host/Initiator/Member edition facade),
//! and [`scenario`] (the Aircraft Optimization VO of §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admitted;
pub mod contract;
pub mod dissolution;
pub mod error;
pub mod formation;
pub mod lifecycle;
pub mod mailbox;
pub mod member;
pub mod operation;
pub mod persist;
pub mod registry;
pub mod reputation;
pub mod resilient;
pub mod scenario;
pub mod service;
pub mod toolkit;
pub mod workflow;

pub use admitted::AdmissionControl;
pub use contract::{CollaborationRule, Contract, Role};
pub use error::VoError;
pub use formation::{
    audit_members, create_vo, form_vo, join_member, Formation, FormedVo, NegotiationSource,
};
pub use lifecycle::{Phase, VoLifecycle};
pub use member::{MemberRecord, ServiceProvider};
pub use registry::{ResourceDescription, ServiceRegistry};
pub use reputation::ReputationLedger;
pub use resilient::{
    controller_name, form_vo_resilient_admitted, register_formation_parties, FormationResilience,
    ServiceSource,
};
pub use scenario::AircraftScenario;
pub use toolkit::VoToolkit;
