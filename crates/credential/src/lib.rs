//! X-TNL credentials and the credential infrastructure of Trust-X.
//!
//! In the paper (§4.1), a *credential* is "a set of identity attributes of a
//! party issued by a Credential Authority (CA)", all of a party's
//! credentials are collected into its *X-Profile*, and during the credential
//! exchange phase the receiver "verifies the satisfaction of the associated
//! policies, checks for revocation and validity dates, and authenticates
//! the ownership".
//!
//! This crate provides every piece of that infrastructure:
//!
//! * [`time`] — a wall-clock-free timestamp (civil date ↔ epoch seconds)
//!   so validity windows are reproducible in tests and benches,
//! * [`attribute`] — typed attribute values,
//! * [`types`] — credential-type schemas,
//! * [`credential`] — the X-TNL credential (`<header>`, `<content>`,
//!   `<signature>`) with canonical-XML signing,
//! * [`authority`] — credential authorities that issue and revoke,
//! * [`revocation`] — revocation lists,
//! * [`profile`] — X-Profiles with sensitivity labels (the paper's
//!   {low, medium, high} clustering input for Algorithm 1),
//! * [`chain`] — credential chains ("retrieving those credentials that are
//!   not immediately available through credentials chains", §4.2),
//! * [`x509`] — X.509 v2-style attribute certificates, the format the VO
//!   toolkit uses for membership certificates (§6.3),
//! * [`selective`] — the paper's §6.3 proposed extension: hash-commitment
//!   attributes enabling selective disclosure on attribute certificates,
//! * [`verified`] — the cross-negotiation verified-credential cache that
//!   memoizes *successful* signature checks (revocation and validity
//!   windows are never cached).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribute;
pub mod authority;
pub mod chain;
pub mod credential;
pub mod error;
pub mod profile;
pub mod revocation;
pub mod selective;
pub mod sensitivity;
pub mod time;
pub mod types;
pub mod verified;
pub mod x509;

pub use attribute::{AttrValue, Attribute};
pub use authority::CredentialAuthority;
pub use credential::{Credential, CredentialDocument, CredentialId, Header};
pub use error::CredentialError;
pub use profile::XProfile;
pub use revocation::RevocationList;
pub use sensitivity::Sensitivity;
pub use time::{TimeRange, Timestamp};
pub use types::CredentialType;
pub use verified::{VerifiedCache, VerifiedCacheStats, VerifiedKey};
