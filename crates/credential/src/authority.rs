//! Credential authorities.
//!
//! "A credential is a set of identity attributes of a party issued by a
//! Credential Authority (CA)" (§4.1). An authority owns a key pair,
//! validates content against the credential-type schema, assigns unique
//! credential ids, signs, and maintains the revocation list consulted at
//! exchange time. The paper's scenario features authorities such as INFN
//! (the ISO-9000 certifier) and the American Aircraft Association.

use crate::attribute::Attribute;
use crate::credential::{Credential, CredentialId, Header};
use crate::error::CredentialError;
use crate::revocation::RevocationList;
use crate::time::{TimeRange, Timestamp};
use crate::types::CredentialType;
use std::collections::HashMap;
use trust_vo_crypto::{KeyPair, PublicKey};

/// A credential authority: issues, tracks, and revokes credentials.
#[derive(Debug, Clone)]
pub struct CredentialAuthority {
    /// Display name, e.g. `"INFN"`.
    pub name: String,
    keys: KeyPair,
    /// Registered type schemas, by type name.
    schemas: HashMap<String, CredentialType>,
    /// Revocations published by this authority.
    crl: RevocationList,
    issued: u64,
}

impl CredentialAuthority {
    /// Create an authority with keys derived deterministically from its name.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let keys = KeyPair::from_seed(format!("authority:{name}").as_bytes());
        CredentialAuthority {
            name,
            keys,
            schemas: HashMap::new(),
            crl: RevocationList::new(),
            issued: 0,
        }
    }

    /// The authority's verification key, distributed to relying parties.
    pub fn public_key(&self) -> PublicKey {
        self.keys.public
    }

    /// Register a credential-type schema this authority is willing to certify.
    pub fn register_type(&mut self, schema: CredentialType) {
        self.schemas.insert(schema.name.clone(), schema);
    }

    /// The authority's current revocation list.
    pub fn revocation_list(&self) -> &RevocationList {
        &self.crl
    }

    /// Issue a credential of `cred_type` to `subject`.
    ///
    /// If a schema is registered for the type the content is validated
    /// against it; unknown types are treated as open (the paper's scenario
    /// defines types informally).
    pub fn issue(
        &mut self,
        cred_type: &str,
        subject: &str,
        subject_key: PublicKey,
        content: Vec<Attribute>,
        validity: TimeRange,
    ) -> Result<Credential, CredentialError> {
        if let Some(schema) = self.schemas.get(cred_type) {
            schema.validate(&content)?;
        }
        self.issued += 1;
        let cred_id = CredentialId(format!("{}-{:06}", slug(&self.name), self.issued));
        let header = Header {
            cred_id,
            cred_type: cred_type.to_owned(),
            issuer: self.name.clone(),
            issuer_key: self.keys.public,
            subject: subject.to_owned(),
            subject_key,
            validity,
        };
        Ok(Credential::issue_signed(header, content, &self.keys))
    }

    /// Revoke a credential this authority issued.
    pub fn revoke(&mut self, id: CredentialId, at: Timestamp) {
        self.crl.revoke(id, at);
    }
}

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AttrKind;

    fn subject_keys() -> KeyPair {
        KeyPair::from_seed(b"subject")
    }

    fn window() -> TimeRange {
        TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 10, 26, 0, 0, 0))
    }

    #[test]
    fn issue_produces_verifiable_credential() {
        let mut ca = CredentialAuthority::new("INFN");
        let cred = ca
            .issue(
                "ISO9000Certified",
                "Aerospace Company",
                subject_keys().public,
                vec![Attribute::new("QualityRegulation", "UNI EN ISO 9000")],
                window(),
            )
            .unwrap();
        assert!(cred.verify_signature().is_ok());
        assert_eq!(cred.header().issuer, "INFN");
        assert_eq!(cred.header().issuer_key, ca.public_key());
    }

    #[test]
    fn ids_are_unique_and_prefixed() {
        let mut ca = CredentialAuthority::new("AAA Certifier");
        let c1 = ca
            .issue("T", "s", subject_keys().public, vec![], window())
            .unwrap();
        let c2 = ca
            .issue("T", "s", subject_keys().public, vec![], window())
            .unwrap();
        assert_ne!(c1.id(), c2.id());
        assert!(c1.id().0.starts_with("aaa-certifier-"));
    }

    #[test]
    fn schema_enforced_when_registered() {
        let mut ca = CredentialAuthority::new("INFN");
        ca.register_type(
            CredentialType::new("ISO9000Certified").required("QualityRegulation", AttrKind::Str),
        );
        let err = ca
            .issue(
                "ISO9000Certified",
                "s",
                subject_keys().public,
                vec![],
                window(),
            )
            .unwrap_err();
        assert!(matches!(err, CredentialError::SchemaViolation { .. }));
        // Unregistered types stay open.
        assert!(ca
            .issue(
                "SomethingElse",
                "s",
                subject_keys().public,
                vec![],
                window()
            )
            .is_ok());
    }

    #[test]
    fn revocation_flows_to_verification() {
        let mut ca = CredentialAuthority::new("INFN");
        let cred = ca
            .issue("T", "s", subject_keys().public, vec![], window())
            .unwrap();
        let at = window().not_before.plus_days(10);
        assert!(cred.verify(at, Some(ca.revocation_list())).is_ok());
        ca.revoke(cred.id().clone(), at);
        assert!(matches!(
            cred.verify(at, Some(ca.revocation_list())),
            Err(CredentialError::Revoked { .. })
        ));
    }

    #[test]
    fn different_authorities_have_different_keys() {
        let a = CredentialAuthority::new("A");
        let b = CredentialAuthority::new("B");
        assert_ne!(a.public_key(), b.public_key());
        // Deterministic: same name, same key.
        assert_eq!(a.public_key(), CredentialAuthority::new("A").public_key());
    }
}
