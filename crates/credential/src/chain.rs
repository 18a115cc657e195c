//! Credential chains.
//!
//! During the credential exchange phase, parties may need to "eventually
//! retrieve those credentials that are not immediately available through
//! credentials chains" (§4.2): the issuer of a presented credential may
//! itself be certified by another credential, and so on up to an authority
//! the verifier trusts directly.
//!
//! A chain `c₀, c₁, …, cₙ` is **well-formed** when `c₀` is issued by a
//! trusted root key and, for each subsequent link, the issuer key of `cᵢ`
//! equals the subject key of `cᵢ₋₁` (the previous credential certifies the
//! next issuer). Every link must also pass the ordinary per-credential
//! checks (signature, validity, revocation).

use crate::credential::Credential;
use crate::error::CredentialError;
use crate::revocation::RevocationList;
use crate::time::Timestamp;
use crate::verified::VerifiedCache;
use std::collections::{HashMap, HashSet, VecDeque};
use trust_vo_crypto::PublicKey;

/// Verify a chain ending at the target credential (`chain.last()`).
///
/// `crl` is consulted for every link; pass the union of the relevant
/// authorities' lists.
///
/// Structural, validity, and revocation checks run per link first (these
/// are cheap and never cached); the signature checks are then answered
/// from the [`VerifiedCache`] where possible, and every miss is verified
/// on its own, so the error names the first bad link. A verified link is
/// inserted into the cache; a failed one never is.
pub fn verify_chain(
    chain: &[Credential],
    trusted_roots: &[PublicKey],
    at: Timestamp,
    crl: Option<&RevocationList>,
) -> Result<(), CredentialError> {
    let first = chain
        .first()
        .ok_or_else(|| CredentialError::BrokenChain("empty chain".into()))?;
    if !trusted_roots.contains(&first.header().issuer_key) {
        return Err(CredentialError::BrokenChain(format!(
            "chain root issuer '{}' is not trusted",
            first.header().issuer
        )));
    }
    for (i, cred) in chain.iter().enumerate() {
        cred.verify_nonsig(at, crl)?;
        if i > 0 {
            let prev = &chain[i - 1];
            if cred.header().issuer_key != prev.header().subject_key {
                return Err(CredentialError::BrokenChain(format!(
                    "link {i}: issuer of '{}' is not certified by '{}'",
                    cred.id(),
                    prev.id()
                )));
            }
        }
    }
    // Signature pass: each link is looked up once; the misses are
    // verified from their stored bytes without a second lookup.
    let cache = VerifiedCache::global();
    let pending: Vec<&Credential> = chain
        .iter()
        .filter(|cred| !cache.check(&cred.verified_key()))
        .collect();
    pending
        .iter()
        .try_for_each(|cred| cred.verify_uncached(cache))
}

/// A directory of credentials known to a party, used to build chains for
/// credentials whose issuers are not directly trusted.
#[derive(Debug, Clone, Default)]
pub struct ChainDirectory {
    creds: Vec<Credential>,
}

impl ChainDirectory {
    /// Create an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a credential that can serve as an intermediate link.
    pub fn add(&mut self, cred: Credential) {
        self.creds.push(cred);
    }

    /// Number of directory entries.
    pub fn len(&self) -> usize {
        self.creds.len()
    }

    /// True when the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.creds.is_empty()
    }

    /// Find the shortest chain from a trusted root to `target` by breadth-
    /// first search over "subject-key certifies issuer-key" edges. The
    /// returned chain includes `target` as its last element. Returns `None`
    /// when no chain exists.
    ///
    /// Candidate links are found through a subject-key index built once
    /// per call and visited keys are tracked in hash sets, so resolution
    /// is linear in the credentials actually reachable rather than
    /// quadratic in the directory size.
    pub fn resolve(
        &self,
        target: &Credential,
        trusted_roots: &[PublicKey],
    ) -> Option<Vec<Credential>> {
        // Trivial case: the target's issuer is directly trusted.
        if trusted_roots.contains(&target.header().issuer_key) {
            return Some(vec![target.clone()]);
        }
        // Index once: subject key → directory entries certifying it.
        let mut by_subject: HashMap<u64, Vec<usize>> = HashMap::new();
        for (idx, cred) in self.creds.iter().enumerate() {
            by_subject
                .entry(cred.header().subject_key.0)
                .or_default()
                .push(idx);
        }
        let roots: HashSet<u64> = trusted_roots.iter().map(|k| k.0).collect();
        // BFS backwards: we need a credential whose subject key is the
        // target's issuer key; its own issuer then needs certification, etc.
        struct State {
            need: PublicKey,
            suffix: Vec<usize>, // indices into self.creds, target-most last
            suffix_members: HashSet<usize>, // same indices, for O(1) cycle checks
        }
        let mut queue = VecDeque::new();
        queue.push_back(State {
            need: target.header().issuer_key,
            suffix: Vec::new(),
            suffix_members: HashSet::new(),
        });
        let mut seen: HashSet<u64> = HashSet::new();
        seen.insert(target.header().issuer_key.0);
        while let Some(state) = queue.pop_front() {
            let Some(candidates) = by_subject.get(&state.need.0) else {
                continue;
            };
            for &idx in candidates {
                let cred = &self.creds[idx];
                if state.suffix_members.contains(&idx) {
                    continue;
                }
                let mut suffix = state.suffix.clone();
                suffix.push(idx);
                if roots.contains(&cred.header().issuer_key.0) {
                    // Found a root-issued link; assemble root → … → target.
                    let mut chain: Vec<Credential> = suffix
                        .iter()
                        .rev()
                        .map(|&i| self.creds[i].clone())
                        .collect();
                    chain.push(target.clone());
                    return Some(chain);
                }
                if seen.insert(cred.header().issuer_key.0) {
                    let mut suffix_members = state.suffix_members.clone();
                    suffix_members.insert(idx);
                    queue.push_back(State {
                        need: cred.header().issuer_key,
                        suffix,
                        suffix_members,
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::credential::{CredentialId, Header};
    use crate::time::TimeRange;
    use trust_vo_crypto::KeyPair;

    fn window() -> TimeRange {
        TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0))
    }

    fn at() -> Timestamp {
        Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0)
    }

    /// Issue a credential from `issuer` keys to `subject` keys.
    fn issue(
        id: &str,
        ty: &str,
        issuer: &KeyPair,
        issuer_name: &str,
        subject: &KeyPair,
        subject_name: &str,
    ) -> Credential {
        let header = Header {
            cred_id: CredentialId(id.into()),
            cred_type: ty.into(),
            issuer: issuer_name.into(),
            issuer_key: issuer.public,
            subject: subject_name.into(),
            subject_key: subject.public,
            validity: window(),
        };
        Credential::issue_signed(header, vec![Attribute::new("k", "v")], issuer)
    }

    #[test]
    fn single_link_chain_with_trusted_root() {
        let root = KeyPair::from_seed(b"root");
        let holder = KeyPair::from_seed(b"holder");
        let cred = issue("c1", "T", &root, "Root CA", &holder, "Holder");
        assert!(verify_chain(&[cred], &[root.public], at(), None).is_ok());
    }

    #[test]
    fn untrusted_root_rejected() {
        let rogue = KeyPair::from_seed(b"rogue");
        let holder = KeyPair::from_seed(b"holder");
        let cred = issue("c1", "T", &rogue, "Rogue", &holder, "Holder");
        let err =
            verify_chain(&[cred], &[KeyPair::from_seed(b"root").public], at(), None).unwrap_err();
        assert!(matches!(err, CredentialError::BrokenChain(_)));
    }

    #[test]
    fn two_link_chain() {
        let root = KeyPair::from_seed(b"root");
        let intermediate = KeyPair::from_seed(b"intermediate");
        let holder = KeyPair::from_seed(b"holder");
        // Root certifies the intermediate CA; intermediate issues to holder.
        let link = issue(
            "ca-cert",
            "CACert",
            &root,
            "Root CA",
            &intermediate,
            "Mid CA",
        );
        let target = issue("c1", "T", &intermediate, "Mid CA", &holder, "Holder");
        assert!(verify_chain(&[link.clone(), target.clone()], &[root.public], at(), None).is_ok());
        // Out of order is broken.
        assert!(verify_chain(&[target, link], &[root.public], at(), None).is_err());
    }

    #[test]
    fn gap_in_chain_rejected() {
        let root = KeyPair::from_seed(b"root");
        let other = KeyPair::from_seed(b"other");
        let holder = KeyPair::from_seed(b"holder");
        let link = issue("ca-cert", "CACert", &root, "Root CA", &other, "Other");
        // Target's issuer is NOT `other`.
        let stranger = KeyPair::from_seed(b"stranger");
        let target = issue("c1", "T", &stranger, "Stranger", &holder, "Holder");
        let err = verify_chain(&[link, target], &[root.public], at(), None).unwrap_err();
        assert!(matches!(err, CredentialError::BrokenChain(_)));
    }

    #[test]
    fn revoked_link_breaks_chain() {
        let root = KeyPair::from_seed(b"root");
        let mid = KeyPair::from_seed(b"mid");
        let holder = KeyPair::from_seed(b"holder");
        let link = issue("ca-cert", "CACert", &root, "Root CA", &mid, "Mid");
        let target = issue("c1", "T", &mid, "Mid", &holder, "Holder");
        let mut crl = RevocationList::new();
        crl.revoke(link.id().clone(), Timestamp(0));
        let err = verify_chain(&[link, target], &[root.public], at(), Some(&crl)).unwrap_err();
        assert!(matches!(err, CredentialError::Revoked { .. }));
    }

    #[test]
    fn resolver_finds_multi_link_chain() {
        let root = KeyPair::from_seed(b"root");
        let mid1 = KeyPair::from_seed(b"mid1");
        let mid2 = KeyPair::from_seed(b"mid2");
        let holder = KeyPair::from_seed(b"holder");
        let mut dir = ChainDirectory::new();
        dir.add(issue("l1", "CACert", &root, "Root", &mid1, "Mid1"));
        dir.add(issue("l2", "CACert", &mid1, "Mid1", &mid2, "Mid2"));
        // Noise entry that leads nowhere.
        dir.add(issue(
            "noise",
            "CACert",
            &KeyPair::from_seed(b"x"),
            "X",
            &KeyPair::from_seed(b"y"),
            "Y",
        ));
        let target = issue("c1", "T", &mid2, "Mid2", &holder, "Holder");
        let chain = dir.resolve(&target, &[root.public]).expect("chain found");
        assert_eq!(chain.len(), 3);
        assert!(verify_chain(&chain, &[root.public], at(), None).is_ok());
    }

    #[test]
    fn resolver_trivial_when_directly_trusted() {
        let root = KeyPair::from_seed(b"root");
        let holder = KeyPair::from_seed(b"holder");
        let target = issue("c1", "T", &root, "Root", &holder, "Holder");
        let chain = ChainDirectory::new()
            .resolve(&target, &[root.public])
            .unwrap();
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn resolver_returns_none_when_unreachable() {
        let root = KeyPair::from_seed(b"root");
        let stranger = KeyPair::from_seed(b"stranger");
        let holder = KeyPair::from_seed(b"holder");
        let target = issue("c1", "T", &stranger, "Stranger", &holder, "Holder");
        assert!(ChainDirectory::new()
            .resolve(&target, &[root.public])
            .is_none());
    }

    #[test]
    fn resolver_handles_cycles() {
        // a certifies b, b certifies a — must not loop forever.
        let a = KeyPair::from_seed(b"a");
        let b = KeyPair::from_seed(b"b");
        let holder = KeyPair::from_seed(b"holder");
        let mut dir = ChainDirectory::new();
        dir.add(issue("ab", "CACert", &a, "A", &b, "B"));
        dir.add(issue("ba", "CACert", &b, "B", &a, "A"));
        let target = issue("c1", "T", &a, "A", &holder, "Holder");
        assert!(dir
            .resolve(&target, &[KeyPair::from_seed(b"root").public])
            .is_none());
    }
}
