//! Encode-once storage: a revision is kept as its canonical binary
//! encoding, which is also the journaled fact and the digest input.
//!
//! * Exactness: `get` after `put` returns exactly the tree that was put —
//!   adjacent and empty text nodes included, which an XML round trip
//!   would merge or drop — every journaled `Put` carries exactly
//!   `encode_element(&doc)`, and a database restored from the journal
//!   (or from its compaction snapshot) returns the same trees and digest.
//! * Totality: arbitrary bytes, and checksum-valid frames around
//!   arbitrary `Put` bodies, go through replay and restore without a
//!   panic, and no revision whose bytes fail to decode is installed.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use trust_vo_journal::{frame, Fact, Journal};
use trust_vo_store::{Database, DocId};
use trust_vo_xmldoc::{decode_element, encode_element, Element, Node};

const COLLECTION: &str = "docs";

/// Any string, markup characters and non-ASCII included: the binary
/// codec carries names and text as they are.
fn arb_str() -> impl Strategy<Value = String> {
    "[a-z<>&\"' é]{0,6}"
}

/// Arbitrary trees: repeated attribute names, and empty and adjacent
/// text nodes kept as separate children.
fn arb_element() -> impl Strategy<Value = Element> {
    let leaf = (
        arb_str(),
        proptest::collection::vec((arb_str(), arb_str()), 0..3),
    )
        .prop_map(|(name, attrs)| Element {
            name,
            attrs,
            children: Vec::new(),
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            arb_str(),
            proptest::collection::vec(
                prop_oneof![
                    inner.prop_map(Node::Element),
                    arb_str().prop_map(Node::Text),
                    Just(Node::Text(String::new())),
                ],
                0..5,
            ),
        )
            .prop_map(|(name, children)| Element {
                name,
                attrs: Vec::new(),
                children,
            })
    })
}

/// Every stored revision of `db`, read back through the snapshot that
/// compaction would write.
fn stored_revisions(db: &Database) -> Vec<Arc<[u8]>> {
    db.snapshot_facts()
        .into_iter()
        .filter_map(|fact| match fact {
            Fact::Put { doc, .. } => Some(doc),
            _ => None,
        })
        .collect()
}

/// The first two payload bytes of a `Put` record: the record kind and
/// the fact tag, taken from a real append.
fn put_record_prefix() -> Vec<u8> {
    let journal = Journal::in_memory();
    journal.append(&Fact::Put {
        collection: String::new(),
        id: String::new(),
        doc: Arc::from(&[][..]),
    });
    journal.bytes()[frame::HEADER_LEN..frame::HEADER_LEN + 2].to_vec()
}

/// A `Put` body: a valid encoding, a valid encoding cut or with a byte
/// flipped, or plain noise.
fn arb_doc_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_element().prop_map(|e| encode_element(&e)),
        (arb_element(), any::<usize>()).prop_map(|(e, cut)| {
            let mut b = encode_element(&e);
            b.truncate(cut % b.len());
            b
        }),
        (arb_element(), any::<usize>(), 1u8..=255).prop_map(|(e, at, mask)| {
            let mut b = encode_element(&e);
            let i = at % b.len();
            b[i] ^= mask;
            b
        }),
        proptest::collection::vec(any::<u8>(), 0..48),
    ]
}

proptest! {
    #[test]
    fn put_get_journal_and_restore_are_exact(
        writes in proptest::collection::vec((0u8..4, arb_element()), 1..10),
    ) {
        let journal = Arc::new(Journal::in_memory());
        let db = Database::new();
        db.attach_journal(journal.clone());
        let mut history: BTreeMap<DocId, Vec<Element>> = BTreeMap::new();
        for (key, doc) in &writes {
            let id = DocId(format!("d{key}"));
            let number = db.with_collection(COLLECTION, |c| c.put(id.clone(), doc.clone()));
            let got = db.with_collection(COLLECTION, |c| c.get(&id));
            prop_assert_eq!(got.as_ref(), Some(doc));
            let revisions = history.entry(id).or_default();
            revisions.push(doc.clone());
            prop_assert_eq!(number, revisions.len() as u64);
        }

        // The journal carries exactly the canonical encoding of each put.
        let replay = journal.replay();
        prop_assert_eq!(replay.facts.len(), writes.len());
        for (fact, (key, doc)) in replay.facts.iter().zip(&writes) {
            let Fact::Put { collection, id, doc: bytes } = fact else {
                return Err(TestCaseError::fail("a put journals a Put"));
            };
            prop_assert_eq!(collection.as_str(), COLLECTION);
            prop_assert_eq!(id, &format!("d{key}"));
            prop_assert_eq!(&bytes[..], &encode_element(doc)[..]);
        }

        // A restore, and a restore of the compacted log, return the same
        // trees, every revision included, and the same digest.
        let compacted = Journal::from_bytes(journal.bytes());
        db.compact_into(&compacted);
        for log in [&*journal, &compacted] {
            let restored = Database::new();
            prop_assert!(!restored.restore_from_journal(log).truncated);
            prop_assert_eq!(restored.state_digest(), db.state_digest());
            for (id, revisions) in &history {
                for (number, doc) in (1u64..).zip(revisions) {
                    let got = restored
                        .read_collection(COLLECTION, |c| c.get_revision(id, number))
                        .flatten();
                    prop_assert_eq!(got.as_ref(), Some(doc));
                }
                let latest = restored.read_collection(COLLECTION, |c| c.get(id)).flatten();
                prop_assert_eq!(latest.as_ref(), revisions.last());
            }
        }
    }

    #[test]
    fn arbitrary_log_bytes_restore_without_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let replay = Journal::replay_bytes(&bytes);
        prop_assert!(replay.clean_len as usize <= bytes.len());
        let db = Database::new();
        db.restore_from_journal(&Journal::from_bytes(bytes));
        for rev in stored_revisions(&db) {
            prop_assert!(decode_element(&rev).is_some());
        }
    }

    #[test]
    fn framed_arbitrary_put_bodies_install_only_decodable_revisions(
        bodies in proptest::collection::vec((0u8..3, arb_doc_bytes()), 1..8),
        noise in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            0..3,
        ),
    ) {
        let journal = Journal::in_memory();
        for (key, body) in &bodies {
            journal.append(&Fact::Put {
                collection: COLLECTION.into(),
                id: format!("d{key}"),
                doc: body.as_slice().into(),
            });
        }
        // Checksum-valid records whose Put body is noise from its first
        // byte: replay stops at the first that does not decode as a fact.
        let mut bytes = journal.bytes();
        let prefix = put_record_prefix();
        for tail in &noise {
            let mut payload = prefix.clone();
            payload.extend_from_slice(tail);
            frame::push_record(&mut bytes, &payload);
        }
        let replay = Journal::replay_bytes(&bytes);
        prop_assert!(replay.facts.len() >= bodies.len());

        // Restore stops at the first Put whose document does not decode.
        let first_hole = replay
            .facts
            .iter()
            .position(|f| matches!(f, Fact::Put { doc, .. } if decode_element(doc).is_none()))
            .unwrap_or(replay.facts.len());
        let db = Database::new();
        prop_assert_eq!(db.restore_from_facts(&replay.facts), first_hole);
        for rev in stored_revisions(&db) {
            prop_assert!(decode_element(&rev).is_some());
        }
        let prefix_db = Database::new();
        prefix_db.restore_from_facts(&replay.facts[..first_hole]);
        prop_assert_eq!(db.state_digest(), prefix_db.state_digest());

        let via_journal = Database::new();
        let restored = via_journal.restore_from_journal(&Journal::from_bytes(bytes));
        prop_assert_eq!(restored.facts.len(), first_hole);
        prop_assert_eq!(restored.truncated, replay.truncated || first_hole < replay.facts.len());
        prop_assert_eq!(via_journal.state_digest(), db.state_digest());
    }
}
