//! A versioned collection of XML documents, each revision kept as its
//! canonical binary encoding.

use std::sync::Arc;
use trust_vo_journal::{Fact, Fnv64, Journal};
use trust_vo_xmldoc::{binary, Element, Selector, XPathExpr};

/// A document identifier within a collection.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub String);

impl From<&str> for DocId {
    fn from(s: &str) -> Self {
        DocId(s.to_owned())
    }
}

/// Ids order as their strings do, so a collection can be ranged by a
/// `&str` bound.
impl std::borrow::Borrow<str> for DocId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One document's history. Revision `n` is `revisions[n - 1]`: numbering
/// is dense from 1 and nothing is removed until the document is purged.
/// Each revision is the document's `binary::encode_element` bytes and
/// nothing else — no tree is kept beside it — shared with the journal's
/// `Fact::Put` for it.
#[derive(Debug, Clone, Default)]
struct Entry {
    revisions: Vec<Arc<[u8]>>,
    deleted: bool,
}

impl Entry {
    /// Append a revision (resurrecting a deleted document); returns its
    /// number.
    fn push(&mut self, bytes: Arc<[u8]>) -> u64 {
        self.deleted = false;
        self.revisions.push(bytes);
        self.revisions.len() as u64
    }

    /// The latest revision, unless the document is deleted.
    fn live(&self) -> Option<&[u8]> {
        if self.deleted {
            return None;
        }
        self.revisions.last().map(|b| &b[..])
    }
}

/// Decode a stored revision. Only [`Collection::put`], which encoded the
/// bytes, and restore, which checked that they decode, install a
/// revision, so decoding cannot fail.
fn decode(bytes: &[u8]) -> Element {
    binary::decode_element(bytes).expect("a stored revision is a canonical encoding")
}

/// A named collection of versioned XML documents with XPath-subset queries.
///
/// Reads take `&self`: the operation counter is atomic, so concurrent
/// readers (e.g. parallel admission negotiations holding a shared read
/// lock on the database) account their queries without write access.
/// Every read decodes the revisions it returns or queries.
#[derive(Debug, Default)]
pub struct Collection {
    /// The name the collection's journal facts carry (empty for a
    /// collection made with [`Collection::new`]).
    name: String,
    entries: std::collections::BTreeMap<DocId, Entry>,
    /// Operations performed (reads + writes), for latency accounting.
    ops: std::sync::atomic::AtomicU64,
    /// Armed by [`Database::attach_journal`](crate::Database::attach_journal):
    /// every `put`/`delete`/`purge` spills a [`Fact`] tagged with this
    /// collection's name into the shared journal.
    journal: Option<Arc<Journal>>,
    pub(crate) weight: Weight,
}

/// What the collection weighs in the journal, in encoded fact bytes
/// ([`trust_vo_journal::fact::store_fact_len`]): the database's
/// compaction rule compares the two sums over its collections.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Weight {
    /// The facts a snapshot of this collection holds: every retained
    /// revision, and a tombstone per deleted document.
    pub(crate) live: u64,
    /// The facts of documents purged since the log was last compacted
    /// (their revisions and tombstones, plus the `Purge` itself): log
    /// bytes the next compaction drops.
    pub(crate) dead: u64,
}

impl Clone for Collection {
    fn clone(&self) -> Self {
        Collection {
            name: self.name.clone(),
            entries: self.entries.clone(),
            ops: std::sync::atomic::AtomicU64::new(self.ops()),
            // A clone is a detached copy — its mutations are not part of
            // the database's durable history, so the hook does not travel.
            journal: None,
            weight: self.weight,
        }
    }
}

impl Collection {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty collection whose journal facts carry `name`.
    pub(crate) fn named(name: &str) -> Self {
        Collection {
            name: name.to_owned(),
            ..Self::default()
        }
    }

    fn count_op(&self) {
        self.ops.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Arm the journal spill hook if not already armed.
    pub(crate) fn ensure_journal(&mut self, journal: &Arc<Journal>) {
        if self.journal.is_none() {
            self.journal = Some(journal.clone());
        }
    }

    /// Append `fact` to the journal, if armed.
    fn journal(&self, fact: impl FnOnce() -> Fact) {
        if let Some(journal) = &self.journal {
            journal.append(&fact());
        }
    }

    /// Encoded length of this collection's fact about `id`: a `Put` of
    /// `doc`, or a tombstone (`Delete`, `Purge`) for `None`.
    fn fact_len(&self, id: &DocId, doc: Option<&[u8]>) -> u64 {
        trust_vo_journal::fact::store_fact_len(&self.name, &id.0, doc.map(<[u8]>::len))
    }

    /// Append a revision (the live and replay paths of `put`); returns
    /// its number.
    fn install(&mut self, id: DocId, bytes: Arc<[u8]>) -> u64 {
        let (put, tombstone) = (self.fact_len(&id, Some(&bytes)), self.fact_len(&id, None));
        let entry = self.entries.entry(id).or_default();
        if entry.deleted {
            self.weight.live -= tombstone;
        }
        self.weight.live += put;
        entry.push(bytes)
    }

    /// Mark a live document deleted (the live and replay paths of
    /// `delete`); returns whether it was live.
    fn mark_deleted(&mut self, id: &DocId) -> bool {
        match self.entries.get_mut(id) {
            Some(e) if !e.deleted => {
                e.deleted = true;
                self.weight.live += self.fact_len(id, None);
                true
            }
            _ => false,
        }
    }

    /// Remove a document with its history (the live and replay paths of
    /// `purge`); returns whether there was one.
    fn forget(&mut self, id: &DocId) -> bool {
        let removed = self.entries.remove(id);
        if let Some(entry) = &removed {
            let tombstone = self.fact_len(id, None);
            let mut weight = if entry.deleted { tombstone } else { 0 };
            for rev in &entry.revisions {
                weight += self.fact_len(id, Some(rev));
            }
            self.weight.live -= weight;
            self.weight.dead += weight + tombstone;
        }
        removed.is_some()
    }

    /// Insert or update a document; returns the new revision number.
    ///
    /// The document is encoded once, with [`binary::Encoded::of`]; see
    /// [`Collection::put_encoded`].
    ///
    /// # Panics
    ///
    /// If `doc` nests deeper than `binary::MAX_DEPTH` elements: no decoder
    /// accepts such a document, so it could be neither read back nor
    /// recovered, and its journal record would end every later restore.
    pub fn put(&mut self, id: impl Into<DocId>, doc: Element) -> u64 {
        self.put_encoded(id, binary::Encoded::of(&doc))
    }

    /// Insert or update a document already encoded; returns the new
    /// revision number. The one encoding is the stored revision, the
    /// journaled `Fact::Put` and the state-digest input, so a caller that
    /// hashes `doc` hashes exactly what is kept and journaled.
    pub fn put_encoded(&mut self, id: impl Into<DocId>, doc: binary::Encoded) -> u64 {
        self.count_op();
        let id = id.into();
        let bytes = doc.into_shared();
        self.journal(|| Fact::Put {
            collection: self.name.clone(),
            id: id.0.clone(),
            doc: Arc::clone(&bytes),
        });
        self.install(id, bytes)
    }

    /// Replay-path put: identical revision bookkeeping to [`Collection::put`]
    /// but bypasses both the journal hook (replay must not re-journal) and
    /// the op counter (recovery is not a workload). The caller has checked
    /// that `bytes` decode.
    pub(crate) fn apply_put(&mut self, id: DocId, bytes: Arc<[u8]>) {
        self.install(id, bytes);
    }

    /// Replay-path delete; see [`Collection::apply_put`].
    pub(crate) fn apply_delete(&mut self, id: &DocId) {
        self.mark_deleted(id);
    }

    /// Replay-path purge; see [`Collection::apply_put`].
    pub(crate) fn apply_purge(&mut self, id: &DocId) {
        self.forget(id);
    }

    /// Emit facts that rebuild this collection exactly — every revision in
    /// order (replay's dense numbering reproduces the originals) plus a
    /// tombstone for currently-deleted documents. Used for snapshot
    /// compaction; each `Put` shares the stored bytes. Purged documents
    /// are gone, so the snapshot forgets them too.
    pub(crate) fn snapshot_facts(&self, out: &mut Vec<Fact>) {
        for (id, entry) in &self.entries {
            for rev in &entry.revisions {
                out.push(Fact::Put {
                    collection: self.name.clone(),
                    id: id.0.clone(),
                    doc: Arc::clone(rev),
                });
            }
            if entry.deleted {
                out.push(Fact::Delete {
                    collection: self.name.clone(),
                    id: id.0.clone(),
                });
            }
        }
    }

    /// Fold this collection's logical content (names, revision histories
    /// as their stored bytes, tombstones — *not* the op counter) into a
    /// state digest. A collection holding no document folds nothing, so
    /// it digests like an absent one: no fact recreates it, and once its
    /// last document is purged a compacted log no longer names it.
    pub(crate) fn digest_into(&self, h: &mut Fnv64) {
        if self.entries.is_empty() {
            return;
        }
        h.write_framed(self.name.as_bytes());
        for (id, entry) in &self.entries {
            h.write_framed(id.0.as_bytes());
            h.write(&[u8::from(entry.deleted)]);
            h.write(&(entry.revisions.len() as u64).to_le_bytes());
            for (number, rev) in (1u64..).zip(&entry.revisions) {
                h.write(&number.to_le_bytes());
                h.write_framed(rev);
            }
        }
    }

    /// The latest revision of a live document.
    pub fn get(&self, id: &DocId) -> Option<Element> {
        self.count_op();
        self.entries.get(id).and_then(Entry::live).map(decode)
    }

    /// A specific revision (even of a deleted document).
    pub fn get_revision(&self, id: &DocId, number: u64) -> Option<Element> {
        self.count_op();
        let index = usize::try_from(number.checked_sub(1)?).ok()?;
        self.entries
            .get(id)
            .and_then(|e| e.revisions.get(index))
            .map(|b| decode(b))
    }

    /// Mark a document deleted (history retained until it is purged).
    /// Returns whether it was live.
    pub fn delete(&mut self, id: &DocId) -> bool {
        self.count_op();
        let deleted = self.mark_deleted(id);
        // No-op deletes are not facts: replaying them would be harmless but
        // would bloat the log and shift replay digests.
        if deleted {
            self.journal(|| Fact::Delete {
                collection: self.name.clone(),
                id: id.0.clone(),
            });
        }
        deleted
    }

    /// Forget a document and its whole revision history, whether it is
    /// live or deleted. Returns whether the collection held it. Unlike
    /// [`Collection::delete`], nothing of it remains to read: a later
    /// `put` of the same id starts again at revision 1. Journaled as a
    /// `Fact::Purge`, which replay applies the same way, and which lets
    /// the next compaction drop the document's records from the log.
    pub fn purge(&mut self, id: &DocId) -> bool {
        self.count_op();
        let purged = self.forget(id);
        // Like no-op deletes, no-op purges are not facts.
        if purged {
            self.journal(|| Fact::Purge {
                collection: self.name.clone(),
                id: id.0.clone(),
            });
        }
        purged
    }

    /// Ids of all live documents.
    pub fn ids(&self) -> impl Iterator<Item = &DocId> {
        self.entries
            .iter()
            .filter(|(_, e)| !e.deleted)
            .map(|(id, _)| id)
    }

    /// Ids of the live documents whose id starts with `prefix`, in order:
    /// one ordered range of the collection, not a scan of every id.
    pub fn ids_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a DocId> + 'a {
        use std::ops::Bound;
        self.entries
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(id, _)| id.0.starts_with(prefix))
            .filter(|(_, e)| !e.deleted)
            .map(|(id, _)| id)
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.ids().count()
    }

    /// True when no live documents exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest revision of every live document, decoded, in id order.
    fn live_docs(&self) -> impl Iterator<Item = (&DocId, Element)> {
        self.entries
            .iter()
            .filter_map(|(id, e)| Some((id, decode(e.live()?))))
    }

    /// All live documents matching an XPath condition.
    pub fn find_all(&self, condition: &XPathExpr) -> Vec<(DocId, Element)> {
        self.count_op();
        self.live_docs()
            .filter(|(_, doc)| condition.evaluate(doc))
            .map(|(id, doc)| (id.clone(), doc))
            .collect()
    }

    /// First live document matching a condition. Short-circuits on the
    /// first match: documents after it are not decoded.
    pub fn find(&self, condition: &XPathExpr) -> Option<(DocId, Element)> {
        self.count_op();
        self.live_docs()
            .find(|(_, doc)| condition.evaluate(doc))
            .map(|(id, doc)| (id.clone(), doc))
    }

    /// Extract values from every live document via a selector.
    pub fn select_values(&self, selector: &Selector) -> Vec<String> {
        self.count_op();
        self.live_docs()
            .flat_map(|(_, doc)| selector.values(&doc))
            .collect()
    }

    /// Operations performed so far (the sim-clock charges per op).
    pub fn ops(&self) -> u64 {
        self.ops.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(name: &str, value: &str) -> Element {
        Element::new("item")
            .attr("name", name)
            .child(Element::new("value").text(value))
    }

    #[test]
    fn put_get_roundtrip() {
        let mut c = Collection::new();
        assert_eq!(c.put("a", doc("a", "1")), 1);
        assert_eq!(c.get(&"a".into()).unwrap().get_attr("name"), Some("a"));
        assert!(c.get(&"missing".into()).is_none());
    }

    #[test]
    fn update_bumps_revision_and_keeps_history() {
        let mut c = Collection::new();
        c.put("a", doc("a", "1"));
        assert_eq!(c.put("a", doc("a", "2")), 2);
        assert_eq!(
            c.get(&"a".into()).unwrap().child_text("value").unwrap(),
            "2"
        );
        assert_eq!(
            c.get_revision(&"a".into(), 1)
                .unwrap()
                .child_text("value")
                .unwrap(),
            "1"
        );
        assert!(c.get_revision(&"a".into(), 3).is_none());
    }

    #[test]
    fn delete_hides_but_retains_history() {
        let mut c = Collection::new();
        c.put("a", doc("a", "1"));
        assert!(c.delete(&"a".into()));
        assert!(!c.delete(&"a".into()));
        assert!(c.get(&"a".into()).is_none());
        assert!(c.get_revision(&"a".into(), 1).is_some());
        assert_eq!(c.len(), 0);
        // Re-inserting resurrects with a bumped revision.
        assert_eq!(c.put("a", doc("a", "3")), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn purge_forgets_the_whole_history() {
        let mut c = Collection::new();
        c.put("a", doc("a", "1"));
        c.put("a", doc("a", "2"));
        c.put("b", doc("b", "1"));
        c.delete(&"b".into());
        assert!(c.purge(&"a".into()));
        assert!(c.purge(&"b".into()), "a deleted document is purged too");
        assert!(!c.purge(&"a".into()));
        assert!(!c.purge(&"missing".into()));
        for id in ["a", "b"] {
            assert!(c.get(&id.into()).is_none());
            assert!(c.get_revision(&id.into(), 1).is_none());
        }
        assert_eq!(c.len(), 0);
        // A fresh put of a purged id starts over at revision 1.
        assert_eq!(c.put("a", doc("a", "3")), 1);
    }

    #[test]
    fn find_by_xpath() {
        let mut c = Collection::new();
        c.put("a", doc("alpha", "1"));
        c.put("b", doc("beta", "2"));
        c.put("c", doc("gamma", "2"));
        let cond = XPathExpr::parse("/item/value = 2").unwrap();
        let found = c.find_all(&cond);
        assert_eq!(found.len(), 2);
        let one = c
            .find(&XPathExpr::parse("/item[@name='alpha']").unwrap())
            .unwrap();
        assert_eq!(one.0, DocId("a".into()));
    }

    #[test]
    fn select_values_across_documents() {
        let mut c = Collection::new();
        c.put("a", doc("alpha", "1"));
        c.put("b", doc("beta", "2"));
        let sel = Selector::parse("/item/value").unwrap();
        let mut values = c.select_values(&sel);
        values.sort();
        assert_eq!(values, ["1", "2"]);
    }

    #[test]
    fn find_charges_one_op_and_returns_first_match() {
        let mut c = Collection::new();
        for i in 0..10 {
            c.put(format!("d{i}").as_str(), doc("match", "7"));
        }
        let before = c.ops();
        let found = c.find(&XPathExpr::parse("/item[@name='match']").unwrap());
        assert_eq!(c.ops(), before + 1, "find charges exactly one operation");
        assert_eq!(found.unwrap().0, DocId("d0".into()));
        // A miss also charges one op and clones nothing.
        assert!(c
            .find(&XPathExpr::parse("/item[@name='absent']").unwrap())
            .is_none());
        assert_eq!(c.ops(), before + 2);
    }

    /// A chain of `n` nested elements.
    fn nested(n: usize) -> Element {
        (1..n).fold(Element::new("d"), |inner, _| Element::new("d").child(inner))
    }

    #[test]
    fn the_deepest_decodable_document_round_trips() {
        let mut c = Collection::new();
        let doc = nested(binary::MAX_DEPTH);
        c.put("deep", doc.clone());
        assert_eq!(c.get(&"deep".into()), Some(doc));
    }

    #[test]
    #[should_panic(expected = "nests at most binary::MAX_DEPTH")]
    fn a_document_no_decoder_accepts_is_refused_at_put() {
        Collection::new().put("deep", nested(binary::MAX_DEPTH + 1));
    }

    #[test]
    fn ops_counter_increments() {
        let mut c = Collection::new();
        let before = c.ops();
        c.put("a", doc("a", "1"));
        c.get(&"a".into());
        assert_eq!(c.ops(), before + 2);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;
    use trust_vo_xmldoc::Element;

    proptest! {
        /// The compaction rule's byte counts are exact: `live` is the
        /// encoded size of the snapshot, and `dead` grows by exactly what
        /// a purge removes from it plus the `Purge` fact, whatever the
        /// interleaving of puts, deletes and purges.
        #[test]
        fn weights_match_the_snapshot(ops in proptest::collection::vec((0u8..4, 0u8..4), 1..60)) {
            let mut c = Collection::named("checkpoints");
            let snapshot_len = |c: &Collection| {
                let mut facts = Vec::new();
                c.snapshot_facts(&mut facts);
                facts.iter().map(|f| f.encoded().len() as u64).sum::<u64>()
            };
            for (op, key) in ops {
                let id: DocId = format!("doc{key}").as_str().into();
                let (live, dead) = (c.weight.live, c.weight.dead);
                match op {
                    0 | 1 => {
                        c.put(id.clone(), Element::new("d").attr("k", "x".repeat(usize::from(key))));
                    }
                    2 => {
                        c.delete(&id);
                    }
                    _ => {
                        if c.purge(&id) {
                            let purge = Fact::Purge { collection: "checkpoints".into(), id: id.0.clone() };
                            let forgotten = live - c.weight.live;
                            prop_assert_eq!(c.weight.dead, dead + forgotten + purge.encoded().len() as u64);
                        }
                    }
                }
                prop_assert_eq!(c.weight.live, snapshot_len(&c));
            }
        }

        /// Revisions are dense and monotone per document, whatever the
        /// interleaving of puts and deletes.
        #[test]
        fn revisions_monotone(ops in proptest::collection::vec((0u8..3, 0u8..4), 1..40)) {
            let mut c = Collection::new();
            let mut expected: std::collections::BTreeMap<u8, u64> = Default::default();
            for (op, key) in ops {
                let id: DocId = format!("doc{key}").as_str().into();
                match op {
                    0 | 1 => {
                        let rev = c.put(id.clone(), Element::new("d").attr("k", key.to_string()));
                        let count = expected.entry(key).or_insert(0);
                        *count += 1;
                        prop_assert_eq!(rev, *count, "revision must be dense");
                    }
                    _ => {
                        let was_live = c.get(&id).is_some();
                        prop_assert_eq!(c.delete(&id), was_live);
                    }
                }
            }
            // Every historical revision remains readable.
            for (key, &count) in &expected {
                let id: DocId = format!("doc{key}").as_str().into();
                for rev in 1..=count {
                    prop_assert!(c.get_revision(&id, rev).is_some());
                }
                prop_assert!(c.get_revision(&id, count + 1).is_none());
            }
        }

        /// find_all returns exactly the live documents whose content
        /// matches, no duplicates, no deleted ones.
        #[test]
        fn find_all_matches_live_set(
            values in proptest::collection::vec(0u8..5, 1..20),
            deleted in proptest::collection::vec(any::<bool>(), 20),
        ) {
            let mut c = Collection::new();
            let mut live_matching = 0usize;
            for (i, v) in values.iter().enumerate() {
                let id: DocId = format!("d{i}").as_str().into();
                c.put(id.clone(), Element::new("item").child(Element::new("v").text(v.to_string())));
                if deleted.get(i).copied().unwrap_or(false) {
                    c.delete(&id);
                } else if *v == 3 {
                    live_matching += 1;
                }
            }
            let cond = trust_vo_xmldoc::XPathExpr::parse("/item/v = 3").unwrap();
            prop_assert_eq!(c.find_all(&cond).len(), live_matching);
        }

        /// The short-circuiting find returns exactly the head of find_all.
        #[test]
        fn find_agrees_with_find_all_head(
            values in proptest::collection::vec(0u8..5, 0..20),
            deleted in proptest::collection::vec(any::<bool>(), 20),
        ) {
            let mut c = Collection::new();
            for (i, v) in values.iter().enumerate() {
                let id: DocId = format!("d{i}").as_str().into();
                c.put(id.clone(), Element::new("item").child(Element::new("v").text(v.to_string())));
                if deleted.get(i).copied().unwrap_or(false) {
                    c.delete(&id);
                }
            }
            let cond = trust_vo_xmldoc::XPathExpr::parse("/item/v = 3").unwrap();
            prop_assert_eq!(c.find(&cond), c.find_all(&cond).into_iter().next());
        }
    }
}
