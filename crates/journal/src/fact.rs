//! Journal facts: the logical operations the journal makes durable.
//!
//! Facts are deliberately domain-light — collections and documents are
//! named by strings and a document travels as the opaque bytes of its
//! canonical binary encoding (`xmldoc::binary`), the same bytes the
//! store keeps — so the journal crate sits below `store`, `admission`
//! and `soa` without depending on any of them.

use std::sync::Arc;

/// One durable operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fact {
    /// A document insert/update in a named collection (appends one
    /// revision on replay, exactly as the original `put` did).
    Put {
        /// The collection name.
        collection: String,
        /// The document id within the collection.
        id: String,
        /// The document's canonical binary encoding, shared with the
        /// store revision it records. The journal never decodes it.
        doc: Arc<[u8]>,
    },
    /// A document tombstone (history retained until a `Purge`, as in the
    /// live store).
    Delete {
        /// The collection name.
        collection: String,
        /// The document id within the collection.
        id: String,
    },
    /// A document forgotten with its whole revision history, live or
    /// deleted (`Collection::purge`). Replay removes it the same way, so
    /// a later `Put` of the same id starts again at revision 1.
    Purge {
        /// The collection name.
        collection: String,
        /// The document id within the collection.
        id: String,
    },
    /// A party's reputation score after one recorded outcome (spilled by
    /// the admission scoring engine). The *resulting* state is journaled,
    /// not the outcome, so replay restores the exact score even if the
    /// scoring configuration changed between runs.
    Reputation {
        /// The party whose score changed.
        party: String,
        /// The new score, as IEEE-754 bits (`f64::to_bits`) so the fact
        /// stays `Eq` and byte-exact across the journal round trip.
        score_bits: u64,
        /// The party's effective event count after this outcome.
        events: u64,
        /// Sim-time of the mutation (µs since the run epoch) — the decay
        /// anchor the restored engine resumes from.
        at_us: u64,
    },
    /// A party's flow-budget bucket level after one mutation (spilled by
    /// the admission mana ledger). Same resulting-state contract as
    /// [`Fact::Reputation`].
    Mana {
        /// The party whose bucket changed.
        party: String,
        /// Remaining micro-tokens (1 token = 10⁶ µtokens), stored as the
        /// IEEE-754 bits (`f64::to_bits`) of the integral count — exact,
        /// since any realistic count is far below 2⁵³.
        tokens_bits: u64,
        /// Sim-time of the mutation (µs since the run epoch) — the
        /// regeneration anchor the restored ledger resumes from.
        at_us: u64,
    },
}

// Tag 1 was a `Put` carrying XML text, and tag 3 a concept-mapping
// pair spilled by the retired mapping memo. Both are retired, never
// reused: a log holding either replays up to that record and stops
// there, as at any undecodable record.
const TAG_DELETE: u8 = 2;
const TAG_REPUTATION: u8 = 4;
const TAG_MANA: u8 = 5;
const TAG_PUT: u8 = 6;
const TAG_PURGE: u8 = 7;

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let end = pos.checked_add(8)?;
    let v = u64::from_le_bytes(bytes.get(*pos..end)?.try_into().ok()?);
    *pos = end;
    Some(v)
}

fn get_bytes<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len_end = pos.checked_add(4)?;
    let len = u32::from_le_bytes(bytes.get(*pos..len_end)?.try_into().ok()?) as usize;
    let end = len_end.checked_add(len)?;
    let b = bytes.get(len_end..end)?;
    *pos = end;
    Some(b)
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    Some(std::str::from_utf8(get_bytes(bytes, pos)?).ok()?.to_owned())
}

/// Encoded length of a document-store fact about document `id` of
/// `collection`: a `Put` carrying `doc_len` document bytes, or, for
/// `None`, a `Delete` or `Purge`. Equal to the length of that fact's
/// [`Fact::encoded`] bytes, computed without building the fact.
pub fn store_fact_len(collection: &str, id: &str, doc_len: Option<usize>) -> u64 {
    let names = 1 + 4 + collection.len() + 4 + id.len();
    (names + doc_len.map_or(0, |n| 4 + n)) as u64
}

impl Fact {
    /// Whether the fact is the document store's (`Put`, `Delete` or
    /// `Purge`). The store's snapshot replaces all of them at compaction;
    /// the other producers' facts are carried forward.
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            Fact::Put { .. } | Fact::Delete { .. } | Fact::Purge { .. }
        )
    }

    /// For a fact that is not the document store's, the party state it
    /// sets: each (`Reputation`, `Mana`) records resulting state, so a
    /// later fact with the same key makes this one redundant. `None` for
    /// the store's facts.
    pub(crate) fn state_key(&self) -> Option<(u8, &str)> {
        match self {
            Fact::Reputation { party, .. } => Some((TAG_REPUTATION, party)),
            Fact::Mana { party, .. } => Some((TAG_MANA, party)),
            Fact::Put { .. } | Fact::Delete { .. } | Fact::Purge { .. } => None,
        }
    }

    /// Append this fact's canonical byte encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Fact::Put {
                collection,
                id,
                doc,
            } => {
                out.push(TAG_PUT);
                put_str(out, collection);
                put_str(out, id);
                put_bytes(out, doc);
            }
            Fact::Delete { collection, id } => {
                out.push(TAG_DELETE);
                put_str(out, collection);
                put_str(out, id);
            }
            Fact::Purge { collection, id } => {
                out.push(TAG_PURGE);
                put_str(out, collection);
                put_str(out, id);
            }
            Fact::Reputation {
                party,
                score_bits,
                events,
                at_us,
            } => {
                out.push(TAG_REPUTATION);
                put_str(out, party);
                put_u64(out, *score_bits);
                put_u64(out, *events);
                put_u64(out, *at_us);
            }
            Fact::Mana {
                party,
                tokens_bits,
                at_us,
            } => {
                out.push(TAG_MANA);
                put_str(out, party);
                put_u64(out, *tokens_bits);
                put_u64(out, *at_us);
            }
        }
    }

    /// The canonical byte encoding.
    pub fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decode one fact starting at `*pos`, advancing it past the fact.
    /// `None` on any malformed byte — the caller treats the whole record
    /// as corrupt.
    pub fn decode(bytes: &[u8], pos: &mut usize) -> Option<Fact> {
        let tag = *bytes.get(*pos)?;
        *pos += 1;
        match tag {
            TAG_PUT => Some(Fact::Put {
                collection: get_str(bytes, pos)?,
                id: get_str(bytes, pos)?,
                doc: Arc::from(get_bytes(bytes, pos)?),
            }),
            TAG_DELETE => Some(Fact::Delete {
                collection: get_str(bytes, pos)?,
                id: get_str(bytes, pos)?,
            }),
            TAG_PURGE => Some(Fact::Purge {
                collection: get_str(bytes, pos)?,
                id: get_str(bytes, pos)?,
            }),
            TAG_REPUTATION => Some(Fact::Reputation {
                party: get_str(bytes, pos)?,
                score_bits: get_u64(bytes, pos)?,
                events: get_u64(bytes, pos)?,
                at_us: get_u64(bytes, pos)?,
            }),
            TAG_MANA => Some(Fact::Mana {
                party: get_str(bytes, pos)?,
                tokens_bits: get_u64(bytes, pos)?,
                at_us: get_u64(bytes, pos)?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(fact: &Fact) {
        let enc = fact.encoded();
        let mut pos = 0;
        let back = Fact::decode(&enc, &mut pos).expect("decodes");
        assert_eq!(&back, fact);
        assert_eq!(pos, enc.len(), "decode consumes the whole encoding");
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(&Fact::Put {
            collection: "profiles".into(),
            id: "Aerospace".into(),
            doc: Arc::from(&[1, 7, 0, 0, 0][..]),
        });
        roundtrip(&Fact::Delete {
            collection: "checkpoints".into(),
            id: "7".into(),
        });
        roundtrip(&Fact::Purge {
            collection: "checkpoints".into(),
            id: "7".into(),
        });
        roundtrip(&Fact::Put {
            collection: String::new(),
            id: String::new(),
            doc: Arc::from(&[][..]),
        });
        roundtrip(&Fact::Reputation {
            party: "Flooder Inc".into(),
            score_bits: 0.35_f64.to_bits(),
            events: 7,
            at_us: 1_234_567,
        });
        roundtrip(&Fact::Mana {
            party: "HPC-A".into(),
            tokens_bits: 2.5_f64.to_bits(),
            at_us: 42,
        });
    }

    #[test]
    fn score_bits_round_trip_exactly() {
        // f64 travels as raw bits, so even non-representable-in-decimal
        // and negative-zero values survive byte-exactly.
        for score in [0.0, -0.0, 0.1 + 0.2, f64::MIN_POSITIVE, 1.0] {
            let fact = Fact::Reputation {
                party: "X".into(),
                score_bits: score.to_bits(),
                events: 0,
                at_us: 0,
            };
            let mut pos = 0;
            let back = Fact::decode(&fact.encoded(), &mut pos).unwrap();
            let Fact::Reputation { score_bits, .. } = back else {
                panic!("wrong variant");
            };
            assert_eq!(score_bits, score.to_bits());
        }
    }

    #[test]
    fn malformed_bytes_rejected() {
        // Unknown tag.
        assert!(Fact::decode(&[9], &mut 0).is_none());
        // Truncated string length.
        assert!(Fact::decode(&[2, 5, 0, 0], &mut 0).is_none());
        // String length past the end.
        assert!(Fact::decode(&[2, 255, 0, 0, 0, b'x'], &mut 0).is_none());
        // Empty input.
        assert!(Fact::decode(&[], &mut 0).is_none());
        // Reputation fact truncated mid-u64.
        let mut trunc = Fact::Reputation {
            party: "X".into(),
            score_bits: 1,
            events: 2,
            at_us: 3,
        }
        .encoded();
        trunc.truncate(trunc.len() - 3);
        assert!(Fact::decode(&trunc, &mut 0).is_none());
        // Mana fact with only the party string.
        assert!(Fact::decode(&[5, 1, 0, 0, 0, b'p'], &mut 0).is_none());
        // A `Put` document length past the end.
        assert!(Fact::decode(&[6, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0], &mut 0).is_none());
    }

    #[test]
    fn retired_xml_put_tag_is_unknown() {
        // Tag 1 carried a `Put` as XML text; its records no longer decode.
        let mut old = vec![1];
        for s in ["c", "d", "<d/>"] {
            put_str(&mut old, s);
        }
        assert!(Fact::decode(&old, &mut 0).is_none());
    }

    #[test]
    fn retired_mapping_tag_is_unknown() {
        // Tag 3 carried an alias → canonical concept pair; its records no
        // longer decode.
        let mut old = vec![3];
        for s in ["Bilancio", "BalanceSheet"] {
            put_str(&mut old, s);
        }
        assert!(Fact::decode(&old, &mut 0).is_none());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_strings(
            c in ".{0,40}", i in ".{0,40}", d in proptest::collection::vec(any::<u8>(), 0..80)
        ) {
            roundtrip(&Fact::Put { collection: c.clone(), id: i.clone(), doc: d.into() });
            roundtrip(&Fact::Delete { collection: c.clone(), id: i.clone() });
            roundtrip(&Fact::Purge { collection: c, id: i });
        }

        /// `store_fact_len` is the encoded length of a store fact.
        #[test]
        fn store_fact_len_is_the_encoded_length(
            c in ".{0,40}", i in ".{0,40}", d in proptest::collection::vec(any::<u8>(), 0..80)
        ) {
            let facts = [
                (Fact::Put { collection: c.clone(), id: i.clone(), doc: d.clone().into() }, Some(d.len())),
                (Fact::Delete { collection: c.clone(), id: i.clone() }, None),
                (Fact::Purge { collection: c.clone(), id: i.clone() }, None),
            ];
            for (fact, doc_len) in facts {
                prop_assert_eq!(store_fact_len(&c, &i, doc_len), fact.encoded().len() as u64);
            }
        }

        #[test]
        fn roundtrip_arbitrary_admission_facts(
            p in ".{0,40}", a in any::<u64>(), b in any::<u64>(), t in any::<u64>()
        ) {
            roundtrip(&Fact::Reputation {
                party: p.clone(), score_bits: a, events: b, at_us: t,
            });
            roundtrip(&Fact::Mana { party: p, tokens_bits: a, at_us: t });
        }
    }
}
