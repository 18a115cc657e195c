//! Canonical binary encoding of the [`Element`] tree.
//!
//! The XML writer/parser pair is the human-readable (and historically
//! SOAP-shaped) serialization; this module is the wire-speed one: a
//! length-prefixed tag/string format that round-trips the exact same
//! tree without tokenizing, escaping, or re-parsing text. The two are
//! differential oracles for each other — `decode(encode(e)) == e ==
//! parse(to_string(e))` — which is what the `soa` wire path's
//! differential proptests pin.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! element := 0x01  name:str  nattrs:u32 (str str)*  nkids:u32 node*
//! node    := element | 0x02 text:str
//! str     := len:u32 bytes:[u8; len]   (UTF-8)
//! ```
//!
//! Decoding is total: any byte slice either yields an element or
//! `None` — malformed tags, truncated strings, invalid UTF-8, counts
//! running past the buffer, and pathological nesting all return `None`
//! rather than panicking or over-allocating (child/attribute vectors
//! grow per decoded item, never from the claimed count). [`validate`]
//! answers whether [`decode_element`] would accept a slice, with the
//! same checks and without building or allocating anything.
//!
//! [`crate::stream::Document::encode`] writes the same bytes straight
//! from a document's values; [`encode_element`] encodes an existing tree.

use crate::node::{Element, Node};

/// Tag byte opening an element node.
pub(crate) const TAG_ELEMENT: u8 = 0x01;
/// Tag byte opening a text node.
pub(crate) const TAG_TEXT: u8 = 0x02;

/// Nesting deeper than this fails to decode (and fails to parse as XML,
/// see [`crate::parser`]) instead of risking the stack. The writers never
/// enforce a depth (documents are built by us), but the decoders must
/// survive adversarial bytes.
pub const MAX_DEPTH: usize = 1024;

/// Append the canonical binary encoding of `e` to `out`.
pub fn encode_element_into(out: &mut Vec<u8>, e: &Element) {
    out.push(TAG_ELEMENT);
    put_str(out, &e.name);
    put_u32(out, e.attrs.len() as u32);
    for (name, value) in &e.attrs {
        put_str(out, name);
        put_str(out, value);
    }
    put_u32(out, e.children.len() as u32);
    for child in &e.children {
        match child {
            Node::Element(el) => encode_element_into(out, el),
            Node::Text(t) => {
                out.push(TAG_TEXT);
                put_str(out, t);
            }
        }
    }
}

/// The canonical binary encoding of `e` as a fresh buffer.
pub fn encode_element(e: &Element) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_element_into(&mut out, e);
    out
}

/// The canonical binary encoding of a document that [`decode_element`]
/// accepts, in a shared buffer. Only [`Encoded::of`] and
/// [`crate::stream::Document::encode`] make one, so a holder knows the
/// bytes decode without decoding them: a store keeps them as a revision,
/// and a caller that hashes them hashes exactly what is kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoded(std::sync::Arc<[u8]>);

impl Encoded {
    /// Encode `doc` once.
    ///
    /// # Panics
    ///
    /// If `doc` nests deeper than [`MAX_DEPTH`] elements: no decoder
    /// accepts such a document, so its encoding could never be read back.
    pub fn of(doc: &Element) -> Self {
        assert!(
            doc.depth() <= MAX_DEPTH,
            "an encoded document nests at most binary::MAX_DEPTH elements deep"
        );
        Encoded::from_vec(encode_element(doc))
    }

    /// Wrap bytes an encoder of this crate wrote for a document of at
    /// most [`MAX_DEPTH`] levels.
    pub(crate) fn from_vec(bytes: Vec<u8>) -> Self {
        Encoded(bytes.into())
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The shared buffer itself.
    pub fn into_shared(self) -> std::sync::Arc<[u8]> {
        self.0
    }
}

/// Decode one element from the front of `bytes`, requiring the whole
/// slice to be consumed. `None` on any malformation.
pub fn decode_element(bytes: &[u8]) -> Option<Element> {
    let mut pos = 0usize;
    let e = decode_element_at(bytes, &mut pos)?;
    if pos == bytes.len() {
        Some(e)
    } else {
        None
    }
}

/// Decode one element starting at `*pos`, advancing `*pos` past it.
pub fn decode_element_at(bytes: &[u8], pos: &mut usize) -> Option<Element> {
    decode_at_depth(bytes, pos, 0)
}

fn decode_at_depth(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Element> {
    if depth >= MAX_DEPTH {
        return None;
    }
    if get_u8(bytes, pos)? != TAG_ELEMENT {
        return None;
    }
    let name = get_str(bytes, pos)?;
    let nattrs = get_u32(bytes, pos)? as usize;
    let mut attrs = Vec::new();
    for _ in 0..nattrs {
        let k = get_str(bytes, pos)?;
        let v = get_str(bytes, pos)?;
        attrs.push((k, v));
    }
    let nkids = get_u32(bytes, pos)? as usize;
    let mut children = Vec::new();
    for _ in 0..nkids {
        match bytes.get(*pos).copied()? {
            TAG_ELEMENT => children.push(Node::Element(decode_at_depth(bytes, pos, depth + 1)?)),
            TAG_TEXT => {
                *pos += 1;
                children.push(Node::Text(get_str(bytes, pos)?));
            }
            _ => return None,
        }
    }
    Some(Element {
        name,
        attrs,
        children,
    })
}

/// Would [`decode_element`] accept `bytes`? The same grammar, UTF-8,
/// length, depth and whole-slice checks, with nothing decoded or
/// allocated: a store replaying its journal checks a document this way.
pub fn validate(bytes: &[u8]) -> bool {
    let mut pos = 0usize;
    validate_at_depth(bytes, &mut pos, 0).is_some() && pos == bytes.len()
}

fn validate_at_depth(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<()> {
    if depth >= MAX_DEPTH {
        return None;
    }
    if get_u8(bytes, pos)? != TAG_ELEMENT {
        return None;
    }
    skip_str(bytes, pos)?;
    let nattrs = get_u32(bytes, pos)?;
    for _ in 0..nattrs {
        skip_str(bytes, pos)?;
        skip_str(bytes, pos)?;
    }
    let nkids = get_u32(bytes, pos)?;
    for _ in 0..nkids {
        match bytes.get(*pos).copied()? {
            TAG_ELEMENT => validate_at_depth(bytes, pos, depth + 1)?,
            TAG_TEXT => {
                *pos += 1;
                skip_str(bytes, pos)?;
            }
            _ => return None,
        }
    }
    Some(())
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_u8(bytes: &[u8], pos: &mut usize) -> Option<u8> {
    let b = bytes.get(*pos).copied()?;
    *pos += 1;
    Some(b)
}

fn get_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let end = pos.checked_add(4)?;
    let slice = bytes.get(*pos..end)?;
    *pos = end;
    Some(u32::from_le_bytes(slice.try_into().ok()?))
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let len = get_u32(bytes, pos)? as usize;
    let end = pos.checked_add(len)?;
    let slice = bytes.get(*pos..end)?;
    *pos = end;
    Some(std::str::from_utf8(slice).ok()?.to_owned())
}

/// [`get_str`] without the copy: checks and skips one string.
fn skip_str(bytes: &[u8], pos: &mut usize) -> Option<()> {
    let len = get_u32(bytes, pos)? as usize;
    let end = pos.checked_add(len)?;
    std::str::from_utf8(bytes.get(*pos..end)?).ok()?;
    *pos = end;
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Element {
        Element::new("credential")
            .attr("credID", "c1")
            .attr("issuer", "INFN")
            .child(
                Element::new("header")
                    .child(Element::new("credType").text("ISO9000Certified"))
                    .child(Element::new("issuer").text("INFN")),
            )
            .child(Element::new("content").text("UNI EN ISO 9000"))
    }

    #[test]
    fn roundtrip_sample() {
        let e = sample();
        assert_eq!(decode_element(&encode_element(&e)), Some(e));
    }

    #[test]
    fn roundtrip_empty_and_text_only() {
        for e in [
            Element::new("a"),
            Element::new("a").text(""),
            Element::new("a").text("x").text("y"),
        ] {
            assert_eq!(decode_element(&encode_element(&e)), Some(e));
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = encode_element(&sample());
        buf.push(0);
        assert_eq!(decode_element(&buf), None);
    }

    #[test]
    fn truncations_never_panic() {
        let buf = encode_element(&sample());
        for cut in 0..buf.len() {
            assert_eq!(decode_element(&buf[..cut]), None);
        }
    }

    #[test]
    fn bogus_counts_do_not_overallocate() {
        // An element claiming u32::MAX children with no bytes behind the
        // claim must fail cleanly (the decoder grows per decoded child).
        let mut buf = Vec::new();
        buf.push(TAG_ELEMENT);
        put_str(&mut buf, "a");
        put_u32(&mut buf, 0); // no attrs
        put_u32(&mut buf, u32::MAX); // absurd child count
        assert_eq!(decode_element(&buf), None);
    }

    #[test]
    fn runaway_nesting_rejected() {
        // MAX_DEPTH+1 nested element openers (each claiming one child).
        let mut buf = Vec::new();
        for _ in 0..=MAX_DEPTH {
            buf.push(TAG_ELEMENT);
            put_str(&mut buf, "d");
            put_u32(&mut buf, 0);
            put_u32(&mut buf, 1);
        }
        assert_eq!(decode_element(&buf), None);
    }

    fn arb_name() -> impl Strategy<Value = String> {
        "[a-zA-Z][a-zA-Z0-9_.-]{0,8}"
    }

    fn arb_text() -> impl Strategy<Value = String> {
        // Text without whitespace-only runs (those are not canonical).
        "[ -~]{1,20}"
    }

    /// Canonical trees: deduped attribute keys, merged adjacent text —
    /// the same shape the XML parser's round-trip property generates.
    fn arb_element() -> impl Strategy<Value = Element> {
        let leaf = (
            arb_name(),
            proptest::collection::vec((arb_name(), arb_text()), 0..3),
        )
            .prop_map(|(name, attrs)| {
                let mut seen = std::collections::HashSet::new();
                let mut e = Element::new(name);
                for (k, v) in attrs {
                    if seen.insert(k.clone()) {
                        e.attrs.push((k, v));
                    }
                }
                e
            });
        leaf.prop_recursive(3, 24, 4, |inner| {
            (
                arb_name(),
                proptest::collection::vec(
                    prop_oneof![
                        inner.prop_map(Node::Element),
                        arb_text().prop_map(Node::Text),
                    ],
                    0..4,
                ),
            )
                .prop_map(|(name, children)| {
                    let mut e = Element::new(name);
                    for c in children {
                        match (e.children.last_mut(), c) {
                            (Some(Node::Text(prev)), Node::Text(t)) => prev.push_str(&t),
                            (_, c) => e.children.push(c),
                        }
                    }
                    e
                })
        })
    }

    proptest! {
        /// Binary round-trip is exact for arbitrary trees, and agrees
        /// with the canonical XML writer/parser oracle.
        #[test]
        fn binary_matches_xml_oracle(e in arb_element()) {
            let bin = decode_element(&encode_element(&e));
            prop_assert_eq!(bin.as_ref(), Some(&e));
            let xml = crate::parse(&crate::to_string(&e)).ok();
            prop_assert_eq!(xml.as_ref(), Some(&e));
            prop_assert_eq!(bin, xml);
        }

        /// Arbitrary byte soup never panics the decoder.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_element(&bytes);
        }
    }

    /// Trees whose strings mix ASCII with multi-byte UTF-8, so a flipped
    /// string byte often breaks a sequence.
    fn arb_mixed_element() -> impl Strategy<Value = Element> {
        let text = || "[a-z<&é中😀]{0,6}";
        let leaf = (
            "[a-zé]{1,4}",
            proptest::collection::vec((text(), text()), 0..3),
        )
            .prop_map(|(name, attrs)| Element {
                name,
                attrs,
                children: Vec::new(),
            });
        leaf.prop_recursive(3, 16, 3, move |inner| {
            (
                "[a-zé]{1,4}",
                proptest::collection::vec(
                    prop_oneof![inner.prop_map(Node::Element), text().prop_map(Node::Text)],
                    0..3,
                ),
            )
                .prop_map(|(name, children)| Element {
                    name,
                    attrs: Vec::new(),
                    children,
                })
        })
    }

    fn agrees(bytes: &[u8]) -> bool {
        validate(bytes) == decode_element(bytes).is_some()
    }

    /// `n` nested elements, the innermost empty.
    fn nested(n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        for i in 0..n {
            buf.push(TAG_ELEMENT);
            put_str(&mut buf, "d");
            put_u32(&mut buf, 0);
            put_u32(&mut buf, u32::from(i + 1 < n));
        }
        buf
    }

    #[test]
    fn validate_keeps_the_depth_bound() {
        for n in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
            assert!(agrees(&nested(n)), "{n} levels");
        }
        assert!(validate(&nested(MAX_DEPTH)));
        assert!(!validate(&nested(MAX_DEPTH + 1)));
    }

    #[test]
    fn validate_refuses_what_decode_refuses() {
        let good = encode_element(&sample());
        assert!(validate(&good));
        let mut trailing = good.clone();
        trailing.push(0);
        let mut bad_utf8 = encode_element(&Element::new("a").text("xy"));
        let last = bad_utf8.len() - 1;
        bad_utf8[last] = 0xff;
        let mut bad_tag = good.clone();
        bad_tag[0] = TAG_TEXT;
        for bytes in [&trailing, &bad_utf8, &bad_tag, &Vec::new()] {
            assert!(!validate(bytes));
            assert!(agrees(bytes));
        }
    }

    proptest! {
        /// `validate` accepts exactly what `decode_element` decodes: over
        /// byte soup, every truncation of a valid encoding, a byte
        /// appended, and every single-byte flip.
        #[test]
        fn validate_agrees_with_decode_on_soup(
            bytes in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            prop_assert!(agrees(&bytes));
        }

        #[test]
        fn validate_agrees_with_decode_on_damaged_encodings(
            e in arb_mixed_element(),
            at in any::<usize>(),
            mask in 1u8..=255,
        ) {
            let good = encode_element(&e);
            prop_assert!(validate(&good));
            for cut in 0..good.len() {
                prop_assert!(agrees(&good[..cut]));
            }
            let mut longer = good.clone();
            longer.push(mask);
            prop_assert!(agrees(&longer));
            let mut flipped = good.clone();
            flipped[at % good.len()] ^= mask;
            prop_assert!(agrees(&flipped));
        }
    }
}
