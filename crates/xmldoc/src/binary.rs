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
//! grow per decoded item, never from the claimed count).

use crate::node::{Element, Node};

/// Tag byte opening an element node.
const TAG_ELEMENT: u8 = 0x01;
/// Tag byte opening a text node.
const TAG_TEXT: u8 = 0x02;

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
}
