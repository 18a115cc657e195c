//! One streaming element writer with three sinks.
//!
//! A document shape — a credential, an X-Profile, a disclosure policy, a
//! resume checkpoint — is written once, as calls on a [`Sink`]: open an
//! element, give it its attributes, then its text and child elements,
//! and close it. Three sinks turn the same calls into the three forms a
//! document takes:
//!
//! * the text sink ([`Document::to_text`]) — the canonical compact text
//!   that [`crate::to_string`] writes for the equivalent tree (what a
//!   credential signature covers),
//! * the binary sink ([`Document::encode`]) — the canonical binary that
//!   [`crate::encode_element`] writes for it, finished as an [`Encoded`]
//!   (what a store keeps and journals),
//! * the tree sink ([`Document::to_tree`]) — the [`Element`] tree itself
//!   (what XPath conditions and the XML renderings read).
//!
//! The text and binary sinks write straight from the values they are
//! handed: no tree stands between a typed value and its bytes. A type
//! implements [`Document`] by writing its shape once; the three forms
//! come with it. `crate::writer` and `crate::binary`'s tree encoder stay
//! the independent serializers of a tree, so `to_string(tree)` and
//! `encode_element(tree)` are the oracles the sinks are tested against.

use crate::binary::{Encoded, MAX_DEPTH, TAG_ELEMENT, TAG_TEXT};
use crate::node::{Element, Node};
use std::fmt;

/// The receiver of one document's element events.
///
/// An element's attributes come right after its [`Sink::open`], before
/// any text or child element; every `open` is matched by a
/// [`Sink::close`]; a document is exactly one root element. Each `text`
/// call is one text node, even when empty, as `Element::text` is.
pub trait Sink {
    /// Open an element (the root, or a child of the open element).
    fn open(&mut self, name: &str);
    /// Add an attribute to the element just opened.
    fn attr(&mut self, name: &str, value: &str);
    /// [`Sink::attr`] with a formatted value, written without an
    /// intermediate string.
    fn attr_fmt(&mut self, name: &str, value: fmt::Arguments<'_>);
    /// Add a text node to the open element.
    fn text(&mut self, text: &str);
    /// [`Sink::text`] with formatted content.
    fn text_fmt(&mut self, text: fmt::Arguments<'_>);
    /// Close the innermost open element.
    fn close(&mut self);
}

/// A document shape, written once against any [`Sink`].
pub trait Document {
    /// Write the document: exactly one root element.
    fn write_to<S: Sink>(&self, sink: &mut S);

    /// The document as an element tree.
    fn to_tree(&self) -> Element {
        let mut sink = TreeSink::default();
        self.write_to(&mut sink);
        sink.finish()
    }

    /// The canonical compact text: `to_string(&self.to_tree())`.
    fn to_text(&self) -> String {
        let mut sink = TextSink::default();
        self.write_to(&mut sink);
        sink.finish()
    }

    /// The canonical binary encoding: `encode_element(&self.to_tree())`.
    ///
    /// # Panics
    ///
    /// If the document nests deeper than [`MAX_DEPTH`] elements, as
    /// [`Encoded::of`] does.
    fn encode(&self) -> Encoded {
        let mut sink = BinarySink::default();
        self.write_to(&mut sink);
        sink.finish()
    }
}

/// Initial buffer size of the byte sinks: a credential's unsigned text,
/// a policy or a checkpoint fits without growing.
const INITIAL_CAPACITY: usize = 512;

/// Appends `s` to `out` with the canonical escapes: `&`, `<` and `>`
/// always, and in an attribute value also `"`, newline and tab. Every
/// escaped character is ASCII, so scanning bytes never splits a UTF-8
/// sequence, and the runs between escapes are copied whole.
fn push_escaped(out: &mut Vec<u8>, s: &str, attr: bool) {
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'&' => b"&amp;",
            b'<' => b"&lt;",
            b'>' => b"&gt;",
            b'"' if attr => b"&quot;",
            b'\n' if attr => b"&#10;",
            b'\t' if attr => b"&#9;",
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escape);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
}

/// Formats into a byte buffer, escaping as [`push_escaped`] does.
struct Escaping<'a> {
    out: &'a mut Vec<u8>,
    attr: bool,
}

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_escaped(self.out, s, self.attr);
        Ok(())
    }
}

/// Formats into a byte buffer as is.
struct Raw<'a>(&'a mut Vec<u8>);

impl fmt::Write for Raw<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// The canonical compact text of the document, as [`crate::to_string`]
/// writes it: no insignificant whitespace, attributes in written order,
/// `"` quoting, an element without children self-closed.
#[derive(Debug)]
struct TextSink {
    out: Vec<u8>,
    /// Per open element: where its name sits in `out` (start, length),
    /// so the close tag copies it, and whether its start tag still
    /// awaits its `>` (no child written yet).
    open: Vec<(usize, usize, bool)>,
}

impl Default for TextSink {
    fn default() -> Self {
        TextSink {
            out: Vec::with_capacity(INITIAL_CAPACITY),
            open: Vec::new(),
        }
    }
}

impl TextSink {
    /// End the start tag of the open element, if a child follows it.
    fn child(&mut self) {
        if let Some((_, _, tag_open)) = self.open.last_mut() {
            if *tag_open {
                *tag_open = false;
                self.out.push(b'>');
            }
        }
    }

    /// Start an attribute: ` name="`.
    fn attr_start(&mut self, name: &str) {
        assert!(
            matches!(self.open.last(), Some((_, _, true))),
            "an attribute follows its element's open and precedes its children"
        );
        self.out.push(b' ');
        self.out.extend_from_slice(name.as_bytes());
        self.out.extend_from_slice(b"=\"");
    }

    /// The text written.
    ///
    /// # Panics
    ///
    /// If an element is still open.
    fn finish(self) -> String {
        assert!(self.open.is_empty(), "every opened element is closed");
        String::from_utf8(self.out).expect("a sink writes whole str values only")
    }
}

impl Sink for TextSink {
    fn open(&mut self, name: &str) {
        self.child();
        self.out.push(b'<');
        self.open.push((self.out.len(), name.len(), true));
        self.out.extend_from_slice(name.as_bytes());
    }

    fn attr(&mut self, name: &str, value: &str) {
        self.attr_start(name);
        push_escaped(&mut self.out, value, true);
        self.out.push(b'"');
    }

    fn attr_fmt(&mut self, name: &str, value: fmt::Arguments<'_>) {
        self.attr_start(name);
        let mut escaping = Escaping {
            out: &mut self.out,
            attr: true,
        };
        fmt::Write::write_fmt(&mut escaping, value).expect("formatting into a buffer");
        self.out.push(b'"');
    }

    fn text(&mut self, text: &str) {
        self.child();
        push_escaped(&mut self.out, text, false);
    }

    fn text_fmt(&mut self, text: fmt::Arguments<'_>) {
        self.child();
        let mut escaping = Escaping {
            out: &mut self.out,
            attr: false,
        };
        fmt::Write::write_fmt(&mut escaping, text).expect("formatting into a buffer");
    }

    fn close(&mut self) {
        let (start, len, tag_open) = self.open.pop().expect("close matches an open");
        if tag_open {
            self.out.extend_from_slice(b"/>");
        } else {
            self.out.extend_from_slice(b"</");
            self.out.extend_from_within(start..start + len);
            self.out.push(b'>');
        }
    }
}

/// Fill in the `u32` placeholder at `at`.
fn patch(out: &mut [u8], at: usize, v: u32) {
    out[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// One open element of a [`BinarySink`]: where its current count (of
/// attributes, then of children) sits in the buffer, and its value.
#[derive(Debug)]
struct Counted {
    at: usize,
    count: u32,
    in_attrs: bool,
}

/// The canonical binary encoding of the document, as
/// [`crate::encode_element`] writes it. The attribute and child counts
/// precede what they count, so each is written as a placeholder and
/// filled in once known.
#[derive(Debug)]
struct BinarySink {
    out: Vec<u8>,
    open: Vec<Counted>,
    /// Deepest nesting written, checked against [`MAX_DEPTH`].
    depth: usize,
}

impl Default for BinarySink {
    fn default() -> Self {
        BinarySink {
            out: Vec::with_capacity(INITIAL_CAPACITY),
            open: Vec::new(),
            depth: 0,
        }
    }
}

impl BinarySink {
    fn put_u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("a string fits a u32 length"));
        self.out.extend_from_slice(s.as_bytes());
    }

    /// A string whose bytes are formatted in place: a length placeholder,
    /// the bytes, then the length.
    fn put_fmt(&mut self, value: fmt::Arguments<'_>) {
        let at = self.out.len();
        self.put_u32(0);
        fmt::Write::write_fmt(&mut Raw(&mut self.out), value).expect("formatting into a buffer");
        let len = u32::try_from(self.out.len() - at - 4).expect("a string fits a u32 length");
        patch(&mut self.out, at, len);
    }

    /// Count one more attribute of the element just opened, and write
    /// its name.
    fn attr_name(&mut self, name: &str) {
        let top = self
            .open
            .last_mut()
            .expect("an attribute has an open element");
        assert!(
            top.in_attrs,
            "an attribute follows its element's open and precedes its children"
        );
        top.count += 1;
        self.put_str(name);
    }

    /// Count one more child of the open element (the root has no
    /// parent), ending its attributes if this is the first.
    fn child(&mut self) {
        let Some(top) = self.open.last_mut() else {
            assert!(self.out.is_empty(), "a document has one root element");
            return;
        };
        if top.in_attrs {
            // The attribute count is final; the child count follows it.
            patch(&mut self.out, top.at, top.count);
            *top = Counted {
                at: self.out.len(),
                count: 0,
                in_attrs: false,
            };
            self.out.extend_from_slice(&0u32.to_le_bytes());
        }
        top.count += 1;
    }

    /// The encoding written.
    ///
    /// # Panics
    ///
    /// If an element is still open, or the document nests deeper than
    /// [`MAX_DEPTH`] elements: no decoder accepts such a document, so its
    /// encoding could never be read back.
    fn finish(self) -> Encoded {
        assert!(self.open.is_empty(), "every opened element is closed");
        assert!(
            self.depth <= MAX_DEPTH,
            "an encoded document nests at most binary::MAX_DEPTH elements deep"
        );
        Encoded::from_vec(self.out)
    }
}

impl Sink for BinarySink {
    fn open(&mut self, name: &str) {
        self.child();
        self.out.push(TAG_ELEMENT);
        self.put_str(name);
        let at = self.out.len();
        self.put_u32(0);
        self.open.push(Counted {
            at,
            count: 0,
            in_attrs: true,
        });
        self.depth = self.depth.max(self.open.len());
    }

    fn attr(&mut self, name: &str, value: &str) {
        self.attr_name(name);
        self.put_str(value);
    }

    fn attr_fmt(&mut self, name: &str, value: fmt::Arguments<'_>) {
        self.attr_name(name);
        self.put_fmt(value);
    }

    fn text(&mut self, text: &str) {
        self.child();
        self.out.push(TAG_TEXT);
        self.put_str(text);
    }

    fn text_fmt(&mut self, text: fmt::Arguments<'_>) {
        self.child();
        self.out.push(TAG_TEXT);
        self.put_fmt(text);
    }

    fn close(&mut self) {
        let top = self.open.pop().expect("close matches an open");
        patch(&mut self.out, top.at, top.count);
        if top.in_attrs {
            // No child was written: a zero child count follows the
            // attributes.
            self.put_u32(0);
        }
    }
}

/// The document as an [`Element`] tree.
#[derive(Debug, Default)]
struct TreeSink {
    open: Vec<Element>,
    root: Option<Element>,
}

impl TreeSink {
    fn top(&mut self) -> &mut Element {
        self.open.last_mut().expect("an open element")
    }

    fn push_attr(&mut self, name: &str, value: String) {
        let top = self.top();
        assert!(
            top.children.is_empty(),
            "an attribute follows its element's open and precedes its children"
        );
        top.attrs.push((name.to_owned(), value));
    }

    /// The tree written.
    ///
    /// # Panics
    ///
    /// If no root element was closed.
    fn finish(self) -> Element {
        assert!(self.open.is_empty(), "every opened element is closed");
        self.root.expect("a document has one root element")
    }
}

impl Sink for TreeSink {
    fn open(&mut self, name: &str) {
        assert!(self.root.is_none(), "a document has one root element");
        self.open.push(Element::new(name));
    }

    fn attr(&mut self, name: &str, value: &str) {
        self.push_attr(name, value.to_owned());
    }

    fn attr_fmt(&mut self, name: &str, value: fmt::Arguments<'_>) {
        self.push_attr(name, value.to_string());
    }

    fn text(&mut self, text: &str) {
        self.top().children.push(Node::Text(text.to_owned()));
    }

    fn text_fmt(&mut self, text: fmt::Arguments<'_>) {
        self.top().children.push(Node::Text(text.to_string()));
    }

    fn close(&mut self) {
        let element = self.open.pop().expect("close matches an open");
        match self.open.last_mut() {
            Some(parent) => parent.children.push(Node::Element(element)),
            None => self.root = Some(element),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_element, to_string};
    use proptest::prelude::*;

    /// Replays a tree as sink events: the tree's own document shape.
    struct Tree<'a>(&'a Element);

    fn replay<S: Sink>(e: &Element, sink: &mut S) {
        sink.open(&e.name);
        for (name, value) in &e.attrs {
            sink.attr(name, value);
        }
        for child in &e.children {
            match child {
                Node::Element(el) => replay(el, sink),
                Node::Text(t) => sink.text(t),
            }
        }
        sink.close();
    }

    impl Document for Tree<'_> {
        fn write_to<S: Sink>(&self, sink: &mut S) {
            replay(self.0, sink);
        }
    }

    /// Formatted values: the `_fmt` calls must write what the plain
    /// calls write for the same string.
    struct Formatted<'a>(&'a Element);

    fn replay_fmt<S: Sink>(e: &Element, sink: &mut S) {
        sink.open(&e.name);
        for (name, value) in &e.attrs {
            sink.attr_fmt(name, format_args!("{value}"));
        }
        for child in &e.children {
            match child {
                Node::Element(el) => replay_fmt(el, sink),
                Node::Text(t) => sink.text_fmt(format_args!("{t}")),
            }
        }
        sink.close();
    }

    impl Document for Formatted<'_> {
        fn write_to<S: Sink>(&self, sink: &mut S) {
            replay_fmt(self.0, sink);
        }
    }

    fn assert_sinks_agree(e: &Element) {
        for (tree, text, encoded) in [
            (Tree(e).to_tree(), Tree(e).to_text(), Tree(e).encode()),
            (
                Formatted(e).to_tree(),
                Formatted(e).to_text(),
                Formatted(e).encode(),
            ),
        ] {
            assert_eq!(&tree, e);
            assert_eq!(text, to_string(e));
            assert_eq!(encoded.as_bytes(), encode_element(e).as_slice());
        }
    }

    #[test]
    fn empty_elements_self_close_and_empty_text_is_a_child() {
        for e in [
            Element::new("a"),
            Element::new("a").attr("k", "v"),
            Element::new("a").text(""),
            Element::new("a").text("").text(""),
            Element::new("a").attr("k", "").child(Element::new("b")),
        ] {
            assert_sinks_agree(&e);
        }
        assert_eq!(Tree(&Element::new("a").text("")).to_text(), "<a></a>");
    }

    #[test]
    fn every_escape_matches_the_writer() {
        let special = "& < > \" ' \n \t é中😀 &amp;";
        let e = Element::new("a")
            .attr("k", special)
            .text(special)
            .child(Element::new("b").attr("q", "\"\"").text("x>y"));
        assert_sinks_agree(&e);
    }

    #[test]
    #[should_panic(expected = "precedes its children")]
    fn an_attribute_after_a_child_is_refused() {
        let mut sink = BinarySink::default();
        sink.open("a");
        sink.text("t");
        sink.attr("k", "v");
    }

    #[test]
    #[should_panic(expected = "MAX_DEPTH")]
    fn the_binary_sink_keeps_the_depth_bound() {
        let mut sink = BinarySink::default();
        for _ in 0..=MAX_DEPTH {
            sink.open("d");
        }
        for _ in 0..=MAX_DEPTH {
            sink.close();
        }
        let _ = sink.finish();
    }

    #[test]
    fn the_binary_sink_writes_max_depth() {
        let mut sink = BinarySink::default();
        for _ in 0..MAX_DEPTH {
            sink.open("d");
        }
        for _ in 0..MAX_DEPTH {
            sink.close();
        }
        let encoded = sink.finish();
        assert!(crate::binary::validate(encoded.as_bytes()));
    }

    fn arb_name() -> impl Strategy<Value = String> {
        "[a-zA-Z_][a-zA-Z0-9_.:-]{0,8}"
    }

    fn arb_text() -> impl Strategy<Value = String> {
        "[a-z &<>\"'\n\té中😀]{0,12}"
    }

    fn arb_element() -> impl Strategy<Value = Element> {
        let leaf = (
            arb_name(),
            proptest::collection::vec((arb_name(), arb_text()), 0..3),
        )
            .prop_map(|(name, attrs)| Element {
                name,
                attrs,
                children: Vec::new(),
            });
        leaf.prop_recursive(3, 24, 4, |inner| {
            (
                arb_name(),
                proptest::collection::vec((arb_name(), arb_text()), 0..3),
                proptest::collection::vec(
                    prop_oneof![
                        inner.prop_map(Node::Element),
                        arb_text().prop_map(Node::Text),
                    ],
                    0..4,
                ),
            )
                .prop_map(|(name, attrs, children)| Element {
                    name,
                    attrs,
                    children,
                })
        })
    }

    proptest! {
        /// Any tree replayed into the sinks comes back as itself, its
        /// `to_string` text and its `encode_element` bytes (adjacent and
        /// empty text runs, duplicate attribute names and every escape
        /// included).
        #[test]
        fn sinks_reproduce_the_tree_serializers(e in arb_element()) {
            assert_sinks_agree(&e);
        }
    }
}
