//! A recursive-descent parser for the XML subset the workspace emits.
//!
//! Supported: one root element, nested elements, attributes with single or
//! double quotes, text with the standard five entities plus decimal/hex
//! character references, comments, and a leading XML declaration /
//! processing instructions (skipped). Not supported (not needed by X-TNL):
//! DTDs, namespaces-as-semantics (prefixes are kept verbatim in names), and
//! CDATA sections.

use crate::binary::MAX_DEPTH;
use crate::error::XmlError;
use crate::node::{Element, Node};

/// Parse a complete document and return its root element.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
    };
    p.skip_prolog()?;
    let root = p.parse_element(0)?;
    p.skip_misc()?;
    if p.pos != p.input.len() {
        return Err(p.err("trailing content after the root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError::new(self.pos, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, prefix: &[u8]) -> bool {
        self.input[self.pos..].starts_with(prefix)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), XmlError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    /// Skip the XML declaration, processing instructions, comments, and
    /// whitespace before the root element.
    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with(b"<?") {
                self.skip_until(b"?>")?;
            } else if self.starts_with(b"<!--") {
                self.skip_until(b"-->")?;
            } else if self.starts_with(b"<!") {
                // DOCTYPE etc. — skip to the closing '>'.
                self.skip_until(b">")?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skip trailing comments/whitespace after the root element.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with(b"<!--") {
                self.skip_until(b"-->")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, terminator: &[u8]) -> Result<(), XmlError> {
        while self.pos < self.input.len() {
            if self.starts_with(terminator) {
                self.pos += terminator.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.err(format!(
            "unterminated construct (expected {:?})",
            String::from_utf8_lossy(terminator)
        )))
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        // Input is a &str, so this slice is valid UTF-8.
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    /// Parse the element starting at `pos`, which sits `depth` elements
    /// below the root. Nesting deeper than [`MAX_DEPTH`] is an error, so a
    /// counterpart's document cannot exhaust the stack. Tags, text and
    /// error formatting live in helpers to keep this recursive frame small.
    fn parse_element(&mut self, depth: usize) -> Result<Element, XmlError> {
        if depth >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        let (mut element, self_closing) = self.parse_start_tag()?;
        if self_closing {
            return Ok(element);
        }
        // Children until the matching end tag.
        loop {
            if self.starts_with(b"<!--") {
                self.skip_until(b"-->")?;
            } else if self.starts_with(b"</") {
                self.parse_end_tag(&element.name)?;
                return Ok(element);
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element(depth + 1)?;
                element.children.push(Node::Element(child));
            } else {
                self.parse_text_into(&mut element)?;
            }
        }
    }

    fn too_deep(&self) -> XmlError {
        self.err(format!("elements nested deeper than {MAX_DEPTH}"))
    }

    /// Parse `<name attr="v" …>` or `<name … />` into a childless element,
    /// and say whether the tag closed itself.
    fn parse_start_tag(&mut self) -> Result<(Element, bool), XmlError> {
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut element = Element::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok((element, true));
                }
                Some(b'>') => {
                    self.pos += 1;
                    return Ok((element, false));
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = self.peek().ok_or_else(|| self.err("eof in attribute"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.err("expected a quoted attribute value"));
                    }
                    self.pos += 1;
                    let value = self.parse_until_quote(quote)?;
                    element.attrs.push((attr_name, value));
                }
                None => return Err(self.err("eof inside a start tag")),
            }
        }
    }

    /// Parse `</name>`, which must close the element called `name`.
    fn parse_end_tag(&mut self, name: &str) -> Result<(), XmlError> {
        self.pos += 2;
        let end_name = self.parse_name()?;
        if end_name != name {
            return Err(self.err(format!(
                "mismatched end tag: expected </{name}>, found </{end_name}>"
            )));
        }
        self.skip_ws();
        self.expect(b'>')
    }

    /// Parse a text run into `element`, merging it with a preceding text
    /// child for a canonical tree.
    fn parse_text_into(&mut self, element: &mut Element) -> Result<(), XmlError> {
        if self.peek().is_none() {
            return Err(self.err(format!("eof inside <{}>", element.name)));
        }
        let text = self.parse_text()?;
        if !text.is_empty() {
            if let Some(Node::Text(prev)) = element.children.last_mut() {
                prev.push_str(&text);
            } else {
                element.children.push(Node::Text(text));
            }
        }
        Ok(())
    }

    fn parse_until_quote(&mut self, quote: u8) -> Result<String, XmlError> {
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(c) if c == quote => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'&') => out.push(self.parse_entity()?),
                Some(b'<') => return Err(self.err("'<' not allowed in attribute value")),
                Some(c) => {
                    self.push_utf8(c, &mut out);
                }
                None => return Err(self.err("eof inside attribute value")),
            }
        }
    }

    fn parse_text(&mut self) -> Result<String, XmlError> {
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'<') | None => return Ok(out),
                Some(b'&') => out.push(self.parse_entity()?),
                Some(c) => {
                    self.push_utf8(c, &mut out);
                }
            }
        }
    }

    /// Copy one UTF-8 scalar starting at the current byte.
    fn push_utf8(&mut self, first: u8, out: &mut String) {
        let len = match first {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        };
        let end = (self.pos + len).min(self.input.len());
        let slice = &self.input[self.pos..end];
        out.push_str(&String::from_utf8_lossy(slice));
        self.pos = end;
    }

    fn parse_entity(&mut self) -> Result<char, XmlError> {
        debug_assert_eq!(self.peek(), Some(b'&'));
        let start = self.pos;
        self.pos += 1;
        let semi = self.input[self.pos..]
            .iter()
            .position(|&b| b == b';')
            .ok_or_else(|| self.err("unterminated entity"))?;
        let body = &self.input[self.pos..self.pos + semi];
        self.pos += semi + 1;
        let name = String::from_utf8_lossy(body);
        let ch = match name.as_ref() {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                let code = u32::from_str_radix(&name[2..], 16).map_err(|_| {
                    XmlError::new(start, format!("bad character reference &{name};"))
                })?;
                char::from_u32(code)
                    .ok_or_else(|| XmlError::new(start, format!("invalid code point {code}")))?
            }
            _ if name.starts_with('#') => {
                let code = name[1..].parse::<u32>().map_err(|_| {
                    XmlError::new(start, format!("bad character reference &{name};"))
                })?;
                char::from_u32(code)
                    .ok_or_else(|| XmlError::new(start, format!("invalid code point {code}")))?
            }
            _ => return Err(XmlError::new(start, format!("unknown entity &{name};"))),
        };
        Ok(ch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{to_string, to_string_pretty};
    use proptest::prelude::*;

    #[test]
    fn parses_simple_document() {
        let root = parse(r#"<a k="v"><b>hi</b></a>"#).unwrap();
        assert_eq!(root.name, "a");
        assert_eq!(root.get_attr("k"), Some("v"));
        assert_eq!(root.first("b").unwrap().text_content(), "hi");
    }

    #[test]
    fn skips_declaration_and_comments() {
        let doc = "<?xml version=\"1.0\"?>\n<!-- note -->\n<a><!-- inner -->x</a>\n<!-- after -->";
        let root = parse(doc).unwrap();
        assert_eq!(root.text_content(), "x");
    }

    #[test]
    fn self_closing_and_single_quotes() {
        let root = parse("<a k='v'><b/></a>").unwrap();
        assert_eq!(root.get_attr("k"), Some("v"));
        assert!(root.first("b").unwrap().children.is_empty());
    }

    #[test]
    fn entities_decoded() {
        let root = parse("<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos; &#65;&#x42;</a>").unwrap();
        assert_eq!(root.text_content(), "<x> & \"y\" 'z' AB");
    }

    #[test]
    fn adjacent_text_merged() {
        let root = parse("<a>x&amp;y</a>").unwrap();
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.text_content(), "x&y");
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn rejects_truncated_inputs() {
        for doc in ["<a", "<a>", "<a attr", "<a k=\"v", "<a>&amp", "<a><b></b>"] {
            assert!(parse(doc).is_err(), "should reject {doc:?}");
        }
    }

    #[test]
    fn nesting_deeper_than_max_depth_is_an_error() {
        // On a 2 MiB stack, as a spawned thread gets by default: without the
        // bound, recursion overflowed it on this input and aborted the process.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let err = parse(&"<a>".repeat(100_000)).unwrap_err();
                assert_eq!(err.offset, 3 * MAX_DEPTH, "{err}");
                assert!(err.message.contains("nested deeper than 1024"), "{err}");
                let nested = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
                assert!(parse(&nested(MAX_DEPTH)).is_ok());
                assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn unknown_entity_is_error() {
        assert!(parse("<a>&nbsp;</a>").is_err());
    }

    #[test]
    fn utf8_text_preserved() {
        let root = parse("<a>héllo — 日本語</a>").unwrap();
        assert_eq!(root.text_content(), "héllo — 日本語");
    }

    // ---- round-trip properties ----

    fn arb_name() -> impl Strategy<Value = String> {
        "[a-zA-Z][a-zA-Z0-9_.-]{0,8}"
    }

    fn arb_text() -> impl Strategy<Value = String> {
        // Text without whitespace-only runs (those are not canonical).
        "[ -~]{1,20}".prop_map(|s| s.replace('\u{0}', "x"))
    }

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
                    // Merge adjacent text nodes so the tree is canonical.
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
        #[test]
        fn compact_roundtrip(e in arb_element()) {
            let s = to_string(&e);
            let back = parse(&s).unwrap();
            prop_assert_eq!(back, e);
        }

        #[test]
        fn pretty_output_parses(e in arb_element()) {
            // Pretty output re-indents, so only structure (names/attrs) is
            // guaranteed; it must at least parse.
            let s = to_string_pretty(&e);
            let back = parse(&s).unwrap();
            prop_assert_eq!(back.name, e.name);
            prop_assert_eq!(back.attrs, e.attrs);
        }
    }
}

#[cfg(test)]
mod robustness {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The parser never panics, whatever bytes arrive (it may error).
        #[test]
        fn parse_never_panics(input in "\\PC{0,200}") {
            let _ = parse(&input);
        }

        /// Near-valid inputs: random mutations of a valid document either
        /// parse or error — never panic, never loop.
        #[test]
        fn mutated_documents_never_panic(
            idx in any::<prop::sample::Index>(),
            replacement in any::<u8>(),
        ) {
            let base = r#"<credential credID="c1"><header><credType>ISO</credType></header><content><A type="integer">42</A></content><signature>QUJD</signature></credential>"#;
            let mut bytes = base.as_bytes().to_vec();
            let i = idx.index(bytes.len());
            bytes[i] = replacement;
            if let Ok(text) = String::from_utf8(bytes) {
                let _ = parse(&text);
            }
        }

        /// Anything that parses re-serializes and re-parses to the same tree
        /// (idempotent canonicalization).
        #[test]
        fn parse_write_parse_is_stable(input in "\\PC{0,200}") {
            if let Ok(doc) = parse(&input) {
                let text = crate::writer::to_string(&doc);
                let again = parse(&text).expect("writer output always parses");
                prop_assert_eq!(again, doc);
            }
        }
    }
}
