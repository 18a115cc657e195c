//! The XML value model: an ordered tree of elements and text.

/// A node in an XML tree: either an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// An element with a name, attributes, and ordered children.
    Element(Element),
    /// A text run. Adjacent text runs are merged by the parser.
    Text(String),
}

impl Node {
    /// The element inside this node, if it is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }
}

impl From<Element> for Node {
    fn from(e: Element) -> Self {
        Node::Element(e)
    }
}

/// An XML element.
///
/// Attribute order is preserved and significant for the canonical encoding;
/// builders should insert attributes in a deterministic order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// The tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Children in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Create an element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: add an attribute.
    #[must_use]
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Builder: add an element child.
    #[must_use]
    pub fn child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder: add a text child.
    #[must_use]
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Look up an attribute by name (first match wins).
    pub fn get_attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Set or replace an attribute.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attrs.push((name, value));
        }
    }

    /// Iterate over element children only.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// First element child with the given tag name.
    pub fn first(&self, name: &str) -> Option<&Element> {
        self.elements().find(|e| e.name == name)
    }

    /// All element children with the given tag name.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.elements().filter(move |e| e.name == name)
    }

    /// Concatenated direct text content of this element.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            if let Node::Text(t) = c {
                out.push_str(t);
            }
        }
        out
    }

    /// Text content of the first child element with the given name, if any.
    pub fn child_text(&self, name: &str) -> Option<String> {
        self.first(name).map(Element::text_content)
    }

    /// Elements on the longest path from this element to a leaf, this
    /// element included (1 for an element with no element children).
    /// The decoders accept at most [`crate::binary::MAX_DEPTH`].
    pub fn depth(&self) -> usize {
        1 + self.elements().map(Element::depth).max().unwrap_or(0)
    }

    /// Total number of nodes in this subtree (the element itself included).
    pub fn size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|c| match c {
                Node::Element(e) => e.size(),
                Node::Text(_) => 1,
            })
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("credential")
            .attr("credID", "c1")
            .child(
                Element::new("header")
                    .child(Element::new("credType").text("ISO9000Certified"))
                    .child(Element::new("issuer").text("INFN")),
            )
            .child(
                Element::new("content")
                    .child(Element::new("QualityRegulation").text("UNI EN ISO 9000")),
            )
    }

    #[test]
    fn builder_and_accessors() {
        let e = sample();
        assert_eq!(e.get_attr("credID"), Some("c1"));
        assert_eq!(e.get_attr("missing"), None);
        assert_eq!(
            e.first("header").unwrap().child_text("issuer").unwrap(),
            "INFN"
        );
        assert_eq!(e.elements().count(), 2);
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("a").attr("k", "v1");
        e.set_attr("k", "v2");
        e.set_attr("k2", "x");
        assert_eq!(e.get_attr("k"), Some("v2"));
        assert_eq!(e.attrs.len(), 2);
    }

    #[test]
    fn text_content_concatenates_direct_text_only() {
        let e = Element::new("a")
            .text("x")
            .child(Element::new("b").text("hidden"))
            .text("y");
        assert_eq!(e.text_content(), "xy");
    }

    #[test]
    fn all_filters_by_name() {
        let e = Element::new("r")
            .child(Element::new("c").text("1"))
            .child(Element::new("d"))
            .child(Element::new("c").text("2"));
        let texts: Vec<String> = e.all("c").map(Element::text_content).collect();
        assert_eq!(texts, ["1", "2"]);
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Element::new("a").size(), 1);
        assert_eq!(Element::new("a").text("t").size(), 2);
        assert_eq!(sample().size(), 9);
    }

    #[test]
    fn depth_counts_elements_on_the_longest_path() {
        assert_eq!(Element::new("a").text("t").depth(), 1);
        assert_eq!(sample().depth(), 3);
    }
}
