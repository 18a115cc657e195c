//! Minimal XML infrastructure for the `trust-vo` workspace.
//!
//! X-TNL — the Trust-X negotiation language — encodes both credentials and
//! disclosure policies as XML documents (paper §4.1, §6.2), and policy
//! conditions on counterpart credentials are stored as *XPath expressions*
//! evaluated against the credential document (paper Example 1: the
//! `<certCond>` element "stores an Xpath expression on the credential").
//!
//! The paper's prototype used the Java/Oracle XML stack; this crate
//! re-implements the fragment actually needed:
//!
//! * [`node`] — an ordered element/text tree with attributes,
//! * [`writer`] — canonical (deterministic) serialization, compact and
//!   pretty-printed,
//! * [`parser`] — a recursive-descent parser for the subset the writer
//!   emits (elements, attributes, text, comments, XML declarations),
//! * [`xpath`] — an XPath-subset evaluator covering the location paths and
//!   comparisons used by `<certCond>` conditions,
//! * [`binary`] — the wire-speed length-prefixed binary codec for the same
//!   tree, with the XML pair kept as its differential oracle,
//! * [`stream`] — one streaming element writer with three sinks (that
//!   text, that binary, or a tree), against which each document shape is
//!   written once.
//!
//! The canonical writer/parser pair round-trips (`parse(write(d)) == d`),
//! which is the invariant the credential-signing path depends on: a
//! signature is computed over the canonical byte form.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod error;
pub mod node;
pub mod parser;
pub mod stream;
pub mod writer;
pub mod xpath;

pub use binary::{decode_element, decode_element_at, encode_element, encode_element_into};
pub use error::XmlError;
pub use node::{Element, Node};
pub use parser::parse;
pub use stream::{Document, Sink};
pub use writer::{to_string, to_string_pretty};
pub use xpath::{CmpOp, Selector, XPathExpr};
