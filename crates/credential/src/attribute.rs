//! Typed credential attributes.
//!
//! X-TNL credentials "encode properties, of different natures" (§1); the
//! `<content>` element "contains all the attributes that characterize the
//! credential type" (§6.2). Attribute values are typed so that policy
//! conditions can compare them numerically or as strings.

use crate::time::Timestamp;

/// The value of a credential attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AttrValue {
    /// Free text (e.g. `QualityRegulation = "UNI EN ISO 9000"`).
    Str(String),
    /// Integer (e.g. a salary, an employee count).
    Int(i64),
    /// Boolean flag.
    Bool(bool),
    /// A date/time value (e.g. an accreditation date).
    Date(Timestamp),
}

impl AttrValue {
    /// The canonical string form (used in XML content and XPath
    /// comparisons): the [`Display`](std::fmt::Display) form.
    pub fn canonical(&self) -> String {
        self.to_string()
    }

    /// The X-TNL type tag for the XML `type` attribute.
    pub fn type_tag(&self) -> &'static str {
        match self {
            AttrValue::Str(_) => "string",
            AttrValue::Int(_) => "integer",
            AttrValue::Bool(_) => "boolean",
            AttrValue::Date(_) => "date",
        }
    }

    /// Parse a value from its tag and canonical form.
    pub fn from_tagged(tag: &str, text: &str) -> Option<Self> {
        match tag {
            "string" => Some(AttrValue::Str(text.to_owned())),
            "integer" => text.parse().ok().map(AttrValue::Int),
            "boolean" => text.parse().ok().map(AttrValue::Bool),
            "date" => Timestamp::parse_iso(text).map(AttrValue::Date),
            _ => None,
        }
    }
}

impl std::fmt::Display for AttrValue {
    /// The canonical string form.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Date(t) => write!(f, "{t}"),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}

impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Int(i)
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

/// A named attribute inside a credential's `<content>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// The attribute name (an XML element name, e.g. `QualityRegulation`).
    pub name: String,
    /// The typed value.
    pub value: AttrValue,
}

impl Attribute {
    /// Construct an attribute.
    pub fn new(name: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        Attribute {
            name: name.into(),
            value: value.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_forms() {
        assert_eq!(AttrValue::Str("x".into()).canonical(), "x");
        assert_eq!(AttrValue::Int(-5).canonical(), "-5");
        assert_eq!(AttrValue::Bool(true).canonical(), "true");
        assert_eq!(
            AttrValue::Date(Timestamp::from_ymd_hms(2009, 10, 26, 21, 32, 52)).canonical(),
            "2009-10-26T21:32:52"
        );
    }

    #[test]
    fn tagged_roundtrip() {
        for v in [
            AttrValue::Str("hello world".into()),
            AttrValue::Int(42),
            AttrValue::Bool(false),
            AttrValue::Date(Timestamp(1_234_567)),
        ] {
            let back = AttrValue::from_tagged(v.type_tag(), &v.canonical()).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn from_tagged_rejects_garbage() {
        assert!(AttrValue::from_tagged("integer", "abc").is_none());
        assert!(AttrValue::from_tagged("boolean", "yes").is_none());
        assert!(AttrValue::from_tagged("date", "2009").is_none());
        assert!(AttrValue::from_tagged("unknown", "x").is_none());
    }

    #[test]
    fn conversions() {
        assert_eq!(AttrValue::from("a"), AttrValue::Str("a".into()));
        assert_eq!(AttrValue::from(7i64), AttrValue::Int(7));
        assert_eq!(AttrValue::from(true), AttrValue::Bool(true));
        let a = Attribute::new("Salary", 60_000i64);
        assert_eq!(a.name, "Salary");
        assert_eq!(a.value, AttrValue::Int(60_000));
    }
}
