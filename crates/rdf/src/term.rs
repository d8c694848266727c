//! RDF terms: IRIs, blank nodes, and literals.
//!
//! Following the paper's preliminaries (§2), we assume three pairwise
//! disjoint sets *I* (IRIs), *L* (literals) and *B* (blank nodes); the set
//! of nodes is `N = I ∪ B ∪ L`. An RDF triple is an element of
//! `(I ∪ B) × I × N`.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::value::LiteralValue;
use crate::vocab::xsd;

/// An IRI (Internationalized Resource Identifier).
///
/// IRIs are stored as shared strings so cloning a term is cheap; graphs and
/// engines additionally intern terms into dense integer ids (see
/// [`crate::graph::TermId`]).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(Arc<str>);

impl Iri {
    /// Creates an IRI from its string form. No resolution is performed; the
    /// string is used verbatim as the identifier.
    pub fn new(iri: impl Into<Arc<str>>) -> Self {
        Iri(iri.into())
    }

    /// The IRI string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl From<&str> for Iri {
    fn from(s: &str) -> Self {
        Iri::new(s)
    }
}

impl From<String> for Iri {
    fn from(s: String) -> Self {
        Iri::new(s)
    }
}

/// A blank node, identified by its label.
///
/// Labels are only meaningful within a single graph; parsers keep document
/// labels, generated blank nodes use a `b<counter>` scheme.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(Arc<str>);

impl BlankNode {
    /// Creates a blank node with the given label (without the `_:` prefix).
    pub fn new(label: impl Into<Arc<str>>) -> Self {
        BlankNode(label.into())
    }

    /// The blank node label (without the `_:` prefix).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// An RDF literal: a lexical form plus either a language tag or a datatype.
///
/// The paper abstracts literals by an equivalence `~` ("same language tag")
/// and a strict partial order `<` (numeric / string / dateTime comparisons);
/// both are realized through the parsed [`LiteralValue`] obtained with
/// [`Literal::value`].
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Arc<str>,
    /// Language tag, lower-cased, for `rdf:langString` literals.
    language: Option<Arc<str>>,
    /// Datatype IRI. `xsd:string` for plain literals, `rdf:langString` when a
    /// language tag is present.
    datatype: Iri,
}

impl Literal {
    /// A simple `xsd:string` literal.
    pub fn string(lexical: impl Into<Arc<str>>) -> Self {
        Literal {
            lexical: lexical.into(),
            language: None,
            datatype: xsd::string(),
        }
    }

    /// A language-tagged string (`rdf:langString`). Tags compare
    /// case-insensitively, so the tag is lower-cased on construction.
    pub fn lang_string(lexical: impl Into<Arc<str>>, lang: &str) -> Self {
        Literal {
            lexical: lexical.into(),
            language: Some(lang.to_ascii_lowercase().into()),
            datatype: crate::vocab::rdf::lang_string(),
        }
    }

    /// A literal with an explicit datatype.
    pub fn typed(lexical: impl Into<Arc<str>>, datatype: Iri) -> Self {
        Literal {
            lexical: lexical.into(),
            language: None,
            datatype,
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Literal::typed(value.to_string(), xsd::integer())
    }

    /// An `xsd:decimal` literal.
    pub fn decimal(value: f64) -> Self {
        Literal::typed(format!("{value}"), xsd::decimal())
    }

    /// An `xsd:double` literal.
    pub fn double(value: f64) -> Self {
        Literal::typed(format!("{value}"), xsd::double())
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(value: bool) -> Self {
        Literal::typed(if value { "true" } else { "false" }, xsd::boolean())
    }

    /// The lexical form.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The language tag (lower-cased), if any.
    pub fn language(&self) -> Option<&str> {
        self.language.as_deref()
    }

    /// The datatype IRI.
    pub fn datatype(&self) -> &Iri {
        &self.datatype
    }

    /// Parses the lexical form according to the datatype, yielding the typed
    /// value used for ordering and filtering. Returns
    /// [`LiteralValue::Other`] for unrecognized datatypes or ill-formed
    /// lexical forms.
    pub fn value(&self) -> LiteralValue {
        LiteralValue::parse(&self.lexical, &self.datatype)
    }

    /// The paper's `~` relation: both literals carry a language tag and the
    /// tags are equal (case-insensitive).
    pub fn same_language(&self, other: &Literal) -> bool {
        matches!((&self.language, &other.language), (Some(a), Some(b)) if a == b)
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.lexical))?;
        if let Some(lang) = &self.language {
            write!(f, "@{lang}")
        } else if self.datatype.as_str() != crate::vocab::XSD_STRING {
            write!(f, "^^{}", self.datatype)
        } else {
            Ok(())
        }
    }
}

/// Escapes a literal's lexical form for N-Triples/Turtle output.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped_literal(&mut out, s);
    out
}

/// The bytes [`escape_literal`] replaces, each by two characters.
pub(crate) fn literal_escaped(b: u8) -> bool {
    matches!(b, b'"' | b'\\' | b'\n' | b'\r' | b'\t')
}

/// Appends [`escape_literal`]`(s)` to `out` without an intermediate
/// string; text with nothing to escape is copied in one piece.
pub fn push_escaped_literal(out: &mut String, s: &str) {
    if !s.bytes().any(literal_escaped) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
}

/// A node: an element of `N = I ∪ B ∪ L`.
///
/// `Hash` goes through the term's borrowed strings, so an interner can look
/// a term up by the strings a parser lexed without building the `Term`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Term {
    Iri(Iri),
    Blank(BlankNode),
    Literal(Literal),
}

impl Term {
    /// Convenience constructor for an IRI term.
    pub fn iri(iri: impl Into<Arc<str>>) -> Self {
        Term::Iri(Iri::new(iri))
    }

    /// Convenience constructor for a blank node term.
    pub fn blank(label: impl Into<Arc<str>>) -> Self {
        Term::Blank(BlankNode::new(label))
    }

    /// True iff this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True iff this term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// True iff this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// The IRI, if this term is one.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// The literal, if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }

    /// True iff this term may appear in subject position (`I ∪ B`).
    pub fn is_subject(&self) -> bool {
        !self.is_literal()
    }

    /// The term's strings, borrowed.
    pub(crate) fn key(&self) -> TermKey<'_> {
        match self {
            Term::Iri(iri) => TermKey::Iri(iri.as_str()),
            Term::Blank(b) => TermKey::Blank(b.as_str()),
            Term::Literal(lit) => TermKey::Literal {
                lexical: lit.lexical(),
                language: lit.language(),
                datatype: lit.datatype().as_str(),
            },
        }
    }
}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// A term as borrowed strings: what terms are hashed and compared as when
/// interned. Equal keys denote equal terms; a literal's `language` is
/// already lower-cased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum TermKey<'a> {
    Iri(&'a str),
    Blank(&'a str),
    Literal {
        lexical: &'a str,
        language: Option<&'a str>,
        datatype: &'a str,
    },
}

impl TermKey<'_> {
    /// The owned term, sharing the well-known datatype IRIs.
    pub(crate) fn to_term(self) -> Term {
        match self {
            TermKey::Iri(iri) => Term::Iri(Iri::new(iri)),
            TermKey::Blank(label) => Term::Blank(BlankNode::new(label)),
            TermKey::Literal {
                lexical,
                language,
                datatype,
            } => Term::Literal(Literal {
                lexical: lexical.into(),
                language: language.map(Into::into),
                datatype: crate::vocab::datatype_iri(datatype),
            }),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(v) => fmt::Debug::fmt(v, f),
            Term::Blank(v) => fmt::Debug::fmt(v, f),
            Term::Literal(v) => fmt::Debug::fmt(v, f),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(v) => fmt::Display::fmt(v, f),
            Term::Blank(v) => fmt::Display::fmt(v, f),
            Term::Literal(v) => fmt::Display::fmt(v, f),
        }
    }
}

impl From<Iri> for Term {
    fn from(iri: Iri) -> Self {
        Term::Iri(iri)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::Blank(b)
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Self {
        Term::Literal(l)
    }
}

/// An RDF triple `(s, p, o) ∈ (I ∪ B) × I × N`.
///
/// The subject is stored as a [`Term`] with the invariant (enforced by
/// [`Triple::new`] and the graph store) that it is never a literal.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    pub subject: Term,
    pub predicate: Iri,
    pub object: Term,
}

impl Triple {
    /// Creates a triple. Panics if `subject` is a literal — such a triple is
    /// not an RDF triple (§2); parsers reject this earlier with a proper
    /// error.
    pub fn new(
        subject: impl Into<Term>,
        predicate: impl Into<Iri>,
        object: impl Into<Term>,
    ) -> Self {
        let subject = subject.into();
        assert!(
            subject.is_subject(),
            "triple subject must be an IRI or blank node, got literal {subject}"
        );
        Triple {
            subject,
            predicate: predicate.into(),
            object: object.into(),
        }
    }
}

impl fmt::Debug for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_display_and_eq() {
        let a = Iri::new("http://example.org/a");
        let b = Iri::new("http://example.org/a");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "<http://example.org/a>");
    }

    #[test]
    fn lang_tags_are_case_insensitive() {
        let a = Literal::lang_string("chat", "FR");
        let b = Literal::lang_string("cat", "fr");
        assert!(a.same_language(&b));
        assert_eq!(a.language(), Some("fr"));
    }

    #[test]
    fn plain_literals_have_no_language() {
        let a = Literal::string("x");
        let b = Literal::string("x");
        assert!(!a.same_language(&b));
    }

    #[test]
    fn literal_display_forms() {
        assert_eq!(Literal::string("hi").to_string(), "\"hi\"");
        assert_eq!(Literal::lang_string("hi", "en").to_string(), "\"hi\"@en");
        assert_eq!(
            Literal::integer(42).to_string(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn literal_escaping() {
        assert_eq!(
            Literal::string("a\"b\\c\nd").to_string(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    #[should_panic(expected = "subject must be an IRI or blank node")]
    fn literal_subject_rejected() {
        let _ = Triple::new(
            Term::Literal(Literal::string("x")),
            Iri::new("p"),
            Term::iri("o"),
        );
    }

    #[test]
    fn term_kind_predicates() {
        assert!(Term::iri("a").is_iri());
        assert!(Term::blank("b").is_blank());
        assert!(Term::Literal(Literal::string("c")).is_literal());
        assert!(Term::iri("a").is_subject());
        assert!(!Term::Literal(Literal::string("c")).is_subject());
    }
}
