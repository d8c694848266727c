//! Source positions recorded during parsing, so later analyses can point
//! diagnostics back at the document instead of at in-memory terms.
//!
//! The Turtle reader notes each subject and each predicate where it
//! appears, as one entry of a [`SpanLog`] in document order. An entry
//! takes its key — the subject id, or the `(subject, predicate)` id pair —
//! when the first triple of that occurrence is interned, so recording
//! costs no term clone and no string hash. Finishing the log keeps the
//! first entry per key. [`TripleSpans`] answers queries by [`Term`]
//! through the document's interner; only diagnostics query it.

use std::fmt;
use std::sync::Arc;

use crate::graph::{IntMap, Interner, TermId};
use crate::term::{Iri, Term, TermKey};

/// A 1-based line/column position in a source document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    pub line: usize,
    pub column: usize,
}

impl Span {
    pub fn new(line: usize, column: usize) -> Span {
        Span { line, column }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Where each subject, and each `(subject, predicate)` pair, of a parsed
/// document appeared. The first occurrence wins: a subject split over
/// several statements keeps the position of its first mention, which is
/// where a reader would look for the definition.
#[derive(Clone, Default)]
pub struct TripleSpans {
    /// The interner of the parsed graph, which issued the ids below.
    terms: Arc<Interner>,
    subjects: IntMap<TermId, Span>,
    predicates: IntMap<(TermId, TermId), Span>,
}

impl TripleSpans {
    /// Position of the first statement with this subject.
    pub fn subject(&self, subject: &Term) -> Option<Span> {
        self.subjects.get(&self.terms.get(subject)?).copied()
    }

    /// Position of the first `predicate` in a statement about `subject`.
    pub fn predicate(&self, subject: &Term, predicate: &Iri) -> Option<Span> {
        let s = self.terms.get(subject)?;
        let p = self.terms.get_key(TermKey::Iri(predicate.as_str()))?;
        self.predicates.get(&(s, p)).copied()
    }

    /// Number of recorded subject positions.
    pub fn len(&self) -> usize {
        self.subjects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.subjects.is_empty()
    }
}

impl fmt::Debug for TripleSpans {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TripleSpans")
            .field("subjects", &self.subjects.len())
            .field("predicates", &self.predicates.len())
            .finish()
    }
}

/// What a [`SpanLog`] entry is the position of.
enum Note {
    /// An occurrence whose first triple has not been interned yet.
    Open,
    Subject(TermId),
    Predicate(TermId, TermId),
    /// The blank node of an empty `[]`, which has no triple of its own and
    /// gets an id only when a later triple mentions it.
    Blank(String),
}

/// The parser's side of [`TripleSpans`]: one entry per noted occurrence,
/// in document order.
#[derive(Default)]
pub(crate) struct SpanLog {
    notes: Vec<(Note, Span)>,
}

impl SpanLog {
    /// Notes an occurrence at `at`; [`SpanLog::bind_subject`] and
    /// [`SpanLog::bind_predicate`] give it its key.
    pub(crate) fn open(&mut self, at: Span) -> usize {
        self.notes.push((Note::Open, at));
        self.notes.len() - 1
    }

    /// Keys an open entry by a subject id; a bound entry keeps its key.
    pub(crate) fn bind_subject(&mut self, note: usize, s: TermId) {
        self.bind(note, || Note::Subject(s));
    }

    /// Keys an open entry by a `(subject, predicate)` id pair.
    pub(crate) fn bind_predicate(&mut self, note: usize, s: TermId, p: TermId) {
        self.bind(note, || Note::Predicate(s, p));
    }

    /// Keys an open entry by the label of a blank node that may not be
    /// interned yet.
    pub(crate) fn bind_blank(&mut self, note: usize, label: &str) {
        self.bind(note, || Note::Blank(label.to_owned()));
    }

    fn bind(&mut self, note: usize, key: impl FnOnce() -> Note) {
        let entry = &mut self.notes[note].0;
        if matches!(entry, Note::Open) {
            *entry = key();
        }
    }

    /// The first position per key; `terms` is the interner that issued
    /// the ids.
    pub(crate) fn finish(self, terms: Arc<Interner>) -> TripleSpans {
        let mut subjects = IntMap::default();
        let mut predicates = IntMap::default();
        for (note, at) in self.notes {
            match note {
                Note::Open => {}
                Note::Subject(s) => {
                    subjects.entry(s).or_insert(at);
                }
                Note::Predicate(s, p) => {
                    predicates.entry((s, p)).or_insert(at);
                }
                Note::Blank(label) => {
                    if let Some(s) = terms.get_key(TermKey::Blank(&label)) {
                        subjects.entry(s).or_insert(at);
                    }
                }
            }
        }
        TripleSpans {
            terms,
            subjects,
            predicates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::plain_statement;
    use crate::turtle::parse_with_spans;

    /// A statement of the plain shape, which the Turtle reader takes in
    /// its line pass.
    const PLAIN: &str = "<http://e/w> <http://e/p> <http://e/x> .";

    /// Line 6 is [`PLAIN`]; columns are counted by hand below.
    fn spans() -> TripleSpans {
        let doc = format!(
            "@prefix ex: <http://e/> .\n\
             ex:s ex:p ex:o ;\n\
             \x20 ex:q [ ex:r ex:t ] .\n\
             ex:s ex:p ex:u .\n\
             ex:s ex:z ex:v .\n\
             {PLAIN}\n\
             ex:y ex:e [] .\n"
        );
        parse_with_spans(&doc).unwrap().1
    }

    fn iri(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn p(n: &str) -> Iri {
        Iri::new(format!("http://e/{n}"))
    }

    #[test]
    fn a_prefixed_name_predicate_points_at_its_first_character() {
        // `  ex:q [ …`: two blanks, then `ex:q` at column 3.
        assert_eq!(spans().predicate(&iri("s"), &p("q")), Some(Span::new(3, 3)));
        // An object is not a subject, and `ex:r` is no predicate of `ex:s`.
        assert_eq!(spans().subject(&iri("o")), None);
        assert_eq!(spans().predicate(&iri("s"), &p("r")), None);
    }

    #[test]
    fn an_inline_shape_is_found_under_its_generated_label() {
        let spans = spans();
        // `  ex:q [ ex:r …`: the `[` at column 8, `ex:r` at column 10.
        let inline = Term::blank("gen1");
        assert_eq!(spans.subject(&inline), Some(Span::new(3, 8)));
        assert_eq!(spans.predicate(&inline, &p("r")), Some(Span::new(3, 10)));
        // `ex:y ex:e [] .`: an empty `[]` at column 11 has no triple of
        // its own and still has a position.
        assert_eq!(spans.subject(&Term::blank("gen2")), Some(Span::new(7, 11)));
    }

    #[test]
    fn a_subject_split_over_statements_keeps_its_first_positions() {
        let spans = spans();
        assert_eq!(spans.subject(&iri("s")), Some(Span::new(2, 1)));
        assert_eq!(spans.predicate(&iri("s"), &p("p")), Some(Span::new(2, 6)));
        // A predicate first met in the third statement points there.
        assert_eq!(spans.predicate(&iri("s"), &p("z")), Some(Span::new(5, 6)));
    }

    #[test]
    fn a_plain_line_statement_has_positions() {
        assert!(plain_statement(PLAIN).is_some());
        let spans = spans();
        // `<http://e/w>` is twelve characters, so `<http://e/p>` is at 14.
        assert_eq!(spans.subject(&iri("w")), Some(Span::new(6, 1)));
        assert_eq!(spans.predicate(&iri("w"), &p("p")), Some(Span::new(6, 14)));
    }

    #[test]
    fn document_order_wins_over_intern_order() {
        // The written `_:gen1` and the inline `[ … ]`'s generated label
        // are one term. The inline statement's triple is interned first,
        // yet the written subject and its predicate come first in the text.
        let doc = "_:gen1 <http://e/p> [ <http://e/p> <http://e/o> ] .";
        let (_, spans) = parse_with_spans(doc).unwrap();
        let gen1 = Term::blank("gen1");
        assert_eq!(spans.subject(&gen1), Some(Span::new(1, 1)));
        assert_eq!(spans.predicate(&gen1, &p("p")), Some(Span::new(1, 8)));
    }
}
