//! Line-oriented N-Triples reader and writer.
//!
//! N-Triples is the exchange format used by the experiment harness for data
//! graphs (one triple per line, absolute IRIs only), which makes loading
//! large generated graphs fast and allocation-light compared to full Turtle.

use shapefrag_govern::ErrorCode;

use crate::access::GraphAccess;
use crate::error::{LossyLoad, ParseError};
use crate::frozen::FrozenGraph;
use crate::graph::{Graph, TermId, TripleLog};
use crate::term::{BlankNode, Iri, Literal, Term, Triple};
use crate::vocab::XSD_STRING;

/// Statement-count estimate for pre-sizing the graph: the format is
/// line-oriented, so the newline count bounds the triple count.
fn estimated_statements(input: &str) -> usize {
    bytecount_newlines(input) + 1
}

fn bytecount_newlines(input: &str) -> usize {
    input.as_bytes().iter().filter(|&&b| b == b'\n').count()
}

/// Parses an N-Triples document into a [`Graph`].
pub fn parse(input: &str) -> Result<Graph, ParseError> {
    parse_log(input).map(TripleLog::into_graph)
}

/// Parses an N-Triples document straight into a [`FrozenGraph`]: same
/// triples and ids as `parse(input)?.freeze()`, without building the
/// mutable indexes in between.
pub fn parse_frozen(input: &str) -> Result<FrozenGraph, ParseError> {
    parse_log(input).map(TripleLog::into_frozen)
}

/// The one N-Triples document parser, writing into an id log.
fn parse_log(input: &str) -> Result<TripleLog, ParseError> {
    let mut log = TripleLog::with_capacity(estimated_statements(input));
    for (lineno, line) in statement_lines(input) {
        let t = parse_line(line, lineno)?;
        log.push(&t.subject, &t.predicate, &t.object);
    }
    Ok(log)
}

/// Non-blank, non-comment lines, trimmed, with their 1-based numbers.
fn statement_lines(input: &str) -> impl Iterator<Item = (usize, &str)> {
    input
        .lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
}

/// Error-recovering parse: the format is line-oriented, so recovery is
/// simply per-line — each malformed line yields one positioned diagnostic
/// and is skipped, every well-formed line contributes its triple.
pub fn parse_lossy(input: &str) -> LossyLoad {
    let mut report = LossyLoad::default();
    let mut log = TripleLog::with_capacity(estimated_statements(input));
    for (lineno, line) in statement_lines(input) {
        match parse_line(line, lineno) {
            Ok(t) => {
                log.push(&t.subject, &t.predicate, &t.object);
                report.statements_ok += 1;
            }
            Err(e) => {
                report.diagnostics.push(e);
                report.statements_skipped += 1;
            }
        }
    }
    report.graph = log.into_graph();
    report
}

/// Parses one N-Triples statement.
pub fn parse_line(line: &str, lineno: usize) -> Result<Triple, ParseError> {
    let mut cursor = Cursor {
        chars: line.char_indices().collect(),
        pos: 0,
        lineno,
    };
    cursor.skip_ws();
    let subject = cursor.parse_term()?;
    if subject.is_literal() {
        return Err(cursor
            .err("literal in subject position")
            .code(ErrorCode::BadStructure));
    }
    cursor.skip_ws();
    let predicate = match cursor.parse_term()? {
        Term::Iri(iri) => iri,
        other => {
            return Err(cursor
                .err(format!("predicate must be an IRI, got {other}"))
                .code(ErrorCode::BadStructure))
        }
    };
    cursor.skip_ws();
    let object = cursor.parse_term()?;
    cursor.skip_ws();
    match cursor.peek() {
        Some('.') => {
            cursor.pos += 1;
            cursor.skip_ws();
            match cursor.peek() {
                None | Some('#') => Ok(Triple {
                    subject,
                    predicate,
                    object,
                }),
                Some(c) => Err(cursor.err(format!("trailing content '{c}' after '.'"))),
            }
        }
        _ => Err(cursor.err("expected '.' at end of statement")),
    }
}

struct Cursor {
    chars: Vec<(usize, char)>,
    pos: usize,
    lineno: usize,
}

impl Cursor {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        let col = self
            .chars
            .get(self.pos)
            .map(|(i, _)| i + 1)
            .unwrap_or(self.chars.len() + 1);
        ParseError::new(self.lineno, col, msg)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some('<') => {
                self.bump();
                let mut iri = String::new();
                loop {
                    match self.bump() {
                        Some('>') => break,
                        Some('\\') => match self.bump() {
                            Some('u') => iri.push(self.unicode_escape(4)?),
                            Some('U') => iri.push(self.unicode_escape(8)?),
                            _ => {
                                return Err(self
                                    .err("invalid IRI escape")
                                    .code(ErrorCode::InvalidEscape))
                            }
                        },
                        Some(c) => iri.push(c),
                        None => {
                            return Err(self
                                .err("unterminated IRI")
                                .code(ErrorCode::UnterminatedIri))
                        }
                    }
                }
                Ok(Term::Iri(Iri::new(iri)))
            }
            Some('_') => {
                self.bump();
                if self.bump() != Some(':') {
                    return Err(self.err("expected ':' after '_'"));
                }
                let mut label = String::new();
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' {
                        label.push(c);
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if label.is_empty() {
                    return Err(self.err("empty blank node label"));
                }
                Ok(Term::Blank(BlankNode::new(label)))
            }
            Some('"') => {
                self.bump();
                let mut lexical = String::new();
                loop {
                    match self.bump() {
                        Some('"') => break,
                        Some('\\') => {
                            let esc = self.bump().ok_or_else(|| {
                                self.err("bad escape").code(ErrorCode::InvalidEscape)
                            })?;
                            lexical.push(match esc {
                                't' => '\t',
                                'n' => '\n',
                                'r' => '\r',
                                'b' => '\u{8}',
                                'f' => '\u{c}',
                                '"' => '"',
                                '\'' => '\'',
                                '\\' => '\\',
                                'u' => self.unicode_escape(4)?,
                                'U' => self.unicode_escape(8)?,
                                c => {
                                    return Err(self
                                        .err(format!("invalid escape '\\{c}'"))
                                        .code(ErrorCode::InvalidEscape))
                                }
                            });
                        }
                        Some(c) => lexical.push(c),
                        None => {
                            return Err(self
                                .err("unterminated literal")
                                .code(ErrorCode::UnterminatedString))
                        }
                    }
                }
                match self.peek() {
                    Some('@') => {
                        self.bump();
                        let mut lang = String::new();
                        while let Some(c) = self.peek() {
                            if c.is_ascii_alphanumeric() || c == '-' {
                                lang.push(c);
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                        if lang.is_empty() {
                            return Err(self.err("empty language tag"));
                        }
                        Ok(Term::Literal(Literal::lang_string(lexical, &lang)))
                    }
                    Some('^') => {
                        self.bump();
                        if self.bump() != Some('^') {
                            return Err(self.err("expected '^^'"));
                        }
                        match self.parse_term()? {
                            Term::Iri(dt) => Ok(Term::Literal(Literal::typed(lexical, dt))),
                            _ => Err(self.err("datatype must be an IRI")),
                        }
                    }
                    _ => Ok(Term::Literal(Literal::string(lexical))),
                }
            }
            Some(c) => Err(self
                .err(format!("unexpected character '{c}'"))
                .code(ErrorCode::UnexpectedChar)),
            None => Err(self
                .err("unexpected end of line")
                .code(ErrorCode::UnexpectedEof)),
        }
    }

    fn unicode_escape(&mut self, digits: usize) -> Result<char, ParseError> {
        let mut v: u32 = 0;
        for _ in 0..digits {
            let c = self.bump().ok_or_else(|| {
                self.err("short unicode escape")
                    .code(ErrorCode::InvalidEscape)
            })?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit").code(ErrorCode::InvalidEscape))?;
            v = v * 16 + d;
        }
        char::from_u32(v).ok_or_else(|| {
            self.err("invalid code point")
                .code(ErrorCode::InvalidEscape)
        })
    }
}

/// Writes an IRI as an `IRIREF`: the characters the grammar forbids
/// inside `<…>` (U+0000–U+0020 and `<`, `>`, `"`, `{`, `}`, `|`, `^`,
/// `` ` ``, `\`) become `\uXXXX` escapes, so every IRI the data model
/// holds reads back unchanged.
fn write_iri(out: &mut String, iri: &str) {
    let forbidden =
        |c: char| c <= ' ' || matches!(c, '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\');
    out.push('<');
    if iri.contains(forbidden) {
        for c in iri.chars() {
            if forbidden(c) {
                out.push_str(&format!("\\u{:04X}", c as u32));
            } else {
                out.push(c);
            }
        }
    } else {
        out.push_str(iri);
    }
    out.push('>');
}

/// Serializes one term in N-Triples syntax — the one term writer, shared
/// with the Turtle serializer.
pub(crate) fn write_term(out: &mut String, term: &Term) {
    match term {
        Term::Iri(iri) => write_iri(out, iri.as_str()),
        Term::Blank(b) => {
            out.push_str("_:");
            out.push_str(b.as_str());
        }
        Term::Literal(lit) => {
            out.push('"');
            out.push_str(&crate::term::escape_literal(lit.lexical()));
            out.push('"');
            if let Some(lang) = lit.language() {
                out.push('@');
                out.push_str(lang);
            } else if lit.datatype().as_str() != XSD_STRING {
                out.push_str("^^");
                write_iri(out, lit.datatype().as_str());
            }
        }
    }
}

/// Serializes a graph as N-Triples (sorted, deterministic).
pub fn serialize(graph: &Graph) -> String {
    serialize_ids(graph, graph.iter_ids())
}

/// Serializes id triples of `graph` as N-Triples, in the order of the
/// materialized [`Triple`]s, without materializing them. Duplicates are
/// written once.
pub fn serialize_ids<G: GraphAccess>(
    graph: &G,
    triples: impl IntoIterator<Item = (TermId, TermId, TermId)>,
) -> String {
    let mut out = String::new();
    write_sorted(&mut out, graph, triples, write_term);
    out
}

/// The one statement writer behind the N-Triples and Turtle serializers:
/// ranks the distinct terms once by [`Term`]'s order, sorts the `u32`
/// triples by rank (the order of sorting the materialized [`Triple`]s),
/// drops duplicates, and writes `s p o .` lines with `write_node`.
pub(crate) fn write_sorted<G: GraphAccess>(
    out: &mut String,
    graph: &G,
    triples: impl IntoIterator<Item = (TermId, TermId, TermId)>,
    mut write_node: impl FnMut(&mut String, &Term),
) {
    let triples: Vec<_> = triples.into_iter().collect();
    let mut by_rank: Vec<TermId> = triples.iter().flat_map(|&(s, p, o)| [s, p, o]).collect();
    by_rank.sort_unstable();
    by_rank.dedup();
    by_rank.sort_unstable_by(|&a, &b| graph.term(a).cmp(graph.term(b)));
    let mut rank = vec![0u32; graph.term_count()];
    for (r, id) in by_rank.iter().enumerate() {
        rank[id.0 as usize] = r as u32;
    }
    let rank_of = |id: TermId| rank[id.0 as usize];
    let mut ranked: Vec<[u32; 3]> = triples
        .iter()
        .map(|&(s, p, o)| [rank_of(s), rank_of(p), rank_of(o)])
        .collect();
    ranked.sort_unstable();
    ranked.dedup();
    out.reserve(ranked.len() * 64);
    for [s, p, o] in ranked {
        write_node(out, graph.term(by_rank[s as usize]));
        out.push(' ');
        write_node(out, graph.term(by_rank[p as usize]));
        out.push(' ');
        write_node(out, graph.term(by_rank[o as usize]));
        out.push_str(" .\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::xsd;

    #[test]
    fn parse_basic() {
        let g =
            parse("<http://e/a> <http://e/p> <http://e/b> .\n<http://e/a> <http://e/q> \"lit\" .")
                .unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn parse_typed_and_lang_literals() {
        let g = parse(
            "<http://e/a> <http://e/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n<http://e/a> <http://e/q> \"hi\"@en-GB .",
        )
        .unwrap();
        let objs = g.objects_for(&Term::iri("http://e/a"), &Iri::new("http://e/p"));
        assert_eq!(objs[0].as_literal().unwrap().datatype(), &xsd::integer());
        let objs = g.objects_for(&Term::iri("http://e/a"), &Iri::new("http://e/q"));
        assert_eq!(objs[0].as_literal().unwrap().language(), Some("en-gb"));
    }

    #[test]
    fn parse_blank_nodes() {
        let g = parse("_:a <http://e/p> _:b .").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn comments_and_blank_lines() {
        let g = parse("# comment\n\n<http://e/a> <http://e/p> <http://e/b> . # tail\n").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn error_reports_line() {
        let err = parse("<http://e/a> <http://e/p> <http://e/b> .\nbogus").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn missing_dot_is_error() {
        assert!(parse("<http://e/a> <http://e/p> <http://e/b>").is_err());
    }

    #[test]
    fn literal_subject_is_error() {
        assert!(parse("\"x\" <http://e/p> <http://e/b> .").is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            Term::iri("http://e/a"),
            Iri::new("http://e/p"),
            Term::Literal(Literal::string("a\"b\\c\nd\te")),
        ));
        let text = serialize(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn serialize_round_trip() {
        let input = "<http://e/a> <http://e/p> <http://e/b> .\n<http://e/a> <http://e/q> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n_:x <http://e/p> \"hi\"@en .\n";
        let g = parse(input).unwrap();
        let g2 = parse(&serialize(&g)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn lossy_skips_bad_lines() {
        let report = parse_lossy(
            "<http://e/a> <http://e/p> <http://e/b> .\n\
             totally bogus line\n\
             <http://e/c> <http://e/p> \"x\" .\n\
             \"lit\" <http://e/p> <http://e/d> .\n\
             <http://e/e> <http://e/p> <http://e/f> .",
        );
        assert_eq!(report.graph.len(), 3);
        assert_eq!(report.statements_ok, 3);
        assert_eq!(report.statements_skipped, 2);
        assert_eq!(report.diagnostics.len(), 2);
        assert_eq!(report.diagnostics[0].line, 2);
        assert_eq!(report.diagnostics[1].line, 4);
        assert_eq!(report.diagnostics[1].code, ErrorCode::BadStructure);
    }

    #[test]
    fn lossy_clean_input() {
        let report = parse_lossy("<http://e/a> <http://e/p> <http://e/b> .\n# comment\n");
        assert!(report.is_clean());
        assert_eq!(report.statements_ok, 1);
        assert_eq!(report.graph.len(), 1);
    }

    #[test]
    fn forbidden_iri_characters_are_escaped_and_read_back() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            Term::iri("http://a/x>y z{|}^`\\\"<"),
            Iri::new("http://e/p"),
            Term::Literal(Literal::typed("v", Iri::new("http://dt/a b"))),
        ));
        let text = serialize(&g);
        assert_eq!(
            text,
            "<http://a/x\\u003Ey\\u0020z\\u007B\\u007C\\u007D\\u005E\\u0060\\u005C\\u0022\\u003C> \
             <http://e/p> \"v\"^^<http://dt/a\\u0020b> .\n"
        );
        assert_eq!(parse(&text).unwrap(), g);
    }

    #[test]
    fn unicode_escape_in_literal() {
        let g = parse("<http://e/a> <http://e/p> \"caf\\u00E9\" .").unwrap();
        let objs = g.objects_for(&Term::iri("http://e/a"), &Iri::new("http://e/p"));
        assert_eq!(objs[0].as_literal().unwrap().lexical(), "café");
    }
}
