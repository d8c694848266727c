//! Line-oriented N-Triples reader and writer.
//!
//! N-Triples is the exchange format used by the experiment harness for data
//! graphs (one triple per line, absolute IRIs only), which makes loading
//! large generated graphs fast and allocation-light compared to full Turtle.
//! A line of the plain shape is lexed in one pass that also finds its end
//! ([`crate::lex::plain_statement`], shared with the Turtle reader); any
//! other line by the byte-level lexer the Turtle reader uses, so error
//! columns count characters from the start of the line.

use std::borrow::Cow;

use shapefrag_govern::ErrorCode;

use crate::access::GraphAccess;
use crate::error::{LossyLoad, ParseError};
use crate::frozen::FrozenGraph;
use crate::graph::{Graph, TermId, TripleLog};
use crate::lex::{plain_statement, Lexer, TermRef, NTRIPLES};
use crate::term::{literal_escaped, Iri, Term, TermKey, Triple};
use crate::vocab::{rdf, xsd};

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
    let mut log = TripleLog::with_capacity(input.len() / 100);
    parse_into(input, &mut log, Err)?;
    Ok(log)
}

/// Error-recovering parse: the format is line-oriented, so recovery is
/// simply per-line — each malformed line yields one positioned diagnostic
/// and is skipped, every well-formed line contributes its triple.
pub fn parse_lossy(input: &str) -> LossyLoad {
    let mut report = LossyLoad::default();
    let mut log = TripleLog::with_capacity(input.len() / 100);
    let ok = parse_into(input, &mut log, |e| {
        report.diagnostics.push(e);
        Ok(())
    });
    debug_assert!(ok.is_ok());
    report.statements_skipped = report.diagnostics.len();
    report.statements_ok = log.len();
    report.graph = log.into_graph();
    report
}

/// Splits `input` into lines and appends each statement line's triple to
/// `log`, in one pass: a line of the plain shape is lexed where it starts
/// (and its end found by that same scan), any other line is cut at its
/// `\n` (a `\r` before it dropped, as `str::lines` does) and lexed by
/// [`statement`]. Blank and comment lines are skipped. A malformed line's
/// error goes to `on_error`, and parsing stops if that returns it.
fn parse_into(
    input: &str,
    log: &mut TripleLog,
    mut on_error: impl FnMut(ParseError) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let mut rest = input;
    let mut lineno = 0;
    while !rest.is_empty() {
        lineno += 1;
        if let Some(st) = plain_statement(rest) {
            log.push(TermKey::Iri(st.subject), st.predicate, st.object);
            rest = rest.get(st.len + 1..).unwrap_or("");
            continue;
        }
        let (line, next) = match rest.split_once('\n') {
            Some((line, next)) => (line.strip_suffix('\r').unwrap_or(line), next),
            None => (rest, ""),
        };
        rest = next;
        let text = line.trim_start();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        match statement(line, lineno) {
            Ok((s, p, o)) => log.push(s.key(), &p, o.key()),
            Err(e) => on_error(e)?,
        }
    }
    Ok(())
}

/// Parses one N-Triples statement. Error columns count characters from
/// the start of `line`.
pub fn parse_line(line: &str, lineno: usize) -> Result<Triple, ParseError> {
    let (s, p, o) = statement(line, lineno)?;
    Ok(Triple {
        subject: s.to_term(),
        predicate: Iri::new(p),
        object: o.to_term(),
    })
}

/// Lexes the statement on `line` into borrowed terms.
fn statement(
    line: &str,
    lineno: usize,
) -> Result<(TermRef<'_>, Cow<'_, str>, TermRef<'_>), ParseError> {
    let mut lex = Lexer::new(line, lineno, &NTRIPLES);
    lex.skip_spaces();
    let subject = term(&mut lex)?;
    if subject.is_literal() {
        return Err(lex
            .error("literal in subject position")
            .code(ErrorCode::BadStructure));
    }
    lex.skip_spaces();
    let predicate = match term(&mut lex)? {
        TermRef::Iri(iri) => iri,
        other => {
            return Err(lex
                .error(format!("predicate must be an IRI, got {}", other.to_term()))
                .code(ErrorCode::BadStructure))
        }
    };
    lex.skip_spaces();
    let object = term(&mut lex)?;
    lex.skip_spaces();
    if lex.peek() != Some('.') {
        return Err(lex.error("expected '.' at end of statement"));
    }
    lex.bump();
    lex.skip_spaces();
    match lex.peek() {
        None | Some('#') => Ok((subject, predicate, object)),
        Some(c) => Err(lex.error(format!("trailing content '{c}' after '.'"))),
    }
}

fn term<'a>(lex: &mut Lexer<'a>) -> Result<TermRef<'a>, ParseError> {
    match lex.peek() {
        Some('<') => {
            lex.bump();
            Ok(TermRef::Iri(lex.iri_body()?))
        }
        Some('_') => {
            lex.bump();
            if lex.bump() != Some(':') {
                return Err(lex.error("expected ':' after '_'"));
            }
            Ok(TermRef::Blank(Cow::Borrowed(lex.blank_label()?)))
        }
        Some('"') => {
            lex.bump();
            let lexical = lex.string_body('"', false)?;
            let (language, datatype) = match lex.peek() {
                Some('@') => {
                    lex.bump();
                    (Some(lex.lang_tag()?), Cow::Borrowed(rdf::LANG_STRING))
                }
                Some('^') => {
                    lex.bump();
                    if lex.bump() != Some('^') {
                        return Err(lex.error("expected '^^'"));
                    }
                    match term(lex)? {
                        TermRef::Iri(dt) => (None, dt),
                        _ => return Err(lex.error("datatype must be an IRI")),
                    }
                }
                _ => (None, Cow::Borrowed(xsd::STRING)),
            };
            Ok(TermRef::Literal {
                lexical,
                language,
                datatype,
            })
        }
        Some(c) => Err(lex
            .error(format!("unexpected character '{c}'"))
            .code(ErrorCode::UnexpectedChar)),
        None => Err(lex
            .error("unexpected end of line")
            .code(ErrorCode::UnexpectedEof)),
    }
}

/// Writes an IRI as an `IRIREF`: the characters the grammar forbids
/// inside `<…>` (U+0000–U+0020 and `<`, `>`, `"`, `{`, `}`, `|`, `^`,
/// `` ` ``, `\`) become `\uXXXX` escapes, so every IRI the data model
/// holds reads back unchanged.
fn write_iri(out: &mut String, iri: &str) {
    out.push('<');
    if iri.bytes().any(iri_forbidden) {
        for c in iri.chars() {
            if c.is_ascii() && iri_forbidden(c as u8) {
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

/// The characters `IRIREF` forbids; all are ASCII, so a byte scan finds
/// every one.
fn iri_forbidden(b: u8) -> bool {
    b <= b' '
        || matches!(
            b,
            b'<' | b'>' | b'"' | b'{' | b'}' | b'|' | b'^' | b'`' | b'\\'
        )
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
            crate::term::push_escaped_literal(out, lit.lexical());
            out.push('"');
            if let Some(lang) = lit.language() {
                out.push('@');
                out.push_str(lang);
            } else if lit.datatype().as_str() != xsd::STRING {
                out.push_str("^^");
                write_iri(out, lit.datatype().as_str());
            }
        }
    }
}

/// The exact length of [`write_term`]'s text for `term`.
fn written_len(term: &Term) -> usize {
    let iri_len = |iri: &str| iri.len() + 2 + 5 * iri.bytes().filter(|&b| iri_forbidden(b)).count();
    match term {
        Term::Iri(iri) => iri_len(iri.as_str()),
        Term::Blank(b) => b.as_str().len() + 2,
        Term::Literal(lit) => {
            let lexical = lit.lexical();
            let escapes = lexical.bytes().filter(|&b| literal_escaped(b)).count();
            let suffix = match lit.language() {
                Some(lang) => lang.len() + 1,
                None if lit.datatype().as_str() != xsd::STRING => {
                    2 + iri_len(lit.datatype().as_str())
                }
                None => 0,
            };
            lexical.len() + escapes + 2 + suffix
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
///
/// `write_node` runs once per distinct term: the output span of a term's
/// first occurrence is remembered by rank, and every later occurrence
/// copies those bytes from earlier in `out` itself, so no term is escaped
/// twice and no second text buffer is built.
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
    // Per rank, `(start, len)` of the term's text in `out`: `start` is
    // `usize::MAX` until the first occurrence is written, and `len` starts
    // as the N-Triples length, so the whole text is reserved up front
    // (growing it would copy it, holding both buffers at once).
    let mut spans: Vec<(usize, usize)> = by_rank
        .iter()
        .map(|&id| (usize::MAX, written_len(graph.term(id))))
        .collect();
    out.reserve(
        ranked
            .iter()
            .map(|t| {
                t.iter().map(|&r| spans[r as usize].1).sum::<usize>() + " ".len() * 2 + " .\n".len()
            })
            .sum(),
    );
    let mut node = |out: &mut String, r: u32| {
        let (start, len) = spans[r as usize];
        if start == usize::MAX {
            let start = out.len();
            write_node(out, graph.term(by_rank[r as usize]));
            spans[r as usize] = (start, out.len() - start);
        } else {
            out.extend_from_within(start..start + len);
        }
    };
    for [s, p, o] in ranked {
        node(out, s);
        out.push(' ');
        node(out, p);
        out.push(' ');
        node(out, o);
        out.push_str(" .\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;
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
    fn error_columns_count_characters_from_the_untrimmed_line_start() {
        // `x` is the 27th character of the statement itself: a leading tab
        // moves it one column right, a two-byte `é` before it does not.
        let cases = [
            ("<http://e/a> <http://e/p> x .", 27),
            ("\t<http://e/a> <http://e/p> x .", 28),
            ("<http://e/é> <http://e/p> x .", 27),
            (" \t<http://e/é> <http://e/p> x .\r", 29),
        ];
        for (line, column) in cases {
            let expected = (2, column, ErrorCode::UnexpectedChar);
            let doc = format!("<http://e/a> <http://e/p> <http://e/b> .\n{line}\n");
            let err = parse(&doc).unwrap_err();
            assert_eq!((err.line, err.column, err.code), expected, "{line:?}");
            let err = &parse_lossy(&doc).diagnostics[0];
            assert_eq!((err.line, err.column, err.code), expected, "{line:?}");
            let err = parse_line(line, 2).unwrap_err();
            assert_eq!((err.line, err.column, err.code), expected, "{line:?}");
        }
    }

    #[test]
    fn lines_are_cut_like_str_lines() {
        // A `\r` before `\n` is not part of the line, so the missing `.`
        // is reported at the line's end; a `\r` anywhere else is.
        let cases = [
            ("<a> <p> <b>\r\n", (1, 12)),
            ("<a> <p> <b> .\n<a> <p> <b>\r\r\n", (2, 13)),
            ("<a> <p> <b>\r", (1, 13)),
            ("\n\n# c\r\n  \n<a> <p> <b>\n", (5, 12)),
        ];
        for (doc, expected) in cases {
            let err = parse(doc).unwrap_err();
            assert_eq!((err.line, err.column), expected, "{doc:?}");
            let err = &parse_lossy(doc).diagnostics[0];
            assert_eq!((err.line, err.column), expected, "{doc:?}");
        }
        let doc = "<a> <p> <b> .\r\n<a> <p> \"x\"@en .\r\n";
        assert_eq!(parse(doc).unwrap().len(), 2);
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
    fn repeated_terms_are_copied_byte_for_byte_and_the_text_is_reserved_exactly() {
        // Every term occurs several times, and every kind of escape occurs.
        let terms = [
            Term::iri("http://a/x y>{z}"),
            Term::iri("http://e/plain"),
            Term::blank("b0"),
            Term::Literal(Literal::string("say \"hi\"\n\tand\\ go")),
            Term::Literal(Literal::lang_string("héllo", "en")),
            Term::Literal(Literal::typed("1 2", Iri::new("http://dt/a b"))),
            Term::Literal(Literal::integer(42)),
        ];
        let preds = [Iri::new("http://e/p"), Iri::new("http://e/q r")];
        let mut g = Graph::new();
        for s in terms.iter().filter(|t| !t.is_literal()) {
            for p in &preds {
                for o in &terms {
                    g.insert(Triple::new(s.clone(), p.clone(), o.clone()));
                }
            }
        }
        // The reference writes every occurrence, in materialized order.
        let mut triples: Vec<Triple> = g.iter().collect();
        triples.sort();
        let mut naive = String::new();
        for t in &triples {
            write_term(&mut naive, &t.subject);
            naive.push(' ');
            write_term(&mut naive, &Term::Iri(t.predicate.clone()));
            naive.push(' ');
            write_term(&mut naive, &t.object);
            naive.push_str(" .\n");
        }
        let text = serialize(&g);
        assert_eq!(text, naive);
        assert_eq!(text.capacity(), text.len(), "reserved exactly, never grown");
        let pred_terms = preds.iter().map(|p| Term::Iri(p.clone()));
        for t in terms.iter().cloned().chain(pred_terms) {
            let mut one = String::new();
            write_term(&mut one, &t);
            assert_eq!(written_len(&t), one.len(), "{t}");
        }
        assert_eq!(parse(&text).unwrap(), g);
    }

    #[test]
    fn unicode_escape_in_literal() {
        let g = parse("<http://e/a> <http://e/p> \"caf\\u00E9\" .").unwrap();
        let objs = g.objects_for(&Term::iri("http://e/a"), &Iri::new("http://e/p"));
        assert_eq!(objs[0].as_literal().unwrap().lexical(), "café");
    }
}
