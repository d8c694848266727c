//! Property tests for the byte-level term lexer behind both RDF readers.
//!
//! Random documents mix plain ASCII runs with non-ASCII characters,
//! `\uXXXX` / `\UXXXXXXXX` and ECHAR escapes, raw control characters,
//! non-ASCII whitespace and CRLF line ends. Every document is valid
//! N-Triples and valid Turtle, so both readers must produce the graph the
//! generator meant, their frozen loaders must agree with `parse` +
//! `freeze` id for id, serialization must round-trip, and one injected bad
//! byte must be reported at the character position counted here.
//!
//! A second generator interleaves lines of the plain shape both readers
//! lex in one pass (`<s> <p> <o>|"lit"[@lang|^^<dt>] .`) with lines that
//! must leave it for the general path: escapes, non-ASCII IRIs, upper-case
//! language tags, trailing comments, CRLF, `@base`-relative IRIs, and
//! whitespace inside `<…>` (an IRI character to N-Triples, an error to
//! Turtle). The readers must agree with `parse` + `freeze` id for id and
//! report an injected bad byte where it is.

use proptest::prelude::*;

use shape_fragments::rdf::{
    ntriples, turtle, FrozenGraph, Graph, GraphAccess, Iri, Literal, ParseError, Term, TermId,
    Triple,
};

/// One piece of a term body: a kind, an index into that kind's table, and
/// an ASCII run (used by the plain kinds).
type Chunk = (u8, usize, String);

const NON_ASCII: [char; 6] = ['é', 'ü', 'λ', '中', '🦀', 'ß'];
/// Extra non-ASCII characters literals may hold: whitespace to the
/// `char::is_whitespace` test, which IRIs must not contain raw.
const LITERAL_NON_ASCII: [char; 2] = ['\u{a0}', '\u{2028}'];
const CONTROLS: [char; 5] = ['\u{1}', '\u{8}', '\u{e}', '\u{1f}', '\u{7f}'];
/// Extra raw controls literals may hold (whitespace, but not a line break).
const LITERAL_CONTROLS: [char; 4] = ['\u{b}', '\u{c}', '\r', '\t'];
/// Characters written as `\u` / `\U` escapes.
const ESCAPED: [char; 7] = ['é', 'A', '中', '🦀', ' ', '>', '"'];
const ECHARS: [(&str, char); 8] = [
    ("\\t", '\t'),
    ("\\n", '\n'),
    ("\\r", '\r'),
    ("\\b", '\u{8}'),
    ("\\f", '\u{c}'),
    ("\\\"", '"'),
    ("\\'", '\''),
    ("\\\\", '\\'),
];
/// Whitespace between terms.
const SEPARATORS: [&str; 4] = [" ", "\t", "  ", "\u{a0}"];
/// Whitespace before a statement.
const LEADS: [&str; 4] = ["", "", "\t", " "];

fn chunks() -> impl Strategy<Value = Vec<Chunk>> {
    prop::collection::vec((0u8..5, 0usize..64, "[a-zA-Z0-9_./#-]{1,8}"), 0..6)
}

fn literal_chunks() -> impl Strategy<Value = Vec<Chunk>> {
    prop::collection::vec((0u8..5, 0usize..64, "[a-zA-Z0-9 <>#.,;:@^_-]{1,8}"), 0..6)
}

/// `(blank?, label, IRI body)`.
type SubjectSpec = (bool, String, Vec<Chunk>);
/// `(kind: IRI / blank / literal, label, string body, suffix: none / lang
/// / datatype, language tag, IRI body of the object or the datatype)`.
type ObjectSpec = (u8, String, Vec<Chunk>, u8, String, Vec<Chunk>);
/// `(subject, predicate body, object, (lead, separator), CRLF?)`.
type TripleSpec = (SubjectSpec, Vec<Chunk>, ObjectSpec, (usize, usize), bool);

fn triple_spec() -> impl Strategy<Value = TripleSpec> {
    (
        (any::<bool>(), "[A-Za-z][A-Za-z0-9]{0,4}", chunks()),
        chunks(),
        (
            0u8..3,
            "[A-Za-z][A-Za-z0-9]{0,4}",
            literal_chunks(),
            0u8..3,
            "[a-zA-Z]{1,3}(-[a-zA-Z0-9]{1,3})?",
            chunks(),
        ),
        (0usize..LEADS.len(), 0usize..SEPARATORS.len()),
        any::<bool>(),
    )
}

/// Where one bad byte can go, and the error it must cause.
#[derive(Clone, Copy, Debug)]
enum Site {
    /// A `\` before a plain body character: an invalid escape, reported
    /// just past that character.
    Escape,
    /// A `~` where a subject starts: an unexpected character, reported at
    /// the `~`.
    Subject,
}

/// A rendered document, the triples it means, and its injection sites
/// (byte offsets).
#[derive(Default)]
struct Doc {
    text: String,
    triples: Vec<Triple>,
    sites: Vec<(usize, Site)>,
}

impl Doc {
    /// Writes a character verbatim; it is an escape site unless `\` before
    /// it would start a valid escape.
    fn plain(&mut self, c: char) {
        if !"tnrbfuU\"'\\".contains(c) {
            self.sites.push((self.text.len(), Site::Escape));
        }
        self.text.push(c);
    }

    /// Writes an IRI or string body and returns its decoded value.
    fn body(&mut self, chunks: &[Chunk], literal: bool) -> String {
        let mut decoded = String::new();
        for (kind, pick, run) in chunks {
            let c = match kind {
                0 | 1 => {
                    for c in run.chars() {
                        self.plain(c);
                    }
                    decoded.push_str(run);
                    continue;
                }
                2 if literal && pick % 4 == 0 => LITERAL_NON_ASCII[pick % LITERAL_NON_ASCII.len()],
                2 => NON_ASCII[pick % NON_ASCII.len()],
                3 if literal && pick % 2 == 0 => {
                    let (text, c) = ECHARS[pick / 2 % ECHARS.len()];
                    self.text.push_str(text);
                    decoded.push(c);
                    continue;
                }
                3 => {
                    let c = ESCAPED[pick % ESCAPED.len()];
                    if (c as u32) > 0xffff || pick % 3 == 0 {
                        self.text.push_str(&format!("\\U{:08X}", c as u32));
                    } else {
                        self.text.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    decoded.push(c);
                    continue;
                }
                _ if literal && pick % 3 == 0 => LITERAL_CONTROLS[pick % LITERAL_CONTROLS.len()],
                _ => CONTROLS[pick % CONTROLS.len()],
            };
            self.plain(c);
            decoded.push(c);
        }
        decoded
    }

    fn iri(&mut self, base: &str, chunks: &[Chunk]) -> Iri {
        self.text.push('<');
        self.text.push_str(base);
        let body = self.body(chunks, false);
        self.text.push('>');
        Iri::new(format!("{base}{body}"))
    }

    fn blank(&mut self, label: &str) -> Term {
        self.text.push_str("_:");
        self.text.push_str(label);
        Term::blank(label)
    }

    fn object(&mut self, spec: &ObjectSpec) -> Term {
        let (kind, label, body, suffix, lang, iri_body) = spec;
        match kind {
            0 => Term::Iri(self.iri("http://e/o/", iri_body)),
            1 => self.blank(label),
            _ => {
                self.text.push('"');
                let lexical = self.body(body, true);
                self.text.push('"');
                Term::Literal(match suffix {
                    0 => Literal::string(lexical),
                    1 => {
                        self.text.push('@');
                        self.text.push_str(lang);
                        Literal::lang_string(lexical, lang)
                    }
                    _ => {
                        self.text.push_str("^^");
                        Literal::typed(lexical, self.iri("http://dt/", iri_body))
                    }
                })
            }
        }
    }

    fn render(specs: &[TripleSpec]) -> Doc {
        let mut doc = Doc::default();
        for ((blank, label, s_body), p_body, object, (lead, sep), crlf) in specs {
            let sep = SEPARATORS[*sep];
            doc.text.push_str(LEADS[*lead]);
            doc.sites.push((doc.text.len(), Site::Subject));
            let subject = if *blank {
                doc.blank(label)
            } else {
                Term::Iri(doc.iri("http://e/s/", s_body))
            };
            doc.text.push_str(sep);
            let predicate = doc.iri("http://e/p/", p_body);
            doc.text.push_str(sep);
            let object = doc.object(object);
            doc.text.push_str(sep);
            doc.text.push('.');
            doc.text.push_str(if *crlf { "\r\n" } else { "\n" });
            doc.triples.push(Triple::new(subject, predicate, object));
        }
        doc
    }

    /// The document with one bad byte at site `k` (modulo the site count),
    /// and the `(line, column)` the error must carry, counted in characters
    /// of the damaged text.
    fn damaged(&self, k: usize) -> (String, (usize, usize)) {
        let (at, site) = self.sites[k % self.sites.len()];
        let (bad, end) = match site {
            Site::Escape => {
                let c = self.text[at..].chars().next().unwrap();
                ('\\', at + 1 + c.len_utf8())
            }
            Site::Subject => ('~', at),
        };
        let mut text = self.text.clone();
        text.insert(at, bad);
        let damaged = Doc {
            text,
            ..Doc::default()
        };
        let position = damaged.position(end);
        (damaged.text, position)
    }
}

/// `((kind, subject body, predicate body), (literal object?, object body
/// or lexical form, suffix: none / lang / datatype), (language tag,
/// pick))`. Kinds 0–2 are plain lines; the others each break the plain
/// shape one way (see [`Doc::mixed`]).
type LineSpec = ((u8, String, String), (bool, String, u8), (String, usize));

fn line_spec() -> impl Strategy<Value = LineSpec> {
    (
        (0u8..10, "[a-zA-Z0-9_./#-]{0,12}", "[a-zA-Z0-9_./#-]{0,12}"),
        (any::<bool>(), "[a-zA-Z0-9 <>#.,;:@^_-]{0,12}", 0u8..3),
        ("[a-z]{1,3}(-[a-z0-9]{1,3})?", 0usize..64),
    )
}

const BASE: &str = "http://b/";

/// A document of [`LineSpec`] lines in one syntax, and where it fails.
struct Mixed {
    doc: Doc,
    /// Turtle's `(line, column)` for the first whitespace inside `<…>`;
    /// N-Triples reads such an IRI with the space in it.
    whitespace_error: Option<(usize, usize)>,
}

impl Doc {
    /// One `(line, column)` per byte offset, counted in characters.
    fn position(&self, end: usize) -> (usize, usize) {
        let before = &self.text[..end];
        let column = before.rsplit('\n').next().unwrap().chars().count() + 1;
        (before.matches('\n').count() + 1, column)
    }

    /// Renders `lines`, with Turtle's `@base` declaration before line
    /// `base_at` when writing Turtle. By kind:
    /// 0–2 plain; 3 an escape in the object; 4 a non-ASCII character in
    /// the subject IRI and one in the object; 5 an upper-case language
    /// tag; 6 a trailing comment; 7 a CRLF line end; 8 a space inside the
    /// predicate IRI; 9 a relative subject IRI (verbatim before `@base`,
    /// resolved after it, verbatim in N-Triples).
    fn mixed(lines: &[LineSpec], turtle: bool, base_at: usize) -> Mixed {
        let mut doc = Doc::default();
        let mut whitespace_error = None;
        let mut base = "";
        for (n, ((kind, s, p), (literal, o, suffix), (lang, pick))) in lines.iter().enumerate() {
            if turtle && n == base_at {
                doc.text.push_str(&format!("@base <{BASE}> .\n"));
                base = BASE;
            }
            let plain = |run: &str| vec![(0u8, 0usize, run.to_owned())];
            let odd = |k: u8| (k, *pick, String::new());
            doc.sites.push((doc.text.len(), Site::Subject));
            let subject = match kind {
                9 => {
                    doc.text.push_str("<rel/");
                    let rel = format!("rel/{}", doc.body(&plain(s), false));
                    doc.text.push('>');
                    Term::iri(if turtle { format!("{base}{rel}") } else { rel })
                }
                4 => Term::Iri(doc.iri("http://e/s/", &[(0, 0, s.clone()), odd(2)])),
                _ => Term::Iri(doc.iri("http://e/s/", &plain(s))),
            };
            doc.text.push(if pick % 5 == 0 { '\t' } else { ' ' });
            let predicate = if *kind == 8 {
                doc.text.push_str("<http://e/p/");
                let head = doc.body(&plain(p), false);
                doc.text.push(' ');
                if turtle && whitespace_error.is_none() {
                    whitespace_error = Some(doc.position(doc.text.len()));
                }
                let tail = doc.body(&plain("x"), false);
                doc.text.push('>');
                Iri::new(format!("http://e/p/{head} {tail}"))
            } else {
                doc.iri("http://e/p/", &plain(p))
            };
            doc.text.push(' ');
            // IRIs take the IRI characters of the object text.
            let o_iri: String = o
                .chars()
                .filter(|c| c.is_ascii_alphanumeric() || "_./#-".contains(*c))
                .collect();
            let mut body = plain(if *literal { o } else { &o_iri });
            match kind {
                3 => body.push(odd(3)),
                4 => body.push(odd(2)),
                _ => {}
            }
            let object = if *literal {
                doc.text.push('"');
                let lexical = doc.body(&body, true);
                doc.text.push('"');
                Term::Literal(match suffix {
                    0 => Literal::string(lexical),
                    1 => {
                        let tag = if *kind == 5 {
                            lang.to_ascii_uppercase()
                        } else {
                            lang.clone()
                        };
                        doc.text.push('@');
                        doc.text.push_str(&tag);
                        Literal::lang_string(lexical, &tag)
                    }
                    _ => {
                        doc.text.push_str("^^");
                        Literal::typed(lexical, doc.iri("http://dt/", &plain(&o_iri)))
                    }
                })
            } else {
                Term::Iri(doc.iri("http://e/o/", &body))
            };
            doc.text.push_str(match kind {
                6 => " . # a comment, \\ not an escape\n",
                7 => " .\r\n",
                _ => " .\n",
            });
            doc.triples.push(Triple::new(subject, predicate, object));
        }
        Mixed {
            doc,
            whitespace_error,
        }
    }
}

/// The frozen loader's snapshot agrees with `parse` + `freeze`: the same
/// terms under the same ids, and the same id triples in the same order.
fn frozen_agrees(frozen: &FrozenGraph, graph: &Graph) -> Result<(), TestCaseError> {
    let refrozen = graph.freeze();
    prop_assert_eq!(frozen.term_count(), refrozen.term_count());
    for id in 0..frozen.term_count() as u32 {
        prop_assert_eq!(frozen.term(TermId(id)), refrozen.term(TermId(id)));
    }
    prop_assert_eq!(
        frozen.iter_ids().collect::<Vec<_>>(),
        refrozen.iter_ids().collect::<Vec<_>>()
    );
    Ok(())
}

type Reader = (
    &'static str,
    fn(&str) -> Result<Graph, ParseError>,
    fn(&str) -> Result<FrozenGraph, ParseError>,
);

const READERS: [Reader; 2] = [
    ("ntriples", ntriples::parse, ntriples::parse_frozen),
    ("turtle", turtle::parse, turtle::parse_frozen),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both readers decode every escape, run and line end into the graph
    /// the generator meant, and their frozen loaders assign the ids
    /// `parse` + `freeze` does.
    #[test]
    fn readers_decode_and_freeze_alike(specs in prop::collection::vec(triple_spec(), 1..12)) {
        let doc = Doc::render(&specs);
        let expected = Graph::from_triples(doc.triples.iter().cloned());
        for (name, parse, parse_frozen) in READERS {
            let graph = parse(&doc.text)
                .map_err(|e| TestCaseError::fail(format!("{name}: {e} in {:?}", doc.text)))?;
            prop_assert_eq!(&graph, &expected);
            let frozen = parse_frozen(&doc.text).unwrap();
            frozen_agrees(&frozen, &graph)?;
        }
    }

    /// Serializing what was read and reading it back is the identity.
    #[test]
    fn lexed_graphs_round_trip(specs in prop::collection::vec(triple_spec(), 1..12)) {
        let graph = ntriples::parse(&Doc::render(&specs).text).unwrap();
        prop_assert_eq!(&ntriples::parse(&ntriples::serialize(&graph)).unwrap(), &graph);
        let ttl = turtle::serialize(&graph, &[("s", "http://e/s/"), ("p", "http://e/p/")]);
        prop_assert_eq!(&turtle::parse(&ttl).unwrap(), &graph);
    }

    /// One bad byte is reported at its character position by both readers,
    /// whatever multi-byte characters, controls and CRLFs precede it.
    #[test]
    fn bad_byte_position_counts_characters(
        specs in prop::collection::vec(triple_spec(), 1..12),
        k in 0usize..1_000,
    ) {
        let (text, expected) = Doc::render(&specs).damaged(k);
        for (name, parse, parse_frozen) in READERS {
            let err = parse(&text).unwrap_err();
            prop_assert_eq!((err.line, err.column), expected, "{}: {} in {:?}", name, err, text);
            prop_assert_eq!(parse_frozen(&text).unwrap_err(), err);
        }
    }

    /// Plain lines interleaved with lines that leave the plain lane read
    /// as the generator meant, freeze id for id like `parse` + `freeze`,
    /// and report one injected bad byte where it is; Turtle rejects
    /// whitespace inside `<…>` where it is.
    #[test]
    fn plain_lines_interleave_with_fallbacks(
        lines in prop::collection::vec(line_spec(), 1..16),
        base_at in 0usize..16,
        k in 0usize..1_000,
    ) {
        for (name, parse, parse_frozen) in READERS {
            let turtle = name == "turtle";
            let Mixed { doc, whitespace_error } = Doc::mixed(&lines, turtle, base_at);
            if let Some(expected) = whitespace_error {
                let err = parse(&doc.text).unwrap_err();
                prop_assert_eq!((err.line, err.column), expected, "{}: {} in {:?}", name, err, doc.text);
                prop_assert_eq!(parse_frozen(&doc.text).unwrap_err(), err);
                continue;
            }
            let graph = parse(&doc.text)
                .map_err(|e| TestCaseError::fail(format!("{name}: {e} in {:?}", doc.text)))?;
            prop_assert_eq!(&graph, &Graph::from_triples(doc.triples.iter().cloned()));
            frozen_agrees(&parse_frozen(&doc.text).unwrap(), &graph)?;
            let (text, expected) = doc.damaged(k);
            let err = parse(&text).unwrap_err();
            prop_assert_eq!((err.line, err.column), expected, "{}: {} in {:?}", name, err, text);
            prop_assert_eq!(parse_frozen(&text).unwrap_err(), err);
        }
    }
}
