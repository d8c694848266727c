//! Property tests for the byte-level term lexer behind both RDF readers.
//!
//! Random documents mix plain ASCII runs with non-ASCII characters,
//! `\uXXXX` / `\UXXXXXXXX` and ECHAR escapes, raw control characters,
//! non-ASCII whitespace and CRLF line ends. Every document is valid
//! N-Triples and valid Turtle, so both readers must produce the graph the
//! generator meant, their frozen loaders must agree with `parse` +
//! `freeze` id for id, serialization must round-trip, and one injected bad
//! byte must be reported at the character position counted here.

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
        let before = &text[..end];
        let line = before.matches('\n').count() + 1;
        let column = before.rsplit('\n').next().unwrap().chars().count() + 1;
        (text, (line, column))
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
}
