//! Round-trip property tests for the RDF serializers: any graph the data
//! model can represent must survive N-Triples and Turtle serialization,
//! including literals with awkward lexical forms and IRIs holding the
//! characters `IRIREF` forbids (written as `\uXXXX` escapes).

mod common;

use proptest::prelude::*;

use shape_fragments::rdf::{ntriples, turtle, Graph, Iri, Literal, Term, Triple};

/// IRIs under `base`, mostly plain, sometimes holding characters `IRIREF`
/// forbids (`<>"{}|^`, backtick, backslash, space and controls).
fn iri_strategy(base: &'static str) -> impl Strategy<Value = Iri> {
    const AWKWARD: [char; 16] = [
        'a', 'z', '<', '>', '"', '{', '}', '|', '^', '`', '\\', ' ', '\t', '\n', '\u{0}', '\u{1f}',
    ];
    prop_oneof![
        3 => "[a-z]{1,6}".prop_map(move |s| Iri::new(format!("{base}{s}"))),
        1 => prop::collection::vec(0..AWKWARD.len(), 1..6).prop_map(move |ix| {
            let local: String = ix.into_iter().map(|i| AWKWARD[i]).collect();
            Iri::new(format!("{base}{local}"))
        }),
    ]
}

/// Terms with adversarial literal content (quotes, escapes, newlines,
/// unicode, language tags, datatypes).
fn literal_strategy() -> impl Strategy<Value = Literal> {
    prop_oneof![
        // Arbitrary text, including escapes and newlines.
        "[ -~\\n\\t\"\\\\]{0,24}".prop_map(Literal::string),
        // Unicode text.
        proptest::string::string_regex("[a-zA-Zéüλ中🦀 ]{0,12}")
            .unwrap()
            .prop_map(Literal::string),
        // Language-tagged.
        ("[a-z]{2}(-[A-Z]{2})?", "[ -~]{0,10}")
            .prop_map(|(lang, s)| { Literal::lang_string(s.replace(['\\', '"'], ""), &lang) }),
        any::<i64>().prop_map(Literal::integer),
        any::<bool>().prop_map(Literal::boolean),
        // Custom datatype, sometimes with an awkward IRI.
        ("[a-z]{1,8}", iri_strategy("http://dt.example.org/"))
            .prop_map(|(s, dt)| Literal::typed(s, dt)),
    ]
}

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => iri_strategy("http://e/").prop_map(Term::Iri),
        1 => "[A-Za-z][A-Za-z0-9]{0,5}".prop_map(Term::blank),
        2 => literal_strategy().prop_map(Term::Literal),
    ]
}

fn any_graph() -> impl Strategy<Value = Graph> {
    prop::collection::vec(
        (
            prop_oneof![
                3 => iri_strategy("http://e/").prop_map(Term::Iri),
                1 => "[A-Za-z][A-Za-z0-9]{0,5}".prop_map(Term::blank),
            ],
            iri_strategy("http://e/p/"),
            term_strategy(),
        ),
        0..25,
    )
    .prop_map(|triples| {
        Graph::from_triples(triples.into_iter().map(|(s, p, o)| Triple::new(s, p, o)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// N-Triples round trip is the identity on graphs.
    #[test]
    fn ntriples_round_trip(g in any_graph()) {
        let text = ntriples::serialize(&g);
        let parsed = ntriples::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{text}")))?;
        prop_assert_eq!(parsed, g);
    }

    /// Turtle round trip (without prefixes) is the identity on graphs.
    #[test]
    fn turtle_round_trip(g in any_graph()) {
        let text = turtle::serialize(&g, &[]);
        let parsed = turtle::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{text}")))?;
        prop_assert_eq!(parsed, g);
    }

    /// Turtle round trip with a prefix map also preserves the graph.
    #[test]
    fn turtle_round_trip_with_prefixes(g in any_graph()) {
        let text = turtle::serialize(&g, &[("e", "http://e/"), ("p", "http://e/p/")]);
        let parsed = turtle::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{text}")))?;
        prop_assert_eq!(parsed, g);
    }

    /// Serialization is deterministic.
    #[test]
    fn serialization_deterministic(g in any_graph()) {
        prop_assert_eq!(ntriples::serialize(&g), ntriples::serialize(&g));
        prop_assert_eq!(turtle::serialize(&g, &[]), turtle::serialize(&g, &[]));
    }
}
