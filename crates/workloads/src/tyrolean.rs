//! Synthetic "Tyrolean Knowledge Graph" substitute (§5.3.1 substitution).
//!
//! The paper's overhead experiment runs 57 shapes over induced subgraphs of
//! a closed 30M-triple tourism knowledge graph (schema.org-annotated
//! events, lodging businesses, places, offers; Schaffenrath et al.). We
//! reproduce the *workload structure*: a deterministic generator for a
//! tourism-domain graph with the same entity kinds and constraint-relevant
//! attributes, plus the paper's induced-subgraph sampling protocol (sample
//! `k` individuals uniformly at random, keep every triple in which a
//! sampled individual appears as subject or object).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use shapefrag_rdf::vocab::{rdf, rdfs, xsd};
use shapefrag_rdf::{Graph, GraphAccess, Iri, Literal, Term, Triple};

/// The namespace of the synthetic tourism graph.
pub const TKG_NS: &str = "http://tkg.example.org/";
/// The schema.org-like vocabulary namespace.
pub const SCHEMA_NS: &str = "http://schema.example.org/";

/// Vocabulary helper: a schema property/class IRI.
pub fn schema(local: &str) -> Iri {
    Iri::new(format!("{SCHEMA_NS}{local}"))
}

/// An entity IRI in the data namespace.
pub fn entity(local: &str) -> Term {
    Term::iri(format!("{TKG_NS}{local}"))
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TyroleanConfig {
    /// Number of *individuals* (events + places + lodgings + offers +
    /// reviews + people). The triple count is roughly 9–11× this.
    pub individuals: usize,
    pub seed: u64,
}

impl TyroleanConfig {
    pub fn new(individuals: usize, seed: u64) -> Self {
        TyroleanConfig { individuals, seed }
    }
}

const EVENT_CATEGORIES: [&str; 6] = [
    "Concert",
    "Market",
    "Hike",
    "Exhibition",
    "Festival",
    "SkiRace",
];
const PLACE_NAMES: [&str; 8] = [
    "Innsbruck",
    "Bozen",
    "Meran",
    "Lienz",
    "Kufstein",
    "Brixen",
    "Sterzing",
    "Hall",
];
const LANGS: [&str; 3] = ["de", "it", "en"];

/// Generates the synthetic tourism graph.
///
/// Entity mix (per 100 individuals): ~30 events, ~15 places, ~15 lodging
/// businesses, ~20 offers, ~15 reviews, ~5 people. A small class hierarchy
/// (`Hotel ⊑ LodgingBusiness ⊑ LocalBusiness`) exercises
/// `rdfs:subClassOf*` targets. A small fraction of entities violate
/// constraints (missing names, out-of-range ratings, inverted date pairs)
/// so that validation reports are non-trivial.
pub fn generate(config: &TyroleanConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut g = Graph::new();

    // Class hierarchy.
    for (sub, sup) in [
        ("Hotel", "LodgingBusiness"),
        ("Pension", "LodgingBusiness"),
        ("LodgingBusiness", "LocalBusiness"),
        ("Campground", "LocalBusiness"),
        ("MusicEvent", "Event"),
        ("SportsEvent", "Event"),
    ] {
        g.insert(Triple::new(
            Term::Iri(schema(sub)),
            rdfs::sub_class_of(),
            Term::Iri(schema(sup)),
        ));
    }

    let n = config.individuals;
    let n_events = n * 30 / 100;
    let n_places = n * 15 / 100;
    let n_lodgings = n * 15 / 100;
    let n_offers = n * 20 / 100;
    let n_reviews = n * 15 / 100;
    let n_people = n.saturating_sub(n_events + n_places + n_lodgings + n_offers + n_reviews);

    let places: Vec<Term> = (0..n_places)
        .map(|i| entity(&format!("place{i}")))
        .collect();
    let lodgings: Vec<Term> = (0..n_lodgings)
        .map(|i| entity(&format!("lodging{i}")))
        .collect();
    let people: Vec<Term> = (0..n_people.max(1))
        .map(|i| entity(&format!("person{i}")))
        .collect();

    // Places.
    for (i, place) in places.iter().enumerate() {
        g.insert(Triple::new(
            place.clone(),
            rdf::type_(),
            Term::Iri(schema("Place")),
        ));
        let name = PLACE_NAMES[i % PLACE_NAMES.len()];
        g.insert(Triple::new(
            place.clone(),
            schema("name"),
            Term::Literal(Literal::lang_string(format!("{name} {i}"), LANGS[i % 3])),
        ));
        g.insert(Triple::new(
            place.clone(),
            schema("postalCode"),
            Term::Literal(Literal::string(format!("{:04}", 6000 + (i % 700)))),
        ));
        g.insert(Triple::new(
            place.clone(),
            schema("latitude"),
            Term::Literal(Literal::typed(
                format!("{:.4}", 46.4 + rng.gen_range(0.0..1.0)),
                xsd::decimal(),
            )),
        ));
        g.insert(Triple::new(
            place.clone(),
            schema("longitude"),
            Term::Literal(Literal::typed(
                format!("{:.4}", 11.0 + rng.gen_range(0.0..1.5)),
                xsd::decimal(),
            )),
        ));
    }

    // People.
    for (i, person) in people.iter().enumerate() {
        g.insert(Triple::new(
            person.clone(),
            rdf::type_(),
            Term::Iri(schema("Person")),
        ));
        g.insert(Triple::new(
            person.clone(),
            schema("name"),
            Term::Literal(Literal::string(format!("Person {i}"))),
        ));
        if i % 4 != 0 {
            g.insert(Triple::new(
                person.clone(),
                schema("email"),
                Term::Literal(Literal::string(format!("person{i}@tkg.example.org"))),
            ));
        }
    }

    // Lodging businesses.
    for (i, lodging) in lodgings.iter().enumerate() {
        let class = if i % 3 == 0 {
            "Hotel"
        } else if i % 3 == 1 {
            "Pension"
        } else {
            "Campground"
        };
        g.insert(Triple::new(
            lodging.clone(),
            rdf::type_(),
            Term::Iri(schema(class)),
        ));
        // ~3% of lodgings are missing their name (violations).
        if i % 33 != 7 {
            for lang in LANGS.iter().take(1 + i % 3) {
                g.insert(Triple::new(
                    lodging.clone(),
                    schema("name"),
                    Term::Literal(Literal::lang_string(format!("Haus {i}"), lang)),
                ));
            }
        }
        if let Some(place) = places.choose(&mut rng) {
            g.insert(Triple::new(
                lodging.clone(),
                schema("location"),
                place.clone(),
            ));
        }
        g.insert(Triple::new(
            lodging.clone(),
            schema("telephone"),
            Term::Literal(Literal::string(format!(
                "+43 512 {:06}",
                i * 37 % 1_000_000
            ))),
        ));
        g.insert(Triple::new(
            lodging.clone(),
            schema("url"),
            Term::iri(format!("https://lodging{i}.example.org/")),
        ));
        let stars = 1 + (i % 5) as i64;
        g.insert(Triple::new(
            lodging.clone(),
            schema("starRating"),
            Term::Literal(Literal::integer(stars)),
        ));
    }

    // Events.
    for i in 0..n_events {
        let event = entity(&format!("event{i}"));
        let class = match i % 3 {
            0 => "MusicEvent",
            1 => "SportsEvent",
            _ => "Event",
        };
        g.insert(Triple::new(
            event.clone(),
            rdf::type_(),
            Term::Iri(schema(class)),
        ));
        let cat = EVENT_CATEGORIES[i % EVENT_CATEGORIES.len()];
        g.insert(Triple::new(
            event.clone(),
            schema("name"),
            Term::Literal(Literal::lang_string(
                format!("{cat} {i}"),
                LANGS[i % LANGS.len()],
            )),
        ));
        let start_day = 1 + (i % 27);
        let month = 1 + (i % 12);
        let start = format!("2022-{month:02}-{start_day:02}T18:00:00Z");
        // ~2% of events have an end before the start (violations for
        // lessThan shapes).
        let end_day = if i % 50 == 13 {
            start_day.saturating_sub(1).max(1)
        } else {
            start_day + 1
        };
        let end = format!("2022-{month:02}-{end_day:02}T23:00:00Z");
        g.insert(Triple::new(
            event.clone(),
            schema("startDate"),
            Term::Literal(Literal::typed(start, xsd::date_time())),
        ));
        g.insert(Triple::new(
            event.clone(),
            schema("endDate"),
            Term::Literal(Literal::typed(end, xsd::date_time())),
        ));
        if let Some(place) = places.choose(&mut rng) {
            g.insert(Triple::new(
                event.clone(),
                schema("location"),
                place.clone(),
            ));
        }
        if let Some(person) = people.choose(&mut rng) {
            g.insert(Triple::new(
                event.clone(),
                schema("organizer"),
                person.clone(),
            ));
        }
    }

    // Offers.
    for i in 0..n_offers {
        let offer = entity(&format!("offer{i}"));
        g.insert(Triple::new(
            offer.clone(),
            rdf::type_(),
            Term::Iri(schema("Offer")),
        ));
        if let Some(lodging) = lodgings.choose(&mut rng) {
            g.insert(Triple::new(
                lodging.clone(),
                schema("makesOffer"),
                offer.clone(),
            ));
        }
        let price = 40.0 + (i % 300) as f64 + 0.5;
        g.insert(Triple::new(
            offer.clone(),
            schema("price"),
            Term::Literal(Literal::typed(format!("{price:.2}"), xsd::decimal())),
        ));
        g.insert(Triple::new(
            offer.clone(),
            schema("priceCurrency"),
            Term::Literal(Literal::string(if i % 20 == 3 {
                "US-Dollar"
            } else {
                "EUR"
            })),
        ));
        g.insert(Triple::new(
            offer.clone(),
            schema("validFrom"),
            Term::Literal(Literal::typed("2022-01-01", xsd::date())),
        ));
        g.insert(Triple::new(
            offer.clone(),
            schema("validThrough"),
            Term::Literal(Literal::typed("2022-12-31", xsd::date())),
        ));
    }

    // Reviews.
    for i in 0..n_reviews {
        let review = entity(&format!("review{i}"));
        g.insert(Triple::new(
            review.clone(),
            rdf::type_(),
            Term::Iri(schema("Review")),
        ));
        // ~4% of ratings are out of the 1..5 range (violations).
        let rating = if i % 25 == 11 { 9 } else { 1 + (i % 5) as i64 };
        g.insert(Triple::new(
            review.clone(),
            schema("ratingValue"),
            Term::Literal(Literal::integer(rating)),
        ));
        if let Some(person) = people.choose(&mut rng) {
            g.insert(Triple::new(
                review.clone(),
                schema("author"),
                person.clone(),
            ));
        }
        if let Some(lodging) = lodgings.choose(&mut rng) {
            g.insert(Triple::new(
                review.clone(),
                schema("itemReviewed"),
                lodging.clone(),
            ));
        }
        g.insert(Triple::new(
            review.clone(),
            schema("reviewBody"),
            Term::Literal(Literal::lang_string(
                format!("Sehr schön {i}"),
                LANGS[i % LANGS.len()],
            )),
        ));
    }

    g
}

/// The paper's induced-subgraph sampling protocol: sample `k` individuals
/// uniformly at random and retrieve all triples involving them as subjects
/// or objects.
pub fn sample_induced(graph: &Graph, k: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut individuals: Vec<Term> = graph
        .nodes()
        .into_iter()
        .filter(|t| matches!(t, Term::Iri(iri) if iri.as_str().starts_with(TKG_NS)))
        .cloned()
        .collect();
    individuals.sort();
    individuals.shuffle(&mut rng);
    individuals.truncate(k);
    let chosen: std::collections::HashSet<Term> = individuals.into_iter().collect();
    let mut out = Graph::new();
    for t in graph.iter() {
        if chosen.contains(&t.subject) || chosen.contains(&t.object) {
            out.insert(t);
        }
    }
    // Keep the class hierarchy: targets rely on subClassOf closure.
    for t in graph.triples_matching(None, Some(&rdfs::sub_class_of()), None) {
        out.insert(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let c = TyroleanConfig::new(500, 42);
        let g1 = generate(&c);
        let g2 = generate(&c);
        assert_eq!(g1, g2);
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = generate(&TyroleanConfig::new(500, 1));
        let g2 = generate(&TyroleanConfig::new(500, 2));
        assert_ne!(g1, g2);
    }

    #[test]
    fn triple_count_scales_with_individuals() {
        let small = generate(&TyroleanConfig::new(200, 7)).len();
        let large = generate(&TyroleanConfig::new(2000, 7)).len();
        assert!(large > 8 * small);
        // Roughly 5–12 triples per individual.
        assert!(small > 200 * 4 && small < 200 * 13, "got {small}");
    }

    #[test]
    fn contains_expected_entity_kinds() {
        let g = generate(&TyroleanConfig::new(400, 3));
        for class in ["Event", "Place", "Offer", "Review", "Person"] {
            let found = !g
                .triples_matching(None, Some(&rdf::type_()), Some(&Term::Iri(schema(class))))
                .is_empty()
                || class == "Event"; // events may all be subclasses
            assert!(found, "no {class} instances");
        }
        // Subclass hierarchy present.
        assert!(!g
            .triples_matching(None, Some(&rdfs::sub_class_of()), None)
            .is_empty());
    }

    #[test]
    fn induced_sampling_keeps_incident_triples() {
        let g = generate(&TyroleanConfig::new(400, 3));
        let s = sample_induced(&g, 50, 9);
        assert!(s.len() < g.len());
        assert!(s.is_subgraph_of(&g));
        // Growing the sample grows the subgraph.
        let s2 = sample_induced(&g, 200, 9);
        assert!(s2.len() > s.len());
    }

    #[test]
    fn sampling_is_deterministic() {
        let g = generate(&TyroleanConfig::new(300, 3));
        assert_eq!(sample_induced(&g, 50, 9), sample_induced(&g, 50, 9));
    }
}
