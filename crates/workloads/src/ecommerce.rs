//! Synthetic e-commerce/review dataset in the style of the BSBM and WatDiv
//! benchmark universes (§4.1 substitution).
//!
//! Products with features, labels and captions; vendors and offers with
//! prices; reviews with ratings, titles and language-tagged text; users
//! who follow and befriend each other, like products, and live in cities of
//! countries; websites and retailers. The §4.1 query workload
//! ([`crate::queries`]) is written against this vocabulary.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use shapefrag_rdf::vocab::{rdf, xsd};
use shapefrag_rdf::{Graph, Iri, Literal, Term, Triple};

/// Vocabulary namespace.
pub const EC_NS: &str = "http://ec.example.org/vocab/";
/// Entity namespace.
pub const EC_DATA: &str = "http://ec.example.org/data/";

/// A vocabulary IRI.
pub fn ec(local: &str) -> Iri {
    Iri::new(format!("{EC_NS}{local}"))
}

/// A data entity.
pub fn ent(local: &str) -> Term {
    Term::iri(format!("{EC_DATA}{local}"))
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct EcommerceConfig {
    pub products: usize,
    pub users: usize,
    pub seed: u64,
}

impl Default for EcommerceConfig {
    fn default() -> Self {
        EcommerceConfig {
            products: 120,
            users: 80,
            seed: 0xECC0,
        }
    }
}

/// Generates the dataset. Sized so that every benchmark query has
/// non-empty results: feature 870 and feature 59 exist, some products have
/// the one without the other, English and German review texts both occur,
/// the friend/follows graph is connected enough for 2–3 hop queries.
pub fn generate(config: &EcommerceConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut g = Graph::new();

    let countries: Vec<Term> = (0..5).map(|i| ent(&format!("country{i}"))).collect();
    for (i, c) in countries.iter().enumerate() {
        g.insert(Triple::new(
            c.clone(),
            rdf::type_(),
            Term::Iri(ec("Country")),
        ));
        g.insert(Triple::new(
            c.clone(),
            ec("name"),
            Term::Literal(Literal::string(format!("Country {i}"))),
        ));
    }
    let cities: Vec<Term> = (0..12).map(|i| ent(&format!("city{i}"))).collect();
    for (i, c) in cities.iter().enumerate() {
        g.insert(Triple::new(c.clone(), rdf::type_(), Term::Iri(ec("City"))));
        g.insert(Triple::new(
            c.clone(),
            ec("country"),
            countries[i % countries.len()].clone(),
        ));
    }

    let genres: Vec<Term> = (0..6).map(|i| ent(&format!("genre{i}"))).collect();
    for (i, genre) in genres.iter().enumerate() {
        g.insert(Triple::new(
            genre.clone(),
            rdf::type_(),
            Term::Iri(ec("Genre")),
        ));
        g.insert(Triple::new(
            genre.clone(),
            ec("label"),
            Term::Literal(Literal::string(format!("Genre {i}"))),
        ));
    }

    let vendors: Vec<Term> = (0..8).map(|i| ent(&format!("vendor{i}"))).collect();
    for (i, v) in vendors.iter().enumerate() {
        g.insert(Triple::new(
            v.clone(),
            rdf::type_(),
            Term::Iri(ec("Vendor")),
        ));
        g.insert(Triple::new(
            v.clone(),
            ec("label"),
            Term::Literal(Literal::string(format!("Vendor {i}"))),
        ));
        g.insert(Triple::new(
            v.clone(),
            ec("country"),
            countries[i % countries.len()].clone(),
        ));
        g.insert(Triple::new(
            v.clone(),
            ec("homepage"),
            Term::iri(format!("https://vendor{i}.example.org/")),
        ));
    }

    let features: Vec<Term> = [59usize, 870, 12, 34, 56, 78]
        .iter()
        .map(|i| ent(&format!("feature{i}")))
        .collect();

    let users: Vec<Term> = (0..config.users)
        .map(|i| ent(&format!("user{i}")))
        .collect();
    for (i, u) in users.iter().enumerate() {
        g.insert(Triple::new(u.clone(), rdf::type_(), Term::Iri(ec("User"))));
        g.insert(Triple::new(
            u.clone(),
            ec("name"),
            Term::Literal(Literal::string(format!("User {i}"))),
        ));
        g.insert(Triple::new(
            u.clone(),
            ec("location"),
            cities[i % cities.len()].clone(),
        ));
        if i % 3 != 0 {
            g.insert(Triple::new(
                u.clone(),
                ec("age"),
                Term::Literal(Literal::integer(18 + (i as i64 * 7) % 60)),
            ));
        }
        // Social edges.
        for _ in 0..rng.gen_range(0..4) {
            if let Some(f) = users.choose(&mut rng) {
                if f != u {
                    g.insert(Triple::new(u.clone(), ec("friendOf"), f.clone()));
                }
            }
        }
        if let Some(f) = users.choose(&mut rng) {
            if f != u {
                g.insert(Triple::new(u.clone(), ec("follows"), f.clone()));
            }
        }
    }

    let products: Vec<Term> = (0..config.products)
        .map(|i| ent(&format!("product{i}")))
        .collect();
    let mut review_id = 0usize;
    for (i, p) in products.iter().enumerate() {
        g.insert(Triple::new(
            p.clone(),
            rdf::type_(),
            Term::Iri(ec("Product")),
        ));
        g.insert(Triple::new(
            p.clone(),
            ec("label"),
            Term::Literal(Literal::string(format!("Product {i}"))),
        ));
        g.insert(Triple::new(
            p.clone(),
            ec("caption"),
            Term::Literal(Literal::lang_string(
                format!("Caption {i}"),
                if i % 2 == 0 { "en" } else { "de" },
            )),
        ));
        g.insert(Triple::new(
            p.clone(),
            ec("hasGenre"),
            genres[i % genres.len()].clone(),
        ));
        // Features: all products get some; 870 and 59 overlap partially so
        // the negated-bound query has results.
        if i % 2 == 0 {
            g.insert(Triple::new(p.clone(), ec("feature"), ent("feature870")));
        }
        if i % 4 == 1 {
            g.insert(Triple::new(p.clone(), ec("feature"), ent("feature59")));
        }
        g.insert(Triple::new(
            p.clone(),
            ec("feature"),
            features[i % features.len()].clone(),
        ));
        g.insert(Triple::new(
            p.clone(),
            ec("producer"),
            vendors[i % vendors.len()].clone(),
        ));
        g.insert(Triple::new(
            p.clone(),
            ec("price"),
            Term::Literal(Literal::typed(
                format!("{}.99", 5 + (i * 13) % 400),
                xsd::decimal(),
            )),
        ));
        g.insert(Triple::new(
            p.clone(),
            ec("deliveryDays"),
            Term::Literal(Literal::integer(1 + (i as i64 % 7))),
        ));
        if let Some(u) = users.choose(&mut rng) {
            g.insert(Triple::new(u.clone(), ec("likes"), p.clone()));
        }

        // Offers.
        for k in 0..(1 + i % 3) {
            let offer = ent(&format!("offer{i}_{k}"));
            g.insert(Triple::new(
                offer.clone(),
                rdf::type_(),
                Term::Iri(ec("Offer")),
            ));
            g.insert(Triple::new(offer.clone(), ec("product"), p.clone()));
            g.insert(Triple::new(
                offer.clone(),
                ec("vendor"),
                vendors[(i + k) % vendors.len()].clone(),
            ));
            g.insert(Triple::new(
                offer.clone(),
                ec("price"),
                Term::Literal(Literal::typed(
                    format!("{}.49", 4 + ((i + k) * 11) % 380),
                    xsd::decimal(),
                )),
            ));
        }

        // Reviews.
        for _ in 0..(i % 4) {
            let review = ent(&format!("review{review_id}"));
            review_id += 1;
            g.insert(Triple::new(
                review.clone(),
                rdf::type_(),
                Term::Iri(ec("Review")),
            ));
            g.insert(Triple::new(p.clone(), ec("hasReview"), review.clone()));
            g.insert(Triple::new(
                review.clone(),
                ec("title"),
                Term::Literal(Literal::string(format!("Review of product {i}"))),
            ));
            let lang = if review_id.is_multiple_of(3) {
                "de"
            } else {
                "en"
            };
            g.insert(Triple::new(
                review.clone(),
                ec("text"),
                Term::Literal(Literal::lang_string(format!("Nice product {i}"), lang)),
            ));
            g.insert(Triple::new(
                review.clone(),
                ec("rating"),
                Term::Literal(Literal::integer(1 + (review_id as i64 % 10))),
            ));
            if let Some(u) = users.choose(&mut rng) {
                g.insert(Triple::new(review.clone(), ec("reviewer"), u.clone()));
            }
        }
    }

    // Websites and retailers for WatDiv-style star queries.
    for i in 0..10 {
        let site = ent(&format!("website{i}"));
        g.insert(Triple::new(
            site.clone(),
            rdf::type_(),
            Term::Iri(ec("Website")),
        ));
        g.insert(Triple::new(
            site.clone(),
            ec("url"),
            Term::iri(format!("https://site{i}.example.org/")),
        ));
        for _ in 0..4 {
            if let Some(p) = products.choose(&mut rng) {
                g.insert(Triple::new(site.clone(), ec("sells"), p.clone()));
            }
        }
        let retailer = ent(&format!("retailer{i}"));
        g.insert(Triple::new(
            retailer.clone(),
            rdf::type_(),
            Term::Iri(ec("Retailer")),
        ));
        g.insert(Triple::new(retailer.clone(), ec("operates"), site.clone()));
        g.insert(Triple::new(
            retailer.clone(),
            ec("country"),
            countries[i % countries.len()].clone(),
        ));
    }

    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapefrag_rdf::GraphAccess;

    #[test]
    fn deterministic_and_scaled() {
        let c = EcommerceConfig::default();
        assert_eq!(generate(&c), generate(&c));
        let small = generate(&EcommerceConfig {
            products: 40,
            users: 30,
            seed: 1,
        });
        let large = generate(&EcommerceConfig {
            products: 400,
            users: 300,
            seed: 1,
        });
        assert!(large.len() > 5 * small.len());
    }

    #[test]
    fn query_critical_entities_exist() {
        let g = generate(&EcommerceConfig::default());
        // feature 870 and 59 both used.
        assert!(!g
            .triples_matching(None, Some(&ec("feature")), Some(&ent("feature870")))
            .is_empty());
        assert!(!g
            .triples_matching(None, Some(&ec("feature")), Some(&ent("feature59")))
            .is_empty());
        // Some product has 870 without 59.
        let with870: Vec<_> = g
            .triples_matching(None, Some(&ec("feature")), Some(&ent("feature870")))
            .into_iter()
            .map(|t| t.subject)
            .collect();
        let has59: std::collections::HashSet<_> = g
            .triples_matching(None, Some(&ec("feature")), Some(&ent("feature59")))
            .into_iter()
            .map(|t| t.subject)
            .collect();
        assert!(with870.iter().any(|p| !has59.contains(p)));
        // English captions for the langMatches query.
        let captions = g.triples_matching(None, Some(&ec("caption")), None);
        assert!(captions
            .iter()
            .any(|t| t.object.as_literal().and_then(|l| l.language()) == Some("en")));
    }

    #[test]
    fn reviews_are_linked_to_products_and_users() {
        let g = generate(&EcommerceConfig::default());
        let reviews = g.triples_matching(None, Some(&ec("hasReview")), None);
        assert!(!reviews.is_empty());
        let some_review = &reviews[0].object;
        assert!(!g.objects_for(some_review, &ec("rating")).is_empty());
    }
}
