//! Synthetic DBLP co-authorship generator (§5.3.2 substitution).
//!
//! The paper's "Vardi experiment" computes the shape fragment of
//! `≥1 (a⁻/a)³.hasValue(MYV)` — all authors within co-author distance 3 of
//! Moshe Y. Vardi, *plus all `authoredBy` triples on the relevant paths* —
//! over year slices of DBLP (2021 back to 2010).
//!
//! We reproduce the structure with a preferential-attachment co-authorship
//! model: papers arrive per year and choose authors with probability
//! proportional to their current degree, yielding the heavy-tailed
//! collaboration network DBLP exhibits; a designated *hub author* (the
//! Vardi stand-in) is seeded early and participates at an elevated rate, so
//! that a large share of authors ends up within distance ≤ 3 — the paper
//! reports ≈7% of all authors and ≈3% of all `authoredBy` triples for the
//! 2016–2021 slice.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shapefrag_rdf::{Graph, Iri, Literal, Term, Triple};
use shapefrag_shacl::{PathExpr, Shape};

/// Namespace of the synthetic bibliography.
pub const DBLP_NS: &str = "http://dblp.example.org/";

/// The `authoredBy` property (paper → author).
pub fn authored_by() -> Iri {
    Iri::new(format!("{DBLP_NS}authoredBy"))
}

/// The `yearOfPublication` property.
pub fn year_prop() -> Iri {
    Iri::new(format!("{DBLP_NS}year"))
}

/// The hub author standing in for Moshe Y. Vardi.
pub fn hub_author() -> Term {
    Term::iri(format!("{DBLP_NS}author/TheHub"))
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct DblpConfig {
    /// First publication year generated.
    pub first_year: u32,
    /// Last publication year generated (inclusive).
    pub last_year: u32,
    /// Papers per year.
    pub papers_per_year: usize,
    /// New authors entering the pool per year.
    pub new_authors_per_year: usize,
    /// Probability that a paper is single-author (controls network
    /// sparsity — real DBLP has a long tail of solo and two-author
    /// papers, which keeps co-author balls small).
    pub solo_ratio: f64,
    /// Probability that the hub co-authors any given paper.
    pub hub_rate: f64,
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig {
            first_year: 2010,
            last_year: 2021,
            papers_per_year: 800,
            new_authors_per_year: 300,
            solo_ratio: 0.35,
            hub_rate: 0.025,
            seed: 0xD61F,
        }
    }
}

/// One generated publication.
#[derive(Debug, Clone)]
pub struct Paper {
    pub id: usize,
    pub year: u32,
    pub authors: Vec<usize>,
}

/// The generated bibliography, kept in a year-sliceable form.
#[derive(Debug, Clone)]
pub struct Bibliography {
    pub papers: Vec<Paper>,
    pub author_count: usize,
    config: DblpConfig,
}

impl Bibliography {
    /// Generates the co-authorship history.
    pub fn generate(config: &DblpConfig) -> Bibliography {
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Author 0 is the hub.
        let mut degree: Vec<usize> = vec![3]; // seed weight for the hub
        let mut papers = Vec::new();
        let mut paper_id = 0usize;
        for year in config.first_year..=config.last_year {
            // Each new author enters with base weight 1.
            degree.extend(std::iter::repeat_n(1, config.new_authors_per_year));
            for _ in 0..config.papers_per_year {
                let n_authors = if rng.gen_bool(config.solo_ratio) {
                    1
                } else {
                    2 + rng.gen_range(0..4).min(rng.gen_range(0..4))
                };
                let mut authors = Vec::with_capacity(n_authors + 1);
                if rng.gen_bool(config.hub_rate) {
                    authors.push(0);
                }
                let total: usize = degree.iter().sum();
                while authors.len() < n_authors.max(1) {
                    // Preferential attachment: pick by degree weight.
                    let mut ticket = rng.gen_range(0..total);
                    let mut chosen = 0;
                    for (i, d) in degree.iter().enumerate() {
                        if ticket < *d {
                            chosen = i;
                            break;
                        }
                        ticket -= d;
                    }
                    if !authors.contains(&chosen) {
                        authors.push(chosen);
                    }
                }
                for &a in &authors {
                    degree[a] += 1;
                }
                papers.push(Paper {
                    id: paper_id,
                    year,
                    authors,
                });
                paper_id += 1;
            }
        }
        Bibliography {
            papers,
            author_count: degree.len(),
            config: *config,
        }
    }

    /// The RDF graph of the slice containing publication years
    /// `[from_year, last_year]` (the paper slices "going backwards in time
    /// from 2021 until 2010").
    pub fn slice(&self, from_year: u32) -> Graph {
        let mut g = Graph::new();
        let ab = authored_by();
        let yp = year_prop();
        for paper in &self.papers {
            if paper.year < from_year {
                continue;
            }
            let p = Term::iri(format!("{DBLP_NS}rec/{}", paper.id));
            g.insert(Triple::new(
                p.clone(),
                yp.clone(),
                Term::Literal(Literal::integer(paper.year as i64)),
            ));
            for &a in &paper.authors {
                g.insert(Triple::new(p.clone(), ab.clone(), author_term(a)));
            }
        }
        g
    }

    /// The full graph (all years).
    pub fn full_graph(&self) -> Graph {
        self.slice(self.config.first_year)
    }
}

fn author_term(idx: usize) -> Term {
    if idx == 0 {
        hub_author()
    } else {
        Term::iri(format!("{DBLP_NS}author/a{idx}"))
    }
}

/// The Vardi-distance-`k` request shape:
/// `≥1 (a⁻/a)^k.hasValue(hub)` — co-author distance ≤ k from the hub, with
/// all authorship triples on the connecting paths.
///
/// `a⁻/a` goes author → paper → author, so `k` repetitions reach co-author
/// distance `k`; because each hop may stay in place (a co-author of
/// themselves via any shared paper), `(a⁻/a)^k` covers all distances ≤ k,
/// matching "distance three *or less*" in §5.3.2.
pub fn vardi_shape(k: usize) -> Shape {
    let hop = PathExpr::Prop(authored_by())
        .inverse()
        .then(PathExpr::Prop(authored_by()));
    Shape::geq(1, hop.repeat(k), Shape::has_value(hub_author()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapefrag_core::fragment;
    use shapefrag_rdf::GraphAccess;
    use shapefrag_shacl::validator::Context;
    use shapefrag_shacl::Schema;

    fn small_config() -> DblpConfig {
        DblpConfig {
            first_year: 2018,
            last_year: 2021,
            papers_per_year: 120,
            new_authors_per_year: 60,
            seed: 7,
            ..DblpConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let b1 = Bibliography::generate(&small_config());
        let b2 = Bibliography::generate(&small_config());
        assert_eq!(b1.full_graph(), b2.full_graph());
    }

    #[test]
    fn slices_grow_backwards_in_time() {
        let b = Bibliography::generate(&small_config());
        let s2021 = b.slice(2021);
        let s2019 = b.slice(2019);
        let s2018 = b.slice(2018);
        assert!(s2021.len() < s2019.len());
        assert!(s2019.len() < s2018.len());
        assert!(s2021.is_subgraph_of(&s2019));
        assert!(s2019.is_subgraph_of(&s2018));
    }

    #[test]
    fn hub_is_prolific() {
        let b = Bibliography::generate(&small_config());
        let g = b.full_graph();
        let hub_papers = g.subjects_for(&hub_author(), &authored_by()).len();
        // ~2.5% of 480 papers.
        assert!(hub_papers >= 3, "hub has only {hub_papers} papers");
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let b = Bibliography::generate(&small_config());
        let g = b.full_graph();
        let mut degrees: Vec<usize> = Vec::new();
        for node in g.nodes() {
            if matches!(node, Term::Iri(i) if i.as_str().contains("/author/")) {
                degrees.push(g.subjects_for(node, &authored_by()).len());
            }
        }
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = degrees.iter().sum();
        let top10: usize = degrees.iter().take(degrees.len() / 10).sum();
        // Top decile of authors should hold well over a fifth of authorships.
        assert!(
            top10 * 5 > total,
            "top decile {top10} of {total} is not heavy-tailed"
        );
    }

    #[test]
    fn vardi_shape_selects_coauthor_ball() {
        let b = Bibliography::generate(&small_config());
        let g = b.full_graph();
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &g);
        let shape1 = vardi_shape(1);
        let shape3 = vardi_shape(3);
        let d1: Vec<_> = g
            .node_ids()
            .into_iter()
            .filter(|&v| ctx.conforms(v, &shape1))
            .collect();
        let d3: Vec<_> = g
            .node_ids()
            .into_iter()
            .filter(|&v| ctx.conforms(v, &shape3))
            .collect();
        // Distance-1 conformers include the hub itself and direct co-authors.
        assert!(d1.len() > 1);
        // Monotone: the distance-3 ball contains the distance-1 ball.
        assert!(d3.len() >= d1.len());
        // And a noticeable share of all authors is within distance 3.
        let author_count = g
            .nodes()
            .iter()
            .filter(|t| matches!(t, Term::Iri(i) if i.as_str().contains("/author/")))
            .count();
        assert!(
            d3.len() * 50 > author_count,
            "only {} of {author_count} authors within distance 3",
            d3.len()
        );
    }

    #[test]
    fn vardi_fragment_is_authorship_subgraph() {
        let b = Bibliography::generate(&small_config());
        let g = b.slice(2020);
        let schema = Schema::empty();
        let frag = fragment(&schema, &g, &[vardi_shape(2)]);
        assert!(frag.is_subgraph_of(&g));
        assert!(!frag.is_empty());
        // Only authoredBy triples appear on the traced paths.
        for t in frag.iter() {
            assert_eq!(t.predicate, authored_by());
        }
    }
}
