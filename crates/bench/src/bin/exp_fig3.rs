//! **Figure 3** — the Vardi-distance-3 shape fragment over growing DBLP
//! slices (§5.3.2).
//!
//! The request shape `≥1 (a⁻/a)³.hasValue(hub)` retrieves all authors
//! within co-author distance 3 of the hub author *and* all `authoredBy`
//! triples on the connecting paths. The paper runs the generated SPARQL
//! query over year slices of DBLP (2021 back to 2010) on two
//! secondary-memory engines (Jena TDB2, GraphDB) and finds comparable,
//! steeply growing runtimes; it also reports that ≈7% of all authors are
//! within distance 3 and the fragment holds ≈3% of all authorship triples.
//!
//! Here the two engines are the two configurations of our SPARQL
//! evaluator (index-accelerated vs. naive joins); a third series measures
//! the instrumented-validator route for comparison.

use shapefrag_bench::{ms, print_table, time_avg, ExpOptions};
use shapefrag_core::fragment;
use shapefrag_core::to_sparql::fragment_via_sparql;
use shapefrag_rdf::{GraphAccess, Term};
use shapefrag_shacl::validator::Context;
use shapefrag_shacl::{Nnf, Schema};
use shapefrag_sparql::eval::EvalConfig;

use shapefrag_workloads::dblp::{authored_by, vardi_shape, Bibliography, DblpConfig};

struct SliceRow {
    from_year: u32,
    triples: usize,
    authors: usize,
    authors_within_d3: usize,
    fragment_triples: usize,
    authorship_triples: usize,
    engine_indexed_ms: Option<f64>,
    engine_naive_ms: Option<f64>,
    validator_route_ms: f64,
}

struct CoverageStats {
    triples: usize,
    authors: usize,
    authors_within_d3: usize,
    authors_within_d3_pct: f64,
    fragment_triples: usize,
    authorship_triples: usize,
    fragment_share_pct: f64,
}

struct Fig3Results {
    rows: Vec<SliceRow>,
    coverage_2016_2021: CoverageStats,
}

shapefrag_bench::impl_to_json!(SliceRow {
    from_year,
    triples,
    authors,
    authors_within_d3,
    fragment_triples,
    authorship_triples,
    engine_indexed_ms,
    engine_naive_ms,
    validator_route_ms,
});
shapefrag_bench::impl_to_json!(CoverageStats {
    triples,
    authors,
    authors_within_d3,
    authors_within_d3_pct,
    fragment_triples,
    authorship_triples,
    fragment_share_pct,
});
shapefrag_bench::impl_to_json!(Fig3Results {
    rows,
    coverage_2016_2021
});

fn main() {
    let opts = ExpOptions::from_args();
    // Deliberately small defaults: the generated query materializes the
    // full Q_E relation (all path-connected pairs with their witnessing
    // edges), which grows multiplicatively with each co-author hop — the
    // very cost §5.3.2 diagnoses ("retrieving neighborhoods can be a
    // computationally intensive task"). Scale up with --scale to watch the
    // blow-up.
    let config = DblpConfig {
        first_year: 2010,
        last_year: 2021,
        papers_per_year: opts.scaled(24),
        new_authors_per_year: opts.scaled(13),
        seed: 0xF163,
        ..DblpConfig::default()
    };
    // Intermediate-binding budget for the generated queries (the paper's
    // engines page to disk; ours aborts and reports the slice as not
    // completed, mirroring the §5.3.2 "did not terminate" outcomes).
    let cap = opts.scaled(3_000_000);
    eprintln!("generating bibliography…");
    let bib = Bibliography::generate(&config);
    eprintln!("{} papers, {} authors", bib.papers.len(), bib.author_count);

    let schema = Schema::empty();
    let shape = vardi_shape(3);
    let mut rows = Vec::new();
    let stats_only = std::env::var("FIG3_STATS_ONLY").is_ok();

    // Slices going backwards in time: 2021, 2019, 2017, … 2011.
    for from_year in (2011..=2021).rev().step_by(2) {
        if stats_only {
            break;
        }
        let graph = bib.slice(from_year);
        let authorship = graph
            .triples_matching(None, Some(&authored_by()), None)
            .len();
        let authors = graph
            .nodes()
            .iter()
            .filter(|t| matches!(t, Term::Iri(i) if i.as_str().contains("/author/")))
            .count();

        // Reference: the instrumented-validator route (always completes).
        let (frag_native, t_native) = time_avg(opts.runs, || {
            fragment(&schema, &graph, std::slice::from_ref(&shape))
        });
        // Engine A: generated SPARQL on the indexed evaluator.
        let (frag_a, t_indexed) = time_avg(opts.runs, || {
            fragment_via_sparql(
                &schema,
                &graph,
                std::slice::from_ref(&shape),
                &EvalConfig::indexed()
                    .with_cap(cap)
                    .with_timeout(std::time::Duration::from_secs(240)),
            )
            .ok()
        });
        // Engine B: generated SPARQL on the naive evaluator.
        let (frag_b, t_naive) = time_avg(opts.runs.min(2), || {
            fragment_via_sparql(
                &schema,
                &graph,
                std::slice::from_ref(&shape),
                &EvalConfig::naive()
                    .with_cap(cap)
                    .with_timeout(std::time::Duration::from_secs(240)),
            )
            .ok()
        });
        if let (Some(a), Some(b)) = (&frag_a, &frag_b) {
            assert_eq!(a, b, "the two engines disagree");
        }
        if let Some(a) = &frag_a {
            assert_eq!(a, &frag_native, "SPARQL route disagrees with native");
        }
        let t_indexed = frag_a.as_ref().map(|_| ms(t_indexed));
        let t_naive = frag_b.as_ref().map(|_| ms(t_naive));

        // Conforming authors (distance ≤ 3).
        let mut ctx = Context::new(&schema, &graph);
        let nnf = Nnf::from_shape(&shape);
        let within = graph
            .node_ids()
            .into_iter()
            .filter(|&v| {
                matches!(graph.term(v), Term::Iri(i) if i.as_str().contains("/author/"))
                    && ctx.conforms_nnf(v, &nnf)
            })
            .count();

        eprintln!(
            "slice {from_year}–2021: {} triples, fragment {} triples",
            graph.len(),
            frag_native.len()
        );
        rows.push(SliceRow {
            from_year,
            triples: graph.len(),
            authors,
            authors_within_d3: within,
            fragment_triples: frag_native.len(),
            authorship_triples: authorship,
            engine_indexed_ms: t_indexed,
            engine_naive_ms: t_naive,
            validator_route_ms: ms(t_native),
        });
    }

    println!("\nFigure 3 — Vardi-distance-3 shape fragment over DBLP slices\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}–2021", r.from_year),
                r.triples.to_string(),
                r.engine_indexed_ms
                    .map_or("— (cap)".to_string(), |t| format!("{t:.0}ms")),
                r.engine_naive_ms
                    .map_or("— (cap)".to_string(), |t| format!("{t:.0}ms")),
                format!("{:.0}ms", r.validator_route_ms),
                format!(
                    "{} ({:.1}% of authors)",
                    r.authors_within_d3,
                    pct(r.authors_within_d3, r.authors)
                ),
                format!(
                    "{} ({:.1}% of authorships)",
                    r.fragment_triples,
                    pct(r.fragment_triples, r.authorship_triples)
                ),
            ]
        })
        .collect();
    print_table(
        &[
            "slice",
            "triples",
            "engine A (indexed)",
            "engine B (naive)",
            "validator route",
            "authors ≤ d3",
            "fragment",
        ],
        &table,
    );

    // Part B — the paper's headline coverage ratios are quoted for the
    // 2016–2021 slice of the *full* DBLP. The generated-query route cannot
    // reach a realistically sparse network size, so the ratios are computed
    // on a larger, sparser bibliography via the native route (which Part A
    // verified to agree with the SPARQL route wherever both complete).
    eprintln!("computing coverage statistics on the large sparse network…");
    let stats_config = DblpConfig {
        first_year: 2010,
        last_year: 2021,
        papers_per_year: opts.scaled(2100),
        new_authors_per_year: opts.scaled(2000),
        solo_ratio: 0.82,
        hub_rate: 0.003,
        seed: 0xF164,
    };
    let big = Bibliography::generate(&stats_config);
    let slice = big.slice(2016);
    let frag = fragment(&schema, &slice, std::slice::from_ref(&shape));
    let authorship = slice
        .triples_matching(None, Some(&authored_by()), None)
        .len();
    let mut ctx = Context::new(&schema, &slice);
    let nnf = Nnf::from_shape(&shape);
    let mut authors = 0usize;
    let mut within = 0usize;
    for v in slice.node_ids() {
        if matches!(slice.term(v), Term::Iri(i) if i.as_str().contains("/author/")) {
            authors += 1;
            if ctx.conforms_nnf(v, &nnf) {
                within += 1;
            }
        }
    }
    let coverage = CoverageStats {
        triples: slice.len(),
        authors,
        authors_within_d3: within,
        authors_within_d3_pct: pct(within, authors),
        fragment_triples: frag.len(),
        authorship_triples: authorship,
        fragment_share_pct: pct(frag.len(), authorship),
    };
    println!(
        "\ncoverage on the sparse 2016–2021 network ({} authorship triples, {} authors):",
        coverage.authorship_triples, coverage.authors
    );
    println!(
        "  {} authors within co-author distance 3 of the hub ({:.1}%)",
        coverage.authors_within_d3, coverage.authors_within_d3_pct
    );
    println!(
        "  fragment holds {} authorship triples ({:.1}%)",
        coverage.fragment_triples, coverage.fragment_share_pct
    );
    println!("paper reference: ≈7% of authors, ≈3% of dblp:authoredBy triples (2016–2021);\nsteeply growing, engine-comparable runtimes.");

    opts.write_json(
        "fig3_vardi",
        &Fig3Results {
            rows,
            coverage_2016_2021: coverage,
        },
    );
}

fn pct(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}
