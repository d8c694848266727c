//! Subgraph retrieval with shape fragments: the paper's Vardi experiment in
//! miniature (§5.3.2). Generates a synthetic co-authorship network, then
//! retrieves — as one shape fragment — every author within co-author
//! distance 3 of the hub *plus all authorship triples on the connecting
//! paths*, and serializes the fragment as N-Triples.
//!
//! ```bash
//! cargo run --release --example coauthor_fragment
//! ```

use shape_fragments::core::fragment;
use shape_fragments::rdf::ntriples;
use shape_fragments::rdf::GraphAccess;
use shape_fragments::shacl::validator::Context;
use shape_fragments::shacl::{Nnf, Schema};
use shape_fragments::workloads::dblp::{
    authored_by, hub_author, vardi_shape, Bibliography, DblpConfig,
};

fn main() {
    let config = DblpConfig {
        first_year: 2016,
        last_year: 2021,
        papers_per_year: 400,
        new_authors_per_year: 150,
        seed: 42,
        ..DblpConfig::default()
    };
    let bib = Bibliography::generate(&config);
    let graph = bib.full_graph();
    println!(
        "co-authorship network: {} papers, {} authors, {} triples",
        bib.papers.len(),
        bib.author_count,
        graph.len()
    );

    let shape = vardi_shape(3);
    println!("\nrequest shape: {shape}\n");

    let schema = Schema::empty();
    let frag = fragment(&schema, &graph, std::slice::from_ref(&shape));

    // Count conforming authors (distance ≤ 3 from the hub).
    let mut ctx = Context::new(&schema, &graph);
    let nnf = Nnf::from_shape(&shape);
    let within: usize = graph
        .node_ids()
        .into_iter()
        .filter(|&v| {
            matches!(graph.term(v), shape_fragments::rdf::Term::Iri(i)
                if i.as_str().contains("/author/"))
                && ctx.conforms_nnf(v, &nnf)
        })
        .count();
    let authorships = graph
        .triples_matching(None, Some(&authored_by()), None)
        .len();

    println!(
        "{} authors within co-author distance 3 of {} ({:.1}% of all authors)",
        within,
        hub_author(),
        within as f64 / bib.author_count as f64 * 100.0
    );
    println!(
        "fragment: {} of {} authorship triples ({:.1}%)",
        frag.len(),
        authorships,
        frag.len() as f64 / authorships as f64 * 100.0
    );

    let out = ntriples::serialize(&frag);
    let path = std::env::temp_dir().join("vardi_fragment.nt");
    std::fs::write(&path, &out).expect("write fragment");
    println!(
        "\nfragment written to {} ({} bytes)",
        path.display(),
        out.len()
    );

    // The fragment round-trips through the serializer.
    let reloaded = ntriples::parse(&out).expect("fragment reparses");
    assert_eq!(reloaded, frag);
    println!("round trip through N-Triples: ok");
}
