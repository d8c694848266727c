//! Instrumented validation (§5.2): validation that also returns provenance.
//!
//! This is the Rust analogue of the paper's pySHACL-fragments: a validation
//! engine adapted so that, in the same pass that checks each target node,
//! it also extracts the node's neighborhood. The overhead experiment
//! (Figure 1) compares [`validate_extract_fragment`] against plain
//! [`shapefrag_shacl::validator::validate`].
//!
//! Two cost considerations shape the implementation:
//!
//! - The neighborhood of a request shape `φ ∧ τ` splits as
//!   `B(v, φ) ∪ B(v, τ)`. The target part is the same for every node of a
//!   target class, so the evidence for the standard SHACL target forms is
//!   **precomputed once per shape definition** (`TargetEvidence`) instead
//!   of being re-traced per node — mirroring how a validator resolves
//!   targets once.
//! - [`validate_extract_fragment`] accumulates the union fragment only
//!   (the §5.3.1 measurement); [`validate_with_provenance`] additionally
//!   materializes one neighborhood graph per (shape, node) pair for
//!   API consumers.
//!
//! [`validate_extract_fragment_governed`] is the driver behind
//! [`validate_extract_fragment`] and `shapefrag fragment`: one sequential
//! pass under one [`ExecCtx`], so target resolution, decisions and
//! collection all draw on the same budget.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use shapefrag_analyze::{shape_shares_work, Diagnostic, SimplifyLevel};
use shapefrag_govern::{EngineError, ExecCtx};
use shapefrag_rdf::{ntriples, Graph, GraphAccess, Term, TermId};
use shapefrag_shacl::path::PathExpr;
use shapefrag_shacl::validator::{ConformanceMemo, Context, ValidationReport, Violation};
use shapefrag_shacl::{Nnf, Schema, Shape};

use crate::fault_of;
use crate::neighborhood::{
    collect_neighborhood_many, conforms_and_collect, materialize, neighborhood_nnf_ids, IdTriples,
};

/// The fragment collected by [`validate_extract_fragment`], kept as interned
/// id triples (the cheap form an instrumented validator accumulates);
/// materialize with [`SchemaFragment::to_graph`].
#[derive(Debug, Clone)]
pub struct SchemaFragment {
    triples: IdTriples,
}

impl SchemaFragment {
    /// Number of collected triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True iff no triples were collected.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Materializes the fragment as a standalone [`Graph`] (`graph` must be
    /// the graph the fragment was extracted from).
    pub fn to_graph<G: GraphAccess>(&self, graph: &G) -> Graph {
        materialize(graph, &self.triples)
    }

    /// Writes the fragment as N-Triples straight from its id triples (the
    /// same bytes as `ntriples::serialize(&self.to_graph(graph))`; `graph`
    /// must be the graph the fragment was extracted from).
    pub fn to_ntriples<G: GraphAccess>(&self, graph: &G) -> String {
        ntriples::serialize_ids(graph, self.triples.iter().copied())
    }
}

/// The outcome of instrumented validation: the ordinary report, plus
/// per-(shape, focus node) neighborhoods, plus their union (the shape
/// fragment of the schema restricted to target nodes).
#[derive(Debug, Clone)]
pub struct ProvenancedReport {
    pub report: ValidationReport,
    /// `(shape name, focus node) → neighborhood` for every *conforming*
    /// target node.
    pub neighborhoods: BTreeMap<(Term, Term), Graph>,
    /// The union of all neighborhoods: `Frag(G, H)` when the graph
    /// conforms (target triples are included via the `φ ∧ τ` request
    /// shapes).
    pub fragment: Graph,
}

/// Precomputed `B(v, τ)` evidence for the standard SHACL target forms.
pub(crate) enum TargetEvidence {
    /// Node targets (`hasValue`): no triples.
    Empty,
    /// Subjects-of targets `≥1 p.⊤`: all outgoing `p`-triples of `v`.
    SubjectsOf(TermId),
    /// Objects-of targets `≥1 p⁻.⊤`: all incoming `p`-triples of `v`.
    ObjectsOf(TermId),
    /// Class targets `≥1 type/sub*.hasValue(C)`: the `(v, type, c)` edges
    /// into classes reaching `C`, plus each class's (shared, precomputed)
    /// subclass chain.
    Class {
        type_pid: TermId,
        chains: HashMap<TermId, Vec<(TermId, TermId, TermId)>>,
    },
    /// Anything else: fall back to the generic Table 2 machinery.
    Generic(Box<Nnf>),
}

impl TargetEvidence {
    pub(crate) fn analyze<G: GraphAccess>(
        ctx: &mut Context<'_, G>,
        target: &Shape,
    ) -> TargetEvidence {
        match target {
            Shape::HasValue(_) => TargetEvidence::Empty,
            Shape::Geq(1, path, inner) => match (path, inner.as_ref()) {
                (PathExpr::Prop(p), Shape::True) => match ctx.graph.id_of_iri(p) {
                    Some(pid) => TargetEvidence::SubjectsOf(pid),
                    None => TargetEvidence::Empty,
                },
                (PathExpr::Inverse(inv), Shape::True) => match inv.as_ref() {
                    PathExpr::Prop(p) => match ctx.graph.id_of_iri(p) {
                        Some(pid) => TargetEvidence::ObjectsOf(pid),
                        None => TargetEvidence::Empty,
                    },
                    _ => TargetEvidence::generic(target),
                },
                (PathExpr::Seq(first, rest), Shape::HasValue(c)) => {
                    let (PathExpr::Prop(type_p), PathExpr::ZeroOrMore(sub)) =
                        (first.as_ref(), rest.as_ref())
                    else {
                        return TargetEvidence::generic(target);
                    };
                    let PathExpr::Prop(sub_p) = sub.as_ref() else {
                        return TargetEvidence::generic(target);
                    };
                    let (Some(type_pid), Some(cid)) =
                        (ctx.graph.id_of_iri(type_p), ctx.graph.id_of(c))
                    else {
                        return TargetEvidence::Empty;
                    };
                    // All classes reaching C via sub*, each with its chain
                    // of subclass triples traced once.
                    let back = PathExpr::Prop(sub_p.clone()).inverse().star();
                    let classes = ctx.eval_path(&back, cid);
                    let sub_star = PathExpr::Prop(sub_p.clone()).star();
                    let mut chains = HashMap::new();
                    let target_set = BTreeSet::from([cid]);
                    for class in classes {
                        let chain: Vec<_> = ctx
                            .trace_path(&sub_star, &[class], Some(&target_set))
                            .into_iter()
                            .collect();
                        chains.insert(class, chain);
                    }
                    TargetEvidence::Class { type_pid, chains }
                }
                (PathExpr::Prop(type_p), Shape::HasValue(c)) => {
                    let (Some(type_pid), Some(cid)) =
                        (ctx.graph.id_of_iri(type_p), ctx.graph.id_of(c))
                    else {
                        return TargetEvidence::Empty;
                    };
                    TargetEvidence::Class {
                        type_pid,
                        chains: HashMap::from([(cid, Vec::new())]),
                    }
                }
                _ => TargetEvidence::generic(target),
            },
            _ => TargetEvidence::generic(target),
        }
    }

    fn generic(target: &Shape) -> TargetEvidence {
        TargetEvidence::Generic(Box::new(Nnf::from_shape(target)))
    }

    /// Appends `B(v, τ)` to `out`.
    pub(crate) fn collect<G: GraphAccess>(
        &self,
        ctx: &mut Context<'_, G>,
        v: TermId,
        out: &mut IdTriples,
    ) {
        match self {
            TargetEvidence::Empty => {}
            TargetEvidence::SubjectsOf(pid) => {
                let objs: Vec<TermId> = ctx.graph.objects_ids(v, *pid).collect();
                out.extend(objs.into_iter().map(|o| (v, *pid, o)));
            }
            TargetEvidence::ObjectsOf(pid) => {
                let subs: Vec<TermId> = ctx.graph.subjects_ids(v, *pid).collect();
                out.extend(subs.into_iter().map(|s| (s, *pid, v)));
            }
            TargetEvidence::Class { type_pid, chains } => {
                let types: Vec<TermId> = ctx.graph.objects_ids(v, *type_pid).collect();
                for c in types {
                    if let Some(chain) = chains.get(&c) {
                        out.insert((v, *type_pid, c));
                        out.extend(chain.iter().copied());
                    }
                }
            }
            TargetEvidence::Generic(nnf) => {
                out.extend(neighborhood_nnf_ids(ctx, v, nnf));
            }
        }
    }
}

/// Validates and, in the same pass, extracts the schema's shape fragment
/// `Frag(G, H)` (the union of `B(v, φ ∧ τ)` over all conforming target
/// nodes). This is the configuration the Figure 1 overhead experiment
/// measures against plain validation.
///
/// The unbounded run of [`validate_extract_fragment_governed`]. Produces
/// exactly the report and fragment of
/// [`validate_extract_fragment_per_node`].
pub fn validate_extract_fragment<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
) -> (ValidationReport, SchemaFragment) {
    validate_extract_fragment_governed(schema, graph, ExecCtx::unbounded())
        .expect("an unbounded context cannot fault")
}

/// Resource-governed [`validate_extract_fragment`]: the §5.2 instrumented
/// validator under a deadline / step / memory / depth / cancellation
/// governor. Per definition, it resolves the targets and their evidence
/// `B(v, τ)`, then routes the definition by [`shape_shares_work`]: a shape
/// that shares work is decided for all targets in one
/// [`Context::conforms_all_nnf`] batch over a shared memo and the
/// conforming nodes' neighborhoods are collected by the batched Table 2
/// collector; any other shape runs the single-pass per-node
/// [`conforms_and_collect`]. The report is identical to
/// [`shapefrag_shacl::validate_batch`]'s and the fragment to
/// [`crate::schema_fragment`]'s; the first resource fault is returned
/// instead of a truncated fragment.
pub fn validate_extract_fragment_governed<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    exec: ExecCtx,
) -> Result<(ValidationReport, SchemaFragment), EngineError> {
    let memo = Arc::new(ConformanceMemo::new());
    let mut ctx = Context::with_memo(schema, graph, memo).with_exec(exec);
    let mut report = ValidationReport::default();
    let mut all = IdTriples::default();
    let mut journal: Vec<(TermId, TermId, TermId)> = Vec::new();
    for def in schema.iter() {
        ctx.exec().check_now()?;
        let nnf = schema.def_nnf(&def.name, false);
        let targets: Vec<TermId> = ctx.target_nodes(&def.target).into_iter().collect();
        let evidence = TargetEvidence::analyze(&mut ctx, &def.target);
        fault_of(&mut ctx)?;
        report.checked += targets.len();
        let mut violation = |node: TermId| {
            report.violations.push(Violation {
                shape: def.name.clone(),
                focus: graph.term(node).clone(),
            })
        };
        if shape_shares_work(schema, nnf) {
            let decisions = ctx.conforms_all_nnf(&targets, nnf);
            let mut conforming: Vec<TermId> = Vec::with_capacity(targets.len());
            for (&node, ok) in targets.iter().zip(decisions) {
                if ok {
                    conforming.push(node);
                    evidence.collect(&mut ctx, node, &mut all);
                } else {
                    violation(node);
                }
            }
            collect_neighborhood_many(&mut ctx, &conforming, nnf, &mut all);
        } else {
            for &node in &targets {
                journal.clear();
                if conforms_and_collect(&mut ctx, node, nnf, &mut journal) {
                    all.extend(journal.iter().copied());
                    evidence.collect(&mut ctx, node, &mut all);
                } else {
                    violation(node);
                }
            }
        }
        fault_of(&mut ctx)?;
    }
    Ok((report, SchemaFragment { triples: all }))
}

/// Like [`validate_extract_fragment`], but first runs the static
/// analyzer's fragment-level simplification over the schema
/// ([`shapefrag_analyze::simplify`]) and validates the simplified schema.
/// The rewrites are semantics-preserving for both the report and the
/// extracted fragment (the fragment-level polarity gates only apply
/// rewrites that cannot change any collected neighborhood), so the result
/// agrees with [`validate_extract_fragment`] on the original schema. The
/// diagnostics gathered during simplification are returned alongside.
pub fn validate_extract_fragment_simplified<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
) -> (ValidationReport, SchemaFragment, Vec<Diagnostic>) {
    let (simplified, diags) = shapefrag_analyze::simplify(schema, SimplifyLevel::Fragment);
    let (report, fragment) = validate_extract_fragment(&simplified, graph);
    (report, fragment, diags)
}

/// The per-node reference implementation of [`validate_extract_fragment`]:
/// one instrumented [`conforms_and_collect`] traversal per (definition,
/// target) pair. Kept as the baseline for the batch-vs-per-node benchmark
/// and the agreement property tests.
pub fn validate_extract_fragment_per_node<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
) -> (ValidationReport, SchemaFragment) {
    let mut ctx = Context::new(schema, graph);
    let mut report = ValidationReport::default();
    let mut all = IdTriples::default();
    let mut journal: Vec<(TermId, TermId, TermId)> = Vec::new();
    for def in schema.iter() {
        let shape_nnf = schema.def_nnf(&def.name, false);
        let targets = ctx.target_nodes(&def.target);
        let evidence = TargetEvidence::analyze(&mut ctx, &def.target);
        for node in targets {
            report.checked += 1;
            journal.clear();
            if conforms_and_collect(&mut ctx, node, shape_nnf, &mut journal) {
                all.extend(journal.iter().copied());
                evidence.collect(&mut ctx, node, &mut all);
            } else {
                report.violations.push(Violation {
                    shape: def.name.clone(),
                    focus: graph.term(node).clone(),
                });
            }
        }
    }
    (report, SchemaFragment { triples: all })
}

/// Validates and simultaneously extracts per-node provenance (the
/// neighborhood of `φ ∧ τ` for every conforming target node) plus the
/// union fragment.
pub fn validate_with_provenance<G: GraphAccess>(schema: &Schema, graph: &G) -> ProvenancedReport {
    let mut ctx = Context::new(schema, graph);
    let mut report = ValidationReport::default();
    let mut neighborhoods = BTreeMap::new();
    let mut all = IdTriples::default();
    for def in schema.iter() {
        let shape_nnf = schema.def_nnf(&def.name, false);
        let targets = ctx.target_nodes(&def.target);
        let evidence = TargetEvidence::analyze(&mut ctx, &def.target);
        for node in targets {
            report.checked += 1;
            if ctx.conforms_nnf(node, shape_nnf) {
                let mut ids = neighborhood_nnf_ids(&mut ctx, node, shape_nnf);
                evidence.collect(&mut ctx, node, &mut ids);
                all.extend(ids.iter().copied());
                neighborhoods.insert(
                    (def.name.clone(), graph.term(node).clone()),
                    materialize(graph, &ids),
                );
            } else {
                report.violations.push(Violation {
                    shape: def.name.clone(),
                    focus: graph.term(node).clone(),
                });
            }
        }
    }
    ProvenancedReport {
        report,
        neighborhoods,
        fragment: materialize(graph, &all),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::schema_fragment;
    use shapefrag_rdf::{Iri, Triple};
    use shapefrag_shacl::validator::validate;
    use shapefrag_shacl::ShapeDef;

    fn iri(n: &str) -> Iri {
        Iri::new(format!("http://e/{n}"))
    }

    fn term(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(term(s), iri(p), term(o))
    }

    fn p(n: &str) -> PathExpr {
        PathExpr::Prop(iri(n))
    }

    fn workshop_schema() -> Schema {
        Schema::new([ShapeDef::new(
            term("WorkshopShape"),
            Shape::geq(
                1,
                p("author"),
                Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::geq(1, p("type"), Shape::has_value(term("Paper"))),
        )])
        .unwrap()
    }

    #[test]
    fn report_matches_plain_validation() {
        let schema = workshop_schema();
        let g = Graph::from_triples([
            t("p1", "type", "Paper"),
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("p2", "type", "Paper"),
            t("p2", "author", "bob"),
        ]);
        let plain = validate(&schema, &g);
        let instrumented = validate_with_provenance(&schema, &g);
        assert_eq!(plain, instrumented.report);
        assert_eq!(instrumented.report.violations.len(), 1);
        let (fast_report, fast_fragment) = validate_extract_fragment(&schema, &g);
        assert_eq!(plain, fast_report);
        assert_eq!(fast_fragment.to_graph(&g), instrumented.fragment);
    }

    #[test]
    fn per_node_neighborhoods_recorded() {
        let schema = workshop_schema();
        let g = Graph::from_triples([
            t("p1", "type", "Paper"),
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
        ]);
        let out = validate_with_provenance(&schema, &g);
        let key = (term("WorkshopShape"), term("p1"));
        let b = out.neighborhoods.get(&key).expect("neighborhood recorded");
        assert_eq!(b.len(), 3); // target triple + author + student-type
        assert!(b.contains(&t("p1", "type", "Paper")));
    }

    #[test]
    fn fragment_matches_schema_fragment_on_conforming_graph() {
        let schema = workshop_schema();
        let g = Graph::from_triples([
            t("p1", "type", "Paper"),
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("noise", "x", "y"),
        ]);
        let out = validate_with_provenance(&schema, &g);
        assert!(out.report.conforms());
        assert_eq!(out.fragment, schema_fragment(&schema, &g));
        let (_, fast) = validate_extract_fragment(&schema, &g);
        assert_eq!(fast.to_graph(&g), out.fragment);
    }

    #[test]
    fn class_target_evidence_includes_subclass_chains() {
        // Target class Publication, instance typed via a subclass chain:
        // the evidence must include the chain triples (they are part of
        // B(v, ≥1 type/sub*.hasValue(Publication))).
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::True,
            Shape::geq(
                1,
                p("type").then(p("sub").star()),
                Shape::has_value(term("Publication")),
            ),
        )])
        .unwrap();
        let g = Graph::from_triples([
            t("x", "type", "Paper"),
            t("Paper", "sub", "Publication"),
            t("unrelated", "type", "Venue"),
        ]);
        let (report, fragment) = validate_extract_fragment(&schema, &g);
        assert!(report.conforms());
        let fragment = fragment.to_graph(&g);
        assert_eq!(fragment, schema_fragment(&schema, &g));
        assert!(fragment.contains(&t("x", "type", "Paper")));
        assert!(fragment.contains(&t("Paper", "sub", "Publication")));
        assert!(!fragment.contains(&t("unrelated", "type", "Venue")));
    }

    #[test]
    fn subjects_and_objects_of_targets_fast_paths() {
        for target in [
            Shape::geq(1, p("q"), Shape::True),
            Shape::geq(1, p("q").inverse(), Shape::True),
            Shape::has_value(term("a")),
        ] {
            let schema = Schema::new([ShapeDef::new(term("S"), Shape::True, target)]).unwrap();
            let g = Graph::from_triples([t("a", "q", "b"), t("a", "q", "c"), t("z", "r", "a")]);
            let (_, fast) = validate_extract_fragment(&schema, &g);
            assert_eq!(fast.to_graph(&g), schema_fragment(&schema, &g));
        }
    }

    #[test]
    fn generic_target_fallback_agrees() {
        // An unusual target form (∀-based) exercises the generic path.
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("q"), Shape::True),
            Shape::geq(2, p("q"), Shape::True),
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "q", "b"), t("a", "q", "c"), t("d", "q", "e")]);
        let (_, fast) = validate_extract_fragment(&schema, &g);
        assert_eq!(fast.to_graph(&g), schema_fragment(&schema, &g));
    }

    #[test]
    fn governed_extraction_surfaces_faults_instead_of_partial_fragments() {
        use shapefrag_govern::{Budget, CancelToken};

        let schema = workshop_schema();
        let mut triples = Vec::new();
        for i in 0..50 {
            triples.push(t(&format!("p{i}"), "type", "Paper"));
            triples.push(t(&format!("p{i}"), "author", &format!("a{i}")));
            triples.push(t(&format!("a{i}"), "type", "Student"));
        }
        let g = Graph::from_triples(triples).freeze();
        let tiny = ExecCtx::with_budget(Budget::unlimited().steps(5));
        assert!(matches!(
            validate_extract_fragment_governed(&schema, &g, tiny),
            Err(EngineError::BudgetExceeded { .. })
        ));
        let token = CancelToken::new();
        token.cancel();
        let cancelled = ExecCtx::unbounded().with_cancel(&token);
        assert_eq!(
            validate_extract_fragment_governed(&schema, &g, cancelled).unwrap_err(),
            EngineError::Cancelled
        );
        let (report, fragment) = validate_extract_fragment(&schema, &g);
        assert_eq!(report, validate(&schema, &g));
        assert_eq!(fragment.to_graph(&g), schema_fragment(&schema, &g));
    }

    #[test]
    fn empty_schema_and_empty_graph_are_fine() {
        let g = Graph::default().freeze();
        let (report, fragment) = validate_extract_fragment(&Schema::empty(), &g);
        assert!(report.conforms());
        assert_eq!(report.checked, 0);
        assert!(fragment.is_empty());
    }

    #[test]
    fn violating_nodes_get_no_neighborhood() {
        let schema = workshop_schema();
        let g = Graph::from_triples([t("p2", "type", "Paper"), t("p2", "author", "bob")]);
        let out = validate_with_provenance(&schema, &g);
        assert!(!out.report.conforms());
        assert!(out.neighborhoods.is_empty());
        assert!(out.fragment.is_empty());
    }
}
