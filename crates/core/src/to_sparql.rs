//! Translation of neighborhoods and shape fragments to SPARQL (§5.1).
//!
//! Three query families are generated:
//!
//! - [`path_query`] — Lemma 5.1: `Q_E(?t, ?s, ?p, ?o, ?h)` binds `(?t, ?h)`
//!   to `⟦E⟧^G` (restricted to `N(G)`) and `(?s, ?p, ?o)` to the triples of
//!   `graph(paths(E, G, ?t, ?h))` (unbound on identity rows).
//! - [`conformance_query`] — the auxiliary `CQ_φ(?v)` returning all nodes of
//!   `N(G)` conforming to φ. Counting quantifiers are expanded into n-fold
//!   joins with pairwise-distinctness filters; `≤`/`∀` use `MINUS`.
//! - [`neighborhood_query`] — Proposition 5.3: `Q_φ(?v, ?s, ?p, ?o)` with
//!   `(s, p, o) ∈ B(v, G, φ)`, following the case table of Appendix C.1.
//!
//! [`fragment_query`] (Corollary 5.5) unions the neighborhood queries of a
//! request-shape set into a single `Q_S(?s, ?p, ?o)`.
//!
//! The generated queries are deliberately *faithful* to the paper's
//! construction — they nest sub-selects per case and can grow to hundreds
//! of lines when printed, which is exactly the workload stress the Figure 2
//! experiment measures.

use shapefrag_rdf::{Graph, Iri, Literal, Term};
use shapefrag_shacl::node_test::{NodeKind, NodeTest};
use shapefrag_shacl::shape::PathOrId;
use shapefrag_shacl::{Nnf, PathExpr, Schema, Shape};
use shapefrag_sparql::algebra::{Expr, Pattern, Projection, Select, TriplePattern, VarOrTerm};
use shapefrag_sparql::eval::{bindings_to_graph, eval_select, EvalConfig, ResourceExhausted};

/// `Q_E(?t, ?s, ?p, ?o, ?h)` for a path expression (Lemma 5.1).
pub fn path_query(path: &PathExpr) -> Select {
    Translator::new(&Schema::empty()).q_path(path)
}

/// `CQ_φ(?v)`: the conforming nodes of a shape, as a SPARQL query.
pub fn conformance_query(schema: &Schema, shape: &Shape) -> Select {
    let nnf = Nnf::from_shape(shape);
    Translator::new(schema).cq(&nnf)
}

/// `Q_φ(?v, ?s, ?p, ?o)`: the neighborhood query (Proposition 5.3).
pub fn neighborhood_query(schema: &Schema, shape: &Shape) -> Select {
    let nnf = Nnf::from_shape(shape);
    Translator::new(schema).nq(&nnf)
}

/// `Q_S(?s, ?p, ?o)`: the shape-fragment query (Corollary 5.5).
pub fn fragment_query(schema: &Schema, shapes: &[Shape]) -> Select {
    let mut tr = Translator::new(schema);
    let mut branches: Vec<Pattern> = Vec::new();
    for shape in shapes {
        let nnf = Nnf::from_shape(shape);
        branches.push(Pattern::SubSelect(Box::new(tr.nq(&nnf))));
    }
    let pattern = union_all(branches);
    Select {
        distinct: true,
        projection: Some(vec![
            Projection::Var("s".into()),
            Projection::Var("p".into()),
            Projection::Var("o".into()),
        ]),
        pattern,
    }
}

/// Computes `Frag(G, S)` by generating and evaluating the fragment query.
pub fn fragment_via_sparql(
    schema: &Schema,
    graph: &Graph,
    shapes: &[Shape],
    config: &EvalConfig,
) -> Result<Graph, ResourceExhausted> {
    let query = fragment_query(schema, shapes);
    let solutions = eval_select(graph, &query, config)?;
    Ok(bindings_to_graph(&solutions, "s", "p", "o"))
}

/// Computes `B(v, G, φ)` for every conforming `v` by evaluating `Q_φ`; the
/// result maps nodes to neighborhoods (nodes with empty neighborhoods that
/// still conform appear in `CQ_φ` but contribute no rows with bound
/// `?s ?p ?o`, matching Definition 3.2 up to the empty graph).
pub fn neighborhoods_via_sparql(
    schema: &Schema,
    graph: &Graph,
    shape: &Shape,
    config: &EvalConfig,
) -> Result<Vec<(Term, Graph)>, ResourceExhausted> {
    let query = neighborhood_query(schema, shape);
    let solutions = eval_select(graph, &query, config)?;
    let mut by_node: std::collections::BTreeMap<Term, Graph> = std::collections::BTreeMap::new();
    for b in &solutions {
        let Some(v) = b.get("v") else { continue };
        let entry = by_node.entry(v.clone()).or_default();
        let (Some(s), Some(Term::Iri(p)), Some(o)) = (b.get("s"), b.get("p"), b.get("o")) else {
            continue;
        };
        if s.is_literal() {
            continue;
        }
        entry.insert(shapefrag_rdf::Triple::new(s.clone(), p.clone(), o.clone()));
    }
    Ok(by_node.into_iter().collect())
}

// ---------------------------------------------------------------------------

struct Translator<'s> {
    schema: &'s Schema,
    counter: u32,
}

fn var(name: &str) -> VarOrTerm {
    VarOrTerm::Var(name.to_string())
}

fn proj_var(name: &str) -> Projection {
    Projection::Var(name.to_string())
}

fn rename(from: &str, to: &str) -> Projection {
    Projection::Rename(from.to_string(), to.to_string())
}

fn sel(projection: Vec<Projection>, pattern: Pattern) -> Select {
    Select {
        distinct: false,
        projection: Some(projection),
        pattern,
    }
}

fn sel_distinct(projection: Vec<Projection>, pattern: Pattern) -> Select {
    Select {
        distinct: true,
        projection: Some(projection),
        pattern,
    }
}

fn sub(select: Select) -> Pattern {
    Pattern::SubSelect(Box::new(select))
}

fn union_all(mut branches: Vec<Pattern>) -> Pattern {
    match branches.len() {
        0 => Pattern::Filter(Box::new(Pattern::Unit), false_expr()),
        1 => branches.pop().unwrap(),
        _ => {
            let mut it = branches.into_iter();
            let first = it.next().unwrap();
            it.fold(first, |acc, b| Pattern::Union(Box::new(acc), Box::new(b)))
        }
    }
}

fn join_all(mut parts: Vec<Pattern>) -> Pattern {
    match parts.len() {
        0 => Pattern::Unit,
        1 => parts.pop().unwrap(),
        _ => {
            let mut it = parts.into_iter();
            let first = it.next().unwrap();
            it.fold(first, |acc, b| Pattern::Join(Box::new(acc), Box::new(b)))
        }
    }
}

fn false_expr() -> Expr {
    Expr::Const(Term::Literal(Literal::boolean(false)))
}

fn true_expr() -> Expr {
    Expr::Const(Term::Literal(Literal::boolean(true)))
}

/// The comparison operator of a property-pair shape.
#[derive(Debug, Clone, Copy)]
enum CmpKind {
    Lt,
    Le,
    Gt,
    Ge,
}

/// "`x OP y` does *not* hold", robust to incomparable values:
/// `COALESCE(!(x OP y), true)`.
fn not_cmp(x: Expr, y: Expr, kind: CmpKind) -> Expr {
    let (x, y) = (Box::new(x), Box::new(y));
    let cmp = match kind {
        CmpKind::Lt => Expr::Lt(x, y),
        CmpKind::Le => Expr::Le(x, y),
        CmpKind::Gt => Expr::Gt(x, y),
        CmpKind::Ge => Expr::Ge(x, y),
    };
    Expr::Coalesce(vec![cmp.not(), true_expr()])
}

impl<'s> Translator<'s> {
    fn new(schema: &'s Schema) -> Self {
        Translator { schema, counter: 0 }
    }

    fn fresh(&mut self, base: &str) -> String {
        self.counter += 1;
        format!("{base}_{}", self.counter)
    }

    /// The pattern enumerating all nodes `N(G)` into `?{v}`.
    fn all_nodes(&mut self, v: &str) -> Pattern {
        let (a, b, c, d) = (
            self.fresh("np"),
            self.fresh("no"),
            self.fresh("ns"),
            self.fresh("np"),
        );
        let out_subj = Pattern::Bgp(vec![TriplePattern::new(var(v), var(&a), var(&b))]);
        let out_obj = Pattern::Bgp(vec![TriplePattern::new(var(&c), var(&d), var(v))]);
        sub(sel_distinct(
            vec![proj_var(v)],
            Pattern::Union(Box::new(out_subj), Box::new(out_obj)),
        ))
    }

    // --- Lemma 5.1: Q_E -------------------------------------------------

    /// `Q_E(?t, ?s, ?p, ?o, ?h)`.
    fn q_path(&mut self, path: &PathExpr) -> Select {
        let out = vec![
            proj_var("t"),
            proj_var("s"),
            proj_var("p"),
            proj_var("o"),
            proj_var("h"),
        ];
        match path {
            PathExpr::Prop(p) => sel(
                vec![
                    rename("s", "t"),
                    proj_var("s"),
                    Projection::Const(Term::Iri(p.clone()), "p".into()),
                    proj_var("o"),
                    rename("o", "h"),
                ],
                Pattern::Bgp(vec![TriplePattern::new(
                    var("s"),
                    VarOrTerm::Term(Term::Iri(p.clone())),
                    var("o"),
                )]),
            ),
            // Remark 6.3 extension: any property outside the excluded set.
            PathExpr::NegProp(excluded) => {
                let scan = Pattern::Bgp(vec![TriplePattern::new(var("s"), var("p"), var("o"))]);
                let pattern = if excluded.is_empty() {
                    scan
                } else {
                    scan.filter(Expr::In(
                        Box::new(Expr::var("p")),
                        excluded.iter().map(|p| Term::Iri(p.clone())).collect(),
                        true,
                    ))
                };
                sel(
                    vec![
                        rename("s", "t"),
                        proj_var("s"),
                        proj_var("p"),
                        proj_var("o"),
                        rename("o", "h"),
                    ],
                    pattern,
                )
            }
            PathExpr::Inverse(inner) => {
                let q1 = self.q_path(inner);
                sel(
                    vec![
                        rename("h", "t"),
                        proj_var("s"),
                        proj_var("p"),
                        proj_var("o"),
                        rename("t", "h"),
                    ],
                    sub(q1),
                )
            }
            PathExpr::Alt(e1, e2) => {
                let q1 = self.q_path(e1);
                let q2 = self.q_path(e2);
                sel(out, Pattern::Union(Box::new(sub(q1)), Box::new(sub(q2))))
            }
            PathExpr::ZeroOrOne(inner) => {
                let q1 = self.q_path(inner);
                let identity = self.identity_rows();
                sel(out, Pattern::Union(Box::new(sub(q1)), Box::new(identity)))
            }
            PathExpr::Seq(e1, e2) => {
                let m = self.fresh("m");
                let q1 = self.q_path(e1);
                let q2 = self.q_path(e2);
                // Edge inside the E1 part: Q_E1 rows whose head ?m reaches
                // ?h via E2.
                let part1 = Pattern::Join(
                    Box::new(sub(sel(
                        vec![
                            proj_var("t"),
                            proj_var("s"),
                            proj_var("p"),
                            proj_var("o"),
                            rename("h", &m),
                        ],
                        sub(q1),
                    ))),
                    Box::new(Pattern::Path {
                        subject: var(&m),
                        path: (**e2).clone(),
                        object: var("h"),
                    }),
                );
                // Edge inside the E2 part.
                let part2 = Pattern::Join(
                    Box::new(Pattern::Path {
                        subject: var("t"),
                        path: (**e1).clone(),
                        object: var(&m),
                    }),
                    Box::new(sub(sel(
                        vec![
                            rename("t", &m),
                            proj_var("s"),
                            proj_var("p"),
                            proj_var("o"),
                            proj_var("h"),
                        ],
                        sub(q2),
                    ))),
                );
                sel(out, Pattern::Union(Box::new(part1), Box::new(part2)))
            }
            PathExpr::ZeroOrMore(inner) => {
                let (x1, x2) = (self.fresh("x"), self.fresh("x"));
                let q1 = self.q_path(inner);
                let star: PathExpr = (**inner).clone().star();
                // An E1-edge (x1 → x2) with ?t →* x1 and x2 →* ?h.
                let edge = join_all(vec![
                    Pattern::Path {
                        subject: var("t"),
                        path: star.clone(),
                        object: var(&x1),
                    },
                    sub(sel(
                        vec![
                            rename("t", &x1),
                            proj_var("s"),
                            proj_var("p"),
                            proj_var("o"),
                            rename("h", &x2),
                        ],
                        sub(q1),
                    )),
                    Pattern::Path {
                        subject: var(&x2),
                        path: star,
                        object: var("h"),
                    },
                ]);
                let identity = self.identity_rows();
                sel(out, Pattern::Union(Box::new(edge), Box::new(identity)))
            }
        }
    }

    /// `(?v AS ?t) (?v AS ?h)` over all nodes — the identity rows of
    /// nullable paths (with `?s ?p ?o` unbound).
    fn identity_rows(&mut self) -> Pattern {
        let v = self.fresh("v");
        let nodes = self.all_nodes(&v);
        sub(sel(vec![rename(&v, "t"), rename(&v, "h")], nodes))
    }

    // --- CQ_φ -----------------------------------------------------------

    /// `CQ_φ(?v)`: all `v ∈ N(G)` with `H, G, v ⊨ φ`.
    fn cq(&mut self, shape: &Nnf) -> Select {
        let pattern = self.cq_pattern(shape);
        sel_distinct(vec![proj_var("v")], pattern)
    }

    /// The conforming-node set of `shape`, renamed to bind `?{out}`.
    fn cq_as(&mut self, shape: &Nnf, out: &str) -> Pattern {
        let q = self.cq(shape);
        if out == "v" {
            sub(q)
        } else {
            sub(sel(vec![rename("v", out)], sub(q)))
        }
    }

    fn cq_pattern(&mut self, shape: &Nnf) -> Pattern {
        match shape {
            Nnf::True => self.all_nodes("v"),
            Nnf::False => Pattern::Filter(Box::new(Pattern::Unit), false_expr()),
            Nnf::HasShape(name) => {
                let def = Nnf::from_shape(&self.schema.def(name));
                self.cq_pattern(&def)
            }
            Nnf::NotHasShape(name) => {
                let def = Nnf::from_negated_shape(&self.schema.def(name));
                self.cq_pattern(&def)
            }
            Nnf::Test(t) => {
                let nodes = self.all_nodes("v");
                nodes.filter(test_expr(t, "v"))
            }
            Nnf::NotTest(t) => {
                let nodes = self.all_nodes("v");
                // Errors count as "test not satisfied".
                nodes.filter(Expr::Coalesce(vec![test_expr(t, "v").not(), true_expr()]))
            }
            Nnf::HasValue(c) => {
                let nodes = self.all_nodes("v");
                nodes.filter(Expr::SameTerm(
                    Box::new(Expr::var("v")),
                    Box::new(Expr::Const(c.clone())),
                ))
            }
            Nnf::NotHasValue(c) => {
                let nodes = self.all_nodes("v");
                nodes.filter(
                    Expr::SameTerm(Box::new(Expr::var("v")), Box::new(Expr::Const(c.clone())))
                        .not(),
                )
            }
            Nnf::And(items) => {
                if items.is_empty() {
                    return self.all_nodes("v");
                }
                let parts: Vec<Pattern> = items.iter().map(|i| self.cq_as(i, "v")).collect();
                join_all(parts)
            }
            Nnf::Or(items) => {
                let parts: Vec<Pattern> = items.iter().map(|i| self.cq_as(i, "v")).collect();
                union_all(parts)
            }
            Nnf::Geq(n, e, inner) => self.cq_geq(*n, e, inner),
            Nnf::Leq(n, e, inner) => {
                let nodes = self.all_nodes("v");
                let too_many = self.cq_geq(n + 1, e, inner);
                Pattern::Minus(
                    Box::new(nodes),
                    Box::new(sub(sel_distinct(vec![proj_var("v")], too_many))),
                )
            }
            Nnf::ForAll(e, inner) => {
                let nodes = self.all_nodes("v");
                let x = self.fresh("x");
                let negated = inner.negated();
                let witness = Pattern::Join(
                    Box::new(Pattern::Path {
                        subject: var("v"),
                        path: e.clone(),
                        object: var(&x),
                    }),
                    Box::new(self.cq_as(&negated, &x)),
                );
                Pattern::Minus(
                    Box::new(nodes),
                    Box::new(sub(sel_distinct(vec![proj_var("v")], witness))),
                )
            }
            Nnf::Eq(PathOrId::Path(e), p) => {
                let x = self.fresh("x");
                let nodes = self.all_nodes("v");
                let e_not_p = Pattern::Minus(
                    Box::new(Pattern::Path {
                        subject: var("v"),
                        path: e.clone(),
                        object: var(&x),
                    }),
                    Box::new(prop_bgp("v", p, &x)),
                );
                let p_not_e = Pattern::Minus(
                    Box::new(prop_bgp("v", p, &x)),
                    Box::new(Pattern::Path {
                        subject: var("v"),
                        path: e.clone(),
                        object: var(&x),
                    }),
                );
                Pattern::Minus(
                    Box::new(Pattern::Minus(
                        Box::new(nodes),
                        Box::new(sub(sel_distinct(vec![proj_var("v")], e_not_p))),
                    )),
                    Box::new(sub(sel_distinct(vec![proj_var("v")], p_not_e))),
                )
            }
            Nnf::NotEq(PathOrId::Path(e), p) => {
                let x = self.fresh("x");
                let e_not_p = Pattern::Minus(
                    Box::new(Pattern::Path {
                        subject: var("v"),
                        path: e.clone(),
                        object: var(&x),
                    }),
                    Box::new(prop_bgp("v", p, &x)),
                );
                let p_not_e = Pattern::Minus(
                    Box::new(prop_bgp("v", p, &x)),
                    Box::new(Pattern::Path {
                        subject: var("v"),
                        path: e.clone(),
                        object: var(&x),
                    }),
                );
                union_all(vec![
                    sub(sel_distinct(vec![proj_var("v")], e_not_p)),
                    sub(sel_distinct(vec![proj_var("v")], p_not_e)),
                ])
            }
            Nnf::Eq(PathOrId::Id, p) => {
                let x = self.fresh("x");
                let has_loop = self_loop_bgp("v", p);
                let other = Pattern::Filter(
                    Box::new(prop_bgp("v", p, &x)),
                    Expr::SameTerm(Box::new(Expr::var(&x)), Box::new(Expr::var("v"))).not(),
                );
                Pattern::Minus(
                    Box::new(has_loop),
                    Box::new(sub(sel_distinct(vec![proj_var("v")], other))),
                )
            }
            Nnf::NotEq(PathOrId::Id, p) => {
                let nodes = self.all_nodes("v");
                let ok = self.cq_pattern(&Nnf::Eq(PathOrId::Id, p.clone()));
                Pattern::Minus(
                    Box::new(nodes),
                    Box::new(sub(sel_distinct(vec![proj_var("v")], ok))),
                )
            }
            Nnf::Disj(PathOrId::Path(e), p) => {
                let x = self.fresh("x");
                let nodes = self.all_nodes("v");
                let common = Pattern::Join(
                    Box::new(Pattern::Path {
                        subject: var("v"),
                        path: e.clone(),
                        object: var(&x),
                    }),
                    Box::new(prop_bgp("v", p, &x)),
                );
                Pattern::Minus(
                    Box::new(nodes),
                    Box::new(sub(sel_distinct(vec![proj_var("v")], common))),
                )
            }
            Nnf::NotDisj(PathOrId::Path(e), p) => {
                let x = self.fresh("x");
                let common = Pattern::Join(
                    Box::new(Pattern::Path {
                        subject: var("v"),
                        path: e.clone(),
                        object: var(&x),
                    }),
                    Box::new(prop_bgp("v", p, &x)),
                );
                sub(sel_distinct(vec![proj_var("v")], common))
            }
            Nnf::Disj(PathOrId::Id, p) => {
                let nodes = self.all_nodes("v");
                Pattern::Minus(
                    Box::new(nodes),
                    Box::new(sub(sel_distinct(
                        vec![proj_var("v")],
                        self_loop_bgp("v", p),
                    ))),
                )
            }
            Nnf::NotDisj(PathOrId::Id, p) => {
                sub(sel_distinct(vec![proj_var("v")], self_loop_bgp("v", p)))
            }
            Nnf::Closed(allowed) => {
                let nodes = self.all_nodes("v");
                let viol = self.closed_violation(allowed);
                Pattern::Minus(
                    Box::new(nodes),
                    Box::new(sub(sel_distinct(vec![proj_var("v")], viol))),
                )
            }
            Nnf::NotClosed(allowed) => {
                let viol = self.closed_violation(allowed);
                sub(sel_distinct(vec![proj_var("v")], viol))
            }
            Nnf::LessThan(e, p) => {
                let nodes = self.all_nodes("v");
                let viol = self.less_violation(e, p, false);
                Pattern::Minus(
                    Box::new(nodes),
                    Box::new(sub(sel_distinct(vec![proj_var("v")], viol))),
                )
            }
            Nnf::NotLessThan(e, p) => {
                let viol = self.less_violation(e, p, false);
                sub(sel_distinct(vec![proj_var("v")], viol))
            }
            Nnf::LessThanEq(e, p) => {
                let nodes = self.all_nodes("v");
                let viol = self.less_violation(e, p, true);
                Pattern::Minus(
                    Box::new(nodes),
                    Box::new(sub(sel_distinct(vec![proj_var("v")], viol))),
                )
            }
            Nnf::NotLessThanEq(e, p) => {
                let viol = self.less_violation(e, p, true);
                sub(sel_distinct(vec![proj_var("v")], viol))
            }
            Nnf::MoreThan(e, p) => {
                let nodes = self.all_nodes("v");
                let viol = self.cmp_violation(e, p, CmpKind::Gt);
                Pattern::Minus(
                    Box::new(nodes),
                    Box::new(sub(sel_distinct(vec![proj_var("v")], viol))),
                )
            }
            Nnf::NotMoreThan(e, p) => {
                let viol = self.cmp_violation(e, p, CmpKind::Gt);
                sub(sel_distinct(vec![proj_var("v")], viol))
            }
            Nnf::MoreThanEq(e, p) => {
                let nodes = self.all_nodes("v");
                let viol = self.cmp_violation(e, p, CmpKind::Ge);
                Pattern::Minus(
                    Box::new(nodes),
                    Box::new(sub(sel_distinct(vec![proj_var("v")], viol))),
                )
            }
            Nnf::NotMoreThanEq(e, p) => {
                let viol = self.cmp_violation(e, p, CmpKind::Ge);
                sub(sel_distinct(vec![proj_var("v")], viol))
            }
            Nnf::UniqueLang(e) => {
                let nodes = self.all_nodes("v");
                let viol = self.unique_lang_violation(e);
                Pattern::Minus(
                    Box::new(nodes),
                    Box::new(sub(sel_distinct(vec![proj_var("v")], viol))),
                )
            }
            Nnf::NotUniqueLang(e) => {
                let viol = self.unique_lang_violation(e);
                sub(sel_distinct(vec![proj_var("v")], viol))
            }
        }
    }

    /// `∃ x₁ … xₙ` pairwise-distinct `E`-values all conforming to ψ.
    fn cq_geq(&mut self, n: u32, e: &PathExpr, inner: &Nnf) -> Pattern {
        if n == 0 {
            return self.all_nodes("v");
        }
        let xs: Vec<String> = (0..n).map(|_| self.fresh("x")).collect();
        let mut parts = Vec::new();
        for x in &xs {
            parts.push(Pattern::Path {
                subject: var("v"),
                path: e.clone(),
                object: var(x),
            });
            if !matches!(inner, Nnf::True) {
                parts.push(self.cq_as(inner, x));
            }
        }
        let mut pattern = join_all(parts);
        for i in 0..xs.len() {
            for j in (i + 1)..xs.len() {
                pattern = pattern.filter(
                    Expr::SameTerm(Box::new(Expr::var(&xs[i])), Box::new(Expr::var(&xs[j]))).not(),
                );
            }
        }
        pattern
    }

    fn closed_violation(&mut self, allowed: &std::collections::BTreeSet<Iri>) -> Pattern {
        let (q, x) = (self.fresh("q"), self.fresh("x"));
        let triple = Pattern::Bgp(vec![TriplePattern::new(var("v"), var(&q), var(&x))]);
        triple.filter(Expr::In(
            Box::new(Expr::var(&q)),
            allowed.iter().map(|p| Term::Iri(p.clone())).collect(),
            true,
        ))
    }

    fn less_violation(&mut self, e: &PathExpr, p: &Iri, or_equal: bool) -> Pattern {
        self.cmp_violation(e, p, if or_equal { CmpKind::Le } else { CmpKind::Lt })
    }

    /// Pairs `(x ∈ ⟦E⟧(v), y ∈ ⟦p⟧(v))` violating the comparison.
    fn cmp_violation(&mut self, e: &PathExpr, p: &Iri, kind: CmpKind) -> Pattern {
        let (x, y) = (self.fresh("x"), self.fresh("y"));
        let pattern = Pattern::Join(
            Box::new(Pattern::Path {
                subject: var("v"),
                path: e.clone(),
                object: var(&x),
            }),
            Box::new(prop_bgp("v", p, &y)),
        );
        pattern.filter(not_cmp(Expr::var(&x), Expr::var(&y), kind))
    }

    fn unique_lang_violation(&mut self, e: &PathExpr) -> Pattern {
        let (x, y) = (self.fresh("x"), self.fresh("y"));
        let pattern = Pattern::Join(
            Box::new(Pattern::Path {
                subject: var("v"),
                path: e.clone(),
                object: var(&x),
            }),
            Box::new(Pattern::Path {
                subject: var("v"),
                path: e.clone(),
                object: var(&y),
            }),
        );
        pattern.filter(
            Expr::SameTerm(Box::new(Expr::var(&x)), Box::new(Expr::var(&y)))
                .not()
                .and(Expr::Lang(Box::new(Expr::var(&x))).eq(Expr::Lang(Box::new(Expr::var(&y)))))
                .and(
                    Expr::Lang(Box::new(Expr::var(&x)))
                        .neq(Expr::Const(Term::Literal(Literal::string("")))),
                ),
        )
    }

    // --- Proposition 5.3: Q_φ --------------------------------------------

    /// `Q_φ(?v, ?s, ?p, ?o)`.
    fn nq(&mut self, shape: &Nnf) -> Select {
        let out = vec![proj_var("v"), proj_var("s"), proj_var("p"), proj_var("o")];
        let out_from_t = vec![
            rename("t", "v"),
            proj_var("s"),
            proj_var("p"),
            proj_var("o"),
        ];
        match shape {
            // Empty-neighborhood cases.
            Nnf::True
            | Nnf::False
            | Nnf::Test(_)
            | Nnf::NotTest(_)
            | Nnf::HasValue(_)
            | Nnf::NotHasValue(_)
            | Nnf::Closed(_)
            | Nnf::Disj(_, _)
            | Nnf::LessThan(_, _)
            | Nnf::LessThanEq(_, _)
            | Nnf::MoreThan(_, _)
            | Nnf::MoreThanEq(_, _)
            | Nnf::UniqueLang(_) => {
                sel(out, Pattern::Filter(Box::new(Pattern::Unit), false_expr()))
            }

            Nnf::HasShape(name) => {
                let def = Nnf::from_shape(&self.schema.def(name));
                self.nq(&def)
            }
            Nnf::NotHasShape(name) => {
                let def = Nnf::from_negated_shape(&self.schema.def(name));
                self.nq(&def)
            }

            Nnf::And(items) | Nnf::Or(items) => {
                let guard = self.cq_as(shape, "v");
                let branches: Vec<Pattern> = items.iter().map(|i| sub(self.nq(i))).collect();
                sel(
                    out,
                    Pattern::Join(Box::new(guard), Box::new(union_all(branches))),
                )
            }

            Nnf::Geq(_, e, inner) => self.nq_quantifier(shape, e, inner, true),
            Nnf::Leq(_, e, inner) => {
                let negated = inner.negated();
                self.nq_quantifier(shape, e, &negated, true)
            }
            Nnf::ForAll(e, inner) => self.nq_quantifier(shape, e, inner, false),

            Nnf::Eq(PathOrId::Path(e), p) => {
                let guard = self.cq_t(shape);
                let union_path = e.clone().or(PathExpr::Prop(p.clone()));
                let q_e = self.q_path(&union_path);
                sel(
                    out_from_t,
                    Pattern::Join(Box::new(guard), Box::new(sub(q_e))),
                )
            }
            Nnf::Eq(PathOrId::Id, p) | Nnf::NotDisj(PathOrId::Id, p) => {
                let guard = self.cq_as(shape, "v");
                sel(
                    vec![
                        proj_var("v"),
                        rename("v", "s"),
                        Projection::Const(Term::Iri(p.clone()), "p".into()),
                        rename("v", "o"),
                    ],
                    Pattern::Join(Box::new(guard), Box::new(self_loop_bgp("v", p))),
                )
            }
            Nnf::NotEq(PathOrId::Path(e), p) => {
                let guard = self.cq_t(shape);
                let q_e = self.q_path(e);
                let q_p = self.q_path(&PathExpr::Prop(p.clone()));
                let e_side = Pattern::Minus(Box::new(sub(q_e)), Box::new(prop_bgp("t", p, "h")));
                let p_side = Pattern::Minus(
                    Box::new(sub(q_p)),
                    Box::new(Pattern::Path {
                        subject: var("t"),
                        path: e.clone(),
                        object: var("h"),
                    }),
                );
                sel(
                    out_from_t,
                    Pattern::Join(
                        Box::new(guard),
                        Box::new(Pattern::Union(Box::new(e_side), Box::new(p_side))),
                    ),
                )
            }
            Nnf::NotEq(PathOrId::Id, p) => {
                let guard = self.cq_as(shape, "v");
                let o = self.fresh("o");
                let non_loop = Pattern::Filter(
                    Box::new(prop_bgp("v", p, &o)),
                    Expr::SameTerm(Box::new(Expr::var(&o)), Box::new(Expr::var("v"))).not(),
                );
                sel(
                    vec![
                        proj_var("v"),
                        rename("v", "s"),
                        Projection::Const(Term::Iri(p.clone()), "p".into()),
                        rename(&o, "o"),
                    ],
                    Pattern::Join(Box::new(guard), Box::new(non_loop)),
                )
            }
            Nnf::NotDisj(PathOrId::Path(e), p) => {
                let guard = self.cq_t(shape);
                let q_e = self.q_path(e);
                let q_p = self.q_path(&PathExpr::Prop(p.clone()));
                let e_side = Pattern::Join(Box::new(sub(q_e)), Box::new(prop_bgp("t", p, "h")));
                let p_side = Pattern::Join(
                    Box::new(sub(q_p)),
                    Box::new(Pattern::Path {
                        subject: var("t"),
                        path: e.clone(),
                        object: var("h"),
                    }),
                );
                sel(
                    out_from_t,
                    Pattern::Join(
                        Box::new(guard),
                        Box::new(Pattern::Union(Box::new(e_side), Box::new(p_side))),
                    ),
                )
            }
            Nnf::NotLessThan(e, p) => self.nq_not_cmp(shape, e, p, CmpKind::Lt),
            Nnf::NotLessThanEq(e, p) => self.nq_not_cmp(shape, e, p, CmpKind::Le),
            Nnf::NotMoreThan(e, p) => self.nq_not_cmp(shape, e, p, CmpKind::Gt),
            Nnf::NotMoreThanEq(e, p) => self.nq_not_cmp(shape, e, p, CmpKind::Ge),
            Nnf::NotUniqueLang(e) => {
                let guard = self.cq_t(shape);
                let q_e = self.q_path(e);
                let h2 = self.fresh("h");
                let pair = Pattern::Join(
                    Box::new(sub(q_e)),
                    Box::new(Pattern::Path {
                        subject: var("t"),
                        path: e.clone(),
                        object: var(&h2),
                    }),
                );
                let clash = pair.filter(
                    Expr::SameTerm(Box::new(Expr::var("h")), Box::new(Expr::var(&h2)))
                        .not()
                        .and(
                            Expr::Lang(Box::new(Expr::var("h")))
                                .eq(Expr::Lang(Box::new(Expr::var(&h2)))),
                        )
                        .and(
                            Expr::Lang(Box::new(Expr::var("h")))
                                .neq(Expr::Const(Term::Literal(Literal::string("")))),
                        ),
                );
                sel(out_from_t, Pattern::Join(Box::new(guard), Box::new(clash)))
            }
            Nnf::NotClosed(allowed) => {
                let guard = self.cq_as(shape, "v");
                let (q, x) = (self.fresh("q"), self.fresh("x"));
                let triple = Pattern::Bgp(vec![TriplePattern::new(var("v"), var(&q), var(&x))]);
                let outside = triple.filter(Expr::In(
                    Box::new(Expr::var(&q)),
                    allowed.iter().map(|p| Term::Iri(p.clone())).collect(),
                    true,
                ));
                sel(
                    vec![
                        proj_var("v"),
                        rename("v", "s"),
                        rename(&q, "p"),
                        rename(&x, "o"),
                    ],
                    Pattern::Join(Box::new(guard), Box::new(outside)),
                )
            }
        }
    }

    /// `CQ_φ` rebound to `?t` (the focus-node guard of the quantifier and
    /// pair cases).
    fn cq_t(&mut self, shape: &Nnf) -> Pattern {
        self.cq_as(shape, "t")
    }

    /// The shared shape of the three quantifier cases: traced `E`-paths to
    /// qualifying endpoints, plus the endpoints' own neighborhoods.
    /// `endpoint` is ψ for `≥`/`∀` and ¬ψ for `≤`; `guard_endpoint` adds
    /// the endpoint-conformance requirement on the path branch (absent for
    /// `∀`, where every endpoint qualifies).
    fn nq_quantifier(
        &mut self,
        shape: &Nnf,
        e: &PathExpr,
        endpoint: &Nnf,
        guard_endpoint: bool,
    ) -> Select {
        let guard = self.cq_t(shape);
        let q_e = self.q_path(e);
        // Branch 1: the traced path triples.
        let mut branch1_parts = vec![guard.clone(), sub(q_e)];
        if guard_endpoint && !matches!(endpoint, Nnf::True) {
            branch1_parts.push(self.cq_as(endpoint, "h"));
        }
        let branch1 = join_all(branch1_parts);
        // Branch 2: the endpoints' neighborhoods.
        let inner_nq = self.nq(endpoint);
        let endpoint_neighborhood = sub(sel(
            vec![
                rename("v", "h"),
                proj_var("s"),
                proj_var("p"),
                proj_var("o"),
            ],
            sub(inner_nq),
        ));
        let branch2 = join_all(vec![
            guard,
            Pattern::Path {
                subject: var("t"),
                path: e.clone(),
                object: var("h"),
            },
            endpoint_neighborhood,
        ]);
        sel(
            vec![
                rename("t", "v"),
                proj_var("s"),
                proj_var("p"),
                proj_var("o"),
            ],
            Pattern::Union(Box::new(branch1), Box::new(branch2)),
        )
    }

    fn nq_not_cmp(&mut self, shape: &Nnf, e: &PathExpr, p: &Iri, kind: CmpKind) -> Select {
        let guard = self.cq_t(shape);
        let h2 = self.fresh("h");
        let q_e = self.q_path(e);
        let q_p = self.q_path(&PathExpr::Prop(p.clone()));
        // E-paths to x (= ?h) with a violating p-value ?h2.
        let e_side = Pattern::Join(Box::new(sub(q_e)), Box::new(prop_bgp("t", p, &h2)))
            .filter(not_cmp(Expr::var("h"), Expr::var(&h2), kind));
        // p-triples to y (= ?h) with a violating E-value ?h2.
        let p_side = Pattern::Join(
            Box::new(sub(q_p)),
            Box::new(Pattern::Path {
                subject: var("t"),
                path: e.clone(),
                object: var(&h2),
            }),
        )
        .filter(not_cmp(Expr::var(&h2), Expr::var("h"), kind));
        sel(
            vec![
                rename("t", "v"),
                proj_var("s"),
                proj_var("p"),
                proj_var("o"),
            ],
            Pattern::Join(
                Box::new(guard),
                Box::new(Pattern::Union(Box::new(e_side), Box::new(p_side))),
            ),
        )
    }
}

fn prop_bgp(s: &str, p: &Iri, o: &str) -> Pattern {
    Pattern::Bgp(vec![TriplePattern::new(
        var(s),
        VarOrTerm::Term(Term::Iri(p.clone())),
        var(o),
    )])
}

fn self_loop_bgp(v: &str, p: &Iri) -> Pattern {
    Pattern::Bgp(vec![TriplePattern::new(
        var(v),
        VarOrTerm::Term(Term::Iri(p.clone())),
        var(v),
    )])
}

/// A SPARQL filter expression equivalent to a node test on `?{v}`.
fn test_expr(test: &NodeTest, v: &str) -> Expr {
    let var_e = || Box::new(Expr::var(v));
    match test {
        NodeTest::Kind(kind) => {
            let is_iri = Expr::IsIri(var_e());
            let is_blank = Expr::IsBlank(var_e());
            let is_lit = Expr::IsLiteral(var_e());
            match kind {
                NodeKind::Iri => is_iri,
                NodeKind::BlankNode => is_blank,
                NodeKind::Literal => is_lit,
                NodeKind::BlankNodeOrIri => is_blank.or(is_iri),
                NodeKind::BlankNodeOrLiteral => is_blank.or(is_lit),
                NodeKind::IriOrLiteral => is_iri.or(is_lit),
            }
        }
        NodeTest::Datatype(dt) => Expr::Datatype(var_e()).eq(Expr::Const(Term::Iri(dt.clone()))),
        NodeTest::MinExclusive(b) => Expr::Gt(var_e(), lit_expr(b)),
        NodeTest::MinInclusive(b) => Expr::Ge(var_e(), lit_expr(b)),
        NodeTest::MaxExclusive(b) => Expr::Lt(var_e(), lit_expr(b)),
        NodeTest::MaxInclusive(b) => Expr::Le(var_e(), lit_expr(b)),
        NodeTest::MinLength(n) => Expr::Ge(
            Box::new(Expr::StrLen(Box::new(Expr::Str(var_e())))),
            Box::new(Expr::Const(Term::Literal(Literal::integer(*n as i64)))),
        ),
        NodeTest::MaxLength(n) => Expr::Le(
            Box::new(Expr::StrLen(Box::new(Expr::Str(var_e())))),
            Box::new(Expr::Const(Term::Literal(Literal::integer(*n as i64)))),
        ),
        NodeTest::Pattern(p) => Expr::Regex(
            Box::new(Expr::Str(var_e())),
            p.source().to_owned(),
            p.flags().to_owned(),
        ),
        NodeTest::Language(range) => Expr::LangMatches(
            Box::new(Expr::Lang(var_e())),
            Box::new(Expr::Const(Term::Literal(Literal::string(range.clone())))),
        ),
    }
}

fn lit_expr(l: &Literal) -> Box<Expr> {
    Box::new(Expr::Const(Term::Literal(l.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighborhood::neighborhood_term;
    use shapefrag_rdf::{GraphAccess, Triple};
    use shapefrag_shacl::validator::Context;

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

    fn conforming_via_sparql(g: &Graph, shape: &Shape) -> Vec<Term> {
        let q = conformance_query(&Schema::empty(), shape);
        let mut out: Vec<Term> = eval_select(g, &q, &EvalConfig::indexed())
            .unwrap()
            .into_iter()
            .filter_map(|mut b| b.remove("v"))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    fn conforming_native(g: &Graph, shape: &Shape) -> Vec<Term> {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, g);
        let mut out: Vec<Term> = g
            .node_ids()
            .into_iter()
            .filter(|&v| ctx.conforms(v, shape))
            .map(|v| g.term(v).clone())
            .collect();
        out.sort();
        out
    }

    fn assert_cq_agrees(g: &Graph, shape: &Shape) {
        assert_eq!(
            conforming_via_sparql(g, shape),
            conforming_native(g, shape),
            "CQ disagreement for {shape}"
        );
    }

    fn assert_nq_agrees(g: &Graph, shape: &Shape) {
        let schema = Schema::empty();
        let via_sparql =
            neighborhoods_via_sparql(&schema, g, shape, &EvalConfig::indexed()).unwrap();
        let mut ctx = Context::new(&schema, g);
        for (node, sparql_nbh) in &via_sparql {
            let native = neighborhood_term(&mut ctx, node, shape);
            assert_eq!(
                sparql_nbh, &native,
                "neighborhood disagreement for {shape} at {node}"
            );
        }
        // And conversely: every node with a non-empty native neighborhood
        // appears.
        for v in g.node_ids() {
            let node = g.term(v).clone();
            let native = neighborhood_term(&mut ctx, &node, shape);
            if !native.is_empty() {
                let found = via_sparql.iter().find(|(n, _)| n == &node);
                assert!(
                    found.is_some_and(|(_, nbh)| nbh == &native),
                    "missing/incorrect SPARQL neighborhood for {shape} at {node}"
                );
            }
        }
    }

    fn sample_graph() -> Graph {
        Graph::from_triples([
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("p1", "author", "bob"),
            t("bob", "type", "Professor"),
            t("p1", "type", "Paper"),
            t("p2", "type", "Paper"),
            t("p2", "author", "bob"),
            t("v", "friend", "x"),
            t("v", "colleague", "x"),
            t("v", "friend", "y"),
            t("loop", "p", "loop"),
            t("loop", "p", "other"),
        ])
    }

    #[test]
    fn path_query_simple_property() {
        let g = sample_graph();
        let q = path_query(&p("author"));
        let rows = eval_select(&g, &q, &EvalConfig::indexed()).unwrap();
        // Three author triples, each its own (t, s, p, o, h) row.
        assert_eq!(rows.len(), 3);
        for b in &rows {
            assert_eq!(b["t"], b["s"]);
            assert_eq!(b["h"], b["o"]);
            assert_eq!(b["p"], Term::Iri(iri("author")));
        }
    }

    #[test]
    fn path_query_sequence_and_star() {
        let g = Graph::from_triples([
            t("a", "q", "b"),
            t("b", "r", "c"),
            t("c", "q", "d"),
            t("d", "r", "e"),
        ]);
        // (q/r)* — the Example 5.2 query shape.
        let e = p("q").then(p("r")).star();
        let q = path_query(&e);
        let rows = eval_select(&g, &q, &EvalConfig::indexed()).unwrap();
        // Edge rows for t=a,h=e must include all four triples.
        let sub = bindings_to_graph(
            &rows
                .iter()
                .filter(|b| b.get("t") == Some(&term("a")) && b.get("h") == Some(&term("e")))
                .cloned()
                .collect::<Vec<_>>(),
            "s",
            "p",
            "o",
        );
        assert_eq!(sub.len(), 4);
        // Identity rows exist: (a, a) with unbound s/p/o.
        assert!(rows.iter().any(|b| b.get("t") == Some(&term("a"))
            && b.get("h") == Some(&term("a"))
            && !b.contains_key("s")));
    }

    #[test]
    fn path_query_inverse() {
        let g = sample_graph();
        let q = path_query(&p("author").inverse());
        let rows = eval_select(&g, &q, &EvalConfig::indexed()).unwrap();
        // t is the author, h the paper; underlying triple stays forward.
        let row = rows
            .iter()
            .find(|b| b.get("t") == Some(&term("alice")))
            .unwrap();
        assert_eq!(row["h"], term("p1"));
        assert_eq!(row["s"], term("p1"));
        assert_eq!(row["o"], term("alice"));
    }

    #[test]
    fn cq_matches_native_conformance() {
        let g = sample_graph();
        let shapes = vec![
            Shape::True,
            Shape::geq(1, p("author"), Shape::True),
            Shape::geq(
                1,
                p("author"),
                Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::geq(2, p("author"), Shape::True),
            Shape::leq(1, p("author"), Shape::True),
            Shape::leq(0, p("author"), Shape::True),
            Shape::for_all(p("author"), Shape::geq(1, p("type"), Shape::True)),
            Shape::geq(1, p("author"), Shape::True).not(),
            Shape::has_value(term("p1")),
            Shape::Disj(PathOrId::Path(p("friend")), iri("colleague")),
            Shape::Disj(PathOrId::Path(p("friend")), iri("colleague")).not(),
            Shape::Eq(PathOrId::Path(p("friend")), iri("colleague")),
            Shape::Eq(PathOrId::Id, iri("p")),
            Shape::Eq(PathOrId::Id, iri("p")).not(),
            Shape::Disj(PathOrId::Id, iri("p")),
            Shape::Disj(PathOrId::Id, iri("p")).not(),
            Shape::Closed([iri("type"), iri("author")].into()),
            Shape::Closed([iri("type"), iri("author")].into()).not(),
            Shape::UniqueLang(p("label")),
        ];
        for shape in &shapes {
            assert_cq_agrees(&g, shape);
        }
    }

    #[test]
    fn cq_less_than() {
        let mut g = Graph::new();
        for (s, a, b) in [("ok", 1, 5), ("bad", 9, 5), ("eq", 5, 5)] {
            g.insert(Triple::new(
                term(s),
                iri("start"),
                Term::Literal(Literal::integer(a)),
            ));
            g.insert(Triple::new(
                term(s),
                iri("end"),
                Term::Literal(Literal::integer(b)),
            ));
        }
        for shape in [
            Shape::LessThan(p("start"), iri("end")),
            Shape::LessThan(p("start"), iri("end")).not(),
            Shape::LessThanEq(p("start"), iri("end")),
            Shape::LessThanEq(p("start"), iri("end")).not(),
        ] {
            assert_cq_agrees(&g, &shape);
        }
    }

    #[test]
    fn cq_node_tests() {
        let mut g = sample_graph();
        g.insert(Triple::new(
            term("p1"),
            iri("pages"),
            Term::Literal(Literal::integer(12)),
        ));
        g.insert(Triple::new(
            term("p1"),
            iri("title"),
            Term::Literal(Literal::lang_string("Provenance", "en")),
        ));
        let shapes = vec![
            Shape::for_all(
                p("pages"),
                Shape::Test(NodeTest::Datatype(shapefrag_rdf::vocab::xsd::integer())),
            ),
            Shape::geq(
                1,
                p("pages"),
                Shape::Test(NodeTest::MinInclusive(Literal::integer(10))),
            ),
            Shape::geq(1, p("title"), Shape::Test(NodeTest::Language("en".into()))),
            Shape::geq(
                1,
                p("title"),
                Shape::Test(NodeTest::pattern("^Prov", "").unwrap()),
            ),
            Shape::Test(NodeTest::Kind(NodeKind::Iri)),
            Shape::Test(NodeTest::Kind(NodeKind::Literal)).not(),
            Shape::Test(NodeTest::MinLength(9)),
        ];
        for shape in &shapes {
            assert_cq_agrees(&g, shape);
        }
    }

    #[test]
    fn nq_matches_native_neighborhoods() {
        let g = sample_graph();
        let shapes = vec![
            Shape::geq(
                1,
                p("author"),
                Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::leq(
                1,
                p("author"),
                Shape::leq(0, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::for_all(p("author"), Shape::geq(1, p("type"), Shape::True)),
            Shape::Disj(PathOrId::Path(p("friend")), iri("colleague")).not(),
            Shape::Eq(PathOrId::Path(p("friend")), iri("colleague")).not(),
            Shape::Eq(PathOrId::Path(p("friend")), iri("colleague")),
            Shape::Eq(PathOrId::Id, iri("p")).not(),
            Shape::Disj(PathOrId::Id, iri("p")).not(),
            Shape::Closed([iri("type")].into()).not(),
            Shape::geq(1, p("author"), Shape::True).and(Shape::geq(
                1,
                p("type"),
                Shape::has_value(term("Paper")),
            )),
            Shape::geq(1, p("author"), Shape::True).or(Shape::geq(1, p("friend"), Shape::True)),
        ];
        for shape in &shapes {
            assert_nq_agrees(&g, shape);
        }
    }

    #[test]
    fn nq_with_complex_paths() {
        let g = Graph::from_triples([
            t("paper", "author", "ann"),
            t("ann", "type", "PhD"),
            t("PhD", "sub", "Student"),
            t("paper", "author", "bo"),
            t("bo", "type", "Student"),
        ]);
        let shape = Shape::geq(
            1,
            p("author"),
            Shape::geq(
                1,
                p("type").then(p("sub").star()),
                Shape::has_value(term("Student")),
            ),
        );
        assert_nq_agrees(&g, &shape);
    }

    #[test]
    fn nq_not_less_than() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            term("v"),
            iri("e"),
            Term::Literal(Literal::integer(5)),
        ));
        g.insert(Triple::new(
            term("v"),
            iri("p"),
            Term::Literal(Literal::integer(3)),
        ));
        g.insert(Triple::new(
            term("v"),
            iri("p"),
            Term::Literal(Literal::integer(9)),
        ));
        assert_nq_agrees(&g, &Shape::LessThan(p("e"), iri("p")).not());
        assert_nq_agrees(&g, &Shape::LessThanEq(p("e"), iri("p")).not());
    }

    #[test]
    fn nq_not_unique_lang() {
        let mut g = Graph::new();
        for (lex, lang) in [("hi", "en"), ("hello", "en"), ("hallo", "de")] {
            g.insert(Triple::new(
                term("v"),
                iri("label"),
                Term::Literal(Literal::lang_string(lex, lang)),
            ));
        }
        assert_nq_agrees(&g, &Shape::UniqueLang(p("label")).not());
    }

    #[test]
    fn fragment_query_agrees_with_native_fragment() {
        let g = sample_graph();
        let shapes = vec![
            Shape::geq(
                1,
                p("author"),
                Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::Disj(PathOrId::Path(p("friend")), iri("colleague")).not(),
        ];
        let schema = Schema::empty();
        let via_sparql = fragment_via_sparql(&schema, &g, &shapes, &EvalConfig::indexed()).unwrap();
        let native = crate::fragment::fragment(&schema, &g, &shapes);
        assert_eq!(via_sparql, native);
    }

    #[test]
    fn example_5_6_friends_like_pingpong() {
        // ∀p.≥1 q.hasValue(c): "all my friends like ping-pong".
        let g = Graph::from_triples([
            t("me", "friend", "f1"),
            t("f1", "likes", "pingpong"),
            t("me", "friend", "f2"),
            t("f2", "likes", "pingpong"),
            t("f2", "likes", "chess"),
            t("you", "friend", "f3"),
            t("f3", "likes", "chess"),
        ]);
        let shape = Shape::for_all(
            p("friend"),
            Shape::geq(1, p("likes"), Shape::has_value(term("pingpong"))),
        );
        assert_cq_agrees(&g, &shape);
        assert_nq_agrees(&g, &shape);
        let schema = Schema::empty();
        let frag = fragment_via_sparql(&schema, &g, &[shape], &EvalConfig::indexed()).unwrap();
        // me conforms: friend edges + likes-pingpong edges. f3's owner fails.
        assert!(frag.contains(&t("me", "friend", "f1")));
        assert!(frag.contains(&t("f1", "likes", "pingpong")));
        assert!(!frag.contains(&t("you", "friend", "f3")));
        // Note f2's chess like is NOT in the neighborhood… it is, actually:
        // B(f2, ≥1 likes.hasValue(pingpong)) traces only pingpong paths.
        assert!(!frag.contains(&t("f2", "likes", "chess")));
    }

    #[test]
    fn generated_query_sizes_are_linear_ish() {
        // The printed query grows with the shape but stays bounded (the
        // linear-size claim of Prop 5.3, with counts in unary).
        let small =
            neighborhood_query(&Schema::empty(), &Shape::geq(1, p("a"), Shape::True)).to_string();
        let big = neighborhood_query(
            &Schema::empty(),
            &Shape::geq(
                1,
                p("a"),
                Shape::geq(1, p("b"), Shape::geq(1, p("c"), Shape::True)),
            ),
        )
        .to_string();
        assert!(small.len() < big.len());
        assert!(big.len() < 40 * small.len());
    }

    #[test]
    fn generated_queries_reparse() {
        // Corollary 5.5 queries print to concrete SPARQL that our parser
        // accepts and that evaluates identically.
        let g = sample_graph();
        let schema = Schema::empty();
        let shapes = [Shape::geq(
            1,
            p("author"),
            Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
        )];
        let q = fragment_query(&schema, &shapes);
        let printed = q.to_string();
        let reparsed = shapefrag_sparql::parser::parse_select(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        let r1 = eval_select(&g, &q, &EvalConfig::indexed()).unwrap();
        let r2 = eval_select(&g, &reparsed, &EvalConfig::indexed()).unwrap();
        let s1: std::collections::BTreeSet<_> = r1.into_iter().collect();
        let s2: std::collections::BTreeSet<_> = r2.into_iter().collect();
        assert_eq!(s1, s2);
    }
}
