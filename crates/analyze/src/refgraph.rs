//! Pass 3: shape-reference graph analysis.
//!
//! Builds the directed graph over shape names (an edge `s₁ → s₂` for every
//! `hasShape(s₂)` inside the definition of `s₁`), annotated with the
//! *parity* of the reference: odd when the reference sits under an odd
//! number of negations — a `¬hasShape` atom, or nesting inside the body of
//! a `≤n` quantifier (`≤n E.ψ ≡ ¬ ≥n+1 E.ψ`). On that graph it reports:
//!
//! - **SF-E020** — strongly connected components with more than one node
//!   (or a self-loop): the schema is recursive and the engine rejects it.
//! - **SF-E021** — a recursive component containing an odd-parity edge:
//!   the recursion passes through negation, so the schema has no stratified
//!   semantics even in engines that admit recursion. Reported instead of
//!   (not in addition to) E020 for that component.
//! - **SF-W022** — a definition with no targets that is unreachable from
//!   every targeted definition: it can never influence validation.
//! - **SF-W023** — a reference to a name with no definition (which SHACL
//!   silently defaults to ⊤ — almost always a typo).
//!
//! It also computes a topological order (references before referrers) for
//! bottom-up status propagation.

use std::collections::BTreeMap;

use shapefrag_rdf::Term;
use shapefrag_shacl::{Nnf, Shape, ShapeDef};

use crate::diagnostic::{codes, Diagnostic, Severity};
use crate::DefForms;

/// Result of the reference-graph pass.
#[derive(Debug, Clone, Default)]
pub struct RefGraph {
    /// E020/E021/W022/W023 findings (spans attached by the caller).
    pub diagnostics: Vec<Diagnostic>,
    /// Defined names ordered references-first, or `None` when the graph is
    /// cyclic (then no bottom-up status propagation is possible).
    pub topo: Option<Vec<Term>>,
}

/// Collects `(referenced name, parity)` pairs from a formula. Parity flips
/// through `¬hasShape` atoms and through `≤` bodies.
fn collect_refs(root: &Nnf, out: &mut Vec<(Term, bool)>) {
    let mut stack: Vec<(&Nnf, bool)> = vec![(root, false)];
    while let Some((n, parity)) = stack.pop() {
        match n {
            Nnf::HasShape(name) => out.push((name.clone(), parity)),
            Nnf::NotHasShape(name) => out.push((name.clone(), !parity)),
            Nnf::And(items) | Nnf::Or(items) => {
                stack.extend(items.iter().map(|i| (i, parity)));
            }
            Nnf::Geq(_, _, inner) | Nnf::ForAll(_, inner) => stack.push((inner, parity)),
            Nnf::Leq(_, _, inner) => stack.push((inner, !parity)),
            _ => {}
        }
    }
}

/// True when a target expression is *statically* empty (the definition
/// targets nothing). Conservative: only the literal forms the parser emits
/// for target-less definitions are recognized.
fn target_is_bottom(target: &Shape) -> bool {
    matches!(target, Shape::False) || matches!(target, Shape::Or(items) if items.is_empty())
}

/// Iterative Tarjan SCC over the defined-name graph. Returns components in
/// reverse topological order (each component before its referencers).
fn tarjan(n: usize, adj: &[Vec<(usize, bool)>]) -> Vec<Vec<usize>> {
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut components: Vec<Vec<usize>> = Vec::new();

    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        // Explicit call stack of (vertex, next-edge cursor).
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor < adj[v].len() {
                let (w, _) = adj[v][*cursor];
                *cursor += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(component);
                }
            }
        }
    }
    components
}

/// Runs the reference-graph pass over raw definitions (pre-`Schema`, so
/// recursive inputs are analyzable rather than rejected).
pub fn analyze_refs(defs: &[ShapeDef]) -> RefGraph {
    refs_of(&DefForms::of_defs(defs))
}

/// [`analyze_refs`] over definitions whose NNF forms are at hand.
pub(crate) fn refs_of(forms: &[DefForms]) -> RefGraph {
    let defs: Vec<&ShapeDef> = forms.iter().map(|f| f.def).collect();
    let names: Vec<&Term> = defs.iter().map(|d| &d.name).collect();
    let id_of: BTreeMap<&Term, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();

    let mut diagnostics = Vec::new();

    // Edges (per def, deduplicated) and undefined references.
    let mut adj: Vec<Vec<(usize, bool)>> = vec![Vec::new(); defs.len()];
    for (i, form) in forms.iter().enumerate() {
        let def = form.def;
        let mut refs: Vec<(Term, bool)> = Vec::new();
        collect_refs(&form.shape, &mut refs);
        collect_refs(&form.target, &mut refs);
        let mut undefined_reported: Vec<&Term> = Vec::new();
        for (name, parity) in &refs {
            match id_of.get(name) {
                Some(&j) => {
                    if !adj[i].contains(&(j, *parity)) {
                        adj[i].push((j, *parity));
                    }
                }
                None => {
                    if !undefined_reported.contains(&name) {
                        undefined_reported.push(name);
                        diagnostics.push(Diagnostic::new(
                            codes::UNDEFINED_REF,
                            Severity::Warn,
                            Some(def.name.clone()),
                            format!(
                                "reference to undefined shape {name} (undefined shapes \
                                 default to ⊤, so this constraint always passes)"
                            ),
                        ));
                    }
                }
            }
        }
    }

    // SCCs → recursion / stratification findings.
    let components = tarjan(defs.len(), &adj);
    let mut cyclic = false;
    for component in &components {
        let nontrivial =
            component.len() > 1 || adj[component[0]].iter().any(|(w, _)| *w == component[0]);
        if !nontrivial {
            continue;
        }
        cyclic = true;
        let in_component = |w: usize| component.contains(&w);
        let through_negation = component
            .iter()
            .flat_map(|&v| adj[v].iter())
            .any(|&(w, parity)| in_component(w) && parity);
        let mut members: Vec<String> = component.iter().map(|&v| names[v].to_string()).collect();
        members.sort();
        let witness = component.iter().map(|&v| names[v]).min().cloned();
        if through_negation {
            diagnostics.push(Diagnostic::new(
                codes::NEGATION_CYCLE,
                Severity::Deny,
                witness,
                format!(
                    "shape references form a cycle through negation ({}); the schema \
                     is unstratifiable",
                    members.join(" → ")
                ),
            ));
        } else {
            diagnostics.push(Diagnostic::new(
                codes::RECURSIVE_SCHEMA,
                Severity::Deny,
                witness,
                format!(
                    "shape references form a cycle ({}); only nonrecursive schemas \
                     are admitted",
                    members.join(" → ")
                ),
            ));
        }
    }

    // Reachability from targeted definitions → W022.
    let mut reached = vec![false; defs.len()];
    let mut frontier: Vec<usize> = defs
        .iter()
        .enumerate()
        .filter(|(_, d)| !target_is_bottom(&d.target))
        .map(|(i, _)| i)
        .collect();
    for &i in &frontier {
        reached[i] = true;
    }
    while let Some(v) = frontier.pop() {
        for &(w, _) in &adj[v] {
            if !reached[w] {
                reached[w] = true;
                frontier.push(w);
            }
        }
    }
    for (i, def) in defs.iter().enumerate() {
        if !reached[i] {
            diagnostics.push(Diagnostic::new(
                codes::UNREACHABLE_DEF,
                Severity::Warn,
                Some(def.name.clone()),
                "definition has no targets and is not referenced by any targeted \
                 definition; it never influences validation"
                    .to_string(),
            ));
        }
    }

    // Topological order (references first): Tarjan emits components in
    // reverse topological order of the condensation, which for an acyclic
    // graph is exactly references-before-referrers.
    let topo = if cyclic {
        None
    } else {
        Some(
            components
                .iter()
                .map(|c| names[c[0]].clone())
                .collect::<Vec<Term>>(),
        )
    };

    RefGraph { diagnostics, topo }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapefrag_shacl::PathExpr;

    fn name(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn p(n: &str) -> PathExpr {
        PathExpr::prop(format!("http://e/{n}"))
    }

    fn targeted(n: &str, shape: Shape) -> ShapeDef {
        ShapeDef::new(name(n), shape, Shape::geq(1, p("type"), Shape::True))
    }

    fn helper(n: &str, shape: Shape) -> ShapeDef {
        ShapeDef::new(name(n), shape, Shape::False)
    }

    #[test]
    fn acyclic_schema_is_clean() {
        let rg = analyze_refs(&[
            targeted("S", Shape::HasShape(name("T"))),
            helper("T", Shape::True),
        ]);
        assert!(rg.diagnostics.is_empty());
        let topo = rg.topo.unwrap();
        assert_eq!(topo, vec![name("T"), name("S")]);
    }

    #[test]
    fn positive_cycle_is_e020() {
        let rg = analyze_refs(&[
            helper("A", Shape::HasShape(name("B"))),
            helper("B", Shape::HasShape(name("A"))),
        ]);
        assert!(rg
            .diagnostics
            .iter()
            .any(|d| d.code == codes::RECURSIVE_SCHEMA));
        assert!(rg.topo.is_none());
    }

    #[test]
    fn negation_cycle_is_e021_not_e020() {
        let rg = analyze_refs(&[
            helper("A", Shape::HasShape(name("B"))),
            helper("B", Shape::HasShape(name("A")).not()),
        ]);
        assert!(rg
            .diagnostics
            .iter()
            .any(|d| d.code == codes::NEGATION_CYCLE));
        assert!(!rg
            .diagnostics
            .iter()
            .any(|d| d.code == codes::RECURSIVE_SCHEMA));
    }

    #[test]
    fn leq_nesting_flips_parity() {
        // A references B inside a ≤ body: odd parity, so A ↔ B through the
        // quantifier is a negation cycle.
        let rg = analyze_refs(&[
            helper("A", Shape::leq(0, p("a"), Shape::HasShape(name("B")))),
            helper("B", Shape::HasShape(name("A"))),
        ]);
        assert!(rg
            .diagnostics
            .iter()
            .any(|d| d.code == codes::NEGATION_CYCLE));
    }

    #[test]
    fn unreached_helper_without_targets_is_w022() {
        let rg = analyze_refs(&[targeted("S", Shape::True), helper("Orphan", Shape::True)]);
        let w022: Vec<_> = rg
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::UNREACHABLE_DEF)
            .collect();
        assert_eq!(w022.len(), 1);
        assert_eq!(w022[0].shape, Some(name("Orphan")));
    }

    #[test]
    fn referenced_helper_is_reachable() {
        let rg = analyze_refs(&[
            targeted("S", Shape::HasShape(name("T"))),
            helper("T", Shape::True),
        ]);
        assert!(!rg
            .diagnostics
            .iter()
            .any(|d| d.code == codes::UNREACHABLE_DEF));
    }

    #[test]
    fn undefined_reference_is_w023() {
        let rg = analyze_refs(&[targeted("S", Shape::HasShape(name("Missing")))]);
        let w023: Vec<_> = rg
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::UNDEFINED_REF)
            .collect();
        assert_eq!(w023.len(), 1);
        assert_eq!(w023[0].shape, Some(name("S")));
    }
}
