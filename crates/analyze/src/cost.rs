//! Pass 4: extraction routing.
//!
//! Decides whether batch evaluation of a shape shares work across focus
//! nodes (the memo-sharing potential exploited by `validate_batch`).
//! `shapefrag-core`'s instrumented driver consumes [`shape_shares_work`]
//! to pick between the batched and the per-node extraction route.

use shapefrag_shacl::shape::PathOrId;
use shapefrag_shacl::{Nnf, PathExpr, Schema};

/// True iff the path is a single forward or inverse property step, which
/// the per-node evaluator answers with one index lookup.
pub fn path_is_simple(path: &PathExpr) -> bool {
    match path {
        PathExpr::Prop(_) => true,
        PathExpr::Inverse(inner) => matches!(inner.as_ref(), PathExpr::Prop(_)),
        _ => false,
    }
}

/// True iff batch (set-at-a-time) evaluation of this shape shares work
/// across focus nodes: a non-simple path (multi-source BFS amortizes the
/// product-graph exploration), a non-trivial quantifier inner (endpoint
/// conformance checks hit the shared memo), or a path-equality pair.
/// Shapes that are pure local lookups gain nothing from batching, and the
/// batch driver routes them to the cheaper per-node loop.
pub fn shape_shares_work(schema: &Schema, shape: &Nnf) -> bool {
    match shape {
        Nnf::Geq(_, e, inner) | Nnf::Leq(_, e, inner) | Nnf::ForAll(e, inner) => {
            !path_is_simple(e) || !matches!(inner.as_ref(), Nnf::True)
        }
        Nnf::Eq(PathOrId::Path(_), _) => true,
        Nnf::And(items) | Nnf::Or(items) => items.iter().any(|i| shape_shares_work(schema, i)),
        Nnf::HasShape(name) | Nnf::NotHasShape(name) => {
            shape_shares_work(schema, schema.def_nnf(name, false))
        }
        _ => false,
    }
}
