//! # cq-approx
//!
//! A full implementation of **Barceló, Libkin & Romero, "Efficient
//! Approximations of Conjunctive Queries" (PODS 2012)**: computing the
//! best guaranteed-correct under-approximations of conjunctive queries
//! within tractable classes (acyclic, bounded treewidth, bounded
//! hypertree width), plus everything needed to *use* them — a CQ parser,
//! containment/minimization, naive and Yannakakis evaluation, the
//! digraph/hypergraph toolkits, and the paper's gadget constructions.
//!
//! ## Quick start
//!
//! ```
//! use cq_approx::prelude::*;
//!
//! // A cyclic query: combined complexity |D|^O(|Q|).
//! let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), \
//!                   E(z1,u1), E(x,z1), E(y,u1)").unwrap();
//!
//! // Its unique acyclic approximation: a path query, evaluable in
//! // O(|D| · |Q'|) by Yannakakis.
//! let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
//! assert_eq!(rep.approximations.len(), 1);
//! let q_prime = &rep.approximations[0];
//! assert!(contained_in(q_prime, &q));       // sound: only correct answers
//!
//! let plan = AcyclicPlan::compile(q_prime).unwrap();
//! let d = Structure::digraph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
//! let (nonempty, _) = plan.ir().run_boolean(&d, None, None);
//! assert!(nonempty);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`structures`] | relational structures, homomorphism engine, cores, quotients |
//! | [`graphs`] | digraphs, oriented paths, balance/levels, coloring, treewidth |
//! | [`hypergraphs`] | GYO acyclicity, join trees, hypertree width |
//! | [`cq`] | CQ AST/parser, tableaux, containment, naive + Yannakakis evaluation |
//! | [`core`] | **the paper's contribution**: approximation algorithms, trichotomy, identification |
//! | [`gadgets`] | the paper's constructions (Prop 4.4, Prop 5.6, Theorem 4.12 appendix) |
//! | [`engine`] | the serving subsystem: catalog, approximation cache, cost-based planner, parallel batches |

#![deny(missing_docs)]
#![warn(clippy::all)]

pub use cqapx_core as core;
pub use cqapx_cq as cq;
pub use cqapx_engine as engine;
pub use cqapx_gadgets as gadgets;
pub use cqapx_graphs as graphs;
pub use cqapx_hypergraphs as hypergraphs;
pub use cqapx_structures as structures;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use cqapx_core::{
        all_approximations, classify_boolean_graph_query, is_approximation, Acyclic, ApproxOptions,
        BooleanTrichotomy, HtwK, QueryClass, TwK,
    };
    pub use cqapx_cq::{
        contained_in, equivalent, eval::naive::eval_naive, eval::AcyclicPlan, minimize, parse_cq,
        query_from_tableau, tableau_of, ConjunctiveQuery, QueryShape,
    };
    pub use cqapx_engine::{
        Engine, EngineConfig, EngineStats, EvalMode, PlanKind, Request, Response, ResponseStatus,
    };
    pub use cqapx_graphs::Digraph;
    pub use cqapx_structures::{Pointed, Structure, Vocabulary};
}
