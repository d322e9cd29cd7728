//! Relational structures, homomorphisms, cores and quotients.
//!
//! This crate is the substrate for the whole `cq-approx` workspace: the
//! PODS 2012 paper *Efficient Approximations of Conjunctive Queries*
//! (Barceló, Libkin & Romero) works throughout with **tableaux of queries**
//! — finite relational structures, possibly with a tuple of distinguished
//! elements — and characterizes approximations via preorders based on the
//! existence of **homomorphisms**.
//!
//! The main types are:
//!
//! * [`Vocabulary`] — a database schema: named relations with arities.
//! * [`Structure`] — a finite relational structure (database) over a
//!   vocabulary, with elements `0..n` and optional display names.
//! * [`Pointed`] — a structure together with a tuple of distinguished
//!   elements `(D, ā)`, the shape of a tableau of a non-Boolean query.
//! * [`index`] — per-structure inverted indexes over tuples, built once
//!   per [`Structure`] (lazily, shared by clones) and consumed by every
//!   hom search against it.
//! * [`solver`] — the propagation-based homomorphism engine:
//!   [`HomSolver`] compiles a source once for reuse against many targets
//!   and variants, maintains generalized arc consistency with an AC-3
//!   worklist over table constraints, and honors shared [`SearchBudget`]
//!   step counters for cooperative cancellation.
//! * [`hom`] — the facade: [`Homomorphism`] witnesses and the one-shot
//!   [`HomProblem`] builder (pinned elements, injectivity, excluded
//!   target elements, all-solutions enumeration), all routed through the
//!   solver.
//! * [`core_ops`] — cores and retracts (`core(D)` — every structure has a
//!   unique core up to isomorphism).
//! * [`mod@quotient`] + [`partition`] — homomorphic images of a structure are
//!   exactly its quotients by partitions of the domain; enumeration of
//!   partitions drives the approximation algorithms of the paper.
//! * [`order`] — the homomorphism preorder `→` and the strict variant
//!   `D ⥛ D'` (written `upslope` in the paper: `D → D'` but `D' ↛ D`).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bitmap;
pub mod core_ops;
pub mod dict;
pub mod dot;
pub mod fxhash;
pub mod hom;
pub mod index;
pub mod iso;
pub mod order;
pub mod packed;
pub mod partition;
pub mod pointed;
pub mod quotient;
pub mod solver;
pub mod structure;
pub mod vocabulary;

pub use bitmap::DomainBitmap;
pub use core_ops::{core_of, is_core, CoreResult};
pub use dict::DomainDict;
pub use hom::{HomProblem, HomSearchStats, Homomorphism};
pub use index::{RelIndex, StructureIndex};
pub use iso::{isomorphic, signature_pointed, IsoSignature};
pub use order::{hom_equivalent, hom_exists, strictly_below};
pub use partition::Partition;
pub use pointed::Pointed;
pub use quotient::quotient;
pub use solver::{HomRun, HomSolver, SearchBudget};
pub use structure::{Element, Structure, StructureBuilder};
pub use vocabulary::{RelId, Vocabulary};
