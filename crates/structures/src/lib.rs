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
//!   vocabulary, with elements `0..n` and an optional [`Names`] table.
//! * [`Pointed`] — a structure together with a tuple of distinguished
//!   elements `(D, ā)`, the shape of a tableau of a non-Boolean query.
//! * [`index`] — per-structure inverted indexes over tuples, built once
//!   per [`Structure`] (lazily, shared by clones) and consumed by every
//!   hom search against it.
//! * [`solver`] — the propagation-based homomorphism engine and its one
//!   builder: [`HomSolver::compile`] compiles a source once, and each
//!   [`HomSolver::run`] against a target returns a [`HomRun`] to
//!   configure (pinned elements, excluded target elements, injectivity,
//!   a shared [`SearchBudget`]) and execute (`find`, `exists`,
//!   `for_each`, `count`). It maintains generalized arc consistency with
//!   an AC-3 worklist over table constraints.
//! * [`hom`] — [`Homomorphism`] witnesses and [`HomSearchStats`].
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
#[doc(hidden)]
pub mod frozen;
pub mod fxhash;
pub mod hom;
pub mod index;
pub mod iso;
pub mod names;
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
pub use frozen::signature_pointed;
pub use hom::{HomSearchStats, Homomorphism};
pub use index::StructureIndex;
pub use names::Names;
pub use order::{hom_equivalent, hom_exists};
pub use partition::Partition;
pub use pointed::Pointed;
pub use quotient::quotient;
pub use solver::{HomRun, HomSolver, SearchBudget};
pub use structure::{Element, Structure, StructureBuilder};
pub use vocabulary::{RelId, Vocabulary};
