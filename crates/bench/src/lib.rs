//! Fixtures and test oracles of the workspace.
//!
//! * [`workloads`] — query suites and seeded database generators, shared by
//!   the tests of this crate and the root package's tests;
//! * [`baseline`] — the frozen seed homomorphism engine and the exhaustive
//!   approximation pipeline on top of it, the oracles of
//!   `tests/hom_differential.rs` and the evaluation harness;
//! * [`reference`](mod@reference) — the nested-loop reference join the kernel
//!   differentials compare `multiway_join` with.
//!
//! The paper's results are asserted by `cargo test` (the root package's
//! `tests/paper.rs` and the crates' own tests); timing them, and the
//! serving stack end to end, is `cqbench`'s job.

pub mod baseline;
pub mod reference;
pub mod workloads;
