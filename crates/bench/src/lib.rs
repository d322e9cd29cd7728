//! Fixtures, test oracles and the paper-figure benches of the workspace.
//!
//! * [`workloads`] — query suites and seeded database generators, shared by
//!   the tests of this crate, the root package's tests and the benches;
//! * [`baseline`] — the frozen seed homomorphism engine and the exhaustive
//!   approximation pipeline on top of it, the oracles of
//!   `tests/hom_differential.rs` and the evaluation harness;
//! * [`reference`](mod@reference) — the nested-loop reference join the kernel
//!   differentials compare `multiway_join` with.
//!
//! The benches in `benches/` time the paper's figures and constructions
//! (Figure 1, the trichotomy, Propositions 4.4 and 5.6, Corollary 5.11,
//! §6 and the Theorem 4.12 gadgets). The paper's results themselves are
//! asserted by `cargo test` (the root package's `tests/paper.rs` and the
//! crates' own tests); end-to-end performance is `cqbench`'s.

pub mod baseline;
pub mod reference;
pub mod workloads;
