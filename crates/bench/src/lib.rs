//! Fixtures and test oracles: [`workloads`] (query suites and seeded
//! databases), [`definitions`] (homomorphisms, cores and approximations
//! from their definitions) and [`reference`](mod@reference) (the
//! reference join). Timing is `cqbench`'s job.

pub mod definitions;
/// The workspace's one reference join. The file is std-only, so that
/// `cqapx-cq`'s unit tests `include!` it too.
pub mod reference;
pub mod workloads;
