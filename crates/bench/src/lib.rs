//! Workloads and experiment drivers regenerating every table and figure
//! of the paper.
//!
//! Each `exp_*` function is one experiment from the index in `DESIGN.md`
//! (E1–E11, E13); the `report` binary prints them in paper-shaped tables, and
//! the Criterion benches in `benches/` measure the hot paths. The paper
//! is a theory paper: its "figures" are constructions and its single
//! table (Figure 1) summarizes existence/size/time guarantees — so the
//! experiments validate shapes (who exists, what size, which growth), not
//! absolute wall-clock numbers.

pub mod baseline;
pub mod experiments;
pub mod reference;
pub mod workloads;

pub use experiments::*;
