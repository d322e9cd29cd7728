//! **cqapx-engine** — a cached, planned, parallel query-serving
//! subsystem over the approximation pipeline.
//!
//! The paper (Barceló–Libkin–Romero, PODS 2012) makes intractable CQs
//! cheap via `C`-approximations; this crate makes that *operational*: a
//! stateful engine that amortizes the single-exponential approximation
//! search across requests, picks an evaluation strategy per
//! (query, database) pair from relation statistics, and serves batches
//! in parallel.
//!
//! ```text
//!              ┌────────────────────────────────────────────────┐
//!              │                  cqapx-engine                  │
//!  prepare(Q)  │   ┌─────────┐    register_database(D)          │
//!  ───────────►│   │ Catalog │◄───────────────────────────────  │
//!              │   └────┬────┘  QueryShape (acyclic? tw?)       │
//!              │        │       RelationStats (|R|, distinct)   │
//!              │        ▼                                       │
//!  execute /   │   ┌─────────┐  acyclic       → Yannakakis      │
//!  batch ─────►│   │ Planner │  bounded tw    → decomposed      │
//!              │   └────┬────┘  cheap here    → naive join      │
//!              │        │       else          → sandwich        │
//!              │        │ (sandwich)                            │
//!              │        ▼                                       │
//!              │   ┌─────────────┐ key: iso signature + class,  │
//!              │   │ ApproxCache │ one flight per iso class     │
//!              │   └────┬────────┘ value: ApproxReport + plans  │
//!              │        ▼                                       │
//!              │   scoped worker threads, per-request deadline  │
//!              │   → Response {answers, status} + EngineStats   │
//!              └────────────────────────────────────────────────┘
//! ```
//!
//! The **sandwich** plan is the paper's program: serve the *certain*
//! answers `Q'(D) ⊆ Q(D)` of the cached in-class approximation `Q'`
//! immediately (tractable to evaluate), and refine to exact answers only
//! on demand, by a full bounded join ([`EvalMode::Exact`]).
//!
//! Entry points: [`Engine`], [`Request`], [`EngineConfig`]; the pieces
//! ([`catalog::Catalog`], [`cache::ApproxCache`], [`planner`]) are public
//! for direct use and testing.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod catalog;
pub mod engine;
#[doc(hidden)]
pub mod frozen;
pub mod planner;

pub use cache::{ApproxCache, ApproxPlan, CachedApproximation};
pub use catalog::{Catalog, DatabaseEntry, DbId, PreparedQuery, QueryId, RelationStats};
pub use cqapx_cq::eval::{AnswerRow, Answers};
pub use cqapx_metrics::{HistogramSnapshot, MetricsLevel};
pub use engine::{
    Engine, EngineConfig, EngineStats, EvalMode, Request, Response, ResponseStatus, StatsSnapshot,
    DEGRADE_MIN_SAMPLES,
};
pub use frozen::*;
pub use planner::{PlanDecision, PlanKind, PlanReason};
