//! The cost-based planner: picks an evaluation strategy per
//! (prepared query, registered database) pair.
//!
//! Every prepared query has one [`TreePlan`], so the ladder has three
//! tiers:
//!
//! 1. **Yannakakis** — the query is acyclic: `O(|D|·|Q|)` over its join
//!    tree, always best; nothing is estimated.
//! 2. **Decomposed** — the query is cyclic and the estimated
//!    bag-materialization cost of its decomposition fits the budget on
//!    *this* database: Yannakakis over the bags, by the one
//!    worst-case-optimal bag kernel.
//! 3. **Approximation sandwich** — everything else: serve the certain
//!    answers `Q'(D)` of the cached `C`-approximation `Q' ⊆ Q`
//!    (guaranteed-correct under-approximation, tractable to evaluate),
//!    refining exactly only on demand.

use crate::catalog::DatabaseEntry;
use cqapx_cq::eval::TreePlan;
use cqapx_cq::QueryShape;
use std::fmt;

/// The strategy chosen for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Yannakakis over a join tree: the prepared `TreePlan` of width `None`.
    Yannakakis,
    /// Yannakakis over the bags of a tree decomposition, the prepared
    /// `TreePlan` of width `Some(w)`: the tree tier of cyclic queries.
    Decomposed,
    /// Never chosen: the backtracking join serves no request. Kept
    /// only because the frozen `cqbench` names it.
    Naive,
    /// Certain answers from the cached in-class approximation.
    Sandwich,
    /// Not an evaluation strategy: nothing was served — admission
    /// control rejected the request before planning (see
    /// [`ResponseStatus::Shed`](crate::engine::ResponseStatus::Shed)),
    /// or it failed. Never chosen by the planner.
    Shed,
}

impl fmt::Display for PlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlanKind::Yannakakis => "yannakakis",
            PlanKind::Decomposed => "decomposed",
            PlanKind::Naive => "naive",
            PlanKind::Sandwich => "sandwich",
            PlanKind::Shed => "shed",
        })
    }
}

/// Why the planner picked its tier. The variant is the decision; the
/// numbers it cites live in the surrounding [`PlanDecision`], so
/// rendering the human-readable rationale (`PlanDecision::describe`)
/// is deferred until somebody asks — the serving hot path never
/// formats a `String`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanReason {
    /// The query is acyclic: Yannakakis, always.
    Acyclic,
    /// Cyclic, and its decomposition's estimate fits the budget.
    DecomposedFits,
    /// Cyclic and expensive here: certain answers via the cached
    /// approximation.
    SandwichExpensive,
    /// Not planned at all: admission control shed the request at a
    /// queue depth of `.0` against a configured limit of `.1`. (Built
    /// by the engine, never chosen by the planner.)
    QueueFull(usize, usize),
    /// Not planned to the end: the request failed (see
    /// [`ResponseStatus::Failed`](crate::engine::ResponseStatus::Failed)).
    Failed,
}

/// A plan choice with its cost rationale.
#[derive(Debug, Clone)]
pub struct PlanDecision {
    /// The chosen strategy.
    pub kind: PlanKind,
    /// Estimated cost of the decomposed tier (total bag-materialization
    /// rows); `None` for an acyclic query, which is not estimated, and
    /// without a tree plan.
    pub est_decomposed_cost: Option<f64>,
    /// Width of the query's compiled tree decomposition, whether or not
    /// that tier was chosen; `None` for a join tree.
    pub decomposition_width: Option<usize>,
    /// The budget the estimate was compared against.
    pub naive_budget: f64,
    /// The decision, cheap to copy; see `PlanDecision::describe` for
    /// the rendered rationale.
    pub reason: PlanReason,
}

impl PlanDecision {
    /// Renders the one-line human-readable rationale. Deliberately a
    /// method, not a stored `String`: requests that nobody inspects
    /// never pay for formatting.
    pub(crate) fn describe(&self) -> String {
        let est = self.est_decomposed_cost.unwrap_or(f64::INFINITY);
        match self.reason {
            PlanReason::Acyclic => "query is acyclic: Yannakakis is O(|D|·|Q|)".into(),
            PlanReason::DecomposedFits => format!(
                "cyclic with treewidth {}: est. {est:.1e} bag rows ≤ budget {:.1e}",
                self.decomposition_width.unwrap_or(0),
                self.naive_budget,
            ),
            PlanReason::SandwichExpensive => format!(
                "cyclic and expensive here (est. {est:.1e} bag rows > budget {:.1e}): serving certain answers via the cached approximation",
                self.naive_budget,
            ),
            PlanReason::QueueFull(depth, limit) => format!(
                "admission control: queue depth {depth} over limit {limit}; request shed unplanned"
            ),
            PlanReason::Failed => "the request failed: nothing was served".into(),
        }
    }
}

/// Estimated evaluation cost of a compiled decomposition [`TreePlan`]
/// on this database: the summed per-bag materialization estimates, each the
/// minimum of the product of its parts' cardinalities and the
/// `adom^|bag|` assignment bound. Part cardinalities prefer the real
/// cached materialization over raw relation statistics, so the estimate
/// tightens as the cache warms. An empty part makes its bag free (the
/// whole answer is provably empty).
pub(crate) fn estimate_decomposed_cost(plan: &TreePlan, db: &DatabaseEntry) -> f64 {
    let (adom, ir) = (db.adom_size.max(1) as f64, plan.ir());
    let keys = (plan.bags()).flat_map(|(_, bag)| ir.parts(bag).iter().map(|p| ir.words(p.key)));
    let cached = db.materialized.peek_cardinalities(keys);
    let mut total = 0.0_f64;
    let mut base = 0usize; // this bag's first entry in `cached`
    for (size, bag) in plan.bags() {
        let bound = adom.powi(size.min(1_000) as i32);
        let mut rows = 1.0_f64;
        for (pi, part) in ir.parts(bag).iter().enumerate() {
            // Raw statistics: the relation of the part's first atom.
            let raw = || db.rel_stats(ir.binders(part)[0].rel()).cardinality;
            rows *= cached[base + pi].unwrap_or_else(raw) as f64;
            if rows == 0.0 || !rows.is_finite() {
                break;
            }
        }
        base += bag.parts.len();
        total += rows.min(bound);
        if !total.is_finite() {
            break;
        }
    }
    total
}

/// Chooses the strategy for `shape` against `db`, with `naive_budget`
/// bounding the estimated bag rows the decomposed tier may cost. `tree`
/// is the prepared query's tree plan: its join tree when `shape` is
/// acyclic, else a decomposition, whose width the decision reports. A
/// cyclic query without one goes to the sandwich.
pub(crate) fn choose(
    shape: &QueryShape,
    tree: Option<&TreePlan>,
    db: &DatabaseEntry,
    naive_budget: f64,
) -> PlanDecision {
    let mut decision = PlanDecision {
        kind: PlanKind::Yannakakis,
        est_decomposed_cost: None,
        decomposition_width: tree.and_then(TreePlan::width),
        naive_budget,
        reason: PlanReason::Acyclic,
    };
    if shape.acyclic {
        return decision;
    }
    decision.est_decomposed_cost = tree.map(|p| estimate_decomposed_cost(p, db));
    (decision.kind, decision.reason) = match decision.est_decomposed_cost {
        Some(est) if est <= naive_budget => (PlanKind::Decomposed, PlanReason::DecomposedFits),
        _ => (PlanKind::Sandwich, PlanReason::SandwichExpensive),
    };
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_cq::parse_cq;
    use cqapx_structures::Structure;

    fn shape(q: &str) -> QueryShape {
        QueryShape::of(&parse_cq(q).unwrap())
    }

    fn dec(q: &str) -> TreePlan {
        let q = parse_cq(q).unwrap();
        let k = cqapx_cq::treewidth_of_query(&q);
        TreePlan::within_width(&q, k).unwrap()
    }

    fn db(n: usize, edges: &[(u32, u32)]) -> DatabaseEntry {
        DatabaseEntry::build("d", Structure::digraph(n, edges))
    }

    #[test]
    fn acyclic_always_yannakakis() {
        let s = shape("Q(x) :- E(x,y), E(y,z)");
        let d = db(3, &[(0, 1), (1, 2)]);
        assert_eq!(choose(&s, None, &d, 1e6).kind, PlanKind::Yannakakis);
        assert_eq!(choose(&s, None, &d, 0.0).kind, PlanKind::Yannakakis);
        let join_tree = TreePlan::join_tree(&parse_cq("Q(x) :- E(x,y), E(y,z)").unwrap()).unwrap();
        let p = choose(&s, Some(&join_tree), &d, 0.0);
        assert_eq!(
            (p.kind, p.decomposition_width),
            (PlanKind::Yannakakis, None)
        );
    }

    #[test]
    fn cyclic_with_decomposition_goes_decomposed() {
        let q = "Q() :- E(x,y), E(y,z), E(z,x)";
        let s = shape(q);
        let plan = dec(q);
        let d = db(3, &[(0, 1), (1, 2), (2, 0)]);
        let p = choose(&s, Some(&plan), &d, 1e6);
        assert_eq!(p.kind, PlanKind::Decomposed);
        assert_eq!(p.decomposition_width, Some(2));
        assert!(p.est_decomposed_cost.unwrap() <= 27.0 + 1e-9);
    }

    #[test]
    fn cyclic_without_decomposition_goes_sandwich() {
        let s = shape("Q() :- E(x,y), E(y,z), E(z,x)");
        let d = db(3, &[(0, 1), (1, 2), (2, 0)]);
        let p = choose(&s, None, &d, 1e6);
        assert_eq!(p.kind, PlanKind::Sandwich);
        assert_eq!((p.decomposition_width, p.est_decomposed_cost), (None, None));
    }

    #[test]
    fn cyclic_large_db_goes_sandwich() {
        let s = shape("Q() :- E(x,y), E(y,z), E(z,x)");
        let d = db(3, &[(0, 1), (1, 2), (2, 0)]);
        let p = choose(&s, None, &d, 10.0);
        assert_eq!(p.kind, PlanKind::Sandwich);
        // With a decomposition whose estimate also exceeds the budget,
        // still sandwich.
        let q = "Q() :- E(x,y), E(y,z), E(z,x)";
        let p = choose(&s, Some(&dec(q)), &d, 10.0);
        assert_eq!(p.kind, PlanKind::Sandwich);
        assert!(p.est_decomposed_cost.is_some());
    }

    /// A 4-cycle with a loop atom `E(x, x)` in both of its bags: the raw
    /// relation statistic counts every edge, the materialized hyperedge
    /// only the loops, so a warm cache tightens the estimate.
    #[test]
    fn planner_reads_cached_cardinalities() {
        let mut edges: Vec<(u32, u32)> = (0..20u32).map(|i| (i, (i + 1) % 20)).collect();
        edges.push((0, 0)); // a single loop
        let d = db(20, &edges);
        let q = "Q(x) :- E(x, x), E(x, y), E(y, z), E(z, w), E(w, x)";
        let (s, tree) = (shape(q), dec(q));
        let cold = choose(&s, Some(&tree), &d, 1e6)
            .est_decomposed_cost
            .unwrap();
        tree.ir().answers(&d.structure, Some(&d.materialized));
        let warm = choose(&s, Some(&tree), &d, 1e6)
            .est_decomposed_cost
            .unwrap();
        assert!(warm < cold, "warm estimate {warm} should beat cold {cold}");
    }

    #[test]
    fn estimates_use_relation_stats() {
        // 2 tuples → part bound 2^3 = 8 beats adom^3 = 27.
        let q = "Q() :- E(x,y), E(y,z), E(z,x)";
        let d = db(3, &[(0, 1), (1, 2)]);
        assert!(estimate_decomposed_cost(&dec(q), &d) <= 8.0 + 1e-9);
    }

    /// An empty relation makes every bag free: the answer is provably
    /// empty, and the tree tier finds it so at once, within any budget.
    #[test]
    fn empty_relation_costs_nothing_on_the_tree_tier() {
        let q = "Q() :- E(x,y), E(y,z), E(z,x)";
        let d = db(3, &[]);
        let p = choose(&shape(q), Some(&dec(q)), &d, 0.0);
        assert_eq!(
            (p.kind, p.est_decomposed_cost),
            (PlanKind::Decomposed, Some(0.0))
        );
        assert_eq!(p.reason, PlanReason::DecomposedFits);
    }

    #[test]
    fn describe_renders_the_cited_numbers() {
        let q = "Q() :- E(x,y), E(y,z), E(z,x)";
        let (s, plan) = (shape(q), dec(q));
        let d = db(3, &[(0, 1), (1, 2), (2, 0)]);
        let p = choose(&s, Some(&plan), &d, 1.0);
        assert_eq!(p.reason, PlanReason::SandwichExpensive);
        let text = p.describe();
        assert!(text.contains("budget 1.0e0"), "text: {text}");
        let p = choose(&s, Some(&plan), &d, 1e6);
        assert_eq!(p.reason, PlanReason::DecomposedFits);
        assert!(p.describe().contains("treewidth 2"));
    }

    #[test]
    fn decomposed_estimate_survives_empty_cached_part() {
        // A loop atom inside a cycle: on a loop-free database the
        // E(x,x)-shaped part materializes EMPTY, so the bag holding it
        // short-circuits to zero rows mid-bag. The estimates of every
        // *later* bag must still read their own cached cardinalities
        // (regression: an early break used to desynchronize the shared
        // peek list and pair later bags with leftover entries).
        let q = parse_cq("Q() :- E(x,x), E(x,y), E(y,z), E(z,x)").unwrap();
        let plan = TreePlan::within_width(&q, cqapx_cq::treewidth_of_query(&q)).unwrap();
        let edges: Vec<(u32, u32)> = (0..20u32).map(|i| (i, (i + 1) % 20)).collect();
        let d = db(20, &edges);
        // Warm the cache (materializes every bag and part, including
        // the empty loop part).
        let (answers, stats) = plan.ir().answers(&d.structure, Some(&d.materialized));
        assert!(answers.is_empty() && stats.misses > 0);
        let est = estimate_decomposed_cost(&plan, &d);
        // Independent recomputation from the same public inputs, one
        // peek per part, strictly per bag.
        let adom = d.adom_size as f64;
        let mut expected = 0.0_f64;
        for (size, bag) in plan.bags() {
            let mut rows = 1.0_f64;
            let ir = plan.ir();
            for part in ir.parts(bag) {
                let card = d.materialized.peek_cardinalities([ir.words(part.key)])[0]
                    .unwrap_or_else(|| d.rel_stats(ir.binders(part)[0].rel()).cardinality);
                rows *= card as f64;
            }
            expected += rows.min(adom.powi(size as i32));
        }
        assert_eq!(est, expected);
    }

    #[test]
    fn decomposed_estimate_caps_at_assignment_bound() {
        let q = "Q() :- E(x,y), E(y,z), E(z,x)";
        let plan = dec(q);
        // Dense-ish db: the product of three edge relations would be
        // m^3, but the bag bound is adom^3.
        let edges: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|u| (0..6u32).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        let d = db(6, &edges);
        let est = estimate_decomposed_cost(&plan, &d);
        let bags = plan.bags().count() as f64;
        assert!(est <= bags * 6f64.powi(3) + 1e-9, "est {est} too high");
        assert!(est > 0.0);
    }
}
