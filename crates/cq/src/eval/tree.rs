//! Yannakakis' algorithm over a tree, compiled to the shared plan IR
//! over the columnar join kernel: one [`TreePlan`] for the paper's
//! tractable targets, an acyclic query over a **join tree** of its
//! hyperedges (`O(|D| · |Q|)`, Yannakakis VLDB'81) and a query whose
//! graph `G(Q)` has treewidth `≤ k` over the bags of a **tree
//! decomposition** (each bag at most `adom^(k+1)` rows). The plan's width
//! is the only record of which: `None` for a join tree, `Some(w)` for a
//! width-`w` decomposition.
//!
//! A join tree ([`TreePlan::join_tree`]) has one node per hyperedge:
//! the atoms over one variable set, a single-part [`MatSource`] with its
//! cache key. A decomposition ([`TreePlan::within_width`], exact and
//! deterministic, [`TreePlan::from_decomposition`] or
//! [`TreePlan::rooted`]) puts every atom in **every bag containing its
//! variables** (they form a clique of `G(Q)`, so some bag covers them),
//! and each bag is materialized as the join of its atom groups by the
//! one worst-case-optimal bag kernel, `MatKey`-cached and shared across
//! plans like a hyperedge.
//!
//! Either rooted tree goes to [`compile_tree`]: the materializations,
//! the full-reducer semijoin sweeps (leaves → root → leaves, with
//! emptiness assertions) and, for free variables, bottom-up joins
//! projected onto (free ∪ connector) variables. A join tree's labels
//! *are* its hyperedge schemas, so the reducer alone decides a Boolean
//! query. A bag may hold *connector* variables none of its atoms
//! constrain (a width-2 decomposition of `C₆` has them), which breaks
//! the running intersection that makes the reducer complete: the sweeps
//! are then a sound prefilter and the join phase, keyed by the bags,
//! decides ([`PlanIr::reduction_decides`]). Evaluation is one
//! interpreter pass of [`PlanIr`], [`PlanIr::answers`] or
//! [`PlanIr::run_boolean`] on [`TreePlan::ir`].

use crate::ast::{Atom, ConjunctiveQuery, VarId};
use crate::classes::query_graph;
use crate::eval::ir::{compile_tree, MatSource, NodeSpec, PlanIr};
use cqapx_graphs::treewidth::{
    component_decomposition, treewidth_at_most, RootedDecomposition, TreeDecomposition,
};
use cqapx_hypergraphs::{gyo, Hypergraph};
use std::cmp::Reverse;

/// A compiled Yannakakis plan over a join tree or a tree decomposition.
///
/// # Examples
///
/// ```
/// use cqapx_cq::{eval::TreePlan, parse_cq};
/// use cqapx_structures::Structure;
///
/// let q = parse_cq("Q(x, w) :- E(x, y), E(y, z), E(z, w)").unwrap();
/// let plan = TreePlan::join_tree(&q).unwrap();
/// assert_eq!(plan.width(), None);
/// let d = Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]);
/// let (answers, _) = plan.ir().answers(&d, None);
/// assert_eq!(answers.len(), 1);
/// assert!(answers.contains(&vec![0, 3]));
/// ```
#[derive(Debug, Clone)]
pub struct TreePlan {
    ir: PlanIr,
    /// `None` for a join tree, else the decomposition's width.
    width: Option<usize>,
    /// Each bag's size, in bag order; empty for a join tree.
    bag_sizes: Vec<usize>,
}

impl TreePlan {
    /// Compiles `query` over a GYO join tree of its hyperedges; `None`
    /// when the query hypergraph is cyclic. The tree is rooted at the
    /// node holding most head variables or, for a Boolean query, where
    /// the fewest children hand their parent anything but column 0 of
    /// their schema, ties keeping GYO's root: a Boolean directed path is
    /// rooted at an end, and where every vertex has an out-edge each
    /// node hands on its cached column bitmap unread.
    pub fn join_tree(query: &ConjunctiveQuery) -> Option<TreePlan> {
        // Group indices are `Hypergraph`'s edge indices: it dedups in order.
        let atoms = grouped(query, 0);
        let groups = || atoms.chunk_by(|a, b| a.same_vars(*b));
        let h = Hypergraph::from_edges(query.var_count(), groups().map(|g| g[0].args));
        let join_tree = gyo::gyo_reduce(&h)?;

        let mut nodes: Vec<NodeSpec> = Vec::with_capacity(h.edge_count());
        nodes.extend(groups().map(|atoms| NodeSpec { atoms, label: None }));
        debug_assert_eq!(h.edge_count(), nodes.len());

        let mut order = join_tree.bottom_up_order();
        let mut parent = join_tree.parent;
        choose_roots(&nodes, &mut parent, &mut order, query.free_vars());
        let ir = compile_tree(&nodes, &parent, &order, query.free_vars());
        let (width, bag_sizes) = (None, Vec::new());
        Some(TreePlan {
            ir,
            width,
            bag_sizes,
        })
    }

    /// Compiles `query` over a width-`≤ k` tree decomposition of `G(Q)`
    /// ([`TreePlan::from_decomposition`]); `None` when the treewidth
    /// exceeds `k`.
    ///
    /// ```
    /// use cqapx_cq::{eval::TreePlan, parse_cq};
    /// use cqapx_structures::Structure;
    ///
    /// let q = parse_cq("Q(x) :- E(x,y), E(y,z), E(z,x)").unwrap();
    /// assert!(TreePlan::join_tree(&q).is_none());
    /// let plan = TreePlan::within_width(&q, 2).unwrap();
    /// assert_eq!(plan.width(), Some(2));
    /// let d = Structure::digraph(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
    /// let (answers, _) = plan.ir().answers(&d, None);
    /// assert_eq!(answers.len(), 3); // x ∈ {0, 1, 2}
    /// ```
    pub fn within_width(query: &ConjunctiveQuery, k: usize) -> Option<TreePlan> {
        let td = treewidth_at_most(&query_graph(query), k)?;
        Some(Self::from_decomposition(query, td))
    }

    /// Compiles `query` over a tree decomposition of `G(Q)` someone has
    /// already searched for — a prepared query's shape carries the one
    /// its treewidth was read from.
    ///
    /// The decomposition is [reduced] first — a bag inside a neighbour
    /// costs a materialization, two semijoins and a join and constrains
    /// nothing — and rooted at a bag of minimum height, ties going to
    /// the bag with most head variables, then the lowest index: every
    /// level below the root is one more join whose fan-out multiplies
    /// the partial carried up, while a root with many children is
    /// still one multiway join, and rooting at the head's bag only
    /// spares carrying the head (and is the deepest root there is when
    /// that bag is a leaf).
    ///
    /// [reduced]: TreeDecomposition::reduced
    pub fn from_decomposition(query: &ConjunctiveQuery, td: TreeDecomposition) -> TreePlan {
        let td = td.reduced();
        // One scratch serves the heights and the rooting.
        let mut scratch = Vec::with_capacity(4 * td.bag_count());
        let heights = td.heights(&mut scratch);
        let free = query.free_vars();
        let head = |b: usize| free.iter().filter(|&&v| td.contains(b, v)).count();
        let root = (0..td.bag_count())
            .min_by_key(|&b| (heights[b], Reverse(head(b)), b))
            .expect("a decomposition has at least one bag");
        let r = td.rooted_at(root, &mut scratch);
        Self::over(query, td, r)
    }

    /// Compiles `query` over `td`, a tree decomposition of `G(Q)` a
    /// search found ([`TreePlan::from_decomposition`]), or, when the
    /// search certified none — a component past the 64-vertex rule —
    /// over one bag per connected component of `G(Q)`, each bag joined
    /// to the next. So every query has a tree plan.
    pub fn over_decomposition(query: &ConjunctiveQuery, td: Option<TreeDecomposition>) -> TreePlan {
        let td = td.unwrap_or_else(|| component_decomposition(&query_graph(query)));
        Self::from_decomposition(query, td)
    }

    /// Compiles `query` over a given tree decomposition of `G(Q)` rooted
    /// at bag `root`; every root of every valid decomposition computes
    /// the same answers. Panics when `td` is not a tree over its bags,
    /// `root` is not one of them, or some atom's variables lie in no bag.
    pub fn rooted(query: &ConjunctiveQuery, td: TreeDecomposition, root: usize) -> TreePlan {
        let r = td.rooted_at(root, &mut Vec::new());
        Self::over(query, td, r)
    }

    /// Compiles `query` over `td` oriented as `r`.
    fn over(query: &ConjunctiveQuery, td: TreeDecomposition, r: RootedDecomposition) -> TreePlan {
        let bags = 0..td.bag_count();
        let width = Some(td.width());
        let bag_sizes = bags.clone().map(|b| td.bag_len(b)).collect();
        // Each atom goes to every bag covering its variable set, a bag's
        // atoms grouped by variable set, one part each; a connector bag
        // covering no atom gets the "true" relation. One buffer holds the
        // atoms grouped once, then each bag's, filtered from them.
        let covers = |b: usize, a: Atom| a.args.iter().all(|&v| td.contains(b, v));
        let in_bag = |b: usize| query.atoms().filter(|&a| covers(b, a)).count();
        assert!(
            query.atoms().all(|a| bags.clone().any(|b| covers(b, a))),
            "every atom's variable clique must lie in some bag"
        );
        let m = query.atom_count();
        let mut atoms = grouped(query, bags.clone().map(in_bag).sum());
        for (b, i) in bags.clone().flat_map(|b| (0..m).map(move |i| (b, i))) {
            if covers(b, atoms[i]) {
                atoms.push(atoms[i]);
            }
        }
        let mut rest = &atoms[m..];
        let nodes: Vec<NodeSpec> = bags
            .map(|b| {
                let (atoms, tail) = rest.split_at(in_bag(b));
                rest = tail;
                NodeSpec {
                    atoms,
                    label: Some(td.row(b)),
                }
            })
            .collect();
        TreePlan {
            ir: compile_tree(&nodes, &r.parent, &r.order, query.free_vars()),
            width,
            bag_sizes,
        }
    }

    /// The width of the decomposition the plan evaluates over; `None`
    /// for a join tree.
    pub fn width(&self) -> Option<usize> {
        self.width
    }

    /// The compiled IR program.
    pub fn ir(&self) -> &PlanIr {
        &self.ir
    }

    /// Per-bag cost-model inputs of a decomposition, in bag order: the
    /// bag's size and the source materialized for it, whose parts carry
    /// their relations and cache keys. None for a join tree.
    pub fn bags(&self) -> impl Iterator<Item = (usize, &MatSource)> {
        // The program materializes bag `i` first, into slot `i`.
        (self.bag_sizes.iter().copied()).zip(self.ir.materialize_sources())
    }
}

/// The compiled program, moved out of its plan.
impl From<TreePlan> for PlanIr {
    fn from(plan: TreePlan) -> PlanIr {
        plan.ir
    }
}

/// The atoms of `query` grouped by variable set, with no sort: the sets
/// in the order of their first atoms, each in body order; the buffer has
/// room for `more` atoms besides.
fn grouped(query: &ConjunctiveQuery, more: usize) -> Vec<Atom<'_>> {
    let (m, at) = (query.atom_count(), |i| query.atom(i));
    let firsts = (0..m).filter(|&i| !(0..i).any(|j| at(j).same_vars(at(i))));
    let mut atoms = Vec::with_capacity(m + more);
    atoms.extend(firsts.flat_map(|i| (i..m).map(at).filter(move |b| b.same_vars(at(i)))));
    atoms
}

/// Re-roots each tree of the join forest `parent` (`order` lists
/// children before parents) at the node holding the most head variables
/// `free` or, on a Boolean tree, at the node with the fewest *off-lead*
/// edges; ties keep the given root. An edge is off-lead when the child
/// hands its parent anything but exactly column 0 of its schema: the
/// live-value sweep closes a run at its first live row only on column
/// 0, and a child with no filter hands on its cached column-0 bitmap
/// unread. Walks the parent pointers and allocates nothing; when a root
/// moves, the nodes on the reversed path go to the end of `order`, old
/// root first.
pub(super) fn choose_roots(
    nodes: &[NodeSpec],
    parent: &mut [Option<usize>],
    order: &mut Vec<usize>,
    free: &[VarId],
) {
    // A node's schema: the distinct arguments of its first atom (its
    // atoms share one variable set); column 0 is the least.
    let schema = |u: usize| {
        let args = nodes[u].atoms[0].args;
        (args.iter().enumerate()).filter_map(|(i, v)| (!args[..i].contains(v)).then_some(v))
    };
    let off_lead = |child: usize, parent: usize| {
        let p = nodes[parent].atoms[0].args;
        let shared = schema(child).filter(|v| p.contains(v)).count();
        shared != 1 || schema(child).min().is_none_or(|lead| !p.contains(lead))
    };
    // `u`'s root, and the cost of rooting at `u`: the head variables it
    // holds, negated, or the off-lead edges it adds to the root's.
    let walk = |parent: &[Option<usize>], u: usize| {
        let (mut c, mut more) = (u, 0isize);
        while let Some(p) = parent[c] {
            more += off_lead(p, c) as isize - off_lead(c, p) as isize;
            c = p;
        }
        let held = schema(u).filter(|v| free.contains(v)).count();
        (
            c,
            if free.is_empty() {
                more
            } else {
                -(held as isize)
            },
        )
    };
    for r in 0..parent.len() {
        if parent[r].is_some() {
            continue;
        }
        let (mut best, mut least) = (r, walk(parent, r).1);
        for &u in order.iter() {
            match walk(parent, u) {
                (root, cost) if root == r && cost < least => (best, least) = (u, cost),
                _ => {}
            }
        }
        if best == r {
            continue;
        }
        order.retain(|&u| std::iter::successors(Some(best), |&c| parent[c]).all(|c| c != u));
        let moved = order.len();
        let (mut prev, mut cur) = (None, Some(best));
        while let Some(c) = cur {
            cur = std::mem::replace(&mut parent[c], prev);
            prev = Some(c);
            order.push(c);
        }
        order[moved..].reverse();
    }
}
