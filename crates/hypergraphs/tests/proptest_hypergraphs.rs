//! Property-based tests for the hypergraph algorithms, centred on the
//! paper's Lemma 6.4 closure properties, and a differential test of the
//! bit-row GYO reduction and det-k-decomp against their sorted-set
//! versions ([`oracle`]), on rows of one word and of several.

use cqapx_hypergraphs::{gyo, htw, Hypergraph};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;

fn hypergraph_strategy(
    max_n: usize,
    max_edges: usize,
    max_arity: usize,
) -> impl Strategy<Value = Hypergraph> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec(
            proptest::collection::btree_set(0..n as u32, 1..=max_arity.min(n)),
            1..=max_edges,
        )
        .prop_map(move |edges| {
            let lists: Vec<Vec<u32>> = edges.into_iter().map(|e| e.into_iter().collect()).collect();
            Hypergraph::from_edges(n, &lists)
        })
    })
}

/// The edge extension of Lemma 6.4: hyperedge `i` of `h` grows by
/// `extra` fresh vertices, appended to the universe.
fn extend_edge(h: &Hypergraph, i: usize, extra: usize) -> Hypergraph {
    let mut edges: Vec<Vec<u32>> = (0..h.edge_count()).map(|i| h.edge(i).collect()).collect();
    edges[i].extend((h.n()..h.n() + extra).map(|v| v as u32));
    Hypergraph::from_edges(h.n() + extra, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GYO acyclicity coincides with hypertree width 1 (HTW(1) = AC).
    #[test]
    fn gyo_iff_htw1(h in hypergraph_strategy(6, 6, 3)) {
        prop_assert_eq!(gyo::is_acyclic(&h), htw::htw_at_most(&h, 1).is_some());
    }

    /// Join trees produced by GYO validate.
    #[test]
    fn join_trees_validate(h in hypergraph_strategy(7, 6, 3)) {
        if let Some(jt) = gyo::gyo_reduce(&h) {
            jt.validate(&h).unwrap();
        }
    }

    /// Hypertree decompositions at the exact width validate, and width−1
    /// is infeasible.
    #[test]
    fn htw_witness_and_tightness(h in hypergraph_strategy(6, 5, 3)) {
        let w = htw::hypertree_width(&h);
        if w >= 1 {
            let d = htw::htw_at_most(&h, w).expect("witness at exact width");
            d.validate(&h).unwrap();
            prop_assert!(d.width() <= w);
            if w > 1 {
                prop_assert!(htw::htw_at_most(&h, w - 1).is_none());
            }
        }
    }

    /// Lemma 6.4: closure under edge extension — extending any hyperedge
    /// with fresh vertices never increases the hypertree width.
    #[test]
    fn edge_extension_preserves_width(
        h in hypergraph_strategy(6, 5, 3),
        which in 0usize..5,
        extra in 1usize..3,
    ) {
        prop_assume!(h.edge_count() > 0);
        let i = which % h.edge_count();
        let w = htw::hypertree_width(&h);
        let ext = extend_edge(&h, i, extra);
        prop_assert!(htw::hypertree_width(&ext) <= w.max(1));
        // and acyclicity is preserved exactly
        prop_assert_eq!(gyo::is_acyclic(&h), gyo::is_acyclic(&ext));
    }

    /// Lemma 6.4: closure under induced subhypergraphs.
    #[test]
    fn induced_preserves_width(
        h in hypergraph_strategy(6, 5, 3),
        keep_mask in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let keep: BTreeSet<u32> = (0..h.n() as u32)
            .filter(|&v| keep_mask.get(v as usize).copied().unwrap_or(false))
            .collect();
        prop_assume!(!keep.is_empty());
        let (ind, _) = h.induced(&keep);
        if ind.edge_count() > 0 {
            prop_assert!(
                htw::hypertree_width(&ind) <= htw::hypertree_width(&h).max(1),
                "induced subhypergraph width must not grow"
            );
        }
    }

    /// Hypertree width is bounded by the edge count and at least 1 for
    /// nonempty hypergraphs.
    #[test]
    fn width_bounds(h in hypergraph_strategy(6, 5, 3)) {
        let w = htw::hypertree_width(&h);
        if h.edge_count() > 0 {
            prop_assert!(w >= 1);
            prop_assert!(w <= h.edge_count());
        }
    }
}

/// GYO and det-k-decomp over sorted vertex sets, as written before the
/// hypergraph kept bit rows: the reference the word versions must agree
/// with, join tree and decomposition width included.
mod oracle {
    use std::collections::{BTreeSet, HashMap};

    /// The join tree's parent links when `edges` (distinct sets over
    /// `0..n`) are α-acyclic.
    pub fn gyo(n: usize, edges: &[BTreeSet<u32>]) -> Option<Vec<Option<usize>>> {
        let m = edges.len();
        let mut alive: Vec<bool> = vec![true; m];
        let mut parent: Vec<Option<usize>> = vec![None; m];
        let mut deleted: Vec<bool> = vec![false; n];
        let mut occurrence: Vec<u32> = vec![0; n];
        loop {
            let mut changed = false;
            occurrence.fill(0);
            for e in (0..m).filter(|&i| alive[i]).map(|i| &edges[i]) {
                for &v in e {
                    occurrence[v as usize] += 1;
                }
            }
            for (v, &count) in occurrence.iter().enumerate() {
                changed |= count == 1 && !deleted[v];
                deleted[v] |= count <= 1;
            }
            for i in 0..m {
                if !alive[i] {
                    continue;
                }
                let mut rest = edges[i]
                    .iter()
                    .filter(|&&v| !deleted[v as usize])
                    .peekable();
                if rest.peek().is_none() {
                    alive[i] = false;
                    changed = true;
                    if let Some(j) = (0..m).find(|&j| alive[j]) {
                        parent[i] = Some(j);
                    }
                    continue;
                }
                let inside = |j: usize| rest.clone().all(|v| edges[j].contains(v));
                if let Some(j) = (0..m).find(|&j| j != i && alive[j] && inside(j)) {
                    alive[i] = false;
                    parent[i] = Some(j);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (alive.iter().filter(|&&a| a).count() <= 1).then_some(parent)
    }

    /// Children before parents, by an explicit stack.
    pub fn bottom_up_order(parent: &[Option<usize>]) -> Vec<usize> {
        let n = parent.len();
        let mut links: Vec<(Option<usize>, Option<usize>)> = vec![(None, None); n];
        for (u, p) in parent.iter().enumerate().rev() {
            if let Some(p) = *p {
                (links[u].1, links[p].0) = (links[p].0, Some(u));
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut stack: Vec<(usize, bool)> = (0..n)
            .filter(|&i| parent[i].is_none())
            .map(|r| (r, false))
            .collect();
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                order.push(v);
            } else {
                stack.push((v, true));
                let children = std::iter::successors(links[v].0, |&c| links[c].1);
                stack.extend(children.map(|c| (c, false)));
            }
        }
        order
    }

    type EdgeSet = BTreeSet<usize>;

    struct Search<'a> {
        edges: &'a [BTreeSet<u32>],
        covers: Vec<(Vec<usize>, BTreeSet<u32>)>,
        /// (component, connector) → the width of its decomposition.
        memo: HashMap<(EdgeSet, BTreeSet<u32>), Option<usize>>,
    }

    impl Search<'_> {
        fn edge_components(&self, comp_edges: &EdgeSet, chi: &BTreeSet<u32>) -> Vec<EdgeSet> {
            let mut remaining: EdgeSet = comp_edges
                .iter()
                .copied()
                .filter(|&e| !self.edges[e].is_subset(chi))
                .collect();
            let mut out = Vec::new();
            while let Some(&start) = remaining.iter().next() {
                remaining.remove(&start);
                let mut comp: EdgeSet = [start].into_iter().collect();
                let mut frontier = vec![start];
                while let Some(e) = frontier.pop() {
                    let outside: BTreeSet<u32> = self.edges[e]
                        .iter()
                        .copied()
                        .filter(|v| !chi.contains(v))
                        .collect();
                    let adjacent: Vec<usize> = remaining
                        .iter()
                        .copied()
                        .filter(|&f| self.edges[f].iter().any(|v| outside.contains(v)))
                        .collect();
                    for f in adjacent {
                        remaining.remove(&f);
                        comp.insert(f);
                        frontier.push(f);
                    }
                }
                out.push(comp);
            }
            out
        }

        fn decompose(&mut self, comp_edges: &EdgeSet, connector: &BTreeSet<u32>) -> Option<usize> {
            let key = (comp_edges.clone(), connector.clone());
            if let Some(cached) = self.memo.get(&key) {
                return *cached;
            }
            let comp_vertices: BTreeSet<u32> = comp_edges
                .iter()
                .flat_map(|&e| self.edges[e].iter().copied())
                .collect();
            let mut result = None;
            'covers: for ci in 0..self.covers.len() {
                let (lambda, union) = &self.covers[ci];
                if !connector.is_subset(union) {
                    continue;
                }
                let mut chi: BTreeSet<u32> = union.intersection(&comp_vertices).copied().collect();
                chi.extend(connector.iter().copied());
                if !comp_vertices.is_empty()
                    && chi.intersection(&comp_vertices).count()
                        == connector.intersection(&comp_vertices).count()
                    && !comp_edges.iter().all(|&e| self.edges[e].is_subset(&chi))
                {
                    continue;
                }
                let mut width = lambda.len();
                let subcomponents = self.edge_components(comp_edges, &chi);
                if subcomponents.iter().any(|c| c.len() >= comp_edges.len()) {
                    continue;
                }
                for sub in subcomponents {
                    let sub_vertices: BTreeSet<u32> = sub
                        .iter()
                        .flat_map(|&e| self.edges[e].iter().copied())
                        .collect();
                    let sub_connector = sub_vertices.intersection(&chi).copied().collect();
                    match self.decompose(&sub, &sub_connector) {
                        None => continue 'covers,
                        Some(w) => width = width.max(w),
                    }
                }
                result = Some(width);
                break;
            }
            self.memo.insert(key, result);
            result
        }
    }

    /// The width of the decomposition `htw_at_most(h, k)` finds, if any.
    pub fn htw_width(n: usize, edges: &[BTreeSet<u32>], k: usize) -> Option<usize> {
        if edges.is_empty() {
            return Some(0);
        }
        if k == 1 {
            return gyo(n, edges).map(|_| 1);
        }
        let m = edges.len();
        let mut covers = Vec::new();
        let mut stack: Vec<Vec<usize>> = (0..m).map(|i| vec![i]).collect();
        while let Some(set) = stack.pop() {
            let union: BTreeSet<u32> = set.iter().flat_map(|&e| edges[e].iter().copied()).collect();
            if set.len() < k {
                for j in (set[set.len() - 1] + 1)..m {
                    let mut next = set.clone();
                    next.push(j);
                    stack.push(next);
                }
            }
            covers.push((set, union));
        }
        covers.sort_by_key(|(s, _)| s.len());
        let mut search = Search {
            edges,
            covers,
            memo: HashMap::new(),
        };
        let components = search.edge_components(&(0..m).collect(), &BTreeSet::new());
        let mut width = 0;
        for comp in components {
            width = width.max(search.decompose(&comp, &BTreeSet::new())?);
        }
        Some(width)
    }
}

/// Up to seven edges of one to four vertices, over eight vertex slots
/// placed anywhere in `0..n`: past 64 vertices the rows span words, and
/// an edge's bits land in any of them.
fn spread_hypergraph(max_n: usize) -> impl Strategy<Value = (usize, Vec<Vec<u32>>)> {
    (2..=max_n).prop_flat_map(|n| {
        let slots = proptest::collection::vec(0..n as u32, 8);
        let edge = proptest::collection::btree_set(0..8usize, 1..=4);
        (slots, proptest::collection::vec(edge, 1..=7)).prop_map(move |(slots, edges)| {
            let lists = (edges.iter())
                .map(|e| e.iter().map(|&s| slots[s]).collect())
                .collect();
            (n, lists)
        })
    })
}

/// The word versions agree with [`oracle`] on `cases` hypergraphs of up
/// to `max_n` vertices: the edges kept, the acyclicity verdict, the join
/// tree's parents and bottom-up order, and for `k ≤ 3` the `htw_at_most`
/// verdict and the width of the decomposition it finds, which validates.
fn check_against_oracles(name: &str, cases: u32, max_n: usize) {
    let (mut rng, strategy) = (TestRng::deterministic(name), spread_hypergraph(max_n));
    for _ in 0..cases {
        let (n, lists) = strategy.generate(&mut rng).expect("nothing is filtered");
        let h = Hypergraph::from_edges(n, &lists);
        let mut edges: Vec<BTreeSet<u32>> = Vec::new();
        for set in lists.iter().map(|e| e.iter().copied().collect()) {
            if !edges.contains(&set) {
                edges.push(set);
            }
        }
        assert_eq!(h.edge_count(), edges.len(), "{lists:?}");
        for (i, e) in edges.iter().enumerate() {
            assert!(h.edge(i).eq(e.iter().copied()), "{lists:?}");
        }
        let join_tree = gyo::gyo_reduce(&h);
        let parent = join_tree.as_ref().map(|jt| jt.parent.clone());
        assert_eq!(parent, oracle::gyo(n, &edges), "n = {n}, {lists:?}");
        assert_eq!(gyo::is_acyclic(&h), parent.is_some());
        if let Some(jt) = join_tree {
            jt.validate(&h).unwrap();
            assert_eq!(jt.bottom_up_order(), oracle::bottom_up_order(&jt.parent));
        }
        for k in 1..=3 {
            let d = htw::htw_at_most(&h, k);
            if let Some(d) = &d {
                d.validate(&h).unwrap();
            }
            let width = d.map(|d| d.width());
            assert_eq!(
                width,
                oracle::htw_width(n, &edges, k),
                "k = {k}, n = {n}, {lists:?}"
            );
        }
    }
}

#[test]
fn word_algorithms_agree_with_sorted_set_oracles() {
    check_against_oracles("hypergraph_oracles", 256, 100);
}

/// The deep variant CI runs in release mode after the default suite.
#[test]
#[ignore = "deep: 4096 cases up to 130 vertices, run in release by CI"]
fn deep_word_algorithms_agree_with_sorted_set_oracles() {
    check_against_oracles("deep_hypergraph_oracles", 4096, 130);
}
