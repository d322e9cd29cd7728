//! Property-based tests for the graph algorithms.

use cqapx_graphs::{balance, coloring, treewidth, BitGraph, Digraph};
use proptest::prelude::*;

fn digraph_strategy(max_n: usize, max_e: usize) -> impl Strategy<Value = Digraph> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_e)
            .prop_map(move |edges| Digraph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Treewidth is monotone under edge addition and bounded by n−1.
    #[test]
    fn treewidth_monotone_and_bounded(g in digraph_strategy(7, 10)) {
        let u = BitGraph::underlying(&g);
        let tw = treewidth::treewidth(&u);
        prop_assert!(tw <= u.n().saturating_sub(1));
        // adding an edge can only increase treewidth
        if u.n() >= 2 {
            let mut bigger = u.clone();
            bigger.add_edge(0, (u.n() - 1) as u32);
            prop_assert!(treewidth::treewidth(&bigger) >= tw);
        }
    }

    /// A witness decomposition validates and has the claimed width.
    #[test]
    fn decompositions_validate(g in digraph_strategy(7, 12)) {
        let u = BitGraph::underlying(&g);
        let tw = treewidth::treewidth(&u);
        let td = treewidth::treewidth_at_most(&u, tw).expect("witness at exact width");
        td.validate(&u).unwrap();
        prop_assert!(td.width() <= tw);
        let exact = treewidth::min_width_decomposition(&u).expect("at most 7 vertices");
        exact.validate(&u).unwrap();
        prop_assert_eq!(exact.width(), tw);
        if tw > 0 {
            prop_assert!(treewidth::treewidth_at_most(&u, tw - 1).is_none());
        }
    }

    /// The decision-only entry (degree-≤-2 reductions, then the search on
    /// the kernel) agrees with the decomposition-building one, and leaves
    /// the graph it was asked about as it found it.
    #[test]
    fn bit_row_decision_agrees_with_decompositions(g in digraph_strategy(12, 30)) {
        let u = BitGraph::underlying(&g);
        let mut bits = u.clone();
        let tw = treewidth::treewidth(&u);
        for k in 0..=4 {
            let expected = treewidth::treewidth_at_most(&u, k).is_some();
            prop_assert_eq!(bits.treewidth_at_most(k), Some(expected), "k = {}", k);
            prop_assert_eq!(tw <= k, expected, "k = {}", k);
        }
        prop_assert_eq!(bits.state(), u.state());
    }

    /// `reduced()` keeps a witness decomposition valid and as wide, leaves
    /// no bag inside a tree neighbour, and is idempotent and
    /// deterministic; every root orients the reduced tree.
    #[test]
    fn reduced_decompositions(g in digraph_strategy(9, 14), extra in 0usize..2) {
        let u = BitGraph::underlying(&g);
        // At the exact width and, one above it, on a looser witness.
        let k = treewidth::treewidth(&u) + extra;
        let td = treewidth::treewidth_at_most(&u, k).expect("witness at or above the width");
        let red = td.clone().reduced();
        red.validate(&u).unwrap();
        prop_assert_eq!(red.width(), td.width());
        prop_assert!(red.bag_count() <= td.bag_count());
        for &(a, b) in &red.tree_edges {
            let inside = |x: usize, y: usize| red.bag(x).all(|v| red.bag(y).any(|u| u == v));
            prop_assert!(!inside(a, b) && !inside(b, a), "bags {} and {} nest", a, b);
        }
        prop_assert_eq!(&red.clone().reduced(), &red, "idempotent");
        let again = treewidth::treewidth_at_most(&u, k).unwrap().reduced();
        prop_assert_eq!(&again, &red, "deterministic");
        for (root, height) in red.heights().into_iter().enumerate() {
            let r = red.rooted_at(root);
            prop_assert_eq!(*r.order.last().unwrap(), root);
            prop_assert_eq!(r.parent.iter().filter(|p| p.is_none()).count(), 1);
            // The height is the longest parent chain.
            let depth = |mut x: usize| {
                let mut d = 0;
                while let Some(p) = r.parent[x] {
                    x = p;
                    d += 1;
                }
                d
            };
            prop_assert_eq!((0..red.bag_count()).map(depth).max().unwrap(), height);
        }
    }

    /// k-colorability agrees with homomorphism into K⃗_k (the definition
    /// the paper uses).
    #[test]
    fn coloring_agrees_with_hom(g in digraph_strategy(6, 10), k in 1usize..4) {
        use cqapx_structures::HomSolver;
        let colorable = coloring::is_k_colorable(&g, k);
        let kk = cqapx_graphs::generators::complete_digraph(k).to_structure();
        let via_hom = HomSolver::compile(&g.to_structure()).run(&kk).exists();
        prop_assert_eq!(colorable, via_hom);
    }

    /// Forests have treewidth ≤ 1 and are 2-colorable (loop-free ones).
    #[test]
    fn forests_are_easy(n in 2usize..8, extra in 0usize..3) {
        // random tree by parent links + `extra` forward edges that keep
        // it a forest only when extra = 0
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push(((i / 2) as u32, i as u32));
        }
        let g = Digraph::from_edges(n, &edges);
        let u = BitGraph::underlying(&g);
        prop_assert!(u.is_forest());
        prop_assert!(treewidth::treewidth(&u) <= 1);
        prop_assert!(coloring::is_bipartite(&g));
        let _ = extra;
    }

    /// Balanced digraphs map into directed paths (Hell–Nešetřil), and
    /// level differences match edge orientation.
    #[test]
    fn balanced_iff_hom_to_path(g in digraph_strategy(6, 8)) {
        use cqapx_structures::HomSolver;
        let info = balance::levels(&g);
        let long_path = Digraph::directed_path(12).to_structure();
        let maps = HomSolver::compile(&g.to_structure()).run(&long_path).exists();
        prop_assert_eq!(info.balanced, maps, "balanced ⇔ hom to long path");
        if info.balanced {
            for (u, v) in g.edges() {
                prop_assert_eq!(
                    info.levels[v as usize] - info.levels[u as usize],
                    1,
                    "levels rise by one along edges"
                );
            }
        }
    }

    /// Bipartiteness ⇔ hom to K⃗₂.
    #[test]
    fn bipartite_iff_hom_to_k2(g in digraph_strategy(6, 10)) {
        use cqapx_structures::HomSolver;
        let k2 = Digraph::from_edges(2, &[(0, 1), (1, 0)]).to_structure();
        prop_assert_eq!(
            coloring::is_bipartite(&g),
            HomSolver::compile(&g.to_structure()).run(&k2).exists()
        );
    }
}

/// The decomposition pipeline over sorted vertex lists, one `Vec` per
/// bag, as it stood before bags became bit rows: the search on
/// per-component masks, `reduced`, `heights`, `rooted_at` and
/// `validate`, kept as the oracle of the bit-row versions.
mod oracle {
    use cqapx_graphs::BitGraph;
    use std::collections::HashSet;

    /// Bags (sorted vertex lists) and tree edges between bag indices.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Td {
        pub bags: Vec<Vec<u32>>,
        pub tree_edges: Vec<(usize, usize)>,
    }

    struct MaskGraph {
        adj: Vec<u64>,
        n: usize,
    }

    impl MaskGraph {
        fn fill_neighbors(&self, v: usize, elim: u64) -> u64 {
            let (mut seen, mut frontier, mut result) = (1u64 << v, 1u64 << v, 0u64);
            while frontier != 0 {
                let mut next = 0u64;
                let mut f = frontier;
                while f != 0 {
                    let u = f.trailing_zeros() as usize;
                    f &= f - 1;
                    let nb = self.adj[u] & !seen;
                    result |= nb & !elim;
                    next |= nb & elim;
                    seen |= nb;
                }
                frontier = next;
            }
            result
        }
    }

    fn component_tw_at_most(g: &MaskGraph, k: usize) -> Option<Vec<usize>> {
        let full: u64 = if g.n == 64 { !0 } else { (1u64 << g.n) - 1 };
        let mut dead: HashSet<u64> = HashSet::new();
        let mut order = Vec::new();
        let mut candidates: Vec<(usize, usize)> = Vec::new();

        fn rec(
            g: &MaskGraph,
            k: usize,
            elim: u64,
            full: u64,
            dead: &mut HashSet<u64>,
            order: &mut Vec<usize>,
            candidates: &mut Vec<(usize, usize)>,
        ) -> bool {
            if elim == full {
                return true;
            }
            if dead.contains(&elim) {
                return false;
            }
            let mut remaining = full & !elim;
            let from = candidates.len();
            while remaining != 0 {
                let v = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                let nb = g.fill_neighbors(v, elim);
                let deg = nb.count_ones() as usize;
                if deg <= k {
                    let mut simplicial = true;
                    let mut rest = nb;
                    while rest != 0 {
                        let a = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        if nb & !g.fill_neighbors(a, elim) & !(1u64 << a) != 0 {
                            simplicial = false;
                            break;
                        }
                    }
                    if simplicial {
                        candidates.truncate(from);
                        order.push(v);
                        if rec(g, k, elim | (1u64 << v), full, dead, order, candidates) {
                            return true;
                        }
                        order.pop();
                        dead.insert(elim);
                        return false;
                    }
                    candidates.push((deg, v));
                }
            }
            candidates[from..].sort_unstable();
            for i in from..candidates.len() {
                let v = candidates[i].1;
                order.push(v);
                if rec(g, k, elim | (1u64 << v), full, dead, order, candidates) {
                    return true;
                }
                order.pop();
            }
            candidates.truncate(from);
            dead.insert(elim);
            false
        }

        rec(g, k, 0, full, &mut dead, &mut order, &mut candidates).then_some(order)
    }

    fn append_decomposition(td: &mut Td, g: &MaskGraph, order: &[usize], names: &[u32]) {
        let off = td.bags.len();
        let mut elim = 0u64;
        let mut pos = vec![usize::MAX; g.n];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        for (i, &v) in order.iter().enumerate() {
            let mut rest = g.fill_neighbors(v, elim);
            let mut bag = vec![names[v]];
            let mut first_successor: Option<usize> = None;
            while rest != 0 {
                let u = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                bag.push(names[u]);
                first_successor = Some(first_successor.map_or(pos[u], |f| f.min(pos[u])));
            }
            bag.sort_unstable();
            td.bags.push(bag);
            if let Some(above) = first_successor.or((i + 1 < g.n).then_some(i + 1)) {
                td.tree_edges.push((off + i, off + above));
            }
            elim |= 1u64 << v;
        }
    }

    /// Components numbered in the order of their least vertices.
    fn components(g: &BitGraph) -> (usize, Vec<usize>) {
        let mut comp = vec![usize::MAX; g.n()];
        let mut count = 0;
        for s in 0..g.n() {
            if comp[s] != usize::MAX {
                continue;
            }
            let mut stack = vec![s];
            comp[s] = count;
            while let Some(u) = stack.pop() {
                for v in (0..g.n()).filter(|&v| g.has_edge(u, v)) {
                    if comp[v] == usize::MAX {
                        comp[v] = count;
                        stack.push(v);
                    }
                }
            }
            count += 1;
        }
        (count, comp)
    }

    fn decompose(
        g: &BitGraph,
        mut order_of: impl FnMut(&MaskGraph) -> Option<Vec<usize>>,
    ) -> Option<Td> {
        let (count, comp) = components(g);
        let mut parts: Vec<(Vec<u32>, Vec<usize>)> = vec![(Vec::new(), Vec::new()); count];
        for (v, &c) in comp.iter().enumerate() {
            parts[c].0.push(v as u32);
        }
        if parts.iter().any(|(names, _)| names.len() > 64) {
            return None;
        }
        let mut td = Td {
            bags: Vec::new(),
            tree_edges: Vec::new(),
        };
        let mut roots = Vec::new();
        for (names, _) in &parts {
            let index = |u: u32| names.iter().position(|&x| x == u).unwrap();
            let mut adj = vec![0u64; names.len()];
            for &u in names {
                for &v in names {
                    if g.has_edge(u as usize, v as usize) {
                        adj[index(u)] |= 1u64 << index(v);
                    }
                }
            }
            let mg = MaskGraph {
                adj,
                n: names.len(),
            };
            let order = order_of(&mg)?;
            roots.push(td.bags.len());
            append_decomposition(&mut td, &mg, &order, names);
        }
        td.tree_edges.extend(roots.windows(2).map(|w| (w[0], w[1])));
        if td.bags.is_empty() {
            td.bags.push(Vec::new());
        }
        Some(td)
    }

    pub fn treewidth_at_most(g: &BitGraph, k: usize) -> Option<Td> {
        decompose(g, |mg| component_tw_at_most(mg, k))
    }

    pub fn min_width_decomposition(g: &BitGraph) -> Option<Td> {
        decompose(g, |mg| {
            let degrees: u32 = mg.adj.iter().map(|a| a.count_ones()).sum();
            let least = match mg.n {
                1 => 0,
                n if degrees as usize == 2 * (n - 1) => 1,
                _ => 2,
            };
            (least..mg.n).find_map(|k| component_tw_at_most(mg, k))
        })
    }

    pub fn reduced(td: Td) -> Td {
        let (mut bags, mut edges) = (td.bags, td.tree_edges);
        let inside = |bags: &[Vec<u32>], a: usize, b: usize| {
            bags[a].iter().all(|v| bags[b].binary_search(v).is_ok())
        };
        while let Some((gone, kept)) = edges.iter().find_map(|&(a, b)| {
            let ab = inside(&bags, a, b).then_some((a, b));
            ab.or(inside(&bags, b, a).then_some((b, a)))
        }) {
            bags.remove(gone);
            edges.retain(|&e| e != (gone, kept) && e != (kept, gone));
            let moved = |x: usize| if x == gone { kept } else { x };
            let shifted = |x: usize| x - usize::from(x > gone);
            for e in &mut edges {
                *e = (shifted(moved(e.0)), shifted(moved(e.1)));
            }
        }
        for e in &mut edges {
            *e = (e.0.min(e.1), e.0.max(e.1));
        }
        edges.sort_unstable();
        Td {
            bags,
            tree_edges: edges,
        }
    }

    /// Three distance sweeps: from bag 0, from the bag farthest from it
    /// and from the bag farthest from that one.
    pub fn heights(td: &Td) -> Vec<usize> {
        let n = td.bags.len();
        let sweep = |from: usize| {
            let mut dist = vec![usize::MAX; n];
            dist[from] = 0;
            let mut queue = vec![from];
            let mut next = 0;
            while let Some(&u) = queue.get(next) {
                next += 1;
                for &(a, b) in &td.tree_edges {
                    let w = if a == u {
                        b
                    } else if b == u {
                        a
                    } else {
                        continue;
                    };
                    if dist[w] == usize::MAX {
                        dist[w] = dist[u] + 1;
                        queue.push(w);
                    }
                }
            }
            dist
        };
        let farthest = |dist: &[usize]| (0..n).max_by_key(|&b| dist[b]).unwrap();
        let one_end = sweep(farthest(&sweep(0)));
        let other = sweep(farthest(&one_end));
        one_end
            .iter()
            .zip(&other)
            .map(|(&a, &b)| a.max(b))
            .collect()
    }

    /// Parents and post-order of an iterative depth-first search from
    /// `root`, neighbours in ascending order.
    pub fn rooted_at(td: &Td, root: usize) -> (Vec<Option<usize>>, Vec<usize>) {
        let n = td.bags.len();
        let mut adj: Vec<(usize, usize)> = (td.tree_edges.iter())
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .collect();
        adj.sort_unstable();
        let neighbours = |v: usize| {
            let from = adj.partition_point(|&(a, _)| a < v);
            adj[from..].iter().take_while(move |&&(a, _)| a == v)
        };
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut order = Vec::new();
        let mut stack = vec![(root, false)];
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                order.push(v);
                continue;
            }
            stack.push((v, true));
            for &(_, w) in neighbours(v) {
                if w != root && parent[w].is_none() {
                    parent[w] = Some(v);
                    stack.push((w, false));
                }
            }
        }
        (parent, order)
    }

    pub fn validate(td: &Td, g: &BitGraph) -> bool {
        let nb = td.bags.len();
        if nb > 0 {
            if td.tree_edges.len() + 1 != nb || td.tree_edges.iter().any(|&(a, b)| a.max(b) >= nb) {
                return false;
            }
            let tree =
                BitGraph::gaifman(nb, td.tree_edges.iter().map(|&(a, b)| [a as u32, b as u32]));
            let mut reached = vec![false; nb];
            let mut stack = vec![0];
            reached[0] = true;
            while let Some(u) = stack.pop() {
                for v in (0..nb).filter(|&v| tree.has_edge(u, v)) {
                    if !reached[v] {
                        reached[v] = true;
                        stack.push(v);
                    }
                }
            }
            if !tree.is_forest() || reached.contains(&false) {
                return false;
            }
        }
        let holds = |b: usize, v: usize| td.bags[b].contains(&(v as u32));
        for v in 0..g.n() {
            if !(0..nb).any(|b| holds(b, v)) {
                return false;
            }
            for u in v + 1..g.n() {
                if g.has_edge(u, v) && !(0..nb).any(|b| holds(b, u) && holds(b, v)) {
                    return false;
                }
            }
            let occ: Vec<usize> = (0..nb).filter(|&b| holds(b, v)).collect();
            let mut reach: HashSet<usize> = HashSet::from([occ[0]]);
            let mut frontier = vec![occ[0]];
            while let Some(b) = frontier.pop() {
                for &(x, y) in &td.tree_edges {
                    let other = if x == b {
                        y
                    } else if y == b {
                        x
                    } else {
                        continue;
                    };
                    if holds(other, v) && reach.insert(other) {
                        frontier.push(other);
                    }
                }
            }
            if reach.len() != occ.len() {
                return false;
            }
        }
        true
    }
}

/// Up to fourteen edges over ten vertex slots placed anywhere in `0..n`:
/// past 64 vertices the rows span words, while every component keeps at
/// most ten vertices.
fn spread_graph(max_n: usize) -> impl Strategy<Value = BitGraph> {
    (1..=max_n).prop_flat_map(|n| {
        let slots = proptest::collection::vec(0..n as u32, 10);
        let edges = proptest::collection::vec((0..10usize, 0..10usize), 0..=14);
        (slots, edges).prop_map(move |(slots, edges)| {
            BitGraph::gaifman(n, edges.iter().map(|&(a, b)| [slots[a], slots[b]]))
        })
    })
}

/// The bit-row decomposition as the oracle's sorted lists.
fn as_lists(td: &treewidth::TreeDecomposition) -> oracle::Td {
    oracle::Td {
        bags: (0..td.bag_count()).map(|b| td.bag(b).collect()).collect(),
        tree_edges: td.tree_edges.clone(),
    }
}

/// The bit-row pipeline agrees with [`oracle`] on `cases` graphs of up
/// to `max_n` vertices: the decompositions `min_width_decomposition`
/// and `treewidth_at_most` build for `k ≤ 4` (bags in order, and tree
/// edges), their reduced forms, every bag's height, the rooted form at
/// every root, and `validate`'s verdict on each and on a copy with one
/// vertex dropped from one bag.
fn check_against_oracle(name: &str, cases: u32, max_n: usize) {
    use proptest::test_runner::TestRng;
    let (mut rng, strategy) = (TestRng::deterministic(name), spread_graph(max_n));
    for case in 0..cases {
        let g = strategy.generate(&mut rng).expect("nothing is filtered");
        let built = (0..=4).map(|k| {
            let got = treewidth::treewidth_at_most(&g, k);
            (got, oracle::treewidth_at_most(&g, k))
        });
        let exact = treewidth::min_width_decomposition(&g);
        let exact = std::iter::once((exact, oracle::min_width_decomposition(&g)));
        for (got, want) in exact.chain(built) {
            assert_eq!(got.as_ref().map(as_lists), want, "case {case}");
            let (Some(got), Some(want)) = (got, want) else {
                continue;
            };
            assert!(got.validate(&g).is_ok() && oracle::validate(&want, &g));
            let (got, want) = (got.reduced(), oracle::reduced(want));
            assert_eq!(as_lists(&got), want, "case {case}: reduced");
            assert_eq!(got.heights(), oracle::heights(&want), "case {case}");
            for root in 0..got.bag_count() {
                let r = got.rooted_at(root);
                assert_eq!((r.parent, r.order), oracle::rooted_at(&want, root));
            }
            let Some(b) = (0..want.bags.len()).find(|&b| !want.bags[b].is_empty()) else {
                continue;
            };
            let mut cut = want.clone();
            let at = case as usize % cut.bags[b].len();
            cut.bags[b].remove(at);
            let cut_rows =
                treewidth::TreeDecomposition::from_bags(g.n(), &cut.bags, cut.tree_edges.clone());
            assert_eq!(
                cut_rows.validate(&g).is_ok(),
                oracle::validate(&cut, &g),
                "case {case}: {cut:?}"
            );
        }
    }
}

#[test]
fn bit_row_decompositions_agree_with_the_list_oracle() {
    check_against_oracle("decomposition_oracle", 96, 100);
}

/// The deep variant CI runs in release mode after the default suite.
#[test]
#[ignore = "deep: 2048 cases up to 130 vertices, run in release by CI"]
fn deep_bit_row_decompositions_agree_with_the_list_oracle() {
    check_against_oracle("deep_decomposition_oracle", 2048, 130);
}
