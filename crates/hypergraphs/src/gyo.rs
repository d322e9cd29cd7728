//! GYO reduction: α-acyclicity and join trees.
//!
//! The Graham / Yu–Özsoyoğlu reduction repeatedly applies two rules:
//!
//! 1. delete a vertex that occurs in at most one hyperedge (an "ear"
//!    vertex);
//! 2. delete a hyperedge contained in another hyperedge (recording the
//!    containment as a join-tree edge).
//!
//! `H` is **α-acyclic** iff the reduction erases every edge; the recorded
//! containments assemble into a **join tree**, the witness Yannakakis'
//! algorithm evaluates along. Equivalently (the paper's definition), `H`
//! is acyclic iff it has a tree decomposition whose every bag is a
//! hyperedge.
//!
//! Both rules are word operations on the bit rows, in one scratch buffer
//! (on the stack up to 192 vertices): rule 1 ORs the live rows into
//! *once*, and each row's overlap with *once* into *twice*, so the ears
//! are `once & !twice`; edge `i`'s rest, its row less the deleted
//! vertices, lies inside edge `j` when `rest & !row_j == 0`. A pass
//! applies rule 1, then rule 2 to the edges by index, each going under
//! the lowest live edge containing it: the join tree is a function of the
//! edge order.

use crate::hypergraph::{bits, Hypergraph};
use crate::jointree::JoinTree;

/// Runs the GYO reduction: `Some(join tree)` when `h` is acyclic.
pub fn gyo_reduce(h: &Hypergraph) -> Option<JoinTree> {
    let mut parent = vec![None; h.edge_count()];
    let acyclic = reduce(h, |i, j| parent[i] = Some(j));
    let n_edges = parent.len();
    acyclic.then_some(JoinTree { n_edges, parent })
}

/// The reduction, calling `attach(i, j)` as it removes edge `i` under
/// edge `j`; `true` when at most one edge is left.
fn reduce(h: &Hypergraph, mut attach: impl FnMut(usize, usize)) -> bool {
    let (m, w) = (h.edge_count(), h.words);
    // Rows once, twice, deleted and rest, then the live edges' bits.
    let (len, mut small, mut large) = (4 * w + m.div_ceil(64), [0u64; 16], Vec::new());
    let scratch = match small.get_mut(..len) {
        Some(small) => small,
        None => {
            large.resize(len, 0);
            &mut large[..]
        }
    };
    let (rows, alive) = scratch.split_at_mut(4 * w);
    let (once, rows) = rows.split_at_mut(w);
    let (twice, rows) = rows.split_at_mut(w);
    let (deleted, rest) = rows.split_at_mut(w);
    (0..m).for_each(|i| alive[i / 64] |= 1 << (i % 64));
    let (mut left, mut first) = (m, true);
    loop {
        // Rule 1: delete the vertices in at most one live edge; `once`
        // keeps the ones this pass deleted.
        once.fill(0);
        twice.fill(0);
        for i in bits(alive) {
            for ((o, t), &r) in once.iter_mut().zip(twice.iter_mut()).zip(h.row(i)) {
                *t |= *o & r;
                *o |= r;
            }
        }
        let mut changed = false;
        for ((d, o), &t) in deleted.iter_mut().zip(once.iter_mut()).zip(&*twice) {
            changed |= *o & !t & !*d != 0;
            (*o, *d) = (!t & !*d, *d | !t);
        }

        // Rule 2, the edge out of the live set while its container is
        // sought (an emptied edge is inside any). An edge that lost no
        // vertex this pass found none before, among more live edges.
        for i in 0..m {
            let bit = 1 << (i % 64);
            let kept = h.row(i).iter().zip(&*once).all(|(&e, &o)| e & o == 0);
            if alive[i / 64] & bit == 0 || (kept && !first) {
                continue;
            }
            for ((r, &e), &d) in rest.iter_mut().zip(h.row(i)).zip(&*deleted) {
                *r = e & !d;
            }
            alive[i / 64] &= !bit;
            let inside = |j: usize| rest.iter().zip(h.row(j)).all(|(&r, &e)| r & !e == 0);
            let into = bits(alive).find(|&j| inside(j));
            match into {
                Some(j) => attach(i, j),
                None if rest.iter().all(|&r| r == 0) => {}
                None => {
                    alive[i / 64] |= bit;
                    continue;
                }
            }
            (changed, left) = (true, left - 1);
        }
        if !changed {
            return left <= 1;
        }
        first = false;
    }
}

/// `true` when the hypergraph is α-acyclic.
///
/// # Examples
///
/// ```
/// use cqapx_hypergraphs::{gyo, Hypergraph};
///
/// // A triangle of binary edges is cyclic…
/// let tri = Hypergraph::from_edges(3, &[vec![0, 1], vec![1, 2], vec![2, 0]]);
/// assert!(!gyo::is_acyclic(&tri));
///
/// // …but adding the covering 3-edge makes it acyclic (α-acyclicity is
/// // not closed under subhypergraphs — the paper's Section 6 example).
/// let covered = Hypergraph::from_edges(
///     3,
///     &[vec![0, 1], vec![1, 2], vec![2, 0], vec![0, 1, 2]],
/// );
/// assert!(gyo::is_acyclic(&covered));
/// ```
pub fn is_acyclic(h: &Hypergraph) -> bool {
    reduce(h, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge_acyclic() {
        let h = Hypergraph::from_edges(3, &[vec![0, 1, 2]]);
        assert!(is_acyclic(&h));
    }

    #[test]
    fn path_of_edges_acyclic() {
        let h = Hypergraph::from_edges(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let r = gyo_reduce(&h);
        let jt = r.expect("acyclic");
        jt.validate(&h).unwrap();
    }

    #[test]
    fn triangle_cyclic() {
        let h = Hypergraph::from_edges(3, &[vec![0, 1], vec![1, 2], vec![2, 0]]);
        let r = gyo_reduce(&h);
        assert!(r.is_none());
    }

    #[test]
    fn covered_triangle_acyclic() {
        let h = Hypergraph::from_edges(3, &[vec![0, 1, 2], vec![0, 1], vec![1, 2], vec![0, 2]]);
        let r = gyo_reduce(&h);
        let jt = r.expect("acyclic");
        jt.validate(&h).unwrap();
        // All binary edges hang off the ternary edge 0.
        assert_eq!(jt.parent[1], Some(0));
        assert_eq!(jt.parent[2], Some(0));
        assert_eq!(jt.parent[3], Some(0));
    }

    #[test]
    fn star_query_acyclic() {
        // R(x,y,z), S(x), T(y), U(z)
        let h = Hypergraph::from_edges(3, &[vec![0, 1, 2], vec![0], vec![1], vec![2]]);
        assert!(is_acyclic(&h));
    }

    #[test]
    fn cycle_of_ternary_edges_cyclic() {
        // R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1) — Example 6.6's query has a
        // Berge cycle through x1, x3, x5: α-cyclic.
        let h = Hypergraph::from_edges(6, &[vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 0]]);
        assert!(!is_acyclic(&h));
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::from_edges(0, Vec::<Vec<u32>>::new());
        assert!(is_acyclic(&h));
    }

    #[test]
    fn duplicate_containment_chain() {
        let h = Hypergraph::from_edges(4, &[vec![0, 1, 2, 3], vec![0, 1], vec![0]]);
        let r = gyo_reduce(&h);
        let jt = r.expect("acyclic");
        jt.validate(&h).unwrap();
    }
}
