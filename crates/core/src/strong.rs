//! Strong treewidth approximations (Section 5.3).
//!
//! For a Boolean query over a single `m`-ary relation, a **strong
//! treewidth approximation** is a `TW(1)`-approximation of a query of the
//! *maximum possible* treewidth (`#variables − 1`, i.e. `G(Q)` complete).
//! Over graphs (`m = 2`) the notion trivializes (only `Q^triv` — the
//! tableau is a clique, non-bipartite for `n > 2`), but for `m > 2` there
//! is room: Proposition 5.13 turns *any* nontrivial 2-variable "potential"
//! approximation `Q'` into a full-treewidth `Q` it approximates;
//! Propositions 5.14/5.15 exhibit strong approximations with as many joins
//! as the original.

use cqapx_cq::{ConjunctiveQuery, VarId};
use cqapx_structures::{RelId, Vocabulary};

/// A Boolean query over one `m`-ary relation is a **potential strong
/// treewidth approximation** when its graph has at most 2 nodes, i.e. it
/// uses at most 2 variables (any 3 variables in a maximal-treewidth query
/// would force a triangle in `G(Q')`).
pub fn is_potential_strong_approximation(q: &ConjunctiveQuery) -> bool {
    q.is_boolean() && q.vocabulary().len() == 1 && q.var_count() <= 2
}

/// `true` when `Q` has the maximum possible treewidth for its variable
/// count (its graph is complete: treewidth `n − 1`).
pub fn has_maximum_treewidth(q: &ConjunctiveQuery) -> bool {
    let n = q.var_count();
    n >= 2 && cqapx_cq::treewidth_of_query(q) == n - 1
}

/// Proposition 5.13: given a nontrivial potential strong treewidth
/// approximation `Q'` (2 variables, one `m`-ary relation, `m > 2`) and a
/// target variable count `n > m`, constructs a query `Q` with `n`
/// variables, complete graph `G(Q) = K_n`, such that `Q'` is a strong
/// treewidth approximation of `Q`. The atom count is bounded by
/// `k + n(n−1)/2 − 1` for `k` atoms in `Q'`.
///
/// # Panics
///
/// Panics when `Q'` is not a 2-variable query over a single relation of
/// arity > 2, when `n ≤ m`, or when `Q'` is trivial (some atom uses a
/// single variable only, or no atom repeats a variable).
pub fn prop_5_13_construct(q_prime: &ConjunctiveQuery, n: usize) -> ConjunctiveQuery {
    assert!(
        is_potential_strong_approximation(q_prime),
        "Q' must be a potential strong treewidth approximation"
    );
    let vocab: &Vocabulary = q_prime.vocabulary();
    let rel = vocab.rel_ids().next().expect("single relation");
    let m = vocab.arity(rel);
    assert!(m > 2, "the construction needs arity > 2");
    assert!(n > m, "need n > m");
    assert_eq!(q_prime.var_count(), 2, "Q' must use exactly two variables");

    // Identify variables x (0) and y (1); in every atom one variable
    // occurs at least twice. Spread the variable `y` of atom `ai`, where
    // it occurs `p` times: exactly twice where some atom has one, else
    // the fewest times a minority variable occurs (p ≥ 3).
    let occurrences = (q_prime.atoms().enumerate()).flat_map(|(i, a)| {
        [0, 1].map(|v: VarId| (i, v, a.args.iter().filter(|&&x| x == v).count()))
    });
    let mixed = |&(i, _, occ): &(usize, VarId, usize)| occ > 0 && occ < q_prime.atom(i).args.len();
    let twice = occurrences
        .clone()
        .filter(mixed)
        .find(|&(_, _, occ)| occ == 2);
    let (ai, y, p) = twice
        .or_else(|| occurrences.filter(mixed).min_by_key(|&(_, _, occ)| occ))
        .expect("nontrivial Q' has a mixed atom");
    let y_positions: Vec<usize> = (q_prime.atom(ai).args.iter().enumerate())
        .filter(|&(_, &a)| a == y)
        .map(|(pos, _)| pos)
        .collect();
    let mut atoms: Vec<(RelId, Vec<VarId>)> = Vec::new();
    // Q has variables x1..xn = ids 0..n-1 (x1 = id 0).
    let var_names: Vec<String> = (1..=n).map(|i| format!("x{i}")).collect();
    if twice.is_some() {
        // Atoms R(x1,…,x1, xi, xj) for 2 ≤ i ≤ j ≤ n at the two
        // y-positions.
        for i in 2..=n {
            for j in i..=n {
                let mut args = vec![0 as VarId; m];
                args[y_positions[0]] = (i - 1) as VarId;
                args[y_positions[1]] = (j - 1) as VarId;
                atoms.push((rel, args));
            }
        }
    } else {
        // Atoms R(x1,…,x1, x2,…,x_{p−1}, xi, xj) for p ≤ i < j ≤ n:
        // the first p−2 y-positions get x2.., the last two get xi, xj.
        for i in p..=n {
            for j in (i + 1)..=n {
                let mut args = vec![0 as VarId; m];
                for (idx, &pos) in y_positions[..p - 2].iter().enumerate() {
                    args[pos] = (idx + 1) as VarId;
                }
                args[y_positions[p - 2]] = (i - 1) as VarId;
                args[y_positions[p - 1]] = (j - 1) as VarId;
                atoms.push((rel, args));
            }
        }
        // Atoms R(x1,…,x1, xi,…,xi) for 2 ≤ i ≤ n.
        for i in 2..=n {
            let mut args = vec![0 as VarId; m];
            for &pos in &y_positions {
                args[pos] = (i - 1) as VarId;
            }
            atoms.push((rel, args));
        }
    }
    // Every other atom: x -> x1, the r occurrences of y -> x2, …,
    // x_{r+1} in order.
    for (_, b) in q_prime.atoms().enumerate().filter(|&(bi, _)| bi != ai) {
        let (mut args, mut next) = (vec![0 as VarId; m], 0);
        for (pos, _) in b.args.iter().enumerate().filter(|&(_, &a)| a == y) {
            next += 1;
            args[pos] = next;
        }
        assert!(
            (next as usize) < n,
            "enough variables for the y occurrences"
        );
        atoms.push((rel, args));
    }

    ConjunctiveQuery::new(vocab.clone(), var_names, vec![], atoms)
}

/// Proposition 5.14's example pair `(Q, Q')` for arity `m = k ≥ 3`:
/// minimized queries with the **same number of joins** where `Q'` is a
/// strong treewidth approximation of `Q`.
pub fn prop_5_14_queries(k: usize) -> (ConjunctiveQuery, ConjunctiveQuery) {
    assert!(k >= 3, "Proposition 5.14 needs k ≥ 3");
    let vocab = Vocabulary::single(k);
    let rel = vocab.rel("R").expect("single relation R");
    // Q over variables x1..x_{k+1} (ids 0..k).
    let var_names: Vec<String> = (1..=k + 1).map(|i| format!("x{i}")).collect();
    let mut atoms = Vec::new();
    // R(x1, x2, x3, x4, …, xk)
    let mut a1: Vec<VarId> = vec![0, 1, 2];
    a1.extend((3..k).map(|i| i as VarId));
    atoms.push((rel, a1));
    // R(x2, x1, x_{k+1}, x4, …, xk)
    let mut a2: Vec<VarId> = vec![1, 0, k as VarId];
    a2.extend((3..k).map(|i| i as VarId));
    atoms.push((rel, a2));
    // R(x3, x_{k+1}, x1, x4, …, xk)
    let mut a3: Vec<VarId> = vec![2, k as VarId, 0];
    a3.extend((3..k).map(|i| i as VarId));
    atoms.push((rel, a3));
    // R(xj, …, xj, x1, xj, …, xj) with x1 in position j, for 4 ≤ j ≤ k.
    for j in 4..=k {
        let mut args = vec![(j - 1) as VarId; k];
        args[j - 1] = 0;
        atoms.push((rel, args));
    }
    let q = ConjunctiveQuery::new(vocab.clone(), var_names, vec![], atoms);

    // Q': k atoms R(y,…,y,x,y,…,y), x in a different position each time.
    let mut atoms = Vec::new();
    for pos in 0..k {
        let mut args = vec![1 as VarId; k];
        args[pos] = 0;
        atoms.push((rel, args));
    }
    let q_prime = ConjunctiveQuery::new(vocab, ["x", "y"], vec![], atoms);
    (q, q_prime)
}

/// Proposition 5.15's example pair over a ternary relation: `Q` is an
/// almost-triangle of maximum treewidth 3 and `Q'` a strong treewidth
/// approximation with the same number of joins.
pub fn prop_5_15_queries() -> (ConjunctiveQuery, ConjunctiveQuery) {
    let q = cqapx_cq::parse_cq("Q() :- R(x1,x2,x3), R(x2,x1,x4), R(x4,x3,x1)").unwrap();
    let qp = cqapx_cq::parse_cq("Q() :- R(x,y,y), R(y,x,y), R(y,y,x)").unwrap();
    (q, qp)
}

/// An instance of a ternary relation is an **almost-triangle** when some
/// element belongs to every tuple and removing it from each tuple leaves a
/// (directed) triangle.
pub fn is_almost_triangle(tuples: &[[u32; 3]]) -> bool {
    if tuples.len() != 3 {
        return false;
    }
    // candidate common elements
    let mut common: Vec<u32> = tuples[0].to_vec();
    for t in tuples {
        common.retain(|c| t.contains(c));
    }
    'cands: for &c in &common {
        // remove one occurrence of c from each tuple, keep order
        let mut pairs = Vec::new();
        for t in tuples {
            let pos = t.iter().position(|&x| x == c).expect("common element");
            let rest: Vec<u32> = t
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != pos)
                .map(|(_, &x)| x)
                .collect();
            pairs.push((rest[0].min(rest[1]), rest[0].max(rest[1])));
        }
        // the three residue pairs must form a triangle (as a graph) on
        // three distinct elements
        let mut elems: Vec<u32> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        elems.sort_unstable();
        elems.dedup();
        if elems.len() != 3 {
            continue 'cands;
        }
        if pairs.iter().any(|&(a, b)| a == b) {
            continue 'cands;
        }
        let mut distinct = pairs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() == 3 {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{all_approximations, ApproxOptions};
    use crate::classes::TwK;
    use cqapx_cq::{contained_in, equivalent, is_minimized, parse_cq, treewidth_of_query};

    #[test]
    fn prop_515_pair_checks() {
        let (q, qp) = prop_5_15_queries();
        assert!(has_maximum_treewidth(&q));
        assert_eq!(treewidth_of_query(&q), 3);
        assert!(is_potential_strong_approximation(&qp));
        assert_eq!(q.join_count(), qp.join_count());
        assert!(is_minimized(&q), "Q is minimized");
        assert!(is_minimized(&qp), "Q' is minimized");
        assert!(contained_in(&qp, &q));
        // The almost-triangle shape of T_Q.
        assert!(is_almost_triangle(&[[0, 1, 2], [1, 0, 3], [3, 2, 0]]));
        // Q' really is a TW(1)-approximation of Q.
        let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
        assert!(
            rep.approximations.iter().any(|a| equivalent(a, &qp)),
            "Q' among the TW(1)-approximations: {:?}",
            rep.approximations
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn prop_514_pair_checks() {
        for k in [3usize, 4] {
            let (q, qp) = prop_5_14_queries(k);
            assert_eq!(q.join_count(), qp.join_count(), "k={k}");
            assert!(has_maximum_treewidth(&q), "k={k}");
            assert!(is_potential_strong_approximation(&qp));
            assert!(contained_in(&qp, &q), "Q' ⊆ Q for k={k}");
            assert!(is_minimized(&qp), "Q' minimized for k={k}");
        }
    }

    #[test]
    fn prop_513_construction() {
        // Q'() :- R(x,y,y), R(y,x,y), R(y,y,x) has an atom with exactly two
        // occurrences of y? R(x,y,y): y occurs twice. Use it with n = 4, 5.
        let (_, qp) = prop_5_15_queries();
        for n in [4usize, 5] {
            let q = prop_5_13_construct(&qp, n);
            assert_eq!(q.var_count(), n);
            assert!(has_maximum_treewidth(&q), "G(Q) = K{n}");
            assert!(contained_in(&qp, &q), "Q' ⊆ Q for n={n}");
            let bound = (qp.atom_count()) + n * (n - 1) / 2 - 1;
            assert!(q.atom_count() <= bound, "atom bound for n={n}");
        }
    }

    #[test]
    fn prop_513_approximation_for_small_n() {
        // For n = 4 the construction's output is small enough to verify
        // approximation-hood exhaustively.
        let (_, qp) = prop_5_15_queries();
        let q = prop_5_13_construct(&qp, 4);
        let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
        assert!(
            rep.approximations.iter().any(|a| equivalent(a, &qp)),
            "Q' must be a TW(1)-approximation of the generated Q; got {:?}",
            rep.approximations
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn graph_case_trivializes() {
        // Over graphs, a max-treewidth query with ≥ 3 vars has K_n tableau:
        // not bipartite, so only the trivial approximation (§5.3 remark).
        let q = parse_cq("Q() :- E(x,y), E(y,x), E(y,z), E(z,y), E(x,z), E(z,x)").unwrap();
        assert!(has_maximum_treewidth(&q));
        let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
        assert_eq!(rep.approximations.len(), 1);
        assert_eq!(rep.approximations[0].atom_count(), 1);
    }

    #[test]
    fn almost_triangle_negative_cases() {
        // no common element
        assert!(!is_almost_triangle(&[[0, 1, 2], [1, 2, 3], [4, 5, 0]]));
        // common element, but the residue is a path, not a triangle
        assert!(!is_almost_triangle(&[[4, 1, 2], [4, 2, 3], [4, 3, 5]]));
        // repeated residue pair
        assert!(!is_almost_triangle(&[[4, 1, 2], [4, 2, 1], [4, 3, 1]]));
        // wrong tuple count
        assert!(!is_almost_triangle(&[[4, 1, 2], [4, 2, 3]]));
    }

    #[test]
    fn almost_triangle_positive_case() {
        // The paper's example: (4,1,2), (4,2,3), (4,3,1).
        assert!(is_almost_triangle(&[[4, 1, 2], [4, 2, 3], [4, 3, 1]]));
    }
}
