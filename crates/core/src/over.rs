//! Overapproximations — the paper's "future work" direction
//! (Section 7), implemented in its sound form.
//!
//! An overapproximation of `Q` within a class `C` is a `Q⁺ ∈ C` with
//! `Q ⊆ Q⁺`: it returns **all** correct answers (possibly with false
//! positives) — the dual of the paper's maximally-contained
//! approximations. The paper leaves the existence theory open ("even the
//! most basic problems … seem challenging"); what *is* straightforward,
//! and useful in practice, is a sound, locally-maximal construction:
//!
//! * dropping atoms from `Q` always yields a containing query
//!   (`T_{Q'} ⊆ T_Q` gives the identity homomorphism `T_{Q'} → T_Q`,
//!   i.e. `Q ⊆ Q'`), and any safe subset of atoms lands in `C`
//!   eventually (a single atom is always acyclic and of minimal width);
//! * among atom subsets, we take an inclusion-**maximal** one in `C`
//!   (greedy re-adding), so no dropped atom can be restored without
//!   leaving the class.
//!
//! Combined with the paper's under-approximations this yields the
//! *sandwich* `Q⁻ ⊆ Q ⊆ Q⁺`: evaluate both tractably; answers of `Q⁻`
//! are **certain**, answers of `Q⁺` are **candidates** (and the
//! difference bounds the approximation error on the given database).

use crate::classes::QueryClass;
use cqapx_cq::{tableau_of, ConjunctiveQuery};
use cqapx_structures::Element;

/// Builds the subquery with the given atoms, restricted to variables that
/// still occur (free variables must survive — atoms covering them are
/// protected by the caller).
fn subquery(q: &ConjunctiveQuery, keep: &[bool]) -> Option<ConjunctiveQuery> {
    let atoms = q.atoms().zip(keep).filter(|&(_, &k)| k).map(|(a, _)| a);
    // No atom kept, no query.
    atoms.clone().next()?;
    // Variables still used.
    let mut used = vec![false; q.var_count()];
    for &v in atoms.clone().flat_map(|a| a.args) {
        used[v as usize] = true;
    }
    // Safety: every free variable must still occur.
    if q.free_vars().iter().any(|&v| !used[v as usize]) {
        return None;
    }
    // Rename densely.
    let mut remap = vec![0 as Element; q.var_count()];
    let mut names = Vec::new();
    let mut next = 0;
    for v in 0..q.var_count() {
        if used[v] {
            remap[v] = next;
            names.push(q.var_name(v as u32));
            next += 1;
        }
    }
    let atoms = atoms.map(|a| {
        let args: Vec<_> = a.args.iter().map(|&v| remap[v as usize]).collect();
        (a.rel, args)
    });
    let free = q.free_vars().iter().map(|&v| remap[v as usize]).collect();
    Some(ConjunctiveQuery::new(
        q.vocabulary().clone(),
        names,
        free,
        atoms,
    ))
}

/// A sound `C`-overapproximation of `Q`: a query `Q⁺ ∈ C` with
/// `Q ⊆ Q⁺`, obtained as an inclusion-maximal subset of `Q`'s atoms
/// whose query lies in `C` (no dropped atom can be re-added).
///
/// Returns `None` only when no safe atom subset lies in `C` (cannot
/// happen for `AC`/`TW(k)`/`HTW(k)` with `k ≥ 1` as long as some single
/// atom covers all free variables; for queries with free variables spread
/// over several atoms a minimal connected subset is tried first).
///
/// # Examples
///
/// ```
/// use cqapx_core::{over, Acyclic};
/// use cqapx_cq::{contained_in, parse_cq};
///
/// let tri = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
/// let q_plus = over::sound_overapproximation(&tri, &Acyclic).unwrap();
/// assert!(contained_in(&tri, &q_plus));     // all answers kept
/// assert_eq!(q_plus.atom_count(), 2);       // one edge dropped
/// ```
pub fn sound_overapproximation(
    q: &ConjunctiveQuery,
    class: &QueryClass,
) -> Option<ConjunctiveQuery> {
    let m = q.atom_count();
    let in_class = |keep: &[bool]| -> Option<ConjunctiveQuery> {
        let sub = subquery(q, keep)?;
        class.contains_tableau(&tableau_of(&sub)).then_some(sub)
    };

    // Start from everything; greedily drop atoms until in class.
    let mut keep = vec![true; m];
    if in_class(&keep).is_none() {
        // Drop the atom whose removal makes the most progress (here:
        // first removable one per pass; queries are small).
        'outer: loop {
            for i in 0..m {
                if !keep[i] {
                    continue;
                }
                keep[i] = false;
                if subquery(q, &keep).is_some() {
                    if in_class(&keep).is_some() {
                        break 'outer;
                    }
                    // keep the drop and continue shrinking
                    continue 'outer;
                }
                keep[i] = true; // unsafe drop (free variable lost)
            }
            // Nothing droppable left and still not in class.
            return None;
        }
    }
    // Local maximality: try to restore dropped atoms.
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..m {
            if keep[i] {
                continue;
            }
            keep[i] = true;
            if in_class(&keep).is_some() {
                changed = true;
            } else {
                keep[i] = false;
            }
        }
    }
    in_class(&keep)
}

/// The sandwich `Q⁻ ⊆ Q ⊆ Q⁺`: an under-approximation from the paper's
/// exact procedure (first one found) together with a sound
/// overapproximation, both in `C`.
pub fn sandwich(
    q: &ConjunctiveQuery,
    class: &QueryClass,
    opts: &crate::approx::ApproxOptions,
) -> (ConjunctiveQuery, Option<ConjunctiveQuery>) {
    let rep = crate::approx::all_approximations(q, class, opts);
    let under = rep
        .approximations
        .into_iter()
        .next()
        .expect("under-approximations always exist");
    let over = sound_overapproximation(q, class);
    (under, over)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{Acyclic, HtwK, TwK};
    use cqapx_cq::{contained_in, eval, parse_cq};
    use cqapx_structures::Structure;

    #[test]
    fn triangle_sandwich() {
        let tri = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let (under, over) = sandwich(&tri, &Acyclic, &crate::approx::ApproxOptions::default());
        let over = over.expect("overapproximation exists");
        assert!(contained_in(&under, &tri));
        assert!(contained_in(&tri, &over));
        // On any database: under ⊆ exact ⊆ over.
        let d = Structure::digraph(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let e_under = eval::naive::eval_boolean_naive(&under, &d);
        let e_exact = eval::naive::eval_boolean_naive(&tri, &d);
        let e_over = eval::naive::eval_boolean_naive(&over, &d);
        assert!(!e_under || e_exact);
        assert!(!e_exact || e_over);
    }

    #[test]
    fn overapproximation_is_maximal_subset() {
        let tri = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let over = sound_overapproximation(&tri, &TwK(1)).unwrap();
        // dropping one edge of a triangle leaves a 2-path: acyclic, and
        // restoring any edge closes the cycle — maximal.
        assert_eq!(over.atom_count(), 2);
    }

    #[test]
    fn in_class_query_is_its_own_overapproximation() {
        let p = parse_cq("Q(x) :- E(x,y), E(y,z)").unwrap();
        let over = sound_overapproximation(&p, &TwK(1)).unwrap();
        assert_eq!(over.atom_count(), p.atom_count());
        assert!(cqapx_cq::equivalent(&over, &p));
    }

    #[test]
    fn free_variables_protected() {
        // Free variables x1..x3 occur only in specific atoms; the greedy
        // drop must not orphan them.
        let q = parse_cq("Q(x1, x2, x3) :- E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x1)").unwrap();
        let over = sound_overapproximation(&q, &TwK(1)).unwrap();
        assert!(contained_in(&q, &over));
        assert_eq!(over.arity(), 3);
    }

    #[test]
    fn higher_arity_over() {
        let q = parse_cq("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)").unwrap();
        let over = sound_overapproximation(&q, &Acyclic).unwrap();
        assert!(contained_in(&q, &over));
        assert_eq!(over.atom_count(), 2, "dropping one ternary atom suffices");
        // HTW(2) holds already: nothing dropped.
        let over2 = sound_overapproximation(&q, &HtwK(2)).unwrap();
        assert_eq!(over2.atom_count(), 3);
    }

    #[test]
    fn answers_sandwich_on_data() {
        let q = parse_cq("Q(a) :- E(a,b), E(b,c), E(c,a)").unwrap();
        let (under, over) = sandwich(&q, &TwK(1), &crate::approx::ApproxOptions::default());
        let over = over.unwrap();
        let d = Structure::digraph(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let a_under = eval::naive::eval_naive(&under, &d);
        let a_exact = eval::naive::eval_naive(&q, &d);
        let a_over = eval::naive::eval_naive(&over, &d);
        assert!(a_under.is_subset(&a_exact), "certain answers");
        assert!(a_exact.is_subset(&a_over), "candidate answers");
    }
}
