//! Cores of relational structures.
//!
//! A structure `D` is a **core** when there is no homomorphism from `D`
//! into a structure strictly contained in `D`; equivalently, every
//! endomorphism of `D` is surjective (hence an automorphism). Every finite
//! structure has a unique core up to isomorphism (`core(D)`), obtained by
//! repeatedly retracting along non-surjective endomorphisms. Cores of
//! tableaux are exactly the tableaux of **minimized** conjunctive queries
//! (Chandra & Merlin).
//!
//! For pointed structures `(D, ā)` the distinguished elements are pinned:
//! an endomorphism must fix `ā` pointwise, matching CQ minimization in the
//! presence of free variables.
//!
//! # Cores by restriction
//!
//! A retract of `D` is an induced substructure `D[S]`, `S` the image of
//! an idempotent endomorphism. The retraction loop never builds one
//! before the end, by this lemma: *when `D → D[S]` (fixing `ā`), `D[S]`
//! has an endomorphism fixing `ā` whose image misses `y` iff
//! `D → D[S ∖ {y}]` (fixing `ā`).* One way, compose the retraction
//! `D → D[S]` with the endomorphism; the other, restrict the homomorphism
//! to `S`. So [`core_of`] compiles `D` once and searches `D → D[S ∖ {y}]`
//! against `D`'s own index with the image confined to `S ∖ {y}`; a probe
//! that fails stays failed for every smaller `S`, whose target is smaller.

use crate::hom::Homomorphism;
use crate::index::ElemSet;
use crate::pointed::Pointed;
use crate::solver::{HomRun, HomSolver};
use crate::structure::Element;

/// The result of a core computation.
#[derive(Debug, Clone)]
pub struct CoreResult {
    /// The core structure (with dense universe).
    pub core: Pointed,
    /// The retraction from the input onto (a copy of) the core: for each
    /// input element, the index of its image *in the core's universe*.
    pub retraction: Vec<Element>,
    /// Number of retract iterations performed.
    pub iterations: usize,
    /// The solver compiled on the input, when the input is its own core:
    /// a caller that keeps the core compiled need not compile it again.
    pub solver: Option<HomSolver>,
}

/// A search for a homomorphism `D → D[S]` fixing the distinguished tuple,
/// `S` = `allowed`: `p`'s compiled structure into the substructure it
/// induces on `S`.
fn into_restriction<'s, 't>(
    solver: &'s HomSolver,
    p: &'t Pointed,
    allowed: &'t ElemSet,
) -> HomRun<'s, 't> {
    let head = p.distinguished();
    solver
        .run(&p.structure)
        .pin_tuple(head, head)
        .within(allowed)
}

/// `true` when the pointed structure is a core (every endomorphism fixing
/// the distinguished tuple is surjective).
///
/// One compiled source and the structure's own index serve every probe:
/// `D` is a core iff no `D → D[V ∖ {y}]` exists for an undistinguished
/// `y`.
///
/// # Examples
///
/// ```
/// use cqapx_structures::{core_ops, Pointed, Structure};
///
/// let c3 = Pointed::boolean(Structure::digraph(3, &[(0, 1), (1, 2), (2, 0)]));
/// assert!(core_ops::is_core(&c3));
///
/// // A symmetric path 0 <-> 1 <-> 2 retracts onto a single edge: not a core.
/// let p = Pointed::boolean(Structure::digraph(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]));
/// assert!(!core_ops::is_core(&p));
/// ```
pub fn is_core(p: &Pointed) -> bool {
    let n = p.structure.universe_size();
    let solver = HomSolver::compile(&p.structure);
    let mut allowed = ElemSet::default();
    allowed.reset_full(n);
    (0..n as Element)
        .filter(|y| !p.distinguished().contains(y))
        .all(|y| {
            allowed.remove(y);
            let avoids = into_restriction(&solver, p, &allowed).exists();
            allowed.insert(y);
            !avoids
        })
}

/// Computes the core of a pointed structure, by restriction.
///
/// The input `D` is compiled once, and every probe searches for a
/// homomorphism `D → D[S ∖ {y}]` fixing the distinguished tuple, over the
/// structure's own index, for a shrinking allowed set `S` (at first the
/// whole universe). The module's lemma makes this the classical
/// retraction loop: `D[S]` is always a retract of `D`, and it has an
/// endomorphism avoiding `y` iff `D → D[S ∖ {y}]`. A found witness is
/// squared while its image shrinks — every power fixes the head — and `S`
/// becomes that image; a failed probe settles `y` for the whole run, since
/// a smaller `S` only shrinks the target. So the elements are probed once
/// each, in ascending order, and the core `D[S]` — a retract is an induced
/// substructure — is built once, at the end. It is the unique core up to
/// isomorphism; the distinguished tuple and the surviving elements' names
/// carry over.
///
/// # Panics
///
/// Panics when the universe is not the active domain (tableaux of
/// conjunctive queries always have active universes; normalize with
/// [`Structure::restrict_to_adom`](crate::Structure::restrict_to_adom)
/// first otherwise).
///
/// # Examples
///
/// ```
/// use cqapx_structures::{core_ops, Pointed, Structure};
///
/// // A symmetric 3-path retracts onto a double edge K2^<->.
/// let p = Pointed::boolean(Structure::digraph(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]));
/// let r = core_ops::core_of(&p);
/// assert_eq!(r.core.structure.universe_size(), 2);
/// ```
pub fn core_of(p: &Pointed) -> CoreResult {
    let n = p.structure.universe_size();
    let solver = HomSolver::compile(&p.structure);
    assert!(
        solver.constrains_every_element(),
        "core_of needs an active universe (every element in some tuple)"
    );
    let mut allowed = ElemSet::default();
    allowed.reset_full(n);
    // The last witness, squeezed: a homomorphism from `D` onto `D[S]`.
    let mut witness: Option<Homomorphism> = None;
    let mut iterations = 0;
    let mut squared = Homomorphism { map: Vec::new() };
    for y in 0..n as Element {
        if !allowed.contains(y) || p.distinguished().contains(&y) {
            continue;
        }
        allowed.remove(y);
        let Some(mut h) = into_restriction(&solver, p, &allowed).find() else {
            allowed.insert(y);
            continue;
        };
        iterations += 1;
        // Iterate the witness to its eventual image (h², h⁴, …): the image
        // chain shrinks until `h` is injective on it. One cheap pass per
        // squaring often saves whole probes.
        let mut image = h.image_size();
        loop {
            squared.map.clear();
            squared.map.extend(h.map.iter().map(|&x| h.map[x as usize]));
            let next_image = squared.image_size();
            if next_image >= image {
                break;
            }
            std::mem::swap(&mut h, &mut squared);
            image = next_image;
        }
        allowed.reset_empty(n);
        for &x in &h.map {
            allowed.insert(x);
        }
        witness = Some(h);
    }
    let Some(h) = witness else {
        return CoreResult {
            core: p.clone(),
            retraction: (0..n as Element).collect(),
            iterations,
            solver: Some(solver),
        };
    };
    let (core, remap) = p.structure.induced(|x| allowed.contains(x));
    let rank = |x: Element| remap[x as usize].expect("the image is the core's universe");
    let distinguished = p.distinguished().iter().map(|&x| rank(x)).collect();
    CoreResult {
        core: Pointed::new(core, distinguished),
        retraction: h.map.iter().map(|&x| rank(x)).collect(),
        iterations,
        solver: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::HomSolver;
    use crate::structure::Structure;

    fn cycle(n: usize) -> Structure {
        let edges: Vec<(Element, Element)> = (0..n)
            .map(|i| (i as Element, ((i + 1) % n) as Element))
            .collect();
        Structure::digraph(n, &edges)
    }

    #[test]
    fn odd_cycles_are_cores() {
        for n in [3, 5, 7] {
            assert!(
                is_core(&Pointed::boolean(cycle(n))),
                "C{n} should be a core"
            );
        }
    }

    #[test]
    fn directed_even_cycle_is_core() {
        // A directed (not symmetric) C4 is a core: its endomorphisms are
        // rotations.
        assert!(is_core(&Pointed::boolean(cycle(4))));
    }

    #[test]
    fn directed_c6_is_a_core() {
        // A directed cycle cannot map into any proper subgraph of itself
        // (proper subgraphs are acyclic), so C6 is a core — even though it
        // maps onto C3. (Only C3 ∪ C6 retracts onto C3.)
        assert!(is_core(&Pointed::boolean(cycle(6))));
    }

    #[test]
    fn c3_union_c6_retracts_to_c3() {
        let g = cycle(3).disjoint_union(&cycle(6));
        let r = core_of(&Pointed::boolean(g.clone()));
        assert_eq!(r.core.structure.universe_size(), 3);
        assert!(is_core(&r.core));
        // Core is hom-equivalent to the original.
        assert!(HomSolver::compile(&g).run(&r.core.structure).exists());
        assert!(HomSolver::compile(&r.core.structure).run(&g).exists());
    }

    #[test]
    fn retraction_is_homomorphism() {
        let g = cycle(3).disjoint_union(&cycle(6));
        let r = core_of(&Pointed::boolean(g.clone()));
        let h = Homomorphism {
            map: r.retraction.clone(),
        };
        assert!(h.verify(&g, &r.core.structure));
    }

    #[test]
    fn loop_dominates() {
        // C3 plus a loop on a separate component cores to the loop.
        let g = cycle(3).disjoint_union(&Structure::digraph(1, &[(0, 0)]));
        let r = core_of(&Pointed::boolean(g));
        assert_eq!(r.core.structure.universe_size(), 1);
        assert_eq!(r.core.structure.total_tuples(), 1);
    }

    #[test]
    fn pinned_elements_survive() {
        // Path 0 -> 1 -> 2 with distinguished 0 and 2: the core keeps all
        // three elements (no endo can merge while fixing endpoints).
        let p = Structure::digraph(3, &[(0, 1), (1, 2)]);
        let pt = Pointed::new(p, vec![0, 2]);
        assert!(is_core(&pt));
        let r = core_of(&pt);
        assert_eq!(r.core.structure.universe_size(), 3);
    }

    #[test]
    fn pinning_changes_core() {
        // Symmetric edge 0 <-> 1 plus pendant edge 1 <-> 2: Boolean core is
        // K2; pinning element 2 keeps it.
        let g = Structure::digraph(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        let boolean_core = core_of(&Pointed::boolean(g.clone()));
        assert_eq!(boolean_core.core.structure.universe_size(), 2);
        let pinned = core_of(&Pointed::new(g, vec![2]));
        assert_eq!(pinned.core.structure.universe_size(), 2);
        // distinguished element must be in the core image
        assert_eq!(pinned.core.distinguished().len(), 1);
    }

    #[test]
    fn core_is_idempotent() {
        let g = cycle(6).disjoint_union(&cycle(9));
        let r1 = core_of(&Pointed::boolean(g));
        let r2 = core_of(&r1.core);
        assert_eq!(r2.iterations, 0);
        assert_eq!(
            r1.core.structure.universe_size(),
            r2.core.structure.universe_size()
        );
    }

    #[test]
    fn two_incomparable_components_both_stay() {
        // C3 + C5: neither maps to the other, so the core keeps both.
        let g = cycle(3).disjoint_union(&cycle(5));
        let r = core_of(&Pointed::boolean(g));
        assert_eq!(r.core.structure.universe_size(), 8);
    }
}
