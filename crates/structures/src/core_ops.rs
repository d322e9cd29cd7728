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

use crate::hom::Homomorphism;
use crate::pointed::Pointed;
use crate::solver::HomSolver;
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
}

/// Searches for an endomorphism of `p` whose image misses at least one
/// element, i.e. a witness that `p` is not a core.
///
/// Distinguished elements are pinned to themselves. The endomorphism
/// source is compiled once and reused across all `n` exclusion probes
/// (and the target-side index is the structure's cached one), so each
/// probe pays only for its search.
fn non_surjective_endomorphism(p: &Pointed) -> Option<Homomorphism> {
    let s = &p.structure;
    let n = s.universe_size();
    let solver = HomSolver::compile(s);
    for avoid in 0..n as Element {
        if p.distinguished().contains(&avoid) {
            continue; // pinned elements are always in the image
        }
        let mut run = solver.run(s).exclude_target(avoid);
        for &d in p.distinguished() {
            run = run.pin(d, d);
        }
        if let Some(h) = run.find() {
            return Some(h);
        }
    }
    None
}

/// `true` when the pointed structure is a core (every endomorphism fixing
/// the distinguished tuple is surjective).
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
    non_surjective_endomorphism(p).is_none()
}

/// Computes the core of a pointed structure.
///
/// Repeatedly finds a non-surjective endomorphism and replaces the
/// structure by its image, until no such endomorphism exists. The result is
/// the unique core up to isomorphism.
///
/// # Panics
///
/// Panics when the universe is not the active domain (tableaux of
/// conjunctive queries always have active universes; normalize with
/// [`Pointed::restrict_to_adom`] first otherwise).
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
    assert!(
        p.structure.universe_is_active(),
        "core_of needs an active universe (every element in some tuple)"
    );
    let mut current = p.restrict_to_adom();
    // retraction from original universe into current universe
    let mut retraction: Vec<Element> = (0..p.structure.universe_size() as Element).collect();
    let mut iterations = 0;

    // Monotonicity of unavoidability under retraction: if the current
    // structure `D` has no endomorphism (fixing ā) avoiding `y`, then no
    // retract `D'` of `D` containing `y` has one either — an endomorphism
    // `g` of `D'` avoiding `y` would compose with the projection and the
    // inclusion into `π;g;ι`, an endomorphism of `D` avoiding `y`. So a
    // failed probe settles its element for the *entire* run: the flag is
    // carried through each retraction's renumbering and the element is
    // never probed again, bounding the total number of failed probes by
    // the universe size (the seed engine restarted every probe from
    // scratch after each retraction).
    let mut proven: Vec<bool> = vec![false; current.structure.universe_size()];

    loop {
        let s = &current.structure;
        let n = s.universe_size();
        let solver = HomSolver::compile(s);
        let mut witness: Option<Homomorphism> = None;
        for avoid in 0..n as Element {
            if proven[avoid as usize] || current.distinguished().contains(&avoid) {
                continue;
            }
            let mut run = solver.run(s).exclude_target(avoid);
            for &d in current.distinguished() {
                run = run.pin(d, d);
            }
            match run.find() {
                Some(h) => {
                    witness = Some(h);
                    break;
                }
                None => proven[avoid as usize] = true,
            }
        }
        match witness {
            None => break,
            Some(mut h) => {
                iterations += 1;
                // Iterate the witness to its eventual image (h², h⁴, …):
                // every power of an endomorphism fixing ā is again one,
                // and the image chain shrinks until h is injective on it.
                // One cheap O(n log n) squeeze per *search* often saves
                // whole search-and-rebuild iterations.
                let mut image = h.image_size();
                loop {
                    let h2 = h.then(&h);
                    let next_image = h2.image_size();
                    if next_image < image {
                        h = h2;
                        image = next_image;
                    } else {
                        break;
                    }
                }
                // Build the image as a pointed structure, tracking renaming.
                let next = current.map_image(&h.map);
                // Track where each original element goes: through h, then
                // through the dense renumbering done by map_image. Recompute
                // the renumbering: elements of Im(h) sorted.
                let raw = current.structure.map_image_raw(&h.map);
                let (_, remap) = raw.restrict_to_adom();
                for r in retraction.iter_mut() {
                    let via_h = h.map[*r as usize];
                    *r = remap[via_h as usize].expect("image elements are active");
                }
                // Carry the settled flags through the renumbering
                // (collapsed elements drop out; surviving ones keep their
                // verdict by the monotonicity argument above).
                let mut next_proven = vec![false; next.structure.universe_size()];
                for (old, new) in remap.iter().enumerate() {
                    if let Some(new) = new {
                        next_proven[*new as usize] = proven[old];
                    }
                }
                proven = next_proven;
                current = next;
            }
        }
    }

    CoreResult {
        core: current,
        retraction,
        iterations,
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
