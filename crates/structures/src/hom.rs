//! The homomorphism facade: [`Homomorphism`] witnesses and
//! [`HomSearchStats`].
//!
//! Finding a homomorphism `D₁ → D₂` between relational structures is
//! exactly solving a constraint satisfaction problem (Kolaitis & Vardi):
//! variables are the elements of `D₁`, domains are the elements of `D₂`,
//! and every tuple of `D₁` is a table constraint over the corresponding
//! tuples of `D₂`. The search itself lives in [`crate::solver`], and it
//! has one builder: [`HomSolver::compile`](crate::HomSolver) compiles a
//! source once, and each [`HomSolver::run`](crate::HomSolver::run)
//! against a target returns a [`HomRun`](crate::HomRun) to configure
//! (pins, exclusions, injectivity, a shared budget) and execute.
//!
//! The same engine serves the whole workspace:
//!
//! * CQ **evaluation** — `ā ∈ Q(D)` iff `(T_Q, x̄) → (D, ā)`;
//! * CQ **containment** — `Q ⊆ Q'` iff `(T_{Q'}, x̄') → (T_Q, x̄)`;
//! * **cores** — homomorphisms of a structure into its own induced
//!   substructures ([`crate::core_ops`]);
//! * **colorability** — `G` is `k`-colorable iff `G → K⃗_k`;
//! * verification of the paper's gadget claims (incomparability of oriented
//!   paths, chooser properties, …).

use crate::structure::{Element, Structure};

/// A homomorphism, stored as the image of each source element.
///
/// # Examples
///
/// ```
/// use cqapx_structures::{HomSolver, Structure};
///
/// let c3 = Structure::digraph(3, &[(0, 1), (1, 2), (2, 0)]);
/// let c6 = Structure::digraph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
/// // A directed 6-cycle maps onto a directed 3-cycle…
/// let h = HomSolver::compile(&c6).run(&c3).pin(0, 0).find().unwrap();
/// assert_eq!(h.map, vec![0, 1, 2, 0, 1, 2]);
/// assert!(h.verify(&c6, &c3));
/// // …but not the other way around.
/// assert!(!HomSolver::compile(&c3).run(&c6).exists());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Homomorphism {
    /// `map[e]` is the image of source element `e`.
    pub map: Vec<Element>,
}

impl Homomorphism {
    /// The image of a source element.
    #[inline]
    pub fn apply(&self, e: Element) -> Element {
        self.map[e as usize]
    }

    /// `true` when two distinct source elements share an image.
    pub fn is_non_injective(&self) -> bool {
        let mut image = self.map.clone();
        image.sort_unstable();
        image.windows(2).any(|w| w[0] == w[1])
    }

    /// Verifies that this map really is a homomorphism `source → target`.
    pub fn verify(&self, source: &Structure, target: &Structure) -> bool {
        if self.map.len() != source.universe_size() {
            return false;
        }
        if self
            .map
            .iter()
            .any(|&x| (x as usize) >= target.universe_size())
        {
            return false;
        }
        for rel in source.vocabulary().rel_ids() {
            for t in source.tuples(rel) {
                let mapped: Vec<Element> = t.iter().map(|&x| self.map[x as usize]).collect();
                if !target.contains(rel, &mapped) {
                    return false;
                }
            }
        }
        true
    }
}

/// Statistics from a homomorphism search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HomSearchStats {
    /// Number of branching decisions explored.
    pub nodes: u64,
    /// Number of backtracks.
    pub backtracks: u64,
    /// Number of AC-3 constraint revisions performed (propagation work,
    /// the complement of `nodes`' branching work).
    pub revisions: u64,
    /// Whether the search exhausted its step budget before finishing.
    pub budget_exhausted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{HomSolver, SearchBudget};
    use crate::structure::StructureBuilder;
    use crate::vocabulary::Vocabulary;
    use std::ops::ControlFlow;

    fn cycle(n: usize) -> Structure {
        let edges: Vec<(Element, Element)> = (0..n)
            .map(|i| (i as Element, ((i + 1) % n) as Element))
            .collect();
        Structure::digraph(n, &edges)
    }

    fn path(n: usize) -> Structure {
        let edges: Vec<(Element, Element)> =
            (0..n).map(|i| (i as Element, (i + 1) as Element)).collect();
        Structure::digraph(n + 1, &edges)
    }

    #[test]
    fn cycle_homomorphisms() {
        // C6 -> C3 exists (wrap twice), C3 -> C6 does not.
        assert!(HomSolver::compile(&cycle(6)).run(&cycle(3)).exists());
        assert!(!HomSolver::compile(&cycle(3)).run(&cycle(6)).exists());
        // C4 -> C2 exists.
        assert!(HomSolver::compile(&cycle(4)).run(&cycle(2)).exists());
        // C3 -> C3 exists (rotations): exactly 3 of them.
        assert_eq!(HomSolver::compile(&cycle(3)).run(&cycle(3)).count(), 3);
    }

    #[test]
    fn path_to_path() {
        // P2 -> P4 (slide along), P4 -> P2 impossible (too long).
        assert!(HomSolver::compile(&path(2)).run(&path(4)).exists());
        assert!(!HomSolver::compile(&path(4)).run(&path(2)).exists());
    }

    #[test]
    fn loop_absorbs_everything() {
        let lp = Structure::digraph(1, &[(0, 0)]);
        assert!(HomSolver::compile(&cycle(3)).run(&lp).exists());
        assert!(HomSolver::compile(&cycle(5)).run(&lp).exists());
        assert!(!HomSolver::compile(&lp).run(&cycle(3)).exists());
    }

    #[test]
    fn k2_bidirectional() {
        // K2^<-> (edges both ways) receives every bipartite digraph.
        let k2 = Structure::digraph(2, &[(0, 1), (1, 0)]);
        assert!(HomSolver::compile(&cycle(4)).run(&k2).exists());
        assert!(!HomSolver::compile(&cycle(3)).run(&k2).exists());
    }

    #[test]
    fn pinned_homomorphisms() {
        let p = path(2); // 0 -> 1 -> 2
        let c = cycle(3);
        // pin 0 -> 0: forced 1 -> 1, 2 -> 2.
        let h = HomSolver::compile(&p).run(&c).pin(0, 0).find().unwrap();
        assert_eq!(h.map, vec![0, 1, 2]);
        assert!(h.verify(&p, &c));
    }

    #[test]
    fn excluded_targets() {
        let p = path(1);
        let c = cycle(3);
        // Excluding all of 0,1 leaves only the image {2 -> 0} edge (2,0):
        let h = HomSolver::compile(&p)
            .run(&c)
            .exclude_target(1)
            .find()
            .unwrap();
        assert!(h.verify(&p, &c));
        assert!(!h.map.contains(&1));
    }

    #[test]
    fn injective_search() {
        let p = path(2);
        let c = cycle(3);
        let h = HomSolver::compile(&p).run(&c).injective().find().unwrap();
        assert!(!h.is_non_injective());
        // Injective C3 -> P2 impossible.
        assert!(!HomSolver::compile(&cycle(3))
            .run(&path(2))
            .injective()
            .exists());
    }

    #[test]
    fn count_all() {
        // homs from a single edge into C3: the 3 edges.
        let e1 = path(1);
        assert_eq!(HomSolver::compile(&e1).run(&cycle(3)).count(), 3);
        // homs from a single vertex-with-no-edges? Universe must be active
        // normally; test isolated-node behaviour anyway.
        let isolated = Structure::digraph(1, &[]);
        assert_eq!(HomSolver::compile(&isolated).run(&cycle(3)).count(), 3);
    }

    #[test]
    fn repeated_variable_tuples() {
        // Source demands a loop: tuple (x, x).
        let lp = Structure::digraph(1, &[(0, 0)]);
        let c3 = cycle(3);
        assert!(!HomSolver::compile(&lp).run(&c3).exists());
        let c3_with_loop = Structure::digraph(3, &[(0, 1), (1, 2), (2, 0), (1, 1)]);
        let h = HomSolver::compile(&lp).run(&c3_with_loop).find().unwrap();
        assert_eq!(h.map, vec![1]);
    }

    #[test]
    fn higher_arity_hom() {
        let v = Vocabulary::single(3);
        let r = v.rel("R").unwrap();
        // Source: R(x, y, x). Target: R(0,1,0), R(1,1,2).
        let mut b = StructureBuilder::new(v.clone(), 2);
        b.add(r, &[0, 1, 0]);
        let src = b.finish();
        let mut b = StructureBuilder::new(v, 3);
        b.add(r, &[0, 1, 0]).add(r, &[1, 1, 2]);
        let tgt = b.finish();
        let sols: Vec<_> = {
            let mut v = Vec::new();
            HomSolver::compile(&src).run(&tgt).for_each(|h| {
                v.push(h.map.clone());
                ControlFlow::Continue(())
            });
            v
        };
        // Only R(0,1,0) matches the (x,y,x) pattern.
        assert_eq!(sols, vec![vec![0, 1]]);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let big = cycle(12);
        let stats = HomSolver::compile(&big)
            .run(&cycle(3))
            .budget(&SearchBudget::new(1))
            .for_each(|_| ControlFlow::Continue(()));
        assert!(stats.budget_exhausted || stats.nodes <= 1);
    }

    #[test]
    fn verify_rejects_bad_maps() {
        let c3 = cycle(3);
        let bad = Homomorphism { map: vec![0, 0, 0] };
        assert!(!bad.verify(&c3, &c3));
        let good = Homomorphism { map: vec![1, 2, 0] };
        assert!(good.verify(&c3, &c3));
    }

    #[test]
    fn empty_source() {
        let v = Vocabulary::graphs();
        let empty = Structure::empty(v, 0);
        let c3 = cycle(3);
        assert!(HomSolver::compile(&empty).run(&c3).exists());
    }

    #[test]
    fn stats_nodes_counted() {
        let stats = HomSolver::compile(&cycle(4))
            .run(&cycle(2))
            .for_each(|_| ControlFlow::Continue(()));
        assert!(stats.nodes > 0);
    }

    #[test]
    fn image_methods_allocation_free_semantics() {
        // The injectivity test across shapes and repeated calls.
        let inj = Homomorphism { map: vec![2, 0, 1] };
        assert!(!inj.is_non_injective());

        let collapse = Homomorphism {
            map: vec![5, 5, 5, 5],
        };
        assert!(collapse.is_non_injective());

        let empty = Homomorphism { map: vec![] };
        assert!(!empty.is_non_injective());

        // A large, sparse image, then a small map.
        let sparse = Homomorphism {
            map: (0..1000).map(|i| i * 7 % 997).collect(),
        };
        assert!(sparse.is_non_injective());
        let small = Homomorphism { map: vec![1, 1] };
        assert!(small.is_non_injective());
    }

    #[test]
    fn image_methods_agree_with_naive() {
        // Differential check against the obvious sort-based computation.
        for seed in 0..20u64 {
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let len = (seed % 9) as usize;
            let map: Vec<Element> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 11) as Element
                })
                .collect();
            let mut sorted = map.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let h = Homomorphism { map: map.clone() };
            assert_eq!(h.is_non_injective(), sorted.len() < map.len());
        }
    }
}
