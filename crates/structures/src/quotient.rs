//! Quotients of structures by partitions of their universe.
//!
//! The quotient `D/P` replaces every element by its block; its tuples are
//! the images of `D`'s tuples. The projection `D → D/P` is always a
//! homomorphism, and conversely the image of *any* homomorphism defined on
//! `D` is (isomorphic to) a quotient of `D` — the observation at the heart
//! of the paper's Theorem 4.1: all approximations can be chosen among the
//! quotients of the tableau.

use crate::hom::Homomorphism;
use crate::partition::Partition;
use crate::pointed::Pointed;
use crate::structure::Structure;

/// The quotient of a structure by a partition, together with the
/// projection homomorphism.
///
/// # Examples
///
/// ```
/// use cqapx_structures::{quotient, Partition, Structure};
///
/// // Collapsing a directed 4-cycle along opposite nodes gives K2^<->.
/// let c4 = Structure::digraph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let p = Partition::from_labels(&[0, 1, 0, 1]);
/// let (q, proj) = quotient(&c4, &p);
/// assert_eq!(q.universe_size(), 2);
/// assert!(proj.verify(&c4, &q));
/// ```
pub fn quotient(s: &Structure, p: &Partition) -> (Structure, Homomorphism) {
    assert_eq!(p.len(), s.universe_size(), "partition must cover universe");
    let map: Vec<u32> = (0..s.universe_size()).map(|e| p.block_of(e)).collect();
    let q = s.map_image_raw(&map);
    // Every block is hit, so the universe of `q` (0..n_blocks) is exactly
    // the set of blocks; but blocks whose elements occur in no tuple would
    // be inactive. Tableaux have active universes, so their quotients do
    // too; keep the raw quotient to preserve the block numbering.
    let h = Homomorphism { map };
    (q, h)
}

/// Quotient of a pointed structure: the distinguished tuple is mapped
/// through the projection.
pub fn quotient_pointed(p: &Pointed, part: &Partition) -> (Pointed, Homomorphism) {
    let (q, h) = quotient(&p.structure, part);
    let distinguished = p.distinguished().iter().map(|&x| h.apply(x)).collect();
    (Pointed::new(q, distinguished), h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::for_each_partition;
    use crate::solver::HomSolver;
    use crate::structure::Element;
    use std::ops::ControlFlow;

    fn cycle(n: usize) -> Structure {
        let edges: Vec<(Element, Element)> = (0..n)
            .map(|i| (i as Element, ((i + 1) % n) as Element))
            .collect();
        Structure::digraph(n, &edges)
    }

    #[test]
    fn projection_is_homomorphism_for_all_partitions() {
        let g = cycle(4);
        for_each_partition(4, |p| {
            let (q, h) = quotient(&g, p);
            assert!(h.verify(&g, &q), "projection must be a hom for {p:?}");
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn identity_partition_is_identity_quotient() {
        let g = cycle(5);
        let (q, h) = quotient(&g, &Partition::identity(5));
        assert_eq!(q, g);
        assert_eq!(h.map, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn coarsest_partition_gives_loop() {
        let g = cycle(5);
        let (q, _) = quotient(&g, &Partition::coarsest(5));
        assert_eq!(q.universe_size(), 1);
        let e = q.vocabulary().rel("E").unwrap();
        assert!(q.contains(e, &[0, 0]));
    }

    #[test]
    fn every_hom_image_is_a_quotient_image() {
        // For each hom h: C6 -> C3, quotient by ker(h) must map into C3.
        let c6 = cycle(6);
        let c3 = cycle(3);
        HomSolver::compile(&c6).run(&c3).for_each(|h| {
            let p = Partition::from_labels(&h.map);
            let (q, proj) = quotient(&c6, &p);
            assert!(proj.verify(&c6, &q));
            // q embeds into c3 (it is isomorphic to Im(h)).
            assert!(HomSolver::compile(&q).run(&c3).exists());
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn pointed_quotient_tracks_tuple() {
        let g = cycle(4);
        let p = Pointed::new(g, vec![0, 2]);
        let part = Partition::from_labels(&[0, 1, 0, 1]);
        let (q, _) = quotient_pointed(&p, &part);
        assert_eq!(q.distinguished(), &[0, 0]);
    }
}
