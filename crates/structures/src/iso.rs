//! Isomorphism checks between structures, and cheap isomorphism-invariant
//! signatures for hashing structures up to isomorphism.

use crate::fxhash::FxHasher;
use crate::hom::HomProblem;
use crate::pointed::Pointed;
use crate::structure::Structure;
use std::hash::{Hash, Hasher};

/// `true` when the two structures are isomorphic.
///
/// Uses the homomorphism engine with an injectivity constraint: a bijective
/// homomorphism between structures with equal per-relation tuple counts is
/// an isomorphism (it maps each relation injectively into an equal-sized
/// relation, hence onto it).
///
/// # Examples
///
/// ```
/// use cqapx_structures::{isomorphic, Structure};
///
/// let a = Structure::digraph(3, &[(0, 1), (1, 2), (2, 0)]);
/// let b = Structure::digraph(3, &[(1, 0), (0, 2), (2, 1)]); // relabeled C3
/// assert!(isomorphic(&a, &b));
///
/// let p = Structure::digraph(3, &[(0, 1), (1, 2)]);
/// assert!(!isomorphic(&a, &p));
/// ```
pub fn isomorphic(a: &Structure, b: &Structure) -> bool {
    if a.vocabulary() != b.vocabulary() {
        return false;
    }
    if a.universe_size() != b.universe_size() {
        return false;
    }
    for rel in a.vocabulary().rel_ids() {
        if a.tuples(rel).len() != b.tuples(rel).len() {
            return false;
        }
    }
    HomProblem::new(a, b).injective().exists()
}

/// Isomorphism of pointed structures: a structure isomorphism mapping the
/// distinguished tuple of `a` to that of `b` pointwise.
pub fn isomorphic_pointed(a: &Pointed, b: &Pointed) -> bool {
    if a.structure.vocabulary() != b.structure.vocabulary() {
        return false;
    }
    if a.structure.universe_size() != b.structure.universe_size() {
        return false;
    }
    if a.distinguished().len() != b.distinguished().len() {
        return false;
    }
    for rel in a.structure.vocabulary().rel_ids() {
        if a.structure.tuples(rel).len() != b.structure.tuples(rel).len() {
            return false;
        }
    }
    HomProblem::new(&a.structure, &b.structure)
        .pin_tuple(a.distinguished(), b.distinguished())
        .injective()
        .exists()
}

/// A cheap isomorphism invariant of a pointed structure, usable as a hash
/// key: equal signatures are *necessary* for isomorphism (bucket key),
/// [`isomorphic_pointed`] confirms within a bucket.
///
/// The signature records the vocabulary, universe size, per-relation tuple
/// counts, the sorted multiset of per-element occurrence fingerprints
/// (refined by one Weisfeiler–Leman-style round over tuple adjacency), and
/// the fingerprints of the distinguished tuple in order. All components
/// are invariant under renaming elements, and the distinguished component
/// forces pointwise correspondence of distinguished tuples.
///
/// # Examples
///
/// ```
/// use cqapx_structures::iso::{isomorphic_pointed, signature_pointed};
/// use cqapx_structures::{Pointed, Structure};
///
/// let a = Pointed::boolean(Structure::digraph(3, &[(0, 1), (1, 2), (2, 0)]));
/// let b = Pointed::boolean(Structure::digraph(3, &[(1, 0), (0, 2), (2, 1)]));
/// assert_eq!(signature_pointed(&a), signature_pointed(&b));
/// assert!(isomorphic_pointed(&a, &b));
///
/// let p = Pointed::boolean(Structure::digraph(3, &[(0, 1), (1, 2)]));
/// assert_ne!(signature_pointed(&a), signature_pointed(&p));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IsoSignature {
    /// Relation names and arities, in `RelId` order.
    vocab: Vec<(String, usize)>,
    /// Universe size.
    universe: usize,
    /// Tuples per relation, in `RelId` order.
    rel_counts: Vec<usize>,
    /// Sorted refined per-element fingerprints.
    element_profile: Vec<u64>,
    /// Refined fingerprints of the distinguished elements, in tuple order.
    distinguished: Vec<u64>,
}

fn hash_of(h: &impl Hash) -> u64 {
    // Deterministic and fast; signature values are compared only against
    // other signatures computed by this same function, and collisions are
    // harmless (signature equality is a bucket key, never a proof).
    let mut hasher = FxHasher::default();
    h.hash(&mut hasher);
    hasher.finish()
}

/// Computes the [`IsoSignature`] of a pointed structure in time roughly
/// `O(total tuples × max arity)` (plus sorting).
pub fn signature_pointed(p: &Pointed) -> IsoSignature {
    let s = &p.structure;
    let n = s.universe_size();
    let vocab: Vec<(String, usize)> = s
        .vocabulary()
        .rel_ids()
        .map(|r| (s.vocabulary().name(r).to_string(), s.vocabulary().arity(r)))
        .collect();
    let rel_counts: Vec<usize> = s
        .vocabulary()
        .rel_ids()
        .map(|r| s.tuples(r).len())
        .collect();

    // Round 0: per-element occurrence counts by (relation, position),
    // plus loop-degree (repetitions inside one tuple).
    let mut occ: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); n];
    for r in s.vocabulary().rel_ids() {
        for t in s.tuples(r) {
            for (pos, &e) in t.iter().enumerate() {
                let e = e as usize;
                let key = (r.0, pos as u32);
                match occ[e].iter_mut().find(|(rr, pp, _)| (*rr, *pp) == key) {
                    Some((_, _, c)) => *c += 1,
                    None => occ[e].push((key.0, key.1, 1)),
                }
            }
        }
    }
    let mut color: Vec<u64> = occ
        .iter_mut()
        .map(|o| {
            o.sort_unstable();
            hash_of(o)
        })
        .collect();

    // One refinement round: rehash each element with the sorted multiset
    // of colors it co-occurs with, per (relation, own position, other
    // position). Distinguishes e.g. path-ends from star-centers that
    // round 0 conflates.
    let mut neigh: Vec<Vec<(u32, u32, u32, u64)>> = vec![Vec::new(); n];
    for r in s.vocabulary().rel_ids() {
        let arity = s.vocabulary().arity(r);
        for t in s.tuples(r) {
            for pos in 0..arity {
                for pos2 in 0..arity {
                    if pos2 != pos {
                        neigh[t[pos] as usize].push((
                            r.0,
                            pos as u32,
                            pos2 as u32,
                            color[t[pos2] as usize],
                        ));
                    }
                }
            }
        }
    }
    for e in 0..n {
        neigh[e].sort_unstable();
        color[e] = hash_of(&(color[e], &neigh[e]));
    }

    let mut element_profile = color.clone();
    element_profile.sort_unstable();
    let distinguished = p
        .distinguished()
        .iter()
        .map(|&e| color[e as usize])
        .collect();
    IsoSignature {
        vocab,
        universe: n,
        rel_counts,
        element_profile,
        distinguished,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::Element;

    fn cycle(n: usize) -> Structure {
        let edges: Vec<(Element, Element)> = (0..n)
            .map(|i| (i as Element, ((i + 1) % n) as Element))
            .collect();
        Structure::digraph(n, &edges)
    }

    #[test]
    fn relabeled_cycles() {
        let a = cycle(5);
        let b = Structure::digraph(5, &[(2, 3), (3, 4), (4, 0), (0, 1), (1, 2)]);
        assert!(isomorphic(&a, &b));
    }

    #[test]
    fn different_sizes() {
        assert!(!isomorphic(&cycle(3), &cycle(4)));
    }

    #[test]
    fn same_counts_not_isomorphic() {
        // Path 0->1->2->3 vs star with 3 edges: same node and edge counts.
        let p = Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]);
        let s = Structure::digraph(4, &[(0, 1), (0, 2), (0, 3)]);
        assert!(!isomorphic(&p, &s));
    }

    #[test]
    fn pointed_isomorphism_respects_tuple() {
        let a = Pointed::new(cycle(3), vec![0]);
        let b = Pointed::new(cycle(3), vec![1]);
        // rotations exist, so these are isomorphic as pointed structures
        assert!(isomorphic_pointed(&a, &b));
        // path with endpoints distinguished differently
        let p1 = Pointed::new(Structure::digraph(2, &[(0, 1)]), vec![0]);
        let p2 = Pointed::new(Structure::digraph(2, &[(0, 1)]), vec![1]);
        assert!(!isomorphic_pointed(&p1, &p2));
    }

    #[test]
    fn reflexivity() {
        let g = cycle(4);
        assert!(isomorphic(&g, &g));
    }

    #[test]
    fn signature_invariant_under_relabeling() {
        let a = Pointed::new(cycle(5), vec![2]);
        let b = Pointed::new(
            Structure::digraph(5, &[(2, 3), (3, 4), (4, 0), (0, 1), (1, 2)]),
            vec![4],
        );
        assert_eq!(signature_pointed(&a), signature_pointed(&b));
    }

    #[test]
    fn signature_separates_path_from_star() {
        // Same node/edge counts and in/out degree multisets conflated at
        // round 0 need the refinement round to separate... these two
        // differ already, but check the classic near-collision pair.
        let p = Pointed::boolean(Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]));
        let s = Pointed::boolean(Structure::digraph(4, &[(0, 1), (0, 2), (0, 3)]));
        assert_ne!(signature_pointed(&p), signature_pointed(&s));
    }

    #[test]
    fn signature_respects_distinguished_tuple() {
        let edge = Structure::digraph(2, &[(0, 1)]);
        let a = Pointed::new(edge.clone(), vec![0]);
        let b = Pointed::new(edge, vec![1]);
        assert_ne!(signature_pointed(&a), signature_pointed(&b));
    }
}
