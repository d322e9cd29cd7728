//! Byte accounting for the cache budgets: the estimated resident bytes
//! of cached objects.
//!
//! Both engine caches are byte-accounted: the per-database
//! [`MaterializationCache`](cqapx_cq::eval::MaterializationCache)
//! measures its `FlatRelation` buffers exactly, while the
//! [`ApproxCache`](crate::ApproxCache) holds heterogeneous compiled
//! plans and tableaux, so its entries are *estimated* from the tuple
//! and universe counts of the structures they retain. Estimates only
//! steer eviction order and budget comparisons — they never affect
//! answers — so a consistent approximation is all that is required.

use cqapx_structures::{Pointed, Structure};
use std::mem::size_of;

/// Estimated resident bytes of a structure: its tuple storage plus
/// per-element bookkeeping (indexes, names) and a fixed allocation
/// overhead.
fn structure_bytes(s: &Structure) -> usize {
    let tuple_elems: usize = s
        .vocabulary()
        .rel_ids()
        .map(|r| s.flat_tuples(r).len())
        .sum();
    // Tuples are stored once and indexed once (the lazy per-structure
    // inverted index roughly doubles them); elements carry id-sized
    // bookkeeping.
    tuple_elems * 2 * size_of::<u32>() + s.universe_size() * size_of::<usize>() + 64
}

/// Estimated resident bytes of a pointed structure (tableau).
pub(crate) fn pointed_bytes(p: &Pointed) -> usize {
    structure_bytes(&p.structure) + std::mem::size_of_val(p.distinguished())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_estimate_scales_with_tuples() {
        let small = Structure::digraph(4, &[(0, 1)]);
        let big = Structure::digraph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(structure_bytes(&big) > structure_bytes(&small));
        let p = Pointed::new(Structure::digraph(3, &[(0, 1)]), vec![0, 1]);
        assert!(pointed_bytes(&p) > structure_bytes(&p.structure));
    }
}
