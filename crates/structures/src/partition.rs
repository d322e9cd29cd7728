//! Partitions of `{0, …, n-1}` and their enumeration.
//!
//! Homomorphic images of a tableau correspond exactly to its quotients by
//! partitions of the variable set (Theorem 4.1 takes approximations among
//! the structures `(Im(h), h(x̄))`, and the image of any map is determined
//! by which variables it identifies). The approximation algorithms
//! enumerate partitions as **restricted growth strings** (RGS): a sequence
//! `b` with `b[0] = 0` and `b[i] ≤ 1 + max(b[0..i])`, canonical per
//! set-partition. The number of partitions of an `n`-set is the `n`-th
//! Bell number — the source of the paper's single-exponential bounds.
//!
//! The enumeration order is **finest first** (reverse lexicographic on
//! the strings): every partition arrives after all of its refinements
//! (the lemma at [`walk_partitions`]), so a search for the finest
//! partitions with some property — the finest in-class quotients — can
//! discard a partition as soon as one it has already kept refines it.

use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// A partition of `{0, …, n-1}` in restricted-growth-string form.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Partition {
    /// `blocks[i]` is the block index of element `i`; block indices are
    /// dense and first-occurrence ordered (RGS normal form).
    blocks: Vec<u32>,
    n_blocks: u32,
}

impl Partition {
    /// The coarsest partition (all elements in one block). For `n = 0`
    /// there are no blocks.
    pub fn coarsest(n: usize) -> Self {
        Partition {
            blocks: vec![0; n],
            n_blocks: if n == 0 { 0 } else { 1 },
        }
    }

    /// Builds a partition from arbitrary block labels, normalizing to RGS
    /// form.
    pub fn from_labels(labels: &[u32]) -> Self {
        let table = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
        let mut remap: Vec<Option<u32>> = vec![None; table];
        let mut blocks = Vec::with_capacity(labels.len());
        let mut next = 0u32;
        for &l in labels {
            let slot = &mut remap[l as usize];
            let b = match *slot {
                Some(b) => b,
                None => {
                    let b = next;
                    *slot = Some(b);
                    next += 1;
                    b
                }
            };
            blocks.push(b);
        }
        Partition {
            blocks,
            n_blocks: next,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` for the empty partition.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks as usize
    }

    /// The block of an element.
    #[inline]
    pub fn block_of(&self, e: usize) -> u32 {
        self.blocks[e]
    }

    /// The block labels (RGS).
    pub fn labels(&self) -> &[u32] {
        &self.blocks
    }

    /// `true` when `self` refines `other` (every block of `self` is inside
    /// a block of `other`).
    pub fn refines(&self, other: &Partition) -> bool {
        assert_eq!(self.len(), other.len());
        // self refines other iff block_of(self) determines block_of(other).
        let mut img: Vec<Option<u32>> = vec![None; self.n_blocks as usize];
        for i in 0..self.len() {
            let b = self.blocks[i] as usize;
            match img[b] {
                None => img[b] = Some(other.blocks[i]),
                Some(x) => {
                    if x != other.blocks[i] {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// What a [`walk_partitions`] visitor wants done below the prefix it was
/// shown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Visit the extensions of this prefix (at a leaf: move on).
    Descend,
    /// Skip every extension of this prefix.
    Prune,
    /// Stop the whole enumeration.
    Stop,
}

/// Depth-first walk of the restricted-growth-string tree of
/// `{0, …, n-1}`: the visitor sees every non-empty RGS prefix, as the
/// partition of `{0, …, len-1}` it denotes, before any of its
/// extensions, and decides whether to [`Walk::Descend`]. Prefixes of
/// length `n` are the partitions themselves. A bound that is monotone
/// along extension — once a prefix fails, every partition below it
/// fails — turns the walk into a branch-and-bound.
///
/// **Order.** The children of a prefix are tried *new block first*, then
/// the existing blocks from the highest label down, so the leaves arrive
/// in reverse lexicographic order: the identity first, the coarsest last.
///
/// **Refinement lemma.** If `π` strictly refines `π′`, then `π` arrives
/// first. Proof: at the first position `i` where the strings differ both
/// have the same blocks `0..m` before it. Were `π[i] < m`, `i` would
/// share a `π`-block, hence a `π′`-block, with some `j < i`, forcing
/// `π′[i] = π′[j] = π[j] = π[i]`. So `π[i] = m > π′[i]`.
///
/// One `Partition` is reused for the whole walk; clone it to keep it.
/// Returns `true` unless the visitor answered [`Walk::Stop`]. (`n = 0`
/// has one partition, the empty one, and it is visited as a leaf.)
pub fn walk_partitions<F: FnMut(&Partition) -> Walk>(n: usize, mut f: F) -> bool {
    let mut p = Partition {
        blocks: Vec::with_capacity(n),
        n_blocks: 0,
    };
    if n == 0 {
        return f(&p) != Walk::Stop;
    }
    // `before[i]`: number of blocks among the first `i` labels.
    let mut before = vec![0u32; n];
    p.blocks.push(0);
    p.n_blocks = 1;
    loop {
        match f(&p) {
            Walk::Stop => return false,
            Walk::Descend if p.blocks.len() < n => {
                // First child: the next element opens a new block.
                before[p.blocks.len()] = p.n_blocks;
                p.blocks.push(p.n_blocks);
                p.n_blocks += 1;
                continue;
            }
            _ => {}
        }
        // Next sibling of the deepest label that has one: the next lower
        // label, which is a block the shorter prefix already has.
        loop {
            let last = p.blocks.len() - 1;
            if p.blocks[last] > 0 {
                p.blocks[last] -= 1;
                p.n_blocks = before[last];
                break;
            }
            if last == 0 {
                return true; // exhausted
            }
            p.blocks.pop();
        }
    }
}

/// Enumerates every partition of `{0, …, n-1}` (Bell(n) of them), finest
/// first (each after all of its refinements), invoking the callback on
/// each; stops early on `Break`. This is [`walk_partitions`] with nothing
/// pruned.
///
/// Returns `true` when the enumeration ran to completion.
///
/// # Examples
///
/// ```
/// use cqapx_structures::partition::for_each_partition;
/// use std::ops::ControlFlow;
///
/// let mut count = 0;
/// for_each_partition(4, |_p| {
///     count += 1;
///     ControlFlow::Continue(())
/// });
/// assert_eq!(count, 15); // Bell(4)
/// ```
pub fn for_each_partition<F: FnMut(&Partition) -> ControlFlow<()>>(n: usize, mut f: F) -> bool {
    walk_partitions(n, |p| {
        if p.len() == n && f(p).is_break() {
            Walk::Stop
        } else {
            Walk::Descend
        }
    })
}

/// The `n`-th Bell number (number of partitions of an `n`-set), saturating
/// at `u64::MAX`.
pub fn bell(n: usize) -> u64 {
    // Bell triangle.
    let mut row = vec![1u64];
    for _ in 0..n {
        let mut next = Vec::with_capacity(row.len() + 1);
        next.push(*row.last().unwrap());
        for &x in &row {
            let prev = *next.last().unwrap();
            next.push(prev.saturating_add(x));
        }
        row = next;
    }
    row[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Partition {
        /// The identity partition (every element its own block).
        pub(crate) fn identity(n: usize) -> Self {
            Partition {
                blocks: (0..n as u32).collect(),
                n_blocks: n as u32,
            }
        }

        /// The partition obtained by additionally merging elements `a` and `b`.
        pub(crate) fn merge(&self, a: usize, b: usize) -> Partition {
            let ba = self.blocks[a];
            let bb = self.blocks[b];
            if ba == bb {
                return self.clone();
            }
            let labels: Vec<u32> = self
                .blocks
                .iter()
                .map(|&x| if x == bb { ba } else { x })
                .collect();
            Partition::from_labels(&labels)
        }
    }

    #[test]
    fn bell_numbers() {
        assert_eq!(bell(0), 1);
        assert_eq!(bell(1), 1);
        assert_eq!(bell(2), 2);
        assert_eq!(bell(3), 5);
        assert_eq!(bell(4), 15);
        assert_eq!(bell(5), 52);
        assert_eq!(bell(10), 115_975);
    }

    #[test]
    fn enumeration_counts_match_bell() {
        for n in 0..=7 {
            let mut count = 0u64;
            for_each_partition(n, |_| {
                count += 1;
                ControlFlow::Continue(())
            });
            assert_eq!(count, bell(n), "Bell({n})");
        }
    }

    #[test]
    fn enumeration_yields_distinct_normalized_partitions() {
        let mut seen = std::collections::HashSet::new();
        for_each_partition(5, |p| {
            assert_eq!(p, &Partition::from_labels(p.labels()), "RGS-normalized");
            assert!(seen.insert(p.labels().to_vec()), "no duplicates");
            ControlFlow::Continue(())
        });
        assert_eq!(seen.len(), 52);
    }

    #[test]
    fn early_break() {
        let mut count = 0;
        let completed = for_each_partition(6, |_| {
            count += 1;
            if count >= 10 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(!completed);
        assert_eq!(count, 10);
    }

    #[test]
    fn walk_shows_prefixes_first_and_prunes_subtrees() {
        // Every visit is a normalized partition seen after its parent
        // prefix; pruning "0 and 1 share a block" leaves exactly the
        // partitions of 5 that separate them.
        let mut visited: Vec<Vec<u32>> = Vec::new();
        let mut leaves = 0u64;
        assert!(walk_partitions(5, |p| {
            let l = p.labels();
            assert_eq!(p, &Partition::from_labels(l));
            assert!(l.len() == 1 || visited.contains(&l[..l.len() - 1].to_vec()));
            assert!(l.len() <= 2 || l[..2] != [0, 0], "pruned subtree entered");
            visited.push(l.to_vec());
            leaves += (l.len() == 5) as u64;
            if l == [0, 0] {
                Walk::Prune
            } else {
                Walk::Descend
            }
        }));
        assert_eq!(leaves, bell(5) - bell(4));
    }

    #[test]
    fn leaves_arrive_finest_first() {
        // Reverse lexicographic: identity first, coarsest last, every
        // leaf after each of its strict refinements; inner prefixes are
        // still shown before their extensions.
        for n in 1..=7 {
            let mut shown = std::collections::HashSet::new();
            let mut leaves: Vec<Partition> = Vec::new();
            assert!(walk_partitions(n, |p| {
                let l = p.labels();
                assert!(l.len() == 1 || shown.contains(&l[..l.len() - 1]));
                assert!(shown.insert(l.to_vec()), "each prefix once");
                if l.len() == n {
                    leaves.push(p.clone());
                }
                Walk::Descend
            }));
            assert_eq!(leaves.len() as u64, bell(n));
            assert_eq!(leaves[0], Partition::identity(n));
            assert_eq!(leaves[leaves.len() - 1], Partition::coarsest(n));
            assert!(leaves.windows(2).all(|w| w[0].labels() > w[1].labels()));
            for (i, early) in leaves.iter().enumerate() {
                for late in &leaves[i + 1..] {
                    assert!(!late.refines(early), "{late:?} refines {early:?}");
                }
            }
        }
    }

    #[test]
    fn from_labels_normalizes() {
        let p = Partition::from_labels(&[5, 2, 5, 2, 0]);
        assert_eq!(p.labels(), &[0, 1, 0, 1, 2]);
        assert_eq!(p.n_blocks(), 3);
    }

    #[test]
    fn refinement() {
        let fine = Partition::from_labels(&[0, 1, 2, 3]);
        let mid = Partition::from_labels(&[0, 0, 1, 1]);
        let coarse = Partition::coarsest(4);
        assert!(fine.refines(&mid));
        assert!(mid.refines(&coarse));
        assert!(fine.refines(&coarse));
        assert!(!mid.refines(&fine));
        let other = Partition::from_labels(&[0, 1, 0, 1]);
        assert!(!mid.refines(&other));
        assert!(!other.refines(&mid));
    }

    #[test]
    fn merge() {
        let p = Partition::identity(4);
        let q = p.merge(1, 3);
        assert_eq!(q.n_blocks(), 3);
        assert_eq!(q.block_of(1), q.block_of(3));
        let r = q.merge(1, 3);
        assert_eq!(q, r);
    }
}
