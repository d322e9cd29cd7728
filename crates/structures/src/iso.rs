//! Isomorphism of structures: the test by injective homomorphism, kept as
//! the reference, and the canonical labelling that keys the approximation
//! cache, exact where a hashed signature is not.

use crate::pointed::Pointed;
use crate::solver::HomSolver;
use crate::structure::{Element, Structure, StructureBuilder};
use crate::vocabulary::Vocabulary;
use std::cell::Cell;

/// Isomorphism of pointed structures: a structure isomorphism mapping the
/// distinguished tuple of `a` to that of `b` pointwise. A bijective
/// homomorphism between structures with equal per-relation tuple counts
/// maps each relation injectively into an equal-sized one, hence onto it.
///
/// ```
/// use cqapx_structures::{iso::isomorphic_pointed, Pointed, Structure};
///
/// let at = |edges: &[(u32, u32)], head| Pointed::new(Structure::digraph(3, edges), head);
/// let c3 = [(0, 1), (1, 2), (2, 0)];
/// assert!(isomorphic_pointed(&at(&c3, vec![0]), &at(&c3, vec![1]))); // a rotation
/// assert!(!isomorphic_pointed(&at(&c3, vec![0]), &at(&[(0, 1), (1, 2)], vec![0])));
/// ```
pub fn isomorphic_pointed(a: &Pointed, b: &Pointed) -> bool {
    let (s, t, solver) = (&a.structure, &b.structure, HomSolver::compile(&a.structure));
    let (at, bt) = (a.distinguished(), b.distinguished());
    s.vocabulary() == t.vocabulary()
        && (s.universe_size(), at.len()) == (t.universe_size(), bt.len())
        && (s.vocabulary().rel_ids()).all(|r| s.tuples(r).len() == t.tuples(r).len())
        && solver.run(t).pin_tuple(at, bt).injective().exists()
}

/// A pointed structure's canonical labelling, by individualization-
/// refinement (McKay & Piperno, *Practical graph isomorphism, II*, 2014).
/// Over one vocabulary, two pointed structures have equal
/// [`words`](Self::words) exactly when they are isomorphic: the words
/// are the universe size, the head's length, the relabelled head, then
/// per relation its tuple count and its relabelled tuples, sorted.
///
/// The labelling is the least-worded leaf of a search tree built from
/// colours alone. The root individualizes the head's elements in order.
/// Each node refines to the coarsest equitable colouring over `(relation,
/// position)` occurrences (each element sums a hash per tuple it is in,
/// of the relation, its position and the colours along the tuple; cells
/// split by the sums until none does; a collision only coarsens), then
/// individualizes each element of its first cell of two or more in turn.
/// A leaf whose words equal the first leaf's gives an automorphism, kept
/// as a generator, and a jump back to the first path, whose nodes skip a
/// child in the orbit of one explored. It all runs in one flat scratch of
/// `O(n² + atoms)` words that the thread lends: one allocator call on a
/// cold thread, whatever the size, and none on a warm one.
///
/// # Examples
///
/// ```
/// use cqapx_structures::iso::canonical_form;
/// use cqapx_structures::{Pointed, Structure};
///
/// let on3 = |edges: &[(u32, u32)]| Pointed::boolean(Structure::digraph(3, edges));
/// let a = canonical_form(&on3(&[(0, 1), (1, 2), (2, 0)]));
/// let b = canonical_form(&on3(&[(1, 0), (0, 2), (2, 1)])); // relabelled C3
/// assert_eq!(a.words(), b.words());
/// assert_ne!(a.words(), canonical_form(&on3(&[(0, 1), (1, 2)])).words());
/// ```
pub struct CanonicalForm {
    /// The labelling, the words, the generators (`n` words each), then
    /// the search's working space.
    scratch: Vec<u32>,
    n: usize,
    w: usize,
    generators: usize,
    leaves: u64,
}

impl CanonicalForm {
    /// The labelling: element `e`'s canonical name is `labelling()[e]`.
    pub fn labelling(&self) -> &[Element] {
        &self.scratch[..self.n]
    }

    /// The certificate's words.
    pub fn words(&self) -> &[u32] {
        &self.scratch[self.n..self.n + self.w]
    }

    /// The automorphisms found, as images of `0..n`; each joined orbits.
    pub fn generators(&self) -> std::slice::ChunksExact<'_, Element> {
        let gens = &self.scratch[self.n + self.w..][..self.generators * self.n];
        gens.chunks_exact(self.n.max(1))
    }

    /// The leaves the search reached.
    pub fn leaves(&self) -> u64 {
        self.leaves
    }

    /// The canonical tableau over `vocab`: the structure relabelled,
    /// read off the words, whose rows are sorted.
    pub fn tableau(&self, vocab: &Vocabulary) -> Pointed {
        let (words, mut at) = (self.words(), 2 + self.words()[1] as usize);
        let mut rows = |r| {
            let len = words[at] as usize * vocab.arity(r);
            at += 1 + len;
            words[at - len..at].to_vec()
        };
        let relations = vocab.rel_ids().map(&mut rows).collect();
        let (vocab, universe_size) = (vocab.clone(), self.n);
        let s = StructureBuilder {
            vocab,
            universe_size,
            relations,
        };
        Pointed::new(s.finish(), words[2..2 + words[1] as usize].to_vec())
    }
}

impl Drop for CanonicalForm {
    fn drop(&mut self) {
        let _ = SCRATCH.try_with(|pool| pool.set(std::mem::take(&mut self.scratch)));
    }
}

thread_local! {
    /// The thread's scratch, lent to one [`CanonicalForm`] at a time.
    static SCRATCH: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// Labels `p` (see [`CanonicalForm`]).
pub fn canonical_form(p: &Pointed) -> CanonicalForm {
    let (s, head, n) = (&p.structure, p.distinguished(), p.structure.universe_size());
    let (mut w, mut tuples) = (2 + head.len() + s.vocabulary().len(), 0);
    for r in s.vocabulary().rel_ids() {
        (w, tuples) = (w + s.flat_tuples(r).len(), tuples.max(s.tuples(r).len()));
    }
    let mut scratch = SCRATCH.with(Cell::take);
    scratch.clear();
    scratch.resize(3 * w + n * (3 * n + 10) + tuples, 0);
    let (lab, rest) = scratch.split_at_mut(n);
    let (best, rest) = rest.split_at_mut(w);
    let (gens, mut rest) = rest.split_at_mut(n * n);
    let mut carve = |len| {
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        part
    };
    let (first, cur, first_elems, order) = (carve(w), carve(w), carve(n), carve(tuples));
    let (saved, levels, orbit, explored) = (carve(2 * n * n), carve(3 * n), carve(n), carve(n));
    let (col, elems, sig) = (carve(n), carve(n), carve(n));
    // The root: the head's elements in cells of their own, then the rest.
    let mut k = 0;
    col.fill(u32::MAX);
    for &x in head {
        if col[x as usize] == u32::MAX {
            (col[x as usize], k) = (k, k + 1);
        }
    }
    for x in 0..n {
        (col[x], elems[x], orbit[x]) = (col[x].min(k), x as u32, x as u32);
    }
    refine(s, col, elems, sig);
    let (mut d, mut active, mut leaves, mut generators, mut seen) = (0, usize::MAX, 0, 0, 0);
    'search: loop {
        // A node: saved, then its first child.
        let same = |i: &usize| col[elems[*i] as usize] == col[elems[i - 1] as usize];
        if let Some(c) = (1..n).find(same) {
            let e = (c..n).find(|i| !same(i)).unwrap_or(n);
            saved[2 * n * d..][..n].copy_from_slice(col);
            saved[2 * n * d + n..][..n].copy_from_slice(elems);
            levels[3 * d..][..3].copy_from_slice(&[c as u32 - 1, e as u32, c as u32]);
            individualize(s, col, elems, sig, elems[c - 1]);
            d += 1;
            continue;
        }
        // A leaf: its colours are a labelling.
        leaves += 1;
        certificate(s, head, col, order, cur);
        if leaves == 1 {
            first.copy_from_slice(cur);
            first_elems.copy_from_slice(elems);
        }
        if leaves == 1 || *cur < *best {
            best.copy_from_slice(cur);
            lab.copy_from_slice(col);
        } else if cur == first {
            // `γ = first⁻¹ ∘ this leaf's labelling` fixes the head.
            let (gamma, mut joined) = (&mut gens[generators * n..][..n], false);
            for (x, g) in gamma.iter_mut().enumerate() {
                *g = first_elems[col[x] as usize];
                let (a, b) = (find(orbit, x as u32), find(orbit, *g));
                (orbit[a.max(b) as usize], joined) = (a.min(b), joined || a != b);
            }
            (generators, d) = (generators + usize::from(joined), active + 1);
        }
        // Up to the next child to explore; after an automorphism, the
        // first path's.
        loop {
            let Some(up) = d.checked_sub(1) else {
                break 'search;
            };
            d = up;
            let node = &saved[2 * n * d..][..2 * n];
            let [c, e, next] = [0, 1, 2].map(|i| levels[3 * d + i] as usize);
            if d < active {
                (active, explored[0], seen) = (d, node[n + c], 1);
            }
            let first_path = d == active;
            let mut twin = |w| {
                first_path && (explored[..seen].iter()).any(|&u| find(orbit, u) == find(orbit, w))
            };
            let Some(i) = (next..e).find(|&i| !twin(node[n + i])) else {
                continue;
            };
            levels[3 * d + 2] = i as u32 + 1;
            if first_path {
                (explored[seen], seen) = (node[n + i], seen + 1);
            }
            col.copy_from_slice(&node[..n]);
            elems.copy_from_slice(&node[n..]);
            individualize(s, col, elems, sig, node[n + i]);
            d += 1;
            break;
        }
    }
    CanonicalForm {
        scratch,
        n,
        w,
        generators,
        leaves,
    }
}

/// The root of `x`'s orbit in the union-find `orbit`, halving the path.
fn find(orbit: &mut [u32], mut x: u32) -> u32 {
    while orbit[x as usize] != x {
        orbit[x as usize] = orbit[orbit[x as usize] as usize];
        x = orbit[x as usize];
    }
    x
}

/// Gives `v` a cell of its own, first in its cell, and refines.
fn individualize(s: &Structure, col: &mut [u32], elems: &mut [u32], sig: &mut [u32], v: u32) {
    let c = col[v as usize];
    (col.iter_mut().enumerate()).for_each(|(x, k)| *k += u32::from(*k == c && x != v as usize));
    refine(s, col, elems, sig);
}

/// Refines `col` as [`CanonicalForm`] says: an element's colour is where
/// its cell starts in `elems`, which lists the cells in order.
fn refine(s: &Structure, col: &mut [u32], elems: &mut [u32], sig: &mut [u32]) {
    let mix = |x: u64| {
        let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    };
    loop {
        sig.fill(0);
        for r in s.vocabulary().rel_ids() {
            for t in s.tuples(r) {
                let along = |h, &x: &u32| mix(h ^ u64::from(col[x as usize]));
                let h = t.iter().fold(mix(u64::from(r.0) + 1), along);
                for (p, &x) in t.iter().enumerate() {
                    let x = &mut sig[x as usize];
                    *x = x.wrapping_add((mix(h + p as u64) >> 32) as u32);
                }
            }
        }
        elems.sort_unstable_by_key(|&x| (col[x as usize], sig[x as usize]));
        let (mut split, mut start, mut prev) = (false, 0, (u32::MAX, 0));
        for (i, &x) in elems.iter().enumerate() {
            let key = (col[x as usize], sig[x as usize]);
            if key != prev {
                (split, start, prev) = (split || key.0 == prev.0, i as u32, key);
            }
            col[x as usize] = start;
        }
        if !split {
            return;
        }
    }
}

/// Writes the words of the labelling `col` to `out`.
fn certificate(s: &Structure, head: &[Element], col: &[u32], order: &mut [u32], out: &mut [u32]) {
    out[..2].copy_from_slice(&[col.len() as u32, head.len() as u32]);
    (out[2..].iter_mut().zip(head)).for_each(|(o, &x)| *o = col[x as usize]);
    let mut at = 2 + head.len();
    for r in s.vocabulary().rel_ids() {
        let (a, flat) = (s.vocabulary().arity(r), s.flat_tuples(r));
        let relabel = |i: &u32| {
            flat[*i as usize * a..][..a]
                .iter()
                .map(|&x| col[x as usize])
        };
        let order = &mut order[..flat.len() / a];
        (order.iter_mut().enumerate()).for_each(|(i, o)| *o = i as u32);
        order.sort_unstable_by(|i, j| relabel(i).cmp(relabel(j)));
        out[at] = order.len() as u32;
        (out[at + 1..].iter_mut().zip(order.iter().flat_map(relabel))).for_each(|(o, x)| *o = x);
        at += 1 + flat.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn isomorphic(a: &Structure, b: &Structure) -> bool {
        isomorphic_pointed(&Pointed::boolean(a.clone()), &Pointed::boolean(b.clone()))
    }

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
    fn pointed_isomorphism_on_the_directed_triangle() {
        let at = |t: Vec<Element>| Pointed::new(cycle(3), t);
        // One way the pins conflict (0 ↦ 0 and 0 ↦ 1); the other way two
        // pinned elements share an image (0 ↦ 0 and 1 ↦ 0).
        assert!(!isomorphic_pointed(&at(vec![0, 0]), &at(vec![0, 1])));
        assert!(!isomorphic_pointed(&at(vec![0, 1]), &at(vec![0, 0])));
        // The rotation 0 ↦ 1 carries (0, 0) onto (1, 1).
        assert!(isomorphic_pointed(&at(vec![0, 0]), &at(vec![1, 1])));
        // Tuples of different lengths never correspond.
        assert!(!isomorphic_pointed(&at(vec![0]), &at(vec![0, 1])));
        assert!(!isomorphic_pointed(&at(vec![0, 1]), &at(vec![0])));
        // With two loops every map is a homomorphism: injectivity alone
        // keeps the pinned 0 and 1 apart.
        let loops = Structure::digraph(2, &[(0, 0), (1, 1)]);
        let a = Pointed::new(loops.clone(), vec![0, 1]);
        assert!(!isomorphic_pointed(&a, &Pointed::new(loops, vec![0, 0])));
    }

    #[test]
    fn reflexivity() {
        let g = cycle(4);
        assert!(isomorphic(&g, &g));
    }

    fn words(p: &Pointed) -> Vec<u32> {
        canonical_form(p).words().to_vec()
    }

    #[test]
    fn signature_invariant_under_relabeling() {
        let a = Pointed::new(cycle(5), vec![2]);
        let b = Pointed::new(
            Structure::digraph(5, &[(2, 3), (3, 4), (4, 0), (0, 1), (1, 2)]),
            vec![4],
        );
        assert_eq!(words(&a), words(&b));
    }

    #[test]
    fn signature_separates_path_from_star() {
        let p = Pointed::boolean(Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]));
        let s = Pointed::boolean(Structure::digraph(4, &[(0, 1), (0, 2), (0, 3)]));
        assert_ne!(words(&p), words(&s));
    }

    #[test]
    fn signature_respects_distinguished_tuple() {
        let edge = Structure::digraph(2, &[(0, 1)]);
        let a = Pointed::new(edge.clone(), vec![0]);
        let b = Pointed::new(edge.clone(), vec![1]);
        assert_ne!(words(&a), words(&b));
        let twice = Pointed::new(edge, vec![0, 0]);
        assert_eq!(&words(&twice)[..4], &[2, 2, 0, 0]);
    }

    /// Colour refinement cannot tell the directed `C6` from two directed
    /// triangles (every element has in- and out-degree 1); the search
    /// individualizes and does.
    #[test]
    fn canonical_words_separate_c6_from_two_triangles() {
        let c6 = Pointed::boolean(cycle(6));
        let two = Pointed::boolean(cycle(3).disjoint_union(&cycle(3)));
        assert_ne!(words(&c6), words(&two));
        assert!(!isomorphic_pointed(&c6, &two));
    }

    /// The canonical tableau is the structure relabelled, and labelling
    /// it again changes nothing.
    #[test]
    fn the_canonical_tableau_is_a_fixed_point() {
        let p = Pointed::new(cycle(5).disjoint_union(&cycle(2)), vec![3, 5]);
        let form = canonical_form(&p);
        let t = form.tableau(p.structure.vocabulary());
        let map = form.labelling();
        let relabelled = p.structure.map_image_raw(map);
        let head: Vec<Element> = p.distinguished().iter().map(|&x| map[x as usize]).collect();
        assert_eq!(t, Pointed::new(relabelled, head));
        assert_eq!(words(&t), form.words());
        assert!(isomorphic_pointed(&t, &p));
    }

    /// Random pointed structures over a unary, a binary and a ternary
    /// relation (some empty), of up to `max_n` elements and with heads of
    /// 0–3 elements that may repeat. Each is compared with a random
    /// renaming of itself, with itself under the reversed head and with
    /// the structure drawn before it; equal words
    /// must hold exactly when some bijection that maps head to head maps
    /// the relations onto each other, tried one by one (the oracle shares
    /// no code with the labelling); every generator found must be such a
    /// bijection from the structure to itself.
    fn check_against_every_bijection(name: &str, cases: u32, max_n: u64) {
        use proptest::test_runner::TestRng;
        let mut rng = TestRng::deterministic(name);
        let vocab = Vocabulary::new(vec![("U", 1), ("E", 2), ("T", 3)]);
        let draw = |rng: &mut TestRng| {
            let n = 1 + rng.below(max_n) as usize;
            let mut b = StructureBuilder::new(vocab.clone(), n);
            for r in vocab.rel_ids() {
                for _ in 0..rng.below(2 * n as u64) {
                    let t: Vec<Element> = (0..vocab.arity(r))
                        .map(|_| rng.below(n as u64) as Element)
                        .collect();
                    b.add(r, &t);
                }
            }
            let head = (0..rng.below(4)).map(|_| rng.below(n as u64) as Element);
            Pointed::new(b.finish(), head.collect())
        };
        let mut previous = draw(&mut rng);
        for _ in 0..cases {
            let p = draw(&mut rng);
            let n = p.structure.universe_size();
            let mut renaming: Vec<Element> = (0..n as Element).collect();
            for i in (1..n).rev() {
                renaming.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let head = p.distinguished().iter().map(|&x| renaming[x as usize]);
            let renamed = Pointed::new(p.structure.map_image_raw(&renaming), head.collect());
            let form = canonical_form(&p);
            assert_eq!(form.words(), words(&renamed), "{p:?}");
            for g in form.generators() {
                assert!(maps_onto(&p, g, &p), "{g:?} on {p:?}");
            }
            let reversed = p.distinguished().iter().rev().copied().collect();
            for q in [Pointed::new(p.structure.clone(), reversed), previous] {
                let same = form.words() == words(&q).as_slice();
                assert_eq!(same, some_bijection(&p, &q), "{p:?} vs {q:?}");
            }
            previous = p;
        }
    }

    /// Whether `map` is a bijection taking `a`'s head and relations onto
    /// `b`'s.
    fn maps_onto(a: &Pointed, map: &[Element], b: &Pointed) -> bool {
        let (s, t) = (&a.structure, &b.structure);
        let head = a.distinguished().iter().map(|&x| map[x as usize]);
        head.eq(b.distinguished().iter().copied())
            && s.vocabulary().rel_ids().all(|r| {
                let count = s.tuples(r).len() == t.tuples(r).len();
                let image = |u: &[Element]| -> Vec<Element> {
                    u.iter().map(|&x| map[x as usize]).collect()
                };
                count && s.tuples(r).all(|u| t.contains(r, &image(u)))
            })
    }

    /// Whether some bijection maps `a` onto `b`, by Heap's algorithm over
    /// every permutation of `a`'s universe.
    fn some_bijection(a: &Pointed, b: &Pointed) -> bool {
        let n = a.structure.universe_size();
        if n != b.structure.universe_size() || a.arity() != b.arity() {
            return false;
        }
        let (mut map, mut c): (Vec<Element>, _) = ((0..n as Element).collect(), vec![0; n]);
        let mut i = 0;
        if maps_onto(a, &map, b) {
            return true;
        }
        while i < n {
            if c[i] < i {
                map.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
                if maps_onto(a, &map, b) {
                    return true;
                }
                (c[i], i) = (c[i] + 1, 0);
            } else {
                (c[i], i) = (0, i + 1);
            }
        }
        false
    }

    /// Unions of directed cycles on 8 vertices are regular: refinement
    /// splits nothing, and leaves that individualize different cycles
    /// first differ, so only the whole search finds the least words.
    /// Every renaming of one union gets the same words, with or without a
    /// head, and unions of different cycle lengths get different words.
    #[test]
    fn canonical_words_tell_unions_of_cycles_apart() {
        use proptest::test_runner::TestRng;
        let mut rng = TestRng::deterministic("unions_of_cycles");
        let shapes: [&[usize]; 7] = [
            &[8],
            &[2, 6],
            &[3, 5],
            &[4, 4],
            &[2, 2, 4],
            &[2, 3, 3],
            &[2, 2, 2, 2],
        ];
        let mut seen = Vec::new();
        for shape in shapes {
            let union = shape.iter().fold(Structure::digraph(0, &[]), |u, &k| {
                u.disjoint_union(&cycle(k))
            });
            for head in [vec![], vec![7, 0]] {
                let p = Pointed::new(union.clone(), head);
                let want = words(&p);
                for _ in 0..8 {
                    let mut renaming: Vec<Element> = (0..8).collect();
                    for i in (1..8).rev() {
                        renaming.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    let head = p
                        .distinguished()
                        .iter()
                        .map(|&x| renaming[x as usize])
                        .collect();
                    let renamed = Pointed::new(union.map_image_raw(&renaming), head);
                    assert_eq!(words(&renamed), want, "{shape:?}");
                }
                assert!(!seen.contains(&want), "{shape:?}");
                seen.push(want);
            }
        }
    }

    #[test]
    fn canonical_words_agree_with_every_bijection() {
        check_against_every_bijection("canonical_oracle", 512, 5);
    }

    /// The deep variant CI runs in release mode after the default suite.
    #[test]
    #[ignore = "deep: 8,192 random structures of up to 7 elements, run in release by CI"]
    fn deep_canonical_words_agree_with_every_bijection() {
        check_against_every_bijection("deep_canonical_oracle", 8192, 7);
    }
}
