//! Oracles written from the definitions, sharing no search code with what
//! they check (McConnell et al., *Certifying algorithms*, 2011): [`Hom`]
//! by plain backtracking, [`core()`] as the smallest head-fixing retract
//! (Chandra & Merlin, 1977), [`approximations`] as Theorem 4.1's cores of
//! →-minimal in-class quotients, [`treewidth`] by the exact subset DP.
//! All are exponential, for inputs of about eight elements.

use cqapx_structures::{Element, Pointed, RelId, Structure};
use std::cmp::Reverse;
use std::collections::HashSet;
use std::ops::ControlFlow;

/// The homomorphisms `source → target` that meet pins, exclusions and injectivity, which filter
/// the values `allowed` to each variable. Each variable in `order` is the one sharing the most
/// atoms with those before it; an atom is checked (`checks[k]`) once `order[..k]` binds it.
pub struct Hom<'a> {
    order: Vec<usize>,
    checks: Vec<Vec<(usize, &'a [Element])>>,
    facts: Vec<HashSet<&'a [Element]>>,
    allowed: Vec<Vec<Element>>,
    injective: bool,
}

impl<'a> Hom<'a> {
    /// Every homomorphism `source → target` (one vocabulary).
    pub fn new(source: &'a Structure, target: &'a Structure) -> Self {
        assert_eq!(source.vocabulary(), target.vocabulary());
        let (rels, n) = (|| source.vocabulary().rel_ids(), source.universe_size());
        let tuples = |r: RelId| source.tuples(r).map(move |t| (r.index(), t));
        let atoms: Vec<(usize, &[Element])> = rels().flat_map(tuples).collect();
        let (mut order, mut links) = (Vec::with_capacity(n), vec![0; n]);
        for _ in 0..n {
            let key = |&v: &usize| (!order.contains(&v), links[v], Reverse(v));
            let v = (0..n).max_by_key(key).unwrap();
            order.push(v);
            for (_, t) in atoms.iter().filter(|(_, t)| t.contains(&(v as Element))) {
                t.iter().for_each(|&x| links[x as usize] += 1);
            }
        }
        let mut checks = vec![Vec::new(); n + 1];
        for (r, t) in atoms {
            let place = |&x: &Element| order.iter().position(|&v| v == x as usize).unwrap() + 1;
            checks[t.iter().map(place).max().unwrap_or(0)].push((r, t));
        }
        Hom {
            order,
            checks,
            facts: rels().map(|r| target.tuples(r).collect()).collect(),
            allowed: vec![target.elements().collect(); n],
            injective: false,
        }
    }

    /// Only those with `h(src) = tgt`.
    pub fn pin(mut self, src: Element, tgt: Element) -> Self {
        self.allowed[src as usize].retain(|&x| x == tgt);
        self
    }

    /// Only those whose image avoids `t`.
    pub fn exclude_target(mut self, t: Element) -> Self {
        self.allowed.iter_mut().for_each(|a| a.retain(|&x| x != t));
        self
    }

    /// Only the injective ones.
    pub fn injective(mut self) -> Self {
        self.injective = true;
        self
    }

    /// Whether there is one.
    pub fn exists(&self) -> bool {
        let mut map = vec![0; self.allowed.len()];
        self.extend(0, &mut map, &mut |_| ControlFlow::Break(()))
            .is_break()
    }

    /// Calls `f` on each, as its image vector, until `f` breaks.
    pub fn for_each(&self, mut f: impl FnMut(&[Element]) -> ControlFlow<()>) {
        let _ = self.extend(0, &mut vec![0; self.allowed.len()], &mut f);
    }

    /// Extends `map` from `order[..k]` to the rest, once `checks[k]` hold.
    fn extend(&self, k: usize, map: &mut [Element], f: Visit) -> ControlFlow<()> {
        for (r, t) in &self.checks[k] {
            let row: Vec<Element> = t.iter().map(|&x| map[x as usize]).collect();
            if !self.facts[*r].contains(row.as_slice()) {
                return ControlFlow::Continue(());
            }
        }
        let Some(&v) = self.order.get(k) else {
            return f(map);
        };
        for &x in &self.allowed[v] {
            if !(self.injective && self.order[..k].iter().any(|&u| map[u] == x)) {
                map[v] = x;
                self.extend(k + 1, map, f)?;
            }
        }
        ControlFlow::Continue(())
    }
}

/// A callback on each homomorphism.
type Visit<'f> = &'f mut dyn FnMut(&[Element]) -> ControlFlow<()>;

/// Whether a homomorphism `a → b` maps `a`'s head onto `b`'s.
pub fn hom_exists(a: &Pointed, b: &Pointed) -> bool {
    let hom = Hom::new(&a.structure, &b.structure);
    let pins = a.distinguished().iter().zip(b.distinguished());
    a.arity() == b.arity() && pins.fold(hom, |h, (&s, &t)| h.pin(s, t)).exists()
}

/// The core of `p` (Chandra & Merlin, 1977): the substructure on the smallest set `S` of elements
/// that holds the head and that `p` maps into with its head fixed, tried by increasing `|S|`.
pub fn core(p: &Pointed) -> Pointed {
    let (s, n, head) = (&p.structure, p.structure.universe_size(), p.distinguished());
    let holds_head = |set: &u32| head.iter().all(|&d| set >> d & 1 == 1);
    let mut sets: Vec<u32> = (0..1 << n).filter(holds_head).collect();
    sets.sort_by_key(|set| set.count_ones());
    let retract = |set: &u32| {
        let fixed = head.iter().fold(Hom::new(s, s), |h, &d| h.pin(d, d));
        let outside = (0..n as Element).filter(|x| set >> x & 1 == 0);
        outside.fold(fixed, |h, x| h.exclude_target(x)).exists()
    };
    let set = sets.into_iter().find(retract).unwrap();
    let (core, rename) = s.induced(|x| set >> x & 1 == 1);
    let head = head.iter().map(|&d| rename[d as usize].unwrap());
    Pointed::new(core, head.collect())
}

/// The first member of each hom-equivalence class of `family`, by index.
pub fn dedupe_hom_equivalent(family: &[Pointed]) -> Vec<usize> {
    let mut kept: Vec<usize> = Vec::new();
    for (i, a) in family.iter().enumerate() {
        let equivalent = |&k: &usize| hom_exists(a, &family[k]) && hom_exists(&family[k], a);
        kept.extend((!kept.iter().any(equivalent)).then_some(i));
    }
    kept
}

/// The →-minimal members of `family`, by index: those into which no
/// member maps strictly (`b → a` but not `a → b`).
pub fn minimal_elements(family: &[Pointed]) -> Vec<usize> {
    let below = |b: &Pointed, a: &Pointed| hom_exists(b, a) && !hom_exists(a, b);
    let minimal = |&i: &usize| !(0..family.len()).any(|j| j != i && below(&family[j], &family[i]));
    (0..family.len()).filter(minimal).collect()
}

/// Calls `f` on each of the Bell(n) partitions of `0..n`, as restricted
/// growth labels (`x` in block `labels[x]`, blocks in first-element order).
pub fn for_each_partition(n: usize, f: &mut dyn FnMut(&[u32])) {
    let mut labels = vec![0; n];
    f(&labels);
    let grows = |labels: &[u32], i: usize| labels[i] <= *labels[..i].iter().max().unwrap();
    while let Some(i) = (1..n).rev().find(|&i| grows(&labels, i)) {
        labels[i] += 1;
        labels[i + 1..].fill(0);
        f(&labels);
    }
}

/// The treewidth of `s`'s co-occurrence graph by the exact subset DP
/// (Bodlaender et al., 2012): eliminating a set `S` first costs `tw(S)`,
/// the least over `v ∈ S` of the larger of `tw(S − v)` and the number of
/// elements outside `S` that `v` reaches through `S − v`.
pub fn treewidth(s: &Structure) -> usize {
    let n = s.universe_size();
    let mut adj = vec![0u32; n];
    for t in s.vocabulary().rel_ids().flat_map(|r| s.tuples(r)) {
        let set = t.iter().fold(0, |set, &b| set | 1 << b);
        t.iter().for_each(|&a| adj[a as usize] |= set & !(1 << a));
    }
    let reach = |set: usize, v: usize| {
        let (mut seen, mut frontier) = (1u32 << v, 1u32 << v);
        while frontier != 0 {
            let new = adj[frontier.trailing_zeros() as usize] & !seen;
            (seen, frontier) = (seen | new, (frontier & (frontier - 1)) | (new & set as u32));
        }
        (seen & !(set as u32) & !(1 << v)).count_ones() as usize
    };
    let mut tw = vec![0; 1 << n];
    for set in 1..1usize << n {
        let cost = |v: usize| tw[set & !(1 << v)].max(reach(set & !(1 << v), v));
        let members = (0..n).filter(|&v| set >> v & 1 == 1);
        tw[set] = members.map(cost).min().unwrap_or(0);
    }
    tw[(1 << n) - 1]
}

/// The `TW(k)`-approximations of `t` (Theorem 4.1): the cores of the
/// →-minimal quotients of treewidth at most `k`, one per class.
pub fn approximations(t: &Pointed, k: usize) -> Vec<Pointed> {
    let mut quotients = Vec::new();
    for_each_partition(t.structure.universe_size(), &mut |labels| {
        let head = t.distinguished().iter().map(|&x| labels[x as usize]);
        let q = Pointed::new(t.structure.map_image_raw(labels), head.collect());
        quotients.extend((treewidth(&q.structure) <= k).then_some(q));
    });
    let kept = dedupe_hom_equivalent(&quotients);
    let reps: Vec<Pointed> = kept.into_iter().map(|i| quotients[i].clone()).collect();
    let minimal = minimal_elements(&reps).into_iter();
    minimal.map(|i| core(&reps[i])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_graphs::{generators, Digraph};

    fn cycle(n: usize) -> Structure {
        Digraph::cycle(n).to_structure()
    }

    #[test]
    fn treewidths_and_partitions() {
        assert!((3..=8).all(|n| treewidth(&cycle(n)) == 2));
        let k4 = generators::complete_digraph(4).to_structure();
        let grid = generators::grid(3, 3).to_structure();
        let tree = Structure::digraph(5, &[(0, 1), (0, 2), (1, 3), (4, 1), (3, 3)]);
        assert_eq!([k4, grid, tree].map(|g| treewidth(&g)), [3, 3, 1]);
        let mut seen = HashSet::new();
        for_each_partition(4, &mut |labels| assert!(seen.insert(labels.to_vec())));
        assert_eq!(seen.len(), 15, "Bell(4)");
    }

    #[test]
    fn homs_between_cycles() {
        assert!(Hom::new(&cycle(6), &cycle(3)).exists());
        assert!(!Hom::new(&cycle(3), &cycle(6)).exists());
        let mut lens = Vec::new();
        Hom::new(&cycle(6), &cycle(3)).for_each(|h| {
            lens.push(h.len());
            ControlFlow::Continue(())
        });
        assert_eq!(lens, [6, 6, 6], "one per rotation of C3");
    }

    #[test]
    fn cores_fold_to_minimal() {
        let c3_c6 = core(&Pointed::boolean(cycle(3).disjoint_union(&cycle(6))));
        assert_eq!(c3_c6.structure, cycle(3));
        let wedge = Structure::digraph(3, &[(0, 1), (2, 1)]);
        let folded = core(&Pointed::boolean(wedge.clone()));
        assert_eq!(folded.structure, Structure::digraph(2, &[(0, 1)]));
        let pinned = Pointed::new(wedge, vec![0, 2]);
        assert_eq!(core(&pinned), pinned);
    }
}
