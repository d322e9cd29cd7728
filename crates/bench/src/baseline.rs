//! Test oracles, frozen: the seed's homomorphism engine and, on top of
//! it, the exhaustive approximation pipeline.
//!
//! [`BaselineHom`] is the seed's `cqapx_structures::hom` search loop,
//! kept verbatim (minus docs): per-call target-index construction,
//! per-call source compilation, forward checking seeded from the tuples
//! incident to the last assigned variable. The live engine
//! (`cqapx_structures::solver::HomSolver`) replaced it with cached
//! per-structure indexes, compiled reusable sources and a shared-budget
//! GAC queue; the two must stay *semantically* identical.
//!
//! The `baseline_*` functions drive it the way the seed's `core_ops` and
//! `approx` modules did: cores by one fresh search per exclusion probe,
//! →-minimality and dedup as full pairwise matrices, and the
//! approximations of a graph-based class as the cores of the →-minimal
//! in-class quotients over every partition of the variables.
//!
//! `tests/hom_differential.rs` checks the live solver, cores and the
//! pruned approximation search against them on random structures; the
//! evaluation harness (`tests/harness/mod.rs`) triangulates `eval_naive`
//! with [`BaselineHom`].
//!
//! Do not "improve" this module: its value is being exactly the engine
//! and the pipeline the live code is checked against.

use cqapx_structures::{Element, Pointed, RelId, Structure};
use std::collections::HashSet;
use std::ops::ControlFlow;

/// A tuple of elements, boxed one per fact as the seed stored them.
type Tuple = Box<[Element]>;

/// The seed engine's search problem (pre-refactor `HomProblem`).
pub struct BaselineHom<'a> {
    source: &'a Structure,
    target: &'a Structure,
    pins: Vec<(Element, Element)>,
    excluded: Vec<Element>,
    injective: bool,
}

impl<'a> BaselineHom<'a> {
    /// Creates a search problem for homomorphisms `source → target`.
    pub fn new(source: &'a Structure, target: &'a Structure) -> Self {
        assert_eq!(
            source.vocabulary(),
            target.vocabulary(),
            "homomorphisms need a common vocabulary"
        );
        BaselineHom {
            source,
            target,
            pins: Vec::new(),
            excluded: Vec::new(),
            injective: false,
        }
    }

    /// Forces `h(src) = tgt`.
    pub fn pin(mut self, src: Element, tgt: Element) -> Self {
        self.pins.push((src, tgt));
        self
    }

    /// Forces `h(src[i]) = tgt[i]` for every position.
    pub fn pin_tuple(mut self, src: &[Element], tgt: &[Element]) -> Self {
        assert_eq!(src.len(), tgt.len(), "pinned tuples must align");
        self.pins
            .extend(src.iter().copied().zip(tgt.iter().copied()));
        self
    }

    /// Forbids a target element from appearing in the image.
    pub fn exclude_target(mut self, t: Element) -> Self {
        self.excluded.push(t);
        self
    }

    /// Requires injectivity on elements.
    pub fn injective(mut self) -> Self {
        self.injective = true;
        self
    }

    /// Finds one homomorphism (as the image vector), if any.
    pub fn find(&self) -> Option<Vec<Element>> {
        let mut result = None;
        self.solve(|h| {
            result = Some(h.to_vec());
            ControlFlow::Break(())
        });
        result
    }

    /// `true` when a homomorphism exists.
    pub fn exists(&self) -> bool {
        self.find().is_some()
    }

    /// Enumerates all homomorphism maps until the callback breaks.
    pub fn for_each<F: FnMut(&[Element]) -> ControlFlow<()>>(&self, f: F) {
        self.solve(f)
    }

    fn solve<F: FnMut(&[Element]) -> ControlFlow<()>>(&self, f: F) {
        let mut solver = Solver::new(self);
        if solver.feasible {
            solver.trail.push(Vec::new());
            if solver.propagate_all() {
                let mut f = f;
                let _ = solver.search(&mut f);
            }
        }
    }
}

#[derive(Clone)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn full(n: usize) -> Self {
        let mut words = vec![!0u64; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        if n == 0 {
            words.clear();
        }
        BitSet { words }
    }

    fn empty(n: usize) -> Self {
        BitSet {
            words: vec![0u64; n.div_ceil(64)],
        }
    }

    #[inline]
    fn contains(&self, i: Element) -> bool {
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    #[inline]
    fn insert(&mut self, i: Element) {
        self.words[(i / 64) as usize] |= 1 << (i % 64);
    }

    #[inline]
    fn remove(&mut self, i: Element) {
        if let Some(w) = self.words.get_mut((i / 64) as usize) {
            *w &= !(1 << (i % 64));
        }
    }

    fn intersect_with(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= o;
        }
    }

    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn iter(&self) -> impl Iterator<Item = Element> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    Some(wi as Element * 64 + b)
                }
            })
        })
    }
}

/// Per-call target relation index (the pre-refactor engine rebuilt this
/// for every search — that rebuild is part of what gets measured).
struct TargetRelIndex {
    tuples: Vec<Tuple>,
    by_pos_val: Vec<Vec<Vec<u32>>>,
    tuple_set: HashSet<Tuple>,
}

impl TargetRelIndex {
    fn new(target: &Structure, rel: RelId) -> Self {
        let tuples: Vec<Tuple> = target.tuples(rel).map(Into::into).collect();
        let arity = target.vocabulary().arity(rel);
        let n = target.universe_size();
        let mut by_pos_val = vec![vec![Vec::new(); n]; arity];
        for (ti, t) in tuples.iter().enumerate() {
            for (p, &v) in t.iter().enumerate() {
                by_pos_val[p][v as usize].push(ti as u32);
            }
        }
        let tuple_set = tuples.iter().cloned().collect();
        TargetRelIndex {
            tuples,
            by_pos_val,
            tuple_set,
        }
    }
}

struct SourceConstraint {
    rel: usize,
    vars: Vec<Element>,
}

struct Solver<'a> {
    problem: &'a BaselineHom<'a>,
    n_source: usize,
    n_target: usize,
    target_idx: Vec<TargetRelIndex>,
    constraints: Vec<SourceConstraint>,
    incident: Vec<Vec<u32>>,
    domains: Vec<BitSet>,
    assignment: Vec<Option<Element>>,
    trail: Vec<Vec<(u32, BitSet)>>,
    feasible: bool,
}

impl<'a> Solver<'a> {
    fn new(problem: &'a BaselineHom<'a>) -> Self {
        let source = problem.source;
        let target = problem.target;
        let n_source = source.universe_size();
        let n_target = target.universe_size();
        let vocab = source.vocabulary();

        let target_idx: Vec<TargetRelIndex> = vocab
            .rel_ids()
            .map(|rel| TargetRelIndex::new(target, rel))
            .collect();

        let mut constraints = Vec::new();
        let mut incident = vec![Vec::new(); n_source];
        for rel in vocab.rel_ids() {
            for t in source.tuples(rel) {
                let ci = constraints.len() as u32;
                let vars: Vec<Element> = t.to_vec();
                let mut seen = Vec::new();
                for &v in &vars {
                    if !seen.contains(&v) {
                        incident[v as usize].push(ci);
                        seen.push(v);
                    }
                }
                constraints.push(SourceConstraint {
                    rel: rel.index(),
                    vars,
                });
            }
        }

        let mut domains = vec![BitSet::full(n_target); n_source];
        let mut feasible = n_target > 0 || n_source == 0;
        if feasible {
            for c in &constraints {
                let idx = &target_idx[c.rel];
                for (p, &v) in c.vars.iter().enumerate() {
                    let mut allowed = BitSet::empty(n_target);
                    for (val, tuples) in idx.by_pos_val[p].iter().enumerate() {
                        if !tuples.is_empty() {
                            allowed.insert(val as Element);
                        }
                    }
                    domains[v as usize].intersect_with(&allowed);
                }
            }
            for &e in &problem.excluded {
                for d in domains.iter_mut() {
                    d.remove(e);
                }
            }
            for &(s, t) in &problem.pins {
                assert!(
                    (s as usize) < n_source,
                    "pinned source element out of range"
                );
                assert!(
                    (t as usize) < n_target,
                    "pinned target element out of range"
                );
                let mut single = BitSet::empty(n_target);
                single.insert(t);
                domains[s as usize].intersect_with(&single);
            }
            if problem.injective && n_source > n_target {
                feasible = false;
            }
            if domains.iter().any(|d| d.is_empty()) && n_source > 0 {
                feasible = false;
            }
        }

        Solver {
            problem,
            n_source,
            n_target,
            target_idx,
            constraints,
            incident,
            domains,
            assignment: vec![None; n_source],
            trail: Vec::new(),
            feasible,
        }
    }

    fn propagate_worklist(&mut self, mut worklist: Vec<u32>) -> bool {
        let mut queued: Vec<bool> = vec![false; self.constraints.len()];
        for &ci in &worklist {
            queued[ci as usize] = true;
        }
        while let Some(ci) = worklist.pop() {
            queued[ci as usize] = false;
            match self.revise_constraint(ci as usize) {
                None => return false,
                Some(shrunk) => {
                    for v in shrunk {
                        for &cj in &self.incident[v as usize] {
                            if cj != ci && !queued[cj as usize] {
                                queued[cj as usize] = true;
                                worklist.push(cj);
                            }
                        }
                    }
                }
            }
        }
        true
    }

    fn propagate(&mut self, var: Element) -> bool {
        let seed = self.incident[var as usize].clone();
        self.propagate_worklist(seed)
    }

    fn propagate_all(&mut self) -> bool {
        let seed: Vec<u32> = (0..self.constraints.len() as u32).collect();
        self.propagate_worklist(seed)
    }

    fn revise_constraint(&mut self, ci: usize) -> Option<Vec<Element>> {
        let (rel, vars) = {
            let c = &self.constraints[ci];
            (c.rel, c.vars.clone())
        };
        let idx = &self.target_idx[rel];

        if vars.iter().all(|&v| self.assignment[v as usize].is_some()) {
            let mapped: Tuple = vars
                .iter()
                .map(|&v| self.assignment[v as usize].unwrap())
                .collect();
            return if idx.tuple_set.contains(&mapped) {
                Some(Vec::new())
            } else {
                None
            };
        }

        let mut best: Option<&Vec<u32>> = None;
        for (p, &v) in vars.iter().enumerate() {
            if let Some(val) = self.assignment[v as usize] {
                let list = &idx.by_pos_val[p][val as usize];
                if best.is_none_or(|b| list.len() < b.len()) {
                    best = Some(list);
                }
            }
        }

        let mut support: Vec<(Element, BitSet)> = Vec::new();
        for &v in &vars {
            if self.assignment[v as usize].is_none() && !support.iter().any(|(u, _)| *u == v) {
                support.push((v, BitSet::empty(self.n_target)));
            }
        }

        let consider = |ti: u32, support: &mut Vec<(Element, BitSet)>, solver: &Self| {
            let t = &idx.tuples[ti as usize];
            for (p, &v) in vars.iter().enumerate() {
                match solver.assignment[v as usize] {
                    Some(val) => {
                        if t[p] != val {
                            return;
                        }
                    }
                    None => {
                        if !solver.domains[v as usize].contains(t[p]) {
                            return;
                        }
                    }
                }
            }
            for (p, &v) in vars.iter().enumerate() {
                for (q, &u) in vars.iter().enumerate().skip(p + 1) {
                    if v == u && t[p] != t[q] {
                        return;
                    }
                }
            }
            for (u, sup) in support.iter_mut() {
                for (p, &v) in vars.iter().enumerate() {
                    if v == *u {
                        sup.insert(t[p]);
                    }
                }
            }
        };

        match best {
            Some(list) => {
                for &ti in list {
                    consider(ti, &mut support, self);
                }
            }
            None => {
                for ti in 0..idx.tuples.len() as u32 {
                    consider(ti, &mut support, self);
                }
            }
        }

        let mut shrunk = Vec::new();
        for (u, sup) in support {
            let old_count = self.domains[u as usize].count();
            let mut new_dom = self.domains[u as usize].clone();
            new_dom.intersect_with(&sup);
            if new_dom.count() < old_count {
                self.trail
                    .last_mut()
                    .expect("propagation happens inside a decision level")
                    .push((u, std::mem::replace(&mut self.domains[u as usize], new_dom)));
                shrunk.push(u);
            }
            if self.domains[u as usize].is_empty() {
                return None;
            }
        }
        Some(shrunk)
    }

    fn select_var(&self) -> Option<Element> {
        let mut best: Option<(usize, usize, Element)> = None;
        for v in 0..self.n_source {
            if self.assignment[v].is_none() {
                let dom = self.domains[v].count();
                let deg = self.incident[v].len();
                let key = (dom, usize::MAX - deg, v as Element);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, v)| v)
    }

    fn search<F: FnMut(&[Element]) -> ControlFlow<()>>(&mut self, f: &mut F) -> ControlFlow<()> {
        let var = match self.select_var() {
            Some(v) => v,
            None => {
                let map: Vec<Element> = self
                    .assignment
                    .iter()
                    .map(|a| a.expect("complete assignment"))
                    .collect();
                return f(&map);
            }
        };
        let values: Vec<Element> = self.domains[var as usize].iter().collect();
        for val in values {
            self.trail.push(Vec::new());
            self.assignment[var as usize] = Some(val);
            let mut ok = true;
            if self.problem.injective {
                for u in 0..self.n_source {
                    if u != var as usize
                        && self.assignment[u].is_none()
                        && self.domains[u].contains(val)
                    {
                        let mut nd = self.domains[u].clone();
                        nd.remove(val);
                        self.trail
                            .last_mut()
                            .unwrap()
                            .push((u as u32, std::mem::replace(&mut self.domains[u], nd)));
                        if self.domains[u].is_empty() {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok {
                ok = self.propagate(var);
            }
            if ok {
                if let ControlFlow::Break(()) = self.search(f) {
                    return ControlFlow::Break(());
                }
            }
            self.assignment[var as usize] = None;
            let level = self.trail.pop().expect("matching trail level");
            for (u, dom) in level.into_iter().rev() {
                self.domains[u as usize] = dom;
            }
        }
        ControlFlow::Continue(())
    }
}

/// Pre-refactor pinned hom-existence on pointed structures.
pub fn baseline_hom_exists(a: &Pointed, b: &Pointed) -> bool {
    if a.distinguished().len() != b.distinguished().len() {
        return false;
    }
    BaselineHom::new(&a.structure, &b.structure)
        .pin_tuple(a.distinguished(), b.distinguished())
        .exists()
}

/// Pre-refactor core computation: one fresh search problem per exclusion
/// probe per retract iteration, exactly as the seed's `core_of` drove the
/// seed engine.
pub fn baseline_core_of(p: &Pointed) -> Pointed {
    let mut current = p.restrict_to_adom();
    loop {
        let n = current.structure.universe_size();
        let mut witness: Option<Vec<Element>> = None;
        'probe: for avoid in 0..n as Element {
            if current.distinguished().contains(&avoid) {
                continue;
            }
            let s = &current.structure;
            let mut prob = BaselineHom::new(s, s).exclude_target(avoid);
            for &d in current.distinguished() {
                prob = prob.pin(d, d);
            }
            if let Some(h) = prob.find() {
                witness = Some(h);
                break 'probe;
            }
        }
        match witness {
            None => return current,
            Some(h) => current = current.map_image(&h),
        }
    }
}

/// Pre-refactor core test: one fresh search problem (with its fresh
/// target index) per exclusion probe.
pub fn baseline_is_core(p: &Pointed) -> bool {
    let s = &p.structure;
    let n = s.universe_size();
    for avoid in 0..n as Element {
        if p.distinguished().contains(&avoid) {
            continue;
        }
        let mut prob = BaselineHom::new(s, s).exclude_target(avoid);
        for &d in p.distinguished() {
            prob = prob.pin(d, d);
        }
        if prob.exists() {
            return false;
        }
    }
    true
}

/// Pre-refactor →-minimality filter: the full pairwise matrix, every
/// entry a fresh search problem.
pub fn baseline_minimal_elements(family: &[Pointed]) -> Vec<usize> {
    let n = family.len();
    let mut below = vec![vec![false; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                below[i][j] = baseline_hom_exists(&family[i], &family[j]);
            }
        }
    }
    (0..n)
        .filter(|&i| !(0..n).any(|j| j != i && below[j][i] && !below[i][j]))
        .collect()
}

/// Pre-refactor hom-equivalence dedup (first representative wins).
pub fn baseline_dedupe_hom_equivalent(family: &[Pointed]) -> Vec<usize> {
    let mut kept: Vec<usize> = Vec::new();
    'outer: for i in 0..family.len() {
        for &k in &kept {
            if baseline_hom_exists(&family[i], &family[k])
                && baseline_hom_exists(&family[k], &family[i])
            {
                continue 'outer;
            }
        }
        kept.push(i);
    }
    kept
}

/// The pre-refactor exact approximation pipeline for **graph-based**
/// classes (no repair augmentations): enumerate quotient candidates,
/// dedupe up to hom-equivalence, keep →-minimal elements, take cores —
/// each stage driving the seed engine the way the seed `approx` module
/// did.
pub fn baseline_all_approximations_tableaux(
    t: &Pointed,
    in_class: &dyn Fn(&Pointed) -> bool,
    max_partitions: u64,
) -> Vec<Pointed> {
    use cqapx_structures::partition::for_each_partition;
    use cqapx_structures::quotient::quotient_pointed;
    use std::collections::HashSet as StdHashSet;

    let n = t.structure.universe_size();
    // `Structure`'s interior mutability is only its derived index cache,
    // ignored by equality and hashing — the key is logically immutable.
    #[allow(clippy::mutable_key_type)]
    let mut seen: StdHashSet<Pointed> = StdHashSet::new();
    let mut cands: Vec<Pointed> = Vec::new();
    let mut count = 0u64;
    for_each_partition(n, |p| {
        count += 1;
        if count > max_partitions {
            return ControlFlow::Break(());
        }
        let (qt, _) = quotient_pointed(t, p);
        if in_class(&qt) && seen.insert(qt.clone()) {
            cands.push(qt);
        }
        ControlFlow::Continue(())
    });
    let kept = baseline_dedupe_hom_equivalent(&cands);
    let reps: Vec<Pointed> = kept.into_iter().map(|i| cands[i].clone()).collect();
    let minimal = baseline_minimal_elements(&reps);
    minimal
        .into_iter()
        .map(|i| baseline_core_of(&reps[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Structure {
        let edges: Vec<(Element, Element)> = (0..n)
            .map(|i| (i as Element, ((i + 1) % n) as Element))
            .collect();
        Structure::digraph(n, &edges)
    }

    #[test]
    fn baseline_engine_sanity() {
        assert!(BaselineHom::new(&cycle(6), &cycle(3)).exists());
        assert!(!BaselineHom::new(&cycle(3), &cycle(6)).exists());
        let h = BaselineHom::new(&cycle(6), &cycle(3)).find().unwrap();
        assert_eq!(h.len(), 6);
    }

    #[test]
    fn baseline_core_sanity() {
        let g = cycle(3).disjoint_union(&cycle(6));
        let core = baseline_core_of(&Pointed::boolean(g));
        assert_eq!(core.structure.universe_size(), 3);
    }
}
