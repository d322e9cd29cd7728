//! The **frozen pre-refactor homomorphism engine**, kept verbatim (minus
//! docs) as a measurement baseline and differential-test oracle.
//!
//! This is the seed's `cqapx_structures::hom` search loop: per-call
//! target-index construction, per-call source compilation, forward
//! checking seeded from the tuples incident to the last assigned
//! variable. The live engine (`cqapx_structures::solver::HomSolver`)
//! replaced it with cached per-structure indexes, compiled reusable
//! sources and a shared-budget GAC queue; the two must stay
//! *semantically* identical — `tests/hom_differential.rs` checks that on
//! random structures — while `exp_hom` records how far apart they are in
//! time (`BENCH_hom.json`).
//!
//! Do not "improve" this module: its value is being exactly the engine
//! the speedup claims are measured against.
//!
//! The second half of the module freezes the **row-based Yannakakis
//! evaluator** ([`BaselineVarRelation`] / [`BaselineAcyclicPlan`]) the
//! same way: it is the pre-columnar evaluation kernel, kept as the
//! reference side of `exp_eval` / `BENCH_eval.json`. It is no test
//! oracle: the harness in `tests/harness/mod.rs` checks every tier
//! against `eval_naive`, triangulated by [`BaselineHom`].

use cqapx_structures::{Element, Pointed, RelId, Structure, Tuple};
use std::collections::HashSet;
use std::ops::ControlFlow;

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
        let tuples: Vec<Tuple> = target.tuples(rel).to_vec();
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

// ======================================================================
// The frozen pre-columnar **row-based Yannakakis evaluator**: the
// `HashSet<Vec<Element>>` relation representation and the clone-heavy
// full reducer exactly as they stood before the flat/columnar join
// kernel replaced them. `exp_eval` measures the distance in time
// (`BENCH_eval.json`).
//
// Do not "improve" this section either: its value is being exactly the
// evaluator the columnar-kernel speedup claims are measured against.
// ======================================================================

/// The seed's row-set relation: a schema of distinct variables plus a
/// `HashSet` of materialized rows (one `Vec` per row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineVarRelation {
    /// The schema: distinct variables, in a fixed order.
    pub schema: Vec<cqapx_cq::VarId>,
    /// The rows; each row has `schema.len()` values.
    pub rows: HashSet<Vec<Element>>,
}

impl BaselineVarRelation {
    /// An empty relation over a schema.
    pub fn empty(schema: Vec<cqapx_cq::VarId>) -> Self {
        BaselineVarRelation {
            schema,
            rows: HashSet::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn positions(&self, vars: &[cqapx_cq::VarId]) -> Vec<usize> {
        vars.iter()
            .map(|v| {
                self.schema
                    .iter()
                    .position(|s| s == v)
                    .expect("variable must be in schema")
            })
            .collect()
    }

    fn key(row: &[Element], positions: &[usize]) -> Vec<Element> {
        positions.iter().map(|&p| row[p]).collect()
    }

    /// Semijoin `self ⋉ other` on their shared variables.
    pub fn semijoin(&mut self, other: &BaselineVarRelation) {
        let shared: Vec<cqapx_cq::VarId> = self
            .schema
            .iter()
            .copied()
            .filter(|v| other.schema.contains(v))
            .collect();
        if shared.is_empty() {
            if other.is_empty() {
                self.rows.clear();
            }
            return;
        }
        let my_pos = self.positions(&shared);
        let their_pos = other.positions(&shared);
        let keys: HashSet<Vec<Element>> = other
            .rows
            .iter()
            .map(|r| Self::key(r, &their_pos))
            .collect();
        self.rows.retain(|r| keys.contains(&Self::key(r, &my_pos)));
    }

    /// Natural join `self ⋈ other` (hash join, build on the smaller side).
    pub fn join(&self, other: &BaselineVarRelation) -> BaselineVarRelation {
        use std::collections::HashMap;
        let shared: Vec<cqapx_cq::VarId> = self
            .schema
            .iter()
            .copied()
            .filter(|v| other.schema.contains(v))
            .collect();
        let extra: Vec<cqapx_cq::VarId> = other
            .schema
            .iter()
            .copied()
            .filter(|v| !self.schema.contains(v))
            .collect();
        let mut schema = self.schema.clone();
        schema.extend_from_slice(&extra);

        let their_shared_pos = other.positions(&shared);
        let their_extra_pos = other.positions(&extra);
        let my_shared_pos = self.positions(&shared);

        let mut rows = HashSet::new();
        if self.rows.len() <= other.rows.len() {
            let mut index: HashMap<Vec<Element>, Vec<&Vec<Element>>> = HashMap::new();
            for r in &self.rows {
                index
                    .entry(Self::key(r, &my_shared_pos))
                    .or_default()
                    .push(r);
            }
            for r in &other.rows {
                if let Some(matches) = index.get(&Self::key(r, &their_shared_pos)) {
                    let ext = Self::key(r, &their_extra_pos);
                    for &mine in matches {
                        let mut row = mine.clone();
                        row.extend_from_slice(&ext);
                        rows.insert(row);
                    }
                }
            }
        } else {
            let mut index: HashMap<Vec<Element>, Vec<Vec<Element>>> = HashMap::new();
            for r in &other.rows {
                index
                    .entry(Self::key(r, &their_shared_pos))
                    .or_default()
                    .push(Self::key(r, &their_extra_pos));
            }
            for r in &self.rows {
                if let Some(matches) = index.get(&Self::key(r, &my_shared_pos)) {
                    for ext in matches {
                        let mut row = r.clone();
                        row.extend_from_slice(ext);
                        rows.insert(row);
                    }
                }
            }
        }
        BaselineVarRelation { schema, rows }
    }

    /// Projection onto a sub-schema (O(vars²) duplicate scan, as seeded).
    pub fn project(&self, vars: &[cqapx_cq::VarId]) -> BaselineVarRelation {
        let positions = self.positions(vars);
        let mut seen = Vec::new();
        let mut schema = Vec::new();
        let mut keep_positions = Vec::new();
        for (&v, &p) in vars.iter().zip(positions.iter()) {
            if !seen.contains(&v) {
                seen.push(v);
                schema.push(v);
                keep_positions.push(p);
            }
        }
        let rows = self
            .rows
            .iter()
            .map(|r| Self::key(r, &keep_positions))
            .collect();
        BaselineVarRelation { schema, rows }
    }

    /// Reads the rows out in the order of an explicit head.
    pub fn rows_in_head_order(
        &self,
        head: &[cqapx_cq::VarId],
    ) -> std::collections::BTreeSet<Vec<Element>> {
        let positions = self.positions(head);
        self.rows.iter().map(|r| Self::key(r, &positions)).collect()
    }
}

#[derive(Debug, Clone)]
struct BaselineGroup {
    vars: Vec<cqapx_cq::VarId>,
    atoms: Vec<usize>,
}

/// The seed's compiled Yannakakis plan: materialize one row-set relation
/// per hyperedge, full-reduce with per-edge relation clones, then join
/// bottom-up with projection — the evaluator the columnar kernel
/// replaced.
#[derive(Debug, Clone)]
pub struct BaselineAcyclicPlan {
    query: cqapx_cq::ConjunctiveQuery,
    groups: Vec<BaselineGroup>,
    join_tree: cqapx_hypergraphs::JoinTree,
}

impl BaselineAcyclicPlan {
    /// Compiles a plan; fails (with `None`) when the query is cyclic.
    pub fn compile(query: &cqapx_cq::ConjunctiveQuery) -> Option<BaselineAcyclicPlan> {
        let mut groups: Vec<BaselineGroup> = Vec::new();
        for (ai, atom) in query.atoms().iter().enumerate() {
            let mut vars: Vec<cqapx_cq::VarId> = atom.args.clone();
            vars.sort_unstable();
            vars.dedup();
            match groups.iter_mut().find(|g| g.vars == vars) {
                Some(g) => g.atoms.push(ai),
                None => groups.push(BaselineGroup {
                    vars,
                    atoms: vec![ai],
                }),
            }
        }
        let mut h = cqapx_hypergraphs::Hypergraph::new(query.var_count());
        for g in &groups {
            h.add_edge(&g.vars);
        }
        let join_tree = cqapx_hypergraphs::gyo::gyo_reduce(&h).join_tree?;
        Some(BaselineAcyclicPlan {
            query: query.clone(),
            groups,
            join_tree,
        })
    }

    fn materialize(&self, gi: usize, d: &Structure) -> BaselineVarRelation {
        let g = &self.groups[gi];
        let mut rel: Option<BaselineVarRelation> = None;
        for &ai in &g.atoms {
            let atom = &self.query.atoms()[ai];
            let mut rows = HashSet::new();
            'tuples: for t in d.tuples(atom.rel) {
                let mut binding: Vec<Option<Element>> = vec![None; self.query.var_count()];
                for (&v, &val) in atom.args.iter().zip(t.iter()) {
                    match binding[v as usize] {
                        None => binding[v as usize] = Some(val),
                        Some(prev) if prev == val => {}
                        Some(_) => continue 'tuples,
                    }
                }
                let row: Vec<Element> = g
                    .vars
                    .iter()
                    .map(|&v| binding[v as usize].expect("group var bound"))
                    .collect();
                rows.insert(row);
            }
            let atom_rel = BaselineVarRelation {
                schema: g.vars.clone(),
                rows,
            };
            rel = Some(match rel {
                None => atom_rel,
                Some(mut acc) => {
                    acc.rows.retain(|r| atom_rel.rows.contains(r));
                    acc
                }
            });
        }
        rel.expect("groups are nonempty")
    }

    fn full_reduce(&self, rels: &mut [BaselineVarRelation]) -> bool {
        let order = self.join_tree.bottom_up_order();
        for &u in &order {
            if let Some(p) = self.join_tree.parent[u] {
                let child = rels[u].clone();
                rels[p as usize].semijoin(&child);
            }
            if rels[u].is_empty() {
                return false;
            }
        }
        for &u in order.iter().rev() {
            if let Some(p) = self.join_tree.parent[u] {
                let parent = rels[p as usize].clone();
                rels[u].semijoin(&parent);
                if rels[u].is_empty() {
                    return false;
                }
            }
        }
        true
    }

    /// Boolean evaluation: `Q(D) ≠ ∅`.
    pub fn eval_boolean(&self, d: &Structure) -> bool {
        let mut rels: Vec<BaselineVarRelation> = (0..self.groups.len())
            .map(|gi| self.materialize(gi, d))
            .collect();
        self.full_reduce(&mut rels)
    }

    /// Full evaluation: the set of answer tuples in head order.
    pub fn eval(&self, d: &Structure) -> std::collections::BTreeSet<Vec<Element>> {
        use std::collections::BTreeSet;
        let mut rels: Vec<BaselineVarRelation> = (0..self.groups.len())
            .map(|gi| self.materialize(gi, d))
            .collect();
        if !self.full_reduce(&mut rels) {
            return BTreeSet::new();
        }
        if self.query.is_boolean() {
            let mut out = BTreeSet::new();
            out.insert(Vec::new());
            return out;
        }
        let free: BTreeSet<cqapx_cq::VarId> = self.query.free_vars().iter().copied().collect();
        let children = self.join_tree.children();
        let order = self.join_tree.bottom_up_order();
        let mut partial: Vec<Option<BaselineVarRelation>> = vec![None; self.groups.len()];
        for &u in &order {
            let mut acc = rels[u].clone();
            for &c in &children[u] {
                let child = partial[c].take().expect("children processed first");
                acc = acc.join(&child);
            }
            let keep: Vec<cqapx_cq::VarId> = acc
                .schema
                .iter()
                .copied()
                .filter(|v| {
                    free.contains(v)
                        || self.join_tree.parent[u]
                            .map(|p| self.groups[p as usize].vars.contains(v))
                            .unwrap_or(false)
                })
                .collect();
            partial[u] = Some(acc.project(&keep));
        }
        let mut result: Option<BaselineVarRelation> = None;
        for r in self.join_tree.roots() {
            let rel = partial[r].take().expect("root processed");
            result = Some(match result {
                None => rel,
                Some(acc) => acc.join(&rel),
            });
        }
        let result = result.expect("at least one root");
        result.rows_in_head_order(self.query.free_vars())
    }
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

    #[test]
    fn baseline_yannakakis_sanity() {
        let q = cqapx_cq::parse_cq("Q(x, w) :- E(x, y), E(y, z), E(z, w)").unwrap();
        let plan = BaselineAcyclicPlan::compile(&q).unwrap();
        let d = Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]);
        let answers = plan.eval(&d);
        assert_eq!(answers.len(), 1);
        assert!(answers.contains(&vec![0, 3]));
        assert!(plan.eval_boolean(&d));
        let cyclic = cqapx_cq::parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        assert!(BaselineAcyclicPlan::compile(&cyclic).is_none());
    }
}
