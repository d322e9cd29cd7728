//! The homomorphism preorder on (pointed) structures.
//!
//! `D → D'` (a homomorphism exists) is reflexive and transitive; it becomes
//! a partial order on cores. The paper's notation `D ⥛ D'` (rendered
//! `upslope` in the extracted text) means `D → D'` **and** `D' ↛ D` —
//! strictly below in the preorder. Dually, on queries, `Q ⊆ Q'` iff
//! `T_{Q'} → T_Q`.

use crate::core_ops::core_of;
use crate::pointed::Pointed;
use crate::solver::HomSolver;
use std::time::{Duration, Instant};

/// `true` when a homomorphism `a → b` respecting distinguished tuples
/// exists.
pub fn hom_exists(a: &Pointed, b: &Pointed) -> bool {
    hom_exists_compiled(&HomSolver::compile(&a.structure), a, b)
}

/// Like [`hom_exists`], against a pre-compiled source solver (`solver`
/// must be `HomSolver::compile(&a.structure)`): for a source tested
/// against many targets.
pub fn hom_exists_compiled(solver: &HomSolver, a: &Pointed, b: &Pointed) -> bool {
    if a.distinguished().len() != b.distinguished().len() {
        return false;
    }
    solver
        .run(&b.structure)
        .pin_tuple(a.distinguished(), b.distinguished())
        .exists()
}

/// The full pairwise hom-existence matrix of a family:
/// `below[i][j] = family[i] → family[j]` (diagonal left `false`).
///
/// Each member's solver is compiled once and each member's target index is
/// built once, so the `n²` searches pay no per-pair setup.
fn hom_matrix(family: &[Pointed]) -> Vec<Vec<bool>> {
    let n = family.len();
    let mut below = vec![vec![false; n]; n];
    for (i, a) in family.iter().enumerate() {
        let solver = HomSolver::compile(&a.structure);
        for (j, b) in family.iter().enumerate() {
            if i != j {
                below[i][j] = hom_exists_compiled(&solver, a, b);
            }
        }
    }
    below
}

/// `true` when `a → b` and `b → a` (homomorphic equivalence; equal cores).
pub fn hom_equivalent(a: &Pointed, b: &Pointed) -> bool {
    hom_exists(a, b) && hom_exists(b, a)
}

/// Indices of the →-minimal elements of a family of pointed structures
/// (elements with nothing strictly below them in the family).
///
/// Theorem 4.1: the minimal elements of the quotient family `H_C(Q)`
/// under `→` are exactly the `C`-approximations. This pairwise matrix is
/// the exhaustive reference [`MinimalAntichain`] is checked against; the
/// approximation search itself streams through the antichain.
pub fn minimal_elements(family: &[Pointed]) -> Vec<usize> {
    let n = family.len();
    let below = hom_matrix(family);
    (0..n)
        .filter(|&i| {
            // minimal iff no j with j -> i but i -/-> j
            !(0..n).any(|j| j != i && below[j][i] && !below[i][j])
        })
        .collect()
}

/// Deduplicates a family up to homomorphic equivalence, keeping the first
/// representative of each class. Returns the kept indices. With
/// [`minimal_elements`], the reference [`MinimalAntichain`] is tested on.
pub fn dedupe_hom_equivalent(family: &[Pointed]) -> Vec<usize> {
    // Compile each candidate's solver lazily, once; equivalence checks
    // between i and a kept k then reuse both compiled sides.
    let mut solvers: Vec<Option<HomSolver>> = (0..family.len()).map(|_| None).collect();
    let mut kept: Vec<usize> = Vec::new();
    'outer: for i in 0..family.len() {
        if solvers[i].is_none() {
            solvers[i] = Some(HomSolver::compile(&family[i].structure));
        }
        for &k in &kept {
            let fwd = hom_exists_compiled(
                solvers[i].as_ref().expect("compiled above"),
                &family[i],
                &family[k],
            );
            if fwd
                && hom_exists_compiled(
                    solvers[k].as_ref().expect("kept entries are compiled"),
                    &family[k],
                    &family[i],
                )
            {
                continue 'outer;
            }
        }
        kept.push(i);
    }
    kept
}

/// The →-minimal elements of a stream of pointed structures, one
/// representative per hom-equivalence class, maintained incrementally.
///
/// Invariant: the members are pairwise incomparable, and everything
/// offered so far has a member below it (`m → x`). So a newcomer with a
/// member below it is not minimal (or repeats a class) and is dropped
/// after one hom test per member, without ever being compiled; any other
/// newcomer evicts the members it maps into and joins.
///
/// **Members are held as cores**, the solver compiled on the core:
/// `x → y` iff `core(x) → core(y)`, so every later test runs between the
/// smallest structures of the two classes, and minimized results are
/// there for the taking ([`Self::into_cores`]; [`Self::into_members`]
/// returns what was offered). Offered structures need active universes,
/// as [`core_of`] does and tableaux have.
///
/// The members equal [`minimal_elements`] of [`dedupe_hom_equivalent`] of
/// the stream, first representatives in arrival order.
#[derive(Default)]
pub struct MinimalAntichain {
    /// Per member: the core's solver, the core, the structure as offered.
    members: Vec<(HomSolver, Pointed, Pointed)>,
    core_time: Duration,
}

impl MinimalAntichain {
    /// An empty antichain.
    pub fn new() -> Self {
        MinimalAntichain::default()
    }

    /// Offers the next element of the stream; `true` when it joined.
    pub fn offer(&mut self, c: Pointed) -> bool {
        let below = |(solver, core, _): &(HomSolver, Pointed, Pointed)| {
            hom_exists_compiled(solver, core, &c)
        };
        if self.members.iter().any(below) {
            return false;
        }
        let start = Instant::now();
        let found = core_of(&c);
        self.core_time += start.elapsed();
        let core = found.core;
        let solver = (found.solver).unwrap_or_else(|| HomSolver::compile(&core.structure));
        self.members
            .retain(|(_, m, _)| !hom_exists_compiled(&solver, &core, m));
        self.members.push((solver, core, c));
        true
    }

    /// Time spent computing members' cores so far (a part of the time
    /// spent in [`Self::offer`]).
    pub fn core_time(&self) -> Duration {
        self.core_time
    }

    /// The current minimal representatives as they were offered, in
    /// arrival order.
    pub fn into_members(self) -> Vec<Pointed> {
        self.members.into_iter().map(|(.., m)| m).collect()
    }

    /// The cores of the current minimal representatives, in arrival
    /// order: pairwise incomparable, so pairwise non-isomorphic.
    pub fn into_cores(self) -> Vec<Pointed> {
        self.members.into_iter().map(|(_, core, _)| core).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{Element, Structure};

    /// `true` when `a` and `b` are incomparable (no homomorphism either way).
    pub(crate) fn incomparable(a: &Pointed, b: &Pointed) -> bool {
        !hom_exists(a, b) && !hom_exists(b, a)
    }

    fn cycle(n: usize) -> Pointed {
        let edges: Vec<(Element, Element)> = (0..n)
            .map(|i| (i as Element, ((i + 1) % n) as Element))
            .collect();
        Pointed::boolean(Structure::digraph(n, &edges))
    }

    fn lp() -> Pointed {
        Pointed::boolean(Structure::digraph(1, &[(0, 0)]))
    }

    /// `a → b` but `b ↛ a` (the paper's strict `⥛`).
    fn strictly_below(a: &Pointed, b: &Pointed) -> bool {
        hom_exists(a, b) && !hom_exists(b, a)
    }

    #[test]
    fn loop_is_top_of_everything() {
        assert!(strictly_below(&cycle(3), &lp()));
        assert!(strictly_below(&cycle(4), &lp()));
        assert!(hom_equivalent(&lp(), &lp()));
    }

    #[test]
    fn c6_strictly_below_c3() {
        // Directed C6 maps onto C3 (wrap twice) but C3 cannot map into C6.
        assert!(strictly_below(&cycle(6), &cycle(3)));
        assert!(!hom_equivalent(&cycle(3), &cycle(4)));
        // C3 ∪ C6 is hom-equivalent to C3.
        let union = Pointed::boolean(cycle(3).structure.disjoint_union(&cycle(6).structure));
        assert!(hom_equivalent(&union, &cycle(3)));
    }

    #[test]
    fn incomparable_cycles() {
        // C3 and C4: C3 -> C4? no (lengths); C4 -> C3? gcd arguments: a
        // directed C4 maps to C3 iff 3 | 4 — no. Incomparable.
        assert!(incomparable(&cycle(3), &cycle(4)));
    }

    #[test]
    fn minimal_and_maximal() {
        // Order: C6 ⥛ C3 ⥛ loop; C4 ⥛ loop; C4 incomparable with C3, C6.
        let family = vec![cycle(3), cycle(6), lp(), cycle(4)];
        let mins = minimal_elements(&family);
        assert_eq!(mins, vec![1, 3]); // C6 and C4
    }

    #[test]
    fn antichain_evicts_and_drops() {
        // The family of `minimal_and_maximal`, ordered so that each of
        // the first two members is evicted by the next.
        let mut chain = MinimalAntichain::new();
        assert!(chain.offer(lp()));
        assert!(chain.offer(cycle(3))); // evicts the loop
        assert!(chain.offer(cycle(6))); // evicts C3
        assert!(chain.offer(cycle(4))); // incomparable with C6
        assert!(!chain.offer(cycle(3))); // C6 → C3
        let twice = Pointed::boolean(cycle(6).structure.disjoint_union(&cycle(6).structure));
        assert!(!chain.offer(twice)); // equivalent to C6
        assert_eq!(chain.into_members(), vec![cycle(6), cycle(4)]);
    }

    #[test]
    fn dedupe() {
        fn union(a: &Pointed, b: &Pointed) -> Pointed {
            Pointed::boolean(a.structure.disjoint_union(&b.structure))
        }
        // C3, C3 ∪ C6 and C3 ∪ C9 are pairwise hom-equivalent (all ~ C3).
        let family = vec![
            cycle(3),
            union(&cycle(3), &cycle(6)),
            union(&cycle(3), &cycle(9)),
            cycle(4),
            lp(),
        ];
        let kept = dedupe_hom_equivalent(&family);
        assert_eq!(kept, vec![0, 3, 4]);
    }

    #[test]
    fn arity_mismatch_no_hom() {
        let a = Pointed::new(Structure::digraph(2, &[(0, 1)]), vec![0]);
        let b = Pointed::boolean(Structure::digraph(2, &[(0, 1)]));
        assert!(!hom_exists(&a, &b));
    }
}
