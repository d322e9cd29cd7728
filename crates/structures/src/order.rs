//! The homomorphism preorder on (pointed) structures.
//!
//! `D → D'` (a homomorphism exists) is reflexive and transitive; it becomes
//! a partial order on cores. The paper's notation `D ⥛ D'` (rendered
//! `upslope` in the extracted text) means `D → D'` **and** `D' ↛ D` —
//! strictly below in the preorder. Dually, on queries, `Q ⊆ Q'` iff
//! `T_{Q'} → T_Q`.

use crate::core_ops::core_compiled;
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

/// `true` when `a → b` and `b → a` (homomorphic equivalence; equal cores).
pub fn hom_equivalent(a: &Pointed, b: &Pointed) -> bool {
    hom_exists(a, b) && hom_exists(b, a)
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
/// **One structure per member**, with its solver: the core when the
/// antichain minimizes, the structure as offered otherwise
/// ([`Self::new`]). `x → y` iff `core(x) → core(y)`, so either way the
/// members and the verdicts are the same; a minimizing antichain runs
/// every later test between the smallest structures of the two classes,
/// and keeps a candidate that is its own core as offered, with the
/// solver its core computation compiled. Offered structures need active
/// universes when minimizing, as [`core_of`](crate::core_of) does and
/// tableaux have.
///
/// The members are the →-minimal ones among the first representative of
/// each hom-equivalence class of the stream, in arrival order.
#[derive(Default)]
pub struct MinimalAntichain {
    /// Per member: its solver and the structure it is compiled on.
    members: Vec<(HomSolver, Pointed)>,
    minimize: bool,
    core_time: Duration,
}

impl MinimalAntichain {
    /// An empty antichain that keeps its members' cores when `minimize`,
    /// and its members as offered otherwise.
    pub fn new(minimize: bool) -> Self {
        MinimalAntichain {
            minimize,
            ..MinimalAntichain::default()
        }
    }

    /// Offers the next element of the stream; `true` when it joined.
    pub fn offer(&mut self, c: Pointed) -> bool {
        let below = |(solver, m): &(HomSolver, Pointed)| hom_exists_compiled(solver, m, &c);
        if self.members.iter().any(below) {
            return false;
        }
        let (solver, kept) = match self.minimize {
            true => {
                let start = Instant::now();
                let cored = core_compiled(c);
                self.core_time += start.elapsed();
                cored
            }
            false => (HomSolver::compile(&c.structure), c),
        };
        self.members
            .retain(|(_, m)| !hom_exists_compiled(&solver, &kept, m));
        self.members.push((solver, kept));
        true
    }

    /// Time spent computing members' cores so far (a part of the time
    /// spent in [`Self::offer`]).
    pub fn core_time(&self) -> Duration {
        self.core_time
    }

    /// The current minimal representatives, in arrival order: their
    /// cores when minimizing — pairwise incomparable, so pairwise
    /// non-isomorphic — and as they were offered otherwise.
    pub fn into_members(self) -> Vec<Pointed> {
        self.members.into_iter().map(|(_, m)| m).collect()
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
        let mut chain = MinimalAntichain::new(false);
        for p in [cycle(3), cycle(6), lp(), cycle(4)] {
            chain.offer(p);
        }
        assert_eq!(chain.into_members(), vec![cycle(6), cycle(4)]);
    }

    #[test]
    fn antichain_evicts_and_drops() {
        // The family of `minimal_and_maximal`, ordered so that each of
        // the first two members is evicted by the next.
        let mut chain = MinimalAntichain::new(false);
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
        let family = [
            cycle(3),
            union(&cycle(3), &cycle(6)),
            union(&cycle(3), &cycle(9)),
            cycle(4),
            lp(),
        ];
        // The antichain keeps the first of each class it keeps: C3 and
        // C4 (the loop lies above both).
        let mut chain = MinimalAntichain::new(false);
        let joined = family.map(|p| chain.offer(p));
        assert_eq!(joined, [true, false, false, true, false]);
        assert_eq!(chain.into_members(), vec![cycle(3), cycle(4)]);
    }

    #[test]
    fn arity_mismatch_no_hom() {
        let a = Pointed::new(Structure::digraph(2, &[(0, 1)]), vec![0]);
        let b = Pointed::boolean(Structure::digraph(2, &[(0, 1)]));
        assert!(!hom_exists(&a, &b));
    }
}
