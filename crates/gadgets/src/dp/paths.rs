//! The oriented-path alphabet of the appendix.
//!
//! * `P_i = 0^{i+1} 1 0^{11−i}` for `1 ≤ i ≤ 9`: thirteen edges, net
//!   length 11, height 11; pairwise incomparable cores.
//! * `P_{ij} = 0^{i+1} 1 0 0^{j−i} 1 0^{11−j}`: maps into `P_i` and `P_j`
//!   and into no other `P_k` (Claim 8.1).
//! * `P_{ijk} = 0^{i+1} 1 0 0^{j−i} 1 0 0^{k−j} 1 0^{11−k}`: maps into
//!   exactly `P_i`, `P_j`, `P_k` (Claim 8.2).
//!
//! The mapping behaviour follows from Lemma 4.5 (level preservation): a
//! dip at height `h` can fold onto a dip at the same height, and `P_i`'s
//! only dip is at height `i + 1`.

use cqapx_graphs::OrientedPath;

/// `P_i = 0^{i+1} 1 0^{11−i}` for `1 ≤ i ≤ 9`.
pub fn p_i(i: usize) -> OrientedPath {
    assert!((1..=9).contains(&i), "P_i defined for 1 ≤ i ≤ 9");
    let s = format!("{}1{}", "0".repeat(i + 1), "0".repeat(11 - i));
    OrientedPath::parse(&s)
}

/// `P_{ij} = 0^{i+1} 1 0 0^{j−i} 1 0^{11−j}` for `1 ≤ i < j ≤ 9`.
pub fn p_ij(i: usize, j: usize) -> OrientedPath {
    assert!(1 <= i && i < j && j <= 9, "need 1 ≤ i < j ≤ 9");
    let s = format!(
        "{}10{}1{}",
        "0".repeat(i + 1),
        "0".repeat(j - i),
        "0".repeat(11 - j)
    );
    OrientedPath::parse(&s)
}

/// `P_{ijk} = 0^{i+1} 1 0 0^{j−i} 1 0 0^{k−j} 1 0^{11−k}` for
/// `1 ≤ i < j < k ≤ 9`.
pub fn p_ijk(i: usize, j: usize, k: usize) -> OrientedPath {
    assert!(1 <= i && i < j && j < k && k <= 9, "need 1 ≤ i < j < k ≤ 9");
    let s = format!(
        "{}10{}10{}1{}",
        "0".repeat(i + 1),
        "0".repeat(j - i),
        "0".repeat(k - j),
        "0".repeat(11 - k)
    );
    OrientedPath::parse(&s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_graphs::balance;
    use cqapx_structures::{core_ops, HomSolver, Pointed, Structure};

    fn s(p: &OrientedPath) -> Structure {
        p.to_digraph().to_structure()
    }

    #[test]
    fn p_i_shape() {
        for i in 1..=9 {
            let p = p_i(i);
            assert_eq!(p.len(), 13);
            assert_eq!(p.net_length(), 11);
            let info = balance::levels(&p.to_digraph());
            assert!(info.balanced);
            assert_eq!(info.height, 11);
        }
    }

    #[test]
    fn p_i_pairwise_incomparable_cores() {
        let paths: Vec<Structure> = (1..=9).map(|i| s(&p_i(i))).collect();
        for (i, a) in paths.iter().enumerate() {
            assert!(
                core_ops::is_core(&Pointed::boolean(a.clone())),
                "P_{} is a core",
                i + 1
            );
            for (j, b) in paths.iter().enumerate() {
                if i != j {
                    assert!(
                        !HomSolver::compile(a).run(b).exists(),
                        "P_{} ↛ P_{}",
                        i + 1,
                        j + 1
                    );
                }
            }
        }
    }

    #[test]
    fn claim_8_1_p_ij() {
        // The full matrix: all 36 pairs i < j against all nine P_k.
        for (i, j) in (1..=9).flat_map(|i| ((i + 1)..=9).map(move |j| (i, j))) {
            let pij = s(&p_ij(i, j));
            for k in 1..=9 {
                let pk = s(&p_i(k));
                let expected = k == i || k == j;
                assert_eq!(
                    HomSolver::compile(&pij).run(&pk).exists(),
                    expected,
                    "P_{{{i},{j}}} → P_{k} should be {expected}"
                );
            }
        }
    }

    #[test]
    fn claim_8_2_p_ijk() {
        for &(i, j, k) in &[(1, 2, 5), (2, 4, 5), (3, 4, 5), (5, 7, 9), (2, 6, 9)] {
            let pijk = s(&p_ijk(i, j, k));
            for l in 1..=9 {
                let pl = s(&p_i(l));
                let expected = l == i || l == j || l == k;
                assert_eq!(
                    HomSolver::compile(&pijk).run(&pl).exists(),
                    expected,
                    "P_{{{i},{j},{k}}} → P_{l} should be {expected}"
                );
            }
        }
    }

    #[test]
    fn pij_heights_match() {
        for &(i, j) in &[(1, 5), (3, 5), (5, 7)] {
            let info = balance::levels(&p_ij(i, j).to_digraph());
            assert!(info.balanced);
            assert_eq!(info.height, 11, "P_ij must share the P_i height");
            assert_eq!(p_ij(i, j).net_length(), 11);
        }
        for &(i, j, k) in &[(1, 2, 5), (2, 4, 5)] {
            let info = balance::levels(&p_ijk(i, j, k).to_digraph());
            assert!(info.balanced);
            assert_eq!(info.height, 11);
            assert_eq!(p_ijk(i, j, k).net_length(), 11);
        }
    }
}
