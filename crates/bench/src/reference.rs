//! The reference join the kernel differentials check against:
//! `π_keep(parts[0] ⋈ … ⋈ parts[n-1])` by its definition, as an ordered
//! set of rows, sharing no code with the join kernel it checks.
//!
//! It is a nested-loop join over `BTreeSet` rows. Each part's rows are
//! stored with the columns it shares with the parts before it first, so
//! the inner loop for a partial binding is the range of the ordered set
//! that agrees with it on those columns; the rows each complete binding
//! projects to are collected in another ordered set, which is the
//! canonical order the kernel writes.

use cqapx_cq::eval::FlatRelation;
use cqapx_cq::VarId;
use cqapx_structures::Element;
use std::collections::BTreeSet;

/// One part of the nested loop: the positions in the binding of the
/// variables it shares with earlier parts, and its rows as
/// `(shared values, own values)`.
struct Loop {
    shared: Vec<usize>,
    rows: BTreeSet<Vec<Element>>,
}

/// The rows of `π_keep(⋈ parts)`, in canonical order (`keep` lists
/// distinct variables of the parts). A 0-ary part is true when it holds
/// its one empty row and false when it holds none.
fn join_rows(parts: &[&FlatRelation], keep: &[VarId]) -> BTreeSet<Vec<Element>> {
    let mut bound: Vec<VarId> = Vec::new();
    let mut loops = Vec::with_capacity(parts.len());
    for part in parts {
        let schema = part.schema();
        let at = |v: &VarId| bound.iter().position(|b| b == v);
        let shared: Vec<usize> = (0..schema.len())
            .filter(|&c| at(&schema[c]).is_some())
            .collect();
        let own: Vec<usize> = (0..schema.len())
            .filter(|&c| at(&schema[c]).is_none())
            .collect();
        let rows = part
            .iter_rows()
            .map(|r| shared.iter().chain(&own).map(|&c| r[c]).collect())
            .collect();
        let shared = shared
            .iter()
            .map(|&c| at(&schema[c]).expect("shared"))
            .collect();
        bound.extend(own.iter().map(|&c| schema[c]));
        loops.push(Loop { shared, rows });
    }
    let kept: Vec<usize> = (keep.iter())
        .map(|v| {
            bound
                .iter()
                .position(|b| b == v)
                .expect("kept variable in a part")
        })
        .collect();
    let mut out = BTreeSet::new();
    extend(&loops, &mut Vec::new(), &kept, &mut out);
    out
}

/// Extends `binding` through `loops`, collecting the kept columns of
/// every complete one.
fn extend(
    loops: &[Loop],
    binding: &mut Vec<Element>,
    kept: &[usize],
    out: &mut BTreeSet<Vec<Element>>,
) {
    let Some((first, rest)) = loops.split_first() else {
        out.insert(kept.iter().map(|&i| binding[i]).collect());
        return;
    };
    let key: Vec<Element> = first.shared.iter().map(|&i| binding[i]).collect();
    for row in first.rows.range(key.clone()..) {
        if !row.starts_with(&key) {
            break;
        }
        let len = binding.len();
        binding.extend_from_slice(&row[key.len()..]);
        extend(rest, binding, kept, out);
        binding.truncate(len);
    }
}

/// The width bound the kernel gives `⋈ parts`: the largest of the
/// parts' when every part with a column carries one, none (`0`)
/// otherwise.
fn join_width(parts: &[&FlatRelation]) -> u32 {
    if parts.iter().all(|p| p.domain_width() > 0 || p.arity() == 0) {
        parts.iter().map(|p| p.domain_width()).max().unwrap_or(0)
    } else {
        0
    }
}

/// Asserts that `got` is what the kernel must write for
/// `π_keep(⋈ parts)`: schema `keep`, the reference rows in order, and
/// the reference width bound.
pub fn assert_join(got: &FlatRelation, parts: &[&FlatRelation], keep: &[VarId], ctx: &str) {
    let want = join_rows(parts, keep);
    assert_eq!(got.schema(), keep, "schema: {ctx}");
    assert_eq!(got.len(), want.len(), "row count: {ctx}");
    assert!(
        got.iter_rows().eq(want.iter().map(Vec::as_slice)),
        "rows: {ctx}"
    );
    assert_eq!(got.domain_width(), join_width(parts), "width: {ctx}");
}
