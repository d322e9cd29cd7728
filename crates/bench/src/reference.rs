use std::collections::BTreeSet;

/// One input of [`reference_join`]: its schema, its rows and its code
/// width (`0` for none).
pub type Part<'a> = (&'a [u32], Vec<&'a [u32]>, u32);

/// A part in the nested loop: where the variables it shares with the
/// parts before it sit in a binding, and its rows, those columns first.
type Loop = (Vec<usize>, BTreeSet<Vec<u32>>);

/// `π_keep(parts[0] ⋈ … ⋈ parts[n-1])` by its definition, sharing no code
/// with the kernel it checks: the rows in canonical order, and the code
/// width the kernel gives them, the largest part's when every part with a
/// column has one. A nested loop, whose inner loop for a partial binding
/// is the range of a part's rows that agrees with it.
pub fn reference_join(parts: &[Part], keep: &[u32]) -> (BTreeSet<Vec<u32>>, u32) {
    let (mut bound, mut loops): (Vec<u32>, Vec<Loop>) = (Vec::new(), Vec::new());
    for (schema, rows, _) in parts {
        let at = |v: &u32| bound.iter().position(|b| b == v);
        let (shared, own): (Vec<usize>, Vec<usize>) =
            (0..schema.len()).partition(|&c| at(&schema[c]).is_some());
        let reorder = |r: &&[u32]| shared.iter().chain(&own).map(|&c| r[c]).collect();
        let shared_at = shared.iter().filter_map(|&c| at(&schema[c])).collect();
        loops.push((shared_at, rows.iter().map(reorder).collect()));
        bound.extend(own.iter().map(|&c| schema[c]));
    }
    let at = |v: &u32| bound.iter().position(|b| b == v).expect("kept");
    let kept: Vec<usize> = keep.iter().map(at).collect();
    let mut out = BTreeSet::new();
    extend(&loops, &mut Vec::new(), &kept, &mut out);
    let bounded = parts.iter().all(|p| p.2 > 0 || p.0.is_empty());
    let widths = parts.iter().map(|p| p.2 * u32::from(bounded));
    (out, widths.max().unwrap_or(0))
}

/// Extends `binding` through `loops`, collecting the kept columns of
/// every complete one.
fn extend(loops: &[Loop], binding: &mut Vec<u32>, kept: &[usize], out: &mut BTreeSet<Vec<u32>>) {
    let Some(((shared, rows), rest)) = loops.split_first() else {
        out.insert(kept.iter().map(|&i| binding[i]).collect());
        return;
    };
    let key: Vec<u32> = shared.iter().map(|&i| binding[i]).collect();
    let matching = rows
        .range(key.clone()..)
        .take_while(|r| r.starts_with(&key));
    for row in matching {
        let len = binding.len();
        binding.extend_from_slice(&row[key.len()..]);
        extend(rest, binding, kept, out);
        binding.truncate(len);
    }
}
