//! Packed **code-word rows**: two dense codes in one `u64`, plus the
//! radix sorts the packed kernels run on.
//!
//! [`crate::dict::DomainDict`] interns the active domain into dense
//! `u32` codes, so a row (or join key) spanning at most two coded
//! columns fits in a single machine word, `hi << 32 | lo`. The packing
//! is injective and **monotone**: the numeric order of packed words is
//! exactly the lexicographic order of `[hi, lo]` rows, which is what
//! lets a radix sort over words replace the comparison sort on the
//! canonical row order without changing a single output byte.
//!
//! **Packing invariant.** Callers may only pack columns whose relation
//! carries a dense-domain bound (`domain_width > 0` for *every* packed
//! column). The packing itself is total over `u32` pairs, but the
//! bound is what keeps the word population confined to the low bits —
//! the sorts below skip every radix pass whose digit is constant
//! across all keys, and the partition directories built over sorted
//! keys stay cache-sized, only because dense codes never stray above
//! their width.
//!
//! The sorts are **LSB (least-significant-digit) radix sorts** over
//! 8-bit digits: each executed pass is a stable counting sort, so the
//! final order is the full numeric key order, and — for the pair
//! variant — ties preserve feed order, which the join kernels use to
//! reproduce the probe order of the chained-hash index exactly.
//!
//! The dedup variants ([`radix_dedup`], [`radix_dedup_u32`]) **keep
//! the order their input already has**: one pass finds the longest
//! high prefix of the key bits the stream is already sorted on — a
//! join's emitted words are ordered on the probe side's leading
//! columns, and on all of them when a canonical probe side leads the
//! output (the build side's groups list rows ascending); a canonical
//! scan is ordered on all of them — and only the bits below it are
//! sorted, run by run of equal prefix. Keys in order cost that one
//! pass; keys in no order at all, the full radix sort.

use crate::structure::Element;

/// Packs two dense codes into one word, high column first. Monotone:
/// `pack2(a, b) <= pack2(c, d)` iff `[a, b] <= [c, d]`
/// lexicographically.
#[inline]
pub const fn pack2(hi: Element, lo: Element) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

/// Inverse of [`pack2`].
#[inline]
pub const fn unpack2(w: u64) -> (Element, Element) {
    ((w >> 32) as Element, w as Element)
}

/// Buckets of one counting pass (8-bit digits) — and the run length
/// from which [`sort_words`] sorts a run by such passes: with fewer
/// keys than buckets a pass spends more on its histogram than on the
/// keys.
const BUCKETS: usize = 256;

/// The bits in which some two of `keys` differ.
fn varying_bits(keys: impl Iterator<Item = u64>) -> u64 {
    let (or, and) = keys.fold((0, u64::MAX), |(or, and), k| (or | k, and & k));
    or & !and
}

/// The LSB radix sort proper: one stable counting pass per 8-bit digit
/// of `varying`. A digit that is constant in every key would be the
/// identity permutation (everything lands in one bucket, in feed
/// order) and is skipped. `scratch` grows to `items.len()` on demand
/// (zeroed pages, never written before a pass does) and is reusable
/// across calls.
fn radix_passes<T: Copy + Default>(
    items: &mut [T],
    scratch: &mut Vec<T>,
    varying: u64,
    key: impl Fn(&T) -> u64,
) {
    if varying == 0 {
        return;
    }
    if scratch.len() < items.len() {
        *scratch = vec![T::default(); items.len()];
    }
    let scratch = &mut scratch[..items.len()];
    let mut in_items = true;
    for shift in (0..u64::BITS).step_by(8) {
        if (varying >> shift) & 0xff == 0 {
            continue;
        }
        let (src, dst): (&[T], &mut [T]) = if in_items {
            (items, scratch)
        } else {
            (scratch, items)
        };
        let digit = |t: &T| ((key(t) >> shift) & 0xff) as usize;
        let mut starts = [0usize; BUCKETS];
        for t in src {
            starts[digit(t)] += 1;
        }
        // Exclusive prefix sums: each digit's first output slot.
        let mut sum = 0usize;
        for c in starts.iter_mut() {
            sum += std::mem::replace(c, sum);
        }
        for t in src {
            let d = digit(t);
            dst[starts[d]] = *t;
            starts[d] += 1;
        }
        in_items = !in_items;
    }
    if !in_items {
        items.copy_from_slice(scratch);
    }
}

/// Sorts packed key words ascending: LSB radix over 8-bit digits,
/// skipping constant-digit passes. Dense codes populate only the low
/// bytes of each half-word, so a sort over `pack2`-packed rows of
/// width `w` runs `2 * ceil(log2(w) / 8)` passes — at most four for
/// any domain under 64 K codes.
pub fn radix_sort(keys: &mut [u64]) {
    let varying = varying_bits(keys.iter().copied());
    radix_passes(keys, &mut Vec::new(), varying, |&k| k);
}

/// [`radix_sort`] for `u32` keys: half the memory traffic per pass
/// and at most four passes. Tightly packed two-column words (`hi <<
/// b | lo` for a `b`-bit domain with `2b ≤ 32`) and single dense
/// columns sort here instead of widening to `u64`.
pub fn radix_sort_u32(keys: &mut [u32]) {
    let varying = varying_bits(keys.iter().map(|&k| u64::from(k)));
    radix_passes(keys, &mut Vec::new(), varying, |&k| u64::from(k));
}

/// Sorts key words, keeping whatever order they already have. One
/// pass finds the varying bits and the smallest shift `s` under which
/// the stream is non-decreasing: a descent `a > b` has `a >> s == b >>
/// s` exactly when `s` is above its highest differing bit, so `s` is
/// one more than the highest such bit over all descents — `0` when the
/// keys are in order. The runs of equal `key >> s` then stand where
/// they belong, and each is sorted on its own, on the bits below `s`
/// only: short ones by comparison, long ones by the radix passes. With
/// nothing in order above `s` there is one run — the plain radix sort.
fn sort_words<T: Copy + Ord + Default>(keys: &mut [T], key: impl Fn(&T) -> u64 + Copy) {
    let Some(first) = keys.first().map(key) else {
        return;
    };
    let (mut or, mut and, mut descents, mut prev) = (first, first, 0u64, first);
    for k in keys[1..].iter().map(key) {
        or |= k;
        and &= k;
        // Branch-free: descents are unpredictable in unordered input.
        descents |= (k ^ prev) & u64::from(k < prev).wrapping_neg();
        prev = k;
    }
    if descents == 0 {
        return;
    }
    // `1 ≤ s ≤ 64`: shifts by `s` are spelled so that 64 is legal.
    let s = u64::BITS - descents.leading_zeros();
    let prefix = |k: &T| (key(k) >> (s - 1)) >> 1;
    let varying = or & !and;
    let low = varying & (u64::MAX >> (u64::BITS - s));
    let mut scratch = Vec::new();
    if low == varying {
        // Nothing varies above `s`: one run, found without looking.
        return radix_passes(keys, &mut scratch, varying, key);
    }
    let mut rest = keys;
    while let Some(head) = rest.first().map(prefix) {
        let len = rest.iter().take_while(|k| prefix(k) == head).count();
        let (run, tail) = rest.split_at_mut(len);
        if len < BUCKETS {
            run.sort_unstable();
        } else {
            radix_passes(run, &mut scratch, low, key);
        }
        rest = tail;
    }
}

/// Sorts-and-dedups packed key words in place, adaptively
/// (`sort_words`): keys that arrive in order — materialized scans
/// usually do — cost one sequential pass, a fraction of a single radix
/// pass; keys ordered on their high bits only — a join emits them in
/// the probe side's scan order — are sorted below those bits, run by
/// run; anything else takes the full radix sort.
pub fn radix_dedup(keys: &mut Vec<u64>) {
    sort_words(keys, |&k| k);
    keys.dedup();
}

/// [`radix_dedup`] for `u32` keys.
pub fn radix_dedup_u32(keys: &mut Vec<u32>) {
    sort_words(keys, |&k| u64::from(k));
    keys.dedup();
}

/// Sorts `(key, tag)` pairs ascending by key, **stably**: pairs with
/// equal keys keep their feed order across every pass. The join
/// kernels feed rows in ascending order (a tag is the row id or the
/// row's share of an output word), so each key group comes out listing
/// rows ascending — the candidate order of the chained-hash and
/// direct-addressed indexes, which is what keeps join output buffers
/// byte-identical across index representations.
pub fn radix_sort_pairs(pairs: &mut [(u64, u32)]) {
    let varying = varying_bits(pairs.iter().map(|p| p.0));
    radix_passes(pairs, &mut Vec::new(), varying, |p| p.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (xorshift).
    fn stream(seed: u64) -> impl Iterator<Item = u64> {
        let mut s = seed.max(1);
        std::iter::repeat_with(move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        })
    }

    #[test]
    fn pack_is_monotone_and_invertible() {
        let vals = [0u32, 1, 2, 255, 256, 65_535, u32::MAX];
        let mut rows: Vec<[u32; 2]> = Vec::new();
        for &a in &vals {
            for &b in &vals {
                rows.push([a, b]);
                assert_eq!(unpack2(pack2(a, b)), (a, b));
            }
        }
        let mut by_row = rows.clone();
        by_row.sort_unstable();
        let mut by_word = rows;
        by_word.sort_unstable_by_key(|r| pack2(r[0], r[1]));
        assert_eq!(by_row, by_word, "word order must equal row order");
    }

    #[test]
    fn radix_sort_matches_comparison_sort() {
        for (seed, n, width) in [
            (3u64, 0usize, 1u64),
            (5, 1, 7),
            (7, 1000, 50),
            (11, 4096, 1 << 20),
            (13, 777, u64::MAX),
        ] {
            let mut keys: Vec<u64> = stream(seed).take(n).map(|k| k % width.max(1)).collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            radix_sort(&mut keys);
            assert_eq!(keys, expected, "seed {seed} n {n} width {width}");
        }
    }

    #[test]
    fn radix_sort_u32_matches_comparison_sort() {
        for (seed, n, width) in [
            (3u64, 0usize, 1u32),
            (5, 1, 7),
            (7, 1000, 50),
            (11, 4096, 1 << 20),
            (13, 777, u32::MAX),
        ] {
            let mut keys: Vec<u32> = stream(seed)
                .take(n)
                .map(|k| (k as u32) % width.max(1))
                .collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            radix_sort_u32(&mut keys);
            assert_eq!(keys, expected, "seed {seed} n {n} width {width}");
        }
    }

    /// Both word sorts against `sort_unstable(); dedup()`; `u32` keys
    /// are the low halves.
    fn check_dedup(keys: Vec<u64>, what: &str) {
        let mut k32: Vec<u32> = keys.iter().map(|&k| k as u32).collect();
        let mut e32 = k32.clone();
        e32.sort_unstable();
        e32.dedup();
        radix_dedup_u32(&mut k32);
        assert_eq!(k32, e32, "u32 {what}");
        let mut expected = keys.clone();
        expected.sort_unstable();
        expected.dedup();
        let mut keys = keys;
        radix_dedup(&mut keys);
        assert_eq!(keys, expected, "u64 {what}");
    }

    #[test]
    fn radix_dedup_matches_sort_dedup() {
        for n in [0usize, 1, 2, 3000] {
            let random: Vec<u64> = stream(21).take(n).map(|k| k % 400).collect();
            let mut sorted = random.clone();
            sorted.sort_unstable();
            check_dedup(sorted.iter().rev().copied().collect(), "reverse sorted");
            check_dedup(sorted, "sorted");
            check_dedup(vec![0x8000_0000_8000_0000; n], "all equal, top bits set");
            check_dedup(random, "random");
        }
        // Keys that use bit 63 / bit 31, in no order.
        check_dedup(stream(5).take(2000).collect(), "full width");
    }

    /// Keys sorted on everything above bit `s`, shuffled below it.
    fn prefix_sorted(runs: impl Iterator<Item = usize>, s: u32, seed: u64) -> Vec<u64> {
        let mut low = stream(seed);
        let mut keys = Vec::new();
        for (p, len) in runs.enumerate() {
            // Every third prefix is skipped, so prefixes have gaps.
            let hi = (p as u64 + p as u64 / 2) << s;
            keys.extend(low.by_ref().take(len).map(|k| hi | (k & ((1 << s) - 1))));
        }
        keys
    }

    #[test]
    fn radix_dedup_keeps_a_sorted_prefix() {
        for s in [1u32, 5, 12, 19] {
            for len in [1usize, 8, 64, 300, 1000] {
                check_dedup(
                    prefix_sorted(std::iter::repeat_n(len, 4000 / len), s, 7),
                    &format!("runs of {len} below bit {s}"),
                );
            }
            // One run holds everything but one key, at either end.
            check_dedup(prefix_sorted([2999, 1].into_iter(), s, 9), "long, one");
            check_dedup(prefix_sorted([1, 2999].into_iter(), s, 9), "one, long");
            // Mixed short and long runs share one scratch buffer.
            check_dedup(
                prefix_sorted([700, 3, 256, 255, 900].into_iter(), s, 3),
                "mixed",
            );
        }
        // A sorted prefix of one bit (the top one used) and of all but
        // one bit, for both word sizes.
        let mut top: Vec<u64> = stream(13).take(1500).map(|k| k >> 1).collect();
        top.extend(stream(17).take(1500).map(|k| k | 1 << 63));
        check_dedup(top.clone(), "one-bit prefix, u64");
        check_dedup(
            top.iter().map(|k| (k >> 32) | (k >> 63) << 31).collect(),
            "one-bit prefix, u32",
        );
        let mut pairs: Vec<u64> = stream(19).take(1500).map(|k| k & !1).collect();
        pairs.sort_unstable();
        let swap = |k: u64| [k | 1, k];
        check_dedup(
            pairs.iter().copied().flat_map(swap).collect(),
            "all but one bit, u64",
        );
        let narrow = pairs.iter().map(|k| k >> 32 & !1);
        check_dedup(narrow.flat_map(swap).collect(), "all but one bit, u32");
    }

    #[test]
    fn radix_sort_pairs_is_stable() {
        // Many duplicate keys; tags record feed order, which must
        // survive within every equal-key group.
        let mut pairs: Vec<(u64, u32)> = stream(42)
            .take(2000)
            .enumerate()
            .map(|(i, k)| (k % 37, i as u32))
            .collect();
        let mut expected = pairs.clone();
        expected.sort_by_key(|&(k, _)| k); // std stable sort
        radix_sort_pairs(&mut pairs);
        assert_eq!(pairs, expected);
    }

    #[test]
    fn radix_sort_skips_constant_digits() {
        // All keys share their high bytes; the sort must still be
        // correct (the skipped passes are identity permutations).
        let base = 0xdead_beef_0000_0000u64;
        let mut keys: Vec<u64> = stream(9).take(512).map(|k| base | (k & 0xffff)).collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        radix_sort(&mut keys);
        assert_eq!(keys, expected);
    }
}
