//! The radix sorts of packed **code words**: rows of dense codes, each
//! packed into one `u32` or `u64`, first column highest.
//!
//! [`crate::dict::DomainDict`] interns the active domain into dense
//! `u32` codes, so a row of `a` columns over a `b`-bit domain fits one
//! word when `a · b ≤ 64`. The packing (which lives with the relations,
//! in `cqapx-cq`) is injective and **monotone**: the numeric order of
//! the words is exactly the lexicographic order of the rows, which is
//! what lets a radix sort over words replace the comparison sort on the
//! canonical row order without changing a single output byte.
//!
//! **Packing invariant.** Callers may only pack columns whose relation
//! carries a dense-domain bound (`domain_width > 0` for *every* packed
//! column). The packing itself is total, but the bound is what keeps
//! the word population confined to the low bits — the sorts below skip
//! every radix pass whose digit is constant across all keys, only
//! because dense codes never stray above their width.
//!
//! The sorts are **LSB (least-significant-digit) radix sorts**: each
//! executed pass is a stable counting sort, so the final order is the
//! full numeric key order.
//!
//! The dedup variants ([`radix_dedup`], [`radix_dedup_u32`]) **keep
//! the order their input already has**: one pass finds the longest
//! high prefix of the key bits the stream is already sorted on — the
//! join kernel writes words ordered on the kept columns it binds before
//! the first dropped one; a canonical scan is ordered on all of them —
//! and only the bits below it are sorted, run by run of equal prefix. A
//! run shorter than 256 keys — what the kernel leaves when a dropped
//! variable precedes the last kept one: the dozens of partners of one
//! vertex — is sorted by counting passes over the bits that vary inside
//! it, with digits about as wide as the run is long, between the run
//! and a buffer on the stack; a longer run by 8-bit passes through a
//! heap buffer. Keys in order cost that one pass; keys in no order at
//! all, the full radix sort.

/// Buckets of one 8-bit counting pass — and the run length from which
/// [`sort_words`] sorts a run by such passes: a shorter run is sorted by
/// [`sort_short`], whose digits are narrower.
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

/// Sorts a run of fewer than [`BUCKETS`] keys on its `varying` bits
/// (those in which some two of them differ): stable counting passes
/// from the lowest varying bit up, as few as digits of at most 8 bits
/// allow, the varying span split evenly among them — a pass costs a
/// fixed amount plus its histogram, and a short run has few keys to
/// spread that over. Keys move between the run and `scratch`, which the
/// caller keeps on its stack. A run too short to repay the histograms —
/// fewer pairs of keys than they hold buckets — is sorted by comparison
/// instead.
fn sort_short<T: Copy + Ord>(
    run: &mut [T],
    scratch: &mut [T; BUCKETS],
    varying: u64,
    key: impl Fn(&T) -> u64,
) {
    let n = run.len();
    debug_assert!(n < BUCKETS, "a short run");
    if varying == 0 {
        return;
    }
    let span = u64::BITS - varying.leading_zeros() - varying.trailing_zeros();
    let passes = span.div_ceil(8);
    let bits = span.div_ceil(passes);
    if (passes as usize) << bits >= n * n {
        return run.sort_unstable();
    }
    let mask = (1u64 << bits) - 1;
    let scratch = &mut scratch[..n];
    let mut counts = [0u8; BUCKETS];
    let counts = &mut counts[..1 << bits];
    let mut in_run = true;
    for pass in 0..passes {
        let shift = varying.trailing_zeros() + pass * bits;
        let (src, dst): (&[T], &mut [T]) = if in_run {
            (run, scratch)
        } else {
            (scratch, run)
        };
        let digit = |t: &T| ((key(t) >> shift) & mask) as usize;
        counts.fill(0);
        for t in src {
            counts[digit(t)] += 1;
        }
        // Exclusive prefix sums, at most `n < 256`.
        let mut sum = 0u8;
        for c in counts.iter_mut() {
            sum += std::mem::replace(c, sum);
        }
        for t in src {
            let d = digit(t);
            dst[usize::from(counts[d])] = *t;
            counts[d] += 1;
        }
        in_run = !in_run;
    }
    if !in_run {
        run.copy_from_slice(scratch);
    }
}

/// Sorts key words, keeping whatever order they already have. One
/// pass finds the varying bits and the smallest shift `s` under which
/// the stream is non-decreasing: a descent `a > b` has `a >> s == b >>
/// s` exactly when `s` is above its highest differing bit, so `s` is
/// one more than the highest such bit over all descents — `0` when the
/// keys are in order. The runs of equal `key >> s` then stand where
/// they belong, and each is sorted on its own, on the bits below `s`
/// only: short ones by [`sort_short`], long ones by the 8-bit radix
/// passes. With nothing in order above `s` there is one run — the
/// plain radix sort.
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
    let (mut scratch, mut short) = (Vec::new(), [T::default(); BUCKETS]);
    let mut rest = keys;
    while let Some(head) = rest.first().map(prefix) {
        // Nothing varies above `s`: one run, found without looking.
        let len = match low == varying {
            true => rest.len(),
            false => rest.iter().take_while(|k| prefix(k) == head).count(),
        };
        let (run, tail) = rest.split_at_mut(len);
        if len < BUCKETS {
            sort_short(run, &mut short, varying_bits(run.iter().map(key)), key);
        } else {
            radix_passes(run, &mut scratch, low, key);
        }
        rest = tail;
    }
}

/// Sorts-and-dedups packed key words in place, adaptively
/// (`sort_words`): keys that arrive in order — materialized scans
/// usually do — cost one sequential pass, a fraction of a single radix
/// pass; keys ordered on their high bits only — the join kernel writes
/// them so when a dropped variable precedes a kept one — are sorted
/// below those bits, run by run; anything else takes the full radix
/// sort.
pub fn radix_dedup(keys: &mut Vec<u64>) {
    sort_words(keys, |&k| k);
    keys.dedup();
}

/// [`radix_dedup`] for `u32` keys.
pub fn radix_dedup_u32(keys: &mut Vec<u32>) {
    sort_words(keys, |&k| u64::from(k));
    keys.dedup();
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

    /// The full radix sort — keys in no order, one run — against the
    /// comparison sort, from no key to full-width ones.
    #[test]
    fn radix_sort_matches_comparison_sort() {
        for (seed, n, width) in [
            (3u64, 0usize, 1u64),
            (5, 1, 7),
            (7, 1000, 50),
            (11, 4096, 1 << 20),
            (13, 777, u64::MAX),
        ] {
            let keys: Vec<u64> = stream(seed).take(n).map(|k| k % width.max(1)).collect();
            check_dedup(keys, &format!("seed {seed} n {n} width {width}"));
        }
    }

    /// [`radix_sort_matches_comparison_sort`] on `u32` keys.
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
            expected.dedup();
            radix_dedup_u32(&mut keys);
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
    fn radix_sort_skips_constant_digits() {
        // All keys share their high bytes; the sort must still be
        // correct (the skipped passes are identity permutations).
        let base = 0xdead_beef_0000_0000u64;
        let keys: Vec<u64> = stream(9).take(512).map(|k| base | (k & 0xffff)).collect();
        check_dedup(keys, "constant high bytes");
    }

    /// The short-run arm, then `dedup`, against `sort_unstable` +
    /// `dedup`, on one run.
    fn short_arm<T: Copy + Ord + Default + std::fmt::Debug>(
        mut run: Vec<T>,
        key: impl Fn(&T) -> u64 + Copy,
    ) {
        let mut want = run.clone();
        want.sort_unstable();
        want.dedup();
        let mut scratch = [T::default(); BUCKETS];
        let varying = varying_bits(run.iter().map(key));
        sort_short(&mut run, &mut scratch, varying, key);
        run.dedup();
        assert_eq!(run, want);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The short-run arm equals `sort_unstable` + `dedup` on runs of
        /// 1–255 keys varying in their 1–32 low bits, as `u32` keys and
        /// as `u64` keys under a constant high half, in no order, sorted,
        /// reversed, or drawn from three values.
        #[test]
        fn short_runs_sort_like_sort_unstable(
            len in 1..BUCKETS,
            bits in 1..=32u32,
            high in any::<u32>(),
            shape in 0..4u8,
            seed in any::<u64>(),
        ) {
            let mask = u64::MAX >> (u64::BITS - bits);
            let mut keys: Vec<u64> = stream(seed).take(len).map(|k| k & mask).collect();
            match shape {
                1 => keys.sort_unstable(),
                2 => keys.sort_unstable_by(|a, b| b.cmp(a)),
                3 => keys = (0..len).map(|i| keys[i % 3.min(len)]).collect(),
                _ => {}
            }
            short_arm(keys.iter().map(|&k| k as u32).collect(), |&k| u64::from(k));
            short_arm(keys.iter().map(|&k| u64::from(high) << 32 | k).collect(), |&k| k);
        }
    }
}
