//! Word-parallel **existence bitmap** over dense codes `[0, width)`.
//!
//! [`crate::dict::DomainDict`] interns the active domain into dense
//! `u32` codes, so membership of a code set is representable as a
//! chunked `u64` bitmap of `width` bits. The bitmap answers *only*
//! existence questions — "does code `v` occur in this column?" and
//! "do these two columns share any code?" — never ordering or
//! multiplicity, which is what lets the columnar kernels swap it in
//! for per-row hash/offset probes without perturbing output bytes.
//!
//! Probes are branch-free: out-of-range codes fall off the word table
//! and read as absent instead of taking a bounds branch, so a probe
//! loop over a selection vector compiles to straight-line word math.

/// A fixed-width existence bitmap over dense codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainBitmap {
    /// `width.div_ceil(64)` words; bit `v & 63` of word `v >> 6` is set
    /// iff code `v` is present.
    words: Vec<u64>,
    /// The exclusive upper bound on representable codes.
    width: u32,
    /// Number of set bits (distinct present codes).
    ones: u32,
}

impl DomainBitmap {
    /// An all-zero bitmap over `[0, width)`.
    pub fn new(width: u32) -> Self {
        DomainBitmap {
            words: vec![0u64; (width as usize).div_ceil(64)],
            width,
            ones: 0,
        }
    }

    /// The bitmap over `[0, width)` with word table `words`
    /// (`width.div_ceil(64)` words, no bit at or past `width`), counted.
    pub fn from_words(width: u32, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), (width as usize).div_ceil(64));
        let ones = words.iter().map(|w| w.count_ones()).sum();
        DomainBitmap { words, width, ones }
    }

    /// Sets code `v`. Codes `>= width` are ignored.
    #[inline]
    pub(crate) fn set(&mut self, v: u32) {
        if let Some(w) = self.words.get_mut((v >> 6) as usize) {
            let bit = 1u64 << (v & 63);
            self.ones += ((*w & bit) == 0) as u32;
            *w |= bit;
        }
    }

    /// Branch-free membership probe. Codes `>= width` read as absent.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        let w = self.words.get((v >> 6) as usize).copied().unwrap_or(0);
        (w >> (v & 63)) & 1 != 0
    }

    /// Number of distinct codes present.
    #[inline]
    pub fn ones(&self) -> u32 {
        self.ones
    }

    /// `true` when no code is present.
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Word-wise AND into a fresh bitmap of the narrower width.
    pub fn and(&self, other: &DomainBitmap) -> DomainBitmap {
        let width = self.width.min(other.width);
        let n = (width as usize).div_ceil(64);
        let mut words = Vec::with_capacity(n);
        let mut ones = 0u32;
        for i in 0..n {
            let w = self.words[i] & other.words[i];
            ones += w.count_ones();
            words.push(w);
        }
        DomainBitmap { words, width, ones }
    }

    /// Word-wise subset test: `true` iff every code present in `self`
    /// is present in `other`. Widths may differ — bits of `self` beyond
    /// `other`'s word table count as uncovered.
    pub fn subset_of(&self, other: &DomainBitmap) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterates set codes in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w0)| {
            std::iter::successors(if w0 != 0 { Some(w0) } else { None }, |&w| {
                let w = w & (w - 1);
                if w != 0 {
                    Some(w)
                } else {
                    None
                }
            })
            .map(move |w| (i as u32) << 6 | w.trailing_zeros())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DomainBitmap {
        /// Builds a bitmap over `[0, width)` with the given codes set.
        /// Codes `>= width` are ignored (they cannot occur in a column
        /// whose `domain_width` bound is honest).
        pub(crate) fn from_codes(width: u32, codes: impl IntoIterator<Item = u32>) -> Self {
            let mut bm = DomainBitmap::new(width);
            for v in codes {
                bm.set(v);
            }
            bm
        }

        /// Word-wise ANY-of-AND: `true` iff some code is present in both
        /// bitmaps. Widths may differ; only the shared prefix can overlap.
        pub(crate) fn intersects(&self, other: &DomainBitmap) -> bool {
            self.words
                .iter()
                .zip(other.words.iter())
                .any(|(a, b)| a & b != 0)
        }
    }

    #[test]
    fn set_contains_roundtrip() {
        let mut bm = DomainBitmap::new(130);
        for v in [0, 1, 63, 64, 127, 128, 129] {
            assert!(!bm.contains(v));
            bm.set(v);
            assert!(bm.contains(v));
        }
        assert_eq!(bm.ones(), 7);
        // Re-setting does not double-count.
        bm.set(63);
        assert_eq!(bm.ones(), 7);
    }

    #[test]
    fn out_of_range_reads_absent_and_set_ignored() {
        let mut bm = DomainBitmap::new(10);
        bm.set(1000);
        assert!(!bm.contains(1000));
        assert!(!bm.contains(u32::MAX));
        assert_eq!(bm.ones(), 0);
    }

    #[test]
    fn intersects_and_and_agree() {
        let a = DomainBitmap::from_codes(200, [3, 64, 150]);
        let b = DomainBitmap::from_codes(100, [4, 64]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        let c = a.and(&b);
        assert_eq!(c.width, 100);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![64]);
        let d = DomainBitmap::from_codes(200, [5]);
        assert!(!a.intersects(&d));
        assert!(a.and(&d).is_empty());
    }

    #[test]
    fn subset_of_handles_width_mismatch() {
        let small = DomainBitmap::from_codes(64, [3, 40]);
        let big = DomainBitmap::from_codes(200, [3, 40, 150]);
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small), "150 falls off small's word table");
        assert!(big.subset_of(&big));
        assert!(DomainBitmap::new(500).subset_of(&small), "∅ ⊆ anything");
        let other = DomainBitmap::from_codes(64, [3]);
        assert!(!small.subset_of(&other));
    }

    #[test]
    fn iter_ones_ascending() {
        let bm = DomainBitmap::from_codes(300, [299, 0, 64, 63, 128, 5]);
        assert_eq!(
            bm.iter_ones().collect::<Vec<_>>(),
            vec![0, 5, 63, 64, 128, 299]
        );
        assert_eq!(DomainBitmap::new(64).iter_ones().count(), 0);
    }

    #[test]
    fn zero_width_is_inert() {
        let mut bm = DomainBitmap::new(0);
        bm.set(0);
        assert!(!bm.contains(0));
        assert!(bm.is_empty());
        assert!(bm.words.is_empty());
    }
}
