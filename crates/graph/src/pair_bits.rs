//! Word-packed bitset over the `n(n−1)/2` unordered node pairs.
//!
//! The dense edge-MEG keeps one two-state chain per potential edge. Packing
//! the per-pair alive flags 64-to-a-word (instead of `Vec<bool>`, one byte
//! per pair) shrinks the stepping loop's memory traffic 8×, makes flip
//! accounting popcount-cheap (`old ^ new`, then `count_ones` per word), and
//! lets snapshot rebuilds skip empty regions by walking set bits with
//! `trailing_zeros` instead of scanning every pair.
//!
//! Pairs are indexed row-major: index `k` of pair `{a, b}` (`a < b`) is
//! `row_start(a) + (b − a − 1)` with `row_start(a) = a·n − a(a+1)/2` — the
//! same linearization as `meg_graph::generators::pair_from_index`.
//!
//! **Invariant:** bits at positions `len..` of the last word are always zero.
//! [`words_mut`](PairBits::words_mut) exposes the raw words for in-place
//! word-at-a-time stepping; callers that write through it must preserve the
//! invariant (stepping a partial tail word with an `nbits`-limited kernel
//! does so naturally).

/// A fixed-universe bitset over pair indices `0 .. len`, packed 64 per word.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairBits {
    words: Vec<u64>,
    len: usize,
}

impl PairBits {
    /// Creates an all-zeros bitset over `0 .. len`.
    pub fn new(len: usize) -> Self {
        PairBits {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-ones bitset over `0 .. len` (tail bits zero).
    pub fn full(len: usize) -> Self {
        let mut bits = Self::new(len);
        for w in bits.words.iter_mut() {
            *w = u64::MAX;
        }
        let rem = len % 64;
        if rem != 0 {
            if let Some(last) = bits.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        bits
    }

    /// Number of pair slots (set or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the universe is empty (`len == 0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test for pair index `k`.
    #[inline]
    pub fn get(&self, k: usize) -> bool {
        debug_assert!(k < self.len, "pair index {k} outside universe {}", self.len);
        (self.words[k / 64] >> (k % 64)) & 1 == 1
    }

    /// Sets bit `k`.
    #[inline]
    pub fn set(&mut self, k: usize) {
        debug_assert!(k < self.len, "pair index {k} outside universe {}", self.len);
        self.words[k / 64] |= 1u64 << (k % 64);
    }

    /// Clears bit `k`.
    #[inline]
    pub fn clear(&mut self, k: usize) {
        debug_assert!(k < self.len, "pair index {k} outside universe {}", self.len);
        self.words[k / 64] &= !(1u64 << (k % 64));
    }

    /// Writes bit `k` (branchless).
    #[inline]
    pub fn put(&mut self, k: usize, value: bool) {
        debug_assert!(k < self.len, "pair index {k} outside universe {}", self.len);
        let w = &mut self.words[k / 64];
        let mask = 1u64 << (k % 64);
        *w = (*w & !mask) | (mask * value as u64);
    }

    /// Number of set bits (alive pairs), one popcount per word.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words, low bit of word 0 = pair 0. Bits `len..` of the
    /// last word are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words for in-place word-at-a-time
    /// stepping. Callers must keep bits `len..` of the last word zero.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Number of valid bits in the last word (64 when `len` is a positive
    /// multiple of 64; 0 only when `len == 0`).
    pub fn last_word_bits(&self) -> u32 {
        if self.len == 0 {
            0
        } else {
            let rem = (self.len % 64) as u32;
            if rem == 0 {
                64
            } else {
                rem
            }
        }
    }

    /// The set bits in increasing index order, skipping zero words, via
    /// `trailing_zeros` within each word. The iterator is `Clone`, so one
    /// walk can be replayed (the two passes of
    /// [`SnapshotBuf::build_from_pairs`](crate::SnapshotBuf::build_from_pairs)).
    #[inline]
    pub fn ones(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let b = bits.trailing_zeros() as usize;
                bits &= bits.wrapping_sub(1);
                (b < 64).then_some(wi * 64 + b)
            })
        })
    }

    /// Debug check of the tail invariant: bits `len..` of the last word are
    /// zero. Cheap enough to call from debug assertions in hot callers.
    pub fn tail_is_clean(&self) -> bool {
        let rem = self.len % 64;
        if rem == 0 {
            return true;
        }
        match self.words.last() {
            Some(&last) => last >> rem == 0,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zeros() {
        let b = PairBits::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.words().len(), 3);
        assert!((0..130).all(|k| !b.get(k)));
        assert!(b.tail_is_clean());
    }

    #[test]
    fn full_sets_everything_and_keeps_tail_clean() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let b = PairBits::full(len);
            assert_eq!(b.count_ones(), len, "len {len}");
            assert!((0..len).all(|k| b.get(k)));
            assert!(b.tail_is_clean(), "len {len}");
        }
    }

    #[test]
    fn empty_universe() {
        let b = PairBits::new(0);
        assert!(b.is_empty());
        assert_eq!(b.words().len(), 0);
        assert_eq!(b.last_word_bits(), 0);
        assert!(b.tail_is_clean());
        assert_eq!(b.ones().count(), 0);
    }

    #[test]
    fn set_clear_put_roundtrip() {
        let mut b = PairBits::new(200);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(199);
        assert_eq!(b.count_ones(), 4);
        assert!(b.get(63) && b.get(64));
        b.clear(63);
        assert!(!b.get(63));
        b.put(63, true);
        assert!(b.get(63));
        b.put(63, false);
        b.put(64, false);
        assert_eq!(b.count_ones(), 2);
        assert!(b.tail_is_clean());
    }

    #[test]
    fn ones_walks_set_bits_in_order() {
        let mut b = PairBits::new(300);
        let idx = [0usize, 1, 63, 64, 65, 127, 128, 255, 299];
        for &k in &idx {
            b.set(k);
        }
        assert_eq!(b.ones().collect::<Vec<_>>(), idx);
        // A clone taken mid-walk yields the rest, and both walks agree.
        let mut walk = b.ones().skip(3);
        assert_eq!(walk.next(), Some(64));
        let rest: Vec<usize> = walk.clone().collect();
        assert_eq!(rest, idx[4..]);
        assert_eq!(walk.collect::<Vec<_>>(), rest);
    }

    #[test]
    fn last_word_bits_cases() {
        assert_eq!(PairBits::new(64).last_word_bits(), 64);
        assert_eq!(PairBits::new(65).last_word_bits(), 1);
        assert_eq!(PairBits::new(127).last_word_bits(), 63);
        assert_eq!(PairBits::new(128).last_word_bits(), 64);
    }

    #[test]
    fn words_mut_supports_in_place_stepping() {
        let mut b = PairBits::new(100);
        // Simulate a word-stepper writing the low `nbits` of each word.
        let nbits_last = b.last_word_bits();
        assert_eq!(nbits_last, 36);
        let n_words = b.words().len();
        for (wi, w) in b.words_mut().iter_mut().enumerate() {
            let nbits = if wi + 1 == n_words { nbits_last } else { 64 };
            *w = if nbits == 64 {
                u64::MAX
            } else {
                (1u64 << nbits) - 1
            };
        }
        assert!(b.tail_is_clean());
        assert_eq!(b.count_ones(), 100);
    }

    #[test]
    fn tail_is_clean_detects_violation() {
        let mut b = PairBits::new(100);
        b.words_mut()[1] = 1u64 << 40; // bit 104 > len
        assert!(!b.tail_is_clean());
    }
}
