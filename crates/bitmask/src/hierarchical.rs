//! Two-level hierarchical bitmask for *super-sparse* chunks (§IV-A).
//!
//! When a chunk has only a handful of valid cells the flat bitmask itself
//! dominates the chunk size. The hierarchical mask stores an *upper* bitmask
//! with one bit per lower-level word; a clear upper bit means the whole
//! 64-bit lower word is zero and is not stored at all. Only non-zero lower
//! words are kept, densely packed.

use crate::bitvec::Bitmask;
use crate::WORD_BITS;

/// Compressed two-level bitmask.
///
/// Logically equivalent to a [`Bitmask`] of the same length, but words that
/// are entirely zero are elided; the upper mask records which lower words
/// survive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchicalBitmask {
    /// One bit per lower-level word; set iff the word is non-zero.
    upper: Bitmask,
    /// The non-zero lower words, in word-index order.
    lower: Vec<u64>,
    /// Logical number of bits.
    len: usize,
}

impl HierarchicalBitmask {
    /// Compresses a flat mask into hierarchical form.
    pub fn compress(mask: &Bitmask) -> Self {
        let words = mask.words();
        let mut upper = Bitmask::zeros(words.len());
        let mut lower = Vec::new();
        for (i, &w) in words.iter().enumerate() {
            if w != 0 {
                upper.set(i, true);
                lower.push(w);
            }
        }
        HierarchicalBitmask {
            upper,
            lower,
            len: mask.len(),
        }
    }

    /// Builds the hierarchical form straight from ascending set-bit
    /// positions, without materialising a flat mask: equal to
    /// `compress(&Bitmask::from_ones(len, ones))`, in time proportional to
    /// the number of positions plus `len / 4096` upper words.
    ///
    /// Positions must be `< len` and ascending; repeats are idempotent.
    pub fn from_sorted_ones(len: usize, ones: impl IntoIterator<Item = usize>) -> Self {
        let mut upper = Bitmask::zeros(len.div_ceil(WORD_BITS));
        let mut lower: Vec<u64> = Vec::new();
        let mut last_word = None;
        for i in ones {
            assert!(i < len, "bit {i} out of range for a {len}-bit mask");
            let word_idx = i / WORD_BITS;
            if last_word != Some(word_idx) {
                assert!(
                    last_word.is_none_or(|w| w < word_idx),
                    "positions must be ascending"
                );
                upper.set(word_idx, true);
                lower.push(0);
                last_word = Some(word_idx);
            }
            *lower.last_mut().expect("a word was just pushed") |= 1u64 << (i % WORD_BITS);
        }
        HierarchicalBitmask { upper, lower, len }
    }

    /// Serialises the mask as `len:u64 | upper (Bitmask::write_le) |
    /// lower_count:u64 | lower words:u64…`, all little-endian: the
    /// compressed form travels as is.
    pub fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        self.upper.write_le(out);
        out.extend_from_slice(&(self.lower.len() as u64).to_le_bytes());
        for w in &self.lower {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decodes a mask written by [`HierarchicalBitmask::write_le`] from the
    /// front of `buf`, returning it and the number of bytes consumed.
    /// `None` on truncated input or on a layout `compress` cannot produce:
    /// an upper mask of the wrong length, a lower word count that differs
    /// from the upper mask's population, a zero lower word, or bits past
    /// `len`.
    pub fn read_le(buf: &[u8]) -> Option<(HierarchicalBitmask, usize)> {
        let read_u64 = |at: usize| -> Option<u64> {
            Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
        };
        let len = usize::try_from(read_u64(0)?).ok()?;
        let (upper, upper_bytes) = Bitmask::read_le(buf.get(8..)?)?;
        if upper.len() != len.div_ceil(WORD_BITS) {
            return None;
        }
        let mut at = 8 + upper_bytes;
        let count = usize::try_from(read_u64(at)?).ok()?;
        if count != upper.count_ones() {
            return None;
        }
        at += 8;
        let raw = buf.get(at..at.checked_add(count.checked_mul(8)?)?)?;
        let lower: Vec<u64> = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let tail = len % WORD_BITS;
        let tail_clear = match (upper.iter_ones().last(), lower.last()) {
            (Some(word_idx), Some(w)) if word_idx + 1 == upper.len() && tail != 0 => w >> tail == 0,
            _ => true,
        };
        if lower.contains(&0) || !tail_clear {
            return None;
        }
        let used = at + raw.len();
        Some((HierarchicalBitmask { upper, lower, len }, used))
    }

    /// Expands back to a flat mask.
    pub fn decompress(&self) -> Bitmask {
        let mut out = Bitmask::zeros(self.len);
        for (slot, word_idx) in self.upper.iter_ones().enumerate() {
            let w = self.lower[slot];
            let base = word_idx * WORD_BITS;
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.set(base + b, true);
            }
        }
        out
    }

    /// Logical number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers zero cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads logical bit `i`.
    ///
    /// A clear upper bit answers immediately; otherwise the surviving lower
    /// word is located by ranking the upper mask.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word_idx = i / WORD_BITS;
        if !self.upper.get(word_idx) {
            return false;
        }
        let slot = self.upper.rank_naive(word_idx);
        (self.lower[slot] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Exclusive rank of position `i`: set bits in `[0, i)`.
    pub fn rank(&self, i: usize) -> usize {
        debug_assert!(i <= self.len);
        let word_idx = i / WORD_BITS;
        let bit = i % WORD_BITS;
        let mut count = 0usize;
        for (slot, wi) in self.upper.iter_ones().enumerate() {
            if wi < word_idx {
                count += self.lower[slot].count_ones() as usize;
            } else if wi == word_idx && bit != 0 {
                count += (self.lower[slot] & ((1u64 << bit) - 1)).count_ones() as usize;
                break;
            } else {
                break;
            }
        }
        count
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.lower.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the positions of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.upper
            .iter_ones()
            .enumerate()
            .flat_map(move |(slot, word_idx)| {
                let w = self.lower[slot];
                OneBits {
                    word: w,
                    base: word_idx * WORD_BITS,
                }
            })
    }

    /// Deep size in bytes. For genuinely super-sparse data this is far below
    /// the flat mask's `len / 8` bytes.
    pub fn mem_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.upper.mem_size()
            + self.lower.len() * std::mem::size_of::<u64>()
    }
}

struct OneBits {
    word: u64,
    base: usize,
}

impl Iterator for OneBits {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_mask(len: usize, every: usize) -> Bitmask {
        Bitmask::from_fn(len, |i| i % every == 0)
    }

    #[test]
    fn compress_decompress_roundtrip() {
        for every in [1, 3, 64, 500, 4096] {
            let m = sparse_mask(10_000, every);
            let h = HierarchicalBitmask::compress(&m);
            assert_eq!(h.decompress(), m, "every={every}");
            assert_eq!(h.count_ones(), m.count_ones());
        }
    }

    #[test]
    fn get_matches_flat_mask() {
        let m = sparse_mask(2_000, 131);
        let h = HierarchicalBitmask::compress(&m);
        for i in 0..2_000 {
            assert_eq!(h.get(i), m.get(i), "bit {i}");
        }
    }

    #[test]
    fn rank_matches_flat_mask() {
        let m = sparse_mask(3_000, 97);
        let h = HierarchicalBitmask::compress(&m);
        for i in (0..=3_000).step_by(53) {
            assert_eq!(h.rank(i), m.rank_naive(i), "pos {i}");
        }
    }

    #[test]
    fn iter_ones_matches_flat_mask() {
        let m = sparse_mask(5_000, 211);
        let h = HierarchicalBitmask::compress(&m);
        let flat: Vec<usize> = m.iter_ones().collect();
        let hier: Vec<usize> = h.iter_ones().collect();
        assert_eq!(flat, hier);
    }

    #[test]
    fn super_sparse_mask_is_smaller_than_flat() {
        // One valid cell per 4096: the flat mask stores every word, the
        // hierarchical one stores ~1/64 of them.
        let m = sparse_mask(1 << 20, 4096);
        let h = HierarchicalBitmask::compress(&m);
        assert!(
            h.mem_size() * 4 < m.mem_size(),
            "hierarchical {} vs flat {}",
            h.mem_size(),
            m.mem_size()
        );
    }

    #[test]
    fn codec_round_trips_the_compressed_form() {
        for (len, every) in [(0, 1), (1, 1), (1000, 1), (10_000, 97), (65_536, 4096)] {
            let h = HierarchicalBitmask::compress(&sparse_mask(len, every));
            let mut buf = h.write_le_vec();
            buf.extend_from_slice(b"tail");
            let (back, used) = HierarchicalBitmask::read_le(&buf).expect("well-formed");
            assert_eq!(back, h, "len={len} every={every}");
            assert_eq!(used, buf.len() - 4, "consumes exactly its own bytes");
        }
    }

    #[test]
    fn codec_refuses_a_truncated_buffer() {
        let buf = HierarchicalBitmask::compress(&sparse_mask(10_000, 131)).write_le_vec();
        for cut in 0..buf.len() {
            assert!(
                HierarchicalBitmask::read_le(&buf[..cut]).is_none(),
                "accepted {cut} of {} bytes",
                buf.len()
            );
        }
    }

    #[test]
    fn codec_refuses_an_upper_lower_count_mismatch() {
        let h = HierarchicalBitmask::compress(&sparse_mask(10_000, 131));
        // One lower word fewer than the upper mask's population, with the
        // count field and the word list agreeing with each other.
        let short = HierarchicalBitmask {
            upper: h.upper.clone(),
            lower: h.lower[1..].to_vec(),
            len: h.len,
        };
        assert!(HierarchicalBitmask::read_le(&short.write_le_vec()).is_none());
    }

    impl HierarchicalBitmask {
        fn write_le_vec(&self) -> Vec<u8> {
            let mut out = Vec::new();
            self.write_le(&mut out);
            out
        }
    }

    #[test]
    fn empty_and_full_masks() {
        let empty = Bitmask::zeros(1000);
        let h = HierarchicalBitmask::compress(&empty);
        assert_eq!(h.count_ones(), 0);
        assert_eq!(h.decompress(), empty);

        let full = Bitmask::ones(1000);
        let h = HierarchicalBitmask::compress(&full);
        assert_eq!(h.count_ones(), 1000);
        assert_eq!(h.decompress(), full);
    }
}
