//! Band buckets and the candidate gather.
//!
//! The clusterer files every group under each of its leading band hashes,
//! and the reference index files every reference under each of its sketch
//! hashes. A read's candidates are the ids filed under its own hashes:
//! their union, ascending and deduplicated, from a floor up.
//!
//! Archive strands share primers, so a few hashes hold a large share of
//! all ids. A [`Bucket`] keeps its ids as an ascending list until the list
//! would take more words than a bitmap over every id so far; it then
//! becomes that bitmap. [`CandidateGather`] ORs the bitmaps word by word
//! from the floor's word up, sets the bits of the list ids at or above
//! the floor, clears the floor word's bits below the floor and reads the
//! set bits in order. That is the same ascending, deduplicated id set a
//! walk over every list would give, whichever buckets are bitmaps.

use std::collections::HashMap;

/// The ids filed under one hash, appended in ascending order.
#[derive(Debug, Clone)]
pub(crate) enum Bucket {
    /// The ids, ascending.
    List(Vec<usize>),
    /// Bit `id % 64` of word `id / 64` is set for every id held.
    Bitmap(Vec<u64>),
}

impl Default for Bucket {
    fn default() -> Bucket {
        Bucket::List(Vec::new())
    }
}

impl Bucket {
    /// Appends `id`, which exceeds every id held. A list whose ids would
    /// then take more words than the `id / 64 + 1` of a bitmap holding
    /// them becomes that bitmap.
    pub(crate) fn push(&mut self, id: usize) {
        match self {
            Bucket::List(ids) if ids.len() <= id / 64 => ids.push(id),
            Bucket::List(ids) => {
                let mut bits = vec![0; id / 64 + 1];
                for &i in ids.iter().chain(std::iter::once(&id)) {
                    set(&mut bits, i);
                }
                *self = Bucket::Bitmap(bits);
            }
            Bucket::Bitmap(bits) => {
                if bits.len() <= id / 64 {
                    bits.resize(id / 64 + 1, 0);
                }
                set(bits, id);
            }
        }
    }
}

fn set(bits: &mut [u64], id: usize) {
    bits[id / 64] |= 1 << (id % 64);
}

/// A bucket the gather can read: it marks its ids into the gather's
/// words, where word `w` covers ids `64·(floor / 64 + w)` onwards.
pub(crate) trait Postings {
    /// Sets the bit of every id at or above `floor`, growing `words` with
    /// zero words as needed. Bits below `floor` in its own word may be set
    /// too; the gather clears them.
    fn mark(&self, words: &mut Vec<u64>, floor: usize);
}

/// A plain ascending id list.
impl Postings for Vec<usize> {
    fn mark(&self, words: &mut Vec<u64>, floor: usize) {
        mark_list(self, words, floor);
    }
}

impl Postings for Bucket {
    fn mark(&self, words: &mut Vec<u64>, floor: usize) {
        match self {
            Bucket::List(ids) => mark_list(ids, words, floor),
            Bucket::Bitmap(bits) => {
                let Some(tail) = bits.get(floor / 64..) else {
                    return;
                };
                if words.len() < tail.len() {
                    words.resize(tail.len(), 0);
                }
                for (word, &b) in words.iter_mut().zip(tail) {
                    *word |= b;
                }
            }
        }
    }
}

/// Walks an ascending list from its end, stopping at the first id below
/// `floor`.
fn mark_list(ids: &[usize], words: &mut Vec<u64>, floor: usize) {
    let base = floor / 64;
    for &id in ids.iter().rev() {
        if id < floor {
            break;
        }
        let word = id / 64 - base;
        if word >= words.len() {
            words.resize(word + 1, 0);
        }
        words[word] |= 1 << (id % 64);
    }
}

/// Reusable buffers that turn bucket hits into an ascending, deduplicated
/// id list.
#[derive(Debug, Default)]
pub(crate) struct CandidateGather {
    words: Vec<u64>,
    ids: Vec<usize>,
}

impl CandidateGather {
    /// Every id at or above `floor` held by the buckets of `hashes`,
    /// ascending and deduplicated.
    pub(crate) fn gather<'h, P: Postings>(
        &mut self,
        buckets: &HashMap<u64, P>,
        hashes: impl IntoIterator<Item = &'h u64>,
        floor: usize,
    ) -> &[usize] {
        self.words.clear();
        for h in hashes {
            if let Some(bucket) = buckets.get(h) {
                bucket.mark(&mut self.words, floor);
            }
        }
        if let Some(first) = self.words.first_mut() {
            *first &= u64::MAX << (floor % 64);
        }
        self.ids.clear();
        let base = floor - floor % 64;
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                self.ids
                    .push(base + w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use dnasim_core::rng::{seeded, Rng};

    use super::*;

    /// The ids at or above `floor` held by `hashes` in the plain lists:
    /// the oracle every gather must equal.
    fn walk(lists: &HashMap<u64, Vec<usize>>, hashes: &[u64], floor: usize) -> Vec<usize> {
        let ids: BTreeSet<usize> = hashes
            .iter()
            .filter_map(|h| lists.get(h))
            .flatten()
            .copied()
            .filter(|&id| id >= floor)
            .collect();
        ids.into_iter().collect()
    }

    /// Buckets of every density, filled in id order as the clusterer
    /// fills them, checked after every push at floors 0, 63, 64, 65 and
    /// around the newest id: the bitmap gather, the list gather and the
    /// oracle agree, and both bucket forms occur.
    #[test]
    fn bitmap_gather_equals_the_list_walk_across_the_switch() {
        let mut rng = seeded(64);
        // Hash h holds each id with probability ~1/2^h: hash 0 holds them
        // all, hash 7 about one in 128.
        let mut buckets: HashMap<u64, Bucket> = HashMap::new();
        let mut lists: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut gather = CandidateGather::default();
        let mut list_gather = CandidateGather::default();
        let (mut bitmaps, mut sparse) = (0usize, 0usize);
        for id in 0..300usize {
            for h in 0..8u64 {
                if rng.next_u64().is_multiple_of(1 << h) {
                    buckets.entry(h).or_default().push(id);
                    lists.entry(h).or_default().push(id);
                }
            }
            let hashes: Vec<u64> = (0..9u64)
                .filter(|_| !rng.next_u64().is_multiple_of(3))
                .collect();
            for floor in [0, 63, 64, 65, id.saturating_sub(1), id, id + 1, id + 64] {
                let expected = walk(&lists, &hashes, floor);
                assert_eq!(
                    gather.gather(&buckets, &hashes, floor),
                    expected,
                    "id {id} floor {floor}"
                );
                assert_eq!(
                    list_gather.gather(&lists, &hashes, floor),
                    expected,
                    "id {id} floor {floor}"
                );
            }
            for bucket in buckets.values() {
                match bucket {
                    Bucket::Bitmap(_) => bitmaps += 1,
                    Bucket::List(ids) => sparse += usize::from(ids.len() > 1),
                }
            }
        }
        assert!(
            bitmaps > 0 && sparse > 0,
            "both forms occur ({bitmaps}, {sparse})"
        );
    }

    /// A bucket stays a list while its ids fit in the words of a bitmap
    /// holding them, becomes a bitmap on the push that would outgrow it,
    /// stays one, and holds every id pushed, the one that triggered the
    /// switch too.
    #[test]
    fn a_list_becomes_a_bitmap_when_it_would_outgrow_one() {
        for step in [1usize, 2, 7, 63, 64, 65, 200] {
            let mut bucket = Bucket::default();
            let mut pushed = Vec::new();
            for k in 0..40 {
                let id = 5 + k * step;
                let listed = match &bucket {
                    Bucket::List(ids) => Some(ids.len()),
                    Bucket::Bitmap(_) => None,
                };
                bucket.push(id);
                pushed.push(id);
                // n + 1 list words against id / 64 + 1 bitmap words.
                let bitmap = listed.is_none_or(|n| n + 1 > id / 64 + 1);
                match &bucket {
                    Bucket::List(ids) => {
                        assert!(!bitmap, "step {step} id {id}: still a list");
                        assert_eq!(ids, &pushed);
                    }
                    Bucket::Bitmap(bits) => {
                        assert!(bitmap, "step {step} id {id}: a bitmap too early");
                        assert_eq!(bits.len(), id / 64 + 1);
                        let held: Vec<usize> = (0..64 * bits.len())
                            .filter(|&i| bits[i / 64] >> (i % 64) & 1 == 1)
                            .collect();
                        assert_eq!(held, pushed, "step {step}");
                    }
                }
            }
        }
    }

    /// A bitmap's first gathered word holds ids below the floor; the
    /// gather must drop exactly those.
    #[test]
    fn the_floor_word_keeps_exactly_the_ids_at_or_above_the_floor() {
        let mut bucket = Bucket::default();
        for id in 0..200 {
            bucket.push(id);
        }
        assert!(matches!(bucket, Bucket::Bitmap(_)));
        let buckets = HashMap::from([(1u64, bucket)]);
        let mut gather = CandidateGather::default();
        for floor in [0usize, 1, 62, 63, 64, 65, 127, 128, 129, 199, 200, 201] {
            let expected: Vec<usize> = (floor..200).collect();
            assert_eq!(
                gather.gather(&buckets, &[1], floor),
                expected,
                "floor {floor}"
            );
        }
    }
}
