//! Compact per-simulation coverage outcome.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::EventId;

/// The boolean per-event outcome of simulating one test-instance.
///
/// The paper's hit statistics are *per-simulation* indicators: a simulation
/// either hit an event or did not, regardless of how many times the event
/// fired within that simulation. `CoverageVector` therefore stores one bit
/// per event of the owning [`crate::CoverageModel`].
///
/// # Examples
///
/// ```
/// use ascdg_coverage::{CoverageVector, EventId};
///
/// let mut v = CoverageVector::empty(70);
/// v.set(EventId(0));
/// v.set(EventId(69));
/// assert!(v.get(EventId(0)) && v.get(EventId(69)) && !v.get(EventId(1)));
/// assert_eq!(v.count_hits(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoverageVector {
    len: usize,
    words: Vec<u64>,
}

impl CoverageVector {
    /// Creates an all-zero vector covering `len` events.
    #[must_use]
    pub fn empty(len: usize) -> Self {
        CoverageVector {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Number of events tracked by this vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector tracks zero events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks `event` as hit.
    ///
    /// # Panics
    ///
    /// Panics if `event` is out of range for this vector.
    #[inline]
    pub fn set(&mut self, event: EventId) {
        let i = event.index();
        assert!(
            i < self.len,
            "event {event} out of range (len {})",
            self.len
        );
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears the hit bit for `event`.
    ///
    /// # Panics
    ///
    /// Panics if `event` is out of range for this vector.
    pub fn clear(&mut self, event: EventId) {
        let i = event.index();
        assert!(
            i < self.len,
            "event {event} out of range (len {})",
            self.len
        );
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Returns whether `event` was hit.
    ///
    /// # Panics
    ///
    /// Panics if `event` is out of range for this vector.
    #[must_use]
    pub fn get(&self, event: EventId) -> bool {
        let i = event.index();
        assert!(
            i < self.len,
            "event {event} out of range (len {})",
            self.len
        );
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of events hit in this simulation.
    #[must_use]
    pub fn count_hits(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the ids of all hit events, in increasing order.
    ///
    /// Word-at-a-time: zero words are skipped in one comparison and set bits
    /// are extracted with `trailing_zeros`, so sparse vectors (the common
    /// case — most simulations hit a handful of events) cost far less than a
    /// per-bit scan.
    pub fn iter_hits(&self) -> HitIter<'_> {
        HitIter {
            words: &self.words,
            next_word: 0,
            base: 0,
            current: 0,
        }
    }

    /// Adds this simulation's hits into a per-event count accumulator
    /// (`counts[e] += 1` for every hit event `e`).
    ///
    /// This is the shard-accumulation primitive of the batch hot path:
    /// workers fold vectors into a plain `Vec<u64>` and merge into the
    /// repository once per chunk.
    ///
    /// # Panics
    ///
    /// Panics if `counts` does not have exactly one slot per event.
    pub fn accumulate_into(&self, counts: &mut [u64]) {
        assert_eq!(
            counts.len(),
            self.len,
            "accumulator width does not match coverage vector"
        );
        for e in self.iter_hits() {
            counts[e.index()] += 1;
        }
    }

    /// The raw 64-bit backing words, least-significant bit = lowest event
    /// id. `set`/`clear` guarantee no bit beyond [`CoverageVector::len`]
    /// is ever set, so callers may popcount or scatter whole words
    /// without masking the final partial word. This is the word-wise
    /// primitive behind [`CoverageVector::union_with`] and the bit-plane
    /// bridge (`CoveragePlane::record_vector`).
    #[must_use]
    pub fn fold_words(&self) -> &[u64] {
        &self.words
    }

    /// Clears every hit bit in place, keeping the event count.
    ///
    /// Lets a caller reuse one vector (for example as the target of
    /// repeated plane-lane extractions) instead of reallocating; afterwards
    /// it is indistinguishable from [`CoverageVector::empty`] of the same
    /// length.
    pub fn reset(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Merges another vector into this one (bitwise or).
    ///
    /// # Panics
    ///
    /// Panics if the two vectors track different numbers of events.
    pub fn union_with(&mut self, other: &CoverageVector) {
        assert_eq!(self.len, other.len, "coverage vector length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// Iterator over the hit events of a [`CoverageVector`], in increasing
/// id order (see [`CoverageVector::iter_hits`]).
///
/// `set`/`clear` guarantee no bit beyond `len` is ever set, so the iterator
/// never needs to mask the final partial word.
pub struct HitIter<'a> {
    words: &'a [u64],
    next_word: usize,
    base: u32,
    current: u64,
}

impl Iterator for HitIter<'_> {
    type Item = EventId;

    fn next(&mut self) -> Option<EventId> {
        while self.current == 0 {
            let w = *self.words.get(self.next_word)?;
            self.base = self.next_word as u32 * 64;
            self.next_word += 1;
            self.current = w;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(EventId(self.base + bit))
    }
}

impl fmt::Debug for CoverageVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CoverageVector({}/{} hit)", self.count_hits(), self.len)
    }
}

impl FromIterator<EventId> for CoverageVector {
    /// Builds a vector sized to the largest id seen.
    fn from_iter<T: IntoIterator<Item = EventId>>(iter: T) -> Self {
        let ids: Vec<EventId> = iter.into_iter().collect();
        let len = ids.iter().map(|e| e.index() + 1).max().unwrap_or(0);
        let mut v = CoverageVector::empty(len);
        for id in ids {
            v.set(id);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut v = CoverageVector::empty(130);
        for i in [0u32, 63, 64, 65, 129] {
            v.set(EventId(i));
            assert!(v.get(EventId(i)));
        }
        assert_eq!(v.count_hits(), 5);
        v.clear(EventId(64));
        assert!(!v.get(EventId(64)));
        assert_eq!(v.count_hits(), 4);
    }

    #[test]
    fn iter_hits_in_order() {
        let mut v = CoverageVector::empty(100);
        v.set(EventId(70));
        v.set(EventId(3));
        let hits: Vec<_> = v.iter_hits().collect();
        assert_eq!(hits, vec![EventId(3), EventId(70)]);
    }

    #[test]
    fn union() {
        let mut a = CoverageVector::empty(10);
        let mut b = CoverageVector::empty(10);
        a.set(EventId(1));
        b.set(EventId(8));
        a.union_with(&b);
        assert!(a.get(EventId(1)) && a.get(EventId(8)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let v = CoverageVector::empty(4);
        let _ = v.get(EventId(4));
    }

    #[test]
    fn reset_equals_fresh_empty() {
        let mut v = CoverageVector::empty(130);
        for i in [0u32, 63, 64, 129] {
            v.set(EventId(i));
        }
        v.reset();
        assert_eq!(v, CoverageVector::empty(130));
        assert_eq!(v.count_hits(), 0);
        v.set(EventId(129));
        assert!(v.get(EventId(129)));
    }

    #[test]
    fn from_iterator() {
        let v: CoverageVector = [EventId(2), EventId(5)].into_iter().collect();
        assert_eq!(v.len(), 6);
        assert!(v.get(EventId(5)) && !v.get(EventId(4)));
    }

    #[test]
    fn empty_vector() {
        let v = CoverageVector::empty(0);
        assert!(v.is_empty());
        assert_eq!(v.count_hits(), 0);
        assert_eq!(v.iter_hits().count(), 0);
    }

    #[test]
    fn debug_format() {
        let mut v = CoverageVector::empty(8);
        v.set(EventId(0));
        assert_eq!(format!("{v:?}"), "CoverageVector(1/8 hit)");
    }

    #[test]
    fn accumulate_into_counts_each_hit_once() {
        let mut v = CoverageVector::empty(65);
        v.set(EventId(0));
        v.set(EventId(64));
        let mut counts = vec![0u64; 65];
        v.accumulate_into(&mut counts);
        v.accumulate_into(&mut counts);
        assert_eq!(counts[0], 2);
        assert_eq!(counts[64], 2);
        assert_eq!(counts.iter().sum::<u64>(), 4);
    }

    #[test]
    #[should_panic(expected = "accumulator width")]
    fn accumulate_into_rejects_wrong_width() {
        let v = CoverageVector::empty(10);
        v.accumulate_into(&mut [0u64; 9]);
    }

    mod word_boundary_props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// A strategy over (len, hit-index set) pairs straddling the 64-bit
        /// word boundary, where the word-level iteration is easiest to get
        /// wrong.
        fn len_and_hits() -> impl Strategy<Value = (usize, BTreeSet<u32>)> {
            prop_oneof![Just(63usize), Just(64), Just(65)].prop_flat_map(|len| {
                (
                    Just(len),
                    proptest::collection::btree_set(0..len as u32, 0..len + 1),
                )
            })
        }

        proptest! {
            /// `set` then `iter_hits` round-trips the exact id set, in order.
            #[test]
            fn set_iter_round_trip((len, hits) in len_and_hits()) {
                let mut v = CoverageVector::empty(len);
                for &i in &hits {
                    v.set(EventId(i));
                }
                let iterated: Vec<u32> = v.iter_hits().map(|e| e.0).collect();
                let expected: Vec<u32> = hits.iter().copied().collect();
                prop_assert_eq!(iterated, expected);
            }

            /// `count_hits` agrees with the number of distinct set bits and
            /// with the iterator's length.
            #[test]
            fn count_matches_set_bits((len, hits) in len_and_hits()) {
                let mut v = CoverageVector::empty(len);
                for &i in &hits {
                    v.set(EventId(i));
                    v.set(EventId(i)); // double-set must be idempotent
                }
                prop_assert_eq!(v.count_hits(), hits.len());
                prop_assert_eq!(v.iter_hits().count(), hits.len());
            }

            /// `get` sees exactly the bits that were set, across the whole
            /// index range including the final partial word.
            #[test]
            fn get_matches_membership((len, hits) in len_and_hits()) {
                let mut v = CoverageVector::empty(len);
                for &i in &hits {
                    v.set(EventId(i));
                }
                for i in 0..len as u32 {
                    prop_assert_eq!(v.get(EventId(i)), hits.contains(&i));
                }
            }

            /// `accumulate_into` counts exactly the hit events.
            #[test]
            fn accumulate_matches_iter((len, hits) in len_and_hits()) {
                let mut v = CoverageVector::empty(len);
                for &i in &hits {
                    v.set(EventId(i));
                }
                let mut counts = vec![0u64; len];
                v.accumulate_into(&mut counts);
                for (i, &count) in counts.iter().enumerate() {
                    prop_assert_eq!(count, u64::from(hits.contains(&(i as u32))));
                }
            }
        }
    }
}
