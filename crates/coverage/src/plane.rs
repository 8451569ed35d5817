//! Transposed bit-plane coverage accumulation for batched simulation.

use crate::{CoverageVector, EventId};

/// Maximum number of simulations (lanes) one plane block can hold.
pub const PLANE_LANES: usize = 64;

/// A write-only sink for the hit events of one simulation.
///
/// Unit cycle models record coverage exclusively through this trait, so
/// the same model code serves both per-simulation recording (into a
/// [`CoverageVector`]) and batched bit-plane recording (into a
/// [`PlaneLane`]) without duplication. Recording is idempotent: hitting
/// an event twice within one simulation is the same as hitting it once.
pub trait CoverageSink {
    /// Marks `event` as hit by the current simulation.
    fn hit(&mut self, event: EventId);
}

impl CoverageSink for CoverageVector {
    #[inline]
    fn hit(&mut self, event: EventId) {
        self.set(event);
    }
}

/// A transposed coverage bit-plane: one `u64` word per event, one bit
/// lane per simulation of a kernel block (column-major relative to
/// [`CoverageVector`]'s row-major layout).
///
/// Where the per-sim path allocates one vector per simulation and folds
/// each into a count accumulator bit by bit, a plane records a whole
/// block of up to [`PLANE_LANES`] simulations into one flat `Vec<u64>`
/// (`word(event) |= 1 << lane`) and folds the block with a single
/// popcount sweep per event — zero per-simulation allocation. Because
/// every simulation owns a distinct lane bit, the fold's per-event
/// popcount equals the number of simulations that hit the event, making
/// the counts byte-identical to per-sim
/// [`CoverageVector::accumulate_into`] accumulation.
///
/// # Examples
///
/// ```
/// use ascdg_coverage::{CoveragePlane, CoverageSink, EventId};
///
/// let mut plane = CoveragePlane::new();
/// plane.begin(3, 2);
/// plane.lane(0).hit(EventId(1));
/// plane.lane(1).hit(EventId(1));
/// plane.lane(1).hit(EventId(2));
/// let mut counts = vec![0u64; 3];
/// plane.fold_into(&mut counts);
/// assert_eq!(counts, vec![0, 2, 1]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoveragePlane {
    events: usize,
    lanes: usize,
    words: Vec<u64>,
}

impl CoveragePlane {
    /// An empty plane; call [`CoveragePlane::begin`] before recording.
    #[must_use]
    pub fn new() -> Self {
        CoveragePlane::default()
    }

    /// Starts a new block of `lanes` simulations over `events` events,
    /// zeroing every word. Reuses the existing allocation when the event
    /// width matches — the arena-reuse primitive of the batch hot path.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` exceeds [`PLANE_LANES`] (callers dispatch
    /// kernel blocks of at most 64 simulations).
    pub fn begin(&mut self, events: usize, lanes: usize) {
        assert!(
            lanes <= PLANE_LANES,
            "plane block of {lanes} lanes exceeds {PLANE_LANES}"
        );
        self.events = events;
        self.lanes = lanes;
        self.words.clear();
        self.words.resize(events, 0);
    }

    /// Number of events per lane.
    #[must_use]
    pub fn events(&self) -> usize {
        self.events
    }

    /// Number of simulations in the current block.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The recording view of simulation `lane`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is outside the current block.
    #[must_use]
    pub fn lane(&mut self, lane: usize) -> PlaneLane<'_> {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        PlaneLane {
            words: &mut self.words,
            bit: 1 << lane,
        }
    }

    /// Whether simulation `lane` hit `event`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` or `event` is out of range.
    #[must_use]
    pub fn get(&self, lane: usize, event: EventId) -> bool {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        self.words[event.index()] & (1 << lane) != 0
    }

    /// Folds the block into a per-event count accumulator
    /// (`counts[e] += <number of lanes that hit e>`): one popcount per
    /// event, byte-identical to accumulating each lane's
    /// [`CoverageVector`] individually.
    ///
    /// # Panics
    ///
    /// Panics when `counts` does not have exactly one slot per event.
    pub fn fold_into(&self, counts: &mut [u64]) {
        assert_eq!(
            counts.len(),
            self.events,
            "accumulator width does not match coverage plane"
        );
        for (dst, &w) in counts.iter_mut().zip(&self.words) {
            *dst += u64::from(w.count_ones());
        }
    }

    /// Scatters one simulation's per-sim vector into `lane` — the bridge
    /// for environments that only implement the per-sim batch entry.
    /// Word-at-a-time over [`CoverageVector::fold_words`], so all-zero
    /// words (the common sparse case) cost one comparison.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is outside the block or the vector width does
    /// not match the plane.
    pub fn record_vector(&mut self, lane: usize, vector: &CoverageVector) {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        assert_eq!(
            vector.len(),
            self.events,
            "coverage vector width does not match plane"
        );
        let bit = 1u64 << lane;
        for (wi, &w) in vector.fold_words().iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.words[wi * 64 + b] |= bit;
            }
        }
    }

    /// Extracts simulation `lane` back into a (zeroed) per-sim vector,
    /// for the rare consumer that needs row-major form.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is outside the block or the vector width does
    /// not match the plane.
    pub fn extract_into(&self, lane: usize, out: &mut CoverageVector) {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        assert_eq!(
            out.len(),
            self.events,
            "coverage vector width does not match plane"
        );
        let bit = 1u64 << lane;
        for (e, &w) in self.words.iter().enumerate() {
            if w & bit != 0 {
                out.set(EventId(e as u32));
            }
        }
    }
}

/// The [`CoverageSink`] view of one plane lane (one simulation's column).
#[derive(Debug)]
pub struct PlaneLane<'a> {
    words: &'a mut [u64],
    bit: u64,
}

impl CoverageSink for PlaneLane<'_> {
    #[inline]
    fn hit(&mut self, event: EventId) {
        self.words[event.index()] |= self.bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_recording_folds_to_per_sim_counts() {
        let mut plane = CoveragePlane::new();
        plane.begin(70, 3);
        // Reference: the same hits recorded per-sim.
        let mut vectors = vec![CoverageVector::empty(70); 3];
        let hits: [&[u32]; 3] = [&[0, 69], &[0], &[1, 1, 69]];
        for (lane, ids) in hits.iter().enumerate() {
            for &i in *ids {
                plane.lane(lane).hit(EventId(i));
                vectors[lane].set(EventId(i));
            }
        }
        let mut folded = vec![0u64; 70];
        plane.fold_into(&mut folded);
        let mut reference = vec![0u64; 70];
        for v in &vectors {
            v.accumulate_into(&mut reference);
        }
        assert_eq!(folded, reference);
        assert!(plane.get(0, EventId(69)) && !plane.get(1, EventId(69)));
    }

    #[test]
    fn begin_resets_a_reused_plane() {
        let mut plane = CoveragePlane::new();
        plane.begin(8, 4);
        plane.lane(3).hit(EventId(5));
        plane.begin(8, 2);
        let mut counts = vec![0u64; 8];
        plane.fold_into(&mut counts);
        assert_eq!(counts, vec![0; 8], "warm plane leaked prior hits");
        assert_eq!((plane.events(), plane.lanes()), (8, 2));
    }

    #[test]
    fn record_vector_matches_lane_recording() {
        let mut v = CoverageVector::empty(130);
        for i in [0u32, 63, 64, 65, 129] {
            v.set(EventId(i));
        }
        let mut scattered = CoveragePlane::new();
        scattered.begin(130, 2);
        scattered.record_vector(1, &v);
        let mut direct = CoveragePlane::new();
        direct.begin(130, 2);
        for e in v.iter_hits() {
            direct.lane(1).hit(e);
        }
        assert_eq!(scattered, direct);
        let mut round = CoverageVector::empty(130);
        scattered.extract_into(1, &mut round);
        assert_eq!(round, v);
        let mut other = CoverageVector::empty(130);
        scattered.extract_into(0, &mut other);
        assert_eq!(other.count_hits(), 0);
    }

    #[test]
    fn fold_accumulates_across_blocks() {
        let mut plane = CoveragePlane::new();
        let mut counts = vec![0u64; 3];
        for block in 0..2 {
            plane.begin(3, 64);
            for lane in 0..64 {
                plane.lane(lane).hit(EventId(block));
            }
            plane.fold_into(&mut counts);
        }
        assert_eq!(counts, vec![64, 64, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn more_than_64_lanes_panics() {
        CoveragePlane::new().begin(4, 65);
    }

    #[test]
    #[should_panic(expected = "accumulator width")]
    fn fold_rejects_wrong_width() {
        let mut plane = CoveragePlane::new();
        plane.begin(4, 1);
        plane.fold_into(&mut [0u64; 3]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_block_lane_panics() {
        let mut plane = CoveragePlane::new();
        plane.begin(4, 2);
        let _ = plane.lane(2);
    }
}
