//! The coverage repository: accumulated hit statistics, globally and per
//! test-template.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::{
    CoverageError, CoverageModel, CoverageVector, EventId, StatusCounts, StatusPolicy, TemplateId,
};

/// Accumulated hits/simulations for one event (or one template × event cell).
///
/// # Examples
///
/// ```
/// use ascdg_coverage::HitStats;
/// let s = HitStats { hits: 25, sims: 1000 };
/// assert!((s.rate() - 0.025).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HitStats {
    /// Number of simulations that hit the event.
    pub hits: u64,
    /// Number of simulations recorded.
    pub sims: u64,
}

impl HitStats {
    /// The empirical hit probability (0 when no simulations were recorded).
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.sims == 0 {
            0.0
        } else {
            self.hits as f64 / self.sims as f64
        }
    }

    /// Accumulates another cell into this one.
    pub fn merge(&mut self, other: HitStats) {
        self.hits += other.hits;
        self.sims += other.sims;
    }

    /// The Wilson score interval of the hit probability at confidence
    /// `z` (e.g. 1.96 for 95%). Returns `(low, high)` within `[0, 1]`;
    /// `(0, 1)` when no simulations were recorded.
    ///
    /// Verification teams use this to decide whether a lightly-hit event's
    /// rate is statistically distinguishable from zero before retiring a
    /// template.
    ///
    /// # Examples
    ///
    /// ```
    /// use ascdg_coverage::HitStats;
    ///
    /// let s = HitStats { hits: 5, sims: 1000 };
    /// let (lo, hi) = s.wilson_interval(1.96);
    /// assert!(lo > 0.0 && lo < 0.005);
    /// assert!(hi > 0.005 && hi < 0.02);
    /// // Zero hits: the lower bound is exactly zero.
    /// let z = HitStats { hits: 0, sims: 1000 };
    /// assert_eq!(z.wilson_interval(1.96).0, 0.0);
    /// ```
    #[must_use]
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        if self.sims == 0 {
            return (0.0, 1.0);
        }
        // The quantile enters the formula symmetrically; a sign slip at the
        // call site must not invert the interval.
        let z = z.abs();
        let n = self.sims as f64;
        let p = self.rate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }
}

/// Per-event counters for one template (or the global row).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Row {
    sims: u64,
    hits: Vec<u64>,
}

impl Row {
    fn new(len: usize) -> Self {
        Row {
            sims: 0,
            hits: vec![0; len],
        }
    }

    fn record(&mut self, vector: &CoverageVector) {
        self.sims += 1;
        for e in vector.iter_hits() {
            self.hits[e.index()] += 1;
        }
    }

    fn merge_counts(&mut self, sims: u64, hits: &[u64]) {
        self.sims += sims;
        for (dst, &src) in self.hits.iter_mut().zip(hits) {
            *dst += src;
        }
    }
}

/// The coverage database maintained during a verification project.
///
/// Stores, for every test-template and every event, how many simulations ran
/// and how many of them hit the event — exactly the first-order statistics
/// that both the TAC tool and the AS-CDG objective estimates consume. The
/// repository is thread-safe: the batch simulation environment records
/// results from many worker threads, one lock acquisition per merged
/// chunk.
///
/// # Examples
///
/// ```
/// use ascdg_coverage::{CoverageModel, CoverageRepository, CoverageVector, TemplateId};
///
/// let model = CoverageModel::from_names("u", ["a", "b"]).unwrap();
/// let repo = CoverageRepository::new(model.clone());
/// let mut v = CoverageVector::empty(2);
/// v.set(model.id("b").unwrap());
/// repo.record(TemplateId(3), &v);
/// let stats = repo.template_stats(TemplateId(3), model.id("b").unwrap());
/// assert_eq!((stats.hits, stats.sims), (1, 1));
/// ```
#[derive(Debug)]
pub struct CoverageRepository {
    model: CoverageModel,
    rows: RwLock<Rows>,
}

/// The global row and one row per recorded template.
#[derive(Debug)]
struct Rows {
    global: Row,
    per_template: BTreeMap<TemplateId, Row>,
}

impl Rows {
    fn new(len: usize) -> Self {
        Rows {
            global: Row::new(len),
            per_template: BTreeMap::new(),
        }
    }

    /// The row of `template`, created empty on first use.
    fn template(&mut self, template: TemplateId) -> &mut Row {
        let len = self.global.hits.len();
        self.per_template
            .entry(template)
            .or_insert_with(|| Row::new(len))
    }
}

impl CoverageRepository {
    /// Creates an empty repository for `model`.
    #[must_use]
    pub fn new(model: CoverageModel) -> Self {
        let rows = RwLock::new(Rows::new(model.len()));
        CoverageRepository { model, rows }
    }

    /// The coverage model this repository accumulates against.
    #[must_use]
    pub fn model(&self) -> &CoverageModel {
        &self.model
    }

    /// Records the coverage vector of one simulation of a test-instance
    /// generated from `template`.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the model
    /// (use [`CoverageRepository::try_record`] for a fallible variant).
    pub fn record(&self, template: TemplateId, vector: &CoverageVector) {
        self.try_record(template, vector)
            .expect("coverage vector does not match repository model");
    }

    /// Fallible variant of [`CoverageRepository::record`].
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::VectorSizeMismatch`] when the vector was
    /// produced against a different model.
    pub fn try_record(
        &self,
        template: TemplateId,
        vector: &CoverageVector,
    ) -> Result<(), CoverageError> {
        if vector.len() != self.model.len() {
            return Err(CoverageError::VectorSizeMismatch {
                expected: self.model.len(),
                actual: vector.len(),
            });
        }
        let mut rows = self.rows.write();
        rows.global.record(vector);
        rows.template(template).record(vector);
        Ok(())
    }

    /// Merges a batch of pre-accumulated counters in one lock acquisition.
    ///
    /// `hits[e]` is the number of the `sims` simulations that hit event `e`.
    /// Because recording is commutative per-event counting, merging
    /// worker-local accumulators produces byte-identical repository state to
    /// calling [`CoverageRepository::try_record`] once per simulation — while
    /// taking the write lock O(batches) instead of O(simulations). This is
    /// the batch runner's hot-path recording API.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::VectorSizeMismatch`] when `hits` was
    /// accumulated against a different model width.
    pub fn merge_counts(
        &self,
        template: TemplateId,
        sims: u64,
        hits: &[u64],
    ) -> Result<(), CoverageError> {
        if hits.len() != self.model.len() {
            return Err(CoverageError::VectorSizeMismatch {
                expected: self.model.len(),
                actual: hits.len(),
            });
        }
        if sims == 0 && hits.iter().all(|&h| h == 0) {
            return Ok(());
        }
        let mut rows = self.rows.write();
        rows.global.merge_counts(sims, hits);
        rows.template(template).merge_counts(sims, hits);
        Ok(())
    }

    /// Total number of simulations recorded across all templates.
    #[must_use]
    pub fn total_simulations(&self) -> u64 {
        self.rows.read().global.sims
    }

    /// Global statistics for one event.
    ///
    /// # Panics
    ///
    /// Panics if `event` is out of range for the model.
    #[must_use]
    pub fn global_stats(&self, event: EventId) -> HitStats {
        let rows = self.rows.read();
        HitStats {
            hits: rows.global.hits[event.index()],
            sims: rows.global.sims,
        }
    }

    /// Per-template statistics for one event. Templates never recorded
    /// return all-zero stats.
    ///
    /// # Panics
    ///
    /// Panics if `event` is out of range for the model.
    #[must_use]
    pub fn template_stats(&self, template: TemplateId, event: EventId) -> HitStats {
        match self.rows.read().per_template.get(&template) {
            Some(row) => HitStats {
                hits: row.hits[event.index()],
                sims: row.sims,
            },
            None => HitStats::default(),
        }
    }

    /// Number of simulations recorded for one template.
    #[must_use]
    pub fn template_simulations(&self, template: TemplateId) -> u64 {
        self.rows
            .read()
            .per_template
            .get(&template)
            .map_or(0, |r| r.sims)
    }

    /// Ids of all templates with at least one recorded simulation.
    #[must_use]
    pub fn templates(&self) -> Vec<TemplateId> {
        self.rows.read().per_template.keys().copied().collect()
    }

    /// Global stats for every event, in id order.
    #[must_use]
    pub fn all_global_stats(&self) -> Vec<HitStats> {
        let rows = self.rows.read();
        let sims = rows.global.sims;
        rows.global
            .hits
            .iter()
            .map(|&hits| HitStats { hits, sims })
            .collect()
    }

    /// Classifies every event under `policy` and counts the buckets
    /// (the paper's Fig. 5 view).
    #[must_use]
    pub fn status_counts(&self, policy: StatusPolicy) -> StatusCounts {
        policy.count(self.all_global_stats())
    }

    /// Events with zero global hits, in id order.
    #[must_use]
    pub fn uncovered_events(&self) -> Vec<EventId> {
        let rows = self.rows.read();
        (0..self.model.len())
            .filter(|&i| rows.global.hits[i] == 0)
            .map(|i| EventId(i as u32))
            .collect()
    }

    /// Takes an immutable snapshot for reporting or serialization
    /// (template rows sorted by id).
    #[must_use]
    pub fn snapshot(&self) -> RepoSnapshot {
        let rows = self.rows.read();
        RepoSnapshot {
            unit: self.model.unit().to_owned(),
            events: self.model.iter().map(|(_, n)| n.to_owned()).collect(),
            global_sims: rows.global.sims,
            global_hits: rows.global.hits.clone(),
            per_template: rows
                .per_template
                .iter()
                .map(|(&t, row)| (t, row.sims, row.hits.clone()))
                .collect(),
        }
    }

    /// Clears all accumulated statistics (model is kept).
    pub fn reset(&self) {
        *self.rows.write() = Rows::new(self.model.len());
    }

    /// Rebuilds a repository from a snapshot (e.g. a regression run
    /// persisted to disk between CLI invocations).
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::VectorSizeMismatch`] when the snapshot's
    /// event count, or the width of its global row or of any template
    /// row, disagrees with `model`, and [`CoverageError::UnknownEvent`]
    /// when its event names do.
    pub fn from_snapshot(
        model: CoverageModel,
        snapshot: &RepoSnapshot,
    ) -> Result<Self, CoverageError> {
        if snapshot.events.len() != model.len() {
            return Err(CoverageError::VectorSizeMismatch {
                expected: model.len(),
                actual: snapshot.events.len(),
            });
        }
        for (id, name) in model.iter() {
            if snapshot.events[id.index()] != name {
                return Err(CoverageError::UnknownEvent(format!(
                    "snapshot event #{} is `{}`, model says `{}`",
                    id.index(),
                    snapshot.events[id.index()],
                    name
                )));
            }
        }
        let row = |sims: u64, hits: &Vec<u64>| {
            if hits.len() == model.len() {
                Ok(Row {
                    sims,
                    hits: hits.clone(),
                })
            } else {
                Err(CoverageError::VectorSizeMismatch {
                    expected: model.len(),
                    actual: hits.len(),
                })
            }
        };
        let global = row(snapshot.global_sims, &snapshot.global_hits)?;
        let per_template: BTreeMap<TemplateId, Row> = snapshot
            .per_template
            .iter()
            .map(|(t, sims, hits)| Ok((*t, row(*sims, hits)?)))
            .collect::<Result<_, CoverageError>>()?;
        // Every record lands in the global row and one template row, so
        // the global row is their sum: one edited counter, or a dropped or
        // duplicated template row, breaks it.
        let mut sum = Row::new(model.len());
        for r in per_template.values() {
            sum.merge_counts(r.sims, &r.hits);
        }
        if per_template.len() != snapshot.per_template.len() {
            return Err(CoverageError::InconsistentSnapshot(
                "a template row appears twice".to_owned(),
            ));
        }
        if sum.sims != global.sims || sum.hits != global.hits {
            return Err(CoverageError::InconsistentSnapshot(
                "the global row is not the sum of the template rows".to_owned(),
            ));
        }
        let rows = RwLock::new(Rows {
            global,
            per_template,
        });
        Ok(CoverageRepository { model, rows })
    }
}

/// A serializable point-in-time copy of a repository's counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepoSnapshot {
    /// Unit name of the model.
    pub unit: String,
    /// Event names, in id order.
    pub events: Vec<String>,
    /// Total simulations recorded.
    pub global_sims: u64,
    /// Global per-event hit counts, in id order.
    pub global_hits: Vec<u64>,
    /// `(template, sims, per-event hits)` rows, sorted by template id.
    pub per_template: Vec<(TemplateId, u64, Vec<u64>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CoverageModel {
        CoverageModel::from_names("u", ["a", "b", "c"]).unwrap()
    }

    fn vec_hitting(model: &CoverageModel, names: &[&str]) -> CoverageVector {
        let mut v = CoverageVector::empty(model.len());
        for n in names {
            v.set(model.id(n).unwrap());
        }
        v
    }

    #[test]
    fn record_and_query() {
        let m = model();
        let repo = CoverageRepository::new(m.clone());
        repo.record(TemplateId(0), &vec_hitting(&m, &["a"]));
        repo.record(TemplateId(0), &vec_hitting(&m, &["a", "b"]));
        repo.record(TemplateId(1), &vec_hitting(&m, &["c"]));

        assert_eq!(repo.total_simulations(), 3);
        let a = m.id("a").unwrap();
        assert_eq!(repo.global_stats(a), HitStats { hits: 2, sims: 3 });
        assert_eq!(
            repo.template_stats(TemplateId(0), a),
            HitStats { hits: 2, sims: 2 }
        );
        assert_eq!(
            repo.template_stats(TemplateId(1), a),
            HitStats { hits: 0, sims: 1 }
        );
        assert_eq!(repo.template_stats(TemplateId(9), a), HitStats::default());
        assert_eq!(repo.templates(), vec![TemplateId(0), TemplateId(1)]);
        assert_eq!(repo.template_simulations(TemplateId(0)), 2);
    }

    #[test]
    fn merge_counts_equals_per_sim_record() {
        let m = model();
        let by_record = CoverageRepository::new(m.clone());
        let by_merge = CoverageRepository::new(m.clone());

        // Simulations for two templates, recorded one at a time on one repo
        // and as pre-accumulated shards on the other.
        let sims: Vec<(TemplateId, CoverageVector)> = vec![
            (TemplateId(0), vec_hitting(&m, &["a"])),
            (TemplateId(0), vec_hitting(&m, &["a", "b"])),
            (TemplateId(0), vec_hitting(&m, &[])),
            (TemplateId(1), vec_hitting(&m, &["c"])),
            (TemplateId(1), vec_hitting(&m, &["a", "c"])),
        ];
        for (t, v) in &sims {
            by_record.record(*t, v);
        }
        for template in [TemplateId(0), TemplateId(1)] {
            let mut counts = vec![0u64; m.len()];
            let mut n = 0u64;
            for (t, v) in sims.iter().filter(|(t, _)| *t == template) {
                assert_eq!(*t, template);
                n += 1;
                for e in v.iter_hits() {
                    counts[e.index()] += 1;
                }
            }
            by_merge.merge_counts(template, n, &counts).unwrap();
        }
        assert_eq!(by_record.snapshot(), by_merge.snapshot());
    }

    #[test]
    fn merge_counts_rejects_wrong_width_and_skips_empty() {
        let m = model();
        let repo = CoverageRepository::new(m);
        assert!(matches!(
            repo.merge_counts(TemplateId(0), 1, &[0, 0]),
            Err(CoverageError::VectorSizeMismatch {
                expected: 3,
                actual: 2
            })
        ));
        // An all-zero merge must not materialize a per-template row.
        repo.merge_counts(TemplateId(7), 0, &[0, 0, 0]).unwrap();
        assert!(repo.templates().is_empty());
    }

    #[test]
    fn size_mismatch_rejected() {
        let repo = CoverageRepository::new(model());
        let bad = CoverageVector::empty(2);
        assert!(matches!(
            repo.try_record(TemplateId(0), &bad),
            Err(CoverageError::VectorSizeMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn uncovered_and_status() {
        let m = model();
        let repo = CoverageRepository::new(m.clone());
        for _ in 0..200 {
            repo.record(TemplateId(0), &vec_hitting(&m, &["a"]));
        }
        assert_eq!(
            repo.uncovered_events(),
            vec![m.id("b").unwrap(), m.id("c").unwrap()]
        );
        let counts = repo.status_counts(StatusPolicy::default());
        assert_eq!(counts.well_hit, 1);
        assert_eq!(counts.never_hit, 2);
    }

    #[test]
    fn snapshot_roundtrip() {
        let m = model();
        let repo = CoverageRepository::new(m.clone());
        repo.record(TemplateId(2), &vec_hitting(&m, &["b"]));
        let snap = repo.snapshot();
        assert_eq!(snap.global_sims, 1);
        assert_eq!(snap.global_hits, vec![0, 1, 0]);
        assert_eq!(snap.per_template.len(), 1);
        assert_eq!(snap.per_template[0].0, TemplateId(2));
    }

    #[test]
    fn reset_clears_counters() {
        let m = model();
        let repo = CoverageRepository::new(m.clone());
        repo.record(TemplateId(0), &vec_hitting(&m, &["a"]));
        repo.reset();
        assert_eq!(repo.total_simulations(), 0);
        assert!(repo.templates().is_empty());
    }

    #[test]
    fn concurrent_recording() {
        let m = model();
        let repo = std::sync::Arc::new(CoverageRepository::new(m.clone()));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let repo = repo.clone();
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        let mut v = CoverageVector::empty(m.len());
                        v.set(EventId(t % 3));
                        repo.record(TemplateId(t), &v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(repo.total_simulations(), 1000);
        let total_hits: u64 = repo.all_global_stats().iter().map(|s| s.hits).sum();
        assert_eq!(total_hits, 1000);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let m = model();
        let repo = CoverageRepository::new(m.clone());
        repo.record(TemplateId(0), &vec_hitting(&m, &["a", "c"]));
        repo.record(TemplateId(2), &vec_hitting(&m, &["b"]));
        let snap = repo.snapshot();
        let restored = CoverageRepository::from_snapshot(m.clone(), &snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.total_simulations(), 2);
        assert_eq!(
            restored.template_stats(TemplateId(2), m.id("b").unwrap()),
            HitStats { hits: 1, sims: 1 }
        );
    }

    #[test]
    fn snapshot_restore_rejects_mismatched_model() {
        let m = model();
        let repo = CoverageRepository::new(m.clone());
        repo.record(TemplateId(0), &vec_hitting(&m, &["a"]));
        let snap = repo.snapshot();
        let other = CoverageModel::from_names("u", ["a", "b"]).unwrap();
        assert!(matches!(
            CoverageRepository::from_snapshot(other, &snap),
            Err(CoverageError::VectorSizeMismatch { .. })
        ));
        let renamed = CoverageModel::from_names("u", ["a", "x", "c"]).unwrap();
        assert!(matches!(
            CoverageRepository::from_snapshot(renamed, &snap),
            Err(CoverageError::UnknownEvent(_))
        ));
    }

    #[test]
    fn wilson_interval_properties() {
        // Contains the point estimate and tightens with more samples.
        for &(hits, sims) in &[(1u64, 10u64), (50, 100), (999, 1000)] {
            let s = HitStats { hits, sims };
            let (lo, hi) = s.wilson_interval(1.96);
            assert!(lo <= s.rate() && s.rate() <= hi, "{hits}/{sims}");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
        let narrow = HitStats {
            hits: 500,
            sims: 10_000,
        }
        .wilson_interval(1.96);
        let wide = HitStats { hits: 5, sims: 100 }.wilson_interval(1.96);
        assert!(narrow.1 - narrow.0 < wide.1 - wide.0);
        // Degenerate cases.
        assert_eq!(HitStats::default().wilson_interval(1.96), (0.0, 1.0));
        let all = HitStats { hits: 10, sims: 10 }.wilson_interval(1.96);
        assert!(all.1 <= 1.0 && all.0 < 1.0);
    }

    #[test]
    fn merges_across_many_templates_equal_per_sim_records() {
        // Ten templates, each merged as one pre-accumulated shard on one
        // repository and recorded one simulation at a time on the other.
        let m = model();
        let by_record = CoverageRepository::new(m.clone());
        let by_merge = CoverageRepository::new(m.clone());
        for i in 0..10u64 {
            let sims = (i + 1) * 5;
            let mut counts = vec![0u64; m.len()];
            for k in 0..sims {
                let mut v = CoverageVector::empty(m.len());
                for (e, count) in counts.iter_mut().enumerate() {
                    if (k + i) % (e as u64 + 2) == 0 {
                        v.set(EventId(e as u32));
                        *count += 1;
                    }
                }
                by_record.record(TemplateId(i as u32), &v);
            }
            by_merge
                .merge_counts(TemplateId(i as u32), sims, &counts)
                .unwrap();
        }
        let snap = by_merge.snapshot();
        assert_eq!(snap, by_record.snapshot());
        assert_eq!(snap.per_template.len(), 10);
        assert_eq!(by_merge.total_simulations(), 5 * 55);
        // And the snapshot round-trips through restore.
        let restored = CoverageRepository::from_snapshot(m, &snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn snapshot_restore_rejects_rows_of_the_wrong_width() {
        let m = model();
        let repo = CoverageRepository::new(m.clone());
        repo.record(TemplateId(0), &vec_hitting(&m, &["a"]));
        repo.record(TemplateId(4), &vec_hitting(&m, &["c"]));
        let snap = repo.snapshot();
        let restore = |edit: &dyn Fn(&mut RepoSnapshot)| {
            let mut bad = snap.clone();
            edit(&mut bad);
            CoverageRepository::from_snapshot(m.clone(), &bad)
        };
        assert!(matches!(
            restore(&|s| s.global_hits.truncate(1)),
            Err(CoverageError::VectorSizeMismatch {
                expected: 3,
                actual: 1
            })
        ));
        assert!(matches!(
            restore(&|s| s.per_template[1].2.truncate(2)),
            Err(CoverageError::VectorSizeMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(matches!(
            restore(&|s| s.per_template[0].2.push(0)),
            Err(CoverageError::VectorSizeMismatch {
                expected: 3,
                actual: 4
            })
        ));
    }

    #[test]
    fn snapshot_restore_rejects_counters_that_do_not_add_up() {
        let m = model();
        let repo = CoverageRepository::new(m.clone());
        repo.record(TemplateId(0), &vec_hitting(&m, &["a"]));
        repo.record(TemplateId(4), &vec_hitting(&m, &["a", "c"]));
        let snap = repo.snapshot();
        let restore = |edit: &dyn Fn(&mut RepoSnapshot)| {
            let mut bad = snap.clone();
            edit(&mut bad);
            CoverageRepository::from_snapshot(m.clone(), &bad)
        };
        for edit in [
            &(|s: &mut RepoSnapshot| s.global_sims += 1) as &dyn Fn(&mut RepoSnapshot),
            &|s| s.global_hits[1] = 1,
            &|s| s.per_template[1].2[2] = 0,
            &|s| s.per_template[0].1 = 3,
            &|s| s.per_template[1].0 = TemplateId(0),
            &|s| {
                s.per_template.pop();
            },
        ] {
            assert!(matches!(
                restore(edit),
                Err(CoverageError::InconsistentSnapshot(_))
            ));
        }
        assert!(restore(&|_| {}).is_ok());
    }

    #[test]
    fn hit_stats_merge() {
        let mut a = HitStats { hits: 1, sims: 10 };
        a.merge(HitStats { hits: 2, sims: 5 });
        assert_eq!(a, HitStats { hits: 3, sims: 15 });
        assert_eq!(HitStats::default().rate(), 0.0);
    }
}
