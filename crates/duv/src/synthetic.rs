//! A configurable synthetic verification environment.
//!
//! The paper's companion work (Gal et al., *How to catch a lion in the
//! desert*, Optimization & Engineering 2020) studies the CDG optimization
//! problem on synthetic landscapes with controllable hardness. This module
//! provides the same facility as a [`VerifEnv`]: a "unit" whose coverage
//! events form a family with a *tunable difficulty gradient* over a hidden
//! optimal configuration, so CDG algorithms can be compared under
//! controlled conditions (dimension, hardness, noise, irrelevant-parameter
//! count) instead of only on the three micro-architectural models.
//!
//! The model: each relevant knob `Knob_i` contributes a coordinate
//! `x_i ∈ [0,1]`; the environment hides an optimum `o ∈ [0,1]^R` (derived
//! from the config seed); a simulation's *quality* is the weakest-link
//! score `s = 1 - max_i |x_i - o_i|`; family event `fam_k` fires with
//! probability `sigmoid(hardness * (s - threshold_k))` where thresholds
//! climb toward 1 with `k`. Deep family members therefore require settings
//! close to the hidden optimum in *every* relevant knob — the cliff-shaped
//! difficulty that makes real coverage closure hard.

use ascdg_coverage::{CoverageModel, CoverageSink, CoverageVector};
use ascdg_stimgen::{mix_seed, ParamSampler};
use ascdg_template::{
    ParamDef, ParamId, ParamRegistry, ResolvedParams, TemplateLibrary, TestTemplate, Value,
};

use crate::{EnvError, SimScratch, VerifEnv};

/// Configuration of a [`SyntheticEnv`].
///
/// # Examples
///
/// ```
/// use ascdg_duv::synthetic::{SyntheticConfig, SyntheticEnv};
/// use ascdg_duv::VerifEnv;
///
/// let env = SyntheticEnv::new(SyntheticConfig::default());
/// assert!(env.coverage_model().id("fam_01").is_ok());
/// let t = env.stock_library().get(0).unwrap().clone();
/// let cov = env.simulate(&t, 1).unwrap();
/// assert_eq!(cov.len(), env.coverage_model().len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of family events `fam_01 .. fam_D` (the difficulty ladder).
    pub family_depth: usize,
    /// Number of relevant knobs (the search dimension before subranging).
    pub relevant_params: usize,
    /// Number of irrelevant decoy parameters.
    pub irrelevant_params: usize,
    /// Number of background events with fixed hit probabilities.
    pub noise_events: usize,
    /// Gradient steepness: larger values make the family cliff sharper
    /// (harder for the optimizer, flatter far field).
    pub hardness: f64,
    /// Quality threshold of the *deepest* family member (the shallowest
    /// sits near 0.35; thresholds are spaced linearly in between).
    pub top_threshold: f64,
    /// Seed deriving the hidden optimal configuration.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            family_depth: 8,
            relevant_params: 4,
            irrelevant_params: 6,
            noise_events: 8,
            hardness: 40.0,
            top_threshold: 0.93,
            seed: 0xCD6,
        }
    }
}

/// The synthetic verification environment. See the module docs for the
/// probability model.
#[derive(Debug, Clone)]
pub struct SyntheticEnv {
    config: SyntheticConfig,
    registry: ParamRegistry,
    model: CoverageModel,
    library: TemplateLibrary,
    /// Hidden optimum, one coordinate per relevant knob.
    optimum: Vec<f64>,
    /// `fam_NN` event ids indexed by depth-1 (hot-path cache).
    fam_ids: Vec<ascdg_coverage::EventId>,
    /// `bg_NN` event ids by index (hot-path cache).
    bg_ids: Vec<ascdg_coverage::EventId>,
    /// Knob parameter ids by knob index (hot-path cache).
    knob_ids: Vec<ParamId>,
    /// Decoy parameter ids by decoy index (hot-path cache).
    decoy_ids: Vec<ParamId>,
}

impl Default for SyntheticEnv {
    fn default() -> Self {
        SyntheticEnv::new(SyntheticConfig::default())
    }
}

fn knob_name(i: usize) -> String {
    format!("Knob{i:02}")
}

fn decoy_name(i: usize) -> String {
    format!("Decoy{i:02}")
}

impl SyntheticEnv {
    /// Builds the environment.
    ///
    /// # Panics
    ///
    /// Panics when `family_depth` or `relevant_params` is zero.
    #[must_use]
    pub fn new(config: SyntheticConfig) -> Self {
        assert!(config.family_depth > 0, "need at least one family event");
        assert!(config.relevant_params > 0, "need at least one knob");
        let sub = |lo, hi| Value::SubRange { lo, hi };

        let mut registry = ParamRegistry::new();
        for i in 0..config.relevant_params {
            // Knobs are weight parameters over four quarters of [0, 100);
            // the default concentrates on the lowest quarter, so the
            // default quality is far from most hidden optima.
            registry
                .define(
                    ParamDef::weights(
                        knob_name(i),
                        [
                            (sub(0, 25), 85u32),
                            (sub(25, 50), 15),
                            (sub(50, 75), 0),
                            (sub(75, 100), 0),
                        ],
                    )
                    .expect("valid weights"),
                )
                .expect("unique knob names");
        }
        for i in 0..config.irrelevant_params {
            registry
                .define(ParamDef::range(decoy_name(i), 0, 100).expect("valid range"))
                .expect("unique decoy names");
        }

        let mut names: Vec<String> = (1..=config.family_depth)
            .map(|k| format!("fam_{k:02}"))
            .collect();
        names.extend((0..config.noise_events).map(|i| format!("bg_{i:02}")));
        let model = CoverageModel::from_names("synthetic", names).expect("unique names");

        // Hidden optimum coordinates in [0.3, 1.0): reachable but away
        // from the default low-quarter bias.
        let optimum: Vec<f64> = (0..config.relevant_params)
            .map(|i| {
                let h = mix_seed(config.seed, i as u64);
                0.3 + 0.7 * ((h % 10_000) as f64 / 10_000.0)
            })
            .collect();

        // Stock library: a smoke template, one mild template per knob pair
        // (the TAC signal), and decoy templates.
        let mut library = TemplateLibrary::new();
        library
            .push(TestTemplate::builder("syn_smoke").build())
            .expect("unique");
        // The "all knobs" template the coarse search should find: every
        // relevant knob listed with mild, spread-out weights.
        let mut all_knobs = TestTemplate::builder("syn_sweep");
        for i in 0..config.relevant_params {
            all_knobs = all_knobs
                .weights(
                    knob_name(i),
                    [
                        (sub(0, 25), 40u32),
                        (sub(25, 50), 30),
                        (sub(50, 75), 20),
                        (sub(75, 100), 10),
                    ],
                )
                .expect("valid weights");
        }
        library.push(all_knobs.build()).expect("unique");
        for i in 0..config.irrelevant_params.min(4) {
            library
                .push(
                    TestTemplate::builder(format!("syn_decoy{i:02}"))
                        .range(decoy_name(i), 50, 100)
                        .expect("within domain")
                        .build(),
                )
                .expect("unique");
        }

        let fam_ids = (1..=config.family_depth)
            .map(|k| model.id(&format!("fam_{k:02}")).expect("family event"))
            .collect();
        let bg_ids = (0..config.noise_events)
            .map(|i| model.id(&format!("bg_{i:02}")).expect("bg event"))
            .collect();
        let param_id = |name: String| registry.id(&name).expect("registry parameter");
        let knob_ids = (0..config.relevant_params)
            .map(|i| param_id(knob_name(i)))
            .collect();
        let decoy_ids = (0..config.irrelevant_params)
            .map(|i| param_id(decoy_name(i)))
            .collect();
        SyntheticEnv {
            config,
            registry,
            model,
            library,
            optimum,
            fam_ids,
            bg_ids,
            knob_ids,
            decoy_ids,
        }
    }

    /// The configuration this environment was built with.
    #[must_use]
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// The hidden optimum (exposed for tests and oracle comparisons; a
    /// real verification environment has no such oracle).
    #[must_use]
    pub fn hidden_optimum(&self) -> &[f64] {
        &self.optimum
    }

    /// The quality threshold of family member `k` (1-based).
    #[must_use]
    pub fn threshold(&self, k: usize) -> f64 {
        let depth = self.config.family_depth as f64;
        let lo = 0.35;
        let hi = self.config.top_threshold;
        if depth <= 1.0 {
            hi
        } else {
            lo + (hi - lo) * ((k - 1) as f64 / (depth - 1.0))
        }
    }

    /// The quality score of a knob configuration (1 = at the hidden
    /// optimum). Quality is a *weakest-link* measure — one distant knob
    /// ruins it — because hardware corner events require every condition
    /// to align simultaneously.
    #[must_use]
    pub fn quality(&self, xs: &[f64]) -> f64 {
        let max_dist = xs
            .iter()
            .zip(&self.optimum)
            .map(|(x, o)| (x - o).abs())
            .fold(0.0, f64::max);
        1.0 - max_dist
    }

    /// One simulation into a caller-provided knob buffer and zeroed
    /// coverage sink (shared by the per-sim, batch, and bit-plane entry
    /// points — the sink is a `CoverageVector` or a plane lane).
    fn simulate_into<S: CoverageSink>(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
        xs: &mut Vec<f64>,
        cov: &mut S,
    ) -> Result<(), EnvError> {
        let mut sampler = ParamSampler::new(resolved, sampler_seed);
        // Draw the knob configuration of this instance.
        xs.clear();
        for &id in &self.knob_ids {
            xs.push(sampler.sample_int(id)? as f64 / 100.0);
        }
        // Decoys are drawn (consuming entropy, like real generators) but
        // do not influence the family.
        let mut decoy_acc = 0i64;
        for &id in &self.decoy_ids {
            decoy_acc ^= sampler.sample_int(id)?;
        }

        let s = self.quality(xs);
        for (k, &id) in self.fam_ids.iter().enumerate() {
            let p = sigmoid(self.config.hardness * (s - self.threshold(k + 1)));
            // Hardware events have a true cliff: far below the threshold
            // the event is *impossible*, not merely unlikely. Clipping the
            // sigmoid tail reproduces that (and keeps the deep family
            // genuinely uncovered under default traffic).
            let p = if p < PROBABILITY_FLOOR { 0.0 } else { p };
            if sampler.chance(p) {
                cov.hit(id);
            }
        }
        // Background events: fixed probabilities, lightly keyed off the
        // decoys so decoy templates still move *something*.
        for (i, &id) in self.bg_ids.iter().enumerate() {
            let base = 0.6 / (i + 1) as f64;
            let p = base + ((decoy_acc >> i) & 1) as f64 * 0.05;
            if sampler.chance(p) {
                cov.hit(id);
            }
        }
        Ok(())
    }
}

/// Hit probabilities below this floor are clipped to zero (the cliff).
pub const PROBABILITY_FLOOR: f64 = 0.02;

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl VerifEnv for SyntheticEnv {
    fn unit_name(&self) -> &str {
        "synthetic"
    }

    fn registry(&self) -> &ParamRegistry {
        &self.registry
    }

    fn coverage_model(&self) -> &CoverageModel {
        &self.model
    }

    fn stock_library(&self) -> &TemplateLibrary {
        &self.library
    }

    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        self.registry.check_layout(resolved)?;
        let mut xs = Vec::with_capacity(self.config.relevant_params);
        let mut cov = CoverageVector::empty(self.model.len());
        self.simulate_into(resolved, sampler_seed, &mut xs, &mut cov)?;
        Ok(cov)
    }

    fn simulate_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        self.registry.check_layout(resolved)?;
        let SimScratch { knob_xs, plane, .. } = scratch;
        plane.begin(self.model.len(), seeds.len());
        for (lane, &seed) in seeds.iter().enumerate() {
            self.simulate_into(resolved, seed, knob_xs, &mut plane.lane(lane))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascdg_stimgen::instance_seed;

    #[test]
    fn construction_and_shapes() {
        let env = SyntheticEnv::default();
        assert_eq!(env.coverage_model().len(), 8 + 8);
        assert_eq!(env.registry().len(), 4 + 6);
        assert!(env.stock_library().len() >= 3);
        assert_eq!(env.hidden_optimum().len(), 4);
        for o in env.hidden_optimum() {
            assert!((0.3..1.0).contains(o));
        }
    }

    #[test]
    fn thresholds_climb_with_depth() {
        let env = SyntheticEnv::default();
        for k in 1..8 {
            assert!(env.threshold(k) < env.threshold(k + 1));
        }
        assert!((env.threshold(8) - 0.93).abs() < 1e-12);
    }

    #[test]
    fn quality_peaks_at_hidden_optimum() {
        let env = SyntheticEnv::default();
        let o = env.hidden_optimum().to_vec();
        assert!((env.quality(&o) - 1.0).abs() < 1e-12);
        let far: Vec<f64> = o.iter().map(|v| 1.0 - v).collect();
        assert!(env.quality(&far) < 1.0);
    }

    #[test]
    fn default_traffic_misses_deep_family() {
        let env = SyntheticEnv::default();
        let smoke = env.stock_library().by_name("syn_smoke").unwrap().1.clone();
        let resolved = env.registry().resolve(&smoke).unwrap();
        let deep = env.coverage_model().id("fam_08").unwrap();
        let shallow = env.coverage_model().id("fam_01").unwrap();
        let mut deep_hits = 0;
        let mut shallow_hits = 0;
        for s in 0..300 {
            let cov = env
                .simulate_seeded(&resolved, instance_seed(s, "smoke", 0))
                .unwrap();
            deep_hits += u64::from(cov.get(deep));
            shallow_hits += u64::from(cov.get(shallow));
        }
        assert_eq!(deep_hits, 0, "deep family reachable by defaults");
        assert!(shallow_hits > 0, "shallow family should have evidence");
    }

    #[test]
    fn oracle_template_hits_deep_family() {
        // Build a template whose knob weights concentrate on the subrange
        // containing each hidden-optimum coordinate.
        let env = SyntheticEnv::default();
        let sub = |lo, hi| Value::SubRange { lo, hi };
        let mut b = TestTemplate::builder("oracle");
        for (i, &o) in env.hidden_optimum().iter().enumerate() {
            let q = ((o * 100.0) as i64 / 25).min(3);
            let quarters = [(0, 25), (25, 50), (50, 75), (75, 100)];
            b = b
                .weights(
                    knob_name(i),
                    quarters
                        .iter()
                        .enumerate()
                        .map(|(j, &(lo, hi))| (sub(lo, hi), u32::from(j as i64 == q) * 100)),
                )
                .unwrap();
        }
        let oracle = b.build();
        env.registry().validate(&oracle).unwrap();
        let resolved = env.registry().resolve(&oracle).unwrap();
        let deep = env.coverage_model().id("fam_08").unwrap();
        let mut hits = 0;
        for s in 0..300 {
            let cov = env
                .simulate_seeded(&resolved, instance_seed(s, "oracle", 0))
                .unwrap();
            hits += u64::from(cov.get(deep));
        }
        assert!(hits > 10, "oracle template should reach fam_08: {hits}/300");
    }

    #[test]
    fn hardness_controls_difficulty() {
        let soft = SyntheticEnv::new(SyntheticConfig {
            hardness: 10.0,
            ..SyntheticConfig::default()
        });
        let hard = SyntheticEnv::default();
        let rate = |env: &SyntheticEnv| {
            let t = env.stock_library().by_name("syn_sweep").unwrap().1.clone();
            let resolved = env.registry().resolve(&t).unwrap();
            let deep = env.coverage_model().id("fam_08").unwrap();
            (0..400)
                .filter(|&s| {
                    env.simulate_seeded(&resolved, instance_seed(s, "sweep", 0))
                        .unwrap()
                        .get(deep)
                })
                .count()
        };
        assert!(
            rate(&soft) > rate(&hard),
            "lower hardness must make the deep family easier"
        );
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let env = SyntheticEnv::default();
        let t = env.stock_library().get(1).unwrap().clone();
        assert_eq!(env.simulate(&t, 5).unwrap(), env.simulate(&t, 5).unwrap());
        let other = SyntheticEnv::new(SyntheticConfig {
            seed: 999,
            ..SyntheticConfig::default()
        });
        assert_ne!(env.hidden_optimum(), other.hidden_optimum());
    }

    #[test]
    fn full_flow_closes_coverage_on_synthetic_unit() {
        use ascdg_coverage::EventFamily;
        let env = SyntheticEnv::default();
        // The family must be discoverable by stem so the flow's
        // `run_for_family("fam_", ...)` entry point works.
        let fams = EventFamily::discover(env.coverage_model());
        assert!(fams.iter().any(|f| f.stem() == "fam_"));
    }
}
