//! The verification-environment abstraction the AS-CDG flow runs against.

use ascdg_coverage::{CoverageModel, CoverageVector};
use ascdg_stimgen::instance_seed;
use ascdg_template::{ParamRegistry, ResolvedParams, TemplateLibrary, TestTemplate};

use crate::{EnvError, SimScratch};

/// A black-box verification environment: a simulated unit plus everything
/// the verification team built around it.
///
/// This is the entire surface the AS-CDG flow sees — matching the paper's
/// claim that the flow "operates outside the existing design and
/// verification environment". An environment bundles:
///
/// * the **parameter registry**: every generator parameter with its default
///   bias;
/// * the **stock template library**: the regression templates accumulated
///   during the project, which the coarse-grained search mines;
/// * the **coverage model**: the unit's declared events;
/// * the **simulator**: template + seed → coverage vector.
///
/// Implementations must be `Send + Sync`; the batch environment simulates
/// from many worker threads.
pub trait VerifEnv: Send + Sync {
    /// The unit's name (used in reports).
    fn unit_name(&self) -> &str;

    /// The parameter registry with environment defaults.
    fn registry(&self) -> &ParamRegistry;

    /// The unit's coverage model.
    fn coverage_model(&self) -> &CoverageModel;

    /// The existing test-template library.
    fn stock_library(&self) -> &TemplateLibrary;

    /// Simulates one test-instance generated from pre-resolved parameters
    /// with a fully-derived generator seed.
    ///
    /// `sampler_seed` is the final seed the environment hands its
    /// [`ParamSampler`](ascdg_stimgen::ParamSampler) — all derivation
    /// (base seed, template-name hash, instance index) has already
    /// happened in the caller. This is the batch hot path: runners hash
    /// the template name once per point
    /// ([`SeedStream`](ascdg_stimgen::SeedStream)) and derive each
    /// instance's seed with pure integer mixing, so the per-simulation
    /// cost carries no string hashing.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::StimGen`] if generation draws an incompatible
    /// value (cannot happen for parameters validated by the registry).
    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError>;

    /// Simulates a whole chunk of instances of one resolved template, one
    /// per entry of `seeds`, reusing the worker's `scratch` buffers.
    ///
    /// The result is **byte-identical** to calling
    /// [`VerifEnv::simulate_seeded`] once per seed, in order — the batch
    /// entry point exists purely for throughput: the built-in units
    /// override it with cache-resident kernels that generate every stimulus
    /// program into the scratch arena and run the cycle loops back to back
    /// over hot model state. The default implementation is that sequential
    /// loop (drawing coverage vectors from the scratch pool), so external
    /// environments keep working unchanged.
    ///
    /// # Errors
    ///
    /// Any [`VerifEnv::simulate_seeded`] error; partial results are
    /// discarded.
    fn simulate_batch(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<Vec<CoverageVector>, EnvError> {
        let _ = scratch;
        seeds
            .iter()
            .map(|&s| self.simulate_seeded(resolved, s))
            .collect()
    }

    /// Simulates a kernel block of up to
    /// [`PLANE_LANES`](ascdg_coverage::PLANE_LANES) instances directly
    /// into the scratch's transposed coverage bit-plane (seed `i` owns
    /// lane `i`), leaving the block in `scratch.plane()` — zero per-sim
    /// coverage allocation on the hot path.
    ///
    /// The recorded plane is **byte-identical** to scattering each
    /// [`VerifEnv::simulate_batch`] vector into its lane; the built-in
    /// units override this with kernels whose cycle models record
    /// straight into the lane (`word(event) |= 1 << lane`), and the
    /// default implementation is exactly that scatter bridge, so
    /// external environments keep working unchanged.
    ///
    /// # Errors
    ///
    /// Any [`VerifEnv::simulate_batch`] error; the plane contents are
    /// unspecified after an error.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` exceeds one plane block
    /// ([`PLANE_LANES`](ascdg_coverage::PLANE_LANES) = 64 seeds).
    fn simulate_batch_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        let events = self.coverage_model().len();
        let covs = self.simulate_batch(resolved, seeds, scratch)?;
        let plane = scratch.plane_mut();
        plane.begin(events, covs.len());
        for (lane, cov) in covs.iter().enumerate() {
            plane.record_vector(lane, cov);
        }
        for cov in covs {
            scratch.recycle(cov);
        }
        Ok(())
    }

    /// Simulates one test-instance generated from pre-resolved parameters,
    /// deriving the generator seed from the template name.
    ///
    /// `template_name` and `seed` identify the instance: the generator seed
    /// is derived from them (`instance_seed(seed, template_name, 0)`), so a
    /// (name, seed) pair is fully reproducible. Hot loops should hash the
    /// name once and call [`VerifEnv::simulate_seeded`] instead — the
    /// stream is byte-identical.
    ///
    /// # Errors
    ///
    /// Any [`VerifEnv::simulate_seeded`] error.
    fn simulate_resolved(
        &self,
        resolved: &ResolvedParams,
        template_name: &str,
        seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        self.simulate_seeded(resolved, instance_seed(seed, template_name, 0))
    }

    /// Validates, resolves and simulates a template in one call.
    ///
    /// Batch runners should resolve once via [`ParamRegistry::resolve`] and
    /// call [`VerifEnv::simulate_seeded`] per instance instead.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::Template`] when the template does not validate
    /// against the registry, or any [`VerifEnv::simulate_seeded`] error.
    fn simulate(&self, template: &TestTemplate, seed: u64) -> Result<CoverageVector, EnvError> {
        let resolved = self.registry().resolve(template)?;
        self.simulate_resolved(&resolved, template.name(), seed)
    }
}

impl<T: VerifEnv + ?Sized> VerifEnv for &T {
    fn unit_name(&self) -> &str {
        (**self).unit_name()
    }

    fn registry(&self) -> &ParamRegistry {
        (**self).registry()
    }

    fn coverage_model(&self) -> &CoverageModel {
        (**self).coverage_model()
    }

    fn stock_library(&self) -> &TemplateLibrary {
        (**self).stock_library()
    }

    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        (**self).simulate_seeded(resolved, sampler_seed)
    }

    fn simulate_batch(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<Vec<CoverageVector>, EnvError> {
        (**self).simulate_batch(resolved, seeds, scratch)
    }

    fn simulate_batch_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        (**self).simulate_batch_plane(resolved, seeds, scratch)
    }

    fn simulate_resolved(
        &self,
        resolved: &ResolvedParams,
        template_name: &str,
        seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        (**self).simulate_resolved(resolved, template_name, seed)
    }
}

impl<T: VerifEnv + ?Sized> VerifEnv for std::sync::Arc<T> {
    fn unit_name(&self) -> &str {
        (**self).unit_name()
    }

    fn registry(&self) -> &ParamRegistry {
        (**self).registry()
    }

    fn coverage_model(&self) -> &CoverageModel {
        (**self).coverage_model()
    }

    fn stock_library(&self) -> &TemplateLibrary {
        (**self).stock_library()
    }

    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        (**self).simulate_seeded(resolved, sampler_seed)
    }

    fn simulate_batch(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<Vec<CoverageVector>, EnvError> {
        (**self).simulate_batch(resolved, seeds, scratch)
    }

    fn simulate_batch_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        (**self).simulate_batch_plane(resolved, seeds, scratch)
    }

    fn simulate_resolved(
        &self,
        resolved: &ResolvedParams,
        template_name: &str,
        seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        (**self).simulate_resolved(resolved, template_name, seed)
    }
}
