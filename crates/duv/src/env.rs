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
    /// Returns [`EnvError::Template`] with
    /// [`TemplateError::LayoutMismatch`](ascdg_template::TemplateError::LayoutMismatch)
    /// when `resolved` came from a registry with another slot layout (the
    /// environment's [`ParamId`](ascdg_template::ParamId)s would address
    /// the wrong parameters; checked once per call, before any draw), and
    /// [`EnvError::StimGen`] if generation draws an incompatible value
    /// (cannot happen for parameters validated by the registry).
    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError>;

    /// Simulates a kernel block of up to
    /// [`PLANE_LANES`](ascdg_coverage::PLANE_LANES) instances directly
    /// into the scratch's transposed coverage bit-plane (seed `i` owns
    /// lane `i`), leaving the block in `scratch.plane()`.
    ///
    /// The recorded plane is **byte-identical** to scattering each
    /// [`VerifEnv::simulate_seeded`] vector into its lane, in seed order.
    /// The default implementation is exactly that scatter bridge, so an
    /// environment that writes only `simulate_seeded` works unchanged; the
    /// built-in units override it with kernels that reuse the scratch
    /// buffers and whose cycle models record straight into the lane
    /// (`word(event) |= 1 << lane`), with no per-sim coverage allocation.
    ///
    /// # Errors
    ///
    /// Any [`VerifEnv::simulate_seeded`] error; the plane contents are
    /// unspecified after an error.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` exceeds one plane block
    /// ([`PLANE_LANES`](ascdg_coverage::PLANE_LANES) = 64 seeds).
    fn simulate_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        let plane = scratch.plane_mut();
        plane.begin(self.coverage_model().len(), seeds.len());
        for (lane, &seed) in seeds.iter().enumerate() {
            plane.record_vector(lane, &self.simulate_seeded(resolved, seed)?);
        }
        Ok(())
    }

    /// Validates, resolves and simulates a template in one call.
    ///
    /// The generator seed is derived from the template name and `seed`
    /// (`instance_seed(seed, template.name(), 0)`), so a (name, seed) pair
    /// is fully reproducible. Batch runners should resolve once via
    /// [`ParamRegistry::resolve`], hash the name once, and call
    /// [`VerifEnv::simulate_seeded`] per instance instead.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::Template`] when the template does not validate
    /// against the registry, or any [`VerifEnv::simulate_seeded`] error.
    fn simulate(&self, template: &TestTemplate, seed: u64) -> Result<CoverageVector, EnvError> {
        let resolved = self.registry().resolve(template)?;
        self.simulate_seeded(&resolved, instance_seed(seed, template.name(), 0))
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

    fn simulate_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        (**self).simulate_plane(resolved, seeds, scratch)
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

    fn simulate_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        (**self).simulate_plane(resolved, seeds, scratch)
    }
}
