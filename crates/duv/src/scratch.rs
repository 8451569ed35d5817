//! Per-worker scratch state for batched simulation.

use ascdg_coverage::CoveragePlane;
use ascdg_stimgen::{FetchOp, IoCommand, MemRequest};

use crate::kernel::DelayLine;
use crate::l3cache::L3State;

/// Arena-reused buffers for a worker's batched simulations.
///
/// One `SimScratch` belongs to one worker thread and is threaded through
/// [`VerifEnv::simulate_plane`](crate::VerifEnv::simulate_plane) calls.
/// Each unit's plane kernel reuses the buffers it needs — stimulus program
/// storage, cycle-model state (cache sets, delay lines), and the coverage
/// bit-plane it records into — instead of reallocating them per
/// simulation. The scratch never influences results: every buffer is
/// cleared (not trusted) before a simulation uses it, so a fresh scratch
/// and a heavily reused one produce byte-identical coverage.
///
/// # Examples
///
/// ```
/// use ascdg_coverage::CoverageVector;
/// use ascdg_duv::{io_unit::IoEnv, SimScratch, VerifEnv};
///
/// let env = IoEnv::new();
/// let t = env.stock_library().get(0).unwrap().clone();
/// let resolved = env.registry().resolve(&t).unwrap();
/// let mut scratch = SimScratch::new();
/// env.simulate_plane(&resolved, &[1, 2, 3], &mut scratch).unwrap();
/// let mut lane = CoverageVector::empty(env.coverage_model().len());
/// scratch.plane().extract_into(2, &mut lane);
/// assert_eq!(lane, env.simulate_seeded(&resolved, 3).unwrap());
/// ```
#[derive(Debug, Default)]
pub struct SimScratch {
    /// IFU fetch programs of the whole chunk, laid out back to back.
    pub(crate) fetch_ops: Vec<FetchOp>,
    /// Prefix bounds into `fetch_ops`: program `i` is `bounds[i]..bounds[i+1]`.
    pub(crate) fetch_bounds: Vec<usize>,
    /// L3 stimulus program of the current simulation.
    pub(crate) mem_ops: Vec<MemRequest>,
    /// I/O-unit stimulus program of the current simulation.
    pub(crate) io_cmds: Vec<IoCommand>,
    /// L3 cache sets and in-flight fills.
    pub(crate) l3: L3State,
    /// I/O-unit outstanding completion responses.
    pub(crate) io_responses: DelayLine<()>,
    /// Synthetic-unit knob coordinates.
    pub(crate) knob_xs: Vec<f64>,
    /// The recycled coverage bit-plane
    /// [`VerifEnv::simulate_plane`](crate::VerifEnv::simulate_plane)
    /// records the current block into.
    pub(crate) plane: CoveragePlane,
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// The bit-plane the last
    /// [`VerifEnv::simulate_plane`](crate::VerifEnv::simulate_plane)
    /// call recorded into — callers fold or extract lanes from it.
    #[must_use]
    pub fn plane(&self) -> &CoveragePlane {
        &self.plane
    }

    /// Mutable access to the recycled bit-plane (kernels `begin` a block
    /// on it before recording).
    #[must_use]
    pub fn plane_mut(&mut self) -> &mut CoveragePlane {
        &mut self.plane
    }
}
