//! Differential tests pinning the bit-plane entry
//! [`VerifEnv::simulate_plane`] to the sequential
//! [`VerifEnv::simulate_seeded`] loop, byte for byte.
//!
//! Every built-in unit overrides `simulate_plane` with a specialized
//! kernel that generates stimulus into a reused scratch arena and runs the
//! cycle loops back to back, recording into a transposed coverage
//! bit-plane; a fifth case ([`SeededOnly`]) runs the trait's default
//! scatter bridge. These tests are the contract that every plane path is
//! *purely* a throughput change: for every unit, every chunking (1, 2, 63,
//! 64, 65, 127, ragged tails) and every seed stream, the extracted plane
//! lanes equal the one-at-a-time reference, including when the scratch
//! arena is warm from unrelated prior blocks, and when several worker
//! threads simulate the same work concurrently (`ASCDG_TEST_THREADS`
//! sizes the matrix).

use ascdg_coverage::{CoverageModel, CoverageVector, PLANE_LANES};
use ascdg_duv::ifu::IfuEnv;
use ascdg_duv::io_unit::IoEnv;
use ascdg_duv::l3cache::L3Env;
use ascdg_duv::synthetic::SyntheticEnv;
use ascdg_duv::{EnvError, SimScratch, VerifEnv};
use ascdg_template::{ParamRegistry, ResolvedParams, TemplateLibrary};
use proptest::prelude::*;

/// Worker-thread matrix width (`ASCDG_TEST_THREADS`, default 4).
fn test_threads() -> usize {
    std::env::var("ASCDG_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

/// An environment that writes only the required methods, delegating to a
/// built-in unit — so its `simulate_plane` is the trait's default bridge
/// over `simulate_seeded`, the path an external environment takes.
struct SeededOnly<E>(E);

impl<E: VerifEnv> VerifEnv for SeededOnly<E> {
    /// A name of its own, so a failing assertion tells the default bridge
    /// apart from the wrapped unit's native kernel.
    fn unit_name(&self) -> &str {
        "seeded_only"
    }

    fn registry(&self) -> &ParamRegistry {
        self.0.registry()
    }

    fn coverage_model(&self) -> &CoverageModel {
        self.0.coverage_model()
    }

    fn stock_library(&self) -> &TemplateLibrary {
        self.0.stock_library()
    }

    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        self.0.simulate_seeded(resolved, sampler_seed)
    }
}

/// Number of [`with_env`] cases: the four built-in environments plus the
/// default-bridge wrapper.
const ENVS: usize = 5;

/// Runs `f` against one of the four built-in environments, or (case 4) an
/// ifu wrapped in [`SeededOnly`] to exercise the default bridge.
fn with_env<R>(which: usize, f: impl FnOnce(&dyn VerifEnv) -> R) -> R {
    match which % ENVS {
        0 => f(&IfuEnv::new()),
        1 => f(&L3Env::new()),
        2 => f(&IoEnv::new()),
        3 => f(&SyntheticEnv::default()),
        _ => f(&SeededOnly(IfuEnv::new())),
    }
}

/// SplitMix64-style per-instance seeds — same shape the batch runners
/// derive from a [`ascdg_stimgen::SeedStream`], without depending on it.
fn seed_vec(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut z = base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// The sequential reference: one `simulate_seeded` per seed, in order.
fn sequential(env: &dyn VerifEnv, resolved: &ResolvedParams, seeds: &[u64]) -> Vec<CoverageVector> {
    seeds
        .iter()
        .map(|&s| env.simulate_seeded(resolved, s).expect("simulate_seeded"))
        .collect()
}

/// The bit-plane run: `simulate_plane` over `chunk`-sized slices split
/// into kernel rounds of at most [`PLANE_LANES`] seeds — exactly the shape
/// the batch runner dispatches — reusing one scratch arena across all
/// chunks so later chunks hit warm buffers, then extracting every lane
/// back to row-major form for comparison.
fn planed(
    env: &dyn VerifEnv,
    resolved: &ResolvedParams,
    seeds: &[u64],
    chunk: usize,
) -> Vec<CoverageVector> {
    let events = env.coverage_model().len();
    let mut scratch = SimScratch::new();
    let mut out = Vec::with_capacity(seeds.len());
    for block in seeds.chunks(chunk.max(1)) {
        for round in block.chunks(PLANE_LANES) {
            env.simulate_plane(resolved, round, &mut scratch)
                .expect("simulate_plane");
            for lane in 0..round.len() {
                let mut v = CoverageVector::empty(events);
                scratch.plane().extract_into(lane, &mut v);
                out.push(v);
            }
        }
    }
    out
}

/// One differential check: resolve a stock template, run both paths over
/// the same seeds, demand equality — on this thread and on every
/// thread of the `ASCDG_TEST_THREADS` matrix with its own scratch arena.
fn check(which: usize, tmpl_idx: usize, base_seed: u64, sims: usize, chunk: usize) {
    with_env(which, |env| {
        let library = env.stock_library();
        let template = library
            .get(tmpl_idx % library.len())
            .expect("stock template");
        let resolved = env.registry().resolve(template).expect("resolve");
        let seeds = seed_vec(base_seed, sims);
        let reference = sequential(env, &resolved, &seeds);
        assert_eq!(
            planed(env, &resolved, &seeds, chunk),
            reference,
            "{} plane (chunk {chunk}) diverged from sequential",
            env.unit_name()
        );
        std::thread::scope(|scope| {
            for _ in 0..test_threads() {
                scope.spawn(|| {
                    assert_eq!(
                        planed(env, &resolved, &seeds, chunk),
                        reference,
                        "{} concurrent plane (chunk {chunk}) diverged",
                        env.unit_name()
                    );
                });
            }
        });
    });
}

/// The chunkings the batch runner actually produces around its 64-wide
/// kernel block: single, tiny, one-under, exact, one-over, two-minus-one
/// — each leaving a different ragged tail of 130 sims.
#[test]
fn kernel_block_edges_are_identical_for_every_unit() {
    for which in 0..ENVS {
        for chunk in [1usize, 2, 63, 64, 65, 127] {
            check(which, 0, 0xB47C_0000 + chunk as u64, 130, chunk);
        }
    }
}

/// A warm arena carried across *templates* must not leak state: interleave
/// two templates through one scratch and compare each against its own
/// fresh-scratch reference.
#[test]
fn warm_scratch_does_not_leak_across_templates() {
    for which in 0..ENVS {
        with_env(which, |env| {
            let library = env.stock_library();
            let a = library.get(0).expect("template 0");
            let b = library.get(1 % library.len()).expect("template 1");
            let ra = env.registry().resolve(a).expect("resolve a");
            let rb = env.registry().resolve(b).expect("resolve b");
            let seeds = seed_vec(0x5EED, 97);
            let ref_a = sequential(env, &ra, &seeds);
            let ref_b = sequential(env, &rb, &seeds);
            let events = env.coverage_model().len();
            let mut scratch = SimScratch::new();
            for round in 0..2 {
                for (resolved, reference) in [(&ra, &ref_a), (&rb, &ref_b)] {
                    let mut lanes = Vec::new();
                    for block in seeds.chunks(PLANE_LANES) {
                        env.simulate_plane(resolved, block, &mut scratch)
                            .expect("plane");
                        for lane in 0..block.len() {
                            let mut v = CoverageVector::empty(events);
                            scratch.plane().extract_into(lane, &mut v);
                            lanes.push(v);
                        }
                    }
                    assert_eq!(
                        &lanes,
                        reference,
                        "{} round {round}: warm-scratch plane diverged",
                        env.unit_name()
                    );
                }
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary unit, template, seed stream, sim count and chunking:
    /// plane simulation is byte-identical to the sequential loop.
    #[test]
    fn batch_matches_sequential(
        which in 0usize..ENVS,
        tmpl_idx in 0usize..8,
        base_seed in any::<u64>(),
        sims in 1usize..140,
        chunk in prop_oneof![Just(1usize), Just(2), Just(63), Just(64), Just(65), 1usize..130],
    ) {
        check(which, tmpl_idx, base_seed, sims, chunk);
    }
}
