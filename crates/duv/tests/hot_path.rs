//! Pins on the simulation hot path of every built-in unit.
//!
//! * **Zero allocation.** A counting global allocator keeps a per-thread
//!   allocation count. Once a [`SimScratch`] is warm, a 64-seed
//!   [`VerifEnv::simulate_plane`] block must allocate nothing, for every
//!   unit and every stock template: parameter draws and coverage hits are
//!   slot and event indices resolved when the environment was built, never
//!   name lookups, owned strings or formatted event names.
//! * **Golden streams.** The differential suite compares two paths that
//!   share one sampler, so it cannot see a change in draw order. Here an
//!   FNV-1a digest of the [`VerifEnv::simulate_seeded`] coverage of every
//!   stock template at seeds `0..32` is pinned per unit; any change to
//!   the RNG stream a simulation consumes changes the digest.
//! * **Foreign layouts.** A resolved parameter set from a registry with
//!   another slot layout is rejected with a typed error before any draw.
//!
//! ```sh
//! cargo test -p ascdg-duv --release --test hot_path
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ascdg_duv::ifu::IfuEnv;
use ascdg_duv::io_unit::IoEnv;
use ascdg_duv::l3cache::L3Env;
use ascdg_duv::synthetic::SyntheticEnv;
use ascdg_duv::{EnvError, SimScratch, VerifEnv};
use ascdg_stimgen::SeedStream;
use ascdg_template::{ParamRegistry, TemplateError};

/// The system allocator, counting every allocation of the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn units() -> Vec<Box<dyn VerifEnv>> {
    vec![
        Box::new(IoEnv::new()),
        Box::new(L3Env::new()),
        Box::new(IfuEnv::new()),
        Box::new(SyntheticEnv::default()),
    ]
}

#[test]
fn warmed_plane_blocks_allocate_nothing() {
    let mut allocating = Vec::new();
    for env in units() {
        for (_, t) in env.stock_library().iter() {
            let resolved = env.registry().resolve(t).unwrap();
            let stream = SeedStream::new(0, t.name());
            let seeds: Vec<u64> = (0..64).map(|i| stream.sampler_seed(i)).collect();
            let mut scratch = SimScratch::new();
            // The first block grows the scratch buffers to this block's
            // needs; the second must reuse them as they are.
            env.simulate_plane(&resolved, &seeds, &mut scratch).unwrap();
            let n = allocations_during(|| {
                env.simulate_plane(&resolved, &seeds, &mut scratch).unwrap();
            });
            if n > 0 {
                allocating.push(format!("{}/{}: {n}", env.unit_name(), t.name()));
            }
        }
    }
    assert!(
        allocating.is_empty(),
        "warmed 64-seed blocks allocated: {allocating:?}"
    );
}

/// 64-bit FNV-1a, continued from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of the coverage of every stock template at seeds `0..32`.
fn stream_digest(env: &dyn VerifEnv) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (_, t) in env.stock_library().iter() {
        let resolved = env.registry().resolve(t).unwrap();
        for seed in 0..32 {
            let cov = env.simulate_seeded(&resolved, seed).unwrap();
            hash = fnv1a(hash, &(cov.len() as u64).to_le_bytes());
            for word in cov.fold_words() {
                hash = fnv1a(hash, &word.to_le_bytes());
            }
        }
    }
    hash
}

#[test]
fn golden_streams_are_unchanged() {
    let golden = [
        ("io_unit", 0xc24b_d3df_6bfc_b3be),
        ("l3cache", 0x4774_1194_76d4_0be1),
        ("ifu", 0x8ca1_0079_7c31_9e60),
        ("synthetic", 0xfdc0_97ed_7189_9a54),
    ];
    for (env, (unit, want)) in units().iter().zip(golden) {
        assert_eq!(env.unit_name(), unit);
        let got = stream_digest(env.as_ref());
        assert_eq!(
            got, want,
            "{unit}: coverage stream digest {got:#018x} != golden {want:#018x}"
        );
    }
}

/// Asserts that `registry`'s resolution of the unit's first stock
/// template is refused by both simulate entry points with a typed layout
/// error, leaving no result behind.
fn assert_foreign_layout_refused(env: &dyn VerifEnv, registry: &ParamRegistry) {
    let t = env.stock_library().get(0).unwrap();
    let foreign = registry.resolve(t).unwrap();
    let is_layout_error =
        |e: &EnvError| matches!(e, EnvError::Template(TemplateError::LayoutMismatch { .. }));
    match env.simulate_seeded(&foreign, 1) {
        Err(e) => assert!(is_layout_error(&e), "{}: {e}", env.unit_name()),
        Ok(_) => panic!(
            "{}: simulate_seeded accepted a foreign layout",
            env.unit_name()
        ),
    }
    let mut scratch = SimScratch::new();
    match env.simulate_plane(&foreign, &[1, 2, 3], &mut scratch) {
        Err(e) => assert!(is_layout_error(&e), "{}: {e}", env.unit_name()),
        Ok(()) => panic!(
            "{}: simulate_plane accepted a foreign layout",
            env.unit_name()
        ),
    }
}

#[test]
fn reordered_registry_is_a_typed_error() {
    for env in units() {
        // The same parameters, declared in reverse order.
        let mut defs: Vec<_> = env.registry().iter().cloned().collect();
        defs.reverse();
        let reordered: ParamRegistry = defs.into_iter().collect();
        assert_foreign_layout_refused(env.as_ref(), &reordered);
    }
}

#[test]
fn shorter_registry_is_a_typed_error() {
    for env in units() {
        // All but the last declared parameter. Each unit's first stock
        // template is its smoke template, which overrides nothing, so it
        // still resolves against the shorter registry.
        let mut defs: Vec<_> = env.registry().iter().cloned().collect();
        defs.pop();
        let shorter: ParamRegistry = defs.into_iter().collect();
        assert_foreign_layout_refused(env.as_ref(), &shorter);
    }
}
