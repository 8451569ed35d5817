//! Pins on the simulation hot path of every built-in unit.
//!
//! * **Zero allocation.** A counting global allocator keeps a per-thread
//!   allocation count. Once a [`SimScratch`] is warm, a 64-seed
//!   [`VerifEnv::simulate_plane`] block must allocate nothing, for every
//!   unit and every stock and tuned template: parameter draws and coverage
//!   hits are slot and event indices resolved when the environment was
//!   built, never name lookups, owned strings or formatted event names.
//! * **Golden streams.** The differential suite compares two paths that
//!   share one sampler, so it cannot see a change in draw order. Here an
//!   FNV-1a digest of the [`VerifEnv::simulate_seeded`] coverage of every
//!   stock template at seeds `0..32` is pinned per unit; any change to
//!   the RNG stream a simulation consumes changes the digest. Two tuned
//!   templates, of the shape a closure's optimizer produces, get digests
//!   of their own: they fill the L3 bypass pool to 8–15 slots and drive
//!   the IFU's thread 3 into deep buffer entries, which the stock digests
//!   barely see. No template can fill the pool (the front end spaces
//!   requests [`MIN_GAP`] cycles apart, which caps occupancy at 15), so
//!   hand-built L3 programs with back-to-back requests pin the full-pool
//!   paths: `byp_reqs16`, dropped prefetches and front-end stalls.
//! * **Foreign layouts.** A resolved parameter set from a registry with
//!   another slot layout, or with its symbolic values in another order,
//!   is rejected with a typed error before any draw.
//!
//! ```sh
//! cargo test -p ascdg-duv --release --test hot_path
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ascdg_duv::ifu::IfuEnv;
use ascdg_duv::io_unit::IoEnv;
use ascdg_duv::l3cache::{L3Env, MIN_GAP};
use ascdg_duv::synthetic::SyntheticEnv;
use ascdg_duv::{EnvError, SimScratch, VerifEnv};
use ascdg_stimgen::{MemOp, MemProgram, MemRequest, ParamSampler, SeedStream};
use ascdg_template::{ParamDef, ParamRegistry, TemplateError, TestTemplate, Value};

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

/// Tuned templates of the shape a closure's optimizer produces, which
/// reach deep cycle-model paths the stock templates rarely or never do.
fn tuned_templates(env: &dyn VerifEnv) -> Vec<TestTemplate> {
    let sub = |lo, hi| Value::SubRange { lo, hi };
    match env.unit_name() {
        // Deep prefetch bursts at the minimum gap over a cache-exceeding
        // working set, with a few demand loads in between.
        "l3cache" => vec![TestTemplate::builder("l3_deep_prefetch")
            .weights("WorkingSet", [(sub(4096, 32768), 100u32)])
            .unwrap()
            .range("GapL3", MIN_GAP, MIN_GAP + 1)
            .unwrap()
            .weights("RwMix", [("prefetch", 90u32), ("load", 10)])
            .unwrap()
            .weights("PfDepth", [(sub(3, 6), 100u32)])
            .unwrap()
            .range("ReqCount", 190, 200)
            .unwrap()
            .build()],
        // Heavy stalls and an SMT4 mix with thread 3 weighted in.
        "ifu" => vec![TestTemplate::builder("ifu_thread3_backpressure")
            .weights("StallPct", [(sub(30, 60), 30u32), (sub(60, 90), 70)])
            .unwrap()
            .weights(
                "ThreadMix",
                [
                    (Value::Int(0), 10u32),
                    (Value::Int(1), 10),
                    (Value::Int(2), 20),
                    (Value::Int(3), 60),
                ],
            )
            .unwrap()
            .range("BranchPct", 20, 40)
            .unwrap()
            .weights("FetchAlign", [("seq", 50u32), ("jump", 50)])
            .unwrap()
            .range("FetchCount", 180, 240)
            .unwrap()
            .build()],
        _ => Vec::new(),
    }
}

/// Every stock template of the unit, then its tuned ones.
fn all_templates(env: &dyn VerifEnv) -> Vec<TestTemplate> {
    let mut all: Vec<_> = env.stock_library().iter().map(|(_, t)| t.clone()).collect();
    all.extend(tuned_templates(env));
    all
}

#[test]
fn warmed_plane_blocks_allocate_nothing() {
    let mut allocating = Vec::new();
    for env in units() {
        for t in &all_templates(env.as_ref()) {
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

/// Digest of the coverage of `templates` at seeds `0..32`.
fn stream_digest<'a>(
    env: &dyn VerifEnv,
    templates: impl IntoIterator<Item = &'a TestTemplate>,
) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for t in templates {
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
        let stock = env.stock_library().iter().map(|(_, t)| t);
        let got = stream_digest(env.as_ref(), stock);
        assert_eq!(
            got, want,
            "{unit}: coverage stream digest {got:#018x} != golden {want:#018x}"
        );
    }
}

#[test]
fn tuned_golden_streams_are_unchanged() {
    let golden = [
        ("l3cache", 0x446f_f158_9706_8bfe),
        ("ifu", 0xc1b3_51e2_fe21_ccd1),
    ];
    for env in units() {
        let tuned = tuned_templates(env.as_ref());
        if tuned.is_empty() {
            continue;
        }
        let (_, want) = golden
            .iter()
            .find(|(unit, _)| *unit == env.unit_name())
            .expect("every tuned unit has a golden digest");
        let got = stream_digest(env.as_ref(), &tuned);
        assert_eq!(
            got,
            *want,
            "{}: tuned coverage stream digest {got:#018x} != golden {want:#018x}",
            env.unit_name()
        );
    }
}

/// A hand-built L3 program with back-to-back requests over a working set
/// larger than the cache, with repeats (hits, MSHR merges) and all three
/// ops: it saturates the bypass pool, which no template can.
fn saturating_l3_program(seed: u64) -> MemProgram {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..400)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            MemRequest {
                line_addr: (1 << 20) + x % 6000,
                op: match (x >> 32) % 8 {
                    0..=3 => MemOp::Prefetch,
                    4..=6 => MemOp::Load,
                    _ => MemOp::Store,
                },
                thread: ((x >> 40) & 3) as u8,
                gap: ((x >> 48) % 3) as u32,
            }
        })
        .collect()
}

#[test]
fn saturated_l3_streams_are_unchanged() {
    let env = L3Env::new();
    let model = env.coverage_model();
    let resolved = env
        .registry()
        .resolve(&TestTemplate::builder("saturate").build())
        .unwrap();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut union = ascdg_coverage::CoverageVector::empty(model.len());
    for seed in 0..32 {
        let mut sampler = ParamSampler::new(&resolved, seed);
        let program = saturating_l3_program(seed);
        let cov = env.run_program(&program, &mut sampler, seed % 2 == 0, (1 << 20, 4096), 0.2);
        for word in cov.fold_words() {
            hash = fnv1a(hash, &word.to_le_bytes());
        }
        union.union_with(&cov);
    }
    for name in [
        "byp_reqs16",
        "prefetch_dropped",
        "front_end_stall",
        "evict_line",
        "snoop_invalidate",
        "ld_hit",
    ] {
        assert!(union.get(model.id(name).unwrap()), "never hit {name}");
    }
    assert_eq!(
        hash, 0x0aa2_2149_be2c_b9cf,
        "saturated l3 digest {hash:#018x} changed"
    );
}

/// The tuned templates exist to reach paths the stock templates rarely or
/// never reach; this keeps their digests meaningful if the models are
/// retuned.
#[test]
fn tuned_templates_reach_the_deep_paths() {
    let deep: [(&str, &[&str]); 2] = [
        ("l3cache", &["byp_reqs08", "byp_reqs12", "byp_reqs15"]),
        (
            "ifu",
            &[
                "entry4_thread3_sector0_branch0",
                "entry5_thread3_sector1_branch1",
                "entry6_thread3_sector2_branch0",
            ],
        ),
    ];
    for env in units() {
        let Some((_, events)) = deep.iter().find(|(u, _)| *u == env.unit_name()) else {
            continue;
        };
        let model = env.coverage_model();
        let mut union = ascdg_coverage::CoverageVector::empty(model.len());
        for t in tuned_templates(env.as_ref()) {
            let resolved = env.registry().resolve(&t).unwrap();
            for seed in 0..32 {
                union.union_with(&env.simulate_seeded(&resolved, seed).unwrap());
            }
        }
        for name in *events {
            assert!(
                union.get(model.id(name).unwrap()),
                "{}: tuned templates never hit {name}",
                env.unit_name()
            );
        }
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
fn reordered_symbols_are_a_typed_error() {
    for env in units() {
        // The same parameters in the same order, each weight parameter
        // listing its values in reverse: symbol numbers name other values.
        // The synthetic unit draws no symbols, so it has nothing to refuse.
        let mut symbolic = false;
        let reordered: ParamRegistry = env
            .registry()
            .iter()
            .map(|def| match def.weighted_values() {
                Some(ws) => {
                    symbolic |= ws.iter().any(|w| matches!(w.value, Value::Ident(_)));
                    let reversed = ws.iter().rev().map(|w| (w.value.clone(), w.weight));
                    ParamDef::weights(def.name(), reversed).unwrap()
                }
                None => def.clone(),
            })
            .collect();
        if symbolic {
            assert_foreign_layout_refused(env.as_ref(), &reordered);
        }
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
