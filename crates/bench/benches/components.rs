//! Criterion micro-benches for the individual AS-CDG components:
//! simulator throughput per unit (one instance, and 64-seed plane blocks
//! of a stock and a tuned template, and those blocks against the
//! sequential loop they replaced), the optimizer's per-iteration cost on
//! a synthetic objective, template parsing, and skeleton instantiation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ascdg_core::{BatchStats, Skeletonizer};
use ascdg_duv::{ifu::IfuEnv, io_unit::IoEnv, l3cache::L3Env, SimScratch, VerifEnv};
use ascdg_opt::{testfn, Bounds, IfOptions, ImplicitFiltering, Optimizer};
use ascdg_stimgen::{instance_seed, SeedStream};
use ascdg_template::TestTemplate;

fn bench_simulators(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate_one_instance");
    g.throughput(Throughput::Elements(1));

    let io = IoEnv::new();
    let io_t = io
        .stock_library()
        .by_name("io_burst_stress")
        .unwrap()
        .1
        .clone();
    let io_r = io.registry().resolve(&io_t).unwrap();
    g.bench_function("io_unit", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(
                io.simulate_seeded(&io_r, instance_seed(seed, "bench", 0))
                    .unwrap(),
            )
        })
    });

    let l3 = L3Env::new();
    let l3_t = l3
        .stock_library()
        .by_name("l3_capacity_stress")
        .unwrap()
        .1
        .clone();
    let l3_r = l3.registry().resolve(&l3_t).unwrap();
    g.bench_function("l3cache", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(
                l3.simulate_seeded(&l3_r, instance_seed(seed, "bench", 0))
                    .unwrap(),
            )
        })
    });

    let ifu = IfuEnv::new();
    let ifu_t = ifu
        .stock_library()
        .by_name("ifu_backpressure")
        .unwrap()
        .1
        .clone();
    let ifu_r = ifu.registry().resolve(&ifu_t).unwrap();
    g.bench_function("ifu", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(
                ifu.simulate_seeded(&ifu_r, instance_seed(seed, "bench", 0))
                    .unwrap(),
            )
        })
    });
    g.finish();
}

/// Tuned templates of the shape a closure's optimizer converges to: they
/// drive each unit's deep family, where a simulation costs the most.
const TUNED: [&str; 3] = [
    "template io_deep_crc {
       param PktLen: weights { [8, 16): 100 }
       param Gap: range [0, 2)
       param Channel: weights { 1: 100 }
       param CrcEn: weights { on: 100 }
       param ErrPct: range [0, 1)
       param RespDelay: weights { [16, 28): 50, [28, 40): 50 }
       param PktCount: range [40, 48)
     }",
    "template l3_deep_prefetch {
       param WorkingSet: weights { [4096, 32768): 100 }
       param GapL3: range [12, 13)
       param RwMix: weights { prefetch: 90, load: 10 }
       param PfDepth: weights { [3, 6): 100 }
       param ReqCount: range [190, 200)
     }",
    "template ifu_thread3_backpressure {
       param StallPct: weights { [30, 60): 30, [60, 90): 70 }
       param ThreadMix: weights { 0: 10, 1: 10, 2: 20, 3: 60 }
       param BranchPct: range [20, 40)
       param FetchAlign: weights { seq: 50, jump: 50 }
       param FetchCount: range [180, 240)
     }",
];

/// One warmed 64-seed `simulate_plane` block per unit, for the unit's
/// smoke template (stock) and a tuned one: the per-unit kernel cost the
/// closure and regression workloads are made of.
fn bench_plane_blocks(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate_plane_64");
    g.throughput(Throughput::Elements(64));
    let envs: [Box<dyn VerifEnv>; 3] = [
        Box::new(IoEnv::new()),
        Box::new(L3Env::new()),
        Box::new(IfuEnv::new()),
    ];
    for (env, tuned) in envs.iter().zip(TUNED) {
        let stock = env.stock_library().get(0).unwrap().clone();
        let tuned = TestTemplate::parse(tuned).unwrap();
        for (kind, t) in [("stock", stock), ("tuned", tuned)] {
            let resolved = env.registry().resolve(&t).unwrap();
            let stream = SeedStream::new(1, t.name());
            let mut scratch = SimScratch::new();
            let mut block = 0u64;
            g.bench_function(&format!("{}/{kind}", env.unit_name()), |b| {
                b.iter(|| {
                    block += 1;
                    let seeds: [u64; 64] =
                        std::array::from_fn(|i| stream.sampler_seed(block * 64 + i as u64));
                    env.simulate_plane(&resolved, black_box(&seeds), &mut scratch)
                        .unwrap();
                    black_box(scratch.plane());
                })
            });
        }
    }
    g.finish();
}

/// The bit-plane path against the sequential loop it replaced, per unit,
/// for the stock and tuned templates of [`bench_plane_blocks`], on the
/// same 64 seeds, with the statistics fold included on both sides:
/// `simulate_plane` + [`BatchStats::fold_plane`] (`.../plane`) against
/// 64 `simulate_seeded` calls + [`BatchStats::record`] (`.../loop`).
fn bench_plane_vs_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("plane_vs_loop_64");
    g.throughput(Throughput::Elements(64));
    let envs: [Box<dyn VerifEnv>; 3] = [
        Box::new(IoEnv::new()),
        Box::new(L3Env::new()),
        Box::new(IfuEnv::new()),
    ];
    for (env, tuned) in envs.iter().zip(TUNED) {
        let stock = env.stock_library().get(0).unwrap().clone();
        let tuned = TestTemplate::parse(tuned).unwrap();
        let events = env.coverage_model().len();
        for (kind, t) in [("stock", stock), ("tuned", tuned)] {
            let resolved = env.registry().resolve(&t).unwrap();
            let stream = SeedStream::new(1, t.name());
            let seeds: [u64; 64] = std::array::from_fn(|i| stream.sampler_seed(i as u64));
            let mut scratch = SimScratch::new();
            g.bench_function(&format!("{}/{kind}/plane", env.unit_name()), |b| {
                b.iter(|| {
                    let mut stats = BatchStats::empty(events);
                    env.simulate_plane(&resolved, black_box(&seeds), &mut scratch)
                        .unwrap();
                    stats.fold_plane(scratch.plane());
                    stats
                })
            });
            g.bench_function(&format!("{}/{kind}/loop", env.unit_name()), |b| {
                b.iter(|| {
                    let mut stats = BatchStats::empty(events);
                    for &seed in black_box(&seeds) {
                        stats.record(&env.simulate_seeded(&resolved, seed).unwrap());
                    }
                    stats
                })
            });
        }
    }
    g.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    c.bench_function("implicit_filtering_100_iters_dim8", |b| {
        b.iter(|| {
            let mut f = testfn::with_noise(testfn::sphere(vec![0.5; 8]), 0.05, 3);
            ImplicitFiltering::new(IfOptions {
                max_iters: 100,
                ..IfOptions::default()
            })
            .maximize(&mut f, &Bounds::unit(8), &[0.1; 8], black_box(5))
        })
    });
}

fn bench_template_pipeline(c: &mut Criterion) {
    let src = r#"
        template lsu_stress {
          param Mnemonic: weights { load: 30, store: 30, add: 0, sync: 5 }
          param CacheDelay: range [0, 100)
          param Threads: weights { 0: 40, 1: 30, 2: 20, 3: 10 }
        }
    "#;
    c.bench_function("template_parse", |b| {
        b.iter(|| TestTemplate::parse(black_box(src)).unwrap())
    });

    let template = TestTemplate::parse(src).unwrap();
    let skeleton = Skeletonizer::new().skeletonize(&template).unwrap();
    let settings = vec![0.5; skeleton.num_slots()];
    c.bench_function("skeleton_instantiate", |b| {
        b.iter(|| skeleton.instantiate(black_box(&settings)).unwrap())
    });
}

criterion_group! {
    name = components;
    config = Criterion::default().sample_size(20);
    targets = bench_simulators, bench_plane_blocks, bench_plane_vs_loop, bench_optimizer,
        bench_template_pipeline
}
criterion_main!(components);
