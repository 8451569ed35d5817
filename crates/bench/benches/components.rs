//! Criterion micro-benches for the individual AS-CDG components:
//! simulator throughput per unit, the optimizer's per-iteration cost on a
//! synthetic objective, template parsing, and skeleton instantiation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ascdg_core::Skeletonizer;
use ascdg_duv::{ifu::IfuEnv, io_unit::IoEnv, l3cache::L3Env, VerifEnv};
use ascdg_opt::{testfn, Bounds, IfOptions, ImplicitFiltering, Optimizer};
use ascdg_stimgen::instance_seed;
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
    targets = bench_simulators, bench_optimizer, bench_template_pipeline
}
criterion_main!(components);
