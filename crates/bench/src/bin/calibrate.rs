//! Calibration tool: per-stock-template hit rates for each unit's target
//! family. Used to tune the simulated DUVs so the "Before CDG" columns
//! match the paper's shape (deep family members uncovered, shallow ones
//! covered, monotone decay in between).
//!
//! Usage: `calibrate [unit] [--sims <n>]` where `unit` is `io`, `l3`,
//! `ifu` or `all` (default), and `--sims` is the per-template simulation
//! count (default 2000).

use ascdg_core::{pool_scope, FlowConfig, FlowEngine, Regression, TargetSpec};
use ascdg_coverage::{CoverageRepository, EventFamily, EventId, TemplateId};
use ascdg_duv::{ifu::IfuEnv, io_unit::IoEnv, l3cache::L3Env, VerifEnv};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let unit = args
        .get(1)
        .filter(|s| !s.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_owned());
    let sims = args
        .iter()
        .position(|a| a == "--sims")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000u64);

    if unit == "all" || unit == "io" {
        family_rates(&IoEnv::new(), "crc_", sims);
    }
    if unit == "all" || unit == "l3" {
        family_rates(&L3Env::new(), "byp_reqs", sims);
    }
    if unit == "all" || unit == "ifu" {
        ifu_depth(&IfuEnv::new(), sims);
    }
}

/// A regression session over `env`'s stock library, `sims` per template;
/// its repository keeps every template's statistics apart.
fn regression<E: VerifEnv>(env: &E, sims: u64) -> CoverageRepository {
    let config = FlowConfig {
        regression_sims_per_template: sims,
        ..FlowConfig::quick()
    };
    let state = pool_scope(0, |pool| {
        let engine = FlowEngine::with_stages(env, config, pool, vec![Box::new(Regression)]);
        let mut cx = engine.session(TargetSpec::Uncovered, 1);
        engine.step(&mut cx).expect("simulate");
        cx.into_state()
    });
    let snapshot = state.repo.expect("the regression recorded its repository");
    CoverageRepository::from_snapshot(env.coverage_model().clone(), &snapshot).expect("own model")
}

fn family_rates<E: VerifEnv>(env: &E, stem: &str, sims: u64) {
    let model = env.coverage_model();
    let family = EventFamily::discover(model)
        .into_iter()
        .find(|f| f.stem() == stem)
        .expect("family exists");
    let events = family.events();
    println!(
        "\n=== {} family `{stem}` ({sims} sims/template) ===",
        env.unit_name()
    );
    print!("{:<22}", "template");
    for &e in &events {
        print!(" {:>9}", model.name(e).trim_start_matches(stem));
    }
    println!();
    let repo = regression(env, sims);
    for (i, t) in env.stock_library().iter() {
        print!("{:<22}", t.name());
        for &e in &events {
            print!(
                " {:>9.5}",
                repo.template_stats(TemplateId(i as u32), e).rate()
            );
        }
        println!();
    }
    print!("{:<22}", "AGGREGATE");
    for &e in &events {
        print!(" {:>9.5}", repo.global_stats(e).rate());
    }
    println!();
}

fn ifu_depth(env: &IfuEnv, sims: u64) {
    let model = env.coverage_model();
    let cp = model.cross_product().expect("IFU is a cross product");
    println!("\n=== ifu entry-depth reach ({sims} sims/template) ===");
    println!(
        "{:<22} per-entry hit rate (any thread/sector/branch)",
        "template"
    );
    let repo = regression(env, sims);
    let rate = |hits: &dyn Fn(EventId) -> u64, sims: u64, entry: usize| {
        cp.slice(0, entry).iter().map(|&e| hits(e)).sum::<u64>() as f64 / sims as f64
    };
    for (i, t) in env.stock_library().iter() {
        let template = TemplateId(i as u32);
        print!("{:<22}", t.name());
        for entry in 0..8 {
            let hits = |e| repo.template_stats(template, e).hits;
            let sims = repo.template_simulations(template);
            print!(" e{entry}:{:>8.5}", rate(&hits, sims, entry));
        }
        println!();
    }
    print!("{:<22}", "AGGREGATE");
    for entry in 0..8 {
        let hits = |e| repo.global_stats(e).hits;
        print!(
            " e{entry}:{:>8.5}",
            rate(&hits, repo.total_simulations(), entry)
        );
    }
    println!();
}
