//! Calibration tool: per-stock-template hit rates for each unit's target
//! family. Used to tune the simulated DUVs so the "Before CDG" columns
//! match the paper's shape (deep family members uncovered, shallow ones
//! covered, monotone decay in between).
//!
//! Usage: `calibrate [unit] [--sims <n>]` where `unit` is `io`, `l3`,
//! `ifu` or `all` (default), and `--sims` is the per-template simulation
//! count (default 2000).

use ascdg_core::{pool_scope, BatchRunner, BatchStats};
use ascdg_coverage::EventFamily;
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
    let total = pool_scope(0, |pool| {
        let runner = BatchRunner::new(pool);
        let mut total = BatchStats::empty(model.len());
        for (i, t) in env.stock_library().iter() {
            let stats = runner.run(env, t, sims, 1000 + i as u64).expect("simulate");
            print!("{:<22}", t.name());
            for &e in &events {
                print!(" {:>9.5}", stats.rate(e));
            }
            println!();
            total.merge(&stats);
        }
        total
    });
    print!("{:<22}", "AGGREGATE");
    for &e in &events {
        print!(" {:>9.5}", total.rate(e));
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
    let total = pool_scope(0, |pool| {
        let runner = BatchRunner::new(pool);
        let mut total = BatchStats::empty(model.len());
        for (i, t) in env.stock_library().iter() {
            let stats = runner.run(env, t, sims, 2000 + i as u64).expect("simulate");
            print!("{:<22}", t.name());
            for entry in 0..8 {
                let hits: u64 = cp
                    .slice(0, entry)
                    .iter()
                    .map(|e| stats.hits[e.index()])
                    .sum();
                print!(" e{entry}:{:>8.5}", hits as f64 / sims as f64);
            }
            println!();
            total.merge(&stats);
        }
        total
    });
    print!("{:<22}", "AGGREGATE");
    for entry in 0..8 {
        let hits: u64 = cp
            .slice(0, entry)
            .iter()
            .map(|e| total.hits[e.index()])
            .sum();
        print!(" e{entry}:{:>8.5}", hits as f64 / total.sims as f64);
    }
    println!();
}
