//! The instruction fetch unit (IFU): an SMT front end with a fetch buffer.
//!
//! This unit reproduces the coverage structure of the paper's Fig. 5: a
//! cross-product model `entry(0-7) x thread(0-3) x sector(0-3) x branch(0-1)`
//! — 256 events. The model:
//!
//! * an 8-entry compacting fetch buffer; a fetch allocates the entry at the
//!   current occupancy index;
//! * a dispatcher that drains one entry per cycle — two when occupancy
//!   reaches [`PRIORITY_DRAIN_AT`] — unless stalled by back-pressure;
//! * when occupancy reaches 7 the front end performs a forced drain before
//!   allocating, so **entry 7 is architecturally unhittable** — exactly the
//!   32 events the paper reports as "out of the unit capabilities to hit";
//! * each fetch walks its thread's stream sequentially (16-byte granules,
//!   4 sectors per 64-byte line) and taken branches redirect it.
//!
//! The cross event `(entry, thread, sector, branch)` fires at allocation.
//! Deep entries need sustained stalls, thread 3 needs an SMT4 mix the
//! defaults never produce, and `branch=1` needs branch density — the
//! parameters the coarse-grained search must discover.

use ascdg_coverage::{CoverageModel, CoverageSink, CoverageVector, CrossProduct, EventId, Feature};
use ascdg_stimgen::{FetchOp, FetchProgram, ParamSampler};
use ascdg_template::{
    ParamDef, ParamId, ParamRegistry, ResolvedParams, Symbol, TemplateLibrary, TestTemplate, Value,
};

use crate::{EnvError, SimScratch, VerifEnv};

/// Fetch buffer depth.
pub const BUFFER_ENTRIES: usize = 8;
/// Occupancy at which the dispatcher drains two entries per cycle.
pub const PRIORITY_DRAIN_AT: usize = 4;

/// The IFU verification environment.
///
/// # Examples
///
/// ```
/// use ascdg_duv::{ifu::IfuEnv, VerifEnv};
///
/// let env = IfuEnv::new();
/// assert_eq!(env.coverage_model().len(), 256);
/// assert!(env.coverage_model().cross_product().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct IfuEnv {
    registry: ParamRegistry,
    model: CoverageModel,
    library: TemplateLibrary,
    params: Params,
    /// Event-id strides of the `entry`, `thread`, `sector` and `branch`
    /// coordinates in the cross product, resolved once from the model.
    strides: [u32; 4],
}

/// The parameters the generator draws and the symbolic value it compares
/// against, resolved once from the registry.
#[derive(Debug, Clone, Copy)]
struct Params {
    fetch_count: ParamId,
    branch_pct: ParamId,
    fetch_align: ParamId,
    /// `FetchAlign`'s `jump`.
    jump: Symbol,
    thread_mix: ParamId,
    stall_pct: ParamId,
}

impl Params {
    fn resolve(reg: &ParamRegistry) -> Self {
        let id = |name| reg.id(name).expect("registry parameter");
        Params {
            fetch_count: id("FetchCount"),
            branch_pct: id("BranchPct"),
            fetch_align: id("FetchAlign"),
            jump: reg
                .symbol(id("FetchAlign"), "jump")
                .expect("registry symbol"),
            thread_mix: id("ThreadMix"),
            stall_pct: id("StallPct"),
        }
    }
}

impl Default for IfuEnv {
    fn default() -> Self {
        IfuEnv::new()
    }
}

/// Builds the 256-event cross-product space of the paper's Fig. 5.
#[must_use]
pub fn cross_product() -> CrossProduct {
    CrossProduct::new([
        Feature::numeric("entry", BUFFER_ENTRIES),
        Feature::numeric("thread", 4),
        Feature::numeric("sector", 4),
        Feature::numeric("branch", 2),
    ])
    .expect("static feature list is valid")
}

fn registry() -> ParamRegistry {
    let sub = |lo, hi| Value::SubRange { lo, hi };
    let mut reg = ParamRegistry::new();
    let defs = [
        // --- parameters relevant to the cross product ---
        ParamDef::range("FetchCount", 60, 240).unwrap(),
        ParamDef::weights(
            "ThreadMix",
            [
                (Value::Int(0), 55u32),
                (Value::Int(1), 30),
                (Value::Int(2), 15),
                (Value::Int(3), 0),
            ],
        )
        .unwrap(),
        ParamDef::range("BranchPct", 0, 40).unwrap(),
        ParamDef::weights(
            "StallPct",
            [
                (sub(0, 10), 80u32),
                (sub(10, 30), 20),
                (sub(30, 60), 0),
                (sub(60, 90), 0),
            ],
        )
        .unwrap(),
        ParamDef::weights("FetchAlign", [("seq", 85u32), ("jump", 15)]).unwrap(),
        // --- plausible knobs irrelevant to the cross product ---
        ParamDef::range("IcacheScrub", 0, 10).unwrap(),
        ParamDef::weights("ParityEn", [("on", 90u32), ("off", 10)]).unwrap(),
        ParamDef::weights(
            "PredictorSel",
            [("gshare", 60u32), ("tage", 30), ("static", 10)],
        )
        .unwrap(),
        ParamDef::range("BtbSize", 1, 5).unwrap(),
        ParamDef::range("TlbPressure", 0, 20).unwrap(),
        ParamDef::range("RasDepth", 4, 33).unwrap(),
        ParamDef::range("DecodeWidth", 2, 9).unwrap(),
        ParamDef::weights("UopFusion", [("on", 50u32), ("off", 50)]).unwrap(),
    ];
    for d in defs {
        reg.define(d).expect("unique parameter names");
    }
    reg
}

fn stock_library() -> TemplateLibrary {
    let sub = |lo, hi| Value::SubRange { lo, hi };
    let t = TestTemplate::builder;
    [
        t("ifu_smoke").build(),
        t("ifu_linear").range("BranchPct", 0, 5).unwrap().build(),
        t("ifu_branch_heavy")
            .range("BranchPct", 25, 40)
            .unwrap()
            .build(),
        t("ifu_smt2")
            .weights("ThreadMix", [(Value::Int(0), 50u32), (Value::Int(1), 50)])
            .unwrap()
            .build(),
        t("ifu_smt4")
            .weights(
                "ThreadMix",
                [
                    (Value::Int(0), 25u32),
                    (Value::Int(1), 25),
                    (Value::Int(2), 25),
                    (Value::Int(3), 25),
                ],
            )
            .unwrap()
            .build(),
        t("ifu_stall_storm")
            .weights("StallPct", [(sub(10, 30), 60u32), (sub(30, 60), 40)])
            .unwrap()
            .build(),
        t("ifu_backpressure")
            .weights(
                "StallPct",
                [(sub(10, 30), 60u32), (sub(30, 60), 35), (sub(60, 90), 5)],
            )
            .unwrap()
            .weights(
                "ThreadMix",
                [
                    (Value::Int(0), 40u32),
                    (Value::Int(1), 30),
                    (Value::Int(2), 25),
                    (Value::Int(3), 5),
                ],
            )
            .unwrap()
            .range("BranchPct", 10, 30)
            .unwrap()
            .range("FetchCount", 120, 240)
            .unwrap()
            .build(),
        t("ifu_jumpy")
            .weights("FetchAlign", [("jump", 100u32)])
            .unwrap()
            .build(),
        t("ifu_scrub").range("IcacheScrub", 5, 10).unwrap().build(),
        t("ifu_tage")
            .weights("PredictorSel", [("tage", 100u32)])
            .unwrap()
            .build(),
        t("ifu_tlb_pressure")
            .range("TlbPressure", 10, 20)
            .unwrap()
            .build(),
        t("ifu_wide_decode")
            .range("DecodeWidth", 6, 9)
            .unwrap()
            .build(),
    ]
    .into_iter()
    .collect()
}

impl IfuEnv {
    /// Builds the environment (registry, stock library, coverage model).
    #[must_use]
    pub fn new() -> Self {
        let registry = registry();
        let cp = cross_product();
        let strides = std::array::from_fn(|k| {
            let mut unit = [0; 4];
            unit[k] = 1;
            cp.event_id(&unit).expect("unit coordinates are in range").0
        });
        IfuEnv {
            params: Params::resolve(&registry),
            registry,
            model: CoverageModel::from_cross_product("ifu", cp)
                .expect("cross-product names are unique"),
            library: stock_library(),
            strides,
        }
    }

    fn generate(&self, sampler: &mut ParamSampler<'_>) -> Result<FetchProgram, EnvError> {
        let mut program = Vec::new();
        self.generate_into(sampler, &mut program)?;
        Ok(program)
    }

    /// Appends one instance's fetch program to `out` (the arena of the
    /// batched kernel; single-instance callers pass a fresh `Vec`).
    fn generate_into(
        &self,
        sampler: &mut ParamSampler<'_>,
        out: &mut Vec<FetchOp>,
    ) -> Result<(), EnvError> {
        let p = self.params;
        let count = sampler.sample_int(p.fetch_count)? as usize;
        let branch_rate = sampler.rate(p.branch_pct)?;
        let jumpy = sampler.sample_symbol(p.fetch_align)? == p.jump;
        // Per-thread sequential fetch pointers (16-byte granules).
        let mut pc = [0u64; 4];
        for (i, p) in pc.iter_mut().enumerate() {
            *p = (sampler.uniform(0, 1 << 16) as u64) << 4 | ((i as u64) << 2);
        }
        out.reserve(count);
        for _ in 0..count {
            let thread = (sampler.sample_int(p.thread_mix)? & 3) as usize;
            let taken_branch = sampler.chance(branch_rate);
            let stall = sampler.sample_int(p.stall_pct)?;
            // Stall percentage becomes a per-fetch stall of 0 or 1 cycles.
            let stall_cycles = u32::from(sampler.chance(stall as f64 / 100.0));
            let addr = pc[thread];
            out.push(FetchOp {
                thread: thread as u8,
                addr,
                taken_branch,
                stall: stall_cycles,
            });
            // Advance the stream: sequential walk, branch redirect, or
            // jumpy access pattern.
            if taken_branch || jumpy {
                pc[thread] = (sampler.uniform(0, 1 << 16) as u64) << 4;
            } else {
                pc[thread] = addr + 16;
            }
        }
        Ok(())
    }

    /// Runs the fetch-buffer model over a program, collecting coverage.
    #[must_use]
    pub fn run_program(&self, program: &FetchProgram) -> CoverageVector {
        let mut cov = CoverageVector::empty(self.model.len());
        self.run_program_into(program, &mut cov);
        cov
    }

    /// [`IfuEnv::run_program`] into a caller-provided (zeroed) coverage
    /// sink — a `CoverageVector` or a bit-plane lane.
    fn run_program_into<S: CoverageSink>(&self, program: &[FetchOp], cov: &mut S) {
        let [entry_stride, thread_stride, sector_stride, branch_stride] = self.strides;
        let mut occupancy: usize = 0;
        let mut stall_budget: u32 = 0;

        for op in program {
            // Dispatcher phase: drain unless stalled; priority drain when
            // the buffer runs deep.
            if stall_budget > 0 {
                stall_budget -= 1;
            } else {
                // The dispatcher escalates as the buffer runs deep: normal
                // drain below PRIORITY_DRAIN_AT, double drain from there,
                // triple drain in the last two entries. Sustained deep
                // occupancy therefore needs a stall rate above ~2/3.
                let drains = if occupancy > PRIORITY_DRAIN_AT {
                    3
                } else if occupancy >= PRIORITY_DRAIN_AT - 1 {
                    2
                } else {
                    1
                };
                occupancy = occupancy.saturating_sub(drains);
            }
            // Allocation guard: entry 7 is reserved; the front end forces a
            // drain instead of filling the last entry.
            if occupancy + 1 >= BUFFER_ENTRIES {
                occupancy -= 1;
            }
            let entry = occupancy as u32;
            occupancy += 1;
            stall_budget += op.stall;

            // Every coordinate is in range: the guard keeps the entry
            // below 7, and thread, sector and branch are masked.
            cov.hit(EventId(
                entry * entry_stride
                    + u32::from(op.thread & 3) * thread_stride
                    + u32::from(op.sector()) * sector_stride
                    + u32::from(op.taken_branch) * branch_stride,
            ));
        }
    }
}

impl VerifEnv for IfuEnv {
    fn unit_name(&self) -> &str {
        "ifu"
    }

    fn registry(&self) -> &ParamRegistry {
        &self.registry
    }

    fn coverage_model(&self) -> &CoverageModel {
        &self.model
    }

    fn stock_library(&self) -> &TemplateLibrary {
        &self.library
    }

    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        self.registry.check_layout(resolved)?;
        let mut sampler = ParamSampler::new(resolved, sampler_seed);
        let program = self.generate(&mut sampler)?;
        Ok(self.run_program(&program))
    }

    fn simulate_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        // Two-phase kernel: `run_program` draws nothing from the sampler, so
        // the whole block's programs are generated first (back to back in
        // the scratch arena) and the cycle loops then run while the buffer
        // model's working set stays cache-resident, recording straight into
        // plane lanes — no per-sim vectors at all.
        self.registry.check_layout(resolved)?;
        scratch.fetch_ops.clear();
        scratch.fetch_bounds.clear();
        scratch.fetch_bounds.push(0);
        for &seed in seeds {
            let mut sampler = ParamSampler::new(resolved, seed);
            self.generate_into(&mut sampler, &mut scratch.fetch_ops)?;
            scratch.fetch_bounds.push(scratch.fetch_ops.len());
        }
        let SimScratch {
            fetch_ops,
            fetch_bounds,
            plane,
            ..
        } = scratch;
        plane.begin(self.model.len(), seeds.len());
        for lane in 0..seeds.len() {
            let (lo, hi) = (fetch_bounds[lane], fetch_bounds[lane + 1]);
            self.run_program_into(&fetch_ops[lo..hi], &mut plane.lane(lane));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascdg_coverage::{CoverageRepository, StatusPolicy, TemplateId};
    use ascdg_stimgen::instance_seed;

    fn env() -> IfuEnv {
        IfuEnv::new()
    }

    #[test]
    fn stock_templates_validate() {
        let env = env();
        for (_, t) in env.stock_library().iter() {
            env.registry().validate(t).unwrap();
        }
    }

    #[test]
    fn entry7_is_unhittable_even_under_max_pressure() {
        let env = env();
        // A hand-built worst case: every fetch stalls the dispatcher.
        let program: FetchProgram = (0..2000)
            .map(|i| FetchOp {
                thread: (i % 4) as u8,
                addr: (i as u64) << 4,
                taken_branch: i % 2 == 0,
                stall: 1,
            })
            .collect();
        let cov = env.run_program(&program);
        let cp = env.coverage_model().cross_product().unwrap();
        for e in cp.slice(0, 7) {
            assert!(!cov.get(e), "entry7 event {} was hit", e);
        }
        // But entry 6 is reachable under this pressure.
        assert!(cp.slice(0, 6).iter().any(|&e| cov.get(e)));
    }

    #[test]
    fn default_traffic_stays_shallow_and_misses_thread3() {
        let env = env();
        let smoke = env.stock_library().by_name("ifu_smoke").unwrap().1.clone();
        let resolved = env.registry().resolve(&smoke).unwrap();
        let cp = env.coverage_model().cross_product().unwrap();
        let mut union = CoverageVector::empty(env.coverage_model().len());
        for s in 500..700 {
            union.union_with(
                &env.simulate_seeded(&resolved, instance_seed(s, "smoke", 0))
                    .unwrap(),
            );
        }
        // Thread 3 has zero default weight.
        for e in cp.slice(1, 3) {
            assert!(!union.get(e), "thread3 event hit by default mix");
        }
        // Deep entries unreachable with the default stall profile.
        for entry in 5..8 {
            for e in cp.slice(0, entry) {
                assert!(!union.get(e), "entry{entry} hit under default stalls");
            }
        }
        // Shallow entries covered.
        assert!(cp.slice(0, 0).iter().any(|&e| union.get(e)));
    }

    #[test]
    fn backpressure_template_reaches_deep_entries() {
        let env = env();
        let bp = env
            .stock_library()
            .by_name("ifu_backpressure")
            .unwrap()
            .1
            .clone();
        let resolved = env.registry().resolve(&bp).unwrap();
        let cp = env.coverage_model().cross_product().unwrap();
        let mut union = CoverageVector::empty(env.coverage_model().len());
        for s in 0..200 {
            union.union_with(
                &env.simulate_seeded(&resolved, instance_seed(s, "bp", 0))
                    .unwrap(),
            );
        }
        let deep_hit = (4..7).any(|entry| cp.slice(0, entry).iter().any(|&e| union.get(e)));
        assert!(deep_hit, "backpressure should reach entries 4-6");
    }

    #[test]
    fn sectors_all_covered_by_sequential_walk() {
        let env = env();
        let t = env.stock_library().by_name("ifu_smoke").unwrap().1.clone();
        let resolved = env.registry().resolve(&t).unwrap();
        let cp = env.coverage_model().cross_product().unwrap();
        let mut union = CoverageVector::empty(env.coverage_model().len());
        for s in 0..100 {
            union.union_with(
                &env.simulate_seeded(&resolved, instance_seed(s, "t", 0))
                    .unwrap(),
            );
        }
        for sector in 0..4 {
            assert!(
                cp.slice(2, sector).iter().any(|&e| union.get(e)),
                "sector {sector} never covered"
            );
        }
    }

    #[test]
    fn status_counts_shape_before_cdg() {
        let env = env();
        let repo = CoverageRepository::new(env.coverage_model().clone());
        for (idx, t) in env.stock_library().iter() {
            let resolved = env.registry().resolve(t).unwrap();
            for s in 0..60 {
                repo.record(
                    TemplateId(idx as u32),
                    &env.simulate_seeded(&resolved, instance_seed(s, t.name(), 0))
                        .unwrap(),
                );
            }
        }
        let counts = repo.status_counts(StatusPolicy::default());
        assert_eq!(counts.total(), 256);
        // Before CDG a large chunk of the cross product must be uncovered,
        // and at least the shallow slices well-covered.
        assert!(counts.never_hit >= 32, "counts: {counts}");
        assert!(counts.well_hit + counts.lightly_hit > 0, "counts: {counts}");
    }

    #[test]
    fn deterministic_per_seed() {
        let env = env();
        let t = env.stock_library().get(0).unwrap().clone();
        assert_eq!(env.simulate(&t, 11).unwrap(), env.simulate(&t, 11).unwrap());
    }
    #[test]
    fn branch_redirect_changes_stream() {
        // Two fetches from the same thread: without a branch the second
        // address is sequential (+16); the generator enforces this, so we
        // check it statistically over generated programs.
        let env = env();
        let t = TestTemplate::builder("seq_only")
            .weights("FetchAlign", [("seq", 100u32)])
            .unwrap()
            .range("BranchPct", 0, 1)
            .unwrap()
            .build();
        let resolved = env.registry().resolve(&t).unwrap();
        // Sequential alignment pinned and branches disabled: every
        // same-thread pair must advance by one 16-byte granule.
        let mut sampler =
            ascdg_stimgen::ParamSampler::new(&resolved, ascdg_stimgen::instance_seed(1, "x", 0));
        let program = env.generate(&mut sampler).unwrap();
        let mut sequential = 0;
        let mut total = 0;
        let mut last: [Option<(u64, bool)>; 4] = [None; 4];
        for op in &program {
            let th = (op.thread & 3) as usize;
            if let Some((prev_addr, prev_branch)) = last[th] {
                if !prev_branch {
                    total += 1;
                    sequential += u64::from(op.addr == prev_addr + 16);
                }
            }
            last[th] = Some((op.addr, op.taken_branch));
        }
        assert!(total > 10, "not enough same-thread pairs");
        assert_eq!(sequential, total, "non-branch fetches must be sequential");
    }

    #[test]
    fn stall_budget_accumulates_occupancy() {
        let env = env();
        let cp = env.coverage_model().cross_product().unwrap();
        // No stalls: occupancy never exceeds entry 1 after the first op.
        let calm: FetchProgram = (0..50)
            .map(|i| FetchOp {
                thread: 0,
                addr: (i as u64) << 4,
                taken_branch: false,
                stall: 0,
            })
            .collect();
        let cov = env.run_program(&calm);
        for entry in 2..8 {
            for e in cp.slice(0, entry) {
                assert!(!cov.get(e), "entry{entry} hit without stalls");
            }
        }
    }

    #[test]
    fn empty_program_hits_nothing() {
        let env = env();
        let cov = env.run_program(&FetchProgram::new());
        assert_eq!(cov.count_hits(), 0);
    }

    #[test]
    fn cross_event_coordinates_decode_consistently() {
        let env = env();
        let cp = env.coverage_model().cross_product().unwrap();
        let program: FetchProgram = vec![FetchOp {
            thread: 2,
            addr: 0x30, // sector 3
            taken_branch: true,
            stall: 0,
        }];
        let cov = env.run_program(&program);
        let hits: Vec<_> = cov.iter_hits().collect();
        assert_eq!(hits.len(), 1);
        let coords = cp.coords(hits[0]);
        assert_eq!(
            coords,
            vec![0, 2, 3, 1],
            "entry0, thread2, sector3, branch1"
        );
    }
}
