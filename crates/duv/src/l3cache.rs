//! The L3 cache: a set-associative cache with a credit-limited bypass path.
//!
//! This unit reproduces the coverage structure of the paper's Fig. 4: a
//! monotone buffer-fill family `byp_reqs01 .. byp_reqs16`. The model:
//!
//! * a [`SETS`]`x`[`WAYS`] LRU cache (2048 lines), *warm-started* with the
//!   test's working set (the unit has been running long before the
//!   coverage window opens);
//! * every demand miss allocates one of [`BYPASS_CREDITS`] bypass slots
//!   until the memory response returns ([`MEM_LATENCY`] cycles plus
//!   jitter); the front end stalls when all credits are held, and prefetch
//!   misses are dropped instead of stalling;
//! * event `byp_reqsNN` fires when `NN` bypass slots are simultaneously
//!   occupied — filling the pool deeper and deeper is the family's
//!   difficulty gradient;
//! * background snoop traffic invalidates cached lines at a low rate, so
//!   even an in-cache working set produces isolated re-misses (that is what
//!   keeps `byp_reqs01` common while `byp_reqs04+` stays rare by default);
//! * the hardware prefetch engine issues *bursts* of back-to-back
//!   sequential requests ([`PfDepth`] lines per burst). Demand traffic is
//!   spaced at least [`MIN_GAP`] cycles apart, so deep bypass occupancy is
//!   only reachable by stacking prefetch bursts over a cache-exceeding
//!   working set — the parameter combination AS-CDG must discover.
//!
//! [`PfDepth`]: struct.L3Env.html#method.registry

use ascdg_coverage::{CoverageModel, CoverageSink, CoverageVector, EventId};
use ascdg_stimgen::{MemOp, MemProgram, MemRequest, ParamSampler};
use ascdg_template::{
    ParamDef, ParamId, ParamRegistry, ResolvedParams, Symbol, TemplateLibrary, TestTemplate, Value,
};

use crate::{EnvError, SimScratch, VerifEnv};

/// Number of cache sets.
pub const SETS: usize = 256;
/// Cache associativity.
pub const WAYS: usize = 8;
/// Number of bypass slots (the depth of the `byp_reqs*` family).
pub const BYPASS_CREDITS: usize = 16;
/// Base memory latency in cycles.
pub const MEM_LATENCY: u64 = 40;
/// Maximum additional response jitter in cycles.
pub const MEM_JITTER: u64 = 12;
/// Minimum spacing between demand requests (front-end issue limit).
pub const MIN_GAP: i64 = 12;
/// Baseline per-request probability of a background snoop invalidation.
pub const BASE_SNOOP_RATE: f64 = 0.035;

/// The L3 verification environment.
///
/// # Examples
///
/// ```
/// use ascdg_duv::{l3cache::L3Env, VerifEnv};
///
/// let env = L3Env::new();
/// assert_eq!(env.unit_name(), "l3cache");
/// assert!(env.coverage_model().id("byp_reqs16").is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct L3Env {
    registry: ParamRegistry,
    model: CoverageModel,
    library: TemplateLibrary,
    params: Params,
    events: Events,
}

/// The parameters the generator draws and the symbolic values it
/// compares against, resolved once from the registry.
#[derive(Debug, Clone, Copy)]
struct Params {
    addr_pattern: ParamId,
    /// `AddrPattern`'s `stride`.
    stride: Symbol,
    /// `RwMix`'s `load` and `store` (anything else is a prefetch).
    load: Symbol,
    store: Symbol,
    snoop_pct: ParamId,
    req_count: ParamId,
    working_set: ParamId,
    stride_step: ParamId,
    thread_mix: ParamId,
    gap_l3: ParamId,
    rw_mix: ParamId,
    pf_depth: ParamId,
}

impl Params {
    fn resolve(reg: &ParamRegistry) -> Self {
        let id = |name| reg.id(name).expect("registry parameter");
        let sym = |param, name| reg.symbol(id(param), name).expect("registry symbol");
        Params {
            addr_pattern: id("AddrPattern"),
            stride: sym("AddrPattern", "stride"),
            load: sym("RwMix", "load"),
            store: sym("RwMix", "store"),
            snoop_pct: id("SnoopPct"),
            req_count: id("ReqCount"),
            working_set: id("WorkingSet"),
            stride_step: id("StrideStep"),
            thread_mix: id("ThreadMix"),
            gap_l3: id("GapL3"),
            rw_mix: id("RwMix"),
            pf_depth: id("PfDepth"),
        }
    }
}

/// The events the cache model records, resolved once from the model.
#[derive(Debug, Clone)]
struct Events {
    /// `byp_reqsNN` ids indexed by depth-1.
    bypass: [EventId; BYPASS_CREDITS],
    /// `threadN_active` ids indexed by thread.
    thread_active: [EventId; 4],
    ld_hit: EventId,
    ld_miss: EventId,
    st_hit: EventId,
    st_miss: EventId,
    prefetch_issued: EventId,
    prefetch_dropped: EventId,
    evict_line: EventId,
    fill_complete: EventId,
    front_end_stall: EventId,
    same_line_b2b: EventId,
    set_conflict: EventId,
    mem_latency_spike: EventId,
    snoop_invalidate: EventId,
    all_threads_seen: EventId,
    store_streak4: EventId,
    stride_pattern_seen: EventId,
}

impl Events {
    fn resolve(model: &CoverageModel) -> Self {
        let id = |name: &str| model.id(name).expect("model event");
        Events {
            bypass: std::array::from_fn(|d| id(&format!("byp_reqs{:02}", d + 1))),
            thread_active: std::array::from_fn(|t| id(&format!("thread{t}_active"))),
            ld_hit: id("ld_hit"),
            ld_miss: id("ld_miss"),
            st_hit: id("st_hit"),
            st_miss: id("st_miss"),
            prefetch_issued: id("prefetch_issued"),
            prefetch_dropped: id("prefetch_dropped"),
            evict_line: id("evict_line"),
            fill_complete: id("fill_complete"),
            front_end_stall: id("front_end_stall"),
            same_line_b2b: id("same_line_b2b"),
            set_conflict: id("set_conflict"),
            mem_latency_spike: id("mem_latency_spike"),
            snoop_invalidate: id("snoop_invalidate"),
            all_threads_seen: id("all_threads_seen"),
            store_streak4: id("store_streak4"),
            stride_pattern_seen: id("stride_pattern_seen"),
        }
    }
}

impl Default for L3Env {
    fn default() -> Self {
        L3Env::new()
    }
}

fn event_names() -> Vec<String> {
    let mut names: Vec<String> = (1..=BYPASS_CREDITS)
        .map(|k| format!("byp_reqs{k:02}"))
        .collect();
    names.extend(
        [
            "ld_hit",
            "ld_miss",
            "st_hit",
            "st_miss",
            "prefetch_issued",
            "prefetch_dropped",
            "evict_line",
            "fill_complete",
            "front_end_stall",
            "same_line_b2b",
            "set_conflict",
            "mem_latency_spike",
            "snoop_invalidate",
            "thread0_active",
            "thread1_active",
            "thread2_active",
            "thread3_active",
            "all_threads_seen",
            "store_streak4",
            "stride_pattern_seen",
        ]
        .into_iter()
        .map(str::to_owned),
    );
    names
}

fn registry() -> ParamRegistry {
    let sub = |lo, hi| Value::SubRange { lo, hi };
    let mut reg = ParamRegistry::new();
    let defs = [
        // --- parameters relevant to the bypass family ---
        ParamDef::range("ReqCount", 40, 200).unwrap(),
        ParamDef::weights(
            "WorkingSet",
            [
                (sub(8, 64), 70u32),
                (sub(64, 512), 30),
                (sub(512, 4096), 0),
                (sub(4096, 32768), 0),
            ],
        )
        .unwrap(),
        ParamDef::range("GapL3", MIN_GAP, 64).unwrap(),
        ParamDef::weights("RwMix", [("load", 70u32), ("store", 29), ("prefetch", 1)]).unwrap(),
        ParamDef::weights("PfDepth", [(sub(1, 3), 100u32), (sub(3, 6), 0)]).unwrap(),
        ParamDef::weights(
            "ThreadMix",
            [
                (Value::Int(0), 40u32),
                (Value::Int(1), 30),
                (Value::Int(2), 20),
                (Value::Int(3), 10),
            ],
        )
        .unwrap(),
        ParamDef::weights("AddrPattern", [("random", 60u32), ("stride", 40)]).unwrap(),
        ParamDef::range("StrideStep", 1, 16).unwrap(),
        ParamDef::range("SnoopPct", 0, 20).unwrap(),
        // --- plausible knobs irrelevant to the bypass family ---
        ParamDef::range("ScrubRate", 0, 10).unwrap(),
        ParamDef::weights("EccEn", [("on", 90u32), ("off", 10)]).unwrap(),
        ParamDef::weights("VictimSel", [("lru", 80u32), ("rand", 20)]).unwrap(),
        ParamDef::weights("TagEcc", [("on", 90u32), ("off", 10)]).unwrap(),
        ParamDef::range("DramPage", 1, 5).unwrap(),
        ParamDef::range("RefreshRate", 0, 8).unwrap(),
        ParamDef::range("MshrInit", 4, 17).unwrap(),
        ParamDef::range("WrBufDepth", 2, 9).unwrap(),
        ParamDef::range("LockPct", 0, 5).unwrap(),
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
        t("l3_smoke").build(),
        t("l3_reads")
            .weights("RwMix", [("load", 100u32)])
            .unwrap()
            .build(),
        t("l3_stores")
            .weights("RwMix", [("store", 90u32), ("load", 10)])
            .unwrap()
            .build(),
        t("l3_smt4")
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
        t("l3_stride_walk")
            .weights("AddrPattern", [("stride", 100u32)])
            .unwrap()
            .range("StrideStep", 1, 4)
            .unwrap()
            .build(),
        t("l3_small_ws")
            .weights("WorkingSet", [(sub(8, 64), 100u32)])
            .unwrap()
            .build(),
        t("l3_medium_ws")
            .weights("WorkingSet", [(sub(64, 512), 60u32), (sub(512, 4096), 40)])
            .unwrap()
            .build(),
        // The capacity/prefetch stress template: carries every parameter
        // that matters for deep bypass occupancy, with *mild* settings —
        // the verification team wrote it, AS-CDG retunes it.
        t("l3_capacity_stress")
            .weights(
                "WorkingSet",
                [
                    (sub(64, 512), 30u32),
                    (sub(512, 4096), 50),
                    (sub(4096, 32768), 20),
                ],
            )
            .unwrap()
            .range("GapL3", MIN_GAP, 36)
            .unwrap()
            .weights("RwMix", [("load", 62u32), ("store", 30), ("prefetch", 8)])
            .unwrap()
            .weights("PfDepth", [(sub(1, 3), 90u32), (sub(3, 6), 10)])
            .unwrap()
            .range("ReqCount", 100, 200)
            .unwrap()
            .build(),
        t("l3_pressure")
            .weights("WorkingSet", [(sub(512, 4096), 100u32)])
            .unwrap()
            .range("GapL3", MIN_GAP, 24)
            .unwrap()
            .build(),
        t("l3_prefetch")
            .weights("RwMix", [("prefetch", 10u32), ("load", 90)])
            .unwrap()
            .weights("PfDepth", [(sub(1, 3), 85u32), (sub(3, 6), 15)])
            .unwrap()
            .build(),
        t("l3_snoop_heavy")
            .range("SnoopPct", 10, 20)
            .unwrap()
            .build(),
        t("l3_scrub").range("ScrubRate", 5, 10).unwrap().build(),
        t("l3_victim_rand")
            .weights("VictimSel", [("rand", 100u32)])
            .unwrap()
            .build(),
        t("l3_lock").range("LockPct", 2, 5).unwrap().build(),
        t("l3_refresh").range("RefreshRate", 4, 8).unwrap().build(),
    ]
    .into_iter()
    .collect()
}

impl L3Env {
    /// Builds the environment (registry, stock library, coverage model).
    #[must_use]
    pub fn new() -> Self {
        let registry = registry();
        let model =
            CoverageModel::from_names("l3cache", event_names()).expect("event names are unique");
        L3Env {
            params: Params::resolve(&registry),
            events: Events::resolve(&model),
            registry,
            model,
            library: stock_library(),
        }
    }

    /// Draws one instance's traffic shape — `(stride_mode, snoop_rate)` —
    /// then its memory program into `out` (a cleared scratch buffer on the
    /// batch path, a fresh `Vec` otherwise); returns the shape with the
    /// `(base, working_set)` warm span.
    fn generate_into(
        &self,
        sampler: &mut ParamSampler<'_>,
        out: &mut Vec<MemRequest>,
    ) -> Result<Generated, EnvError> {
        let p = self.params;
        let stride_mode = sampler.sample_symbol(p.addr_pattern)? == p.stride;
        let snoop_rate = BASE_SNOOP_RATE + sampler.rate(p.snoop_pct)? * 0.15;
        let count = sampler.sample_int(p.req_count)? as usize;
        let working_set = sampler.sample_int(p.working_set)? as u64;
        let stride = sampler.sample_int(p.stride_step)? as u64;
        let base = sampler.uniform(0, 1 << 20) as u64;
        let mut walker = base;
        out.reserve(count);
        for _ in 0..count {
            let line_addr = if stride_mode {
                walker = base + (walker + stride - base) % working_set;
                walker
            } else {
                base + sampler.uniform(0, working_set as i64) as u64
            };
            let thread = sampler.sample_int(p.thread_mix)? as u8;
            let gap = sampler.sample_int(p.gap_l3)? as u32;
            match sampler.sample_symbol(p.rw_mix)? {
                op if op == p.load => out.push(MemRequest {
                    line_addr,
                    op: MemOp::Load,
                    thread,
                    gap,
                }),
                op if op == p.store => out.push(MemRequest {
                    line_addr,
                    op: MemOp::Store,
                    thread,
                    gap,
                }),
                _ => {
                    // A prefetch op is a hardware burst: `depth` sequential
                    // lines, back to back (only the first carries the gap).
                    let depth = sampler.sample_int(p.pf_depth)? as u64;
                    for j in 0..depth {
                        out.push(MemRequest {
                            line_addr: line_addr + j,
                            op: MemOp::Prefetch,
                            thread,
                            gap: if j == 0 { gap } else { 0 },
                        });
                    }
                }
            }
        }
        Ok(Generated {
            stride_mode,
            snoop_rate,
            warm: (base, working_set),
        })
    }

    /// Marks the bypass-occupancy family event for the current depth.
    fn bump_bypass<S: CoverageSink>(&self, inflight: &Inflight, cov: &mut S) {
        let depth = inflight.len.min(BYPASS_CREDITS);
        if depth >= 1 {
            cov.hit(self.events.bypass[depth - 1]);
        }
    }

    /// Runs the cache model over a program, collecting coverage.
    ///
    /// `warm` is the `(base, lines)` span pre-filled into the cache before
    /// the coverage window opens; `snoop_rate` is the per-request
    /// probability of a background invalidation. [`VerifEnv::simulate`]
    /// derives both from the template; tests may pass explicit values.
    #[must_use]
    pub fn run_program(
        &self,
        program: &MemProgram,
        sampler: &mut ParamSampler<'_>,
        stride_mode: bool,
        warm: (u64, u64),
        snoop_rate: f64,
    ) -> CoverageVector {
        let mut cov = CoverageVector::empty(self.model.len());
        self.run_program_into(
            program,
            sampler,
            stride_mode,
            warm,
            snoop_rate,
            &mut L3State::default(),
            &mut cov,
        );
        cov
    }

    /// [`L3Env::run_program`] over caller-provided cache state and a zeroed
    /// coverage sink (a `CoverageVector` or a bit-plane lane) — the batch
    /// kernels' entry point. `state` is reset (never trusted) before use,
    /// so recycled scratch state produces the same coverage as fresh state.
    #[allow(clippy::too_many_arguments)]
    fn run_program_into<S: CoverageSink>(
        &self,
        program: &[MemRequest],
        sampler: &mut ParamSampler<'_>,
        stride_mode: bool,
        warm: (u64, u64),
        snoop_rate: f64,
        state: &mut L3State,
        cov: &mut S,
    ) {
        let ev = &self.events;
        let L3State { sets, inflight } = state;
        sets.warm_start(warm);
        inflight.clear();

        let mut cycle: u64 = 0;
        let mut prev_line: Option<u64> = None;
        let mut threads_seen = [false; 4];
        let mut store_streak = 0u32;
        let mut last_miss_set: Option<usize> = None;

        if stride_mode {
            cov.hit(ev.stride_pattern_seen);
        }

        let fill = |sets: &mut Sets, line: u64, cov: &mut S| {
            if sets.fill(line) {
                cov.hit(ev.evict_line);
            }
            cov.hit(ev.fill_complete);
        };

        for req in program {
            cycle += u64::from(req.gap) + 1;
            inflight.drain_ready(cycle, |line| fill(&mut *sets, line, &mut *cov));

            // Background snoop traffic invalidates a random cached line.
            if sampler.chance(snoop_rate) {
                let victim_set = sampler.uniform(0, SETS as i64) as usize;
                // Coherence traffic targets hot shared lines: take the MRU
                // way, which is the likeliest to be re-accessed.
                if sets.invalidate_mru(victim_set) {
                    cov.hit(ev.snoop_invalidate);
                }
            }

            let th = (req.thread & 3) as usize;
            threads_seen[th] = true;
            cov.hit(ev.thread_active[th]);
            if prev_line == Some(req.line_addr) {
                cov.hit(ev.same_line_b2b);
            }
            prev_line = Some(req.line_addr);
            if req.op == MemOp::Store {
                store_streak += 1;
                if store_streak >= 4 {
                    cov.hit(ev.store_streak4);
                }
            } else {
                store_streak = 0;
            }

            let set = set_of(req.line_addr);
            let way = sets.find(set, req.line_addr);
            // A miss on a line whose fill is already in flight merges into
            // the pending entry (MSHR behaviour) instead of taking a new
            // bypass slot.
            let merged = way.is_none() && inflight.contains(req.line_addr);

            match (way, req.op) {
                (Some(w), op) => {
                    sets.touch(set, w);
                    match op {
                        MemOp::Load => cov.hit(ev.ld_hit),
                        MemOp::Store => cov.hit(ev.st_hit),
                        MemOp::Prefetch => cov.hit(ev.prefetch_issued),
                    }
                }
                (None, op) if merged => match op {
                    MemOp::Load => cov.hit(ev.ld_miss),
                    MemOp::Store => cov.hit(ev.st_miss),
                    MemOp::Prefetch => cov.hit(ev.prefetch_issued),
                },
                (None, MemOp::Prefetch) => {
                    // Prefetch misses are dropped when no credit is free.
                    if inflight.len < BYPASS_CREDITS {
                        cov.hit(ev.prefetch_issued);
                        let (latency, spiked) = mem_latency(sampler);
                        if spiked {
                            cov.hit(ev.mem_latency_spike);
                        }
                        inflight.insert(req.line_addr, cycle + latency);
                        self.bump_bypass(inflight, cov);
                    } else {
                        cov.hit(ev.prefetch_dropped);
                    }
                }
                (None, op) => {
                    match op {
                        MemOp::Load => cov.hit(ev.ld_miss),
                        MemOp::Store => cov.hit(ev.st_miss),
                        MemOp::Prefetch => unreachable!("handled above"),
                    }
                    if last_miss_set == Some(set) {
                        cov.hit(ev.set_conflict);
                    }
                    last_miss_set = Some(set);
                    if inflight.len == BYPASS_CREDITS {
                        // All bypass slots held: the front end stalls until
                        // the earliest response returns.
                        cov.hit(ev.front_end_stall);
                        cycle = cycle.max(inflight.earliest);
                        inflight.drain_ready(cycle, |line| fill(&mut *sets, line, &mut *cov));
                    }
                    let (latency, spiked) = mem_latency(sampler);
                    if spiked {
                        cov.hit(ev.mem_latency_spike);
                    }
                    inflight.insert(req.line_addr, cycle + latency);
                    self.bump_bypass(inflight, cov);
                }
            }
        }
        if threads_seen.iter().all(|&t| t) {
            cov.hit(ev.all_threads_seen);
        }
    }
}

/// The set a line maps to.
#[inline]
fn set_of(line: u64) -> usize {
    (line as usize) % SETS
}

/// The cache model's state, reused across the simulations of a block.
#[derive(Debug, Clone, Default)]
pub(crate) struct L3State {
    sets: Sets,
    inflight: Inflight,
}

/// Per-set LRU stacks in one flat array: set `s` holds its `len[s]` lines
/// in `ways[s * WAYS..]`, most recently used first.
#[derive(Debug, Clone)]
struct Sets {
    ways: [u64; SETS * WAYS],
    len: [u8; SETS],
}

impl Default for Sets {
    fn default() -> Self {
        Sets {
            ways: [0; SETS * WAYS],
            len: [0; SETS],
        }
    }
}

impl Sets {
    /// Empties every set, then warm-starts the `(base, lines)` span,
    /// bounded by capacity, as if its lines were pushed in ascending order
    /// to the MRU end of their sets. Walking the span downwards instead,
    /// the `d`-th line lands in way `d / SETS` of its set: consecutive
    /// lines cover the sets round-robin, so a set's earlier lines on the
    /// way down are exactly `SETS`, `2 * SETS`, ... above it.
    fn warm_start(&mut self, (base, lines): (u64, u64)) {
        let n = lines.min((SETS * WAYS) as u64) as usize;
        let top = base + n as u64;
        for d in 0..n {
            let line = top - 1 - d as u64;
            self.ways[set_of(line) * WAYS + d / SETS] = line;
        }
        // Every set got `n / SETS` lines, plus one for each set the last,
        // partial round reached.
        self.len = [(n / SETS) as u8; SETS];
        for d in n / SETS * SETS..n {
            self.len[set_of(top - 1 - d as u64)] += 1;
        }
    }

    /// Set `set`'s ways, most recently used first; only the first
    /// `len[set]` hold lines.
    #[inline]
    fn ways(&mut self, set: usize) -> &mut [u64; WAYS] {
        let start = set * WAYS;
        (&mut self.ways[start..start + WAYS])
            .try_into()
            .expect("a set spans WAYS ways")
    }

    /// The way holding `line` in `set`. Lines within a set are distinct.
    #[inline]
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        let len = usize::from(self.len[set]);
        self.ways[set * WAYS..set * WAYS + len]
            .iter()
            .position(|&l| l == line)
    }

    /// Moves way `way` of `set` to the MRU position, shifting the more
    /// recently used ways down by one.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let ways = self.ways(set);
        let line = ways[way];
        for i in (1..WAYS).rev() {
            if i <= way {
                ways[i] = ways[i - 1];
            }
        }
        ways[0] = line;
    }

    /// Installs `line` as its set's MRU line unless it is cached already;
    /// returns whether that evicted the LRU line of a full set.
    #[inline]
    fn fill(&mut self, line: u64) -> bool {
        let set = set_of(line);
        if self.find(set, line).is_some() {
            return false;
        }
        let len = usize::from(self.len[set]);
        // Shifting every way down drops the LRU line of a full set and
        // only moves unused ways otherwise.
        let ways = self.ways(set);
        ways.copy_within(..WAYS - 1, 1);
        ways[0] = line;
        self.len[set] = (len + 1).min(WAYS) as u8;
        len == WAYS
    }

    /// Removes `set`'s MRU line; returns whether the set held one.
    #[inline]
    fn invalidate_mru(&mut self, set: usize) -> bool {
        if self.len[set] == 0 {
            return false;
        }
        self.ways(set).copy_within(1.., 0);
        self.len[set] -= 1;
        true
    }
}

/// The in-flight fills: one entry per held bypass slot, as parallel
/// `(line, ready cycle)` arrays in insertion order, compacted by
/// `swap_remove` when drained. The drain order is model behaviour (it
/// decides the cache fill order), so it must stay the order this
/// insertion-and-swap discipline produces.
#[derive(Debug, Clone)]
struct Inflight {
    lines: [u64; BYPASS_CREDITS],
    ready: [u64; BYPASS_CREDITS],
    len: usize,
    /// The earliest ready cycle held (`u64::MAX` when empty), so a drain
    /// with nothing ready skips its scan.
    earliest: u64,
}

impl Default for Inflight {
    fn default() -> Self {
        Inflight {
            lines: [0; BYPASS_CREDITS],
            ready: [0; BYPASS_CREDITS],
            len: 0,
            earliest: u64::MAX,
        }
    }
}

impl Inflight {
    fn clear(&mut self) {
        self.len = 0;
        self.earliest = u64::MAX;
    }

    /// Whether `line`'s fill is in flight (the MSHR lookup).
    #[inline]
    fn contains(&self, line: u64) -> bool {
        self.lines[..self.len].contains(&line)
    }

    /// Takes a slot for `line` until `ready`.
    ///
    /// # Panics
    ///
    /// Panics when every slot is held; callers drain or drop first.
    #[inline]
    fn insert(&mut self, line: u64, ready: u64) {
        self.lines[self.len] = line;
        self.ready[self.len] = ready;
        self.len += 1;
        self.earliest = self.earliest.min(ready);
    }

    /// Hands every line ready by `now` to `f`, scanning from the front and
    /// moving the last entry into each drained one.
    #[inline]
    fn drain_ready(&mut self, now: u64, mut f: impl FnMut(u64)) {
        if now < self.earliest {
            return;
        }
        // Bit `i` marks a ready entry `i`; the scan jumps between set bits
        // and moves the last entry's bit along with the entry.
        let mut ready = (0..BYPASS_CREDITS).fold(0u32, |m, i| {
            m | (u32::from((i < self.len) & (self.ready[i] <= now)) << i)
        });
        while ready != 0 {
            let i = ready.trailing_zeros() as usize;
            let line = self.lines[i];
            self.len -= 1;
            let last = self.len;
            self.lines[i] = self.lines[last];
            self.ready[i] = self.ready[last];
            let moved = (ready >> last) & 1 & u32::from(last != i);
            ready = (ready & !(1 << i) & !(1 << last)) | (moved << i);
            f(line);
        }
        self.earliest = self.ready[..self.len]
            .iter()
            .copied()
            .min()
            .unwrap_or(u64::MAX);
    }
}

/// One instance's drawn traffic shape (see [`L3Env::generate_into`]).
struct Generated {
    stride_mode: bool,
    snoop_rate: f64,
    /// The `(base, working_set)` span warm-started into the cache.
    warm: (u64, u64),
}

/// Draws a memory latency; returns `(latency, spiked)` where `spiked`
/// flags jitter in the top quarter of the jitter window.
fn mem_latency(sampler: &mut ParamSampler<'_>) -> (u64, bool) {
    let jitter = sampler.uniform(0, MEM_JITTER as i64) as u64;
    (MEM_LATENCY + jitter, jitter >= MEM_JITTER - 2)
}

impl VerifEnv for L3Env {
    fn unit_name(&self) -> &str {
        "l3cache"
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
        let mut program = Vec::new();
        let g = self.generate_into(&mut sampler, &mut program)?;
        Ok(self.run_program(&program, &mut sampler, g.stride_mode, g.warm, g.snoop_rate))
    }

    fn simulate_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        // The sampler is consumed *during* the run phase (snoops, memory
        // jitter), so sims interleave generate/run per seed, reusing the
        // program buffer and the cache state across the block; each sim's
        // cycle model records straight into its plane lane.
        let SimScratch {
            mem_ops, l3, plane, ..
        } = scratch;
        self.registry.check_layout(resolved)?;
        plane.begin(self.model.len(), seeds.len());
        for (lane, &seed) in seeds.iter().enumerate() {
            let mut sampler = ParamSampler::new(resolved, seed);
            mem_ops.clear();
            let g = self.generate_into(&mut sampler, mem_ops)?;
            self.run_program_into(
                mem_ops,
                &mut sampler,
                g.stride_mode,
                g.warm,
                g.snoop_rate,
                l3,
                &mut plane.lane(lane),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::DelayLine;
    use ascdg_coverage::{CoverageRepository, TemplateId};
    use ascdg_stimgen::instance_seed;

    fn env() -> L3Env {
        L3Env::new()
    }

    fn family_rates(env: &L3Env, template: &TestTemplate, sims: u64) -> Vec<f64> {
        let resolved = env.registry().resolve(template).unwrap();
        let ids: Vec<_> = (1..=BYPASS_CREDITS)
            .map(|k| env.coverage_model().id(&format!("byp_reqs{k:02}")).unwrap())
            .collect();
        let mut hits = vec![0u64; ids.len()];
        for s in 0..sims {
            let cov = env
                .simulate_seeded(&resolved, instance_seed(s, template.name(), 0))
                .unwrap();
            for (h, &id) in hits.iter_mut().zip(&ids) {
                if cov.get(id) {
                    *h += 1;
                }
            }
        }
        hits.into_iter().map(|h| h as f64 / sims as f64).collect()
    }

    #[test]
    fn stock_templates_validate() {
        let env = env();
        for (_, t) in env.stock_library().iter() {
            env.registry().validate(t).unwrap();
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let env = env();
        let t = env.stock_library().get(0).unwrap().clone();
        assert_eq!(env.simulate(&t, 3).unwrap(), env.simulate(&t, 3).unwrap());
    }

    #[test]
    fn default_traffic_stays_shallow() {
        let env = env();
        let smoke = env.stock_library().by_name("l3_smoke").unwrap().1.clone();
        let rates = family_rates(&env, &smoke, 400);
        assert!(rates[0] > 0.3, "byp_reqs01 should be common: {}", rates[0]);
        assert!(rates[1] < rates[0], "family should decay: {rates:?}");
        for k in 5..16 {
            assert_eq!(
                rates[k],
                0.0,
                "byp_reqs{:02} hit by smoke: {rates:?}",
                k + 1
            );
        }
    }

    #[test]
    fn capacity_stress_goes_deeper_but_not_deep() {
        let env = env();
        let stress = env
            .stock_library()
            .by_name("l3_capacity_stress")
            .unwrap()
            .1
            .clone();
        let rates = family_rates(&env, &stress, 300);
        assert!(
            rates[2] > 0.05,
            "byp_reqs03 should be reachable under capacity stress: {rates:?}"
        );
        for k in 11..16 {
            assert_eq!(
                rates[k],
                0.0,
                "byp_reqs{:02} must stay out of stock reach: {rates:?}",
                k + 1
            );
        }
    }

    #[test]
    fn family_is_monotone_within_sim() {
        let env = env();
        let stress = env
            .stock_library()
            .by_name("l3_capacity_stress")
            .unwrap()
            .1
            .clone();
        let resolved = env.registry().resolve(&stress).unwrap();
        let ids: Vec<_> = (1..=BYPASS_CREDITS)
            .map(|k| env.coverage_model().id(&format!("byp_reqs{k:02}")).unwrap())
            .collect();
        for s in 0..100 {
            let cov = env
                .simulate_seeded(&resolved, instance_seed(s, "x", 0))
                .unwrap();
            for w in ids.windows(2) {
                assert!(cov.get(w[1]) <= cov.get(w[0]), "not monotone at seed {s}");
            }
        }
    }

    #[test]
    fn aggressive_settings_reach_deep_bypass() {
        // A hand-tuned template in the spirit of what the optimizer should
        // find: huge working set, all-prefetch traffic, deep bursts, tight
        // gaps. Deep family members must be reachable this way.
        let env = env();
        let sub = |lo, hi| Value::SubRange { lo, hi };
        let t = TestTemplate::builder("deep")
            .weights("WorkingSet", [(sub(4096, 32768), 100u32)])
            .unwrap()
            .range("GapL3", MIN_GAP, MIN_GAP + 4)
            .unwrap()
            .weights("RwMix", [("prefetch", 100u32)])
            .unwrap()
            .weights("PfDepth", [(sub(3, 6), 100u32)])
            .unwrap()
            .range("ReqCount", 150, 200)
            .unwrap()
            .build();
        let rates = family_rates(&env, &t, 300);
        assert!(rates[9] > 0.05, "byp_reqs10 should be common: {rates:?}");
        assert!(
            rates[13] > 0.0,
            "byp_reqs14 should be reachable at the optimum: {rates:?}"
        );
        // ...while still decaying toward 16.
        assert!(rates[15] <= rates[11], "no decay toward 16: {rates:?}");
    }

    #[test]
    fn warm_start_means_hits_dominate_small_ws() {
        let env = env();
        let t = env
            .stock_library()
            .by_name("l3_small_ws")
            .unwrap()
            .1
            .clone();
        let resolved = env.registry().resolve(&t).unwrap();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let m = env.coverage_model();
        for s in 0..100 {
            let cov = env
                .simulate_seeded(&resolved, instance_seed(s, "t", 0))
                .unwrap();
            hits += u64::from(cov.get(m.id("ld_hit").unwrap()));
            misses += u64::from(cov.get(m.id("ld_miss").unwrap()));
        }
        assert!(hits == 100, "warm small working sets should always hit");
        assert!(misses < 100, "only snoop re-misses should miss");
    }

    #[test]
    fn handcrafted_program_counts_outstanding() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 5);
        // Five distinct lines, no gaps: five misses land in flight together
        // (memory latency >> issue spacing). No warm lines, no snoops.
        let program: MemProgram = (0..5)
            .map(|i| MemRequest {
                line_addr: 1000 + i * 7,
                op: MemOp::Load,
                thread: 0,
                gap: 0,
            })
            .collect();
        let cov = env.run_program(&program, &mut sampler, false, (0, 0), 0.0);
        let m = env.coverage_model();
        assert!(cov.get(m.id("byp_reqs05").unwrap()));
        assert!(!cov.get(m.id("byp_reqs06").unwrap()));
        assert!(cov.get(m.id("ld_miss").unwrap()));
        assert!(!cov.get(m.id("ld_hit").unwrap()));
    }

    #[test]
    fn repeated_line_hits_after_fill() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 6);
        let program: MemProgram = vec![
            MemRequest {
                line_addr: 42,
                op: MemOp::Load,
                thread: 0,
                gap: 0,
            },
            MemRequest {
                line_addr: 42,
                op: MemOp::Load,
                thread: 0,
                gap: 100,
            },
        ];
        let cov = env.run_program(&program, &mut sampler, false, (0, 0), 0.0);
        let m = env.coverage_model();
        assert!(cov.get(m.id("ld_miss").unwrap()));
        assert!(cov.get(m.id("ld_hit").unwrap()));
        assert!(cov.get(m.id("same_line_b2b").unwrap()));
        assert!(cov.get(m.id("fill_complete").unwrap()));
    }

    #[test]
    fn warm_lines_hit_immediately() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 7);
        let program: MemProgram = vec![MemRequest {
            line_addr: 500,
            op: MemOp::Load,
            thread: 1,
            gap: 0,
        }];
        let cov = env.run_program(&program, &mut sampler, false, (400, 200), 0.0);
        let m = env.coverage_model();
        assert!(cov.get(m.id("ld_hit").unwrap()));
        assert!(!cov.get(m.id("ld_miss").unwrap()));
        assert!(cov.get(m.id("thread1_active").unwrap()));
    }

    #[test]
    fn prefetch_burst_occupies_multiple_slots() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 8);
        let program: MemProgram = (0..4)
            .map(|j| MemRequest {
                line_addr: 9000 + j,
                op: MemOp::Prefetch,
                thread: 0,
                gap: 0,
            })
            .collect();
        let cov = env.run_program(&program, &mut sampler, false, (0, 0), 0.0);
        let m = env.coverage_model();
        assert!(cov.get(m.id("byp_reqs04").unwrap()));
        assert!(cov.get(m.id("prefetch_issued").unwrap()));
    }

    #[test]
    fn hits_and_misses_both_occur() {
        let env = env();
        let repo = CoverageRepository::new(env.coverage_model().clone());
        let t = env
            .stock_library()
            .by_name("l3_medium_ws")
            .unwrap()
            .1
            .clone();
        let resolved = env.registry().resolve(&t).unwrap();
        for s in 0..100 {
            repo.record(
                TemplateId(0),
                &env.simulate_seeded(&resolved, instance_seed(s, "t", 0))
                    .unwrap(),
            );
        }
        let m = env.coverage_model();
        assert!(repo.global_stats(m.id("ld_hit").unwrap()).hits > 0);
        assert!(repo.global_stats(m.id("ld_miss").unwrap()).hits > 0);
    }

    #[test]
    fn prefetch_drops_when_credits_exhausted() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 11);
        // 16 demand misses fill every credit; a 17th prefetch miss must be
        // dropped, and a 17th demand miss must stall the front end.
        let mut program: MemProgram = (0..BYPASS_CREDITS as u64)
            .map(|i| MemRequest {
                line_addr: 5000 + i * 3,
                op: MemOp::Load,
                thread: 0,
                gap: 0,
            })
            .collect();
        program.push(MemRequest {
            line_addr: 9000,
            op: MemOp::Prefetch,
            thread: 0,
            gap: 0,
        });
        let cov = env.run_program(&program, &mut sampler, false, (0, 0), 0.0);
        let m = env.coverage_model();
        assert!(cov.get(m.id("byp_reqs16").unwrap()));
        assert!(cov.get(m.id("prefetch_dropped").unwrap()));
        assert!(!cov.get(m.id("front_end_stall").unwrap()));

        let mut sampler = ParamSampler::new(&resolved, 12);
        let mut program2 = program.clone();
        program2.pop();
        program2.push(MemRequest {
            line_addr: 9000,
            op: MemOp::Store,
            thread: 0,
            gap: 0,
        });
        let cov = env.run_program(&program2, &mut sampler, false, (0, 0), 0.0);
        assert!(cov.get(m.id("front_end_stall").unwrap()));
        assert!(cov.get(m.id("st_miss").unwrap()));
    }

    #[test]
    fn mshr_merge_takes_no_extra_slot() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 13);
        // Two back-to-back misses on the SAME line: the second merges into
        // the in-flight fill, so occupancy never reaches 2.
        let program: MemProgram = vec![
            MemRequest {
                line_addr: 777,
                op: MemOp::Load,
                thread: 0,
                gap: 0,
            },
            MemRequest {
                line_addr: 777,
                op: MemOp::Load,
                thread: 1,
                gap: 0,
            },
        ];
        let cov = env.run_program(&program, &mut sampler, false, (0, 0), 0.0);
        let m = env.coverage_model();
        assert!(cov.get(m.id("byp_reqs01").unwrap()));
        assert!(!cov.get(m.id("byp_reqs02").unwrap()));
    }

    #[test]
    fn warm_start_matches_mru_insertion() {
        // The reference: push each line of the span, ascending, to the MRU
        // end of its set while the set has room.
        for (base, lines) in [(0, 0), (5, 1), (300, 700), (1 << 20, 2048), (77, 5000)] {
            let mut reference = vec![Vec::new(); SETS];
            for line in base..base + lines.min((SETS * WAYS) as u64) {
                let set = set_of(line);
                if reference[set].len() < WAYS {
                    reference[set].insert(0, line);
                }
            }
            // Stale set lengths must not leak into the warm start.
            let mut sets = Sets {
                len: [WAYS as u8; SETS],
                ..Sets::default()
            };
            sets.warm_start((base, lines));
            for (set, want) in reference.iter().enumerate() {
                let len = usize::from(sets.len[set]);
                assert_eq!(&sets.ways[set * WAYS..set * WAYS + len], want.as_slice());
            }
        }
    }

    #[test]
    fn inflight_table_drains_like_a_delay_line() {
        // The reference is the general delay line: the same `swap_remove`
        // drain order, and `next_ready` for the cached earliest cycle.
        let mut table = Inflight::default();
        let mut reference = DelayLine::new();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut now = 0;
        for step in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now += x % 5;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            table.drain_ready(now, |line| got.push(line));
            reference.drain_ready_with(now, |line| want.push(line));
            assert_eq!(got, want, "step {step}");
            if table.len < BYPASS_CREDITS && !x.is_multiple_of(3) {
                let line = (x >> 8) % 64;
                table.insert(line, now + 40 + (x >> 20) % 12);
                reference.insert(line, now + 40 + (x >> 20) % 12);
            }
            assert_eq!(table.len, reference.len());
            assert_eq!(
                (table.len > 0).then_some(table.earliest),
                reference.next_ready()
            );
        }
    }

    #[test]
    fn snoop_invalidation_causes_remiss() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 15);
        // Warm line, snoop rate 1.0: every request invalidates a random
        // set's MRU way, so repeated hits to one warm line eventually
        // re-miss once its set (1 of 256) is the victim. The program is
        // long enough that missing the set every time is astronomically
        // unlikely (p < 1e-5).
        let program: MemProgram = (0..3000)
            .map(|i| MemRequest {
                line_addr: 300,
                op: MemOp::Load,
                thread: 0,
                gap: (i % 4) as u32,
            })
            .collect();
        let cov = env.run_program(&program, &mut sampler, false, (300, 1), 1.0);
        let m = env.coverage_model();
        assert!(cov.get(m.id("snoop_invalidate").unwrap()));
        assert!(
            cov.get(m.id("ld_miss").unwrap()),
            "victimized line never re-missed"
        );
        assert!(cov.get(m.id("ld_hit").unwrap()));
    }
}
