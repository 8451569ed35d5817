//! The I/O unit: a DMA engine with a CRC checker.
//!
//! This unit reproduces the coverage structure of the paper's Fig. 3: a
//! monotone burst-length family `crc_004 .. crc_096`. The model:
//!
//! * a sequential DMA engine processes [`IoCommand`]s in order;
//! * the CRC engine accumulates a *span* of consecutive data beats — a span
//!   continues across commands only when they target the same channel with
//!   an inter-command gap of at most [`CHAIN_GAP`] cycles and CRC stays
//!   enabled;
//! * event `crc_k` fires when a span reaches `k` beats;
//! * an injected error aborts the span mid-payload; the span buffer holds
//!   [`CRC_BUFFER_BEATS`] beats and flushes when full; background machine
//!   activity (interrupt traffic, response timeouts) flushes a live span
//!   with probability [`FLUSH_HAZARD`] per beat, which is what makes very
//!   long spans intrinsically hard.
//!
//! The unit also exposes a second closable family: the response queue.
//! Every command holds one of `CreditInit` response-queue slots until its
//! completion returns after `RespDelay` cycles; event `qdepth_k` fires at
//! `k` simultaneously held slots (capped by [`RESP_QUEUE_MAX`]). Deep
//! queue occupancy needs tight gaps, slow responses and a deep queue —
//! a different relevant-parameter set than the CRC family, which is what
//! makes the unit a good two-target demonstration.
//!
//! Under the environment defaults almost all packets are 1-3 beats and gaps
//! are wide, so `crc_016` and above are essentially unreachable — exactly
//! the "no positive evidence" starting point of the paper. The stock
//! library contains a handful of burst-oriented templates whose parameters
//! (packet-length weights, gap range, channel focus, CRC enable, error
//! rate) are the ones the coarse-grained search should discover.

use ascdg_coverage::{CoverageModel, CoverageSink, CoverageVector, EventId};
use ascdg_stimgen::{IoCommand, IoProgram, ParamSampler};
use ascdg_template::{
    ParamDef, ParamId, ParamRegistry, ResolvedParams, Symbol, TemplateLibrary, TestTemplate, Value,
};

use crate::{EnvError, SimScratch, VerifEnv};

/// Maximum inter-command gap (cycles) across which a CRC span survives.
pub const CHAIN_GAP: u32 = 1;

/// Capacity of the CRC span buffer in beats; the span flushes when full.
pub const CRC_BUFFER_BEATS: u32 = 128;

/// Per-beat probability that background activity flushes a live span.
pub const FLUSH_HAZARD: f64 = 0.012;

/// The CRC burst-length thresholds (the `crc_*` event family).
pub const CRC_THRESHOLDS: [u32; 6] = [4, 8, 16, 32, 64, 96];

/// Maximum depth of the response queue (the `qdepth_*` family size).
pub const RESP_QUEUE_MAX: usize = 8;

/// The I/O-unit verification environment.
///
/// # Examples
///
/// ```
/// use ascdg_duv::{io_unit::IoEnv, VerifEnv};
///
/// let env = IoEnv::new();
/// assert_eq!(env.unit_name(), "io_unit");
/// assert!(env.coverage_model().id("crc_096").is_ok());
/// assert!(env.stock_library().len() >= 12);
/// ```
#[derive(Debug, Clone)]
pub struct IoEnv {
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
    addr_align: ParamId,
    /// `AddrAlign`'s `unaligned`.
    unaligned: Symbol,
    credit_init: ParamId,
    pkt_count: ParamId,
    err_pct: ParamId,
    intr_pct: ParamId,
    read_pct: ParamId,
    channel: ParamId,
    pkt_len: ParamId,
    gap: ParamId,
    resp_delay: ParamId,
    crc_en: ParamId,
    /// `CrcEn`'s `on`.
    crc_on: Symbol,
}

impl Params {
    fn resolve(reg: &ParamRegistry) -> Self {
        let id = |name| reg.id(name).expect("registry parameter");
        let sym = |param, name| reg.symbol(id(param), name).expect("registry symbol");
        Params {
            addr_align: id("AddrAlign"),
            unaligned: sym("AddrAlign", "unaligned"),
            credit_init: id("CreditInit"),
            pkt_count: id("PktCount"),
            err_pct: id("ErrPct"),
            intr_pct: id("IntrPct"),
            read_pct: id("ReadPct"),
            channel: id("Channel"),
            pkt_len: id("PktLen"),
            gap: id("Gap"),
            resp_delay: id("RespDelay"),
            crc_en: id("CrcEn"),
            crc_on: sym("CrcEn", "on"),
        }
    }
}

/// The events the cycle model records, resolved once from the model.
#[derive(Debug, Clone)]
struct Events {
    /// `crc_k` ids in [`CRC_THRESHOLDS`] order.
    crc: [EventId; CRC_THRESHOLDS.len()],
    /// `qdepth_N` ids indexed by depth-1.
    qdepth: [EventId; RESP_QUEUE_MAX],
    /// `chN_active` ids indexed by channel.
    ch_active: [EventId; 4],
    all_channels_used: EventId,
    rd_cmd: EventId,
    wr_cmd: EventId,
    err_injected: EventId,
    crc_err_abort: EventId,
    crc_disabled_cmd: EventId,
    gap_zero_b2b: EventId,
    long_gap: EventId,
    intr_raised: EventId,
    intr_burst2: EventId,
    buffer_flush_full: EventId,
    chain2: EventId,
    chain4: EventId,
    chain8: EventId,
    max_beats_cmd: EventId,
    unaligned_access: EventId,
    resp_queue_full: EventId,
}

impl Events {
    fn resolve(model: &CoverageModel) -> Self {
        let id = |name: &str| model.id(name).expect("model event");
        Events {
            crc: CRC_THRESHOLDS.map(|k| id(&format!("crc_{k:03}"))),
            qdepth: std::array::from_fn(|d| id(&format!("qdepth_{}", d + 1))),
            ch_active: std::array::from_fn(|ch| id(&format!("ch{ch}_active"))),
            all_channels_used: id("all_channels_used"),
            rd_cmd: id("rd_cmd"),
            wr_cmd: id("wr_cmd"),
            err_injected: id("err_injected"),
            crc_err_abort: id("crc_err_abort"),
            crc_disabled_cmd: id("crc_disabled_cmd"),
            gap_zero_b2b: id("gap_zero_b2b"),
            long_gap: id("long_gap"),
            intr_raised: id("intr_raised"),
            intr_burst2: id("intr_burst2"),
            buffer_flush_full: id("buffer_flush_full"),
            chain2: id("chain2"),
            chain4: id("chain4"),
            chain8: id("chain8"),
            max_beats_cmd: id("max_beats_cmd"),
            unaligned_access: id("unaligned_access"),
            resp_queue_full: id("resp_queue_full"),
        }
    }
}

impl Default for IoEnv {
    fn default() -> Self {
        IoEnv::new()
    }
}

/// Builds the event list: the CRC family plus the unit's other events.
fn event_names() -> Vec<String> {
    let mut names: Vec<String> = CRC_THRESHOLDS
        .iter()
        .map(|k| format!("crc_{k:03}"))
        .collect();
    names.extend((1..=RESP_QUEUE_MAX).map(|k| format!("qdepth_{k}")));
    names.extend(
        [
            "ch0_active",
            "ch1_active",
            "ch2_active",
            "ch3_active",
            "all_channels_used",
            "rd_cmd",
            "wr_cmd",
            "err_injected",
            "crc_err_abort",
            "crc_disabled_cmd",
            "gap_zero_b2b",
            "long_gap",
            "intr_raised",
            "intr_burst2",
            "buffer_flush_full",
            "chain2",
            "chain4",
            "chain8",
            "max_beats_cmd",
            "unaligned_access",
            "resp_queue_full",
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
        // --- parameters relevant to the CRC family ---
        ParamDef::range("PktCount", 4, 48).unwrap(),
        // The DMA engine caps single payloads below 16 beats, so every long
        // CRC span must be assembled from *chained* back-to-back packets —
        // that multiplicative structure is what makes the deep crc_* events
        // hard (and makes the gap/channel/error parameters matter).
        ParamDef::weights(
            "PktLen",
            [(sub(1, 4), 100u32), (sub(4, 8), 1), (sub(8, 16), 0)],
        )
        .unwrap(),
        ParamDef::range("Gap", 0, 32).unwrap(),
        ParamDef::weights(
            "Channel",
            [
                (Value::Int(0), 25u32),
                (Value::Int(1), 25),
                (Value::Int(2), 25),
                (Value::Int(3), 25),
            ],
        )
        .unwrap(),
        ParamDef::weights("CrcEn", [("on", 80u32), ("off", 20)]).unwrap(),
        ParamDef::range("ErrPct", 0, 30).unwrap(),
        // Completion latency: defaults are fast responses; the slow
        // subranges exist in the domain but carry no default weight, so
        // deep response queues need a template that reweights them.
        ParamDef::weights(
            "RespDelay",
            [
                (sub(1, 8), 85u32),
                (sub(8, 16), 15),
                (sub(16, 28), 0),
                (sub(28, 40), 0),
            ],
        )
        .unwrap(),
        // --- parameters that drive the unit's other events ---
        ParamDef::range("ReadPct", 0, 100).unwrap(),
        ParamDef::range("IntrPct", 0, 20).unwrap(),
        ParamDef::weights("AddrAlign", [("aligned", 70u32), ("unaligned", 30)]).unwrap(),
        // --- plausible environment knobs irrelevant to this unit's events ---
        ParamDef::range("QDepth", 1, 8).unwrap(),
        ParamDef::weights(
            "PrioCh",
            [
                (Value::Int(0), 40u32),
                (Value::Int(1), 30),
                (Value::Int(2), 20),
                (Value::Int(3), 10),
            ],
        )
        .unwrap(),
        ParamDef::range("MmioPct", 0, 10).unwrap(),
        ParamDef::weights("DmaMode", [("contig", 50u32), ("scatter", 50)]).unwrap(),
        ParamDef::range("TlpSize", 1, 9).unwrap(),
        ParamDef::weights("OrderStrict", [("on", 50u32), ("off", 50)]).unwrap(),
        ParamDef::weights("PwrSave", [("on", 10u32), ("off", 90)]).unwrap(),
        ParamDef::range("RetryPct", 0, 10).unwrap(),
        ParamDef::range("FlushPct", 0, 5).unwrap(),
        ParamDef::range("CreditInit", 4, 17).unwrap(),
        ParamDef::weights("VcMap", [("vc0", 50u32), ("vc1", 50)]).unwrap(),
        ParamDef::weights("ParityEn", [("on", 90u32), ("off", 10)]).unwrap(),
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
        // Generic regression templates, unrelated to the CRC family.
        t("io_smoke").build(),
        t("io_reads").range("ReadPct", 80, 100).unwrap().build(),
        t("io_writes").range("ReadPct", 0, 20).unwrap().build(),
        t("io_interrupt_storm")
            .range("IntrPct", 12, 20)
            .unwrap()
            .build(),
        t("io_mmio_heavy").range("MmioPct", 6, 10).unwrap().build(),
        t("io_power_save")
            .weights("PwrSave", [("on", 90u32), ("off", 10)])
            .unwrap()
            .build(),
        t("io_retry_stress")
            .range("RetryPct", 5, 10)
            .unwrap()
            .build(),
        t("io_scatter")
            .weights("DmaMode", [("scatter", 100u32)])
            .unwrap()
            .range("TlpSize", 4, 9)
            .unwrap()
            .build(),
        t("io_unaligned")
            .weights("AddrAlign", [("unaligned", 100u32)])
            .unwrap()
            .build(),
        t("io_crc_off")
            .weights("CrcEn", [("off", 100u32)])
            .unwrap()
            .build(),
        // Burst-oriented templates: these carry the parameters that matter
        // for the CRC family, with increasing aggressiveness.
        t("io_short_bursts")
            .weights("PktLen", [(sub(1, 4), 50u32), (sub(4, 8), 50)])
            .unwrap()
            .build(),
        t("io_medium_bursts")
            .weights(
                "PktLen",
                [(sub(1, 4), 30u32), (sub(4, 8), 60), (sub(8, 16), 10)],
            )
            .unwrap()
            .weights("CrcEn", [("on", 100u32)])
            .unwrap()
            .build(),
        t("io_back_to_back")
            .range("Gap", 0, 4)
            .unwrap()
            .weights("Channel", [(Value::Int(1), 100u32)])
            .unwrap()
            .build(),
        t("io_burst_stress")
            .weights(
                "PktLen",
                [(sub(1, 4), 25u32), (sub(4, 8), 60), (sub(8, 16), 15)],
            )
            .unwrap()
            .range("Gap", 0, 8)
            .unwrap()
            .weights("Channel", [(Value::Int(2), 70u32), (Value::Int(3), 30)])
            .unwrap()
            .weights("CrcEn", [("on", 100u32)])
            .unwrap()
            .range("ErrPct", 0, 10)
            .unwrap()
            .range("PktCount", 16, 48)
            .unwrap()
            .build(),
        t("io_error_recovery")
            .range("ErrPct", 15, 30)
            .unwrap()
            .weights("PktLen", [(sub(1, 4), 50u32), (sub(4, 8), 50)])
            .unwrap()
            .build(),
        t("io_resp_stress")
            .range("Gap", 1, 8)
            .unwrap()
            .weights(
                "RespDelay",
                [(sub(8, 16), 50u32), (sub(16, 28), 40), (sub(28, 40), 10)],
            )
            .unwrap()
            .range("CreditInit", 8, 17)
            .unwrap()
            .range("PktCount", 16, 48)
            .unwrap()
            .build(),
        t("io_ch_sweep")
            .weights(
                "Channel",
                [
                    (Value::Int(0), 10u32),
                    (Value::Int(1), 20),
                    (Value::Int(2), 30),
                    (Value::Int(3), 40),
                ],
            )
            .unwrap()
            .build(),
    ]
    .into_iter()
    .collect()
}

impl IoEnv {
    /// Builds the environment (registry, stock library, coverage model).
    #[must_use]
    pub fn new() -> Self {
        let registry = registry();
        let model =
            CoverageModel::from_names("io_unit", event_names()).expect("event names are unique");
        IoEnv {
            params: Params::resolve(&registry),
            events: Events::resolve(&model),
            registry,
            model,
            library: stock_library(),
        }
    }

    /// Draws one instance's setup — `(unaligned, resp_queue_cap)` — then
    /// its stimulus program into `out` (a cleared scratch buffer on the
    /// batch path, a fresh `Vec` otherwise).
    fn generate_into(
        &self,
        sampler: &mut ParamSampler<'_>,
        out: &mut Vec<IoCommand>,
    ) -> Result<(bool, usize), EnvError> {
        let p = self.params;
        let unaligned = sampler.sample_symbol(p.addr_align)? == p.unaligned;
        let resp_queue_cap = sampler.sample_int(p.credit_init)? as usize;
        let count = sampler.sample_int(p.pkt_count)? as usize;
        let err_rate = sampler.rate(p.err_pct)?;
        let intr_rate = sampler.rate(p.intr_pct)?;
        let read_rate = sampler.rate(p.read_pct)?;
        out.reserve(count);
        for _ in 0..count {
            out.push(IoCommand {
                channel: sampler.sample_int(p.channel)? as u8,
                payload_beats: sampler.sample_int(p.pkt_len)? as u32,
                gap: sampler.sample_int(p.gap)? as u32,
                resp_delay: sampler.sample_int(p.resp_delay)? as u32,
                crc_enable: sampler.sample_symbol(p.crc_en)? == p.crc_on,
                inject_error: sampler.chance(err_rate),
                is_read: sampler.chance(read_rate),
                raise_intr: sampler.chance(intr_rate),
            });
        }
        Ok((unaligned, resp_queue_cap))
    }

    /// Runs the DMA/CRC model over a program, collecting coverage.
    ///
    /// Exposed for tests and for anyone who wants to drive the unit with a
    /// hand-written program.
    #[must_use]
    pub fn run_program(
        &self,
        program: &IoProgram,
        sampler: &mut ParamSampler<'_>,
        unaligned: bool,
        resp_queue_cap: usize,
    ) -> CoverageVector {
        let mut cov = CoverageVector::empty(self.model.len());
        let mut responses = crate::kernel::DelayLine::new();
        self.run_program_into(
            program,
            sampler,
            unaligned,
            resp_queue_cap,
            &mut responses,
            &mut cov,
        );
        cov
    }

    /// [`IoEnv::run_program`] over a caller-provided response queue and a
    /// zeroed coverage sink (a `CoverageVector` or a bit-plane lane) — the
    /// batch kernels' entry point. `responses` is cleared (never trusted)
    /// before use.
    fn run_program_into<S: CoverageSink>(
        &self,
        program: &[IoCommand],
        sampler: &mut ParamSampler<'_>,
        unaligned: bool,
        resp_queue_cap: usize,
        responses: &mut crate::kernel::DelayLine<()>,
        cov: &mut S,
    ) {
        let ev = &self.events;
        let mut span: u32 = 0;
        let mut chain_pkts: u32 = 0;
        let mut prev: Option<IoCommand> = None;
        let mut prev_intr = false;
        let mut channels_used = [false; 4];
        // Response-queue model: every command holds a slot from issue
        // until its completion returns.
        let resp_queue_cap = resp_queue_cap.max(1);
        responses.clear();
        let mut cycle: u64 = 0;

        if unaligned {
            cov.hit(ev.unaligned_access);
        }

        for cmd in program {
            // Issue timing and response-queue occupancy.
            responses.drain_ready_with(cycle, |()| {});
            if responses.len() == resp_queue_cap {
                cov.hit(ev.resp_queue_full);
                let next = responses.next_ready().expect("slots are held");
                cycle = cycle.max(next);
                responses.drain_ready_with(cycle, |()| {});
            }
            responses.insert((), cycle + u64::from(cmd.resp_delay));
            let depth = responses.len().min(RESP_QUEUE_MAX);
            cov.hit(ev.qdepth[depth - 1]);
            cycle += 1 + u64::from(cmd.payload_beats) + u64::from(cmd.gap);

            let ch = (cmd.channel & 3) as usize;
            channels_used[ch] = true;
            cov.hit(ev.ch_active[ch]);
            cov.hit(if cmd.is_read { ev.rd_cmd } else { ev.wr_cmd });
            if cmd.gap == 0 {
                cov.hit(ev.gap_zero_b2b);
            }
            if cmd.gap >= 24 {
                cov.hit(ev.long_gap);
            }
            if cmd.payload_beats >= 12 {
                cov.hit(ev.max_beats_cmd);
            }
            if cmd.raise_intr {
                cov.hit(ev.intr_raised);
                if prev_intr {
                    cov.hit(ev.intr_burst2);
                }
            }
            prev_intr = cmd.raise_intr;

            // CRC span bookkeeping.
            let continues = matches!(
                prev,
                Some(p) if p.channel == cmd.channel
                    && p.gap <= CHAIN_GAP
                    && p.crc_enable
                    && !p.inject_error
            ) && cmd.crc_enable;
            if !continues {
                span = 0;
                chain_pkts = 0;
            }
            if cmd.crc_enable {
                chain_pkts += 1;
                if chain_pkts >= 2 {
                    cov.hit(ev.chain2);
                }
                if chain_pkts >= 4 {
                    cov.hit(ev.chain4);
                }
                if chain_pkts >= 8 {
                    cov.hit(ev.chain8);
                }
                // Beats stream through the CRC engine one at a time; an
                // injected error aborts mid-payload and background machine
                // activity can flush the span at any beat.
                let beats = if cmd.inject_error {
                    cmd.payload_beats / 2
                } else {
                    cmd.payload_beats
                };
                let mut flushed = false;
                for _ in 0..beats {
                    if sampler.chance(FLUSH_HAZARD) {
                        flushed = true;
                        break;
                    }
                    span += 1;
                    for (&k, &crc) in CRC_THRESHOLDS.iter().zip(&ev.crc) {
                        if span == k {
                            cov.hit(crc);
                        }
                    }
                    if span >= CRC_BUFFER_BEATS {
                        cov.hit(ev.buffer_flush_full);
                        flushed = true;
                        break;
                    }
                }
                if cmd.inject_error {
                    cov.hit(ev.err_injected);
                    cov.hit(ev.crc_err_abort);
                    flushed = true;
                }
                if flushed {
                    span = 0;
                    chain_pkts = 0;
                }
            } else {
                cov.hit(ev.crc_disabled_cmd);
                if cmd.inject_error {
                    cov.hit(ev.err_injected);
                }
            }
            prev = Some(*cmd);
        }
        if channels_used.iter().all(|&u| u) {
            cov.hit(ev.all_channels_used);
        }
    }
}

impl VerifEnv for IoEnv {
    fn unit_name(&self) -> &str {
        "io_unit"
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
        let (unaligned, resp_queue_cap) = self.generate_into(&mut sampler, &mut program)?;
        Ok(self.run_program(&program, &mut sampler, unaligned, resp_queue_cap))
    }

    fn simulate_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        // The sampler is consumed *during* the run phase (per-beat flush
        // hazard), so sims interleave generate/run per seed, reusing the
        // command buffer and the response delay line across the block;
        // each sim's cycle model records straight into its plane lane.
        let SimScratch {
            io_cmds,
            io_responses,
            plane,
            ..
        } = scratch;
        self.registry.check_layout(resolved)?;
        plane.begin(self.model.len(), seeds.len());
        for (lane, &seed) in seeds.iter().enumerate() {
            let mut sampler = ParamSampler::new(resolved, seed);
            io_cmds.clear();
            let (unaligned, resp_queue_cap) = self.generate_into(&mut sampler, io_cmds)?;
            self.run_program_into(
                io_cmds,
                &mut sampler,
                unaligned,
                resp_queue_cap,
                io_responses,
                &mut plane.lane(lane),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascdg_coverage::{CoverageRepository, TemplateId};
    use ascdg_stimgen::instance_seed;

    fn env() -> IoEnv {
        IoEnv::new()
    }

    fn rate_of(env: &IoEnv, template: &TestTemplate, event: &str, sims: u64) -> f64 {
        let resolved = env.registry().resolve(template).unwrap();
        let id = env.coverage_model().id(event).unwrap();
        let mut hits = 0u64;
        for s in 0..sims {
            let cov = env
                .simulate_seeded(&resolved, instance_seed(s, template.name(), 0))
                .unwrap();
            if cov.get(id) {
                hits += 1;
            }
        }
        hits as f64 / sims as f64
    }

    #[test]
    fn stock_templates_validate() {
        let env = env();
        for (_, t) in env.stock_library().iter() {
            env.registry().validate(t).unwrap();
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let env = env();
        let t = env.stock_library().get(0).unwrap().clone();
        let a = env.simulate(&t, 7).unwrap();
        let b = env.simulate(&t, 7).unwrap();
        assert_eq!(a, b);
        let c = env.simulate(&t, 8).unwrap();
        // Different seeds almost surely differ in some event.
        assert_ne!(a, c);
    }

    #[test]
    fn default_template_rarely_reaches_long_spans() {
        let env = env();
        let smoke = env.stock_library().by_name("io_smoke").unwrap().1.clone();
        assert_eq!(rate_of(&env, &smoke, "crc_064", 300), 0.0);
        assert_eq!(rate_of(&env, &smoke, "crc_096", 300), 0.0);
    }

    #[test]
    fn burst_template_reaches_middle_spans() {
        let env = env();
        let burst = env
            .stock_library()
            .by_name("io_burst_stress")
            .unwrap()
            .1
            .clone();
        let r16 = rate_of(&env, &burst, "crc_016", 300);
        assert!(r16 > 0.05, "crc_016 rate {r16} too low for burst template");
    }

    #[test]
    fn crc_family_is_monotone() {
        // On any template, crc_k implies crc_j for j < k within a sim.
        let env = env();
        let burst = env
            .stock_library()
            .by_name("io_burst_stress")
            .unwrap()
            .1
            .clone();
        let resolved = env.registry().resolve(&burst).unwrap();
        let ids: Vec<_> = CRC_THRESHOLDS
            .iter()
            .map(|k| env.coverage_model().id(&format!("crc_{k:03}")).unwrap())
            .collect();
        for s in 0..200 {
            let cov = env
                .simulate_seeded(&resolved, instance_seed(s, "io_burst_stress", 0))
                .unwrap();
            for w in ids.windows(2) {
                assert!(
                    cov.get(w[1]) <= cov.get(w[0]),
                    "family not monotone at seed {s}"
                );
            }
        }
    }

    #[test]
    fn handcrafted_program_hits_expected_events() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        // Sampler only consumed for flush hazard; FLUSH_HAZARD misses are
        // probabilistic, so use a short span where survival is near-certain.
        let mut sampler = ParamSampler::new(&resolved, 42);
        let cmd = |ch, beats, gap| IoCommand {
            channel: ch,
            payload_beats: beats,
            gap,
            resp_delay: 2,
            crc_enable: true,
            inject_error: false,
            is_read: true,
            raise_intr: false,
        };
        let program = vec![cmd(0, 3, 0), cmd(0, 3, 5)];
        let cov = env.run_program(&program, &mut sampler, false, 16);
        let m = env.coverage_model();
        assert!(cov.get(m.id("crc_004").unwrap()), "chained 6 beats >= 4");
        assert!(cov.get(m.id("chain2").unwrap()));
        assert!(cov.get(m.id("gap_zero_b2b").unwrap()));
        assert!(cov.get(m.id("rd_cmd").unwrap()));
        assert!(!cov.get(m.id("wr_cmd").unwrap()));
        assert!(!cov.get(m.id("crc_008").unwrap()));
    }

    #[test]
    fn error_injection_aborts_span() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 1);
        let mut cmd = IoCommand {
            channel: 0,
            payload_beats: 6,
            gap: 0,
            resp_delay: 2,
            crc_enable: true,
            inject_error: true,
            is_read: false,
            raise_intr: false,
        };
        let program = vec![cmd, {
            cmd.inject_error = false;
            cmd
        }];
        let cov = env.run_program(&program, &mut sampler, false, 16);
        let m = env.coverage_model();
        assert!(cov.get(m.id("err_injected").unwrap()));
        assert!(cov.get(m.id("crc_err_abort").unwrap()));
        // First command contributes only 3 beats then aborts; second starts
        // a fresh span of 6: crc_008 must not fire.
        assert!(!cov.get(m.id("crc_008").unwrap()));
    }

    #[test]
    fn before_cdg_regression_shape() {
        // Simulating the stock library must leave the deep family members
        // uncovered while covering the shallow ones — the paper's
        // "Before CDG" column shape.
        let env = env();
        let repo = CoverageRepository::new(env.coverage_model().clone());
        for (idx, t) in env.stock_library().iter() {
            let resolved = env.registry().resolve(t).unwrap();
            for s in 0..120 {
                let cov = env
                    .simulate_seeded(&resolved, instance_seed(s, t.name(), 0))
                    .unwrap();
                repo.record(TemplateId(idx as u32), &cov);
            }
        }
        let m = env.coverage_model();
        let rate = |name: &str| repo.global_stats(m.id(name).unwrap()).rate();
        assert!(rate("crc_004") > 0.01, "crc_004 {}", rate("crc_004"));
        assert!(rate("crc_008") > rate("crc_016"));
        assert_eq!(rate("crc_096"), 0.0, "crc_096 must start uncovered");
        assert!(rate("rd_cmd") > 0.9);
    }
    #[test]
    fn crc_buffer_flushes_at_capacity() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        // Seed chosen so FLUSH_HAZARD never fires within the first run of
        // beats (deterministic given the fixed sampler stream is unlikely
        // to abort 300+ beats; if it does, the buffer_flush_full assertion
        // below would fail loudly rather than silently pass).
        let mut sampler = ParamSampler::new(&resolved, 1234);
        let cmd = |beats| IoCommand {
            channel: 0,
            payload_beats: beats,
            gap: 0,
            resp_delay: 2,
            crc_enable: true,
            inject_error: false,
            is_read: true,
            raise_intr: false,
        };
        // 40 chained packets x 15 beats: must hit the 128-beat cap at
        // least once despite flush hazards.
        let program: IoProgram = (0..40).map(|_| cmd(15)).collect();
        let cov = env.run_program(&program, &mut sampler, false, 16);
        let m = env.coverage_model();
        assert!(cov.get(m.id("buffer_flush_full").unwrap()));
        assert!(cov.get(m.id("chain8").unwrap()));
    }

    #[test]
    fn channel_switch_breaks_chain() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 3);
        let cmd = |ch, beats| IoCommand {
            channel: ch,
            payload_beats: beats,
            gap: 0,
            resp_delay: 2,
            crc_enable: true,
            inject_error: false,
            is_read: false,
            raise_intr: false,
        };
        // Alternating channels: spans never accumulate across commands.
        let program: IoProgram = (0..10).map(|i| cmd(i % 2, 3)).collect();
        let cov = env.run_program(&program, &mut sampler, false, 16);
        let m = env.coverage_model();
        assert!(!cov.get(m.id("crc_004").unwrap()), "3-beat spans only");
        assert!(!cov.get(m.id("chain2").unwrap()));
        assert!(cov.get(m.id("ch0_active").unwrap()));
        assert!(cov.get(m.id("ch1_active").unwrap()));
    }

    #[test]
    fn wide_gap_breaks_chain() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 4);
        let cmd = |gap| IoCommand {
            channel: 2,
            payload_beats: 3,
            gap,
            resp_delay: 2,
            crc_enable: true,
            inject_error: false,
            is_read: true,
            raise_intr: false,
        };
        // Gap 2 exceeds CHAIN_GAP=1: no chaining.
        let program: IoProgram = vec![cmd(2), cmd(2), cmd(2)];
        let cov = env.run_program(&program, &mut sampler, false, 16);
        assert!(!cov.get(env.coverage_model().id("crc_004").unwrap()));
        // Gap 1 chains.
        let mut sampler = ParamSampler::new(&resolved, 4);
        let program: IoProgram = vec![cmd(1), cmd(1)];
        let cov = env.run_program(&program, &mut sampler, false, 16);
        assert!(cov.get(env.coverage_model().id("crc_004").unwrap()));
    }

    #[test]
    fn interrupt_burst_detection() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 5);
        let cmd = |intr| IoCommand {
            channel: 0,
            payload_beats: 1,
            gap: 10,
            resp_delay: 2,
            crc_enable: false,
            inject_error: false,
            is_read: true,
            raise_intr: intr,
        };
        let cov = env.run_program(
            &vec![cmd(true), cmd(false), cmd(true)],
            &mut sampler,
            false,
            16,
        );
        let m = env.coverage_model();
        assert!(cov.get(m.id("intr_raised").unwrap()));
        assert!(!cov.get(m.id("intr_burst2").unwrap()), "non-consecutive");
        let mut sampler = ParamSampler::new(&resolved, 5);
        let cov = env.run_program(&vec![cmd(true), cmd(true)], &mut sampler, false, 16);
        assert!(cov.get(m.id("intr_burst2").unwrap()));
    }

    #[test]
    fn all_channels_event_requires_all_four() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 6);
        let cmd = |ch| IoCommand {
            channel: ch,
            payload_beats: 1,
            gap: 5,
            resp_delay: 2,
            crc_enable: false,
            inject_error: false,
            is_read: true,
            raise_intr: false,
        };
        let m = env.coverage_model();
        let three: IoProgram = vec![cmd(0), cmd(1), cmd(2)];
        let cov = env.run_program(&three, &mut sampler, false, 16);
        assert!(!cov.get(m.id("all_channels_used").unwrap()));
        let mut sampler = ParamSampler::new(&resolved, 6);
        let four: IoProgram = vec![cmd(0), cmd(1), cmd(2), cmd(3)];
        let cov = env.run_program(&four, &mut sampler, false, 16);
        assert!(cov.get(m.id("all_channels_used").unwrap()));
    }
    #[test]
    fn qdepth_family_counts_outstanding_responses() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 9);
        // Back-to-back 1-beat commands with 40-cycle responses: the queue
        // fills one slot per command.
        let cmd = IoCommand {
            channel: 0,
            payload_beats: 1,
            gap: 0,
            resp_delay: 40,
            crc_enable: false,
            inject_error: false,
            is_read: true,
            raise_intr: false,
        };
        let program: IoProgram = vec![cmd; 5];
        let cov = env.run_program(&program, &mut sampler, false, 16);
        let m = env.coverage_model();
        assert!(cov.get(m.id("qdepth_5").unwrap()));
        assert!(!cov.get(m.id("qdepth_6").unwrap()));
        assert!(!cov.get(m.id("resp_queue_full").unwrap()));
    }

    #[test]
    fn resp_queue_capacity_stalls_the_engine() {
        let env = env();
        let resolved = env
            .registry()
            .resolve(&TestTemplate::builder("manual").build())
            .unwrap();
        let mut sampler = ParamSampler::new(&resolved, 10);
        let cmd = IoCommand {
            channel: 0,
            payload_beats: 1,
            gap: 0,
            resp_delay: 100,
            crc_enable: false,
            inject_error: false,
            is_read: false,
            raise_intr: false,
        };
        let program: IoProgram = vec![cmd; 6];
        // Capacity 3: the fourth command must stall and the depth never
        // exceeds 3.
        let cov = env.run_program(&program, &mut sampler, false, 3);
        let m = env.coverage_model();
        assert!(cov.get(m.id("resp_queue_full").unwrap()));
        assert!(cov.get(m.id("qdepth_3").unwrap()));
        assert!(!cov.get(m.id("qdepth_4").unwrap()));
    }

    #[test]
    fn qdepth_family_shape_matches_cdg_expectations() {
        // Defaults keep the deep queue uncovered; the resp-stress stock
        // template reaches the middle; a hand-tuned template reaches 8.
        let env = env();
        let m = env.coverage_model();
        let deep = m.id("qdepth_7").unwrap();
        let rate = |t: &TestTemplate, sims: u64| {
            let resolved = env.registry().resolve(t).unwrap();
            (0..sims)
                .filter(|&s| {
                    env.simulate_seeded(&resolved, instance_seed(s, t.name(), 0))
                        .unwrap()
                        .get(deep)
                })
                .count() as f64
                / sims as f64
        };
        let smoke = env.stock_library().by_name("io_smoke").unwrap().1.clone();
        assert_eq!(rate(&smoke, 300), 0.0, "qdepth_7 reachable by defaults");
        let tuned = TestTemplate::builder("deep_queue")
            .range("Gap", 0, 2)
            .unwrap()
            .weights("RespDelay", [(Value::SubRange { lo: 28, hi: 40 }, 100u32)])
            .unwrap()
            .range("CreditInit", 12, 17)
            .unwrap()
            .range("PktCount", 32, 48)
            .unwrap()
            .weights("PktLen", [(Value::SubRange { lo: 1, hi: 4 }, 100u32)])
            .unwrap()
            .build();
        assert!(
            rate(&tuned, 300) > 0.2,
            "tuned template should fill the queue"
        );
    }
}
