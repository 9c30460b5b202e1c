//! `explore-grid`: one designer's cold, budgeted, verified sweep of the
//! decoder's per-loop design space, in-process (no store, no wire, no
//! parse), repeated fresh for the run.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dsp::CFixed;
use fixpt::Fixed;
use hls_core::{
    apply_loop_transforms, explore, explore_serial, explore_with_check, lower_bound,
    transform_signature, Directives, ExploreBudget, ExploreConfig, ExploreResult, LoopGrid,
    MergePolicy, PipelineConfig, VerifyLevel,
};
use hls_ir::Slot;
use hls_verify::{ExploreProver, ProofCache, ProofCacheConfig};
use qam_decoder::{parse_qam_decoder, table1_library, DecoderParams, IrDecoder, QamDecoderIr};
use rtl::{CompiledSim, Fsmd};

use crate::gen::Rng;
use crate::span::Recorder;
use crate::stats::{frac, median};
use crate::{record_passes, set_latency, Ctx, Report};

/// Loops with an unroll axis: the four that Table 1 unrolls, so every
/// Table-1 architecture is a grid point. Unrolling all six loops makes one
/// sweep take 13-17 s on two cores, too long to repeat within a run and
/// take a median of.
pub const LOOPS: [&str; 4] = ["dfe", "ffe_adapt", "dfe_adapt", "dfe_shift"];
pub const UNROLLS: [u32; 3] = [1, 2, 4];
/// Loops with a pipeline-II axis {none, 1}. II=1 is infeasible for some
/// unrolled variants (those candidates fail with a diagnostic); the
/// feasible pipelined points stay in the sweep, and any that reaches the
/// frontier has its reported latency checked against simulation
/// (`latency_mismatches`).
pub const PIPELINED: [&str; 2] = ["ffe", "ffe_adapt"];
pub const CLOCKS: [f64; 3] = [6.0, 10.0, 20.0];
/// Set-ups per run (front-end parse of the decoder source and the grid),
/// spanning about a second; `setup_s` is their median.
const SETUPS: usize = 2001;
/// Decoder calls each frontier point is simulated for by the oracle.
const ORACLE_CALLS: usize = 12;
/// Transform signatures sampled for `explore.prefix_us`/`bound_us`.
const PREFIX_SAMPLES: usize = 100;

pub fn config(verify: VerifyLevel, tiny: bool) -> ExploreConfig {
    let (loops, pipelined, clocks) = if tiny {
        (&LOOPS[..2], &PIPELINED[..1], &CLOCKS[1..2])
    } else {
        (&LOOPS[..], &PIPELINED[..], &CLOCKS[..])
    };
    ExploreConfig {
        clock_period_ns: clocks[0],
        clock_periods_ns: clocks.to_vec(),
        unroll_factors: Vec::new(),
        merge_policies: vec![MergePolicy::Off, MergePolicy::AllowHazards],
        per_loop_refinement: false,
        loop_grids: Some(LoopGrid {
            unroll: loops
                .iter()
                .map(|l| (l.to_string(), UNROLLS.to_vec()))
                .collect(),
            pipeline: pipelined
                .iter()
                .map(|l| (l.to_string(), vec![None, Some(1)]))
                .collect(),
        }),
        verify,
        budget: Some(ExploreBudget::default()),
        cache: None,
    }
}

struct Sweep {
    result: ExploreResult,
    checks_us: Vec<f64>,
    check_failures: Vec<String>,
    proof_hits: u64,
    proof_lookups: u64,
}

/// One cold verified sweep with fresh caches; the checker is the
/// hls-verify prover, timed per point.
fn sweep(ir: &QamDecoderIr, cfg: &ExploreConfig) -> Sweep {
    let cache = Arc::new(ProofCache::new(&ProofCacheConfig::default()));
    let prover = ExploreProver::new().with_cache(Arc::clone(&cache));
    let checks = Mutex::new((Vec::new(), Vec::new()));
    let result = explore_with_check(&ir.func, cfg, &table1_library(), &|_, d, _, synth| {
        let t = Instant::now();
        let report = prover.verify(d, &Fsmd::from_synthesis(synth));
        let us = t.elapsed().as_secs_f64() * 1e6;
        let mut c = checks.lock().unwrap();
        c.0.push(us);
        if report.passed() {
            Ok(())
        } else {
            c.1.push(report.describe());
            Err(report.describe())
        }
    });
    let (checks_us, check_failures) = checks.into_inner().unwrap();
    let stats = cache.stats();
    Sweep {
        result,
        checks_us,
        check_failures,
        proof_hits: stats.hits,
        proof_lookups: stats.hits + stats.misses,
    }
}

/// Simulates a frontier point's compiled RTL (`CompiledSim`) against
/// the hls-ir interpreter running the same loop-transformed function, on
/// seeded vectors. Returns the simulated cycles per call.
fn oracle(ir: &QamDecoderIr, d: &Directives, rng: &mut Rng) -> Result<f64, String> {
    let p = DecoderParams::default();
    let synth = hls_core::synthesize(&ir.func, d, &table1_library()).map_err(|e| e.to_string())?;
    let mut hw = CompiledSim::from_fsmd(&Fsmd::from_synthesis(&synth));
    let mut reference = IrDecoder::from_ir(p, apply_loop_transforms(&ir.func, d).func, ir);
    let init = dsp::Complex::new(0.45, -0.05);
    for k in 0..2 {
        reference.set_ffe_tap(k, init);
        hw.poke_array(ir.ffe_c.0, k, Fixed::from_f64(init.re, p.ffe_c_format()));
        hw.poke_array(ir.ffe_c.1, k, Fixed::from_f64(init.im, p.ffe_c_format()));
    }
    let fmt = p.x_format();
    for call in 0..ORACLE_CALLS {
        let mut sample = || CFixed::from_f64(rng.unit() - 0.5, rng.unit() - 0.5, fmt);
        let (x0, x1) = (sample(), sample());
        let want = reference
            .decode(x0, x1)
            .map_err(|e| format!("interpreter: {e}"))?;
        let out = hw
            .run_call(&[
                (
                    ir.x_in_re,
                    Slot::Array(vec![x0.re().cast(fmt), x1.re().cast(fmt)]),
                ),
                (
                    ir.x_in_im,
                    Slot::Array(vec![x0.im().cast(fmt), x1.im().cast(fmt)]),
                ),
            ])
            .map_err(|e| format!("rtl: {e}"))?;
        let got = out
            .get(&ir.data)
            .and_then(Slot::scalar)
            .ok_or("rtl: no data output")?
            .to_i64() as u8;
        if want != got {
            return Err(format!("call {call}: RTL word {got} != interpreter {want}"));
        }
    }
    Ok(hw.cycles() as f64 / ORACLE_CALLS as f64)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let ir = parse_qam_decoder().map_err(|e| e.to_string())?;
        built = Some((ir, config(VerifyLevel::All, ctx.tiny)));
        setups.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setups));
    let (ir, cfg) = built.expect("set up at least once");

    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.is_empty() || start.elapsed().as_secs_f64() + median(&times) <= ctx.seconds {
        let t = Instant::now();
        let s = sweep(&ir, &cfg);
        times.push(t.elapsed().as_secs_f64());
        report.attempted += s.checks_us.len() as u64;
        report.failed += s.check_failures.len() as u64;
        report.errors.extend(s.check_failures.iter().cloned());
        last = Some(s);
    }
    let s = last.expect("at least one sweep");
    let ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    set_latency(&mut report, "sweeps", &ms);
    report.set(
        "throughput_ops_s",
        times.len() as f64 / times.iter().sum::<f64>(),
    );
    report.set("explore_s", median(&times));
    let r = &s.result;
    report.set(
        "explore.candidates",
        (r.points.len() + r.failures.len() + r.pruned.len()) as f64,
    );
    report.set("explore.evaluations", r.evaluations as f64);
    report.set(
        "explore.transform_evaluations",
        r.transform_evaluations as f64,
    );
    report.set("explore.prune_rate", r.prune_rate());
    report.set("explore.waves", r.wave_stats.len() as f64);
    report.set("explore.check_us", median(&s.checks_us));
    report.set(
        "verify.proof_cache_hit_frac",
        frac(s.proof_hits, s.proof_lookups),
    );

    // The frontier against the interpreter, and its real latency.
    let mut rng = Rng::new(ctx.seed);
    let mut mismatches = 0;
    let frontier: Vec<Directives> = r.pareto().iter().map(|p| p.directives.clone()).collect();
    for p in r.pareto() {
        report.record(oracle(&ir, &p.directives, &mut rng).map(|cycles| {
            if cycles != p.latency_cycles as f64 {
                mismatches += 1;
            }
        }));
    }
    report.set("latency_mismatches", mismatches as f64);
    report.note(format!(
        "frontier: {} points, {mismatches} latency mismatches",
        frontier.len()
    ));

    if ctx.trace {
        let mut rec = Recorder::new();
        trace(&mut rec, &mut report, &ir, &frontier, ctx);
        ctx.finish_trace(&rec, &mut report, None)?;
    }
    report.set(
        "peak_rss_mb",
        crate::cluster::peak_rss_mb(std::process::id()),
    );
    Ok(report)
}

/// Per-layer detail: prefix and bound cost per unique transform
/// signature (a seeded sample), pass times on the frontier, and the
/// unchecked grid's parallel speed-up.
fn trace(
    rec: &mut Recorder,
    report: &mut Report,
    ir: &QamDecoderIr,
    frontier: &[Directives],
    ctx: &Ctx,
) {
    let lib = table1_library();
    let mut signatures: BTreeMap<String, Directives> = BTreeMap::new();
    let mut rng = Rng::new(ctx.seed);
    let samples = if ctx.tiny { 4 } else { PREFIX_SAMPLES };
    while signatures.len() < samples {
        let mut d = Directives::new(CLOCKS[rng.below(CLOCKS.len())]);
        if rng.below(2) == 1 {
            d = d.no_merging();
        }
        for l in LOOPS {
            d = d.unroll(
                l,
                hls_core::Unroll::Factor(UNROLLS[rng.below(UNROLLS.len())]),
            );
        }
        for l in PIPELINED {
            if rng.below(2) == 1 {
                d = d.pipeline(l, 1);
            }
        }
        signatures.insert(transform_signature(&d), d);
    }
    for (i, d) in signatures.values().enumerate() {
        let t = rec.time("explore.prefix", i as u64, || {
            apply_loop_transforms(&ir.func, d)
        });
        rec.time("explore.bound", i as u64, || lower_bound(&t.func, d, &lib));
    }
    for (i, d) in frontier.iter().enumerate() {
        let start = Instant::now();
        let (_, run) = rtl::compile_traced(&ir.func, d, &lib, &PipelineConfig::default());
        record_passes(rec, i as u64, start, &run.trace);
    }
    let unchecked = config(VerifyLevel::Off, ctx.tiny);
    let t = Instant::now();
    explore_serial(&ir.func, &unchecked, &lib);
    let serial = t.elapsed().as_secs_f64();
    let t = Instant::now();
    explore(&ir.func, &unchecked, &lib);
    report.set(
        "explore.parallel_speedup",
        serial / t.elapsed().as_secs_f64(),
    );
}
