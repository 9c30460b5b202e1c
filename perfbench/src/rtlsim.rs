//! `rtl-sim`: a verification engineer simulating the generated RTL —
//! the four Table-1 decoders plus the pipelined variant on a seeded
//! 64-QAM stream through a seeded multipath/AWGN channel, and the
//! CORDIC(8)→FIR(8) stream system under a seeded stall plan. Synthesis
//! happens only in set-up.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dsp::{CFixed, Channel, Complex, QamConstellation, SymbolSource};
use fixpt::Fixed;
use hls_core::{apply_loop_transforms, Directives, PipelineConfig, TechLibrary};
use hls_ir::Slot;
use hls_stream::{synthesize_stream, ChannelCfg, StallPlan, StallSchedule, SystemGraph, SystemSim};
use qam_decoder::{
    build_qam_decoder_ir, table1_architectures, table1_library, DecoderParams, IrDecoder,
    QamDecoderFixed, RtlDecoder,
};

use crate::gen::Rng;
use crate::span::Recorder;
use crate::stats::{geomean, median};
use crate::{record_passes, set_latency, Ctx, Report};

/// Set-ups per run, spanning about a second so that their median does not
/// depend on a short stall of the shared host; `setup_s` is that median.
const SETUPS: usize = 201;
/// Symbols each decoder decodes per round.
const SYMBOLS: usize = 16;
/// Tokens the stream system carries per round.
const TOKENS: usize = 16;
const CORDIC_ITERS: u32 = 8;
const FIR_TAPS: usize = 8;
const MAX_CYCLES: u64 = 1_000_000;

/// The simulated decoder designs: Table 1 plus `arch_sweep`'s pipelined
/// variant, the one design here whose reported latency comes from the
/// pipelined-loop formula rather than sequential iterations.
pub fn designs() -> Vec<(&'static str, Directives)> {
    let mut v: Vec<(&'static str, Directives)> = table1_architectures()
        .into_iter()
        .map(|a| (a.name, a.directives))
        .collect();
    v.push((
        "pipelined",
        Directives::new(10.0)
            .pipeline("ffe", 1)
            .pipeline("ffe_adapt", 1),
    ));
    v
}

/// One decoder under simulation with its oracles.
struct Decoder {
    name: &'static str,
    hw: RtlDecoder,
    /// The Figure-4 fixed-point model: the oracle for designs whose
    /// loop merging introduced no hazard.
    fixed: QamDecoderFixed,
    /// For hazard-merged designs, the hls-ir interpreter on the
    /// transformed function (the semantics the merge promises).
    transformed: Option<IrDecoder>,
    reported_cycles: u64,
    area: f64,
    calls: u64,
    sim_ns: u64,
    source_mismatches: u64,
}

struct Stream {
    graph: SystemGraph,
    area: f64,
}

fn build_stream(lib: &TechLibrary) -> Result<Stream, String> {
    let cordic = dsp::cordic_stream(CORDIC_ITERS);
    let fir = dsp::fir_stream(FIR_TAPS);
    let cordic =
        synthesize_stream(&cordic.func, &cordic.directives, lib).map_err(|e| e.to_string())?;
    let fir = synthesize_stream(&fir.func, &fir.directives, lib).map_err(|e| e.to_string())?;
    let mut g = SystemGraph::new("cordic_fir_system");
    let wire = |e: hls_stream::GraphError| e.to_string();
    let rot = g.add_module("rot", cordic).map_err(wire)?;
    let line = g.add_module("line", fir).map_err(wire)?;
    g.connect(rot, "xout", line, "x", ChannelCfg::default())
        .map_err(wire)?;
    for p in ["xin", "yin", "zin"] {
        g.expose_input(p, rot, p).map_err(wire)?;
    }
    g.expose_output("rot_y", rot, "yout").map_err(wire)?;
    g.expose_output("fir_y", line, "y").map_err(wire)?;
    SystemSim::new(&g).map_err(|e| e.to_string())?;
    let area = ["rot", "line"]
        .iter()
        .filter_map(|n| g.shell(n))
        .map(|s| s.core_area + s.overhead_area)
        .sum();
    Ok(Stream { graph: g, area })
}

fn set_up(params: DecoderParams) -> Result<(Vec<RtlDecoder>, Stream), String> {
    let hw = designs()
        .iter()
        .map(|(_, d)| RtlDecoder::try_new(params, d).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok((hw, build_stream(&table1_library())?))
}

/// The seeded channel: a unit main path, two weaker echoes, and noise.
fn channel(rng: &mut Rng, seed: u64) -> Channel {
    let mut echo =
        |scale: f64| Complex::new(scale * (rng.unit() - 0.5), scale * (rng.unit() - 0.5));
    let taps = vec![Complex::new(1.0, 0.0), echo(0.3), echo(0.15)];
    let noise = 0.002 + 0.006 * rng.unit();
    Channel::new(taps, noise, seed)
}

fn stream_inputs(rng: &mut Rng) -> BTreeMap<String, Vec<Slot>> {
    let fmt = dsp::stream_data_format();
    let mut draw = |scale: f64| {
        (0..TOKENS)
            .map(|_| Slot::Scalar(Fixed::from_f64(scale * (2.0 * rng.unit() - 1.0), fmt)))
            .collect::<Vec<_>>()
    };
    BTreeMap::from([
        ("xin".to_string(), draw(0.9)),
        ("yin".to_string(), draw(0.7)),
        ("zin".to_string(), draw(1.4)),
    ])
}

/// The dsp software references for the chain's two outputs.
fn stream_reference(inputs: &BTreeMap<String, Vec<Slot>>) -> BTreeMap<String, Vec<Slot>> {
    let scalar = |s: &Slot| s.scalar().expect("stimulus is scalar");
    let mut fir = dsp::FirStreamRef::new(FIR_TAPS);
    let (mut rot_y, mut fir_y) = (Vec::new(), Vec::new());
    for ((x, y), z) in inputs["xin"].iter().zip(&inputs["yin"]).zip(&inputs["zin"]) {
        let (xo, yo) = dsp::cordic_rot_reference(scalar(x), scalar(y), scalar(z), CORDIC_ITERS);
        rot_y.push(Slot::Scalar(yo));
        fir_y.push(Slot::Scalar(fir.push(xo)));
    }
    BTreeMap::from([("rot_y".to_string(), rot_y), ("fir_y".to_string(), fir_y)])
}

fn stall_plan(rng: &mut Rng) -> StallPlan {
    let mut random = || StallSchedule::Random {
        seed: rng.next_u64(),
        stall_pct: rng.below(50) as u8,
    };
    StallPlan::none()
        .stall_input("xin", random())
        .stall_output("fir_y", random())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let params = DecoderParams::default();
    let lib = table1_library();
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        built = Some(set_up(params)?);
        times.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&times));
    let (hw, stream) = built.expect("set up at least once");

    let ids = build_qam_decoder_ir(&params);
    let init = Complex::new(0.45, -0.05);
    let mut decoders = Vec::new();
    for ((name, d), mut hw) in designs().into_iter().zip(hw) {
        let synth = hls_core::synthesize(&ids.func, &d, &lib).map_err(|e| e.to_string())?;
        let t = apply_loop_transforms(&ids.func, &d);
        let mut fixed = QamDecoderFixed::new(params);
        let mut transformed =
            (!t.hazards().is_empty()).then(|| IrDecoder::from_ir(params, t.func, &ids));
        for k in 0..2 {
            hw.set_ffe_tap(k, init);
            fixed.set_ffe_tap(k, init);
            if let Some(ir) = &mut transformed {
                ir.set_ffe_tap(k, init);
            }
        }
        decoders.push(Decoder {
            name,
            hw,
            fixed,
            transformed,
            reported_cycles: synth.metrics.latency_cycles,
            area: synth.metrics.area,
            calls: 0,
            sim_ns: 0,
            source_mismatches: 0,
        });
    }

    let mut rng = Rng::new(ctx.seed);
    let mut ch = channel(&mut rng, ctx.seed);
    let mut symbols = SymbolSource::new(64, ctx.seed);
    let qam = QamConstellation::new(64).map_err(|e| e.to_string())?;
    let mut rounds_ms = Vec::new();
    let (mut stream_ns, mut stream_cycles, mut stream_runs) = (0u64, Vec::new(), 0u64);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let samples: Vec<(CFixed, CFixed)> = (0..SYMBOLS)
            .map(|_| {
                let point = qam.map(symbols.next_symbol());
                let (x1, x0) = (ch.push(point), ch.push(point));
                (
                    CFixed::from_complex(x0, params.x_format()),
                    CFixed::from_complex(x1, params.x_format()),
                )
            })
            .collect();
        let mut round = Duration::ZERO;
        for dec in &mut decoders {
            let t = Instant::now();
            let words: Result<Vec<u8>, _> = samples
                .iter()
                .map(|&(x0, x1)| dec.hw.decode(x0, x1))
                .collect();
            let took = t.elapsed();
            round += took;
            dec.sim_ns += took.as_nanos() as u64;
            dec.calls += SYMBOLS as u64;
            let words = match words {
                Ok(w) => w,
                Err(e) => {
                    report.record(Err(format!("{}: simulation: {e}", dec.name)));
                    continue;
                }
            };
            for (&(x0, x1), &got) in samples.iter().zip(&words) {
                let source = dec.fixed.decode([x0, x1]).data;
                dec.source_mismatches += u64::from(source != got);
                let want = match &mut dec.transformed {
                    Some(ir) => ir.decode(x0, x1).map_err(|e| format!("interpreter: {e}")),
                    None => Ok(source),
                };
                report.record(match want {
                    Ok(w) if w == got => Ok(()),
                    Ok(w) => Err(format!("{}: RTL word {got} != oracle {w}", dec.name)),
                    Err(e) => Err(e),
                });
            }
        }
        let inputs = stream_inputs(&mut rng);
        let plan = stall_plan(&mut rng);
        let t = Instant::now();
        let run = SystemSim::new(&stream.graph)
            .map_err(|e| e.to_string())
            .and_then(|mut sim| {
                sim.run(&inputs, &plan, MAX_CYCLES)
                    .map_err(|e| e.to_string())
            });
        let took = t.elapsed();
        round += took;
        stream_ns += took.as_nanos() as u64;
        stream_runs += 1;
        report.record(run.and_then(|run| {
            stream_cycles.push(run.cycles as f64);
            if run.outputs == stream_reference(&inputs) {
                Ok(())
            } else {
                Err("stream outputs differ from the dsp references".to_string())
            }
        }));
        rounds_ms.push(round.as_secs_f64() * 1e3);
    }

    set_latency(&mut report, "rounds", &rounds_ms);
    report.set(
        "throughput_ops_s",
        rounds_ms.len() as f64 / (rounds_ms.iter().sum::<f64>() / 1e3),
    );
    let mut cycles_geo = Vec::new();
    let mut area_geo = Vec::new();
    let (mut total_cycles, mut total_ns) = (0u64, stream_ns);
    let mut mismatches = 0;
    for dec in &decoders {
        let cycles = dec.hw.cycles();
        let per_call = cycles as f64 / dec.calls as f64;
        total_cycles += cycles;
        total_ns += dec.sim_ns;
        if cycles != dec.reported_cycles * dec.calls {
            mismatches += 1;
        }
        cycles_geo.push(per_call);
        area_geo.push(dec.area);
        report.set(
            &format!("rtl.sim_ns_per_cycle.{}", dec.name),
            dec.sim_ns as f64 / cycles as f64,
        );
        report.set(&format!("rtl.cycles_per_call.{}", dec.name), per_call);
        report.set(
            &format!("core.reported_cycles.{}", dec.name),
            dec.reported_cycles as f64,
        );
        report.set(&format!("core.area.{}", dec.name), dec.area);
        report.set(
            &format!("rtl.source_mismatch_frac.{}", dec.name),
            dec.source_mismatches as f64 / dec.calls as f64,
        );
    }
    let stream_total: f64 = stream_cycles.iter().sum();
    total_cycles += stream_total as u64;
    cycles_geo.push(median(&stream_cycles) / TOKENS as f64);
    area_geo.push(stream.area);
    report.set(
        "stream.sim_ns_per_cycle",
        stream_ns as f64 / stream_total.max(1.0),
    );
    report.set("stream.system_cycles", median(&stream_cycles));
    report.set("qor_cycles_geomean", geomean(&cycles_geo));
    report.set("qor_area_geomean", geomean(&area_geo));
    report.set("latency_mismatches", mismatches as f64);
    report.set(
        "sim_mcycles_per_s",
        total_cycles as f64 / (total_ns as f64 / 1e9) / 1e6,
    );
    report.note(format!(
        "{} rounds ({} stream runs), {mismatches} designs whose reported latency the RTL misses",
        rounds_ms.len(),
        stream_runs
    ));

    if ctx.trace {
        let mut rec = Recorder::new();
        for (i, (_, d)) in designs().iter().enumerate() {
            let start = Instant::now();
            let (_, run) = rtl::compile_traced(&ids.func, d, &lib, &PipelineConfig::default());
            record_passes(&mut rec, i as u64, start, &run.trace);
        }
        ctx.finish_trace(&rec, &mut report, None)?;
    }
    report.set(
        "peak_rss_mb",
        crate::cluster::peak_rss_mb(std::process::id()),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stimulus_is_deterministic_for_a_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let mut ch = channel(&mut rng, seed);
            let mut symbols = SymbolSource::new(64, seed);
            let qam = QamConstellation::new(64).expect("64-QAM");
            let samples: Vec<String> = (0..8)
                .map(|_| format!("{:?}", ch.push(qam.map(symbols.next_symbol()))))
                .collect();
            let inputs = stream_inputs(&mut rng);
            let plan = format!("{:?}", stall_plan(&mut rng));
            (samples, inputs, plan)
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }
}
