//! The repository's benchmark: four seeded workloads driven the way the
//! system's users drive it, each checked against an oracle that is not
//! the compiler under test.
//!
//! ```text
//! perfbench --workload <serve-cold|serve-warm|explore-grid|rtl-sim>
//!           --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (tracing off); with `--trace 1` a
//! separate traced run reports the per-layer ones, with spans recorded
//! around the benchmark's own calls into each crate and written to
//! `.perfbench/trace/`. Every metric is printed with its unit on
//! standard error as well, including `error_frac`, which the result line
//! carries as `failed / attempted`.

mod cluster;
mod explore;
mod gen;
mod rtlsim;
mod serve;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hls_core::PassTrace;

use crate::span::Recorder;

pub const WORKLOADS: [&str; 4] = ["serve-cold", "serve-warm", "explore-grid", "rtl-sim"];

/// End-to-end metrics: every workload reports each of them, for the
/// workload's own unit of work (a request, a sweep, a simulation round).
/// Tail latencies are per-layer metrics: from the ~1000 requests a run
/// holds, even p95 varied by more than a quarter between runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

const PASSES: [&str; 11] = [
    "core.pass.validate-ir",
    "core.pass.check-directives",
    "core.pass.loop-transforms",
    "core.pass.lower",
    "core.pass.netlist-opt",
    "core.pass.schedule",
    "core.pass.allocate",
    "core.pass.metrics",
    "rtl.pass.build-fsmd",
    "rtl.pass.compile-sim",
    "rtl.pass.emit-verilog",
];

/// Per-layer metrics, named by crate. A workload that does not exercise
/// a layer reports it as 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("error_frac", "ratio"),
        ("lat_p95_ms", "ms"),
        ("lat_p99_ms", "ms"),
        ("explore_s", "s"),
        ("qor_cycles_geomean", "cycles"),
        ("qor_area_geomean", "area"),
        ("latency_mismatches", "count"),
        ("sim_mcycles_per_s", "Mcycles/s"),
        ("cluster.wire_decode_us", "us"),
        ("cluster.wire_encode_us", "us"),
        ("cluster.rtt_us", "us"),
        ("cluster.forwarded_frac", "ratio"),
        ("cluster.replicate_us", "us"),
        ("ir.parse_us", "us"),
        ("ir.render_us", "us"),
        ("serve.digest_us", "us"),
        ("serve.admission_us", "us"),
        ("serve.lookup_us", "us"),
        ("serve.lookup_negative_us", "us"),
        ("serve.insert_us", "us"),
        ("serve.stats_us", "us"),
        ("serve.hit_frac", "ratio"),
        ("serve.neg_hit_frac", "ratio"),
        ("serve.synthesized", "count"),
        ("serve.evictions", "count"),
        ("serve.quarantined", "count"),
        ("core.pipeline_overhead_us", "us"),
        ("core.passcache_hit_frac", "ratio"),
        ("verify.proof_us", "us"),
        ("verify.obligations", "count"),
        ("verify.proof_cache_hit_frac", "ratio"),
        ("explore.candidates", "count"),
        ("explore.evaluations", "count"),
        ("explore.transform_evaluations", "count"),
        ("explore.prune_rate", "ratio"),
        ("explore.waves", "count"),
        ("explore.check_us", "us"),
        ("explore.prefix_us", "us"),
        ("explore.bound_us", "us"),
        ("explore.parallel_speedup", "x"),
        ("stream.sim_ns_per_cycle", "ns"),
        ("stream.system_cycles", "cycles"),
        ("trace.attributed_frac", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for c in serve::CHECKPOINTS {
        for layer in ["insert", "stats", "lookup"] {
            m.push((format!("serve.{layer}_us.n{c}"), "us"));
        }
    }
    for p in PASSES {
        m.push((format!("{p}_us"), "us"));
    }
    for (d, _) in rtlsim::designs() {
        m.push((format!("rtl.sim_ns_per_cycle.{d}"), "ns"));
        m.push((format!("rtl.cycles_per_call.{d}"), "cycles"));
        m.push((format!("core.reported_cycles.{d}"), "cycles"));
        m.push((format!("core.area.{d}"), "area"));
        m.push((format!("rtl.source_mismatch_frac.{d}"), "ratio"));
    }
    m
}

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `--size tiny` shrinks every workload so the tests can run each
    /// one end to end in seconds; the benchmark itself always runs full.
    pub tiny: bool,
    /// Scratch for this run (stores, sockets), relative to the checkout.
    pub dir: PathBuf,
}

impl Ctx {
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(".perfbench/trace").join(format!("{}-seed{}.jsonl", self.workload, self.seed))
    }

    /// Turns the recorded spans into per-layer metrics (median duration
    /// per span name), computes `trace.attributed_frac` against the
    /// untraced median latency when given, and writes the span file.
    pub fn finish_trace(
        &self,
        rec: &Recorder,
        report: &mut Report,
        untraced_p50_ms: Option<f64>,
    ) -> Result<(), String> {
        let names: std::collections::BTreeSet<&str> =
            rec.spans().iter().map(|s| s.name.as_str()).collect();
        for name in names {
            if name == "request" {
                continue;
            }
            let metric = match name.split_once('@') {
                Some((layer, size)) => format!("{layer}_us.n{size}"),
                None => format!("{name}_us"),
            };
            report.set(&metric, rec.median_us(name).0);
        }
        if let Some(p50) = untraced_p50_ms {
            let attributed: Vec<f64> = rec
                .attributed_ns_by_request()
                .values()
                .map(|&ns| ns as f64 / 1e6)
                .collect();
            if !attributed.is_empty() && p50 > 0.0 {
                report.set("trace.attributed_frac", stats::median(&attributed) / p50);
            }
        }
        let path = self.trace_path();
        std::fs::create_dir_all(path.parent().expect("trace dir"))
            .and_then(|()| rec.write(&path))
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Latency of the workload's unit of work: the median, and p95 and p99
/// where at least ten samples lie beyond them. The note names the
/// highest percentile that has ten samples beyond it, with the count.
pub fn set_latency(report: &mut Report, unit: &str, samples_ms: &[f64]) {
    report.set("lat_p50_ms", stats::median(samples_ms));
    for (name, p) in [("lat_p95_ms", 95.0), ("lat_p99_ms", 99.0)] {
        if let Some(v) = stats::percentile(samples_ms, p) {
            report.set(name, v);
        }
    }
    let t = stats::tail(samples_ms);
    report.note(format!(
        "{unit}: median of {} samples; highest percentile with ten beyond: p{} = {:.3} ms",
        t.count, t.percentile, t.value
    ));
}

/// Records a pipeline run's passes as consecutive child spans starting
/// at `start`, plus the pipeline's own overhead beyond them.
pub fn record_passes(rec: &mut Recorder, id: u64, start: Instant, trace: &PassTrace) {
    let mut offset = 0;
    for p in &trace.passes {
        let layer = if ["build-fsmd", "compile-sim", "emit-verilog"].contains(&p.pass.as_str()) {
            "rtl"
        } else {
            "core"
        };
        let at = start + Duration::from_nanos(offset);
        rec.record(&format!("{layer}.pass.{}", p.pass), id, at, p.wall_ns);
        offset += p.wall_ns;
    }
    let overhead = (start.elapsed().as_nanos() as u64).saturating_sub(offset);
    rec.record(
        "core.pipeline_overhead",
        id,
        start + Duration::from_nanos(offset),
        overhead,
    );
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Counts one checked operation.
    pub fn record(&mut self, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = checked {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut tiny = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--size" => {
                tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err("--size takes full or tiny".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Ctx {
        dir: PathBuf::from(".perfbench").join(&workload),
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        tiny,
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let _ = std::fs::remove_dir_all(&ctx.dir);
    std::fs::create_dir_all(&ctx.dir).map_err(|e| format!("create {}: {e}", ctx.dir.display()))?;
    let report = match ctx.workload.as_str() {
        "serve-cold" => serve::cold(ctx),
        "serve-warm" => serve::warm(ctx),
        "explore-grid" => explore::run(ctx),
        "rtl-sim" => rtlsim::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let mut report = report?;
    report.set("error_frac", stats::frac(report.failed, report.attempted));
    Ok(report)
}

/// The result line: the requested metric set, in declaration order.
fn result_line(ctx: &Ctx, report: &Report) -> Result<String, String> {
    let wanted: Vec<(String, &str)> = if ctx.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = match report.metrics.get(&name) {
            Some(v) => *v,
            None if ctx.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        fields.join(",")
    ))
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    let units: BTreeMap<String, &str> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer())
        .collect();
    eprintln!(
        "{} (seed {}, trace {}):",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    for (name, value) in &report.metrics {
        eprintln!(
            "  {name:<36} {value:>14.4} {}",
            units.get(name).copied().unwrap_or("")
        );
    }
    for note in &report.notes {
        eprintln!("  # {note}");
    }
    for e in report.errors.iter().take(10) {
        eprintln!("  ! {e}");
    }
    match result_line(&ctx, &report) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
