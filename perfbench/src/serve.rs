//! The serve workloads: designers sending requests to a two-member
//! `synthd` cluster, cold (closed loop, stores that start a third full,
//! then fill and evict) and warm (closed loop over a pre-built working
//! set).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hls_cluster::{read_frame, Frame, Incoming, PeerClient};
use hls_core::{apply_loop_transforms, lower_bound, PassCache, PassCacheConfig, PipelineConfig};
use hls_ir::{parse_function, stable_digest, Json};
use hls_serve::{
    batch_from_json, batch_to_json, request_key_for_text, serve_batch, ArtifactStore,
    CachedArtifact, EntryKind, RequestOutcome, ServiceConfig, StoreConfig, SynthesisRequest,
    Verdict,
};
use hls_verify::{verify_equiv_cached, ProofCache, ProofCacheConfig, VerifyFinding};

use crate::cluster::{encode, peak_rss_mb, Cluster, Conn, MEMBERS};
use crate::gen::{Point, PointStream, Rng, Zipf, INFEASIBLE_CODE};
use crate::span::Recorder;
use crate::stats::{frac, median};
use crate::{record_passes, set_latency, Ctx, Report};

/// Cluster start-ups per run. A serve workload's `setup_s` is the time to
/// populate its stores plus the median start-up: on a 2-core shared VM,
/// start-up alone (a few ms of process creation) moved by up to four
/// times from run to run, while populating is steady compute.
const SETUPS: usize = 25;
/// Concurrent closed-loop clients in both serve workloads (one per core).
/// On a 2-core shared VM, an open loop at a sustainable rate left the
/// cores idle between requests, and its median then followed the host's
/// wake-up latency (interquartile range 0.35 of the median over ten
/// seeds).
const CLIENTS: usize = 2;
/// Requests a `serve-cold` run completes at least, so its tail is a true
/// p99 (ten samples beyond it): on a slow host the run goes on past
/// `--seconds`, up to twice that, until it has them.
const COLD_MIN_REQUESTS: usize = 1000;
/// `serve-cold` store budget per member: reached partway through a run,
/// after which inserts also evict.
pub const COLD_MAX_BYTES: u64 = 16 << 20;
/// Entries the `serve-cold` stores hold when the cluster starts: the
/// first points of the run's stream, about a third of the budget.
const COLD_BASE: usize = 128;
/// `serve-warm` working set: distinct verified artifacts, plus
/// deliberately infeasible requests held as negative entries.
pub const WARM_WORKING_SET: usize = 2048;
pub const WARM_INFEASIBLE: usize = 48;
/// `serve-warm` store budget per member: the working set never evicts.
pub const WARM_MAX_BYTES: u64 = 1 << 30;
/// Zipf exponent of the warm request popularity: skewed, but not so much
/// that a few hot entries (and their artifact sizes) decide the latency.
pub const WARM_ZIPF: f64 = 0.7;
/// Share of warm requests that are the deliberately infeasible ones.
pub const WARM_INFEASIBLE_SHARE: f64 = 0.03;
/// One `stats` frame per this many warm operations (operator polling).
pub const WARM_STATS_EVERY: usize = 100;
/// Store sizes at which the traced `serve-warm` build times insert,
/// stats and lookup.
pub const CHECKPOINTS: [usize; 4] = [16, 256, 1024, WARM_WORKING_SET];
/// Probes per checkpoint.
const PROBES: usize = 5;
/// Requests replayed in-process by a traced run.
const COLD_REPLAY: usize = 40;
const WARM_REPLAY: usize = 200;

/// What a reply to one request must contain.
#[derive(Clone)]
enum Expect {
    /// A passed verdict and Verilog; byte-identical (by digest) to the
    /// cold artifact when one was recorded.
    Artifact(Option<String>),
    /// The expected diagnostic code, served from the negative cache.
    Infeasible,
}

fn check_outcome(o: &Json, expect: &Expect) -> Result<(), String> {
    match expect {
        Expect::Artifact(cold) => {
            if let Some(e) = o.get("error") {
                return Err(format!("error: {e:?}"));
            }
            let passed = o
                .get("verdict")
                .and_then(|v| v.get("passed"))
                .and_then(Json::as_bool);
            if passed != Some(true) {
                return Err(format!("verdict not passed: {:?}", o.get("verdict")));
            }
            let verilog = o.get("verilog").and_then(Json::as_str).unwrap_or_default();
            if verilog.is_empty() {
                return Err("no Verilog".into());
            }
            if let Some(want) = cold {
                if &stable_digest(verilog.as_bytes()) != want {
                    return Err("warm Verilog differs from the cold artifact".into());
                }
            }
            Ok(())
        }
        Expect::Infeasible => {
            let code = o.get("failure_code").and_then(Json::as_str);
            if code != Some(INFEASIBLE_CODE) {
                return Err(format!("expected {INFEASIBLE_CODE}, got {code:?}"));
            }
            Ok(())
        }
    }
}

fn check_reply(reply: Result<Frame, String>, expect: &Expect) -> Result<(), String> {
    match reply? {
        Frame::Report(r) => {
            let o = r
                .get("outcomes")
                .and_then(Json::as_arr)
                .and_then(|a| a.first())
                .ok_or("reply without an outcome")?;
            check_outcome(o, expect)
        }
        other => Err(format!("unexpected reply `{}`", other.op())),
    }
}

fn batch_line(req: &SynthesisRequest) -> Vec<u8> {
    encode(&Frame::Batch {
        requests: batch_to_json(std::slice::from_ref(req)),
    })
}

fn stores(dir: &Path) -> Vec<PathBuf> {
    (0..MEMBERS)
        .map(|i| dir.join(format!("store{i}")))
        .collect()
}

/// Starts the cluster on the populated stores [`SETUPS`] times, keeping
/// the last, and sets `setup_s` to `populate_s` plus the median start-up.
fn start_cluster(
    ctx: &Ctx,
    max_bytes: u64,
    report: &mut Report,
    populate_s: f64,
) -> Result<Cluster, String> {
    let mut times = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUPS {
        drop(cluster.take());
        let t = Instant::now();
        cluster = Some(Cluster::start(&ctx.dir, &stores(&ctx.dir), max_bytes)?);
        times.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", populate_s + median(&times));
    cluster.ok_or_else(|| "no cluster started".to_string())
}

/// Empty stores for the run, and the in-process service that populates
/// member 0's with the caches a daemon started with `--incremental` holds.
fn populate_service(
    ctx: &Ctx,
    max_bytes: u64,
) -> Result<(ArtifactStore, ServiceConfig, Caches), String> {
    for d in stores(&ctx.dir) {
        let _ = std::fs::remove_dir_all(d);
    }
    let store = ArtifactStore::open(&stores(&ctx.dir)[0], StoreConfig { max_bytes })
        .map_err(|e| format!("open store: {e}"))?;
    let caches = caches();
    let cfg = ServiceConfig {
        pass_cache: Some(Arc::clone(&caches.0)),
        proof_cache: Some(Arc::clone(&caches.1)),
        ..ServiceConfig::default()
    };
    Ok((store, cfg, caches))
}

/// Serves the first [`COLD_BASE`] points of the cold stream into member
/// 0's store, checking each verdict, then copies it to member 1
/// (replicas hold byte-identical entries).
fn populate_cold(ctx: &Ctx, stream: &mut PointStream) -> Result<(), String> {
    let (store, cfg, _) = populate_service(ctx, COLD_MAX_BYTES)?;
    let base = if ctx.tiny { 4 } else { COLD_BASE };
    let requests: Vec<SynthesisRequest> =
        (0..base).map(|_| stream.next_point().request()).collect();
    for chunk in requests.chunks(64) {
        for o in serve_batch(chunk, &store, &cfg).outcomes {
            check_outcome(&o.to_json(), &Expect::Artifact(None))
                .map_err(|e| format!("{}: {e}", o.design))?;
        }
    }
    drop(store);
    let dirs = stores(&ctx.dir);
    copy_tree(&dirs[0], &dirs[1])
}

fn latency_metrics(report: &mut Report, lat_ms: &[f64], wall_s: f64) {
    set_latency(report, "requests", lat_ms);
    report.set("throughput_ops_s", lat_ms.len() as f64 / wall_s);
}

/// Counters summed over the members' `stats` frames.
fn cluster_counters(report: &mut Report, stats: &[Json], requests: u64) {
    let sum = |path: &[&str]| -> u64 {
        stats
            .iter()
            .map(|s| {
                path.iter()
                    .try_fold(s, |v, k| v.get(k))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            })
            .sum()
    };
    let hits = sum(&["store", "hits"]);
    let lookups = hits + sum(&["store", "misses"]);
    report.set(
        "cluster.forwarded_frac",
        frac(sum(&["cluster", "forwarded"]), requests),
    );
    report.set("serve.hit_frac", frac(hits, lookups));
    report.set(
        "serve.neg_hit_frac",
        frac(sum(&["store", "neg_hits"]), lookups),
    );
    report.set(
        "serve.synthesized",
        (sum(&["store", "inserts"]) + sum(&["store", "neg_inserts"]))
            .saturating_sub(sum(&["cluster", "replicated_in"])) as f64,
    );
    report.set("serve.evictions", sum(&["store", "evictions"]) as f64);
    report.set("serve.quarantined", sum(&["store", "quarantined"]) as f64);
    let pass_hits = sum(&["pass_cache", "hits"]);
    report.set(
        "core.passcache_hit_frac",
        frac(pass_hits, pass_hits + sum(&["pass_cache", "misses"])),
    );
}

fn rss_total(cluster: &Cluster) -> f64 {
    peak_rss_mb(std::process::id()) + cluster.peak_rss_mb()
}

/// `serve-cold`: two closed-loop clients, one single-request batch at a
/// time, alternating members; every request is a distinct point.
pub fn cold(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let store_dirs = stores(&ctx.dir);
    let mut stream = PointStream::new(ctx.seed);
    let t = Instant::now();
    populate_cold(ctx, &mut stream)?;
    let cluster = start_cluster(ctx, COLD_MAX_BYTES, &mut report, t.elapsed().as_secs_f64())?;

    let stream = Mutex::new(stream);
    let samples: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let hard_deadline = start + Duration::from_secs_f64(2.0 * ctx.seconds);
    let min_requests = if ctx.tiny { 1 } else { COLD_MIN_REQUESTS };
    let more = || {
        let now = Instant::now();
        now < deadline || (now < hard_deadline && samples.lock().unwrap().len() < min_requests)
    };
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (stream, samples, errors, cluster, more) =
                (&stream, &samples, &errors, &cluster, &more);
            s.spawn(move || {
                let conns: Result<Vec<Conn>, _> = cluster.addrs.iter().map(Conn::open).collect();
                let mut conns = match conns {
                    Ok(c) => c,
                    Err(e) => return errors.lock().unwrap().push(format!("connect: {e}")),
                };
                let mut member = client % MEMBERS;
                while more() {
                    let req = stream.lock().unwrap().next_point().request();
                    let line = batch_line(&req);
                    let t = Instant::now();
                    let reply = conns[member].call_line(&line);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    match check_reply(reply, &Expect::Artifact(None)) {
                        Ok(()) => samples.lock().unwrap().push(ms),
                        Err(e) => errors.lock().unwrap().push(format!("{}: {e}", req.design)),
                    }
                    member = (member + 1) % MEMBERS;
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let samples = samples.into_inner().unwrap();
    let errors = errors.into_inner().unwrap();
    report.attempted = (samples.len() + errors.len()) as u64;
    report.failed = errors.len() as u64;
    report.errors = errors;
    latency_metrics(&mut report, &samples, wall);

    let stats = cluster.stats()?;
    let requests = report.attempted;
    cluster_counters(&mut report, &stats, requests);
    if ctx.trace {
        let mut rec = Recorder::new();
        rtt(&mut rec, &cluster);
        let mut stream = stream.into_inner().unwrap();
        cold_replay(ctx, &mut rec, &mut report, &mut stream, &store_dirs)?;
        ctx.finish_trace(&rec, &mut report, Some(median(&samples)))?;
    }
    report.set("peak_rss_mb", rss_total(&cluster));
    Ok(report)
}

/// The caches a daemon started with `--incremental` holds.
type Caches = (Arc<PassCache>, Arc<ProofCache>);

/// Fresh [`Caches`] for in-process populating and replays.
fn caches() -> Caches {
    (
        Arc::new(PassCache::new(PassCacheConfig::default())),
        Arc::new(ProofCache::new(&ProofCacheConfig::default())),
    )
}

/// `cluster.rtt_us`: a bare `ping` round trip to a live member.
fn rtt(rec: &mut Recorder, cluster: &Cluster) {
    let client = PeerClient::new(cluster.addrs[0].clone());
    for i in 0..50 {
        rec.time("cluster.rtt", i, || client.call(&Frame::Ping).ok());
    }
}

/// The request-side layers every request crosses, in the service's
/// order: wire decode, parse, render, digest, admission.
fn front_layers(
    rec: &mut Recorder,
    id: u64,
    line: &[u8],
) -> Result<(SynthesisRequest, hls_ir::Function, hls_serve::RequestKey), String> {
    let req = rec.time("cluster.wire_decode", id, || {
        match read_frame(&mut std::io::BufReader::new(line)) {
            Ok(Some(Incoming::Frame(Frame::Batch { requests }))) => batch_from_json(&requests)
                .map_err(|e| format!("batch: {e}"))
                .and_then(|mut r| r.pop().ok_or_else(|| "empty batch".to_string())),
            other => Err(format!("not a batch frame: {other:?}")),
        }
    })?;
    let func = rec
        .time("ir.parse", id, || parse_function(&req.source))
        .map_err(|e| format!("parse: {e}"))?;
    let text = rec.time("ir.render", id, || func.to_string());
    let key = rec.time("serve.digest", id, || {
        request_key_for_text(&text, &req.directives, &req.library, req.verify)
    });
    rec.time("serve.admission", id, || {
        let t = apply_loop_transforms(&func, &req.directives);
        lower_bound(&t.func, &req.directives, &req.library)
    });
    Ok((req, func, key))
}

/// The reply-side layer: encode the outcome as a report frame.
fn encode_reply(rec: &mut Recorder, id: u64, outcome: RequestOutcome, store: &ArtifactStore) {
    let stats = rec.time("serve.stats", id, || store.stats());
    rec.time("cluster.wire_encode", id, || {
        let frame = Frame::Report(Json::obj(vec![
            ("outcomes", Json::Arr(vec![outcome.to_json()])),
            ("store", stats.to_json()),
        ]));
        let mut out = Vec::new();
        frame.write_line(&mut out).map(|()| out.len())
    })
    .ok();
}

fn outcome(
    req: &SynthesisRequest,
    digest: &str,
    artifact: Option<CachedArtifact>,
) -> RequestOutcome {
    RequestOutcome {
        design: req.design.clone(),
        digest: digest.to_string(),
        cache_hit: artifact.is_some(),
        deduped: false,
        rejected: false,
        negative_hit: false,
        failure: None,
        modeled_cost_ns: None,
        diagnostics: None,
        artifact,
        error: None,
    }
}

/// Runs the miss path's back end: the pass pipeline to Verilog, then
/// the equivalence proof, with one span per pass.
fn synthesize(
    rec: &mut Recorder,
    id: u64,
    req: &SynthesisRequest,
    func: &hls_ir::Function,
    (pass_cache, proof_cache): &Caches,
) -> Result<(CachedArtifact, usize), String> {
    let config = PipelineConfig {
        cache: Some(Arc::clone(pass_cache)),
        ..PipelineConfig::default()
    };
    let start = Instant::now();
    let (result, run) = rtl::compile_traced(func, &req.directives, &req.library, &config);
    record_passes(rec, id, start, &run.trace);
    let artifacts = result.map_err(|e| format!("synthesis: {e}"))?;
    let report = rec.time("verify.proof", id, || {
        verify_equiv_cached(&artifacts.fsmd, proof_cache)
    });
    let obligations = match &report.finding {
        VerifyFinding::Proved { obligations, .. } => *obligations,
        _ => 0,
    };
    if !report.passed() {
        return Err(format!("verdict: {}", report.describe()));
    }
    let artifact = CachedArtifact {
        design: req.design.clone(),
        verilog: artifacts.verilog,
        metrics: artifacts.synthesis.metrics,
        trace: Json::parse(&run.trace.to_json()).unwrap_or(Json::Null),
        verdict: Some(Verdict {
            passed: true,
            detail: report.describe(),
        }),
        diagnostics: Json::parse(&run.diagnostics.to_json()).unwrap_or(Json::Arr(Vec::new())),
    };
    Ok((artifact, obligations))
}

/// Replays fresh points of the cold stream in-process against the
/// members' stores, calling each layer the way the service does.
fn cold_replay(
    ctx: &Ctx,
    rec: &mut Recorder,
    report: &mut Report,
    stream: &mut PointStream,
    store_dirs: &[PathBuf],
) -> Result<(), String> {
    let open = |p: &PathBuf| {
        ArtifactStore::open(
            p,
            StoreConfig {
                max_bytes: COLD_MAX_BYTES,
            },
        )
        .map_err(|e| format!("open {}: {e}", p.display()))
    };
    let (owner, replica) = (open(&store_dirs[0])?, open(&store_dirs[1])?);
    let caches = caches();
    let mut obligations = Vec::new();
    let replay = if ctx.tiny { 3 } else { COLD_REPLAY };
    for i in 0..replay as u64 {
        let req = stream.next_point().request();
        let root = rec.open("request", i);
        let result = (|| {
            let (req, func, key) = front_layers(rec, i, &batch_line(&req))?;
            if rec.time("serve.lookup", i, || owner.lookup(&key)).is_some() {
                return Err("fresh point was a hit".to_string());
            }
            rec.time("serve.lookup_negative", i, || owner.lookup_negative(&key));
            let (artifact, n) = synthesize(rec, i, &req, &func, &caches)?;
            obligations.push(n as f64);
            rec.time("serve.insert", i, || owner.insert(&key, &artifact))
                .map_err(|e| format!("insert: {e}"))?;
            let raw = owner
                .read_raw(EntryKind::Positive, &key.digest)
                .ok_or("inserted entry unreadable")?;
            rec.time("cluster.replicate", i, || {
                replica.insert_raw(EntryKind::Positive, &key.digest, &raw)
            })
            .map_err(|e| format!("replicate: {e}"))?;
            encode_reply(rec, i, outcome(&req, &key.digest, Some(artifact)), &owner);
            Ok(())
        })();
        rec.close(root);
        report.record(result);
    }
    report.set("verify.obligations", median(&obligations));
    Ok(())
}

/// The warm working set: its requests (the positive entries first, then
/// the infeasible ones) and what each must answer.
struct WorkingSet {
    requests: Vec<SynthesisRequest>,
    expect: Vec<Expect>,
    positives: usize,
}

/// Builds the working set in member 0's store through the service
/// itself, records each artifact's Verilog digest, then copies the store
/// to member 1 (replicas hold byte-identical entries). In a traced run,
/// the build pauses at each checkpoint size to time insert, stats and
/// lookup against the store as it grows.
fn build_working_set(
    ctx: &Ctx,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<WorkingSet, String> {
    let (store, cfg, caches) = populate_service(ctx, WARM_MAX_BYTES)?;
    let mut stream = PointStream::new(ctx.seed);
    let (positives, negatives) = if ctx.tiny {
        (24, 4)
    } else {
        (WARM_WORKING_SET, WARM_INFEASIBLE)
    };
    let mut points: Vec<Point> = (0..positives).map(|_| stream.next_point()).collect();
    points.extend((0..negatives).map(|_| stream.infeasible()));
    let requests: Vec<SynthesisRequest> = points.iter().map(Point::request).collect();
    let mut expect = vec![Expect::Infeasible; requests.len()];

    let mut done = 0;
    let checkpoints = CHECKPOINTS.iter().copied().filter(|_| ctx.trace);
    for c in checkpoints.chain([usize::MAX]) {
        // Serve the build in batches up to the probes of checkpoint `c`.
        let stop = c.saturating_sub(PROBES).min(requests.len());
        while done < stop {
            let end = (done + 64).min(stop);
            let batch = serve_batch(&requests[done..end], &store, &cfg);
            for (i, o) in (done..end).zip(&batch.outcomes) {
                if i < positives {
                    let a = o
                        .artifact
                        .as_ref()
                        .ok_or_else(|| format!("{}: {:?}", o.design, o.error))?;
                    if a.verdict.as_ref().is_none_or(|v| !v.passed) {
                        return Err(format!("{}: working-set verdict failed", o.design));
                    }
                    expect[i] = Expect::Artifact(Some(stable_digest(a.verilog.as_bytes())));
                } else if o.failure.as_ref().map(|f| f.code.as_str()) != Some(INFEASIBLE_CODE) {
                    return Err(format!("{}: expected {INFEASIBLE_CODE}", o.design));
                }
            }
            done = end;
        }
        if c > positives {
            continue;
        }
        // The last PROBES entries before the checkpoint go in one by one,
        // timed, and each is then looked up with the store at size `c`.
        for (i, req) in requests.iter().enumerate().skip(done).take(PROBES) {
            let func = parse_function(&req.source).map_err(|e| e.to_string())?;
            let key = request_key_for_text(&func.to_string(), &req.directives, &req.library, true);
            let (artifact, _) = synthesize(rec, i as u64, req, &func, &caches)?;
            expect[i] = Expect::Artifact(Some(stable_digest(artifact.verilog.as_bytes())));
            rec.time(&format!("serve.insert@{c}"), i as u64, || {
                store.insert(&key, &artifact)
            })
            .map_err(|e| format!("insert: {e}"))?;
            rec.time(&format!("serve.stats@{c}"), i as u64, || store.stats());
            rec.time(&format!("serve.lookup@{c}"), i as u64, || {
                store.lookup(&key)
            });
        }
        done += PROBES;
    }
    let census = store.stats();
    report.note(format!(
        "working set: {} entries ({} MiB), {} negative",
        census.entries,
        census.bytes >> 20,
        census.neg_entries
    ));
    drop(store);
    let dirs = stores(&ctx.dir);
    copy_tree(&dirs[0], &dirs[1])?;
    Ok(WorkingSet {
        requests,
        expect,
        positives,
    })
}

fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let dest = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_tree(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// One warm operation: a request for a working-set entry, or a `stats`
/// frame.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Request(usize),
    Stats,
}

/// The seeded warm operation stream: a Zipf draw over the working set, a
/// few infeasible requests and a `stats` frame every
/// [`WARM_STATS_EVERY`]th operation.
struct WarmOps {
    rng: Rng,
    zipf: Zipf,
    rank_to_entry: Vec<usize>,
    positives: usize,
    negatives: usize,
    sent: usize,
}

impl WarmOps {
    fn new(seed: u64, set: &WorkingSet) -> WarmOps {
        let mut rng = Rng::new(seed ^ 0xa11_0ca7e);
        // Popularity is unrelated to build order.
        let mut rank_to_entry: Vec<usize> = (0..set.positives).collect();
        for i in (1..rank_to_entry.len()).rev() {
            rank_to_entry.swap(i, rng.below(i + 1));
        }
        WarmOps {
            rng,
            zipf: Zipf::new(set.positives, WARM_ZIPF),
            rank_to_entry,
            positives: set.positives,
            negatives: set.requests.len() - set.positives,
            sent: 0,
        }
    }

    fn next_op(&mut self) -> Op {
        self.sent += 1;
        if self.sent.is_multiple_of(WARM_STATS_EVERY) {
            Op::Stats
        } else if self.rng.unit() < WARM_INFEASIBLE_SHARE {
            Op::Request(self.positives + self.rng.below(self.negatives))
        } else {
            Op::Request(self.rank_to_entry[self.zipf.sample(&mut self.rng)])
        }
    }
}

/// A checked warm operation and its latency in ms; `None` for `stats`
/// frames, which load the cluster but are not requests.
type Checked = (Option<f64>, Result<(), String>);

/// `serve-warm`: closed-loop clients over the pre-built working set, one
/// operation at a time, alternating members.
pub fn warm(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rec = Recorder::new();
    let t = Instant::now();
    let set = build_working_set(ctx, &mut rec, &mut report)?;
    let cluster = start_cluster(ctx, WARM_MAX_BYTES, &mut report, t.elapsed().as_secs_f64())?;
    let lines: Vec<Vec<u8>> = set.requests.iter().map(batch_line).collect();
    let stats_line = encode(&Frame::Stats);

    let ops = Mutex::new(WarmOps::new(ctx.seed, &set));
    let results: Mutex<Vec<Checked>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (ops, results, lines, stats_line, set, cluster) =
                (&ops, &results, &lines, &stats_line, &set, &cluster);
            s.spawn(move || {
                let conns: Result<Vec<Conn>, _> = cluster.addrs.iter().map(Conn::open).collect();
                let mut conns = match conns {
                    Ok(c) => c,
                    Err(e) => {
                        return results
                            .lock()
                            .unwrap()
                            .push((None, Err(format!("connect: {e}"))))
                    }
                };
                let mut member = client % MEMBERS;
                while Instant::now() < deadline {
                    let op = ops.lock().unwrap().next_op();
                    let line = match op {
                        Op::Request(r) => &lines[r],
                        Op::Stats => stats_line,
                    };
                    let t = Instant::now();
                    let reply = conns[member].call_line(line);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let result = match op {
                        Op::Request(r) => (Some(ms), check_reply(reply, &set.expect[r])),
                        Op::Stats => match reply {
                            Ok(Frame::Report(r)) if r.get("store").is_some() => (None, Ok(())),
                            other => (None, Err(format!("stats reply: {other:?}"))),
                        },
                    };
                    results.lock().unwrap().push(result);
                    member = (member + 1) % MEMBERS;
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut lat = Vec::new();
    for (ms, checked) in results.into_inner().unwrap() {
        if let (Some(ms), Ok(())) = (ms, &checked) {
            lat.push(ms);
        }
        report.record(checked);
    }
    latency_metrics(&mut report, &lat, wall);

    let stats = cluster.stats()?;
    cluster_counters(&mut report, &stats, lat.len() as u64);
    if ctx.trace {
        rtt(&mut rec, &cluster);
        warm_replay(ctx, &mut rec, &mut report, &set, &lines)?;
        ctx.finish_trace(&rec, &mut report, Some(median(&lat)))?;
    }
    report.set("peak_rss_mb", rss_total(&cluster));
    Ok(report)
}

/// Replays the first requests of the run's seeded operation stream
/// in-process against member 0's store: the read path, layer by layer.
fn warm_replay(
    ctx: &Ctx,
    rec: &mut Recorder,
    report: &mut Report,
    set: &WorkingSet,
    lines: &[Vec<u8>],
) -> Result<(), String> {
    let store = ArtifactStore::open(
        &stores(&ctx.dir)[0],
        StoreConfig {
            max_bytes: WARM_MAX_BYTES,
        },
    )
    .map_err(|e| format!("open store: {e}"))?;
    let mut ops = WarmOps::new(ctx.seed, set);
    let requests = std::iter::from_fn(|| Some(ops.next_op())).filter_map(|op| match op {
        Op::Request(r) => Some(r),
        Op::Stats => None,
    });
    for (i, r) in (0..WARM_REPLAY as u64).zip(requests) {
        let root = rec.open("request", i);
        let result = (|| {
            let (req, _func, key) = front_layers(rec, i, &lines[r])?;
            let hit = rec.time("serve.lookup", i, || store.lookup(&key));
            let mut reply = outcome(&req, &key.digest, hit);
            if reply.artifact.is_none() {
                let neg = rec.time("serve.lookup_negative", i, || store.lookup_negative(&key));
                reply.negative_hit = neg.is_some();
                reply.failure = neg;
            }
            let json = reply.to_json();
            encode_reply(rec, i, reply, &store);
            check_outcome(&json, &set.expect[r])
        })();
        rec.close(root);
        report.record(result);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_ops_are_deterministic_for_a_seed() {
        let mut stream = PointStream::new(1);
        let mut requests: Vec<SynthesisRequest> =
            (0..40).map(|_| stream.next_point().request()).collect();
        requests.extend((0..4).map(|_| stream.infeasible().request()));
        let set = WorkingSet {
            requests,
            expect: Vec::new(),
            positives: 40,
        };
        let plan = |seed| {
            let mut ops = WarmOps::new(seed, &set);
            (0..500).map(|_| ops.next_op()).collect::<Vec<_>>()
        };
        let a = plan(3);
        assert_eq!(a, plan(3));
        assert_ne!(a, plan(4));
        // A stats frame every 100th op, and some deliberately infeasible
        // requests.
        assert_eq!(
            a.iter().filter(|op| **op == Op::Stats).count(),
            a.len() / WARM_STATS_EVERY
        );
        assert!(a.iter().any(|op| matches!(op, Op::Request(i) if *i >= 40)));
    }
}
