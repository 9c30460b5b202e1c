//! The concurrent batch-synthesis engine.
//!
//! [`serve_batch`] takes a batch of parsed requests and drives them
//! through lookup → (bound → admission → synthesis → verification →
//! insert for misses) on a scoped-thread worker pool:
//!
//! - **In-flight dedup**: requests with the same content address are
//!   collapsed to one job; duplicates share the executor's result and
//!   are counted in [`CountersSnapshot::deduped`].
//! - **Lookup first**: every unique job is looked up before anything
//!   else is computed for it, so a hit costs one store read — no bound,
//!   and admission never sees it.
//! - **Negative caching**: a positive miss probes the store's negative
//!   side — if this exact request already *failed* the pipeline, the
//!   stored [`NegativeEntry`] (error + structured diagnostics) is
//!   served for a store read instead of a pipeline re-run, and fresh
//!   deterministic failures are persisted the same way. Only
//!   content-addressed failures are cached: parse errors never reach a
//!   digest and admission rejections depend on the dynamic cost model,
//!   so neither is persisted.
//! - **Cost-ordered scheduling**: each miss gets the explorer's
//!   resource-aware admissible bound ([`lower_bound`], computed on the
//!   loop-transformed design exactly as the sweep computes it), and the
//!   queue runs cheapest-first by bounded operation count — the same
//!   size signal the explorer feeds its [`ExploreBudget`] cost model.
//!   Completed syntheses train an observed ns-per-bounded-op model.
//! - **Admission control**: with [`ServiceConfig::max_cost_ns`] set, a
//!   miss whose modeled cost reaches the ceiling is rejected before it
//!   runs — unless it is cheaper than the budget's `min_prune_cost_ns`,
//!   which (as in the explorer) always runs, keeping the model fed. A
//!   rejection carries a structured [`Diagnostic`] with the candidate's
//!   bounded latency, area and operation count, so callers can tell a
//!   design that was *too big* from one that merely arrived late.
//! - **Observability**: hit/miss/dedup/error counters plus negative-hit
//!   and negative-insert counters, the queue's peak depth, and
//!   power-of-two latency histograms per stage.
//!
//! Cache hits bypass the pipeline entirely and return the stored
//! artifact byte-identically. [`ServiceConfig::synth_delay`] injects a
//! fixed latency into every pipeline invocation (success or failure) to
//! model an external backend tool — commercial HLS runs take seconds to
//! minutes, not the milliseconds of this in-process pipeline — which is
//! what the cluster fabric benchmarks scale against.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use std::sync::Arc;

use hls_core::{
    apply_loop_transforms, lower_bound, DesignBound, Diagnostic, Diagnostics, ExploreBudget,
    PassCache, PassCacheStats, PipelineConfig,
};
use hls_ir::json::Encode;
use hls_ir::{Function, Json};
use hls_verify::{verify_equiv, verify_equiv_cached, ProofCache, ProofCacheStats};
use rtl::compile_traced;

use crate::request::{prepare_batch, Prepared, SynthesisRequest};
use crate::store::{ArtifactStore, CachedArtifact, NegativeEntry, RequestKey, Verdict};

/// Service tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for the batch pool.
    pub workers: usize,
    /// The explorer's cost-model knobs, reused for admission: jobs
    /// modeled cheaper than `budget.min_prune_cost_ns` are always
    /// admitted.
    pub budget: ExploreBudget,
    /// Reject jobs whose modeled back-end cost reaches this many
    /// nanoseconds (`None` admits everything).
    pub max_cost_ns: Option<u64>,
    /// Extra latency injected into every pipeline invocation (success
    /// or failure), modeling an external backend tool. Zero by default;
    /// the cluster benchmarks use it to measure fabric scaling
    /// independently of this machine's core count.
    pub synth_delay: Duration,
    /// A shared content-addressed pass cache threaded into every
    /// pipeline invocation. It is memory-only: it lives as long as the
    /// service, and a restarted daemon starts it empty.
    pub pass_cache: Option<Arc<PassCache>>,
    /// A shared proof-verdict cache: verified requests replay FSMD
    /// equivalence verdicts for machines already proved (clock twins
    /// included) instead of re-proving them.
    pub proof_cache: Option<Arc<ProofCache>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
            budget: ExploreBudget::default(),
            max_cost_ns: None,
            synth_delay: Duration::ZERO,
            pass_cache: None,
            proof_cache: None,
        }
    }
}

const HIST_BUCKETS: usize = 24;

/// A lock-free power-of-two latency histogram (microsecond buckets:
/// bucket 0 holds sub-microsecond samples, bucket *i* holds
/// `[2^(i-1), 2^i)` µs, the last bucket everything beyond).
#[derive(Debug, Default)]
struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl LatencyHistogram {
    fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_us: self.total_us.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A latency histogram frozen for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, in microseconds.
    pub total_us: u64,
    /// Power-of-two bucket counts (trailing zero buckets trimmed).
    pub buckets: Vec<u64>,
}

hls_ir::json_struct! {
    pub HistogramSnapshot { count, total_us, buckets }
}

/// Per-batch observability counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Jobs served from the store.
    pub hits: u64,
    /// Jobs that had to synthesize.
    pub misses: u64,
    /// Jobs that ran the full pipeline successfully.
    pub synthesized: u64,
    /// Requests collapsed onto an identical in-flight request.
    pub deduped: u64,
    /// Jobs rejected by admission control.
    pub rejected: u64,
    /// Jobs that failed (parse, synthesis or store errors).
    pub errors: u64,
    /// Failures served from the negative cache (no pipeline run).
    pub neg_hits: u64,
    /// Fresh deterministic failures persisted to the negative cache.
    pub neg_inserts: u64,
    /// Unique jobs enqueued (the queue's peak depth).
    pub queue_peak: u64,
    /// Store-lookup latency per job.
    pub lookup_us: HistogramSnapshot,
    /// Synthesis-pipeline latency per miss.
    pub synth_us: HistogramSnapshot,
    /// Equivalence-check latency per verified miss.
    pub verify_us: HistogramSnapshot,
    /// Store-insert latency per miss.
    pub insert_us: HistogramSnapshot,
    /// Pass-cache census, when the service runs one.
    pub pass_cache: Option<PassCacheStats>,
    /// Proof-cache census, when the service runs one.
    pub proof_cache: Option<ProofCacheStats>,
}

impl CountersSnapshot {
    /// Serializes the counters; the cache censuses only when present.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("hits", self.hits.encode()),
            ("misses", self.misses.encode()),
            ("synthesized", self.synthesized.encode()),
            ("deduped", self.deduped.encode()),
            ("rejected", self.rejected.encode()),
            ("errors", self.errors.encode()),
            ("neg_hits", self.neg_hits.encode()),
            ("neg_inserts", self.neg_inserts.encode()),
            ("queue_peak", self.queue_peak.encode()),
            ("lookup_us", self.lookup_us.encode()),
            ("synth_us", self.synth_us.encode()),
            ("verify_us", self.verify_us.encode()),
            ("insert_us", self.insert_us.encode()),
        ];
        if let Some(pc) = &self.pass_cache {
            fields.push(("pass_cache", pc.encode()));
        }
        if let Some(pc) = &self.proof_cache {
            fields.push(("proof_cache", pc.encode()));
        }
        Json::obj(fields)
    }
}

/// The outcome of one request in a batch, in request order.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The request's label.
    pub design: String,
    /// The request's content address (empty if the source failed to parse).
    pub digest: String,
    /// Whether the artifact came from the store.
    pub cache_hit: bool,
    /// Whether this request shared an identical in-flight request's work.
    pub deduped: bool,
    /// Whether admission control rejected the job.
    pub rejected: bool,
    /// Whether the failure was served from the negative cache (the
    /// pipeline was *not* re-run).
    pub negative_hit: bool,
    /// The structured failure, for requests that failed the pipeline —
    /// fresh or replayed from the negative cache.
    pub failure: Option<NegativeEntry>,
    /// The job's modeled back-end cost when a model existed (never on a
    /// store hit: hits are not bounded or priced).
    pub modeled_cost_ns: Option<u64>,
    /// Structured diagnostics for requests that never reached the
    /// pipeline (admission rejections carry the candidate's admissible
    /// latency/area bounds here).
    pub diagnostics: Option<Diagnostics>,
    /// The served artifact (absent on error or rejection).
    pub artifact: Option<CachedArtifact>,
    /// What went wrong, when something did.
    pub error: Option<String>,
}

impl RequestOutcome {
    /// An outcome for `design` at `digest` with no flag set and nothing
    /// attached yet.
    pub fn new(design: &str, digest: &str) -> RequestOutcome {
        RequestOutcome {
            design: design.to_string(),
            digest: digest.to_string(),
            cache_hit: false,
            deduped: false,
            rejected: false,
            negative_hit: false,
            failure: None,
            modeled_cost_ns: None,
            diagnostics: None,
            artifact: None,
            error: None,
        }
    }

    fn failed(design: &str, digest: &str, error: String) -> RequestOutcome {
        RequestOutcome {
            error: Some(error),
            ..RequestOutcome::new(design, digest)
        }
    }

    /// Serializes the outcome as a response envelope: flags only when
    /// set, a failure's code and diagnostics, and a served artifact's
    /// fields inline.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("design", self.design.encode()),
            ("digest", self.digest.encode()),
            ("cache_hit", self.cache_hit.encode()),
            ("deduped", self.deduped.encode()),
        ];
        if self.rejected {
            fields.push(("rejected", Json::Bool(true)));
        }
        if self.negative_hit {
            fields.push(("negative_hit", Json::Bool(true)));
        }
        if let Some(f) = &self.failure {
            fields.push(("failure_code", f.code.encode()));
            fields.push(("diagnostics", f.diagnostics.encode()));
        }
        if let Some(cost) = self.modeled_cost_ns {
            fields.push(("modeled_cost_ns", cost.encode()));
        }
        if let Some(d) = &self.diagnostics {
            fields.push(("diagnostics", d.encode()));
        }
        if let Some(a) = &self.artifact {
            fields.push(("verilog", a.verilog.encode()));
            fields.push(("metrics", a.metrics.encode()));
            fields.push(("verdict", a.verdict.encode()));
            fields.push(("diagnostics", a.diagnostics.encode()));
            fields.push(("trace", a.trace.encode()));
        }
        if let Some(e) = &self.error {
            fields.push(("error", e.encode()));
        }
        Json::obj(fields)
    }
}

/// Everything [`serve_batch`] returns.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-request outcomes, in request order.
    pub outcomes: Vec<RequestOutcome>,
    /// Service counters for this batch.
    pub counters: CountersSnapshot,
}

impl BatchReport {
    /// Serializes the whole report (plus the store's census).
    pub fn to_json(&self, store: &ArtifactStore) -> Json {
        Json::obj(vec![
            (
                "outcomes",
                Json::Arr(self.outcomes.iter().map(RequestOutcome::to_json).collect()),
            ),
            ("counters", self.counters.to_json()),
            ("store", store.stats().to_json()),
        ])
    }
}

/// Observed mean synthesis cost per bounded operation — the serving-side
/// twin of the explorer's per-pass cost model.
#[derive(Debug, Default)]
struct CostModel {
    total_ns: AtomicU64,
    total_ops: AtomicU64,
}

impl CostModel {
    fn observe(&self, ops: usize, elapsed: Duration) {
        self.total_ns.fetch_add(
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.total_ops.fetch_add(ops as u64, Ordering::Relaxed);
    }

    fn modeled_ns(&self, ops: usize) -> Option<u64> {
        let total_ops = self.total_ops.load(Ordering::Relaxed);
        if total_ops == 0 {
            return None;
        }
        let per_op = self.total_ns.load(Ordering::Relaxed) as f64 / total_ops as f64;
        Some((per_op * ops as f64) as u64)
    }
}

/// One unique content address in a batch, run by its first request.
struct Job<'a> {
    index: usize,
    req: &'a SynthesisRequest,
    func: &'a Function,
    key: &'a RequestKey,
}

impl Job<'_> {
    fn outcome(&self) -> RequestOutcome {
        RequestOutcome::new(self.req.label(self.func), &self.key.digest)
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    synthesized: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    neg_hits: AtomicU64,
    neg_inserts: AtomicU64,
    lookup: LatencyHistogram,
    synth: LatencyHistogram,
    verify: LatencyHistogram,
    insert: LatencyHistogram,
}

/// Runs a batch of requests against `store`, returning per-request
/// outcomes in request order.
pub fn serve_batch(
    requests: &[SynthesisRequest],
    store: &ArtifactStore,
    cfg: &ServiceConfig,
) -> BatchReport {
    serve_prepared(
        requests.iter().zip(prepare_batch(requests)).collect(),
        store,
        cfg,
    )
}

/// [`serve_batch`] for requests already parsed and keyed (see
/// [`prepare_batch`]): a caller that routed on the keys does not parse
/// twice.
///
/// Every unique job is looked up first (positive, then negative side)
/// on the worker pool. Only misses are bounded, ordered cheapest-first
/// and put to admission, so a hit costs one store read and admission
/// can never reject it.
pub fn serve_prepared(
    batch: Vec<(&SynthesisRequest, Prepared)>,
    store: &ArtifactStore,
    cfg: &ServiceConfig,
) -> BatchReport {
    // Collapse identical content addresses onto one job each.
    let mut executor: HashMap<&str, usize> = HashMap::new();
    let mut jobs: Vec<Job> = Vec::new();
    for (i, (req, p)) in batch.iter().enumerate() {
        let Ok((func, key)) = p else { continue };
        if !executor.contains_key(key.digest.as_str()) {
            executor.insert(&key.digest, i);
            jobs.push(Job {
                index: i,
                req,
                func,
                key,
            });
        }
    }
    let deduped = (batch.iter().filter(|(_, p)| p.is_ok()).count() - jobs.len()) as u64;
    let queue_peak = jobs.len() as u64;

    let counters = Counters::default();
    let mut results: HashMap<usize, RequestOutcome> = HashMap::new();
    let mut misses = Vec::new();
    let looked_up = run_pool(cfg.workers, &jobs, |job| lookup_job(job, store, &counters));
    for (job, found) in jobs.iter().zip(looked_up) {
        match found {
            Some(Some(outcome)) => {
                results.insert(job.index, outcome);
            }
            Some(None) => misses.push(job),
            None => {} // the worker died; reported below
        }
    }

    // Bound each miss exactly as the explorer bounds sweep candidates
    // (on the loop-transformed design: unrolling changes the operation
    // count the cost model sizes against), then run cheapest-first —
    // workers pop from the back.
    let mut misses: Vec<(&Job, DesignBound)> = misses
        .into_iter()
        .map(|job| {
            let d = &job.req.directives;
            let transformed = apply_loop_transforms(job.func, d);
            (job, lower_bound(&transformed.func, d, &job.req.library))
        })
        .collect();
    misses.sort_by(|(a, ab), (b, bb)| (bb.ops, &b.key.digest).cmp(&(ab.ops, &a.key.digest)));
    let model = CostModel::default();
    let ran = run_pool(cfg.workers, &misses, |(job, bound)| {
        synthesize_job(job, bound, store, cfg, &model, &counters)
    });
    for ((job, _), outcome) in misses.iter().zip(ran) {
        if let Some(outcome) = outcome {
            results.insert(job.index, outcome);
        }
    }

    let outcomes = batch
        .iter()
        .enumerate()
        .map(|(i, (req, p))| match p {
            Err(e) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
                RequestOutcome::failed(&req.design, "", e.clone())
            }
            Ok((_, key)) => {
                let first = executor[key.digest.as_str()];
                match results.get(&first) {
                    Some(done) => {
                        let mut o = done.clone();
                        o.deduped = first != i;
                        o
                    }
                    // Reachable only if the executing worker panicked
                    // mid-job; report it as this request's failure
                    // instead of tearing down the whole batch.
                    None => {
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                        RequestOutcome::failed(
                            &req.design,
                            &key.digest,
                            "internal: worker died before recording an outcome".to_string(),
                        )
                    }
                }
            }
        })
        .collect();

    BatchReport {
        outcomes,
        counters: CountersSnapshot {
            hits: counters.hits.load(Ordering::Relaxed),
            misses: counters.misses.load(Ordering::Relaxed),
            synthesized: counters.synthesized.load(Ordering::Relaxed),
            deduped,
            rejected: counters.rejected.load(Ordering::Relaxed),
            errors: counters.errors.load(Ordering::Relaxed),
            neg_hits: counters.neg_hits.load(Ordering::Relaxed),
            neg_inserts: counters.neg_inserts.load(Ordering::Relaxed),
            queue_peak,
            lookup_us: counters.lookup.snapshot(),
            synth_us: counters.synth.snapshot(),
            verify_us: counters.verify.snapshot(),
            insert_us: counters.insert.snapshot(),
            pass_cache: cfg.pass_cache.as_ref().map(|c| c.stats()),
            proof_cache: cfg.proof_cache.as_ref().map(|c| c.stats()),
        },
    }
}

/// Maps `f` over `items` on up to `workers` scoped threads, which take
/// items from the back. Results come back in item order; `None` marks an
/// item whose worker panicked. A lone item runs on the calling thread.
fn run_pool<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<Option<R>> {
    if items.len() <= 1 {
        return items.iter().map(|item| Some(f(item))).collect();
    }
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let queue = Mutex::new((0..items.len()).collect::<Vec<_>>());
    thread::scope(|s| {
        for _ in 0..workers.max(1) {
            // A panicking worker poisons these locks while its item stays
            // `None`; the survivors keep draining the queue, so recover
            // the guard.
            s.spawn(|| loop {
                let next = queue.lock().unwrap_or_else(|e| e.into_inner()).pop();
                let Some(i) = next else { break };
                let r = f(&items[i]);
                results.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(r);
            });
        }
    });
    results.into_inner().unwrap_or_else(|e| e.into_inner())
}

/// Serves `job` from the store when it can: a verified artifact, or a
/// deterministic failure replayed from the negative side. `None` is a
/// miss on both.
fn lookup_job(job: &Job, store: &ArtifactStore, counters: &Counters) -> Option<RequestOutcome> {
    let t = Instant::now();
    let cached = store.lookup(job.key);
    counters.lookup.record(t.elapsed());
    if let Some(artifact) = cached {
        counters.hits.fetch_add(1, Ordering::Relaxed);
        return Some(RequestOutcome {
            cache_hit: true,
            artifact: Some(artifact),
            ..job.outcome()
        });
    }
    // A positive miss may still be a *negative* hit: this exact request
    // already failed the pipeline deterministically, so replay the
    // stored failure instead of re-running.
    let failure = store.lookup_negative(job.key)?;
    counters.neg_hits.fetch_add(1, Ordering::Relaxed);
    counters.errors.fetch_add(1, Ordering::Relaxed);
    Some(RequestOutcome {
        negative_hit: true,
        error: Some(format!("synthesis: {}", failure.error)),
        failure: Some(failure),
        ..job.outcome()
    })
}

/// Admits (or rejects) one store miss, then synthesizes, verifies and
/// inserts it.
fn synthesize_job(
    job: &Job,
    bound: &DesignBound,
    store: &ArtifactStore,
    cfg: &ServiceConfig,
    model: &CostModel,
    counters: &Counters,
) -> RequestOutcome {
    let req = job.req;
    let design = req.label(job.func).to_string();
    let modeled_cost_ns = model.modeled_ns(bound.ops);

    // Admission: reject jobs modeled at/over the ceiling — unless they
    // are cheaper than the budget's always-run threshold. The rejection
    // reports the bound that sized the job, so the caller sees exactly
    // what the admission decision was based on.
    if let (Some(max), Some(cost)) = (cfg.max_cost_ns, modeled_cost_ns) {
        if cost >= max && cost >= cfg.budget.min_prune_cost_ns {
            counters.rejected.fetch_add(1, Ordering::Relaxed);
            let diag = Diagnostic::error(
                "admission-rejected",
                format!("modeled cost {cost} ns reaches the {max} ns ceiling"),
            )
            .in_pass("admission")
            .with_note(format!(
                "admissible bound: latency >= {} cycles, area >= {:.1}",
                bound.latency_cycles, bound.area
            ))
            .with_note(format!("bounded operations: {}", bound.ops));
            return RequestOutcome {
                rejected: true,
                modeled_cost_ns,
                diagnostics: Some(Diagnostics::from(diag)),
                error: Some(format!(
                    "admission: modeled cost {cost} ns reaches the {max} ns ceiling"
                )),
                ..job.outcome()
            };
        }
    }
    counters.misses.fetch_add(1, Ordering::Relaxed);

    let t = Instant::now();
    let pipeline_config = PipelineConfig {
        cache: cfg.pass_cache.clone(),
        ..PipelineConfig::default()
    };
    let (result, run) = compile_traced(job.func, &req.directives, &req.library, &pipeline_config);
    if !cfg.synth_delay.is_zero() {
        // Models the external backend tool's wall time (applies to
        // failed runs too: a real tool burns its runtime before
        // reporting infeasibility).
        thread::sleep(cfg.synth_delay);
    }
    let synth_time = t.elapsed();
    counters.synth.record(synth_time);
    model.observe(bound.ops, synth_time);

    let artifacts = match result {
        Ok(a) => a,
        Err(e) => {
            counters.errors.fetch_add(1, Ordering::Relaxed);
            let failure = NegativeEntry {
                design: design.clone(),
                code: e.code().to_string(),
                error: e.to_string(),
                diagnostics: run.diagnostics.encode(),
            };
            let mut outcome =
                RequestOutcome::failed(&design, &job.key.digest, format!("synthesis: {e}"));
            outcome.modeled_cost_ns = modeled_cost_ns;
            // Persist the deterministic failure so retries are store
            // reads; a store error only costs the cache, not the reply.
            match store.insert_negative(job.key, &failure) {
                Ok(()) => {
                    counters.neg_inserts.fetch_add(1, Ordering::Relaxed);
                }
                Err(io) => {
                    outcome.error = Some(format!("synthesis: {e} (failure not cached: {io})"));
                }
            }
            outcome.failure = Some(failure);
            return outcome;
        }
    };
    let verdict = if req.verify {
        let t = Instant::now();
        let report = match &cfg.proof_cache {
            Some(cache) => verify_equiv_cached(&artifacts.fsmd, cache),
            None => verify_equiv(&artifacts.fsmd),
        };
        counters.verify.record(t.elapsed());
        Some(Verdict {
            passed: report.passed(),
            detail: report.describe(),
        })
    } else {
        None
    };
    let artifact = CachedArtifact {
        design,
        verilog: artifacts.verilog,
        metrics: artifacts.synthesis.metrics,
        trace: run.trace.encode(),
        verdict,
        diagnostics: run.diagnostics.encode(),
    };
    let t = Instant::now();
    let insert = store.insert(job.key, &artifact);
    counters.insert.record(t.elapsed());
    counters.synthesized.fetch_add(1, Ordering::Relaxed);
    RequestOutcome {
        modeled_cost_ns,
        artifact: Some(artifact),
        error: insert
            .err()
            .map(|e| format!("artifact served but not cached: {e}")),
        ..job.outcome()
    }
}
