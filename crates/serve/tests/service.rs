//! Batch-service behavior: in-flight dedup, admission control, and the
//! acceptance criterion — a warm-cache Table-1 sweep returning
//! bit-identical artifacts without touching the pipeline.

use std::fs;
use std::path::PathBuf;

use hls_core::{ExploreBudget, Unroll};
use hls_ir::Json;
use hls_serve::{
    batch_from_json, prepare_batch, serve_batch, ArtifactStore, ServiceConfig, StoreConfig,
    SynthesisRequest,
};
use qam_decoder::{table1_architectures, table1_library, QAM_DECODER_SOURCE};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hls-service-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const TWICE: &str = "void twice(sc_fixed<8,4> x, sc_fixed<10,6> *y) { *y = x + x; }";
const SUM: &str = "void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) { sc_fixed<16,8> acc = 0; \
                   sum_loop: for (int k = 0; k < 8; k++) { acc += x[k]; } *out = acc; }";

#[test]
fn identical_in_flight_requests_are_deduped_observably() {
    let root = scratch("dedup");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let twice = SynthesisRequest::new(TWICE);
    let sum = SynthesisRequest::new(SUM);
    let batch = vec![twice.clone(), twice.clone(), sum, twice];

    let report = serve_batch(&batch, &store, &ServiceConfig::default());
    assert_eq!(
        report.counters.deduped, 2,
        "three identical requests, one job"
    );
    assert_eq!(report.counters.synthesized, 2);
    assert_eq!(report.counters.misses, 2);
    assert_eq!(report.counters.hits, 0);
    assert_eq!(report.counters.queue_peak, 2);
    assert_eq!(report.outcomes.len(), 4);
    let deduped: Vec<bool> = report.outcomes.iter().map(|o| o.deduped).collect();
    assert_eq!(deduped, vec![false, true, false, true]);
    // Duplicates carry the executor's artifact verbatim.
    let v0 = &report.outcomes[0].artifact.as_ref().unwrap().verilog;
    let v3 = &report.outcomes[3].artifact.as_ref().unwrap().verilog;
    assert_eq!(v0, v3);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn admission_rejects_modeled_over_budget_jobs() {
    let root = scratch("admission");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let cfg = ServiceConfig {
        workers: 1,
        budget: ExploreBudget {
            min_prune_cost_ns: 0,
        },
        max_cost_ns: Some(1),
        ..ServiceConfig::default()
    };
    // Cheapest-first ordering: `twice` runs unmodeled (always admitted)
    // and trains the cost model; `sum` is then modeled over the 1 ns
    // ceiling and rejected.
    let batch = vec![SynthesisRequest::new(TWICE), SynthesisRequest::new(SUM)];
    let report = serve_batch(&batch, &store, &cfg);
    assert_eq!(report.counters.rejected, 1);
    assert_eq!(report.counters.synthesized, 1);
    let rejected = report.outcomes.iter().find(|o| o.rejected).unwrap();
    assert!(rejected.artifact.is_none());
    assert!(rejected.error.as_ref().unwrap().contains("admission"));
    assert!(rejected.modeled_cost_ns.unwrap() >= 1);
    // The rejection carries the resource-aware bound that sized the job:
    // a structured diagnostic with the admissible latency/area floor.
    let diag = rejected
        .diagnostics
        .as_ref()
        .expect("rejection carries diagnostics")
        .find("admission-rejected")
        .expect("admission diagnostic present");
    assert_eq!(diag.pass, "admission");
    let library = hls_core::TechLibrary::asic_100mhz();
    let bound = hls_core::lower_bound(
        &hls_ir::parse_function(SUM).unwrap(),
        &hls_core::Directives::new(library.nominal_clock_ns()),
        &library,
    );
    let note = diag.notes.join("\n");
    assert!(
        note.contains(&format!("latency >= {} cycles", bound.latency_cycles)),
        "diagnostic must carry the latency bound: {note}"
    );
    assert!(
        note.contains("area >="),
        "diagnostic must carry the area bound: {note}"
    );
    assert!(
        note.contains(&format!("bounded operations: {}", bound.ops)),
        "diagnostic must carry the bounded op count: {note}"
    );
    // Serialized outcomes expose the same diagnostic to HTTP clients.
    let json = rejected.to_json();
    let diags = json.get("diagnostics").expect("diagnostics serialized");
    assert!(matches!(diags, hls_ir::Json::Arr(v) if !v.is_empty()));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn admission_never_rejects_a_cached_hit() {
    // Admission guards synthesis cost, and a hit costs one store read:
    // the hit is served before anything is bounded or priced.
    let root = scratch("admission-hit");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let sum = SynthesisRequest::new(SUM);
    let warm = serve_batch(
        std::slice::from_ref(&sum),
        &store,
        &ServiceConfig::default(),
    );
    assert!(warm.outcomes[0].artifact.is_some());
    let cfg = ServiceConfig {
        workers: 1,
        budget: ExploreBudget {
            min_prune_cost_ns: 0,
        },
        max_cost_ns: Some(1),
        ..ServiceConfig::default()
    };
    // The same batch that `admission_rejects_modeled_over_budget_jobs`
    // rejects `sum` from, with `sum` now in the store.
    let report = serve_batch(&[SynthesisRequest::new(TWICE), sum], &store, &cfg);
    let hit = &report.outcomes[1];
    assert!(hit.cache_hit, "{:?}", hit.error);
    assert!(hit.artifact.is_some());
    assert_eq!(report.counters.rejected, 0);
    assert_eq!(hit.modeled_cost_ns, None, "a hit is never bounded");
    assert_eq!((report.counters.hits, report.counters.synthesized), (1, 1));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn warm_table1_sweep_returns_bit_identical_artifacts() {
    let root = scratch("table1");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let lib = table1_library();
    let requests: Vec<SynthesisRequest> = table1_architectures()
        .into_iter()
        .map(|arch| SynthesisRequest {
            design: arch.name.to_string(),
            source: QAM_DECODER_SOURCE.to_string(),
            directives: arch.directives,
            library: lib.clone(),
            verify: true,
        })
        .collect();
    let cfg = ServiceConfig::default();

    let cold = serve_batch(&requests, &store, &cfg);
    assert_eq!(cold.counters.misses, requests.len() as u64);
    assert_eq!(cold.counters.synthesized, requests.len() as u64);
    for o in &cold.outcomes {
        let a = o.artifact.as_ref().unwrap_or_else(|| {
            panic!("{} failed: {:?}", o.design, o.error);
        });
        assert!(
            a.verdict.as_ref().unwrap().passed,
            "{} must verify",
            o.design
        );
    }

    let warm = serve_batch(&requests, &store, &cfg);
    assert_eq!(warm.counters.hits, requests.len() as u64);
    assert_eq!(warm.counters.misses, 0);
    assert_eq!(warm.counters.synthesized, 0);
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert!(w.cache_hit, "{} must be served from the store", w.design);
        let ca = c.artifact.as_ref().unwrap();
        let wa = w.artifact.as_ref().unwrap();
        assert_eq!(
            ca.verilog, wa.verilog,
            "{}: Verilog must be byte-identical",
            w.design
        );
        assert_eq!(
            ca.metrics, wa.metrics,
            "{}: metrics must round-trip exactly",
            w.design
        );
        assert_eq!(
            ca.verdict, wa.verdict,
            "{}: verdict must be preserved",
            w.design
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn deterministic_failures_are_negative_cached() {
    let root = scratch("negative");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    // 0.05 ns cannot fit any operation in the library: the schedule
    // fails deterministically, every time, on every machine.
    let mut bad = SynthesisRequest::new(TWICE);
    bad.design = "twice@0.05ns".into();
    bad.directives.clock_period_ns = 0.05;
    let batch = vec![bad];
    let cfg = ServiceConfig::default();

    let cold = serve_batch(&batch, &store, &cfg);
    let o = &cold.outcomes[0];
    assert!(!o.negative_hit, "first failure runs the pipeline");
    let failure = o.failure.as_ref().expect("structured failure recorded");
    assert_eq!(failure.code, "infeasible-clock");
    assert!(o.error.as_ref().unwrap().contains("synthesis:"));
    assert_eq!(cold.counters.neg_inserts, 1);
    assert_eq!(cold.counters.errors, 1);
    assert_eq!(cold.counters.synthesized, 0);

    // The retry is a store read: no pipeline run, same failure, and the
    // positive miss counter stays untouched (the probe is silent).
    let warm = serve_batch(&batch, &store, &cfg);
    let o = &warm.outcomes[0];
    assert!(o.negative_hit, "retry must replay the cached failure");
    assert_eq!(o.failure.as_ref().unwrap().code, "infeasible-clock");
    assert_eq!(
        o.failure.as_ref().unwrap().error,
        failure.error,
        "replayed failure must match the original"
    );
    assert_eq!(warm.counters.neg_hits, 1);
    assert_eq!(warm.counters.misses, 0);
    assert_eq!(warm.counters.synthesized, 0);
    assert_eq!(warm.counters.neg_inserts, 0);

    // The serialized outcome carries the failure for wire clients.
    let json = o.to_json();
    assert_eq!(
        json.get("failure_code").and_then(hls_ir::Json::as_str),
        Some("infeasible-clock")
    );
    assert_eq!(
        json.get("negative_hit").and_then(hls_ir::Json::as_bool),
        Some(true)
    );

    // A negative entry never shadows a fixable request: the same design
    // at a feasible clock synthesizes normally.
    let ok = serve_batch(&[SynthesisRequest::new(TWICE)], &store, &cfg);
    assert!(ok.outcomes[0].artifact.is_some());
    assert!(!ok.outcomes[0].negative_hit);
    let _ = fs::remove_dir_all(&root);
}

/// `SUM`'s request as JSON, with `edit` applied to its directives.
fn sum_request_with(edit: impl FnOnce(&mut Vec<(String, Json)>)) -> Json {
    let mut request = SynthesisRequest::new(SUM).to_json();
    let Json::Obj(fields) = &mut request else {
        unreachable!("a request is an object")
    };
    let (_, directives) = fields.iter_mut().find(|(k, _)| k == "directives").unwrap();
    let Json::Obj(directives) = directives else {
        unreachable!("directives are an object")
    };
    edit(directives);
    request
}

fn set(fields: &mut Vec<(String, Json)>, key: &str, value: &str) {
    let value = Json::parse(value).unwrap();
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => fields.push((key.to_string(), value)),
    }
}

#[test]
fn out_of_range_integers_are_rejected_not_wrapped() {
    // An unroll factor of 2^32 + 2 used to decode as 2: the request got
    // unroll 2's digest and was served unroll 2's artifact.
    let unroll2 = SynthesisRequest {
        directives: SynthesisRequest::new(SUM)
            .directives
            .unroll("sum_loop", Unroll::Factor(2)),
        ..SynthesisRequest::new(SUM)
    };
    let (_, unroll2_key) = prepare_batch(&[unroll2]).pop().unwrap().unwrap();
    let wide = sum_request_with(|d| set(d, "loops", r#"{"sum_loop": {"unroll": 4294967298}}"#));
    let parsed = batch_from_json(&wide);
    if let Ok(requests) = &parsed {
        let (_, key) = prepare_batch(requests).pop().unwrap().unwrap();
        assert_ne!(key.digest, unroll2_key.digest, "decoded as unroll 2");
    }
    let err = parsed.unwrap_err();
    assert!(err.contains("unroll"), "{err}");

    // A FIFO depth of 2^32 used to pass the `>= 1` check and become 0.
    let deep = sum_request_with(|d| set(d, "stream", r#"{"fifo_depth": 4294967296}"#));
    let err = batch_from_json(&deep).unwrap_err();
    assert!(err.contains("fifo_depth"), "{err}");

    // Every other narrowed integer the directives carry.
    for (key, value, field) in [
        (
            "loops",
            r#"{"sum_loop": {"pipeline_ii": 4294967297}}"#,
            "pipeline_ii",
        ),
        ("fu_limits", r#"{"mul": 4294967296}"#, "fu_limits"),
        (
            "arrays",
            r#"{"x": {"read_ports": 4294967297, "write_ports": 1}}"#,
            "read_ports",
        ),
        (
            "arrays",
            r#"{"x": {"read_ports": 1, "write_ports": 4294967297}}"#,
            "write_ports",
        ),
        ("loops", r#"{"sum_loop": {"unroll": -1}}"#, "unroll"),
        ("loops", r#"{"sum_loop": {"unroll": 2.5}}"#, "unroll"),
    ] {
        let err = batch_from_json(&sum_request_with(|d| set(d, key, value))).unwrap_err();
        assert!(err.contains(field), "{key} = {value}: {err}");
    }
}
