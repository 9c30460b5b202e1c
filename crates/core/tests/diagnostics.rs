//! Error-path coverage for the structured diagnostics subsystem: one test
//! per [`hls_core::SynthesisError`]-backed diagnostic code, each asserting
//! the code, severity, pass of origin, and anchors that tooling depends
//! on, plus unit tests for the public [`hls_core::merge_hazards`]
//! dependence analysis on nested and unsafe loop pairs.

use std::sync::Arc;

use hls_core::{
    merge_hazards, synthesize_traced, Anchor, Diagnostic, Diagnostics, Directives, HazardKind,
    PassCache, PassCacheConfig, PipelineConfig, Severity, SynthesisError, TechLibrary, Unroll,
};
use hls_ir::{CmpOp, Expr, Function, FunctionBuilder, Ty};

/// The accumulating sum loop used throughout the crate's own tests.
fn sum_loop() -> Function {
    let mut b = FunctionBuilder::new("sum");
    let x = b.param_array("x", Ty::fixed(10, 0), 8);
    let out = b.param_scalar("out", Ty::fixed(14, 4));
    let acc = b.local("acc", Ty::fixed(14, 4));
    b.assign(acc, Expr::int_const(0));
    b.for_loop("sum", 0, CmpOp::Lt, 8, 1, |b, k| {
        b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
    });
    b.assign(out, Expr::var(acc));
    b.build()
}

fn run(
    func: &Function,
    directives: &Directives,
) -> (
    Result<hls_core::SynthesisResult, SynthesisError>,
    hls_core::PipelineRun,
) {
    synthesize_traced(
        func,
        directives,
        &TechLibrary::asic_100mhz(),
        &PipelineConfig::default(),
    )
}

// ---------------------------------------------------------------------------
// One test per diagnostic code
// ---------------------------------------------------------------------------

#[test]
fn unknown_loop_diagnostic() {
    let f = sum_loop();
    let d = Directives::new(10.0).unroll("nope", Unroll::Factor(2));
    let (result, run) = run(&f, &d);
    assert!(matches!(result, Err(SynthesisError::UnknownLoop { .. })));

    let diag = run.diagnostics.find("unknown-loop").expect("diagnostic");
    assert_eq!(diag.severity, Severity::Error);
    assert_eq!(diag.pass, "check-directives");
    assert!(
        diag.anchors.contains(&Anchor::Loop("nope".into())),
        "{diag:?}"
    );
    // The trace ends at the rejecting pass: nothing downstream ran.
    assert_eq!(run.trace.passes.last().unwrap().pass, "check-directives");
}

#[test]
fn unknown_variable_diagnostic() {
    let f = sum_loop();
    let d = Directives::new(10.0).map_array("ghost", hls_core::ArrayMapping::Registers);
    let (result, run) = run(&f, &d);
    assert!(matches!(
        result,
        Err(SynthesisError::UnknownVariable { .. })
    ));

    let diag = run
        .diagnostics
        .find("unknown-variable")
        .expect("diagnostic");
    assert_eq!(diag.severity, Severity::Error);
    assert_eq!(diag.pass, "check-directives");
    assert!(
        diag.anchors.contains(&Anchor::Var("ghost".into())),
        "{diag:?}"
    );
}

#[test]
fn invalid_clock_diagnostic() {
    let f = sum_loop();
    for clock in [0.0, -5.0, f64::NAN, f64::INFINITY] {
        let (result, run) = run(&f, &Directives::new(clock));
        assert!(
            matches!(result, Err(SynthesisError::InvalidClock { .. })),
            "clock {clock}"
        );
        let diag = run.diagnostics.find("invalid-clock").expect("diagnostic");
        assert_eq!(diag.severity, Severity::Error);
        assert_eq!(diag.pass, "check-directives");
    }
}

#[test]
fn invalid_ir_diagnostic() {
    // Loading from a scalar parameter fails IR validation.
    let mut b = FunctionBuilder::new("bad");
    let s = b.param_scalar("s", Ty::int(8));
    let out = b.param_scalar("out", Ty::int(8));
    b.assign(out, Expr::load(s, Expr::int_const(0)));
    let f = b.build();

    let (result, run) = run(&f, &Directives::new(10.0));
    assert!(matches!(result, Err(SynthesisError::InvalidIr { .. })));

    let diag = run.diagnostics.find("invalid-ir").expect("diagnostic");
    assert_eq!(diag.severity, Severity::Error);
    assert_eq!(diag.pass, "validate-ir");
    // The individual validation problems ride along as notes.
    assert!(!diag.notes.is_empty(), "{diag:?}");
    // Validation is the first pass: the trace holds exactly one record.
    assert_eq!(run.trace.passes.len(), 1);
}

#[test]
fn infeasible_ii_diagnostic() {
    // A body whose accumulator recurrence spans two cycles cannot
    // sustain II = 1.
    let mut b = FunctionBuilder::new("deep");
    let x = b.param_array("x", Ty::fixed(14, 2), 8);
    let acc = b.param_scalar("acc", Ty::fixed(16, 4));
    b.for_loop("l", 0, CmpOp::Lt, 8, 1, |b, k| {
        let t = Expr::mul(
            Expr::mul(Expr::load(x, Expr::var(k)), Expr::load(x, Expr::var(k))),
            Expr::mul(Expr::load(x, Expr::var(k)), Expr::var(acc)),
        );
        b.assign(acc, Expr::cast(Ty::fixed(16, 4), t));
    });
    let f = b.build();

    let d = Directives::new(10.0).pipeline("l", 1);
    let (result, run) = run(&f, &d);
    assert!(matches!(
        result,
        Err(SynthesisError::InfeasibleInitiationInterval { .. })
    ));

    let diag = run.diagnostics.find("infeasible-ii").expect("diagnostic");
    assert_eq!(diag.severity, Severity::Error);
    assert_eq!(diag.pass, "schedule");
    assert!(diag.anchors.contains(&Anchor::Loop("l".into())), "{diag:?}");
}

#[test]
fn merge_hazard_diagnostic_is_a_warning() {
    // The paper's hazardous pattern: a read loop merged with the shift
    // loop that overwrites what it reads. The default policy accepts the
    // hazard, so synthesis succeeds and the pipeline records a warning.
    let f = hazard_pair();
    let (result, run) = run(&f, &Directives::new(10.0));
    assert!(result.is_ok());
    assert!(!run.diagnostics.has_errors());

    let diag = run.diagnostics.find("merge-hazard").expect("diagnostic");
    assert_eq!(diag.severity, Severity::Warning);
    assert_eq!(diag.pass, "loop-transforms");
    assert!(
        diag.anchors.contains(&Anchor::Loop("read".into())),
        "{diag:?}"
    );
    assert!(
        diag.anchors.contains(&Anchor::Loop("shift".into())),
        "{diag:?}"
    );
    assert!(diag.anchors.contains(&Anchor::Var("x".into())), "{diag:?}");
}

#[test]
fn trace_and_diagnostics_json_bytes_are_pinned() {
    // The documented trace and diagnostics schemas, byte for byte, for
    // the merge-hazard run with its wall times zeroed: once cold with
    // invariants re-checked, once replayed from the same pass cache.
    let config = PipelineConfig {
        cache: Some(Arc::new(PassCache::new(PassCacheConfig::default()))),
        ..PipelineConfig::checked()
    };
    let (f, d, lib) = (
        hazard_pair(),
        Directives::new(10.0),
        TechLibrary::asic_100mhz(),
    );
    let zeroed = |mut run: hls_core::PipelineRun| {
        run.trace.total_ns = 0;
        for p in &mut run.trace.passes {
            p.wall_ns = 0;
        }
        run
    };
    let (result, cold) = synthesize_traced(&f, &d, &lib, &config);
    assert!(result.is_ok());
    let (result, warm) = synthesize_traced(&f, &d, &lib, &config);
    assert!(result.is_ok());
    let (cold, warm) = (zeroed(cold), zeroed(warm));
    assert_eq!(
        cold.trace.to_json(),
        r#"{"design":"h","total_ns":0,"cache":{"hits":0,"misses":5,"inserts":5},"passes":[{"pass":"validate-ir","wall_ns":0,"before":{"ops":6,"loops":2,"segments":0,"cells":0,"fus":0},"after":{"ops":6,"loops":2,"segments":0,"cells":0,"fus":0},"diagnostics":0,"invariants_checked":false,"memo_hit":false},{"pass":"check-directives","wall_ns":0,"before":{"ops":6,"loops":2,"segments":0,"cells":0,"fus":0},"after":{"ops":6,"loops":2,"segments":0,"cells":0,"fus":0},"diagnostics":0,"invariants_checked":false,"memo_hit":false},{"pass":"loop-transforms","wall_ns":0,"before":{"ops":6,"loops":2,"segments":0,"cells":0,"fus":0},"after":{"ops":13,"loops":1,"segments":0,"cells":0,"fus":0},"diagnostics":1,"invariants_checked":true,"memo_hit":false},{"pass":"lower","wall_ns":0,"before":{"ops":13,"loops":1,"segments":0,"cells":0,"fus":0},"after":{"ops":13,"loops":1,"segments":2,"cells":28,"fus":0},"diagnostics":0,"invariants_checked":true,"memo_hit":false},{"pass":"netlist-opt","wall_ns":0,"before":{"ops":13,"loops":1,"segments":2,"cells":28,"fus":0},"after":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":0},"diagnostics":1,"invariants_checked":false,"memo_hit":false},{"pass":"schedule","wall_ns":0,"before":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":0},"after":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":0},"diagnostics":0,"invariants_checked":false,"memo_hit":false},{"pass":"allocate","wall_ns":0,"before":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":0},"after":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":9},"diagnostics":0,"invariants_checked":false,"memo_hit":false},{"pass":"metrics","wall_ns":0,"before":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":9},"after":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":9},"diagnostics":0,"invariants_checked":false,"memo_hit":false}]}"#
    );
    assert_eq!(
        cold.diagnostics.to_json(),
        r#"[{"severity":"warning","code":"merge-hazard","pass":"loop-transforms","message":"merging `read` with `shift` breaks a write-before-read dependence on `x`","anchors":[{"kind":"loop","name":"read"},{"kind":"loop","name":"shift"},{"kind":"var","name":"x"}]},{"severity":"note","code":"netlist-opt","pass":"netlist-opt","message":"28 -> 26 cells, depth 2 -> 2, critical 2.02 -> 2.02 ns (4 passes)"}]"#
    );
    assert_eq!(
        warm.trace.to_json(),
        r#"{"design":"h","total_ns":0,"cache":{"hits":5,"misses":0,"inserts":0},"passes":[{"pass":"validate-ir","wall_ns":0,"before":{"ops":6,"loops":2,"segments":0,"cells":0,"fus":0},"after":{"ops":6,"loops":2,"segments":0,"cells":0,"fus":0},"diagnostics":0,"invariants_checked":false,"memo_hit":false},{"pass":"check-directives","wall_ns":0,"before":{"ops":6,"loops":2,"segments":0,"cells":0,"fus":0},"after":{"ops":6,"loops":2,"segments":0,"cells":0,"fus":0},"diagnostics":0,"invariants_checked":false,"memo_hit":false},{"pass":"loop-transforms","wall_ns":0,"before":{"ops":6,"loops":2,"segments":0,"cells":0,"fus":0},"after":{"ops":13,"loops":1,"segments":0,"cells":0,"fus":0},"diagnostics":2,"invariants_checked":"cached","memo_hit":true},{"pass":"lower","wall_ns":0,"before":{"ops":13,"loops":1,"segments":0,"cells":0,"fus":0},"after":{"ops":13,"loops":1,"segments":2,"cells":28,"fus":0},"diagnostics":1,"invariants_checked":"cached","memo_hit":true},{"pass":"netlist-opt","wall_ns":0,"before":{"ops":13,"loops":1,"segments":2,"cells":28,"fus":0},"after":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":0},"diagnostics":2,"invariants_checked":false,"memo_hit":true},{"pass":"schedule","wall_ns":0,"before":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":0},"after":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":0},"diagnostics":1,"invariants_checked":false,"memo_hit":true},{"pass":"allocate","wall_ns":0,"before":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":0},"after":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":9},"diagnostics":1,"invariants_checked":false,"memo_hit":true},{"pass":"metrics","wall_ns":0,"before":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":9},"after":{"ops":13,"loops":1,"segments":2,"cells":26,"fus":9},"diagnostics":0,"invariants_checked":false,"memo_hit":false}]}"#
    );
    assert_eq!(
        warm.diagnostics.to_json(),
        r#"[{"severity":"note","code":"memo-hit","pass":"loop-transforms","message":"loop transforms reused from pass cache"},{"severity":"warning","code":"merge-hazard","pass":"loop-transforms","message":"merging `read` with `shift` breaks a write-before-read dependence on `x`","anchors":[{"kind":"loop","name":"read"},{"kind":"loop","name":"shift"},{"kind":"var","name":"x"}]},{"severity":"note","code":"memo-hit","pass":"lower","message":"lowering reused from pass cache"},{"severity":"note","code":"memo-hit","pass":"netlist-opt","message":"optimized netlist reused from pass cache"},{"severity":"note","code":"netlist-opt","pass":"netlist-opt","message":"28 -> 26 cells, depth 2 -> 2, critical 2.02 -> 2.02 ns (4 passes)"},{"severity":"note","code":"memo-hit","pass":"schedule","message":"schedules reused from pass cache"},{"severity":"note","code":"memo-hit","pass":"allocate","message":"allocation reused from pass cache"}]"#
    );

    // Every optional part of a diagnostic, and string escaping.
    let mut all = Diagnostics::new();
    all.push(
        Diagnostic::error("unknown-loop", "no loop \"q\"\tin\\ h\u{1}")
            .in_pass("check-directives")
            .with_anchor(Anchor::Loop("q".into()))
            .with_anchor(Anchor::Var("x".into()))
            .with_anchor(Anchor::Op("mul/16".into()))
            .with_note("first\nsecond"),
    );
    all.push(Diagnostic::note("plain", "unstamped"));
    assert_eq!(
        all.to_json(),
        r#"[{"severity":"error","code":"unknown-loop","pass":"check-directives","message":"no loop \"q\"\tin\\ h\u0001","anchors":[{"kind":"loop","name":"q"},{"kind":"var","name":"x"},{"kind":"op","name":"mul/16"}],"notes":["first\nsecond"]},{"severity":"note","code":"plain","message":"unstamped"}]"#
    );
}

// ---------------------------------------------------------------------------
// merge_hazards on nested and unsafe loop pairs
// ---------------------------------------------------------------------------

/// A read loop followed by the coefficient-shift loop (Figure 4's update
/// pattern): merging makes the shift clobber elements before they are read.
fn hazard_pair() -> Function {
    let mut b = FunctionBuilder::new("h");
    let x = b.param_array("x", Ty::int(8), 8);
    let acc = b.param_scalar("acc", Ty::int(16));
    b.for_loop("read", 0, CmpOp::Lt, 8, 1, |b, k| {
        b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
    });
    b.for_loop("shift", 6, CmpOp::Ge, 0, -1, |b, k| {
        b.store(
            x,
            Expr::add(Expr::var(k), Expr::int_const(1)),
            Expr::load(x, Expr::var(k)),
        );
    });
    b.build()
}

#[test]
fn merge_hazards_reports_write_before_read() {
    let f = hazard_pair();
    let read = f.find_loop("read").unwrap().clone();
    let shift = f.find_loop("shift").unwrap().clone();
    let hz = merge_hazards(&read, &shift, &f.vars);
    assert!(
        hz.iter()
            .any(|h| h.var == "x" && h.kind == HazardKind::WriteBeforeRead),
        "{hz:?}"
    );
    // The report names both loops in merge order.
    let h = &hz[0];
    assert_eq!((h.first.as_str(), h.second.as_str()), ("read", "shift"));
    assert!(h.to_string().contains("dependence on `x`"), "{h}");
}

#[test]
fn nested_consumer_reading_ahead_is_hazardous() {
    // A producer filling x[k] at slot k, merged with a consumer whose
    // *nested* window loop reads x[k+j] (j up to 2) at outer slot k: the
    // read of x[k+2] happens two slots before the producer writes it. The
    // analysis must see through the inner loop.
    let mut b = FunctionBuilder::new("n");
    let x = b.param_array("x", Ty::int(8), 8);
    let a = b.param_array("a", Ty::int(8), 8);
    let acc = b.param_scalar("acc", Ty::int(16));
    b.for_loop("produce", 0, CmpOp::Lt, 6, 1, |b, k| {
        b.store(x, Expr::var(k), Expr::load(a, Expr::var(k)));
    });
    b.for_loop("consume", 0, CmpOp::Lt, 4, 1, |b, k| {
        b.for_loop("win", 0, CmpOp::Lt, 3, 1, |b, j| {
            b.assign(
                acc,
                Expr::add(
                    Expr::var(acc),
                    Expr::load(x, Expr::add(Expr::var(k), Expr::var(j))),
                ),
            );
        });
    });
    let f = b.build();

    let produce = f.find_loop("produce").unwrap().clone();
    let consume = f.find_loop("consume").unwrap().clone();
    let hz = merge_hazards(&produce, &consume, &f.vars);
    assert!(
        hz.iter()
            .any(|h| h.var == "x" && h.kind == HazardKind::ReadBeforeWrite),
        "{hz:?}"
    );
}

#[test]
fn nested_consumer_aligned_with_producer_is_safe() {
    // Same shape, but the inner loop only ever touches x[k] — written in
    // the same merged slot by the producer, whose body runs first. No
    // hazard may be reported (a false positive here would block the
    // paper's profitable merges).
    let mut b = FunctionBuilder::new("s");
    let x = b.param_array("x", Ty::int(8), 8);
    let a = b.param_array("a", Ty::int(8), 8);
    let acc = b.param_scalar("acc", Ty::int(16));
    b.for_loop("produce", 0, CmpOp::Lt, 6, 1, |b, k| {
        b.store(x, Expr::var(k), Expr::load(a, Expr::var(k)));
    });
    b.for_loop("consume", 0, CmpOp::Lt, 6, 1, |b, k| {
        b.for_loop("rep", 0, CmpOp::Lt, 3, 1, |b, _j| {
            b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
        });
    });
    let f = b.build();

    let produce = f.find_loop("produce").unwrap().clone();
    let consume = f.find_loop("consume").unwrap().clone();
    assert_eq!(merge_hazards(&produce, &consume, &f.vars), vec![]);
}

#[test]
fn opposing_write_orders_collide() {
    // Two loops writing the same array in opposite directions: merged,
    // the second loop's early slots overwrite elements the first loop
    // only reaches later — the final contents flip.
    let mut b = FunctionBuilder::new("w");
    let o = b.param_array("o", Ty::int(8), 8);
    b.for_loop("up", 0, CmpOp::Lt, 8, 1, |b, k| {
        b.store(o, Expr::var(k), Expr::int_const(1));
    });
    b.for_loop("down", 0, CmpOp::Lt, 8, 1, |b, k| {
        b.store(
            o,
            Expr::sub(Expr::int_const(7), Expr::var(k)),
            Expr::int_const(2),
        );
    });
    let f = b.build();

    let up = f.find_loop("up").unwrap().clone();
    let down = f.find_loop("down").unwrap().clone();
    let hz = merge_hazards(&up, &down, &f.vars);
    assert!(
        hz.iter()
            .any(|h| h.var == "o" && h.kind == HazardKind::WriteOrder),
        "{hz:?}"
    );
}
