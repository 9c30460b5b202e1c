//! Round-trip properties of every two-way JSON type in `hls-core`: for
//! sampled values, decoding the encoded text gives the value back, and
//! re-encoding the decoded value gives the same bytes.

use std::collections::BTreeMap;
use std::fmt::Debug;

use hls_core::store::{CachedArtifact, NegativeEntry, Verdict};
use hls_core::{
    Allocation, ArrayMapping, DesignMetrics, Directives, FuGroup, InterfaceKind, LoopDirective,
    MergePolicy, NetlistOptConfig, OpClass, OptLevel, SegmentCycles, StreamInterface, TechLibrary,
    Unroll,
};
use hls_ir::json::{Decode, Encode};
use hls_ir::Json;
use proptest::prelude::*;
use proptest::prop::collection::vec;
use proptest::prop::option;
use proptest::prop::sample::select;

/// Encodes `x` to text, decodes it back and re-encodes the result.
fn assert_round_trips<T: Encode + Decode + PartialEq + Debug>(x: &T) {
    let text = x.encode().write();
    let back = T::decode(&Json::parse(&text).expect("the writer emits valid JSON"))
        .unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(&back, x, "{text}");
    assert_eq!(back.encode().write(), text);
}

/// Strings with every character the writer escapes, and some it does not.
fn text() -> BoxedStrategy<String> {
    "[a-z_ \"\\\\\n\t\r\0é😀]{0,12}".boxed()
}

fn name() -> BoxedStrategy<String> {
    "[a-z_]{1,8}".boxed()
}

/// Finite floats: large, tiny, integral and ones without a short decimal.
fn float() -> BoxedStrategy<f64> {
    prop_oneof![
        -1e6..1e6f64,
        (0u32..100_000).prop_map(f64::from),
        select(vec![0.1 + 0.2, 1e-300, 1.5e300, 2f64.powi(60), 1e15, 12.5]),
    ]
}

/// Counts the codec carries exactly: below 2^53.
fn count() -> BoxedStrategy<u64> {
    (0u64..1 << 53).boxed()
}

fn json() -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        select(vec![Json::Null]),
        any::<bool>().prop_map(Json::Bool),
        float().prop_map(Json::Num),
        text().prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..4).prop_map(Json::Arr),
            vec((name(), inner), 0..4).prop_map(Json::Obj),
        ]
    })
}

fn segment() -> BoxedStrategy<SegmentCycles> {
    (
        text(),
        0usize..1 << 20,
        any::<u32>(),
        option::of(any::<u32>()),
        count(),
    )
        .prop_map(|(name, trip, depth, ii, cycles)| SegmentCycles {
            name,
            trip,
            depth,
            ii,
            cycles,
        })
}

fn fu_group() -> BoxedStrategy<FuGroup> {
    (
        select(OpClass::ALL.to_vec()),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        float(),
        float(),
    )
        .prop_map(
            |(class, count, width, bound_ops, fu_area, mux_area)| FuGroup {
                class,
                count,
                width,
                bound_ops,
                fu_area,
                mux_area,
            },
        )
}

fn allocation() -> BoxedStrategy<Allocation> {
    (
        vec(fu_group(), 0..4),
        (count(), count(), 0usize..1 << 20),
        (float(), float(), float(), float(), float()),
    )
        .prop_map(
            |(fu_groups, (state_bits, temp_bits, fsm_states), areas)| Allocation {
                fu_groups,
                state_bits,
                temp_bits,
                fsm_states,
                fu_area: areas.0,
                mux_area: areas.1,
                reg_area: areas.2,
                ctrl_area: areas.3,
                total_area: areas.4,
            },
        )
}

fn metrics() -> BoxedStrategy<DesignMetrics> {
    (
        count(),
        (float(), float(), float()),
        vec(segment(), 0..4),
        float(),
        allocation(),
    )
        .prop_map(
            |(latency_cycles, (latency_ns, clock_ns, critical_path_ns), segments, area, a)| {
                DesignMetrics {
                    latency_cycles,
                    latency_ns,
                    clock_ns,
                    critical_path_ns,
                    segments,
                    area,
                    allocation: a,
                }
            },
        )
}

fn verdict() -> BoxedStrategy<Verdict> {
    (any::<bool>(), text()).prop_map(|(passed, detail)| Verdict { passed, detail })
}

fn unroll() -> BoxedStrategy<Unroll> {
    prop_oneof![
        select(vec![Unroll::None, Unroll::Full]),
        any::<u32>().prop_map(Unroll::Factor),
    ]
}

fn loop_directive() -> BoxedStrategy<LoopDirective> {
    (unroll(), option::of(any::<u32>()), any::<bool>()).prop_map(
        |(unroll, pipeline_ii, no_merge)| LoopDirective {
            unroll,
            pipeline_ii,
            no_merge,
        },
    )
}

fn array_mapping() -> BoxedStrategy<ArrayMapping> {
    prop_oneof![
        select(vec![ArrayMapping::Registers]),
        (any::<u32>(), any::<u32>()).prop_map(|(read_ports, write_ports)| {
            ArrayMapping::Memory {
                read_ports,
                write_ports,
            }
        }),
    ]
}

fn netlist_opt() -> BoxedStrategy<NetlistOptConfig> {
    select(vec![OptLevel::Off, OptLevel::Basic, OptLevel::Full])
        .prop_map(|level| NetlistOptConfig { level })
}

fn directives() -> BoxedStrategy<Directives> {
    let interface = select(vec![
        InterfaceKind::Wire,
        InterfaceKind::RegisterHandshake,
        InterfaceKind::Memory,
        InterfaceKind::Stream,
    ]);
    let policy = select(vec![
        MergePolicy::AllowHazards,
        MergePolicy::ExactOnly,
        MergePolicy::Off,
    ]);
    let fu_limit =
        (select(OpClass::ALL.to_vec()), any::<u32>()).prop_map(|(c, n)| (c.to_string(), n));
    let stream =
        (1u32..=u32::MAX, any::<bool>()).prop_map(|(fifo_depth, fall_through)| StreamInterface {
            fifo_depth,
            fall_through,
        });
    (
        (float(), policy),
        vec((name(), loop_directive()), 0..4),
        vec((name(), array_mapping()), 0..3),
        vec((name(), interface), 0..3),
        vec(fu_limit, 0..3),
        (netlist_opt(), option::of(stream)),
    )
        .prop_map(
            |((clock, policy), loops, arrays, interfaces, fu_limits, (netlist_opt, stream))| {
                Directives {
                    clock_period_ns: clock,
                    merge_policy: policy,
                    loops: loops.into_iter().collect(),
                    arrays: arrays.into_iter().collect(),
                    interfaces: interfaces.into_iter().collect(),
                    fu_limits: fu_limits.into_iter().collect::<BTreeMap<_, _>>(),
                    netlist_opt,
                    stream,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn segment_cycles_round_trip(x in segment()) {
        assert_round_trips(&x);
    }

    #[test]
    fn fu_group_round_trips(x in fu_group()) {
        assert_round_trips(&x);
    }

    #[test]
    fn allocation_round_trips(x in allocation()) {
        assert_round_trips(&x);
    }

    #[test]
    fn design_metrics_round_trip(x in metrics()) {
        assert_round_trips(&x);
        prop_assert_eq!(DesignMetrics::from_json(&x.to_json()), Ok(x));
    }

    #[test]
    fn netlist_opt_config_round_trips(x in netlist_opt()) {
        assert_round_trips(&x);
    }

    #[test]
    fn directives_round_trip(x in directives()) {
        assert_round_trips(&x);
        prop_assert_eq!(Directives::from_json(&x.to_json()), Ok(x));
    }

    #[test]
    fn negative_entry_round_trips(
        design in text(),
        code in name(),
        error in text(),
        diagnostics in json(),
    ) {
        assert_round_trips(&NegativeEntry { design, code, error, diagnostics });
    }

    #[test]
    fn verdict_round_trips(x in verdict()) {
        assert_round_trips(&x);
    }

    #[test]
    fn cached_artifact_round_trips(
        design in text(),
        verilog in text(),
        metrics in metrics(),
        trace in json(),
        verdict in option::of(verdict()),
        diagnostics in json(),
    ) {
        assert_round_trips(&CachedArtifact { design, verilog, metrics, trace, verdict, diagnostics });
    }

    #[test]
    fn tech_library_round_trips(x in select(vec!["asic_100mhz", "fpga_slow"])) {
        assert_round_trips(&TechLibrary::by_name(x).unwrap());
    }
}
