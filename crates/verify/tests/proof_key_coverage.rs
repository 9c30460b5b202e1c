//! Proof-cache keys cover the whole design: `obligation_key` and
//! `fsmd_key` render the `Lowered` through its derived `Debug`, so every
//! field is in the key. Each single-field perturbation of a compiled
//! Table-1 design must re-key, and two independent compiles of one
//! design must agree.

use fixpt::{Fixed, Format};
use hls_core::dfg::{Dfg, Node, NodeKind};
use hls_core::{synthesize, Lowered, NetlistObligation, Segment};
use hls_verify::{fsmd_key, obligation_key, ProveOptions, DEFAULT_OPTIONS_TAG};
use qam_decoder::{build_qam_decoder_ir, table1_architectures, table1_library, DecoderParams};
use rtl::Fsmd;

fn compile(arch: &str) -> Fsmd {
    let ir = build_qam_decoder_ir(&DecoderParams::default());
    let arch = table1_architectures()
        .into_iter()
        .find(|a| a.name == arch)
        .expect("known architecture");
    let r = synthesize(&ir.func, &arch.directives, &table1_library()).expect("synthesizes");
    Fsmd::from_synthesis(&r)
}

fn dfg_mut(seg: &mut Segment) -> &mut Dfg {
    match seg {
        Segment::Straight { dfg } | Segment::Loop { dfg, .. } => dfg,
    }
}

/// Rebuilds the first graph holding a node that `edit` changes, with
/// that one node replaced. Returns `false` when no node qualifies.
fn edit_first_node(l: &mut Lowered, edit: impl Fn(&Node) -> Option<Node>) -> bool {
    for seg in &mut l.segments {
        let dfg = dfg_mut(seg);
        let Some(target) = dfg.nodes().iter().position(|n| edit(n).is_some()) else {
            continue;
        };
        let mut out = Dfg::default();
        for (i, node) in dfg.nodes().iter().enumerate() {
            let node = if i == target {
                edit(node).unwrap()
            } else {
                node.clone()
            };
            out.push(node.kind, node.preds, node.format);
        }
        out.live_in = dfg.live_in.clone();
        out.live_out = dfg.live_out.clone();
        *dfg = out;
        return true;
    }
    false
}

type Perturbation = (&'static str, fn(&mut Lowered) -> bool);

/// One single-field edit per kind of data a `Lowered` holds.
const PERTURBATIONS: [Perturbation; 6] = [
    ("constant value", |l| {
        edit_first_node(l, |n| match &n.kind {
            NodeKind::Const(c) => Some(Node {
                kind: NodeKind::Const(Fixed::from_raw_wrapped(c.raw() ^ 1, c.format())),
                ..n.clone()
            }),
            _ => None,
        })
    }),
    ("node format", |l| {
        edit_first_node(l, |n| {
            Some(Node {
                format: Format::signed(n.format.width() + 1, n.format.int_bits()),
                ..n.clone()
            })
        })
    }),
    ("live_out entry", |l| {
        let vars: Vec<_> = l
            .segments
            .iter()
            .flat_map(|s| s.dfg().live_in.iter().chain(&s.dfg().live_out))
            .copied()
            .collect();
        for seg in &mut l.segments {
            let dfg = dfg_mut(seg);
            if let Some(first) = dfg.live_out.first_mut() {
                if let Some(other) = vars.iter().find(|v| *v != first) {
                    *first = *other;
                    return true;
                }
            }
        }
        false
    }),
    ("pipeline_ii", |l| {
        l.segments.iter_mut().any(|seg| match seg {
            Segment::Loop { pipeline_ii, .. } => {
                *pipeline_ii = Some(pipeline_ii.map_or(1, |ii| ii + 1));
                true
            }
            Segment::Straight { .. } => false,
        })
    }),
    ("port width", |l| match l.ports.first_mut() {
        Some(port) => {
            port.width += 1;
            true
        }
        None => false,
    }),
    ("handshake", |l| {
        l.handshake = !l.handshake;
        true
    }),
];

fn obligation(before: &Lowered, after: &Lowered) -> NetlistObligation {
    NetlistObligation {
        pass: "const-fold",
        before: before.clone(),
        after: after.clone(),
    }
}

#[test]
fn every_single_field_perturbation_rekeys() {
    let fsmd = compile("merged");
    let opts = ProveOptions::default();
    let base = &fsmd.lowered;
    let ob_key = obligation_key(&obligation(base, base), &opts);
    let fsmd_base = fsmd_key(&fsmd, DEFAULT_OPTIONS_TAG);
    for (what, perturb) in PERTURBATIONS {
        let mut changed = base.clone();
        assert!(perturb(&mut changed), "{what}: no field to perturb");
        assert_ne!(&changed, base, "{what}: perturbation changed nothing");
        assert_ne!(
            obligation_key(&obligation(&changed, base), &opts),
            ob_key,
            "{what}: obligation key ignores the `before` design"
        );
        assert_ne!(
            obligation_key(&obligation(base, &changed), &opts),
            ob_key,
            "{what}: obligation key ignores the `after` design"
        );
        let mut twin = fsmd.clone();
        twin.lowered = changed;
        assert_ne!(
            fsmd_key(&twin, DEFAULT_OPTIONS_TAG),
            fsmd_base,
            "{what}: FSMD key ignores the lowered design"
        );
    }
}

#[test]
fn independent_compiles_share_keys() {
    let opts = ProveOptions::default();
    for arch in table1_architectures() {
        let (a, b) = (compile(arch.name), compile(arch.name));
        assert_eq!(
            fsmd_key(&a, DEFAULT_OPTIONS_TAG),
            fsmd_key(&b, DEFAULT_OPTIONS_TAG),
            "{}",
            arch.name
        );
        assert_eq!(
            obligation_key(&obligation(&a.lowered, &a.lowered), &opts),
            obligation_key(&obligation(&b.lowered, &b.lowered), &opts),
            "{}",
            arch.name
        );
    }
}
