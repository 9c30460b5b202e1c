//! Allocation and binding: functional units, registers, muxes.
//!
//! FSM states are mutually exclusive, so functional units are shared across
//! every cycle of every segment: the number of FUs of a class is the peak
//! per-cycle demand, and each shared FU pays mux area proportional to the
//! number of operations bound to it. Register demand combines the design's
//! architectural state (static arrays, staged outputs, counters) with the
//! peak number of values alive across a cycle boundary (left-edge style).

use std::collections::BTreeMap;

use hls_ir::{Function, VarKind};

use crate::dfg::{Dfg, NodeKind};
use crate::directives::{ArrayMapping, Directives};
use crate::lower::{Lowered, Segment};
use crate::schedule::Schedule;
use crate::tech::{OpClass, TechLibrary};

/// One allocated functional-unit group.
#[derive(Debug, Clone, PartialEq)]
pub struct FuGroup {
    /// Operator class.
    pub class: OpClass,
    /// Instances allocated (peak per-cycle demand).
    pub count: u32,
    /// Width of the widest operation bound to the group.
    pub width: u32,
    /// Total operations bound across all states.
    pub bound_ops: u32,
    /// Area of the group's FU instances.
    pub fu_area: f64,
    /// Mux area paid for sharing.
    pub mux_area: f64,
}

/// The allocation result and area breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Functional-unit groups (only classes that consume logic).
    pub fu_groups: Vec<FuGroup>,
    /// Architectural register bits (statics, params, counters, staging).
    pub state_bits: u64,
    /// Peak intermediate register bits (values crossing cycle boundaries).
    pub temp_bits: u64,
    /// FSM state count.
    pub fsm_states: usize,
    /// Area of functional units.
    pub fu_area: f64,
    /// Area of sharing muxes.
    pub mux_area: f64,
    /// Area of registers.
    pub reg_area: f64,
    /// Area of the controller.
    pub ctrl_area: f64,
    /// Total area (abstract units).
    pub total_area: f64,
}

impl Allocation {
    /// Instances allocated for a class (0 when unused).
    pub fn fu_count(&self, class: OpClass) -> u32 {
        self.fu_groups
            .iter()
            .find(|g| g.class == class)
            .map(|g| g.count)
            .unwrap_or(0)
    }
}

hls_ir::json_struct! {
    pub Allocation as "allocation" {
        fu_groups, state_bits, temp_bits, fsm_states, fu_area, mux_area, reg_area, ctrl_area,
        total_area,
    }
}

hls_ir::json_struct! {
    pub FuGroup as "fu_group" { class, count, width, bound_ops, fu_area, mux_area }
}

/// Performs allocation over all scheduled segments.
pub fn allocate(
    func: &Function,
    lowered: &Lowered,
    schedules: &[Schedule],
    directives: &Directives,
    lib: &TechLibrary,
) -> Allocation {
    assert_eq!(
        lowered.segments.len(),
        schedules.len(),
        "one schedule per segment"
    );

    // Peak per-cycle demand and totals per (class).
    let mut peak: BTreeMap<OpClass, u32> = BTreeMap::new();
    let mut widths: BTreeMap<OpClass, u32> = BTreeMap::new();
    let mut totals: BTreeMap<OpClass, u32> = BTreeMap::new();
    let mut fsm_states = 0usize;
    let mut temp_bits_peak = 0u64;

    for (seg, sched) in lowered.segments.iter().zip(schedules) {
        let dfg = seg.dfg();
        fsm_states += sched.depth.max(1) as usize;
        // One pass over the nodes accumulates per-(cycle, class) counts;
        // max/sum reductions are order-independent, so this matches the
        // historical per-cycle rescan exactly.
        let mut used: BTreeMap<(u32, OpClass), u32> = BTreeMap::new();
        for i in 0..sched.node_cycle.len() {
            let class = sched.node_class[i];
            if !counts_as_datapath(class) {
                continue;
            }
            *used.entry((sched.node_cycle[i], class)).or_insert(0) += 1;
            let w = sched.node_width[i];
            let e = widths.entry(class).or_insert(0);
            *e = (*e).max(w);
            *totals.entry(class).or_insert(0) += 1;
        }
        for ((_, class), n) in used {
            let e = peak.entry(class).or_insert(0);
            *e = (*e).max(n);
        }
        // Values alive across cycle boundaries inside the segment.
        temp_bits_peak = temp_bits_peak.max(live_bits(dfg, sched));
    }

    // Loop counters also need an adder and comparator; account one per loop
    // segment (they run concurrently with body datapath logic).
    let loop_count = lowered
        .segments
        .iter()
        .filter(|s| matches!(s, Segment::Loop { .. }))
        .count() as u32;
    if loop_count > 0 {
        let e = peak.entry(OpClass::Add).or_insert(0);
        *e += 1; // one shared counter incrementer alongside the peak demand
        let w = widths.entry(OpClass::Add).or_insert(0);
        *w = (*w).max(8);
        let c = peak.entry(OpClass::Cmp).or_insert(0);
        *c = (*c).max(1);
        widths.entry(OpClass::Cmp).or_insert(8);
    }

    let mut fu_groups = Vec::new();
    let mut fu_area = 0.0;
    let mut mux_area = 0.0;
    for (class, count) in &peak {
        let width = widths.get(class).copied().unwrap_or(1);
        let bound = totals.get(class).copied().unwrap_or(0);
        let a = lib.area(*class, width) * *count as f64;
        // Sharing muxes: each instance serving k ops needs a k-way mux on
        // each of two operand inputs.
        let per_fu = if *count > 0 {
            bound.div_ceil(*count)
        } else {
            0
        };
        let m = lib.mux_tree_area(per_fu as usize, width) * 2.0 * *count as f64;
        fu_area += a;
        mux_area += m;
        fu_groups.push(FuGroup {
            class: *class,
            count: *count,
            width,
            bound_ops: bound,
            fu_area: a,
            mux_area: m,
        });
    }

    // Architectural state: statics, parameters (registered interfaces),
    // counters and staged locals that live across segments.
    let mut state_bits = 0u64;
    for (_, v) in func.iter_vars() {
        let bits = v.ty.width() as u64 * v.len.unwrap_or(1) as u64;
        let is_mem = matches!(
            directives.array_mapping(&v.name),
            ArrayMapping::Memory { .. }
        );
        match v.kind {
            VarKind::Static | VarKind::Param => {
                if !is_mem {
                    state_bits += bits;
                }
            }
            VarKind::Counter => state_bits += 8, // narrowed counter register
            VarKind::Local => {
                // Locals that cross segment boundaries (live-in of any
                // segment) are architectural registers too.
                let crosses = lowered.segments.iter().any(|s| {
                    s.dfg()
                        .live_in
                        .iter()
                        .any(|id| func.var(*id).name == v.name)
                });
                if crosses {
                    state_bits += bits;
                }
            }
        }
    }

    let reg_area = lib.register_area(state_bits + temp_bits_peak);
    let ctrl_area = lib.controller_area(fsm_states);
    let total_area = fu_area + mux_area + reg_area + ctrl_area;

    Allocation {
        fu_groups,
        state_bits,
        temp_bits: temp_bits_peak,
        fsm_states,
        fu_area,
        mux_area,
        reg_area,
        ctrl_area,
        total_area,
    }
}

/// Classes that consume datapath logic worth allocating. Shared with the
/// explorer's lower bound (`crate::bound`), which must price exactly the
/// classes the allocator does.
pub(crate) fn counts_as_datapath(class: OpClass) -> bool {
    matches!(
        class,
        OpClass::Add
            | OpClass::Mul
            | OpClass::Cmp
            | OpClass::Mux
            | OpClass::Neg
            | OpClass::Sign
            | OpClass::Cast
    )
}

/// Peak bits of values produced in one cycle and consumed in a later one
/// (they need a pipeline/temporary register).
fn live_bits(dfg: &Dfg, sched: &Schedule) -> u64 {
    if sched.depth <= 1 {
        return 0;
    }
    // One edge sweep computes every producer's last-use cycle; each value
    // live across boundaries [def, last_use) contributes its width to that
    // range of a difference array, whose prefix-sum maximum is the peak.
    let n = dfg.len();
    let mut last_use: Vec<u32> = (0..n).map(|i| sched.node_cycle[i]).collect();
    for (id, m) in dfg.iter() {
        let uc = sched.node_cycle[id.index()];
        for p in &m.preds {
            let e = &mut last_use[p.index()];
            *e = (*e).max(uc);
        }
    }
    let boundaries = sched.depth as usize - 1;
    let mut diff = vec![0i64; boundaries + 1];
    for (id, nd) in dfg.iter() {
        if matches!(
            nd.kind,
            NodeKind::VarWrite(_)
                | NodeKind::Store(_)
                | NodeKind::StoreCond(_)
                | NodeKind::Const(_)
        ) {
            continue; // committed to architectural state or wired
        }
        let def = sched.node_cycle[id.index()] as usize;
        let lu = last_use[id.index()] as usize;
        if lu > def && def < boundaries {
            diff[def] += nd.format.width() as i64;
            diff[lu.min(boundaries)] -= nd.format.width() as i64;
        }
    }
    let mut peak = 0i64;
    let mut bits = 0i64;
    for d in diff.iter().take(boundaries) {
        bits += d;
        peak = peak.max(bits);
    }
    peak as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::schedule::schedule_dfg;
    use crate::transform::apply_loop_transforms;
    use hls_ir::{CmpOp, Expr, FunctionBuilder, Ty};

    fn synth_alloc(func: &Function, d: &Directives) -> Allocation {
        let t = apply_loop_transforms(func, d);
        let lowered = lower(&t.func, d);
        let lib = TechLibrary::asic_100mhz();
        let is_mem = |_: hls_ir::VarId| -> Option<(u32, u32)> { None };
        let schedules: Vec<Schedule> = lowered
            .segments
            .iter()
            .map(|s| schedule_dfg(s.dfg(), d, &lib, &is_mem).expect("schedules"))
            .collect();
        allocate(&lowered.func, &lowered, &schedules, d, &lib)
    }

    fn mac_loop(unrolled: u32) -> (Function, Directives) {
        let mut b = FunctionBuilder::new("fir");
        let x = b.param_array("x", Ty::fixed(10, 0), 16);
        let c = b.param_array("c", Ty::fixed(10, 0), 16);
        let out = b.param_scalar("out", Ty::fixed(24, 4));
        let acc = b.local("acc", Ty::fixed(24, 4));
        b.assign(acc, Expr::int_const(0));
        b.for_loop("mac", 0, CmpOp::Lt, 16, 1, |b, k| {
            b.assign(
                acc,
                Expr::add(
                    Expr::var(acc),
                    Expr::mul(Expr::load(x, Expr::var(k)), Expr::load(c, Expr::var(k))),
                ),
            );
        });
        b.assign(out, Expr::var(acc));
        let mut d = Directives::new(10.0);
        if unrolled > 1 {
            d = d.unroll("mac", crate::directives::Unroll::Factor(unrolled));
        }
        (b.build(), d)
    }

    #[test]
    fn unrolling_increases_multipliers_and_area() {
        let (f, d1) = mac_loop(1);
        let a1 = synth_alloc(&f, &d1);
        let (_, d4) = mac_loop(4);
        let a4 = synth_alloc(&f, &d4);
        assert_eq!(a1.fu_count(OpClass::Mul), 1);
        // Unrolling by 4 exposes 4 multiplies; chained accumulation may
        // split the body into 2 cycles, so the peak is at least 2.
        assert!(
            a4.fu_count(OpClass::Mul) >= 2,
            "{}",
            a4.fu_count(OpClass::Mul)
        );
        assert!(a4.fu_count(OpClass::Mul) > a1.fu_count(OpClass::Mul));
        assert!(a4.total_area > a1.total_area);
    }

    #[test]
    fn state_bits_cover_params_and_locals() {
        let (f, d) = mac_loop(1);
        let a = synth_alloc(&f, &d);
        // x and c arrays: 16 * 10 bits each; out 24; acc crosses segments.
        assert!(a.state_bits >= (160 + 160 + 24) as u64, "{}", a.state_bits);
    }

    #[test]
    fn fsm_states_match_segment_depths() {
        let (f, d) = mac_loop(1);
        let a = synth_alloc(&f, &d);
        // init straight (1) + loop body (1) + tail (1) + output commit is in
        // the tail or its own; allow a small range but require >= 3.
        assert!(a.fsm_states >= 3, "{}", a.fsm_states);
    }

    #[test]
    fn sharing_cost_appears_in_mux_area() {
        let (f, d1) = mac_loop(1);
        let a1 = synth_alloc(&f, &d1);
        // One multiplier bound to 16 ops (well, 1 op in body but reused per
        // iteration: binding is per schedule, so body has 1) — mux area may
        // be zero here; with unroll 4, 4 muls each bound once -> still zero.
        // The accumulators' adds share an adder with counter logic; just
        // assert the field is finite and non-negative.
        assert!(a1.mux_area >= 0.0);
    }
}
