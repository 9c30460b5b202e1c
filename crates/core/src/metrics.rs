//! Design metrics: latency, throughput and area.

use std::fmt;

use crate::allocate::Allocation;
use crate::lower::Segment;
use crate::schedule::Schedule;

/// Cycle accounting for one segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentCycles {
    /// Segment name (loop label or `<straight>`).
    pub name: String,
    /// Trip count (1 for straight-line segments).
    pub trip: usize,
    /// Body depth in cycles.
    pub depth: u32,
    /// Initiation interval when pipelined.
    pub ii: Option<u32>,
    /// Total cycles the segment contributes to the latency.
    pub cycles: u64,
}

/// Computes the cycle count of one scheduled segment.
pub fn segment_cycles(segment: &Segment, schedule: &Schedule) -> SegmentCycles {
    match segment {
        Segment::Straight { .. } => SegmentCycles {
            name: segment.name(),
            trip: 1,
            depth: schedule.depth,
            ii: None,
            cycles: schedule.depth as u64,
        },
        Segment::Loop {
            label,
            trip,
            pipeline_ii,
            ..
        } => {
            let depth = schedule.depth.max(1);
            let cycles = match pipeline_ii {
                Some(ii) if *trip > 0 => depth as u64 + (*trip as u64 - 1) * *ii as u64,
                _ => *trip as u64 * depth as u64,
            };
            SegmentCycles {
                name: label.clone(),
                trip: *trip,
                depth,
                ii: *pipeline_ii,
                cycles,
            }
        }
    }
}

/// Headline metrics of a synthesized design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignMetrics {
    /// Cycles from start to done for one invocation.
    pub latency_cycles: u64,
    /// Latency in nanoseconds at the directive clock.
    pub latency_ns: f64,
    /// The clock period used.
    pub clock_ns: f64,
    /// Worst combinational path across all states (ns).
    pub critical_path_ns: f64,
    /// Per-segment accounting.
    pub segments: Vec<SegmentCycles>,
    /// Total area (abstract units).
    pub area: f64,
    /// The allocation behind the area number.
    pub allocation: Allocation,
}

impl DesignMetrics {
    /// Throughput in symbols (invocations) per second.
    pub fn calls_per_second(&self) -> f64 {
        1e9 / self.latency_ns
    }

    /// Data rate in Mbps given the bits produced per invocation (6 for the
    /// paper's 64-QAM decoder).
    pub fn data_rate_mbps(&self, bits_per_call: u32) -> f64 {
        bits_per_call as f64 * self.calls_per_second() / 1e6
    }
}

hls_ir::json_struct! {
    pub DesignMetrics as "metrics" {
        latency_cycles, latency_ns, clock_ns, critical_path_ns, segments, area, allocation,
    }
}

hls_ir::json_struct! {
    pub SegmentCycles as "segment" { name, trip, depth, ii, cycles }
}

impl fmt::Display for DesignMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "latency: {} cycles = {:.0} ns @ {:.1} ns clock (critical path {:.2} ns)",
            self.latency_cycles, self.latency_ns, self.clock_ns, self.critical_path_ns
        )?;
        for s in &self.segments {
            match s.ii {
                Some(ii) => writeln!(
                    f,
                    "  {:<12} trip {:>3} x depth {} (II={ii}) -> {} cycles",
                    s.name, s.trip, s.depth, s.cycles
                )?,
                None => writeln!(
                    f,
                    "  {:<12} trip {:>3} x depth {} -> {} cycles",
                    s.name, s.trip, s.depth, s.cycles
                )?,
            }
        }
        writeln!(
            f,
            "area: {:.0} (fu {:.0} + mux {:.0} + reg {:.0} + ctrl {:.0})",
            self.area,
            self.allocation.fu_area,
            self.allocation.mux_area,
            self.allocation.reg_area,
            self.allocation.ctrl_area
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_schedule(depth: u32) -> Schedule {
        Schedule {
            node_cycle: vec![],
            node_start_ns: vec![],
            node_end_ns: vec![],
            depth,
            node_class: vec![],
            node_width: vec![],
        }
    }

    #[test]
    fn loop_cycles_multiply_trip_by_depth() {
        let seg = Segment::Loop {
            label: "l".into(),
            trip: 16,
            counter: hls_ir::VarId::from_raw(0),
            start: 0,
            cmp: hls_ir::CmpOp::Lt,
            bound: 16,
            step: 1,
            pipeline_ii: None,
            dfg: Default::default(),
        };
        let sc = segment_cycles(&seg, &dummy_schedule(1));
        assert_eq!(sc.cycles, 16);
        let sc2 = segment_cycles(&seg, &dummy_schedule(2));
        assert_eq!(sc2.cycles, 32);
    }

    #[test]
    fn pipelined_loop_uses_ii_formula() {
        let seg = Segment::Loop {
            label: "p".into(),
            trip: 16,
            counter: hls_ir::VarId::from_raw(0),
            start: 0,
            cmp: hls_ir::CmpOp::Lt,
            bound: 16,
            step: 1,
            pipeline_ii: Some(1),
            dfg: Default::default(),
        };
        // depth 3, II 1: 3 + 15 = 18 rather than 48.
        let sc = segment_cycles(&seg, &dummy_schedule(3));
        assert_eq!(sc.cycles, 18);
        // depth 1, II 1: same as unpipelined (the paper's observation).
        let sc2 = segment_cycles(&seg, &dummy_schedule(1));
        assert_eq!(sc2.cycles, 16);
    }
}
