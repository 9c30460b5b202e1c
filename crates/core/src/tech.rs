//! Technology libraries: delay and area models for datapath operators.
//!
//! Scheduling "with detailed knowledge of the delay of each component"
//! (Section 1 of the paper) needs per-operator delay and area as functions
//! of bitwidth. The paper targets an unnamed ASIC process at 100 MHz and
//! reports only *normalized* area, so the libraries here are calibrated
//! abstract models: delays scale with `log2(width)` for carry-lookahead-like
//! adders and comparators, and roughly linearly for array multipliers; area
//! scales linearly for adders and quadratically for multipliers.

use std::fmt;

use hls_ir::json::{Decode, Encode, Named};
use hls_ir::Json;

/// Classes of hardware operators the scheduler allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Adder (also used for subtraction).
    Add,
    /// Multiplier.
    Mul,
    /// Comparator.
    Cmp,
    /// Two-way multiplexer (select).
    Mux,
    /// Constant shifter / format move (wiring, negligible logic).
    Shift,
    /// Negation (two's complement).
    Neg,
    /// Sign extraction (wiring plus a few gates).
    Sign,
    /// Bit-accurate cast (rounding/saturation logic).
    Cast,
    /// Register-file / register-array read port.
    RegRead,
    /// Register-file / register-array write port.
    RegWrite,
    /// Synchronous memory read (one cycle, for memory-mapped arrays).
    MemRead,
    /// Synchronous memory write.
    MemWrite,
}

impl OpClass {
    /// Every allocatable class, for reports.
    pub const ALL: [OpClass; 12] = [
        OpClass::Add,
        OpClass::Mul,
        OpClass::Cmp,
        OpClass::Mux,
        OpClass::Shift,
        OpClass::Neg,
        OpClass::Sign,
        OpClass::Cast,
        OpClass::RegRead,
        OpClass::RegWrite,
        OpClass::MemRead,
        OpClass::MemWrite,
    ];

    /// `true` for classes that consume a shareable functional unit (as
    /// opposed to wiring or storage ports).
    pub fn is_functional_unit(self) -> bool {
        matches!(
            self,
            OpClass::Add | OpClass::Mul | OpClass::Cmp | OpClass::Neg | OpClass::Cast
        )
    }

    /// Parses a class back from its display name (the inverse of
    /// [`fmt::Display`]), for deserialized reports and directives.
    pub fn parse(name: &str) -> Option<OpClass> {
        OpClass::by_name(name)
    }
}

impl Named for OpClass {
    const NAMES: &'static [(OpClass, &'static str)] = &[
        (OpClass::Add, "add"),
        (OpClass::Mul, "mul"),
        (OpClass::Cmp, "cmp"),
        (OpClass::Mux, "mux"),
        (OpClass::Shift, "shift"),
        (OpClass::Neg, "neg"),
        (OpClass::Sign, "sign"),
        (OpClass::Cast, "cast"),
        (OpClass::RegRead, "reg_read"),
        (OpClass::RegWrite, "reg_write"),
        (OpClass::MemRead, "mem_read"),
        (OpClass::MemWrite, "mem_write"),
    ];
}

/// A library travels as its built-in name.
impl Encode for TechLibrary {
    fn encode(&self) -> Json {
        self.name().encode()
    }
}

impl Decode for TechLibrary {
    fn decode(v: &Json) -> Result<TechLibrary, String> {
        let name = String::decode(v)?;
        TechLibrary::by_name(&name).ok_or_else(|| format!("unknown library `{name}`"))
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A delay/area model for one target technology.
///
/// # Examples
///
/// ```
/// use hls_core::{TechLibrary, OpClass};
///
/// let lib = TechLibrary::asic_100mhz();
/// // A 10x10 multiply plus an accumulate chain fits one 10 ns cycle:
/// let mac = lib.delay(OpClass::Mul, 10) + lib.delay(OpClass::Add, 22);
/// assert!(mac < lib.nominal_clock_ns());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TechLibrary {
    name: String,
    nominal_clock_ns: f64,
    /// Base delay (ns) per class at 1 bit.
    delay_base: f64,
    /// Adder delay per log2(width) step.
    add_log_factor: f64,
    /// Multiplier delay per bit of the wider operand.
    mul_linear_factor: f64,
    /// Area of one register bit.
    reg_bit_area: f64,
    /// Area of a 1-bit full adder.
    add_bit_area: f64,
    /// Area factor for multipliers (× w₁ × w₂).
    mul_bit_area: f64,
    /// Area of a 1-bit 2:1 mux.
    mux_bit_area: f64,
    /// Fixed controller overhead per FSM state.
    state_area: f64,
}

impl TechLibrary {
    /// The paper's target: an ASIC technology characterized for a 100 MHz
    /// (10 ns) system clock.
    pub fn asic_100mhz() -> Self {
        TechLibrary {
            name: "asic_100mhz".into(),
            nominal_clock_ns: 10.0,
            delay_base: 0.25,
            // Calibrated so one complex MAC chains in ~5.5 ns and two in
            // ~8 ns (the paper's merged U=2 filter runs one iteration per
            // 10 ns cycle), while four chained MACs do not fit — which is
            // why the paper picked U=2, not U=4, for the accumulating dfe.
            add_log_factor: 0.22,
            mul_linear_factor: 0.28,
            reg_bit_area: 16.0,
            add_bit_area: 14.0,
            mul_bit_area: 10.0,
            mux_bit_area: 4.0,
            state_area: 60.0,
        }
    }

    /// A slow FPGA-like target: everything is roughly 3× slower but the
    /// relative model is unchanged (used by the paper's FPGA-prototyping
    /// remarks).
    pub fn fpga_slow() -> Self {
        TechLibrary {
            name: "fpga_slow".into(),
            nominal_clock_ns: 30.0,
            delay_base: 0.8,
            add_log_factor: 1.4,
            mul_linear_factor: 1.3,
            reg_bit_area: 2.0, // registers are plentiful in FPGAs
            add_bit_area: 10.0,
            mul_bit_area: 9.0,
            mux_bit_area: 6.0, // routing-dominated muxes are expensive
            state_area: 40.0,
        }
    }

    /// The library's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks a built-in library up by name (for serialized requests).
    pub fn by_name(name: &str) -> Option<TechLibrary> {
        match name {
            "asic_100mhz" => Some(TechLibrary::asic_100mhz()),
            "fpga_slow" => Some(TechLibrary::fpga_slow()),
            _ => None,
        }
    }

    /// A stable fingerprint of every calibration constant in the model.
    ///
    /// Two libraries with the same fingerprint schedule and allocate
    /// identically, so the fingerprint participates in content-addressed
    /// artifact digests (`hls-serve`). Floats are rendered via their IEEE-754
    /// bit patterns so the string is bit-exact across processes.
    pub fn fingerprint(&self) -> String {
        format!(
            "{};clk={:016x};base={:016x};addlog={:016x};mullin={:016x};reg={:016x};add={:016x};mul={:016x};mux={:016x};state={:016x}",
            self.name,
            self.nominal_clock_ns.to_bits(),
            self.delay_base.to_bits(),
            self.add_log_factor.to_bits(),
            self.mul_linear_factor.to_bits(),
            self.reg_bit_area.to_bits(),
            self.add_bit_area.to_bits(),
            self.mul_bit_area.to_bits(),
            self.mux_bit_area.to_bits(),
            self.state_area.to_bits(),
        )
    }

    /// The clock period the library was characterized for.
    pub fn nominal_clock_ns(&self) -> f64 {
        self.nominal_clock_ns
    }

    /// Returns a copy with the base operator delay nudged by `delta_ns`.
    ///
    /// This is a calibration hook: it lets tooling (and the cache
    /// key-soundness tests) derive a library whose timing model differs in
    /// exactly one constant, which must change [`TechLibrary::fingerprint`]
    /// and therefore miss every content-addressed cache keyed on it.
    pub fn with_delay_base_offset(&self, delta_ns: f64) -> Self {
        let mut lib = self.clone();
        lib.delay_base += delta_ns;
        lib
    }

    /// Propagation delay (ns) of one operator at the given output width.
    pub fn delay(&self, class: OpClass, width: u32) -> f64 {
        let w = width.max(1) as f64;
        let log_w = w.log2().max(1.0);
        match class {
            OpClass::Add | OpClass::Cmp => self.delay_base + self.add_log_factor * log_w,
            OpClass::Mul => self.delay_base + self.mul_linear_factor * w,
            OpClass::Mux => self.delay_base,
            OpClass::Shift => 0.0, // constant shifts, enables: pure wiring
            OpClass::Neg => self.delay_base + 0.5 * self.add_log_factor * log_w,
            OpClass::Sign => self.delay_base,
            OpClass::Cast => self.delay_base + 0.25 * self.add_log_factor * log_w,
            // Register reads are clock-to-Q; writes are the clock edge
            // itself (the D input only needs to settle within the period).
            OpClass::RegRead => 0.2,
            OpClass::RegWrite => 0.0,
            OpClass::MemRead | OpClass::MemWrite => 0.45 * self.nominal_clock_ns,
        }
    }

    /// Area of one operator instance. For [`OpClass::Mul`] `width` is the
    /// wider operand; multiplier area grows quadratically.
    pub fn area(&self, class: OpClass, width: u32) -> f64 {
        let w = width.max(1) as f64;
        match class {
            OpClass::Add | OpClass::Cmp => self.add_bit_area * w,
            OpClass::Mul => self.mul_bit_area * w * w,
            OpClass::Mux => self.mux_bit_area * w,
            OpClass::Shift => 0.0,
            OpClass::Neg => 0.6 * self.add_bit_area * w,
            OpClass::Sign => 2.0 * self.mux_bit_area,
            OpClass::Cast => 0.3 * self.add_bit_area * w,
            OpClass::RegRead | OpClass::RegWrite => self.mux_bit_area * w,
            OpClass::MemRead | OpClass::MemWrite => 2.0 * self.mux_bit_area * w,
        }
    }

    /// Area of `bits` register bits.
    pub fn register_area(&self, bits: u64) -> f64 {
        self.reg_bit_area * bits as f64
    }

    /// Controller area for an FSM with `states` states.
    pub fn controller_area(&self, states: usize) -> f64 {
        self.state_area * states as f64
    }

    /// Area of an `inputs`-way mux of the given width (decomposed into 2:1
    /// muxes).
    pub fn mux_tree_area(&self, inputs: usize, width: u32) -> f64 {
        if inputs <= 1 {
            return 0.0;
        }
        self.mux_bit_area * width as f64 * (inputs - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_mac_fits_one_asic_cycle() {
        // The paper's merged filter loops execute one complex MAC per cycle:
        // a 10x10 multiply, a product add and an accumulate add, chained.
        let lib = TechLibrary::asic_100mhz();
        let chain = lib.delay(OpClass::RegRead, 10)
            + lib.delay(OpClass::Mul, 10)
            + lib.delay(OpClass::Add, 21)
            + lib.delay(OpClass::Add, 22)
            + lib.delay(OpClass::RegWrite, 22);
        assert!(chain < 10.0, "chain = {chain}");
    }

    #[test]
    fn wide_multiply_does_not_fit_without_pipelining() {
        let lib = TechLibrary::asic_100mhz();
        assert!(lib.delay(OpClass::Mul, 40) > 10.0);
    }

    #[test]
    fn delays_monotone_in_width() {
        let lib = TechLibrary::asic_100mhz();
        for class in [OpClass::Add, OpClass::Mul, OpClass::Cmp, OpClass::Cast] {
            for w in 2..40 {
                assert!(
                    lib.delay(class, w) <= lib.delay(class, w + 1) + 1e-12,
                    "{class} at {w}"
                );
            }
        }
    }

    #[test]
    fn multiplier_area_quadratic() {
        let lib = TechLibrary::asic_100mhz();
        let a10 = lib.area(OpClass::Mul, 10);
        let a20 = lib.area(OpClass::Mul, 20);
        assert!((a20 / a10 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fpga_slower_than_asic() {
        let asic = TechLibrary::asic_100mhz();
        let fpga = TechLibrary::fpga_slow();
        for class in [OpClass::Add, OpClass::Mul, OpClass::Cmp] {
            assert!(fpga.delay(class, 16) > asic.delay(class, 16), "{class}");
        }
    }

    #[test]
    fn mux_tree_grows_with_inputs() {
        let lib = TechLibrary::asic_100mhz();
        assert_eq!(lib.mux_tree_area(1, 10), 0.0);
        assert!(lib.mux_tree_area(4, 10) > lib.mux_tree_area(2, 10));
    }
}
