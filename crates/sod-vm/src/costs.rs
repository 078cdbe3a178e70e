//! Virtual-time cost model for VM execution.
//!
//! All evaluation in this reproduction runs on a deterministic virtual clock
//! (see `sod-net`). Every instruction is charged a cost in *virtual
//! nanoseconds* (the instruction table's cost column,
//! [`crate::instr::Instr::cost`]); nodes scale these by a CPU-speed factor,
//! and the VM applies a multiplier when running in interpreted (debug)
//! mode — modelling the JVM's mixed-mode execution that the paper describes
//! ("program will run in interpreted mode ... if some debugging functions
//! are enabled").
//!
//! The base constants approximate a 2009-era 2.5 GHz Xeon running JIT-ed
//! Java: simple ops retire at a few ns, calls and allocations cost tens of
//! ns. Absolute values only matter up to scale; the paper comparisons are
//! ratio-shaped.

/// Multiplier applied to instruction costs while the VM runs with debugging
/// facilities enabled (breakpoints armed / restore in progress), modelling
/// interpreted mode. The paper's JESSICA2 baseline, built on an old Kaffe
/// JIT, is modelled with a similar externally applied factor.
pub const INTERP_MODE_FACTOR: u32 = 12;

/// Extra cost charged per byte when a `New`/`NewArr` allocation commits,
/// modelling zeroing of large arrays (this is what makes JESSICA2's 64 MB
/// static-array allocation at class-load time expensive in Table IV).
pub const ALLOC_COST_PER_BYTE_NS_X100: u64 = 105; // 1.05 ns/B

/// Cost per byte of allocation, in ns.
#[inline]
pub fn alloc_cost(bytes: u64) -> u64 {
    bytes * ALLOC_COST_PER_BYTE_NS_X100 / 100
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Cmp, Instr};

    #[test]
    fn relative_order_is_sane() {
        // Throws must dwarf field accesses, which exceed simple ALU ops.
        assert!(Instr::ThrowKind(crate::class::ExKind::NullPointer).cost() > 50);
        assert!(Instr::GetField(0).cost() > Instr::Add.cost());
        assert!(Instr::InvokeStatic(0, 0, 0).cost() > Instr::Goto(0).cost());
        assert!(Instr::If(Cmp::Eq, 0).cost() >= 1);
    }

    #[test]
    fn alloc_cost_scales_linearly() {
        assert_eq!(alloc_cost(0), 0);
        assert_eq!(alloc_cost(100), 105);
        assert_eq!(alloc_cost(64 << 20), ((64u64 << 20) * 105) / 100);
    }
}
