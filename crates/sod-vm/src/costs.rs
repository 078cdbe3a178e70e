//! Virtual-time cost model for VM execution.
//!
//! All evaluation in this reproduction runs on a deterministic virtual clock
//! (see `sod-net`). Every instruction is charged a cost in *virtual
//! nanoseconds*; nodes scale these by a CPU-speed factor, and the VM applies
//! a multiplier when running in interpreted (debug) mode — modelling the
//! JVM's mixed-mode execution that the paper describes ("program will run in
//! interpreted mode ... if some debugging functions are enabled").
//!
//! The base constants approximate a 2009-era 2.5 GHz Xeon running JIT-ed
//! Java: simple ops retire at a few ns, calls and allocations cost tens of
//! ns. Absolute values only matter up to scale; the paper comparisons are
//! ratio-shaped.

use crate::instr::Instr;

/// Multiplier applied to instruction costs while the VM runs with debugging
/// facilities enabled (breakpoints armed / restore in progress), modelling
/// interpreted mode. The paper's JESSICA2 baseline, built on an old Kaffe
/// JIT, is modelled with a similar externally applied factor.
pub const INTERP_MODE_FACTOR: u32 = 12;

/// Cost in virtual nanoseconds of executing `i` once in JIT mode. Looked up
/// once per pc at link time (`fastpath::Row::cost`); each execution scales
/// and charges it separately, because per-charge rounding does not
/// distribute over a summed cost.
#[inline]
pub fn instr_cost(i: &Instr) -> u64 {
    use Instr::*;
    match i {
        PushI(_) | PushF(_) | PushNull | Nop => 1,
        PushStr(_) => 4,
        Load(_) | Store(_) | Dup | Pop | Swap => 1,
        Add | Sub | Neg | BAnd | BOr | BXor | Shl | Shr | I2F | F2I => 1,
        Mul => 2,
        Div | Rem => 8,
        If(_, _) | IfZ(_, _) | IfNull(_) | IfNonNull(_) | Goto(_) => 1,
        Switch(_) => 6,
        New(_) => 30,
        NewArr => 25,
        GetField(_) | PutField(_) => 3,
        GetStatic(_, _) | PutStatic(_, _) => 2,
        ALoad | AStore | ArrLen => 2,
        InvokeStatic(_, _, _) | InvokeVirtual(_, _) => 12,
        Ret | RetV => 6,
        ThrowKind(_) | Throw | RethrowAppNpe => 400,
        NativeCall(_, _) => 40,
        ReadCaptured(_) | ReadCapturedPc => 20,
        RestoreLocal(_) => 25,
        BringObjLocal(_) | BringObjField(_, _) => 50,
        BringObjStaticTo(_, _, _) | BringObjElemTo(_, _, _) => 50,
        // One status-word load, a compare and a branch: the per-access tax
        // of the traditional DSM object-checking approach (paper Table V).
        CheckStatus(_) => 2,
    }
}

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
    use crate::instr::Cmp;

    #[test]
    fn relative_order_is_sane() {
        // Throws must dwarf field accesses, which exceed simple ALU ops.
        assert!(instr_cost(&Instr::ThrowKind(crate::class::ExKind::NullPointer)) > 50);
        assert!(instr_cost(&Instr::GetField(0)) > instr_cost(&Instr::Add));
        assert!(instr_cost(&Instr::InvokeStatic(0, 0, 0)) > instr_cost(&Instr::Goto(0)));
        assert!(instr_cost(&Instr::If(Cmp::Eq, 0)) >= 1);
    }

    #[test]
    fn alloc_cost_scales_linearly() {
        assert_eq!(alloc_cost(0), 0);
        assert_eq!(alloc_cost(100), 105);
        assert_eq!(alloc_cost(64 << 20), ((64u64 << 20) * 105) / 100);
    }
}
