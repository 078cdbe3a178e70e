//! Interpreter fast path: inline-cache slots and the per-pc dispatch rows
//! with their link-time superinstruction marks.
//!
//! Everything here is acceleration state a VM may simply lack. The
//! reference semantics the differential suites compare against are not a
//! second interpreter path but a VM built without it
//! ([`crate::interp::Vm::reference`]): its classes link with nothing fused
//! and its inline caches never fill, so every site takes — forever — the
//! by-name resolution a fast VM takes on its first visit.
//!
//! Three rules keep a warmed fast VM *observably identical* to that:
//!
//! * **Caches are positive-only and node-local.** A VM's class table is
//!   append-only — a resolved `(class, member)` pair never changes for the
//!   life of the VM — so a filled cache never needs invalidation; class
//!   *load* (local deploy or code shipping) only makes previously-missing
//!   names resolvable, and misses are never cached (the thread parks on
//!   `ClassMiss`). Caches live in [`crate::interp::LoadedClass`],
//!   which `capture`/`wire` never serialize: a migrated stack arrives cold
//!   and rewarms at the destination, so reports stay bit-identical.
//! * **Receiver-keyed caches validate by pointer.** Field and virtual-call
//!   sites cache `(receiver class, slot index)`; the receiver check is an
//!   `Arc::ptr_eq` against the loaded class's canonical name `Arc`. Objects
//!   that arrive over the wire carry a fresh `Arc` and simply miss once,
//!   after which their class pointer is canonicalized.
//! * **Fused pairs charge and retire as two instructions.** Each half is
//!   charged its own row's cost through a separate meter charge (per-charge
//!   scaling does not distribute over sums) and counted, and the slice
//!   budget is honoured *between* the halves — exactly where the unfused
//!   loop would have stopped.
//!
//! Fusion is restricted to pairs whose first half is a pure single-value
//! push ([`Instr::Load`] / [`Instr::PushI`] — together roughly 40 % of
//! retired instructions on the fib/nqueens/fft workloads). A pure push
//! cannot park, throw a guest exception, or leave the operand stack empty,
//! so the mid-pair pc is never a migration-safe point and a `StopAtMsp` run
//! loop cannot miss a stop by skipping the mid-pair check. The second half
//! executes through the ordinary single-instruction path with the frame pc
//! already advanced, so every throw/park records the same pc as unfused
//! execution. Fused dispatch is bypassed while any breakpoint is armed.

use crate::class::MethodDef;
use crate::costs::instr_cost;
use crate::instr::Instr;

/// Empty-slot sentinel for [`IcCell`] (`ObjId` and class indices never
/// reach `u32::MAX`).
pub const IC_EMPTY: u32 = u32::MAX;

/// One inline-cache slot, addressed by `(method, pc)` inside a loaded
/// class. Interpretation depends on the opcode at that pc:
///
/// * `New`: `a` = resolved class index.
/// * `GetStatic`/`PutStatic`: `a` = class index, `b` = static slot.
/// * `InvokeStatic`: `a` = class index, `b` = method index.
/// * `GetField`/`PutField`: `a` = *receiver* class index, `b` = field slot
///   (monomorphic; validated by `Arc::ptr_eq` on the receiver's class).
/// * `InvokeVirtual`: `a` = receiver class index, `b` = method index.
/// * `PushStr`: `a` = interned string `ObjId`.
///
/// `a == IC_EMPTY` means the slot has never been filled.
#[derive(Clone, Copy, Debug)]
pub struct IcCell {
    pub a: u32,
    pub b: u32,
}

impl IcCell {
    pub const EMPTY: IcCell = IcCell { a: IC_EMPTY, b: 0 };

    #[inline]
    pub fn is_filled(self) -> bool {
        self.a != IC_EMPTY
    }
}

/// One dispatch row, `rows[method][pc]`: what the run loop needs to retire
/// the instruction at a pc, so it walks one table, not three.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    pub instr: Instr,
    /// The unscaled [`instr_cost`] of `instr`.
    pub cost: u32,
    /// This pc heads a superinstruction: `instr` is a pure push and the row
    /// at `pc + 1` is its second half.
    pub fused: bool,
}

/// Link one method into its dispatch rows; with `fuse` (off in a reference
/// VM), a pure push that has a successor is marked fused. Entering at
/// `i + 1` (e.g. as a branch target) simply executes unfused — a fused row
/// is an *alternative* dispatch for pc `i`, not a rewrite of the stream, so
/// pcs, branch targets, exception ranges and capture offsets are untouched.
pub fn link_rows(method: &MethodDef, fuse: bool) -> Vec<Row> {
    let code = &method.code;
    code.iter()
        .enumerate()
        .map(|(i, instr)| Row {
            instr: *instr,
            cost: instr_cost(instr) as u32,
            fused: fuse && i + 1 < code.len() && matches!(instr, Instr::Load(_) | Instr::PushI(_)),
        })
        .collect()
}

/// Build one empty inline-cache row per pc of `method`.
pub fn build_ic_row(method: &MethodDef) -> Vec<IcCell> {
    vec![IcCell::EMPTY; method.code.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::MethodDef;
    use crate::instr::Cmp;

    #[test]
    fn fuses_only_pure_push_prefixes() {
        let m = MethodDef::new("m", 0, 2).with_code(
            vec![
                Instr::Load(0),  // 0: fusable (Load, PushI)
                Instr::PushI(5), // 1: fusable (PushI, Add)
                Instr::Add,      // 2: not a pure push
                Instr::Store(1), // 3: not a pure push
                Instr::Load(1),  // 4: fusable (Load, RetV)
                Instr::RetV,     // 5: last instruction, no successor
            ],
            vec![1; 6],
        );
        let rows = link_rows(&m, true);
        let fused: Vec<bool> = rows.iter().map(|r| r.fused).collect();
        assert_eq!(fused, [true, true, false, false, true, false]);
        // Each half keeps its own unfused cost, not a combined figure, and
        // branches and returns are fine as second halves: the pc is set
        // before they execute, so their control transfer is unchanged.
        for (row, instr) in rows.iter().zip(&m.code) {
            assert_eq!(row.instr, *instr);
            assert_eq!(u64::from(row.cost), instr_cost(instr));
        }
        // A reference VM links the same rows with nothing fused.
        assert!(link_rows(&m, false).iter().all(|r| !r.fused));
    }

    #[test]
    fn trailing_pure_push_is_not_fused() {
        let m = MethodDef::new("m", 0, 1).with_code(
            vec![Instr::Load(0), Instr::IfZ(Cmp::Eq, 2), Instr::PushI(1)],
            vec![1; 3],
        );
        let fused: Vec<bool> = link_rows(&m, true).iter().map(|r| r.fused).collect();
        assert_eq!(fused, [true, false, false]);
    }

    #[test]
    fn ic_rows_start_empty() {
        let m = MethodDef::new("m", 0, 0).with_code(vec![Instr::PushI(1), Instr::RetV], vec![1; 2]);
        let row = build_ic_row(&m);
        assert_eq!(row.len(), 2);
        assert!(row.iter().all(|c| !c.is_filled()));
    }
}
