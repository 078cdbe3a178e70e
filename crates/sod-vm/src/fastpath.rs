//! Interpreter fast path: inline-cache slots and link-time
//! superinstruction fusion.
//!
//! Everything here is acceleration state a VM may simply lack. The
//! reference semantics the differential suites compare against are not a
//! second interpreter path but a VM built without it
//! ([`crate::interp::Vm::reference`]): its classes link with an empty fusion
//! table and its inline caches never fill, so every site takes — forever —
//! the by-name resolution a fast VM takes on its first visit.
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
//! * **Fused pairs charge and retire as two instructions.** A fused cell
//!   charges `c1` and `c2` through two separate [`crate::interp::Vm`] meter
//!   charges (per-charge scaling does not distribute over sums), bumps
//!   `instr_count` twice, and honours the slice budget *between* the halves
//!   — exactly where the unfused loop would have stopped.
//!
//! Fusion is restricted to pairs whose first half is a pure single-value
//! push ([`Instr::Load`] / [`Instr::PushI`] — together roughly 40 % of
//! retired instructions on the fib/nqueens/fft workloads). A pure push
//! cannot park, throw a guest exception, or leave the operand stack empty,
//! so the mid-pair pc is never a migration-safe point (statically *and*
//! dynamically: the stack is non-empty) and a `StopAtMsp` run loop cannot
//! miss a stop by skipping the mid-pair check. The second half is executed
//! through the ordinary single-instruction path with the frame pc already
//! advanced, so every throw/park records the same pc as unfused execution.
//! Fused dispatch is bypassed entirely while any breakpoint is armed.

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

/// The first half of a fused pair: a pure single-value push. `Load` can
/// fail only with the hard `BadLocalSlot` verification error (charged and
/// counted first, exactly as the unfused path would).
#[derive(Clone, Copy, Debug)]
pub enum FusedFirst {
    Load(u16),
    PushI(i64),
}

/// A superinstruction cell at pc `i`: execute the pure push, advance to
/// `i + 1`, then (budget permitting) execute `second` in place. `c1`/`c2`
/// are the unscaled [`instr_cost`]s of the two halves, precomputed at link
/// time so the hot loop never re-derives them.
#[derive(Clone, Copy, Debug)]
pub struct FusedPair {
    pub first: FusedFirst,
    pub second: Instr,
    pub c1: u32,
    pub c2: u32,
}

/// Build the per-pc fusion table for one method: `table[i]` is `Some` when
/// the pair `(code[i], code[i + 1])` is fusable. Entering at `i + 1` (e.g.
/// as a branch target) simply executes unfused — fused cells are an
/// *alternative* dispatch for pc `i`, not a rewrite of the stream, so pcs,
/// branch targets, exception ranges and capture offsets are untouched.
pub fn build_fusion_table(method: &MethodDef) -> Vec<Option<FusedPair>> {
    let code = &method.code;
    let mut table: Vec<Option<FusedPair>> = vec![None; code.len()];
    for i in 0..code.len().saturating_sub(1) {
        let first = match code[i] {
            Instr::Load(slot) => FusedFirst::Load(slot),
            Instr::PushI(v) => FusedFirst::PushI(v),
            _ => continue,
        };
        let second = code[i + 1];
        table[i] = Some(FusedPair {
            first,
            second,
            c1: instr_cost(&code[i]) as u32,
            c2: instr_cost(&second) as u32,
        });
    }
    table
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
        let t = build_fusion_table(&m);
        assert!(t[0].is_some() && t[1].is_some() && t[4].is_some());
        assert!(t[2].is_none() && t[3].is_none() && t[5].is_none());
        // Costs are the two halves' unfused costs, not a combined figure.
        let p = t[1].unwrap();
        assert_eq!(p.c1 as u64, instr_cost(&Instr::PushI(5)));
        assert_eq!(p.c2 as u64, instr_cost(&Instr::Add));
    }

    #[test]
    fn fused_second_half_may_branch_or_return() {
        // Branches and returns are fine as second halves: the pc is set
        // before they execute, so their control transfer is unchanged.
        let m = MethodDef::new("m", 0, 1).with_code(
            vec![
                Instr::Load(0),
                Instr::IfZ(Cmp::Eq, 3),
                Instr::PushI(1),
                Instr::RetV,
            ],
            vec![1; 4],
        );
        let t = build_fusion_table(&m);
        assert!(matches!(
            t[0],
            Some(FusedPair {
                second: Instr::IfZ(Cmp::Eq, 3),
                ..
            })
        ));
        assert!(matches!(
            t[2],
            Some(FusedPair {
                second: Instr::RetV,
                ..
            })
        ));
    }

    #[test]
    fn ic_rows_start_empty() {
        let m = MethodDef::new("m", 0, 0).with_code(vec![Instr::PushI(1), Instr::RetV], vec![1; 2]);
        let row = build_ic_row(&m);
        assert_eq!(row.len(), 2);
        assert!(row.iter().all(|c| !c.is_filled()));
    }
}
