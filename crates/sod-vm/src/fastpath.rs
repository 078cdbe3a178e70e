//! Interpreter fast path: inline-cache slots, the per-pc dispatch rows, and
//! the *window instruction set* — the instructions that touch nothing but
//! the running frame's slice of the value stack, which [`Vm::run`]'s loop
//! retires on locals.
//!
//! Everything here is acceleration state a VM may simply lack. The
//! reference semantics the differential suites compare against are not a
//! second interpreter path but a VM whose inline caches never fill
//! ([`crate::interp::Vm::reference`]): every site takes — forever — the
//! by-name resolution a fast VM takes on its first visit, and every call
//! takes the full path a fast VM takes only until its site is warm.
//!
//! Two rules keep a warmed fast VM *observably identical* to that:
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
//!
//! A [`Row`] is what the loop reads per pc: the instruction, its unscaled
//! cost, whether the pc is a migration-safe point, and the [`Fused`] form
//! of the run of instructions it heads, if that run is one of the common
//! shapes. Rows are linked from the method's code alone — no instruction is
//! rewritten or pre-scaled — so a fast VM and a reference VM link
//! identical rows.
//!
//! [`window_op`] is the one executing arm of every window instruction:
//! [`Vm::run`]'s window loop (`interp.rs::window_loop`, which also moves
//! the window for a call or a return) calls it with the frame held in a
//! [`Window`] of locals, and the full path (`exec_instr`, hence
//! [`Vm::step`]) delegates to the same function. It mutates nothing unless the instruction retires; anything
//! unusual comes back as a register-sized [`Exit`] code, and only the full
//! path turns a code into a `VmError` or a guest exception.
//!
//! [`fused_op`] retires a whole fused run in one dispatch, and only the
//! unwatched window loop calls it, only when the slice's budget cannot end
//! inside the run. It accepts only when every check the constituents would
//! make passes, and then leaves exactly what they would leave; otherwise it
//! touches nothing and the head row runs as its plain self. Single-stepping
//! never sees a fused form, so it stays the oracle the differential suites
//! hold the loop against.
//!
//! [`Vm::run`]: crate::interp::Vm::run
//! [`Vm::step`]: crate::interp::Vm::step

use crate::analysis::MethodSummary;
use crate::class::MethodDef;
use crate::heap::Heap;
use crate::instr::{Cmp, Instr};
use crate::value::{ObjId, Value};

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
    /// The unscaled [`Instr::cost`] of `instr`.
    pub cost: u32,
    /// This pc is a migration-safe point of its method (a line start the
    /// verifier reaches with an empty operand stack).
    pub msp: bool,
    /// The run of instructions starting at this pc, when it has one of the
    /// [`Fused`] shapes.
    pub fused: Option<Fused>,
}

// What the run loop reads per pc: one 16-byte instruction (const-asserted
// in `instr.rs`) and its row facts.
const _: () = assert!(std::mem::size_of::<Row>() == 40);

/// A run of 2–4 window instructions, each of unscaled cost 1, that the
/// unwatched window loop retires in one dispatch ([`fused_op`]). Only the
/// last may branch. The shapes are the commonest runs of the guests'
/// executed instructions: compare-and-branch on a local, `x ± y` with its
/// store, and the preprocessor's call-result temp. `k` is a `PushI`
/// constant that fits an `i32`, negated when the run subtracts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fused {
    /// `Load a; PushI k; If(cmp, t)`.
    LoadConstIf { a: u16, k: i32, cmp: Cmp, t: u32 },
    /// `Load a; Load b; If(cmp, t)`.
    LoadLoadIf { a: u16, b: u16, cmp: Cmp, t: u32 },
    /// `Load a; IfZ(cmp, t)`.
    LoadIfZ { a: u16, cmp: Cmp, t: u32 },
    /// `Load a; PushI k; Add` (or `Sub` of `-k`).
    LoadAddConst { a: u16, k: i32 },
    /// `Load a; Load b; Add`, or `Sub` when `sub`.
    LoadAddLoad { a: u16, b: u16, sub: bool },
    /// `Load a; PushI k; Add; Store d` (or `Sub` of `-k`).
    LoadAddConstStore { a: u16, k: i32, d: u16 },
    /// `Load a; Load b; Add; Store d`, or `Sub` when `sub`.
    LoadAddLoadStore { a: u16, b: u16, sub: bool, d: u16 },
    /// `Store s; Load s; Store d`: a value parked in a temp and copied on.
    StoreLoadStore { s: u16, d: u16 },
}

impl Fused {
    /// The fused form of the run at the start of `code`, if it has one.
    pub fn of(code: &[Instr]) -> Option<Fused> {
        use Instr::*;
        // The constant a run adds.
        let addend = |v: i64, op: Instr| {
            let v = if op == Sub { v.checked_neg()? } else { v };
            i32::try_from(v).ok()
        };
        Some(match *code {
            [Load(a), PushI(v), If(cmp, t), ..] => Fused::LoadConstIf {
                a,
                k: i32::try_from(v).ok()?,
                cmp,
                t,
            },
            [Load(a), Load(b), If(cmp, t), ..] => Fused::LoadLoadIf { a, b, cmp, t },
            [Load(a), IfZ(cmp, t), ..] => Fused::LoadIfZ { a, cmp, t },
            [Load(a), PushI(v), op @ (Add | Sub), Store(d), ..] => Fused::LoadAddConstStore {
                a,
                k: addend(v, op)?,
                d,
            },
            [Load(a), PushI(v), op @ (Add | Sub), ..] => Fused::LoadAddConst {
                a,
                k: addend(v, op)?,
            },
            [Load(a), Load(b), op @ (Add | Sub), Store(d), ..] => Fused::LoadAddLoadStore {
                a,
                b,
                sub: op == Sub,
                d,
            },
            [Load(a), Load(b), op @ (Add | Sub), ..] => Fused::LoadAddLoad {
                a,
                b,
                sub: op == Sub,
            },
            [Store(s), Load(l), Store(d), ..] if s == l => Fused::StoreLoadStore { s, d },
            _ => return None,
        })
    }

    /// How many instructions the run holds: what retiring it counts, and
    /// in units of one cost-1 instruction's charge, what it costs.
    #[inline]
    pub fn span(self) -> u64 {
        match self {
            Fused::LoadIfZ { .. } => 2,
            Fused::LoadAddConstStore { .. } | Fused::LoadAddLoadStore { .. } => 4,
            _ => 3,
        }
    }
}

/// Link one verified method into its dispatch rows.
pub fn link_rows(method: &MethodDef, summary: &MethodSummary) -> Vec<Row> {
    let code = &method.code;
    code.iter()
        .enumerate()
        .map(|(pc, instr)| Row {
            instr: *instr,
            cost: instr.cost() as u32,
            msp: summary.is_msp(pc as u32),
            fused: Fused::of(&code[pc..]),
        })
        .collect()
}

/// Build one empty inline-cache row per pc of `method`.
pub fn build_ic_row(method: &MethodDef) -> Vec<IcCell> {
    vec![IcCell::EMPTY; method.code.len()]
}

/// The running frame, held in locals: its thread's value stack from the
/// frame's base up, as a slice (locals at `stack[..floor]`, operands at
/// `stack[floor..sp]`, spare room above `sp`), and its pc.
pub struct Window<'a> {
    pub stack: &'a mut [Value],
    /// One past the top operand.
    pub sp: usize,
    pub pc: u32,
    /// The number of locals.
    pub floor: usize,
    /// Read only to compare references across fetch states.
    pub heap: &'a Heap,
}

/// What a type check wanted (the `expected` of a `TypeMismatch`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    Int,
    Num,
    Numeric,
    MatchingNumeric,
    Comparable,
}

impl Expected {
    pub fn name(self) -> &'static str {
        match self {
            Expected::Int => "int",
            Expected::Num => "num",
            Expected::Numeric => "numeric",
            Expected::MatchingNumeric => "matching numeric operands",
            Expected::Comparable => "comparable operands",
        }
    }
}

/// Why the window did not retire an instruction. Nothing was mutated, so
/// the instruction can simply execute again on the full path, which owns
/// every error and every guest throw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exit {
    /// Not for the window: the instruction reaches past the frame (heap,
    /// classes, other frames), or there is no spare slot to push into.
    Full,
    /// A `Load`/`Store` names a slot outside the frame's locals.
    BadSlot(u16),
    /// Fewer operands above the floor than the instruction pops.
    Underflow,
    /// The operand `depth` below the top has the wrong type.
    Type { expected: Expected, depth: u8 },
    /// Integer `Div`/`Rem` by zero: a guest `DivByZero`.
    DivZero,
}

/// Execute `instr` if it touches only the frame's window: on `Ok` the
/// operands, `sp` and `pc` have moved; on `Err` nothing has.
#[inline(always)]
pub fn window_op(w: &mut Window<'_>, instr: &Instr) -> Result<(), Exit> {
    use Instr::*;

    let (sp, floor) = (w.sp, w.floor);
    // The operand `$depth` below the top.
    macro_rules! peek {
        ($depth:expr) => {{
            let depth: usize = $depth;
            if sp <= floor + depth {
                return Err(unusual(Exit::Underflow));
            }
            match w.stack.get(sp - 1 - depth) {
                Some(v) => *v,
                None => return Err(unusual(Exit::Underflow)),
            }
        }};
    }
    // Replace the top `$pops` operands (all peeked) with `$v`.
    macro_rules! replace {
        ($pops:expr, $v:expr) => {{
            let at = sp - $pops;
            match w.stack.get_mut(at) {
                Some(slot) => *slot = $v,
                None => return Err(Exit::Full),
            }
            w.sp = at + 1;
        }};
    }
    macro_rules! int {
        ($depth:expr) => {
            match peek!($depth) {
                Value::Int(i) => i,
                _ => {
                    return Err(unusual(Exit::Type {
                        expected: Expected::Int,
                        depth: $depth,
                    }))
                }
            }
        };
    }
    macro_rules! local_at {
        ($slot:expr) => {{
            let at = $slot as usize;
            if at >= floor || at >= w.stack.len() {
                return Err(unusual(Exit::BadSlot($slot)));
            }
            at
        }};
    }
    macro_rules! branch {
        ($pops:expr, $taken:expr, $t:expr) => {{
            w.sp = sp - $pops;
            w.pc = if $taken { $t } else { w.pc + 1 };
            return Ok(());
        }};
    }

    match *instr {
        PushI(v) => replace!(0, Value::Int(v)),
        PushF(v) => replace!(0, Value::Num(v)),
        PushNull => replace!(0, Value::Null),
        Load(slot) => {
            let v = w.stack[local_at!(slot)];
            replace!(0, v)
        }
        Store(slot) => {
            let at = local_at!(slot);
            let v = peek!(0);
            w.stack[at] = v;
            w.sp = sp - 1;
        }
        Dup => {
            let v = peek!(0);
            replace!(0, v)
        }
        Pop => {
            peek!(0);
            w.sp = sp - 1;
        }
        Swap => {
            let (b, a) = (peek!(0), peek!(1));
            w.stack[sp - 2] = b;
            w.stack[sp - 1] = a;
        }
        Add | Sub | Mul | Div | Rem => {
            let (b, a) = (peek!(0), peek!(1));
            let r = match (a, b) {
                (Value::Int(x), Value::Int(y)) => Value::Int(match *instr {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    _ if y == 0 => return Err(unusual(Exit::DivZero)),
                    Div => x.wrapping_div(y),
                    _ => x.wrapping_rem(y),
                }),
                (Value::Num(x), Value::Num(y)) => Value::Num(match *instr {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => x % y,
                }),
                (a, _) => {
                    return Err(unusual(Exit::Type {
                        expected: Expected::MatchingNumeric,
                        depth: u8::from(!a.is_reference()),
                    }))
                }
            };
            replace!(2, r)
        }
        Neg => {
            let r = match peek!(0) {
                Value::Int(x) => Value::Int(x.wrapping_neg()),
                Value::Num(x) => Value::Num(-x),
                _ => {
                    return Err(unusual(Exit::Type {
                        expected: Expected::Numeric,
                        depth: 0,
                    }))
                }
            };
            replace!(1, r)
        }
        Shl | Shr | BAnd | BOr | BXor => {
            let b = int!(0);
            let a = int!(1);
            let r = match *instr {
                Shl => a.wrapping_shl(b as u32),
                Shr => a.wrapping_shr(b as u32),
                BAnd => a & b,
                BOr => a | b,
                _ => a ^ b,
            };
            replace!(2, Value::Int(r))
        }
        I2F => {
            let a = int!(0);
            replace!(1, Value::Num(a as f64))
        }
        F2I => {
            let Value::Num(a) = peek!(0) else {
                return Err(unusual(Exit::Type {
                    expected: Expected::Num,
                    depth: 0,
                }));
            };
            replace!(1, Value::Int(a as i64))
        }
        If(cmp, t) => {
            let (b, a) = (peek!(0), peek!(1));
            let sign = match (a, b) {
                (Value::Int(x), Value::Int(y)) => x.cmp(&y) as i32,
                (Value::Num(x), Value::Num(y)) => x.partial_cmp(&y).map(|o| o as i32).unwrap_or(1),
                (Value::Ref(x), Value::Ref(y)) => (x != y) as i32,
                // Reference identity across fetch states: a
                // transfer-nulled ref equals the cached copy of the
                // same home object.
                (a, b) if a.is_reference() && b.is_reference() => {
                    (identity(w.heap, a) != identity(w.heap, b)) as i32
                }
                (a, _) => {
                    return Err(unusual(Exit::Type {
                        expected: Expected::Comparable,
                        depth: u8::from(!a.is_reference()),
                    }))
                }
            };
            branch!(2, cmp.eval_sign(sign), t)
        }
        IfZ(cmp, t) => {
            let a = int!(0);
            branch!(1, cmp.eval_sign(a.cmp(&0) as i32), t)
        }
        IfNull(t) => branch!(1, peek!(0).is_null(), t),
        IfNonNull(t) => branch!(1, !peek!(0).is_null(), t),
        Goto(t) => branch!(0, true, t),
        Nop => {}
        _ => return Err(Exit::Full),
    }
    w.pc += 1;
    Ok(())
}

/// Retire the run `f` (the fused form of the row at `w.pc`) as its
/// constituents would, if every check they would make passes — the slots
/// inside the locals, `Int` operands, room for the pushes that the run pops
/// again — and return whether it did; a refusal touches nothing. The values
/// the run pushes and pops again are never written (they are dead above
/// `sp`).
#[inline(always)]
pub fn fused_op(w: &mut Window<'_>, f: Fused) -> bool {
    let (sp, pc) = (w.sp, w.pc);
    let locals = w.floor.min(w.stack.len());
    // Local slot `$slot`.
    macro_rules! local {
        ($slot:expr) => {{
            let at = usize::from($slot);
            if at >= locals {
                return false;
            }
            at
        }};
    }
    macro_rules! int {
        ($slot:expr) => {
            match w.stack[local!($slot)] {
                Value::Int(x) => x,
                _ => return false,
            }
        };
    }
    // Room for `$n` pushes above `sp`.
    macro_rules! room {
        ($n:expr) => {
            if sp + $n > w.stack.len() {
                return false;
            }
        };
    }
    macro_rules! branch {
        ($len:expr, $taken:expr, $t:expr) => {
            w.pc = if $taken { $t } else { pc + $len };
        };
    }
    let sum = |x: i64, y: i64, sub: bool| x.wrapping_add(if sub { y.wrapping_neg() } else { y });

    match f {
        Fused::LoadConstIf { a, k, cmp, t } => {
            room!(2);
            let x = int!(a);
            branch!(3, cmp.eval_sign(x.cmp(&k.into()) as i32), t);
        }
        Fused::LoadLoadIf { a, b, cmp, t } => {
            room!(2);
            let (x, y) = (int!(a), int!(b));
            branch!(3, cmp.eval_sign(x.cmp(&y) as i32), t);
        }
        Fused::LoadIfZ { a, cmp, t } => {
            room!(1);
            let x = int!(a);
            branch!(2, cmp.eval_sign(x.cmp(&0) as i32), t);
        }
        Fused::LoadAddConst { a, k } => {
            room!(2);
            let x = int!(a);
            w.stack[sp] = Value::Int(x.wrapping_add(i64::from(k)));
            (w.sp, w.pc) = (sp + 1, pc + 3);
        }
        Fused::LoadAddLoad { a, b, sub } => {
            room!(2);
            let (x, y) = (int!(a), int!(b));
            w.stack[sp] = Value::Int(sum(x, y, sub));
            (w.sp, w.pc) = (sp + 1, pc + 3);
        }
        Fused::LoadAddConstStore { a, k, d } => {
            room!(2);
            let (x, d) = (int!(a), local!(d));
            w.stack[d] = Value::Int(x.wrapping_add(i64::from(k)));
            w.pc = pc + 4;
        }
        Fused::LoadAddLoadStore { a, b, sub, d } => {
            room!(2);
            let (x, y, d) = (int!(a), int!(b), local!(d));
            w.stack[d] = Value::Int(sum(x, y, sub));
            w.pc = pc + 4;
        }
        Fused::StoreLoadStore { s, d } => {
            let (s, d) = (local!(s), local!(d));
            if sp <= w.floor {
                return false;
            }
            let Some(&v) = w.stack.get(sp - 1) else {
                return false;
            };
            (w.stack[s], w.stack[d]) = (v, v);
            (w.sp, w.pc) = (sp - 1, pc + 3);
        }
    }
    true
}

/// An anomaly's way out of [`window_op`]: a call the optimiser knows is
/// rare, so the loop around it is laid out and register-allocated for the
/// instructions that retire.
#[cold]
#[inline(never)]
fn unusual(exit: Exit) -> Exit {
    exit
}

/// What a reference denotes, for identity comparison: nothing (`null`),
/// the master copy of a home object (a transfer-nulled ref, or the cached
/// copy it was fetched into), or a local object. Kept out of line, like
/// [`unusual`]: inlined, it carried `Heap`'s layout into the run loop's
/// register allocation, which then moved with every change to the heap.
#[cold]
#[inline(never)]
fn identity(heap: &Heap, v: Value) -> Option<(bool, ObjId)> {
    match v {
        Value::NulledRef(h) => Some((true, h)),
        Value::Ref(id) => match heap.get(id).ok().and_then(|o| o.home_id()) {
            Some(h) => Some((true, h)),
            None => Some((false, id)),
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::method_summary;
    use crate::class::{ClassDef, MethodDef};
    use crate::instr::Cmp;

    fn rows_of(m: MethodDef) -> (Vec<Row>, ClassDef) {
        let c = ClassDef::new("T").with_method(m);
        let summary = method_summary(&c, &c.methods[0]).unwrap();
        (link_rows(&c.methods[0], &summary), c)
    }

    #[test]
    fn rows_carry_the_instruction_its_cost_and_its_msp_flag() {
        let (rows, c) = rows_of(MethodDef::new("m", 0, 2).with_code(
            vec![
                Instr::Load(0),  // 0  line 1: an MSP
                Instr::PushI(5), // 1
                Instr::Add,      // 2
                Instr::Store(1), // 3
                Instr::Load(1),  // 4  line 2: an MSP
                Instr::RetV,     // 5
            ],
            vec![1, 1, 1, 1, 2, 2],
        ));
        // One row per pc, nothing rewritten: each keeps its own instruction
        // and its own unscaled cost...
        for (row, instr) in rows.iter().zip(&c.methods[0].code) {
            assert_eq!(row.instr, *instr);
            assert_eq!(u64::from(row.cost), instr.cost());
        }
        let msp: Vec<bool> = rows.iter().map(|r| r.msp).collect();
        assert_eq!(msp, [true, false, false, false, true, false]);
        // ...and the head of a run of a fused shape carries its form too.
        let fused: Vec<Option<Fused>> = rows.iter().map(|r| r.fused).collect();
        let head = Fused::LoadAddConstStore { a: 0, k: 5, d: 1 };
        assert_eq!(fused, [Some(head), None, None, None, None, None]);
    }

    #[test]
    fn a_run_fuses_only_with_a_constant_that_fits() {
        use Instr::*;
        let run = |k: i64, op: Instr| Fused::of(&[Load(0), PushI(k), op]);
        let min = i64::from(i32::MIN);
        assert_eq!(
            run(min, Add),
            Some(Fused::LoadAddConst { a: 0, k: i32::MIN })
        );
        assert_eq!(
            run(-min - 1, Sub),
            Some(Fused::LoadAddConst {
                a: 0,
                k: i32::MIN + 1
            })
        );
        // Negated, `i32::MIN` leaves `i32`; so does anything wider.
        assert_eq!(run(min, Sub), None);
        assert_eq!(run(i64::MAX, Add), None);
        assert_eq!(run(1 << 31, If(Cmp::Eq, 0)), None);
        // A temp is a temp only if the load reads what the store wrote.
        assert_eq!(Fused::of(&[Store(1), Load(2), Store(3)]), None);
    }

    /// Random choices, consumed in order (and again from the start).
    struct Choices<'a>(&'a [u32], usize);

    impl Choices<'_> {
        fn below(&mut self, n: u32) -> u32 {
            self.1 += 1;
            self.0[(self.1 - 1) % self.0.len()] % n
        }

        fn of<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u32) as usize]
        }
    }

    /// A random run of every fused shape, its constants at the edges of
    /// `i32` now and then (some then do not fuse), its slots now and then
    /// outside the locals (there are at most four).
    fn random_run(pick: &mut Choices<'_>) -> Vec<Instr> {
        use Instr::*;
        let mut slot = || pick.of(&[0, 0, 1, 1, 2, 3, 4]);
        let (a, b, d) = (slot(), slot(), slot());
        let k = pick.of(&[-2, 0, 1, 3, i64::from(i32::MIN), i64::from(i32::MAX)]);
        let cmp = pick.of(&[Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge]);
        let (op, t) = (pick.of(&[Add, Sub]), pick.below(40));
        match pick.below(8) {
            0 => vec![Load(a), PushI(k), If(cmp, t)],
            1 => vec![Load(a), Load(b), If(cmp, t)],
            2 => vec![Load(a), IfZ(cmp, t)],
            3 => vec![Load(a), PushI(k), op],
            4 => vec![Load(a), Load(b), op],
            5 => vec![Load(a), PushI(k), op, Store(d)],
            6 => vec![Load(a), Load(b), op, Store(d)],
            _ => vec![Store(a), Load(a), Store(d)],
        }
    }

    /// The slots whose values a fused run needs as `Int`s.
    fn int_slots(run: Fused) -> Vec<u16> {
        match run {
            Fused::LoadConstIf { a, .. }
            | Fused::LoadIfZ { a, .. }
            | Fused::LoadAddConst { a, .. }
            | Fused::LoadAddConstStore { a, .. } => vec![a],
            Fused::LoadLoadIf { a, b, .. }
            | Fused::LoadAddLoad { a, b, .. }
            | Fused::LoadAddLoadStore { a, b, .. } => vec![a, b],
            Fused::StoreLoadStore { .. } => vec![],
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4096))]

        /// `fused_op` against its constituents run one by one through
        /// `window_op`: when it retires the run, they all retire and leave
        /// the same live stack (locals and operands), `sp` and `pc`; when
        /// it refuses, nothing has moved; and it refuses nothing they would
        /// retire on `Int` operands.
        #[test]
        fn a_fused_run_retires_as_its_constituents_or_touches_nothing(
            drawn in proptest::collection::vec(proptest::strategy::any::<u32>(), 24..25),
        ) {
            let mut pick = Choices(&drawn, 0);
            let code = random_run(&mut pick);
            let Some(run) = Fused::of(&code) else {
                // Only a constant that does not fit declines to fuse.
                assert!(code.iter().any(|i| matches!(i, Instr::PushI(_))), "{code:?}");
                continue;
            };
            assert_eq!(run.span(), code.len() as u64);
            assert!(code.iter().all(|i| i.cost() == 1), "{code:?}");
            let value = |pick: &mut Choices<'_>| match pick.below(16) {
                0 => Value::Num(1.5),
                1 => Value::Null,
                2 => Value::Ref(3),
                3 => Value::Int(i64::MIN),
                4 => Value::Int(i64::MAX),
                n => Value::Int(i64::from(n) - 10),
            };
            let values: Vec<Value> = (0..1 + pick.below(7)).map(|_| value(&mut pick)).collect();
            let nlocals = (1 + pick.below(4) as usize).min(values.len());
            let room = pick.below(4) as usize;

            let (fused, after, sp, pc) = with_window(&values, nlocals, room, |w| fused_op(w, run));
            let (plain, by_one, plain_sp, plain_pc) = with_window(&values, nlocals, room, |w| {
                code.iter().all(|i| window_op(w, i).is_ok())
            });
            if fused {
                assert!(plain, "{code:?} over {values:?}");
                assert_eq!((sp, pc), (plain_sp, plain_pc), "{code:?} over {values:?}");
                assert_eq!(after[..sp], by_one[..sp], "{code:?} over {values:?}");
            } else {
                assert_eq!((sp, pc), (values.len(), 7), "{code:?} over {values:?}");
                assert_eq!(&after[..values.len()], values, "{code:?} over {values:?}");
                let ints = int_slots(run)
                    .iter()
                    .all(|&s| matches!(values.get(usize::from(s)), Some(Value::Int(_))));
                assert!(!(plain && ints), "refused a run that retires: {code:?} over {values:?}");
            }
        }
    }

    #[test]
    fn a_line_start_with_operands_is_not_an_msp_row() {
        // pc 1 starts line 2 with one operand on the stack.
        let (rows, _) = rows_of(MethodDef::new("m", 0, 1).with_code(
            vec![Instr::Load(0), Instr::IfZ(Cmp::Eq, 2), Instr::Ret],
            vec![1, 2, 3],
        ));
        let msp: Vec<bool> = rows.iter().map(|r| r.msp).collect();
        assert_eq!(msp, [true, false, true]);
    }

    /// A window over `values`: `nlocals` locals, the rest operands, and
    /// `room` spare slots.
    fn with_window<R>(
        values: &[Value],
        nlocals: usize,
        room: usize,
        f: impl FnOnce(&mut Window<'_>) -> R,
    ) -> (R, Vec<Value>, usize, u32) {
        let heap = Heap::new();
        let mut stack = values.to_vec();
        stack.resize(values.len() + room, Value::Int(0));
        let mut w = Window {
            stack: &mut stack,
            sp: values.len(),
            pc: 7,
            floor: nlocals,
            heap: &heap,
        };
        let r = f(&mut w);
        let (sp, pc) = (w.sp, w.pc);
        (r, stack, sp, pc)
    }

    #[test]
    fn window_op_retires_or_leaves_everything_untouched() {
        let vals = [Value::Int(9), Value::Int(6), Value::Int(3)];
        // 6 - 3 with one local below.
        let (r, stack, sp, pc) = with_window(&vals, 1, 1, |w| window_op(w, &Instr::Sub));
        assert_eq!((r, sp, pc), (Ok(()), 2, 8));
        assert_eq!(stack[..2], [Value::Int(9), Value::Int(3)]);
        // A taken branch pops and lands on its target.
        let (r, _, sp, pc) = with_window(&vals, 1, 1, |w| window_op(w, &Instr::If(Cmp::Gt, 40)));
        assert_eq!((r, sp, pc), (Ok(()), 1, 40));

        // Every refusal leaves sp, pc and the values where they were.
        let cases: [(&[Value], usize, usize, Instr, Exit); 8] = [
            (&vals, 1, 1, Instr::Load(1), Exit::BadSlot(1)),
            (&vals, 3, 1, Instr::Pop, Exit::Underflow),
            (&vals, 2, 1, Instr::Add, Exit::Underflow),
            (&vals, 1, 0, Instr::PushI(1), Exit::Full),
            (&vals, 1, 1, Instr::New(0), Exit::Full),
            (
                &[Value::Int(1), Value::Int(0)],
                0,
                1,
                Instr::Rem,
                Exit::DivZero,
            ),
            (
                &[Value::Num(1.0), Value::Int(2)],
                0,
                1,
                Instr::Mul,
                Exit::Type {
                    expected: Expected::MatchingNumeric,
                    depth: 1,
                },
            ),
            (
                &[Value::Int(1), Value::Null],
                0,
                1,
                Instr::Shl,
                Exit::Type {
                    expected: Expected::Int,
                    depth: 0,
                },
            ),
        ];
        for (values, nlocals, room, instr, exit) in cases {
            let (r, stack, sp, pc) = with_window(values, nlocals, room, |w| window_op(w, &instr));
            assert_eq!(r, Err(exit), "{instr:?}");
            assert_eq!((sp, pc), (values.len(), 7), "{instr:?}");
            assert_eq!(&stack[..values.len()], values, "{instr:?}");
        }
    }

    /// Every opcode, with zero operands: the instruction table's rows, read
    /// back through their codec.
    fn every_opcode() -> Vec<Instr> {
        use crate::wire::Codec;
        let decode = |code| {
            let mut frame = [0; 17];
            frame[0] = code;
            Instr::get(&mut &frame[..]).ok()
        };
        let opcodes: Vec<Instr> = (0..=u8::MAX).filter_map(decode).collect();
        assert_eq!(opcodes.len(), 54);
        opcodes
    }

    /// The table's window, pops and pushes columns are what `window_op`
    /// does, and its cost column is what a row charges.
    #[test]
    fn the_instruction_table_agrees_with_execution() {
        use crate::instr::StackEffect;
        let code = every_opcode();
        for instr in &code {
            let StackEffect { pops, pushes } = instr.stack_effect();
            // One local, `operands` operands and one spare slot, all `v`.
            let run = |v: Value, operands: u32| {
                let values = vec![v; 1 + operands as usize];
                with_window(&values, 1, 1, |w| window_op(w, instr))
            };
            let typed = [Value::Int(1), Value::Num(1.0)];
            if !instr.is_window() {
                for v in typed {
                    assert_eq!(run(v, pops).0, Err(Exit::Full), "{instr:?}");
                }
                continue;
            }
            let retired = typed
                .into_iter()
                .map(|v| run(v, pops))
                .find(|r| r.0.is_ok());
            let Some((_, _, sp, _)) = retired else {
                panic!("{instr:?} is in the window but does not retire");
            };
            assert_eq!(pushes, Some(sp as u32 - 1), "{instr:?}");
            if pops > 0 {
                assert_eq!(
                    run(Value::Int(1), pops - 1).0,
                    Err(Exit::Underflow),
                    "{instr:?}"
                );
            }
        }
        let n = code.len();
        let m = MethodDef::new("m", 0, 0).with_code(code.clone(), vec![1; n]);
        let summary = MethodSummary {
            depth: vec![None; n],
            max_stack: 0,
            msp: vec![false; n],
        };
        for (row, instr) in link_rows(&m, &summary).iter().zip(&code) {
            assert_eq!(u64::from(row.cost), instr.cost(), "{instr:?}");
        }
    }

    #[test]
    fn ic_rows_start_empty() {
        let m = MethodDef::new("m", 0, 0).with_code(vec![Instr::PushI(1), Instr::RetV], vec![1; 2]);
        let row = build_ic_row(&m);
        assert_eq!(row.len(), 2);
        assert!(row.iter().all(|c| !c.is_filled()));
    }
}
