//! The bytecode instruction set.
//!
//! The ISA is a compact JVM-like subset plus a handful of instructions that
//! exist only because the SOD preprocessor injects them:
//!
//! * [`Instr::ReadCaptured`] / [`Instr::ReadCapturedPc`] — used inside
//!   *restoration handlers* (the paper's `CapturedState.read<Type>` calls) to
//!   rebuild local variables and the saved program counter when a migrated
//!   frame is re-established by throwing `InvalidStateException` into a
//!   freshly invoked method.
//! * The `Bring*` family — used inside *object fault handlers* (the paper's
//!   `ObjMan.bringObj` calls) to fetch a missed object from the home node and
//!   rebind the null link that faulted, then retry the statement.
//!
//! Branch targets are absolute instruction indices (our "bytecode index",
//! `bci`). Name references (classes, methods, fields, intrinsics, strings)
//! are indices into the owning class's string pool — resolution happens at
//! link time inside the VM, which is what lets class files travel between
//! nodes byte-for-byte, as SOD's on-demand code shipping requires.

use crate::class::ExKind;

/// Comparison operators for fused compare-and-branch instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    /// Evaluate on the ordering `a ? b` given `a.cmp(&b)` as an i32 sign.
    pub fn eval_sign(self, sign: i32) -> bool {
        match self {
            Cmp::Eq => sign == 0,
            Cmp::Ne => sign != 0,
            Cmp::Lt => sign < 0,
            Cmp::Le => sign <= 0,
            Cmp::Gt => sign > 0,
            Cmp::Ge => sign >= 0,
        }
    }
}

/// Declares the instruction set, one row per opcode in declaration order:
///
/// ```text
/// Variant(operand: Type, ..) = code, pops, pushes, cost, window, class, barrier, flow, call, deref;
/// ```
///
/// From the rows come [`Instr`] itself, its class-frame codec
/// (`wire::code_table!`: the code byte, then the operands in the order
/// listed) and every per-opcode lookup of `impl Instr` below, so no other
/// `match` over the variants states one of these facts; only the code that
/// executes instructions (`fastpath::window_op`, `Vm::exec_instr`) matches
/// on its own. `-` is an empty cell. The cells:
///
/// * `code`: the opcode byte.
/// * `pops`, `pushes`: what [`Instr::stack_effect`] says; `pops` may name a
///   count operand.
/// * `cost`: virtual ns per execution in JIT mode ([`Instr::cost`]).
/// * `window`: `window` where [`Instr::is_window`] holds.
/// * `class`: the operand [`Instr::class_operand`] reads.
/// * `barrier`: `barrier` where [`Instr::is_barrier`] holds.
/// * `flow`: `next` falls through, `jump` only branches, and `end` ends the
///   frame (no successor, and `pushes` is `None`).
/// * `call`: the [`Call`] it makes.
/// * `deref`: [`Instr::deref_depth`]; `(n - 1)` is the deepest of `n`
///   values (a virtual call's receiver), and none when `n` is 0.
macro_rules! instr_table {
    (@pushes end $n:literal) => { None };
    (@pushes $flow:ident $n:literal) => { Some($n) };
    (@falls next) => { true };
    (@falls jump) => { false };
    (@falls end) => { false };
    (@window -) => { false };
    (@window window) => { true };
    (@barrier -) => { false };
    (@barrier barrier) => { true };
    (@count $n:literal) => { $n };
    (@count $op:ident) => { u32::from($op) };
    (@opt -) => { return None };
    (@opt ($op:ident - 1)) => { u32::from($op).checked_sub(1)? };
    (@opt $cell:tt) => { $cell };
    (@call -) => { None };
    (@call $kind:ident) => { Some(Call::$kind) };
    ($(
        $(#[$doc:meta])*
        $v:ident $(($($op:ident: $opty:ty),+))? = $code:literal, $pops:tt, $pushes:literal,
            $cost:literal, $window:tt, $class:tt, $barrier:tt, $flow:ident, $call:tt, $deref:tt;
    )*) => {
        /// One bytecode instruction.
        ///
        /// `u16` operands index the class string pool unless noted; `u32`
        /// operands are absolute branch targets (instruction indices). Every
        /// payload is a primitive (switch tables live in
        /// [`crate::class::MethodDef::switches`], referenced by index), so the
        /// whole enum is `Copy`: the interpreter's fetch is a register-width
        /// move, never a clone.
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub enum Instr {
            $($(#[$doc])* $v $(($($opty),+))?,)*
        }

        crate::wire::code_table!(Instr, "bad opcode", {
            $($code => $v $(($($op: $opty),+))?,)*
        });

        // Every arm binds its row's operands; a cell reads the ones it needs.
        #[allow(unused_variables)]
        impl Instr {
            /// What this instruction does to the operand stack.
            /// Verification requires at least `pops` values before it
            /// executes.
            pub fn stack_effect(&self) -> StackEffect {
                let (pops, pushes) = match *self {
                    $(Instr::$v $(($($op),+))? => {
                        (instr_table!(@count $pops), instr_table!(@pushes $flow $pushes))
                    })*
                };
                StackEffect { pops, pushes }
            }

            /// Cost in virtual nanoseconds of executing this instruction
            /// once in JIT mode. Looked up once per pc at link time
            /// (`fastpath::Row::cost`); each execution scales and charges
            /// it separately, because per-charge rounding does not
            /// distribute over a summed cost.
            pub fn cost(&self) -> u64 {
                match *self {
                    $(Instr::$v { .. } => $cost,)*
                }
            }

            /// Whether [`window_op`](crate::fastpath::window_op) retires this
            /// instruction, given well-typed operands and room for its
            /// push. Every other instruction runs on the full path.
            pub fn is_window(&self) -> bool {
                match *self {
                    $(Instr::$v { .. } => instr_table!(@window $window),)*
                }
            }

            /// The operand-stack depth (from the top, 0-based) of the
            /// reference this instruction dereferences, where a null there
            /// is an object fault: the instructions the preprocessor covers
            /// with fault handlers or status checks. (`Throw` reads a
            /// reference too, but a thrown null is the guest's own
            /// `NullPointerException`, which no handler rebinds.)
            pub fn deref_depth(&self) -> Option<u32> {
                Some(match *self {
                    $(Instr::$v $(($($op),+))? => instr_table!(@opt $deref),)*
                })
            }

            /// The pool index of the class this instruction names (the
            /// allocated class, a static member's owner, a static call's
            /// target): what [`crate::class::ClassDef::referenced_classes`]
            /// collects.
            pub fn class_operand(&self) -> Option<u16> {
                Some(match *self {
                    $(Instr::$v $(($($op),+))? => instr_table!(@opt $class),)*
                })
            }

            /// Whether this instruction is a *barrier* for statement
            /// rearrangement: an effectful operation after which the
            /// preprocessor cuts the statement (spilling the operand stack
            /// to temps) so that every statement performs at most one such
            /// operation and every statement start is a migration-safe-point
            /// candidate.
            pub fn is_barrier(&self) -> bool {
                match *self {
                    $(Instr::$v { .. } => instr_table!(@barrier $barrier),)*
                }
            }

            /// Whether control can fall through to the next instruction.
            pub fn falls_through(&self) -> bool {
                match *self {
                    $(Instr::$v { .. } => instr_table!(@falls $flow),)*
                }
            }

            /// The call this instruction makes, if it makes one.
            pub fn call(&self) -> Option<Call> {
                match *self {
                    $(Instr::$v { .. } => instr_table!(@call $call),)*
                }
            }
        }
    };
}

instr_table! {
    // Variant(operands)                                  code pops   pushes cost window  class  barrier  flow  call    deref

    // -- constants -------------------------------------------------------------
    /// Push an integer constant.
    PushI(v: i64)                                       = 0,   0,     1,     1,   window, -,     -,       next, -,      -;
    /// Push a float constant.
    PushF(v: f64)                                       = 1,   0,     1,     1,   window, -,     -,       next, -,      -;
    /// Push an interned string object for pool entry (JVM `ldc`).
    PushStr(s: u16)                                     = 2,   0,     1,     4,   -,      -,     -,       next, -,      -;
    /// Push `null`.
    PushNull                                            = 3,   0,     1,     1,   window, -,     -,       next, -,      -;

    // -- locals & stack --------------------------------------------------------
    /// Push local slot.
    Load(slot: u16)                                     = 4,   0,     1,     1,   window, -,     -,       next, -,      -;
    /// Pop into local slot.
    Store(slot: u16)                                    = 5,   1,     0,     1,   window, -,     -,       next, -,      -;
    /// Duplicate top of stack.
    Dup                                                 = 6,   1,     2,     1,   window, -,     -,       next, -,      -;
    /// Discard top of stack.
    Pop                                                 = 7,   1,     0,     1,   window, -,     -,       next, -,      -;
    /// Swap the two top stack values.
    Swap                                                = 8,   2,     2,     1,   window, -,     -,       next, -,      -;

    // -- arithmetic (polymorphic over Int/Num where sensible) -------------------
    Add                                                 = 9,   2,     1,     1,   window, -,     -,       next, -,      -;
    Sub                                                 = 10,  2,     1,     1,   window, -,     -,       next, -,      -;
    Mul                                                 = 11,  2,     1,     2,   window, -,     -,       next, -,      -;
    /// Integer division by zero raises a guest `DivByZero` exception.
    Div                                                 = 12,  2,     1,     8,   window, -,     -,       next, -,      -;
    Rem                                                 = 13,  2,     1,     8,   window, -,     -,       next, -,      -;
    Neg                                                 = 14,  1,     1,     1,   window, -,     -,       next, -,      -;
    /// Integer shift left.
    Shl                                                 = 15,  2,     1,     1,   window, -,     -,       next, -,      -;
    /// Arithmetic shift right.
    Shr                                                 = 16,  2,     1,     1,   window, -,     -,       next, -,      -;
    BAnd                                                = 17,  2,     1,     1,   window, -,     -,       next, -,      -;
    BOr                                                 = 18,  2,     1,     1,   window, -,     -,       next, -,      -;
    BXor                                                = 19,  2,     1,     1,   window, -,     -,       next, -,      -;
    /// Int → Num conversion (JVM `i2d`).
    I2F                                                 = 20,  1,     1,     1,   window, -,     -,       next, -,      -;
    /// Num → Int truncation (JVM `d2i`).
    F2I                                                 = 21,  1,     1,     1,   window, -,     -,       next, -,      -;

    // -- control flow ------------------------------------------------------------
    /// Pop `b`, pop `a`; branch if `a cmp b`.
    If(cmp: Cmp, target: u32)                           = 22,  2,     0,     1,   window, -,     -,       next, -,      -;
    /// Pop `a`; branch if `a cmp 0`.
    IfZ(cmp: Cmp, target: u32)                          = 23,  1,     0,     1,   window, -,     -,       next, -,      -;
    /// Pop a reference; branch if null.
    IfNull(target: u32)                                 = 24,  1,     0,     1,   window, -,     -,       next, -,      -;
    /// Pop a reference; branch if non-null.
    IfNonNull(target: u32)                              = 25,  1,     0,     1,   window, -,     -,       next, -,      -;
    Goto(target: u32)                                   = 26,  0,     0,     1,   window, -,     -,       jump, -,      -;
    /// Pop an int key and jump through the method's switch table
    /// (JVM `lookupswitch`); operand indexes [`crate::class::MethodDef::switches`].
    Switch(table: u16)                                  = 27,  1,     0,     6,   -,      -,     -,       jump, -,      -;

    // -- objects -----------------------------------------------------------------
    /// Allocate an instance of the named class (pool index).
    New(class: u16)                                     = 28,  0,     1,     30,  -,      class, barrier, next, -,      -;
    /// Pop object ref; push value of named instance field.
    GetField(field: u16)                                = 29,  1,     1,     3,   -,      -,     barrier, next, -,      0;
    /// Pop value, pop object ref; store into named instance field.
    PutField(field: u16)                                = 30,  2,     0,     3,   -,      -,     barrier, next, -,      1;
    /// Push value of static field `(class, field)`.
    GetStatic(class: u16, field: u16)                   = 31,  0,     1,     2,   -,      class, barrier, next, -,      -;
    /// Pop value into static field `(class, field)`.
    PutStatic(class: u16, field: u16)                   = 32,  1,     0,     2,   -,      class, barrier, next, -,      -;

    // -- arrays ------------------------------------------------------------------
    /// Pop length; allocate an array filled with `Int(0)`.
    NewArr                                              = 33,  1,     1,     25,  -,      -,     barrier, next, -,      -;
    /// Pop index, pop array ref; push element.
    ALoad                                               = 34,  2,     1,     2,   -,      -,     barrier, next, -,      1;
    /// Pop value, pop index, pop array ref; store element.
    AStore                                              = 35,  3,     0,     2,   -,      -,     barrier, next, -,      2;
    /// Pop array ref; push length.
    ArrLen                                              = 36,  1,     1,     2,   -,      -,     barrier, next, -,      0;

    // -- calls -------------------------------------------------------------------
    /// Call `class.method` with `nargs` popped arguments (pool, pool, count).
    InvokeStatic(class: u16, method: u16, nargs: u8)    = 37,  nargs, 1,     12,  -,      class, barrier, next, Guest,  -;
    /// Call `method` on a receiver: `nargs` includes the receiver, which is
    /// arg 0 (the verifier refuses a call without one). Dispatch uses the
    /// receiver's runtime class.
    InvokeVirtual(method: u16, nargs: u8)               = 38,  nargs, 1,     12,  -,      -,     barrier, next, Guest,  (nargs - 1);
    /// Return with no value.
    Ret                                                 = 39,  0,     0,     6,   -,      -,     -,       end,  -,      -;
    /// Pop and return a value.
    RetV                                                = 40,  1,     0,     6,   -,      -,     -,       end,  -,      -;

    // -- exceptions --------------------------------------------------------------
    /// Construct and throw a guest exception of the given kind.
    ThrowKind(kind: ExKind)                             = 41,  0,     0,     400, -,      -,     -,       end,  -,      -;
    /// Pop an exception object (created by `New` on an exception class) and
    /// throw it as `ExKind::User`.
    Throw                                               = 42,  1,     0,     400, -,      -,     -,       end,  -,      -;

    // -- host calls --------------------------------------------------------------
    /// Call the named intrinsic with `nargs` popped arguments; pushes one
    /// result value (pure intrinsics run inline, host intrinsics park the
    /// thread and surface as [`crate::interp::StepOutcome::HostCall`]).
    NativeCall(name: u16, nargs: u8)                    = 43,  nargs, 1,     40,  -,      -,     barrier, next, Native, -;

    // -- SOD restoration handlers (preprocessor-injected) ------------------------
    /// Inside a restoration handler: push the captured value of local `slot`
    /// from the active restore session.
    ReadCaptured(slot: u16)                             = 44,  0,     1,     20,  -,      -,     -,       next, -,      -;
    /// Push the captured pc (as Int) of the frame being restored.
    ReadCapturedPc                                      = 45,  0,     1,     20,  -,      -,     -,       next, -,      -;
    /// Fused `ReadCaptured` + `Store`: install the captured value of local
    /// `slot` into the frame, marking the slot *restored-null* when the
    /// captured value was a live reference (so later null derefs on it are
    /// treated as object faults, not application NPEs).
    RestoreLocal(slot: u16)                             = 53,  0,     0,     25,  -,      -,     -,       next, -,      -;

    // -- SOD object fault handlers (preprocessor-injected) -----------------------
    /// Fetch the home value of local `slot` of the faulting frame and store
    /// it into that slot.
    BringObjLocal(slot: u16)                            = 46,  0,     0,     50,  -,      -,     -,       next, -,      -;
    /// Fetch field `.1` of the object in base slot `.0` from home; rebind
    /// the local copy's field.
    BringObjField(base: u16, field: u16)                = 47,  0,     0,     50,  -,      -,     -,       next, -,      -;
    /// Fetch static `(class .0, field .1)` from home, install it in the local
    /// statics, and also store it into dest slot `.2` (rebinding the temp that
    /// was assigned from the stale null static).
    BringObjStaticTo(class: u16, field: u16, dest: u16) = 48,  0,     0,     50,  -,      class, -,       next, -,      -;
    /// Fetch element `[idx slot .1]` of the array in base slot `.0`; store
    /// the fetched ref into dest slot `.2`.
    BringObjElemTo(base: u16, index: u16, dest: u16)    = 49,  0,     0,     50,  -,      -,     -,       next, -,      -;
    /// Re-throw the `NullPointerException` that triggered the enclosing fault
    /// handler as an *application-level* NPE (skipping fault handlers), used
    /// when the home object is genuinely null.
    RethrowAppNpe                                       = 50,  0,     0,     400, -,      -,     -,       end,  -,      -;

    // -- status-checking baseline (traditional object-based DSM) -----------------
    /// Peek the reference at stack depth `.0` (0 = top) and check its status
    /// word; if the object is a remote/invalid stub, park and fetch it. This
    /// is the per-access check the paper's Fig. 5 B1 variant injects — its
    /// cost (one status-word load, a compare and a branch) is paid on
    /// *every* access, which is exactly what Table V measures against SOD's
    /// free-on-fast-path object faulting.
    CheckStatus(depth: u8)                              = 52,  0,     0,     2,   -,      -,     -,       next, -,      -;

    /// No operation.
    Nop                                                 = 51,  0,     0,     1,   window, -,     -,       next, -,      -;
}

// The interpreter's fetch is a register-width move, and a dispatch row
// (`fastpath::Row`) holds one instruction in its 40 bytes.
const _: () = assert!(std::mem::size_of::<Instr>() == 16);

impl Instr {
    /// Net change this instruction applies to the operand-stack depth,
    /// or `None` for returns/throws (which tear the frame down).
    ///
    /// Used by the [analysis](crate::analysis) pass to abstract-interpret
    /// stack depths and find migration-safe points.
    pub fn stack_delta(&self) -> Option<i32> {
        let StackEffect { pops, pushes } = self.stack_effect();
        pushes.map(|pushes| pushes as i32 - pops as i32)
    }

    /// All branch targets encoded in this instruction (switch targets are
    /// held in the method's switch tables and not included here).
    pub fn branch_targets(&self) -> Vec<u32> {
        use Instr::*;
        match self {
            If(_, t) | IfZ(_, t) | IfNull(t) | IfNonNull(t) | Goto(t) => vec![*t],
            _ => Vec::new(),
        }
    }

    /// Remap every branch target through `f` (used by the preprocessor when
    /// it splices instructions into a method body).
    pub fn map_targets(&mut self, f: impl Fn(u32) -> u32) {
        use Instr::*;
        match self {
            If(_, t) | IfZ(_, t) | IfNull(t) | IfNonNull(t) | Goto(t) => *t = f(*t),
            _ => {}
        }
    }
}

/// An instruction's effect on the operand stack (see
/// [`Instr::stack_effect`]).
#[derive(Clone, Copy, Debug)]
pub struct StackEffect {
    /// Values popped.
    pub pops: u32,
    /// Values pushed after the pops; `None` for the instructions that end
    /// the frame (returns and throws).
    pub pushes: Option<u32>,
}

/// The call an instruction makes (see [`Instr::call`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `InvokeStatic`, `InvokeVirtual`: a guest frame is pushed, so the
    /// call's pc is where a restored caller resumes.
    Guest,
    /// `NativeCall`: an intrinsic runs, and no frame is pushed.
    Native,
}

/// One `lookupswitch`-style jump table: `(key, target)` pairs plus a default
/// target. Keys are matched exactly.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SwitchTable {
    pub pairs: Vec<(i64, u32)>,
    pub default: u32,
}

impl SwitchTable {
    /// Resolve a key to a branch target.
    pub fn lookup(&self, key: i64) -> u32 {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, t)| *t)
            .unwrap_or(self.default)
    }

    /// All targets (pairs plus default).
    pub fn targets(&self) -> impl Iterator<Item = u32> + '_ {
        self.pairs
            .iter()
            .map(|(_, t)| *t)
            .chain(std::iter::once(self.default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval() {
        assert!(Cmp::Eq.eval_sign(0));
        assert!(Cmp::Ne.eval_sign(1));
        assert!(Cmp::Lt.eval_sign(-1));
        assert!(Cmp::Le.eval_sign(0));
        assert!(Cmp::Gt.eval_sign(1));
        assert!(Cmp::Ge.eval_sign(0));
        assert!(!Cmp::Lt.eval_sign(1));
    }

    #[test]
    fn switch_lookup() {
        let t = SwitchTable {
            pairs: vec![(0, 10), (8, 20), (17, 30)],
            default: 0,
        };
        assert_eq!(t.lookup(8), 20);
        assert_eq!(t.lookup(17), 30);
        assert_eq!(t.lookup(99), 0);
        assert_eq!(t.targets().count(), 4);
    }

    #[test]
    fn map_targets_rewrites_branches() {
        let mut i = Instr::Goto(5);
        i.map_targets(|t| t + 100);
        assert_eq!(i, Instr::Goto(105));
        let mut i = Instr::If(Cmp::Lt, 3);
        i.map_targets(|t| t * 2);
        assert_eq!(i, Instr::If(Cmp::Lt, 6));
        let mut i = Instr::Add;
        i.map_targets(|_| unreachable!());
        assert_eq!(i, Instr::Add);
    }

    #[test]
    fn falls_through_classification() {
        assert!(Instr::Add.falls_through());
        assert!(Instr::If(Cmp::Eq, 0).falls_through());
        assert!(!Instr::Goto(0).falls_through());
        assert!(!Instr::Ret.falls_through());
        assert!(!Instr::Switch(0).falls_through());
    }
}
