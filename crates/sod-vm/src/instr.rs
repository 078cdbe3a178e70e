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

/// One bytecode instruction.
///
/// `u16` operands index the class string pool unless noted; `u32` operands
/// are absolute branch targets (instruction indices). Every payload is a
/// primitive (switch tables live in [`crate::class::MethodDef::switches`],
/// referenced by index), so the whole enum is `Copy`: the interpreter's
/// fetch is a register-width move, never a clone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Instr {
    // -- constants ---------------------------------------------------------
    /// Push an integer constant.
    PushI(i64),
    /// Push a float constant.
    PushF(f64),
    /// Push an interned string object for pool entry (JVM `ldc`).
    PushStr(u16),
    /// Push `null`.
    PushNull,

    // -- locals & stack ----------------------------------------------------
    /// Push local slot.
    Load(u16),
    /// Pop into local slot.
    Store(u16),
    /// Duplicate top of stack.
    Dup,
    /// Discard top of stack.
    Pop,
    /// Swap the two top stack values.
    Swap,

    // -- arithmetic (polymorphic over Int/Num where sensible) ---------------
    Add,
    Sub,
    Mul,
    /// Integer division by zero raises a guest `DivByZero` exception.
    Div,
    Rem,
    Neg,
    /// Integer shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    BAnd,
    BOr,
    BXor,
    /// Int → Num conversion (JVM `i2d`).
    I2F,
    /// Num → Int truncation (JVM `d2i`).
    F2I,

    // -- control flow --------------------------------------------------------
    /// Pop `b`, pop `a`; branch if `a cmp b`.
    If(Cmp, u32),
    /// Pop `a`; branch if `a cmp 0`.
    IfZ(Cmp, u32),
    /// Pop a reference; branch if null.
    IfNull(u32),
    /// Pop a reference; branch if non-null.
    IfNonNull(u32),
    Goto(u32),
    /// Pop an int key and jump through the method's switch table
    /// (JVM `lookupswitch`); operand indexes [`crate::class::MethodDef::switches`].
    Switch(u16),

    // -- objects -------------------------------------------------------------
    /// Allocate an instance of the named class (pool index).
    New(u16),
    /// Pop object ref; push value of named instance field.
    GetField(u16),
    /// Pop value, pop object ref; store into named instance field.
    PutField(u16),
    /// Push value of static field `(class, field)`.
    GetStatic(u16, u16),
    /// Pop value into static field `(class, field)`.
    PutStatic(u16, u16),

    // -- arrays --------------------------------------------------------------
    /// Pop length; allocate an array filled with `Int(0)`.
    NewArr,
    /// Pop index, pop array ref; push element.
    ALoad,
    /// Pop value, pop index, pop array ref; store element.
    AStore,
    /// Pop array ref; push length.
    ArrLen,

    // -- calls ---------------------------------------------------------------
    /// Call `class.method` with `nargs` popped arguments (pool, pool, count).
    InvokeStatic(u16, u16, u8),
    /// Call `method` on a receiver: `nargs` includes the receiver, which is
    /// arg 0. Dispatch uses the receiver's runtime class.
    InvokeVirtual(u16, u8),
    /// Return with no value.
    Ret,
    /// Pop and return a value.
    RetV,

    // -- exceptions ------------------------------------------------------------
    /// Construct and throw a guest exception of the given kind.
    ThrowKind(ExKind),
    /// Pop an exception object (created by `New` on an exception class) and
    /// throw it as `ExKind::User`.
    Throw,

    // -- host calls --------------------------------------------------------------
    /// Call the named intrinsic with `nargs` popped arguments; pushes one
    /// result value (pure intrinsics run inline, host intrinsics park the
    /// thread and surface as [`crate::interp::StepOutcome::HostCall`]).
    NativeCall(u16, u8),

    // -- SOD restoration handlers (preprocessor-injected) -------------------------
    /// Inside a restoration handler: push the captured value of local `slot`
    /// from the active restore session.
    ReadCaptured(u16),
    /// Push the captured pc (as Int) of the frame being restored.
    ReadCapturedPc,
    /// Fused `ReadCaptured` + `Store`: install the captured value of local
    /// `slot` into the frame, marking the slot *restored-null* when the
    /// captured value was a live reference (so later null derefs on it are
    /// treated as object faults, not application NPEs).
    RestoreLocal(u16),

    // -- SOD object fault handlers (preprocessor-injected) ------------------------
    /// Fetch the home value of local `slot` of the faulting frame and store
    /// it into that slot.
    BringObjLocal(u16),
    /// Fetch field `.1` of the object in base slot `.0` from home; rebind
    /// the local copy's field.
    BringObjField(u16, u16),
    /// Fetch static `(class .0, field .1)` from home, install it in the local
    /// statics, and also store it into dest slot `.2` (rebinding the temp that
    /// was assigned from the stale null static).
    BringObjStaticTo(u16, u16, u16),
    /// Fetch element `[idx slot .1]` of the array in base slot `.0`; store
    /// the fetched ref into dest slot `.2`.
    BringObjElemTo(u16, u16, u16),
    /// Re-throw the `NullPointerException` that triggered the enclosing fault
    /// handler as an *application-level* NPE (skipping fault handlers), used
    /// when the home object is genuinely null.
    RethrowAppNpe,

    // -- status-checking baseline (traditional object-based DSM) ------------------
    /// Peek the reference at stack depth `.0` (0 = top) and check its status
    /// word; if the object is a remote/invalid stub, park and fetch it. This
    /// is the per-access check the paper's Fig. 5 B1 variant injects — its
    /// cost is paid on *every* access, which is exactly what Table V
    /// measures against SOD's free-on-fast-path object faulting.
    CheckStatus(u8),

    /// No operation.
    Nop,
}

impl Instr {
    /// What this instruction does to the operand stack: the one table of
    /// stack effects. Verification requires at least `pops` values before
    /// it executes.
    pub fn stack_effect(&self) -> StackEffect {
        use Instr::*;
        let (pops, pushes) = match *self {
            PushI(_) | PushF(_) | PushStr(_) | PushNull | Load(_) => (0, Some(1)),
            New(_) | GetStatic(_, _) | ReadCaptured(_) | ReadCapturedPc => (0, Some(1)),
            Goto(_) | Nop | RestoreLocal(_) | CheckStatus(_) => (0, Some(0)),
            BringObjLocal(_) | BringObjField(_, _) => (0, Some(0)),
            BringObjStaticTo(_, _, _) | BringObjElemTo(_, _, _) => (0, Some(0)),
            Store(_) | Pop | IfZ(_, _) | IfNull(_) | IfNonNull(_) => (1, Some(0)),
            Switch(_) | PutStatic(_, _) => (1, Some(0)),
            Neg | I2F | F2I | GetField(_) | NewArr | ArrLen => (1, Some(1)),
            Dup => (1, Some(2)),
            Add | Sub | Mul | Div | Rem | Shl | Shr | BAnd | BOr | BXor | ALoad => (2, Some(1)),
            If(_, _) | PutField(_) => (2, Some(0)),
            Swap => (2, Some(2)),
            AStore => (3, Some(0)),
            InvokeStatic(_, _, n) | InvokeVirtual(_, n) | NativeCall(_, n) => {
                (u32::from(n), Some(1))
            }
            Ret | ThrowKind(_) | RethrowAppNpe => (0, None),
            RetV | Throw => (1, None),
        };
        StackEffect { pops, pushes }
    }

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

    /// Whether control can fall through to the next instruction.
    pub fn falls_through(&self) -> bool {
        use Instr::*;
        !matches!(
            self,
            Goto(_) | Ret | RetV | ThrowKind(_) | Throw | Switch(_) | RethrowAppNpe
        )
    }

    /// Whether this instruction dereferences an object reference and can
    /// therefore raise a guest `NullPointerException` — the instructions the
    /// preprocessor must cover with object-fault handlers or status checks.
    pub fn is_deref(&self) -> bool {
        use Instr::*;
        matches!(
            self,
            GetField(_) | PutField(_) | ALoad | AStore | ArrLen | InvokeVirtual(_, _) | Throw
        )
    }

    /// Whether this instruction is a *barrier* for statement rearrangement:
    /// an effectful operation after which the preprocessor cuts the
    /// statement (spilling the operand stack to temps) so that every
    /// statement performs at most one such operation and every statement
    /// start is a migration-safe-point candidate.
    pub fn is_barrier(&self) -> bool {
        use Instr::*;
        matches!(
            self,
            GetField(_)
                | PutField(_)
                | ALoad
                | AStore
                | ArrLen
                | InvokeStatic(_, _, _)
                | InvokeVirtual(_, _)
                | NativeCall(_, _)
                | New(_)
                | NewArr
                | GetStatic(_, _)
                | PutStatic(_, _)
        )
    }

    /// For deref instructions: operand-stack depth (from the top, 0-based)
    /// of the reference being dereferenced at the moment of execution.
    pub fn deref_depth(&self) -> Option<u32> {
        use Instr::*;
        Some(match self {
            GetField(_) | ArrLen | Throw => 0,
            PutField(_) | ALoad => 1,
            AStore => 2,
            InvokeVirtual(_, n) => u32::from(*n) - 1,
            _ => return None,
        })
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
