//! VM error types.
//!
//! [`VmError`] covers *engine-level* failures: malformed bytecode, linkage
//! problems, type confusion. These are distinct from *guest-level* Java-style
//! exceptions (`NullPointerException` and friends), which are modelled by
//! [`crate::class::ExKind`] and dispatched through exception tables. A guest
//! exception only becomes a `VmError::UnhandledException` if it escapes the
//! outermost frame.

use std::fmt;

use crate::class::ExKind;

/// Result alias used throughout the VM.
pub type VmResult<T> = Result<T, VmError>;

/// Engine-level errors.
#[derive(Clone, Debug, PartialEq)]
pub enum VmError {
    /// A value had the wrong storage class for an instruction.
    TypeMismatch {
        expected: &'static str,
        found: &'static str,
    },
    /// A reference operation was attempted on `null` (converted into a guest
    /// `NullPointerException` by the interpreter).
    NullDeref,
    /// Operand stack underflow: malformed bytecode.
    StackUnderflow,
    /// A call would grow the thread's value stack past
    /// [`crate::interp::MAX_STACK_SLOTS`] (unbounded guest recursion).
    StackOverflow,
    /// An `Invoke*` site passes `got` arguments to a method declaring
    /// `expected` (cross-class targets resolve at run time, past the
    /// verifier).
    ArityMismatch {
        class: String,
        method: String,
        expected: u16,
        got: u16,
    },
    /// Local-variable slot out of range.
    BadLocalSlot(u16),
    /// Branch or pc outside the method body.
    BadPc(u32),
    /// Constant-pool index out of range.
    BadPoolIndex(u16),
    /// Named class is not loaded and no loader hook produced it.
    ClassNotFound(String),
    /// Named method not found in the named class.
    MethodNotFound { class: String, method: String },
    /// Named field not found.
    FieldNotFound { class: String, field: String },
    /// Named intrinsic not registered.
    UnknownIntrinsic(String),
    /// A guest exception escaped the outermost frame.
    UnhandledException { kind: ExKind, message: String },
    /// Heap reference is stale or out of range.
    BadRef(u32),
    /// The heap's slot arena would pass `u32::MAX` slots.
    SlotArenaFull,
    /// The heap's text arena would pass `u32::MAX` bytes, or its class-name
    /// table `u32::MAX` names.
    TextArenaFull,
    /// A thread id was out of range or the thread has finished.
    BadThread(usize),
    /// Attempted to run a thread that is parked on a host request.
    ThreadParked(usize),
    /// Capture was requested at a point that is not migration-safe.
    NotAtMigrationSafePoint { method: String, pc: u32 },
    /// Restore-session protocol was violated (e.g. `ReadCaptured` outside a
    /// restoration).
    RestoreProtocol(&'static str),
    /// Bytecode failed structural verification.
    Verify { method: String, reason: String },
    /// Wire decoding failed.
    Decode(&'static str),
    /// Wire encoding failed (a length exceeded its prefix width).
    Encode(&'static str),
    /// Class is already loaded.
    DuplicateClass(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            VmError::NullDeref => write!(f, "null dereference"),
            VmError::StackUnderflow => write!(f, "operand stack underflow"),
            VmError::StackOverflow => write!(f, "guest stack overflow"),
            VmError::ArityMismatch {
                class,
                method,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch: {class}.{method} takes {expected} args, call site passes {got}"
            ),
            VmError::BadLocalSlot(s) => write!(f, "local slot {s} out of range"),
            VmError::BadPc(pc) => write!(f, "pc {pc} out of range"),
            VmError::BadPoolIndex(i) => write!(f, "constant pool index {i} out of range"),
            VmError::ClassNotFound(c) => write!(f, "class not found: {c}"),
            VmError::MethodNotFound { class, method } => {
                write!(f, "method not found: {class}.{method}")
            }
            VmError::FieldNotFound { class, field } => {
                write!(f, "field not found: {class}.{field}")
            }
            VmError::UnknownIntrinsic(n) => write!(f, "unknown intrinsic: {n}"),
            VmError::UnhandledException { kind, message } => {
                write!(f, "unhandled guest exception {kind:?}: {message}")
            }
            VmError::BadRef(id) => write!(f, "bad heap reference @{id}"),
            VmError::SlotArenaFull => write!(f, "heap slot arena full (u32 slots)"),
            VmError::TextArenaFull => write!(f, "heap text arena full (u32 bytes or names)"),
            VmError::BadThread(t) => write!(f, "bad thread id {t}"),
            VmError::ThreadParked(t) => write!(f, "thread {t} is parked on a host request"),
            VmError::NotAtMigrationSafePoint { method, pc } => {
                write!(f, "not at a migration-safe point: {method} pc={pc}")
            }
            VmError::RestoreProtocol(m) => write!(f, "restore protocol violation: {m}"),
            VmError::Verify { method, reason } => {
                write!(f, "verification of {method} failed: {reason}")
            }
            VmError::Decode(m) => write!(f, "wire decode error: {m}"),
            VmError::Encode(m) => write!(f, "wire encode error: {m}"),
            VmError::DuplicateClass(c) => write!(f, "class already loaded: {c}"),
        }
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = VmError::MethodNotFound {
            class: "Main".into(),
            method: "run".into(),
        };
        assert!(e.to_string().contains("Main.run"));
        let e = VmError::UnhandledException {
            kind: ExKind::NullPointer,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
    }
}
