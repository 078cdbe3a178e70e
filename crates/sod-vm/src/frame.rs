//! Activation records (stack frames).
//!
//! A [`Frame`] is exactly the paper's unit of migration: method identity,
//! program counter, local variables, and an operand stack. SOD's key
//! invariant — established by the preprocessor's bytecode rearrangement — is
//! that at every migration-safe point the operand stack is *empty*, so a
//! captured frame is fully described by `(class, method, pc, locals)`.
//!
//! A frame owns no storage. It is a *window* into its thread's one
//! contiguous value stack ([`crate::interp::VmThread`]):
//!
//! ```text
//!   stack:  | caller locals | caller operands | callee locals | callee operands |
//!           ^ caller.base                     ^ callee.base                     ^ len
//! ```
//!
//! Locals are `stack[base .. base + nlocals]`; operands sit above them and
//! end where the next frame's `base` begins (the top frame's end at the
//! stack's length). A call leaves the arguments where the caller pushed
//! them — they *are* the callee's first locals, as on the JVM — zero-fills
//! the remaining local slots and pushes a window; a return truncates the
//! stack to the callee's `base`. No call or return allocates.

/// One activation record: a window into the owning thread's value stack.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Index of the class in the VM's loaded-class table.
    pub class_idx: usize,
    /// Index of the method within its class.
    pub method_idx: usize,
    /// Next instruction to execute (bytecode index).
    pub pc: u32,
    /// Stack index of local slot 0 (arguments first).
    pub base: usize,
    /// Number of local slots; operands start at `base + nlocals`.
    pub nlocals: u16,
    /// Pinned frames may not migrate (the paper pins frames holding socket
    /// connections so the web server keeps its connections at home).
    pub pinned: bool,
}

impl Frame {
    /// Stack index of the first operand slot (one past the last local).
    #[inline]
    pub fn floor(&self) -> usize {
        self.base + self.nlocals as usize
    }
}
