//! # sod-preprocess — the SOD bytecode preprocessor
//!
//! Offline, automatic, one-off bytecode-to-bytecode transformation, exactly
//! as the paper's *class preprocessor* (built on BCEL) performs before class
//! loading. Three passes:
//!
//! 1. **Statement rearrangement** ([`rearrange`]) — split source lines after
//!    every effectful ("barrier") instruction, spilling the operand stack
//!    into fresh temporary locals and reloading at the start of the next
//!    statement. Afterwards *every statement start has an empty operand
//!    stack* — maximizing migration-safe points — and every statement
//!    contains at most one barrier, which makes object-fault handlers
//!    unambiguous. This is the paper's `tmp1 = r.nextInt(); tmp2 = (int)
//!    p.getX(); p.x = tmp1 + tmp2` transformation (Fig. 4a).
//! 2. **Object-fault handlers** ([`fault`]) — per-statement
//!    `catch (NullPointerException)` handlers that call the object manager
//!    (`BringObj*` instructions) to fetch the missed object from home and
//!    retry the statement (Fig. 5 B2/J2). The *alternative* traditional
//!    instrumentation, per-access status checks (Fig. 5 B1/J1), is
//!    implemented by [`checks`] for the Table V comparison.
//! 3. **Restoration handlers** ([`restore`]) — a whole-body
//!    `catch (InvalidStateException)` that rebuilds local variables from the
//!    shipped `CapturedState` and `lookupswitch`-jumps to the saved pc
//!    (Fig. 4a grey block), enabling the breakpoint-driven portable restore
//!    protocol (Fig. 4b).
//!
//! [`preprocess`] runs the configured passes and reports size/shape
//! statistics (the paper's Fig. 5 compares 501 → 667 → 902 bytes for the
//! original, status-checked, and fault-handler variants of one class).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod checks;
pub mod fault;
pub mod rearrange;
pub mod restore;
mod splice;

use sod_vm::analysis::class_summaries;
use sod_vm::class::ClassDef;
use sod_vm::error::VmResult;
use sod_vm::wire::class_wire_bytes;

/// How remote-object misses are detected after a migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteAccess {
    /// SOD object faulting: null-pointer-exception handlers, zero cost on
    /// the fast path (the paper's approach).
    Faulting,
    /// Traditional object-based DSM: a status-word check before every
    /// access (JavaSplit-style baseline).
    StatusChecks,
    /// No remote-access instrumentation (plain local execution).
    None,
}

/// Preprocessing configuration.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Run statement rearrangement (pass 1).
    pub rearrange: bool,
    /// Remote-access detection instrumentation (pass 2).
    pub remote_access: RemoteAccess,
    /// Inject restoration handlers (pass 3).
    pub restoration: bool,
}

impl Options {
    /// The paper's full SOD configuration.
    pub fn sod() -> Self {
        Options {
            rearrange: true,
            remote_access: RemoteAccess::Faulting,
            restoration: true,
        }
    }

    /// The traditional status-checking configuration (Table V baseline).
    pub fn status_checks() -> Self {
        Options {
            rearrange: true,
            remote_access: RemoteAccess::StatusChecks,
            restoration: true,
        }
    }

    /// Rearrangement only (for MSP-density experiments).
    pub fn rearrange_only() -> Self {
        Options {
            rearrange: true,
            remote_access: RemoteAccess::None,
            restoration: false,
        }
    }
}

impl Default for Options {
    fn default() -> Self {
        Options::sod()
    }
}

/// Statistics about one preprocessed class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Statement cuts introduced by rearrangement.
    pub cuts: usize,
    /// Temporary locals added across all methods.
    pub temps_added: usize,
    /// Object-fault handlers injected.
    pub fault_handlers: usize,
    /// Status checks injected.
    pub status_checks: usize,
    /// Restoration handlers injected (one per method).
    pub restoration_handlers: usize,
    /// Serialized class size before preprocessing (the "class file size").
    pub original_bytes: u64,
    /// Serialized class size after preprocessing.
    pub processed_bytes: u64,
    /// Migration-safe points before preprocessing (across methods).
    pub msps_before: usize,
    /// Migration-safe points after preprocessing.
    pub msps_after: usize,
}

/// Run the configured passes over `class`, returning the transformed class
/// and statistics. The input class is not modified.
pub fn preprocess(class: &ClassDef, opts: &Options) -> VmResult<(ClassDef, PreprocessStats)> {
    let mut stats = PreprocessStats {
        original_bytes: class_wire_bytes(class),
        msps_before: count_msps(class)?,
        ..Default::default()
    };
    let mut out = class.clone();

    if opts.rearrange {
        let r = rearrange::rearrange_class(&mut out)?;
        stats.cuts = r.cuts;
        stats.temps_added = r.temps_added;
    }

    match opts.remote_access {
        RemoteAccess::Faulting => {
            stats.fault_handlers = fault::inject_fault_handlers(&mut out)?;
        }
        RemoteAccess::StatusChecks => {
            stats.status_checks = checks::inject_status_checks(&mut out)?;
        }
        RemoteAccess::None => {}
    }

    if opts.restoration {
        stats.restoration_handlers = restore::inject_restoration_handlers(&mut out)?;
    }

    // Re-verify the transformed class: a preprocessor bug must fail loudly
    // here, not on a remote worker.
    class_summaries(&out)?;

    stats.processed_bytes = class_wire_bytes(&out);
    stats.msps_after = count_msps(&out)?;
    Ok((out, stats))
}

/// Preprocess with the default (paper) options.
pub fn preprocess_sod(class: &ClassDef) -> VmResult<ClassDef> {
    preprocess(class, &Options::sod()).map(|(c, _)| c)
}

fn count_msps(class: &ClassDef) -> VmResult<usize> {
    Ok(class_summaries(class)?
        .iter()
        .map(|s| s.msp_pcs().count())
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod_asm::builder::ClassBuilder;
    use sod_vm::value::TypeOf;

    fn geometry_like() -> ClassDef {
        // The paper's running example: p.x = r.nextInt() + (int) p.getX()
        ClassBuilder::new("Geometry")
            .field("r", TypeOf::Ref)
            .field("p", TypeOf::Ref)
            .vmethod("displaceX", &[], |m| {
                m.line();
                m.load("this")
                    .getfield("r")
                    .invokev("nextInt", 1)
                    .load("this")
                    .getfield("p")
                    .invokev("getX", 1)
                    .f2i()
                    .add()
                    .store("sum");
                m.line();
                m.load("this").getfield("p").load("sum").putfield("x");
                m.line();
                m.ret();
            })
            .build()
            .unwrap()
    }

    #[test]
    fn full_pipeline_verifies_and_grows() {
        let c = geometry_like();
        let (out, stats) = preprocess(&c, &Options::sod()).unwrap();
        assert!(stats.cuts > 0, "rearrangement should cut the long line");
        assert!(stats.fault_handlers > 0);
        assert_eq!(stats.restoration_handlers, 1);
        assert!(stats.processed_bytes > stats.original_bytes);
        assert!(stats.msps_after > stats.msps_before);
        assert_eq!(out.name, "Geometry");
    }

    #[test]
    fn fig5_size_ordering_checking_smaller_than_faulting() {
        // Paper Fig. 5: original 501 B < status checks 667 B < fault
        // handlers 902 B. Shapes must match: checking adds a few
        // instructions per access; faulting adds whole handler blocks.
        let c = geometry_like();
        let (_, sod) = preprocess(&c, &Options::sod()).unwrap();
        let (_, chk) = preprocess(&c, &Options::status_checks()).unwrap();
        assert!(chk.processed_bytes > chk.original_bytes);
        assert!(sod.processed_bytes > chk.processed_bytes);
    }

    #[test]
    fn options_none_is_identity() {
        let c = geometry_like();
        let opts = Options {
            rearrange: false,
            remote_access: RemoteAccess::None,
            restoration: false,
        };
        let (out, stats) = preprocess(&c, &opts).unwrap();
        assert_eq!(out, c);
        assert_eq!(stats.cuts, 0);
        assert_eq!(stats.original_bytes, stats.processed_bytes);
    }
}
