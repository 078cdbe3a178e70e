//! Migration policies: when a program migrates.
//!
//! The paper scripts migrations at fixed virtual times; real elastic
//! deployments migrate on *conditions* — memory pressure, data-access
//! locality, exhausted CPU budget. A [`When`] names either, and
//! [`crate::SodSim::migrate`] arms it on a program together with the plan
//! to execute.
//!
//! ## Evaluation semantics
//!
//! A request is only *acted on* at a migration-safe point (MSP): the
//! engine sets a pending migration plan, the guest thread switches to
//! stop-at-MSP execution, and capture happens at the next safe point —
//! exactly the paper's protocol for an externally requested migration.
//!
//! * [`When::At`] is a driver-injected `MigrateNow` event at that virtual
//!   time; it replaces a plan still pending and is dropped while the
//!   stack's top segment executes remotely.
//! * [`When::OnObjectFaults`] and [`When::OnCpuSliceBudget`] are checked
//!   at slice boundaries of the program's *root* thread, so firing is
//!   deterministic for a given program and topology. They never fire
//!   while the top segment executes remotely (the home thread is
//!   frozen); a condition that becomes true in that window — e.g. an
//!   object-fault threshold crossed by the remote segment — fires when
//!   control returns home.
//! * [`When::OnOom`] is the exception-driven offload of paper §II.B and
//!   is evaluated where the exception surfaces, not at a slice boundary:
//!   the faulting statement is rolled back to its start (statement-level
//!   rollback is sound because rearranged statements are single-effect)
//!   and the whole stack migrates, so the allocation retries on the
//!   target.
//! * Each armed policy fires at most once.

use crate::msg::MigrationPlan;

/// When a program migrates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum When {
    /// At virtual time `ns` (first migration-safe point after it).
    At(u64),
    /// On an unhandled `OutOfMemoryError`: roll back to the statement
    /// start and migrate the *whole* stack to the plan's first
    /// destination, the rescue node. The rest of the plan is ignored: the
    /// stack height is only known at fire time.
    OnOom,
    /// Once the program has served this many remote object faults — the
    /// "computation is far from its data" signal.
    OnObjectFaults(u64),
    /// A CPU budget for weak devices, in execution slices of the
    /// program's root thread on its home node. Fires at the *start* of
    /// slice number `n`: a slice is counted before the policies are
    /// evaluated, so `n - 1` slices run normally and slice `n` already
    /// runs in stop-at-MSP mode, capturing at its first safe point
    /// (`OnCpuSliceBudget(1)` migrates before the program retires an
    /// instruction).
    OnCpuSliceBudget(u64),
}

/// A condition policy armed on a program with the plan it executes.
/// Fired policies are never re-evaluated.
pub(crate) struct Armed {
    pub(crate) when: When,
    pub(crate) plan: MigrationPlan,
    pub(crate) fired: bool,
}
