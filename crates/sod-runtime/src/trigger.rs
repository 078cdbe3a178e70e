//! Policy-driven migration triggers.
//!
//! The paper scripts migrations at fixed virtual times; real elastic
//! deployments migrate on *conditions* — memory pressure, data-access
//! locality, exhausted CPU budget. A [`Trigger`] expresses such a policy;
//! the engine arms any number of them per program and evaluates them as
//! part of the execution-slice loop.
//!
//! ## Evaluation semantics
//!
//! Triggers are only *acted on* at migration-safe points (MSPs): when a
//! trigger's condition becomes true, the engine sets a pending migration
//! plan, the guest thread switches to stop-at-MSP execution, and capture
//! happens at the next safe point — exactly the paper's protocol for an
//! externally requested migration. Consequences:
//!
//! * Conditions are checked at slice boundaries of the program's *root*
//!   thread, so firing is deterministic for a given program and topology.
//! * A trigger never fires while the stack's top segment executes
//!   remotely (the home thread is frozen); a condition that becomes true
//!   in that window — e.g. an object-fault threshold crossed by the
//!   remote segment — fires when control returns home.
//! * Each trigger fires at most once.
//!
//! [`Trigger::OnOom`] is the exception-driven offload of paper §II.B and
//! is evaluated where the exception surfaces, not at a slice boundary:
//! the faulting statement is rolled back to its start (statement-level
//! rollback is sound because rearranged statements are single-effect) and
//! the whole stack migrates, so the allocation retries on the target.

use crate::msg::MigrationPlan;

/// When a program should migrate. Destinations are node indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Fire at virtual time `ns` (the legacy fixed-time schedule). The
    /// armed plan decides where the stack goes; an [`ArmedTrigger`]
    /// without a plan never fires.
    At(u64),
    /// On an unhandled `OutOfMemoryError`, roll back to the statement
    /// start and migrate the *whole* stack to `to` (paper §II.B). Any
    /// armed plan is ignored: the stack height is only known at fire
    /// time.
    OnOom { to: usize },
    /// Fire once the program has served `threshold` remote object faults
    /// — the "computation is far from its data" signal. Defaults to
    /// shipping the top frame to `to` when no plan is armed.
    OnObjectFaults { threshold: u64, to: usize },
    /// A CPU budget for weak devices, in execution slices of the
    /// program's root thread on its home node. Fires at the *start* of
    /// slice number `slices`: a slice is counted before the triggers are
    /// evaluated, so `slices - 1` slices run normally and slice `slices`
    /// already runs in stop-at-MSP mode, capturing at its first safe
    /// point (`slices: 1` migrates before the program retires an
    /// instruction). Defaults to shipping the top frame to `to` when no
    /// plan is armed.
    OnCpuSliceBudget { slices: u64, to: usize },
}

impl Trigger {
    /// The destination encoded in the trigger itself, if any.
    pub fn dest(&self) -> Option<usize> {
        match self {
            Trigger::At(_) => None,
            Trigger::OnOom { to }
            | Trigger::OnObjectFaults { to, .. }
            | Trigger::OnCpuSliceBudget { to, .. } => Some(*to),
        }
    }
}

/// A trigger armed on a program, with an optional explicit plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArmedTrigger {
    pub trigger: Trigger,
    /// What to migrate when the trigger fires. `None` derives a default:
    /// the top frame to the trigger's destination (`OnOom` always ships
    /// the whole stack).
    pub plan: Option<MigrationPlan>,
    /// Set once the trigger has fired; fired triggers are never
    /// re-evaluated.
    pub fired: bool,
}

impl ArmedTrigger {
    pub fn new(trigger: Trigger) -> Self {
        ArmedTrigger {
            trigger,
            plan: None,
            fired: false,
        }
    }

    pub fn with_plan(trigger: Trigger, plan: MigrationPlan) -> Self {
        ArmedTrigger {
            trigger,
            plan: Some(plan),
            fired: false,
        }
    }

    /// The plan to execute on firing, given the trigger's destination.
    /// Returns `None` for an `At` trigger armed without a plan.
    pub(crate) fn effective_plan(&self) -> Option<MigrationPlan> {
        match (&self.plan, self.trigger.dest()) {
            (Some(plan), _) => Some(plan.clone()),
            (None, Some(to)) => Some(MigrationPlan::top_to(to, 1)),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plans() {
        let t = ArmedTrigger::new(Trigger::OnObjectFaults {
            threshold: 8,
            to: 2,
        });
        assert_eq!(t.effective_plan(), Some(MigrationPlan::top_to(2, 1)));
        // At without a plan cannot derive a destination.
        assert_eq!(ArmedTrigger::new(Trigger::At(5)).effective_plan(), None);
        let armed = ArmedTrigger::with_plan(Trigger::At(5), MigrationPlan::top_to(1, 3));
        assert_eq!(armed.effective_plan(), Some(MigrationPlan::top_to(1, 3)));
    }

    #[test]
    fn dest_extraction() {
        assert_eq!(Trigger::At(1).dest(), None);
        assert_eq!(Trigger::OnOom { to: 3 }.dest(), Some(3));
        assert_eq!(
            Trigger::OnCpuSliceBudget { slices: 9, to: 1 }.dest(),
            Some(1)
        );
    }
}
