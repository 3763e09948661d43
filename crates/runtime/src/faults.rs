//! Deterministic fault plans: crash/rejoin/churn/delay events scheduled at
//! fixed operation counts or elapsed times.
//!
//! A [`FaultPlan`] is pure data — a bounded, `Copy` schedule that rides on
//! the `mwr-register` facade's `Deployment::inject` knob like any other
//! knob value. Execution lives in the workload driver (`mwr-workload`), which
//! owns the cluster handle and the shared completed-op counter: an
//! injector thread walks the plan in order and fires each step when its
//! [`FaultTrigger`] comes due. Steps fire **in plan order** even if a
//! later step's trigger is reached first, which keeps runs reproducible:
//! the sequence of cluster mutations is exactly the plan, every time.
//!
//! The audited chaos scenarios (rolling restart, crash→rejoin→crash the
//! other minority, churn storms) are canned plans built with the preset
//! constructors.

use std::time::Duration;

/// Maximum steps in one plan. Bounded so the plan stays `Copy` and can be
/// embedded in the facade's `Deployment` by value.
pub const MAX_FAULT_STEPS: usize = 32;

/// What a fault step does to the cluster when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash server `idx` (keep the version its bank reports once it stops
    /// serving, for the rejoin).
    CrashServer(u32),
    /// Bring server `idx` back through quorum state transfer.
    RejoinServer(u32),
    /// Run a burst of short-lived clients: each joins, performs
    /// `ops_each` reads, then departs floor-safely.
    ChurnBurst {
        /// Number of short-lived clients, run sequentially on one
        /// reserved churn slot.
        clients: u32,
        /// Reads each churn client performs before departing.
        ops_each: u32,
    },
    /// Sleep the injector: a quiet period between fault phases.
    Delay(Duration),
    /// Live server-set reconfiguration: add `add` fresh servers and
    /// retire the `remove` lowest-indexed current members through the
    /// joint-quorum handover, while clients keep serving. `remove` is a
    /// count (not explicit indices) so the plan stays `Copy`; the driver
    /// resolves it against the cluster's live member list when the step
    /// fires.
    Reconfigure {
        /// Fresh servers to mint and state-transfer into the new
        /// configuration.
        add: u32,
        /// How many of the lowest-indexed current members to retire.
        remove: u32,
    },
}

/// When a fault step fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Fires once the cluster-wide completed-operation counter reaches
    /// this count.
    Ops(u64),
    /// Fires once this much wall-clock time has elapsed since the drive
    /// started.
    Elapsed(Duration),
}

/// One scheduled step: fire `event` when `trigger` comes due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStep {
    /// When the step fires.
    pub trigger: FaultTrigger,
    /// What the step does.
    pub event: FaultEvent,
}

/// A bounded, copyable schedule of fault steps, executed in order.
///
/// # Examples
///
/// ```
/// use mwr_runtime::{FaultEvent, FaultPlan, FaultTrigger};
///
/// let plan = FaultPlan::new()
///     .at_ops(100, FaultEvent::CrashServer(0))
///     .at_ops(200, FaultEvent::RejoinServer(0));
/// assert_eq!(plan.steps().len(), 2);
/// assert_eq!(plan.steps()[0].trigger, FaultTrigger::Ops(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    steps: [Option<FaultStep>; MAX_FAULT_STEPS],
    len: usize,
}

impl FaultPlan {
    /// An empty plan.
    pub const fn new() -> Self {
        FaultPlan { steps: [None; MAX_FAULT_STEPS], len: 0 }
    }

    /// Appends a step (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the plan already holds [`MAX_FAULT_STEPS`] steps.
    pub fn then(mut self, trigger: FaultTrigger, event: FaultEvent) -> Self {
        assert!(self.len < MAX_FAULT_STEPS, "fault plan full ({MAX_FAULT_STEPS} steps)");
        self.steps[self.len] = Some(FaultStep { trigger, event });
        self.len += 1;
        self
    }

    /// Appends a step firing at a completed-op count (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the plan is full.
    pub fn at_ops(self, ops: u64, event: FaultEvent) -> Self {
        self.then(FaultTrigger::Ops(ops), event)
    }

    /// Appends a step firing after a wall-clock delay from drive start
    /// (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the plan is full.
    pub fn after(self, elapsed: Duration, event: FaultEvent) -> Self {
        self.then(FaultTrigger::Elapsed(elapsed), event)
    }

    /// The scheduled steps, in execution order.
    pub fn steps(&self) -> Vec<FaultStep> {
        self.steps[..self.len].iter().map(|s| s.expect("dense prefix")).collect()
    }

    /// True if the plan holds no steps.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest server index any step crashes or rejoins, if any — the
    /// facade validates it against the deployment's server count.
    pub fn max_server(&self) -> Option<u32> {
        self.steps[..self.len]
            .iter()
            .filter_map(|s| match s.expect("dense prefix").event {
                FaultEvent::CrashServer(i) | FaultEvent::RejoinServer(i) => Some(i),
                FaultEvent::ChurnBurst { .. }
                | FaultEvent::Delay(_)
                | FaultEvent::Reconfigure { .. } => None,
            })
            .max()
    }

    /// Rolling restart: crash and rejoin every server of an `S`-server
    /// cluster one at a time, a crash every `stride` completed ops and the
    /// matching rejoin half a stride later. Every server is down at most
    /// alone, so the cluster never exceeds one fault at a time.
    ///
    /// # Panics
    ///
    /// Panics if `2 * servers` exceeds [`MAX_FAULT_STEPS`].
    pub fn rolling_restart(servers: u32, stride: u64) -> Self {
        let mut plan = FaultPlan::new();
        for s in 0..servers {
            let at = stride * (s as u64 + 1);
            plan = plan
                .at_ops(at, FaultEvent::CrashServer(s))
                .at_ops(at + stride / 2, FaultEvent::RejoinServer(s));
        }
        plan
    }

    /// Churn storm: `clients` short-lived readers join, read `ops_each`
    /// times and depart, starting once the cluster has completed
    /// `warmup_ops` operations.
    pub fn churn_storm(clients: u32, ops_each: u32, warmup_ops: u64) -> Self {
        FaultPlan::new().at_ops(warmup_ops, FaultEvent::ChurnBurst { clients, ops_each })
    }

    /// Rolling reconfiguration: once the cluster has completed
    /// `warmup_ops` operations, add `add` fresh servers and retire
    /// `remove` of the original members through the joint-quorum
    /// handover, mid-traffic.
    pub fn reconfigure(add: u32, remove: u32, warmup_ops: u64) -> Self {
        FaultPlan::new().at_ops(warmup_ops, FaultEvent::Reconfigure { add, remove })
    }

    /// True if any step reconfigures the server set — such plans require
    /// a driver that owns the cluster mutably for the whole run.
    pub fn reconfigures(&self) -> bool {
        self.steps[..self.len]
            .iter()
            .any(|s| matches!(s.expect("dense prefix").event, FaultEvent::Reconfigure { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_build_in_order_and_stay_copy() {
        let plan = FaultPlan::new()
            .at_ops(10, FaultEvent::CrashServer(2))
            .after(Duration::from_millis(5), FaultEvent::Delay(Duration::from_millis(1)))
            .at_ops(20, FaultEvent::RejoinServer(2));
        let copy = plan; // Copy: usable twice
        assert_eq!(plan.steps().len(), copy.steps().len());
        assert_eq!(plan.steps()[0].event, FaultEvent::CrashServer(2));
        assert_eq!(plan.steps()[2].event, FaultEvent::RejoinServer(2));
        assert_eq!(plan.max_server(), Some(2));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::new().max_server(), None);
    }

    #[test]
    fn rolling_restart_covers_every_server_once() {
        let plan = FaultPlan::rolling_restart(5, 100);
        let steps = plan.steps();
        assert_eq!(steps.len(), 10);
        for s in 0..5u32 {
            assert!(steps.iter().any(|st| st.event == FaultEvent::CrashServer(s)));
            assert!(steps.iter().any(|st| st.event == FaultEvent::RejoinServer(s)));
        }
        // Each crash precedes its own rejoin and the next crash.
        for pair in steps.chunks(2) {
            assert!(matches!(pair[0].event, FaultEvent::CrashServer(_)));
            assert!(matches!(pair[1].event, FaultEvent::RejoinServer(_)));
        }
        assert_eq!(plan.max_server(), Some(4));
    }

    #[test]
    fn churn_storm_is_one_burst() {
        let plan = FaultPlan::churn_storm(500, 2, 50);
        assert_eq!(plan.steps().len(), 1);
        assert_eq!(
            plan.steps()[0].event,
            FaultEvent::ChurnBurst { clients: 500, ops_each: 2 }
        );
    }

    #[test]
    fn reconfigure_preset_is_one_step_and_flagged() {
        let plan = FaultPlan::reconfigure(2, 2, 100);
        assert_eq!(plan.steps().len(), 1);
        assert_eq!(plan.steps()[0].trigger, FaultTrigger::Ops(100));
        assert_eq!(plan.steps()[0].event, FaultEvent::Reconfigure { add: 2, remove: 2 });
        assert!(plan.reconfigures());
        assert_eq!(plan.max_server(), None);
        assert!(!FaultPlan::rolling_restart(3, 10).reconfigures());
    }

    #[test]
    #[should_panic(expected = "fault plan full")]
    fn overflowing_the_plan_panics() {
        let mut plan = FaultPlan::new();
        for i in 0..=MAX_FAULT_STEPS as u64 {
            plan = plan.at_ops(i, FaultEvent::Delay(Duration::ZERO));
        }
    }
}
