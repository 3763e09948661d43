//! Joint-quorum arithmetic for live server-set reconfiguration.
//!
//! While a reconfiguration is in flight the cluster sits in a *joint*
//! epoch: every round-trip must gather a quorum in **both** the old and the
//! new configuration before it counts as complete (RAMBO's transitional
//! quorum system, specialised to the paper's `S − t` majority quorums).
//! This module is the pure, transport-free core of that rule: given the two
//! member sets and the set of servers that acknowledged a round, decide
//! whether the round may complete.
//!
//! Why both quorums: a write acknowledged only by an old-configuration
//! quorum could be missed by a new-configuration quorum assembled after the
//! old servers are torn down, and vice versa. Requiring both makes every
//! joint-window operation visible to any quorum of *either* configuration,
//! so the handover commits without a stop-the-world barrier. The
//! "refusal to commit short of both quorums" soundness obligation in the
//! README reduces to [`JointQuorum::satisfied`] being the only way a
//! joint-window round terminates.

use std::fmt;

use serde::{Deserialize, Serialize};

use mwr_types::ServerId;

/// The acknowledgement rule of a joint (transitional) epoch: a round
/// completes only when a quorum of the **old** configuration *and* a quorum
/// of the **new** configuration have replied.
///
/// Servers in both configurations (the common case — reconfigurations
/// usually replace a minority) count toward both quorums with a single
/// reply.
///
/// # Examples
///
/// ```
/// use mwr_core::JointQuorum;
/// use mwr_types::ServerId;
///
/// // Old {0,1,2} with t=1 (quorum 2), new {1,2,3} with t=1 (quorum 2).
/// let joint = JointQuorum::new(
///     [0, 1, 2].map(ServerId::new).to_vec(), 2,
///     [1, 2, 3].map(ServerId::new).to_vec(), 2,
/// );
/// // {1,2} sits in both configurations: one reply pair satisfies both.
/// assert!(joint.satisfied([1, 2].map(ServerId::new).iter().copied()));
/// // {0,1} is an old quorum but only one new member replied.
/// assert!(!joint.satisfied([0, 1].map(ServerId::new).iter().copied()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JointQuorum {
    old: Vec<ServerId>,
    old_required: usize,
    new: Vec<ServerId>,
    new_required: usize,
}

impl JointQuorum {
    /// Builds the rule from the two member sets and their quorum sizes
    /// (`|old| − t` and `|new| − t` under the paper's majority quorums).
    pub fn new(
        old: Vec<ServerId>,
        old_required: usize,
        new: Vec<ServerId>,
        new_required: usize,
    ) -> Self {
        JointQuorum { old, old_required, new, new_required }
    }

    /// The old configuration's members.
    pub fn old_members(&self) -> &[ServerId] {
        &self.old
    }

    /// The new configuration's members.
    pub fn new_members(&self) -> &[ServerId] {
        &self.new
    }

    /// Replies required from the old configuration.
    pub fn old_required(&self) -> usize {
        self.old_required
    }

    /// Replies required from the new configuration.
    pub fn new_required(&self) -> usize {
        self.new_required
    }

    /// Every server a joint-window round must broadcast to: the union of
    /// both configurations, ascending, each member once.
    pub fn union(&self) -> Vec<ServerId> {
        let mut all: Vec<ServerId> = self.old.iter().chain(self.new.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Whether the acknowledging set contains a quorum of **both**
    /// configurations. This is the joint window's only termination rule:
    /// a round that satisfies one side alone must keep waiting.
    pub fn satisfied(&self, acks: impl IntoIterator<Item = ServerId>) -> bool {
        let (mut old_got, mut new_got) = (0usize, 0usize);
        for server in acks {
            if self.old.contains(&server) {
                old_got += 1;
            }
            if self.new.contains(&server) {
                new_got += 1;
            }
        }
        old_got >= self.old_required && new_got >= self.new_required
    }
}

impl fmt::Display for JointQuorum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "joint(old {}≥{}, new {}≥{})",
            self.old.len(),
            self.old_required,
            self.new.len(),
            self.new_required
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<ServerId> {
        raw.iter().copied().map(ServerId::new).collect()
    }

    #[test]
    fn both_quorums_are_required() {
        // Old {0..4} t=1 → 4 required; new {2..6} t=1 → 4 required.
        let joint = JointQuorum::new(ids(&[0, 1, 2, 3, 4]), 4, ids(&[2, 3, 4, 5, 6]), 4);
        assert_eq!(joint.union(), ids(&[0, 1, 2, 3, 4, 5, 6]));

        // An old quorum alone does not complete the round…
        assert!(!joint.satisfied(ids(&[0, 1, 2, 3])));
        // …nor a new quorum alone…
        assert!(!joint.satisfied(ids(&[3, 4, 5, 6])));
        // …but overlap members count toward both sides at once.
        assert!(joint.satisfied(ids(&[1, 2, 3, 4, 5])));
        assert!(joint.satisfied(joint.union()));
    }

    #[test]
    fn disjoint_configurations_need_both_sides_fully() {
        let joint = JointQuorum::new(ids(&[0, 1]), 2, ids(&[2, 3]), 2);
        assert!(!joint.satisfied(ids(&[0, 1, 2])));
        assert!(joint.satisfied(ids(&[0, 1, 2, 3])));
    }

    #[test]
    fn display_summarises_the_rule() {
        let joint = JointQuorum::new(ids(&[0, 1, 2]), 2, ids(&[1, 2, 3]), 2);
        assert_eq!(joint.to_string(), "joint(old 3≥2, new 3≥2)");
    }
}
