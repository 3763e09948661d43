//! The shared client-side view of the cluster's current configuration.
//!
//! A [`ClusterView`] is the one piece of state the reconfiguration
//! coordinator and every live client share: which epoch the cluster is in,
//! which servers a round-trip must cover, and which acknowledgement rule
//! completes it (a plain `g − t` quorum of the register's group in a stable
//! epoch, a [`JointQuorum`] over both configurations in a transition epoch).
//! A single-register cluster is the one-shard case: its router's only group
//! is the whole member set, so `g = S`.
//!
//! Clients re-derive their round-trip [`Scope`] from the view at the start
//! of every operation and — one atomic load — *mid-round*, before every
//! reply they count. The coordinator always installs the new view
//! **before** announcing the epoch to servers, so no server can answer
//! under an epoch the view does not yet describe: a reply counted under an
//! unmoved epoch was produced inside the configuration the scope describes,
//! and refresh never races ahead of the data it needs.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, RwLock};

use mwr_core::{JointQuorum, Router, Scope};
use mwr_types::{ConfigEpoch, RegisterId};

/// How round-trips must cover the cluster in the current epoch. Quorums are
/// derived, never stored: a group of `n` servers completes a round with
/// `n − t` replies.
#[derive(Debug, Clone)]
pub(crate) enum ViewPlan {
    /// A stable epoch: each register's scope is its shard group under
    /// `router`.
    Stable {
        /// Routing over the current member set.
        router: Router,
        /// The per-group fault bound.
        t: usize,
    },
    /// A joint (transition) epoch: each register's scope is the union of
    /// its old and new shard groups, complete on a quorum of **both**.
    Joint {
        /// Routing over the old member set.
        old: Router,
        /// Routing over the new member set.
        new: Router,
        /// The per-group fault bound, the same on both sides.
        t: usize,
    },
}

/// One epoch's complete client-side description.
#[derive(Debug, Clone)]
pub(crate) struct ViewState {
    pub(crate) epoch: ConfigEpoch,
    pub(crate) plan: ViewPlan,
}

/// The live, shared configuration view. Cheap to poll (`epoch` is one
/// atomic load) and cloned behind an [`Arc`] into every client the cluster
/// mints.
#[derive(Debug)]
pub struct ClusterView {
    /// Fast path: the current epoch, readable without the lock. Written
    /// *after* `state` under the lock, so `epoch() ≥ state.epoch` is never
    /// observed — a client that sees the new epoch finds the new state.
    epoch: AtomicU32,
    state: RwLock<ViewState>,
}

impl ClusterView {
    /// A stable epoch-0 view over `router`.
    pub(crate) fn new(router: Router, t: usize) -> Arc<Self> {
        Arc::new(ClusterView {
            epoch: AtomicU32::new(ConfigEpoch::ZERO.get()),
            state: RwLock::new(ViewState {
                epoch: ConfigEpoch::ZERO,
                plan: ViewPlan::Stable { router, t },
            }),
        })
    }

    /// The current epoch (one atomic load — the per-operation check).
    pub fn epoch(&self) -> ConfigEpoch {
        ConfigEpoch::new(self.epoch.load(Ordering::Acquire))
    }

    /// Installs a new epoch's state. The coordinator calls this *before*
    /// announcing the epoch to any server, and the atomic is stored after
    /// the state under the lock, so clients always find the state their
    /// observed epoch describes.
    ///
    /// # Panics
    ///
    /// Panics if the epoch moves backwards — the coordinator drives epochs
    /// strictly forward.
    pub(crate) fn install(&self, state: ViewState) {
        let mut guard = self.state.write().expect("view lock poisoned");
        assert!(state.epoch > guard.epoch, "view epochs move strictly forward");
        let raw = state.epoch.get();
        *guard = state;
        self.epoch.store(raw, Ordering::Release);
    }

    /// Rebuilds a client's round-trip [`Scope`] for `register` under the
    /// current epoch. `None` is an unwrapped client, whose bare frames every
    /// bank routes to [`RegisterId::DEFAULT`] — so that register's group is
    /// its scope.
    pub(crate) fn scope_parts(&self, register: Option<RegisterId>) -> Scope {
        let register = register.unwrap_or(RegisterId::DEFAULT);
        let state = self.state.read().expect("view lock poisoned");
        match &state.plan {
            ViewPlan::Stable { router, t } => {
                Scope::stable(router.group_of(register), *t, state.epoch)
            }
            ViewPlan::Joint { old, new, t } => {
                let (old, new) = (old.group_of(register), new.group_of(register));
                let (old_required, new_required) = (old.len() - t, new.len() - t);
                let joint = JointQuorum::new(old, old_required, new, new_required);
                Scope {
                    targets: joint.union(),
                    quorum: old_required.max(new_required),
                    joint: Some(joint),
                    epoch: state.epoch,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_types::ServerId;

    fn ids(raw: &[u32]) -> Vec<ServerId> {
        raw.iter().copied().map(ServerId::new).collect()
    }

    /// The whole-cluster router of a single-register cluster over `members`.
    fn whole(members: &[u32]) -> Router {
        let mask = members.iter().fold(0u128, |m, s| m | 1 << s);
        Router::with_members(mask, members.len() as u32, 1)
    }

    #[test]
    fn install_moves_epoch_forward_and_swaps_the_plan() {
        let view = ClusterView::new(whole(&[0, 1, 2]), 1);
        assert_eq!(view.epoch(), ConfigEpoch::ZERO);
        let parts = view.scope_parts(None);
        assert_eq!((parts.targets, parts.quorum), (ids(&[0, 1, 2]), 2));
        assert!(parts.joint.is_none());

        view.install(ViewState {
            epoch: ConfigEpoch::new(1),
            plan: ViewPlan::Joint { old: whole(&[0, 1, 2]), new: whole(&[1, 2, 3]), t: 1 },
        });
        assert_eq!(view.epoch(), ConfigEpoch::new(1));
        let parts = view.scope_parts(None);
        assert_eq!(parts.targets, ids(&[0, 1, 2, 3]), "joint scope broadcasts to the union");
        assert_eq!(parts.joint, Some(JointQuorum::new(ids(&[0, 1, 2]), 2, ids(&[1, 2, 3]), 2)));
    }

    #[test]
    #[should_panic(expected = "strictly forward")]
    fn epochs_never_move_backwards() {
        let view = ClusterView::new(whole(&[0, 1]), 1);
        view.install(ViewState {
            epoch: ConfigEpoch::ZERO,
            plan: ViewPlan::Stable { router: whole(&[0, 1]), t: 1 },
        });
    }

    /// A whole-cluster handover that grows the member set: each side's
    /// quorum is its own size minus `t`, not one shared number.
    #[test]
    fn whole_cluster_joint_quorums_follow_each_sides_size() {
        let view = ClusterView::new(whole(&[0, 1, 2, 3, 4]), 1);
        view.install(ViewState {
            epoch: ConfigEpoch::new(1),
            plan: ViewPlan::Joint {
                old: whole(&[0, 1, 2, 3, 4]),
                new: whole(&[0, 1, 2, 3, 4, 5]),
                t: 1,
            },
        });
        let parts = view.scope_parts(None);
        let joint = parts.joint.expect("joint window");
        assert_eq!((joint.old_required(), joint.new_required()), (4, 5));
        assert_eq!(parts.targets, ids(&[0, 1, 2, 3, 4, 5]), "targets are the union");
        assert_eq!(parts.quorum, 5);
    }

    /// An unwrapped client is a client of `RegisterId::DEFAULT`, in a
    /// stable epoch and — joint rule included — in a transition epoch.
    #[test]
    fn unscoped_clients_get_the_default_registers_scope() {
        let same = |view: &ClusterView| {
            let (bare, named) =
                (view.scope_parts(None), view.scope_parts(Some(RegisterId::DEFAULT)));
            assert_eq!(
                (bare.epoch, &bare.targets, bare.quorum, &bare.joint),
                (named.epoch, &named.targets, named.quorum, &named.joint)
            );
            bare
        };
        let old = Router::new(5, 3, 8);
        let view = ClusterView::new(old, 1);
        assert_eq!(same(&view).targets, old.group_of(RegisterId::DEFAULT));

        let new = Router::with_members(((1u128 << 7) - 1) & !1, 3, 8);
        view.install(ViewState {
            epoch: ConfigEpoch::new(1),
            plan: ViewPlan::Joint { old, new, t: 1 },
        });
        let joint = same(&view).joint.expect("the joint rule survives an unscoped lookup");
        assert_eq!(joint.old_members(), old.group_of(RegisterId::DEFAULT));
        assert_eq!(joint.new_members(), new.group_of(RegisterId::DEFAULT));
    }

    #[test]
    fn keyspace_scopes_are_per_register_groups() {
        let old = Router::new(5, 3, 8);
        let view = ClusterView::new(old, 1);
        let k = RegisterId::new(7);
        let parts = view.scope_parts(Some(k));
        assert_eq!(parts.targets, old.group_of(k));
        assert_eq!(parts.quorum, 2);

        // Joint keyspace: union of the old and new groups, one g−t quorum
        // required on each side.
        let new = Router::with_members(((1u128 << 7) - 1) & !1, 3, 8);
        view.install(ViewState {
            epoch: ConfigEpoch::new(1),
            plan: ViewPlan::Joint { old, new, t: 1 },
        });
        let parts = view.scope_parts(Some(k));
        let joint = parts.joint.expect("joint window");
        assert_eq!(joint.old_members(), old.group_of(k));
        assert_eq!(joint.new_members(), new.group_of(k));
        let mut union = old.group_of(k);
        union.extend(new.group_of(k));
        union.sort_unstable();
        union.dedup();
        assert_eq!(parts.targets, union);
    }
}
