//! Reply-corrupting server adversaries.
//!
//! The adversary model: a Byzantine server receives every message a correct
//! server would and may reply with *anything, to anyone, or not at all* —
//! but cannot forge messages from other processes or tamper with channels
//! (the paper's channels are reliable and authenticated by construction of
//! the model). Corrupting replies is therefore the full extent of its
//! power, and the behaviors here cover the attack surface of quorum
//! register protocols: hiding, forging, equivocating, and silence.

use mwr_core::{Msg, Snapshot, ValueRecord};
use mwr_types::{ClientId, Tag, TaggedValue, Value, WriterId};

/// The forged writer identity used by [`ByzBehavior::TagInflater`] — a
/// writer index no real cluster uses.
pub(crate) const FORGED_WRITER: u32 = u32::MAX;

/// The forged payload used by [`ByzBehavior::TagInflater`].
pub(crate) const FORGED_VALUE: u64 = 0xDEAD_BEEF;

/// How a Byzantine server treats its replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzBehavior {
    /// Behaves correctly (the `b = 0` baseline).
    Honest,
    /// Acknowledges everything but presents the initial state forever:
    /// every write it stores is hidden from every reader.
    StaleReplier,
    /// Reports a forged value with a timestamp `boost` above the true
    /// maximum, attributed to a writer that does not exist. Defeats any
    /// client that trusts a single maximum.
    TagInflater {
        /// How far above the true maximum timestamp the forgery lies.
        boost: u64,
    },
    /// Answers even-indexed clients honestly and odd-indexed clients with
    /// the stale view — two halves of the system observe different
    /// registers.
    Equivocator,
    /// Never replies. Observationally a crash; budgeted under `b`.
    Mute,
}

impl ByzBehavior {
    /// Short name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ByzBehavior::Honest => "honest",
            ByzBehavior::StaleReplier => "stale-replier",
            ByzBehavior::TagInflater { .. } => "tag-inflater",
            ByzBehavior::Equivocator => "equivocator",
            ByzBehavior::Mute => "mute",
        }
    }

    /// All adversarial behaviors (everything but [`ByzBehavior::Honest`]).
    pub const ADVERSARIAL: [ByzBehavior; 4] = [
        ByzBehavior::StaleReplier,
        ByzBehavior::TagInflater { boost: 1_000_000 },
        ByzBehavior::Equivocator,
        ByzBehavior::Mute,
    ];

    /// Applies this behavior to the reply a correct server would send to
    /// `client`. `None` means no reply is sent.
    pub(crate) fn corrupt(self, client: ClientId, reply: Msg) -> Option<Msg> {
        match self {
            ByzBehavior::Honest => Some(reply),
            ByzBehavior::Mute => None,
            ByzBehavior::StaleReplier => Some(stale_version(reply)),
            ByzBehavior::TagInflater { boost } => Some(inflated_version(reply, boost)),
            ByzBehavior::Equivocator => {
                if client_index(client).is_multiple_of(2) {
                    Some(reply)
                } else {
                    Some(stale_version(reply))
                }
            }
        }
    }
}

impl std::fmt::Display for ByzBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn client_index(client: ClientId) -> u32 {
    match client {
        ClientId::Reader(r) => r.index(),
        ClientId::Writer(w) => w.index(),
    }
}

/// The initial-state-only variant of a reply.
fn stale_version(reply: Msg) -> Msg {
    match reply {
        Msg::QueryAck { handle, .. } => {
            Msg::QueryAck { handle, latest: TaggedValue::initial() }
        }
        Msg::ReadFastAck { handle, .. } => Msg::ReadFastAck {
            handle,
            snapshot: Snapshot {
                entries: vec![ValueRecord { value: TaggedValue::initial(), updated: Default::default() }],
            },
        },
        other => other, // acks carry no state to hide
    }
}

/// The forged-maximum variant of a reply.
fn inflated_version(reply: Msg, boost: u64) -> Msg {
    let forge = |above: TaggedValue, updated: Vec<ClientId>| ValueRecord {
        value: TaggedValue::new(
            Tag::new(above.tag().ts() + boost, WriterId::new(FORGED_WRITER)),
            Value::new(FORGED_VALUE),
        ),
        updated: updated.into(),
    };
    match reply {
        Msg::QueryAck { handle, latest } => Msg::QueryAck {
            handle,
            latest: forge(latest, vec![]).value,
        },
        Msg::ReadFastAck { handle, snapshot } => {
            let top = snapshot.max_value().unwrap_or_else(TaggedValue::initial);
            // Claim every client the true store knows as a witness of the
            // forgery — maximally persuasive to a degree-counting reader.
            let witnesses: Vec<ClientId> = {
                let mut all: Vec<ClientId> = snapshot
                    .entries
                    .iter()
                    .flat_map(|e| e.updated.iter().copied())
                    .collect();
                all.sort_unstable();
                all.dedup();
                all
            };
            let mut entries = snapshot.entries;
            entries.push(forge(top, witnesses));
            Msg::ReadFastAck { handle, snapshot: Snapshot { entries } }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_core::{OpHandle, OpId};

    fn handle() -> OpHandle {
        OpHandle { op: OpId { client: ClientId::reader(0), seq: 0 }, phase: 1 }
    }

    fn tv(ts: u64, w: u32, v: u64) -> TaggedValue {
        TaggedValue::new(Tag::new(ts, WriterId::new(w)), Value::new(v))
    }

    #[test]
    fn honest_passes_replies_through() {
        let reply = Msg::QueryAck { handle: handle(), latest: tv(3, 0, 30) };
        assert_eq!(ByzBehavior::Honest.corrupt(ClientId::reader(0), reply.clone()), Some(reply));
    }

    #[test]
    fn mute_drops_everything() {
        let reply = Msg::UpdateAck { handle: handle() };
        assert_eq!(ByzBehavior::Mute.corrupt(ClientId::writer(1), reply), None);
    }

    #[test]
    fn stale_replier_reports_initial_state() {
        let reply = Msg::QueryAck { handle: handle(), latest: tv(5, 1, 50) };
        let Some(Msg::QueryAck { latest, .. }) =
            ByzBehavior::StaleReplier.corrupt(ClientId::reader(0), reply)
        else {
            panic!()
        };
        assert!(latest.tag().is_initial());
    }

    #[test]
    fn inflater_forges_above_the_true_maximum() {
        let reply = Msg::QueryAck { handle: handle(), latest: tv(5, 1, 50) };
        let Some(Msg::QueryAck { latest, .. }) =
            (ByzBehavior::TagInflater { boost: 100 }).corrupt(ClientId::reader(0), reply)
        else {
            panic!()
        };
        assert_eq!(latest.tag().ts(), 105);
        assert_eq!(latest.value(), Value::new(FORGED_VALUE));
    }

    #[test]
    fn inflater_plants_a_witnessed_forgery_in_snapshots() {
        let snapshot = Snapshot {
            entries: vec![ValueRecord {
                value: tv(2, 0, 20),
                updated: vec![ClientId::writer(0), ClientId::reader(1)].into(),
            }],
        };
        let reply = Msg::ReadFastAck { handle: handle(), snapshot };
        let Some(Msg::ReadFastAck { snapshot, .. }) =
            (ByzBehavior::TagInflater { boost: 10 }).corrupt(ClientId::reader(0), reply)
        else {
            panic!()
        };
        let forged = snapshot.max_value().unwrap();
        assert_eq!(forged.tag().ts(), 12);
        assert_eq!(snapshot.updated_for(forged).unwrap().len(), 2, "claims the true witnesses");
        assert!(snapshot.contains(tv(2, 0, 20)), "true entries retained for plausibility");
    }

    #[test]
    fn equivocator_splits_clients_by_parity() {
        let reply = Msg::QueryAck { handle: handle(), latest: tv(5, 1, 50) };
        let Some(Msg::QueryAck { latest: even, .. }) =
            ByzBehavior::Equivocator.corrupt(ClientId::reader(0), reply.clone())
        else {
            panic!()
        };
        let Some(Msg::QueryAck { latest: odd, .. }) =
            ByzBehavior::Equivocator.corrupt(ClientId::reader(1), reply)
        else {
            panic!()
        };
        assert_eq!(even, tv(5, 1, 50));
        assert!(odd.tag().is_initial());
    }

    #[test]
    fn acks_pass_through_corruption_unchanged() {
        let reply = Msg::UpdateAck { handle: handle() };
        for behavior in [
            ByzBehavior::StaleReplier,
            ByzBehavior::TagInflater { boost: 9 },
        ] {
            assert_eq!(behavior.corrupt(ClientId::writer(0), reply.clone()), Some(reply.clone()));
        }
    }
}
