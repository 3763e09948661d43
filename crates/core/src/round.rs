//! The client's round machine: everything Algorithm 1 *decides*, and nothing
//! that moves a byte or reads a clock.
//!
//! Every protocol in the design space is a composition of a write mode and a
//! read mode (Fig 2's algorithm schema):
//!
//! | Mode | Round-trips | Used by |
//! |---|---|---|
//! | [`WriteMode::Slow`] | query `maxTS`, then update `(maxTS+1, wi)` | W2R2 (LS97), W2R1 (Algorithm 1) |
//! | [`WriteMode::Fast`] | update with a writer-local timestamp | ABD single-writer, Dutta et al. W1R1, and the *naive* multi-writer fast writes whose impossibility the paper proves |
//! | [`ReadMode::Slow`] | query max, then write back | ABD, W2R2 |
//! | [`ReadMode::Fast`] | one combined round + `admissible(·)` selection | W2R1 (Algorithm 1), Dutta et al. W1R1 |
//! | [`RoundMachine::unsecured_reader`] | query max and return it; optional read repair no one waits for | `mwr-almost`'s tunable consistency levels |
//!
//! A consistency level is a scope's quorum: `mwr-almost` runs these machines
//! under a [`Scope`] over all `S` servers whose `quorum` is the level's ack
//! count, so every round still reaches every server and the level only
//! decides when the machine stops waiting.
//!
//! # The cut
//!
//! [`RoundMachine`] owns *what to send, what counts, and what it means*:
//! operation ids and phases, `local_ts`, the `valQueue`, per-server caches,
//! both floors, each server's request in the round in flight
//! ([`frames`](RoundMachine::frames)), which reply acks that round, when its
//! quorum is complete under the [`Scope`], and what a complete round means
//! ([`Step`]). A *driver* owns *how bytes move and how long to wait*; there
//! are two, both plain callers of this struct: the simulator's
//! [`RegisterClient`](crate::RegisterClient) and `mwr-runtime`'s blocking
//! `LiveWriter` / `LiveReader`. A retry is a second call to `frames` — the
//! same [`OpHandle`], so servers treat it idempotently — and acks accumulate
//! per server for as long as the round is in flight.
//!
//! # When a fast read must be secured by a write-back
//!
//! A fast read ([`ReadMode::Fast`] or [`ReadMode::Adaptive`]) returns after
//! one round only while `admissible(·)`'s witness counting can be trusted.
//! In four cases it cannot, and the machine stores the snapshot maximum on a
//! quorum first (an ABD-style write-back, always linearizable) — one rule
//! for both modes:
//!
//! 1. **Late join** — the announced GC floor exceeds the reader's own
//!    completed floor: its `valQueue` anchor may have been pruned
//!    server-side, so selection has no degree-1 guarantee to stand on (GC
//!    argument, server module docs). Afterwards its floor has caught up.
//! 2. **Resync** — a server's delta restarts *below* the acknowledged
//!    version: it was rebuilt by state transfer, the reader's registrations
//!    on it may not have survived, and degree counts cannot be trusted. The
//!    stale mirror is reset and rebuilt from the full refresh in the reply.
//! 3. **Joint scope** — witness counting is defined within *one*
//!    configuration; the write-back, which under a joint scope lands on a
//!    quorum of both, is the classical path until the new epoch commits.
//! 4. **Scope replaced mid-round** ([`RoundMachine::rescope`]) — the quorum
//!    straddled two configurations. A view's epoch moves before any server
//!    answers under it, so a scope never replaced proves the round ran
//!    inside one configuration.
//!
//! # The `valQueue`
//!
//! A reader's `valQueue` is one sorted `Vec` of tagged values without
//! repeats. A fast read folds what its quorum holds into it with one
//! merge-join against the queue (the witness index yields its values
//! sorted): a value above the queue's maximum, which is what a read mostly
//! learns, is appended, and the rare one that falls between known values
//! is appended too and sorted into place once. GC drops what lies below
//! the announced floor with one `retain`, and what a server has not
//! acknowledged is one merge-join of the queue against that server's
//! mirror. A reader that has fallen `n` writes behind pays `n` appends.
//!
//! # Duplicate replies
//!
//! Merging deltas on arrival has one hazard: a *duplicate* reply (to a
//! re-broadcast) starts below the version its first copy just advanced the
//! cache to — exactly what a resync looks like. So "this server already
//! replied this round" is tested before anything else.

use std::collections::BTreeMap;

use mwr_types::{
    ClientId, ClusterConfig, ConfigEpoch, ReaderId, ServerId, Tag, TaggedValue, Value, WriterId,
};

use crate::admissible::{adaptive_degree_cap, SnapshotView, WitnessIndex};
use crate::events::{OpKind, OpResult};
use crate::msg::{FastReadState, Msg, OpHandle, OpId, Snapshot};
use crate::reconfig::JointQuorum;

/// How writes acquire their tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// One round-trip: the writer stamps values from a local counter.
    /// Correct with a single writer (ABD); **provably not atomic** with
    /// multiple writers (the paper's main theorem).
    Fast,
    /// Two round-trips: query `maxTS` from a quorum, then write
    /// `(maxTS + 1, wi)` (Algorithm 1's writer).
    Slow,
}

/// How reads pick their return value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// One round-trip: collect snapshots from a quorum and return the
    /// largest admissible value (Algorithm 1's reader). Atomic only when
    /// `R < S/t − 2`.
    Fast,
    /// Two round-trips: query the maximum from a quorum, write it back to a
    /// quorum, then return it (ABD/LS97 reader).
    Slow,
    /// One round-trip when possible, two otherwise: return the *global
    /// maximum* of the collected snapshots immediately if it is admissible
    /// within the safe degree budget
    /// ([`adaptive_degree_cap`](crate::adaptive_degree_cap)); fall back to
    /// an ABD-style write-back of that maximum otherwise.
    ///
    /// This is the semifast *idea* (Georgiou et al.) transplanted to the
    /// multi-writer setting. It cannot be semifast in the formal sense —
    /// the paper's §6 notes MWMR semifast implementations are impossible,
    /// and indeed the slow fallback here is unbounded under contention —
    /// but unlike Algorithm 1 it stays atomic for **any** `R`, trading the
    /// `R < S/t − 2` constraint for occasional second round-trips.
    Adaptive,
}

/// How fast-read rounds move information on the wire. Every live reader
/// runs [`FastWire::Runs`]; [`FastWire::FullInfo`] is the simulator's
/// paper-faithful oracle, chosen through
/// [`Cluster::with_wire`](crate::Cluster::with_wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FastWire {
    /// Full-information payloads, faithful to the paper's model (§4.1):
    /// the whole `valQueue` out, whole server snapshots back. O(history)
    /// per read.
    FullInfo,
    /// Delta payloads (wire version 4, [`Msg::ReadFastRuns`]): only
    /// unacknowledged `valQueue` entries out, only store changes above the
    /// reader's per-server acknowledged version back, as a
    /// [`DeltaSnapshot`](crate::DeltaSnapshot) whose records' sorted
    /// `updated` lists travel as consecutive-id runs — one run per value
    /// for the O(W×R) catch-up re-registration stream. The reader
    /// reconstructs each server's logical snapshot from cached state, so
    /// `admissible(·)` selection is unchanged. O(new information) per read.
    #[default]
    Runs,
}

/// Which servers a round covers and which acknowledgement rule completes
/// it: plain data, derived by whoever knows the configuration (a
/// [`ClusterConfig`], a keyspace router, a reconfiguration view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    /// The servers every round broadcasts to, ascending. Their number plays
    /// the paper's `S`, including in fast-read admissibility.
    pub targets: Vec<ServerId>,
    /// Replies required: `|targets| − t` in a stable epoch. Under a joint
    /// rule this holds `max(old_required, new_required)` and is used only
    /// for error reporting — satisfaction is the two-sided rule.
    pub quorum: usize,
    /// During a reconfiguration's transition window, the two-sided rule: a
    /// round completes only with a quorum in *both* configurations.
    pub joint: Option<JointQuorum>,
    /// The configuration epoch the scope was derived from.
    pub epoch: ConfigEpoch,
}

impl Scope {
    /// A stable epoch's scope: `targets`, complete on `|targets| − t`.
    ///
    /// # Panics
    ///
    /// Panics if the group is not larger than the fault bound (no quorum
    /// could ever assemble).
    pub fn stable(targets: Vec<ServerId>, t: usize, epoch: ConfigEpoch) -> Self {
        assert!(targets.len() > t, "group must outnumber faults");
        Scope { quorum: targets.len() - t, targets, joint: None, epoch }
    }

    /// Whether the acknowledging servers complete this scope's rule: the
    /// joint two-configuration rule in a transition epoch, otherwise a
    /// plain quorum counted over *members only* — a straggler ack from a
    /// server that has since been removed never counts toward a quorum of
    /// the configuration that replaced it.
    pub fn satisfied(&self, acks: &[ServerId]) -> bool {
        match &self.joint {
            Some(joint) => joint.satisfied(acks.iter().copied()),
            // Too few acks of any origin cannot hold a quorum of members.
            None => {
                acks.len() >= self.quorum
                    && acks.iter().filter(|s| self.targets.contains(s)).count() >= self.quorum
            }
        }
    }
}

/// What feeding the machine one reply (or a new scope) led to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Not an ack of the round in flight: a stale phase or operation
    /// (dropped by [`OpHandle`] equality), or a server that already
    /// replied this round.
    Ignored,
    /// Counted; the round's quorum is still incomplete.
    Wait,
    /// The round completed and the operation needs another: send
    /// [`RoundMachine::frames`] again.
    NextRound,
    /// The operation completed with this result.
    Done(OpResult),
    /// The departure was acknowledged by a quorum.
    Departed,
}

/// Role-specific client state.
#[derive(Debug)]
enum Role {
    Writer {
        id: WriterId,
        mode: WriteMode,
        /// Local timestamp counter used by [`WriteMode::Fast`].
        local_ts: u64,
    },
    Reader(Reader),
    /// A reader that returns its query round's maximum as it stands: it
    /// keeps nothing between operations.
    UnsecuredReader {
        /// Store a returned non-initial value on every server afterwards.
        repair: bool,
    },
}

#[derive(Debug)]
struct Reader {
    mode: ReadMode,
    /// Fast-read wire format.
    wire: FastWire,
    /// Algorithm 1's `valQueue`: every tagged value this reader has
    /// observed and not yet GC-pruned, ascending and without repeats;
    /// re-sent (in full or as a delta) on each fast read. See
    /// [`extend_sorted`] for how it grows.
    val_queue: Vec<TaggedValue>,
    /// Per-server snapshot caches plus the incrementally-maintained
    /// witness index over them (the runs wire only).
    state: FastReadState,
    /// The largest server-announced GC floor seen; local state below it
    /// is pruned (every client has completed an operation above it).
    gc_floor: TaggedValue,
}

/// What the round in flight is collecting.
#[derive(Debug)]
enum Phase {
    /// A slow operation's round 1: collecting the maximum stored value. A
    /// write (`Some(value)`) takes the next tag above it (`maxTS + 1`), a
    /// read writes it back.
    Query { write: Option<Value>, best: TaggedValue },
    /// The final round of any operation — a write's update, a read's
    /// write-back: storing the result's tagged value on a quorum.
    Store { result: OpResult },
    /// Fast read over the full-info wire: collecting whole snapshots.
    ReadFast { replies: BTreeMap<ServerId, Snapshot> },
    /// Fast read over the runs wire: the deltas merge straight into the
    /// reader's caches and index on arrival, nothing is held or cloned.
    ReadFastDelta,
    /// Read repair: storing an unsecured read's returned value after the
    /// read completed. No one waits for it — its acks are ignored — and the
    /// next operation abandons it.
    Repair { value: TaggedValue },
    /// Leaving the cluster: collecting `DepartAck`s.
    Depart,
}

#[derive(Debug)]
struct InFlight {
    /// The operation and which of its round-trips is in flight (1 or 2;
    /// fast modes never reach 2).
    handle: OpHandle,
    phase: Phase,
    /// Reasons 2 and 4 of the module docs, latched as they are seen.
    must_secure: bool,
}

/// One client's protocol state (reader or writer), driven by hand: `begin`,
/// send `frames`, feed `on_reply` until it says [`Step::NextRound`] (send
/// `frames` again) or [`Step::Done`].
#[derive(Debug)]
pub struct RoundMachine {
    client: ClientId,
    /// Supplies `t` and `R`; the scope's size plays `S`.
    config: ClusterConfig,
    role: Role,
    scope: Scope,
    next_seq: u64,
    /// Completed-operation floor: the largest tag this client has returned
    /// or written, piggybacked on requests for acknowledged-floor GC.
    floor: TaggedValue,
    current: Option<InFlight>,
    /// Servers that acked the round in flight, each once, across every
    /// (re-)broadcast of it. One buffer for the client's lifetime: an ack
    /// costs a scan of at most a quorum and no allocation.
    acks: Vec<ServerId>,
}

impl RoundMachine {
    /// A writer's machine, scoped to the whole of `config`.
    pub fn writer(id: WriterId, config: ClusterConfig, mode: WriteMode) -> Self {
        Self::new(ClientId::Writer(id), config, Role::Writer { id, mode, local_ts: 0 })
    }

    /// A reader's machine, scoped to the whole of `config`.
    pub fn reader(id: ReaderId, config: ClusterConfig, mode: ReadMode, wire: FastWire) -> Self {
        let reader = Reader {
            mode,
            wire,
            val_queue: vec![TaggedValue::initial()],
            state: FastReadState::new(config.readers() + config.writers()),
            gc_floor: TaggedValue::initial(),
        };
        Self::new(ClientId::Reader(id), config, Role::Reader(reader))
    }

    /// A reader that returns the maximum its query round collects without
    /// securing it by a write-back: one round-trip, and not atomic. With
    /// `repair`, a returned value other than the initial one then goes to
    /// every server in a round the read does not wait for (Cassandra-style
    /// read repair; see [`in_flight`](Self::in_flight)).
    pub fn unsecured_reader(id: ReaderId, config: ClusterConfig, repair: bool) -> Self {
        Self::new(ClientId::Reader(id), config, Role::UnsecuredReader { repair })
    }

    fn new(client: ClientId, config: ClusterConfig, role: Role) -> Self {
        let targets = config.server_ids().collect();
        RoundMachine {
            client,
            config,
            role,
            scope: Scope::stable(targets, config.max_faults(), ConfigEpoch::ZERO),
            next_seq: 0,
            floor: TaggedValue::initial(),
            current: None,
            acks: Vec::with_capacity(config.servers()),
        }
    }

    /// The client this machine speaks for.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The configuration the machine was built from (`t`, `R`, `W`).
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// The scope rounds currently run under.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// Servers that have acked the current round (the last, when idle).
    pub fn collected(&self) -> usize {
        self.acks.len()
    }

    /// The largest server-announced GC floor a reader has seen (the initial
    /// value for a writer or an unsecured reader, which never learn one).
    pub fn gc_floor(&self) -> TaggedValue {
        match &self.role {
            Role::Reader(reader) => reader.gc_floor,
            Role::Writer { .. } | Role::UnsecuredReader { .. } => TaggedValue::initial(),
        }
    }

    /// Whether a round is in flight: an operation's, or the read repair an
    /// unsecured read's [`Step::Done`] left behind, whose
    /// [`frames`](Self::frames) are still to be sent.
    pub fn in_flight(&self) -> bool {
        self.current.is_some()
    }

    /// Starts an operation; an operation still in flight is abandoned (its
    /// late acks no longer match any handle).
    ///
    /// # Panics
    ///
    /// Panics if a writer is asked to read or a reader to write (§2.1).
    pub fn begin(&mut self, kind: OpKind) -> OpId {
        let phase = match (&mut self.role, kind) {
            (Role::Writer { id, mode: WriteMode::Fast, local_ts }, OpKind::Write(v)) => {
                *local_ts += 1;
                let value = TaggedValue::new(Tag::new(*local_ts, *id), v);
                Phase::Store { result: OpResult::Written(value) }
            }
            (Role::Writer { mode: WriteMode::Slow, .. }, OpKind::Write(value)) => {
                Phase::Query { write: Some(value), best: TaggedValue::initial() }
            }
            (
                Role::Reader(Reader { mode: ReadMode::Slow, .. }) | Role::UnsecuredReader { .. },
                OpKind::Read,
            ) => Phase::Query { write: None, best: TaggedValue::initial() },
            (Role::Reader(Reader { wire: FastWire::FullInfo, .. }), OpKind::Read) => {
                Phase::ReadFast { replies: BTreeMap::new() }
            }
            (Role::Reader(_), OpKind::Read) => Phase::ReadFastDelta,
            (Role::Writer { .. }, OpKind::Read) => {
                panic!("writers cannot invoke read() (paper §2.1)")
            }
            (Role::Reader(_) | Role::UnsecuredReader { .. }, OpKind::Write(_)) => {
                panic!("readers cannot invoke write() (paper §2.1)")
            }
        };
        self.start(phase)
    }

    /// Starts leaving the cluster: one round telling the servers to drop
    /// this client's registrations and GC membership, complete
    /// ([`Step::Departed`]) on a quorum of `DepartAck`.
    pub fn depart(&mut self) -> OpId {
        self.start(Phase::Depart)
    }

    fn start(&mut self, phase: Phase) -> OpId {
        let op = OpId { client: self.client, seq: self.next_seq };
        self.next_seq += 1;
        self.current =
            Some(InFlight { handle: OpHandle { op, phase: 1 }, phase, must_secure: false });
        self.acks.clear();
        op
    }

    /// The bare protocol request each server of the scope gets in the round
    /// in flight, in target order. Calling it again is a retry: the same
    /// [`OpHandle`], and on the runs wire whatever each server has still
    /// not acknowledged.
    ///
    /// # Panics
    ///
    /// Panics if no round is in flight ([`in_flight`](Self::in_flight)).
    pub fn frames(&mut self) -> impl Iterator<Item = (ServerId, Msg)> + '_ {
        let RoundMachine { role, scope, current, floor, .. } = self;
        let inflight = current.as_ref().expect("frames() needs a round in flight");
        let (handle, floor) = (inflight.handle, *floor);
        let same_for_all = match (&inflight.phase, &*role) {
            (Phase::Query { .. }, _) => Some(Msg::Query { handle }),
            (Phase::Store { result }, _) => {
                Some(Msg::Update { handle, value: result.tagged_value(), floor })
            }
            (&Phase::Repair { value }, _) => Some(Msg::Update { handle, value, floor }),
            (Phase::Depart, _) => Some(Msg::Depart { handle }),
            (Phase::ReadFast { .. }, Role::Reader(reader)) => {
                Some(Msg::ReadFast { handle, val_queue: reader.val_queue.clone() })
            }
            _ => None,
        };
        scope.targets.iter().map(move |&server| {
            let request = same_for_all.clone().unwrap_or_else(|| {
                let Role::Reader(reader) = &mut *role else {
                    unreachable!("only readers run fast rounds")
                };
                reader.delta_request(server, handle, floor)
            });
            (server, request)
        })
    }

    /// Feeds one reply from `from`. Anything that is not an ack of the
    /// round in flight is [`Step::Ignored`]; an ack is counted, and a
    /// completed quorum advances the operation.
    pub fn on_reply(&mut self, from: ServerId, msg: Msg) -> Step {
        let Some(inflight) = self.current.as_mut() else { return Step::Ignored };
        // Before anything else (module docs): a server is heard once a round.
        if self.acks.contains(&from) {
            return Step::Ignored;
        }
        let expected = inflight.handle;
        match (msg, &mut inflight.phase) {
            (Msg::QueryAck { handle, latest }, Phase::Query { best, .. }) if handle == expected => {
                *best = (*best).max(latest);
            }
            (Msg::UpdateAck { handle }, Phase::Store { .. })
            | (Msg::DepartAck { handle }, Phase::Depart)
                if handle == expected => {}
            (Msg::ReadFastAck { handle, snapshot }, Phase::ReadFast { replies })
                if handle == expected =>
            {
                replies.insert(from, snapshot);
            }
            (Msg::ReadFastRunsAck { handle, delta }, Phase::ReadFastDelta) if handle == expected => {
                let Role::Reader(reader) = &mut self.role else {
                    unreachable!("only readers run fast rounds")
                };
                if delta.from < reader.state.cache(from).acked_version() {
                    // Resync (reason 2): drop the stale mirror and its
                    // witness-index bits; the reply covers the server's
                    // whole rebuilt store, so merging it makes the mirror
                    // exact again.
                    reader.state.reset(from);
                    inflight.must_secure = true;
                }
                reader.state.merge(from, &delta);
                reader.gc_floor = reader.gc_floor.max(delta.pruned);
            }
            _ => return Step::Ignored, // stale ack from an earlier phase or operation
        }
        self.acks.push(from);
        self.advance()
    }

    /// Replaces the scope (the driver calls it when the configuration
    /// moved). Acks already counted keep counting — each records an
    /// idempotent server-side effect that happened — and the new rule is
    /// re-evaluated over them at once; mid-operation the operation is
    /// marked "must secure" (reason 4).
    pub fn rescope(&mut self, scope: Scope) -> Step {
        self.scope = scope;
        let Some(inflight) = &mut self.current else { return Step::Wait };
        inflight.must_secure = true;
        self.advance()
    }

    /// What the collected acks mean, once they complete the scope's rule.
    fn advance(&mut self) -> Step {
        let RoundMachine { role, scope, current, config, floor, acks, .. } = self;
        let inflight = current.as_mut().expect("advancing without an operation");
        if !scope.satisfied(acks) {
            return Step::Wait;
        }
        let next = match (&inflight.phase, role) {
            (Phase::Query { write: Some(value), best }, Role::Writer { id, .. }) => {
                OpResult::Written(TaggedValue::new(best.tag().next(*id), *value))
            }
            (&Phase::Query { best, .. }, &mut Role::UnsecuredReader { repair }) => {
                let handle = OpHandle { phase: 2, ..inflight.handle };
                let done = self.finish(OpResult::Read(best));
                if repair && !best.tag().is_initial() {
                    let phase = Phase::Repair { value: best };
                    self.current = Some(InFlight { handle, phase, must_secure: false });
                    self.acks.clear();
                }
                return done;
            }
            (Phase::Query { best, .. }, _) => OpResult::Read(*best),
            (Phase::ReadFast { .. } | Phase::ReadFastDelta, Role::Reader(reader)) => {
                match reader.decide(inflight, acks, scope, config, *floor) {
                    FastRead::Return(value) => return self.finish(OpResult::Read(value)),
                    FastRead::Secure(value) => OpResult::Read(value),
                }
            }
            (&Phase::Store { result }, _) => return self.finish(result),
            (Phase::Depart, _) => {
                *current = None;
                return Step::Departed;
            }
            (phase, role) => unreachable!("{phase:?} in flight on {role:?}"),
        };
        inflight.handle.phase = 2;
        inflight.phase = Phase::Store { result: next };
        acks.clear();
        Step::NextRound
    }

    fn finish(&mut self, result: OpResult) -> Step {
        self.floor = self.floor.max(result.tagged_value());
        self.current = None;
        Step::Done(result)
    }
}

/// What a complete fast-read round decided.
enum FastRead {
    /// Selection can be trusted: return this value now.
    Return(TaggedValue),
    /// Store this value (the snapshot maximum) on a quorum first.
    Secure(TaggedValue),
}

impl Reader {
    /// A runs-wire request: only what `server` has not acknowledged yet.
    fn delta_request(&mut self, server: ServerId, handle: OpHandle, floor: TaggedValue) -> Msg {
        let cache = self.state.cache(server);
        let (acked, new_values) = (cache.acked_version(), cache.unacknowledged(&self.val_queue));
        Msg::ReadFastRuns { handle, acked, floor, new_values }
    }

    /// The tail of a fast read once its quorum is in: fold what the quorum
    /// holds into the `valQueue`, apply GC pruning, then run the mode's
    /// return-value selection over the witness index — built once from the
    /// borrowed snapshots on the full-info wire, the standing one masked to
    /// the servers that replied on the runs wire. `S` is the scope's
    /// size: a scoped reader's world is its register's group, so the
    /// selector's `needed = S − a·t` uses it; the degree cap keeps the
    /// global `R` — an upper bound on the readers actually touching this
    /// register, which only deepens the (soundness-neutral) candidate
    /// search.
    fn decide(
        &mut self,
        inflight: &InFlight,
        acks: &[ServerId],
        scope: &Scope,
        config: &ClusterConfig,
        floor: TaggedValue,
    ) -> FastRead {
        let Reader { mode, val_queue, state, gc_floor, .. } = self;
        let (servers, t, readers) = (scope.targets.len(), config.max_faults(), config.readers());
        let max_degree = match mode {
            ReadMode::Fast => readers + 1,
            ReadMode::Adaptive => adaptive_degree_cap(servers, t, readers),
            ReadMode::Slow => unreachable!("slow reads never run a fast round"),
        };
        let (built, mut scratch);
        let mut sel = match &inflight.phase {
            Phase::ReadFast { replies } => {
                for snapshot in replies.values() {
                    extend_sorted(val_queue, snapshot.entries.iter().map(|e| e.value));
                }
                built = WitnessIndex::from_views(replies.values().map(SnapshotView::Full));
                scratch = Vec::new();
                built.0.selector(&mut scratch, built.1, servers, t, max_degree)
            }
            _ => {
                let mask = acks.iter().fold(0, |m, &s| m | FastReadState::mask_bit(s));
                extend_sorted(val_queue, state.index().values_in(mask));
                state.selector(mask, servers, t, max_degree)
            }
        };
        // Entries below the announced GC floor are below every client's
        // completed-operation floor: no read can ever return them again
        // (see the GC argument in the server module docs), so they can be
        // dropped from the valQueue. Per-server caches self-prune on merge.
        if *gc_floor > TaggedValue::initial() {
            val_queue.retain(|v| *v >= *gc_floor);
        }
        // The module docs' four reasons: 2 and 4 latched, 3, 1.
        let secure = inflight.must_secure || scope.joint.is_some() || *gc_floor > floor;
        match mode {
            ReadMode::Fast if secure => {
                FastRead::Secure(sel.max_candidate().unwrap_or_else(TaggedValue::initial))
            }
            ReadMode::Fast => FastRead::Return(sel.select_return_value()),
            _ => {
                let max = sel.max_candidate().unwrap_or_else(TaggedValue::initial);
                // Fast when the maximum is safely confirmed; the degree-based
                // accept stands on the same valQueue anchor and the same
                // single-configuration witness counts as the Fast mode's
                // selection, so the same reasons override it.
                if !secure && sel.degree(max).is_some() {
                    FastRead::Return(max)
                } else {
                    FastRead::Secure(max)
                }
            }
        }
    }
}

/// Adds the ascending, repeat-free `values` to the ascending, repeat-free
/// `queue`, keeping both properties: one merge-join against the queue as it
/// was. A value above the queue's maximum — what a fast read mostly learns —
/// is appended; one that falls between known values is appended too, and a
/// single in-place sort at the end puts it where it belongs.
fn extend_sorted(queue: &mut Vec<TaggedValue>, values: impl IntoIterator<Item = TaggedValue>) {
    let old = queue.len();
    let (mut at, mut misplaced) = (0, false);
    for value in values {
        while at < old && queue[at] < value {
            at += 1;
        }
        if at < old && queue[at] == value {
            continue;
        }
        misplaced |= at < old;
        queue.push(value);
    }
    if misplaced {
        queue.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    //! The machine driven by hand against real servers: no thread, no clock.
    //! These are the decision paths only the live driver reaches (retry,
    //! resync, scopes, epochs, departure), which before the machine existed
    //! were covered by wall-clock suites alone.

    use super::*;
    use crate::msg::DeltaSnapshot;
    use crate::server::RegisterServer;
    use mwr_types::ProcessId;

    fn config() -> ClusterConfig {
        ClusterConfig::new(5, 1, 2, 1).unwrap()
    }

    fn servers() -> Vec<RegisterServer> {
        (0..5).map(|_| RegisterServer::with_gc(3)).collect()
    }

    fn ids(raw: &[u32]) -> Vec<ServerId> {
        raw.iter().copied().map(ServerId::new).collect()
    }

    fn stable(members: &[u32], epoch: u32) -> Scope {
        Scope::stable(ids(members), 1, ConfigEpoch::new(epoch))
    }

    /// The `valQueue` stays ascending and repeat-free whether what a read
    /// learns lies above it, among it, or is already in it.
    #[test]
    fn extend_sorted_appends_merges_and_skips_known_values() {
        let v = |ts| TaggedValue::new(Tag::new(ts, WriterId::new(0)), Value::new(ts));
        let mut queue = vec![TaggedValue::initial(), v(2), v(4)];
        extend_sorted(&mut queue, [v(4), v(5), v(6)]);
        assert_eq!(queue, [TaggedValue::initial(), v(2), v(4), v(5), v(6)]);
        extend_sorted(&mut queue, [v(1), v(3), v(6), v(7)]);
        assert_eq!(queue, [TaggedValue::initial(), v(1), v(2), v(3), v(4), v(5), v(6), v(7)]);
        extend_sorted(&mut queue, [v(2), v(7)]);
        assert_eq!(queue.len(), 8, "nothing new");
    }

    /// The reply server `to` gives to its frame of the round in flight.
    fn reply(machine: &mut RoundMachine, servers: &mut [RegisterServer], to: u32) -> Msg {
        let from = ProcessId::from(machine.client());
        let (_, request) =
            machine.frames().find(|(s, _)| s.index() == to).expect("a frame for every target");
        servers[to as usize].handle(from, &request).expect("servers answer requests")
    }

    /// One attempt of the round in flight that reaches `reached` only, each
    /// reply fed back as it is produced; the last step.
    fn attempt(machine: &mut RoundMachine, servers: &mut [RegisterServer], reached: &[u32]) -> Step {
        let mut step = Step::Wait;
        for &to in reached {
            let reply = reply(machine, servers, to);
            step = machine.on_reply(ServerId::new(to), reply);
        }
        step
    }

    /// A whole operation against `reached`; its result and its rounds.
    fn run(
        machine: &mut RoundMachine,
        servers: &mut [RegisterServer],
        reached: &[u32],
        kind: OpKind,
    ) -> (TaggedValue, usize) {
        machine.begin(kind);
        for rounds in 1.. {
            match attempt(machine, servers, reached) {
                Step::NextRound => {}
                Step::Done(result) => return (result.tagged_value(), rounds),
                other => panic!("{other:?} after a whole attempt"),
            }
        }
        unreachable!()
    }

    fn writer() -> RoundMachine {
        RoundMachine::writer(WriterId::new(0), config(), WriteMode::Slow)
    }

    fn reader(mode: ReadMode) -> RoundMachine {
        RoundMachine::reader(ReaderId::new(0), config(), mode, FastWire::Runs)
    }

    fn delta_of(reply: &Msg) -> &DeltaSnapshot {
        let Msg::ReadFastRunsAck { delta, .. } = reply else { panic!("{reply:?}") };
        delta
    }

    const QUORUM: &[u32] = &[0, 1, 2, 3];

    #[test]
    fn a_delta_restarting_below_the_acked_version_resets_the_cache_and_forces_the_write_back() {
        for mode in [ReadMode::Fast, ReadMode::Adaptive] {
            let (mut servers, mut writer, mut reader) = (servers(), writer(), reader(mode));
            let (written, _) = run(&mut writer, &mut servers, QUORUM, OpKind::Write(Value::new(1)));
            assert_eq!(run(&mut reader, &mut servers, QUORUM, OpKind::Read), (written, 1));

            // s0 crashes and is rebuilt from a quorum of its peers.
            let transfers: Vec<_> = servers[1..4].iter().map(|s| s.state().export()).collect();
            let floor = servers[0].state().version();
            servers[0] = RegisterServer::recovered(3, floor, &transfers);

            reader.begin(OpKind::Read);
            let refresh = reply(&mut reader, &mut servers, 0);
            assert_eq!(delta_of(&refresh).from, 0, "answered from version 0: the whole store");
            let rebuilt = delta_of(&refresh).version;
            assert_eq!(reader.on_reply(ServerId::new(0), refresh), Step::Wait);
            let Role::Reader(state) = &mut reader.role else { unreachable!() };
            assert_eq!(state.state.cache(ServerId::new(0)).acked_version(), rebuilt);
            assert_eq!(attempt(&mut reader, &mut servers, &[1, 2, 3]), Step::NextRound, "{mode:?}");
            assert_eq!(attempt(&mut reader, &mut servers, QUORUM), Step::Done(OpResult::Read(written)));
            assert_eq!(run(&mut reader, &mut servers, QUORUM, OpKind::Read), (written, 1));
        }
    }

    #[test]
    fn a_duplicate_reply_is_ignored_and_does_not_look_like_a_resync() {
        let (mut servers, mut writer, mut reader) = (servers(), writer(), reader(ReadMode::Fast));
        run(&mut writer, &mut servers, QUORUM, OpKind::Write(Value::new(1)));
        run(&mut reader, &mut servers, QUORUM, OpKind::Read);
        let (written, _) = run(&mut writer, &mut servers, QUORUM, OpKind::Write(Value::new(2)));

        // Two attempts reach s0 before either reply comes back.
        reader.begin(OpKind::Read);
        let first = reply(&mut reader, &mut servers, 0);
        let second = reply(&mut reader, &mut servers, 0);
        assert_eq!(reader.on_reply(ServerId::new(0), first.clone()), Step::Wait);
        assert!(delta_of(&second).from < delta_of(&first).version, "would read as a rebuild");
        assert_eq!(reader.on_reply(ServerId::new(0), second), Step::Ignored);
        assert_eq!(reader.collected(), 1);
        assert_eq!(
            attempt(&mut reader, &mut servers, &[1, 2, 3]),
            Step::Done(OpResult::Read(written)),
            "one round: nothing was forced"
        );
    }

    #[test]
    fn a_joint_scope_completes_on_a_quorum_of_both_sides_and_forces_the_write_back() {
        let (mut servers, mut writer, mut reader) = (servers(), writer(), reader(ReadMode::Fast));
        let (written, _) = run(&mut writer, &mut servers, QUORUM, OpKind::Write(Value::new(1)));
        let joint = JointQuorum::new(ids(&[0, 1, 2]), 2, ids(&[2, 3, 4]), 2);
        let scope = Scope {
            targets: joint.union(),
            quorum: 2,
            joint: Some(joint),
            epoch: ConfigEpoch::new(1),
        };
        assert_eq!(reader.rescope(scope), Step::Wait, "between operations");

        reader.begin(OpKind::Read);
        assert_eq!(attempt(&mut reader, &mut servers, &[0, 1]), Step::Wait, "an old quorum alone");
        assert_eq!(attempt(&mut reader, &mut servers, &[3]), Step::Wait, "one new member short");
        assert_eq!(attempt(&mut reader, &mut servers, &[4]), Step::NextRound, "never fast");
        assert_eq!(attempt(&mut reader, &mut servers, &[3, 4]), Step::Wait, "a new quorum alone");
        assert_eq!(attempt(&mut reader, &mut servers, &[0]), Step::Wait);
        assert_eq!(attempt(&mut reader, &mut servers, &[1]), Step::Done(OpResult::Read(written)));

        // The new epoch commits: the scope is stable again and reads are fast.
        reader.rescope(stable(&[2, 3, 4], 2));
        assert_eq!(run(&mut reader, &mut servers, &[2, 3], OpKind::Read), (written, 1));
    }

    #[test]
    fn a_rescope_mid_round_keeps_the_acks_reevaluates_the_rule_and_forces_the_write_back() {
        for mode in [ReadMode::Fast, ReadMode::Adaptive] {
            let (mut servers, mut writer, mut reader) = (servers(), writer(), reader(mode));
            let (written, _) = run(&mut writer, &mut servers, QUORUM, OpKind::Write(Value::new(1)));
            reader.begin(OpKind::Read);
            assert_eq!(attempt(&mut reader, &mut servers, &[0, 1, 2]), Step::Wait, "3 of 4");
            // The cluster shrinks to {0, 1, 2}: the three acks are a quorum
            // of it, and a round that straddled the change is never fast.
            assert_eq!(reader.rescope(stable(&[0, 1, 2], 1)), Step::NextRound, "{mode:?}");
            assert_eq!(reader.frames().map(|(s, _)| s).collect::<Vec<_>>(), ids(&[0, 1, 2]));
            assert_eq!(
                attempt(&mut reader, &mut servers, &[0, 1]),
                Step::Done(OpResult::Read(written))
            );
        }
    }

    #[test]
    fn an_ack_from_outside_the_scope_never_counts() {
        let (mut servers, mut writer) = (servers(), writer());
        writer.rescope(stable(&[0, 1, 2], 0));
        writer.begin(OpKind::Write(Value::new(1)));
        // A removed server's straggler: the right handle, the wrong sender.
        let ack = reply(&mut writer, &mut servers, 0);
        assert_eq!(writer.on_reply(ServerId::new(3), ack.clone()), Step::Wait);
        assert_eq!(writer.on_reply(ServerId::new(4), ack.clone()), Step::Wait);
        assert_eq!(writer.on_reply(ServerId::new(0), ack), Step::Wait, "one member of two");
        assert_eq!(attempt(&mut writer, &mut servers, &[1]), Step::NextRound);
    }

    #[test]
    fn a_retry_carries_the_same_handle_and_a_stale_phase_is_dropped() {
        let (mut servers, mut writer, mut reader) = (servers(), writer(), reader(ReadMode::Fast));
        reader.begin(OpKind::Read);
        let first: Vec<_> = reader.frames().collect();
        assert_eq!(reader.frames().collect::<Vec<_>>(), first, "per-server delta requests");

        writer.begin(OpKind::Write(Value::new(1)));
        let first: Vec<_> = writer.frames().collect();
        assert_eq!(writer.frames().collect::<Vec<_>>(), first);
        let query_ack = reply(&mut writer, &mut servers, 4);
        assert_eq!(attempt(&mut writer, &mut servers, QUORUM), Step::NextRound);
        assert_eq!(writer.on_reply(ServerId::new(4), query_ack), Step::Ignored, "round 1's straggler");
        assert_eq!(writer.collected(), 0);
    }

    #[test]
    fn depart_completes_on_a_quorum_of_depart_acks() {
        let (mut servers, mut reader) = (servers(), reader(ReadMode::Fast));
        run(&mut reader, &mut servers, QUORUM, OpKind::Read);
        reader.depart();
        assert_eq!(attempt(&mut reader, &mut servers, &[0, 1, 2]), Step::Wait);
        assert_eq!(attempt(&mut reader, &mut servers, &[2]), Step::Ignored, "already heard");
        assert_eq!(attempt(&mut reader, &mut servers, &[4]), Step::Departed);
    }

    /// A consistency level as `mwr-almost` sets one: every server, `level` acks.
    fn level(level: usize) -> Scope {
        Scope { targets: ids(&[0, 1, 2, 3, 4]), quorum: level, joint: None, epoch: ConfigEpoch::ZERO }
    }

    #[test]
    fn a_level_is_a_quorum_and_a_read_repair_is_sent_but_never_awaited() {
        let mut servers = servers();
        let mut writer = RoundMachine::writer(WriterId::new(0), config(), WriteMode::Fast);
        writer.rescope(level(1));
        writer.begin(OpKind::Write(Value::new(1)));
        let written = TaggedValue::new(Tag::new(1, WriterId::new(0)), Value::new(1));
        assert_eq!(attempt(&mut writer, &mut servers, &[0]), Step::Done(OpResult::Written(written)));

        let mut reader = RoundMachine::unsecured_reader(ReaderId::new(0), config(), true);
        reader.rescope(level(2));
        let op = reader.begin(OpKind::Read);
        assert_eq!(attempt(&mut reader, &mut servers, &[1]), Step::Wait);
        assert_eq!(attempt(&mut reader, &mut servers, &[0]), Step::Done(OpResult::Read(written)));
        assert!(reader.in_flight(), "the repair outlives the read");
        let repair = Msg::Update { handle: OpHandle { op, phase: 2 }, value: written, floor: written };
        assert!(reader.frames().eq(ids(&[0, 1, 2, 3, 4]).into_iter().map(|s| (s, repair.clone()))));

        let ack = reply(&mut reader, &mut servers, 2);
        assert_eq!(reader.on_reply(ServerId::new(2), ack), Step::Ignored, "no one waits for it");
        let late = reply(&mut reader, &mut servers, 3);
        reader.begin(OpKind::Read);
        assert_eq!(reader.on_reply(ServerId::new(3), late), Step::Ignored, "abandoned by begin");
        assert_eq!(attempt(&mut reader, &mut servers, &[2, 3]), Step::Done(OpResult::Read(written)));

        let mut servers = self::servers();
        let mut reader = RoundMachine::unsecured_reader(ReaderId::new(1), config(), true);
        reader.rescope(level(2));
        assert_eq!(run(&mut reader, &mut servers, &[3, 4], OpKind::Read), (TaggedValue::initial(), 1));
        assert!(!reader.in_flight(), "the initial value is never repaired");
    }

    /// Wire bytes of one fast read: its frame to every target plus the
    /// replies of [`QUORUM`], which must complete it in one round.
    fn fast_read_bytes(reader: &mut RoundMachine, servers: &mut [RegisterServer]) -> usize {
        use mwr_types::codec::Wire as _;
        reader.begin(OpKind::Read);
        let mut bytes: usize = reader.frames().map(|(_, request)| request.encoded_len()).sum();
        let mut step = Step::Wait;
        for &to in QUORUM {
            let reply = reply(reader, servers, to);
            bytes += reply.encoded_len();
            step = reader.on_reply(ServerId::new(to), reply);
        }
        assert!(matches!(step, Step::Done(OpResult::Read(_))), "one round: {step:?}");
        bytes
    }

    #[test]
    fn fast_read_payload_stays_flat_on_the_runs_wire_and_grows_on_full_info() {
        const PAIRS: usize = 600;
        const WINDOW: usize = 100;
        // One writer and one reader, so every operation advances a floor
        // (a full-info reader reports none, so its servers never prune).
        let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
        let growth = |wire: FastWire| {
            let mut servers = servers();
            let mut writer = RoundMachine::writer(WriterId::new(0), config, WriteMode::Slow);
            let mut reader = RoundMachine::reader(ReaderId::new(0), config, ReadMode::Fast, wire);
            let bytes: Vec<usize> = (1..=PAIRS as u64)
                .map(|i| {
                    run(&mut writer, &mut servers, QUORUM, OpKind::Write(Value::new(i)));
                    fast_read_bytes(&mut reader, &mut servers)
                })
                .collect();
            let mean = |window: &[usize]| window.iter().sum::<usize>() as f64 / WINDOW as f64;
            (mean(&bytes[..WINDOW]), mean(&bytes[PAIRS - WINDOW..]))
        };
        let (first, last) = growth(FastWire::Runs);
        assert!(last <= 1.05 * first, "Runs grew with history: {first} -> {last} B/read");
        let (first, last) = growth(FastWire::FullInfo);
        assert!(last >= 5.0 * first, "full-info must grow with history: {first} -> {last} B/read");
    }
}
