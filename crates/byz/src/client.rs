//! The Byzantine-hardened register client.
//!
//! It speaks `mwr-core`'s messages but, unlike `mwr-almost`'s tunable
//! clients, is not a configuration of `mwr-core`'s round machine
//! (`RoundMachine`). At `b = 0` it is that machine at `t = 0` on the
//! full-info wire without GC: a vouch threshold of 1 accepts every reported
//! value and `safe_max_tag(tags, 0)` is the maximum (on 20 of 20 seeds at
//! `(5, 0, 2, 2)`, both read modes give the same client events and delivery
//! counts as W2R1 and W2R2). For `b > 0` vouching judges the *set* of
//! quorum replies, not each reply as it arrives, and the machine lacks what
//! that needs:
//!
//! - its `Query` round keeps only the maximum, where [`safe_max_tag`] needs
//!   every reported tag;
//! - slow reads here collect full snapshots to vouch, not `QueryAck`s;
//! - selection runs the naive `Admissibility` over freshly vouched
//!   snapshots with `2b` and `quorum_size()`, not the machine's standing
//!   witness index with `t` and `S`.
//!
//! Folding it would put a `b` branch into each of the machine's phases for
//! a client only the simulator runs, so it stays. The hardening is
//! threefold:
//!
//! 1. **Inflation-immune write tags** — the writer's first round takes the
//!    `(b + 1)`-st largest reported tag ([`safe_max_tag`]) instead of the
//!    maximum, so forged timestamps cannot drag the clock while every
//!    *completed* write (vouched by `b + 1` quorum-intersection servers) is
//!    still dominated.
//! 2. **Vouched reads** — a read believes a value only when `b + 1` servers
//!    report it identically ([`vouched_values`]); forgeries never qualify.
//! 3. **Quarantined gossip** — the reader's `valQueue` (the Algorithm 1
//!    mechanism by which reads inform later reads) only ever carries
//!    vouched values, so a reader never launders a forgery into the
//!    correct servers' stores.
//!
//! Unlike `mwr-core` and `mwr-runtime`, this client deliberately stays on
//! the *full-info* fast-read wire: the delta protocol trusts each server's
//! version accounting (what the reader "already knows" is whatever that
//! server previously claimed to have sent), and a Byzantine server could
//! equivocate about its version window to starve the reader of vouchable
//! copies. Full snapshots keep the `b + 1`-identical-copies vouching sound.
//! For the same reason the acknowledged-floor GC piggyback stays inert here
//! (floors are reported as the initial tag and Byzantine-era servers never
//! prune).
//!
//! [`safe_max_tag`]: crate::safe_max_tag
//! [`vouched_values`]: crate::vouched_values

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mwr_core::{Admissibility, ClientEvent, Msg, OpHandle, OpId, OpKind, OpResult, Snapshot};
use mwr_sim::{Automaton, Context};
use mwr_types::{ClientId, ProcessId, ReaderId, ServerId, Tag, TaggedValue, Value, WriterId};

use crate::config::ByzConfig;
use crate::vouch::{safe_max_tag, vouched_snapshots, vouched_values};

/// How reads pick their return value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzReadMode {
    /// Two round-trips: vouched maximum, then write-back — the Byzantine
    /// W2R2. Atomic whenever `S ≥ 4b + 1` (the masking-quorum regime).
    Slow,
    /// One round-trip: vouched admissibility selection — the Byzantine
    /// W2R1. Feasibility frontier mapped empirically against
    /// [`ByzConfig::fast_read_conjecture`].
    Fast,
}

impl ByzReadMode {
    /// Round-trips per read.
    pub fn round_trips(self) -> usize {
        match self {
            ByzReadMode::Fast => 1,
            ByzReadMode::Slow => 2,
        }
    }
}

#[derive(Debug)]
enum Role {
    Writer { id: WriterId },
    Reader {
        id: ReaderId,
        mode: ByzReadMode,
        /// Vouched values this reader has observed; re-sent on every read.
        val_queue: BTreeSet<TaggedValue>,
    },
}

#[derive(Debug)]
enum Phase {
    /// Write round 1: collecting tags for the inflation-immune maximum.
    WriteQuery { value: Value, tags: Vec<Tag>, acks: BTreeSet<ServerId> },
    /// Write round 2 / read write-back: storing a tagged value.
    Update { value: TaggedValue, is_read_back: bool, acks: BTreeSet<ServerId> },
    /// Read round 1 (both modes): collecting snapshots.
    ReadCollect { replies: BTreeMap<ServerId, Snapshot> },
}

#[derive(Debug)]
struct InFlight {
    op: OpId,
    kind: OpKind,
    phase_no: u8,
    phase: Phase,
}

/// A Byzantine-hardened client (reader or writer) for the simulator.
///
/// # Examples
///
/// ```
/// use mwr_byz::{ByzClient, ByzConfig, ByzReadMode};
/// use mwr_types::{ReaderId, WriterId};
///
/// let config = ByzConfig::new(5, 1, 2, 2)?;
/// let _writer = ByzClient::writer(WriterId::new(0), config);
/// let _reader = ByzClient::reader(ReaderId::new(0), config, ByzReadMode::Slow);
/// # Ok::<(), mwr_byz::ByzConfigError>(())
/// ```
#[derive(Debug)]
pub struct ByzClient {
    config: ByzConfig,
    role: Role,
    pending: VecDeque<OpKind>,
    current: Option<InFlight>,
    next_seq: u64,
}

impl ByzClient {
    /// Creates a writer client. Writes are always two round-trips (the
    /// paper's Theorem 1 rules out fast multi-writer writes even without
    /// Byzantine servers).
    pub fn writer(id: WriterId, config: ByzConfig) -> Self {
        ByzClient {
            config,
            role: Role::Writer { id },
            pending: VecDeque::new(),
            current: None,
            next_seq: 0,
        }
    }

    /// Creates a reader client with the given read mode.
    pub fn reader(id: ReaderId, config: ByzConfig, mode: ByzReadMode) -> Self {
        let mut val_queue = BTreeSet::new();
        val_queue.insert(TaggedValue::initial());
        ByzClient {
            config,
            role: Role::Reader { id, mode, val_queue },
            pending: VecDeque::new(),
            current: None,
            next_seq: 0,
        }
    }

    fn client_id(&self) -> ClientId {
        match &self.role {
            Role::Writer { id } => ClientId::Writer(*id),
            Role::Reader { id, .. } => ClientId::Reader(*id),
        }
    }

    /// Whether an operation is currently executing.
    pub fn is_busy(&self) -> bool {
        self.current.is_some()
    }

    fn start_next(&mut self, ctx: &mut Context<'_, Msg, ClientEvent>) {
        debug_assert!(self.current.is_none());
        let Some(kind) = self.pending.pop_front() else {
            return;
        };
        let op = OpId { client: self.client_id(), seq: self.next_seq };
        self.next_seq += 1;
        ctx.notify(ClientEvent::Invoked { op, kind });

        let servers = self.config.servers();
        let phase = match (&mut self.role, kind) {
            (Role::Writer { .. }, OpKind::Write(v)) => {
                let handle = OpHandle { op, phase: 1 };
                ctx.broadcast_to_servers(servers, Msg::Query { handle });
                Phase::WriteQuery { value: v, tags: Vec::new(), acks: BTreeSet::new() }
            }
            (Role::Reader { val_queue, .. }, OpKind::Read) => {
                let handle = OpHandle { op, phase: 1 };
                let val_queue: Vec<TaggedValue> = val_queue.iter().copied().collect();
                ctx.broadcast_to_servers(servers, Msg::ReadFast { handle, val_queue });
                Phase::ReadCollect { replies: BTreeMap::new() }
            }
            (Role::Writer { .. }, OpKind::Read) => {
                panic!("writers cannot invoke read() (paper §2.1)")
            }
            (Role::Reader { .. }, OpKind::Write(_)) => {
                panic!("readers cannot invoke write() (paper §2.1)")
            }
        };
        self.current = Some(InFlight { op, kind, phase_no: 1, phase });
    }

    fn complete(&mut self, result: OpResult, ctx: &mut Context<'_, Msg, ClientEvent>) {
        let inflight = self.current.take().expect("completing without an op");
        ctx.notify(ClientEvent::Completed { op: inflight.op, kind: inflight.kind, result });
        self.start_next(ctx);
    }

    fn on_ack(&mut self, server: ServerId, msg: &Msg) -> Option<AckAction> {
        let config = self.config;
        let quorum = config.quorum_size();
        let inflight = self.current.as_mut()?;
        let expected = OpHandle { op: inflight.op, phase: inflight.phase_no };

        match (msg, &mut inflight.phase) {
            (Msg::QueryAck { handle, latest }, Phase::WriteQuery { value, tags, acks })
                if *handle == expected =>
            {
                if acks.insert(server) {
                    tags.push(latest.tag());
                }
                if acks.len() >= quorum {
                    let Role::Writer { id } = &self.role else { unreachable!() };
                    let safe = safe_max_tag(tags, config.byz());
                    let tagged = TaggedValue::new(safe.next(*id), *value);
                    let handle = OpHandle { op: inflight.op, phase: 2 };
                    inflight.phase_no = 2;
                    inflight.phase =
                        Phase::Update { value: tagged, is_read_back: false, acks: BTreeSet::new() };
                    return Some(AckAction::Broadcast(Msg::Update {
                        handle,
                        value: tagged,
                        floor: TaggedValue::initial(),
                    }));
                }
                None
            }
            (Msg::UpdateAck { handle }, Phase::Update { value, is_read_back, acks })
                if *handle == expected =>
            {
                acks.insert(server);
                if acks.len() >= quorum {
                    let result = if *is_read_back {
                        OpResult::Read(*value)
                    } else {
                        OpResult::Written(*value)
                    };
                    return Some(AckAction::Complete(result));
                }
                None
            }
            (Msg::ReadFastAck { handle, snapshot }, Phase::ReadCollect { replies })
                if *handle == expected =>
            {
                replies.insert(server, snapshot.clone());
                if replies.len() >= quorum {
                    let snaps: Vec<Snapshot> = replies.values().cloned().collect();
                    let threshold = config.vouch_threshold();
                    let vouched = vouched_values(&snaps, threshold);
                    let Role::Reader { mode, val_queue, .. } = &mut self.role else {
                        unreachable!()
                    };
                    // Quarantined gossip: only vouched values enter the
                    // queue this reader re-broadcasts.
                    val_queue.extend(vouched.iter().copied());
                    match mode {
                        ByzReadMode::Fast => {
                            // Deliberately the naive `Admissibility`
                            // evaluator (via the `SnapshotSource` seam, like
                            // every reply shape): the vouch filter
                            // synthesizes these snapshots fresh each read,
                            // so there is no standing per-server cache for
                            // the incremental `WitnessIndex` to ride on, and
                            // the reference implementation keeps the
                            // Byzantine path trivially aligned with the
                            // specification the proptests pin.
                            let filtered = vouched_snapshots(&snaps, threshold);
                            let chosen = Admissibility::new(
                                &filtered,
                                config.quorum_size(),
                                2 * config.byz(),
                                config.readers() + 1,
                            )
                            .select_return_value();
                            Some(AckAction::Complete(OpResult::Read(chosen)))
                        }
                        ByzReadMode::Slow => {
                            let chosen = *vouched
                                .last()
                                .expect("the initial value is always vouched");
                            let handle = OpHandle { op: inflight.op, phase: 2 };
                            inflight.phase_no = 2;
                            inflight.phase = Phase::Update {
                                value: chosen,
                                is_read_back: true,
                                acks: BTreeSet::new(),
                            };
                            Some(AckAction::Broadcast(Msg::Update {
                                handle,
                                value: chosen,
                                floor: TaggedValue::initial(),
                            }))
                        }
                    }
                } else {
                    None
                }
            }
            _ => None, // stale ack from an earlier phase or operation
        }
    }
}

/// What a quorum of acks triggers.
#[derive(Debug)]
enum AckAction {
    Broadcast(Msg),
    Complete(OpResult),
}

impl Automaton<Msg, ClientEvent> for ByzClient {
    fn on_external(&mut self, input: Msg, ctx: &mut Context<'_, Msg, ClientEvent>) {
        match input {
            Msg::InvokeRead => self.pending.push_back(OpKind::Read),
            Msg::InvokeWrite(v) => self.pending.push_back(OpKind::Write(v)),
            other => panic!("unexpected external input {other:?}"),
        }
        if self.current.is_none() {
            self.start_next(ctx);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg, ClientEvent>) {
        let Some(server) = from.as_server() else {
            return;
        };
        match self.on_ack(server, &msg) {
            None => {}
            Some(AckAction::Broadcast(next_round)) => {
                let op = self.current.as_ref().expect("broadcasting mid-operation").op;
                ctx.notify(ClientEvent::SecondRound { op });
                ctx.broadcast_to_servers(self.config.servers(), next_round);
            }
            Some(AckAction::Complete(result)) => self.complete(result, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ByzBehavior;
    use crate::server::ByzRegisterServer;
    use mwr_sim::{SimTime, Simulation};

    fn build_sim(
        config: ByzConfig,
        mode: ByzReadMode,
        behavior: ByzBehavior,
        seed: u64,
    ) -> Simulation<Msg, ClientEvent> {
        let mut sim = Simulation::new(seed);
        for s in 0..config.servers() {
            let b = if s < config.byz() { behavior } else { ByzBehavior::Honest };
            sim.add_process(ProcessId::server(s as u32), ByzRegisterServer::new(b));
        }
        for w in 0..config.writers() {
            sim.add_process(
                ProcessId::writer(w as u32),
                ByzClient::writer(WriterId::new(w as u32), config),
            );
        }
        for r in 0..config.readers() {
            sim.add_process(
                ProcessId::reader(r as u32),
                ByzClient::reader(ReaderId::new(r as u32), config, mode),
            );
        }
        sim
    }

    fn completions(events: &[(SimTime, ClientEvent)]) -> Vec<OpResult> {
        events
            .iter()
            .filter_map(|(_, e)| match e {
                ClientEvent::Completed { result, .. } => Some(*result),
                _ => None,
            })
            .collect()
    }

    fn write_then_read(
        config: ByzConfig,
        mode: ByzReadMode,
        behavior: ByzBehavior,
        seed: u64,
    ) -> (TaggedValue, TaggedValue) {
        let mut sim = build_sim(config, mode, behavior, seed);
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(42)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(200), ProcessId::reader(0), Msg::InvokeRead)
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        assert_eq!(done.len(), 2, "{behavior}: both operations complete");
        let OpResult::Written(wv) = done[0] else { panic!("write first") };
        let OpResult::Read(rv) = done[1] else { panic!("read second") };
        (wv, rv)
    }

    #[test]
    fn sequential_read_after_write_survives_every_behavior() {
        let config = ByzConfig::new(5, 1, 2, 2).unwrap();
        for behavior in ByzBehavior::ADVERSARIAL {
            for mode in [ByzReadMode::Slow, ByzReadMode::Fast] {
                let (wv, rv) = write_then_read(config, mode, behavior, 7);
                assert_eq!(rv, wv, "{behavior}/{mode:?}: read returns the genuine write");
                assert_eq!(rv.value(), Value::new(42));
            }
        }
    }

    #[test]
    fn forged_tags_do_not_inflate_write_timestamps() {
        let config = ByzConfig::new(5, 1, 2, 2).unwrap();
        let (wv, _) = write_then_read(
            config,
            ByzReadMode::Slow,
            ByzBehavior::TagInflater { boost: 1_000_000 },
            3,
        );
        assert_eq!(wv.tag().ts(), 1, "the first write is (1, w0), not boosted");
    }

    #[test]
    fn forged_values_are_never_returned() {
        let config = ByzConfig::new(5, 1, 2, 2).unwrap();
        for mode in [ByzReadMode::Slow, ByzReadMode::Fast] {
            let mut sim = build_sim(config, mode, ByzBehavior::TagInflater { boost: 50 }, 11);
            // Read a register nobody ever wrote: the only non-initial
            // reports are forged.
            sim.schedule_external(SimTime::ZERO, ProcessId::reader(0), Msg::InvokeRead).unwrap();
            sim.run_until_quiescent().unwrap();
            let done = completions(&sim.drain_notifications());
            let OpResult::Read(rv) = done[0] else { panic!() };
            assert!(rv.tag().is_initial(), "{mode:?}: the forgery must be rejected");
        }
    }

    #[test]
    fn operations_complete_with_b_mute_servers() {
        let config = ByzConfig::new(9, 2, 2, 2).unwrap();
        for mode in [ByzReadMode::Slow, ByzReadMode::Fast] {
            let (wv, rv) = write_then_read(config, mode, ByzBehavior::Mute, 13);
            assert_eq!(rv, wv, "{mode:?}: wait-free despite 2 silent servers");
        }
    }

    #[test]
    fn equivocator_cannot_split_sequential_readers() {
        // Reader 0 (even: sees truth) and reader 1 (odd: sees stale) read
        // sequentially after a write; both must return the genuine value.
        let config = ByzConfig::new(5, 1, 2, 2).unwrap();
        for mode in [ByzReadMode::Slow, ByzReadMode::Fast] {
            let mut sim = build_sim(config, mode, ByzBehavior::Equivocator, 17);
            sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(5)))
                .unwrap();
            sim.schedule_external(SimTime::from_ticks(200), ProcessId::reader(0), Msg::InvokeRead)
                .unwrap();
            sim.schedule_external(SimTime::from_ticks(400), ProcessId::reader(1), Msg::InvokeRead)
                .unwrap();
            sim.run_until_quiescent().unwrap();
            let done = completions(&sim.drain_notifications());
            let OpResult::Read(r0) = done[1] else { panic!() };
            let OpResult::Read(r1) = done[2] else { panic!() };
            assert_eq!(r0.value(), Value::new(5), "{mode:?}");
            assert_eq!(r1.value(), Value::new(5), "{mode:?}: the odd reader is not fooled");
        }
    }

    #[test]
    fn sequential_writes_get_increasing_tags_despite_inflation() {
        let config = ByzConfig::new(5, 1, 2, 2).unwrap();
        let mut sim = build_sim(
            config,
            ByzReadMode::Slow,
            ByzBehavior::TagInflater { boost: 777 },
            19,
        );
        for (i, v) in [10u64, 20, 30].iter().enumerate() {
            sim.schedule_external(
                SimTime::from_ticks(i as u64 * 200),
                ProcessId::writer((i % 2) as u32),
                Msg::InvokeWrite(Value::new(*v)),
            )
            .unwrap();
        }
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        let tags: Vec<Tag> = done
            .iter()
            .map(|r| match r {
                OpResult::Written(tv) => tv.tag(),
                _ => panic!(),
            })
            .collect();
        assert!(tags[0] < tags[1] && tags[1] < tags[2], "tags grow: {tags:?}");
        assert!(tags[2].ts() <= 3, "no forged acceleration: {tags:?}");
    }

    #[test]
    #[should_panic(expected = "writers cannot invoke read()")]
    fn writer_rejects_read_invocation() {
        let config = ByzConfig::new(5, 1, 1, 1).unwrap();
        let mut sim = build_sim(config, ByzReadMode::Slow, ByzBehavior::Honest, 1);
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeRead).unwrap();
        let _ = sim.run_until_quiescent();
    }
}
