//! The simulator's driver of the client [`RoundMachine`]: an event-driven
//! automaton that queues invocations, puts the machine's frames on
//! `ctx.send` and turns its steps into [`ClientEvent`] notifications.
//!
//! Everything the protocol decides — modes, phases, quorums, the fast read's
//! `admissible(·)` selection — lives in the machine ([`crate::round`]'s
//! module docs), which `mwr-runtime`'s blocking clients drive too; this file
//! owns only what the simulator adds.
//!
//! Clients serialize their own operations (executions are well-formed per
//! client, §2.1): invocations arriving while an operation is in flight are
//! queued and their `Invoked` event is emitted when they actually start.

use std::collections::VecDeque;

use mwr_sim::{Automaton, Context};
use mwr_types::{ClusterConfig, ProcessId, ReaderId, WriterId};

use crate::events::{ClientEvent, OpKind};
use crate::msg::{Msg, OpId};
use crate::round::{FastWire, ReadMode, RoundMachine, Step, WriteMode};

/// A client automaton (reader or writer) for the simulator.
///
/// # Examples
///
/// Assembling clients by hand; see [`Cluster`](crate::Cluster) for the
/// one-call harness.
///
/// ```
/// use mwr_core::{ReadMode, RegisterClient, WriteMode};
/// use mwr_types::{ClusterConfig, ReaderId, WriterId};
///
/// let config = ClusterConfig::new(5, 1, 2, 2)?;
/// let _writer = RegisterClient::writer(WriterId::new(0), config, WriteMode::Slow);
/// let _reader = RegisterClient::reader(ReaderId::new(0), config, ReadMode::Fast);
/// # Ok::<(), mwr_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct RegisterClient {
    machine: RoundMachine,
    pending: VecDeque<OpKind>,
    /// The operation in flight, kept for its `Completed` notification.
    current: Option<(OpId, OpKind)>,
}

impl RegisterClient {
    /// Creates a writer client with the given write mode.
    pub fn writer(id: WriterId, config: ClusterConfig, mode: WriteMode) -> Self {
        Self::drive(RoundMachine::writer(id, config, mode))
    }

    /// Creates a reader client with the given read mode and the default
    /// [`FastWire::Runs`] wire format.
    pub fn reader(id: ReaderId, config: ClusterConfig, mode: ReadMode) -> Self {
        Self::reader_with_wire(id, config, mode, FastWire::default())
    }

    /// Creates a reader client with an explicit fast-read wire format.
    pub fn reader_with_wire(
        id: ReaderId,
        config: ClusterConfig,
        mode: ReadMode,
        wire: FastWire,
    ) -> Self {
        Self::drive(RoundMachine::reader(id, config, mode, wire))
    }

    /// Creates a client driving a machine its caller configured: another
    /// scope (`mwr-almost`'s consistency levels) or an
    /// [`unsecured_reader`](RoundMachine::unsecured_reader).
    pub fn drive(machine: RoundMachine) -> Self {
        RegisterClient { machine, pending: VecDeque::new(), current: None }
    }

    fn start_next(&mut self, ctx: &mut Context<'_, Msg, ClientEvent>) {
        debug_assert!(self.current.is_none());
        let Some(kind) = self.pending.pop_front() else {
            return;
        };
        let op = self.machine.begin(kind);
        self.current = Some((op, kind));
        ctx.notify(ClientEvent::Invoked { op, kind });
        self.send_round(ctx);
    }

    /// Puts the round in flight on the wire: one send per server, `0..S`.
    fn send_round(&mut self, ctx: &mut Context<'_, Msg, ClientEvent>) {
        for (server, request) in self.machine.frames() {
            ctx.send(ProcessId::Server(server), request);
        }
    }
}

impl Automaton<Msg, ClientEvent> for RegisterClient {
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
            return; // clients only hear from servers
        };
        match self.machine.on_reply(server, msg) {
            Step::NextRound => {
                let (op, _) = self.current.expect("a round follows a round");
                ctx.notify(ClientEvent::SecondRound { op });
                self.send_round(ctx);
            }
            Step::Done(result) => {
                let (op, kind) = self.current.take().expect("completing without an op");
                // A read repair outlives its read: sent before the next
                // operation's round, awaited by no one.
                if self.machine.in_flight() {
                    self.send_round(ctx);
                }
                ctx.notify(ClientEvent::Completed { op, kind, result });
                self.start_next(ctx);
            }
            // The simulator's clients never depart.
            Step::Ignored | Step::Wait | Step::Departed => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::OpResult;
    use crate::server::RegisterServer;
    use mwr_sim::{SimTime, Simulation};
    use mwr_types::{Tag, TaggedValue, Value};

    fn config() -> ClusterConfig {
        ClusterConfig::new(5, 1, 2, 2).unwrap()
    }

    fn build_sim(
        write_mode: WriteMode,
        read_mode: ReadMode,
        seed: u64,
    ) -> Simulation<Msg, ClientEvent> {
        let cfg = config();
        let mut sim = Simulation::new(seed);
        for s in cfg.server_ids() {
            sim.add_process(ProcessId::Server(s), RegisterServer::new());
        }
        for w in cfg.writer_ids() {
            sim.add_process(w.into(), RegisterClient::writer(w, cfg, write_mode));
        }
        for r in cfg.reader_ids() {
            sim.add_process(r.into(), RegisterClient::reader(r, cfg, read_mode));
        }
        sim
    }

    fn completions(events: &[(SimTime, ClientEvent)]) -> Vec<(OpId, OpResult)> {
        events
            .iter()
            .filter_map(|(_, e)| match e {
                ClientEvent::Completed { op, result, .. } => Some((*op, *result)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn slow_write_then_slow_read_returns_written_value() {
        let mut sim = build_sim(WriteMode::Slow, ReadMode::Slow, 1);
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(42)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(100), ProcessId::reader(0), Msg::InvokeRead)
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        assert_eq!(done.len(), 2);
        let OpResult::Written(wv) = done[0].1 else { panic!("write first") };
        let OpResult::Read(rv) = done[1].1 else { panic!("read second") };
        assert_eq!(wv.value(), Value::new(42));
        assert_eq!(rv, wv);
        assert_eq!(wv.tag(), Tag::new(1, WriterId::new(0)));
    }

    #[test]
    fn fast_read_returns_written_value_after_slow_write() {
        let mut sim = build_sim(WriteMode::Slow, ReadMode::Fast, 2);
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(1), Msg::InvokeWrite(Value::new(7)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(100), ProcessId::reader(1), Msg::InvokeRead)
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        assert_eq!(done.len(), 2);
        let OpResult::Read(rv) = done[1].1 else { panic!() };
        assert_eq!(rv.value(), Value::new(7));
        assert_eq!(rv.tag(), Tag::new(1, WriterId::new(1)));
    }

    #[test]
    fn fast_read_on_fresh_register_returns_initial() {
        let mut sim = build_sim(WriteMode::Slow, ReadMode::Fast, 3);
        sim.schedule_external(SimTime::ZERO, ProcessId::reader(0), Msg::InvokeRead).unwrap();
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, OpResult::Read(TaggedValue::initial()));
    }

    #[test]
    fn sequential_slow_writes_get_increasing_timestamps() {
        let mut sim = build_sim(WriteMode::Slow, ReadMode::Slow, 4);
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(1)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(100), ProcessId::writer(1), Msg::InvokeWrite(Value::new(2)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(200), ProcessId::writer(0), Msg::InvokeWrite(Value::new(3)))
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        let tags: Vec<Tag> = done
            .iter()
            .map(|(_, r)| match r {
                OpResult::Written(tv) => tv.tag(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(tags[0], Tag::new(1, WriterId::new(0)));
        assert_eq!(tags[1], Tag::new(2, WriterId::new(1)));
        assert_eq!(tags[2], Tag::new(3, WriterId::new(0)));
    }

    #[test]
    fn client_queues_overlapping_invocations() {
        let mut sim = build_sim(WriteMode::Slow, ReadMode::Slow, 5);
        // Two invocations at the same instant on the same writer: the second
        // must wait for the first (well-formed executions).
        for v in [10, 20] {
            sim.schedule_external(
                SimTime::ZERO,
                ProcessId::writer(0),
                Msg::InvokeWrite(Value::new(v)),
            )
            .unwrap();
        }
        sim.run_until_quiescent().unwrap();
        let events = sim.drain_notifications();
        // Ordering: Invoked(10) … Completed(10) … Invoked(20) … Completed(20),
        // with SecondRound markers interspersed (slow writes have two
        // round-trips).
        let seq: Vec<&ClientEvent> = events
            .iter()
            .map(|(_, e)| e)
            .filter(|e| !matches!(e, ClientEvent::SecondRound { .. }))
            .collect();
        match (seq[0], seq[1], seq[2], seq[3]) {
            (
                ClientEvent::Invoked { op: o1, .. },
                ClientEvent::Completed { op: c1, .. },
                ClientEvent::Invoked { op: o2, .. },
                ClientEvent::Completed { op: c2, .. },
            ) => {
                assert_eq!(o1, c1);
                assert_eq!(o2, c2);
                assert_ne!(o1, o2);
            }
            other => panic!("unexpected event order: {other:?}"),
        }
        let done = completions(&events);
        let OpResult::Written(t1) = done[0].1 else { panic!() };
        let OpResult::Written(t2) = done[1].1 else { panic!() };
        assert!(t2 > t1, "second write must supersede the first");
    }

    #[test]
    fn fast_write_uses_local_counter() {
        let mut sim = build_sim(WriteMode::Fast, ReadMode::Slow, 6);
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(1)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(50), ProcessId::writer(0), Msg::InvokeWrite(Value::new(2)))
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        let OpResult::Written(t1) = done[0].1 else { panic!() };
        let OpResult::Written(t2) = done[1].1 else { panic!() };
        assert_eq!(t1.tag(), Tag::new(1, WriterId::new(0)));
        assert_eq!(t2.tag(), Tag::new(2, WriterId::new(0)));
    }

    #[test]
    fn operations_complete_despite_t_crashes() {
        let mut sim = build_sim(WriteMode::Slow, ReadMode::Fast, 7);
        sim.schedule_crash(SimTime::ZERO, ProcessId::server(4));
        sim.schedule_external(SimTime::from_ticks(1), ProcessId::writer(0), Msg::InvokeWrite(Value::new(9)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(100), ProcessId::reader(0), Msg::InvokeRead)
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        assert_eq!(done.len(), 2, "wait-freedom with t = 1 crash");
        let OpResult::Read(rv) = done[1].1 else { panic!() };
        assert_eq!(rv.value(), Value::new(9));
    }

    #[test]
    fn reader_val_queue_accumulates_across_reads() {
        let mut sim = build_sim(WriteMode::Slow, ReadMode::Fast, 8);
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(1)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(100), ProcessId::reader(0), Msg::InvokeRead)
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(200), ProcessId::writer(1), Msg::InvokeWrite(Value::new(2)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(300), ProcessId::reader(0), Msg::InvokeRead)
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        let reads: Vec<TaggedValue> = done
            .iter()
            .filter_map(|(_, r)| match r {
                OpResult::Read(tv) => Some(*tv),
                _ => None,
            })
            .collect();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].value(), Value::new(1));
        assert_eq!(reads[1].value(), Value::new(2));
        assert!(reads[1] > reads[0]);
    }

    #[test]
    fn adaptive_read_is_fast_when_the_maximum_is_settled() {
        let mut sim = build_sim(WriteMode::Slow, ReadMode::Adaptive, 11);
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(5)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(100), ProcessId::reader(0), Msg::InvokeRead)
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let events = sim.drain_notifications();
        let read_second_rounds = events
            .iter()
            .filter(|(_, e)| {
                matches!(e, ClientEvent::SecondRound { op } if op.client.as_reader().is_some())
            })
            .count();
        assert_eq!(read_second_rounds, 0, "a settled read takes one round-trip");
        let done = completions(&events);
        let OpResult::Read(rv) = done[1].1 else { panic!() };
        assert_eq!(rv.value(), Value::new(5));
    }

    #[test]
    fn adaptive_read_falls_back_when_the_maximum_is_unsettled() {
        // A write parked on all but one server: its value is the global
        // maximum in the reader's snapshots but is nowhere near admissible,
        // so the adaptive read pays a write-back round and returns it.
        let mut sim = build_sim(WriteMode::Slow, ReadMode::Adaptive, 12);
        // Let the write's query round finish, then hold its updates to all
        // servers except s0 (constant 1-tick delays: update broadcast at
        // t = 2).
        for srv in 1..5u32 {
            sim.schedule_hold(
                SimTime::from_ticks(1),
                mwr_sim::LinkSelector::directed(ProcessId::writer(0), ProcessId::server(srv)),
            );
        }
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(9)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(100), ProcessId::reader(0), Msg::InvokeRead)
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let events = sim.drain_notifications();
        let read_second_rounds = events
            .iter()
            .filter(|(_, e)| {
                matches!(e, ClientEvent::SecondRound { op } if op.client.as_reader().is_some())
            })
            .count();
        assert_eq!(read_second_rounds, 1, "the unsettled maximum forces the fallback");
        let read = events
            .iter()
            .find_map(|(_, e)| match e {
                ClientEvent::Completed { result: OpResult::Read(tv), .. } => Some(*tv),
                _ => None,
            })
            .expect("read completed");
        assert_eq!(read.value(), Value::new(9), "the fallback returns the secured maximum");
    }

    #[test]
    #[should_panic(expected = "writers cannot invoke read()")]
    fn writer_rejects_read_invocation() {
        let mut sim = build_sim(WriteMode::Slow, ReadMode::Slow, 9);
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeRead).unwrap();
        let _ = sim.run_until_quiescent();
    }

    #[test]
    #[should_panic(expected = "readers cannot invoke write()")]
    fn reader_rejects_write_invocation() {
        let mut sim = build_sim(WriteMode::Slow, ReadMode::Slow, 10);
        sim.schedule_external(SimTime::ZERO, ProcessId::reader(0), Msg::InvokeWrite(Value::new(0)))
            .unwrap();
        let _ = sim.run_until_quiescent();
    }
}
