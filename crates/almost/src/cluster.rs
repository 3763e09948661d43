//! One-call assembly of a tunable-quorum cluster: a [`mwr_core::Cluster`]
//! whose clients run at the spec's levels.

use mwr_core::{Cluster, RegisterClient, RegisterServer, RoundMachine, Scope, WriteMode};
use mwr_types::{ClusterConfig, ConfigEpoch, ProcessId};

use crate::level::{ConsistencyLevel, TunableSpec, WriteTagging};

/// A tunable-quorum cluster blueprint: `config` with the tunables `spec`.
///
/// The servers are `mwr-core`'s unmodified [`RegisterServer`]s and the
/// clients are its [`RegisterClient`]s — the consistency level is purely a
/// client-side decision, exactly as in quorum-replicated production stores.
/// Each client's [`RoundMachine`] runs under a scope over every server whose
/// quorum is the level: local tags are [`WriteMode::Fast`], queried tags
/// [`WriteMode::Slow`], and reads are
/// [unsecured](RoundMachine::unsecured_reader), with the spec's read repair.
///
/// # Examples
///
/// ```
/// use mwr_almost::{tunable_cluster, TunableSpec};
/// use mwr_core::ScheduledOp;
/// use mwr_sim::SimTime;
/// use mwr_types::{ClusterConfig, Value};
///
/// let config = ClusterConfig::new(5, 1, 2, 2)?;
/// let cluster = tunable_cluster(config, TunableSpec::quorum_lww());
/// let events = cluster.run_schedule(
///     1,
///     &[
///         (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(3) }),
///         (SimTime::from_ticks(100), ScheduledOp::Read { reader: 0 }),
///     ],
/// )?;
/// assert_eq!(events.len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn tunable_cluster(config: ClusterConfig, spec: TunableSpec) -> Cluster {
    Cluster::from_installer(config, move |sim| {
        let at_level = |mut machine: RoundMachine, level: ConsistencyLevel| {
            let targets = config.server_ids().collect();
            let quorum = level.acks(&config);
            machine.rescope(Scope { targets, quorum, joint: None, epoch: ConfigEpoch::ZERO });
            RegisterClient::drive(machine)
        };
        let write_mode = match spec.tagging {
            WriteTagging::Local => WriteMode::Fast,
            WriteTagging::Queried => WriteMode::Slow,
        };
        for s in config.server_ids() {
            sim.add_process(ProcessId::Server(s), RegisterServer::new());
        }
        for w in config.writer_ids() {
            let machine = RoundMachine::writer(w, config, write_mode);
            sim.add_process(w.into(), at_level(machine, spec.write_level));
        }
        for r in config.reader_ids() {
            let machine = RoundMachine::unsecured_reader(r, config, spec.read_repair);
            sim.add_process(r.into(), at_level(machine, spec.read_level));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_core::{ClientEvent, Msg, OpResult, ScheduledOp};
    use mwr_sim::{SimError, SimTime, Simulation};
    use mwr_types::{Tag, TaggedValue, Value, WriterId};

    fn reads_of(events: &[(SimTime, ClientEvent)]) -> Vec<TaggedValue> {
        events
            .iter()
            .filter_map(|(_, e)| match e {
                ClientEvent::Completed { result: OpResult::Read(tv), .. } => Some(*tv),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn every_preset_completes_a_sequential_schedule() {
        let schedule = [
            (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(11) }),
            (SimTime::from_ticks(100), ScheduledOp::Read { reader: 0 }),
            (SimTime::from_ticks(200), ScheduledOp::Read { reader: 1 }),
        ];
        for spec in [
            TunableSpec::fastest(),
            TunableSpec::fastest_with_repair(),
            TunableSpec::quorum_lww(),
            TunableSpec::strong(),
        ] {
            let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
            let cluster = tunable_cluster(config, spec);
            let events = cluster.run_schedule(1, &schedule).unwrap();
            let reads = reads_of(&events);
            assert_eq!(reads.len(), 2, "{spec}: both reads complete");
            // Without contention even ONE/ONE behaves: the broadcast still
            // reaches every server, the level only truncates the *wait*.
            assert!(
                reads.iter().all(|tv| tv.value() == Value::new(11)),
                "{spec}: sequential read after write returns the write"
            );
        }
    }

    #[test]
    fn identical_seeds_reproduce_event_streams() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster = tunable_cluster(config, TunableSpec::quorum_lww());
        let schedule = [
            (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(1) }),
            (SimTime::ZERO, ScheduledOp::Write { writer: 1, value: Value::new(2) }),
            (SimTime::from_ticks(3), ScheduledOp::Read { reader: 0 }),
            (SimTime::from_ticks(4), ScheduledOp::Read { reader: 1 }),
        ];
        let a = cluster.run_schedule(9, &schedule).unwrap();
        let b = cluster.run_schedule(9, &schedule).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_client_is_reported() {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let cluster = tunable_cluster(config, TunableSpec::fastest());
        let err = cluster
            .run_schedule(0, &[(SimTime::ZERO, ScheduledOp::Read { reader: 7 })])
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownProcess { .. }));
    }

    fn config() -> ClusterConfig {
        ClusterConfig::new(5, 1, 2, 2).unwrap()
    }

    fn build_sim(spec: TunableSpec, seed: u64) -> Simulation<Msg, ClientEvent> {
        tunable_cluster(config(), spec).build_sim(seed)
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

    #[test]
    fn sequential_read_after_write_sees_the_write_with_intersecting_quorums() {
        for spec in [TunableSpec::strong(), TunableSpec::quorum_lww()] {
            let mut sim = build_sim(spec, 1);
            sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(8)))
                .unwrap();
            sim.schedule_external(SimTime::from_ticks(100), ProcessId::reader(0), Msg::InvokeRead)
                .unwrap();
            sim.run_until_quiescent().unwrap();
            let done = completions(&sim.drain_notifications());
            let OpResult::Read(rv) = done[1] else { panic!("read second") };
            assert_eq!(rv.value(), Value::new(8), "{spec}");
        }
    }

    #[test]
    fn one_one_read_can_miss_a_completed_write() {
        // W:ONE means the write completes after a single server stored it.
        // A later R:ONE read acking from a different server misses it. We
        // force the miss deterministically: the write reaches only s0 (its
        // other updates are held — the paper's "skip"), and the read skips
        // s0, so its single ack comes from a server that never saw the
        // write.
        let spec = TunableSpec::fastest();
        let mut sim = build_sim(spec, 3);
        for s in 1..5u32 {
            sim.network_mut().hold_between(ProcessId::writer(0), ProcessId::server(s));
        }
        sim.network_mut().hold_between(ProcessId::reader(0), ProcessId::server(0));
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(4)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(100), ProcessId::reader(0), Msg::InvokeRead)
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        let OpResult::Written(wv) = done[0] else { panic!() };
        let OpResult::Read(rv) = done[1] else { panic!() };
        assert_eq!(wv.value(), Value::new(4));
        assert!(rv.tag().is_initial(), "the ONE/ONE read missed the completed write");
    }

    #[test]
    fn local_tags_collide_across_writers_and_lww_breaks_write_order() {
        // Writer 0 writes, completes; then writer 1 writes. With local tags
        // both writes carry ts = 1, and (1, w1) > (1, w0): fine. But a
        // *third* write by writer 0 carries ts = 2 < any ts = 2 tag of w1…
        // the total order exists, yet it can contradict real time: write A
        // (by w1, ts=1) completed strictly after write B (by w0, ts=2) would
        // order A < B. Here we check the simpler observable: two sequential
        // writes by different writers can produce a *non-increasing* tag
        // pair under LWW when the later writer has a smaller counter.
        let spec = TunableSpec::quorum_lww();
        let mut sim = build_sim(spec, 4);
        // w0 writes twice (ts=1, ts=2), then w1 writes once (ts=1).
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(1)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(50), ProcessId::writer(0), Msg::InvokeWrite(Value::new(2)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(100), ProcessId::writer(1), Msg::InvokeWrite(Value::new(3)))
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        let tags: Vec<Tag> = done
            .iter()
            .map(|r| match r {
                OpResult::Written(tv) => tv.tag(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(tags[1], Tag::new(2, WriterId::new(0)));
        assert_eq!(tags[2], Tag::new(1, WriterId::new(1)));
        assert!(tags[2] < tags[1], "LWW tag order contradicts real-time write order");
    }

    #[test]
    fn read_repair_propagates_the_value_to_lagging_servers() {
        let spec = TunableSpec {
            read_level: ConsistencyLevel::Majority,
            read_repair: true,
            ..TunableSpec::fastest()
        };
        let mut sim = build_sim(spec, 5);
        // The write reaches only s0 (W:ONE, other links held).
        for s in 1..5u32 {
            sim.network_mut().hold_between(ProcessId::writer(0), ProcessId::server(s));
        }
        // Reader 0's links to s3, s4 are held, pinning its majority ack set
        // to {s0, s1, s2}; its repair therefore lands on s0, s1, s2.
        for s in 3..5u32 {
            sim.network_mut().hold_between(ProcessId::reader(0), ProcessId::server(s));
        }
        // Reader 1 skips s0, so any value it sees arrived via repair.
        sim.network_mut().hold_between(ProcessId::reader(1), ProcessId::server(0));
        sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(6)))
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(100), ProcessId::reader(0), Msg::InvokeRead)
            .unwrap();
        sim.schedule_external(SimTime::from_ticks(200), ProcessId::reader(1), Msg::InvokeRead)
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        let OpResult::Read(first_read) = done[1] else { panic!() };
        let OpResult::Read(second_read) = done[2] else { panic!() };
        assert_eq!(first_read.value(), Value::new(6), "majority read including s0 sees the write");
        assert_eq!(second_read.value(), Value::new(6), "repair propagated the value past s0");
    }

    #[test]
    fn all_level_write_blocks_under_a_crash() {
        let spec = TunableSpec {
            write_level: ConsistencyLevel::All,
            ..TunableSpec::fastest()
        };
        let mut sim = build_sim(spec, 6);
        sim.schedule_crash(SimTime::ZERO, ProcessId::server(4));
        sim.schedule_external(SimTime::from_ticks(1), ProcessId::writer(0), Msg::InvokeWrite(Value::new(1)))
            .unwrap();
        sim.run_until_quiescent().unwrap();
        let done = completions(&sim.drain_notifications());
        assert!(done.is_empty(), "ALL-level write cannot complete with a crashed server");
    }

    #[test]
    fn overlapping_invocations_are_queued() {
        let spec = TunableSpec::strong();
        let mut sim = build_sim(spec, 7);
        for v in [1, 2] {
            sim.schedule_external(SimTime::ZERO, ProcessId::writer(0), Msg::InvokeWrite(Value::new(v)))
                .unwrap();
        }
        sim.run_until_quiescent().unwrap();
        let events = sim.drain_notifications();
        // strong() writes are two round-trips, so each op emits
        // Invoked, SecondRound, Completed — strictly in sequence.
        let kinds: Vec<u8> = events
            .iter()
            .map(|(_, e)| match e {
                ClientEvent::Invoked { .. } => 0,
                ClientEvent::SecondRound { .. } => 1,
                ClientEvent::Completed { .. } => 2,
            })
            .collect();
        assert_eq!(kinds, [0, 1, 2, 0, 1, 2], "operations strictly serialize");
    }
}
