//! Failure injection across the extension layers: crashes, held links and
//! mid-operation faults against the tunable, Byzantine and adaptive
//! clients. The paper's model allows `t` server crashes at *any* moment;
//! these tests make sure the extensions inherit that discipline.

use mwr::almost::TunableSpec;
use mwr::byz::{ByzBehavior, ByzConfig, ByzReadMode};
use mwr::check::{check_atomicity, History};
use mwr::core::{ClientEvent, Protocol, ScheduledOp};
use mwr::sim::{DelayModel, SimTime};
use mwr::types::{ClusterConfig, ProcessId, Value};

mod common;
use common::{byz_cluster, sim_cluster, tunable_cluster};

fn schedule(rounds: u64, readers: u64) -> Vec<(SimTime, ScheduledOp)> {
    let mut ops = Vec::new();
    for i in 0..rounds {
        ops.push((
            SimTime::from_ticks(i * 11),
            ScheduledOp::Write { writer: (i % 2) as u32, value: Value::new(i + 1) },
        ));
        ops.push((
            SimTime::from_ticks(i * 11 + 5),
            ScheduledOp::Read { reader: (i % readers) as u32 },
        ));
    }
    ops
}

fn completed(events: &[(SimTime, ClientEvent)]) -> usize {
    events.iter().filter(|(_, e)| matches!(e, ClientEvent::Completed { .. })).count()
}

#[test]
fn adaptive_reads_survive_a_crash_at_every_instant() {
    // Crash server 0 at each of a sweep of instants, including mid-round;
    // every operation still completes and every history is atomic.
    let config = ClusterConfig::new(5, 1, 3, 2).unwrap();
    let cluster = sim_cluster(config, Protocol::W2Ra);
    let ops = schedule(5, 3);
    for crash_at in (0..60).step_by(7) {
        let mut sim = cluster.build_sim(crash_at + 1);
        sim.schedule_crash(SimTime::from_ticks(crash_at), ProcessId::server(0));
        for (at, op) in &ops {
            cluster.schedule(&mut sim, *at, *op).unwrap();
        }
        sim.run_until_quiescent().unwrap();
        let events = sim.drain_notifications();
        assert_eq!(completed(&events), 10, "crash at {crash_at}: wait-freedom");
        let history = History::from_events(&events).unwrap();
        assert!(check_atomicity(&history).is_ok(), "crash at {crash_at}");
    }
}

#[test]
fn adaptive_reads_survive_held_links_per_server() {
    // Make each server unreachable from one reader for the whole run (the
    // paper's "skip"): operations still complete (quorums route around it)
    // and histories stay atomic.
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let cluster = sim_cluster(config, Protocol::W2Ra);
    let ops = schedule(5, 2);
    for skipped in 0..5u32 {
        let mut sim = cluster.build_sim(skipped as u64 + 11);
        sim.network_mut().hold_between(ProcessId::reader(0), ProcessId::server(skipped));
        for (at, op) in &ops {
            cluster.schedule(&mut sim, *at, *op).unwrap();
        }
        sim.run_until_quiescent().unwrap();
        let events = sim.drain_notifications();
        assert_eq!(completed(&events), 10, "server {skipped} skipped");
        let history = History::from_events(&events).unwrap();
        assert!(check_atomicity(&history).is_ok(), "server {skipped} skipped");
    }
}

#[test]
fn byzantine_plus_jitter_plus_heavy_interleaving_stays_atomic() {
    // The full gauntlet for the masking clients: adversarial server,
    // jittered links, dense interleavings, both read modes.
    let config = ByzConfig::new(9, 2, 2, 2).unwrap();
    let ops = schedule(6, 2);
    for behavior in ByzBehavior::ADVERSARIAL {
        for mode in [ByzReadMode::Slow, ByzReadMode::Fast] {
            for seed in 1..=5 {
                let cluster = byz_cluster(config, mode, behavior);
                let mut sim = cluster.build_sim(seed);
                sim.network_mut().set_default_delay(DelayModel::Uniform {
                    lo: SimTime::from_ticks(1),
                    hi: SimTime::from_ticks(30),
                });
                for (at, op) in &ops {
                    cluster.schedule(&mut sim, *at, *op).unwrap();
                }
                sim.run_until_quiescent().unwrap();
                let events = sim.drain_notifications();
                assert_eq!(completed(&events), 12, "{behavior}/{mode:?} seed {seed}");
                let history = History::from_events(&events).unwrap();
                assert!(
                    check_atomicity(&history).is_ok(),
                    "{behavior}/{mode:?} seed {seed}"
                );
            }
        }
    }
}

#[test]
fn tunable_register_remains_live_when_a_crash_spares_the_quorum() {
    // MAJ levels need 3 of 5 acks: one crash leaves 4 live servers, so the
    // closed schedule completes even with the crash landing mid-write.
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let cluster = tunable_cluster(config, TunableSpec::quorum_lww());
    for crash_at in [0u64, 3, 12, 30] {
        let mut sim = cluster.build_sim(crash_at + 5);
        sim.schedule_crash(SimTime::from_ticks(crash_at), ProcessId::server(2));
        for (at, op) in schedule(4, 2) {
            cluster.schedule(&mut sim, at, op).unwrap();
        }
        sim.run_until_quiescent().unwrap();
        let events = sim.drain_notifications();
        assert_eq!(completed(&events), 8, "crash at {crash_at}");
    }
}

#[test]
fn byzantine_fast_reads_tolerate_an_additional_skip() {
    // b = 2 budget spent as: one lying server + one reader-side held link.
    // The quorum q = S − b = 7 of 9 still assembles and vouching still
    // clears the forgeries.
    let config = ByzConfig::new(9, 2, 2, 2).unwrap();
    let cluster =
        byz_cluster(config, ByzReadMode::Fast, ByzBehavior::TagInflater { boost: 12_345 });
    let mut sim = cluster.build_sim(3);
    sim.network_mut().hold_between(ProcessId::reader(0), ProcessId::server(8));
    for (at, op) in schedule(4, 2) {
        cluster.schedule(&mut sim, at, op).unwrap();
    }
    sim.run_until_quiescent().unwrap();
    let events = sim.drain_notifications();
    assert_eq!(completed(&events), 8);
    let history = History::from_events(&events).unwrap();
    assert!(check_atomicity(&history).is_ok());
    for op in history.reads() {
        assert!(op.tagged_value().value().get() <= 4, "no forgery returned");
    }
}

#[test]
fn second_round_markers_are_consistent_with_protocol_structure() {
    // Structural audit across protocols: slow ops emit exactly one
    // SecondRound, fast ops none, adaptive reads at most one.
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    for protocol in [Protocol::W2R2, Protocol::W2R1, Protocol::W2Ra, Protocol::NaiveW1R1] {
        let cluster = sim_cluster(config, protocol);
        let mut sim = cluster.build_sim(9);
        sim.network_mut().set_default_delay(DelayModel::Uniform {
            lo: SimTime::from_ticks(1),
            hi: SimTime::from_ticks(10),
        });
        for (at, op) in schedule(4, 2) {
            cluster.schedule(&mut sim, at, op).unwrap();
        }
        sim.run_until_quiescent().unwrap();
        let events = sim.drain_notifications();
        let mut seconds: std::collections::BTreeMap<mwr::core::OpId, usize> = Default::default();
        for (_, e) in &events {
            if let ClientEvent::SecondRound { op } = e {
                *seconds.entry(*op).or_default() += 1;
            }
        }
        for (_, e) in &events {
            if let ClientEvent::Completed { op, kind, .. } = e {
                let n = seconds.get(op).copied().unwrap_or(0);
                let is_read = matches!(kind, mwr::core::OpKind::Read);
                let expected_max = match (protocol.read_mode(), is_read) {
                    (_, false) => {
                        if protocol.write_round_trips() == 2 { (1, 1) } else { (0, 0) }
                    }
                    (mwr::core::ReadMode::Slow, true) => (1, 1),
                    (mwr::core::ReadMode::Fast, true) => (0, 0),
                    (mwr::core::ReadMode::Adaptive, true) => (0, 1),
                };
                assert!(
                    n >= expected_max.0 && n <= expected_max.1,
                    "{protocol}: {op} emitted {n} second-round markers"
                );
            }
        }
    }
}
