//! Integration: the paper's W2R1 algorithm satisfies its Appendix A proof
//! obligations (MWA0–MWA4) on adversarial executions, and those properties
//! imply the checker's atomicity verdict.

use mwr::check::{check_atomicity, check_mwa, search_atomicity, History};
use mwr::core::{Protocol, ScheduledOp};
use mwr::sim::{LinkSelector, SimTime};
use mwr::types::{ClusterConfig, ProcessId, Value};

use proptest::prelude::*;

mod common;
use common::{sim_cluster};

fn schedule_strategy(
    writers: u32,
    readers: u32,
    ops: usize,
) -> impl Strategy<Value = Vec<(SimTime, ScheduledOp)>> {
    let op = (0u64..500, 0u32..(writers + readers), any::<u64>()).prop_map(
        move |(at, client, v)| {
            let at = SimTime::from_ticks(at);
            if client < writers {
                (at, ScheduledOp::Write { writer: client, value: Value::new(v) })
            } else {
                (at, ScheduledOp::Read { reader: client - writers })
            }
        },
    );
    proptest::collection::vec(op, 1..=ops).prop_map(|mut ops| {
        // Make write values unique so reads-from stays observable.
        let mut n = 0u64;
        for (_, op) in ops.iter_mut() {
            if let ScheduledOp::Write { value, .. } = op {
                n += 1;
                *value = Value::new(n);
            }
        }
        ops
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// W2R1 histories satisfy MWA0–MWA4 and atomicity on random schedules.
    #[test]
    fn w2r1_satisfies_mwa_and_atomicity(
        schedule in schedule_strategy(2, 2, 12),
        seed in 0u64..1000,
    ) {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster = sim_cluster(config, Protocol::W2R1);
        let events = cluster.run_schedule(seed, &schedule).unwrap();
        let history = History::from_events(&events).unwrap();
        prop_assert!(check_mwa(&history).is_ok(), "MWA violated:\n{}", history);
        prop_assert!(check_atomicity(&history).is_ok(), "not atomic:\n{}", history);
    }

    /// The graph checker agrees with the exhaustive oracle on real protocol
    /// histories (not just synthetic ones).
    #[test]
    fn graph_checker_agrees_with_oracle_on_protocol_histories(
        schedule in schedule_strategy(2, 2, 8),
        seed in 0u64..1000,
    ) {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        for protocol in [Protocol::W2R1, Protocol::NaiveW1R2] {
            let cluster = sim_cluster(config, protocol);
            let events = cluster.run_schedule(seed, &schedule).unwrap();
            let history = History::from_events(&events).unwrap();
            prop_assert_eq!(
                check_atomicity(&history).is_ok(),
                search_atomicity(&history).is_ok(),
                "checker split on {}:\n{}", protocol, history
            );
        }
    }
}

/// Adversarial link holds: a reader's fast read that must skip a slow
/// server still returns atomically consistent values.
#[test]
fn w2r1_atomic_under_targeted_link_holds() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let cluster = sim_cluster(config, Protocol::W2R1);
    for slow_server in 0..5u32 {
        let mut sim = cluster.build_sim(13);
        // The slow server answers nobody until t = 5000.
        sim.schedule_hold(SimTime::ZERO, LinkSelector::out_of(ProcessId::server(slow_server)));
        sim.schedule_release(
            SimTime::from_ticks(5_000),
            LinkSelector::out_of(ProcessId::server(slow_server)),
        );
        cluster
            .schedule(&mut sim, SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(1) })
            .unwrap();
        cluster
            .schedule(
                &mut sim,
                SimTime::from_ticks(40),
                ScheduledOp::Write { writer: 1, value: Value::new(2) },
            )
            .unwrap();
        for (i, at) in [60u64, 90, 120, 150].into_iter().enumerate() {
            cluster
                .schedule(
                    &mut sim,
                    SimTime::from_ticks(at),
                    ScheduledOp::Read { reader: (i % 2) as u32 },
                )
                .unwrap();
        }
        sim.run_until_quiescent().unwrap();
        let events = sim.drain_notifications();
        let history = History::from_events(&events).unwrap();
        assert!(
            check_atomicity(&history).is_ok(),
            "slow server s{}:\n{history}",
            slow_server + 1
        );
        assert!(check_mwa(&history).is_ok());
    }
}

/// Crashing exactly `t` servers at every possible moment keeps W2R1 both
/// live (all ops complete) and atomic.
#[test]
fn w2r1_atomic_under_crash_sweep() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let cluster = sim_cluster(config, Protocol::W2R1);
    let schedule = [
        (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(1) }),
        (SimTime::from_ticks(30), ScheduledOp::Read { reader: 0 }),
        (SimTime::from_ticks(60), ScheduledOp::Write { writer: 1, value: Value::new(2) }),
        (SimTime::from_ticks(90), ScheduledOp::Read { reader: 1 }),
    ];
    for victim in 0..5u32 {
        for crash_at in [0u64, 15, 45, 75, 95] {
            let mut sim = cluster.build_sim(7);
            sim.schedule_crash(SimTime::from_ticks(crash_at), ProcessId::server(victim));
            for (at, op) in schedule {
                cluster.schedule(&mut sim, at, op).unwrap();
            }
            sim.run_until_quiescent().unwrap();
            let events = sim.drain_notifications();
            let history = History::from_events(&events)
                .unwrap_or_else(|e| panic!("s{victim}@{crash_at}: {e}"));
            assert_eq!(history.len(), 4, "wait-freedom under t = 1 crash");
            assert!(
                check_atomicity(&history).is_ok(),
                "s{victim}@{crash_at}:\n{history}"
            );
        }
    }
}
