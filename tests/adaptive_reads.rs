//! Integration tests for the adaptive read mode (`Protocol::W2Ra`): the
//! semifast idea of the paper's §6, rebuilt so the slow fallback removes
//! the `R < S/t − 2` constraint of Algorithm 1.

use mwr::check::{check_atomicity, History};
use mwr::core::{ClientEvent, Cluster, OpKind, Protocol, ScheduledOp};
use mwr::register::{Backend, Deployment};
use mwr::sim::{DelayModel, SimTime};
use mwr::types::{ClusterConfig, ProcessId, Value};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{sim_cluster};

fn random_schedule(config: &ClusterConfig, ops_per_client: usize, seed: u64) -> Vec<(SimTime, ScheduledOp)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut value = 0u64;
    for w in 0..config.writers() as u32 {
        for _ in 0..ops_per_client {
            value += 1;
            ops.push((
                SimTime::from_ticks(rng.gen_range(0..500)),
                ScheduledOp::Write { writer: w, value: Value::new(value) },
            ));
        }
    }
    for r in 0..config.readers() as u32 {
        for _ in 0..ops_per_client {
            ops.push((
                SimTime::from_ticks(rng.gen_range(0..500)),
                ScheduledOp::Read { reader: r },
            ));
        }
    }
    ops
}

/// Runs one schedule under jittered delays and returns (history, fast
/// reads, slow reads).
fn run(
    cluster: &Cluster,
    seed: u64,
    schedule: &[(SimTime, ScheduledOp)],
    crash: Option<u32>,
) -> (History, usize, usize) {
    let mut sim = cluster.build_sim(seed);
    sim.network_mut().set_default_delay(DelayModel::Uniform {
        lo: SimTime::from_ticks(1),
        hi: SimTime::from_ticks(20),
    });
    if let Some(s) = crash {
        sim.schedule_crash(SimTime::from_ticks(50), ProcessId::server(s));
    }
    for (at, op) in schedule {
        cluster.schedule(&mut sim, *at, *op).unwrap();
    }
    sim.run_until_quiescent().unwrap();
    let events = sim.drain_notifications();

    // Count read round-trips via the SecondRound markers.
    let mut read_ops = std::collections::BTreeSet::new();
    let mut slow_read_ops = std::collections::BTreeSet::new();
    for (_, e) in &events {
        match e {
            ClientEvent::Invoked { op, kind: OpKind::Read } => {
                read_ops.insert(*op);
            }
            ClientEvent::SecondRound { op } if read_ops.contains(op) => {
                slow_read_ops.insert(*op);
            }
            _ => {}
        }
    }
    let history = History::from_events(&events).unwrap();
    let slow = slow_read_ops.len();
    (history, read_ops.len() - slow, slow)
}

#[test]
fn adaptive_reads_stay_atomic_beyond_the_feasibility_boundary() {
    // The headline property: W2R1 requires R < S/t − 2; W2Ra does not.
    // Sweep configurations on both sides of the boundary under adversarial
    // jitter and crashes.
    for (s, t, r) in [(5, 1, 2), (5, 1, 3), (5, 1, 4), (3, 1, 2), (7, 2, 2), (9, 2, 4)] {
        let config = ClusterConfig::new(s, t, r, 2).unwrap();
        let cluster = sim_cluster(config, Protocol::W2Ra);
        for seed in 1..=8 {
            let schedule = random_schedule(&config, 3, seed * 13 + 1);
            let crash = (seed % 2 == 0).then_some(0);
            let (history, _, _) = run(&cluster, seed, &schedule, crash);
            assert!(
                check_atomicity(&history).is_ok(),
                "S={s} t={t} R={r} seed {seed}: adaptive read violated atomicity"
            );
        }
    }
}

#[test]
fn uncontended_adaptive_reads_are_all_fast() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let cluster = sim_cluster(config, Protocol::W2Ra);
    // Strictly sequential: every read sees a settled maximum.
    let mut schedule = Vec::new();
    for i in 0..6u64 {
        schedule.push((
            SimTime::from_ticks(i * 100),
            ScheduledOp::Write { writer: (i % 2) as u32, value: Value::new(i + 1) },
        ));
        schedule.push((SimTime::from_ticks(i * 100 + 50), ScheduledOp::Read {
            reader: (i % 2) as u32,
        }));
    }
    let mut sim = cluster.build_sim(3);
    for (at, op) in &schedule {
        cluster.schedule(&mut sim, *at, *op).unwrap();
    }
    sim.run_until_quiescent().unwrap();
    let events = sim.drain_notifications();
    let slow_reads = events
        .iter()
        .filter(|(_, e)| matches!(e, ClientEvent::SecondRound { op } if op.client.as_reader().is_some()))
        .count();
    assert_eq!(slow_reads, 0, "sequential reads never need the fallback");
}

#[test]
fn adaptive_matches_w2r1_in_feasible_configs() {
    // Where Algorithm 1 is feasible, the adaptive cap equals R + 1 and the
    // fast path accepts the same values: results agree op-for-op on
    // identical schedules and seeds.
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    assert!(config.fast_read_feasible());
    for seed in 1..=10 {
        let schedule = random_schedule(&config, 3, seed);
        let (h_fast, _, _) = run(&sim_cluster(config, Protocol::W2R1), seed, &schedule, None);
        let (h_adaptive, _, slow) = run(&sim_cluster(config, Protocol::W2Ra), seed, &schedule, None);
        assert!(check_atomicity(&h_fast).is_ok());
        assert!(check_atomicity(&h_adaptive).is_ok());
        // Both are atomic; when no fallback fired the adaptive run is
        // message-for-message the W2R1 run.
        if slow == 0 {
            let reads_fast: Vec<_> =
                h_fast.reads().map(|o| (o.id, o.tagged_value())).collect();
            let reads_adaptive: Vec<_> =
                h_adaptive.reads().map(|o| (o.id, o.tagged_value())).collect();
            assert_eq!(reads_fast, reads_adaptive, "seed {seed}");
        }
    }
}

#[test]
fn contention_triggers_the_slow_fallback_but_never_unsafety() {
    // Infeasible config (R ≥ S/t − 2): Algorithm 1 would be unsound here;
    // the adaptive mode pays second round-trips instead.
    let config = ClusterConfig::new(5, 1, 4, 2).unwrap();
    assert!(!config.fast_read_feasible());
    let cluster = sim_cluster(config, Protocol::W2Ra);
    let mut total_fast = 0;
    let mut total_slow = 0;
    for seed in 1..=10 {
        let schedule = random_schedule(&config, 3, seed * 7 + 3);
        let (history, fast, slow) = run(&cluster, seed, &schedule, None);
        assert!(check_atomicity(&history).is_ok(), "seed {seed}");
        total_fast += fast;
        total_slow += slow;
    }
    assert!(total_slow > 0, "the stricter cap must trigger fallbacks under contention");
    assert!(total_fast > 0, "settled reads still take the fast path");
}

#[test]
fn live_runtime_supports_adaptive_reads() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let cluster = Deployment::new(config)
        .protocol(Protocol::W2Ra)
        .backend(Backend::InMemory)
        .in_memory()
        .unwrap();
    let mut writer = cluster.writer(0).unwrap();
    let mut reader = cluster.reader(0).unwrap();
    let written = writer.write(Value::new(77)).unwrap();
    let read = reader.read().unwrap();
    assert_eq!(read, written);
    cluster.shutdown();
}
