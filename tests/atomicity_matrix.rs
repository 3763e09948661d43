//! Integration: the Table 1 design-space matrix as assertions.
//!
//! Every protocol × configuration cell must behave as the theory column
//! predicts: protocols the paper proves correct stay atomic under random
//! and adversarial schedules; the impossible design points produce
//! checker-visible violations.

use mwr::check::{check_atomicity, check_regular, History};
use mwr::core::{Protocol, ScheduledOp};
use mwr::sim::SimTime;
use mwr::types::{ClusterConfig, Value};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{sim_cluster};

fn random_schedule(
    config: &ClusterConfig,
    ops_per_client: usize,
    horizon: u64,
    seed: u64,
) -> Vec<(SimTime, ScheduledOp)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut value = 0u64;
    for w in config.writer_ids() {
        for _ in 0..ops_per_client {
            value += 1;
            ops.push((
                SimTime::from_ticks(rng.gen_range(0..horizon)),
                ScheduledOp::Write { writer: w.index(), value: Value::new(value) },
            ));
        }
    }
    for r in config.reader_ids() {
        for _ in 0..ops_per_client {
            ops.push((
                SimTime::from_ticks(rng.gen_range(0..horizon)),
                ScheduledOp::Read { reader: r.index() },
            ));
        }
    }
    ops
}

/// Protocols the theory endorses never violate atomicity, across many
/// seeds and tight (concurrency-heavy) horizons.
#[test]
fn endorsed_protocols_stay_atomic_under_random_schedules() {
    let cells = [
        (ClusterConfig::new(5, 1, 2, 2).unwrap(), Protocol::W2R2),
        (ClusterConfig::new(5, 1, 2, 2).unwrap(), Protocol::W2R1),
        (ClusterConfig::new(4, 1, 3, 2).unwrap(), Protocol::W2R2),
        (ClusterConfig::new(9, 2, 2, 2).unwrap(), Protocol::W2R1),
        (ClusterConfig::new(5, 1, 2, 1).unwrap(), Protocol::AbdSwmrW1R2),
        (ClusterConfig::new(5, 1, 2, 1).unwrap(), Protocol::DuttaSwmrW1R1),
    ];
    for (config, protocol) in cells {
        assert!(protocol.expected_atomic(&config), "precondition: {protocol} on {config}");
        let cluster = sim_cluster(config, protocol);
        for seed in 0..30u64 {
            let schedule = random_schedule(&config, 3, 400, seed);
            let events = cluster.run_schedule(seed, &schedule).unwrap();
            let history = History::from_events(&events).unwrap();
            let verdict = check_atomicity(&history);
            assert!(
                verdict.is_ok(),
                "{protocol} on {config}, seed {seed}: {:?}\n{history}",
                verdict.violation()
            );
        }
    }
}

/// The naive multi-writer fast write (Theorem 1's target) violates
/// atomicity on the deterministic writer-inversion schedule…
#[test]
fn naive_fast_write_violates_on_inversion() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let schedule = [
        (SimTime::ZERO, ScheduledOp::Write { writer: 1, value: Value::new(2) }),
        (SimTime::from_ticks(1_000), ScheduledOp::Write { writer: 0, value: Value::new(1) }),
        (SimTime::from_ticks(2_000), ScheduledOp::Read { reader: 0 }),
    ];
    for protocol in [Protocol::NaiveW1R2, Protocol::NaiveW1R1] {
        let cluster = sim_cluster(config, protocol);
        let events = cluster.run_schedule(0, &schedule).unwrap();
        let history = History::from_events(&events).unwrap();
        assert!(!check_atomicity(&history).is_ok(), "{protocol} must violate");
        // The writer-inversion is so severe that even MW-regularity breaks:
        // the read returns a write that another write fully overwrote in
        // real time. The "weak consistency" production stores accept for
        // one-round writes is weaker than MW-regularity.
        assert!(!check_regular(&history).is_ok(), "{protocol} breaks regularity too");
    }
}

/// With a single writer the "naive" fast write *is* ABD — the violation
/// disappears, exactly the fine-grained boundary the paper draws (W ≥ 2).
#[test]
fn single_writer_fast_write_is_atomic() {
    let config = ClusterConfig::new(5, 1, 2, 1).unwrap();
    let cluster = sim_cluster(config, Protocol::AbdSwmrW1R2);
    for seed in 0..20u64 {
        let schedule = random_schedule(&config, 4, 300, seed);
        let events = cluster.run_schedule(seed, &schedule).unwrap();
        let history = History::from_events(&events).unwrap();
        assert!(check_atomicity(&history).is_ok(), "seed {seed}\n{history}");
    }
}

/// Determinism: the full matrix reproduces event-for-event across runs.
#[test]
fn runs_are_deterministic() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    for protocol in Protocol::ALL {
        let config = if protocol.is_single_writer() {
            ClusterConfig::new(5, 1, 2, 1).unwrap()
        } else {
            config
        };
        let cluster = sim_cluster(config, protocol);
        let schedule = random_schedule(&config, 3, 200, 77);
        let a = cluster.run_schedule(5, &schedule).unwrap();
        let b = cluster.run_schedule(5, &schedule).unwrap();
        assert_eq!(a, b, "{protocol}");
    }
}
