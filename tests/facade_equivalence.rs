//! Integration: the `Deployment` facade is a *pure re-packaging* of the
//! low-level cluster constructors — same schedule, same seed, byte-
//! identical event streams. This is the contract that lets every harness
//! migrate to the facade without re-validating the protocols, extending
//! the `tests/gc_equivalence.rs` pattern from wire formats to the API
//! layer.
//!
//! This test (together with `gc_equivalence`) is the one deliberate user
//! of the low-level constructors outside the facade crate.

use mwr::almost::{TunableCluster, TunableSpec};
use mwr::byz::{ByzBehavior, ByzCluster, ByzConfig, ByzReadMode};
use mwr::core::{Cluster, Protocol, ScheduledOp, SimCluster};
use mwr::register::{Backend, Deployment, Spec};
use mwr::sim::SimTime;
use mwr::types::{ClusterConfig, Value};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 20;

/// A random well-formed schedule with unique write values.
fn random_schedule(
    seed: u64,
    writers: u32,
    readers: u32,
    ops: usize,
) -> Vec<(SimTime, ScheduledOp)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next_value = 0u64;
    (0..ops)
        .map(|_| {
            let at = SimTime::from_ticks(rng.gen_range(0u64..800));
            let client = rng.gen_range(0u32..(writers + readers));
            let op = if client < writers {
                next_value += 1;
                ScheduledOp::Write { writer: client, value: Value::new(next_value) }
            } else {
                ScheduledOp::Read { reader: client - writers }
            };
            (at, op)
        })
        .collect()
}

/// All 7 core protocols × 20 seeds: `Cluster::run_schedule` and
/// `Deployment` → `SimHandle::run_schedule` produce byte-identical event
/// streams (same tagged values at the same virtual instants, in the same
/// order).
#[test]
fn facade_reproduces_every_core_protocol_byte_for_byte() {
    for protocol in Protocol::ALL {
        let writers: u32 = if protocol.is_single_writer() { 1 } else { 2 };
        let config = ClusterConfig::new(5, 1, 2, writers as usize).unwrap();
        for seed in 0..SEEDS {
            let schedule = random_schedule(seed * 31 + 1, writers, 2, 16);
            let direct =
                Cluster::new(config, protocol).run_schedule(seed, &schedule).unwrap();
            let facade = Deployment::new(config)
                .protocol(protocol)
                .backend(Backend::Sim { seed })
                .sim()
                .unwrap()
                .run_schedule(&schedule)
                .unwrap();
            assert_eq!(
                direct, facade,
                "{protocol} seed {seed}: facade changed the event stream"
            );
        }
    }
}

/// The other two families get the same guarantee: tunable-quorum and
/// Byzantine deployments replay their low-level constructors exactly.
#[test]
fn facade_reproduces_tunable_and_byzantine_families() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    for spec in [TunableSpec::fastest(), TunableSpec::quorum_lww(), TunableSpec::strong()] {
        for seed in 0..SEEDS {
            let schedule = random_schedule(seed * 13 + 5, 2, 2, 16);
            let direct =
                TunableCluster::new(config, spec).run_schedule(seed, &schedule).unwrap();
            let facade = Deployment::new(config)
                .protocol(spec)
                .backend(Backend::Sim { seed })
                .sim()
                .unwrap()
                .run_schedule(&schedule)
                .unwrap();
            assert_eq!(direct, facade, "{spec} seed {seed}");
        }
    }

    let byz_config = ByzConfig::new(5, 1, 2, 2).unwrap();
    for behavior in [ByzBehavior::Honest, ByzBehavior::Equivocator, ByzBehavior::StaleReplier] {
        for mode in [ByzReadMode::Slow, ByzReadMode::Fast] {
            for seed in 0..SEEDS {
                let schedule = random_schedule(seed * 17 + 7, 2, 2, 12);
                let direct = ByzCluster::new(byz_config, mode, behavior)
                    .run_schedule(seed, &schedule)
                    .unwrap();
                let facade = Deployment::new(config)
                    .protocol(Spec::Byz { config: byz_config, read_mode: mode, behavior })
                    .backend(Backend::Sim { seed })
                    .sim()
                    .unwrap()
                    .run_schedule(&schedule)
                    .unwrap();
                assert_eq!(direct, facade, "{behavior}/{mode:?} seed {seed}");
            }
        }
    }
}
