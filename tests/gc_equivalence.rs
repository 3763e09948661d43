//! Integration: the bounded-state fast path (delta snapshots +
//! acknowledged-floor GC) is equivalent to the paper's full-info model.
//!
//! Two tiers of equivalence are asserted over randomized schedules:
//!
//! 1. **Byte-for-byte** (the runs wire, GC off): the reader reconstructs each
//!    server's logical snapshot exactly, so every operation returns the
//!    identical tagged value at the identical simulated time — the whole
//!    event stream matches the full-info run.
//! 2. **Verdict-identity** (the runs wire, GC on): pruning drops only values
//!    below every client's completed-operation floor, so histories remain
//!    atomicity-equivalent to full-info runs even though server stores are
//!    bounded.

use mwr::check::{check_atomicity, History};
use mwr::core::{Cluster, FastWire, Protocol, ScheduledOp, SimCluster};
use mwr::sim::SimTime;
use mwr::types::{ClusterConfig, Value};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random well-formed schedule: `ops` operations at random instants
/// spread over writers and readers, with unique write values so reads-from
/// stays observable.
fn random_schedule(seed: u64, writers: u32, readers: u32, ops: usize) -> Vec<(SimTime, ScheduledOp)> {
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

/// With GC off, the delta wire is a pure compression of the full-info
/// protocol: identical event streams (same returned values, same virtual
/// times) on every seed, for both the fast and the adaptive reader.
#[test]
fn delta_wire_reproduces_full_info_byte_for_byte() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    for protocol in [Protocol::W2R1, Protocol::W2Ra] {
        for seed in 0..50u64 {
            let schedule = random_schedule(seed, 2, 2, 16);
            let full = Cluster::new(config, protocol)
                .with_fast_wire(FastWire::FullInfo)
                .with_gc(false)
                .run_schedule(seed, &schedule)
                .unwrap();
            let delta = Cluster::new(config, protocol)
                .with_fast_wire(FastWire::Runs)
                .with_gc(false)
                .run_schedule(seed, &schedule)
                .unwrap();
            assert_eq!(
                full, delta,
                "{protocol} seed {seed}: delta wire must not change behavior"
            );
        }
    }
}

/// With GC on, histories stay verdict-identical to full-info runs under
/// `check_atomicity` across ≥50 seeds (and, this being W2R1 in a feasible
/// configuration, that shared verdict is "atomic").
#[test]
fn gc_histories_are_verdict_identical_to_full_info() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    for seed in 0..50u64 {
        let schedule = random_schedule(seed.wrapping_mul(31).wrapping_add(7), 2, 2, 24);
        let full = Cluster::new(config, Protocol::W2R1)
            .with_fast_wire(FastWire::FullInfo)
            .with_gc(false)
            .run_schedule(seed, &schedule)
            .unwrap();
        let gc = Cluster::new(config, Protocol::W2R1)
            .with_fast_wire(FastWire::Runs)
            .with_gc(true)
            .run_schedule(seed, &schedule)
            .unwrap();
        let full_history = History::from_events(&full).unwrap();
        let gc_history = History::from_events(&gc).unwrap();
        let full_verdict = check_atomicity(&full_history).is_ok();
        let gc_verdict = check_atomicity(&gc_history).is_ok();
        assert_eq!(
            full_verdict, gc_verdict,
            "seed {seed}: GC changed the atomicity verdict\nfull:\n{full_history}\ngc:\n{gc_history}"
        );
        assert!(gc_verdict, "seed {seed}: W2R1 must stay atomic with GC on\n{gc_history}");
    }
}

/// Sequential read/write interleavings are the GC-friendliest schedules
/// (every client's floor advances constantly); even after hundreds of
/// operations the verdict and the returned values stay correct.
#[test]
fn long_sequential_run_with_gc_stays_atomic() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let mut schedule = Vec::new();
    let mut value = 0u64;
    for i in 0..120u64 {
        let at = SimTime::from_ticks(i * 100);
        match i % 4 {
            0 => {
                value += 1;
                schedule.push((at, ScheduledOp::Write { writer: 0, value: Value::new(value) }));
            }
            1 => schedule.push((at, ScheduledOp::Read { reader: 0 })),
            2 => {
                value += 1;
                schedule.push((at, ScheduledOp::Write { writer: 1, value: Value::new(value) }));
            }
            _ => schedule.push((at, ScheduledOp::Read { reader: 1 })),
        }
    }
    let events = Cluster::new(config, Protocol::W2R1).run_schedule(5, &schedule).unwrap();
    let history = History::from_events(&events).unwrap();
    assert_eq!(history.len(), 120, "all operations complete");
    assert!(check_atomicity(&history).is_ok(), "long GC run stays atomic:\n{history}");
}
