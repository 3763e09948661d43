//! Shared helpers for the experiment binaries and benches.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures;
//! README's *Experiments* section is the index. This library hosts the
//! pieces they share: argument parsing ([`args`]), schedule generators and
//! verdict helpers. Clusters are constructed through the `mwr-register`
//! facade throughout.

#![warn(missing_docs)]

pub mod args;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mwr_check::{check_atomicity, History, Verdict};
use mwr_core::{Protocol, ScheduledOp, SimCluster};
use mwr_register::Deployment;
use mwr_sim::{SimError, SimTime};
use mwr_types::{ClusterConfig, Value};

/// Generates a randomized concurrent schedule: every writer issues
/// `ops_per_client` uniquely-valued writes and every reader issues the same
/// number of reads, at uniformly random times in `[0, horizon)`.
///
/// Unique values keep the reads-from relation observable for the checker.
pub fn random_schedule(
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

/// The deterministic adversarial schedule that exhibits Theorem 1 against
/// the naive fast write: `w2` writes first, `w1` writes after `w2`
/// completes, then both readers read. The naive writer-local timestamps
/// order `w1`'s later write *below* `w2`'s, so the reads return the
/// overwritten value.
pub fn inversion_schedule() -> Vec<(SimTime, ScheduledOp)> {
    vec![
        (SimTime::ZERO, ScheduledOp::Write { writer: 1, value: Value::new(2) }),
        (SimTime::from_ticks(1_000), ScheduledOp::Write { writer: 0, value: Value::new(1) }),
        (SimTime::from_ticks(2_000), ScheduledOp::Read { reader: 0 }),
        (SimTime::from_ticks(3_000), ScheduledOp::Read { reader: 1 }),
    ]
}

/// Builds quorum replies for the admissibility benches: `values` distinct
/// tagged values spread across `quorum` snapshots with `witnesses`
/// registered clients each. As in any real protocol state, the value's own
/// writer is registered everywhere the value is stored (so something is
/// always admissible); the remaining witnesses vary per snapshot, which is
/// what makes the intersection search non-trivial.
///
/// Shared by the criterion `admissible` bench and the `admissible_smoke`
/// CI floor so the two measure identical shapes.
pub fn synthetic_replies(
    quorum: usize,
    values: usize,
    witnesses: usize,
) -> Vec<mwr_core::Snapshot> {
    use mwr_core::{Snapshot, ValueRecord};
    use mwr_types::{ClientId, Tag, TaggedValue, WriterId};
    (0..quorum)
        .map(|s| Snapshot {
            entries: (0..values)
                .map(|v| {
                    let mut updated: Vec<ClientId> = vec![ClientId::writer((v % 2) as u32)];
                    updated.extend((0..witnesses).map(|w| {
                        if (s + w) % 2 == 0 {
                            ClientId::reader(w as u32)
                        } else {
                            ClientId::reader((w + witnesses) as u32)
                        }
                    }));
                    updated.sort_unstable();
                    updated.dedup();
                    ValueRecord {
                        value: TaggedValue::new(
                            Tag::new(v as u64 + 1, WriterId::new((v % 2) as u32)),
                            Value::new(v as u64),
                        ),
                        updated: updated.into(),
                    }
                })
                .collect(),
        })
        .collect()
}

/// The verdict of running one schedule through a cluster (any protocol
/// family) and the checker.
///
/// # Errors
///
/// Propagates simulation errors; history assembly errors are reported as a
/// panic since generated schedules always run to quiescence.
pub fn run_and_check<C: SimCluster>(
    cluster: &C,
    seed: u64,
    schedule: &[(SimTime, ScheduledOp)],
) -> Result<Verdict, SimError> {
    let events = cluster.run_schedule(seed, schedule)?;
    let history = History::from_events(&events).expect("quiescent run yields a complete history");
    Ok(check_atomicity(&history))
}

/// Summary of a cell of the Table 1 experiment.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Runs executed.
    pub runs: usize,
    /// Runs in which the checker found a violation.
    pub violations: usize,
    /// A rendered witness from the first violating run, if any.
    pub witness: Option<String>,
}

/// Runs `runs` random schedules (plus the deterministic inversion schedule
/// for multi-writer protocols) and counts checker violations.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn probe_protocol(
    config: ClusterConfig,
    protocol: Protocol,
    runs: usize,
) -> Result<CellOutcome, SimError> {
    let cluster = Deployment::new(config)
        .protocol(protocol)
        .sim_cluster()
        .expect("core protocols always deploy on the simulator");
    let mut violations = 0;
    let mut witness = None;
    let mut record = |verdict: Verdict| {
        if let Verdict::Violation(v) = verdict {
            violations += 1;
            witness.get_or_insert_with(|| v.to_string());
        }
    };
    let use_inversion = config.writers() >= 2 && config.readers() >= 2;
    if use_inversion {
        record(run_and_check(&cluster, 0, &inversion_schedule())?);
    }
    for seed in 0..runs as u64 {
        let schedule = random_schedule(&config, 3, 600, seed * 7 + 1);
        record(run_and_check(&cluster, seed, &schedule)?);
    }
    let total = runs + usize::from(use_inversion);
    Ok(CellOutcome { runs: total, violations, witness })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_schedules_are_deterministic_per_seed() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        assert_eq!(random_schedule(&config, 3, 100, 9), random_schedule(&config, 3, 100, 9));
        assert_ne!(random_schedule(&config, 3, 100, 9), random_schedule(&config, 3, 100, 10));
    }

    #[test]
    fn w2r2_survives_probing() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let outcome = probe_protocol(config, Protocol::W2R2, 10).unwrap();
        assert_eq!(outcome.violations, 0, "{:?}", outcome.witness);
    }

    #[test]
    fn w2r1_survives_probing_when_feasible() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        assert!(config.fast_read_feasible());
        let outcome = probe_protocol(config, Protocol::W2R1, 10).unwrap();
        assert_eq!(outcome.violations, 0, "{:?}", outcome.witness);
    }

    #[test]
    fn naive_fast_write_is_caught_by_the_inversion_schedule() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster =
            Deployment::new(config).protocol(Protocol::NaiveW1R2).sim_cluster().unwrap();
        let verdict = run_and_check(&cluster, 0, &inversion_schedule()).unwrap();
        assert!(!verdict.is_ok(), "Theorem 1 witness");
    }

    #[test]
    fn naive_fast_everything_is_caught_too() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let outcome = probe_protocol(config, Protocol::NaiveW1R1, 10).unwrap();
        assert!(outcome.violations > 0);
    }
}
