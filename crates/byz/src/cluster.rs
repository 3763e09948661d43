//! One-call assembly of a Byzantine register cluster: a
//! [`mwr_core::Cluster`] over this crate's servers and clients.

use mwr_core::Cluster;
use mwr_types::{ProcessId, ReaderId, WriterId};

use crate::behavior::ByzBehavior;
use crate::client::{ByzClient, ByzReadMode};
use crate::config::ByzConfig;
use crate::server::ByzRegisterServer;

/// A Byzantine cluster blueprint: `config`, the read mode, and the
/// behavior assigned to the `b` Byzantine servers (servers `0 .. b`; the
/// rest are honest).
///
/// Placing the adversaries at fixed indices loses no generality in the
/// simulator: delivery order is seed-driven and clients treat servers
/// symmetrically. The blueprint's [`config`](Cluster::config) is
/// [`ByzConfig::crash_view`]: `t = b`, so the scheduling harnesses address
/// the same population the masking quorums are sized for.
///
/// # Examples
///
/// ```
/// use mwr_byz::{byz_cluster, ByzBehavior, ByzConfig, ByzReadMode};
/// use mwr_core::ScheduledOp;
/// use mwr_sim::SimTime;
/// use mwr_types::Value;
///
/// let config = ByzConfig::new(9, 2, 2, 2)?;
/// let cluster = byz_cluster(config, ByzReadMode::Fast, ByzBehavior::StaleReplier);
/// let events = cluster.run_schedule(
///     3,
///     &[
///         (SimTime::ZERO, ScheduledOp::Write { writer: 1, value: Value::new(9) }),
///         (SimTime::from_ticks(150), ScheduledOp::Read { reader: 1 }),
///     ],
/// )?;
/// assert_eq!(events.len(), 5); // the write's second round is marked
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn byz_cluster(config: ByzConfig, read_mode: ByzReadMode, behavior: ByzBehavior) -> Cluster {
    Cluster::from_installer(config.crash_view(), move |sim| {
        for s in 0..config.servers() {
            let behavior = if s < config.byz() { behavior } else { ByzBehavior::Honest };
            sim.add_process(ProcessId::server(s as u32), ByzRegisterServer::new(behavior));
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
                ByzClient::reader(ReaderId::new(r as u32), config, read_mode),
            );
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_core::{ClientEvent, OpResult, ScheduledOp};
    use mwr_sim::SimTime;
    use mwr_types::Value;

    #[test]
    fn identical_seeds_reproduce_event_streams() {
        let config = ByzConfig::new(5, 1, 2, 2).unwrap();
        let cluster = byz_cluster(config, ByzReadMode::Fast, ByzBehavior::Equivocator);
        let schedule = [
            (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(1) }),
            (SimTime::from_ticks(1), ScheduledOp::Write { writer: 1, value: Value::new(2) }),
            (SimTime::from_ticks(2), ScheduledOp::Read { reader: 0 }),
            (SimTime::from_ticks(3), ScheduledOp::Read { reader: 1 }),
        ];
        let a = cluster.run_schedule(5, &schedule).unwrap();
        let b = cluster.run_schedule(5, &schedule).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn client_config_is_the_crash_view() {
        let config = ByzConfig::new(9, 2, 3, 2).unwrap();
        let cluster = byz_cluster(config, ByzReadMode::Fast, ByzBehavior::Honest);
        let cc = cluster.config();
        assert_eq!(cc.servers(), 9);
        assert_eq!(cc.max_faults(), 2);
        assert_eq!(cc.readers(), 3);
        assert_eq!(cc.writers(), 2);
    }

    #[test]
    fn concurrent_schedule_completes_under_every_behavior() {
        let config = ByzConfig::new(9, 2, 2, 2).unwrap();
        let schedule: Vec<(SimTime, ScheduledOp)> = (0..4u64)
            .flat_map(|i| {
                [
                    (
                        SimTime::from_ticks(i * 5),
                        ScheduledOp::Write { writer: (i % 2) as u32, value: Value::new(i + 1) },
                    ),
                    (SimTime::from_ticks(i * 5 + 2), ScheduledOp::Read { reader: (i % 2) as u32 }),
                ]
            })
            .collect();
        for behavior in ByzBehavior::ADVERSARIAL {
            for mode in [ByzReadMode::Slow, ByzReadMode::Fast] {
                let cluster = byz_cluster(config, mode, behavior);
                let events = cluster.run_schedule(23, &schedule).unwrap();
                let completed = events
                    .iter()
                    .filter(|(_, e)| matches!(e, ClientEvent::Completed { .. }))
                    .count();
                assert_eq!(completed, 8, "{behavior}/{mode:?}: wait-freedom holds");
            }
        }
    }

    #[test]
    fn reads_never_return_forged_values() {
        let config = ByzConfig::new(5, 1, 2, 2).unwrap();
        let schedule: Vec<(SimTime, ScheduledOp)> = (0..4u64)
            .flat_map(|i| {
                [
                    (
                        SimTime::from_ticks(i * 3),
                        ScheduledOp::Write { writer: (i % 2) as u32, value: Value::new(i + 1) },
                    ),
                    (SimTime::from_ticks(i * 3 + 1), ScheduledOp::Read { reader: (i % 2) as u32 }),
                ]
            })
            .collect();
        for mode in [ByzReadMode::Slow, ByzReadMode::Fast] {
            let cluster =
                byz_cluster(config, mode, ByzBehavior::TagInflater { boost: 10_000 });
            for seed in 1..=10 {
                let events = cluster.run_schedule(seed, &schedule).unwrap();
                for (_, e) in &events {
                    if let ClientEvent::Completed { result: OpResult::Read(tv), .. } = e {
                        assert!(
                            tv.value().get() <= 4,
                            "{mode:?} seed {seed}: read returned forged {tv}"
                        );
                    }
                }
            }
        }
    }
}
