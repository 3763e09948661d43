//! The one live drive's fault injector: a deterministic [`FaultPlan`]
//! walked **in order** on the driving thread while the client threads
//! hammer the cluster. Each step waits for its trigger (a cluster-wide
//! completed-op count or an elapsed wall-clock time), then fires against
//! the cluster manager — a crash, a rejoin through quorum state transfer,
//! a reconfiguration, or a burst of short-lived churn clients. A chaos
//! drive measures whether the service stayed up, so failures are counted,
//! not returned (with retries on, a plan that keeps a quorum alive should
//! report zero).
//!
//! Churn clients run one after another on a **reserved reader slot** — the
//! highest-indexed reader, which the stable drive leaves unspawned whenever
//! the plan contains a [`FaultEvent::ChurnBurst`]. Each incarnation
//! registers, reads, then departs, so acknowledged-floor GC on the servers
//! never wedges on a client that will never report again.

use std::borrow::BorrowMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use mwr_runtime::{
    Endpoint, EndpointFactory, FaultEvent, FaultPlan, FaultTrigger, KeyspaceCluster, LiveReader,
    RuntimeError, TransportError,
};
use mwr_sim::SimTime;

use crate::live::ThroughputReport;
use crate::stats::LatencyStats;

/// How often the injector polls its current step's trigger (and how long a
/// client thread backs off after a failed operation).
pub(crate) const TRIGGER_POLL: Duration = Duration::from_micros(200);

/// What a drive did to the cluster and how the service held up. The
/// latency/throughput half lives in `throughput`; the rest counts the
/// plan's effects so harnesses can assert a scenario actually exercised
/// what it claimed (a plan whose triggers never fire reports zero crashes,
/// not a silent pass).
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// The measured drive (completed operations only).
    pub throughput: ThroughputReport,
    /// Servers crashed by the plan.
    pub crashes: u32,
    /// Servers brought back through quorum state transfer.
    pub rejoins: u32,
    /// Rejoin attempts refused (no fetch quorum of live peers).
    pub rejoin_failures: u32,
    /// Committed live reconfigurations (joint-quorum handovers).
    pub reconfigs: u32,
    /// Reconfigurations refused (handover short of both quorums, or a
    /// target shape that would not assemble quorums).
    pub reconfig_failures: u32,
    /// Short-lived churn clients that joined (registered and read).
    pub churn_joined: u32,
    /// Churn clients that departed floor-safely (acknowledged by a
    /// quorum).
    pub churn_departed: u32,
    /// Reads completed by churn clients (counted in `throughput` too).
    pub churn_reads: u64,
    /// Operations that returned an error (timeouts, dead endpoints). The
    /// issuing thread keeps going; with retries armed and a plan that
    /// never kills a quorum this should be zero.
    pub failed_ops: u64,
    /// The first stable client's failed operation (first in thread order:
    /// writers, then readers), if any.
    pub first_error: Option<RuntimeError>,
    /// Plan steps that never fired: the drive's duration elapsed first, or
    /// the step rejoins a server a reconfiguration has retired — a non-zero
    /// count means the scenario under-ran its plan.
    pub steps_skipped: u32,
    /// Servers alive when the drive finished, ascending.
    pub live_servers: Vec<u32>,
}

impl ChaosReport {
    /// True if every injected fault healed: all rejoins succeeded, every
    /// plan step fired, no operation failed, and every churn client that
    /// joined also departed.
    pub fn healed(&self) -> bool {
        self.rejoin_failures == 0
            && self.reconfig_failures == 0
            && self.steps_skipped == 0
            && self.failed_ops == 0
            && self.churn_joined == self.churn_departed
    }

    /// The open and closed loops' outcome: the measured drive, or the
    /// first failed operation's error.
    ///
    /// # Errors
    ///
    /// [`first_error`](Self::first_error), if an operation failed.
    pub fn into_throughput(self) -> Result<ThroughputReport, RuntimeError> {
        match self.first_error {
            Some(e) => Err(e),
            None => Ok(self.throughput),
        }
    }
}

/// What a drive's client threads and its injector share: the clock the
/// plan's triggers read and the cluster-wide operation counters.
pub(crate) struct Shared<'a> {
    pub(crate) start: Instant,
    pub(crate) duration: Duration,
    pub(crate) completed: &'a AtomicU64,
    pub(crate) failed: &'a AtomicU64,
}

/// The injector: walks `plan` in order on the calling thread while the
/// client threads run, firing each step against the cluster manager and
/// counting its effect in `report`. Steps whose trigger never comes due
/// before the drive ends are counted as skipped, not silently dropped — and
/// so is a rejoin of an id a reconfiguration has since retired, which no
/// cluster can honour.
///
/// `churn_reader` mints one fully configured churn incarnation on the
/// reserved slot from the cluster; its reads land in `churn_reads`.
pub(crate) fn inject_plan<F, C, E>(
    cluster: &mut C,
    plan: &FaultPlan,
    shared: &Shared<'_>,
    report: &mut ChaosReport,
    churn_reads: &mut LatencyStats,
    mut churn_reader: impl FnMut(&C) -> Result<LiveReader<E>, TransportError>,
) where
    F: EndpointFactory,
    C: BorrowMut<KeyspaceCluster<F>>,
    E: Endpoint,
{
    let Shared { start, duration, completed, failed } = *shared;
    for step in plan.steps() {
        let due = |now: Duration| match step.trigger {
            FaultTrigger::Ops(n) => completed.load(Ordering::Relaxed) >= n,
            FaultTrigger::Elapsed(d) => now >= d,
        };
        let fired = loop {
            let now = start.elapsed();
            if due(now) {
                break true;
            }
            if now >= duration {
                break false;
            }
            thread::sleep(TRIGGER_POLL);
        };
        if !fired {
            report.steps_skipped += 1;
            continue;
        }
        let manager: &mut KeyspaceCluster<F> = cluster.borrow_mut();
        match step.event {
            FaultEvent::CrashServer(idx) => {
                if manager.live_servers().contains(&idx) {
                    manager.crash_server(idx);
                    report.crashes += 1;
                }
            }
            FaultEvent::RejoinServer(idx) => {
                if manager.live_servers().contains(&idx) {
                    continue;
                }
                if !manager.members().contains(&idx) {
                    report.steps_skipped += 1;
                    continue;
                }
                match manager.rejoin_server(idx) {
                    Ok(()) => report.rejoins += 1,
                    Err(_) => report.rejoin_failures += 1,
                }
            }
            FaultEvent::ChurnBurst { clients, ops_each } => {
                for _ in 0..clients {
                    let Ok(mut client) = churn_reader(cluster) else {
                        failed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    report.churn_joined += 1;
                    for _ in 0..ops_each {
                        let t0 = Instant::now();
                        match client.read() {
                            Ok(_) => {
                                churn_reads
                                    .record(SimTime::from_ticks(t0.elapsed().as_micros() as u64));
                                report.churn_reads += 1;
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    match client.depart() {
                        Ok(()) => report.churn_departed += 1,
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            FaultEvent::Delay(d) => thread::sleep(d),
            FaultEvent::Reconfigure { add, remove } => {
                // Retire the lowest-indexed current members; refuse
                // (count, don't panic) if the target shape would not
                // assemble quorums.
                let members = manager.members();
                let removes: Vec<u32> = members.iter().copied().take(remove as usize).collect();
                let target = members.len() + add as usize - removes.len();
                if (add == 0 && removes.is_empty())
                    || manager.reconfigured_config(target).is_err()
                {
                    report.reconfig_failures += 1;
                    continue;
                }
                match manager.reconfigure(add as usize, &removes) {
                    Ok(_) => report.reconfigs += 1,
                    Err(_) => report.reconfig_failures += 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::tests::{keyspace, register};
    use crate::{DriveSpec, Keys, Target};
    use mwr_core::Protocol;
    use mwr_runtime::{InMemoryTransport, RetryPolicy, RuntimeCluster};
    use mwr_types::ClusterConfig;

    fn cluster() -> RuntimeCluster<InMemoryTransport> {
        let config = ClusterConfig::new(3, 1, 2, 1).unwrap();
        RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap()
    }

    #[test]
    fn crash_and_rejoin_fire_in_order_and_heal() {
        let mut cluster = cluster();
        let plan = FaultPlan::new()
            .at_ops(20, FaultEvent::CrashServer(0))
            .at_ops(60, FaultEvent::RejoinServer(0));
        let report = register(
            Target::Faulted(&mut cluster, &plan),
            None,
            DriveSpec {
                timeout: Some(Duration::from_secs(2)),
                retry: RetryPolicy { attempts: 4, backoff: Duration::from_millis(2) },
                duration: Duration::from_millis(300),
                ..DriveSpec::default()
            },
        )
        .unwrap();
        assert_eq!(report.crashes, 1, "{report:?}");
        assert_eq!(report.rejoins, 1, "{report:?}");
        assert!(report.healed(), "{report:?}");
        assert_eq!(report.live_servers, vec![0, 1, 2]);
        assert!(report.throughput.ops() > 0);
        cluster.shutdown();
    }

    #[test]
    fn churn_burst_reserves_the_top_reader_slot_and_departs_everyone() {
        let mut cluster = cluster();
        let plan = FaultPlan::churn_storm(25, 2, 10);
        let report = register(
            Target::Faulted(&mut cluster, &plan),
            None,
            DriveSpec {
                timeout: Some(Duration::from_secs(2)),
                duration: Duration::from_millis(300),
                ..DriveSpec::default()
            },
        )
        .unwrap();
        assert_eq!(report.churn_joined, 25, "{report:?}");
        assert_eq!(report.churn_departed, 25, "{report:?}");
        assert_eq!(report.churn_reads, 50, "{report:?}");
        assert!(report.healed(), "{report:?}");
        cluster.shutdown();
    }

    #[test]
    fn reconfigure_swaps_members_mid_drive_without_failed_ops() {
        let config = ClusterConfig::new(5, 1, 2, 1).unwrap();
        let mut cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let plan = FaultPlan::reconfigure(2, 2, 30);
        let report = register(
            Target::Faulted(&mut cluster, &plan),
            None,
            DriveSpec {
                timeout: Some(Duration::from_secs(2)),
                retry: RetryPolicy { attempts: 4, backoff: Duration::from_millis(2) },
                duration: Duration::from_millis(400),
                ..DriveSpec::default()
            },
        )
        .unwrap();
        assert_eq!(report.reconfigs, 1, "{report:?}");
        assert!(report.healed(), "{report:?}");
        assert_eq!(report.live_servers, vec![2, 3, 4, 5, 6]);
        assert_eq!(cluster.members(), &[2, 3, 4, 5, 6]);
        assert!(report.throughput.ops() > 0);
        cluster.shutdown();
    }

    #[test]
    fn impossible_reconfigure_shape_is_refused_not_fatal() {
        let mut cluster = cluster(); // S = 3, t = 1
        // Removing two of three servers would leave S' = 1 ≤ 2t: refused.
        let plan = FaultPlan::reconfigure(0, 2, 5);
        let report = register(
            Target::Faulted(&mut cluster, &plan),
            None,
            DriveSpec {
                timeout: Some(Duration::from_secs(2)),
                duration: Duration::from_millis(200),
                ..DriveSpec::default()
            },
        )
        .unwrap();
        assert_eq!(report.reconfig_failures, 1, "{report:?}");
        assert_eq!(report.reconfigs, 0);
        assert!(!report.healed());
        assert_eq!(cluster.members(), &[0, 1, 2]);
        cluster.shutdown();
    }

    /// A plan that reconfigures a server away and later rejoins it: the
    /// rejoin is counted skipped on both drivers, not attempted (the
    /// manager would refuse it with a panic).
    #[test]
    fn rejoin_of_a_reconfigured_away_server_is_counted_skipped() {
        let plan = FaultPlan::new()
            .at_ops(5, FaultEvent::Reconfigure { add: 1, remove: 1 })
            .at_ops(5, FaultEvent::RejoinServer(0));
        let retry = RetryPolicy { attempts: 4, backoff: Duration::from_millis(2) };
        let (patience, duration) = (Some(Duration::from_secs(2)), Duration::from_millis(300));
        let spec = DriveSpec { timeout: patience, retry, duration, ..DriveSpec::default() };

        let config = ClusterConfig::new(5, 1, 2, 1).unwrap();
        let mut cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let report = register(Target::Faulted(&mut cluster, &plan), None, spec).unwrap();
        assert_eq!((report.reconfigs, report.steps_skipped), (1, 1), "{report:?}");
        assert_eq!((report.rejoins, report.rejoin_failures), (0, 0), "{report:?}");
        assert_eq!(report.live_servers, vec![1, 2, 3, 4, 5]);
        cluster.shutdown();

        let config = mwr_types::KeyspaceConfig::new(5, 1, 3, 8, 2, 1).unwrap();
        let mut cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2Ra).unwrap();
        let keys = Keys { count: 8, zipf: 1.1, seed: 42 };
        let report =
            keyspace(Target::Faulted(&mut cluster, &plan), DriveSpec { keys, ..spec }).unwrap();
        assert_eq!((report.reconfigs, report.steps_skipped), (1, 1), "{report:?}");
        assert_eq!((report.rejoins, report.rejoin_failures), (0, 0), "{report:?}");
        assert_eq!(report.live_servers, vec![1, 2, 3, 4, 5]);
        cluster.shutdown();
    }

    #[test]
    fn steps_past_the_drives_end_are_counted_skipped() {
        let mut cluster = cluster();
        let plan = FaultPlan::new().at_ops(u64::MAX, FaultEvent::CrashServer(0));
        let report = register(
            Target::Faulted(&mut cluster, &plan),
            None,
            DriveSpec {
                duration: Duration::from_millis(30),
                ..DriveSpec::default()
            },
        )
        .unwrap();
        assert_eq!(report.steps_skipped, 1);
        assert_eq!(report.crashes, 0);
        assert!(!report.healed());
        cluster.shutdown();
    }
}
