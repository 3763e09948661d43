//! Fault-injected open-loop drive: the live throughput driver with a
//! deterministic [`FaultPlan`] executing against the cluster while client
//! threads hammer it.
//!
//! The injector runs on the driving thread, walking the plan **in order**:
//! each step waits for its trigger (a cluster-wide completed-op count or
//! an elapsed wall-clock time), then fires against the cluster — crashing
//! a server, rejoining it through quorum state transfer, or running a
//! burst of short-lived churn clients that join, read, and depart
//! floor-safely. Client threads never abort the drive on an operation
//! error: failures are counted in the report, because the whole point of
//! a chaos drive is to measure whether the service stayed up (with
//! retries on, a plan that keeps a quorum alive should report zero).
//!
//! Churn clients run sequentially on one **reserved reader slot** — the
//! highest-indexed reader of the configuration, which the stable drive
//! leaves unspawned whenever the plan contains a
//! [`FaultEvent::ChurnBurst`]. Each churn incarnation registers, reads,
//! then departs, so acknowledged-floor GC on the servers never wedges on
//! a client that will never report again.

use std::ops::DerefMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use mwr_core::FastWire;
use mwr_runtime::{
    AuditTap, EndpointFactory, FaultEvent, FaultPlan, FaultTrigger, KeyspaceCluster, LiveReader,
    RetryPolicy, RuntimeCluster, RuntimeError, TransportError,
};
use mwr_sim::SimTime;
use mwr_types::Value;

use crate::live::ThroughputReport;
use crate::stats::LatencyStats;

/// How often the injector polls its current step's trigger (and how long a
/// client thread backs off after a failed operation).
pub(crate) const TRIGGER_POLL: Duration = Duration::from_micros(200);

/// What a fault-injected drive did to the cluster and how the service
/// held up. The latency/throughput half lives in `throughput`; the rest
/// counts the plan's effects so harnesses can assert a scenario actually
/// exercised what it claimed (a plan whose triggers never fire reports
/// zero crashes, not a silent pass).
#[derive(Debug)]
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

    /// The report of a drive that has not started.
    pub(crate) fn blank() -> Self {
        ChaosReport {
            throughput: ThroughputReport {
                reads: LatencyStats::new(),
                writes: LatencyStats::new(),
                elapsed: Duration::ZERO,
            },
            crashes: 0,
            rejoins: 0,
            rejoin_failures: 0,
            reconfigs: 0,
            reconfig_failures: 0,
            churn_joined: 0,
            churn_departed: 0,
            churn_reads: 0,
            failed_ops: 0,
            steps_skipped: 0,
            live_servers: Vec::new(),
        }
    }
}

/// What a drive's client threads and its injector share: the clock the
/// plan's triggers read and the cluster-wide operation counters.
pub(crate) struct Drive<'a> {
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
/// The two drivers differ only in how a churn client is minted:
/// `churn_reader` builds one fully configured incarnation on the reserved
/// slot from the cluster `C` the driver was handed (a
/// [`RuntimeCluster`], or a `&mut KeyspaceCluster`); its reads land in
/// `churn_reads`.
pub(crate) fn inject_plan<F, C>(
    cluster: &mut C,
    plan: &FaultPlan,
    drive: &Drive<'_>,
    report: &mut ChaosReport,
    churn_reads: &mut LatencyStats,
    mut churn_reader: impl FnMut(&C) -> Result<LiveReader<F::Endpoint>, TransportError>,
) where
    F: EndpointFactory,
    C: DerefMut<Target = KeyspaceCluster<F>>,
{
    let Drive { start, duration, completed, failed } = *drive;
    for step in plan.steps() {
        let due = |now: Duration| match step.trigger {
            FaultTrigger::Ops(n) => completed.load(Ordering::Relaxed) >= n,
            FaultTrigger::Elapsed(d) => now >= d,
        };
        let mut fired = true;
        loop {
            let now = start.elapsed();
            if due(now) {
                break;
            }
            if now >= duration {
                fired = false;
                break;
            }
            thread::sleep(TRIGGER_POLL);
        }
        if !fired {
            report.steps_skipped += 1;
            continue;
        }
        match step.event {
            FaultEvent::CrashServer(idx) => {
                if cluster.live_servers().contains(&idx) {
                    cluster.crash_server(idx);
                    report.crashes += 1;
                }
            }
            FaultEvent::RejoinServer(idx) => {
                if cluster.live_servers().contains(&idx) {
                    continue;
                }
                if !cluster.members().contains(&idx) {
                    report.steps_skipped += 1;
                    continue;
                }
                match cluster.rejoin_server(idx) {
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
                let members = cluster.members();
                let removes: Vec<u32> = members.iter().copied().take(remove as usize).collect();
                let target = members.len() + add as usize - removes.len();
                if (add == 0 && removes.is_empty())
                    || cluster.reconfigured_config(target).is_err()
                {
                    report.reconfig_failures += 1;
                    continue;
                }
                match cluster.reconfigure(add as usize, &removes) {
                    Ok(_) => report.reconfigs += 1,
                    Err(_) => report.reconfig_failures += 1,
                }
            }
        }
    }
}

/// Runs an open-loop drive for `duration` while executing `plan` against
/// the cluster (the module docs above describe the execution model).
/// Stable clients get `retry` so transient fault windows are ridden out
/// rather than surfaced; when `tap` is given they also emit sampled
/// records to the streaming auditor (churn clients stay untapped — each
/// incarnation reuses the reserved slot's client id, and the auditor
/// keys operations by id). Note `&mut` on the cluster: crash and rejoin
/// restructure it.
///
/// # Errors
///
/// Returns a [`RuntimeError`] only for setup failures (a stable client
/// endpoint that cannot open). Operation failures during the drive are
/// counted in the report, never returned.
pub fn run_chaos_live<F: EndpointFactory>(
    cluster: &mut RuntimeCluster<F>,
    wire: FastWire,
    timeout: Option<Duration>,
    retry: RetryPolicy,
    plan: FaultPlan,
    duration: Duration,
    tap: Option<&AuditTap>,
) -> Result<ChaosReport, RuntimeError> {
    let config = cluster.config();
    let churny = plan.steps().iter().any(|s| matches!(s.event, FaultEvent::ChurnBurst { .. }));
    // The churn slot is the highest reader index; the stable drive leaves
    // it free so sequential churn incarnations can mint it.
    let stable_readers =
        if churny { config.readers().saturating_sub(1) } else { config.readers() };
    let churn_slot = config.readers().saturating_sub(1) as u32;

    let mut writers = Vec::with_capacity(config.writers());
    for w in 0..config.writers() as u32 {
        let mut client = cluster.writer(w)?.with_retry(retry);
        if let Some(t) = timeout {
            client = client.with_timeout(t);
        }
        if let Some(tap) = tap {
            client = client.with_tap(tap.clone());
        }
        writers.push((w, client));
    }
    let mut readers = Vec::with_capacity(stable_readers);
    for r in 0..stable_readers as u32 {
        let mut client = cluster.reader_with_wire(r, wire)?.with_retry(retry);
        if let Some(t) = timeout {
            client = client.with_timeout(t);
        }
        if let Some(tap) = tap {
            client = client.with_tap(tap.clone());
        }
        readers.push(client);
    }

    let completed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let start = Instant::now();
    let (mut reads, mut writes) = (LatencyStats::new(), LatencyStats::new());
    let mut report = ChaosReport::blank();

    thread::scope(|scope| {
        let completed = &completed;
        let failed = &failed;
        let mut write_threads = Vec::new();
        for (w, mut client) in writers {
            write_threads.push(scope.spawn(move || {
                let mut lat = LatencyStats::new();
                let mut value = u64::from(w) * 1_000_000_000 + 1;
                while start.elapsed() < duration {
                    let t0 = Instant::now();
                    match client.write(Value::new(value)) {
                        Ok(_) => {
                            lat.record(SimTime::from_ticks(t0.elapsed().as_micros() as u64));
                            completed.fetch_add(1, Ordering::Relaxed);
                            value += 1;
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            // Don't hot-spin on a persistent failure mode.
                            thread::sleep(TRIGGER_POLL);
                        }
                    }
                }
                lat
            }));
        }
        let mut read_threads = Vec::new();
        for mut client in readers {
            read_threads.push(scope.spawn(move || {
                let mut lat = LatencyStats::new();
                while start.elapsed() < duration {
                    let t0 = Instant::now();
                    match client.read() {
                        Ok(_) => {
                            lat.record(SimTime::from_ticks(t0.elapsed().as_micros() as u64));
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            thread::sleep(TRIGGER_POLL);
                        }
                    }
                }
                lat
            }));
        }

        let drive = Drive { start, duration, completed, failed };
        inject_plan(cluster, &plan, &drive, &mut report, &mut reads, |cluster| {
            let client = cluster.reader_with_wire(churn_slot, wire)?.with_retry(retry);
            Ok(match timeout {
                Some(t) => client.with_timeout(t),
                None => client,
            })
        });

        for t in write_threads {
            writes.merge(&t.join().expect("writer thread panicked"));
        }
        for t in read_threads {
            reads.merge(&t.join().expect("reader thread panicked"));
        }
    });

    report.throughput = ThroughputReport { reads, writes, elapsed: start.elapsed() };
    report.failed_ops = failed.load(Ordering::Relaxed);
    report.live_servers = cluster.live_servers();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_core::Protocol;
    use mwr_runtime::InMemoryTransport;
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
        let report = run_chaos_live(
            &mut cluster,
            FastWire::default(),
            Some(Duration::from_secs(2)),
            RetryPolicy { attempts: 4, backoff: Duration::from_millis(2) },
            plan,
            Duration::from_millis(300),
            None,
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
        let report = run_chaos_live(
            &mut cluster,
            FastWire::default(),
            Some(Duration::from_secs(2)),
            RetryPolicy::default(),
            plan,
            Duration::from_millis(300),
            None,
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
        let report = run_chaos_live(
            &mut cluster,
            FastWire::default(),
            Some(Duration::from_secs(2)),
            RetryPolicy { attempts: 4, backoff: Duration::from_millis(2) },
            plan,
            Duration::from_millis(400),
            None,
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
        let report = run_chaos_live(
            &mut cluster,
            FastWire::default(),
            Some(Duration::from_secs(2)),
            RetryPolicy::default(),
            plan,
            Duration::from_millis(200),
            None,
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

        let config = ClusterConfig::new(5, 1, 2, 1).unwrap();
        let mut cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let wire = FastWire::default();
        let report =
            run_chaos_live(&mut cluster, wire, patience, retry, plan, duration, None).unwrap();
        assert_eq!((report.reconfigs, report.steps_skipped), (1, 1), "{report:?}");
        assert_eq!((report.rejoins, report.rejoin_failures), (0, 0), "{report:?}");
        assert_eq!(report.live_servers, vec![1, 2, 3, 4, 5]);
        cluster.shutdown();

        let config = mwr_types::KeyspaceConfig::new(5, 1, 3, 8, 2, 1).unwrap();
        let mut cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2Ra).unwrap();
        let report = crate::run_keyspace_chaos(
            &mut cluster,
            8,
            1.1,
            patience,
            retry,
            plan,
            duration,
            42,
            None,
        )
        .unwrap();
        assert_eq!((report.reconfigs, report.steps_skipped), (1, 1), "{report:?}");
        assert_eq!((report.rejoins, report.rejoin_failures), (0, 0), "{report:?}");
        assert_eq!(report.live_servers, vec![1, 2, 3, 4, 5]);
        cluster.shutdown();
    }

    #[test]
    fn steps_past_the_drives_end_are_counted_skipped() {
        let mut cluster = cluster();
        let plan = FaultPlan::new().at_ops(u64::MAX, FaultEvent::CrashServer(0));
        let report = run_chaos_live(
            &mut cluster,
            FastWire::default(),
            None,
            RetryPolicy::default(),
            plan,
            Duration::from_millis(30),
            None,
        )
        .unwrap();
        assert_eq!(report.steps_skipped, 1);
        assert_eq!(report.crashes, 0);
        assert!(!report.healed());
        cluster.shutdown();
    }
}
