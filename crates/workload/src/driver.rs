//! Closed-loop workload driver over the simulator.
//!
//! Every client (readers read, writers write — the paper's model gives each
//! client one operation type) runs closed-loop: it issues its next
//! operation a fixed *think time* after the previous one completes. The
//! driver steps the simulation, reacts to completion notifications, and
//! stops issuing at the deadline, letting in-flight operations drain.

use mwr_core::{ClientEvent, Cluster, Msg, OpKind};
use mwr_sim::{SimError, SimTime};
use mwr_types::{ClientId, Value};

use crate::stats::{LatencyStats, LatencySummary};

/// Parameters of a closed-loop run.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Virtual time during which new operations are issued.
    pub duration: SimTime,
    /// Gap between a completion and the client's next invocation.
    pub think_time: SimTime,
    /// RNG seed for the simulation (delays).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    /// A light default: ~hundreds of operations, fast enough for doc tests
    /// and CI. Experiments configure their own horizons.
    fn default() -> Self {
        WorkloadSpec {
            duration: SimTime::from_ticks(8_000),
            think_time: SimTime::from_ticks(20),
            seed: 1,
        }
    }
}

/// The outcome of a closed-loop run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// All client events, for history checking. Populated by the simulator
    /// drivers; empty for live-runtime runs (see
    /// [`drive`](crate::drive)), which
    /// measure wall-clock latency without a checkable virtual-time
    /// history.
    pub events: Vec<(SimTime, ClientEvent)>,
    /// Read operation latencies.
    pub reads: LatencyStats,
    /// Write operation latencies.
    pub writes: LatencyStats,
    /// Virtual time at which the run went quiescent.
    pub end_time: SimTime,
}

impl WorkloadReport {
    /// Completed operations per 1000 virtual ticks.
    pub fn throughput_per_kilotick(&self) -> f64 {
        let ops = (self.reads.count() + self.writes.count()) as f64;
        let span = self.end_time.ticks().max(1) as f64;
        ops * 1000.0 / span
    }

    /// Summaries for both operation types.
    pub fn summaries(&mut self) -> (LatencySummary, LatencySummary) {
        (self.writes.summary(), self.reads.summary())
    }
}

/// Runs a closed-loop workload against a simulated cluster of any
/// protocol family (core, tunable-quorum, Byzantine: each is a
/// [`Cluster`]). To customize the simulation first (delay models, geo
/// matrices, crash schedules), build it with [`Cluster::build_sim`] and
/// call [`drive_closed_loop`].
///
/// # Errors
///
/// Propagates simulator errors (livelock guard, unknown processes).
///
/// # Examples
///
/// ```
/// use mwr_core::{Cluster, Protocol};
/// use mwr_sim::SimTime;
/// use mwr_types::ClusterConfig;
/// use mwr_workload::{run_closed_loop, WorkloadSpec};
///
/// let config = ClusterConfig::new(5, 1, 2, 2)?;
/// let cluster = Cluster::new(config, Protocol::W2R1);
/// let spec = WorkloadSpec {
///     duration: SimTime::from_ticks(1_000),
///     think_time: SimTime::from_ticks(5),
///     seed: 7,
/// };
/// let mut report = run_closed_loop(&cluster, spec)?;
/// assert!(report.reads.count() > 0);
/// assert!(report.writes.count() > 0);
/// let (writes, reads) = report.summaries();
/// assert!(reads.p50 <= writes.p50, "W2R1: fast reads beat slow writes");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_closed_loop(cluster: &Cluster, spec: WorkloadSpec) -> Result<WorkloadReport, SimError> {
    let mut sim = cluster.build_sim(spec.seed);
    drive_closed_loop(&mut sim, cluster.config(), spec)
}

/// Drives an already-assembled simulation closed-loop.
///
/// The simulation must contain one client automaton per reader and writer
/// of `config`, each accepting [`Msg::InvokeRead`] / [`Msg::InvokeWrite`]
/// and emitting [`ClientEvent`]s — true of `mwr-core`'s `RegisterClient`
/// (which `mwr-almost`'s tunable levels configure rather than copy) and of
/// any protocol variant built on the same message vocabulary (e.g.
/// `mwr-byz`'s client).
///
/// # Errors
///
/// Propagates simulator errors (livelock guard, unknown processes).
pub fn drive_closed_loop(
    sim: &mut mwr_sim::Simulation<Msg, ClientEvent>,
    config: mwr_types::ClusterConfig,
    spec: WorkloadSpec,
) -> Result<WorkloadReport, SimError> {
    // Kick off every client at t = 0 (staggered by a tick to avoid a
    // thundering herd of identical timestamps).
    let mut next_value: u64 = 0;
    for (i, w) in config.writer_ids().enumerate() {
        next_value += 1;
        sim.schedule_external(
            SimTime::from_ticks(i as u64),
            w.into(),
            Msg::InvokeWrite(Value::new(next_value)),
        )?;
    }
    for (i, r) in config.reader_ids().enumerate() {
        sim.schedule_external(SimTime::from_ticks(i as u64), r.into(), Msg::InvokeRead)?;
    }

    let mut events: Vec<(SimTime, ClientEvent)> = Vec::new();
    let mut invoked_at: std::collections::BTreeMap<mwr_core::OpId, SimTime> =
        std::collections::BTreeMap::new();
    let mut reads = LatencyStats::new();
    let mut writes = LatencyStats::new();

    loop {
        let stepped = sim.step();
        for (at, event) in sim.drain_notifications() {
            match event {
                ClientEvent::Invoked { op, .. } => {
                    invoked_at.insert(op, at);
                }
                // Round-trip accounting only; latency is measured
                // invocation-to-completion.
                ClientEvent::SecondRound { .. } => {}
                ClientEvent::Completed { op, kind, .. } => {
                    // A client has one operation in flight, so taking the
                    // entry out keeps the map at R + W entries at most.
                    if let Some(start) = invoked_at.remove(&op) {
                        let latency = at.saturating_sub(start);
                        match kind {
                            OpKind::Read => reads.record(latency),
                            OpKind::Write(_) => writes.record(latency),
                        }
                    }
                    // Closed loop: issue the next operation after the
                    // think time, while the issuing window is open.
                    let next_at = at + spec.think_time;
                    if next_at <= spec.duration {
                        let msg = match op.client {
                            ClientId::Reader(_) => Msg::InvokeRead,
                            ClientId::Writer(_) => {
                                next_value += 1;
                                Msg::InvokeWrite(Value::new(next_value))
                            }
                        };
                        sim.schedule_external(next_at, op.client.into(), msg)?;
                    }
                }
            }
            events.push((at, event));
        }
        if stepped.is_none() {
            break;
        }
    }

    Ok(WorkloadReport { events, reads, writes, end_time: sim.now() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_core::{Cluster, Protocol};
    use mwr_types::ClusterConfig;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            duration: SimTime::from_ticks(2_000),
            think_time: SimTime::from_ticks(7),
            seed: 3,
        }
    }

    #[test]
    fn closed_loop_produces_matched_events() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster = Cluster::new(config, Protocol::W2R2);
        let report = run_closed_loop(&cluster, spec()).unwrap();
        let invoked = report
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ClientEvent::Invoked { .. }))
            .count();
        let completed = report
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ClientEvent::Completed { .. }))
            .count();
        assert_eq!(invoked, completed, "every issued op completes (wait-freedom)");
        assert!(completed > 20, "closed loop should issue many ops, got {completed}");
    }

    #[test]
    fn every_completion_is_timed_exactly_once() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let report = run_closed_loop(&Cluster::new(config, Protocol::W2R1), spec()).unwrap();
        let completed =
            report.events.iter().filter(|(_, e)| matches!(e, ClientEvent::Completed { .. })).count();
        let completed_reads = report
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ClientEvent::Completed { kind: OpKind::Read, .. }))
            .count();
        assert_eq!(report.reads.count(), completed_reads);
        assert_eq!(report.writes.count(), completed - completed_reads);
    }

    #[test]
    fn fast_reads_have_lower_latency_than_slow_reads() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let slow = run_closed_loop(&Cluster::new(config, Protocol::W2R2), spec()).unwrap();
        let fast = run_closed_loop(&Cluster::new(config, Protocol::W2R1), spec()).unwrap();
        // One round-trip vs two: the mean must drop by roughly half.
        assert!(
            fast.reads.mean() < slow.reads.mean(),
            "fast {} vs slow {}",
            fast.reads.mean(),
            slow.reads.mean()
        );
    }

    #[test]
    fn identical_specs_reproduce_reports() {
        let config = ClusterConfig::new(3, 1, 2, 2).unwrap();
        let cluster = Cluster::new(config, Protocol::W2R1);
        let a = run_closed_loop(&cluster, spec()).unwrap();
        let b = run_closed_loop(&cluster, spec()).unwrap();
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn throughput_is_positive() {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let cluster = Cluster::new(config, Protocol::W2R2);
        let report = run_closed_loop(&cluster, spec()).unwrap();
        assert!(report.throughput_per_kilotick() > 0.0);
    }
}
