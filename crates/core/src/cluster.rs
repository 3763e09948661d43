//! One-call assembly of a simulated register cluster, plus the
//! [`SimCluster`] trait: schedule-driven execution shared by every
//! protocol family (core, tunable-quorum, Byzantine).

use mwr_sim::{SimError, SimTime, Simulation};
use mwr_types::{ClusterConfig, ProcessId, Value};

use crate::client::RegisterClient;
use crate::round::FastWire;
use crate::events::ClientEvent;
use crate::msg::Msg;
use crate::protocol::Protocol;
use crate::server::RegisterServer;

/// One operation in a harness-provided schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduledOp {
    /// Reader `reader` invokes `read()`.
    Read {
        /// Zero-based reader index.
        reader: u32,
    },
    /// Writer `writer` invokes `write(value)`.
    Write {
        /// Zero-based writer index.
        writer: u32,
        /// The value to write.
        value: Value,
    },
}

impl ScheduledOp {
    /// Schedules this operation's invocation into a simulation at `at`.
    ///
    /// This is the single translation point from harness schedules to
    /// client-automaton messages; every cluster family uses it, as can
    /// hand-assembled simulations that mix automata from several crates.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcess`] if the reader/writer index is
    /// out of range for the installed processes.
    pub fn schedule_into(
        self,
        sim: &mut Simulation<Msg, ClientEvent>,
        at: SimTime,
    ) -> Result<(), SimError> {
        match self {
            ScheduledOp::Read { reader } => {
                sim.schedule_external(at, ProcessId::reader(reader), Msg::InvokeRead)
            }
            ScheduledOp::Write { writer, value } => {
                sim.schedule_external(at, ProcessId::writer(writer), Msg::InvokeWrite(value))
            }
        }
    }
}

/// A cluster blueprint that can be installed into the deterministic
/// simulator: the one interface every protocol family implements.
///
/// Implementors provide [`install`](SimCluster::install) (which processes
/// make up the cluster) and [`client_config`](SimCluster::client_config)
/// (the population the harness schedules against); simulation assembly and
/// schedule-driven execution are shared default methods, so a new protocol
/// family written against this trait gets `build_sim`/`schedule`/
/// `run_schedule` — and with them every schedule-driven harness in the
/// workspace — for free.
///
/// # Examples
///
/// ```
/// use mwr_core::{Cluster, Protocol, ScheduledOp, SimCluster};
/// use mwr_sim::SimTime;
/// use mwr_types::{ClusterConfig, Value};
///
/// let config = ClusterConfig::new(5, 1, 2, 2)?;
/// let cluster = Cluster::new(config, Protocol::W2R1);
/// let events = cluster.run_schedule(
///     7,
///     &[
///         (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(1) }),
///         (SimTime::from_ticks(100), ScheduledOp::Read { reader: 0 }),
///     ],
/// )?;
/// assert_eq!(events.len(), 5); // 2 invocations, 2 completions, 1 second-round marker
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait SimCluster {
    /// Adds all servers, writers and readers to a simulation.
    fn install(&self, sim: &mut Simulation<Msg, ClientEvent>);

    /// The client/server population as a crash-model [`ClusterConfig`]:
    /// what the scheduling and workload harnesses address operations
    /// against. Families with richer configurations (e.g. Byzantine
    /// clusters) report their crash-view here.
    fn client_config(&self) -> ClusterConfig;

    /// Builds a fresh simulation with this cluster installed.
    fn build_sim(&self, seed: u64) -> Simulation<Msg, ClientEvent> {
        let mut sim = Simulation::new(seed);
        self.install(&mut sim);
        sim
    }

    /// Schedules one operation invocation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcess`] if the reader/writer index is
    /// out of range for the configuration.
    fn schedule(
        &self,
        sim: &mut Simulation<Msg, ClientEvent>,
        at: SimTime,
        op: ScheduledOp,
    ) -> Result<(), SimError> {
        op.schedule_into(sim, at)
    }

    /// Runs a full schedule to quiescence and returns the client events.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors.
    fn run_schedule(
        &self,
        seed: u64,
        ops: &[(SimTime, ScheduledOp)],
    ) -> Result<Vec<(SimTime, ClientEvent)>, SimError> {
        let mut sim = self.build_sim(seed);
        for (at, op) in ops {
            op.schedule_into(&mut sim, *at)?;
        }
        sim.run_until_quiescent()?;
        Ok(sim.drain_notifications())
    }
}

/// A cluster blueprint: configuration plus protocol choice.
///
/// This is the low-level, paper-faithful assembly of the core protocols.
/// Applications normally go through the `mwr-register` facade
/// (`mwr::register::Deployment`), which builds these blueprints behind a
/// single API for every protocol family and backend.
///
/// # Examples
///
/// ```
/// use mwr_core::{Cluster, Protocol, ScheduledOp, SimCluster};
/// use mwr_sim::SimTime;
/// use mwr_types::{ClusterConfig, Value};
///
/// let config = ClusterConfig::new(5, 1, 2, 2)?;
/// let cluster = Cluster::new(config, Protocol::W2R1);
/// let events = cluster.run_schedule(
///     7,
///     &[
///         (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(1) }),
///         (SimTime::from_ticks(100), ScheduledOp::Read { reader: 0 }),
///     ],
/// )?;
/// assert_eq!(events.len(), 5); // 2 invocations, 2 completions, 1 second-round marker
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Cluster {
    config: ClusterConfig,
    protocol: Protocol,
    wire: FastWire,
    gc: bool,
}

impl Cluster {
    /// Creates a blueprint with the bounded-state defaults every live
    /// deployment runs: [`FastWire::Runs`] fast reads and
    /// acknowledged-floor GC on the servers. Use
    /// [`with_fast_wire`](Self::with_fast_wire) /
    /// [`with_gc`](Self::with_gc) for the paper-faithful full-info model,
    /// the simulator's oracle.
    pub fn new(config: ClusterConfig, protocol: Protocol) -> Self {
        Cluster { config, protocol, wire: FastWire::default(), gc: true }
    }

    /// Selects the fast-read wire format ([`FastWire::FullInfo`] restores
    /// the paper's O(history) payloads).
    pub fn with_fast_wire(mut self, wire: FastWire) -> Self {
        self.wire = wire;
        self
    }

    /// Enables or disables acknowledged-floor GC on the servers.
    pub fn with_gc(mut self, gc: bool) -> Self {
        self.gc = gc;
        self
    }

    /// The cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// The protocol in use.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }
}

impl SimCluster for Cluster {
    fn install(&self, sim: &mut Simulation<Msg, ClientEvent>) {
        let population = self.config.readers() + self.config.writers();
        for s in self.config.server_ids() {
            let server = if self.gc {
                RegisterServer::with_gc(population)
            } else {
                RegisterServer::new()
            };
            sim.add_process(ProcessId::Server(s), server);
        }
        for w in self.config.writer_ids() {
            sim.add_process(
                w.into(),
                RegisterClient::writer(w, self.config, self.protocol.write_mode()),
            );
        }
        for r in self.config.reader_ids() {
            sim.add_process(
                r.into(),
                RegisterClient::reader_with_wire(
                    r,
                    self.config,
                    self.protocol.read_mode(),
                    self.wire,
                ),
            );
        }
    }

    fn client_config(&self) -> ClusterConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::OpResult;
    use mwr_types::TaggedValue;

    fn reads_of(events: &[(SimTime, ClientEvent)]) -> Vec<TaggedValue> {
        events
            .iter()
            .filter_map(|(_, e)| match e {
                ClientEvent::Completed { result: OpResult::Read(tv), .. } => Some(*tv),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn every_protocol_completes_a_simple_schedule() {
        let schedule = [
            (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(11) }),
            (SimTime::from_ticks(100), ScheduledOp::Read { reader: 0 }),
            (SimTime::from_ticks(200), ScheduledOp::Read { reader: 1 }),
        ];
        for protocol in Protocol::ALL {
            let writers = if protocol.is_single_writer() { 1 } else { 2 };
            let config = ClusterConfig::new(5, 1, 2, writers).unwrap();
            let cluster = Cluster::new(config, protocol);
            let events = cluster.run_schedule(1, &schedule).unwrap();
            let reads = reads_of(&events);
            assert_eq!(reads.len(), 2, "{protocol}: both reads complete");
            assert!(
                reads.iter().all(|tv| tv.value() == Value::new(11)),
                "{protocol}: sequential read after write returns the write"
            );
        }
    }

    #[test]
    fn out_of_range_client_is_reported() {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let cluster = Cluster::new(config, Protocol::W2R2);
        let err = cluster
            .run_schedule(0, &[(SimTime::ZERO, ScheduledOp::Read { reader: 5 })])
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownProcess { .. }));
    }

    #[test]
    fn identical_seeds_reproduce_event_streams() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster = Cluster::new(config, Protocol::W2R1);
        let schedule = [
            (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(1) }),
            (SimTime::ZERO, ScheduledOp::Write { writer: 1, value: Value::new(2) }),
            (SimTime::from_ticks(3), ScheduledOp::Read { reader: 0 }),
            (SimTime::from_ticks(4), ScheduledOp::Read { reader: 1 }),
        ];
        let a = cluster.run_schedule(99, &schedule).unwrap();
        let b = cluster.run_schedule(99, &schedule).unwrap();
        assert_eq!(a, b);
    }
}
