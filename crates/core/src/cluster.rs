//! One-call assembly of a simulated register cluster: [`Cluster`] is the
//! one blueprint every protocol family (core, tunable-quorum, Byzantine)
//! constructs, and schedule-driven execution is shared by all of them.

use std::fmt;
use std::sync::Arc;

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

/// What a protocol family adds to a simulation: its servers, writers and
/// readers, in a fixed order.
type Install = dyn Fn(&mut Simulation<Msg, ClientEvent>) + Send + Sync;

/// A simulated register cluster blueprint: the crash-model
/// [`ClusterConfig`] that harnesses schedule against, and the protocol
/// family's installer, which adds every server and client to a simulation.
///
/// A protocol family is a constructor of this one type:
/// [`new`](Self::new) and [`with_wire`](Self::with_wire) for the core
/// protocols, `mwr_almost::tunable_cluster` for the tunable-quorum levels
/// and `mwr_byz::byz_cluster` for the Byzantine extension, each over
/// [`from_installer`](Self::from_installer). Every schedule- and
/// workload-driven harness takes a `Cluster`, so it runs every family.
/// Applications normally go through the `mwr-register` facade
/// (`mwr::register::Deployment`), which builds these blueprints behind a
/// single API for every protocol family and backend.
///
/// # Examples
///
/// ```
/// use mwr_core::{Cluster, Protocol, ScheduledOp};
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
#[derive(Clone)]
pub struct Cluster {
    config: ClusterConfig,
    install: Arc<Install>,
}

impl Cluster {
    /// A core protocol with the bounded-state defaults every live
    /// deployment runs: [`FastWire::Runs`] fast reads and
    /// acknowledged-floor GC on the servers. [`with_wire`](Self::with_wire)
    /// chooses both, e.g. the paper-faithful full-info model that is the
    /// simulator's oracle.
    pub fn new(config: ClusterConfig, protocol: Protocol) -> Self {
        Self::with_wire(config, protocol, FastWire::default(), true)
    }

    /// A core protocol with the fast-read wire format `wire`
    /// ([`FastWire::FullInfo`] restores the paper's O(history) payloads)
    /// and acknowledged-floor GC on the servers if `gc`.
    pub fn with_wire(config: ClusterConfig, protocol: Protocol, wire: FastWire, gc: bool) -> Self {
        Self::from_installer(config, move |sim| {
            let population = config.readers() + config.writers();
            for s in config.server_ids() {
                let server =
                    if gc { RegisterServer::with_gc(population) } else { RegisterServer::new() };
                sim.add_process(ProcessId::Server(s), server);
            }
            for w in config.writer_ids() {
                sim.add_process(w.into(), RegisterClient::writer(w, config, protocol.write_mode()));
            }
            for r in config.reader_ids() {
                sim.add_process(
                    r.into(),
                    RegisterClient::reader_with_wire(r, config, protocol.read_mode(), wire),
                );
            }
        })
    }

    /// A protocol family's blueprint: `install` adds all servers, writers
    /// and readers to a simulation, and `config` is the population as a
    /// crash-model configuration, the one the harnesses address operations
    /// against (families with richer configurations, e.g. Byzantine
    /// clusters, give their crash view).
    pub fn from_installer(
        config: ClusterConfig,
        install: impl Fn(&mut Simulation<Msg, ClientEvent>) + Send + Sync + 'static,
    ) -> Self {
        Cluster { config, install: Arc::new(install) }
    }

    /// The crash-model configuration operations are scheduled against.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// Builds a fresh simulation with this cluster installed.
    pub fn build_sim(&self, seed: u64) -> Simulation<Msg, ClientEvent> {
        let mut sim = Simulation::new(seed);
        (self.install)(&mut sim);
        sim
    }

    /// Schedules one operation invocation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcess`] if the reader/writer index is
    /// out of range for the configuration.
    pub fn schedule(
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
    pub fn run_schedule(
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

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster").field("config", &self.config).finish_non_exhaustive()
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
