//! The [`Deployment`] builder: one validated path from (config, spec,
//! backend, knobs) to a running register.

use std::time::Duration;

use mwr_almost::TunableCluster;
use mwr_byz::{ByzBehavior, ByzCluster, ByzConfig, ByzReadMode};
use mwr_core::{ClientEvent, Cluster, FastWire, Msg, Protocol, SimCluster};
use mwr_runtime::{
    FaultEvent, FaultPlan, InMemoryTransport, RetryPolicy, RuntimeCluster, TcpRegistry, TcpTuning,
};
use mwr_sim::Simulation;
use mwr_types::ClusterConfig;
use mwr_workload::{WorkloadReport, WorkloadSpec};

use crate::audit::{AuditConfig, AuditSidecar};
use crate::error::DeployError;
use crate::handle::{Handle, LiveHandle, SimHandle};
use crate::spec::{Backend, Spec};

/// A deployment blueprint: cluster configuration, protocol spec, backend,
/// and knobs, validated as a whole before anything starts.
///
/// See the [crate docs](crate) for the full walkthrough; the short form:
///
/// ```
/// use mwr_core::Protocol;
/// use mwr_register::{Backend, Deployment};
/// use mwr_types::{ClusterConfig, Value};
///
/// let config = ClusterConfig::new(5, 1, 2, 2)?;
/// let live = Deployment::new(config)
///     .protocol(Protocol::W2R1)
///     .backend(Backend::InMemory)
///     .in_memory()?;
/// let mut writer = live.writer(0)?;
/// let mut reader = live.reader(0)?;
/// let written = writer.write(Value::new(1))?;
/// assert_eq!(reader.read()?, written);
/// live.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Deployment {
    config: ClusterConfig,
    spec: Spec,
    backend: Backend,
    wire: Option<FastWire>,
    gc: Option<bool>,
    timeout: Option<Duration>,
    tcp_tuning: Option<TcpTuning>,
    audit: Option<AuditConfig>,
    retry: Option<RetryPolicy>,
    faults: Option<FaultPlan>,
}

impl Deployment {
    /// Creates a blueprint for `config` with the defaults: the paper's
    /// W2R1 on the simulator backend with seed 0.
    pub fn new(config: ClusterConfig) -> Self {
        Deployment {
            config,
            spec: Spec::Core(Protocol::W2R1),
            backend: Backend::Sim { seed: 0 },
            wire: None,
            gc: None,
            timeout: None,
            tcp_tuning: None,
            audit: None,
            retry: None,
            faults: None,
        }
    }

    /// Creates a Byzantine deployment straight from the masking-quorum
    /// arithmetic: the crash-view [`ClusterConfig`] (`t = b`) is derived
    /// from `config` instead of hand-supplied, so it cannot disagree.
    pub fn byz(config: ByzConfig, read_mode: ByzReadMode, behavior: ByzBehavior) -> Self {
        let crash_view = ClusterConfig::new(
            config.servers(),
            config.byz(),
            config.readers(),
            config.writers(),
        )
        .expect("every valid ByzConfig has a valid crash view (S ≥ 4b + 1 > b)");
        Deployment::new(crash_view).protocol(Spec::Byz { config, read_mode, behavior })
    }

    /// Selects the protocol: a core [`Protocol`], a
    /// [`TunableSpec`](mwr_almost::TunableSpec), or a full [`Spec`]
    /// (required for [`Spec::Byz`]; see also [`byz`](Self::byz), which
    /// derives the matching cluster config for you).
    pub fn protocol(mut self, spec: impl Into<Spec>) -> Self {
        self.spec = spec.into();
        self
    }

    /// Selects the execution backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the fast-read wire format. Core protocols only
    /// ([`FastWire::FullInfo`] restores the paper's O(history) payloads).
    pub fn fast_wire(mut self, wire: FastWire) -> Self {
        self.wire = Some(wire);
        self
    }

    /// Enables or disables acknowledged-floor GC on the servers. Core
    /// protocols on the simulator backend only — the live runtime always
    /// runs with GC on.
    pub fn gc(mut self, gc: bool) -> Self {
        self.gc = Some(gc);
        self
    }

    /// Sets the per-round-trip quorum timeout for live clients. Live
    /// backends only — the simulator runs in virtual time.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Tunes the TCP send path: writer-pipeline coalescing batch, bounded
    /// per-peer queue depth, reconnect backoff and write timeout (there is
    /// one send path; nothing here selects another). TCP backend only — the
    /// in-memory transport delivers straight into the destination's channel
    /// with no pipeline to tune, and the simulator has no sockets at all.
    pub fn tcp_tuning(mut self, tuning: TcpTuning) -> Self {
        self.tcp_tuning = Some(tuning);
        self
    }

    /// Arms the deployment with a streaming linearizability auditor: every
    /// client the live handle mints emits sampled operation records into a
    /// sidecar thread running `mwr-check`'s
    /// [`StreamingAuditor`](mwr_check::StreamingAuditor), so workloads and
    /// fault scenarios run continuously verified. Live backends only — the
    /// simulator's histories are checked post-hoc with
    /// [`check_atomicity`](mwr_check::check_atomicity). Collect the
    /// verdict with
    /// [`LiveHandle::shutdown_audited`](crate::LiveHandle::shutdown_audited).
    pub fn audit(mut self, audit: AuditConfig) -> Self {
        self.audit = Some(audit);
        self
    }

    /// Sets the bounded retry policy live clients use to ride out
    /// transient fault windows (a crashed-then-rejoining server, a churn
    /// spike): a timed-out round is re-broadcast up to `attempts` times,
    /// `backoff` apart. Safe because every protocol round is idempotent
    /// and acknowledgements deduplicate by server across attempts. Live
    /// backends only — the simulator has no timeouts to retry. The
    /// default (no knob) is one attempt: fail fast, exactly the old
    /// behavior.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Arms the deployment with a deterministic [`FaultPlan`]: when the
    /// live handle is driven with
    /// [`LiveHandle::run_chaos`](crate::LiveHandle::run_chaos), an
    /// injector walks the plan in order — crashing servers, rejoining
    /// them through quorum state transfer, running churn bursts of
    /// short-lived depart-cleanly clients — while the drive measures
    /// whether the service held up. Live backends only; the simulator
    /// schedules crashes natively in virtual time (and has no rejoin —
    /// simulated crashes are permanent by construction).
    pub fn inject(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// The protocol spec.
    pub fn spec(&self) -> Spec {
        self.spec
    }

    /// Checks the whole combination — spec × backend × knobs — and
    /// explains the first unsupported pairing.
    ///
    /// # Errors
    ///
    /// [`DeployError::Unsupported`], [`DeployError::Knob`] or
    /// [`DeployError::ByzMismatch`], with the offending pair named.
    pub fn validate(&self) -> Result<(), DeployError> {
        let live = !matches!(self.backend, Backend::Sim { .. });
        match &self.spec {
            Spec::Core(_) => {}
            Spec::Tunable(_) if live => {
                return Err(DeployError::Unsupported {
                    family: self.spec.family(),
                    backend: self.backend.name(),
                    reason: "tunable-quorum clients exist only as simulator automata; \
                             a live tunable client has not been wired yet",
                });
            }
            Spec::Byz { .. } if live => {
                return Err(DeployError::Unsupported {
                    family: self.spec.family(),
                    backend: self.backend.name(),
                    reason: "Byzantine servers and vouching clients exist only as \
                             simulator automata; the live runtime has not been wired yet",
                });
            }
            Spec::Tunable(_) => {}
            Spec::Byz { config: byz, .. } => {
                let crash_view = (byz.servers(), byz.byz(), byz.readers(), byz.writers());
                let deployed = (
                    self.config.servers(),
                    self.config.max_faults(),
                    self.config.readers(),
                    self.config.writers(),
                );
                if crash_view != deployed {
                    return Err(DeployError::ByzMismatch {
                        detail: format!(
                            "ByzConfig is {byz} (crash view S={} t={} R={} W={}) but the \
                             deployment config is {}; they must agree with t = b",
                            crash_view.0, crash_view.1, crash_view.2, crash_view.3, self.config,
                        ),
                    });
                }
            }
        }
        if self.wire.is_some() && !matches!(self.spec, Spec::Core(_)) {
            return Err(DeployError::Knob {
                knob: "fast_wire",
                reason: "only the core protocols have a fast-read wire format \
                         (tunable reads are threshold reads; byz stays full-info deliberately)",
            });
        }
        if let Some(_gc) = self.gc {
            if !matches!(self.spec, Spec::Core(_)) {
                return Err(DeployError::Knob {
                    knob: "gc",
                    reason: "only the core servers run acknowledged-floor GC \
                             (tunable servers are plain; byz stays full-info deliberately)",
                });
            }
            if live {
                return Err(DeployError::Knob {
                    knob: "gc",
                    reason: "the live runtime always runs acknowledged-floor GC; \
                             the knob exists to restore the paper-faithful model in the simulator",
                });
            }
        }
        if self.timeout.is_some() && !live {
            return Err(DeployError::Knob {
                knob: "timeout",
                reason: "timeouts are wall-clock; the simulator runs in virtual time \
                         and never blocks",
            });
        }
        if let Some(tuning) = self.tcp_tuning {
            if self.backend != Backend::Tcp {
                return Err(DeployError::Knob {
                    knob: "tcp_tuning",
                    reason: "writer pipelines and frame coalescing exist only on the TCP \
                             transport; the in-memory transport delivers directly and the \
                             simulator has no sockets",
                });
            }
            if tuning.batch == 0 || tuning.queue_depth == 0 {
                return Err(DeployError::Knob {
                    knob: "tcp_tuning",
                    reason: "batch and queue_depth must both be at least 1 \
                             (a zero-capacity pipeline could never move a frame)",
                });
            }
        }
        if let Some(audit) = self.audit {
            if !live {
                return Err(DeployError::Knob {
                    knob: "audit",
                    reason: "the streaming auditor taps live clients; simulator \
                             histories are deterministic and checked post-hoc with \
                             mwr_check::check_atomicity",
                });
            }
            if !(audit.sample_rate.is_finite()
                && audit.sample_rate > 0.0
                && audit.sample_rate <= 1.0)
            {
                return Err(DeployError::Knob {
                    knob: "audit",
                    reason: "sample_rate must be in (0, 1]",
                });
            }
            if audit.window == 0 {
                return Err(DeployError::Knob {
                    knob: "audit",
                    reason: "window must be at least 1 (the auditor needs to retain \
                             something to check)",
                });
            }
        }
        if let Some(retry) = self.retry {
            if !live {
                return Err(DeployError::Knob {
                    knob: "retry",
                    reason: "retries re-broadcast after wall-clock timeouts; the simulator \
                             runs in virtual time and never times out",
                });
            }
            if retry.attempts == 0 {
                return Err(DeployError::Knob {
                    knob: "retry",
                    reason: "attempts must be at least 1 (zero attempts could never \
                             issue the operation)",
                });
            }
        }
        if let Some(plan) = self.faults {
            if !live {
                return Err(DeployError::Knob {
                    knob: "faults",
                    reason: "the fault injector crashes and rejoins live server threads; \
                             simulator crashes are scheduled natively in virtual time and \
                             are permanent (no rejoin path exists there)",
                });
            }
            if let Some(max) = plan.max_server() {
                if max as usize >= self.config.servers() {
                    return Err(DeployError::Knob {
                        knob: "faults",
                        reason: "the plan crashes or rejoins a server index outside the \
                                 deployment's configuration",
                    });
                }
            }
            let churny =
                plan.steps().iter().any(|s| matches!(s.event, FaultEvent::ChurnBurst { .. }));
            if churny && self.config.readers() < 2 {
                return Err(DeployError::Knob {
                    knob: "faults",
                    reason: "churn bursts reserve the highest reader slot for short-lived \
                             clients; the configuration needs at least 2 readers so one \
                             stable reader remains",
                });
            }
        }
        Ok(())
    }

    /// Builds the validated sim-side cluster blueprint — the
    /// [`SimCluster`] the workload and checking harnesses accept. Useful
    /// when a harness wants to run many seeds against one blueprint;
    /// [`sim`](Self::sim) wraps it into a seeded [`SimHandle`].
    ///
    /// # Errors
    ///
    /// Validation errors; the backend is *not* consulted, so this also
    /// works for live-backed deployments that want a simulated twin.
    pub fn sim_cluster(&self) -> Result<AnySimCluster, DeployError> {
        // Validate with the backend forced to sim (shedding the live-only
        // knobs): this path exists precisely to give live deployments a
        // simulated twin.
        let sim_view = Deployment {
            backend: Backend::Sim { seed: 0 },
            timeout: None,
            tcp_tuning: None,
            audit: None,
            retry: None,
            faults: None,
            ..*self
        };
        sim_view.validate()?;
        Ok(match self.spec {
            Spec::Core(protocol) => {
                let mut cluster = Cluster::new(self.config, protocol);
                if let Some(wire) = self.wire {
                    cluster = cluster.with_fast_wire(wire);
                }
                if let Some(gc) = self.gc {
                    cluster = cluster.with_gc(gc);
                }
                AnySimCluster::Core(cluster)
            }
            Spec::Tunable(spec) => AnySimCluster::Tunable(TunableCluster::new(self.config, spec)),
            Spec::Byz { config, read_mode, behavior } => {
                AnySimCluster::Byz(ByzCluster::new(config, read_mode, behavior))
            }
        })
    }

    /// Deploys on the simulator backend.
    ///
    /// # Errors
    ///
    /// Validation errors, or [`DeployError::WrongBackend`] if the
    /// deployment is configured for a live backend.
    pub fn sim(&self) -> Result<SimHandle, DeployError> {
        self.validate()?;
        let Backend::Sim { seed } = self.backend else {
            return Err(DeployError::WrongBackend {
                requested: "sim",
                configured: self.backend.name(),
            });
        };
        Ok(SimHandle::new(&self.sim_cluster()?, seed))
    }

    /// Deploys on the in-memory live backend: every server on its own
    /// thread over crossbeam channels.
    ///
    /// # Errors
    ///
    /// Validation errors, or [`DeployError::WrongBackend`] if the
    /// deployment is configured for another backend.
    pub fn in_memory(&self) -> Result<LiveHandle<InMemoryTransport>, DeployError> {
        self.validate()?;
        if self.backend != Backend::InMemory {
            return Err(DeployError::WrongBackend {
                requested: "in-memory",
                configured: self.backend.name(),
            });
        }
        self.live_on(InMemoryTransport::new())
    }

    /// Deploys on the TCP live backend: every server on its own thread
    /// behind a loopback socket.
    ///
    /// # Errors
    ///
    /// Validation errors, [`DeployError::WrongBackend`] if the deployment
    /// is configured for another backend, or a
    /// [`DeployError::Transport`] if a socket cannot be bound.
    pub fn tcp(&self) -> Result<LiveHandle<TcpRegistry>, DeployError> {
        self.validate()?;
        if self.backend != Backend::Tcp {
            return Err(DeployError::WrongBackend {
                requested: "tcp",
                configured: self.backend.name(),
            });
        }
        self.live_on(TcpRegistry::new().with_tuning(self.tcp_tuning.unwrap_or_default()))
    }

    fn live_on<F: mwr_runtime::EndpointFactory>(
        &self,
        factory: F,
    ) -> Result<LiveHandle<F>, DeployError> {
        let Spec::Core(protocol) = self.spec else {
            unreachable!("validate() rejects non-core specs on live backends");
        };
        let sidecar = match self.audit {
            Some(cfg) => Some(AuditSidecar::spawn(cfg).map_err(|e| {
                DeployError::Transport(mwr_runtime::TransportError::Io { kind: e.kind() })
            })?),
            None => None,
        };
        let cluster = RuntimeCluster::start_on(factory, self.config, protocol)?;
        Ok(LiveHandle::new(
            cluster,
            self.wire.unwrap_or_default(),
            self.timeout,
            sidecar,
            self.retry.unwrap_or_default(),
            self.faults,
        ))
    }

    /// Deploys on whichever backend this deployment is configured for,
    /// returning the dispatching [`Handle`]. Prefer the typed
    /// [`sim`](Self::sim) / [`in_memory`](Self::in_memory) /
    /// [`tcp`](Self::tcp) when the backend is statically known.
    ///
    /// # Errors
    ///
    /// Validation and transport errors, as for the typed constructors.
    pub fn deploy(&self) -> Result<Handle, DeployError> {
        Ok(match self.backend {
            Backend::Sim { .. } => Handle::Sim(self.sim()?),
            Backend::InMemory => Handle::InMemory(self.in_memory()?),
            Backend::Tcp => Handle::Tcp(self.tcp()?),
        })
    }

    /// Runs one closed-loop contended workload on this deployment's
    /// backend — the same [`WorkloadSpec`] drives simulator clients
    /// (virtual time) and live clients (ticks = microseconds), so a
    /// workload written once compares all three backends.
    ///
    /// On the simulator backend the delays are seeded by the **spec's**
    /// `seed` (overriding [`Backend::Sim`]'s schedule-replay seed), so
    /// sweeping `spec.seed` varies the run exactly as
    /// [`mwr_workload::run_closed_loop`] does; on live backends the
    /// cluster is started, driven, and shut down within the call.
    ///
    /// # Errors
    ///
    /// Validation, simulator, and runtime errors.
    pub fn run_closed_loop(&self, spec: WorkloadSpec) -> Result<WorkloadReport, DeployError> {
        match self.backend {
            Backend::Sim { .. } => {
                let seeded = Deployment { backend: Backend::Sim { seed: spec.seed }, ..*self };
                Ok(seeded.sim()?.run_closed_loop(spec)?)
            }
            Backend::InMemory => {
                let handle = self.in_memory()?;
                let report = handle.run_closed_loop(spec);
                handle.shutdown();
                report
            }
            Backend::Tcp => {
                let handle = self.tcp()?;
                let report = handle.run_closed_loop(spec);
                handle.shutdown();
                report
            }
        }
    }
}

/// The sim-side cluster blueprint behind a deployment: one type
/// implementing [`SimCluster`] over all three protocol families, so any
/// schedule- or workload-driven harness accepts any family.
#[derive(Debug, Clone, Copy)]
pub enum AnySimCluster {
    /// A core crash-tolerant cluster.
    Core(Cluster),
    /// A tunable-quorum cluster.
    Tunable(TunableCluster),
    /// A Byzantine cluster.
    Byz(ByzCluster),
}

impl SimCluster for AnySimCluster {
    fn install(&self, sim: &mut Simulation<Msg, ClientEvent>) {
        match self {
            AnySimCluster::Core(c) => c.install(sim),
            AnySimCluster::Tunable(c) => c.install(sim),
            AnySimCluster::Byz(c) => c.install(sim),
        }
    }

    fn client_config(&self) -> ClusterConfig {
        match self {
            AnySimCluster::Core(c) => c.client_config(),
            AnySimCluster::Tunable(c) => c.client_config(),
            AnySimCluster::Byz(c) => c.client_config(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_byz::{ByzBehavior, ByzConfig, ByzReadMode};
    use mwr_core::ScheduledOp;
    use mwr_sim::SimTime;
    use mwr_types::Value;

    fn config() -> ClusterConfig {
        ClusterConfig::new(5, 1, 2, 2).unwrap()
    }

    fn byz_spec() -> Spec {
        Spec::Byz {
            config: ByzConfig::new(5, 1, 2, 2).unwrap(),
            read_mode: ByzReadMode::Fast,
            behavior: ByzBehavior::StaleReplier,
        }
    }

    #[test]
    fn every_family_deploys_on_the_simulator() {
        let schedule = [
            (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(4) }),
            (SimTime::from_ticks(200), ScheduledOp::Read { reader: 0 }),
        ];
        for spec in [
            Spec::Core(Protocol::W2R1),
            Spec::Tunable(mwr_almost::TunableSpec::strong()),
            byz_spec(),
        ] {
            let mut handle = Deployment::new(config())
                .protocol(spec)
                .backend(Backend::Sim { seed: 3 })
                .sim()
                .unwrap();
            let events = handle.run_schedule(&schedule).unwrap();
            assert!(
                events.iter().any(|(_, e)| matches!(e, ClientEvent::Completed { .. })),
                "{spec:?}: operations complete"
            );
        }
    }

    #[test]
    fn unsupported_family_backend_pairs_are_rejected_with_reasons() {
        for backend in [Backend::InMemory, Backend::Tcp] {
            for spec in [Spec::Tunable(mwr_almost::TunableSpec::fastest()), byz_spec()] {
                let err =
                    Deployment::new(config()).protocol(spec).backend(backend).deploy().unwrap_err();
                let DeployError::Unsupported { backend: b, .. } = err else {
                    panic!("expected Unsupported, got {err}");
                };
                assert_eq!(b, backend.name());
            }
        }
    }

    #[test]
    fn knobs_are_validated_per_combination() {
        // timeout is a live-only knob.
        let err = Deployment::new(config())
            .timeout(Duration::from_secs(1))
            .sim()
            .unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "timeout", .. }), "{err}");
        // fast_wire and gc are core-only knobs.
        let err = Deployment::new(config())
            .protocol(mwr_almost::TunableSpec::fastest())
            .fast_wire(FastWire::FullInfo)
            .sim()
            .unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "fast_wire", .. }), "{err}");
        let err = Deployment::new(config()).protocol(byz_spec()).gc(false).sim().unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "gc", .. }), "{err}");
        // gc cannot be toggled on the live runtime.
        let err = Deployment::new(config())
            .backend(Backend::InMemory)
            .gc(false)
            .in_memory()
            .unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "gc", .. }), "{err}");
    }

    #[test]
    fn tcp_tuning_is_validated_per_backend() {
        // TCP-only: the other backends have no writer pipelines.
        for backend in [Backend::Sim { seed: 0 }, Backend::InMemory] {
            let err = Deployment::new(config())
                .backend(backend)
                .tcp_tuning(TcpTuning::default())
                .deploy()
                .unwrap_err();
            assert!(matches!(err, DeployError::Knob { knob: "tcp_tuning", .. }), "{err}");
        }
        // Degenerate pipeline dimensions are rejected up front.
        let err = Deployment::new(config())
            .backend(Backend::Tcp)
            .tcp_tuning(TcpTuning { batch: 0, ..TcpTuning::default() })
            .tcp()
            .unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "tcp_tuning", .. }), "{err}");
        // A valid tuning reaches the registry and the cluster works.
        let handle = Deployment::new(config())
            .protocol(Protocol::W2R1)
            .backend(Backend::Tcp)
            .tcp_tuning(TcpTuning { batch: 8, queue_depth: 32, ..TcpTuning::default() })
            .tcp()
            .unwrap();
        let mut w = handle.writer(0).unwrap();
        let mut r = handle.reader(0).unwrap();
        let written = w.write(Value::new(3)).unwrap();
        assert_eq!(r.read().unwrap(), written);
        handle.shutdown();
        // And a live deployment carrying the knob still gets a sim twin.
        let dep = Deployment::new(config())
            .backend(Backend::Tcp)
            .tcp_tuning(TcpTuning::default());
        assert!(dep.sim_cluster().is_ok());
    }

    #[test]
    fn audit_knob_is_validated_per_backend_and_range() {
        use crate::audit::AuditConfig;
        // Live-only: the simulator is checked post-hoc.
        let err = Deployment::new(config()).audit(AuditConfig::default()).sim().unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "audit", .. }), "{err}");
        // Degenerate rates and windows are rejected up front.
        for bad in [AuditConfig::sampled(0.0), AuditConfig::sampled(1.5), AuditConfig {
            window: 0,
            ..AuditConfig::default()
        }] {
            let err = Deployment::new(config())
                .backend(Backend::InMemory)
                .audit(bad)
                .in_memory()
                .unwrap_err();
            assert!(matches!(err, DeployError::Knob { knob: "audit", .. }), "{err}");
        }
        // An audited live deployment still gets a sim twin.
        let dep = Deployment::new(config())
            .backend(Backend::InMemory)
            .audit(AuditConfig::default());
        assert!(dep.sim_cluster().is_ok());
    }

    #[test]
    fn retry_and_faults_are_validated_per_backend_and_shape() {
        // Both are live-only knobs.
        let err = Deployment::new(config()).retry(RetryPolicy::default()).sim().unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "retry", .. }), "{err}");
        let err = Deployment::new(config()).inject(FaultPlan::new()).sim().unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "faults", .. }), "{err}");
        // Zero attempts could never issue the operation.
        let err = Deployment::new(config())
            .backend(Backend::InMemory)
            .retry(RetryPolicy { attempts: 0, backoff: Duration::ZERO })
            .in_memory()
            .unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "retry", .. }), "{err}");
        // Server indices must fit the configuration (S = 5 here).
        let err = Deployment::new(config())
            .backend(Backend::InMemory)
            .inject(FaultPlan::new().at_ops(1, FaultEvent::CrashServer(5)))
            .in_memory()
            .unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "faults", .. }), "{err}");
        // Churn bursts need a reserved reader slot plus a stable reader.
        let one_reader = ClusterConfig::new(5, 1, 1, 2).unwrap();
        let err = Deployment::new(one_reader)
            .backend(Backend::InMemory)
            .inject(FaultPlan::churn_storm(10, 1, 5))
            .in_memory()
            .unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "faults", .. }), "{err}");
        // A live deployment carrying both knobs still gets a sim twin.
        let dep = Deployment::new(config())
            .backend(Backend::InMemory)
            .retry(RetryPolicy { attempts: 3, backoff: Duration::from_millis(1) })
            .inject(FaultPlan::rolling_restart(5, 50));
        assert!(dep.sim_cluster().is_ok());
    }

    #[test]
    fn armed_fault_plans_run_through_run_chaos_only() {
        let dep = Deployment::new(config())
            .backend(Backend::InMemory)
            .retry(RetryPolicy { attempts: 4, backoff: Duration::from_millis(1) })
            .timeout(Duration::from_secs(2))
            .inject(
                FaultPlan::new()
                    .at_ops(10, FaultEvent::CrashServer(0))
                    .at_ops(40, FaultEvent::RejoinServer(0)),
            );
        // The plain drives refuse an armed plan instead of ignoring it.
        let handle = dep.in_memory().unwrap();
        let err = handle.run_open_loop(Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "faults", .. }), "{err}");
        let err = handle.run_closed_loop(WorkloadSpec::default()).unwrap_err();
        assert!(matches!(err, DeployError::Knob { knob: "faults", .. }), "{err}");
        handle.shutdown();
        // run_chaos executes the plan and heals the cluster.
        let mut handle = dep.in_memory().unwrap();
        let report = handle.run_chaos(Duration::from_millis(300)).unwrap();
        assert_eq!(report.crashes, 1, "{report:?}");
        assert_eq!(report.rejoins, 1, "{report:?}");
        assert!(report.healed(), "{report:?}");
        assert_eq!(report.live_servers, vec![0, 1, 2, 3, 4]);
        handle.shutdown();
    }

    #[test]
    fn live_handles_reconfigure_with_minted_clients_serving() {
        let mut handle = Deployment::new(config())
            .backend(Backend::InMemory)
            .timeout(Duration::from_secs(2))
            .retry(RetryPolicy { attempts: 4, backoff: Duration::from_millis(2) })
            .in_memory()
            .unwrap();
        let mut w = handle.writer(0).unwrap();
        let mut r = handle.reader(0).unwrap();
        let written = w.write(Value::new(11)).unwrap();
        let added = handle.reconfigure(2, &[0, 1]).unwrap();
        assert_eq!(added, vec![5, 6]);
        assert_eq!(handle.members(), vec![2, 3, 4, 5, 6]);
        // The pre-handover clients keep serving across the epoch change.
        assert_eq!(r.read().unwrap(), written);
        let next = w.write(Value::new(12)).unwrap();
        assert_eq!(r.read().unwrap(), next);
        handle.shutdown();
    }

    /// `Duration::MAX` is "never time out", not an instant to compute.
    #[test]
    fn a_timeout_of_duration_max_means_no_deadline() {
        let handle = Deployment::new(config())
            .backend(Backend::InMemory)
            .timeout(Duration::MAX)
            .in_memory()
            .unwrap();
        let written = handle.writer(0).unwrap().write(Value::new(5)).unwrap();
        assert_eq!(handle.reader(0).unwrap().read().unwrap(), written);
        handle.shutdown();
    }

    #[test]
    fn audited_open_loop_reports_a_clean_verdict() {
        use crate::audit::AuditConfig;
        let handle = Deployment::new(config())
            .backend(Backend::InMemory)
            .audit(AuditConfig { window: 256, ..AuditConfig::default() })
            .in_memory()
            .unwrap();
        let report = handle.run_open_loop(Duration::from_millis(30)).unwrap();
        assert!(report.ops() > 0);
        let (_handled, audit) = handle.shutdown_audited();
        let audit = audit.expect("deployment was armed");
        assert!(audit.verdict.is_ok(), "live traffic must be atomic: {audit}");
        assert!(audit.stats.audited > 0, "operations reached the auditor: {audit}");
        // The window stayed bounded: the high-water mark cannot retain
        // anywhere near the full run.
        assert!(
            audit.stats.window_high_water < audit.stats.audited as usize,
            "auditor truncated settled history: {audit}"
        );
    }

    #[test]
    fn unaudited_handles_report_no_audit() {
        let handle =
            Deployment::new(config()).backend(Backend::InMemory).in_memory().unwrap();
        let (_, audit) = handle.shutdown_audited();
        assert!(audit.is_none());
    }

    #[test]
    fn open_loop_drive_runs_on_a_fresh_handle_only() {
        let handle =
            Deployment::new(config()).backend(Backend::InMemory).in_memory().unwrap();
        let report = handle.run_open_loop(Duration::from_millis(20)).unwrap();
        assert!(report.ops() > 0, "saturating clients complete operations");
        let err = handle.run_open_loop(Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, DeployError::HandlesInUse), "{err}");
        handle.shutdown();
    }

    #[test]
    fn byz_spec_must_agree_with_the_deployment_config() {
        let err = Deployment::new(ClusterConfig::new(9, 2, 2, 2).unwrap())
            .protocol(byz_spec()) // S=5 b=1
            .sim()
            .unwrap_err();
        assert!(matches!(err, DeployError::ByzMismatch { .. }), "{err}");
    }

    #[test]
    fn typed_starts_enforce_the_configured_backend() {
        let dep = Deployment::new(config()).backend(Backend::InMemory);
        let err = dep.sim().unwrap_err();
        assert!(
            matches!(
                err,
                DeployError::WrongBackend { requested: "sim", configured: "in-memory" }
            ),
            "{err}"
        );
        let err = Deployment::new(config()).tcp().unwrap_err();
        assert!(matches!(err, DeployError::WrongBackend { requested: "tcp", .. }), "{err}");
    }

    #[test]
    fn live_deployments_mint_working_handles_on_both_transports() {
        for backend in [Backend::InMemory, Backend::Tcp] {
            let dep = Deployment::new(config())
                .protocol(Protocol::W2R1)
                .backend(backend)
                .timeout(Duration::from_secs(5));
            let handle = dep.deploy().unwrap();
            let (written, read, handled) = match handle {
                Handle::InMemory(h) => {
                    let mut w = h.writer(0).unwrap();
                    let mut r = h.reader(0).unwrap();
                    let written = w.write(Value::new(7)).unwrap();
                    (written, r.read().unwrap(), h.shutdown())
                }
                Handle::Tcp(h) => {
                    let mut w = h.writer(0).unwrap();
                    let mut r = h.reader(0).unwrap();
                    let written = w.write(Value::new(7)).unwrap();
                    (written, r.read().unwrap(), h.shutdown())
                }
                Handle::Sim(_) => unreachable!("live backend configured"),
            };
            assert_eq!(read, written, "{}", backend.name());
            assert!(handled > 0);
        }
    }

    #[test]
    fn run_closed_loop_on_the_sim_backend_honors_the_spec_seed() {
        // The facade and the standalone workload driver must agree on
        // seed semantics: `Deployment::run_closed_loop` seeds the sim
        // from spec.seed (as every seed-sweeping harness expects), not
        // from the backend's schedule-replay seed. Pinned by equality
        // with the standalone driver, which takes spec.seed by contract.
        let dep = Deployment::new(config()).protocol(Protocol::W2R1);
        let spec = WorkloadSpec {
            duration: mwr_sim::SimTime::from_ticks(1_000),
            think_time: mwr_sim::SimTime::from_ticks(5),
            seed: 4, // deliberately different from the backend's seed 0
        };
        let facade = dep.run_closed_loop(spec).unwrap();
        let direct =
            mwr_workload::run_closed_loop(&dep.sim_cluster().unwrap(), spec).unwrap();
        assert_eq!(facade.events, direct.events, "facade must replay the driver's run");
        // And the seed genuinely reaches the simulation: a handle built
        // on the matching backend seed reproduces the same stream.
        let handle_events =
            dep.backend(Backend::Sim { seed: spec.seed }).sim().unwrap().run_closed_loop(spec);
        assert_eq!(facade.events, handle_events.unwrap().events);
    }

    #[test]
    fn live_closed_loop_refuses_a_handle_with_minted_clients() {
        let handle =
            Deployment::new(config()).backend(Backend::InMemory).in_memory().unwrap();
        let _writer = handle.writer(0).unwrap();
        let err = handle.run_closed_loop(WorkloadSpec::default()).unwrap_err();
        assert!(matches!(err, DeployError::HandlesInUse), "{err}");
        handle.shutdown();
    }

    #[test]
    fn live_closed_loop_refuses_a_second_run_on_the_same_handle() {
        // The driver opened every client endpoint during the first run;
        // both a re-run and a later writer() must be turned away cleanly
        // rather than colliding with the driver's endpoints.
        let handle =
            Deployment::new(config()).backend(Backend::InMemory).in_memory().unwrap();
        let spec = WorkloadSpec {
            duration: mwr_sim::SimTime::from_ticks(2_000), // 2 ms live
            think_time: mwr_sim::SimTime::from_ticks(100),
            seed: 0,
        };
        handle.run_closed_loop(spec).unwrap();
        let err = handle.run_closed_loop(spec).unwrap_err();
        assert!(matches!(err, DeployError::HandlesInUse), "{err}");
        let err = handle.writer(0).unwrap_err();
        assert!(matches!(err, DeployError::HandlesInUse), "{err}");
        handle.shutdown();
    }

    #[test]
    fn byz_constructor_derives_the_crash_view() {
        let byz = ByzConfig::new(9, 2, 3, 2).unwrap();
        let dep = Deployment::byz(byz, ByzReadMode::Fast, ByzBehavior::Honest);
        assert_eq!(dep.config(), ClusterConfig::new(9, 2, 3, 2).unwrap());
        assert!(dep.validate().is_ok(), "derived crash view always agrees");
    }

    #[test]
    fn sim_cluster_gives_live_deployments_a_simulated_twin() {
        let dep = Deployment::new(config())
            .protocol(Protocol::W2R1)
            .backend(Backend::Tcp)
            .timeout(Duration::from_secs(1));
        let twin = dep.sim_cluster().unwrap();
        let events = twin
            .run_schedule(
                9,
                &[(SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(1) })],
            )
            .unwrap();
        assert!(!events.is_empty());
    }
}
