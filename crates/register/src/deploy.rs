//! The [`Deployment`] builder: one validated path from (shape, spec,
//! backend, knobs) to a running register or keyspace.

use std::borrow::BorrowMut;
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Duration;

use mwr_almost::TunableCluster;
use mwr_byz::{ByzBehavior, ByzCluster, ByzConfig, ByzReadMode};
use mwr_core::{ClientEvent, Cluster, Msg, Protocol, ReadMode, SimCluster};
use mwr_runtime::{
    EndpointFactory, FaultEvent, FaultPlan, InMemoryTransport, KeyspaceCluster, RetryPolicy,
    RuntimeCluster, TcpRegistry, TransportError,
};
use mwr_sim::Simulation;
use mwr_types::{ClusterConfig, KeyspaceConfig, RegisterId};
use mwr_workload::{WorkloadReport, WorkloadSpec};

use crate::audit::{AuditConfig, AuditHub};
use crate::error::DeployError;
use crate::handle::{KeyspaceHandle, LiveHandle, SimHandle};
use crate::spec::{Backend, Spec};

/// A deployment blueprint: a shape, a protocol spec, a backend and knobs,
/// validated as a whole before anything starts.
///
/// The shape is the configuration type: one register over a
/// [`ClusterConfig`] (the default), or a [`Keyspace`] over a
/// [`KeyspaceConfig`]. The simulator entry points ([`sim`](Self::sim),
/// [`sim_cluster`](Self::sim_cluster), [`byz`](Self::byz),
/// [`backend`](Self::backend),
/// [`run_closed_loop`](Self::run_closed_loop)) exist on the register shape
/// only. See the [crate docs](crate) for the walkthrough; the short form:
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
pub struct Deployment<S = ClusterConfig> {
    config: S,
    spec: Option<Spec>,
    backend: Option<Backend>,
    timeout: Option<Duration>,
    audit: Option<AuditConfig>,
    retry: Option<RetryPolicy>,
    faults: Option<FaultPlan>,
}

/// A sharded keyspace blueprint: the [`Deployment`] builder over a
/// [`KeyspaceConfig`].
///
/// ```text
/// Keyspace::new(config)            what cluster: S, t, g, shards, R, W
///     .protocol(p)                 W2R2 / W2R1 / W2Ra inside each group
///     .audit(cfg) .timeout(..)     the register's knobs, validated alike
///     .retry(..) .inject(..)
///     .in_memory() / .tcp()
/// ```
///
/// A keyspace runs live only: it has no simulator, so the register's
/// `backend` knob does not exist on it.
///
/// ```compile_fail
/// use mwr_register::{Backend, Keyspace};
/// use mwr_types::KeyspaceConfig;
///
/// let config = KeyspaceConfig::new(5, 1, 3, 8, 1, 1).unwrap();
/// let _ = Keyspace::new(config).backend(Backend::Sim { seed: 1 });
/// ```
pub type Keyspace = Deployment<KeyspaceConfig>;

/// What the one validation needs to know that the knobs alone do not say,
/// with the unset protocol resolved for the shape.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// The servers one register's protocol runs on: the whole cluster, or
    /// a keyspace's shard group.
    group: ClusterConfig,
    /// Servers in the deployment.
    servers: usize,
    /// Whether registers are sharded: a keyspace's fast reads need
    /// `t(R + 2) < g`, and its audit sidecars start per key as keys are
    /// minted.
    sharded: bool,
    spec: Spec,
}

impl<S: Copy> Deployment<S> {
    /// Creates a blueprint for `config` with every knob unset. An unset
    /// protocol resolves per shape at deploy time: the paper's W2R1 for a
    /// register, the adaptive W2Ra for a keyspace (safe for any group
    /// size).
    pub fn new(config: S) -> Self {
        Deployment {
            config,
            spec: None,
            backend: None,
            timeout: None,
            audit: None,
            retry: None,
            faults: None,
        }
    }

    /// Selects the protocol: a core [`Protocol`], a
    /// [`TunableSpec`](mwr_almost::TunableSpec), or a full [`Spec`]
    /// (required for [`Spec::Byz`]; see also [`byz`](Self::byz), which
    /// derives the matching cluster config for you). A keyspace runs core
    /// protocols only.
    pub fn protocol(mut self, spec: impl Into<Spec>) -> Self {
        self.spec = Some(spec.into());
        self
    }

    /// Sets the per-round-trip quorum timeout of live clients. Live backends only.
    ///
    /// The timeout bounds the wait for replies that have not arrived; replies
    /// already queued in a client's inbox are always taken, so a zero timeout
    /// still completes a round whose replies came back inside its broadcast,
    /// as in-memory servers' replies do. Taking them ends because an inbox
    /// holds only frames its endpoint asked for.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Arms the deployment with streaming linearizability auditing: one
    /// sidecar thread running `mwr-check`'s
    /// [`StreamingAuditor`](mwr_check::StreamingAuditor) **per register**
    /// (atomicity is a per-register property), fed sampled operation
    /// records by every client the live handle mints or drives. A
    /// register's sidecar starts at deploy; a keyspace's start the first
    /// time a key's client is minted. Live backends only. Collect the
    /// verdicts with `LiveHandle::shutdown_audited`.
    pub fn audit(mut self, audit: AuditConfig) -> Self {
        self.audit = Some(audit);
        self
    }

    /// Sets the bounded retry policy live clients use to ride out
    /// transient fault windows (a crashed-then-rejoining server, a churn
    /// spike): a timed-out round is re-broadcast up to `attempts` times,
    /// `backoff` apart. Safe because every protocol round is idempotent
    /// and acknowledgements deduplicate by server across attempts. Live
    /// backends only; the default is one attempt: fail fast.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Arms the deployment with a deterministic [`FaultPlan`]: when the
    /// live handle is driven with `run_chaos`, an injector walks the plan
    /// in order — crashing servers, rejoining them through (per-shard)
    /// quorum state transfer, running churn bursts of short-lived
    /// depart-cleanly clients, reconfiguring the member set — while the
    /// drive measures whether the service held up. Live backends only.
    pub fn inject(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The cluster (or keyspace) configuration.
    pub fn config(&self) -> S {
        self.config
    }

    /// The one validation of both shapes: checks the whole combination —
    /// shape × spec × backend × knobs — and explains the first unsupported
    /// pairing. A knob a shape accepts is applied; a knob it cannot honour
    /// is refused here, never ignored, with the reason the rule gives.
    fn check(&self, shape: &Shape, backend: Backend) -> Result<(), DeployError> {
        let live = !matches!(backend, Backend::Sim { .. });
        let group = shape.group;
        let core = matches!(shape.spec, Spec::Core(_));
        if live && !core {
            return Err(DeployError::Unsupported {
                family: shape.spec.family(),
                backend: backend.name(),
                reason: "its servers and clients exist only as simulator automata; the live \
                         runtime has not been wired to them yet",
            });
        }
        let fast = matches!(shape.spec, Spec::Core(p) if p.read_mode() == ReadMode::Fast);
        if shape.sharded && fast && !group.fast_read_feasible() {
            return Err(DeployError::FastReadInfeasible {
                group_size: group.servers(),
                max_faults: group.max_faults(),
                readers: group.readers(),
            });
        }
        if let Spec::Byz { config: byz, .. } = shape.spec {
            let crash_view = (byz.servers(), byz.byz(), byz.readers(), byz.writers());
            if crash_view != (group.servers(), group.max_faults(), group.readers(), group.writers())
            {
                return Err(DeployError::ByzMismatch {
                    detail: format!(
                        "ByzConfig is {byz} (crash view S={} t={} R={} W={}) but the \
                         deployment config is {group}; they must agree with t = b",
                        crash_view.0, crash_view.1, crash_view.2, crash_view.3,
                    ),
                });
            }
        }
        let refuse = |knob, reason| Err(DeployError::Knob { knob, reason });
        let live_only = [
            ("timeout", self.timeout.is_some()),
            ("audit", self.audit.is_some()),
            ("retry", self.retry.is_some()),
            ("faults", self.faults.is_some()),
        ];
        if let Some(&(knob, _)) = live_only.iter().find(|&&(_, set)| set && !live) {
            return refuse(knob, "the simulator runs in virtual time and is checked post hoc");
        }
        if let Some(audit) = self.audit {
            if !(audit.sample_rate > 0.0 && audit.sample_rate <= 1.0) {
                return refuse("audit", "sample_rate must be in (0, 1]");
            }
            if audit.window == 0 {
                return refuse("audit", "window must be at least 1");
            }
        }
        if self.retry.is_some_and(|retry| retry.attempts == 0) {
            return refuse("retry", "zero attempts could never issue the operation");
        }
        if let Some(plan) = self.faults {
            if plan.max_server().is_some_and(|s| s as usize >= shape.servers) {
                return refuse("faults", "the plan names a server outside the configuration");
            }
            let churny =
                plan.steps().iter().any(|s| matches!(s.event, FaultEvent::ChurnBurst { .. }));
            if churny && group.readers() < 2 {
                return refuse("faults", "churn needs a second reader: it reserves the top slot");
            }
        }
        Ok(())
    }

    /// Starts a cluster for `shape`, checked for a live backend, on
    /// `factory` and wraps it with every live knob applied.
    fn launch<F: EndpointFactory, C: BorrowMut<KeyspaceCluster<F>>>(
        &self,
        shape: Shape,
        factory: F,
        start: fn(F, S, Protocol) -> Result<C, TransportError>,
    ) -> Result<LiveHandle<F, C>, DeployError> {
        let Spec::Core(protocol) = shape.spec else {
            unreachable!("check() rejects non-core specs on live backends");
        };
        let audit = self.audit.map(AuditHub::new);
        if let (Some(hub), false) = (&audit, shape.sharded) {
            // A register's one sidecar starts now, so an armed register
            // always has a verdict to report.
            hub.tap(RegisterId::DEFAULT)?;
        }
        Ok(LiveHandle {
            cluster: start(factory, self.config, protocol)?,
            timeout: self.timeout,
            retry: self.retry.unwrap_or_default(),
            audit,
            faults: self.faults,
            endpoints: Mutex::default(),
            minted: Cell::default(),
            driven: Cell::default(),
        })
    }
}

impl Deployment<ClusterConfig> {
    /// Creates a Byzantine deployment straight from the masking-quorum
    /// arithmetic: the crash-view [`ClusterConfig`] (`t = b`) is derived
    /// from `config` instead of hand-supplied, so it cannot disagree.
    pub fn byz(config: ByzConfig, read_mode: ByzReadMode, behavior: ByzBehavior) -> Self {
        let crash_view =
            ClusterConfig::new(config.servers(), config.byz(), config.readers(), config.writers())
                .expect("every valid ByzConfig has a valid crash view (S ≥ 4b + 1 > b)");
        Deployment::new(crash_view).protocol(Spec::Byz { config, read_mode, behavior })
    }

    /// Selects the execution backend (the simulator with seed 0 when
    /// unset).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The protocol spec (the paper's W2R1 when unset).
    pub fn spec(&self) -> Spec {
        self.spec.unwrap_or(Spec::Core(Protocol::W2R1))
    }

    fn configured(&self) -> Backend {
        self.backend.unwrap_or(Backend::Sim { seed: 0 })
    }

    fn shape(&self) -> Shape {
        let (group, spec) = (self.config, self.spec());
        Shape { group, servers: group.servers(), sharded: false, spec }
    }

    /// Checks the whole combination — spec × backend × knobs — and
    /// explains the first unsupported pairing.
    ///
    /// # Errors
    ///
    /// [`DeployError::Unsupported`], [`DeployError::Knob`] or
    /// [`DeployError::ByzMismatch`], with the offending pair named.
    pub fn validate(&self) -> Result<(), DeployError> {
        self.check(&self.shape(), self.configured())
    }

    /// The validated shape, if the configured backend is `requested`.
    fn live(&self, requested: Backend) -> Result<Shape, DeployError> {
        self.validate()?;
        match self.configured() {
            configured if configured == requested => Ok(self.shape()),
            configured => Err(DeployError::WrongBackend {
                requested: requested.name(),
                configured: configured.name(),
            }),
        }
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
            backend: Some(Backend::Sim { seed: 0 }),
            timeout: None,
            audit: None,
            retry: None,
            faults: None,
            ..*self
        };
        sim_view.validate()?;
        Ok(match self.spec() {
            Spec::Core(protocol) => AnySimCluster::Core(Cluster::new(self.config, protocol)),
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
        match self.configured() {
            Backend::Sim { seed } => Ok(SimHandle::new(&self.sim_cluster()?, seed)),
            live => Err(DeployError::WrongBackend { requested: "sim", configured: live.name() }),
        }
    }

    /// Deploys on the in-memory live backend: every server on its own
    /// thread over crossbeam channels.
    ///
    /// # Errors
    ///
    /// Validation errors, [`DeployError::WrongBackend`] if the deployment
    /// is configured for another backend, or a [`DeployError::Transport`]
    /// if the audit sidecar cannot spawn.
    pub fn in_memory(&self) -> Result<LiveHandle<InMemoryTransport>, DeployError> {
        let shape = self.live(Backend::InMemory)?;
        self.launch(shape, InMemoryTransport::new(), RuntimeCluster::start_on)
    }

    /// Deploys on the TCP live backend: every server behind a loopback
    /// socket, answered on the registry's one reactor thread.
    ///
    /// # Errors
    ///
    /// Validation errors, [`DeployError::WrongBackend`] if the deployment
    /// is configured for another backend, or a [`DeployError::Transport`]
    /// if a socket cannot be bound or the audit sidecar cannot spawn.
    pub fn tcp(&self) -> Result<LiveHandle<TcpRegistry>, DeployError> {
        let shape = self.live(Backend::Tcp)?;
        self.launch(shape, TcpRegistry::new(), RuntimeCluster::start_on)
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
        match self.configured() {
            Backend::Sim { .. } => {
                let seeded =
                    Deployment { backend: Some(Backend::Sim { seed: spec.seed }), ..*self };
                Ok(seeded.sim()?.run_closed_loop(spec)?)
            }
            Backend::InMemory => closed_loop_once(self.in_memory()?, spec),
            Backend::Tcp => closed_loop_once(self.tcp()?, spec),
        }
    }
}

/// One closed-loop run on a fresh live register, shut down after.
fn closed_loop_once<F: EndpointFactory>(
    handle: LiveHandle<F>,
    spec: WorkloadSpec,
) -> Result<WorkloadReport, DeployError> {
    let report = handle.run_closed_loop(spec);
    handle.shutdown();
    report
}

impl Deployment<KeyspaceConfig> {
    /// The shape, validated for `backend`.
    fn live(&self, backend: Backend) -> Result<Shape, DeployError> {
        let shape = Shape {
            group: self.config.group_config(),
            servers: self.config.servers(),
            sharded: true,
            spec: self.spec.unwrap_or(Spec::Core(Protocol::W2Ra)),
        };
        self.check(&shape, backend)?;
        Ok(shape)
    }

    /// Deploys the keyspace on in-memory channels.
    ///
    /// # Errors
    ///
    /// Validation errors — among them
    /// [`DeployError::FastReadInfeasible`] if the protocol reads fast but
    /// the group bound fails —, or a [`DeployError::Transport`] if an
    /// endpoint cannot be opened.
    pub fn in_memory(&self) -> Result<KeyspaceHandle<InMemoryTransport>, DeployError> {
        let shape = self.live(Backend::InMemory)?;
        self.launch(shape, InMemoryTransport::new(), KeyspaceCluster::start_on)
    }

    /// Deploys the keyspace on loopback TCP.
    ///
    /// # Errors
    ///
    /// As [`in_memory`](Self::in_memory), or a [`DeployError::Transport`]
    /// if a socket cannot be bound.
    pub fn tcp(&self) -> Result<KeyspaceHandle<TcpRegistry>, DeployError> {
        let shape = self.live(Backend::Tcp)?;
        self.launch(shape, TcpRegistry::new(), KeyspaceCluster::start_on)
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
                let dep = Deployment::new(config()).protocol(spec).backend(backend);
                let err = match backend {
                    Backend::Tcp => dep.tcp().map(drop),
                    _ => dep.in_memory().map(drop),
                }
                .unwrap_err();
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

    /// A register's one sidecar starts at deploy, so an armed register
    /// reports even when nothing was minted or driven.
    #[test]
    fn an_armed_register_reports_with_nothing_minted() {
        let handle = Deployment::new(config())
            .backend(Backend::InMemory)
            .audit(crate::audit::AuditConfig::default())
            .in_memory()
            .unwrap();
        let (_, audit) = handle.shutdown_audited();
        let audit = audit.expect("deployment was armed");
        assert!(audit.verdict.is_ok() && audit.stats.audited == 0, "{audit}");
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
            let (written, read, handled) = match backend {
                Backend::InMemory => {
                    let h = dep.in_memory().unwrap();
                    let mut w = h.writer(0).unwrap();
                    let mut r = h.reader(0).unwrap();
                    let written = w.write(Value::new(7)).unwrap();
                    (written, r.read().unwrap(), h.shutdown())
                }
                Backend::Tcp => {
                    let h = dep.tcp().unwrap();
                    let mut w = h.writer(0).unwrap();
                    let mut r = h.reader(0).unwrap();
                    let written = w.write(Value::new(7)).unwrap();
                    (written, r.read().unwrap(), h.shutdown())
                }
                Backend::Sim { .. } => unreachable!("live backend configured"),
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

    /// The message names both directions of the guard, checked here on
    /// the writer-after-drive path.
    #[test]
    fn handles_in_use_explains_both_directions() {
        let handle = Deployment::new(config()).backend(Backend::InMemory).in_memory().unwrap();
        handle.run_open_loop(Duration::from_millis(5)).unwrap();
        let message = handle.writer(0).unwrap_err().to_string();
        assert!(message.contains("no minted writer()/reader() clients"), "{message}");
        assert!(message.contains("after a drive has run"), "{message}");
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
