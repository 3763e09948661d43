//! What a deployment yields: a schedule-driven [`SimHandle`] on the
//! simulator backend, a [`LiveHandle`] minting blocking [`Writer`]/
//! [`Reader`] clients on the live backends.

use std::time::Duration;

use mwr_core::{ClientEvent, FastWire, Msg, ScheduledOp, SimCluster};
use mwr_runtime::{
    AuditTap, EndpointFactory, FaultPlan, InMemoryTransport, LiveReader, LiveWriter, RetryPolicy,
    RuntimeCluster, RuntimeError, TcpRegistry,
};
use mwr_sim::{SimError, SimTime, Simulation};
use mwr_types::{ClusterConfig, RegisterId};
use mwr_check::AuditReport;
use mwr_workload::{
    drive, drive_closed_loop, ChaosReport, DriveSpec, Target, ThroughputReport, WorkloadReport,
    WorkloadSpec,
};

use crate::audit::AuditSidecar;
use crate::deploy::AnySimCluster;
use crate::error::DeployError;

/// A blocking writer handle on a live backend: `write(value)` returns the
/// tagged value the register now holds.
pub type Writer<E> = LiveWriter<E>;

/// A blocking reader handle on a live backend: `read()` returns the
/// current tagged value.
pub type Reader<E> = LiveReader<E>;

/// A deployed register on the simulator backend: an assembled simulation
/// plus schedule-driven execution.
///
/// Obtained from [`Deployment::sim`](crate::Deployment::sim). The
/// underlying [`Simulation`] is exposed through
/// [`sim_mut`](Self::sim_mut) for delay models, geo matrices, crash and
/// partition schedules.
#[derive(Debug)]
pub struct SimHandle {
    config: ClusterConfig,
    sim: Simulation<Msg, ClientEvent>,
}

impl SimHandle {
    pub(crate) fn new(cluster: &AnySimCluster, seed: u64) -> Self {
        SimHandle { config: cluster.client_config(), sim: cluster.build_sim(seed) }
    }

    /// The crash-view cluster configuration operations are scheduled
    /// against.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// The assembled simulation.
    pub fn sim(&self) -> &Simulation<Msg, ClientEvent> {
        &self.sim
    }

    /// Mutable access to the simulation, for delay models, geo matrices,
    /// crash schedules and link holds before (or between) runs.
    pub fn sim_mut(&mut self) -> &mut Simulation<Msg, ClientEvent> {
        &mut self.sim
    }

    /// Schedules one operation invocation at virtual time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcess`] if the reader/writer index is
    /// out of range for the configuration.
    pub fn schedule(&mut self, at: SimTime, op: ScheduledOp) -> Result<(), SimError> {
        op.schedule_into(&mut self.sim, at)
    }

    /// Runs the simulation to quiescence and returns the client events
    /// emitted since the last drain.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (livelock guard).
    pub fn run_to_quiescence(&mut self) -> Result<Vec<(SimTime, ClientEvent)>, SimError> {
        self.sim.run_until_quiescent()?;
        Ok(self.sim.drain_notifications())
    }

    /// Schedules a full harness schedule and runs it to quiescence — the
    /// facade's equivalent of `SimCluster::run_schedule`, on the seed the
    /// deployment's backend fixed.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors.
    pub fn run_schedule(
        &mut self,
        ops: &[(SimTime, ScheduledOp)],
    ) -> Result<Vec<(SimTime, ClientEvent)>, SimError> {
        for (at, op) in ops {
            op.schedule_into(&mut self.sim, *at)?;
        }
        self.run_to_quiescence()
    }

    /// Drives this simulation with closed-loop clients (see
    /// [`mwr_workload::run_closed_loop`]). The simulation must be fresh:
    /// each handle supports one closed-loop run.
    ///
    /// The spec's `seed` is ignored here — delays were already seeded by
    /// [`Backend::Sim`](crate::Backend::Sim) when the handle was built.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_closed_loop(&mut self, spec: WorkloadSpec) -> Result<WorkloadReport, SimError> {
        drive_closed_loop(&mut self.sim, self.config, spec)
    }
}

/// A deployed register on a live backend: servers running, blocking
/// clients on demand, with the deployment's wire and timeout knobs applied
/// to every handle it mints.
///
/// Obtained from [`Deployment::in_memory`](crate::Deployment::in_memory)
/// or [`Deployment::tcp`](crate::Deployment::tcp).
#[derive(Debug)]
pub struct LiveHandle<F: EndpointFactory> {
    cluster: RuntimeCluster<F>,
    wire: FastWire,
    timeout: Option<Duration>,
    /// Whether `writer()`/`reader()` has minted a client — the closed-loop
    /// driver needs the client endpoints exclusively, so it refuses to run
    /// once this is set (uniformly on both transports).
    minted: std::cell::Cell<bool>,
    /// Whether `run_closed_loop` has driven this cluster — its driver
    /// opened every client endpoint, so later minting (or a second run)
    /// is refused (uniformly on both transports).
    driven: std::cell::Cell<bool>,
    /// The streaming-audit sidecar, when the deployment was armed with
    /// [`Deployment::audit`](crate::Deployment::audit): every client this
    /// handle mints gets a tap clone, and `shutdown_audited` collects the
    /// verdict.
    audit: Option<AuditSidecar>,
    /// The bounded retry policy applied to every client this handle mints
    /// (and to the drive's clients). Default: one attempt, no backoff.
    retry: RetryPolicy,
    /// The fault plan armed with [`Deployment::inject`](crate::Deployment::inject),
    /// executed by [`run_chaos`](Self::run_chaos).
    faults: Option<FaultPlan>,
}

impl<F: EndpointFactory> LiveHandle<F> {
    pub(crate) fn new(
        cluster: RuntimeCluster<F>,
        wire: FastWire,
        timeout: Option<Duration>,
        audit: Option<AuditSidecar>,
        retry: RetryPolicy,
        faults: Option<FaultPlan>,
    ) -> Self {
        LiveHandle {
            cluster,
            wire,
            timeout,
            minted: std::cell::Cell::new(false),
            driven: std::cell::Cell::new(false),
            audit,
            retry,
            faults,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        self.cluster.config()
    }

    /// The underlying runtime cluster, for transport-level access.
    pub fn cluster(&self) -> &RuntimeCluster<F> {
        &self.cluster
    }

    /// Creates writer `idx`'s blocking client, with the deployment's
    /// timeout applied.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::HandlesInUse`] after
    /// [`run_closed_loop`](Self::run_closed_loop) has driven this handle
    /// (its driver holds every client endpoint), or a
    /// [`DeployError::Transport`] if the client endpoint cannot be
    /// opened.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the writer was already created.
    pub fn writer(&self, idx: u32) -> Result<Writer<F::Endpoint>, DeployError> {
        if self.driven.get() {
            return Err(DeployError::HandlesInUse);
        }
        let mut writer = self.cluster.writer(idx)?.with_retry(self.retry);
        self.minted.set(true);
        if let Some(t) = self.timeout {
            writer = writer.with_timeout(t);
        }
        if let Some(sidecar) = &self.audit {
            writer = writer.with_tap(sidecar.tap().clone());
        }
        Ok(writer)
    }

    /// Creates reader `idx`'s blocking client, with the deployment's wire
    /// format and timeout applied.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::HandlesInUse`] after
    /// [`run_closed_loop`](Self::run_closed_loop) has driven this handle,
    /// or a [`DeployError::Transport`] if the client endpoint cannot be
    /// opened.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the reader was already created.
    pub fn reader(&self, idx: u32) -> Result<Reader<F::Endpoint>, DeployError> {
        if self.driven.get() {
            return Err(DeployError::HandlesInUse);
        }
        let mut reader = self.cluster.reader_with_wire(idx, self.wire)?.with_retry(self.retry);
        self.minted.set(true);
        if let Some(t) = self.timeout {
            reader = reader.with_timeout(t);
        }
        if let Some(sidecar) = &self.audit {
            reader = reader.with_tap(sidecar.tap().clone());
        }
        Ok(reader)
    }

    /// Crashes server `idx` (removes it from delivery and stops its
    /// thread) — fault injection, identical on both live backends.
    ///
    /// # Panics
    ///
    /// Panics if the server was already crashed.
    pub fn crash_server(&mut self, idx: u32) {
        self.cluster.crash_server(idx);
    }

    /// Rejoins crashed server `idx` through quorum state transfer: the
    /// new incarnation fetches catch-up snapshots from a quorum of live
    /// peers, installs them above its pre-crash version stamps, and only
    /// then starts answering — identical on both live backends.
    ///
    /// # Errors
    ///
    /// A [`DeployError::Transport`] if fewer than a quorum of live peers
    /// answer the fetch (the rejoin is refused and can be retried).
    ///
    /// # Panics
    ///
    /// Panics if server `idx` is currently running.
    pub fn rejoin_server(&mut self, idx: u32) -> Result<(), DeployError> {
        Ok(self.cluster.rejoin_server(idx)?)
    }

    /// The indices of currently-running servers, ascending.
    pub fn live_servers(&self) -> Vec<u32> {
        self.cluster.live_servers()
    }

    /// The current member servers, ascending — differs from the original
    /// configuration after a [`reconfigure`](Self::reconfigure).
    pub fn members(&self) -> Vec<u32> {
        self.cluster.members().to_vec()
    }

    /// Reconfigures the live server set: adds `add` fresh servers and
    /// retires the servers in `remove` through the joint-quorum handover
    /// (announce → joint window → state transfer → commit) while minted
    /// clients keep serving — they watch the cluster view and refresh
    /// their endpoint sets mid-round when the config epoch moves.
    /// Identical on both live backends. Returns the added servers' ids.
    ///
    /// # Errors
    ///
    /// A [`DeployError::Transport`] if the handover is refused (it could
    /// not assemble both the old and the new quorum within the window) —
    /// the cluster rolls forward to a stable epoch over the unchanged
    /// member set and can be retried.
    ///
    /// # Panics
    ///
    /// Panics if `remove` names a non-member, if the change is empty, or
    /// if the resulting shape would not assemble quorums.
    pub fn reconfigure(&mut self, add: usize, remove: &[u32]) -> Result<Vec<u32>, DeployError> {
        Ok(self.cluster.reconfigure(add, remove)?)
    }

    /// Drives this cluster with closed-loop clients (the one live drive,
    /// [`mwr_workload::drive`]; ticks are microseconds).
    /// The driver opens every client endpoint itself, so the handle must
    /// be freshly deployed — [`Deployment::run_closed_loop`](crate::Deployment::run_closed_loop)
    /// always satisfies this.
    ///
    /// # Errors
    ///
    /// [`DeployError::HandlesInUse`] if `writer()`/`reader()` already
    /// minted a client on this handle; otherwise the first client's
    /// [`RuntimeError`](mwr_runtime::RuntimeError) on endpoint or quorum
    /// failures.
    pub fn run_closed_loop(&self, spec: WorkloadSpec) -> Result<WorkloadReport, DeployError> {
        if self.minted.get() || self.driven.get() {
            return Err(DeployError::HandlesInUse);
        }
        if self.faults.is_some() {
            return Err(DeployError::Knob {
                knob: "faults",
                reason: "a fault plan is armed; drive it with run_chaos, which owns the \
                         cluster mutably and reports what the plan did",
            });
        }
        self.driven.set(true);
        let spec = self.knobs(spec.into());
        let tap = self.audit.as_ref().map(AuditSidecar::tap);
        let report = Self::run_drive(Target::Steady(&self.cluster), self.wire, tap, spec)?;
        Ok(report.into_throughput()?.into())
    }

    /// Drives this cluster with open-loop (saturating) clients for
    /// `duration` (see [`mwr_workload::drive`]): every
    /// configured reader and writer issues back-to-back operations, so the
    /// offered load is set by the deployment's client population. Like
    /// [`run_closed_loop`](Self::run_closed_loop), the driver needs every
    /// client endpoint, so the handle must be freshly deployed.
    ///
    /// # Errors
    ///
    /// [`DeployError::HandlesInUse`] if clients were already minted or a
    /// drive already ran; otherwise the first client's
    /// [`RuntimeError`](mwr_runtime::RuntimeError).
    pub fn run_open_loop(&self, duration: Duration) -> Result<ThroughputReport, DeployError> {
        if self.minted.get() || self.driven.get() {
            return Err(DeployError::HandlesInUse);
        }
        if self.faults.is_some() {
            return Err(DeployError::Knob {
                knob: "faults",
                reason: "a fault plan is armed; drive it with run_chaos, which owns the \
                         cluster mutably and reports what the plan did",
            });
        }
        self.driven.set(true);
        let spec = self.knobs(DriveSpec { duration, ..DriveSpec::default() });
        let tap = self.audit.as_ref().map(AuditSidecar::tap);
        Ok(Self::run_drive(Target::Steady(&self.cluster), self.wire, tap, spec)?.into_throughput()?)
    }

    /// Drives this cluster open-loop for `duration` while executing the
    /// armed [`FaultPlan`] (see
    /// [`Deployment::inject`](crate::Deployment::inject)): an injector
    /// walks the plan in order, crashing servers, rejoining them through
    /// quorum state transfer, and running churn bursts of short-lived
    /// clients that depart floor-safely, while stable clients (armed with
    /// the deployment's retry policy) hammer the register. Works with no
    /// plan armed too — it is then exactly
    /// [`run_open_loop`](Self::run_open_loop) with a
    /// [`ChaosReport`] wrapper.
    ///
    /// Like the other drives, the handle must be freshly deployed; unlike
    /// them it needs `&mut` because crash and rejoin restructure the
    /// cluster.
    ///
    /// # Errors
    ///
    /// [`DeployError::HandlesInUse`] if clients were already minted or a
    /// drive already ran; otherwise a
    /// [`RuntimeError`](mwr_runtime::RuntimeError) for setup failures.
    /// Operation failures *during* the drive are counted in the report's
    /// `failed_ops`, never returned.
    pub fn run_chaos(&mut self, duration: Duration) -> Result<ChaosReport, DeployError> {
        if self.minted.get() || self.driven.get() {
            return Err(DeployError::HandlesInUse);
        }
        self.driven.set(true);
        let spec = self.knobs(DriveSpec { duration, ..DriveSpec::default() });
        let tap = self.audit.as_ref().map(AuditSidecar::tap);
        let plan = self.faults.unwrap_or_default();
        Ok(Self::run_drive(Target::Faulted(&mut self.cluster, &plan), self.wire, tap, spec)?)
    }

    /// `spec` with the deployment's timeout and retry policy.
    fn knobs(&self, spec: DriveSpec) -> DriveSpec {
        DriveSpec { timeout: self.timeout, retry: self.retry, ..spec }
    }

    /// The one live drive over this register: each thread's mint hands out
    /// its one unscoped client, on its own endpoint with the deployment's
    /// wire, and every stable client carries the audit tap.
    fn run_drive(
        target: Target<'_, RuntimeCluster<F>>,
        wire: FastWire,
        tap: Option<&AuditTap>,
        spec: DriveSpec,
    ) -> Result<ChaosReport, RuntimeError> {
        let one = tap.map(|tap| move |_: RegisterId| tap.clone());
        drive(
            target,
            |cluster, w| {
                let mut client = Some(cluster.writer(w.index())?);
                Ok(move |_| client.take().expect("a register thread draws one key"))
            },
            |cluster, r| {
                let mut client = Some(cluster.reader_with_wire(r.index(), wire)?);
                Ok(move |_| client.take().expect("a register thread draws one key"))
            },
            one.as_ref().map(|one| one as _),
            spec,
        )
    }

    /// Shuts down all remaining servers; returns total requests handled.
    /// On an audited handle this discards the audit verdict — use
    /// [`shutdown_audited`](Self::shutdown_audited) to collect it.
    pub fn shutdown(self) -> u64 {
        self.cluster.shutdown()
    }

    /// Shuts down all remaining servers and collects the audit sidecar's
    /// final [`AuditReport`] (`None` if the deployment was not armed with
    /// [`Deployment::audit`](crate::Deployment::audit)).
    ///
    /// Joining the sidecar requires every tap clone to be gone: drop all
    /// minted [`Writer`]/[`Reader`] clients before calling, or the join
    /// blocks until they drop. A sidecar configured with
    /// [`OnViolation::Panic`](crate::OnViolation::Panic) that hit a
    /// violation re-raises its panic here.
    pub fn shutdown_audited(self) -> (u64, Option<AuditReport>) {
        let LiveHandle { cluster, audit, .. } = self;
        let report = audit.map(AuditSidecar::finish);
        (cluster.shutdown(), report)
    }
}

/// A deployed register on whichever backend the deployment selected —
/// the result of [`Deployment::deploy`](crate::Deployment::deploy), for
/// callers that dispatch over backends at run time. Callers that know the
/// backend statically should prefer the typed
/// [`sim`](crate::Deployment::sim) /
/// [`in_memory`](crate::Deployment::in_memory) /
/// [`tcp`](crate::Deployment::tcp) constructors, which skip the enum.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one short-lived dispatcher per deployment
pub enum Handle {
    /// The simulator backend.
    Sim(SimHandle),
    /// The in-memory live backend.
    InMemory(LiveHandle<InMemoryTransport>),
    /// The TCP live backend.
    Tcp(LiveHandle<TcpRegistry>),
}

impl Handle {
    /// Extracts the simulator handle.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::WrongBackend`] if another backend was
    /// deployed.
    pub fn into_sim(self) -> Result<SimHandle, DeployError> {
        match self {
            Handle::Sim(h) => Ok(h),
            other => Err(DeployError::WrongBackend {
                requested: "sim",
                configured: other.backend_name(),
            }),
        }
    }

    /// The deployed backend's name.
    pub fn backend_name(&self) -> &'static str {
        match self {
            Handle::Sim(_) => "sim",
            Handle::InMemory(_) => "in-memory",
            Handle::Tcp(_) => "tcp",
        }
    }
}
