//! What a deployment yields: a schedule-driven [`SimHandle`] on the
//! simulator backend, a [`LiveHandle`] minting blocking clients on the
//! live backends — [`Writer`]/[`Reader`] for a register, per-key
//! [`KeyWriter`]/[`KeyReader`] over shared endpoints for a keyspace.

use std::borrow::BorrowMut;
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mwr_check::AuditReport;
use mwr_core::{ClientEvent, Msg, Protocol, Router, ScheduledOp, SimCluster};
use mwr_runtime::{
    ClusterView, Endpoint, EndpointFactory, FaultPlan, KeyspaceCluster, LiveClient, LiveReader,
    LiveWriter, RetryPolicy, RuntimeCluster, RuntimeError, TransportError,
};
use mwr_sim::{SimError, SimTime, Simulation};
use mwr_types::{ClientId, ClusterConfig, KeyspaceConfig, ReaderId, RegisterId, WriterId};
use mwr_workload::{
    drive, drive_closed_loop, ChaosReport, DriveSpec, Keys, TapFor, Target, ThroughputReport,
    WorkloadReport, WorkloadSpec,
};

use crate::audit::AuditHub;
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

/// A deployed register or keyspace on a live backend: servers running,
/// blocking clients on demand, with the deployment's timeout, retry and
/// audit knobs applied to every client it mints or drives.
///
/// `C` is the cluster the handle owns: a [`RuntimeCluster`] for a register
/// (the default), a [`KeyspaceCluster`] for a keyspace ([`KeyspaceHandle`]).
/// Fault injection, reconfiguration, the drives' guards and the audit join
/// are one code path over both; client minting, the drives' signatures and
/// shutdown with the shape of its audit verdict are the shape's own.
///
/// A drive opens every client endpoint itself, so minting and driving
/// exclude each other: a drive refuses a handle that minted a client, and
/// after a drive nothing more can be minted or driven
/// ([`DeployError::HandlesInUse`]; deploy a fresh handle). The open and
/// closed loops refuse an armed fault plan ([`DeployError::Knob`]):
/// `run_chaos` executes it. Operation failures *during* a drive are
/// counted in its report, never returned.
///
/// Obtained from [`Deployment::in_memory`](crate::Deployment::in_memory)
/// or [`Deployment::tcp`](crate::Deployment::tcp).
#[derive(Debug)]
pub struct LiveHandle<F: EndpointFactory, C = RuntimeCluster<F>> {
    pub(crate) cluster: C,
    pub(crate) timeout: Option<Duration>,
    /// The bounded retry policy of every client this handle mints or
    /// drives. Default: one attempt, no backoff.
    pub(crate) retry: RetryPolicy,
    /// One streaming auditor per register, when the deployment was armed
    /// with [`Deployment::audit`](crate::Deployment::audit).
    pub(crate) audit: Option<AuditHub>,
    /// The fault plan armed with
    /// [`Deployment::inject`](crate::Deployment::inject), executed by
    /// `run_chaos`.
    pub(crate) faults: Option<FaultPlan>,
    /// A keyspace's client endpoints, opened once per writer/reader index
    /// and shared across every key that index touches (a register's
    /// clients own theirs).
    pub(crate) endpoints: Mutex<HashMap<ClientId, Arc<F::Endpoint>>>,
    /// Whether a client was minted.
    pub(crate) minted: Cell<bool>,
    /// Whether a drive ran.
    pub(crate) driven: Cell<bool>,
}

/// A shape's one live drive: each thread's mint over `Target`'s cluster,
/// with the handle's audit taps.
type Run<C> = fn(Target<'_, C>, Option<TapFor<'_>>, DriveSpec) -> Result<ChaosReport, RuntimeError>;

impl<F: EndpointFactory, C: BorrowMut<KeyspaceCluster<F>>> LiveHandle<F, C> {
    /// The underlying runtime cluster, for transport-level access.
    pub fn cluster(&self) -> &C {
        &self.cluster
    }

    /// Crashes server `idx`: its thread stops and its endpoint leaves the
    /// delivery map — on a keyspace every shard it served loses one group
    /// member. Identical on both live backends.
    ///
    /// # Panics
    ///
    /// Panics if the server was already crashed.
    pub fn crash_server(&mut self, idx: u32) {
        self.cluster.borrow_mut().crash_server(idx);
    }

    /// Rejoins crashed server `idx` through quorum state transfer: one
    /// fetch round per shard it serves (a register is one shard), each
    /// requiring `g − t` live group members, with the new incarnation
    /// serving nothing until every shard's transfer lands above its
    /// pre-crash version stamps. Identical on both live backends.
    ///
    /// # Errors
    ///
    /// A [`DeployError::Transport`] if any shard's quorum does not answer
    /// (the rejoin is refused and can be retried).
    ///
    /// # Panics
    ///
    /// Panics if server `idx` is currently running.
    pub fn rejoin_server(&mut self, idx: u32) -> Result<(), DeployError> {
        Ok(self.cluster.borrow_mut().rejoin_server(idx)?)
    }

    /// The indices of currently-running servers, ascending.
    pub fn live_servers(&self) -> Vec<u32> {
        self.cluster.borrow().live_servers()
    }

    /// The current member servers, ascending — differs from the original
    /// configuration after a [`reconfigure`](Self::reconfigure).
    pub fn members(&self) -> Vec<u32> {
        self.cluster.borrow().members()
    }

    /// Reconfigures the live server set: adds `add` fresh servers and
    /// retires the servers in `remove` through the per-shard joint-quorum
    /// handover (announce → joint window → shard-by-shard state transfer
    /// → commit) while minted clients keep serving — they watch the
    /// cluster view and re-derive their groups when the config epoch
    /// moves. Identical on both live backends. Returns the added servers'
    /// ids.
    ///
    /// # Errors
    ///
    /// A [`DeployError::Transport`] if the handover is refused (a transfer
    /// quorum did not answer within the window) — the cluster rolls
    /// forward to a stable epoch over the unchanged member set and can be
    /// retried.
    ///
    /// # Panics
    ///
    /// Panics if `remove` names a non-member, if the change is empty, or
    /// if the resulting shape would not assemble quorums.
    pub fn reconfigure(&mut self, add: usize, remove: &[u32]) -> Result<Vec<u32>, DeployError> {
        Ok(self.cluster.borrow_mut().reconfigure(add, remove)?)
    }

    /// Mints a client of `key` with `open`, then applies the deployment's
    /// retry policy, timeout and `key`'s audit tap.
    fn mint<E: Endpoint, Id>(
        &self,
        key: RegisterId,
        open: impl FnOnce() -> Result<LiveClient<E, Id>, TransportError>,
    ) -> Result<LiveClient<E, Id>, DeployError> {
        if self.driven.get() {
            return Err(DeployError::HandlesInUse);
        }
        let mut client = open()?.with_retry(self.retry);
        self.minted.set(true);
        if let Some(t) = self.timeout {
            client = client.with_timeout(t);
        }
        if let Some(hub) = &self.audit {
            client = client.with_tap(hub.tap(key)?);
        }
        Ok(client)
    }

    /// Claims every client endpoint for one drive and returns `spec` with
    /// the deployment's timeout and retry policy. A drive without faults
    /// (`plain`) refuses an armed plan instead of ignoring it.
    fn claim(&self, spec: DriveSpec, plain: bool) -> Result<DriveSpec, DeployError> {
        if self.minted.get() || self.driven.get() {
            return Err(DeployError::HandlesInUse);
        }
        if plain && self.faults.is_some() {
            return Err(DeployError::Knob {
                knob: "faults",
                reason: "a fault plan is armed; drive it with run_chaos, which owns the \
                         cluster mutably and reports what the plan did",
            });
        }
        self.driven.set(true);
        Ok(DriveSpec { timeout: self.timeout, retry: self.retry, ..spec })
    }

    /// Runs the shape's drive without faults.
    fn steady(&self, spec: DriveSpec, run: Run<C>) -> Result<ThroughputReport, DeployError> {
        let spec = self.claim(spec, true)?;
        let taps = self.audit.as_ref().map(AuditHub::taps);
        let tap = taps.as_ref().map(|taps| taps as TapFor<'_>);
        Ok(run(Target::Steady(&self.cluster), tap, spec)?.into_throughput()?)
    }

    /// Runs the shape's drive while executing the armed plan (an unarmed
    /// handle runs the empty plan).
    fn chaos(&mut self, spec: DriveSpec, run: Run<C>) -> Result<ChaosReport, DeployError> {
        let spec = self.claim(spec, false)?;
        let plan = self.faults.unwrap_or_default();
        let taps = self.audit.as_ref().map(AuditHub::taps);
        let tap = taps.as_ref().map(|taps| taps as TapFor<'_>);
        Ok(run(Target::Faulted(&mut self.cluster, &plan), tap, spec)?)
    }

    /// Joins every audit sidecar and hands back the still-running cluster
    /// for the shape's shutdown.
    fn finish(self) -> (C, BTreeMap<RegisterId, AuditReport>) {
        let LiveHandle { cluster, audit, endpoints, .. } = self;
        // Cached endpoints hold no taps, but drop them before the join
        // anyway: a lingering endpoint on TCP keeps connections alive that
        // the shutdown would otherwise tear down promptly.
        drop(endpoints);
        (cluster, audit.map(AuditHub::finish).unwrap_or_default())
    }
}

impl<F: EndpointFactory> LiveHandle<F> {
    /// The cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        self.cluster.config()
    }

    /// Creates writer `idx`'s blocking client, with the deployment's
    /// timeout, retry policy and audit tap applied.
    ///
    /// # Errors
    ///
    /// [`DeployError::HandlesInUse`] after a drive, or a
    /// [`DeployError::Transport`] if the client endpoint cannot be opened.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the writer was already created.
    pub fn writer(&self, idx: u32) -> Result<Writer<F::Endpoint>, DeployError> {
        self.mint(RegisterId::DEFAULT, || self.cluster.writer(idx))
    }

    /// Creates reader `idx`'s blocking client, with the deployment's
    /// timeout, retry policy and audit tap applied.
    ///
    /// # Errors
    ///
    /// As [`writer`](Self::writer).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the reader was already created.
    pub fn reader(&self, idx: u32) -> Result<Reader<F::Endpoint>, DeployError> {
        self.mint(RegisterId::DEFAULT, || self.cluster.reader(idx))
    }

    /// Drives this cluster with closed-loop clients (the one live drive,
    /// [`mwr_workload::drive`]; ticks are microseconds) on a freshly
    /// deployed handle — [`Deployment::run_closed_loop`](crate::Deployment::run_closed_loop)
    /// always satisfies this.
    ///
    /// # Errors
    ///
    /// The guards in the [type docs](LiveHandle); otherwise the first
    /// client's [`RuntimeError`] on endpoint or quorum failures.
    pub fn run_closed_loop(&self, spec: WorkloadSpec) -> Result<WorkloadReport, DeployError> {
        Ok(self.steady(spec.into(), Self::run_drive)?.into())
    }

    /// Drives this cluster with open-loop (saturating) clients for
    /// `duration` (see [`mwr_workload::drive`]): every
    /// configured reader and writer issues back-to-back operations, so the
    /// offered load is set by the deployment's client population.
    ///
    /// # Errors
    ///
    /// As [`run_closed_loop`](Self::run_closed_loop).
    pub fn run_open_loop(&self, duration: Duration) -> Result<ThroughputReport, DeployError> {
        self.steady(DriveSpec { duration, ..DriveSpec::default() }, Self::run_drive)
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
    /// [`ChaosReport`] wrapper. It needs `&mut` because crash and rejoin
    /// restructure the cluster.
    ///
    /// # Errors
    ///
    /// The guards in the [type docs](LiveHandle); otherwise a
    /// [`RuntimeError`] for setup failures.
    pub fn run_chaos(&mut self, duration: Duration) -> Result<ChaosReport, DeployError> {
        self.chaos(DriveSpec { duration, ..DriveSpec::default() }, Self::run_drive)
    }

    /// The one live drive over this register: each thread's mint hands out
    /// its one unscoped client, on its own endpoint.
    fn run_drive(
        target: Target<'_, RuntimeCluster<F>>,
        tap: Option<TapFor<'_>>,
        spec: DriveSpec,
    ) -> Result<ChaosReport, RuntimeError> {
        drive(
            target,
            |cluster, w| {
                let mut client = Some(cluster.writer(w.index())?);
                Ok(move |_| client.take().expect("a register thread draws one key"))
            },
            |cluster, r| {
                let mut client = Some(cluster.reader(r.index())?);
                Ok(move |_| client.take().expect("a register thread draws one key"))
            },
            tap,
            spec,
        )
    }

    /// Shuts down all remaining servers; returns total requests handled.
    /// On an audited handle this discards the verdict — use
    /// [`shutdown_audited`](Self::shutdown_audited) to collect it.
    pub fn shutdown(self) -> u64 {
        self.cluster.shutdown()
    }

    /// Shuts down all remaining servers and collects the register's final
    /// [`AuditReport`] (`None` if the deployment was not armed with
    /// [`Deployment::audit`](crate::Deployment::audit)).
    ///
    /// Joining the sidecar requires every tap clone to be gone: drop all
    /// minted [`Writer`]/[`Reader`] clients before calling, or the join
    /// blocks until they drop. A sidecar that panicked re-raises its
    /// panic here.
    pub fn shutdown_audited(self) -> (u64, Option<AuditReport>) {
        let (cluster, mut reports) = self.finish();
        (cluster.shutdown(), reports.remove(&RegisterId::DEFAULT))
    }
}

/// A blocking writer for one key: the single-register [`LiveWriter`]
/// scoped to the key's shard group, over an endpoint shared with every
/// other per-key client of the same writer index.
pub type KeyWriter<E> = LiveWriter<Arc<E>>;

/// A blocking reader for one key, scoped and shared like [`KeyWriter`].
pub type KeyReader<E> = LiveReader<Arc<E>>;

/// A deployed keyspace on a live backend: servers running one
/// [`ServerBank`](mwr_core::ServerBank) each, per-key blocking clients on
/// demand.
///
/// Obtained from [`Keyspace::in_memory`](crate::Deployment::in_memory) or
/// [`Keyspace::tcp`](crate::Deployment::tcp). Client endpoints are opened
/// once per writer/reader index and shared (`Arc`) across every key that
/// index touches, so a process talking to 64 keys still runs one inbox
/// and one set of per-peer connections.
pub type KeyspaceHandle<F> = LiveHandle<F, KeyspaceCluster<F>>;

/// What a per-key client needs besides its endpoint, owned so that a drive
/// thread can mint with it (the cluster's factory need not be `Sync`).
struct Mint {
    config: ClusterConfig,
    protocol: Protocol,
    router: Router,
    view: Arc<ClusterView>,
}

impl Mint {
    fn of<F: EndpointFactory>(cluster: &KeyspaceCluster<F>) -> Self {
        Mint {
            config: cluster.config().group_config(),
            protocol: cluster.protocol(),
            router: *cluster.router(),
            view: cluster.view(),
        }
    }

    /// Writer `id`'s client for `key` over `ep`: scoped to the key's group,
    /// following the cluster view through reconfigurations.
    fn writer<E: Endpoint>(&self, ep: Arc<E>, id: WriterId, key: RegisterId) -> KeyWriter<E> {
        LiveWriter::new(ep, id, self.config, self.protocol.write_mode())
            .with_scope(key, self.router.group_of(key))
            .with_view(Arc::clone(&self.view))
    }

    /// Reader `id`'s client for `key` over `ep`, scoped like a writer's.
    fn reader<E: Endpoint>(&self, ep: Arc<E>, id: ReaderId, key: RegisterId) -> KeyReader<E> {
        LiveReader::new(ep, id, self.config, self.protocol.read_mode())
            .with_scope(key, self.router.group_of(key))
            .with_view(Arc::clone(&self.view))
    }
}

impl<F: EndpointFactory> KeyspaceHandle<F> {
    /// The keyspace configuration.
    pub fn config(&self) -> KeyspaceConfig {
        self.cluster().config()
    }

    /// The deterministic register → shard → group router.
    pub fn router(&self) -> &Router {
        self.cluster().router()
    }

    /// Client `id`'s endpoint, opened on first use and shared by every key
    /// the client touches.
    fn endpoint(&self, id: ClientId) -> Result<Arc<F::Endpoint>, TransportError> {
        let mut endpoints = self.endpoints.lock().expect("endpoint cache poisoned");
        if let Entry::Vacant(slot) = endpoints.entry(id) {
            slot.insert(Arc::new(self.cluster.factory().open(id.into())?));
        }
        Ok(Arc::clone(&endpoints[&id]))
    }

    /// Creates writer `idx`'s blocking client for `key`, scoped to the
    /// key's shard group, with the deployment's timeout, retry and audit
    /// knobs applied. Clients of the same index share one endpoint across
    /// keys.
    ///
    /// Mint at most one live client per `(idx, key)` pair at a time: two
    /// concurrent clients with the same identity on the same register
    /// would collide on their operation sequence numbers.
    ///
    /// # Errors
    ///
    /// [`DeployError::HandlesInUse`] after a drive;
    /// [`DeployError::Transport`] if the endpoint cannot be opened or
    /// `key`'s audit sidecar cannot spawn.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the configuration.
    pub fn writer(&self, idx: u32, key: RegisterId) -> Result<KeyWriter<F::Endpoint>, DeployError> {
        assert!((idx as usize) < self.config().writers(), "writer {idx} out of range");
        let id = WriterId::new(idx);
        self.mint(key, || {
            Ok(Mint::of(self.cluster()).writer(self.endpoint(id.into())?, id, key))
        })
    }

    /// Creates reader `idx`'s blocking client for `key` — the reader-side
    /// mirror of [`writer`](Self::writer), with the same sharing and the
    /// same one-client-per-`(idx, key)` rule.
    ///
    /// # Errors
    ///
    /// As [`writer`](Self::writer).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the configuration.
    pub fn reader(&self, idx: u32, key: RegisterId) -> Result<KeyReader<F::Endpoint>, DeployError> {
        assert!((idx as usize) < self.config().readers(), "reader {idx} out of range");
        let id = ReaderId::new(idx);
        self.mint(key, || {
            Ok(Mint::of(self.cluster()).reader(self.endpoint(id.into())?, id, key))
        })
    }

    /// Drives the keyspace open-loop for `duration`: every configured
    /// reader and writer issues back-to-back operations with keys drawn
    /// Zipf(`zipf`) from `keys` registers (see [`mwr_workload::drive`]).
    /// On an audited handle every touched register is checked by its own
    /// streaming auditor.
    ///
    /// # Errors
    ///
    /// The guards in the [type docs](LiveHandle); otherwise the first
    /// client's failure.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero.
    pub fn run_open_loop(
        &self,
        keys: usize,
        zipf: f64,
        duration: Duration,
        seed: u64,
    ) -> Result<ThroughputReport, DeployError> {
        self.steady(Self::keyed(keys, zipf, duration, seed), Self::run_drive)
    }

    /// Drives the keyspace open-loop for `duration` while executing the
    /// armed [`FaultPlan`](mwr_runtime::FaultPlan) against the cluster
    /// (see [`mwr_workload::drive`]): crashes, per-shard rejoins, churn
    /// bursts, and live joint-quorum reconfigurations fire at their
    /// scheduled op-counts or times while Zipf-keyed clients keep
    /// serving. On an audited handle every touched register is checked by
    /// its own streaming auditor throughout.
    ///
    /// Unlike a register's, a keyspace's `run_chaos` refuses to run
    /// without a plan: its open loop is [`run_open_loop`](Self::run_open_loop).
    ///
    /// # Errors
    ///
    /// A [`DeployError::Knob`] if no plan is armed; the guards in the
    /// [type docs](LiveHandle); otherwise a setup failure.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero.
    pub fn run_chaos(
        &mut self,
        keys: usize,
        zipf: f64,
        duration: Duration,
        seed: u64,
    ) -> Result<ChaosReport, DeployError> {
        if self.faults.is_none() {
            return Err(DeployError::Knob {
                knob: "faults",
                reason: "no fault plan armed; arm one with Keyspace::inject before run_chaos",
            });
        }
        self.chaos(Self::keyed(keys, zipf, duration, seed), Self::run_drive)
    }

    /// An open-loop drive of `keys` Zipf(`zipf`) keys.
    fn keyed(keys: usize, zipf: f64, duration: Duration, seed: u64) -> DriveSpec {
        DriveSpec { keys: Keys { count: keys, zipf, seed }, duration, ..DriveSpec::default() }
    }

    /// The one live drive over this keyspace: each thread opens one
    /// endpoint and mints per-key clients over it as
    /// [`writer`](Self::writer) / [`reader`](Self::reader) do.
    fn run_drive(
        target: Target<'_, KeyspaceCluster<F>>,
        tap: Option<TapFor<'_>>,
        spec: DriveSpec,
    ) -> Result<ChaosReport, RuntimeError> {
        drive(
            target,
            |cluster, w| {
                let ep = Arc::new(cluster.factory().open(w.into())?);
                let mint = Mint::of(cluster);
                Ok(move |key| mint.writer(Arc::clone(&ep), w, key))
            },
            |cluster, r| {
                let ep = Arc::new(cluster.factory().open(r.into())?);
                let mint = Mint::of(cluster);
                Ok(move |key| mint.reader(Arc::clone(&ep), r, key))
            },
            tap,
            spec,
        )
    }

    /// Shuts down all remaining servers; returns total requests handled.
    /// On an audited handle this discards the verdicts — use
    /// [`shutdown_audited`](Self::shutdown_audited) to collect them.
    pub fn shutdown(self) -> u64 {
        self.cluster.shutdown()
    }

    /// Shuts down all remaining servers and collects every touched
    /// register's final [`AuditReport`] (empty map if the keyspace was not
    /// armed or no key was touched). Drop all minted clients first, as for
    /// a register's `shutdown_audited`.
    pub fn shutdown_audited(self) -> (u64, BTreeMap<RegisterId, AuditReport>) {
        let (cluster, reports) = self.finish();
        (cluster.shutdown(), reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AuditConfig, Keyspace};
    use mwr_types::Value;

    #[test]
    fn per_key_clients_share_endpoints_and_stay_isolated() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 1, 1).unwrap();
        let handle = Keyspace::new(config).in_memory().unwrap();
        let (k1, k2) = (RegisterId::new(1), RegisterId::new(9));
        let mut w1 = handle.writer(0, k1).unwrap();
        let mut w2 = handle.writer(0, k2).unwrap();
        let mut r1 = handle.reader(0, k1).unwrap();
        let mut r2 = handle.reader(0, k2).unwrap();
        let v1 = w1.write(Value::new(100)).unwrap();
        let v2 = w2.write(Value::new(200)).unwrap();
        assert_eq!(r1.read().unwrap(), v1, "k1 sees its own write");
        assert_eq!(r2.read().unwrap(), v2, "k2 sees its own write");
        assert_eq!(r1.read().unwrap().value(), Value::new(100), "no cross-key bleed");
        drop((w1, w2, r1, r2));
        assert!(handle.shutdown() > 0);
    }

    #[test]
    fn audited_drive_reports_per_register_verdicts() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 2, 2).unwrap();
        let handle = Keyspace::new(config).audit(AuditConfig::default()).in_memory().unwrap();
        let report = handle.run_open_loop(8, 1.1, Duration::from_millis(40), 7).unwrap();
        assert!(report.ops() > 0);
        let (_handled, verdicts) = handle.shutdown_audited();
        assert!(!verdicts.is_empty(), "at least the hot keys were audited");
        for (key, report) in &verdicts {
            assert!(report.verdict.is_ok(), "register {key} not atomic: {report}");
            assert!(report.stats.audited > 0, "register {key} audited no ops");
        }
    }

    #[test]
    fn drive_refuses_after_minting_and_vice_versa() {
        let config = KeyspaceConfig::new(3, 1, 3, 4, 1, 1).unwrap();
        let handle = Keyspace::new(config).in_memory().unwrap();
        let _w = handle.writer(0, RegisterId::new(0)).unwrap();
        assert!(matches!(
            handle.run_open_loop(4, 1.1, Duration::from_millis(5), 1),
            Err(DeployError::HandlesInUse)
        ));
        drop(_w);
        handle.shutdown();

        let config = KeyspaceConfig::new(3, 1, 3, 4, 1, 1).unwrap();
        let handle = Keyspace::new(config).in_memory().unwrap();
        handle.run_open_loop(4, 1.1, Duration::from_millis(5), 1).unwrap();
        assert!(matches!(handle.writer(0, RegisterId::new(0)), Err(DeployError::HandlesInUse)));
        handle.shutdown();
    }

    #[test]
    fn armed_fault_plans_run_through_run_chaos_only() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 2, 1).unwrap();
        let keyspace = Keyspace::new(config)
            .timeout(Duration::from_secs(2))
            .retry(RetryPolicy { attempts: 4, backoff: Duration::from_millis(2) })
            .inject(FaultPlan::reconfigure(2, 2, 20));
        // The plain drive refuses an armed plan instead of ignoring it.
        let handle = keyspace.in_memory().unwrap();
        assert!(matches!(
            handle.run_open_loop(8, 1.1, Duration::from_millis(5), 1),
            Err(DeployError::Knob { knob: "faults", .. })
        ));
        handle.shutdown();
        // run_chaos executes the handover while keys keep serving.
        let mut handle = keyspace.in_memory().unwrap();
        let report = handle.run_chaos(8, 1.1, Duration::from_millis(400), 42).unwrap();
        assert_eq!(report.reconfigs, 1, "{report:?}");
        assert!(report.healed(), "{report:?}");
        assert_eq!(handle.members(), vec![2, 3, 4, 5, 6]);
        handle.shutdown();
        // And an unarmed handle refuses run_chaos.
        let mut handle = Keyspace::new(config).in_memory().unwrap();
        assert!(matches!(
            handle.run_chaos(8, 1.1, Duration::from_millis(5), 1),
            Err(DeployError::Knob { knob: "faults", .. })
        ));
        handle.shutdown();
    }

    #[test]
    fn handle_reconfigure_keeps_minted_clients_serving() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 1, 1).unwrap();
        let mut handle = Keyspace::new(config)
            .timeout(Duration::from_secs(2))
            .retry(RetryPolicy { attempts: 4, backoff: Duration::from_millis(2) })
            .in_memory()
            .unwrap();
        let (k1, k2) = (RegisterId::new(1), RegisterId::new(9));
        let mut w1 = handle.writer(0, k1).unwrap();
        let mut r1 = handle.reader(0, k1).unwrap();
        let mut r2 = handle.reader(0, k2).unwrap();
        let mut w2 = handle.writer(0, k2).unwrap();
        let v1 = w1.write(Value::new(100)).unwrap();
        let v2 = w2.write(Value::new(200)).unwrap();
        drop((w1, w2));
        let added = handle.reconfigure(2, &[0, 1]).unwrap();
        assert_eq!(added, vec![5, 6]);
        assert_eq!(handle.members(), vec![2, 3, 4, 5, 6]);
        // Pre-handover readers keep serving their keys, with no bleed.
        assert_eq!(r1.read().unwrap(), v1, "k1 survives the handover");
        assert_eq!(r2.read().unwrap(), v2, "k2 survives the handover");
        drop((r1, r2));
        handle.shutdown();
    }

    #[test]
    fn fault_plans_are_validated_against_the_configuration() {
        // Plan indices must fit the server count (S = 3 here).
        let config = KeyspaceConfig::new(3, 1, 3, 4, 2, 1).unwrap();
        assert!(matches!(
            Keyspace::new(config).inject(FaultPlan::rolling_restart(5, 10)).in_memory(),
            Err(DeployError::Knob { knob: "faults", .. })
        ));
        // Churn bursts need a reserved reader slot plus a stable reader.
        let one_reader = KeyspaceConfig::new(3, 1, 3, 4, 1, 1).unwrap();
        assert!(matches!(
            Keyspace::new(one_reader).inject(FaultPlan::churn_storm(5, 1, 5)).in_memory(),
            Err(DeployError::Knob { knob: "faults", .. })
        ));
    }

    #[test]
    fn fast_read_protocol_is_validated_against_the_group() {
        // g = 3, t = 1, R = 8: 1 * (8 + 2) >= 3 — W2R1 must be refused.
        let config = KeyspaceConfig::new(5, 1, 3, 8, 8, 2).unwrap();
        assert!(matches!(
            Keyspace::new(config).protocol(Protocol::W2R1).in_memory(),
            Err(DeployError::FastReadInfeasible { .. })
        ));
        // The whole cluster as one group restores feasibility: 10 < 11.
        let config = KeyspaceConfig::new(11, 1, 11, 8, 8, 2).unwrap();
        let handle = Keyspace::new(config).protocol(Protocol::W2R1).in_memory().unwrap();
        handle.shutdown();
    }

    /// Every knob the keyspace accepts reaches what it tunes: its readers
    /// speak the runs wire, and an unset protocol resolves to W2Ra (a
    /// register's to W2R1).
    #[test]
    fn keyspace_knobs_reach_the_registry_and_the_readers() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 1, 1).unwrap();
        let handle = Keyspace::new(config).tcp().unwrap();
        assert_eq!(handle.cluster().protocol(), Protocol::W2Ra);
        let key = RegisterId::new(3);
        let mut w = handle.writer(0, key).unwrap();
        let mut r = handle.reader(0, key).unwrap();
        assert!(format!("{r:?}").contains("wire: Runs"), "{r:?}");
        let written = w.write(Value::new(8)).unwrap();
        assert_eq!(r.read().unwrap(), written);
        drop((w, r));
        handle.shutdown();
        let register = crate::Deployment::new(ClusterConfig::new(3, 1, 1, 1).unwrap())
            .backend(crate::Backend::InMemory)
            .in_memory()
            .unwrap();
        assert_eq!(register.cluster().protocol(), Protocol::W2R1);
        register.shutdown();
    }
}
