//! The deployed keyspace: per-key blocking clients over shared endpoints,
//! per-register audit sidecars, shard-aware fault injection, and the
//! Zipf-keyed open-loop drive.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mwr_check::AuditReport;
use mwr_register::{AuditConfig, AuditSidecar};
use mwr_runtime::{
    AuditTap, ClusterView, Endpoint, EndpointFactory, FaultPlan, InMemoryTransport,
    KeyspaceCluster, LiveReader, LiveWriter, RetryPolicy, RuntimeError, TcpRegistry,
};
use mwr_types::{ClusterConfig, KeyspaceConfig, ReaderId, RegisterId, WriterId};
use mwr_workload::{drive, ChaosReport, DriveSpec, Keys, Target, ThroughputReport};

use crate::{KeyspaceError, Protocol, Router};

/// A blocking writer for one key: the single-register [`LiveWriter`]
/// scoped to the key's shard group, over an endpoint shared with every
/// other per-key client of the same writer index.
pub type KeyWriter<E> = LiveWriter<Arc<E>>;

/// A blocking reader for one key, scoped and shared like [`KeyWriter`].
pub type KeyReader<E> = LiveReader<Arc<E>>;

/// The lazily-populated bank of per-register audit sidecars: atomicity is
/// a per-register property, so each touched key gets its own streaming
/// auditor, and all clients of that key (across writer/reader indices)
/// share its tap.
#[derive(Debug)]
struct AuditHub {
    cfg: AuditConfig,
    sidecars: Mutex<HashMap<RegisterId, AuditSidecar>>,
}

impl AuditHub {
    fn new(cfg: AuditConfig) -> Self {
        AuditHub { cfg, sidecars: Mutex::new(HashMap::new()) }
    }

    /// The tap for `key`'s register, spawning its sidecar on first touch.
    fn tap(&self, key: RegisterId) -> AuditTap {
        let mut sidecars = self.sidecars.lock().expect("audit hub poisoned");
        sidecars
            .entry(key)
            .or_insert_with(|| {
                AuditSidecar::spawn(self.cfg).expect("failed to spawn audit sidecar thread")
            })
            .tap()
            .clone()
    }

    /// Joins every sidecar and collects the per-register verdicts.
    fn finish(self) -> BTreeMap<RegisterId, AuditReport> {
        self.sidecars
            .into_inner()
            .expect("audit hub poisoned")
            .into_iter()
            .map(|(key, sidecar)| (key, sidecar.finish()))
            .collect()
    }
}

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

/// A deployed keyspace on a live backend: servers running one
/// [`ServerBank`](mwr_core::ServerBank) each, per-key blocking clients on
/// demand.
///
/// Obtained from [`Keyspace::in_memory`](crate::Keyspace::in_memory) or
/// [`Keyspace::tcp`](crate::Keyspace::tcp). Client endpoints are opened
/// once per writer/reader index and shared (`Arc`) across every key that
/// index touches, so a process talking to 64 keys still runs one inbox
/// and one set of per-peer connections.
#[derive(Debug)]
pub struct KeyspaceHandle<F: EndpointFactory> {
    cluster: KeyspaceCluster<F>,
    timeout: Option<Duration>,
    retry: RetryPolicy,
    audit: Option<AuditHub>,
    faults: Option<FaultPlan>,
    writer_eps: Mutex<HashMap<u32, Arc<F::Endpoint>>>,
    reader_eps: Mutex<HashMap<u32, Arc<F::Endpoint>>>,
    /// Whether a client was minted — the open-loop drive opens every
    /// client endpoint itself, so it refuses to run afterwards.
    minted: Cell<bool>,
    /// Whether a drive ran — it consumed every client endpoint, so later
    /// minting (or a second drive) is refused.
    driven: Cell<bool>,
}

impl<F: EndpointFactory> KeyspaceHandle<F> {
    pub(crate) fn new(
        cluster: KeyspaceCluster<F>,
        timeout: Option<Duration>,
        retry: RetryPolicy,
        audit: Option<AuditConfig>,
        faults: Option<FaultPlan>,
    ) -> Self {
        KeyspaceHandle {
            cluster,
            timeout,
            retry,
            audit: audit.map(AuditHub::new),
            faults,
            writer_eps: Mutex::new(HashMap::new()),
            reader_eps: Mutex::new(HashMap::new()),
            minted: Cell::new(false),
            driven: Cell::new(false),
        }
    }

    /// The keyspace configuration.
    pub fn config(&self) -> KeyspaceConfig {
        self.cluster.config()
    }

    /// The deterministic register → shard → group router.
    pub fn router(&self) -> &Router {
        self.cluster.router()
    }

    /// The underlying keyspace cluster, for transport-level access.
    pub fn cluster(&self) -> &KeyspaceCluster<F> {
        &self.cluster
    }

    /// Creates writer `idx`'s blocking client for `key`, scoped to the
    /// key's shard group, with the deployment's timeout/retry/audit knobs
    /// applied. Clients of the same index share one endpoint across keys.
    ///
    /// Mint at most one live client per `(idx, key)` pair at a time: two
    /// concurrent clients with the same identity on the same register
    /// would collide on their operation sequence numbers.
    ///
    /// # Errors
    ///
    /// [`KeyspaceError::HandlesInUse`] after a drive consumed the client
    /// endpoints; [`KeyspaceError::Transport`] if the endpoint cannot be
    /// opened.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the configuration.
    pub fn writer(&self, idx: u32, key: RegisterId) -> Result<KeyWriter<F::Endpoint>, KeyspaceError> {
        if self.driven.get() {
            return Err(KeyspaceError::HandlesInUse);
        }
        assert!((idx as usize) < self.config().writers(), "writer {idx} out of range");
        let ep = {
            let mut eps = self.writer_eps.lock().expect("endpoint cache poisoned");
            match eps.entry(idx) {
                std::collections::hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
                std::collections::hash_map::Entry::Vacant(v) => {
                    let ep = Arc::new(self.cluster.factory().open(WriterId::new(idx).into())?);
                    Arc::clone(v.insert(ep))
                }
            }
        };
        self.minted.set(true);
        let mut writer =
            Mint::of(&self.cluster).writer(ep, WriterId::new(idx), key).with_retry(self.retry);
        if let Some(t) = self.timeout {
            writer = writer.with_timeout(t);
        }
        if let Some(hub) = &self.audit {
            writer = writer.with_tap(hub.tap(key));
        }
        Ok(writer)
    }

    /// Creates reader `idx`'s blocking client for `key` — the reader-side
    /// mirror of [`writer`](Self::writer), same sharing and same
    /// one-client-per-`(idx, key)` rule.
    ///
    /// # Errors
    ///
    /// [`KeyspaceError::HandlesInUse`] after a drive consumed the client
    /// endpoints; [`KeyspaceError::Transport`] if the endpoint cannot be
    /// opened.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the configuration.
    pub fn reader(&self, idx: u32, key: RegisterId) -> Result<KeyReader<F::Endpoint>, KeyspaceError> {
        if self.driven.get() {
            return Err(KeyspaceError::HandlesInUse);
        }
        assert!((idx as usize) < self.config().readers(), "reader {idx} out of range");
        let ep = {
            let mut eps = self.reader_eps.lock().expect("endpoint cache poisoned");
            match eps.entry(idx) {
                std::collections::hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
                std::collections::hash_map::Entry::Vacant(v) => {
                    let ep = Arc::new(self.cluster.factory().open(ReaderId::new(idx).into())?);
                    Arc::clone(v.insert(ep))
                }
            }
        };
        self.minted.set(true);
        let mut reader =
            Mint::of(&self.cluster).reader(ep, ReaderId::new(idx), key).with_retry(self.retry);
        if let Some(t) = self.timeout {
            reader = reader.with_timeout(t);
        }
        if let Some(hub) = &self.audit {
            reader = reader.with_tap(hub.tap(key));
        }
        Ok(reader)
    }

    /// Crashes server `idx`: its bank thread stops and its endpoint leaves
    /// the delivery map — every shard it served loses one group member.
    ///
    /// # Panics
    ///
    /// Panics if the server was already crashed.
    pub fn crash_server(&mut self, idx: u32) {
        self.cluster.crash_server(idx);
    }

    /// Rejoins crashed server `idx` through per-shard quorum state
    /// transfer: one fetch round per shard the router assigns it, each
    /// requiring `g − t` surviving group members, with the rebuilt bank
    /// serving nothing until every shard's transfer lands.
    ///
    /// # Errors
    ///
    /// [`KeyspaceError::Transport`] if any shard's quorum does not answer
    /// (the rejoin is refused and can be retried).
    ///
    /// # Panics
    ///
    /// Panics if server `idx` is currently running.
    pub fn rejoin_server(&mut self, idx: u32) -> Result<(), KeyspaceError> {
        Ok(self.cluster.rejoin_server(idx)?)
    }

    /// The indices of currently-running servers, ascending.
    pub fn live_servers(&self) -> Vec<u32> {
        self.cluster.live_servers()
    }

    /// The current member servers, ascending — differs from the original
    /// configuration after a [`reconfigure`](Self::reconfigure).
    pub fn members(&self) -> Vec<u32> {
        self.cluster.members()
    }

    /// Reconfigures the live server set: adds `add` fresh servers and
    /// retires the servers in `remove` through the per-shard joint-quorum
    /// handover (announce → joint window → shard-by-shard state transfer
    /// to every server the new routing promotes → commit) while minted
    /// per-key clients keep serving — they watch the cluster view and
    /// re-derive their shard groups when the config epoch moves. Returns
    /// the added servers' ids.
    ///
    /// # Errors
    ///
    /// [`KeyspaceError::Transport`] if the handover is refused (a shard's
    /// transfer quorum did not answer within the window) — the keyspace
    /// rolls forward to a stable epoch over the unchanged member set and
    /// can be retried.
    ///
    /// # Panics
    ///
    /// Panics if `remove` names a non-member, if the change is empty, or
    /// if the resulting shape would not fit shard groups.
    pub fn reconfigure(&mut self, add: usize, remove: &[u32]) -> Result<Vec<u32>, KeyspaceError> {
        Ok(self.cluster.reconfigure(add, remove)?)
    }

    /// Drives the keyspace open-loop for `duration`: every configured
    /// reader and writer issues back-to-back operations with keys drawn
    /// Zipf(`zipf`) from `keys` registers (see
    /// [`mwr_workload::drive`]). On an audited handle
    /// every touched register is checked by its own streaming auditor.
    ///
    /// # Errors
    ///
    /// [`KeyspaceError::HandlesInUse`] if clients were already minted or a
    /// drive already ran; otherwise the first client's failure.
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
    ) -> Result<ThroughputReport, KeyspaceError> {
        if self.minted.get() || self.driven.get() {
            return Err(KeyspaceError::HandlesInUse);
        }
        if self.faults.is_some() {
            return Err(KeyspaceError::Faults(
                "a fault plan is armed; drive it with run_chaos, which owns the \
                 cluster mutably and reports what the plan did",
            ));
        }
        self.driven.set(true);
        let spec = self.spec(keys, zipf, duration, seed);
        let report = Self::run_drive(Target::Steady(&self.cluster), self.audit.as_ref(), spec)?;
        Ok(report.into_throughput()?)
    }

    /// Drives the keyspace open-loop for `duration` while executing the
    /// armed [`FaultPlan`] against the cluster (see
    /// [`mwr_workload::drive`]): crashes, per-shard rejoins,
    /// churn bursts, and live joint-quorum reconfigurations fire at their
    /// scheduled op-counts or times while Zipf-keyed clients keep
    /// serving. On an audited handle every touched register is checked by
    /// its own streaming auditor throughout.
    ///
    /// # Errors
    ///
    /// [`KeyspaceError::Faults`] if no plan is armed;
    /// [`KeyspaceError::HandlesInUse`] if clients were already minted or
    /// a drive already ran; otherwise a setup failure. Operation failures
    /// during the drive are counted in the report, never returned.
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
    ) -> Result<ChaosReport, KeyspaceError> {
        if self.minted.get() || self.driven.get() {
            return Err(KeyspaceError::HandlesInUse);
        }
        let Some(plan) = self.faults else {
            return Err(KeyspaceError::Faults(
                "no fault plan armed; arm one with Keyspace::inject before run_chaos",
            ));
        };
        self.driven.set(true);
        let spec = self.spec(keys, zipf, duration, seed);
        Ok(Self::run_drive(Target::Faulted(&mut self.cluster, &plan), self.audit.as_ref(), spec)?)
    }

    /// An open-loop drive of `keys` Zipf(`zipf`) keys with the deployment's
    /// timeout and retry policy.
    fn spec(&self, keys: usize, zipf: f64, duration: Duration, seed: u64) -> DriveSpec {
        DriveSpec {
            keys: Keys { count: keys, zipf, seed },
            duration,
            timeout: self.timeout,
            retry: self.retry,
            ..DriveSpec::default()
        }
    }

    /// The one live drive over this keyspace: each thread opens one
    /// endpoint and mints per-key clients over it as
    /// [`writer`](Self::writer) / [`reader`](Self::reader) do, and on an
    /// audited handle every key's clients carry that register's tap.
    fn run_drive(
        target: Target<'_, KeyspaceCluster<F>>,
        audit: Option<&AuditHub>,
        spec: DriveSpec,
    ) -> Result<ChaosReport, RuntimeError> {
        let tap = audit.map(|hub| move |key| hub.tap(key));
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
            tap.as_ref().map(|tap| tap as _),
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
    /// armed with [`Keyspace::audit`](crate::Keyspace::audit) or no key
    /// was touched).
    ///
    /// Joining a register's sidecar requires every tap clone to be gone:
    /// drop all minted clients before calling, or the join blocks until
    /// they drop.
    pub fn shutdown_audited(self) -> (u64, BTreeMap<RegisterId, AuditReport>) {
        let KeyspaceHandle { cluster, audit, writer_eps, reader_eps, .. } = self;
        // Cached endpoints hold no taps, but drop them before the join
        // anyway: a lingering endpoint on TCP keeps connections alive that
        // the shutdown would otherwise tear down promptly.
        drop(writer_eps);
        drop(reader_eps);
        let reports = audit.map(AuditHub::finish).unwrap_or_default();
        (cluster.shutdown(), reports)
    }
}

/// A deployed keyspace on whichever backend the blueprint selected — the
/// result of [`Keyspace::deploy`](crate::Keyspace::deploy), for callers
/// that dispatch over backends at run time.
#[derive(Debug)]
pub enum AnyKeyspaceHandle {
    /// The in-memory live backend.
    InMemory(KeyspaceHandle<InMemoryTransport>),
    /// The TCP live backend.
    Tcp(KeyspaceHandle<TcpRegistry>),
}

impl AnyKeyspaceHandle {
    /// The deployed backend's name.
    pub fn backend_name(&self) -> &'static str {
        match self {
            AnyKeyspaceHandle::InMemory(_) => "in-memory",
            AnyKeyspaceHandle::Tcp(_) => "tcp",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Keyspace, Protocol};
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
        let handle = Keyspace::new(config)
            .audit(AuditConfig::default())
            .in_memory()
            .unwrap();
        let report = handle
            .run_open_loop(8, 1.1, Duration::from_millis(40), 7)
            .unwrap();
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
            Err(KeyspaceError::HandlesInUse)
        ));
        drop(_w);
        handle.shutdown();

        let config = KeyspaceConfig::new(3, 1, 3, 4, 1, 1).unwrap();
        let handle = Keyspace::new(config).in_memory().unwrap();
        handle.run_open_loop(4, 1.1, Duration::from_millis(5), 1).unwrap();
        assert!(matches!(
            handle.writer(0, RegisterId::new(0)),
            Err(KeyspaceError::HandlesInUse)
        ));
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
            Err(KeyspaceError::Faults(_))
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
            Err(KeyspaceError::Faults(_))
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
            Keyspace::new(config)
                .inject(FaultPlan::rolling_restart(5, 10))
                .in_memory(),
            Err(KeyspaceError::Faults(_))
        ));
        // Churn bursts need a reserved reader slot plus a stable reader.
        let one_reader = KeyspaceConfig::new(3, 1, 3, 4, 1, 1).unwrap();
        assert!(matches!(
            Keyspace::new(one_reader)
                .inject(FaultPlan::churn_storm(5, 1, 5))
                .in_memory(),
            Err(KeyspaceError::Faults(_))
        ));
    }

    #[test]
    fn fast_read_protocol_is_validated_against_the_group() {
        // g = 3, t = 1, R = 8: 1 * (8 + 2) >= 3 — W2R1 must be refused.
        let config = KeyspaceConfig::new(5, 1, 3, 8, 8, 2).unwrap();
        assert!(matches!(
            Keyspace::new(config).protocol(Protocol::W2R1).in_memory(),
            Err(KeyspaceError::FastReadInfeasible { .. })
        ));
        // The whole cluster as one group restores feasibility: 10 < 11.
        let config = KeyspaceConfig::new(11, 1, 11, 8, 8, 2).unwrap();
        let handle = Keyspace::new(config).protocol(Protocol::W2R1).in_memory().unwrap();
        handle.shutdown();
    }

    #[test]
    fn deploy_dispatches_on_the_backend_knob() {
        let config = KeyspaceConfig::new(3, 1, 3, 4, 1, 1).unwrap();
        let any = Keyspace::new(config).backend(Backend::Tcp).deploy().unwrap();
        assert_eq!(any.backend_name(), "tcp");
        match any {
            AnyKeyspaceHandle::Tcp(handle) => {
                let key = RegisterId::new(2);
                let mut w = handle.writer(0, key).unwrap();
                let mut r = handle.reader(0, key).unwrap();
                let written = w.write(Value::new(5)).unwrap();
                assert_eq!(r.read().unwrap(), written);
                drop((w, r));
                handle.shutdown();
            }
            AnyKeyspaceHandle::InMemory(_) => unreachable!("tcp was selected"),
        }
    }
}
