//! Live keyspace clusters: one [`ServerBank`] thread per server, shard-aware
//! crash and rejoin.
//!
//! A keyspace cluster differs from [`RuntimeCluster`](crate::RuntimeCluster)
//! in what a server *is*: not one Algorithm 2 automaton but a bank of them,
//! lazily instantiated per register and multiplexed over a single endpoint
//! by the [`Msg::ForRegister`] frame header. Fault injection is the same
//! operation as on the single-register cluster; **rejoin** is where the
//! sharding shows. A rejoining server does not fetch "the" state — it
//! fetches one [`Msg::ShardFetch`] round per shard its rendezvous groups
//! assign it, and every shard must independently assemble a quorum
//! (`g − t`) of peer snapshots before the bank may serve again. Fewer could
//! miss a completed write on that shard, so one starved shard refuses the
//! whole rejoin — per-register soundness is never traded for availability.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mwr_core::{Msg, Protocol, RegisterTransfer, Router, ServerBank, StateTransfer, MAX_MEMBERS};
use mwr_types::{ConfigEpoch, KeyspaceConfig, ProcessId, RegisterId};

use crate::cluster::COORDINATOR;
use crate::server::{spawn_bank_with, ServerHandle};
use crate::tcp::TcpRegistry;
use crate::transport::{Endpoint, EndpointFactory, InMemoryTransport, TransportError};
use crate::view::{ClusterView, ViewPlan, ViewState};

/// A running keyspace cluster over any [`EndpointFactory`]: every server
/// hosts a [`ServerBank`], clients are minted per key by the `mwr-keyspace`
/// facade.
///
/// # Examples
///
/// ```
/// use mwr_core::Protocol;
/// use mwr_runtime::{InMemoryTransport, KeyspaceCluster};
/// use mwr_types::KeyspaceConfig;
///
/// let config = KeyspaceConfig::new(5, 1, 3, 8, 2, 2)?;
/// let cluster = KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2Ra)?;
/// assert_eq!(cluster.live_servers(), vec![0, 1, 2, 3, 4]);
/// cluster.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct KeyspaceCluster<F: EndpointFactory> {
    config: KeyspaceConfig,
    protocol: Protocol,
    router: Router,
    factory: F,
    servers: Vec<ServerHandle>,
    /// Bank-wide version beacons captured at crash time (max over the
    /// bank's registers): the floor every rebuilt register resumes above.
    crashed: HashMap<u32, u64>,
    /// Monotone nonce distinguishing shard-fetch rounds, as in the
    /// single-register cluster's rejoin.
    fetch_nonce: u64,
    /// The next server id a reconfiguration will mint (retired ids are
    /// never reused; the router's member bitset tracks the current set).
    next_server_id: u32,
    /// The configuration epoch the keyspace is in.
    epoch: ConfigEpoch,
    /// The shared view scoped clients follow through reconfigurations.
    view: Arc<ClusterView>,
}

/// A running in-memory keyspace cluster.
pub type LiveKeyspaceCluster = KeyspaceCluster<InMemoryTransport>;

/// A running TCP keyspace cluster on loopback.
pub type TcpKeyspaceCluster = KeyspaceCluster<TcpRegistry>;

impl<F: EndpointFactory> KeyspaceCluster<F> {
    /// Starts every server of `config` as a [`ServerBank`] thread over
    /// endpoints from `factory`, with acknowledged-floor GC sized to the
    /// client population (per register, as on the single-register cluster).
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if a server endpoint cannot be opened.
    pub fn start_on(
        factory: F,
        config: KeyspaceConfig,
        protocol: Protocol,
    ) -> Result<Self, TransportError> {
        let router = Router::for_keyspace(&config);
        let population = config.readers() + config.writers();
        let mut servers = Vec::with_capacity(config.servers());
        for s in config.server_ids() {
            let endpoint = factory.open(ProcessId::Server(s))?;
            servers.push(spawn_bank_with(endpoint, ServerBank::new(population, router)));
        }
        let view = ClusterView::stable_keyspace(router, config.group_quorum());
        Ok(KeyspaceCluster {
            next_server_id: config.servers() as u32,
            config,
            protocol,
            router,
            factory,
            servers,
            crashed: HashMap::new(),
            fetch_nonce: 0,
            epoch: ConfigEpoch::ZERO,
            view,
        })
    }

    /// The keyspace configuration.
    pub fn config(&self) -> KeyspaceConfig {
        self.config
    }

    /// The protocol clients will run inside each shard group.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The deterministic register → shard → group router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The transport factory, for opening client endpoints.
    pub fn factory(&self) -> &F {
        &self.factory
    }

    /// The current member server ids, ascending (the router's bitset).
    pub fn members(&self) -> Vec<u32> {
        self.router.member_ids().map(|s| s.index()).collect()
    }

    /// The configuration epoch the keyspace is in: 0 until the first
    /// reconfiguration, then `+2` per completed (or aborted) handover.
    pub fn epoch(&self) -> ConfigEpoch {
        self.epoch
    }

    /// The shared configuration view scoped clients follow. The facade
    /// attaches it to every per-key client it mints, so clients re-derive
    /// their register's group from the *current* router at each operation.
    pub fn view(&self) -> Arc<ClusterView> {
        Arc::clone(&self.view)
    }

    /// Crashes server `idx`: removes it from the transport's delivery map,
    /// stops its bank thread, and records the bank's version beacon (the
    /// max across its registers) as the floor a rejoin resumes above.
    ///
    /// # Panics
    ///
    /// Panics if the server was already crashed.
    pub fn crash_server(&mut self, idx: u32) {
        let pos = self
            .servers
            .iter()
            .position(|h| h.id() == ProcessId::server(idx))
            .unwrap_or_else(|| panic!("server {idx} already crashed or unknown"));
        let handle = self.servers.swap_remove(pos);
        self.factory.close(ProcessId::server(idx));
        let beacon = handle.beacon();
        handle.shutdown();
        // Read the beacon after the join so it covers every message the
        // bank ever processed — the stable-storage record of the crash
        // model, shared by all of the bank's registers.
        self.crashed
            .insert(idx, beacon.load(std::sync::atomic::Ordering::Acquire));
    }

    /// Brings a crashed server back with per-shard state transfer: one
    /// [`Msg::ShardFetch`] round per shard in
    /// [`Router::shards_on`]`(idx)`, each requiring a quorum (`g − t`) of
    /// that shard's surviving group members, then a
    /// [`ServerBank::recovered`] bank spawned only once **every** shard has
    /// its quorum. Registers a peer never instantiated are simply absent
    /// from its snapshot — lazy instantiation means the peer processed no
    /// message for them, so the empty transfer is vacuously complete.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] with [`std::io::ErrorKind::TimedOut`]
    /// if any shard's quorum does not assemble within 5 seconds; the crash
    /// bookkeeping is preserved so the attempt can be retried.
    ///
    /// # Panics
    ///
    /// Panics if the server is still running.
    pub fn rejoin_server(&mut self, idx: u32) -> Result<(), TransportError> {
        self.rejoin_server_within(idx, Duration::from_secs(5))
    }

    /// [`rejoin_server`](Self::rejoin_server) with an explicit fetch window.
    ///
    /// # Errors
    ///
    /// As [`rejoin_server`](Self::rejoin_server).
    ///
    /// # Panics
    ///
    /// Panics if the server is still running.
    pub fn rejoin_server_within(
        &mut self,
        idx: u32,
        fetch_timeout: Duration,
    ) -> Result<(), TransportError> {
        assert!(
            self.servers.iter().all(|h| h.id() != ProcessId::server(idx)),
            "server {idx} is still running"
        );
        let version_floor = self.crashed.get(&idx).copied().unwrap_or(0);
        let me = ProcessId::server(idx);
        let endpoint = self.factory.open(me)?;
        self.fetch_nonce += 1;
        let nonce = self.fetch_nonce;
        let shards = self.router.shards_on(mwr_types::ServerId::new(idx));
        let required = self.config.group_quorum();
        // One fetch per (shard, surviving group member): groups differ per
        // shard, so the batch is assembled per shard rather than cluster-wide.
        let batch: Vec<(ProcessId, Msg)> = shards
            .iter()
            .flat_map(|&shard| {
                self.router
                    .group(shard)
                    .into_iter()
                    .map(ProcessId::Server)
                    .filter(|p| *p != me)
                    .map(move |p| (p, Msg::ShardFetch { shard, nonce }))
            })
            .collect();
        // shard → peer → that peer's per-register exports, deduped by peer
        // so a re-broadcast can never double-count a snapshot toward quorum.
        let mut gathered: BTreeMap<u32, BTreeMap<ProcessId, Vec<RegisterTransfer>>> =
            shards.iter().map(|&s| (s, BTreeMap::new())).collect();
        let quorate =
            |g: &BTreeMap<u32, BTreeMap<ProcessId, Vec<RegisterTransfer>>>| {
                g.values().all(|peers| peers.len() >= required)
            };
        let deadline = Instant::now() + fetch_timeout;
        // Same re-broadcast discipline as the single-register rejoin: the
        // round is idempotent and any one frame can be lost in the crash
        // model (replies ride back on the fetch's own connection, so this
        // server's previous incarnation plays no part in that).
        let rebroadcast_every = (fetch_timeout / 10).max(Duration::from_millis(10));
        'fetch: while !quorate(&gathered) {
            if Instant::now() >= deadline {
                break;
            }
            endpoint.send_batch(batch.clone());
            let round_ends = (Instant::now() + rebroadcast_every).min(deadline);
            while !quorate(&gathered) {
                let now = Instant::now();
                if now >= round_ends {
                    break;
                }
                match endpoint.inbox().recv_timeout(round_ends - now) {
                    // Client traffic racing the fetch window is dropped:
                    // the bank is not serving yet. Past epoch 0 replies
                    // arrive epoch-tagged; strip the header first.
                    Ok((from, msg)) => {
                        if let (_, Msg::ShardSnapshot { nonce: n, shard, registers }) =
                            msg.into_epoch_parts()
                        {
                            if n == nonce {
                                if let Some(peers) = gathered.get_mut(&shard) {
                                    peers.insert(from, registers);
                                }
                            }
                        }
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => break,
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break 'fetch,
                }
            }
        }
        if !quorate(&gathered) {
            // One starved shard refuses the whole rejoin: a bank serving
            // shard A while shard B's transfer is partial could miss a
            // completed write on B. Withdraw the endpoint.
            self.factory.close(me);
            drop(endpoint);
            return Err(TransportError::Io { kind: std::io::ErrorKind::TimedOut });
        }
        let mut transfers: BTreeMap<RegisterId, Vec<StateTransfer>> = BTreeMap::new();
        for peers in gathered.into_values() {
            for registers in peers.into_values() {
                for t in registers {
                    transfers.entry(t.register).or_default().push(t.state);
                }
            }
        }
        let population = self.config.readers() + self.config.writers();
        let bank = ServerBank::recovered(population, self.router, version_floor, &transfers);
        let handle = spawn_bank_with(endpoint, bank);
        // The rejoined bank resumes in the keyspace's current epoch.
        handle.announce_epoch(self.epoch);
        self.servers.push(handle);
        self.crashed.remove(&idx);
        Ok(())
    }

    /// Reconfigures the live server set with per-shard handover: mints
    /// `add` fresh server ids, retires the members in `remove`, and
    /// re-routes every shard under the new rendezvous member set — while
    /// per-key clients keep serving.
    ///
    /// The schedule is the single-register
    /// [`RuntimeCluster::reconfigure`](crate::RuntimeCluster::reconfigure)
    /// run per shard group:
    ///
    /// 1. **Join** — added banks spawn empty; the view flips to a joint
    ///    epoch where each register's scope is the *union* of its old and
    ///    new groups with a `g − t` quorum required in each, and fast
    ///    reads write back.
    /// 2. **Transfer** — for every `(server, shard)` pair the new routing
    ///    adds (a joiner's shards, but also a *survivor* promoted into a
    ///    group when a removal changed the rendezvous ranking), the
    ///    coordinator fetches the shard from a `g − t` quorum of its old
    ///    group and installs it via [`Msg::ShardInstall`]. No quorum, no
    ///    commit.
    /// 3. **Commit** — the view flips to a stable epoch over the new
    ///    router; removed banks are torn down. Shards route only within
    ///    their own groups, so a handover on one shard never moves another
    ///    shard's floors (no cross-key bleed — pinned by the integration
    ///    tests).
    ///
    /// Returns the added servers' ids.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] with [`std::io::ErrorKind::TimedOut`]
    /// on a refused handover (rolled forward to the old member set), or
    /// any endpoint-open error from the transport.
    ///
    /// Crashed members need not rejoin first: with at most `t` of a
    /// shard's old group down its transfer quorum still assembles; with
    /// more the handover refuses and rolls forward to the old routing.
    ///
    /// # Panics
    ///
    /// Panics if `remove` names a non-member, the change is empty, the
    /// resulting shape is invalid, or the id space would outgrow
    /// [`MAX_MEMBERS`].
    pub fn reconfigure(&mut self, add: usize, remove: &[u32]) -> Result<Vec<u32>, TransportError> {
        self.reconfigure_within(add, remove, Duration::from_secs(5))
    }

    /// [`reconfigure`](Self::reconfigure) with an explicit state-transfer
    /// window.
    ///
    /// # Errors
    ///
    /// As [`reconfigure`](Self::reconfigure).
    ///
    /// # Panics
    ///
    /// As [`reconfigure`](Self::reconfigure).
    pub fn reconfigure_within(
        &mut self,
        add: usize,
        remove: &[u32],
        window: Duration,
    ) -> Result<Vec<u32>, TransportError> {
        assert!(add > 0 || !remove.is_empty(), "reconfigure must change the member set");
        let old_router = self.router;
        for &r in remove {
            assert!(
                old_router.members() & (1u128 << r) != 0,
                "removed server {r} is not a member"
            );
        }
        assert!(
            (self.next_server_id as usize + add) <= MAX_MEMBERS,
            "server id space exhausted (max {MAX_MEMBERS} ids)"
        );
        let added: Vec<u32> = (0..add as u32).map(|i| self.next_server_id + i).collect();
        let mut new_mask = old_router.members();
        for &r in remove {
            new_mask &= !(1u128 << r);
        }
        for &a in &added {
            new_mask |= 1u128 << a;
        }
        let new_config = self
            .config
            .reconfigured(new_mask.count_ones() as usize)
            .unwrap_or_else(|e| panic!("invalid reconfigured shape: {e}"));
        let new_router =
            Router::with_members(new_mask, old_router.group_size(), old_router.shards());
        self.next_server_id += add as u32;

        // 1. Join: added banks spawn empty under the new router and serve
        // immediately — every joint-window round also spans the old group.
        let population = self.config.readers() + self.config.writers();
        for &id in &added {
            match self.factory.open(ProcessId::server(id)) {
                Ok(endpoint) => {
                    self.servers
                        .push(spawn_bank_with(endpoint, ServerBank::new(population, new_router)));
                }
                Err(e) => {
                    self.teardown(&added);
                    return Err(e);
                }
            }
        }
        let joint_epoch = self.epoch.next();
        self.view.install(ViewState {
            epoch: joint_epoch,
            plan: ViewPlan::JointKeyspace {
                old: old_router,
                new: new_router,
                quorum: self.config.group_quorum(),
            },
        });
        for h in &self.servers {
            h.announce_epoch(joint_epoch);
        }
        self.epoch = joint_epoch;

        // 2. Transfer: every (server, shard) pair the new routing adds.
        let mut plan: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for shard in 0..old_router.shards() {
            let old_group = old_router.group(shard);
            for s in new_router.group(shard) {
                if !old_group.contains(&s) {
                    plan.entry(shard).or_default().push(s.index());
                }
            }
        }
        if !plan.is_empty() {
            if let Err(e) = self.transfer_shards(&old_router, &plan, window) {
                let abort_epoch = self.epoch.next();
                self.view.install(ViewState {
                    epoch: abort_epoch,
                    plan: ViewPlan::StableKeyspace {
                        router: old_router,
                        quorum: self.config.group_quorum(),
                    },
                });
                for h in &self.servers {
                    h.announce_epoch(abort_epoch);
                }
                self.epoch = abort_epoch;
                self.teardown(&added);
                return Err(e);
            }
        }

        // 3. Commit: stable view over the new router, then retire.
        let commit_epoch = self.epoch.next();
        self.view.install(ViewState {
            epoch: commit_epoch,
            plan: ViewPlan::StableKeyspace {
                router: new_router,
                quorum: new_config.group_quorum(),
            },
        });
        for h in &self.servers {
            h.announce_epoch(commit_epoch);
        }
        self.epoch = commit_epoch;
        self.teardown(remove);
        for r in remove {
            // A removed id is retired for good — even a crashed one can
            // never rejoin under the new configuration.
            self.crashed.remove(r);
        }
        self.config = new_config;
        self.router = new_router;
        Ok(added)
    }

    /// Fetches every shard in `plan` from a `g − t` quorum of its *old*
    /// group and installs the merged registers on each planned receiver,
    /// all through one temporary coordinator endpoint.
    fn transfer_shards(
        &mut self,
        old_router: &Router,
        plan: &BTreeMap<u32, Vec<u32>>,
        window: Duration,
    ) -> Result<(), TransportError> {
        self.fetch_nonce += 1;
        let nonce = self.fetch_nonce;
        let endpoint = self.factory.open(COORDINATOR)?;
        let required = self.config.group_quorum();
        let fetch: Vec<(ProcessId, Msg)> = plan
            .keys()
            .flat_map(|&shard| {
                old_router
                    .group(shard)
                    .into_iter()
                    .map(move |s| (ProcessId::Server(s), Msg::ShardFetch { shard, nonce }))
            })
            .collect();
        let mut gathered: BTreeMap<u32, BTreeMap<ProcessId, Vec<RegisterTransfer>>> =
            plan.keys().map(|&s| (s, BTreeMap::new())).collect();
        let result = (|| {
            let quorate = |g: &BTreeMap<u32, BTreeMap<ProcessId, Vec<RegisterTransfer>>>| {
                g.values().all(|peers| peers.len() >= required)
            };
            let deadline = Instant::now() + window;
            let rebroadcast_every = (window / 10).max(Duration::from_millis(10));
            'fetch: while !quorate(&gathered) {
                if Instant::now() >= deadline {
                    break;
                }
                endpoint.send_batch(fetch.clone());
                let round_ends = (Instant::now() + rebroadcast_every).min(deadline);
                while !quorate(&gathered) {
                    let now = Instant::now();
                    if now >= round_ends {
                        break;
                    }
                    match endpoint.inbox().recv_timeout(round_ends - now) {
                        // Donor banks already run at the joint epoch, so
                        // replies arrive epoch-tagged: strip before matching.
                        Ok((from, msg)) => {
                            if let (_, Msg::ShardSnapshot { nonce: n, shard, registers }) =
                                msg.into_epoch_parts()
                            {
                                if n == nonce {
                                    if let Some(peers) = gathered.get_mut(&shard) {
                                        peers.insert(from, registers);
                                    }
                                }
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => break,
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break 'fetch,
                    }
                }
            }
            if !quorate(&gathered) {
                return Err(TransportError::Io { kind: std::io::ErrorKind::TimedOut });
            }
            // Install each shard's merged registers on its receivers and
            // wait for every (receiver, shard) ack — an uninstalled pair
            // covers no pre-joint write on that shard.
            let mut install: Vec<(ProcessId, Msg)> = Vec::new();
            let mut expected: std::collections::BTreeSet<(ProcessId, u32)> =
                std::collections::BTreeSet::new();
            for (&shard, receivers) in plan {
                let registers: Vec<RegisterTransfer> = gathered
                    .get(&shard)
                    .into_iter()
                    .flat_map(|peers| peers.values().flatten().cloned())
                    .collect();
                for &r in receivers {
                    let to = ProcessId::server(r);
                    expected.insert((to, shard));
                    install.push((
                        to,
                        Msg::ShardInstall { nonce, shard, registers: registers.clone() },
                    ));
                }
            }
            let mut acked: std::collections::BTreeSet<(ProcessId, u32)> =
                std::collections::BTreeSet::new();
            let deadline = Instant::now() + window;
            'install: while acked.len() < expected.len() {
                if Instant::now() >= deadline {
                    break;
                }
                endpoint.send_batch(install.clone());
                let round_ends = (Instant::now() + rebroadcast_every).min(deadline);
                while acked.len() < expected.len() {
                    let now = Instant::now();
                    if now >= round_ends {
                        break;
                    }
                    match endpoint.inbox().recv_timeout(round_ends - now) {
                        Ok((from, msg)) => {
                            if let (_, Msg::ShardInstallAck { nonce: n, shard }) =
                                msg.into_epoch_parts()
                            {
                                if n == nonce && expected.contains(&(from, shard)) {
                                    acked.insert((from, shard));
                                }
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => break,
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break 'install,
                    }
                }
            }
            if acked.len() < expected.len() {
                return Err(TransportError::Io { kind: std::io::ErrorKind::TimedOut });
            }
            Ok(())
        })();
        self.factory.close(COORDINATOR);
        drop(endpoint);
        result
    }

    /// Closes and joins the named banks (reconfiguration teardown).
    fn teardown(&mut self, ids: &[u32]) {
        for &id in ids {
            if let Some(pos) =
                self.servers.iter().position(|h| h.id() == ProcessId::server(id))
            {
                let handle = self.servers.swap_remove(pos);
                self.factory.close(ProcessId::server(id));
                handle.shutdown();
            }
        }
    }

    /// Indices of the currently-running servers, ascending.
    pub fn live_servers(&self) -> Vec<u32> {
        let mut live: Vec<u32> = self
            .servers
            .iter()
            .filter_map(|h| match h.id() {
                ProcessId::Server(s) => Some(s.index()),
                ProcessId::Client(_) => None,
            })
            .collect();
        live.sort_unstable();
        live
    }

    /// Shuts down all remaining servers; returns total requests handled.
    pub fn shutdown(self) -> u64 {
        self.servers.into_iter().map(ServerHandle::shutdown).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{LiveReader, LiveWriter};
    use mwr_types::{ReaderId, Value, WriterId};

    /// Per-key clients over *shared* endpoints, exactly as the facade mints
    /// them: one endpoint per client id, `Arc`-cloned into each key's
    /// scoped client so all keys multiplex the same pipelines.
    struct ClientHub<F: EndpointFactory> {
        writer_ep: std::sync::Arc<F::Endpoint>,
        reader_ep: std::sync::Arc<F::Endpoint>,
    }

    impl<F: EndpointFactory> ClientHub<F> {
        fn new(cluster: &KeyspaceCluster<F>) -> Self {
            ClientHub {
                writer_ep: std::sync::Arc::new(
                    cluster.factory().open(WriterId::new(0).into()).unwrap(),
                ),
                reader_ep: std::sync::Arc::new(
                    cluster.factory().open(ReaderId::new(0).into()).unwrap(),
                ),
            }
        }

        #[allow(clippy::type_complexity)]
        fn scoped(
            &self,
            cluster: &KeyspaceCluster<F>,
            key: RegisterId,
        ) -> (
            LiveWriter<std::sync::Arc<F::Endpoint>>,
            LiveReader<std::sync::Arc<F::Endpoint>>,
        ) {
            let config = cluster.config().group_config();
            let group = cluster.router().group_of(key);
            let w = LiveWriter::new(
                std::sync::Arc::clone(&self.writer_ep),
                WriterId::new(0),
                config,
                cluster.protocol().write_mode(),
            )
            .with_scope(key, group.clone())
            .with_view(cluster.view());
            let r = LiveReader::new(
                std::sync::Arc::clone(&self.reader_ep),
                ReaderId::new(0),
                config,
                cluster.protocol().read_mode(),
            )
            .with_scope(key, group)
            .with_view(cluster.view());
            (w, r)
        }
    }

    #[test]
    fn keyspace_cluster_end_to_end_on_one_key() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 1, 1).unwrap();
        let cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2Ra).unwrap();
        let key = RegisterId::new(7);
        let hub = ClientHub::new(&cluster);
        let (mut w, mut r) = hub.scoped(&cluster, key);
        let written = w.write(Value::new(70)).unwrap();
        assert_eq!(r.read().unwrap(), written);
        drop((w, r));
        assert!(cluster.shutdown() > 0);
    }

    /// Crash a server, keep writing on two keys whose groups contain it,
    /// rejoin, then crash a different group member: the quorum for both
    /// keys can now only assemble through the rejoined bank, so the reads
    /// prove the per-shard transfers carried real state.
    #[test]
    fn rejoined_bank_serves_quorums_per_shard() {
        let config = KeyspaceConfig::new(4, 1, 4, 4, 1, 1).unwrap();
        let cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R2).unwrap();
        // g = S = 4: every key's group is the whole cluster, so any server
        // serves every shard and the test controls membership exactly.
        let (k1, k2) = (RegisterId::new(1), RegisterId::new(2));
        let mut cluster = cluster;
        let hub = ClientHub::new(&cluster);
        let (mut w1, mut r1) = hub.scoped(&cluster, k1);
        let (mut w2, mut r2) = hub.scoped(&cluster, k2);
        w1.write(Value::new(10)).unwrap();
        w2.write(Value::new(20)).unwrap();
        cluster.crash_server(0);
        let d1 = w1.write(Value::new(11)).unwrap();
        let d2 = w2.write(Value::new(21)).unwrap();
        cluster.rejoin_server(0).unwrap();
        assert_eq!(cluster.live_servers(), vec![0, 1, 2, 3]);
        cluster.crash_server(1);
        let a1 = w1.write(Value::new(12)).unwrap();
        assert!(a1 > d1, "rejoined bank resumed k1's tags above the crash");
        assert_eq!(r1.read().unwrap(), a1, "k1 quorum through the rejoined bank");
        let a2 = r2.read().unwrap();
        assert!(a2 >= d2, "k2 never rewinds below its pre-rejoin write");
        assert_eq!(a2.value(), Value::new(21), "k2 state survived via transfer");
        drop((w1, r1, w2, r2));
        cluster.shutdown();
    }

    /// A rejoin with a starved shard quorum must refuse and withdraw its
    /// endpoint so the attempt can repeat.
    #[test]
    fn rejoin_without_shard_quorums_is_refused() {
        let config = KeyspaceConfig::new(3, 1, 3, 4, 1, 1).unwrap();
        let mut cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R2).unwrap();
        cluster.crash_server(0);
        cluster.crash_server(1);
        let window = Duration::from_millis(300);
        assert!(matches!(
            cluster.rejoin_server_within(0, window),
            Err(TransportError::Io { kind: std::io::ErrorKind::TimedOut })
        ));
        assert_eq!(cluster.live_servers(), vec![2]);
        assert!(cluster.rejoin_server_within(0, window).is_err());
        cluster.shutdown();
    }

    /// Per-shard handover: add two servers, retire two originals, and
    /// check both that every key keeps serving through its (possibly
    /// reshaped) group and that one key's post-handover writes never bleed
    /// into another key.
    #[test]
    fn keyspace_reconfigure_keeps_keys_serving_and_shards_isolated() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 1, 1).unwrap();
        let mut cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2Ra).unwrap();
        let hub = ClientHub::new(&cluster);
        let (k1, k2) = (RegisterId::new(1), RegisterId::new(7));
        let (mut w1, mut r1) = hub.scoped(&cluster, k1);
        let (mut w2, mut r2) = hub.scoped(&cluster, k2);
        let b1 = w1.write(Value::new(10)).unwrap();
        let b2 = w2.write(Value::new(20)).unwrap();

        let added = cluster.reconfigure(2, &[0, 1]).unwrap();
        assert_eq!(added, vec![5, 6]);
        assert_eq!(cluster.members(), vec![2, 3, 4, 5, 6]);
        assert_eq!(cluster.epoch(), mwr_types::ConfigEpoch::new(2));

        // Both keys survive the handover with their values intact, and the
        // same scoped clients keep serving over the re-routed groups.
        assert_eq!(r1.read().unwrap(), b1, "k1 state survived the handover");
        assert_eq!(r2.read().unwrap(), b2, "k2 state survived the handover");
        let a1 = w1.write(Value::new(11)).unwrap();
        assert!(a1 > b1, "tags never re-minted across epochs");
        assert_eq!(r1.read().unwrap(), a1);
        assert_eq!(r2.read().unwrap(), b2, "no cross-key bleed from k1's writes");
        drop((w1, r1, w2, r2));
        cluster.shutdown();
    }

    /// A keyspace handover with starved shard quorums refuses and rolls
    /// forward to the old routing.
    #[test]
    fn keyspace_reconfigure_refuses_without_shard_quorums() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 1, 1).unwrap();
        let mut cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2Ra).unwrap();
        // Four of five down: every group of 3 is missing at least two
        // members, so no shard's g − t = 2 donor quorum can assemble.
        for s in [0, 1, 2, 3] {
            cluster.crash_server(s);
        }
        let err = cluster
            .reconfigure_within(2, &[0], Duration::from_millis(300))
            .unwrap_err();
        assert!(matches!(err, TransportError::Io { kind: std::io::ErrorKind::TimedOut }));
        assert_eq!(cluster.members(), vec![0, 1, 2, 3, 4], "routing unchanged");
        assert_eq!(cluster.live_servers(), vec![4], "joiners torn down");
        assert_eq!(cluster.epoch(), mwr_types::ConfigEpoch::new(2), "rolled forward");
        cluster.shutdown();
    }

    /// The keyspace twin of the register cluster's rejoin-cycle test:
    /// same-victim then rotating crash → rejoin over TCP under traffic on
    /// two keys; per-shard snapshots ride back on the fetch's connection,
    /// so no rejoin waits for the re-broadcast (`fetch_timeout / 10`).
    #[test]
    fn tcp_keyspace_rejoin_cycles_never_wait_for_a_rebroadcast() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 1, 1).unwrap();
        let mut cluster =
            KeyspaceCluster::start_on(TcpRegistry::new(), config, Protocol::W2R1).unwrap();
        let hub = ClientHub::new(&cluster);
        // Back-to-back cycles can leave a round short of two servers (the
        // victim, plus a frame lost to the previous victim's dead socket),
        // so the clients retry like a deployment's do.
        let retry = crate::RetryPolicy::new(10, Duration::from_millis(10));
        let patience = Duration::from_millis(200);
        let patient = |(w, r): (LiveWriter<_>, LiveReader<_>)| {
            (w.with_timeout(patience).with_retry(retry), r.with_timeout(patience).with_retry(retry))
        };
        let (mut w1, mut r1) = patient(hub.scoped(&cluster, RegisterId::new(1)));
        let (mut w2, mut r2) = patient(hub.scoped(&cluster, RegisterId::new(2)));
        let fetch_timeout = Duration::from_secs(5);
        let done = std::sync::atomic::AtomicBool::new(false);
        let rejoins = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut i = 0;
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    for (w, r) in [(&mut w1, &mut r1), (&mut w2, &mut r2)] {
                        let written = w.write(Value::new(i)).expect("write through the cycles");
                        assert!(r.read().expect("read through the cycles") >= written);
                    }
                    i += 1;
                }
            });
            // Judged after the scope: a panic in here would leave the
            // traffic thread running and the scope waiting for it.
            let rejoins = [2, 2, 2, 2, 0, 1, 2, 3, 4, 0].map(|victim| {
                cluster.crash_server(victim);
                let started = Instant::now();
                let rejoined = cluster.rejoin_server_within(victim, fetch_timeout);
                (victim, rejoined, started.elapsed())
            });
            done.store(true, std::sync::atomic::Ordering::Release);
            rejoins
        });
        for (cycle, (victim, rejoined, took)) in rejoins.into_iter().enumerate() {
            rejoined.unwrap();
            assert!(
                took < fetch_timeout / 20,
                "cycle {cycle}: rejoin of server {victim} took {took:?}"
            );
        }
        drop((w1, r1, w2, r2));
        cluster.shutdown();
    }

    #[test]
    fn tcp_keyspace_cluster_end_to_end() {
        let config = KeyspaceConfig::new(3, 1, 3, 4, 1, 1).unwrap();
        let cluster =
            KeyspaceCluster::start_on(TcpRegistry::new(), config, Protocol::W2R1).unwrap();
        let key = RegisterId::new(3);
        let hub = ClientHub::new(&cluster);
        let (mut w, mut r) = hub.scoped(&cluster, key);
        let written = w.write(Value::new(30)).unwrap();
        assert_eq!(r.read().unwrap(), written);
        drop((w, r));
        assert!(cluster.shutdown() > 0);
    }
}
