//! The live cluster manager: one served [`ServerBank`] per server, with
//! crash, rejoin and reconfiguration walked once for every deployment shape.
//!
//! A live server is a bank of Algorithm 2 automata, lazily instantiated per
//! register and multiplexed over a single endpoint by the
//! [`Msg::ForRegister`] frame header; a [`Router`] assigns each register's
//! shard to a *group* of `g` servers, and every per-register guarantee holds
//! inside that group with `g` in place of `S`. A single-register cluster
//! ([`RuntimeCluster`](crate::RuntimeCluster)) is the degenerate instance:
//! one shard whose group is the whole member set (`g = S`, and it stays
//! `S` across reconfigurations), its clients' bare frames landing on
//! [`RegisterId::DEFAULT`] — so there is nothing it needs that a keyspace
//! does not already do.
//!
//! State moves between servers along one path, shard by shard: a rejoining
//! server sends one [`Msg::ShardFetch`] round per shard its groups assign
//! it, a handover's coordinator fetches each re-routed shard from its old
//! group and pushes it with [`Msg::ShardInstall`]. Every shard must
//! independently assemble a quorum (`g − t`) of peer snapshots: fewer could
//! miss a completed write on that shard, so one starved shard refuses the
//! whole rejoin or handover — per-register soundness is never traded for
//! availability.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mwr_core::{Msg, Protocol, RegisterTransfer, Router, ServerBank, StateTransfer, MAX_MEMBERS};
use mwr_types::{ConfigEpoch, ConfigError, KeyspaceConfig, ProcessId, RegisterId, ServerId};

use crate::server::{spawn_bank_with, ServerHandle};
use crate::tcp::TcpRegistry;
use crate::transport::{Endpoint, EndpointFactory, InMemoryTransport, TransportError};
use crate::view::{ClusterView, ViewPlan, ViewState};

/// The process id reconfiguration coordinators open their temporary
/// endpoint under. It is a *server* id so that state-transfer messages pass
/// the banks' `from.as_server()` gate, but far outside any real member id
/// (members are minted monotonically from 0), so it can never collide with
/// a member, enter a client's scope, or touch the fast-read reply masks.
const COORDINATOR: ProcessId = ProcessId::Server(ServerId::new(u32::MAX - 1));

/// One state-fetch round's harvest: shard → peer → that peer's
/// per-register exports, deduped by peer so a re-broadcast can never
/// double-count a snapshot toward quorum.
type Gathered = BTreeMap<u32, BTreeMap<ProcessId, Vec<RegisterTransfer>>>;

/// A running live cluster over any [`EndpointFactory`]: every server hosts
/// a [`ServerBank`], clients are minted per key by the `mwr-register`
/// facade's keyspace handle (or, for the one-register shape, by
/// [`RuntimeCluster`](crate::RuntimeCluster)).
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
    /// Whether the group is the whole member set and follows it through
    /// reconfigurations (a cluster started from a `ClusterConfig`), rather
    /// than keeping the configured `g`.
    whole_cluster: bool,
    protocol: Protocol,
    router: Router,
    factory: F,
    servers: Vec<ServerHandle>,
    /// The version high-water each crashed server's bank reported once it
    /// stopped serving (the max over the bank's registers): the floor every
    /// rebuilt register resumes above.
    crashed: HashMap<u32, u64>,
    /// Monotone nonce distinguishing state-fetch rounds, so a straggler
    /// snapshot from an earlier rejoin can never corrupt a later one.
    fetch_nonce: u64,
    /// The next server id a reconfiguration will mint. Retired ids are
    /// never reused, so a straggler frame addressed to (or from) a removed
    /// server can never be confused with a later member; the router's
    /// member bitset tracks the current set.
    next_server_id: u32,
    /// The shared view every client follows through reconfigurations.
    view: Arc<ClusterView>,
}

/// A running in-memory keyspace cluster.
pub type LiveKeyspaceCluster = KeyspaceCluster<InMemoryTransport>;

/// A running TCP keyspace cluster on loopback.
pub type TcpKeyspaceCluster = KeyspaceCluster<TcpRegistry>;

impl<F: EndpointFactory> KeyspaceCluster<F> {
    /// Starts every server of `config` as a [`ServerBank`] served on an
    /// endpoint from `factory` ([`spawn_bank_with`]), with acknowledged-floor
    /// GC sized to the client population (per register).
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if a server endpoint cannot be opened
    /// (e.g. a socket cannot be bound).
    pub fn start_on(
        factory: F,
        config: KeyspaceConfig,
        protocol: Protocol,
    ) -> Result<Self, TransportError> {
        Self::start(factory, config, protocol, false)
    }

    /// [`start_on`](Self::start_on), choosing whether the group follows the
    /// member set (see the `whole_cluster` field).
    pub(crate) fn start(
        factory: F,
        config: KeyspaceConfig,
        protocol: Protocol,
        whole_cluster: bool,
    ) -> Result<Self, TransportError> {
        let router = Router::for_keyspace(&config);
        let mut cluster = KeyspaceCluster {
            next_server_id: config.servers() as u32,
            config,
            whole_cluster,
            protocol,
            router,
            factory,
            servers: Vec::with_capacity(config.servers()),
            crashed: HashMap::new(),
            fetch_nonce: 0,
            view: ClusterView::new(router, config.max_faults()),
        };
        for s in config.server_ids() {
            cluster.spawn_empty_bank(s.index(), router)?;
        }
        Ok(cluster)
    }

    /// Opens server `id`'s endpoint and starts an empty bank on it.
    fn spawn_empty_bank(&mut self, id: u32, router: Router) -> Result<(), TransportError> {
        let endpoint = self.factory.open(ProcessId::server(id))?;
        self.servers.push(spawn_bank_with(endpoint, ServerBank::new(self.population(), router)));
        Ok(())
    }

    /// The client population (`R + W`) per-register GC is sized to.
    fn population(&self) -> usize {
        self.config.readers() + self.config.writers()
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

    /// The transport factory, for opening client and auxiliary endpoints.
    pub fn factory(&self) -> &F {
        &self.factory
    }

    /// The current member server ids, ascending (the router's bitset).
    /// `0..config.servers()` until the first reconfiguration; afterwards
    /// removed ids are gone for good and added ids extend monotonically.
    pub fn members(&self) -> Vec<u32> {
        self.router.member_ids().map(|s| s.index()).collect()
    }

    /// The configuration epoch the cluster is in: 0 until the first
    /// reconfiguration, then `+2` per completed (or aborted) handover —
    /// one step into the joint window, one step out.
    pub fn epoch(&self) -> ConfigEpoch {
        self.view.epoch()
    }

    /// The shared configuration view clients follow. Facade layers attach
    /// it to every client they mint, so clients re-derive their register's
    /// group from the *current* router at each operation.
    pub fn view(&self) -> Arc<ClusterView> {
        Arc::clone(&self.view)
    }

    /// Crashes server `idx`: removes it from the transport's delivery map,
    /// stops serving it ([`ServerHandle::shutdown`]), and records the
    /// version high-water its bank then reports (the max across the bank's
    /// registers) as the floor a rejoin resumes above. Requests it has not
    /// handled yet are lost with the crash: in memory those still in its
    /// inbox, on TCP those still unread on its sockets. At most `t` crashes
    /// per group keep its registers wait-free; on TCP the crashed server's
    /// listener and connections close, so cached client connections fail
    /// exactly like connections to a dead host.
    ///
    /// # Panics
    ///
    /// Panics if the server was already crashed.
    pub fn crash_server(&mut self, idx: u32) {
        let handle = self
            .withdraw(idx)
            .unwrap_or_else(|| panic!("server {idx} already crashed or unknown"));
        // Read after serving stopped, the version covers every message the
        // bank ever processed. This is the stable-storage
        // version record crash–recover models assume, shared by all of the
        // bank's registers; rejoin resumes above it.
        let (_, version) = handle.shutdown();
        self.crashed.insert(idx, version);
    }

    /// Brings a crashed server back with per-shard state transfer: opens a
    /// fresh endpoint (on TCP, a fresh listener re-registered under the
    /// same process id), runs one [`Msg::ShardFetch`] round per shard in
    /// [`Router::shards_on`]`(idx)`, each requiring a quorum (`g − t`) of
    /// that shard's surviving group members, and spawns a
    /// [`ServerBank::recovered`] bank only once **every** shard has its
    /// quorum — the rejoined server answers no quorum round before its
    /// state covers every completed operation (see the state-transfer
    /// soundness argument in `mwr-core`'s server module docs). Registers a
    /// peer never instantiated are simply absent from its snapshot — lazy
    /// instantiation means the peer processed no message for them, so the
    /// empty transfer is vacuously complete.
    ///
    /// Client requests arriving during the fetch window are dropped, which
    /// is indistinguishable from the crash lasting a moment longer — and so
    /// are those still in the endpoint's inbox when the bank is served, on
    /// both transports: a served endpoint answers what arrives from then on
    /// (in memory inside the sender's `send`, on TCP on the reactor), and a
    /// rejoined bank never reads its inbox.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] with [`std::io::ErrorKind::TimedOut`]
    /// if any shard's quorum does not assemble within 5 seconds — fewer
    /// snapshots could miss a completed write, so the server refuses to
    /// rejoin (and may be retried later; the crash bookkeeping is
    /// preserved).
    ///
    /// # Panics
    ///
    /// As [`rejoin_server_within`](Self::rejoin_server_within).
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
    /// Panics if the server is still running, or if `idx` is not a current
    /// member: an id a reconfiguration retired is in no shard group, so
    /// there is no state it could fetch and no quorum it could ever serve.
    pub fn rejoin_server_within(
        &mut self,
        idx: u32,
        fetch_timeout: Duration,
    ) -> Result<(), TransportError> {
        let me = ProcessId::server(idx);
        assert!(self.servers.iter().all(|h| h.id() != me), "server {idx} is still running");
        assert!(self.members().contains(&idx), "server {idx} is not a member");
        let version_floor = self.crashed.get(&idx).copied().unwrap_or(0);
        let endpoint = self.factory.open(me)?;
        self.fetch_nonce += 1;
        let shards = self.router.shards_on(ServerId::new(idx));
        let t = self.config.max_faults();
        let fetched =
            fetch_shards(&endpoint, &self.router, &shards, t, self.fetch_nonce, fetch_timeout);
        if fetched.is_err() {
            // One starved shard refuses the whole rejoin: a bank serving
            // shard A while shard B's transfer is partial could miss a
            // completed write on B. Withdraw the endpoint's registration;
            // the endpoint itself drops with the return.
            self.factory.close(me);
        }
        let gathered = fetched?;
        let mut transfers: BTreeMap<RegisterId, Vec<StateTransfer>> = BTreeMap::new();
        for export in gathered.into_values().flat_map(BTreeMap::into_values).flatten() {
            transfers.entry(export.register).or_default().push(export.state);
        }
        let mut bank =
            ServerBank::recovered(self.population(), self.router, version_floor, &transfers);
        // The rejoined incarnation resumes in the cluster's current epoch:
        // its replies are tagged like every other member's, so a stale
        // client learns of any reconfiguration from its first ack.
        bank.set_epoch(self.epoch());
        self.servers.push(spawn_bank_with(endpoint, bank));
        self.crashed.remove(&idx);
        Ok(())
    }

    /// The configuration a reconfiguration to `servers` members would
    /// commit: the same `t`, shards, `R` and `W`, with the group size kept
    /// (a keyspace) or following the member count (a single-register
    /// cluster) — revalidated from scratch, because quorum size and the
    /// fast-read bound move with it.
    ///
    /// # Errors
    ///
    /// As [`KeyspaceConfig::new`]: the target must still assemble quorums.
    pub fn reconfigured_config(&self, servers: usize) -> Result<KeyspaceConfig, ConfigError> {
        let c = &self.config;
        let group_size = if self.whole_cluster { servers } else { c.group_size() };
        KeyspaceConfig::new(
            servers,
            c.max_faults(),
            group_size,
            c.shards(),
            c.readers(),
            c.writers(),
        )
    }

    /// Reconfigures the live server set with per-shard handover: mints
    /// `add` fresh server ids, retires the members in `remove`, and
    /// re-routes every shard under the new rendezvous member set — while
    /// clients keep serving.
    ///
    /// The handover runs the joint-quorum schedule (RAMBO-style, with
    /// viewstamp-like epochs in every frame past epoch 0), per shard group:
    ///
    /// 1. **Join** — added banks spawn empty and the shared view flips to a
    ///    *joint* epoch `e+1`: each register's scope is now the union of its
    ///    old and new groups, a round completes only with a quorum (`g − t`
    ///    of that side's group) in **both**, and every fast read is forced
    ///    through its write-back round. The epoch is then announced to all
    ///    servers (the fence): any round that completes on lower-epoch acks
    ///    had all its server-side effects before the announcement.
    /// 2. **Transfer** — for every `(server, shard)` pair the new routing
    ///    adds (a joiner's shards, but also a *survivor* promoted into a
    ///    group when a removal changed the rendezvous ranking), a temporary
    ///    coordinator endpoint fetches the shard from a quorum of its old
    ///    group and installs the merge via [`Msg::ShardInstall`] (the
    ///    rejoin merge, on a running bank). By the fence, that old quorum
    ///    covers every operation that ever completed without a new-group
    ///    quorum. No quorum, no commit.
    /// 3. **Commit** — the view flips to a stable epoch `e+2` over the new
    ///    router, the epoch is announced, and the removed banks are torn
    ///    down (serving stopped, endpoints closed). Straggler acks from
    ///    removed servers no longer count: stable satisfaction counts
    ///    members only. Shards route only within their own groups, so a
    ///    handover on one shard never moves another shard's floors (no
    ///    cross-key bleed — pinned by the integration tests).
    ///
    /// If a shard's transfer cannot assemble its old quorum or an install
    /// ack is missing within `window`, the reconfiguration **refuses to
    /// commit**: it rolls *forward* to a stable epoch over the unchanged
    /// old routing, tears the added servers down, and returns the timeout —
    /// client traffic is never left on a configuration that might miss a
    /// completed write.
    ///
    /// Returns the added servers' ids (empty for a pure removal).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] with [`std::io::ErrorKind::TimedOut`]
    /// on a refused handover, or any endpoint-open error propagated from
    /// the transport.
    ///
    /// Crashed members need not rejoin first: with at most `t` of a shard's
    /// old group down its transfer quorum still assembles (and a crashed id
    /// listed in `remove` is simply retired for good); with more than `t`
    /// down the handover refuses, exactly like every other quorum-starved
    /// round.
    ///
    /// # Panics
    ///
    /// Panics if `remove` names a non-member, if the change is empty, if
    /// the resulting shape is invalid, or if the id space would outgrow
    /// [`MAX_MEMBERS`]: server ids live in the router's 128-bit member set
    /// and are never reused, so the `add`s of a cluster's lifetime sum to
    /// at most `MAX_MEMBERS − S` — on a single-register cluster too, whose
    /// fast-read reply masks already cap it at
    /// [`MAX_SLOTS`](mwr_core::MAX_SLOTS) = 128 servers.
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
        let (old_router, members) = (self.router, self.members());
        let mut new_mask = old_router.members();
        for &r in remove {
            assert!(members.contains(&r), "removed server {r} is not a member");
            new_mask &= !(1u128 << r);
        }
        assert!(
            (self.next_server_id as usize + add) <= MAX_MEMBERS,
            "server id space exhausted (max {MAX_MEMBERS} ids)"
        );
        let added: Vec<u32> = (0..add as u32).map(|i| self.next_server_id + i).collect();
        for &a in &added {
            new_mask |= 1u128 << a;
        }
        // Validates the new shape before anything is touched.
        let new_config = self
            .reconfigured_config(new_mask.count_ones() as usize)
            .unwrap_or_else(|e| panic!("invalid reconfigured shape: {e}"));
        let new_router =
            Router::with_members(new_mask, new_config.group_size() as u32, old_router.shards());
        self.next_server_id += add as u32;

        // 1. Join: added banks spawn empty under the new router and serve
        // immediately — sound because every joint-window round also spans
        // an old quorum (reads are write-back-secured, and a query's
        // maximum over the union is its maximum over the old side it must
        // include).
        for &id in &added {
            if let Err(e) = self.spawn_empty_bank(id, new_router) {
                // Unwind the servers already added; nothing announced.
                self.teardown(&added);
                return Err(e);
            }
        }
        let t = self.config.max_faults();
        self.enter_epoch(ViewPlan::Joint { old: old_router, new: new_router, t });

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
                // Refuse to commit: roll forward to a stable epoch over the
                // unchanged old routing and tear the joiners down. Epochs
                // never go backwards, so in-flight rounds refresh cleanly.
                self.enter_epoch(ViewPlan::Stable { router: old_router, t });
                self.teardown(&added);
                return Err(e);
            }
        }

        // 3. Commit: stable view over the new router, then retire.
        self.enter_epoch(ViewPlan::Stable { router: new_router, t });
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

    /// Moves the cluster one epoch forward under `plan`. View before
    /// fence: by the time any server can tag a reply with the new epoch,
    /// clients can already read the plan that describes it.
    fn enter_epoch(&mut self, plan: ViewPlan) {
        let epoch = self.epoch().next();
        self.view.install(ViewState { epoch, plan });
        for h in &self.servers {
            h.announce_epoch(epoch);
        }
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
        let result = (|| {
            let shards: Vec<u32> = plan.keys().copied().collect();
            let t = self.config.max_faults();
            let gathered = fetch_shards(&endpoint, old_router, &shards, t, nonce, window)?;
            // Install each shard's merged registers on its receivers and
            // wait for every (receiver, shard) ack — an uninstalled pair
            // covers no pre-joint write on that shard, so committing
            // without its ack is unsound.
            let mut install: Vec<(ProcessId, Msg)> = Vec::new();
            let mut unacked: BTreeSet<(ProcessId, u32)> = BTreeSet::new();
            for (&shard, receivers) in plan {
                let registers: Vec<RegisterTransfer> =
                    gathered[&shard].values().flatten().cloned().collect();
                for &r in receivers {
                    let to = ProcessId::server(r);
                    unacked.insert((to, shard));
                    let registers = registers.clone();
                    install.push((to, Msg::ShardInstall { nonce, shard, registers }));
                }
            }
            gather(&endpoint, install, window, &mut unacked, BTreeSet::is_empty, |left, from, msg| {
                if let Msg::ShardInstallAck { nonce: n, shard } = msg {
                    if n == nonce {
                        left.remove(&(from, shard));
                    }
                }
            })
        })();
        self.factory.close(COORDINATOR);
        drop(endpoint);
        result
    }

    /// Takes running server `id` off the transport's delivery map and out
    /// of the running set; the caller stops serving it.
    fn withdraw(&mut self, id: u32) -> Option<ServerHandle> {
        let pos = self.servers.iter().position(|h| h.id() == ProcessId::server(id))?;
        self.factory.close(ProcessId::server(id));
        Some(self.servers.swap_remove(pos))
    }

    /// Stops and closes the named banks (reconfiguration teardown: the
    /// crash path without crash bookkeeping — these ids never come back).
    fn teardown(&mut self, ids: &[u32]) {
        for &id in ids {
            if let Some(handle) = self.withdraw(id) {
                handle.shutdown();
            }
        }
    }

    /// Indices of the currently-running servers, ascending.
    pub fn live_servers(&self) -> Vec<u32> {
        let mut live: Vec<u32> =
            self.servers.iter().filter_map(|h| h.id().as_server()).map(|s| s.index()).collect();
        live.sort_unstable();
        live
    }

    /// Shuts down all remaining servers; returns total requests handled.
    pub fn shutdown(self) -> u64 {
        self.servers.into_iter().map(|h| h.shutdown().0).sum()
    }
}

/// One state-fetch round from `endpoint`: asks every other member of each
/// shard's group under `router` for the shard, until every shard has a
/// quorum (`g − t`) of snapshots. Groups differ per shard, so the batch is
/// assembled per shard rather than cluster-wide.
fn fetch_shards(
    endpoint: &impl Endpoint,
    router: &Router,
    shards: &[u32],
    t: usize,
    nonce: u64,
    window: Duration,
) -> Result<Gathered, TransportError> {
    let me = endpoint.id();
    let required = router.group_size() as usize - t;
    let batch: Vec<(ProcessId, Msg)> = shards
        .iter()
        .flat_map(|&shard| {
            router
                .group(shard)
                .into_iter()
                .map(ProcessId::Server)
                .filter(move |p| *p != me)
                .map(move |p| (p, Msg::ShardFetch { shard, nonce }))
        })
        .collect();
    let mut gathered: Gathered = shards.iter().map(|&s| (s, BTreeMap::new())).collect();
    gather(
        endpoint,
        batch,
        window,
        &mut gathered,
        |g| g.values().all(|peers| peers.len() >= required),
        |g, from, msg| {
            if let Msg::ShardSnapshot { nonce: n, shard, registers } = msg {
                if n == nonce {
                    if let Some(peers) = g.get_mut(&shard) {
                        peers.insert(from, registers);
                    }
                }
            }
        },
    )?;
    Ok(gathered)
}

/// The manager's one quorum-collection loop: broadcasts `batch` and feeds
/// every reply (epoch header stripped — past epoch 0 servers tag them) to
/// `absorb` until `done(state)` holds, for at most `window`.
///
/// The batch is re-broadcast every `max(window / 10, 10 ms)`: the rounds it
/// carries are idempotent (replies dedupe by peer, stale nonces are
/// ignored), and any one frame can be lost in the crash model. A reply
/// normally rides back on the connection the request arrived on (so a
/// rejoining server's previous incarnation's sockets play no part), but a
/// peer can itself be mid-restart, or have a write time out. One lost
/// one-shot must not starve the quorum.
///
/// Returns [`std::io::ErrorKind::TimedOut`] if the window closes (or the
/// endpoint disconnects) first.
fn gather<S>(
    endpoint: &impl Endpoint,
    batch: Vec<(ProcessId, Msg)>,
    window: Duration,
    state: &mut S,
    done: impl Fn(&S) -> bool,
    mut absorb: impl FnMut(&mut S, ProcessId, Msg),
) -> Result<(), TransportError> {
    const TIMED_OUT: TransportError = TransportError::Io { kind: std::io::ErrorKind::TimedOut };
    // An instant too far off to represent is `None`: no deadline (a window
    // of `Duration::MAX`), no further round.
    let deadline = Instant::now().checked_add(window);
    let rebroadcast_every = (window / 10).max(Duration::from_millis(10));
    let mut round_ends = Some(Instant::now());
    while !done(state) {
        let now = Instant::now();
        if deadline.is_some_and(|at| now >= at) {
            return Err(TIMED_OUT);
        }
        if round_ends.is_some_and(|at| now >= at) {
            endpoint.send_batch(batch.clone());
            round_ends = now.checked_add(rebroadcast_every);
        }
        let wake_at = [round_ends, deadline].into_iter().flatten().min();
        let left = wake_at.map_or(Duration::MAX, |at| at.saturating_duration_since(now));
        match endpoint.inbox().recv_timeout(left) {
            // Anything `absorb` does not recognise — client traffic racing
            // a rejoin's fetch window, say — is dropped: the server is not
            // serving yet.
            Ok((from, msg)) => absorb(state, from, msg.into_epoch_parts().1),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return Err(TIMED_OUT),
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::{LiveReader, LiveWriter};
    use mwr_types::{ReaderId, Value, WriterId};

    /// Raises its flag when dropped, returning or unwinding: a scoped test
    /// holds one over the flag its traffic thread polls, so a panic in the
    /// scope's body stops that thread and the scope can join it, instead
    /// of waiting for it forever.
    pub(crate) struct RaiseOnDrop<'a>(pub(crate) &'a std::sync::atomic::AtomicBool);

    impl Drop for RaiseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::Release);
        }
    }

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

    /// The floor a rejoin resumes above is the version the crashed bank
    /// reported once it stopped serving. With server 2 down, server 1 is in
    /// every quorum, so each completed write inserted its value there and
    /// registered the writer on it: at least two versions a write.
    #[test]
    fn a_crash_keeps_the_version_the_bank_thread_returns() {
        const WRITES: u64 = 25;
        let config = KeyspaceConfig::new(3, 1, 3, 1, 1, 1).unwrap();
        let mut cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R2).unwrap();
        let hub = ClientHub::new(&cluster);
        let (mut w, r) = hub.scoped(&cluster, RegisterId::new(1));
        cluster.crash_server(2);
        for i in 0..WRITES {
            w.write(Value::new(i)).unwrap();
        }
        cluster.crash_server(1);
        let floor = cluster.crashed[&1];
        assert!(floor >= 2 * WRITES, "server 1 crashed at version {floor}");
        drop((w, r));
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

    /// A window of `Duration::MAX` is "wait as long as it takes": the fetch
    /// has no deadline to compute and completes on its quorum.
    #[test]
    fn rejoin_within_an_unbounded_window_completes() {
        let config = KeyspaceConfig::new(3, 1, 3, 4, 1, 1).unwrap();
        let mut cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R2).unwrap();
        cluster.crash_server(0);
        cluster.rejoin_server_within(0, Duration::MAX).unwrap();
        assert_eq!(cluster.live_servers(), vec![0, 1, 2]);
        cluster.shutdown();
    }

    /// An id a reconfiguration retired is in no shard group: "every shard
    /// quorate" would hold vacuously over its zero shards and resurrect it
    /// as a running bank outside the member set.
    #[test]
    #[should_panic(expected = "is not a member")]
    fn rejoin_of_a_retired_id_is_refused() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 1, 1).unwrap();
        let mut cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2Ra).unwrap();
        cluster.reconfigure(1, &[0]).unwrap();
        let _ = cluster.rejoin_server_within(0, Duration::from_millis(200));
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
            let _stop = RaiseOnDrop(&done);
            // Judged after the scope, which joins the traffic thread first.
            [2, 2, 2, 2, 0, 1, 2, 3, 4, 0].map(|victim| {
                cluster.crash_server(victim);
                let started = Instant::now();
                let rejoined = cluster.rejoin_server_within(victim, fetch_timeout);
                (victim, rejoined, started.elapsed())
            })
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
