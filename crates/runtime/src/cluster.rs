//! One-call live clusters, generic over the transport.
//!
//! [`RuntimeCluster`] is written once against [`EndpointFactory`]; the two
//! transports instantiate it as [`LiveCluster`] (crossbeam channels) and
//! [`TcpCluster`] (loopback sockets). Handle construction, fault injection
//! and shutdown therefore behave identically on both — a crashed TCP
//! server and a crashed in-memory server are the same operation.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mwr_core::{FastWire, JointQuorum, Msg, Protocol, RegisterServer, StateTransfer};
use mwr_types::{ClusterConfig, ConfigEpoch, ProcessId, ReaderId, ServerId, WriterId};

use crate::client::{LiveReader, LiveWriter};
use crate::server::{spawn_server_with, ServerHandle};
use crate::tcp::TcpRegistry;
use crate::transport::{Endpoint, EndpointFactory, InMemoryTransport, TransportError};
use crate::view::{ClusterView, ViewPlan, ViewState};

/// The process id reconfiguration coordinators open their temporary
/// endpoint under. It is a *server* id so that state-transfer messages pass
/// the servers' `from.as_server()` gate, but far outside any real member id
/// (members are minted monotonically from 0), so it can never collide with
/// a member, enter a client's scope, or touch the fast-read reply masks.
pub(crate) const COORDINATOR: ProcessId = ProcessId::Server(ServerId::new(u32::MAX - 1));

/// The server blueprint live clusters spawn: acknowledged-floor GC sized to
/// the cluster's client population, so server stores stay bounded once
/// every client keeps completing operations.
fn gc_server(config: &ClusterConfig) -> RegisterServer {
    RegisterServer::with_gc(config.readers() + config.writers())
}

/// A running live cluster over any [`EndpointFactory`]: all servers up,
/// clients on demand.
///
/// Most callers should not name this type: construct clusters through the
/// `mwr-register` facade (`mwr::register::Deployment`), which picks the
/// factory from its backend knob and layers wire/timeout configuration on
/// top.
///
/// # Examples
///
/// ```
/// use mwr_core::Protocol;
/// use mwr_runtime::{InMemoryTransport, RuntimeCluster};
/// use mwr_types::{ClusterConfig, Value};
///
/// let config = ClusterConfig::new(5, 1, 2, 2)?;
/// let cluster = RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1)?;
/// let mut writer = cluster.writer(0)?;
/// let mut reader = cluster.reader(0)?;
/// let written = writer.write(Value::new(9))?;
/// assert_eq!(reader.read()?, written);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct RuntimeCluster<F: EndpointFactory> {
    config: ClusterConfig,
    protocol: Protocol,
    factory: F,
    servers: Vec<ServerHandle>,
    /// Version beacons captured at crash time, keyed by server index: the
    /// pre-crash version high-water a rejoin must resume above.
    crashed: HashMap<u32, u64>,
    /// Monotone nonce distinguishing state-fetch rounds, so a straggler
    /// snapshot from an earlier rejoin can never corrupt a later one.
    fetch_nonce: u64,
    /// The current member server ids, ascending. Starts as `{0..S}`;
    /// reconfiguration removes ids and mints fresh ones — retired ids are
    /// never reused, so a straggler frame addressed to (or from) a removed
    /// server can never be confused with a later member.
    members: Vec<u32>,
    /// The next server id a reconfiguration will mint.
    next_server_id: u32,
    /// The configuration epoch the cluster is in (the view's epoch).
    epoch: ConfigEpoch,
    /// The shared view every minted client follows through
    /// reconfigurations.
    view: Arc<ClusterView>,
}

/// A running in-memory cluster: [`RuntimeCluster`] over crossbeam channels.
pub type LiveCluster = RuntimeCluster<InMemoryTransport>;

/// A running TCP cluster on loopback: [`RuntimeCluster`] over sockets.
pub type TcpCluster = RuntimeCluster<TcpRegistry>;

impl<F: EndpointFactory> RuntimeCluster<F> {
    /// Starts every server of `config` on its own thread over endpoints
    /// from `factory`, with acknowledged-floor GC enabled.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if a server endpoint cannot be opened
    /// (e.g. a socket cannot be bound).
    pub fn start_on(
        factory: F,
        config: ClusterConfig,
        protocol: Protocol,
    ) -> Result<Self, TransportError> {
        let mut servers = Vec::with_capacity(config.servers());
        for s in config.server_ids() {
            let endpoint = factory.open(ProcessId::Server(s))?;
            servers.push(spawn_server_with(endpoint, gc_server(&config)));
        }
        let members: Vec<u32> = (0..config.servers() as u32).collect();
        let view = ClusterView::stable(config.server_ids().collect(), config.quorum_size());
        Ok(RuntimeCluster {
            next_server_id: config.servers() as u32,
            config,
            protocol,
            factory,
            servers,
            crashed: HashMap::new(),
            fetch_nonce: 0,
            members,
            epoch: ConfigEpoch::ZERO,
            view,
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// The protocol clients will run.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The transport factory, for opening auxiliary endpoints.
    pub fn factory(&self) -> &F {
        &self.factory
    }

    /// The current member server ids, ascending. Identical to
    /// `0..config.servers()` until the first reconfiguration; afterwards
    /// removed ids are gone for good and added ids extend monotonically.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// The configuration epoch the cluster is in: 0 until the first
    /// reconfiguration, then `+2` per completed (or aborted) handover —
    /// one step into the joint window, one step out.
    pub fn epoch(&self) -> ConfigEpoch {
        self.epoch
    }

    /// The shared configuration view minted clients follow. Exposed so
    /// facade layers can attach it to clients they build around their own
    /// endpoints.
    pub fn view(&self) -> Arc<ClusterView> {
        Arc::clone(&self.view)
    }

    /// Creates writer `idx`'s blocking client.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if the client endpoint cannot be
    /// opened.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the writer was already created.
    pub fn writer(&self, idx: u32) -> Result<LiveWriter<F::Endpoint>, TransportError> {
        assert!((idx as usize) < self.config.writers(), "writer {idx} out of range");
        let id = WriterId::new(idx);
        Ok(LiveWriter::new(
            self.factory.open(id.into())?,
            id,
            self.config,
            self.protocol.write_mode(),
        )
        .with_view(self.view()))
    }

    /// Creates reader `idx`'s blocking client on the default
    /// [`FastWire::Delta`] wire.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if the client endpoint cannot be
    /// opened.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the reader was already created.
    pub fn reader(&self, idx: u32) -> Result<LiveReader<F::Endpoint>, TransportError> {
        self.reader_with_wire(idx, FastWire::default())
    }

    /// Creates reader `idx`'s blocking client with an explicit fast-read
    /// wire format ([`FastWire::FullInfo`] restores the paper's O(history)
    /// payloads, for comparison runs).
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if the client endpoint cannot be
    /// opened.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the reader was already created.
    pub fn reader_with_wire(
        &self,
        idx: u32,
        wire: FastWire,
    ) -> Result<LiveReader<F::Endpoint>, TransportError> {
        assert!((idx as usize) < self.config.readers(), "reader {idx} out of range");
        let id = ReaderId::new(idx);
        Ok(LiveReader::with_wire(
            self.factory.open(id.into())?,
            id,
            self.config,
            self.protocol.read_mode(),
            wire,
        )
        .with_view(self.view()))
    }

    /// Crashes server `idx`: removes it from the transport's delivery map
    /// and stops its thread. At most `t` crashes keep the register
    /// wait-free; on TCP the crashed server's listener closes, so cached
    /// client connections fail exactly like connections to a dead host.
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
        // Read the beacon *after* the join: it then covers every message
        // the server ever processed. This is the stable-storage version
        // record crash–recover models assume; rejoin resumes above it.
        self.crashed
            .insert(idx, beacon.load(std::sync::atomic::Ordering::Acquire));
    }

    /// Brings a crashed server back: opens a fresh endpoint (on TCP, a
    /// fresh listener re-registered under the same process id), fetches
    /// catch-up state from a **quorum** (`S − t`) of live peers via
    /// [`Msg::StateFetch`], installs the merged transfer with
    /// [`RegisterServer::recovered`], and only then spawns the serving
    /// thread — the rejoined server answers no quorum round before its
    /// state covers every completed operation (see the state-transfer
    /// soundness argument in `mwr-core`'s server module docs).
    ///
    /// Client requests arriving during the fetch window are dropped, which
    /// is indistinguishable from the crash lasting a moment longer.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] with [`std::io::ErrorKind::TimedOut`]
    /// if a quorum of peers does not answer the state fetch within 5
    /// seconds — fewer snapshots could miss a completed write, so the
    /// server refuses to rejoin (and may be retried later; the crash
    /// bookkeeping is preserved).
    ///
    /// # Panics
    ///
    /// Panics if the server is still running.
    pub fn rejoin_server(&mut self, idx: u32) -> Result<(), TransportError> {
        self.rejoin_server_within(idx, Duration::from_secs(5))
    }

    /// [`rejoin_server`](Self::rejoin_server) with an explicit state-fetch
    /// window.
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
        assert!(self.members.contains(&idx), "server {idx} is not a member");
        let version_floor = self.crashed.get(&idx).copied().unwrap_or(0);
        let endpoint = self.factory.open(ProcessId::server(idx))?;
        self.fetch_nonce += 1;
        let nonce = self.fetch_nonce;
        let batch: Vec<(ProcessId, Msg)> = self
            .members
            .iter()
            .filter(|&&s| s != idx)
            .map(|&s| (ProcessId::server(s), Msg::StateFetch { nonce }))
            .collect();
        let required = self.config.quorum_size();
        let mut transfers: BTreeMap<ProcessId, StateTransfer> = BTreeMap::new();
        let deadline = Instant::now() + fetch_timeout;
        // Re-broadcast the fetch periodically within the window: the round
        // is idempotent (snapshots dedupe by peer, stale nonces are
        // ignored), and any one frame can be lost in the crash model. A
        // reply normally rides back on the connection the fetch arrived on
        // (so the previous incarnation's sockets play no part), but a
        // donor can itself be mid-restart, or have a write time out. One
        // lost one-shot must not starve the quorum.
        let rebroadcast_every = (fetch_timeout / 10).max(Duration::from_millis(10));
        'fetch: while transfers.len() < required {
            if Instant::now() >= deadline {
                break;
            }
            endpoint.send_batch(batch.clone());
            let round_ends = (Instant::now() + rebroadcast_every).min(deadline);
            while transfers.len() < required {
                let now = Instant::now();
                if now >= round_ends {
                    break;
                }
                match endpoint.inbox().recv_timeout(round_ends - now) {
                    // Client traffic racing the fetch window is dropped:
                    // the server is not serving yet. Past epoch 0 replies
                    // arrive epoch-tagged; strip the header before
                    // matching.
                    Ok((from, msg)) => {
                        if let (_, Msg::StateSnapshot { nonce: n, state }) =
                            msg.into_epoch_parts()
                        {
                            if n == nonce {
                                transfers.insert(from, *state);
                            }
                        }
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => break,
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break 'fetch,
                }
            }
        }
        if transfers.len() < required {
            // Not enough peers: a partial transfer could miss a completed
            // write, so refuse to serve. Withdraw the endpoint.
            self.factory.close(ProcessId::server(idx));
            drop(endpoint);
            return Err(TransportError::Io { kind: std::io::ErrorKind::TimedOut });
        }
        let population = self.config.readers() + self.config.writers();
        let transfers: Vec<StateTransfer> = transfers.into_values().collect();
        let server = RegisterServer::recovered(population, version_floor, &transfers);
        let handle = spawn_server_with(endpoint, server);
        // The rejoined incarnation resumes in the cluster's current epoch:
        // its replies are tagged like every other member's, so a stale
        // client learns of any reconfiguration from its first ack.
        handle.announce_epoch(self.epoch);
        self.servers.push(handle);
        self.crashed.remove(&idx);
        Ok(())
    }

    /// Reconfigures the live server set: mints `add` fresh server ids and
    /// retires the members in `remove`, while clients keep serving.
    ///
    /// The handover runs the joint-quorum schedule (RAMBO-style, with
    /// viewstamp-like epochs in every frame past epoch 0):
    ///
    /// 1. **Join** — the added servers spawn empty and the shared view
    ///    flips to a *joint* epoch `e+1`: every client round now broadcasts
    ///    to the union and completes only with a quorum in **both** the old
    ///    and the new configuration, and every fast read is forced through
    ///    its write-back round. The epoch is then announced to all servers
    ///    (the fence): any round that completes on lower-epoch acks had all
    ///    its server-side effects before the announcement.
    /// 2. **Transfer** — a temporary coordinator endpoint fetches state
    ///    snapshots from an old-configuration quorum (`|old| − t`) and
    ///    installs the merge on every added server ([`Msg::StateInstall`],
    ///    the rejoin machinery on a running server). By the fence, that old
    ///    quorum covers every operation that ever completed without a
    ///    new-configuration quorum.
    /// 3. **Commit** — the view flips to a stable epoch `e+2` over the new
    ///    member set, the epoch is announced, and the removed servers are
    ///    torn down (endpoints closed, threads joined). Straggler acks from
    ///    removed servers no longer count: stable satisfaction counts
    ///    members only.
    ///
    /// If the transfer cannot assemble its old quorum or an install ack is
    /// missing within `window`, the reconfiguration **refuses to commit**:
    /// it rolls *forward* to a stable epoch over the unchanged old member
    /// set, tears the added servers down, and returns the timeout — client
    /// traffic is never left on a configuration that might miss a
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
    /// Crashed members need not rejoin first: with at most `t` of the old
    /// configuration down the transfer quorum still assembles (and a
    /// crashed id listed in `remove` is simply retired for good); with
    /// more than `t` down the handover refuses, exactly like every other
    /// quorum-starved round.
    ///
    /// # Panics
    ///
    /// Panics if `remove` names a non-member, if the change is empty, or
    /// if the resulting shape is invalid (e.g. quorums would not
    /// intersect).
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
        for &r in remove {
            assert!(self.members.contains(&r), "removed server {r} is not a member");
        }
        let old_members = self.members.clone();
        let added: Vec<u32> = (0..add as u32).map(|i| self.next_server_id + i).collect();
        let mut new_members: Vec<u32> = old_members
            .iter()
            .copied()
            .filter(|m| !remove.contains(m))
            .chain(added.iter().copied())
            .collect();
        new_members.sort_unstable();
        // Validates the new shape (including quorum intersection) before
        // anything is touched; t, R and W are unchanged.
        let new_config = self
            .config
            .reconfigured(new_members.len())
            .unwrap_or_else(|e| panic!("invalid reconfigured shape: {e}"));
        self.next_server_id += add as u32;

        // 1. Join: added servers spawn empty and serve immediately — sound
        // because every joint-window round also spans an old quorum (reads
        // are write-back-secured, and a query's maximum over the union is
        // its maximum over the old side it must include).
        for &id in &added {
            match self.factory.open(ProcessId::server(id)) {
                Ok(endpoint) => {
                    self.servers.push(spawn_server_with(endpoint, gc_server(&new_config)));
                }
                Err(e) => {
                    // Unwind the servers already added; nothing announced.
                    self.teardown(&added);
                    return Err(e);
                }
            }
        }
        let t = self.config.max_faults();
        let joint = JointQuorum::new(
            old_members.iter().map(|&s| ServerId::new(s)).collect(),
            old_members.len() - t,
            new_members.iter().map(|&s| ServerId::new(s)).collect(),
            new_members.len() - t,
        );
        let joint_epoch = self.epoch.next();
        // View before fence: by the time any server can tag a reply with
        // the joint epoch, clients can already read the joint plan.
        self.view.install(ViewState {
            epoch: joint_epoch,
            plan: ViewPlan::Joint { joint },
        });
        for h in &self.servers {
            h.announce_epoch(joint_epoch);
        }
        self.epoch = joint_epoch;

        // 2. Transfer: old-quorum fetch, install on every added server.
        if !added.is_empty() {
            if let Err(e) = self.transfer_state(&old_members, &added, window) {
                // Refuse to commit: roll forward to a stable epoch over the
                // unchanged old member set and tear the joiners down. Epochs
                // never go backwards, so in-flight rounds refresh cleanly.
                let abort_epoch = self.epoch.next();
                self.view.install(ViewState {
                    epoch: abort_epoch,
                    plan: ViewPlan::Stable {
                        targets: old_members.iter().map(|&s| ServerId::new(s)).collect(),
                        quorum: self.config.quorum_size(),
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

        // 3. Commit: stable view over the new members, then retire.
        let commit_epoch = self.epoch.next();
        self.view.install(ViewState {
            epoch: commit_epoch,
            plan: ViewPlan::Stable {
                targets: new_members.iter().map(|&s| ServerId::new(s)).collect(),
                quorum: new_config.quorum_size(),
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
        self.members = new_members;
        Ok(added)
    }

    /// Fetches a state snapshot from an old-configuration quorum and
    /// installs the merge on every server in `receivers`, all through one
    /// temporary coordinator endpoint.
    fn transfer_state(
        &mut self,
        donors: &[u32],
        receivers: &[u32],
        window: Duration,
    ) -> Result<(), TransportError> {
        self.fetch_nonce += 1;
        let nonce = self.fetch_nonce;
        let endpoint = self.factory.open(COORDINATOR)?;
        let required = donors.len() - self.config.max_faults();
        let fetch: Vec<(ProcessId, Msg)> = donors
            .iter()
            .map(|&s| (ProcessId::server(s), Msg::StateFetch { nonce }))
            .collect();
        let mut transfers: BTreeMap<ProcessId, StateTransfer> = BTreeMap::new();
        let result = (|| {
            // Same rebroadcast discipline as `rejoin_server_within`: the
            // fetch is idempotent and any one frame can be lost.
            let deadline = Instant::now() + window;
            let rebroadcast_every = (window / 10).max(Duration::from_millis(10));
            'fetch: while transfers.len() < required {
                if Instant::now() >= deadline {
                    break;
                }
                endpoint.send_batch(fetch.clone());
                let round_ends = (Instant::now() + rebroadcast_every).min(deadline);
                while transfers.len() < required {
                    let now = Instant::now();
                    if now >= round_ends {
                        break;
                    }
                    match endpoint.inbox().recv_timeout(round_ends - now) {
                        // Donors already run at the joint epoch, so their
                        // replies arrive epoch-tagged: strip before matching.
                        Ok((from, msg)) => {
                            if let (_, Msg::StateSnapshot { nonce: n, state }) =
                                msg.into_epoch_parts()
                            {
                                if n == nonce {
                                    transfers.insert(from, *state);
                                }
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => break,
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break 'fetch,
                    }
                }
            }
            if transfers.len() < required {
                return Err(TransportError::Io { kind: std::io::ErrorKind::TimedOut });
            }
            // Install the merged quorum state on every receiver and wait
            // for all acks — a receiver that has not installed covers no
            // pre-joint write, so committing without its ack is unsound.
            let transfers: Vec<StateTransfer> = transfers.values().cloned().collect();
            let install: Vec<(ProcessId, Msg)> = receivers
                .iter()
                .map(|&s| {
                    (
                        ProcessId::server(s),
                        Msg::StateInstall { nonce, transfers: transfers.clone() },
                    )
                })
                .collect();
            let mut acked: BTreeMap<ProcessId, ()> = BTreeMap::new();
            let deadline = Instant::now() + window;
            'install: while acked.len() < receivers.len() {
                if Instant::now() >= deadline {
                    break;
                }
                endpoint.send_batch(install.clone());
                let round_ends = (Instant::now() + rebroadcast_every).min(deadline);
                while acked.len() < receivers.len() {
                    let now = Instant::now();
                    if now >= round_ends {
                        break;
                    }
                    match endpoint.inbox().recv_timeout(round_ends - now) {
                        Ok((from, msg)) => {
                            if let (_, Msg::StateInstallAck { nonce: n }) = msg.into_epoch_parts() {
                                if n == nonce {
                                    acked.insert(from, ());
                                }
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => break,
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break 'install,
                    }
                }
            }
            if acked.len() < receivers.len() {
                return Err(TransportError::Io { kind: std::io::ErrorKind::TimedOut });
            }
            Ok(())
        })();
        self.factory.close(COORDINATOR);
        drop(endpoint);
        result
    }

    /// Closes and joins the named servers (reconfiguration teardown: the
    /// crash path without crash bookkeeping — these ids never come back).
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
    use mwr_types::Value;

    #[test]
    fn in_memory_cluster_end_to_end() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let mut w = cluster.writer(0).unwrap();
        let mut r = cluster.reader(0).unwrap();
        let written = w.write(Value::new(11)).unwrap();
        assert_eq!(r.read().unwrap(), written);
        assert!(cluster.shutdown() > 0);
    }

    #[test]
    fn cluster_survives_t_crashes() {
        let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
        let mut cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R2).unwrap();
        let mut w = cluster.writer(0).unwrap();
        let mut r = cluster.reader(0).unwrap();
        w.write(Value::new(1)).unwrap();
        cluster.crash_server(4);
        let written = w.write(Value::new(2)).unwrap();
        assert_eq!(r.read().unwrap(), written);
        cluster.shutdown();
    }

    /// Crash → rejoin → crash the *other* minority: the rejoined server
    /// must be serving real state, because after the second crash the
    /// quorum can only assemble through it.
    #[test]
    fn rejoined_server_serves_quorums_after_the_other_minority_crashes() {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let mut cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let mut w = cluster.writer(0).unwrap();
        let mut r = cluster.reader(0).unwrap();
        w.write(Value::new(1)).unwrap();
        cluster.crash_server(0);
        let during = w.write(Value::new(2)).unwrap();
        cluster.rejoin_server(0).unwrap();
        assert_eq!(cluster.live_servers(), vec![0, 1, 2]);
        // Crash a server that was up the whole time: any quorum now
        // includes the rejoined server 0.
        cluster.crash_server(1);
        let after = w.write(Value::new(3)).unwrap();
        assert!(after > during);
        assert_eq!(r.read().unwrap(), after, "quorum through the rejoined server");
        cluster.shutdown();
    }

    /// A rejoin without a live quorum of peers must refuse (a partial
    /// transfer could miss a completed write), withdraw its endpoint
    /// cleanly, and keep the crash bookkeeping so the attempt can repeat.
    #[test]
    fn rejoin_without_a_peer_quorum_is_refused() {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let mut cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let mut w = cluster.writer(0).unwrap();
        w.write(Value::new(1)).unwrap();
        cluster.crash_server(0);
        cluster.crash_server(1);
        // Only server 2 is alive: a quorum of 2 snapshots cannot assemble.
        let window = Duration::from_millis(300);
        assert!(matches!(
            cluster.rejoin_server_within(0, window),
            Err(TransportError::Io { kind: std::io::ErrorKind::TimedOut })
        ));
        assert_eq!(cluster.live_servers(), vec![2]);
        // The refused attempt withdrew its endpoint registration: a second
        // attempt opens it again (a leak would panic on the duplicate).
        assert!(cluster.rejoin_server_within(0, window).is_err());
        cluster.shutdown();
    }

    /// Rolling reconfiguration end to end: add two servers, retire two
    /// originals, keep the same clients writing and reading throughout,
    /// and finish with a quorum that can only assemble through the added
    /// servers — proving the handover transferred real state.
    #[test]
    fn reconfigure_add_and_remove_keeps_clients_serving() {
        let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
        let mut cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let mut w = cluster.writer(0).unwrap();
        let mut r = cluster.reader(0).unwrap();
        let before = w.write(Value::new(1)).unwrap();
        assert_eq!(r.read().unwrap(), before);

        let added = cluster.reconfigure(2, &[0, 1]).unwrap();
        assert_eq!(added, vec![5, 6], "fresh ids, never reusing retired ones");
        assert_eq!(cluster.members(), &[2, 3, 4, 5, 6]);
        assert_eq!(cluster.epoch(), ConfigEpoch::new(2), "joint then committed");
        assert_eq!(cluster.live_servers(), vec![2, 3, 4, 5, 6]);

        // The same clients keep serving in the new configuration; the
        // pre-reconfiguration write is still there.
        let read = r.read().unwrap();
        assert_eq!(read, before, "pre-handover write visible post-commit");
        let after = w.write(Value::new(2)).unwrap();
        assert!(after > before, "tags never re-minted across epochs");
        // Crash one survivor: every quorum of the new 5-server config now
        // includes both added servers.
        cluster.crash_server(2);
        assert_eq!(r.read().unwrap(), after, "quorum through the added servers");
        cluster.shutdown();
    }

    /// A reconfiguration that cannot assemble its old-configuration
    /// transfer quorum refuses to commit: it rolls forward to the old
    /// member set, tears the joiners down, and leaves the cluster shape
    /// unchanged.
    #[test]
    fn reconfigure_refuses_without_an_old_quorum() {
        let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
        let mut cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let mut w = cluster.writer(0).unwrap();
        w.write(Value::new(1)).unwrap();
        // Two of five down is beyond t = 1: the |old| − t = 4 snapshot
        // quorum can never assemble.
        cluster.crash_server(3);
        cluster.crash_server(4);
        let err = cluster
            .reconfigure_within(2, &[0], Duration::from_millis(300))
            .unwrap_err();
        assert!(matches!(err, TransportError::Io { kind: std::io::ErrorKind::TimedOut }));
        assert_eq!(cluster.members(), &[0, 1, 2, 3, 4], "member set unchanged");
        assert_eq!(cluster.live_servers(), vec![0, 1, 2], "joiners torn down");
        assert_eq!(cluster.epoch(), ConfigEpoch::new(2), "rolled forward, never back");
        cluster.shutdown();
    }

    /// Removing a crashed member retires its id for good.
    #[test]
    fn reconfigure_can_retire_a_crashed_member() {
        let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
        let mut cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let mut w = cluster.writer(0).unwrap();
        let before = w.write(Value::new(4)).unwrap();
        cluster.crash_server(1);
        let added = cluster.reconfigure(1, &[1]).unwrap();
        assert_eq!(added, vec![5]);
        assert_eq!(cluster.members(), &[0, 2, 3, 4, 5]);
        let mut r = cluster.reader(0).unwrap();
        assert_eq!(r.read().unwrap(), before);
        cluster.shutdown();
    }

    #[test]
    fn tcp_cluster_end_to_end() {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let cluster =
            RuntimeCluster::start_on(TcpRegistry::new(), config, Protocol::W2R1).unwrap();
        let mut w = cluster.writer(0).unwrap();
        let mut r = cluster.reader(0).unwrap();
        let written = w.write(Value::new(33)).unwrap();
        assert_eq!(r.read().unwrap(), written);
        assert!(cluster.shutdown() > 0);
    }

    #[test]
    fn tcp_cluster_survives_t_crashes() {
        let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
        let mut cluster =
            RuntimeCluster::start_on(TcpRegistry::new(), config, Protocol::W2R1).unwrap();
        let mut w = cluster.writer(0).unwrap();
        let mut r = cluster.reader(0).unwrap();
        w.write(Value::new(1)).unwrap();
        cluster.crash_server(0);
        let written = w.write(Value::new(2)).unwrap();
        assert_eq!(r.read().unwrap(), written, "fast read completes with a crashed minority");
        cluster.shutdown();
    }

    /// Crash → rejoin cycles over TCP under client traffic, hitting the
    /// same server repeatedly and then rotating through all of them. The
    /// donors answer a state fetch on the connection it arrived on, so no
    /// snapshot is addressed to the victim's previous incarnation and no
    /// rejoin has to wait for the re-broadcast (`fetch_timeout / 10`).
    #[test]
    fn tcp_rejoin_cycles_never_wait_for_a_rebroadcast() {
        let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
        let mut cluster =
            RuntimeCluster::start_on(TcpRegistry::new(), config, Protocol::W2R1).unwrap();
        // Back-to-back cycles can leave a round short of two servers (the
        // victim, plus a frame lost to the previous victim's dead socket),
        // so the clients retry like a deployment's do.
        let retry = crate::RetryPolicy::new(10, Duration::from_millis(10));
        let patience = Duration::from_millis(200);
        let mut w = cluster.writer(0).unwrap().with_timeout(patience).with_retry(retry);
        let mut r = cluster.reader(0).unwrap().with_timeout(patience).with_retry(retry);
        let fetch_timeout = Duration::from_secs(5);
        let done = std::sync::atomic::AtomicBool::new(false);
        let rejoins = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut i = 0;
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    let written = w.write(Value::new(i)).expect("write through the cycles");
                    assert!(r.read().expect("read through the cycles") >= written);
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
        cluster.shutdown();
    }
}
