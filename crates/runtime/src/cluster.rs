//! One-call single-register live clusters, generic over the transport.
//!
//! [`RuntimeCluster`] is the one-key face of the cluster manager
//! ([`KeyspaceCluster`]): it starts the manager with a whole-cluster group,
//! mints the unwrapped clients of [`RegisterId::DEFAULT`], and derefs to the
//! manager for everything else — so fault injection, rejoin,
//! reconfiguration and shutdown are the same code on a register and on a
//! keyspace, and on both transports ([`LiveCluster`] over crossbeam
//! channels, [`TcpCluster`] over loopback sockets).
//!
//! [`RegisterId::DEFAULT`]: mwr_types::RegisterId::DEFAULT

use std::borrow::{Borrow, BorrowMut};
use std::ops::{Deref, DerefMut};

use mwr_core::Protocol;
use mwr_types::{ClusterConfig, KeyspaceConfig, ReaderId, WriterId};

use crate::client::{LiveReader, LiveWriter};
use crate::keyspace::KeyspaceCluster;
use crate::tcp::TcpRegistry;
use crate::transport::{EndpointFactory, InMemoryTransport, TransportError};

/// A running single-register live cluster over any [`EndpointFactory`]:
/// all servers up, clients on demand. Everything but client minting is the
/// [`KeyspaceCluster`] it derefs to — `crash_server`, `rejoin_server`,
/// `reconfigure`, `members`, `epoch`, `view`, `live_servers`, ….
///
/// Most callers should not name this type: construct clusters through the
/// `mwr-register` facade (`mwr::register::Deployment`), whose `LiveHandle`
/// owns one — or, for a keyspace, a [`KeyspaceCluster`] — and layers the
/// timeout, retry and audit knobs on top.
///
/// # Examples
///
/// ```
/// use mwr_core::Protocol;
/// use mwr_runtime::{InMemoryTransport, RuntimeCluster};
/// use mwr_types::{ClusterConfig, Value};
///
/// let config = ClusterConfig::new(5, 1, 2, 2)?;
/// let mut cluster = RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1)?;
/// let mut writer = cluster.writer(0)?;
/// let mut reader = cluster.reader(0)?;
/// let written = writer.write(Value::new(9))?;
/// cluster.crash_server(4); // the manager's, through `Deref`
/// assert_eq!(reader.read()?, written);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct RuntimeCluster<F: EndpointFactory> {
    manager: KeyspaceCluster<F>,
}

/// A running in-memory cluster: [`RuntimeCluster`] over crossbeam channels.
pub type LiveCluster = RuntimeCluster<InMemoryTransport>;

/// A running TCP cluster on loopback: [`RuntimeCluster`] over sockets.
pub type TcpCluster = RuntimeCluster<TcpRegistry>;

impl<F: EndpointFactory> Deref for RuntimeCluster<F> {
    type Target = KeyspaceCluster<F>;

    fn deref(&self) -> &KeyspaceCluster<F> {
        &self.manager
    }
}

impl<F: EndpointFactory> DerefMut for RuntimeCluster<F> {
    fn deref_mut(&mut self) -> &mut KeyspaceCluster<F> {
        &mut self.manager
    }
}

/// The manager as a borrow, so code generic over "a register or a
/// keyspace" (`C: BorrowMut<KeyspaceCluster<F>>`, which a
/// [`KeyspaceCluster`] satisfies by itself) takes a `RuntimeCluster` too.
impl<F: EndpointFactory> Borrow<KeyspaceCluster<F>> for RuntimeCluster<F> {
    fn borrow(&self) -> &KeyspaceCluster<F> {
        &self.manager
    }
}

impl<F: EndpointFactory> BorrowMut<KeyspaceCluster<F>> for RuntimeCluster<F> {
    fn borrow_mut(&mut self) -> &mut KeyspaceCluster<F> {
        &mut self.manager
    }
}

impl<F: EndpointFactory> RuntimeCluster<F> {
    /// Starts every server of `config` on an endpoint from `factory`, with
    /// acknowledged-floor GC enabled: a keyspace of
    /// one shard whose group is the whole cluster, and stays the whole
    /// cluster through reconfigurations.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if a server endpoint cannot be opened
    /// (e.g. a socket cannot be bound).
    ///
    /// # Panics
    ///
    /// Panics if `config` has more than [`mwr_core::MAX_MEMBERS`] (128)
    /// servers: ids live in the router's member bitset, and fast-read reply
    /// masks cap a register at the same 128.
    pub fn start_on(
        factory: F,
        config: ClusterConfig,
        protocol: Protocol,
    ) -> Result<Self, TransportError> {
        let (servers, t) = (config.servers(), config.max_faults());
        let whole = KeyspaceConfig::new(servers, t, servers, 1, config.readers(), config.writers())
            .expect("a valid cluster is a valid one-shard keyspace with g = S");
        Ok(RuntimeCluster { manager: KeyspaceCluster::start(factory, whole, protocol, true)? })
    }

    /// The cluster configuration, as of the last committed reconfiguration.
    pub fn config(&self) -> ClusterConfig {
        self.manager.config().group_config()
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
        let config = self.config();
        assert!((idx as usize) < config.writers(), "writer {idx} out of range");
        let id = WriterId::new(idx);
        Ok(LiveWriter::new(
            self.factory().open(id.into())?,
            id,
            config,
            self.protocol().write_mode(),
        )
        .with_view(self.view()))
    }

    /// Creates reader `idx`'s blocking client, on the
    /// [`FastWire::Runs`](mwr_core::FastWire::Runs) wire like every live
    /// reader.
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
        let config = self.config();
        assert!((idx as usize) < config.readers(), "reader {idx} out of range");
        let id = ReaderId::new(idx);
        Ok(LiveReader::new(
            self.factory().open(id.into())?,
            id,
            config,
            self.protocol().read_mode(),
        )
        .with_view(self.view()))
    }

    /// Shuts down all remaining servers; returns total requests handled.
    pub fn shutdown(self) -> u64 {
        self.manager.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_types::{ConfigEpoch, Value};
    use std::time::{Duration, Instant};

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
            let _stop = crate::keyspace::tests::RaiseOnDrop(&done);
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
        cluster.shutdown();
    }
}
