//! Thread-per-server execution of the Algorithm 2 server: one thread body
//! driving a [`ServerBank`] of [`RegisterServer`](mwr_core::RegisterServer)s
//! (a single-register cluster is a bank of one).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use crossbeam::channel::{bounded, select, Sender};

use mwr_core::ServerBank;
use mwr_types::{ConfigEpoch, ProcessId};

use crate::transport::Endpoint;

/// A running server thread.
#[derive(Debug)]
pub struct ServerHandle {
    id: ProcessId,
    shutdown: Sender<()>,
    join: Option<JoinHandle<u64>>,
    version: Arc<AtomicU64>,
    epoch: Arc<AtomicU32>,
}

impl ServerHandle {
    /// The server's process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The server's published version high-water mark: the state's
    /// monotone version counter, updated by the server thread after every
    /// handled message.
    ///
    /// This is the live runtime's stand-in for the one stable-storage
    /// record crash–recover models customarily assume: a recovering
    /// process knows a bound on the state stamps it issued before the
    /// crash. [`KeyspaceCluster::crash_server`](crate::KeyspaceCluster::crash_server)
    /// — the one cluster manager's, whichever shape it runs — captures it at
    /// crash time and feeds it back to [`ServerBank::recovered`] on rejoin
    /// so the new incarnation resumes its version counter *above*
    /// everything the old one ever acknowledged to readers.
    pub fn version_floor(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The beacon cell itself, so a crash can join the thread first and
    /// *then* read the final version (the last message's bump included).
    pub(crate) fn beacon(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.version)
    }

    /// Announces a configuration epoch to the running server — the
    /// reconfiguration coordinator's fence. The server thread adopts the
    /// cell *before* handling each message, so from the moment this store
    /// returns, every reply the server produces is tagged `≥ epoch`: any
    /// round that later completes on lower-epoch acknowledgements had all
    /// its server-side effects before the announcement, and is therefore
    /// covered by any old-configuration quorum the handover's state
    /// transfer reads afterwards.
    ///
    /// Monotone (`fetch_max`): announcements racing a frame-carried
    /// adoption can only move the epoch forward.
    pub fn announce_epoch(&self, epoch: ConfigEpoch) {
        self.epoch.fetch_max(epoch.get(), Ordering::AcqRel);
    }

    /// Signals shutdown and waits for the thread; returns the number of
    /// requests the server handled.
    pub fn shutdown(mut self) -> u64 {
        let _ = self.shutdown.send(());
        self.join
            .take()
            .expect("handle joined twice")
            .join()
            .expect("server thread panicked")
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Best-effort shutdown; never block or fail in Drop (C-DTOR-FAIL).
        let _ = self.shutdown.send(());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Spawns a live cluster's server: a [`ServerBank`] of per-register
/// automata behind one endpoint, multiplexing every register by frame
/// header (bare frames are the default register's). The thread receives,
/// fences, handles, publishes and replies, one message at a time.
///
/// The returned handle's version beacon publishes the bank's *maximum*
/// version across registers — a conservative bound that a rejoin feeds back
/// as every rebuilt register's version floor (see
/// [`ServerBank::max_version`] for why an overestimate is sound).
///
/// # Panics
///
/// Panics if the OS refuses to spawn a thread.
pub fn spawn_bank_with(endpoint: impl Endpoint + 'static, mut bank: ServerBank) -> ServerHandle {
    let id = endpoint.id();
    let (shutdown_tx, shutdown_rx) = bounded::<()>(1);
    let version = Arc::new(AtomicU64::new(bank.max_version()));
    let beacon = Arc::clone(&version);
    let epoch = Arc::new(AtomicU32::new(bank.epoch().get()));
    let epoch_cell = Arc::clone(&epoch);
    let join = thread::Builder::new()
        .name(format!("mwr-bank-{id}"))
        .spawn(move || {
            let mut handled: u64 = 0;
            loop {
                select! {
                    recv(endpoint.inbox()) -> inbound => {
                        let Ok((from, msg)) = inbound else { return handled };
                        // Adopt any announced epoch before the message is
                        // processed: every reply from here on is tagged with
                        // at least the announced epoch (the reconfiguration
                        // fence — see `ServerHandle::announce_epoch`).
                        bank.set_epoch(ConfigEpoch::new(epoch_cell.load(Ordering::Acquire)));
                        let reply = bank.handle(from, &msg);
                        // Publish the version high-water *before* the reply
                        // leaves, so no reader ever holds an acknowledged
                        // version the beacon has not yet reported — a crash
                        // immediately after the send still recovers a floor
                        // covering that ack.
                        beacon.store(bank.max_version(), Ordering::Release);
                        if let Some(reply) = reply {
                            handled += 1;
                            // A dead client is not a server error.
                            let _ = endpoint.send(from, reply);
                        }
                    }
                    recv(shutdown_rx) -> _ => return handled,
                }
            }
        })
        .expect("failed to spawn server thread");
    ServerHandle { id, shutdown: shutdown_tx, join: Some(join), version, epoch }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InMemoryTransport;
    use mwr_core::{Msg, OpHandle, OpId, Router};
    use mwr_types::{ClientId, TaggedValue};
    use std::time::{Duration, Instant};

    #[test]
    fn server_replies_to_queries() {
        let transport = InMemoryTransport::new();
        let server_ep = transport.register(ProcessId::server(0));
        let client_ep = transport.register(ProcessId::reader(0));
        let handle = spawn_bank_with(server_ep, ServerBank::new(1, Router::new(1, 1, 1)));

        let op = OpHandle { op: OpId { client: ClientId::reader(0), seq: 0 }, phase: 1 };
        client_ep.send(ProcessId::server(0), Msg::Query { handle: op }).unwrap();
        let (from, reply) = client_ep
            .inbox()
            .recv_timeout(Duration::from_secs(5))
            .expect("reply");
        assert_eq!(from, ProcessId::server(0));
        assert_eq!(reply, Msg::QueryAck { handle: op, latest: TaggedValue::initial() });
        assert_eq!(handle.shutdown(), 1);
    }

    /// Four clients on four threads send one bank 5 000 queries each, in
    /// bursts of 50 with every reply awaited before the next burst, so the
    /// server thread keeps alternating between draining a backlog and
    /// parking in its `select!` until whichever client is first wakes it. A
    /// wake-up it sleeps through is a client that runs its watchdog down.
    #[test]
    fn a_bank_answers_every_query_of_four_bursting_clients() {
        const CLIENTS: u32 = 4;
        const BURSTS: u64 = 100;
        const BURST: u64 = 50;
        const WATCHDOG: Duration = Duration::from_secs(5);
        let transport = InMemoryTransport::new();
        let handle = spawn_bank_with(
            transport.register(ProcessId::server(0)),
            ServerBank::new(CLIENTS as usize, Router::new(1, 1, 1)),
        );
        thread::scope(|scope| {
            for c in 0..CLIENTS {
                let endpoint = transport.register(ProcessId::reader(c));
                scope.spawn(move || {
                    let server = ProcessId::server(0);
                    let op = |seq| OpHandle {
                        op: OpId { client: ClientId::reader(c), seq },
                        phase: 1,
                    };
                    for burst in 0..BURSTS {
                        let seqs = burst * BURST..(burst + 1) * BURST;
                        for seq in seqs.clone() {
                            endpoint.send(server, Msg::Query { handle: op(seq) }).unwrap();
                        }
                        // One FIFO inbox each way: replies come in order.
                        for seq in seqs {
                            let started = Instant::now();
                            let (_, reply) =
                                endpoint.inbox().recv_timeout(WATCHDOG).expect("reply");
                            assert!(started.elapsed() < WATCHDOG, "found as the wait expired");
                            assert!(
                                matches!(reply, Msg::QueryAck { handle, .. } if handle == op(seq)),
                                "{reply:?}"
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(handle.shutdown(), u64::from(CLIENTS) * BURSTS * BURST);
    }
}
