//! Thread-per-server execution of the Algorithm 2 server: one thread body
//! driving a [`ServerBank`] of [`RegisterServer`](mwr_core::RegisterServer)s
//! (a single-register cluster is a bank of one).
//!
//! The bank owns all of its state, its configuration epoch included. The
//! thread shares no cell with its [`ServerHandle`]: the handle reaches it
//! through one control channel — an announced epoch travels on it, and
//! dropping it stops the thread — and the thread hands back its version
//! high-water when it exits.

use std::thread::{self, JoinHandle};

use crossbeam::channel::{select, unbounded, Sender};

use mwr_core::ServerBank;
use mwr_types::{ConfigEpoch, ProcessId};

use crate::transport::Endpoint;

/// A running server thread: its id, the sending end of its control channel
/// and the thread itself, which returns what [`shutdown`](Self::shutdown)
/// reports.
#[derive(Debug)]
pub struct ServerHandle {
    id: ProcessId,
    control: Sender<ConfigEpoch>,
    join: Option<JoinHandle<(u64, u64)>>,
}

impl ServerHandle {
    /// The server's process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Announces a configuration epoch to the running server — the
    /// reconfiguration coordinator's fence. The server thread polls its
    /// control channel *before* its inbox, so from the moment this send
    /// returns, every message the server takes from its inbox is answered
    /// with a reply tagged `≥ epoch`: any round that later completes on
    /// lower-epoch acknowledgements had all its server-side effects before
    /// the announcement, and is therefore covered by any old-configuration
    /// quorum the handover's state transfer reads afterwards.
    ///
    /// Adoption is monotone ([`ServerBank::set_epoch`]): an announcement
    /// racing a frame-carried adoption can only move the epoch forward.
    pub fn announce_epoch(&self, epoch: ConfigEpoch) {
        // The thread outlives every announcement: only `shutdown` or `drop`
        // disconnects the channel.
        let _ = self.control.send(epoch);
    }

    /// Stops the thread and waits for it. Returns the number of requests
    /// the server answered and the bank's final version high-water
    /// ([`ServerBank::max_version`]).
    ///
    /// The version is the live runtime's stand-in for the one
    /// stable-storage record crash–recover models customarily assume: a
    /// recovering process knows a bound on the state stamps it issued
    /// before the crash. [`KeyspaceCluster::crash_server`](crate::KeyspaceCluster::crash_server)
    /// keeps it and feeds it back to [`ServerBank::recovered`] on rejoin, so
    /// the new incarnation resumes its version counter *above* everything
    /// the old one ever acknowledged to readers. It is read after the
    /// thread has stopped, so it covers every message the bank handled.
    ///
    /// The thread stops at its next message: requests still in its inbox
    /// are dropped, which the crash model allows (clients retry).
    pub fn shutdown(mut self) -> (u64, u64) {
        self.stop().expect("server thread panicked")
    }

    /// Disconnects the control channel and joins the thread.
    fn stop(&mut self) -> thread::Result<(u64, u64)> {
        // Dropping the only sender is the disconnect; a sender whose
        // receiver is already gone takes its place.
        drop(std::mem::replace(&mut self.control, unbounded().0));
        self.join.take().expect("handle joined twice").join()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Best-effort shutdown; never block or fail in Drop (C-DTOR-FAIL).
        if self.join.is_some() {
            let _ = self.stop();
        }
    }
}

/// Spawns a live cluster's server: a [`ServerBank`] of per-register
/// automata behind one endpoint, multiplexing every register by frame
/// header (bare frames are the default register's). The thread adopts any
/// announced epoch, then receives, handles and replies, one message at a
/// time; it serves in the epoch `bank` already holds
/// ([`ServerBank::set_epoch`]) until an announcement moves it.
///
/// When the handle disconnects the control channel the thread returns the
/// requests it answered and the bank's *maximum* version across registers
/// — a conservative bound that a rejoin feeds back as every rebuilt
/// register's version floor (see [`ServerBank::max_version`] for why an
/// overestimate is sound).
///
/// # Panics
///
/// Panics if the OS refuses to spawn a thread.
pub fn spawn_bank_with(endpoint: impl Endpoint + 'static, mut bank: ServerBank) -> ServerHandle {
    let id = endpoint.id();
    let (control, announced) = unbounded::<ConfigEpoch>();
    let join = thread::Builder::new()
        .name(format!("mwr-bank-{id}"))
        .spawn(move || {
            let mut handled: u64 = 0;
            loop {
                // `select!` polls its arms in order: an announcement sent
                // before a frame arrived is adopted before that frame is
                // handled (the fence — see `ServerHandle::announce_epoch`).
                select! {
                    recv(announced) -> epoch => match epoch {
                        Ok(epoch) => bank.set_epoch(epoch),
                        Err(_) => return (handled, bank.max_version()),
                    },
                    recv(endpoint.inbox()) -> inbound => {
                        let Ok((from, msg)) = inbound else {
                            return (handled, bank.max_version());
                        };
                        if let Some(reply) = bank.handle(from, &msg) {
                            handled += 1;
                            // A dead client is not a server error.
                            let _ = endpoint.send(from, reply);
                        }
                    }
                }
            }
        })
        .expect("failed to spawn server thread");
    ServerHandle { id, control, join: Some(join) }
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
        assert_eq!(handle.shutdown(), (1, 0), "a query registers nothing");
    }

    /// The reconfiguration fence: once `announce_epoch(e)` has returned, a
    /// request sent afterwards is answered at epoch `≥ e`, however soon it
    /// follows the announcement.
    #[test]
    fn a_query_sent_after_an_announcement_is_answered_in_its_epoch() {
        let transport = InMemoryTransport::new();
        let server_ep = transport.register(ProcessId::server(0));
        let client_ep = transport.register(ProcessId::reader(0));
        let handle = spawn_bank_with(server_ep, ServerBank::new(1, Router::new(1, 1, 1)));
        for e in 1..=200u32 {
            let epoch = ConfigEpoch::new(e);
            handle.announce_epoch(epoch);
            let op = OpId { client: ClientId::reader(0), seq: u64::from(e) };
            let query = Msg::Query { handle: OpHandle { op, phase: 1 } };
            client_ep.send(ProcessId::server(0), query).unwrap();
            let (_, reply) =
                client_ep.inbox().recv_timeout(Duration::from_secs(5)).expect("reply");
            assert!(reply.epoch() >= epoch, "announced {e}, answered {:?}", reply.epoch());
        }
        assert_eq!(handle.shutdown().0, 200);
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
        assert_eq!(handle.shutdown().0, u64::from(CLIENTS) * BURSTS * BURST);
    }
}
