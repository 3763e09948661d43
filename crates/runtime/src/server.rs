//! A live server: a [`ServerBank`] of [`RegisterServer`](mwr_core::RegisterServer)s
//! answering through one served endpoint (a single-register cluster is a
//! bank of one).
//!
//! The bank is the endpoint's handler, so the transport's served slot owns
//! it: the one lock that slot takes for each request is the bank's only
//! lock, and [`ServerHandle::announce_epoch`] takes the same lock to move
//! the bank's epoch. Stopping hands the bank back, and the handle reads
//! what it answered from it. Where the handler runs is the transport's
//! business ([`Endpoint::serve`]), and on both it runs where the request
//! arrives: on TCP the registry's reactor calls it on each frame it reads,
//! and the reply leaves on the socket the request came in on; in memory
//! the sender's `send` calls it, and the reply goes straight to the sender.
//! A `mwr-bank-<id>` thread over the inbox is only the default, for an
//! endpoint decorator that does not delegate `serve`.

use std::any::Any;

use mwr_core::{Msg, ServerBank};
use mwr_types::{ConfigEpoch, ProcessId};

use crate::transport::{Endpoint, Handler, Serving};

/// The bank and the count of requests it answered: the server's handler,
/// owned by its served slot.
#[derive(Debug)]
struct Bank {
    bank: ServerBank,
    handled: u64,
}

impl Handler for Bank {
    fn handle(&mut self, from: ProcessId, msg: &Msg) -> Option<Msg> {
        let reply = self.bank.handle(from, msg);
        self.handled += u64::from(reply.is_some());
        reply
    }
}

/// A running server: its id and the endpoint serving its bank, which
/// [`shutdown`](Self::shutdown) stops.
#[derive(Debug)]
pub struct ServerHandle {
    id: ProcessId,
    serving: Serving,
}

impl ServerHandle {
    /// The server's process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Locks of the bank's served slot so far.
    #[cfg(test)]
    pub(crate) fn locks(&self) -> usize {
        self.serving.locks()
    }

    /// Announces a configuration epoch to the running server — the
    /// reconfiguration coordinator's fence. It takes the lock of the
    /// bank's served slot, which every request the bank answers is
    /// answered under, so from the moment this returns every request the
    /// server handles is answered with a reply tagged `≥ epoch`, on every
    /// transport: any round that later completes on lower-epoch
    /// acknowledgements had all its server-side effects before the
    /// announcement, and is therefore covered by any old-configuration
    /// quorum the handover's state transfer reads afterwards. A server
    /// whose handler panicked answers nothing, and is not told.
    ///
    /// Adoption is monotone ([`ServerBank::set_epoch`]): an announcement
    /// racing a frame-carried adoption can only move the epoch forward.
    pub fn announce_epoch(&self, epoch: ConfigEpoch) {
        self.serving.with(|bank: &mut Bank| bank.bank.set_epoch(epoch));
    }

    /// Stops serving — the endpoint is closed and the bank handed back
    /// before this returns — and reports the number of requests the server
    /// answered and the bank's final version high-water
    /// ([`ServerBank::max_version`]).
    ///
    /// The version is the live runtime's stand-in for the one
    /// stable-storage record crash–recover models customarily assume: a
    /// recovering process knows a bound on the state stamps it issued
    /// before the crash. [`KeyspaceCluster::crash_server`](crate::KeyspaceCluster::crash_server)
    /// keeps it and feeds it back to [`ServerBank::recovered`] on rejoin, so
    /// the new incarnation resumes its version counter *above* everything
    /// the old one ever acknowledged to readers. It is read once serving
    /// has stopped, so it covers every message the bank handled.
    ///
    /// Requests not yet handled are dropped, which the crash model allows
    /// (clients retry).
    ///
    /// # Panics
    ///
    /// Panics if the handler panicked while serving.
    pub fn shutdown(self) -> (u64, u64) {
        let handler: Box<dyn Any> = self.serving.stop().expect("server handler panicked");
        let bank = handler.downcast::<Bank>().expect("a server's handler is its bank");
        (bank.handled, bank.bank.max_version())
    }
}

/// Starts a live cluster's server: a [`ServerBank`] of per-register
/// automata behind one endpoint, multiplexing every register by frame
/// header (bare frames are the default register's). The server answers one
/// request at a time under its served slot's lock, in the epoch `bank`
/// already holds ([`ServerBank::set_epoch`]) until an announcement or a
/// frame moves it.
///
/// [`ServerHandle::shutdown`] reports the requests it answered and the
/// bank's *maximum* version across registers — a conservative bound that a
/// rejoin feeds back as every rebuilt register's version floor (see
/// [`ServerBank::max_version`] for why an overestimate is sound).
///
/// # Panics
///
/// As [`Endpoint::serve`]: the default panics if the OS refuses a thread.
pub fn spawn_bank_with(endpoint: impl Endpoint + 'static, bank: ServerBank) -> ServerHandle {
    let id = endpoint.id();
    let serving = endpoint.serve(Bank { bank, handled: 0 });
    ServerHandle { id, serving }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{TcpEndpoint, TcpRegistry};
    use crate::transport::InMemoryTransport;
    use mwr_core::{OpHandle, OpId, Router};
    use mwr_types::{ClientId, TaggedValue};
    use std::thread;
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

    /// The fence on TCP, where the bank answers on the registry's reactor
    /// and no thread of its own polls anything: the announcement takes the
    /// bank's lock, so a query sent after it returns is answered at `≥ e`.
    #[test]
    fn a_query_sent_after_an_announcement_is_answered_in_its_epoch_over_tcp() {
        let registry = TcpRegistry::new();
        let server_ep = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let client_ep = TcpEndpoint::bind(ProcessId::reader(0), &registry).unwrap();
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

    /// A handler that panics crashes its server, and shutting it down says
    /// so.
    #[test]
    #[should_panic(expected = "server handler panicked")]
    fn shutting_down_a_server_whose_handler_panicked_panics() {
        let transport = InMemoryTransport::new();
        let client_ep = transport.register(ProcessId::reader(0));
        let faulty = |_: ProcessId, _: &Msg| -> Option<Msg> { panic!("bank fault") };
        let handle = ServerHandle {
            id: ProcessId::server(0),
            serving: transport.register(ProcessId::server(0)).serve(faulty),
        };
        // The first send crashes it, which takes its route.
        let deadline = Instant::now() + Duration::from_secs(5);
        while client_ep.send(ProcessId::server(0), Msg::InvokeRead).is_ok() {
            assert!(Instant::now() < deadline, "the server never crashed");
            thread::yield_now();
        }
        handle.shutdown();
    }

    /// Four clients on four threads send one bank 5 000 queries each, in
    /// bursts of 50 with every reply awaited before the next burst. In
    /// memory the bank answers inside each client's `send`, so the four
    /// contend for its served slot's lock; on a thread path (a
    /// decorator that does not delegate `serve`) the server thread keeps
    /// alternating between draining a backlog and parking in its `select!`.
    /// A reply lost to either is a client that runs its watchdog down.
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
