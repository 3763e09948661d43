//! Message transports for the live runtime.

use std::fmt;

use crossbeam::channel::{bounded, select, unbounded, Receiver, Sender};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use mwr_core::Msg;
use mwr_types::ProcessId;

/// Errors raised by transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The destination process is not registered with the transport.
    UnknownDestination {
        /// The unreachable process.
        to: ProcessId,
    },
    /// The destination's inbox is gone (process shut down).
    Disconnected {
        /// The closed process.
        to: ProcessId,
    },
    /// An I/O error (TCP transport). Carries the [`std::io::ErrorKind`]
    /// instead of a rendered string: classifying the failure stays a
    /// `match`, and the hot path never allocates a message that nobody
    /// reads.
    Io {
        /// The failure's kind, preserved from the originating
        /// [`std::io::Error`].
        kind: std::io::ErrorKind,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownDestination { to } => {
                write!(f, "no transport endpoint registered for {to}")
            }
            TransportError::Disconnected { to } => write!(f, "endpoint {to} is disconnected"),
            TransportError::Io { kind } => write!(f, "transport i/o error: {kind}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// An inbound message: sender plus payload.
pub type Inbound = (ProcessId, Msg);

/// Registered inboxes by process id, each stamped with the registration
/// generation that minted it.
type InboxMap = HashMap<ProcessId, (u64, Sender<Inbound>)>;

/// A transport that can mint [`Endpoint`]s on demand: the one seam the
/// generic live cluster needs. [`InMemoryTransport`] and
/// [`TcpRegistry`](crate::TcpRegistry) both implement it, which is how
/// `RuntimeCluster` (and the `mwr-register` facade above it) run the same
/// cluster logic over channels and over sockets.
pub trait EndpointFactory: Clone {
    /// The endpoint type this factory produces.
    type Endpoint: Endpoint + 'static;

    /// Opens the endpoint for process `id` and registers it for delivery.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if the endpoint cannot be created
    /// (e.g. a socket cannot be bound).
    fn open(&self, id: ProcessId) -> Result<Self::Endpoint, TransportError>;

    /// Removes process `id` from the delivery map: future sends to it fail
    /// (in-memory) or are black-holed (TCP) — the crash model either way.
    fn close(&self, id: ProcessId);
}

/// A process's endpoint on a transport: an inbox and the ability to send.
///
/// `Sync` is part of the contract: every method takes `&self`, and the
/// keyspace layer shares one endpoint across the per-register clients of a
/// handle (see the [`Arc`] blanket impl below).
pub trait Endpoint: Send + Sync {
    /// This endpoint's process identity.
    fn id(&self) -> ProcessId;

    /// Sends `msg` to `to`.
    ///
    /// Delivery is best-effort past the transport's bookkeeping: a
    /// destination the transport has never heard of fails with
    /// [`TransportError::UnknownDestination`], but a known peer that has
    /// since crashed need not be reported — on TCP the frame is dropped
    /// inside `send` when the connection cannot be (re)established, and
    /// `send` returns `Ok`: exactly the crash model's message loss.
    /// Callers that need to *observe* a dead peer must use timeouts (as
    /// the quorum round-trips do), not this result.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if the destination is unknown or its
    /// endpoint is already closed.
    fn send(&self, to: ProcessId, msg: Msg) -> Result<(), TransportError>;

    /// Sends every `(destination, message)` pair of `batch`, best-effort:
    /// per-destination failures are dropped rather than reported, because a
    /// dead peer is exactly the failure the quorum protocols tolerate (the
    /// single-destination [`send`](Endpoint::send) is the error-reporting
    /// path).
    ///
    /// This is the transport's batching seam: a round-trip broadcast is one
    /// call, so implementations can amortize their lookup locking across
    /// the whole fan-out (on TCP, one pipeline-map lock for all the
    /// frames, then one write per frame). The default just loops over
    /// `send`.
    fn send_batch(&self, batch: Vec<(ProcessId, Msg)>) {
        for (to, msg) in batch {
            let _ = self.send(to, msg);
        }
    }

    /// The receiving side of this endpoint's inbox.
    fn inbox(&self) -> &Receiver<Inbound>;

    /// Makes this endpoint a server: every request it receives from now on
    /// is answered with `handler(from, &request)` (no reply for `None`),
    /// until the returned [`Serving`] is stopped or dropped. Where the
    /// handler runs is the transport's choice, which is why the endpoint is
    /// taken by value: nothing else sends through a served endpoint.
    ///
    /// The default is a thread of its own (`mwr-bank-<id>`) over the inbox,
    /// replying with [`send`](Endpoint::send). Stopping it is checked
    /// before each next frame, so the thread stops at its next message and
    /// what its inbox still holds is dropped. [`TcpEndpoint`](crate::TcpEndpoint)
    /// overrides it: there the registry's reactor runs the handler on each
    /// frame it decodes and writes the reply on the connection the frame
    /// came in on, with no thread or inbox in between.
    ///
    /// # Panics
    ///
    /// The default panics if the OS refuses to spawn a thread.
    fn serve<H>(self, mut handler: H) -> Serving
    where
        Self: Sized + 'static,
        H: FnMut(ProcessId, &Msg) -> Option<Msg> + Send + 'static,
    {
        // Never sent on: dropping the sender is the stop.
        let (stop, stopped) = bounded::<()>(0);
        let join = thread::Builder::new()
            .name(format!("mwr-bank-{}", self.id()))
            .spawn(move || loop {
                // `select!` polls its arms in order: a stop is seen before
                // the next frame is taken.
                select! {
                    recv(stopped) -> _ => return,
                    recv(self.inbox()) -> inbound => {
                        let Ok((from, msg)) = inbound else { return };
                        if let Some(reply) = handler(from, &msg) {
                            // A dead client is not a server error.
                            let _ = self.send(from, reply);
                        }
                    }
                }
            })
            .expect("failed to spawn server thread");
        Serving::new(move || {
            drop(stop);
            join.join()
        })
    }
}

/// A served endpoint (see [`Endpoint::serve`]): stopping it — explicitly
/// or by dropping it — stops the handler, drops it and closes the endpoint
/// before it returns.
pub struct Serving {
    /// Stops serving; `Err` carries the payload of a handler that panicked.
    stop: Option<Box<dyn FnOnce() -> thread::Result<()> + Send + Sync>>,
}

impl Serving {
    /// A serving whose [`stop`](Self::stop) runs `stop`, for transports that
    /// override [`Endpoint::serve`].
    pub fn new(stop: impl FnOnce() -> thread::Result<()> + Send + Sync + 'static) -> Serving {
        Serving { stop: Some(Box::new(stop)) }
    }

    /// Stops serving and waits until the handler is dropped and the
    /// endpoint closed.
    ///
    /// # Errors
    ///
    /// Returns the panic payload if the handler panicked; it has stopped
    /// serving at that frame.
    pub fn stop(mut self) -> thread::Result<()> {
        self.stop.take().map_or(Ok(()), |stop| stop())
    }
}

impl fmt::Debug for Serving {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Serving").field("running", &self.stop.is_some()).finish()
    }
}

impl Drop for Serving {
    fn drop(&mut self) {
        // Best effort; never fail in Drop (C-DTOR-FAIL).
        if let Some(stop) = self.stop.take() {
            let _ = stop();
        }
    }
}

/// A shared endpoint is an endpoint: every method takes `&self`, so an
/// `Arc<E>` delegates directly.
///
/// This is the keyspace multiplexing seam — one physical endpoint (one
/// inbox, one TCP connection and send lock per peer) shared by the many
/// per-register clients a keyspace handle mints, so mixed-register traffic
/// shares the same connections instead of opening one socket set per key.
impl<E: Endpoint> Endpoint for Arc<E> {
    fn id(&self) -> ProcessId {
        (**self).id()
    }

    fn send(&self, to: ProcessId, msg: Msg) -> Result<(), TransportError> {
        (**self).send(to, msg)
    }

    fn send_batch(&self, batch: Vec<(ProcessId, Msg)>) {
        (**self).send_batch(batch);
    }

    fn inbox(&self) -> &Receiver<Inbound> {
        (**self).inbox()
    }
}

/// A process-addressed in-memory transport over crossbeam channels.
///
/// # Examples
///
/// ```
/// use mwr_runtime::{Endpoint, InMemoryTransport};
/// use mwr_core::Msg;
/// use mwr_types::ProcessId;
///
/// let transport = InMemoryTransport::new();
/// let a = transport.register(ProcessId::reader(0));
/// let b = transport.register(ProcessId::server(0));
/// a.send(ProcessId::server(0), Msg::InvokeRead)?;
/// let (from, msg) = b.inbox().recv().unwrap();
/// assert_eq!(from, ProcessId::reader(0));
/// assert_eq!(msg, Msg::InvokeRead);
/// # Ok::<(), mwr_runtime::TransportError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct InMemoryTransport {
    inboxes: Arc<RwLock<InboxMap>>,
    /// Monotone registration generation, so a late-dropped old endpoint
    /// can never evict a newer registration for the same id (churn mints
    /// and drops endpoints for the same slot concurrently).
    generation: Arc<std::sync::atomic::AtomicU64>,
}

impl InMemoryTransport {
    /// Creates an empty transport.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a process and returns its endpoint.
    ///
    /// Dropping the returned endpoint deregisters the process (unless a
    /// newer endpoint has re-registered the same id in the meantime), so
    /// short-lived churn clients can re-mint a slot without an explicit
    /// `deregister` call.
    ///
    /// # Panics
    ///
    /// Panics if the process is already registered.
    pub fn register(&self, id: ProcessId) -> InMemoryEndpoint {
        let (tx, rx) = unbounded();
        let generation = self
            .generation
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let prev = self.inboxes.write().insert(id, (generation, tx));
        assert!(prev.is_none(), "duplicate endpoint {id}");
        InMemoryEndpoint { id, generation, transport: self.clone(), inbox: rx }
    }

    /// Removes a process's inbox (future sends to it fail).
    pub fn deregister(&self, id: ProcessId) {
        self.inboxes.write().remove(&id);
    }

    /// Removes `id` only if its registration generation still matches —
    /// the endpoint-Drop path, which must not race a re-registration.
    fn deregister_generation(&self, id: ProcessId, generation: u64) {
        let mut guard = self.inboxes.write();
        if guard.get(&id).is_some_and(|(g, _)| *g == generation) {
            guard.remove(&id);
        }
    }

    fn send_from(&self, from: ProcessId, to: ProcessId, msg: Msg) -> Result<(), TransportError> {
        let guard = self.inboxes.read();
        let (_, tx) = guard
            .get(&to)
            .ok_or(TransportError::UnknownDestination { to })?;
        tx.send((from, msg))
            .map_err(|_| TransportError::Disconnected { to })
    }
}

impl EndpointFactory for InMemoryTransport {
    type Endpoint = InMemoryEndpoint;

    /// Opens an endpoint; infallible for the in-memory transport.
    ///
    /// # Panics
    ///
    /// Panics if the process is already registered.
    fn open(&self, id: ProcessId) -> Result<InMemoryEndpoint, TransportError> {
        Ok(self.register(id))
    }

    fn close(&self, id: ProcessId) {
        self.deregister(id);
    }
}

/// One process's handle on an [`InMemoryTransport`].
///
/// Dropping the endpoint deregisters its process from the transport —
/// generation-guarded, so dropping a stale endpoint after the same id has
/// been re-registered leaves the new registration untouched.
#[derive(Debug)]
pub struct InMemoryEndpoint {
    id: ProcessId,
    generation: u64,
    transport: InMemoryTransport,
    inbox: Receiver<Inbound>,
}

impl Drop for InMemoryEndpoint {
    fn drop(&mut self) {
        self.transport.deregister_generation(self.id, self.generation);
    }
}

impl Endpoint for InMemoryEndpoint {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn send(&self, to: ProcessId, msg: Msg) -> Result<(), TransportError> {
        self.transport.send_from(self.id, to, msg)
    }

    /// One read-lock acquisition for the whole broadcast instead of one
    /// per destination.
    fn send_batch(&self, batch: Vec<(ProcessId, Msg)>) {
        let guard = self.transport.inboxes.read();
        for (to, msg) in batch {
            if let Some((_, tx)) = guard.get(&to) {
                let _ = tx.send((self.id, msg));
            }
        }
    }

    fn inbox(&self) -> &Receiver<Inbound> {
        &self.inbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_types::Value;

    #[test]
    fn messages_flow_between_endpoints() {
        let t = InMemoryTransport::new();
        let client = t.register(ProcessId::writer(0));
        let server = t.register(ProcessId::server(0));
        client.send(ProcessId::server(0), Msg::InvokeWrite(Value::new(1))).unwrap();
        client.send(ProcessId::server(0), Msg::InvokeRead).unwrap();
        assert_eq!(server.inbox().len(), 2);
        let (from, _) = server.inbox().recv().unwrap();
        assert_eq!(from, ProcessId::writer(0));
    }

    #[test]
    fn unknown_destination_is_an_error() {
        let t = InMemoryTransport::new();
        let client = t.register(ProcessId::writer(0));
        assert_eq!(
            client.send(ProcessId::server(9), Msg::InvokeRead),
            Err(TransportError::UnknownDestination { to: ProcessId::server(9) })
        );
    }

    #[test]
    fn send_batch_is_best_effort_across_destinations() {
        let t = InMemoryTransport::new();
        let client = t.register(ProcessId::writer(0));
        let s0 = t.register(ProcessId::server(0));
        let s2 = t.register(ProcessId::server(2));
        // server(1) is never registered: its message is dropped, the rest
        // of the broadcast still lands.
        client.send_batch(vec![
            (ProcessId::server(0), Msg::InvokeRead),
            (ProcessId::server(1), Msg::InvokeRead),
            (ProcessId::server(2), Msg::InvokeRead),
        ]);
        assert_eq!(s0.inbox().len(), 1);
        assert_eq!(s2.inbox().len(), 1);
    }

    #[test]
    fn io_error_display_keeps_the_transport_prefix() {
        let e = TransportError::Io { kind: std::io::ErrorKind::ConnectionRefused };
        let rendered = e.to_string();
        assert!(rendered.starts_with("transport i/o error: "), "{rendered}");
    }

    #[test]
    fn deregistered_endpoint_becomes_unreachable() {
        let t = InMemoryTransport::new();
        let client = t.register(ProcessId::writer(0));
        let _server = t.register(ProcessId::server(0));
        t.deregister(ProcessId::server(0));
        assert!(client.send(ProcessId::server(0), Msg::InvokeRead).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate endpoint")]
    fn duplicate_registration_panics() {
        let t = InMemoryTransport::new();
        let _a = t.register(ProcessId::server(0));
        let _b = t.register(ProcessId::server(0));
    }

    /// Churn's lifecycle: drop the endpoint, re-mint the same slot.
    #[test]
    fn dropping_an_endpoint_frees_the_slot_for_reminting() {
        let t = InMemoryTransport::new();
        let client = t.register(ProcessId::writer(0));
        let first = t.register(ProcessId::reader(7));
        drop(first);
        // Would panic on a duplicate if Drop had not deregistered.
        let second = t.register(ProcessId::reader(7));
        client.send(ProcessId::reader(7), Msg::InvokeRead).unwrap();
        assert_eq!(second.inbox().len(), 1);
    }

    /// A stale endpoint dropped *after* its id was re-registered (explicit
    /// deregister + re-mint while the old handle lingers) must not evict
    /// the newer registration.
    #[test]
    fn late_drop_of_a_stale_endpoint_keeps_the_new_registration() {
        let t = InMemoryTransport::new();
        let client = t.register(ProcessId::writer(0));
        let stale = t.register(ProcessId::reader(7));
        t.deregister(ProcessId::reader(7));
        let fresh = t.register(ProcessId::reader(7));
        drop(stale); // generation mismatch: no-op
        client.send(ProcessId::reader(7), Msg::InvokeRead).unwrap();
        assert_eq!(fresh.inbox().len(), 1);
    }
}
