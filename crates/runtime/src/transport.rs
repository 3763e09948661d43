//! Message transports for the live runtime.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crossbeam::channel::{bounded, select, unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
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

/// Registered routes by process id, each stamped with the registration
/// generation that minted it.
type RouteMap = HashMap<ProcessId, (u64, Route)>;

/// Where a message to a registered in-memory endpoint goes.
#[derive(Debug)]
enum Route {
    /// Into its inbox.
    Inbox(Sender<Inbound>),
    /// Through its handler, on the sender's thread (see
    /// [`InMemoryEndpoint::serve`]).
    Served(Arc<Served>),
}

/// A request handler, as [`Endpoint::serve`] takes it.
type Handler = Box<dyn FnMut(ProcessId, &Msg) -> Option<Msg> + Send>;

/// A served in-memory endpoint's handler, called by whichever thread sends
/// to the endpoint, one call at a time.
struct Served {
    /// The served endpoint's id and registration generation: the route a
    /// panic removes.
    id: ProcessId,
    generation: u64,
    /// `None` once serving stopped or the handler panicked.
    handler: Mutex<Option<Handler>>,
    /// The payload of the panic that crashed the handler.
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Served {
    /// Answers `msg` from `from`, or nothing once the handler is gone.
    /// `Err` if the handler panicked on it, which drops the handler.
    fn answer(&self, from: ProcessId, msg: &Msg) -> Result<Option<Msg>, ()> {
        let mut handler = self.handler.lock();
        let Some(call) = handler.as_mut() else { return Ok(None) };
        catch_unwind(AssertUnwindSafe(|| call(from, msg))).map_err(|payload| {
            *handler = None;
            *self.panicked.lock() = Some(payload);
        })
    }
}

impl fmt::Debug for Served {
    /// Takes no lock: a handler may be running.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Served").finish_non_exhaustive()
    }
}

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
    /// the whole fan-out. Both transports override it: on TCP, one
    /// pipeline-map lock for all the frames, then one write per frame; in
    /// memory ([`InMemoryEndpoint`]), one read of the route map and one
    /// clone of the sender's inbox `Sender`, then the served destinations'
    /// handlers. Either way no lock of the transport is held while a frame
    /// is written or a handler runs, so a handler may open or close
    /// endpoints on the transport it serves on. The default just loops
    /// over `send`.
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
    /// Both transports override it to answer where a message arrives, with
    /// no thread or inbox in between: [`InMemoryEndpoint`] runs the handler
    /// inside the sender's `send` and pushes the reply into the sender's
    /// inbox; on [`TcpEndpoint`](crate::TcpEndpoint) the registry's reactor
    /// runs it on each frame it decodes and writes the reply on the
    /// connection the frame came in on.
    ///
    /// The default, which a decorator that does not delegate `serve` runs
    /// (`Arc<E>`, for one), is a thread of its own (`mwr-bank-<id>`) over
    /// the inbox, replying with [`send`](Endpoint::send). Stopping it is
    /// checked before each next frame, so the thread stops at its next
    /// message and what its inbox still holds is dropped.
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
/// A message to an endpoint goes into its inbox — unless the endpoint is
/// served ([`InMemoryEndpoint::serve`]): then `send` runs its handler on
/// the sender's thread and only the reply crosses a channel. A broadcast
/// ([`Endpoint::send_batch`]) resolves its routes once, under one read of
/// the route map, and runs its handlers after that read is released.
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
    routes: Arc<RwLock<RouteMap>>,
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
        let prev = self.routes.write().insert(id, (generation, Route::Inbox(tx)));
        assert!(prev.is_none(), "duplicate endpoint {id}");
        InMemoryEndpoint { id, generation, transport: self.clone(), inbox: rx }
    }

    /// Removes a process's route (future sends to it fail).
    pub fn deregister(&self, id: ProcessId) {
        self.routes.write().remove(&id);
    }

    /// Removes `id` only if its registration generation still matches —
    /// the endpoint-Drop path, which must not race a re-registration.
    fn deregister_generation(&self, id: ProcessId, generation: u64) {
        let mut guard = self.routes.write();
        if guard.get(&id).is_some_and(|(g, _)| *g == generation) {
            guard.remove(&id);
        }
    }

    /// Delivers `msg` into `to`'s inbox, or answers it with `to`'s handler
    /// and delivers the reply into `from`'s. The handler runs with no lock
    /// of the transport held.
    fn send_from(&self, from: ProcessId, to: ProcessId, msg: Msg) -> Result<(), TransportError> {
        let guard = self.routes.read();
        let served = match guard.get(&to) {
            None => return Err(TransportError::UnknownDestination { to }),
            Some((_, Route::Inbox(tx))) => {
                return tx.send((from, msg)).map_err(|_| TransportError::Disconnected { to })
            }
            Some((_, Route::Served(served))) => Arc::clone(served),
        };
        let reply_to = inbox_of(&guard, from);
        drop(guard);
        self.run_handler(&served, from, &msg, reply_to.as_ref());
        Ok(())
    }

    /// Sends `from`'s broadcast under one read of the route map: a frame to
    /// an inbox is pushed while it is held, and each served destination's
    /// handler runs after it is released, its reply pushed into `from`'s
    /// inbox. Unknown and closed destinations are skipped.
    fn broadcast_from(&self, from: ProcessId, batch: Vec<(ProcessId, Msg)>) {
        let guard = self.routes.read();
        let reply_to = inbox_of(&guard, from);
        // `(Arc<Served>, Msg)` is the size of the batch's pairs, so the
        // collect can reuse the batch's buffer.
        let served: Vec<(Arc<Served>, Msg)> = batch
            .into_iter()
            .filter_map(|(to, msg)| match guard.get(&to)? {
                (_, Route::Inbox(tx)) => {
                    let _ = tx.send((from, msg));
                    None
                }
                (_, Route::Served(served)) => Some((Arc::clone(served), msg)),
            })
            .collect();
        drop(guard);
        for (served, msg) in served {
            self.run_handler(&served, from, &msg, reply_to.as_ref());
        }
    }

    /// Answers `msg` from `from` with a served endpoint's handler, which no
    /// lock of the transport may be held around, and pushes the reply into
    /// `reply_to`.
    fn run_handler(
        &self,
        served: &Served,
        from: ProcessId,
        msg: &Msg,
        reply_to: Option<&Sender<Inbound>>,
    ) {
        match served.answer(from, msg) {
            Ok(reply) => {
                if let (Some(tx), Some(reply)) = (reply_to, reply) {
                    // A dead client is not a server error.
                    let _ = tx.send((served.id, reply));
                }
            }
            // The panic crashed the served endpoint alone; its sender sees
            // message loss.
            Err(()) => self.deregister_generation(served.id, served.generation),
        }
    }
}

/// The inbox `Sender` of `id`, if it is registered and not served: where a
/// handler's replies to `id` go.
fn inbox_of(routes: &RouteMap, id: ProcessId) -> Option<Sender<Inbound>> {
    match routes.get(&id) {
        Some((_, Route::Inbox(tx))) => Some(tx.clone()),
        _ => None,
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

/// One process's handle on an [`InMemoryTransport`]. A served one
/// ([`serve`](Endpoint::serve)) has no thread: its handler runs on the
/// thread of whoever sends to it. A client's broadcast
/// ([`send_batch`](Endpoint::send_batch)) runs every served destination's
/// handler in turn, so the round's replies are in its inbox when the call
/// returns.
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

    /// One read of the route map and one clone of this endpoint's inbox
    /// `Sender` for the whole broadcast, not one of each per destination.
    /// The served destinations' handlers run after the read is released,
    /// so a handler may open or close endpoints on this transport.
    fn send_batch(&self, batch: Vec<(ProcessId, Msg)>) {
        self.transport.broadcast_from(self.id, batch);
    }

    fn inbox(&self) -> &Receiver<Inbound> {
        &self.inbox
    }

    /// Serving swaps this endpoint's route from its inbox to `handler`: a
    /// `send` to it runs the handler on the sender's thread, one call at a
    /// time, and pushes the reply into the sender's inbox. No thread, no
    /// wake, one channel hop per round trip. Frames already in the inbox
    /// stay there unanswered, as on TCP.
    ///
    /// A handler that panics crashes this endpoint alone: the sender's
    /// `send` returns `Ok` (the crash model's message loss), the handler is
    /// dropped and the route removed, and [`Serving::stop`] returns the
    /// panic. Stopping removes the route, then drops the handler once a
    /// call in flight returns, so no call starts after it returns.
    fn serve<H>(self, handler: H) -> Serving
    where
        Self: Sized + 'static,
        H: FnMut(ProcessId, &Msg) -> Option<Msg> + Send + 'static,
    {
        let served = Arc::new(Served {
            id: self.id,
            generation: self.generation,
            handler: Mutex::new(Some(Box::new(handler))),
            panicked: Mutex::new(None),
        });
        if let Some((generation, route)) = self.transport.routes.write().get_mut(&self.id) {
            if *generation == self.generation {
                *route = Route::Served(Arc::clone(&served));
            }
        }
        Serving::new(move || {
            self.transport.deregister_generation(self.id, self.generation);
            drop(served.handler.lock().take());
            let panicked = served.panicked.lock().take();
            panicked.map_or(Ok(()), Err)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_core::{OpHandle, OpId};
    use mwr_types::{ClientId, TaggedValue, Value};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};

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

    /// Spins (yielding) until `cond` holds; panics with `what` after 5 s.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "{what}");
            thread::yield_now();
        }
    }

    /// Runs `body` on a thread of its own and fails if it has not returned
    /// within 10 s, so that a deadlock fails the test instead of hanging
    /// the suite. The thread is detached on purpose (a deadlocked one
    /// cannot be joined); its outcome, panic included, comes back over the
    /// channel.
    fn watched(body: fn()) {
        let (done, finished) = bounded(1);
        thread::spawn(move || {
            let _ = done.send(catch_unwind(body));
        });
        let outcome =
            finished.recv_timeout(Duration::from_secs(10)).expect("deadlocked: no return within 10 s");
        outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    }

    fn query(seq: u64) -> Msg {
        Msg::Query { handle: OpHandle { op: OpId { client: ClientId::reader(0), seq }, phase: 1 } }
    }

    fn answer(msg: &Msg) -> Option<Msg> {
        match msg {
            Msg::Query { handle } => {
                Some(Msg::QueryAck { handle: *handle, latest: TaggedValue::initial() })
            }
            _ => None,
        }
    }

    /// A served endpoint's handler: answers every query — and panics on
    /// the one numbered `panic_on`.
    fn answering(panic_on: u64) -> impl FnMut(ProcessId, &Msg) -> Option<Msg> + Send + 'static {
        move |_, msg| match msg {
            Msg::Query { handle } if handle.op.seq == panic_on => panic!("marked query"),
            msg => answer(msg),
        }
    }

    /// Sends `query(seq)` to `server` and waits for its answer.
    fn round_trip(client: &InMemoryEndpoint, server: ProcessId, seq: u64) {
        client.send(server, query(seq)).unwrap();
        let (from, reply) = client.inbox().recv_timeout(Duration::from_secs(5)).expect("no answer");
        assert_eq!(from, server);
        assert!(matches!(reply, Msg::QueryAck { handle, .. } if handle.op.seq == seq), "{reply:?}");
    }

    /// A handler runs on whichever thread sends to its endpoint, so one
    /// that panics must crash its own endpoint and no other — and not the
    /// sender: its `send` returns `Ok` (the crash model's message loss),
    /// the crashed endpoint's route goes, a sibling answers on, and
    /// stopping the crashed one reports the panic.
    #[test]
    fn a_panicking_handler_crashes_its_endpoint_and_no_other() {
        watched(|| {
            let t = InMemoryTransport::new();
            let doomed = t.register(ProcessId::server(0)).serve(answering(7));
            let healthy = t.register(ProcessId::server(1)).serve(answering(u64::MAX));
            let client = t.register(ProcessId::reader(0));
            round_trip(&client, ProcessId::server(0), 0);
            round_trip(&client, ProcessId::server(1), 0);

            let sent =
                catch_unwind(AssertUnwindSafe(|| client.send(ProcessId::server(0), query(7))));
            assert!(matches!(sent, Ok(Ok(()))), "the sender saw the handler's panic: {sent:?}");
            wait_until("the crashed endpoint is still routed", || {
                client.send(ProcessId::server(0), query(8)).is_err()
            });
            assert!(
                client.inbox().recv_timeout(Duration::from_millis(50)).is_err(),
                "the crashed endpoint answered"
            );
            for seq in 1..=100 {
                round_trip(&client, ProcessId::server(1), seq);
            }
            let panic = doomed.stop().expect_err("the handler's panic is reported");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"marked query"));
            healthy.stop().expect("the other handler never panicked");
        });
    }

    /// Sets its flag when dropped.
    struct DropFlag(Arc<AtomicBool>);

    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// Stopping is synchronous however many threads keep sending: once
    /// `stop` returns the handler is dropped and no call of it starts, and
    /// every later send is dropped, never answered.
    #[test]
    fn stopping_is_synchronous_while_four_threads_keep_sending() {
        const SENDERS: u32 = 4;
        let t = InMemoryTransport::new();
        let (calls, late) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let (stopped, dropped) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
        let serving = t.register(ProcessId::server(0)).serve({
            let (calls, stopped) = (Arc::clone(&calls), Arc::clone(&stopped));
            let late = Arc::clone(&late);
            let flag = DropFlag(Arc::clone(&dropped));
            move |_, msg| {
                let _holds = &flag; // dropped with the handler
                late.fetch_add(u64::from(stopped.load(Ordering::SeqCst)), Ordering::SeqCst);
                calls.fetch_add(1, Ordering::SeqCst);
                thread::yield_now();
                answer(msg)
            }
        });
        let after_stop = Arc::new(AtomicU64::new(0));
        let answered: u64 = thread::scope(|scope| {
            let senders: Vec<_> = (0..SENDERS)
                .map(|c| {
                    let endpoint = t.register(ProcessId::reader(c));
                    let (stopped, after_stop) = (Arc::clone(&stopped), Arc::clone(&after_stop));
                    scope.spawn(move || {
                        let mut answered = 0u64;
                        // Each sender keeps going well past the stop.
                        let mut past_stop = 0;
                        for seq in 0.. {
                            let was_stopped = stopped.load(Ordering::SeqCst);
                            let sent = endpoint.send(ProcessId::server(0), query(seq));
                            if sent.is_ok() && was_stopped {
                                after_stop.fetch_add(1, Ordering::SeqCst);
                            }
                            answered += endpoint.inbox().try_iter().count() as u64;
                            past_stop += u32::from(was_stopped);
                            if past_stop == 1_000 {
                                break;
                            }
                        }
                        // A reply in flight lands before the sender's
                        // `send` returns, or in the server's thread's time.
                        while endpoint.inbox().recv_timeout(Duration::from_millis(50)).is_ok() {
                            answered += 1;
                        }
                        answered
                    })
                })
                .collect();
            wait_until("the senders never got going", || calls.load(Ordering::SeqCst) >= 4_000);
            serving.stop().expect("the handler never panicked");
            stopped.store(true, Ordering::SeqCst);
            assert!(dropped.load(Ordering::SeqCst), "the handler outlived `stop`");
            senders.into_iter().map(|s| s.join().expect("a sender panicked")).sum()
        });
        assert_eq!(late.load(Ordering::SeqCst), 0, "a handler call started after `stop` returned");
        let calls = calls.load(Ordering::SeqCst);
        assert_eq!(answered, calls, "every call answered once, and nothing else");
        assert_eq!(after_stop.load(Ordering::SeqCst), 0, "a send after `stop` found the endpoint");
    }

    /// A broadcast runs every served destination's handler with no lock of
    /// the transport held: a handler that opens and drops an endpoint on
    /// the same transport (the route map's write lock) returns when a
    /// `send_batch` reaches it. And a handler that panics in the middle of
    /// a batch crashes its own endpoint alone: the sender does not unwind,
    /// the destinations before and after it are answered, and only its
    /// route goes.
    #[test]
    fn a_broadcast_runs_its_handlers_with_no_transport_lock_held() {
        watched(|| {
            let t = InMemoryTransport::new();
            let minting = t.register(ProcessId::server(0)).serve({
                let t = t.clone();
                move |_, msg| {
                    drop(t.register(ProcessId::reader(9)));
                    answer(msg)
                }
            });
            let plain = t.register(ProcessId::server(1));
            let client = t.register(ProcessId::reader(0));
            client.send_batch(vec![
                (ProcessId::server(0), query(0)),
                (ProcessId::server(1), query(0)),
            ]);
            let (from, reply) = client.inbox().try_recv().expect("the minting handler's answer");
            assert_eq!(from, ProcessId::server(0));
            assert!(matches!(reply, Msg::QueryAck { .. }), "{reply:?}");
            assert_eq!(plain.inbox().len(), 1, "the unserved destination's frame");
            minting.stop().expect("the handler never panicked");
        });
        watched(|| {
            let t = InMemoryTransport::new();
            // The middle destination panics on query 7.
            let servings: Vec<Serving> = [u64::MAX, 7, u64::MAX]
                .into_iter()
                .zip(0..)
                .map(|(panic_on, s)| t.register(ProcessId::server(s)).serve(answering(panic_on)))
                .collect();
            let client = t.register(ProcessId::reader(0));
            let broadcast = |seq| {
                let batch = (0..3).map(|s| (ProcessId::server(s), query(seq))).collect();
                catch_unwind(AssertUnwindSafe(|| client.send_batch(batch)))
            };
            // Who answered since the last look, and to which query.
            let answered = || {
                let mut answers: Vec<(ProcessId, u64)> = client
                    .inbox()
                    .try_iter()
                    .map(|(from, reply)| match reply {
                        Msg::QueryAck { handle, .. } => (from, handle.op.seq),
                        reply => panic!("not an answer: {reply:?}"),
                    })
                    .collect();
                answers.sort();
                answers
            };
            let from = |servers: &[u32], seq| -> Vec<(ProcessId, u64)> {
                servers.iter().map(|&s| (ProcessId::server(s), seq)).collect()
            };
            assert!(broadcast(0).is_ok());
            assert_eq!(answered(), from(&[0, 1, 2], 0));
            assert!(broadcast(7).is_ok(), "the sender saw the handler's panic");
            assert_eq!(answered(), from(&[0, 2], 7), "a neighbour went unanswered");
            let crashed = client.send(ProcessId::server(1), query(8));
            assert!(crashed.is_err(), "the crashed route stayed");
            round_trip(&client, ProcessId::server(0), 9);
            round_trip(&client, ProcessId::server(2), 9);
            let mut stopped = servings.into_iter().map(Serving::stop);
            assert!(stopped.next().unwrap().is_ok());
            let panic = stopped.next().unwrap().expect_err("the handler's panic is reported");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"marked query"));
            assert!(stopped.next().unwrap().is_ok());
        });
    }

    /// A frame already in the inbox when the endpoint is served stays
    /// there unanswered, as on TCP: serving answers what is sent from
    /// then on.
    #[test]
    fn a_frame_queued_before_serving_stays_unanswered() {
        let t = InMemoryTransport::new();
        let server = t.register(ProcessId::server(0));
        let client = t.register(ProcessId::reader(0));
        client.send(ProcessId::server(0), query(0)).unwrap();
        let serving = server.serve(answering(u64::MAX));
        round_trip(&client, ProcessId::server(0), 1);
        assert!(
            client.inbox().recv_timeout(Duration::from_millis(50)).is_err(),
            "the frame sent before serving was answered"
        );
        serving.stop().expect("the handler never panicked");
    }
}
