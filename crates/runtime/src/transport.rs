//! Message transports for the live runtime.

use std::any::Any;
use std::fmt;
use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crossbeam::channel::{bounded, select, unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
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
    /// Into its inbox. The route holds the inbox's only strong `Sender`
    /// (its endpoint holds a [`Weak`] one), so removing the route
    /// disconnects the inbox.
    Inbox(Arc<Sender<Inbound>>),
    /// Through its handler, on the sender's thread (see
    /// [`InMemoryEndpoint::serve`]).
    Served(Arc<Served>),
}

/// What a served endpoint answers each request with ([`Endpoint::serve`]):
/// the reply to `msg` from `from`, if any.
///
/// Every `FnMut(ProcessId, &Msg) -> Option<Msg> + Send + 'static` closure
/// is one; written inline at a `serve` call, its parameters need their
/// types (`|from, msg: &Msg| …`), which this bound does not supply. A named
/// type that implements it is handed back when serving stops
/// ([`Serving::stop`]), which is how a server's bank is owned by its served
/// slot alone.
pub trait Handler: Any + Send {
    /// Answers one request.
    fn handle(&mut self, from: ProcessId, msg: &Msg) -> Option<Msg>;
}

impl<F> Handler for F
where
    F: FnMut(ProcessId, &Msg) -> Option<Msg> + Send + 'static,
{
    fn handle(&mut self, from: ProcessId, msg: &Msg) -> Option<Msg> {
        self(from, msg)
    }
}

impl fmt::Debug for dyn Handler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Handler")
    }
}

/// A served endpoint's slot: its handler and the stop/panic fence around
/// it, behind the one lock that every call takes. The transport that
/// serves the endpoint calls through it (in memory the sender's thread, on
/// TCP the registry's reactor, by default a thread of the endpoint's own),
/// and the endpoint's [`Serving`] reaches the handler and takes it back
/// through the same lock.
pub(crate) struct Served {
    slot: Mutex<Slot>,
    /// Locks of `slot`, counted where they are taken.
    #[cfg(test)]
    locks: std::sync::atomic::AtomicUsize,
}

/// What [`Served`]'s lock guards.
struct Slot {
    /// `None` once serving stopped or the handler panicked.
    handler: Option<Box<dyn Handler>>,
    /// The payload of the panic that crashed the handler.
    panicked: Option<Box<dyn Any + Send>>,
}

impl Served {
    /// A slot holding `handler`.
    pub(crate) fn new(handler: impl Handler) -> Arc<Served> {
        Arc::new(Served {
            slot: Mutex::new(Slot { handler: Some(Box::new(handler)), panicked: None }),
            #[cfg(test)]
            locks: Default::default(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Slot> {
        #[cfg(test)]
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.slot.lock()
    }

    /// Answers `msg` from `from` under the slot's one lock, or nothing once
    /// the handler is gone. `Err` if the handler panicked on it, which
    /// drops the handler and keeps the payload for [`Serving::stop`].
    pub(crate) fn answer(&self, from: ProcessId, msg: &Msg) -> Result<Option<Msg>, ()> {
        let mut slot = self.lock();
        let Some(handler) = slot.handler.as_mut() else { return Ok(None) };
        catch_unwind(AssertUnwindSafe(|| handler.handle(from, msg))).map_err(|payload| {
            slot.handler = None;
            slot.panicked = Some(payload);
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
    /// This is the transport's batching seam: a broadcast is one call, so
    /// implementations can amortize their lookup locking across the whole
    /// fan-out. [`InMemoryEndpoint`] overrides it: the served destinations'
    /// handlers run through the endpoint's route cache, which reads the
    /// route map only after the map changed or for a destination that is
    /// not served, and the handlers' replies are pushed into the sender's
    /// inbox at once. No lock of the transport is held while a frame is
    /// written or a handler runs, so a handler may open or close endpoints
    /// on the transport it serves on. The default, which TCP runs, just
    /// loops over `send`: one pipeline lookup and one write per frame.
    fn send_batch(&self, batch: Vec<(ProcessId, Msg)>) {
        for (to, msg) in batch {
            let _ = self.send(to, msg);
        }
    }

    /// One round trip's requests: sends every pair of `batch`, as
    /// [`send_batch`](Endpoint::send_batch) does, and leaves `batch` empty.
    /// A reply the transport has in hand before this returns may be
    /// appended to `replies` instead of crossing the inbox; every other
    /// reply arrives through the inbox as usual, so the caller takes
    /// `replies` first and the inbox after.
    ///
    /// The default is `send_batch`, with every reply through the inbox:
    /// decorators run it, and it hands the caller's buffer over by value, so
    /// the caller's next round allocates a new one. Both transports override
    /// it and leave the buffer empty with its capacity. [`InMemoryEndpoint`]:
    /// a served destination's handler runs inside this call, and its reply
    /// goes straight into `replies`, through no channel; `send`,
    /// `send_batch` and this differ there only in where the replies go.
    /// `TcpEndpoint` writes each frame from the borrowed buffer, and every
    /// reply comes through the inbox.
    fn round_trip(&self, batch: &mut Vec<(ProcessId, Msg)>, replies: &mut VecDeque<Inbound>) {
        let _ = replies;
        self.send_batch(mem::take(batch));
    }

    /// The receiving side of this endpoint's inbox.
    fn inbox(&self) -> &Receiver<Inbound>;

    /// Makes this endpoint a server: every request it receives from now on
    /// is answered with `handler` (no reply for `None`), until the returned
    /// [`Serving`] is stopped or dropped. Where the handler runs is the
    /// transport's choice, which is why the endpoint is taken by value:
    /// nothing else sends through a served endpoint. Wherever it runs, the
    /// handler sits in one served slot, whose one lock each call takes and
    /// through which [`Serving`] stops it and hands it back.
    ///
    /// Both transports override it to answer where a message arrives, with
    /// no thread or inbox in between: [`InMemoryEndpoint`] runs the handler
    /// inside the sender's `send` and hands the reply to the sender at
    /// once; on [`TcpEndpoint`](crate::TcpEndpoint) the registry's reactor
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
    fn serve<H>(self, handler: H) -> Serving
    where
        Self: Sized + 'static,
        H: Handler,
    {
        let served = Served::new(handler);
        // Never sent on: dropping the sender is the stop.
        let (stop, stopped) = bounded::<()>(0);
        let join = thread::Builder::new()
            .name(format!("mwr-bank-{}", self.id()))
            .spawn({
                let served = Arc::clone(&served);
                move || loop {
                    // `select!` polls its arms in order: a stop is seen before
                    // the next frame is taken.
                    select! {
                        recv(stopped) -> _ => return,
                        recv(self.inbox()) -> inbound => {
                            let Ok((from, msg)) = inbound else { return };
                            match served.answer(from, &msg) {
                                Ok(Some(reply)) => {
                                    // A dead client is not a server error.
                                    let _ = self.send(from, reply);
                                }
                                Ok(None) => {}
                                // The panic crashed this endpoint: it closes.
                                Err(()) => return,
                            }
                        }
                    }
                }
            })
            .expect("failed to spawn server thread");
        Serving::new(served, move || {
            drop(stop);
            join.join()
        })
    }
}

/// A served endpoint (see [`Endpoint::serve`]): stopping it — explicitly
/// or by dropping it — stops the handler and closes the endpoint before it
/// returns, and hands the handler back.
pub struct Serving {
    /// The handler's slot, shared with the transport that calls it.
    served: Arc<Served>,
    /// The transport's part of stopping: once it returns, no call of the
    /// handler starts. `Err` carries a panic of the serving thread.
    stop: Option<Box<dyn FnOnce() -> thread::Result<()> + Send + Sync>>,
}

impl Serving {
    /// A serving of the handler in `served` whose transport stops calling
    /// it with `stop`, for the transports' `serve`.
    pub(crate) fn new(
        served: Arc<Served>,
        stop: impl FnOnce() -> thread::Result<()> + Send + Sync + 'static,
    ) -> Serving {
        Serving { served, stop: Some(Box::new(stop)) }
    }

    /// Runs `f` on the handler under the lock each of its calls takes, so
    /// no request is answered while `f` runs and every one answered after
    /// it returns sees what `f` did. `None` once the handler is gone
    /// (stopped or panicked), or if it is not an `H`.
    pub(crate) fn with<H: Handler, R>(&self, f: impl FnOnce(&mut H) -> R) -> Option<R> {
        let mut slot = self.served.lock();
        let handler: &mut dyn Any = slot.handler.as_deref_mut()?;
        handler.downcast_mut().map(f)
    }

    /// Locks of the handler's slot so far.
    #[cfg(test)]
    pub(crate) fn locks(&self) -> usize {
        self.served.locks.load(Ordering::Relaxed)
    }

    /// Stops serving and hands the handler back: once this returns the
    /// endpoint is closed and no call of the handler starts or is still
    /// running.
    ///
    /// # Errors
    ///
    /// Returns the panic payload if the handler panicked; it has stopped
    /// serving at that frame, and is gone.
    pub fn stop(mut self) -> thread::Result<Box<dyn Handler>> {
        self.stop.take().map_or(Ok(()), |stop| stop())?;
        let mut slot = self.served.lock();
        match slot.panicked.take() {
            Some(payload) => Err(payload),
            None => Ok(slot.handler.take().expect("a handler goes only by a panic or a stop")),
        }
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
            drop(self.served.lock().handler.take());
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

    fn round_trip(&self, batch: &mut Vec<(ProcessId, Msg)>, replies: &mut VecDeque<Inbound>) {
        (**self).round_trip(batch, replies);
    }

    fn inbox(&self) -> &Receiver<Inbound> {
        (**self).inbox()
    }
}

/// A process-addressed in-memory transport over crossbeam channels.
///
/// A message to an endpoint goes into its inbox — unless the endpoint is
/// served ([`InMemoryEndpoint::serve`]): then `send` runs its handler on
/// the sender's thread, and the reply goes into the sender's inbox, or,
/// for a [`round_trip`](Endpoint::round_trip), straight into the caller's
/// reply buffer through no channel at all. The transport counts the
/// writes to its route map, and each endpoint keeps the served
/// destinations it resolved under the count it saw: a send whose
/// destinations are all cached under the current count reads neither the
/// map nor its lock, and the others are resolved under one read of the map
/// per send. No handler runs while that read is held.
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
    routes: Arc<Routes>,
}

/// The route map and the count of its writes.
#[derive(Debug, Default)]
struct Routes {
    map: RwLock<RouteMap>,
    /// Changes made to `map`, each counted under its write lock. A count
    /// read under the read lock names the map it was read with; a count
    /// read without the lock that still equals the one an endpoint cached
    /// its routes under says that none of them moved since. A
    /// registration's generation is the count of the write that made it,
    /// so a late-dropped old endpoint can never evict a newer registration
    /// for the same id (churn mints and drops endpoints for the same slot
    /// concurrently).
    writes: AtomicU64,
    /// Reads of `map` by a send that had to resolve a destination.
    #[cfg(test)]
    resolutions: std::sync::atomic::AtomicUsize,
    /// Channel operations by sends: pushes into an inbox, a frame's or a
    /// send's replies.
    #[cfg(test)]
    pushes: std::sync::atomic::AtomicUsize,
}

impl Routes {
    /// Counts one change to the map and returns its number. Called under
    /// the map's write lock by every change: a registration, a removal, a
    /// route swapped to a handler.
    fn count_write(&self) -> u64 {
        self.writes.fetch_add(1, Ordering::Release) + 1
    }
}

impl InMemoryTransport {
    /// Inbox pushes by this transport's sends so far.
    #[cfg(test)]
    pub(crate) fn pushes(&self) -> usize {
        self.routes.pushes.load(Ordering::Relaxed)
    }

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
        let tx = Arc::new(tx);
        let reply_to = Arc::downgrade(&tx);
        let (generation, prev) = {
            let mut map = self.routes.map.write();
            let generation = self.routes.count_write();
            (generation, map.insert(id, (generation, Route::Inbox(tx))))
        };
        assert!(prev.is_none(), "duplicate endpoint {id}");
        InMemoryEndpoint {
            id,
            generation,
            transport: self.clone(),
            inbox: rx,
            reply_to,
            cache: Mutex::default(),
        }
    }

    /// Removes a process's route (future sends to it fail).
    pub fn deregister(&self, id: ProcessId) {
        let mut map = self.routes.map.write();
        if map.remove(&id).is_some() {
            self.routes.count_write();
        }
    }

    /// Removes `id` only if its registration generation still matches —
    /// the endpoint-Drop path, which must not race a re-registration.
    fn deregister_generation(&self, id: ProcessId, generation: u64) {
        let mut map = self.routes.map.write();
        if map.get(&id).is_some_and(|(g, _)| *g == generation) {
            map.remove(&id);
            self.routes.count_write();
        }
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
/// thread of whoever sends to it. A client's round trip
/// ([`round_trip`](Endpoint::round_trip)) runs every served destination's
/// handler in turn and appends their replies to the caller's buffer, so
/// the round's replies are in hand when the call returns, and no channel
/// carried them.
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
    /// The `Sender` of this endpoint's own inbox, where the replies to its
    /// `send` and `send_batch` go. Weak: only the route map keeps the inbox
    /// connected, so removing this endpoint's route disconnects it (and its
    /// replies are dropped) as if the endpoint held nothing.
    reply_to: Weak<Sender<Inbound>>,
    /// What this endpoint's sends have resolved. A send takes it out for
    /// its whole length and puts it back after, so no lock of the endpoint
    /// is held while a handler runs.
    cache: Mutex<RouteCache>,
}

/// The served destinations an endpoint has resolved, and the buffer its
/// sends collect replies in.
#[derive(Debug, Default)]
struct RouteCache {
    /// The route map's write count `served` is valid under.
    writes: u64,
    /// Served destinations by id, each with its registration generation
    /// and its handler's slot: cached per destination, so a send to a
    /// different group of them still finds the ones it shares. Never an
    /// inbox's `Sender`, which would keep a removed route's inbox
    /// connected.
    served: Vec<(ProcessId, u64, Arc<Served>)>,
    /// Whether this endpoint's own route was in the map at its last read:
    /// a round trip's replies are handed over only then, so an endpoint
    /// whose route was removed, or whose id a newer endpoint holds, gets
    /// none. Every such change moves the write count, so the read that
    /// rebuilds the cache sees it.
    routed: bool,
    /// The frames of a send that the cache could not place, waiting for
    /// the route map's read to resolve them.
    pending: Vec<(ProcessId, Msg)>,
    /// A `send` or `send_batch`'s replies, pushed into the inbox at once.
    replies: VecDeque<Inbound>,
}

impl Drop for InMemoryEndpoint {
    fn drop(&mut self) {
        self.transport.deregister_generation(self.id, self.generation);
    }
}

impl InMemoryEndpoint {
    /// The one send path, for `send`, `send_batch` and `round_trip` alike;
    /// they differ only in where the replies go: `round`'s buffer, or, for
    /// `None`, this endpoint's inbox with one push.
    ///
    /// A destination cached as served under the current write count costs
    /// no read of the route map, and its handler runs at once. The others
    /// wait, and are resolved under one read for the whole batch: an
    /// inbox's frame is pushed there, in order, a served destination joins
    /// the cache, and an unknown id is an error. Their handlers run after
    /// the read is released, so no handler runs with a lock of the
    /// transport or of this endpoint held. A handler that panics crashes
    /// its own endpoint: its route goes, the rest of the batch is
    /// delivered.
    ///
    /// Returns the first destination's failure; the others are still sent.
    fn deliver(
        &self,
        batch: impl IntoIterator<Item = (ProcessId, Msg)>,
        round: Option<&mut VecDeque<Inbound>>,
    ) -> Result<(), TransportError> {
        let routes = &self.transport.routes;
        let mut cache = mem::take(&mut *self.cache.lock());
        let RouteCache { writes, served, routed, pending, replies: for_inbox } = &mut cache;
        let to_inbox = round.is_none();
        let replies = round.unwrap_or(for_inbox);
        let before = replies.len();
        // Pairs with the `Release` of `count_write`: a send made after a
        // change (after `Serving::stop` returned, say) reads its count.
        if *writes != routes.writes.load(Ordering::Acquire) {
            served.clear();
        }
        let cached = |served: &[(ProcessId, u64, Arc<Served>)], to: &ProcessId| {
            served.iter().position(|(id, ..)| id == to)
        };
        for (to, msg) in batch {
            match cached(served, &to) {
                Some(at) => self.call(&served[at], &msg, replies),
                None => pending.push((to, msg)),
            }
        }
        let mut failed = None;
        if !pending.is_empty() {
            let map = routes.map.read();
            #[cfg(test)]
            routes.resolutions.fetch_add(1, Ordering::Relaxed);
            // A cache emptied above takes this read's count. One that still
            // holds entries keeps theirs: what this read adds is no older,
            // and a change since moves the count past both.
            if served.is_empty() {
                *writes = routes.writes.load(Ordering::Relaxed);
            }
            *routed = map.get(&self.id).is_some_and(|(generation, _)| *generation == self.generation);
            let unserved = pending.extract_if(.., |(to, _)| match map.get(to) {
                Some((generation, Route::Served(handler))) => {
                    if cached(served, to).is_none() {
                        served.push((*to, *generation, Arc::clone(handler)));
                    }
                    false
                }
                _ => true,
            });
            for (to, msg) in unserved {
                let Some((_, Route::Inbox(tx))) = map.get(&to) else {
                    failed.get_or_insert(TransportError::UnknownDestination { to });
                    continue;
                };
                #[cfg(test)]
                routes.pushes.fetch_add(1, Ordering::Relaxed);
                if tx.send((self.id, msg)).is_err() {
                    failed.get_or_insert(TransportError::Disconnected { to });
                }
            }
        }
        for (to, msg) in pending.drain(..) {
            let at = cached(served, &to).expect("resolved under the read");
            self.call(&served[at], &msg, replies);
        }
        if !to_inbox {
            if !*routed {
                replies.truncate(before);
            }
        } else if !replies.is_empty() {
            if let Some(inbox) = self.reply_to.upgrade() {
                #[cfg(test)]
                routes.pushes.fetch_add(1, Ordering::Relaxed);
                // A dead client is not a server error.
                let _ = inbox.send_all(replies.drain(..));
            }
            replies.clear();
        }
        *self.cache.lock() = cache;
        failed.map_or(Ok(()), Err)
    }

    /// Answers `msg` from this endpoint with `to`'s handler, adding the
    /// reply to `replies`.
    fn call(
        &self,
        (to, generation, handler): &(ProcessId, u64, Arc<Served>),
        msg: &Msg,
        replies: &mut VecDeque<Inbound>,
    ) {
        match handler.answer(self.id, msg) {
            Ok(reply) => replies.extend(reply.map(|reply| (*to, reply))),
            // The panic crashed the served endpoint alone; its sender sees
            // message loss.
            Err(()) => self.transport.deregister_generation(*to, *generation),
        }
    }
}

impl Endpoint for InMemoryEndpoint {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn send(&self, to: ProcessId, msg: Msg) -> Result<(), TransportError> {
        self.deliver([(to, msg)], None)
    }

    /// Resolves the routes once per change of the route map, not once per
    /// broadcast: a broadcast to destinations this endpoint has already
    /// found served reads neither the route map nor its lock, and clones
    /// no `Arc` and no `Sender`. The served destinations' handlers run with
    /// no lock held, so a handler may open or close endpoints on this
    /// transport, and their replies are pushed into this endpoint's inbox
    /// with one lock.
    fn send_batch(&self, batch: Vec<(ProcessId, Msg)>) {
        let _ = self.deliver(batch, None);
    }

    /// `send_batch`, with the served destinations' replies appended to
    /// `replies`. A round whose destinations are all cached as served makes
    /// no channel operation and no `Weak` upgrade, and takes each handler's
    /// slot lock once and this endpoint's cache lock twice (out and back).
    /// A round from an endpoint whose own route was removed, or whose id a
    /// newer endpoint holds, gets no replies, as its inbox would get none.
    fn round_trip(&self, batch: &mut Vec<(ProcessId, Msg)>, replies: &mut VecDeque<Inbound>) {
        let _ = self.deliver(batch.drain(..), Some(replies));
    }

    fn inbox(&self) -> &Receiver<Inbound> {
        &self.inbox
    }

    /// Serving swaps this endpoint's route from its inbox to `handler`'s
    /// slot: a `send` to it runs the handler on the sender's thread, one
    /// call at a time under the slot's lock, and hands the reply to the
    /// sender. No thread, no wake, and for a round trip no channel. Frames
    /// already in the inbox stay there unanswered, as on TCP.
    ///
    /// A handler that panics crashes this endpoint alone: the sender's
    /// `send` returns `Ok` (the crash model's message loss), the handler is
    /// dropped and the route removed, and [`Serving::stop`] returns the
    /// panic. Stopping removes the route, then takes the handler out once a
    /// call in flight returns, so no call starts after it returns — not
    /// even one by a sender whose cache still holds the slot.
    fn serve<H>(self, handler: H) -> Serving
    where
        Self: Sized + 'static,
        H: Handler,
    {
        let served = Served::new(handler);
        {
            let mut map = self.transport.routes.map.write();
            if let Some((generation, route)) = map.get_mut(&self.id) {
                if *generation == self.generation {
                    *route = Route::Served(Arc::clone(&served));
                    self.transport.routes.count_write();
                }
            }
        }
        Serving::new(served, move || {
            self.transport.deregister_generation(self.id, self.generation);
            Ok(())
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

    /// A closure written inline at a `serve` call takes its signature from
    /// the call, and `Endpoint::serve` takes any [`Handler`]: the tests'
    /// endpoints serve closures through this, which names the signature
    /// and forwards.
    impl InMemoryEndpoint {
        fn serve<F>(self, handler: F) -> Serving
        where
            F: FnMut(ProcessId, &Msg) -> Option<Msg> + Send + 'static,
        {
            Endpoint::serve(self, handler)
        }
    }

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

    /// The route-map reads sends on `t` have made to resolve a destination.
    fn resolutions(t: &InMemoryTransport) -> usize {
        t.routes.resolutions.load(Ordering::Relaxed)
    }

    /// A handler that answers everything with `value`, to tell handlers apart.
    fn replying(value: u64) -> impl FnMut(ProcessId, &Msg) -> Option<Msg> + Send + 'static {
        move |_, _| Some(Msg::InvokeWrite(Value::new(value)))
    }

    /// Serves `server(s)` for each `s` of `servers`, answering queries.
    fn serve_all(t: &InMemoryTransport, servers: std::ops::Range<u32>) -> Vec<Serving> {
        servers.map(|s| t.register(ProcessId::server(s)).serve(answering(u64::MAX))).collect()
    }

    /// `query(seq)` to each of `servers`.
    fn to_each(servers: &[u32], seq: u64) -> Vec<(ProcessId, Msg)> {
        servers.iter().map(|&s| (ProcessId::server(s), query(seq))).collect()
    }

    /// Takes what `endpoint`'s inbox holds: who sent it, in order.
    fn senders(endpoint: &InMemoryEndpoint) -> Vec<ProcessId> {
        endpoint.inbox().try_iter().map(|(from, _)| from).collect()
    }

    #[test]
    fn a_thousand_broadcasts_to_one_served_set_resolve_once() {
        let t = InMemoryTransport::new();
        let _servings = serve_all(&t, 0..5);
        let client = t.register(ProcessId::reader(0));
        for seq in 0..1_000 {
            client.send_batch(to_each(&[0, 1, 2, 3, 4], seq));
            let answered = senders(&client);
            assert_eq!(answered, (0..5).map(ProcessId::server).collect::<Vec<_>>(), "{seq}");
        }
        assert_eq!(resolutions(&t), 1);
    }

    /// Every change to the route map, and only a change, costs the next
    /// send one more resolution: a registration, a dropped endpoint, a
    /// served route. Removing an id that is not there changes nothing.
    #[test]
    fn one_route_change_between_broadcasts_costs_exactly_one_more_resolution() {
        let t = InMemoryTransport::new();
        let _servings = serve_all(&t, 0..3);
        let client = t.register(ProcessId::reader(0));
        let broadcast = || {
            client.send_batch(to_each(&[0, 1, 2], 0));
            assert_eq!(senders(&client).len(), 3);
            resolutions(&t)
        };
        assert_eq!(broadcast(), 1);
        assert_eq!(broadcast(), 1);
        let other = t.register(ProcessId::reader(1));
        assert_eq!(broadcast(), 2, "a registration");
        assert_eq!(broadcast(), 2);
        drop(other);
        assert_eq!(broadcast(), 3, "a dropped endpoint");
        t.deregister(ProcessId::server(9));
        assert_eq!(broadcast(), 3, "no route was there to remove");
        let unserved = t.register(ProcessId::server(5));
        assert_eq!(broadcast(), 4, "a registration");
        let _served = unserved.serve(answering(u64::MAX));
        assert_eq!(broadcast(), 5, "a route swapped to a handler");
        assert_eq!(broadcast(), 5);
    }

    /// Routes are cached per destination, not per batch: two groups that
    /// share a server cost a resolution each, once.
    #[test]
    fn two_alternating_destination_groups_resolve_at_most_twice() {
        let t = InMemoryTransport::new();
        let _servings = serve_all(&t, 0..5);
        let client = t.register(ProcessId::reader(0));
        for seq in 0..500 {
            let group: &[u32] = if seq % 2 == 0 { &[0, 1, 2] } else { &[2, 3, 4] };
            client.send_batch(to_each(group, seq));
            let answered = senders(&client);
            assert_eq!(answered, group.iter().map(|&s| ProcessId::server(s)).collect::<Vec<_>>());
        }
        assert!(resolutions(&t) <= 2, "{} resolutions", resolutions(&t));
    }

    /// A sender's cache never outlives the route it resolved: once an id
    /// is stopped and served again, the next broadcast from the same
    /// endpoint reaches the new handler and only it.
    #[test]
    fn a_re_served_destination_is_answered_by_its_new_handler_only() {
        let t = InMemoryTransport::new();
        let old = t.register(ProcessId::server(0)).serve(replying(1));
        let _steady = t.register(ProcessId::server(1)).serve(replying(7));
        let client = t.register(ProcessId::reader(0));
        let broadcast = || {
            client.send_batch(to_each(&[0, 1], 0));
            let mut answers: Vec<(ProcessId, Msg)> = client.inbox().try_iter().collect();
            answers.sort_by_key(|(from, _)| *from);
            answers
        };
        let answer = |s, value| (ProcessId::server(s), Msg::InvokeWrite(Value::new(value)));
        assert_eq!(broadcast(), [answer(0, 1), answer(1, 7)]);
        old.stop().expect("the handler never panicked");
        let _new = t.register(ProcessId::server(0)).serve(replying(2));
        assert_eq!(broadcast(), [answer(0, 2), answer(1, 7)]);
        assert_eq!(broadcast(), [answer(0, 2), answer(1, 7)]);
    }

    /// A destination whose handler panicked drops out of every later
    /// broadcast from an endpoint that had it cached, and its neighbours
    /// keep answering.
    #[test]
    fn a_destination_whose_handler_panicked_drops_out_while_the_others_answer() {
        watched(|| {
            let t = InMemoryTransport::new();
            let servings: Vec<Serving> = [u64::MAX, 7, u64::MAX]
                .into_iter()
                .zip(0..)
                .map(|(panic_on, s)| t.register(ProcessId::server(s)).serve(answering(panic_on)))
                .collect();
            let client = t.register(ProcessId::reader(0));
            let all = [0, 1, 2].map(ProcessId::server).to_vec();
            let survivors = vec![ProcessId::server(0), ProcessId::server(2)];
            for seq in 0..7 {
                client.send_batch(to_each(&[0, 1, 2], seq));
                assert_eq!(senders(&client), all);
            }
            for seq in 7..20 {
                client.send_batch(to_each(&[0, 1, 2], seq));
                assert_eq!(senders(&client), survivors, "query {seq}");
            }
            // One at the start, then one per broadcast after the crash: an
            // id with no route has nothing to cache.
            assert_eq!(resolutions(&t), 1 + 12);
            let mut stopped = servings.into_iter().map(Serving::stop);
            assert!(stopped.next().unwrap().is_ok());
            assert!(stopped.next().unwrap().is_err(), "the handler's panic is reported");
            assert!(stopped.next().unwrap().is_ok());
        });
    }

    /// A broadcast that mixes served and unserved destinations pushes the
    /// unserved ones' frames in the batch's order, each time through one
    /// read of the route map (an inbox is never cached), and the served
    /// ones' replies in the batch's order too.
    #[test]
    fn a_mixed_broadcast_delivers_its_inbox_frames_in_order() {
        let t = InMemoryTransport::new();
        let (x, y) = (t.register(ProcessId::server(0)), t.register(ProcessId::server(1)));
        let _servings = [2, 3].map(|s| t.register(ProcessId::server(s)).serve(answering(u64::MAX)));
        let client = t.register(ProcessId::reader(0));
        let seqs = |endpoint: &InMemoryEndpoint| -> Vec<u64> {
            endpoint
                .inbox()
                .try_iter()
                .map(|(_, msg)| match msg {
                    Msg::Query { handle } | Msg::QueryAck { handle, .. } => handle.op.seq,
                    msg => panic!("unexpected {msg:?}"),
                })
                .collect()
        };
        for round in 1..=2 {
            client.send_batch(
                [0, 2, 0, 1, 3, 0]
                    .into_iter()
                    .zip(0..)
                    .map(|(s, seq)| (ProcessId::server(s), query(seq)))
                    .collect(),
            );
            assert_eq!(seqs(&x), [0, 2, 5]);
            assert_eq!(seqs(&y), [3]);
            assert_eq!(seqs(&client), [1, 4], "the served ones' answers");
            assert_eq!(resolutions(&t), round);
        }
    }

    /// Nothing a sender resolved keeps an inbox connected: once its route
    /// is removed, a destination's inbox and the sender's own report
    /// `Disconnected` as soon as they are drained, as with no cache at all.
    #[test]
    fn a_removed_routes_inbox_disconnects_though_a_sender_resolved_it() {
        let t = InMemoryTransport::new();
        let inbox = t.register(ProcessId::server(0));
        let _serving = t.register(ProcessId::server(1)).serve(answering(u64::MAX));
        let client = t.register(ProcessId::reader(0));
        for seq in 0..3 {
            client.send_batch(to_each(&[0, 1], seq));
        }
        t.deregister(ProcessId::server(0));
        t.deregister(ProcessId::reader(0));
        for endpoint in [&inbox, &client] {
            assert_eq!(endpoint.inbox().try_iter().count(), 3, "{}", endpoint.id());
            let started = Instant::now();
            let gone = endpoint.inbox().recv_timeout(Duration::from_secs(5));
            let waited = started.elapsed();
            assert!(gone.is_err() && waited < Duration::from_secs(5), "{}", endpoint.id());
            assert_eq!(
                endpoint.inbox().try_recv(),
                Err(crossbeam::channel::TryRecvError::Disconnected),
                "{}",
                endpoint.id()
            );
        }
    }

    /// A round from an endpoint whose own route is gone gets no replies:
    /// once it is deregistered, and once its id is registered again by a
    /// newer endpoint, whose inbox must not receive the stale endpoint's
    /// answers either. The servers still see the requests, as a crashed
    /// client's would be seen.
    #[test]
    fn a_removed_or_re_registered_endpoints_round_gets_no_replies() {
        let t = InMemoryTransport::new();
        let _servings = serve_all(&t, 0..3);
        let client = t.register(ProcessId::reader(0));
        let everyone = || to_each(&[0, 1, 2], 0);
        client.send_batch(everyone());
        assert_eq!(senders(&client).len(), 3, "a routed endpoint is answered");

        t.deregister(ProcessId::reader(0));
        client.send_batch(everyone());
        let gone = Err(crossbeam::channel::TryRecvError::Disconnected);
        assert_eq!(client.inbox().try_recv(), gone, "a deregistered endpoint was answered");

        // A round trip's replies skip the inbox; it gets none either, and
        // what the caller's buffer already held stays.
        let held = (ProcessId::server(7), query(7));
        let round_trip = |endpoint: &InMemoryEndpoint| {
            let mut replies = VecDeque::from([held.clone()]);
            endpoint.round_trip(&mut everyone(), &mut replies);
            assert_eq!(replies[0], held);
            replies.len() - 1
        };
        assert_eq!(round_trip(&client), 0, "a deregistered endpoint's round was answered");

        let new = t.register(ProcessId::reader(0));
        client.send_batch(everyone());
        assert_eq!(client.inbox().try_recv(), gone, "a stale endpoint was answered");
        assert_eq!(round_trip(&client), 0, "a stale endpoint's round was answered");
        assert!(new.inbox().is_empty(), "the stale endpoint's answers reached the new one");
        new.send_batch(everyone());
        assert_eq!(senders(&new).len(), 3, "the new endpoint is answered");
        assert_eq!(round_trip(&new), 3, "the new endpoint's round is answered");
        assert!(new.inbox().is_empty(), "a round trip's answers crossed the inbox");
    }

    /// A round trip to served destinations crosses no channel and takes one
    /// lock per call: a thousand rounds to five served endpoints push
    /// nothing into any inbox, lock each destination's slot once per
    /// request, read the route map once, and hand every reply over in the
    /// caller's buffer, in the batch's order.
    #[test]
    fn a_round_trip_to_served_destinations_crosses_no_channel_and_locks_each_slot_once() {
        const ROUNDS: usize = 1_000;
        let t = InMemoryTransport::new();
        let servings = serve_all(&t, 0..5);
        let client = t.register(ProcessId::reader(0));
        let (mut batch, mut replies) = (Vec::new(), VecDeque::new());
        for seq in 0..ROUNDS as u64 {
            batch.extend(to_each(&[0, 1, 2, 3, 4], seq));
            client.round_trip(&mut batch, &mut replies);
            assert!(batch.is_empty(), "the batch was not sent whole");
            let answered: Vec<ProcessId> = replies.drain(..).map(|(from, _)| from).collect();
            assert_eq!(answered, (0..5).map(ProcessId::server).collect::<Vec<_>>(), "{seq}");
        }
        assert!(client.inbox().is_empty());
        assert_eq!(t.routes.pushes.load(Ordering::Relaxed), 0, "channel operations");
        for serving in &servings {
            assert_eq!(serving.locks(), ROUNDS, "slot locks");
        }
        assert_eq!(resolutions(&t), 1);
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
