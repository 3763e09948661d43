//! A TCP transport: length-prefixed frames carrying the hand-rolled wire
//! codec from `mwr-types`. A request is written by the thread that sends
//! it, on the connection that sender dialed; a served endpoint's reply is
//! written by the reactor that read the request, on the request's own
//! connection — so a client and a server share **one TCP connection**.
//!
//! Every process owns a listening socket; a registry maps process ids to
//! socket addresses. Frames are `u32` big-endian length followed by
//! `Wire`-encoded `(ProcessId, Msg)`.
//!
//! # Hot path
//!
//! The paper prices an operation in round trips, so the cost of one
//! request/reply exchange is what this module is built around:
//!
//! - **A sender writes on the connection it dialed, a reply rides the
//!   request's.** *Who dials:* every sender, for itself. A pipeline writes
//!   only on the connection it dialed to its peer, and hands that socket to
//!   the reactor, so that whatever comes back on it is read; a socket the
//!   peer dialed is only ever read. *Who replies where:* a served endpoint
//!   never sends. Its reply is written by the reactor on the very
//!   connection the request was read from, so the kernel piggybacks its TCP
//!   ACK on that reply (one segment per `send` instead of two), and a peer
//!   that re-binds is answered on the connection its new incarnation
//!   opened. A client–server pair thus holds exactly one connection; two
//!   endpoints that both send to each other without serving hold two, one
//!   per direction. *When a connection is retired:* the moment the reactor
//!   sees EOF, an I/O error, a corrupt or oversized frame, or a frame
//!   naming a different sender than the connection's first one — or a
//!   writer's `write` fails or times out, or a reply tail stalls (below).
//!   Retiring marks the connection dead and shuts the socket down, so no
//!   later send pushes a frame into a socket already known dead: the next
//!   one dials. *Why FIFO holds:* each direction of a pair runs on one
//!   connection at a time — a sender's own dial, or the request's
//!   connection for a reply — written by its pipeline under the peer's
//!   lock, or by the reactor alone; a sender moves to a fresh dial only
//!   once the old connection is dead.
//! - **Who writes which socket.** A socket is written by exactly one
//!   party. *A served endpoint's sockets* ([`TcpEndpoint::serve`] took the
//!   endpoint, so nothing sends through it) are the reactor's alone: it
//!   calls the handler on each frame it decodes and writes the replies.
//!   *Every other endpoint's sockets* are written by its senders, one send
//!   path per destination: a send takes that peer's lock, encodes its
//!   frame into a reusable buffer — the body once, its length patched into
//!   the prefix afterwards (both write paths frame through `put_frame`) —
//!   and writes it with one `write_all` on the sender's own thread: no
//!   queue, no hand-off, no thread per peer. The lock keeps each frame
//!   whole and a peer's frames in order. Each such endpoint sends from
//!   one thread in every runtime shape (a client thread, a keyspace drive
//!   thread, a rejoin fetch or a reconfiguration coordinator), so the lock
//!   is never contended there. Should a second thread send to a stalled
//!   peer through the same endpoint, it waits on that peer's lock until
//!   the stalled write gives up (see below) instead of queueing, then
//!   drops its frame to the negative cache.
//! - **The reactor's replies never block it.** A served endpoint's sockets
//!   are non-blocking (the reactor is their only reader and writer, so
//!   `O_NONBLOCK`, which both directions share, is safe). The replies to
//!   the frames of one read are encoded into the connection's out buffer
//!   and offered to the kernel with one `write`. What it does not take
//!   stays in that buffer as the connection's *tail*: the connection is
//!   then watched for room instead of bytes — it is not read, so a peer
//!   that does not read its answers cannot pile up more of them — and the
//!   tail goes out as room appears. A request whose connection is gone
//!   gets no reply (the reactor never dials); the client retries.
//! - **Reconnect backoff + stall bounding.** Dialing lives inside the
//!   send: a failed `connect` is negative-cached for
//!   [`TcpTuning::reconnect_backoff`], so a crashed peer costs one failed
//!   syscall per backoff window instead of one per message. A stalled peer
//!   (connected but not reading, TCP window full) is bounded by
//!   [`TcpTuning::write_timeout`] on both write paths. A sender's socket
//!   carries it as its write timeout, so the stall holds the sender for
//!   about the timeout (it applies to each `write` syscall of the frame)
//!   before the connection is retired and the peer negative-cached too. A
//!   reply tail that has made no progress for the timeout retires its
//!   connection the same way, holding up no thread meanwhile: the reactor
//!   wakes for it. A write that failed on a dead connection is retried
//!   once; one that timed out is not, since a redial to a stalled peer
//!   would stall again. Frames to an unreachable peer are dropped —
//!   precisely the crash model the quorum protocols tolerate. Only an
//!   attempt that *failed* renews the cache: frames dropped because the
//!   cache said so leave it alone, so a sender that never pauses still
//!   re-dials once per backoff. Nothing else clears it: a peer that comes
//!   back is dialed once the backoff has passed, even if it talked first
//!   (a server never does; a client that re-binds is the one that dials).
//! - **One reactor per registry.** Every listener and every connection of
//!   every endpoint opened through one [`TcpRegistry`], dialed as well as
//!   accepted, is served by a single thread (`tcp-reactor`) sleeping in
//!   one readiness queue (`epoll`, through the vendored `polling` stand-in):
//!   one wake-up reports every ready socket of the registry at once,
//!   whichever endpoint it belongs to, instead of one thread per endpoint
//!   waking for its own two or three. *What that buys depends on how many
//!   endpoints share the registry and how many cores they have:* the
//!   measured gain (`tcp-narrow`, +13 % operations per second) is for a
//!   whole cluster in one process pinned to one core, the shape of the
//!   benches and tests. A deployed process opens one endpoint; there the
//!   reactor is the reader thread that endpoint would have had, reached
//!   through a command queue, and what remains is `epoll` in place of
//!   `poll(2)` — not measured on its own side of the spread. Nor is a
//!   many-endpoint registry on many cores, where one thread now decodes
//!   — and, for served endpoints, handles — what several did in parallel.
//!   Both cases are unverified, not implied by that figure (see ROADMAP
//!   item 4). The reactor owns the queue, the maps from readiness key to
//!   listener or connection and owning endpoint, the served endpoints'
//!   handler slots, and a command queue (*listen on this socket*, *adopt this
//!   dialed connection*, *serve that endpoint*, *detach that endpoint*);
//!   what is an endpoint's own stays with it — its inbox, its counters and
//!   gauge. A ready listener (non-blocking) is accepted on until
//!   `WouldBlock`, each socket adopted on the spot; a full descriptor table
//!   (`EMFILE`) withdraws it from the queue for `ACCEPT_RETRY_PAUSE` rather
//!   than spin on it. An endpoint that does not serve has sender threads
//!   writing on the sockets it dialed, which the reactor reads, so its
//!   sockets stay *blocking*. Either way the reactor does exactly one
//!   `read` per readiness event: a reported socket has bytes or an EOF
//!   waiting, so that read returns at once, and the level-triggered queue
//!   re-reports whatever it left behind — no trailing `WouldBlock` probe,
//!   and a fire-hosing socket gets one chunk per wake-up like everyone
//!   else. Each adopted socket keeps a reusable buffer that frames are
//!   decoded from in place. A frame for an endpoint that does not serve is
//!   staged until the pass over the ready sockets ends, and then each such
//!   endpoint gets the pass's frames, from all of its connections, with
//!   one push into its inbox: one lock, and at most one wake of a parked
//!   client, issued after unlocking. Woken per frame, a client pre-empts
//!   the reactor part-way through its pass on one CPU; woken per pass, it
//!   finds its round's replies queued. The inbox is unbounded, so the
//!   reactor never waits for a consumer. A handler that panics is caught:
//!   it crashes its own endpoint (handler dropped, listener and
//!   connections closed) and no other.
//!   Endpoints own the reactor jointly and the registry only finds it: the
//!   first [`TcpEndpoint::bind`] starts it (on a target with no readiness
//!   queue — `Poller::new` fails anywhere but Linux — `bind` returns the
//!   error), the last endpoint dropped stops and joins it.
//!
//! An endpoint runs no thread of its own, served or not: the reactor
//! accepts, reads and answers for it, and sends run on their callers'
//! threads, so nothing is ever queued to flush. `drop` is one step: it
//! detaches the endpoint from the reactor, which lets go of its handler
//! slot and closes its listener (the port is free) and every connection of this
//! endpoint — and of no other — *before* `drop` returns, observable through
//! [`TcpEndpoint::connection_gauge`]. No descriptor of the endpoint
//! outlives it, and no thread or descriptor of the registry's outlives its
//! last endpoint.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::{BufMut as _, BytesMut};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use polling::{Event, Poller};

use mwr_core::Msg;
use mwr_types::codec::Wire;
use mwr_types::ProcessId;

use crate::transport::{Endpoint, EndpointFactory, Handler, Inbound, Served, Serving, TransportError};

/// Maximum accepted frame size (16 MiB) — guards against corrupt peers.
const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Largest buffer capacity a pipeline or an adopted connection retains
/// across frames; anything bigger (a full-info burst) is released after use.
const BUF_RETAIN: usize = 1024 * 1024;

/// Appends one frame from `from` carrying `msg` to `buf`, walking the
/// message once: a placeholder prefix, the body encoded after it, then the
/// body's length patched into the prefix. A body past [`MAX_FRAME`] is taken
/// back off and `false` returned: the peer would drop the connection over
/// it, and whatever follows it on the wire.
fn put_frame(buf: &mut BytesMut, from: ProcessId, msg: &Msg) -> bool {
    let start = buf.len();
    buf.put_u32(0);
    from.encode(buf);
    msg.encode(buf);
    match u32::try_from(buf.len() - start - 4) {
        Ok(len) if len <= MAX_FRAME => {
            buf[start..start + 4].copy_from_slice(&len.to_be_bytes());
            true
        }
        _ => {
            buf.truncate(start);
            false
        }
    }
}

fn io_err(e: std::io::Error) -> TransportError {
    TransportError::Io { kind: e.kind() }
}

/// Tuning knobs for the TCP write paths.
///
/// The defaults are right for the loopback clusters the workspace runs,
/// and the `mwr-register` facade always runs them; a registry built by
/// hand can select others with [`TcpRegistry::with_tuning`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpTuning {
    /// After a failed `connect` (or a failed or timed-out write), frames
    /// to that peer are dropped without another syscall until this much
    /// time has passed.
    pub reconnect_backoff: Duration,
    /// How long a stalled peer (connected but not reading, TCP window
    /// full) can hold a write: a sender — and any other sender waiting on
    /// that peer's lock behind it — before the frame is dropped and the
    /// peer negative-cached like a failed connect, and a served endpoint's
    /// reply tail, which retires its connection after this long without
    /// progress. `Duration::ZERO` disables the timeout.
    pub write_timeout: Duration,
}

impl Default for TcpTuning {
    fn default() -> Self {
        TcpTuning { reconnect_backoff: Duration::from_millis(50), write_timeout: Duration::from_secs(1) }
    }
}

/// Counters of one peer's send path, for tests and diagnostics. Snapshot
/// via [`TcpEndpoint::peer_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeerStats {
    /// `connect` syscalls attempted (capped by the reconnect backoff).
    pub connect_attempts: u64,
    /// Frames written to the socket.
    pub frames_sent: u64,
    /// `write_all` calls that delivered a frame: one per frame, so always
    /// `frames_sent`.
    pub batches: u64,
    /// Frames dropped because the peer stayed unreachable.
    pub frames_dropped: u64,
}

#[derive(Debug, Default)]
struct PipelineStats {
    connect_attempts: AtomicU64,
    frames_sent: AtomicU64,
    frames_dropped: AtomicU64,
}

impl PipelineStats {
    fn snapshot(&self) -> PeerStats {
        let frames_sent = self.frames_sent.load(Ordering::Relaxed);
        PeerStats {
            connect_attempts: self.connect_attempts.load(Ordering::Relaxed),
            frames_sent,
            batches: frames_sent,
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
        }
    }
}

/// Counters of the receive path, for tests and the bench harness's
/// wake-per-frame metric: one endpoint's share of the reactor's work
/// ([`TcpEndpoint::reader_stats`]) or the whole registry's
/// ([`TcpRegistry::reader_totals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReaderStats {
    /// For an endpoint: reactor wake-ups in which at least one of *its*
    /// connections was ready. For a registry: the reactor's own wake-ups
    /// that reported at least one ready socket, listening sockets included,
    /// of whichever endpoint — not the sum over endpoints, which would
    /// count a wake once per endpoint it served. Every wake reads *all*
    /// ready sockets, so under load this is far smaller than `frames` —
    /// the fan-in batching the reactor exists for. A wake is one pass:
    /// an endpoint that does not serve gets at most one `deliveries` in it.
    pub wakes: u64,
    /// Frames decoded: delivered to the inbox, or answered by the handler
    /// of an endpoint that serves (summed, for a registry).
    pub frames: u64,
    /// Pushes into the inbox: one per reactor pass that decoded at least
    /// one frame for an endpoint that does not serve, however many frames
    /// of however many of its connections the pass decoded — so, for an
    /// endpoint, `deliveries ≤ wakes` and `deliveries ≤ frames`. Each push
    /// wakes a parked receiver at most once. Summed, for a registry: at
    /// most one per such endpoint per wake.
    pub deliveries: u64,
    /// Connections the reactor currently reads for the endpoint, dialed
    /// and accepted alike: one per peer it sends to and one per peer that
    /// sends to it (summed, for a registry).
    pub open_connections: usize,
}

/// Shared process-id → address registry, carrying the pipeline tuning its
/// endpoints are opened with.
#[derive(Debug, Clone, Default)]
pub struct TcpRegistry {
    addrs: Arc<Mutex<HashMap<ProcessId, SocketAddr>>>,
    /// The reactor reading for every live endpoint opened through this
    /// registry. Weak: the endpoints own it, the registry only finds it
    /// for the next `bind`, and must not keep its thread alive once the
    /// last endpoint is gone.
    reactor: Arc<Mutex<Weak<Reactor>>>,
    tuning: TcpTuning,
}

impl TcpRegistry {
    /// Creates an empty registry with default [`TcpTuning`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the pipeline tuning for endpoints opened through this
    /// registry (builder-style).
    pub fn with_tuning(mut self, tuning: TcpTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Records where a process listens.
    pub fn insert(&self, id: ProcessId, addr: SocketAddr) {
        self.addrs.lock().insert(id, addr);
    }

    /// Looks up a process's address.
    pub fn lookup(&self, id: ProcessId) -> Option<SocketAddr> {
        self.addrs.lock().get(&id).copied()
    }

    /// Forgets a process's address: peers get
    /// [`TransportError::UnknownDestination`] from then on, without a
    /// single connect syscall.
    pub fn remove(&self, id: ProcessId) {
        self.addrs.lock().remove(&id);
    }

    /// The receive path's counters across every live endpoint opened
    /// through this registry — the bench harness's deployment-wide
    /// wake-per-frame metric. `frames` and `open_connections` are sums
    /// over those endpoints; `wakes` is the reactor's own count (see
    /// [`ReaderStats::wakes`]). All zero while no endpoint is open.
    pub fn reader_totals(&self) -> ReaderStats {
        // Should the last endpoint go while this handle is held, the
        // reactor is stopped and joined here instead of in that `drop`.
        let Some(reactor) = self.reactor.lock().upgrade() else { return ReaderStats::default() };
        let mut totals =
            ReaderStats { wakes: reactor.shared.wakes.load(Ordering::Relaxed), ..ReaderStats::default() };
        for endpoint in reactor.shared.endpoints.lock().iter().filter_map(Weak::upgrade) {
            totals.frames += endpoint.frames.load(Ordering::Relaxed);
            totals.deliveries += endpoint.deliveries.load(Ordering::Relaxed);
            totals.open_connections += endpoint.conns.load(Ordering::SeqCst);
        }
        totals
    }

    /// The reactor this registry's endpoints share, started if none of
    /// them is holding one — or if the one they hold has left its loop
    /// (its readiness queue failed): those endpoints are deaf until they
    /// are dropped, but whoever binds next must not join them.
    fn reactor(&self) -> std::io::Result<Arc<Reactor>> {
        let mut slot = self.reactor.lock();
        if let Some(reactor) = slot.upgrade().filter(|reactor| reactor.shared.commands.lock().is_some()) {
            return Ok(reactor);
        }
        let reactor = Reactor::start()?;
        *slot = Arc::downgrade(&reactor);
        Ok(reactor)
    }
}

impl EndpointFactory for TcpRegistry {
    type Endpoint = TcpEndpoint;

    fn open(&self, id: ProcessId) -> Result<TcpEndpoint, TransportError> {
        TcpEndpoint::bind(id, self)
    }

    fn close(&self, id: ProcessId) {
        self.remove(id);
    }
}

/// One TCP connection: a dialed one is shared by the reactor (which reads
/// it) and the pipeline that dialed and writes it (`&TcpStream` is both
/// `Read` and `Write`); an accepted one is the reactor's alone, read — and,
/// for a served endpoint, answered on.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Set once by whoever first learns the socket is finished — the
    /// reactor on EOF/error, a writer on a failed or timed-out `write` —
    /// so the other side stops using it without touching the socket.
    dead: AtomicBool,
}

impl Conn {
    /// Wraps a fresh socket, dialed or accepted: no Nagle delay on either
    /// direction, blocking writes bounded by [`TcpTuning::write_timeout`],
    /// blocking reads by [`READ_GUARD`] (a served endpoint's socket blocks
    /// neither way).
    fn new(stream: TcpStream, tuning: TcpTuning) -> Arc<Conn> {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_GUARD));
        if !tuning.write_timeout.is_zero() {
            let _ = stream.set_write_timeout(Some(tuning.write_timeout));
        }
        Arc::new(Conn { stream, dead: AtomicBool::new(false) })
    }

    fn is_live(&self) -> bool {
        !self.dead.load(Ordering::Acquire)
    }

    /// Marks the connection dead and shuts the socket down both ways: the
    /// peer sees the close now rather than when the last `Arc` drops, and
    /// the reactor, still watching the socket, is woken to reap it.
    fn kill(&self) {
        if !self.dead.swap(true, Ordering::AcqRel) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }
}

/// The I/O half of a peer pipeline: the connection it dialed, the reusable
/// encode buffer, and the reconnect negative cache, behind the peer's
/// lock — which also makes its holder the only writer of the connection.
/// A pipeline writes on no connection but its own: a socket the peer
/// dialed is only ever read here.
#[derive(Debug)]
struct PeerIo {
    from: ProcessId,
    to: ProcessId,
    /// Where `to` listens, and the tuning this pipeline runs with.
    registry: TcpRegistry,
    /// The endpoint's receive side, to which a dialed connection is handed
    /// so that the peer's frames on it are read.
    endpoint: Arc<EndpointShared>,
    /// The connection this pipeline dialed to `to`, written on for as long
    /// as it is live: a steady-state send costs one atomic load.
    conn: Option<Arc<Conn>>,
    buf: BytesMut,
    last_failed: Option<Instant>,
}

impl PeerIo {
    /// Encodes `msg` as one frame and writes it with a single `write_all`
    /// on the connection to the peer, dialing (under the negative-cache
    /// backoff) only when it is not live. A write that failed on a dead
    /// connection is retried once, on a fresh dial; one that timed out is
    /// not, because the peer is stalled and a redial would hold the sender
    /// again. An unreachable peer drops the frame — the crash model's
    /// message loss.
    fn write_frame(&mut self, msg: &Msg, stats: &PipelineStats) {
        self.buf.clear();
        // The receiver's frame bound holds on the send side too: an
        // oversized frame is dropped unwritten, as the peer would refuse it
        // on every retry.
        let attempts = if put_frame(&mut self.buf, self.from, msg) { 2 } else { 0 };
        let mut delivered = false;
        let mut write_failed = false;
        for _ in 0..attempts {
            self.ensure_conn(stats);
            let Some(conn) = &self.conn else { break };
            let Err(e) = (&conn.stream).write_all(&self.buf) else {
                delivered = true;
                break;
            };
            write_failed = true;
            self.retire_conn();
            if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) {
                break;
            }
        }
        if delivered {
            stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        } else {
            // A write that failed in this call (dead socket, stalled peer
            // hitting the write timeout) negative-caches the peer like a
            // failed connect, so the next frames drop fast instead of
            // stalling the sender for another timeout each. A frame
            // dropped *because* the cache said so must not renew it: the
            // window would slide with every send, and a sender that never
            // pauses for a whole backoff would never re-dial a peer that
            // came back.
            if write_failed {
                self.last_failed = Some(Instant::now());
            }
            stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
        }
        // Don't let one full-info burst pin its high-water capacity for
        // the pipeline's lifetime.
        if self.buf.capacity() > BUF_RETAIN {
            self.buf = BytesMut::new();
        }
    }

    /// Leaves in `self.conn` the connection to write on: the dialed one
    /// while it is live, else a fresh dial — or `None` when the peer is
    /// unreachable.
    fn ensure_conn(&mut self, stats: &PipelineStats) {
        if self.conn.as_ref().is_some_and(|conn| conn.is_live()) {
            return;
        }
        self.conn = self.try_connect(stats);
    }

    /// Gives up the connection after a failed write: a partial frame may
    /// be on the wire, so nothing more can be sent on it.
    fn retire_conn(&mut self) {
        if let Some(conn) = self.conn.take() {
            conn.kill();
        }
    }

    /// Attempts one connection, respecting the negative cache: after a
    /// failed connect, no syscall is issued until the backoff has elapsed.
    /// The new connection is handed to the reactor, so the peer's replies
    /// are read off it.
    fn try_connect(&mut self, stats: &PipelineStats) -> Option<Arc<Conn>> {
        if self.last_failed.is_some_and(|at| at.elapsed() < self.registry.tuning.reconnect_backoff) {
            return None;
        }
        // A deregistered peer (crashed server) costs a map lookup, never a
        // connect syscall.
        let addr = self.registry.lookup(self.to)?;
        stats.connect_attempts.fetch_add(1, Ordering::Relaxed);
        match TcpStream::connect(addr) {
            Ok(stream) => {
                self.last_failed = None;
                let conn = Conn::new(stream, self.registry.tuning);
                let endpoint = Arc::clone(&self.endpoint);
                self.endpoint.reactor.submit(Command::Adopt { endpoint, conn: Arc::clone(&conn), peer: self.to });
                Some(conn)
            }
            Err(_) => {
                self.last_failed = Some(Instant::now());
                None
            }
        }
    }
}

/// One destination's send path: its I/O state behind its own lock, and
/// its counters beside the lock, so [`TcpEndpoint::peer_stats`] never
/// waits on a stalled write.
///
/// A send is one lock, one encode into the reusable buffer and one
/// `write_all`, on the sender's thread. Holding the lock makes the sender
/// the connection's only writer, so frames go out whole and in order. A
/// second sender to the same peer waits for the lock, at worst until a
/// stalled write times out ([`TcpTuning::write_timeout`]).
#[derive(Debug)]
struct PeerPipeline {
    io: Mutex<PeerIo>,
    stats: PipelineStats,
}

impl PeerPipeline {
    fn new(from: ProcessId, to: ProcessId, registry: TcpRegistry, endpoint: Arc<EndpointShared>) -> Arc<Self> {
        let io = PeerIo { from, to, registry, endpoint, conn: None, buf: BytesMut::new(), last_failed: None };
        Arc::new(PeerPipeline { io: Mutex::new(io), stats: PipelineStats::default() })
    }

    fn send(&self, msg: &Msg) {
        self.io.lock().write_frame(msg, &self.stats);
    }
}

/// Bytes one socket read pulls at a time in the reactor; the per-socket
/// buffer grows in these steps (and past them for frames larger than one
/// chunk).
const READ_CHUNK: usize = 64 * 1024;

/// Receive timeout on adopted sockets. The reactor only reads a socket the
/// readiness queue just reported, so the read returns at once; should the
/// kernel ever report readiness it then takes back, this bounds the one
/// thread every connection of the registry depends on instead of parking
/// it.
const READ_GUARD: Duration = Duration::from_millis(5);

/// How long a listener stays out of the readiness queue after a failed
/// `accept` (a full descriptor table) before the reactor tries it again.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(1);

/// An endpoint's listening socket, non-blocking, accepted on by the
/// reactor for its owner.
#[derive(Debug)]
struct Listener {
    socket: TcpListener,
    owner: Arc<EndpointShared>,
}

/// What is one endpoint's own on the receive path, shared between the
/// reactor (which accepts on the endpoint's listener and reads its
/// connections into its inbox), its writer pipelines (which hand dialed
/// sockets over), and its owner (stats, detach).
#[derive(Debug)]
struct EndpointShared {
    id: ProcessId,
    /// The registry's tuning: a served connection's stall bound.
    tuning: TcpTuning,
    reactor: Arc<ReactorShared>,
    /// The sending half of the endpoint's inbox. Unbounded: the reactor
    /// reads for every endpoint and must never wait for one consumer.
    inbox: Sender<Inbound>,
    wakes: AtomicU64,
    /// The reactor wake-up `wakes` last counted. Reactor thread only.
    last_wake: AtomicU64,
    frames: AtomicU64,
    deliveries: AtomicU64,
    /// Adopted-connection gauge — the endpoint's [`TcpEndpoint::connection_gauge`].
    conns: Arc<AtomicUsize>,
}

impl EndpointShared {
    /// Counts reactor wake-up number `wake` for this endpoint — once,
    /// however many of its sockets are ready in it. Reactor thread only.
    fn count_wake(&self, wake: u64) {
        if self.last_wake.swap(wake, Ordering::Relaxed) != wake {
            self.wakes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Has the reactor close this endpoint's listener and every connection
    /// of this endpoint, and of no other, and returns once it has: the
    /// port is free, the connections are reaped, withdrawn from the
    /// readiness queue and closed, and the gauge reads zero.
    fn detach(self: &Arc<Self>) {
        let (done, closed) = bounded::<()>(1);
        self.reactor.submit(Command::Detach { endpoint: Arc::clone(self), done });
        // Nothing is ever sent: the reactor drops `done` when the
        // connections are closed — which they already are if it has left
        // its loop, where `submit` drops the command on the spot.
        let _ = closed.recv();
        self.reactor.endpoints.lock().retain(|entry| !std::ptr::eq(entry.as_ptr(), Arc::as_ptr(self)));
    }
}

#[cfg(unix)]
fn fd(socket: &impl std::os::unix::io::AsRawFd) -> polling::Source {
    socket.as_raw_fd()
}

#[cfg(not(unix))]
fn fd<S>(_socket: &S) -> polling::Source {
    // Unreachable: `Poller::new` fails on every target but Linux, so `bind`
    // returns its error and no endpoint exists to hand the reactor a socket.
    -1
}

/// One connection adopted by the reactor: the socket, the endpoint it is
/// read for, the peer it belongs to (fixed by the first frame, or by the
/// dial) and its reusable receive buffer (`buf[..filled]` holds bytes read
/// but not yet decoded), carried across wake-ups.
///
/// A served endpoint's connection also carries the endpoint's handler and
/// the replies it produced: `out[written..]` is what the socket has not
/// taken yet, and `stalled_since` is set while that tail waits for room.
#[derive(Debug)]
struct SharedConn {
    conn: Arc<Conn>,
    owner: Arc<EndpointShared>,
    peer: Option<ProcessId>,
    buf: Vec<u8>,
    filled: usize,
    /// The served endpoint's handler slot, locked once per frame.
    handler: Option<Arc<Served>>,
    out: BytesMut,
    written: usize,
    /// Since when the tail has waited without progress; `None` while there
    /// is no tail.
    stalled_since: Option<Instant>,
}

/// What became of a connection the reactor just read or wrote.
enum Outcome {
    /// Still open.
    Open,
    /// Finished — EOF, an I/O error, a corrupt, oversized or foreign frame —
    /// and to be reaped.
    Closed,
    /// The owner's handler panicked on a frame read from it: the owner is
    /// crashed (the slot keeps the panic for its `Serving`).
    Panicked,
}

impl SharedConn {
    /// Does the one `read` a readiness event pays for and handles every
    /// complete frame accumulated in the buffer; whatever the read left in
    /// the socket is re-reported by the level-triggered queue. The replies
    /// a served endpoint's handler gave go out with one `write`; the frames
    /// of an endpoint that does not serve wait in `staged` for the end of
    /// the pass.
    fn read_ready(&mut self, staged: &mut Staged) -> Outcome {
        if self.buf.len() < self.filled + READ_CHUNK {
            self.buf.resize(self.filled + READ_CHUNK, 0);
        }
        let outcome = match (&self.conn.stream).read(&mut self.buf[self.filled..]) {
            Ok(0) => Outcome::Closed,
            Ok(n) => {
                self.filled += n;
                self.decode_frames(staged)
            }
            // No bytes after all (see `READ_GUARD`): wait for the next event.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted) => {
                Outcome::Open
            }
            Err(_) => Outcome::Closed,
        };
        if !matches!(outcome, Outcome::Open) {
            return outcome;
        }
        self.release();
        if self.out.is_empty() {
            Outcome::Open
        } else {
            self.write_out()
        }
    }

    /// Decodes every complete frame in `buf[..filled]` in place — staged
    /// for the owner's inbox, or through its handler if it serves — and
    /// compacts the leftover partial frame (if any) to the front.
    fn decode_frames(&mut self, staged: &mut Staged) -> Outcome {
        let mut parsed = 0usize;
        while self.filled - parsed >= 4 {
            let len = u32::from_be_bytes(self.buf[parsed..parsed + 4].try_into().expect("4 bytes"));
            if len > MAX_FRAME {
                return Outcome::Closed;
            }
            let total = 4 + len as usize;
            if self.filled - parsed < total {
                break;
            }
            let mut cursor: &[u8] = &self.buf[parsed + 4..parsed + total];
            let Ok(from) = ProcessId::decode(&mut cursor) else { return Outcome::Closed };
            let Ok(msg) = Msg::decode(&mut cursor) else { return Outcome::Closed };
            parsed += total;
            match self.peer {
                Some(peer) if peer == from => {}
                // One connection, one peer: a served endpoint's replies to
                // `peer` are written here, so a frame under another name
                // would have its answer sent to the wrong process.
                // Corrupt; drop it.
                Some(_) => return Outcome::Closed,
                // An accepted connection's first frame says whose it is.
                None => self.peer = Some(from),
            }
            self.owner.frames.fetch_add(1, Ordering::Relaxed);
            let Some(handler) = &self.handler else {
                staged.push(&self.owner, (from, msg));
                continue;
            };
            match handler.answer(from, &msg) {
                // A reply past the frame bound is left out (see `put_frame`).
                Ok(Some(reply)) => {
                    put_frame(&mut self.out, self.owner.id, &reply);
                }
                Ok(None) => {}
                Err(()) => return Outcome::Panicked,
            }
        }
        if parsed > 0 {
            self.buf.copy_within(parsed..self.filled, 0);
            self.filled -= parsed;
        }
        Outcome::Open
    }

    /// Hands this connection's frames to `handler`. The socket is made
    /// non-blocking first: the reactor is its only reader and writer from
    /// now on, and must never wait on it. A socket that refuses stays
    /// unserved and is never written: its requests go unanswered, as a
    /// crashed server's would.
    fn serve(&mut self, handler: &Arc<Served>) {
        if self.conn.stream.set_nonblocking(true).is_ok() {
            self.handler = Some(Arc::clone(handler));
        }
    }

    /// Offers the out buffer's tail to the non-blocking socket with one
    /// `write`. What the kernel does not take stays for the next writable
    /// event; the stall clock restarts whenever some of it is taken.
    fn write_out(&mut self) -> Outcome {
        match (&self.conn.stream).write(&self.out[self.written..]) {
            Ok(n) => {
                self.written += n;
                if self.written < self.out.len() {
                    if n > 0 || self.stalled_since.is_none() {
                        self.stalled_since = Some(Instant::now());
                    }
                    return Outcome::Open;
                }
                self.written = 0;
                self.stalled_since = None;
                self.out.clear();
                self.release();
                Outcome::Open
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                self.stalled_since.get_or_insert_with(Instant::now);
                Outcome::Open
            }
            Err(_) => Outcome::Closed,
        }
    }

    /// Releases the high-water capacity a full-info burst, or a reply taken
    /// back as oversized, left in either buffer once that buffer drains.
    fn release(&mut self) {
        if self.buf.capacity() > BUF_RETAIN && self.filled <= BUF_RETAIN {
            let mut fresh = Vec::with_capacity(self.filled.max(READ_CHUNK));
            fresh.extend_from_slice(&self.buf[..self.filled]);
            self.buf = fresh;
        }
        if self.out.is_empty() && self.out.capacity() > BUF_RETAIN {
            self.out = BytesMut::new();
        }
    }
}

/// The frames one reactor pass decoded for endpoints that do not serve, by
/// endpoint in the order each first had one, handed over when the pass
/// ends: one push per endpoint, so a parked client is woken once, with all
/// of its frames queued, instead of once per frame — and, on one CPU, does
/// not pre-empt the reactor part-way through the pass. Each connection's
/// frames are staged in the order they were decoded, so per-connection
/// FIFO holds. The buffers outlive the pass, emptied, so a steady state
/// allocates nothing; the endpoint handles do not, so a detached endpoint
/// is not kept alive here.
#[derive(Default)]
struct Staged {
    batches: Vec<(Arc<EndpointShared>, Vec<Inbound>)>,
    /// Emptied buffers, for the next pass's endpoints.
    spare: Vec<Vec<Inbound>>,
}

impl Staged {
    fn push(&mut self, owner: &Arc<EndpointShared>, frame: Inbound) {
        let at = match self.batches.iter().position(|(staged, _)| Arc::ptr_eq(staged, owner)) {
            Some(at) => at,
            None => {
                self.batches.push((Arc::clone(owner), self.spare.pop().unwrap_or_default()));
                self.batches.len() - 1
            }
        };
        self.batches[at].1.push(frame);
    }

    /// Hands every endpoint its staged frames with one push: one lock of
    /// its inbox and at most one wake of a parked receiver, after unlocking.
    fn deliver(&mut self) {
        for (owner, mut batch) in self.batches.drain(..) {
            // Counted before the push, so a receiver that has the frames
            // sees the count too.
            owner.deliveries.fetch_add(1, Ordering::Relaxed);
            // A push fails only once the inbox's receiver is gone, and
            // `TcpEndpoint::drop` detaches the endpoint — closing every
            // connection read for it — before its receiver drops, so no
            // pass stages frames for it after that. Should one fail all the
            // same, its frames are dropped with the error, as a crashed
            // receiver's would be, and the connections they came on stay.
            let _ = owner.inbox.send_all(batch.drain(..));
            self.spare.push(batch);
        }
    }
}

/// A request to the reactor thread, queued by [`ReactorShared::submit`].
#[derive(Debug)]
enum Command {
    /// Accept on this listening socket for its endpoint.
    Listen(Listener),
    /// Read this connection, dialed to `peer`, for that endpoint.
    Adopt { endpoint: Arc<EndpointShared>, conn: Arc<Conn>, peer: ProcessId },
    /// Answer every frame of that endpoint's connections with `handler`.
    Serve { endpoint: Arc<EndpointShared>, handler: Arc<Served> },
    /// Close that endpoint's listener and every connection read for it,
    /// then drop `done` (see [`EndpointShared::detach`]).
    Detach { endpoint: Arc<EndpointShared>, done: Sender<()> },
    /// Close everything and leave the loop: the last endpoint is gone.
    Stop,
}

impl Command {
    /// Disposes of a command the reactor will never run, because it has
    /// left its loop and closed every socket on the way out. A listener
    /// nobody accepts on is closed here, so dials to it are refused. A
    /// connection nobody will read is unusable: killed, so its pipeline
    /// redials or gives the peer up (crash model). A detach has nothing
    /// left to close; dropping it tells the endpoint waiting on `done` so.
    fn refuse(self) {
        if let Command::Adopt { conn, .. } = self {
            conn.kill();
        }
    }
}

/// What the reactor thread shares with the endpoints it serves. Holds no
/// [`Reactor`], and neither does the [`EndpointShared`] the thread keeps
/// per listener and connection: the thread can never be the one that drops
/// the last owning handle, which would be joining itself.
#[derive(Debug)]
struct ReactorShared {
    poller: Poller,
    /// Commands not yet run; endpoints push and notify, the reactor takes
    /// them on its next wake. `None` once the thread has left its loop.
    commands: Mutex<Option<Vec<Command>>>,
    /// Wake-ups that reported at least one ready socket.
    wakes: AtomicU64,
    /// The endpoints attached, for [`TcpRegistry::reader_totals`]: `bind`
    /// pushes once nothing can fail any more, `detach` removes.
    endpoints: Mutex<Vec<Weak<EndpointShared>>>,
}

impl ReactorShared {
    fn submit(&self, command: Command) {
        let mut commands = self.commands.lock();
        let Some(queue) = commands.as_mut() else {
            drop(commands);
            return command.refuse();
        };
        queue.push(command);
        drop(commands);
        let _ = self.poller.notify();
    }
}

/// The owning handle of a registry's reactor thread, held jointly by the
/// endpoints it serves: dropping the last one stops and joins it.
#[derive(Debug)]
struct Reactor {
    shared: Arc<ReactorShared>,
    thread: Option<JoinHandle<()>>,
}

impl Reactor {
    fn start() -> std::io::Result<Arc<Reactor>> {
        let shared = Arc::new(ReactorShared {
            poller: Poller::new()?,
            commands: Mutex::new(Some(Vec::new())),
            wakes: AtomicU64::new(0),
            endpoints: Mutex::new(Vec::new()),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("tcp-reactor".into())
            .spawn(move || reactor_loop(&thread_shared))?;
        Ok(Arc::new(Reactor { shared, thread: Some(thread) }))
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shared.submit(Command::Stop);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The sockets the reactor serves, by readiness key (one key space for
/// listeners and connections), and the handler slots of the endpoints it
/// answers for. Dropping it is the reactor's way out, whatever opened it —
/// stopped, the readiness queue failed, or the thread is unwinding: every
/// connection and listener is closed and every handler slot let go, then the
/// command queue, so that what is in it and whatever is submitted from
/// then on is refused instead of waiting for a thread that is gone.
struct Sockets<'a> {
    shared: &'a ReactorShared,
    conns: HashMap<usize, SharedConn>,
    /// Closing a listener withdraws it from the readiness queue: nothing
    /// else holds its descriptor.
    listeners: HashMap<usize, Listener>,
    /// The served endpoints, each with the handler its connections share.
    served: Vec<(Arc<EndpointShared>, Arc<Served>)>,
    /// Connections whose reply tail waited for room when last looked at.
    stalled: Vec<usize>,
    /// Listeners out of the readiness queue after a failed `accept`, all
    /// due back at `unpark_at`.
    parked: Vec<usize>,
    unpark_at: Option<Instant>,
    next_key: usize,
    /// The current pass's frames for endpoints that do not serve.
    staged: Staged,
}

impl Sockets<'_> {
    /// Reads `conn` for `owner` from the next wait on — and, if `owner`
    /// serves, answers its frames.
    fn adopt(&mut self, owner: Arc<EndpointShared>, conn: Arc<Conn>, peer: Option<ProcessId>) {
        self.next_key += 1;
        // Unreadable, so unusable: its dialer reconnects (crash model).
        if self.shared.poller.add(fd(&conn.stream), Event::readable(self.next_key)).is_err() {
            conn.kill();
            return;
        }
        owner.conns.fetch_add(1, Ordering::SeqCst);
        let handler = self.served.iter().find(|(served, _)| Arc::ptr_eq(served, &owner)).map(|(_, h)| h);
        let mut conn = SharedConn {
            conn,
            owner,
            peer,
            buf: Vec::new(),
            filled: 0,
            handler: None,
            out: BytesMut::new(),
            written: 0,
            stalled_since: None,
        };
        if let Some(handler) = handler {
            conn.serve(handler);
        }
        self.conns.insert(self.next_key, conn);
    }

    /// Has `endpoint`'s connections, present and future, answered by
    /// `handler`.
    fn serve(&mut self, endpoint: Arc<EndpointShared>, handler: Arc<Served>) {
        for conn in self.conns.values_mut().filter(|conn| Arc::ptr_eq(&conn.owner, &endpoint)) {
            conn.serve(&handler);
        }
        self.served.push((endpoint, handler));
    }

    /// Closes `endpoint`'s listener and every connection read for it, and
    /// lets go of its handler slot.
    fn detach(&mut self, endpoint: &Arc<EndpointShared>) {
        let shared = self.shared;
        self.conns.retain(|_, conn| {
            let theirs = Arc::ptr_eq(&conn.owner, endpoint);
            if theirs {
                reap(shared, conn);
            }
            !theirs
        });
        self.listeners.retain(|_, listener| !Arc::ptr_eq(&listener.owner, endpoint));
        self.served.retain(|(served, _)| !Arc::ptr_eq(served, endpoint));
    }

    fn close(&mut self, key: usize) {
        if let Some(conn) = self.conns.remove(&key) {
            reap(self.shared, &conn);
        }
    }

    /// Acts on what connection `key` just did, `stalled` being whether its
    /// reply tail was waiting for room before: a connection is watched for
    /// room while a tail waits and for bytes otherwise, a closed one is
    /// reaped, and a panicking handler crashes its endpoint — its handler
    /// goes, its listener and connections close — while every other
    /// endpoint of the registry carries on.
    fn settle(&mut self, key: usize, stalled: bool, outcome: Outcome) {
        match outcome {
            Outcome::Open => {
                let conn = &self.conns[&key];
                if conn.stalled_since.is_some() == stalled {
                    return;
                }
                let interest = if stalled { Event::readable(key) } else { Event::writable(key) };
                if self.shared.poller.modify(fd(&conn.conn.stream), interest).is_err() {
                    self.close(key);
                } else if !stalled && !self.stalled.contains(&key) {
                    self.stalled.push(key);
                }
            }
            Outcome::Closed => self.close(key),
            Outcome::Panicked => {
                let owner = Arc::clone(&self.conns[&key].owner);
                self.detach(&owner);
            }
        }
    }

    /// Reaps every connection whose reply tail has made no progress for its
    /// endpoint's [`TcpTuning::write_timeout`] — the stall bound, held
    /// without holding up any thread — and returns when the next one is
    /// due, if any tail is waiting.
    fn reap_stalled(&mut self) -> Option<Instant> {
        if self.stalled.is_empty() {
            return None;
        }
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        for key in std::mem::take(&mut self.stalled) {
            // Gone, drained, or unbounded (`Duration::ZERO`): nothing to time.
            let Some(conn) = self.conns.get(&key) else { continue };
            let timeout = conn.owner.tuning.write_timeout;
            let Some(since) = conn.stalled_since.filter(|_| !timeout.is_zero()) else { continue };
            let due = since + timeout;
            if due <= now {
                self.close(key);
            } else {
                self.stalled.push(key);
                next = Some(next.map_or(due, |next| next.min(due)));
            }
        }
        next
    }

    /// Puts listener `key` in the readiness queue, or parks it should the
    /// queue refuse it. A listener detached while parked is gone.
    fn arm(&mut self, key: usize) {
        let Some(listener) = self.listeners.get(&key) else { return };
        if self.shared.poller.add(fd(&listener.socket), Event::readable(key)).is_err() {
            self.park(key);
        }
    }

    fn park(&mut self, key: usize) {
        self.parked.push(key);
        self.unpark_at.get_or_insert_with(|| Instant::now() + ACCEPT_RETRY_PAUSE);
    }

    /// Accepts on listener `key` until `WouldBlock`, adopting every socket
    /// on the spot. Not a listener's key: nothing to do.
    fn accept(&mut self, key: usize) {
        while let Some(listener) = self.listeners.get(&key) {
            match listener.socket.accept() {
                Ok((stream, _)) => {
                    let conn = Conn::new(stream, listener.owner.tuning);
                    self.adopt(Arc::clone(&listener.owner), conn, None);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // A signal, or the peer reset before it was taken.
                Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::ConnectionAborted) => {}
                // The descriptor table is full (`EMFILE`/`ENFILE`): the
                // connection stays queued and the listener ready, so every
                // wait would report it at once. Withdraw it for a pause
                // instead of spinning; giving up would leave an endpoint
                // that dials out but is never reachable again.
                Err(_) => {
                    let _ = self.shared.poller.delete(fd(&listener.socket));
                    return self.park(key);
                }
            }
        }
    }
}

impl Drop for Sockets<'_> {
    fn drop(&mut self) {
        for (_, conn) in self.conns.drain() {
            reap(self.shared, &conn);
        }
        self.listeners.clear();
        self.served.clear();
        let unrun = self.shared.commands.lock().take();
        for command in unrun.into_iter().flatten() {
            command.refuse();
        }
    }
}

/// The reactor: sleeps in the readiness queue until any listener or
/// adopted socket of any endpoint is ready (or a command is submitted,
/// parked listeners are due back, or a stalled reply tail runs out of
/// time), then accepts on every ready listener, reads every readable
/// connection once — staged for its owner's inbox, or through its owner's
/// handler — and writes every waiting reply tail that has room. The pass
/// ends with one push into each inbox that has frames staged, before
/// sleeping again.
fn reactor_loop(shared: &ReactorShared) {
    let mut sockets = Sockets {
        shared,
        conns: HashMap::new(),
        listeners: HashMap::new(),
        served: Vec::new(),
        stalled: Vec::new(),
        parked: Vec::new(),
        unpark_at: None,
        next_key: 0,
        staged: Staged::default(),
    };
    let mut events: Vec<Event> = Vec::new();
    let mut wake = 0u64;
    loop {
        events.clear();
        // A timeout only while a listener is parked or a reply tail waits.
        let due = [sockets.unpark_at, sockets.reap_stalled()].into_iter().flatten().min();
        let timeout = due.map(|at| at.saturating_duration_since(Instant::now()));
        if shared.poller.wait(&mut events, timeout).is_err() {
            return;
        }
        if sockets.unpark_at.is_some_and(|at| at <= Instant::now()) {
            sockets.unpark_at = None;
            for key in std::mem::take(&mut sockets.parked) {
                sockets.arm(key);
            }
        }
        // Run the commands submitted since the last wake. Any bytes or
        // connections already waiting on a socket added here surface on
        // the next (level-triggered) wait.
        let commands = std::mem::take(
            shared.commands.lock().as_mut().expect("only this thread closes the queue, on its way out"),
        );
        let mut stop = false;
        for command in commands {
            match command {
                Command::Listen(listener) => {
                    sockets.next_key += 1;
                    sockets.listeners.insert(sockets.next_key, listener);
                    sockets.arm(sockets.next_key);
                }
                Command::Adopt { endpoint, conn, peer } => sockets.adopt(endpoint, conn, Some(peer)),
                Command::Serve { endpoint, handler } => sockets.serve(endpoint, handler),
                Command::Detach { endpoint, done } => {
                    sockets.detach(&endpoint);
                    drop(done);
                }
                Command::Stop => stop = true,
            }
        }
        if stop {
            return;
        }
        if !events.is_empty() {
            wake = shared.wakes.fetch_add(1, Ordering::Relaxed) + 1;
        }
        for event in &events {
            let Some(conn) = sockets.conns.get_mut(&event.key) else {
                // A listener's key — or a socket reported, then closed by a
                // command or a crash of this same wake: gone.
                sockets.accept(event.key);
                continue;
            };
            conn.owner.count_wake(wake);
            // A connection with a reply tail waiting is watched for room
            // only: it is not read again until the tail has gone out.
            let stalled = conn.stalled_since.is_some();
            let outcome = if stalled { conn.write_out() } else { conn.read_ready(&mut sockets.staged) };
            sockets.settle(event.key, stalled, outcome);
        }
        sockets.staged.deliver();
    }
}

/// Kills an adopted connection and withdraws it from the readiness queue
/// (before the reactor's `Arc` drops, which may be what closes the
/// descriptor).
fn reap(shared: &ReactorShared, conn: &SharedConn) {
    conn.conn.kill();
    let _ = shared.poller.delete(fd(&conn.conn.stream));
    conn.owner.conns.fetch_sub(1, Ordering::SeqCst);
}

/// One process's TCP endpoint: a listener and connections the registry's
/// reactor reads into the inbox — or, once the endpoint
/// [serves](TcpEndpoint::serve), answers on the spot — plus a send path
/// per destination. It runs no thread of its own.
#[derive(Debug)]
pub struct TcpEndpoint {
    id: ProcessId,
    registry: TcpRegistry,
    inbox: Receiver<Inbound>,
    pipelines: Mutex<HashMap<ProcessId, Arc<PeerPipeline>>>,
    local_addr: SocketAddr,
    /// This endpoint's side of the receive path: inbox, counters, gauge.
    shared: Arc<EndpointShared>,
    /// This endpoint's share in the registry's reactor: the last endpoint
    /// to drop its handle stops and joins the thread.
    _reactor: Arc<Reactor>,
}

impl TcpEndpoint {
    /// Binds a non-blocking listener on `127.0.0.1` (ephemeral port),
    /// hands it to the registry's reactor (starting it if this is the
    /// registry's only endpoint), which accepts on it from its next
    /// wake-up, and registers the address.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if binding fails, if the OS refuses the
    /// reactor a thread, or if the target has no readiness queue for it.
    /// Registering the address is the last step, after the last one that
    /// can fail: an `Err` leaves nothing behind — no thread, no listener,
    /// no registry entry resolving to one (a reactor started for this call
    /// alone is stopped and joined as the error is returned).
    pub fn bind(id: ProcessId, registry: &TcpRegistry) -> Result<TcpEndpoint, TransportError> {
        let socket = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
        let local_addr = socket.local_addr().map_err(io_err)?;
        socket.set_nonblocking(true).map_err(io_err)?;
        let reactor = registry.reactor().map_err(io_err)?;
        let (tx, rx) = unbounded();

        let shared = Arc::new(EndpointShared {
            id,
            tuning: registry.tuning,
            reactor: Arc::clone(&reactor.shared),
            inbox: tx,
            wakes: AtomicU64::new(0),
            last_wake: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            deliveries: AtomicU64::new(0),
            conns: Arc::new(AtomicUsize::new(0)),
        });
        let listener = Listener { socket, owner: Arc::clone(&shared) };
        reactor.shared.submit(Command::Listen(listener));
        reactor.shared.endpoints.lock().push(Arc::downgrade(&shared));
        registry.insert(id, local_addr);
        Ok(TcpEndpoint {
            id,
            registry: registry.clone(),
            inbox: rx,
            pipelines: Mutex::new(HashMap::new()),
            local_addr,
            shared,
            _reactor: reactor,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the send-path counters for `to`, or `None` if
    /// nothing was ever sent there.
    pub fn peer_stats(&self, to: ProcessId) -> Option<PeerStats> {
        self.pipelines.lock().get(&to).map(|p| p.stats.snapshot())
    }

    /// A snapshot of this endpoint's share of the reactor's work: `wakes`
    /// counts the reactor wake-ups in which one of this endpoint's
    /// connections was ready (its listener's readiness is not counted),
    /// so `wakes ≤ frames` holds per endpoint as it did when each had a
    /// reader thread of its own.
    pub fn reader_stats(&self) -> ReaderStats {
        ReaderStats {
            wakes: self.shared.wakes.load(Ordering::Relaxed),
            frames: self.shared.frames.load(Ordering::Relaxed),
            deliveries: self.shared.deliveries.load(Ordering::Relaxed),
            open_connections: self.shared.conns.load(Ordering::SeqCst),
        }
    }

    /// The gauge of connections the reactor currently reads for this
    /// endpoint: every connection it dialed and every one it accepted. The
    /// `Arc` outlives the endpoint, so tests can assert teardown really
    /// closed everything: the gauge reads zero by the time `drop` returns
    /// (the endpoint is detached from the reactor synchronously).
    pub fn connection_gauge(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.shared.conns)
    }

    /// A handle on `to`'s pipeline, created on first use; `None` if `to`
    /// was never registered. Taken under the pipeline map lock, but every
    /// write happens outside it: one stalled peer must not serialize sends
    /// to the others. Once a pipeline exists, the process-global registry
    /// is not consulted again: a peer that crashes later is detected inside
    /// the pipeline (dropped frames, reconnect backoff).
    fn pipeline(&self, to: ProcessId) -> Option<Arc<PeerPipeline>> {
        let mut pipelines = self.pipelines.lock();
        let pipeline = match pipelines.entry(to) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.registry.lookup(to)?;
                let shared = Arc::clone(&self.shared);
                e.insert(PeerPipeline::new(self.id, to, self.registry.clone(), shared))
            }
        };
        Some(Arc::clone(pipeline))
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        // One synchronous step: the listener (the port is free for a
        // crash–rebind) and every connection of this endpoint are closed
        // when it returns. If this was the registry's last endpoint,
        // dropping the reactor handle then stops and joins the thread.
        self.shared.detach();
    }
}

impl Endpoint for TcpEndpoint {
    fn id(&self) -> ProcessId {
        self.id
    }

    /// Writes `msg` to `to` on the caller's thread, creating the peer's
    /// pipeline on first use.
    ///
    /// Destinations that were never registered fail synchronously with
    /// [`TransportError::UnknownDestination`] (a map probe, never a
    /// syscall); a registered peer that crashed later is detected inside
    /// its pipeline (dropped frames, reconnect backoff).
    fn send(&self, to: ProcessId, msg: Msg) -> Result<(), TransportError> {
        let pipeline = self.pipeline(to).ok_or(TransportError::UnknownDestination { to })?;
        pipeline.send(&msg);
        Ok(())
    }

    /// Writes every frame of `batch` from the borrowed buffer, one pipeline
    /// lookup and one write each, and leaves the buffer empty with its
    /// capacity: a round allocates no batch. Dead peers are skipped, the
    /// tolerated failure. Every reply comes back through the inbox.
    fn round_trip(&self, batch: &mut Vec<(ProcessId, Msg)>, replies: &mut VecDeque<Inbound>) {
        let _ = replies;
        for (to, msg) in batch.drain(..) {
            if let Some(pipeline) = self.pipeline(to) {
                pipeline.send(&msg);
            }
        }
    }

    fn inbox(&self) -> &Receiver<Inbound> {
        &self.inbox
    }

    /// Answers on the reactor: from its next wake-up, every frame one of
    /// this endpoint's connections carries is handed to `handler` on the
    /// reactor thread as soon as it is decoded, and the reply is written on
    /// that connection — no inbox, no wake, no thread. The connections are
    /// non-blocking from then on; a reply the kernel cannot take at once
    /// waits in the connection's buffer (see the module docs), and one
    /// whose connection is gone is dropped: the reactor never dials.
    ///
    /// Frames decoded before the reactor takes the handler over stay in the
    /// inbox, unanswered, like requests to a server still starting.
    ///
    /// The reactor calls the handler through its served slot, taking the
    /// slot's one lock per frame. A handler that panics crashes this
    /// endpoint alone: its handler is dropped and its listener and
    /// connections close, while every other endpoint of the registry
    /// carries on; [`Serving::stop`] returns the panic. Stopping drops the
    /// endpoint, which detaches it (see `drop`), then takes the handler out
    /// of its slot and hands it back.
    fn serve<H>(self, handler: H) -> Serving
    where
        Self: Sized + 'static,
        H: Handler,
    {
        let served = Served::new(handler);
        let handler = Arc::clone(&served);
        self.shared.reactor.submit(Command::Serve { endpoint: Arc::clone(&self.shared), handler });
        Serving::new(served, move || {
            drop(self);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_core::{OpHandle, OpId};
    use mwr_types::{ClientId, ReaderId, TaggedValue, Value};
    use std::sync::Barrier;
    use std::time::Duration;

    /// Spins (yielding) until `cond` holds; panics with `what` after 5 s.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "{what}");
            thread::yield_now();
        }
    }

    /// A frame as it goes on the wire, for tests that talk to an endpoint
    /// through a raw socket.
    fn raw_frame(from: ProcessId, msg: &Msg) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u32((from.encoded_len() + msg.encoded_len()) as u32);
        from.encode(&mut buf);
        msg.encode(&mut buf);
        buf.to_vec()
    }

    /// Waits for the endpoint to close its end of a raw connection: our
    /// end observes EOF (or a reset).
    fn assert_closed_by_endpoint(stream: &mut TcpStream, what: &str) {
        stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut probe = [0u8; 1];
            match stream.read(&mut probe) {
                Ok(0) => break,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    assert!(Instant::now() < deadline, "{what}");
                }
                Err(_) => break, // reset: closed too
                Ok(_) => panic!("the endpoint was never asked to write here"),
            }
        }
    }

    /// Sends `InvokeWrite(0)`, `InvokeWrite(1)`, … from `sender` until one
    /// reaches `to`, and returns the number that got through first.
    fn first_frame_through(sender: &TcpEndpoint, to: &TcpEndpoint) -> u64 {
        for seq in 0..50 {
            let _ = sender.send(to.id(), Msg::InvokeWrite(Value::new(seq)));
            if let Ok((from, msg)) = to.inbox().recv_timeout(Duration::from_millis(200)) {
                assert_eq!(from, sender.id());
                let Msg::InvokeWrite(value) = msg else { panic!("unexpected frame {msg:?}") };
                return value.get();
            }
        }
        panic!("no frame from {} ever reached {}", sender.id(), to.id());
    }

    #[test]
    fn frames_round_trip_over_loopback() {
        let registry = TcpRegistry::new();
        let a = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        let b = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        a.send(ProcessId::server(0), Msg::InvokeWrite(Value::new(7))).unwrap();
        let (from, msg) = b.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, ProcessId::writer(0));
        assert_eq!(msg, Msg::InvokeWrite(Value::new(7)));
    }

    /// Each direction rides the connection its own sender dialed: the
    /// reply does not reuse the request's socket, because `b` does not
    /// serve (a served endpoint's reactor would answer on it).
    #[test]
    fn each_direction_rides_the_connection_its_sender_dialed() {
        let registry = TcpRegistry::new();
        let a = TcpEndpoint::bind(ProcessId::reader(0), &registry).unwrap();
        let b = TcpEndpoint::bind(ProcessId::server(1), &registry).unwrap();
        for i in 0..10 {
            a.send(ProcessId::server(1), Msg::InvokeWrite(Value::new(i))).unwrap();
        }
        for _ in 0..10 {
            b.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        }
        b.send(ProcessId::reader(0), Msg::InvokeRead).unwrap();
        let (from, _) = a.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, ProcessId::server(1));
        let stats = a.peer_stats(ProcessId::server(1)).unwrap();
        assert_eq!(stats.frames_sent, 10, "all frames delivered: {stats:?}");
        assert_eq!(stats.connect_attempts, 1, "one connection reused: {stats:?}");
        assert!(stats.batches <= stats.frames_sent);
        let stats = b.peer_stats(ProcessId::reader(0)).unwrap();
        assert_eq!(stats.connect_attempts, 1, "the reply dialed once: {stats:?}");
    }

    /// Dropping an endpoint has the reactor close its listener before Drop
    /// returns: an immediate rebind of the same process id never races a
    /// zombie listener that could steal the rebound endpoint's first
    /// connection. Exercised in a tight loop —
    /// the old race window was exactly this crash/rebind interleaving.
    #[test]
    fn crash_rebind_loop_never_leaves_a_zombie_acceptor() {
        let registry = TcpRegistry::new();
        let client = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        for round in 0..10 {
            let server = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
            let old_addr = server.local_addr();
            drop(server); // crash: must join the acceptor synchronously
            // The old listener is gone *now*, not eventually: a fresh
            // connection to its address is refused, so it cannot steal a
            // connection meant for the rebound endpoint.
            assert!(
                TcpStream::connect(old_addr).is_err(),
                "round {round}: old listener still accepting after drop"
            );
            let rebound = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
            assert_ne!(rebound.local_addr(), old_addr, "ephemeral rebind");
            // Frames reach the rebound acceptor. A frame written into the
            // crashed connection's dead socket can be lost (that is the
            // crash model), so send until one lands.
            let received = (0..20).any(|_| {
                let _ = client.send(ProcessId::server(0), Msg::InvokeWrite(Value::new(round)));
                rebound.inbox().recv_timeout(Duration::from_millis(500)).is_ok()
            });
            assert!(received, "round {round}: rebound acceptor never heard a frame");
        }
    }

    #[test]
    fn unknown_process_is_reported() {
        let registry = TcpRegistry::new();
        let a = TcpEndpoint::bind(ProcessId::reader(0), &registry).unwrap();
        assert!(matches!(
            a.send(ProcessId::server(42), Msg::InvokeRead),
            Err(TransportError::UnknownDestination { .. })
        ));
    }

    #[test]
    fn removed_registry_entry_fails_fast_without_a_pipeline() {
        let registry = TcpRegistry::new();
        let a = TcpEndpoint::bind(ProcessId::reader(0), &registry).unwrap();
        let _b = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        registry.remove(ProcessId::server(0));
        for _ in 0..20 {
            assert!(matches!(
                a.send(ProcessId::server(0), Msg::InvokeRead),
                Err(TransportError::UnknownDestination { .. })
            ));
        }
        // No pipeline was ever spawned for the deregistered peer, so not
        // one connect syscall was spent on the 20 sends.
        assert!(a.peer_stats(ProcessId::server(0)).is_none());
    }

    #[test]
    fn failed_connects_are_negative_cached() {
        let tuning = TcpTuning { reconnect_backoff: Duration::from_secs(30), ..TcpTuning::default() };
        let registry = TcpRegistry::new().with_tuning(tuning);
        let a = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        // Register an address nobody listens on: grab an ephemeral port,
        // then close the listener so connects are refused.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        registry.insert(ProcessId::server(9), dead_addr);
        for _ in 0..50 {
            a.send(ProcessId::server(9), Msg::InvokeRead).unwrap();
        }
        // Give the pipeline time to drain the queue against the dead peer.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = a.peer_stats(ProcessId::server(9)).unwrap();
            if stats.frames_dropped + stats.frames_sent == 50 {
                assert!(
                    stats.connect_attempts <= 2,
                    "negative cache must stop the connect storm: {stats:?}"
                );
                assert!(stats.frames_dropped > 0, "dead peer drops frames: {stats:?}");
                break;
            }
            assert!(Instant::now() < deadline, "pipeline never drained: {stats:?}");
            thread::yield_now();
        }
    }

    #[test]
    fn drop_flushes_queued_frames() {
        let registry = TcpRegistry::new();
        let b = TcpEndpoint::bind(ProcessId::server(3), &registry).unwrap();
        {
            let a = TcpEndpoint::bind(ProcessId::writer(1), &registry).unwrap();
            for i in 0..100 {
                a.send(ProcessId::server(3), Msg::InvokeWrite(Value::new(i))).unwrap();
            }
            // `a` drops here: the pipeline must deliver everything queued
            // before its writer thread exits.
        }
        for i in 0..100 {
            let (_, msg) = b.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg, Msg::InvokeWrite(Value::new(i)), "FIFO preserved through teardown");
        }
    }

    /// Many senders fan in to one endpoint through the one reactor
    /// thread. Every frame arrives, the endpoint's
    /// frame counter accounts for all of them, the connection gauge sees
    /// one adopted socket per sender, and peer EOFs (dropped senders) are
    /// reaped back to zero.
    #[test]
    fn shared_reader_fans_in_many_connections_on_one_thread() {
        let registry = TcpRegistry::new();
        let hub = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let senders: Vec<TcpEndpoint> = (0..8)
            .map(|i| TcpEndpoint::bind(ProcessId::writer(i), &registry).unwrap())
            .collect();
        for (i, sender) in senders.iter().enumerate() {
            for j in 0..25 {
                let v = Value::new((i * 25 + j) as u64);
                sender.send(ProcessId::server(0), Msg::InvokeWrite(v)).unwrap();
            }
        }
        for _ in 0..200 {
            hub.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let stats = hub.reader_stats();
        assert_eq!(stats.frames, 200, "{stats:?}");
        assert_eq!(stats.open_connections, 8, "one adopted socket per sender: {stats:?}");
        assert!(stats.wakes >= 1 && stats.wakes <= stats.frames, "{stats:?}");

        // Dropping the senders closes their sockets; the shared reader
        // observes the EOFs and reaps the connections.
        drop(senders);
        wait_until("EOF'd connections never reaped", || {
            hub.reader_stats().open_connections == 0
        });
    }

    /// Dropping an endpoint detaches it from the reactor and waits for that,
    /// so every adopted
    /// connection is provably closed by the time `drop` returns — the
    /// gauge outlives the endpoint to make that assertable.
    #[test]
    fn endpoint_drop_closes_every_adopted_connection() {
        let registry = TcpRegistry::new();
        let hub = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let senders: Vec<TcpEndpoint> = (0..4)
            .map(|i| TcpEndpoint::bind(ProcessId::reader(i), &registry).unwrap())
            .collect();
        for sender in &senders {
            sender.send(ProcessId::server(0), Msg::InvokeRead).unwrap();
        }
        for _ in 0..4 {
            hub.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let gauge = hub.connection_gauge();
        assert_eq!(gauge.load(Ordering::SeqCst), 4);
        drop(hub);
        assert_eq!(
            gauge.load(Ordering::SeqCst),
            0,
            "teardown must close adopted connections synchronously"
        );
    }

    /// A corrupt length prefix (oversized frame) drops exactly that
    /// connection, without disturbing its neighbours.
    #[test]
    fn oversized_frame_drops_only_the_offending_connection() {
        let registry = TcpRegistry::new();
        let hub = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let good = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        good.send(ProcessId::server(0), Msg::InvokeRead).unwrap();
        hub.inbox().recv_timeout(Duration::from_secs(5)).unwrap();

        let mut evil = TcpStream::connect(hub.local_addr()).unwrap();
        evil.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        evil.flush().unwrap();
        // The evil connection is adopted and then dropped on decode.
        assert_closed_by_endpoint(&mut evil, "corrupt connection never dropped");
        // The good connection is untouched.
        good.send(ProcessId::server(0), Msg::InvokeWrite(Value::new(9))).unwrap();
        let (_, msg) = hub.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg, Msg::InvokeWrite(Value::new(9)));
        assert_eq!(hub.reader_stats().open_connections, 1);
    }

    /// Three frames written at once are read in one reactor pass, so an
    /// endpoint that does not serve gets them with one push into its inbox.
    #[test]
    fn frames_read_in_one_pass_are_one_inbox_push() {
        let registry = TcpRegistry::new();
        let hub = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let peer = ProcessId::writer(0);
        let wire: Vec<u8> = (0..3).flat_map(|seq| raw_frame(peer, &Msg::InvokeWrite(Value::new(seq)))).collect();
        let mut raw = TcpStream::connect(hub.local_addr()).unwrap();
        raw.write_all(&wire).unwrap();
        for seq in 0..3 {
            let inbound = hub.inbox().recv_timeout(Duration::from_secs(5)).expect("a frame was lost");
            assert_eq!(inbound, (peer, Msg::InvokeWrite(Value::new(seq))));
        }
        let stats = hub.reader_stats();
        assert_eq!((stats.frames, stats.deliveries), (3, 1), "{stats:?}");
    }

    /// Two connections' frames share the pushes of the passes that read
    /// both, and each connection's frames still arrive in the order they
    /// were written.
    #[test]
    fn staged_frames_keep_each_connections_order() {
        let registry = TcpRegistry::new();
        let hub = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let peers = [ProcessId::writer(0), ProcessId::writer(1)];
        let mut raws: Vec<TcpStream> = peers.iter().map(|_| TcpStream::connect(hub.local_addr()).unwrap()).collect();
        for chunk in 0..100 {
            for (raw, peer) in raws.iter_mut().zip(peers) {
                let wire: Vec<u8> = (chunk * 4..chunk * 4 + 4)
                    .flat_map(|seq| raw_frame(peer, &Msg::InvokeWrite(Value::new(seq))))
                    .collect();
                raw.write_all(&wire).unwrap();
            }
        }
        let mut next = HashMap::new();
        receive_in_order(&hub, &mut next, |next| peers.iter().all(|peer| next.get(peer) == Some(&400)));
        let stats = hub.reader_stats();
        assert_eq!(stats.frames, 800, "{stats:?}");
        assert!(stats.deliveries <= stats.wakes, "at most one push per pass: {stats:?}");
    }

    /// Reads `InvokeWrite(seq)` frames off `at` until `done` says enough,
    /// asserting that each sender's sequence numbers arrive without a gap.
    fn receive_in_order(
        at: &TcpEndpoint,
        next: &mut HashMap<ProcessId, u64>,
        done: impl Fn(&HashMap<ProcessId, u64>) -> bool,
    ) {
        while !done(next) {
            let (from, msg) = at.inbox().recv_timeout(Duration::from_secs(5)).expect("a frame was lost");
            let Msg::InvokeWrite(value) = msg else { panic!("unexpected frame {msg:?}") };
            let expected = next.entry(from).or_insert(0);
            assert_eq!(value.get(), *expected, "frames from {from} to {} out of order", at.id());
            *expected += 1;
        }
    }

    /// The tentpole: however many endpoints a registry has, one reactor
    /// reads for all of them, and keeps each sender's frames in order.
    /// (That the process then runs exactly one `tcp-reactor` thread is
    /// counted in `tests/tcp_reactor_census.rs`, a process of its own:
    /// here the neighbouring tests run reactors too.)
    #[test]
    fn one_reactor_thread_serves_every_endpoint_of_a_registry() {
        const ENDPOINTS: u32 = 8;
        const FRAMES: u64 = 20;
        let registry = TcpRegistry::new();
        let endpoints: Vec<TcpEndpoint> = (0..ENDPOINTS)
            .map(|i| TcpEndpoint::bind(ProcessId::server(i), &registry).unwrap())
            .collect();
        for endpoint in &endpoints {
            assert!(Arc::ptr_eq(&endpoint._reactor, &endpoints[0]._reactor), "a second reactor was started");
        }
        assert_eq!(Arc::strong_count(&endpoints[0]._reactor), ENDPOINTS as usize, "owned by the endpoints alone");

        // Criss-cross: every endpoint sends to every other, all at once.
        thread::scope(|scope| {
            for me in &endpoints {
                let endpoints = &endpoints;
                scope.spawn(move || {
                    for seq in 0..FRAMES {
                        for peer in endpoints.iter().filter(|peer| peer.id() != me.id()) {
                            me.send(peer.id(), Msg::InvokeWrite(Value::new(seq))).unwrap();
                        }
                    }
                });
            }
        });
        let senders = (ENDPOINTS - 1) as usize;
        for endpoint in &endpoints {
            let mut next = HashMap::new();
            receive_in_order(endpoint, &mut next, |next| {
                next.len() == senders && next.values().all(|&seq| seq == FRAMES)
            });
            let stats = endpoint.reader_stats();
            assert_eq!(stats.frames, senders as u64 * FRAMES, "{stats:?}");
            assert!(stats.wakes >= 1 && stats.wakes <= stats.frames, "{stats:?}");
        }
        let totals = registry.reader_totals();
        assert_eq!(totals.frames, u64::from(ENDPOINTS) * senders as u64 * FRAMES, "{totals:?}");
        assert!(totals.wakes >= 1 && totals.wakes <= totals.frames, "{totals:?}");
        // A wake that served three endpoints counts once here and once for
        // each of them there.
        let per_endpoint: u64 = endpoints.iter().map(|e| e.reader_stats().wakes).sum();
        assert!(totals.wakes <= per_endpoint, "{totals:?} against a per-endpoint sum of {per_endpoint}");
    }

    /// `crash_server` is "drop that endpoint": with one reactor reading for
    /// everybody, a detach must close that endpoint's connections and no
    /// other's, while the siblings' frames keep flowing.
    #[test]
    fn dropping_one_endpoint_leaves_its_siblings_connected() {
        const PEERS: u32 = 3;
        let registry = TcpRegistry::new();
        let hub_a = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let hub_b = TcpEndpoint::bind(ProcessId::server(1), &registry).unwrap();
        let peers: Vec<TcpEndpoint> =
            (0..PEERS).map(|i| TcpEndpoint::bind(ProcessId::writer(i), &registry).unwrap()).collect();
        // Every peer is connected to both hubs before the traffic starts.
        for peer in &peers {
            peer.send(hub_a.id(), Msg::InvokeRead).unwrap();
            hub_a.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let gauge_a = hub_a.connection_gauge();
        assert_eq!(gauge_a.load(Ordering::SeqCst), PEERS as usize);

        // How many frames each peer has handed to B's pipeline so far.
        let sent: Vec<AtomicU64> = (0..PEERS).map(|_| AtomicU64::new(0)).collect();
        let stop = AtomicBool::new(false);
        thread::scope(|scope| {
            for (peer, sent) in peers.iter().zip(&sent) {
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let seq = sent.load(Ordering::Acquire);
                        peer.send(ProcessId::server(1), Msg::InvokeWrite(Value::new(seq))).unwrap();
                        sent.store(seq + 1, Ordering::Release);
                        // A's inbox fills (nobody reads it) and A goes away
                        // mid-stream: these may fail, and may not matter.
                        let _ = peer.send(ProcessId::server(0), Msg::InvokeWrite(Value::new(seq)));
                    }
                });
            }
            let mut next = HashMap::new();
            // Before: traffic from every peer is flowing through B.
            receive_in_order(&hub_b, &mut next, |next| {
                next.len() == PEERS as usize && next.values().all(|&seq| seq >= 20)
            });
            assert_eq!(hub_b.reader_stats().open_connections, PEERS as usize);

            // During: A goes, under that traffic.
            drop(hub_a);
            assert_eq!(gauge_a.load(Ordering::SeqCst), 0, "A's connections must be closed when drop returns");
            assert_eq!(hub_b.reader_stats().open_connections, PEERS as usize, "B lost a connection to A's detach");

            // After: frames handed over once A was gone arrive too, and —
            // `receive_in_order` — nothing in between went missing.
            let marks: Vec<u64> = sent.iter().map(|sent| sent.load(Ordering::Acquire) + 20).collect();
            receive_in_order(&hub_b, &mut next, |next| {
                peers.iter().zip(&marks).all(|(peer, &mark)| next[&peer.id()] >= mark)
            });
            stop.store(true, Ordering::Release);
        });
        assert_eq!(hub_b.reader_stats().open_connections, PEERS as usize);
        for peer in &peers {
            let stats = peer.peer_stats(ProcessId::server(1)).unwrap();
            assert_eq!(stats.connect_attempts, 1, "a connection to B was redialed: {stats:?}");
            assert_eq!(stats.frames_dropped, 0, "{stats:?}");
        }
    }

    /// The raw-socket case of
    /// `oversized_frame_drops_only_the_offending_connection`, with the
    /// offended endpoint and the bystander both read by the one reactor.
    #[test]
    fn a_corrupt_frame_on_one_endpoint_does_not_disturb_another() {
        let registry = TcpRegistry::new();
        let victim = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let bystander = TcpEndpoint::bind(ProcessId::server(1), &registry).unwrap();
        let good = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        for hub in [&victim, &bystander] {
            good.send(hub.id(), Msg::InvokeRead).unwrap();
            hub.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        }

        let mut evil = TcpStream::connect(victim.local_addr()).unwrap();
        evil.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        evil.flush().unwrap();
        assert_closed_by_endpoint(&mut evil, "corrupt connection never dropped");

        // Neither the other endpoint nor the victim's other connection
        // noticed.
        for hub in [&bystander, &victim] {
            good.send(hub.id(), Msg::InvokeWrite(Value::new(9))).unwrap();
            let (_, msg) = hub.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg, Msg::InvokeWrite(Value::new(9)));
            assert_eq!(hub.reader_stats().open_connections, 1, "{}", hub.id());
        }
        assert_eq!(good.reader_stats().open_connections, 2);
    }

    /// The last endpoint out stops the reactor; the registry, which only
    /// ever found it, starts another for the next `bind`.
    #[test]
    fn a_second_generation_of_endpoints_gets_a_fresh_reactor() {
        let registry = TcpRegistry::new();
        let first_reactor = {
            let a = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
            let b = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
            assert_eq!(first_frame_through(&a, &b), 0);
            assert_eq!(registry.reader_totals().frames, 1);
            Arc::downgrade(&a._reactor)
        };
        assert!(first_reactor.upgrade().is_none(), "the last endpoint out must stop the reactor");
        assert_eq!(registry.reader_totals(), ReaderStats::default(), "no endpoint, no reactor, no totals");

        let a = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        let b = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        assert!(Arc::ptr_eq(&a._reactor, &b._reactor));
        assert_eq!(first_frame_through(&a, &b), 0);
        assert_eq!(first_frame_through(&b, &a), 0);
        let totals = registry.reader_totals();
        assert_eq!((totals.frames, totals.open_connections), (2, 4), "{totals:?}");
    }

    /// Regression: the registry kept one `Weak` per `bind` and pruned them
    /// only in `reader_totals`, which nothing on the rejoin path calls — a
    /// cluster that crash/rejoins for a week leaked one per cycle.
    #[test]
    fn bind_drop_cycles_do_not_grow_the_registrys_bookkeeping() {
        let registry = TcpRegistry::new();
        let keeper = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        for _ in 0..200 {
            drop(TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap());
        }
        let tracked = keeper._reactor.shared.endpoints.lock().len();
        assert!(tracked <= 2, "{tracked} entries for one live endpoint");
    }

    /// `drop` waits for the reactor to close its connections. Should the
    /// reactor have left its loop already (its readiness queue failed),
    /// there is nobody to answer: `drop` must see that and return. And
    /// whoever binds meanwhile — a rejoining server — must get a reactor
    /// that runs, not a share in the one that is gone.
    #[test]
    fn drop_returns_when_the_reactor_has_already_left_its_loop() {
        let registry = TcpRegistry::new();
        let a = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        let b = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        assert_eq!(first_frame_through(&a, &b), 0);
        let gauges = [a.connection_gauge(), b.connection_gauge()];
        // The way out of the loop is the same whatever opened it.
        a.shared.reactor.submit(Command::Stop);
        wait_until("the reactor never closed its queue", || a.shared.reactor.commands.lock().is_none());
        for gauge in &gauges {
            assert_eq!(gauge.load(Ordering::SeqCst), 0, "leaving the loop closes every connection");
        }
        // Unread, so unusable: a dial is retired on the spot, the frame lost.
        a.send(ProcessId::server(0), Msg::InvokeRead).unwrap();
        assert!(b.inbox().recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(a.reader_stats().open_connections, 0);

        // The deaf generation is still alive, and so is its reactor handle.
        let c = TcpEndpoint::bind(ProcessId::writer(1), &registry).unwrap();
        let d = TcpEndpoint::bind(ProcessId::server(1), &registry).unwrap();
        assert!(!Arc::ptr_eq(&c._reactor, &a._reactor), "bound to a reactor that has left its loop");
        assert!(Arc::ptr_eq(&c._reactor, &d._reactor));
        assert_eq!(first_frame_through(&c, &d), 0);
        assert_eq!(first_frame_through(&d, &c), 0);

        let (dropped, done) = bounded(1);
        let dropper = thread::spawn(move || {
            drop(a);
            drop(b);
            let _ = dropped.send(());
        });
        done.recv_timeout(Duration::from_secs(5)).expect("drop waited for a reactor that is gone");
        dropper.join().unwrap();
    }

    #[test]
    fn send_batch_fans_out_in_one_call() {
        let registry = TcpRegistry::new();
        let a = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        let b = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let c = TcpEndpoint::bind(ProcessId::server(1), &registry).unwrap();
        a.send_batch(vec![
            (ProcessId::server(0), Msg::InvokeRead),
            (ProcessId::server(1), Msg::InvokeRead),
            (ProcessId::server(7), Msg::InvokeRead), // unknown: dropped
        ]);
        assert!(b.inbox().recv_timeout(Duration::from_secs(5)).is_ok());
        assert!(c.inbox().recv_timeout(Duration::from_secs(5)).is_ok());
    }

    /// The connection model's point: a request/reply exchange with a served
    /// endpoint runs over the one connection the requester dialed. The
    /// reply rides it back, and each side's reactor holds exactly that one
    /// socket.
    #[test]
    fn request_reply_exchange_uses_one_connection() {
        let registry = TcpRegistry::new();
        let client = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        let server = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let gauge = server.connection_gauge();
        let server = server.serve(answering(u64::MAX));
        for seq in 0..10 {
            round_trip(&client, ProcessId::server(0), seq);
        }
        let requester = client.peer_stats(ProcessId::server(0)).unwrap();
        assert_eq!(requester.connect_attempts, 1, "{requester:?}");
        assert_eq!(requester.frames_sent, 10, "{requester:?}");
        assert_eq!(client.reader_stats().open_connections, 1);
        assert_eq!(gauge.load(Ordering::SeqCst), 1, "replies ride the request's socket");
        server.stop().expect("the handler never panicked");
    }

    /// The reactor takes one lock per served frame: the served slot's,
    /// which owns the handler, once for each request it answers.
    #[test]
    fn a_served_frame_takes_one_slot_lock() {
        const QUERIES: u64 = 100;
        let registry = TcpRegistry::new();
        let client = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        let server = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let server = server.serve(answering(u64::MAX));
        for seq in 0..QUERIES {
            round_trip(&client, ProcessId::server(0), seq);
        }
        assert_eq!(server.locks(), QUERIES as usize);
        server.stop().expect("the handler never panicked");
    }

    /// Regression: the negative cache used to be renewed by every batch it
    /// dropped, so a sender that never paused for a whole backoff never
    /// re-dialed, and a peer that came back stayed unreachable for as long
    /// as the traffic lasted. Only a connect or write that failed may
    /// renew it.
    #[test]
    fn busy_sender_redials_a_rebound_peer_within_the_backoff() {
        let backoff = Duration::from_millis(100);
        let tuning = TcpTuning { reconnect_backoff: backoff, ..TcpTuning::default() };
        let registry = TcpRegistry::new().with_tuning(tuning);
        let a = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        let b = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        a.send(ProcessId::server(0), Msg::InvokeRead).unwrap();
        b.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        // Crash b. Its address stays registered, so connects are refused.
        drop(b);
        let started = Instant::now();
        let stop = AtomicBool::new(false);
        thread::scope(|scope| {
            // The busy sender: back-to-back sends, never a pause.
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let _ = a.send(ProcessId::server(0), Msg::InvokeRead);
                }
            });
            wait_until("crashed peer never negative-cached", || {
                a.peer_stats(ProcessId::server(0)).unwrap().frames_dropped > 0
            });
            // Only the cache's expiry can get the sender to dial the new
            // address.
            let b2 = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
            let rebound = Instant::now();
            let heard = b2.inbox().recv_timeout(Duration::from_secs(5));
            let took = rebound.elapsed();
            stop.store(true, Ordering::Release);
            heard.expect("a sender that never pauses must still re-dial a recovered peer");
            assert!(
                took < backoff + Duration::from_secs(1),
                "re-dial took {took:?}, backoff is {backoff:?}"
            );
        });
        // The cache still does its job under that load: about one connect
        // per backoff window, not one per frame.
        let stats = a.peer_stats(ProcessId::server(0)).unwrap();
        let windows = (started.elapsed().as_millis() / backoff.as_millis()) as u64;
        assert!(stats.connect_attempts <= windows + 3, "{stats:?} in {windows} windows");
    }

    /// One connection, one peer: replies to a connection's peer are written
    /// on it, so a later frame under another name is treated like a
    /// corrupt one — that connection dies, the frame is not delivered, and
    /// the neighbours carry on.
    #[test]
    fn frame_naming_another_sender_drops_only_that_connection() {
        let registry = TcpRegistry::new();
        let hub = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let good = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        good.send(ProcessId::server(0), Msg::InvokeRead).unwrap();
        hub.inbox().recv_timeout(Duration::from_secs(5)).unwrap();

        let mut turncoat = TcpStream::connect(hub.local_addr()).unwrap();
        turncoat.write_all(&raw_frame(ProcessId::writer(5), &Msg::InvokeWrite(Value::new(1)))).unwrap();
        let (from, _) = hub.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, ProcessId::writer(5), "the first frame names the connection's peer");
        turncoat.write_all(&raw_frame(ProcessId::writer(6), &Msg::InvokeWrite(Value::new(2)))).unwrap();
        assert_closed_by_endpoint(&mut turncoat, "two-named connection never dropped");
        assert!(hub.inbox().try_recv().is_err(), "the foreign frame must not be delivered");

        good.send(ProcessId::server(0), Msg::InvokeWrite(Value::new(9))).unwrap();
        let (_, msg) = hub.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg, Msg::InvokeWrite(Value::new(9)));
        assert_eq!(hub.reader_stats().open_connections, 1);
    }

    /// The replier crashes and re-binds under traffic. The requester's
    /// connection died with the old incarnation; its next frames reach the
    /// new one by a re-dial, losing at most the one frame that can be
    /// written into the dead socket before anyone knows it is dead.
    #[test]
    fn requester_reaches_a_rebound_replier_without_reusing_the_dead_socket() {
        let registry = TcpRegistry::new();
        let requester = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        for round in 0..5 {
            let replier = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
            let lost = first_frame_through(&requester, &replier);
            assert!(lost <= 1, "round {round}: {lost} frames went into a socket known dead");
            replier.send(ProcessId::writer(0), Msg::InvokeRead).unwrap();
            requester.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
            // Crash mid-conversation; the next round re-binds the id.
        }
        let stats = requester.peer_stats(ProcessId::server(0)).unwrap();
        assert_eq!(stats.connect_attempts, 5, "one dial per incarnation: {stats:?}");
    }

    /// The requester crashes and re-binds under traffic. The survivor's
    /// next frames reach the new incarnation by a re-dial, whoever speaks
    /// first, and never go into the dead socket twice.
    #[test]
    fn replier_reaches_a_rebound_requester_on_a_fresh_connection() {
        let registry = TcpRegistry::new();
        let replier = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        for round in 0..6 {
            let requester = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
            if round % 2 == 0 {
                // The survivor speaks first: the old entry is dead, so it dials.
                let lost = first_frame_through(&replier, &requester);
                assert!(lost <= 1, "round {round}: {lost} frames went into a socket known dead");
            } else {
                // The new incarnation speaks first. Once the old socket's
                // EOF has been seen, the survivor's next frame dials.
                wait_until("dead connection never reaped", || {
                    replier.reader_stats().open_connections == 0
                });
                requester.send(ProcessId::server(0), Msg::InvokeRead).unwrap();
                replier.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(first_frame_through(&replier, &requester), 0, "round {round}");
            }
            // One connection per direction that carried a frame.
            let directions = if round % 2 == 0 { 1 } else { 2 };
            wait_until("the pair never settled on one connection per direction", || {
                replier.reader_stats().open_connections == directions
            });
        }
    }

    /// Both sides dial at the same instant. Each writes on the connection
    /// it dialed (two sockets for the pair), so each direction stays on one
    /// connection: sequence numbers arrive in order.
    #[test]
    fn simultaneous_dials_keep_each_direction_in_order() {
        const FRAMES: u64 = 500;
        for _ in 0..10 {
            let registry = TcpRegistry::new();
            let a = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
            let b = TcpEndpoint::bind(ProcessId::server(1), &registry).unwrap();
            let start = Barrier::new(2);
            thread::scope(|scope| {
                for (me, peer) in [(&a, &b), (&b, &a)] {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        for seq in 0..FRAMES {
                            me.send(peer.id(), Msg::InvokeWrite(Value::new(seq))).unwrap();
                        }
                    });
                }
            });
            for (me, peer) in [(&a, &b), (&b, &a)] {
                for seq in 0..FRAMES {
                    let (from, msg) = me.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
                    assert_eq!(from, peer.id());
                    assert_eq!(msg, Msg::InvokeWrite(Value::new(seq)), "FIFO per direction");
                }
            }
            // Both directions have been read, so both dials were adopted.
            for (me, peer) in [(&a, &b), (&b, &a)] {
                let stats = me.peer_stats(peer.id()).unwrap();
                assert!(stats.connect_attempts <= 1, "{stats:?}");
                assert_eq!(stats.frames_dropped, 0, "{stats:?}");
                let open = me.reader_stats().open_connections;
                assert_eq!(open, 2, "{open} connections for one pair");
            }
        }
    }

    /// A peer that listens but never reads: the hub dials it and writes.
    /// Once the TCP window fills, the sending thread is held for at most
    /// `write_timeout` before the connection is retired and the peer
    /// negative-cached — and the reactor, which reads that socket too, is
    /// never held at all.
    #[test]
    #[allow(clippy::needless_update)] // Names the knobs it needs; the rest stay default.
    fn stalled_peer_holds_a_sender_at_most_the_write_timeout() {
        let write_timeout = Duration::from_millis(200);
        let tuning = TcpTuning {
            write_timeout,
            reconnect_backoff: Duration::from_secs(30),
            ..TcpTuning::default()
        };
        let registry = TcpRegistry::new().with_tuning(tuning);
        let hub = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let good = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();

        // The stalled peer listens but never accepts: the kernel completes
        // the hub's dial from the listen backlog, and nothing reads it.
        let stalled_id = ProcessId::reader(7);
        let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
        registry.insert(stalled_id, stalled.local_addr().unwrap());

        let bulky = Msg::ReadFast {
            handle: OpHandle { op: OpId { client: ClientId::Reader(ReaderId::new(7)), seq: 0 }, phase: 1 },
            val_queue: vec![TaggedValue::initial(); 8 * 1024],
        };
        let mut longest = Duration::ZERO;
        let mut echoes = 0u64;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let sent = Instant::now();
            hub.send(stalled_id, bulky.clone()).unwrap();
            longest = longest.max(sent.elapsed());
            // The reader keeps serving the hub's other peer throughout.
            good.send(ProcessId::server(0), Msg::InvokeWrite(Value::new(echoes))).unwrap();
            let (_, msg) = hub.inbox().recv_timeout(Duration::from_secs(1)).expect("reader blocked");
            assert_eq!(msg, Msg::InvokeWrite(Value::new(echoes)));
            echoes += 1;
            if hub.peer_stats(stalled_id).unwrap().frames_dropped > 0 {
                break;
            }
            assert!(Instant::now() < deadline, "the stalled socket never filled up");
        }
        assert!(longest >= write_timeout / 2, "no send ever met the stall: longest {longest:?}");
        assert!(
            longest < write_timeout + Duration::from_millis(500),
            "a send was held {longest:?}, write_timeout is {write_timeout:?}"
        );
        // Retired and negative-cached: the next sends drop at once, and
        // the stalled peer's socket was closed under it.
        let sent = Instant::now();
        hub.send(stalled_id, bulky).unwrap();
        assert!(sent.elapsed() < write_timeout / 2, "a cached peer must drop fast");
        let stats = hub.peer_stats(stalled_id).unwrap();
        assert_eq!(stats.connect_attempts, 1, "{stats:?}");
        wait_until("stalled connection never reaped", || {
            hub.reader_stats().open_connections == 1
        });
    }

    fn query(seq: u64) -> Msg {
        Msg::Query { handle: OpHandle { op: OpId { client: ClientId::reader(0), seq }, phase: 1 } }
    }

    /// A served endpoint's handler: answers every query — and panics on
    /// the one numbered `panic_on`.
    fn answering(panic_on: u64) -> impl FnMut(ProcessId, &Msg) -> Option<Msg> + Send + 'static {
        move |_, msg| match msg {
            Msg::Query { handle } if handle.op.seq == panic_on => panic!("marked query"),
            Msg::Query { handle } => Some(Msg::QueryAck { handle: *handle, latest: TaggedValue::initial() }),
            _ => None,
        }
    }

    /// Sends `query(seq)` to `server` and waits for its answer.
    fn round_trip(client: &TcpEndpoint, server: ProcessId, seq: u64) {
        client.send(server, query(seq)).unwrap();
        let (from, reply) = client.inbox().recv_timeout(Duration::from_secs(5)).expect("no answer");
        assert_eq!(from, server);
        assert!(matches!(reply, Msg::QueryAck { handle, .. } if handle.op.seq == seq), "{reply:?}");
    }

    /// A handler runs on the reactor that serves every endpoint of the
    /// registry, so one that panics must take down its own endpoint and no
    /// other: its handler is dropped and its listener and connections
    /// close, the other served endpoint answers on, and stopping the
    /// crashed one reports the panic.
    #[test]
    fn a_panicking_handler_crashes_its_endpoint_and_no_other() {
        let registry = TcpRegistry::new();
        let doomed = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let healthy = TcpEndpoint::bind(ProcessId::server(1), &registry).unwrap();
        let client = TcpEndpoint::bind(ProcessId::reader(0), &registry).unwrap();
        let (gauge, addr) = (doomed.connection_gauge(), doomed.local_addr());
        let doomed = doomed.serve(answering(u64::MAX));
        let healthy = healthy.serve(answering(u64::MAX));
        round_trip(&client, ProcessId::server(0), 0);
        round_trip(&client, ProcessId::server(1), 0);
        assert_eq!(gauge.load(Ordering::SeqCst), 1);

        client.send(ProcessId::server(0), query(u64::MAX)).unwrap();
        wait_until("the crashed endpoint's connections never closed", || gauge.load(Ordering::SeqCst) == 0);
        assert!(TcpStream::connect(addr).is_err(), "the crashed endpoint's listener still accepts");
        for seq in 1..=100 {
            round_trip(&client, ProcessId::server(1), seq);
        }
        let panic = doomed.stop().expect_err("the handler's panic is reported");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"marked query"));
        healthy.stop().expect("the other handler never panicked");
    }

    /// A reply far larger than a socket takes at once, between two
    /// endpoints of one registry: the reactor writes what the kernel takes,
    /// watches the socket for room and sends the rest as it drains — while
    /// it reads the fetching endpoint's side of that same connection. A
    /// blocking write here would wait for a reader that is itself.
    #[test]
    fn an_eight_megabyte_reply_between_two_endpoints_of_one_registry_arrives() {
        const REGISTERS: u32 = 50_000;
        let mut bank = mwr_core::ServerBank::new(1, mwr_core::Router::new(2, 2, 1));
        for k in 0..REGISTERS {
            let handle = OpHandle { op: OpId { client: ClientId::writer(0), seq: u64::from(k) }, phase: 1 };
            let value = TaggedValue::new(mwr_types::Tag::new(1, mwr_types::WriterId::new(0)), Value::new(7));
            let update = Msg::Update { handle, value, floor: TaggedValue::initial() };
            let msg = Msg::ForRegister { register: mwr_types::RegisterId::new(k), inner: Box::new(update) };
            bank.handle(ProcessId::writer(0), &msg);
        }
        let registry = TcpRegistry::new();
        let server =
            crate::server::spawn_bank_with(TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap(), bank);
        let fetcher = TcpEndpoint::bind(ProcessId::server(1), &registry).unwrap();
        fetcher.send(ProcessId::server(0), Msg::ShardFetch { shard: 0, nonce: 1 }).unwrap();
        let (_, reply) = fetcher.inbox().recv_timeout(Duration::from_secs(5)).expect("the reply never arrived");
        assert!(reply.encoded_len() > 8_000_000, "{} bytes", reply.encoded_len());
        let Msg::ShardSnapshot { registers, .. } = reply else { panic!("{reply:?}") };
        assert_eq!(registers.len(), REGISTERS as usize);
        assert_eq!(server.shutdown().0, 1);
    }

    /// A message whose frame is past `MAX_FRAME`: 800 000 tagged values of
    /// 21 bytes each.
    fn oversized() -> Msg {
        let value = TaggedValue::new(mwr_types::Tag::new(1, mwr_types::WriterId::new(0)), Value::new(7));
        let handle = OpHandle { op: OpId { client: ClientId::reader(0), seq: 0 }, phase: 1 };
        let msg = Msg::ReadFast { handle, val_queue: vec![value; 800_000] };
        assert!(msg.encoded_len() > MAX_FRAME as usize);
        msg
    }

    /// The peer would drop the connection over a frame past `MAX_FRAME`,
    /// and whatever follows it on the wire, so the sender drops that frame
    /// and counts it: the next one arrives on the same connection.
    #[test]
    fn an_oversized_frame_is_dropped_by_its_sender_and_the_connection_stays() {
        let registry = TcpRegistry::new();
        let client = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();
        let server = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let gauge = server.connection_gauge();
        let delivered = |seq| {
            client.send(ProcessId::server(0), Msg::InvokeWrite(Value::new(seq))).unwrap();
            let (from, msg) = server.inbox().recv_timeout(Duration::from_secs(5)).expect("no frame");
            assert_eq!((from, msg), (ProcessId::writer(0), Msg::InvokeWrite(Value::new(seq))));
        };
        delivered(1);
        assert_eq!(gauge.load(Ordering::SeqCst), 1);
        client.send(ProcessId::server(0), oversized()).unwrap();
        delivered(2);
        let stats = client.peer_stats(ProcessId::server(0)).unwrap();
        assert_eq!((stats.connect_attempts, stats.frames_sent, stats.frames_dropped), (1, 2, 1), "{stats:?}");
        assert_eq!(gauge.load(Ordering::SeqCst), 1);
    }

    /// The same bound on a served endpoint's replies: an oversized reply is
    /// dropped, and the next reply arrives on the connection the request
    /// came in on.
    #[test]
    fn an_oversized_reply_is_dropped_and_the_connection_stays() {
        let registry = TcpRegistry::new();
        let server = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let client = TcpEndpoint::bind(ProcessId::reader(0), &registry).unwrap();
        let gauge = server.connection_gauge();
        let mut answer = answering(u64::MAX);
        let server = server.serve(move |from, msg: &Msg| match msg {
            Msg::Query { handle } if handle.op.seq == 1 => Some(oversized()),
            _ => answer(from, msg),
        });
        round_trip(&client, ProcessId::server(0), 0);
        assert_eq!(gauge.load(Ordering::SeqCst), 1);
        client.send(ProcessId::server(0), query(1)).unwrap();
        round_trip(&client, ProcessId::server(0), 2);
        let stats = client.peer_stats(ProcessId::server(0)).unwrap();
        assert_eq!(stats.connect_attempts, 1, "{stats:?}");
        assert_eq!(gauge.load(Ordering::SeqCst), 1);
        server.stop().expect("the handler never panicked");
    }

    /// A raw client sends queries and never reads its answers. Once the
    /// socket is full its reply tail waits, and the connection is retired
    /// after about `write_timeout` without progress — while a client of a
    /// second endpoint of the same registry gets every answer, none later
    /// than `write_timeout` + 50 ms: no thread is held by the stall.
    #[test]
    fn a_stalled_client_is_retired_while_another_endpoint_answers_on_time() {
        let write_timeout = Duration::from_millis(50);
        let registry = TcpRegistry::new().with_tuning(TcpTuning { write_timeout, ..TcpTuning::default() });
        let stalled_at = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let other = TcpEndpoint::bind(ProcessId::server(1), &registry).unwrap();
        let client = TcpEndpoint::bind(ProcessId::reader(0), &registry).unwrap();
        let (gauge, addr) = (stalled_at.connection_gauge(), stalled_at.local_addr());
        let stalled_at = stalled_at.serve(answering(u64::MAX));
        let other = other.serve(answering(u64::MAX));

        // A thousand queries a burst, written whole, one after the other,
        // until the endpoint hangs up.
        let burst: Vec<u8> = (0..1000).flat_map(|seq| raw_frame(ProcessId::reader(7), &query(seq))).collect();
        let raw = TcpStream::connect(addr).unwrap();
        raw.set_nonblocking(true).unwrap();
        let done = AtomicBool::new(false);
        let (quiet_for, slowest, answered) = thread::scope(|scope| {
            // How long after its last progress the client saw its
            // connection close; `None` if it never did.
            let flooder = scope.spawn(|| {
                let (mut at, mut last_progress, mut closed) = (0, Instant::now(), false);
                let deadline = Instant::now() + Duration::from_secs(30);
                while !closed && Instant::now() < deadline {
                    match (&raw).write(&burst[at..]) {
                        Ok(n) => {
                            at = (at + n) % burst.len();
                            last_progress = Instant::now();
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(Duration::from_millis(1)),
                        Err(_) => closed = true,
                    }
                }
                done.store(true, Ordering::Release);
                closed.then(|| last_progress.elapsed())
            });
            let (mut slowest, mut answered) = (Duration::ZERO, 0u64);
            while !done.load(Ordering::Acquire) {
                let sent = Instant::now();
                round_trip(&client, ProcessId::server(1), answered);
                slowest = slowest.max(sent.elapsed());
                answered += 1;
            }
            (flooder.join().unwrap(), slowest, answered)
        });
        let quiet_for = quiet_for.expect("the stalled connection was never retired");
        assert!(
            quiet_for < write_timeout + Duration::from_millis(500),
            "retired {quiet_for:?} after the client's last progress; write_timeout is {write_timeout:?}"
        );
        assert_eq!(gauge.load(Ordering::SeqCst), 0, "the stalled connection is still open");
        assert!(answered > 0);
        assert!(
            slowest < write_timeout + Duration::from_millis(50),
            "an answer took {slowest:?} over {answered} queries"
        );
        stalled_at.stop().unwrap();
        other.stop().unwrap();
    }

    /// Threads of this process named `tcp-…` other than the reactor.
    fn other_transport_threads() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_owned())
            .filter(|name| name.starts_with("tcp-") && name != "tcp-reactor")
            .collect()
    }

    /// Two threads share the hub's endpoint. A fills a stalled peer's
    /// socket until its `write_all` blocks; B then broadcasts to the stalled
    /// peer and to a healthy one. B waits on the stalled peer's lock — no
    /// queue, no thread spawned for it — and is held about as long as a
    /// stalled write is; the healthy peer gets its frame. Once a write has
    /// timed out, the peer is negative-cached: frames to it drop without a
    /// dial.
    ///
    /// The timeout is well under TCP's 200 ms minimum zero-window probe
    /// interval: a receiver that never reads still grows its buffer when
    /// probed, so a longer timeout would let a stalled write creep forward
    /// instead of giving up.
    #[test]
    fn a_second_sender_to_a_stalled_peer_waits_on_its_lock_at_most_the_write_timeout() {
        let write_timeout = Duration::from_millis(50);
        let tuning = TcpTuning { write_timeout, reconnect_backoff: Duration::from_secs(30) };
        let registry = TcpRegistry::new().with_tuning(tuning);
        let hub = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
        let good = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();

        // The stalled peer listens but never accepts: the kernel completes
        // the hub's dial from the listen backlog, and nothing reads it.
        let stalled_id = ProcessId::reader(7);
        let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
        registry.insert(stalled_id, stalled.local_addr().unwrap());

        let bulky = Msg::ReadFast {
            handle: OpHandle { op: OpId { client: ClientId::Reader(ReaderId::new(7)), seq: 0 }, phase: 1 },
            val_queue: vec![TaggedValue::initial(); 8 * 1024],
        };
        let handled = || hub.peer_stats(stalled_id).map_or(0, |s| s.frames_sent + s.frames_dropped);
        // When A's send in progress began, in µs since `base` plus one;
        // zero while A is between sends.
        let base = Instant::now();
        let sending = AtomicU64::new(0);
        let micros = |at: Instant| at.duration_since(base).as_micros() as u64 + 1;
        let (before_b, after_b, b_took, others) = thread::scope(|scope| {
            scope.spawn(|| {
                let deadline = Instant::now() + Duration::from_secs(30);
                while hub.peer_stats(stalled_id).map_or(0, |s| s.frames_dropped) == 0 {
                    sending.store(micros(Instant::now()), Ordering::Release);
                    hub.send(stalled_id, bulky.clone()).unwrap();
                    sending.store(0, Ordering::Release);
                    assert!(Instant::now() < deadline, "the stalled socket never filled up");
                }
            });
            // A has been inside one send for half the timeout: its
            // `write_all` is blocked on the full socket, holding the lock,
            // and its frame is not counted yet (the counters are read
            // before A is seen still inside that send).
            let before_b = std::cell::Cell::new(0);
            wait_until("A's writes never blocked", || {
                before_b.set(handled());
                let at = sending.load(Ordering::Acquire);
                at != 0 && micros(Instant::now()) >= at + (write_timeout / 2).as_micros() as u64
            });
            let sent = Instant::now();
            hub.send_batch(vec![(stalled_id, bulky.clone()), (good.id(), Msg::InvokeWrite(Value::new(5)))]);
            let b_took = sent.elapsed();
            (before_b.get(), handled(), b_took, other_transport_threads())
        });

        assert!(
            b_took < write_timeout + Duration::from_millis(500),
            "B was held {b_took:?}, write_timeout is {write_timeout:?}"
        );
        let (from, msg) = good.inbox().recv_timeout(Duration::from_secs(5)).expect("the healthy peer's frame");
        assert_eq!((from, msg), (hub.id(), Msg::InvokeWrite(Value::new(5))));
        assert!(others.is_empty(), "a send spawned a thread: {others:?}");
        assert!(
            after_b >= before_b + 2,
            "B's frame was handled before A's blocked one ({before_b} → {after_b}): B went past the lock"
        );
        // A stopped at a timed-out write: the peer is negative-cached.
        let sent = Instant::now();
        hub.send(stalled_id, bulky).unwrap();
        assert!(sent.elapsed() < write_timeout / 2, "a cached peer must drop fast");
        let stats = hub.peer_stats(stalled_id).unwrap();
        assert_eq!(stats.connect_attempts, 1, "a timed-out write must negative-cache the peer: {stats:?}");
    }
}
