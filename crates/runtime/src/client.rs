//! The blocking client API: the live runtime's driver of the client
//! [`RoundMachine`], over a real transport.
//!
//! Unlike the simulator's event-driven [`RegisterClient`], the live client
//! blocks the calling thread until the operation's rounds complete — the
//! shape a downstream application actually programs against. The decision
//! logic is shared with the simulator: phases, tags, quorum rules and the
//! fast read's `admissible(·)` selection are the machine's, in `mwr-core`.
//! This file owns *how bytes move and how long to wait*: the endpoint,
//! [`Msg::ForRegister`] and epoch framing, the deadline, [`RetryPolicy`]
//! attempts, polling the shared [`ClusterView`] and the [`AuditTap`] —
//! around one receive loop (`LiveClient::round`).
//!
//! [`RegisterClient`]: mwr_core::RegisterClient

use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{RecvTimeoutError, TryRecvError};
use mwr_core::{FastWire, Msg, OpKind, ReadMode, RoundMachine, Scope, Step, WriteMode};
use mwr_types::{
    ClusterConfig, ConfigEpoch, ProcessId, ReaderId, RegisterId, ServerId, TaggedValue, Value,
    WriterId,
};

use crate::tap::AuditTap;
use crate::transport::{Endpoint, Inbound, TransportError};
use crate::view::ClusterView;

/// Errors returned by live operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A quorum did not assemble within the timeout (more than `t` servers
    /// down, or a partition).
    Timeout {
        /// How long the client waited.
        waited: Duration,
        /// Replies collected before giving up.
        collected: usize,
        /// Replies required.
        required: usize,
    },
    /// The transport failed.
    Transport(TransportError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Timeout { waited, collected, required } => write!(
                f,
                "quorum timeout after {waited:?}: {collected}/{required} replies"
            ),
            RuntimeError::Transport(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<TransportError> for RuntimeError {
    fn from(e: TransportError) -> Self {
        RuntimeError::Transport(e)
    }
}

/// Bounded retry for quorum round-trips that time out — the knob that
/// rides out a server crash–rejoin window instead of failing the op.
///
/// The default is **one attempt** (no retry): exactly the pre-existing
/// behavior. With `attempts = n`, a round trip that cannot assemble its
/// quorum re-broadcasts the *same* request (same [`OpHandle`], so servers
/// treat it idempotently and stragglers from earlier attempts still count)
/// up to `n` times, sleeping `backoff` between attempts. Acks are
/// deduplicated per server across attempts, so a retry can complete a
/// quorum started by its predecessor.
///
/// Every retried round is idempotent: `Query` is a pure read,
/// and `Update`/`ReadFastRuns` re-apply to the same state
/// (registration and store inserts are set-unions keyed by the same
/// handle's data).
///
/// [`OpHandle`]: mwr_core::OpHandle
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per round trip (clamped to at least 1).
    pub attempts: u32,
    /// Sleep between consecutive attempts.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// A policy with `attempts` total tries and `backoff` between them.
    pub const fn new(attempts: u32, backoff: Duration) -> Self {
        RetryPolicy { attempts, backoff }
    }
}

impl Default for RetryPolicy {
    /// One attempt, no backoff: fail the op on the first quorum timeout.
    fn default() -> Self {
        RetryPolicy { attempts: 1, backoff: Duration::ZERO }
    }
}

/// A blocking client: one [`RoundMachine`], one endpoint, and the policy of
/// moving the machine's frames over it. `Id` is the role — a [`WriterId`]'s
/// client ([`LiveWriter`]) writes, a [`ReaderId`]'s ([`LiveReader`]) reads.
///
/// The default coverage is the whole cluster with bare (legacy) frames; a
/// keyspace client is bound to its register's rendezvous group with
/// [`Msg::ForRegister`] framing, so one endpoint (and its per-peer writer
/// pipelines) multiplexes every register the client touches.
#[derive(Debug)]
pub struct LiveClient<E: Endpoint, Id> {
    endpoint: E,
    machine: RoundMachine,
    /// `Some(register)`: wrap requests in [`Msg::ForRegister`] and accept
    /// only replies wrapped with the same id. Survives every rescope — only
    /// the coverage and the rule change.
    wrap: Option<RegisterId>,
    timeout: Duration,
    retry: RetryPolicy,
    tap: Option<AuditTap>,
    /// The shared configuration view, when the cluster reconfigures live.
    view: Option<Arc<ClusterView>>,
    /// The round's frames, kept across rounds so a broadcast allocates no
    /// batch: [`Endpoint::round_trip`] leaves it empty.
    batch: Vec<(ProcessId, Msg)>,
    /// Replies in hand and not fed yet: the ones the endpoint handed over
    /// inside the round trip, and everything taken from the inbox at once.
    /// A round may complete before it has fed all of them; the next round
    /// feeds these before it looks at the inbox again.
    taken: VecDeque<Inbound>,
    /// Every reply fed to the machine, and what it made of each.
    #[cfg(test)]
    fed: Vec<(ServerId, Step)>,
    /// Times a round went to the inbox: a take, then a park if the take
    /// found nothing.
    #[cfg(test)]
    inbox_takes: usize,
    /// Times a round read the clock: only a park needs it.
    #[cfg(test)]
    clock_reads: usize,
    role: PhantomData<Id>,
}

/// A blocking writer client.
///
/// # Examples
///
/// See [`LiveCluster`](crate::LiveCluster) for an end-to-end example.
pub type LiveWriter<E> = LiveClient<E, WriterId>;

/// A blocking reader client.
pub type LiveReader<E> = LiveClient<E, ReaderId>;

impl<E: Endpoint> LiveWriter<E> {
    /// Creates a writer over an endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint's identity is not the given writer.
    pub fn new(endpoint: E, id: WriterId, config: ClusterConfig, mode: WriteMode) -> Self {
        Self::drive(endpoint, RoundMachine::writer(id, config, mode))
    }

    /// Writes `value`, blocking until the protocol's round-trips complete.
    /// Returns the tagged value the register now holds.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Timeout`] if a quorum cannot be assembled.
    pub fn write(&mut self, value: Value) -> Result<TaggedValue, RuntimeError> {
        self.operate(OpKind::Write(value))
    }
}

impl<E: Endpoint> LiveReader<E> {
    /// Creates a reader over an endpoint. Its fast reads go out on the
    /// [`FastWire::Runs`] wire, the one a live reader speaks.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint's identity is not the given reader.
    pub fn new(endpoint: E, id: ReaderId, config: ClusterConfig, mode: ReadMode) -> Self {
        Self::drive(endpoint, RoundMachine::reader(id, config, mode, FastWire::Runs))
    }

    /// Reads the register, blocking until the protocol's round-trips
    /// complete.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Timeout`] if a quorum cannot be assembled.
    pub fn read(&mut self) -> Result<TaggedValue, RuntimeError> {
        self.operate(OpKind::Read)
    }
}

impl<E: Endpoint, Id> LiveClient<E, Id> {
    fn drive(endpoint: E, machine: RoundMachine) -> Self {
        assert_eq!(endpoint.id(), ProcessId::from(machine.client()), "endpoint identity mismatch");
        LiveClient {
            endpoint,
            machine,
            wrap: None,
            timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            tap: None,
            view: None,
            batch: Vec::new(),
            taken: VecDeque::new(),
            #[cfg(test)]
            fed: Vec::new(),
            #[cfg(test)]
            inbox_takes: 0,
            #[cfg(test)]
            clock_reads: 0,
            role: PhantomData,
        }
    }

    /// Selects the quorum-timeout retry policy (builder-style). The
    /// default is one attempt — no retry.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches the cluster's shared configuration view (builder-style):
    /// the client re-derives its round-trip scope from the view at the
    /// start of every operation and mid-round whenever the view's epoch
    /// moves, so it follows live reconfigurations without failing
    /// in-flight operations. During a reconfiguration's joint window, and
    /// in a round the epoch moved under, every fast read is forced through
    /// a write-back round (the machine's rule), so fast selection never has
    /// to reason across two configurations.
    pub fn with_view(mut self, view: Arc<ClusterView>) -> Self {
        self.view = Some(view);
        self.follow_view();
        self
    }

    /// Attaches an audit tap (builder-style): every write and every sampled
    /// read emits invocation and completion records for the streaming
    /// auditor, and a reader reports the GC-floor advances it observes.
    pub fn with_tap(mut self, tap: AuditTap) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Selects the per-round-trip quorum timeout (builder-style, like
    /// [`with_tap`](Self::with_tap)).
    ///
    /// The timeout bounds the wait for replies that have not arrived; a
    /// reply already queued in the inbox is always taken, so even
    /// `Duration::ZERO` completes a round whose replies came back inside
    /// its broadcast (an in-memory bank answers there). Draining the queue
    /// ends because the inbox holds only frames this endpoint asked for.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Scopes this client to one register of a keyspace (builder-style):
    /// round-trips broadcast only to `group`, wait for `|group| − t`
    /// replies, wrap every request in [`Msg::ForRegister`] and accept only
    /// replies wrapped with the same id. The register's group plays the
    /// paper's `S`, including in fast-read admissibility (the witness
    /// selector's `needed = S − a·t` uses the group size).
    ///
    /// # Panics
    ///
    /// Panics if the group is not larger than the configured fault bound
    /// (no quorum could ever assemble).
    pub fn with_scope(mut self, register: RegisterId, group: Vec<ServerId>) -> Self {
        let t = self.machine.config().max_faults();
        self.wrap = Some(register);
        self.machine.rescope(Scope::stable(group, t, ConfigEpoch::ZERO));
        // Re-bind to the register's group under the *current* epoch.
        self.follow_view();
        self
    }

    /// Leaves the cluster: tells a quorum of servers to drop this client's
    /// registrations and GC membership, consuming the client. See the
    /// "client churn" section of the server module docs for why a departed
    /// client never wedges the acknowledged-floor GC.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Timeout`] if a quorum cannot acknowledge
    /// the departure; the servers that did hear it have already cleaned up.
    pub fn depart(mut self) -> Result<(), RuntimeError> {
        self.follow_view();
        self.machine.depart();
        self.run().map(|_| ())
    }

    /// One read or write, start to finish, with its audit records.
    fn operate(&mut self, kind: OpKind) -> Result<TaggedValue, RuntimeError> {
        self.follow_view();
        let op = self.machine.begin(kind);
        // Writes are always recorded: every read verdict depends on them.
        // A read's sampling decision is made at invocation and held for the
        // completion so the auditor never sees half an operation.
        let sampled = |tap: &AuditTap| kind != OpKind::Read || tap.samples_read(op.seq);
        let recorded = self.tap.as_ref().is_some_and(sampled);
        // The record goes out before the first protocol message so channel
        // arrival order remains a real-time witness.
        if let (true, Some(tap)) = (recorded, &self.tap) {
            tap.invoked(op.client, op.seq, kind);
        }
        let floor_before = self.machine.gc_floor();
        let Step::Done(result) = self.run()? else {
            unreachable!("reads and writes end in a result")
        };
        if let Some(tap) = &self.tap {
            if recorded {
                tap.completed(op.client, op.seq, result);
            }
            if self.machine.gc_floor() > floor_before {
                tap.floor_advance(self.machine.gc_floor());
            }
        }
        Ok(result.tagged_value())
    }

    /// Runs the operation in flight, round after round, to its last step.
    fn run(&mut self) -> Result<Step, RuntimeError> {
        loop {
            let step = self.round()?;
            if step != Step::NextRound {
                return Ok(step);
            }
        }
    }

    /// Runs the round in flight: broadcasts it and blocks, feeding the
    /// machine every reply, until the machine says the round is complete.
    ///
    /// Each attempt re-broadcasts the *same* round and waits until one
    /// deadline, `timeout` past the attempt's first park. The replies the
    /// endpoint handed over inside the round trip (an in-memory bank's,
    /// through no channel) are fed first; then the replies queued in the
    /// inbox are taken all at once, with one lock and no clock read, and fed
    /// one by one; the clock is read only to park on an empty inbox, so a
    /// round whose replies were all in hand never reads it. What a round
    /// had in hand and did not need is fed to the next one first (a
    /// straggler: the machine ignores it). The machine counts acks per
    /// server for as long as the round is in flight, so a duplicate reply
    /// to a re-broadcast can never double-count and a straggler from an
    /// earlier attempt still completes a later one.
    ///
    /// An inbox found disconnected fails the operation at once with
    /// [`TransportError::Disconnected`] naming this client: nothing can
    /// reach it any more (its route was removed), so no attempt or backoff
    /// is spent waiting.
    ///
    /// When the view's epoch moves mid-round the cluster reconfigured: the
    /// machine is rescoped and the round re-broadcast under the new
    /// coverage. The acks already collected keep counting, so an in-flight
    /// operation rides through a reconfiguration instead of timing out.
    fn round(&mut self) -> Result<Step, RuntimeError> {
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 && !self.retry.backoff.is_zero() {
                std::thread::sleep(self.retry.backoff);
            }
            match self.follow_view() {
                None | Some(Step::Wait) => {}
                Some(complete) => return Ok(complete),
            }
            self.broadcast();
            // Fixed at the attempt's first park, `timeout` past it; `Some(None)`
            // is a timeout too long to be a point in time ("never").
            let mut deadline: Option<Option<Instant>> = None;
            loop {
                // Queued replies are taken without a look at the clock: the
                // deadline bounds only the wait for one that has not come.
                let (from, msg) = match self.taken.pop_front() {
                    Some(inbound) => inbound,
                    None => {
                        #[cfg(test)]
                        {
                            self.inbox_takes += 1;
                        }
                        match self.endpoint.inbox().try_recv_all(&mut self.taken) {
                            Ok(_) => continue,
                            Err(TryRecvError::Disconnected) => return Err(self.disconnected()),
                            Err(TryRecvError::Empty) => {
                                let left = match deadline {
                                    None => {
                                        deadline = Some(self.now().checked_add(self.timeout));
                                        self.timeout
                                    }
                                    Some(at) => at.map_or(Duration::MAX, |at| {
                                        at.saturating_duration_since(self.now())
                                    }),
                                };
                                if left.is_zero() {
                                    break;
                                }
                                match self.endpoint.inbox().recv_timeout(left) {
                                    Ok(inbound) => inbound,
                                    Err(RecvTimeoutError::Timeout) => break,
                                    Err(RecvTimeoutError::Disconnected) => {
                                        return Err(self.disconnected())
                                    }
                                }
                            }
                        }
                    }
                };
                match self.follow_view() {
                    None => {}
                    Some(Step::Wait) => self.broadcast(),
                    Some(complete) => return Ok(complete),
                }
                let (ProcessId::Server(server), Some(msg)) = (from, self.unwrap(msg)) else {
                    continue;
                };
                let step = self.machine.on_reply(server, msg);
                #[cfg(test)]
                self.fed.push((server, step));
                match step {
                    Step::Ignored | Step::Wait => {}
                    complete => return Ok(complete),
                }
            }
        }
        Err(RuntimeError::Timeout {
            waited: self.timeout,
            collected: self.machine.collected(),
            required: self.machine.scope().quorum,
        })
    }

    /// The clock, read to park.
    fn now(&mut self) -> Instant {
        #[cfg(test)]
        {
            self.clock_reads += 1;
        }
        Instant::now()
    }

    /// This client's inbox is gone.
    fn disconnected(&self) -> RuntimeError {
        RuntimeError::Transport(TransportError::Disconnected { to: self.endpoint.id() })
    }

    /// Re-derives the machine's scope from the shared view when its epoch
    /// moved — the cheap check (one atomic load in the common case) made at
    /// the start of every operation and attempt and before every reply is
    /// fed. `Some(step)` is what the new rule makes of the acks already
    /// counted. The coordinator installs a view before any server can
    /// answer under its epoch, so a reply fed under an unmoved epoch was
    /// produced inside the configuration the scope describes.
    fn follow_view(&mut self) -> Option<Step> {
        let view = self.view.as_ref()?;
        (view.epoch() != self.machine.scope().epoch)
            .then(|| self.machine.rescope(view.scope_parts(self.wrap)))
    }

    /// One round attempt on the wire: the machine's frames, wrapped for the
    /// bound register and tagged with the scope's epoch, in one round trip
    /// — the transport amortizes its locking over the whole fan-out, and a
    /// dead server is exactly the failure the quorum tolerates (the send is
    /// best-effort by contract). The replies the endpoint has in hand when
    /// the call returns join `taken`. Every register's frames to a server
    /// share that server's one connection.
    fn broadcast(&mut self) {
        let (wrap, epoch) = (self.wrap, self.machine.scope().epoch);
        self.batch.extend(self.machine.frames().map(|(server, request)| {
            let request = match wrap {
                Some(register) => Msg::ForRegister { register, inner: Box::new(request) },
                None => request,
            };
            // The epoch header goes outermost (elided at epoch 0, so the
            // legacy wire is byte-identical): servers adopt it before
            // unwrapping the register frame.
            (ProcessId::Server(server), request.in_epoch(epoch))
        }));
        self.endpoint.round_trip(&mut self.batch, &mut self.taken);
    }

    /// Strips one inbound frame down to the bare reply the machine takes:
    /// the epoch header off, then bare frames for an unwrapped client,
    /// matching-register frames for a bound one, everything else discarded
    /// (cross-register strays can share the endpoint).
    fn unwrap(&self, msg: Msg) -> Option<Msg> {
        match (self.wrap, msg.into_epoch_parts().1) {
            (None, Msg::ForRegister { .. }) => None,
            (None, msg) => Some(msg),
            (Some(mine), Msg::ForRegister { register, inner }) if register == mine => Some(*inner),
            (Some(_), _) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::RuntimeCluster;
    use crate::server::{spawn_bank_with, ServerHandle};
    use crate::transport::{EndpointFactory, InMemoryTransport};
    use mwr_core::{Protocol, Router, ServerBank};
    use mwr_types::Tag;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Server `index` of `config` as a one-shard bank whose group is the
    /// whole cluster — what `RuntimeCluster` runs.
    fn bank_server(
        transport: &InMemoryTransport,
        config: ClusterConfig,
        index: u32,
    ) -> ServerHandle {
        let servers = config.servers() as u32;
        spawn_bank_with(
            transport.register(ProcessId::server(index)),
            ServerBank::new(config.readers() + config.writers(), Router::new(servers, servers, 1)),
        )
    }

    fn cluster(config: ClusterConfig) -> (InMemoryTransport, Vec<ServerHandle>) {
        let transport = InMemoryTransport::new();
        let servers =
            (0..config.servers() as u32).map(|s| bank_server(&transport, config, s)).collect();
        (transport, servers)
    }

    #[test]
    fn slow_write_then_fast_read_round_trips() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let (transport, servers) = cluster(config);
        let mut writer = LiveWriter::new(
            transport.register(ProcessId::writer(0)),
            WriterId::new(0),
            config,
            WriteMode::Slow,
        );
        let mut reader = LiveReader::new(
            transport.register(ProcessId::reader(0)),
            ReaderId::new(0),
            config,
            ReadMode::Fast,
        );
        let written = writer.write(Value::new(42)).unwrap();
        assert_eq!(written.tag(), Tag::new(1, WriterId::new(0)));
        let read = reader.read().unwrap();
        assert_eq!(read, written);
        for s in servers {
            assert!(s.shutdown().0 > 0);
        }
    }

    #[test]
    fn quorum_survives_t_dead_servers() {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let transport = InMemoryTransport::new();
        // Only bring up 2 of 3 servers: the third is "crashed".
        let s0 = bank_server(&transport, config, 0);
        let s1 = bank_server(&transport, config, 1);
        let mut writer = LiveWriter::new(
            transport.register(ProcessId::writer(0)),
            WriterId::new(0),
            config,
            WriteMode::Slow,
        );
        let written = writer.write(Value::new(7)).unwrap();
        assert_eq!(written.value(), Value::new(7));
        s0.shutdown();
        s1.shutdown();
    }

    #[test]
    fn timeout_when_quorum_is_unreachable() {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let transport = InMemoryTransport::new();
        // Only 1 of 3 servers up: quorum of 2 can never assemble.
        let s0 = bank_server(&transport, config, 0);
        let mut writer = LiveWriter::new(
            transport.register(ProcessId::writer(0)),
            WriterId::new(0),
            config,
            WriteMode::Slow,
        )
        .with_timeout(Duration::from_millis(100));
        let err = writer.write(Value::new(1)).unwrap_err();
        assert!(matches!(err, RuntimeError::Timeout { collected: 1, required: 2, .. }), "{err}");
        s0.shutdown();
    }

    /// With the retry knob on, a quorum that assembles only after the
    /// first attempt's timeout (a server coming up mid-recovery) completes
    /// the op instead of failing it. The default policy still fails fast —
    /// `timeout_when_quorum_is_unreachable` pins that.
    #[test]
    fn retry_rides_out_a_server_that_starts_late() {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let transport = InMemoryTransport::new();
        let s0 = bank_server(&transport, config, 0);
        let late = {
            let transport = transport.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(300));
                bank_server(&transport, config, 1)
            })
        };
        let mut writer = LiveWriter::new(
            transport.register(ProcessId::writer(0)),
            WriterId::new(0),
            config,
            WriteMode::Slow,
        )
        .with_timeout(Duration::from_millis(150))
        .with_retry(RetryPolicy::new(10, Duration::from_millis(50)));
        let written = writer.write(Value::new(9)).unwrap();
        assert_eq!(written.value(), Value::new(9));
        s0.shutdown();
        late.join().unwrap().shutdown();
    }

    /// Departing acknowledges through a quorum and unpins the GC floor the
    /// departed reader was holding down.
    #[test]
    fn depart_round_trips_and_consumes_the_client() {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let (transport, servers) = cluster(config);
        let mut writer = LiveWriter::new(
            transport.register(ProcessId::writer(0)),
            WriterId::new(0),
            config,
            WriteMode::Slow,
        );
        let mut reader = LiveReader::new(
            transport.register(ProcessId::reader(0)),
            ReaderId::new(0),
            config,
            ReadMode::Fast,
        );
        writer.write(Value::new(1)).unwrap();
        reader.read().unwrap();
        reader.depart().unwrap();
        writer.depart().unwrap();
        for s in servers {
            s.shutdown();
        }
    }

    /// The timeout bounds only the wait for replies that have not arrived:
    /// an in-memory bank answers inside the client's broadcast, so every
    /// reply is queued before the round starts waiting, and a zero timeout
    /// still completes every round.
    #[test]
    fn queued_replies_complete_a_round_with_a_zero_timeout() {
        let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
        let (transport, servers) = cluster(config);
        let mut writer = LiveWriter::new(
            transport.register(ProcessId::writer(0)),
            WriterId::new(0),
            config,
            WriteMode::Slow,
        )
        .with_timeout(Duration::ZERO);
        let mut reader = LiveReader::new(
            transport.register(ProcessId::reader(0)),
            ReaderId::new(0),
            config,
            ReadMode::Fast,
        )
        .with_timeout(Duration::ZERO);
        let written = writer.write(Value::new(3)).unwrap();
        assert_eq!(reader.read().unwrap(), written);
        for s in servers {
            s.shutdown();
        }
    }

    /// An endpoint whose broadcast returns only once a reply from every
    /// destination is queued in its inbox, so that the round after it takes
    /// all of them at once on either transport.
    struct Settled<E>(E);

    impl<E: Endpoint> Endpoint for Settled<E> {
        fn id(&self) -> ProcessId {
            self.0.id()
        }
        fn send(&self, to: ProcessId, msg: Msg) -> Result<(), TransportError> {
            self.0.send(to, msg)
        }
        fn send_batch(&self, batch: Vec<(ProcessId, Msg)>) {
            let replies = batch.len();
            self.0.send_batch(batch);
            let deadline = Instant::now() + Duration::from_secs(5);
            while self.0.inbox().len() < replies {
                assert!(Instant::now() < deadline, "a reply never came");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        fn inbox(&self) -> &crossbeam::channel::Receiver<Inbound> {
            self.0.inbox()
        }
    }

    /// A round takes every queued reply at once and completes on the
    /// quorum's last, so the fifth of five is taken and not needed. It
    /// stays with the client and is the next round's first, which ignores
    /// it: every reply is fed once, a straggler is never counted, and
    /// nothing is left in the inbox between operations.
    fn stragglers_are_fed_once_to_the_next_round<F: EndpointFactory>(factory: F) {
        const WRITES: usize = 20;
        let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
        let cluster = RuntimeCluster::start_on(factory, config, Protocol::W2R1).unwrap();
        let id = WriterId::new(0);
        let endpoint = Settled(cluster.factory().open(id.into()).unwrap());
        let mut writer = LiveWriter::new(endpoint, id, config, WriteMode::Slow);
        for i in 1..=WRITES as u64 {
            assert_eq!(writer.write(Value::new(i)).unwrap().value(), Value::new(i));
            assert_eq!(writer.taken.len(), 1, "write {i}: the last round's fifth reply is held");
            assert!(writer.endpoint.inbox().is_empty(), "write {i}");
        }
        let rounds = 2 * WRITES;
        assert_eq!(writer.fed.len() + writer.taken.len(), 5 * rounds, "a reply fed twice or lost");
        // The first round feeds the four it needs; every later one first
        // the reply the round before it held, which the machine ignores.
        let (first, rest) = writer.fed.split_at(4);
        let mut counted: Vec<ServerId> = first.iter().map(|&(server, _)| server).collect();
        assert!(first.iter().all(|&(_, step)| step != Step::Ignored), "{first:?}");
        for (round, fed) in rest.chunks(5).enumerate() {
            let (straggler, step) = fed[0];
            assert_eq!(step, Step::Ignored, "round {}: {fed:?}", round + 1);
            assert!(!counted.contains(&straggler), "round {}: it was fed before", round + 1);
            counted = fed[1..].iter().map(|&(server, _)| server).collect();
            assert!(fed[1..].iter().all(|&(_, step)| step != Step::Ignored), "{fed:?}");
        }
        cluster.shutdown();
    }

    #[test]
    fn stragglers_are_fed_once_to_the_next_round_in_memory() {
        stragglers_are_fed_once_to_the_next_round(InMemoryTransport::new());
    }

    #[test]
    fn stragglers_are_fed_once_to_the_next_round_over_tcp() {
        stragglers_are_fed_once_to_the_next_round(crate::TcpRegistry::new());
    }

    /// Two clients of one identity share one endpoint, as a keyspace
    /// handle's per-key clients do, each bound to a register of its own.
    /// Used in turn, each is fed exactly its own rounds' replies: every
    /// reply is fed once or held by the client whose round asked for it,
    /// the held one is its own register's, and it is the next round's
    /// straggler, ignored once.
    #[test]
    fn two_clients_on_one_endpoint_each_take_their_own_rounds_replies() {
        const WRITES: u64 = 20;
        let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
        let cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let id = WriterId::new(0);
        let endpoint = Arc::new(cluster.factory().open(id.into()).unwrap());
        let keys = [RegisterId::new(3), RegisterId::new(8)];
        let mut clients: Vec<LiveWriter<_>> = keys
            .iter()
            .map(|&key| {
                LiveWriter::new(Arc::clone(&endpoint), id, config, WriteMode::Slow)
                    .with_scope(key, cluster.router().group_of(key))
            })
            .collect();
        for i in 1..=WRITES {
            for (client, key) in clients.iter_mut().zip(keys) {
                assert_eq!(client.write(Value::new(i)).unwrap().value(), Value::new(i));
                assert_eq!(client.taken.len(), 1, "write {i}: the last round's fifth reply is held");
                let held = &client.taken[0].1;
                let own = matches!(held, Msg::ForRegister { register, .. } if *register == key);
                assert!(own, "write {i}: {key:?} holds {held:?}");
                assert!(endpoint.inbox().is_empty(), "write {i}");
            }
        }
        let rounds = 2 * WRITES as usize;
        for client in &clients {
            assert_eq!(client.fed.len() + client.taken.len(), 5 * rounds, "a reply fed twice or lost");
            let ignored = client.fed.iter().filter(|&&(_, step)| step == Step::Ignored).count();
            assert_eq!(ignored, rounds - 1, "every round but the first ignores one straggler");
        }
        drop(clients);
        cluster.shutdown();
    }

    /// A client whose own inbox is gone (its in-memory route removed) fails
    /// its operation at once with `Disconnected`, naming itself, instead of
    /// running down its attempts and backoffs and reporting a wait it never
    /// made.
    #[test]
    fn a_client_whose_route_is_gone_fails_at_once_with_disconnected() {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let (transport, servers) = cluster(config);
        let id = ProcessId::writer(0);
        let mut writer =
            LiveWriter::new(transport.register(id), WriterId::new(0), config, WriteMode::Slow)
                .with_timeout(Duration::from_secs(2))
                .with_retry(RetryPolicy::new(3, Duration::from_millis(500)));
        writer.write(Value::new(1)).unwrap();
        transport.deregister(id);
        let started = Instant::now();
        let err = writer.write(Value::new(2)).unwrap_err();
        let waited = started.elapsed();
        assert_eq!(err, RuntimeError::Transport(TransportError::Disconnected { to: id }));
        assert!(waited < Duration::from_millis(500), "failed after {waited:?}");
        for s in servers {
            s.shutdown();
        }
    }

    /// A round on in-memory banks crosses no channel and takes one lock per
    /// served call: over W2R1 writes and fast reads at S = 5, the transport
    /// pushes nothing into any inbox, neither client takes from or parks on
    /// its own (every reply is fed from the round trip's buffer), so neither
    /// reads the clock, and each bank is locked once per request, through
    /// its served slot.
    #[test]
    fn an_in_memory_round_crosses_no_channel_and_locks_each_bank_once() {
        const OPS: u64 = 50;
        let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
        let (transport, servers) = cluster(config);
        let mut writer = LiveWriter::new(
            transport.register(ProcessId::writer(0)),
            WriterId::new(0),
            config,
            WriteMode::Slow,
        );
        let mut reader = LiveReader::new(
            transport.register(ProcessId::reader(0)),
            ReaderId::new(0),
            config,
            ReadMode::Fast,
        );
        for i in 1..=OPS {
            let written = writer.write(Value::new(i)).unwrap();
            assert_eq!(reader.read().unwrap(), written);
        }
        assert_eq!(transport.pushes(), 0, "inbox pushes");
        assert_eq!((writer.inbox_takes, reader.inbox_takes), (0, 0), "inbox takes");
        assert_eq!((writer.clock_reads, reader.clock_reads), (0, 0), "clock reads");
        let fed = |client_fed: usize, rounds: u64| client_fed + 1 == 5 * rounds as usize;
        assert!(fed(writer.fed.len(), 2 * OPS), "{} replies fed", writer.fed.len());
        assert!(fed(reader.fed.len(), OPS), "{} replies fed", reader.fed.len());
        let calls = 5 * 3 * OPS as usize;
        assert_eq!(servers.iter().map(ServerHandle::locks).sum::<usize>(), calls, "bank locks");
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn sequential_writers_get_increasing_tags() {
        let config = ClusterConfig::new(5, 1, 1, 2).unwrap();
        let (transport, servers) = cluster(config);
        let mut w0 = LiveWriter::new(
            transport.register(ProcessId::writer(0)),
            WriterId::new(0),
            config,
            WriteMode::Slow,
        );
        let mut w1 = LiveWriter::new(
            transport.register(ProcessId::writer(1)),
            WriterId::new(1),
            config,
            WriteMode::Slow,
        );
        let t1 = w0.write(Value::new(1)).unwrap();
        let t2 = w1.write(Value::new(2)).unwrap();
        let t3 = w0.write(Value::new(3)).unwrap();
        assert!(t1 < t2 && t2 < t3, "MWA0 over the live runtime");
        drop(servers);
    }

    /// An endpoint that counts its broadcasts (one `send_batch` is one
    /// round attempt) and records every request it sends, stripped of its
    /// epoch and register frames.
    struct Counting<E> {
        inner: E,
        broadcasts: AtomicUsize,
        sent: Mutex<Vec<Msg>>,
    }

    impl<E> Counting<E> {
        fn record(&self, msg: &Msg) {
            fn bare(msg: &Msg) -> &Msg {
                match msg {
                    Msg::InEpoch { inner, .. } | Msg::ForRegister { inner, .. } => bare(inner),
                    msg => msg,
                }
            }
            self.sent.lock().unwrap().push(bare(msg).clone());
        }
    }

    impl<E: Endpoint> Endpoint for Counting<E> {
        fn id(&self) -> ProcessId {
            self.inner.id()
        }
        fn send(&self, to: ProcessId, msg: Msg) -> Result<(), TransportError> {
            self.record(&msg);
            self.inner.send(to, msg)
        }
        fn send_batch(&self, batch: Vec<(ProcessId, Msg)>) {
            self.broadcasts.fetch_add(1, Ordering::Relaxed);
            batch.iter().for_each(|(_, msg)| self.record(msg));
            self.inner.send_batch(batch);
        }
        fn inbox(&self) -> &crossbeam::channel::Receiver<Inbound> {
            self.inner.inbox()
        }
    }

    /// A reader that joins after GC has passed everything it ever completed
    /// secures its first read with a write-back round, in both fast modes.
    #[test]
    fn a_late_joining_reader_secures_its_first_read_in_both_fast_modes() {
        for protocol in [Protocol::W2R1, Protocol::W2Ra] {
            let config = ClusterConfig::new(5, 1, 2, 1).unwrap();
            let cluster =
                RuntimeCluster::start_on(InMemoryTransport::new(), config, protocol).unwrap();
            let mut writer = cluster.writer(0).unwrap();
            let mut early = cluster.reader(0).unwrap();
            let mut last = TaggedValue::initial();
            for i in 1..=20u64 {
                last = writer.write(Value::new(i)).unwrap();
                assert_eq!(early.read().unwrap(), last);
            }
            let id = ReaderId::new(1);
            let endpoint = Arc::new(Counting {
                inner: cluster.factory().open(id.into()).unwrap(),
                broadcasts: 0.into(),
                sent: Mutex::default(),
            });
            let mut late =
                LiveReader::new(Arc::clone(&endpoint), id, config, protocol.read_mode())
                    .with_view(cluster.view());
            assert_eq!(late.read().unwrap(), last, "{protocol}");
            assert_eq!(endpoint.broadcasts.swap(0, Ordering::Relaxed), 2, "{protocol}: late join");
            assert_eq!(late.read().unwrap(), last, "{protocol}");
            assert_eq!(endpoint.broadcasts.load(Ordering::Relaxed), 1, "{protocol}: caught up");
            cluster.shutdown();
        }
    }

    /// A live reader puts only v4 fast reads on the wire, in both fast
    /// modes: built as `RuntimeCluster::reader` builds one (its own
    /// endpoint, bare frames) and as a keyspace handle mints one (an
    /// `Arc`-shared endpoint, register-wrapped frames), every fast-read
    /// request it sends is a `ReadFastRuns`.
    #[test]
    fn a_live_reader_sends_only_runs_fast_reads() {
        const READS: usize = 10;
        for protocol in [Protocol::W2R1, Protocol::W2Ra] {
            let config = ClusterConfig::new(5, 1, 2, 1).unwrap();
            let cluster =
                RuntimeCluster::start_on(InMemoryTransport::new(), config, protocol).unwrap();
            let counted = |id: ReaderId| {
                Arc::new(Counting {
                    inner: cluster.factory().open(id.into()).unwrap(),
                    broadcasts: 0.into(),
                    sent: Mutex::default(),
                })
            };
            let (bare_ep, keyed_ep) = (counted(ReaderId::new(0)), counted(ReaderId::new(1)));
            let (read, write) = (protocol.read_mode(), protocol.write_mode());
            let mut bare = LiveReader::new(Arc::clone(&bare_ep), ReaderId::new(0), config, read)
                .with_view(cluster.view());
            let key = RegisterId::new(7);
            let group = cluster.router().group_of(key);
            let w = WriterId::new(0);
            let writer_ep = Arc::new(cluster.factory().open(w.into()).unwrap());
            let mut writer = LiveWriter::new(Arc::clone(&writer_ep), w, config, write);
            let mut keyed_writer = LiveWriter::new(writer_ep, w, config, write)
                .with_scope(key, group.clone())
                .with_view(cluster.view());
            let mut keyed = LiveReader::new(Arc::clone(&keyed_ep), ReaderId::new(1), config, read)
                .with_scope(key, group)
                .with_view(cluster.view());
            for i in 1..=READS as u64 {
                let written = writer.write(Value::new(i)).unwrap();
                assert_eq!(bare.read().unwrap(), written, "{protocol}");
                let written = keyed_writer.write(Value::new(i)).unwrap();
                assert_eq!(keyed.read().unwrap(), written, "{protocol}");
            }
            for (shape, endpoint) in [("bare", &bare_ep), ("keyed", &keyed_ep)] {
                let sent = endpoint.sent.lock().unwrap();
                let fast: Vec<&Msg> = sent
                    .iter()
                    .filter(|msg| {
                        matches!(
                            msg,
                            Msg::ReadFast { .. }
                                | Msg::ReadFastDelta { .. }
                                | Msg::ReadFastRuns { .. }
                        )
                    })
                    .collect();
                assert_eq!(fast.len(), READS * config.servers(), "{protocol} {shape}: one round");
                let other = fast.iter().find(|msg| !matches!(msg, Msg::ReadFastRuns { .. }));
                assert!(other.is_none(), "{protocol} {shape}: a fast read went out as {other:?}");
            }
            drop((bare, keyed));
            cluster.shutdown();
        }
    }
}
