//! The blocking client API: the round-trip schema of §2.2 over a live
//! transport.
//!
//! Unlike the simulator's event-driven [`RegisterClient`], the live client
//! blocks the calling thread until a quorum of `S − t` replies arrives —
//! the shape a downstream application actually programs against. The
//! decision logic is shared with the simulator: tags, quorum sizes and the
//! fast read's `admissible(·)` selection all come from `mwr-core`.
//!
//! [`RegisterClient`]: mwr_core::RegisterClient

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mwr_core::{
    FastReadState, FastWire, JointQuorum, Msg, OpHandle, OpId, OpKind, OpResult, ReadMode,
    Snapshot, SnapshotView, WitnessIndex, WriteMode,
};
use mwr_types::codec::Wire;
use mwr_types::{
    ClientId, ClusterConfig, ConfigEpoch, ProcessId, ReaderId, RegisterId, ServerId, Tag,
    TaggedValue, Value, WriterId,
};

use crate::tap::AuditTap;
use crate::transport::{Endpoint, TransportError};
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
/// and `Update`/`ReadFast`/`ReadFastDelta` re-apply to the same state
/// (registration and store inserts are set-unions keyed by the same
/// handle's data).
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

/// The round-trip scope of one client: which servers its broadcasts cover,
/// how many replies complete a quorum, and whether frames are wrapped for a
/// keyspace register.
///
/// The default scope is the whole cluster with bare (legacy) frames; a
/// keyspace client is scoped to its register's rendezvous group with
/// [`Msg::ForRegister`] framing, so one endpoint (and its per-peer writer
/// pipelines) multiplexes every register the client touches.
#[derive(Debug, Clone)]
struct Scope {
    /// The servers every round-trip broadcasts to.
    targets: Vec<ServerId>,
    /// Replies required: `|targets| − t` (stable epochs). Under a joint
    /// scope this holds `max(old_required, new_required)` and is used only
    /// for error reporting — satisfaction is the two-sided rule.
    quorum: usize,
    /// `Some(register)`: wrap requests in [`Msg::ForRegister`] and accept
    /// only replies wrapped with the same id.
    wrap: Option<RegisterId>,
    /// During a reconfiguration's transition window, the two-sided
    /// acknowledgement rule: a round completes only with a quorum in *both*
    /// the old and the new configuration.
    joint: Option<JointQuorum>,
    /// The configuration epoch the scope was derived from. Outgoing frames
    /// carry it (elided at epoch 0 — legacy byte-identity); a reply tagged
    /// with a higher epoch triggers a mid-round refresh from the view.
    epoch: ConfigEpoch,
}

impl Scope {
    /// The legacy whole-cluster scope of `config`.
    fn cluster(config: &ClusterConfig) -> Self {
        Scope {
            targets: config.server_ids().collect(),
            quorum: config.quorum_size(),
            wrap: None,
            joint: None,
            epoch: ConfigEpoch::ZERO,
        }
    }

    /// Re-derives the scope from the shared view if its epoch moved.
    /// Returns whether anything changed. The register binding (`wrap`)
    /// survives refreshes — only the coverage and the rule change.
    fn refresh_from(&mut self, view: &ClusterView) -> bool {
        if view.epoch() == self.epoch {
            return false;
        }
        let parts = view.scope_parts(self.wrap);
        self.targets = parts.targets;
        self.quorum = parts.quorum;
        self.joint = parts.joint;
        self.epoch = parts.epoch;
        true
    }

    /// Whether the collected per-server acks complete this scope's rule:
    /// the joint two-configuration rule in a transition epoch, otherwise a
    /// plain quorum counted over *members only* — a straggler ack from a
    /// server that has since been removed never counts toward a quorum of
    /// the configuration that replaced it.
    fn satisfied<T>(&self, acks: &BTreeMap<ServerId, T>) -> bool {
        match &self.joint {
            Some(joint) => joint.satisfied(acks.keys().copied()),
            None => {
                acks.keys().filter(|s| self.targets.contains(s)).count() >= self.quorum
            }
        }
    }

    /// Unwraps one inbound frame according to the scope: bare frames for a
    /// bare scope, matching-register frames for a wrapped scope, everything
    /// else discarded (cross-register strays can share the endpoint).
    fn unwrap(&self, msg: Msg) -> Option<Msg> {
        match (self.wrap, msg) {
            (None, Msg::ForRegister { .. }) => None,
            (None, msg) => Some(msg),
            (Some(mine), Msg::ForRegister { register, inner }) if register == mine => Some(*inner),
            (Some(_), _) => None,
        }
    }
}

/// A blocking writer client.
///
/// # Examples
///
/// See [`LiveCluster`](crate::LiveCluster) for an end-to-end example.
#[derive(Debug)]
pub struct LiveWriter<E: Endpoint> {
    endpoint: E,
    id: WriterId,
    config: ClusterConfig,
    scope: Scope,
    mode: WriteMode,
    local_ts: u64,
    next_seq: u64,
    timeout: Duration,
    retry: RetryPolicy,
    /// Completed-operation floor, piggybacked on updates for GC.
    floor: TaggedValue,
    tap: Option<AuditTap>,
    /// The shared configuration view, when the cluster reconfigures live.
    view: Option<Arc<ClusterView>>,
}

impl<E: Endpoint> LiveWriter<E> {
    /// Creates a writer over an endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint's identity is not the given writer.
    pub fn new(endpoint: E, id: WriterId, config: ClusterConfig, mode: WriteMode) -> Self {
        assert_eq!(endpoint.id(), ProcessId::from(id), "endpoint identity mismatch");
        LiveWriter {
            endpoint,
            id,
            scope: Scope::cluster(&config),
            config,
            mode,
            local_ts: 0,
            next_seq: 0,
            timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            floor: TaggedValue::initial(),
            tap: None,
            view: None,
        }
    }

    /// Selects the quorum-timeout retry policy (builder-style). The
    /// default is one attempt — no retry.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches the cluster's shared configuration view (builder-style):
    /// the writer re-derives its round-trip scope from the view at the
    /// start of every operation and mid-round whenever a reply carries a
    /// higher epoch, so it follows live reconfigurations without failing
    /// in-flight operations.
    pub fn with_view(mut self, view: Arc<ClusterView>) -> Self {
        self.scope.refresh_from(&view);
        self.view = Some(view);
        self
    }

    /// Attaches an audit tap (builder-style): every write emits invocation
    /// and completion records for the streaming auditor.
    pub fn with_tap(mut self, tap: AuditTap) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Selects the per-round-trip quorum timeout (builder-style, like
    /// `Cluster::with_gc`).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Scopes this writer to one register of a keyspace (builder-style):
    /// round-trips broadcast only to `group`, wait for `|group| − t`
    /// replies, wrap every request in [`Msg::ForRegister`] and accept only
    /// replies wrapped with the same id. The register's group plays the
    /// paper's `S`.
    ///
    /// # Panics
    ///
    /// Panics if the group is not larger than the configured fault bound
    /// (no quorum could ever assemble).
    pub fn with_scope(mut self, register: RegisterId, group: Vec<ServerId>) -> Self {
        assert!(group.len() > self.config.max_faults(), "group must outnumber faults");
        self.scope = Scope {
            quorum: group.len() - self.config.max_faults(),
            targets: group,
            wrap: Some(register),
            joint: None,
            epoch: ConfigEpoch::ZERO,
        };
        // Re-bind to the register's group under the *current* epoch.
        if let Some(view) = &self.view {
            self.scope.refresh_from(view);
        }
        self
    }

    /// Re-derives the scope from the shared view when the epoch moved —
    /// the cheap per-operation check (one atomic load in the common case).
    fn refresh_scope(&mut self) {
        if let Some(view) = &self.view {
            self.scope.refresh_from(view);
        }
    }

    /// Writes `value`, blocking until the protocol's round-trips complete.
    /// Returns the tagged value the register now holds.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Timeout`] if a quorum cannot be assembled.
    pub fn write(&mut self, value: Value) -> Result<TaggedValue, RuntimeError> {
        self.refresh_scope();
        let op = OpId { client: ClientId::Writer(self.id), seq: self.next_seq };
        self.next_seq += 1;
        // Writes are always recorded: every read verdict depends on them.
        // The record goes out before the first protocol message so channel
        // arrival order remains a real-time witness.
        if let Some(tap) = &self.tap {
            tap.invoked(op.client, op.seq, OpKind::Write(value));
        }
        let tag = match self.mode {
            WriteMode::Fast => {
                self.local_ts += 1;
                Tag::new(self.local_ts, self.id)
            }
            WriteMode::Slow => {
                let handle = OpHandle { op, phase: 1 };
                let acks = round_trip(
                    &self.endpoint,
                    &self.scope,
                    self.view.as_deref(),
                    Msg::Query { handle },
                    self.timeout,
                    self.retry,
                    |msg| match msg {
                        Msg::QueryAck { handle: h, latest } if h == handle => Some(latest.tag()),
                        _ => None,
                    },
                )?;
                let max_tag = acks.values().copied().max().unwrap_or_else(Tag::initial);
                max_tag.next(self.id)
            }
        };
        let tagged = TaggedValue::new(tag, value);
        let phase = if self.mode == WriteMode::Fast { 1 } else { 2 };
        let handle = OpHandle { op, phase };
        round_trip(
            &self.endpoint,
            &self.scope,
            self.view.as_deref(),
            Msg::Update { handle, value: tagged, floor: self.floor },
            self.timeout,
            self.retry,
            |msg| match msg {
                Msg::UpdateAck { handle: h } if h == handle => Some(()),
                _ => None,
            },
        )?;
        self.floor = self.floor.max(tagged);
        if let Some(tap) = &self.tap {
            tap.completed(op.client, op.seq, OpResult::Written(tagged));
        }
        Ok(tagged)
    }

    /// Leaves the cluster: tells a quorum of servers to drop this writer's
    /// registrations and GC membership, consuming the client. See the
    /// "client churn" section of the server module docs for why a departed
    /// client never wedges the acknowledged-floor GC.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Timeout`] if a quorum cannot acknowledge
    /// the departure; the servers that did hear it have already cleaned up.
    pub fn depart(mut self) -> Result<(), RuntimeError> {
        self.refresh_scope();
        let op = OpId { client: ClientId::Writer(self.id), seq: self.next_seq };
        self.next_seq += 1;
        let handle = OpHandle { op, phase: 1 };
        round_trip(
            &self.endpoint,
            &self.scope,
            self.view.as_deref(),
            Msg::Depart { handle },
            self.timeout,
            self.retry,
            |msg| match msg {
                Msg::DepartAck { handle: h } if h == handle => Some(()),
                _ => None,
            },
        )?;
        Ok(())
    }
}

/// A blocking reader client.
#[derive(Debug)]
pub struct LiveReader<E: Endpoint> {
    endpoint: E,
    id: ReaderId,
    config: ClusterConfig,
    scope: Scope,
    mode: ReadMode,
    wire: FastWire,
    val_queue: BTreeSet<TaggedValue>,
    /// Per-server snapshot caches plus the incrementally-maintained
    /// witness index over them (delta wire only).
    state: FastReadState,
    gc_floor: TaggedValue,
    floor: TaggedValue,
    next_seq: u64,
    timeout: Duration,
    retry: RetryPolicy,
    measure_payload: bool,
    last_payload: u64,
    tap: Option<AuditTap>,
    /// The shared configuration view, when the cluster reconfigures live.
    view: Option<Arc<ClusterView>>,
}

impl<E: Endpoint> LiveReader<E> {
    /// Creates a reader over an endpoint with the default
    /// [`FastWire::Delta`] wire format.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint's identity is not the given reader.
    pub fn new(endpoint: E, id: ReaderId, config: ClusterConfig, mode: ReadMode) -> Self {
        Self::with_wire(endpoint, id, config, mode, FastWire::default())
    }

    /// Creates a reader with an explicit fast-read wire format.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint's identity is not the given reader.
    pub fn with_wire(
        endpoint: E,
        id: ReaderId,
        config: ClusterConfig,
        mode: ReadMode,
        wire: FastWire,
    ) -> Self {
        assert_eq!(endpoint.id(), ProcessId::from(id), "endpoint identity mismatch");
        let mut val_queue = BTreeSet::new();
        val_queue.insert(TaggedValue::initial());
        LiveReader {
            endpoint,
            id,
            scope: Scope::cluster(&config),
            config,
            mode,
            wire,
            val_queue,
            state: FastReadState::new(),
            gc_floor: TaggedValue::initial(),
            floor: TaggedValue::initial(),
            next_seq: 0,
            timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            measure_payload: false,
            last_payload: 0,
            tap: None,
            view: None,
        }
    }

    /// Selects the quorum-timeout retry policy (builder-style). The
    /// default is one attempt — no retry.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches the cluster's shared configuration view (builder-style):
    /// the reader re-derives its round-trip scope from the view at the
    /// start of every operation and mid-round whenever a reply carries a
    /// higher epoch. During a reconfiguration's joint window every fast
    /// read is forced through a write-back round (see
    /// [`LiveReader::read`]'s mode logic), so fast selection never has to
    /// reason across two configurations.
    pub fn with_view(mut self, view: Arc<ClusterView>) -> Self {
        self.scope.refresh_from(&view);
        self.view = Some(view);
        self
    }

    /// Attaches an audit tap (builder-style): sampled reads emit
    /// invocation/completion records, and observed GC-floor advances are
    /// reported to the streaming auditor.
    pub fn with_tap(mut self, tap: AuditTap) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Selects the per-round-trip quorum timeout (builder-style, like
    /// `Cluster::with_gc`).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Scopes this reader to one register of a keyspace (builder-style):
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
        assert!(group.len() > self.config.max_faults(), "group must outnumber faults");
        self.scope = Scope {
            quorum: group.len() - self.config.max_faults(),
            targets: group,
            wrap: Some(register),
            joint: None,
            epoch: ConfigEpoch::ZERO,
        };
        // Re-bind to the register's group under the *current* epoch.
        if let Some(view) = &self.view {
            self.scope.refresh_from(view);
        }
        self
    }

    /// Re-derives the scope from the shared view when the epoch moved —
    /// the cheap per-operation check (one atomic load in the common case).
    fn refresh_scope(&mut self) {
        if let Some(view) = &self.view {
            self.scope.refresh_from(view);
        }
    }

    /// Enables payload accounting (builder-style): each fast read
    /// additionally encodes its requests and processed replies to count
    /// logical wire bytes (the bench harness turns this on; it is off by
    /// default because the extra encode costs O(payload) inside the
    /// operation).
    pub fn with_measure_payload(mut self, on: bool) -> Self {
        self.measure_payload = on;
        self
    }

    /// Wire bytes the last fast read moved (encoded requests to all servers
    /// plus every processed reply); 0 for slow reads or when payload
    /// accounting is off. The regression signal for payload growth:
    /// full-info grows with history, delta stays flat.
    pub fn last_read_payload_bytes(&self) -> u64 {
        self.last_payload
    }

    /// Number of `valQueue` entries currently held (bounded under GC).
    pub fn val_queue_len(&self) -> usize {
        self.val_queue.len()
    }

    /// Leaves the cluster: tells a quorum of servers to drop this reader's
    /// registrations and GC membership, consuming the client. See the
    /// "client churn" section of the server module docs for why a departed
    /// client never wedges the acknowledged-floor GC.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Timeout`] if a quorum cannot acknowledge
    /// the departure; the servers that did hear it have already cleaned up.
    pub fn depart(mut self) -> Result<(), RuntimeError> {
        self.refresh_scope();
        let op = OpId { client: ClientId::Reader(self.id), seq: self.next_seq };
        self.next_seq += 1;
        let handle = OpHandle { op, phase: 1 };
        round_trip(
            &self.endpoint,
            &self.scope,
            self.view.as_deref(),
            Msg::Depart { handle },
            self.timeout,
            self.retry,
            |msg| match msg {
                Msg::DepartAck { handle: h } if h == handle => Some(()),
                _ => None,
            },
        )?;
        Ok(())
    }

    /// Reads the register, blocking until the protocol's round-trips
    /// complete.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Timeout`] if a quorum cannot be assembled.
    pub fn read(&mut self) -> Result<TaggedValue, RuntimeError> {
        self.refresh_scope();
        let op = OpId { client: ClientId::Reader(self.id), seq: self.next_seq };
        self.next_seq += 1;
        // The sampling decision is made at invocation and held for the
        // completion so the auditor never sees half an operation.
        let sampled = self.tap.as_ref().is_some_and(|t| t.samples_read(op.seq));
        if sampled {
            if let Some(tap) = &self.tap {
                tap.invoked(op.client, op.seq, OpKind::Read);
            }
        }
        let floor_before = self.gc_floor;
        let returned = match self.mode {
            ReadMode::Slow => {
                let handle = OpHandle { op, phase: 1 };
                let acks = round_trip(
                    &self.endpoint,
                    &self.scope,
                    self.view.as_deref(),
                    Msg::Query { handle },
                    self.timeout,
                    self.retry,
                    |msg| match msg {
                        Msg::QueryAck { handle: h, latest } if h == handle => Some(latest),
                        _ => None,
                    },
                )?;
                let best = acks.values().copied().max().unwrap_or_default();
                let handle = OpHandle { op, phase: 2 };
                round_trip(
                    &self.endpoint,
                    &self.scope,
                    self.view.as_deref(),
                    Msg::Update { handle, value: best, floor: self.floor },
                    self.timeout,
                    self.retry,
                    |msg| match msg {
                        Msg::UpdateAck { handle: h } if h == handle => Some(()),
                        _ => None,
                    },
                )?;
                best
            }
            ReadMode::Fast | ReadMode::Adaptive => {
                let epoch_before = self.scope.epoch;
                let handle = OpHandle { op, phase: 1 };
                let replies = self.fast_round(handle)?;
                // A round that straddled a reconfiguration collected its
                // quorum under a refreshed *clone* of the scope (see
                // `round_trip_per_server`), so the persistent scope this
                // decision consults is stale. Re-derive it and, if the
                // epoch moved mid-round, force the write-back path: fast
                // selection's witness counting is only defined within the
                // single configuration the round started in. The view's
                // epoch is bumped before any server can produce the higher
                // tag, so an unchanged epoch here proves the round ran
                // entirely inside one configuration.
                self.refresh_scope();
                let straddled = self.scope.epoch != epoch_before;
                match replies {
                    FastReplies::Full(snaps) => {
                        for s in &snaps {
                            self.val_queue.extend(s.entries.iter().map(|e| e.value));
                        }
                        self.prune_val_queue();
                        let (index, mask) =
                            WitnessIndex::from_views(snaps.iter().map(SnapshotView::Full));
                        self.decide_fast_read(op, &index, mask, straddled)?
                    }
                    FastReplies::Delta { replied, resync } => {
                        // The deltas already merged into the caches and the
                        // standing index; fold the replied servers' values
                        // into the valQueue and select straight off the
                        // index, masked to this read's quorum.
                        let LiveReader { val_queue, state, .. } = &mut *self;
                        for v in state.index().values_in(replied) {
                            val_queue.insert(v);
                        }
                        self.prune_val_queue();
                        self.decide_fast_read(
                            op,
                            self.state.index(),
                            replied,
                            resync || straddled,
                        )?
                    }
                }
            }
        };
        self.floor = self.floor.max(returned);
        if let Some(tap) = &self.tap {
            if sampled {
                tap.completed(op.client, op.seq, OpResult::Read(returned));
            }
            if self.gc_floor > floor_before {
                tap.floor_advance(self.gc_floor);
            }
        }
        Ok(returned)
    }

    /// Drops `valQueue` entries below the announced GC floor: they are
    /// below every client's completed-operation floor, so no read can ever
    /// return them again (see the GC argument in the server module docs).
    fn prune_val_queue(&mut self) {
        if self.gc_floor > TaggedValue::initial() {
            let keep = self.gc_floor;
            self.val_queue.retain(|v| *v >= keep);
        }
    }

    /// The mode's return-value selection over an already-built witness
    /// index; the adaptive slow path pays its write-back round here.
    ///
    /// `resync` is set when a replying server was rebuilt by state
    /// transfer since our last contact (its delta restarted from 0): our
    /// own registrations on it may not have survived the crash, so fast
    /// selection's degree counts cannot be trusted for this read — it is
    /// forced through a write-back round, after which the registrations
    /// are re-established and fast reads resume.
    ///
    /// A joint scope (a reconfiguration's transition window) forces the
    /// same write-back unconditionally: fast selection's witness counting
    /// is defined within *one* configuration, and the write-back round —
    /// which under a joint scope lands on a quorum of both — is the
    /// classical, always-linearizable path. Fast reads resume the moment
    /// the new epoch commits and the scope turns stable again.
    fn decide_fast_read(
        &self,
        op: OpId,
        index: &WitnessIndex,
        mask: u128,
        resync: bool,
    ) -> Result<TaggedValue, RuntimeError> {
        let resync = resync || self.scope.joint.is_some();
        if self.mode == ReadMode::Fast {
            // A scoped reader's world is its register's group: the witness
            // selector's `needed = S − a·t` must use the group size, not the
            // whole cluster. The degree cap keeps the global `R` — an upper
            // bound on the readers actually touching this register, which
            // only deepens the (soundness-neutral) candidate search.
            let mut sel = index.selector(
                mask,
                self.scope.targets.len(),
                self.config.max_faults(),
                self.config.readers() + 1,
            );
            if resync || self.gc_floor > self.floor {
                // Late joiner: the announced floor outran our own
                // completed-op floor, so servers may have pruned every
                // value this client could witness at degree 1. Secure the
                // snapshot maximum with a write-back round instead of
                // trusting fast selection (mirrors the simulator client;
                // see the GC argument in the server module docs).
                let max_v = sel.max_candidate().unwrap_or_else(TaggedValue::initial);
                let handle = OpHandle { op, phase: 2 };
                round_trip(
                    &self.endpoint,
                    &self.scope,
                    self.view.as_deref(),
                    Msg::Update { handle, value: max_v, floor: self.floor },
                    self.timeout,
                    self.retry,
                    |msg| match msg {
                        Msg::UpdateAck { handle: h } if h == handle => Some(()),
                        _ => None,
                    },
                )?;
                return Ok(max_v);
            }
            return Ok(sel.select_return_value());
        }
        // Adaptive: return the maximum fast when it is safely admissible;
        // secure it with a write-back otherwise.
        let cap = mwr_core::adaptive_degree_cap(
            self.scope.targets.len(),
            self.config.max_faults(),
            self.config.readers(),
        );
        let mut sel =
            index.selector(mask, self.scope.targets.len(), self.config.max_faults(), cap);
        let max_v = sel.max_candidate().unwrap_or_else(TaggedValue::initial);
        if resync || sel.degree(max_v).is_none() {
            let handle = OpHandle { op, phase: 2 };
            round_trip(
                &self.endpoint,
                &self.scope,
                self.view.as_deref(),
                Msg::Update { handle, value: max_v, floor: self.floor },
                self.timeout,
                self.retry,
                |msg| match msg {
                    Msg::UpdateAck { handle: h } if h == handle => Some(()),
                    _ => None,
                },
            )?;
        }
        Ok(max_v)
    }

    /// Runs the fast-read round-trip on the configured wire, accounting
    /// payload bytes. On the delta wire the quorum's deltas merge straight
    /// into the reader's caches and standing witness index — nothing is
    /// reconstructed or cloned.
    fn fast_round(&mut self, handle: OpHandle) -> Result<FastReplies, RuntimeError> {
        let measure = self.measure_payload;
        let mut bytes = 0u64;
        let replies = match self.wire {
            FastWire::FullInfo => {
                let val_queue: Vec<TaggedValue> = self.val_queue.iter().copied().collect();
                let request = Msg::ReadFast { handle, val_queue };
                if measure {
                    bytes += request.encoded_len() as u64 * self.scope.targets.len() as u64;
                }
                let moved = std::cell::Cell::new(0u64);
                let acks = round_trip(
                    &self.endpoint,
                    &self.scope,
                    self.view.as_deref(),
                    request,
                    self.timeout,
                    self.retry,
                    |msg| {
                        if !matches!(&msg, Msg::ReadFastAck { handle: h, .. } if *h == handle) {
                            return None;
                        }
                        if measure {
                            moved.set(moved.get() + msg.encoded_len() as u64);
                        }
                        let Msg::ReadFastAck { snapshot, .. } = msg else { unreachable!() };
                        Some(snapshot)
                    },
                )?;
                bytes += moved.get();
                FastReplies::Full(acks.into_values().collect())
            }
            FastWire::Delta | FastWire::Runs => {
                let moved = std::cell::Cell::new(0u64);
                let state = &mut self.state;
                let val_queue = &self.val_queue;
                let floor = self.floor;
                // The Runs wire (v4) is the delta protocol with
                // run-length-encoded acks; only the frame kinds differ.
                let runs = matches!(self.wire, FastWire::Runs);
                let acks = round_trip_per_server(
                    &self.endpoint,
                    &self.scope,
                    self.view.as_deref(),
                    |sid| {
                        let cache = state.cache(sid);
                        let acked = cache.acked_version();
                        let new_values = cache.unacknowledged(val_queue);
                        let request = if runs {
                            Msg::ReadFastRuns { handle, acked, floor, new_values }
                        } else {
                            Msg::ReadFastDelta { handle, acked, floor, new_values }
                        };
                        if measure {
                            moved.set(moved.get() + request.encoded_len() as u64);
                        }
                        request
                    },
                    self.timeout,
                    self.retry,
                    |msg| {
                        if !matches!(
                            &msg,
                            Msg::ReadFastDeltaAck { handle: h, .. }
                            | Msg::ReadFastRunsAck { handle: h, .. } if *h == handle
                        ) {
                            return None;
                        }
                        if measure {
                            moved.set(moved.get() + msg.encoded_len() as u64);
                        }
                        let (Msg::ReadFastDeltaAck { delta, .. }
                        | Msg::ReadFastRunsAck { delta, .. }) = msg
                        else {
                            unreachable!()
                        };
                        Some(delta)
                    },
                )?;
                bytes += moved.get();
                let mut replied = 0u128;
                let mut resync = false;
                for (sid, delta) in &acks {
                    if delta.from < self.state.cache(*sid).acked_version() {
                        // The server was rebuilt by state transfer since
                        // our last contact: its delta restarts below what
                        // we acknowledged. Drop the stale cache mirror
                        // (and its witness-index bits) and resynchronize
                        // from the full refresh the server sent.
                        self.state.reset(*sid);
                        resync = true;
                    }
                    self.state.merge(*sid, delta);
                    self.gc_floor = self.gc_floor.max(delta.pruned);
                    replied |= FastReadState::mask_bit(*sid);
                }
                FastReplies::Delta { replied, resync }
            }
        };
        self.last_payload = bytes;
        Ok(replies)
    }
}

/// What one fast-read round-trip produced, per wire format.
enum FastReplies {
    /// Full-info: the quorum's owned snapshots.
    Full(Vec<Snapshot>),
    /// Delta: the deltas already merged into the reader state.
    Delta {
        /// Mask of servers that replied in this round's quorum.
        replied: u128,
        /// A replying server restarted its delta stream (state-transfer
        /// rebuild): this read must not trust fast selection.
        resync: bool,
    },
}

/// Broadcasts one request to the scope's servers and blocks until its
/// quorum of matching replies arrives, discarding stale or non-matching
/// messages. The matcher consumes each message, so matched payloads move
/// out without cloning.
fn round_trip<E: Endpoint, T>(
    endpoint: &E,
    scope: &Scope,
    view: Option<&ClusterView>,
    request: Msg,
    timeout: Duration,
    retry: RetryPolicy,
    matcher: impl FnMut(Msg) -> Option<T>,
) -> Result<BTreeMap<ServerId, T>, RuntimeError> {
    round_trip_per_server(endpoint, scope, view, |_| request.clone(), timeout, retry, matcher)
}

/// Broadcasts one (possibly per-server) request to every server in the
/// scope, wrapped for the scope's register and tagged with its epoch.
fn broadcast_scope<E: Endpoint>(
    endpoint: &E,
    scope: &Scope,
    request_for: &mut impl FnMut(ServerId) -> Msg,
) {
    // One batched broadcast: the transport amortizes its locking over
    // the whole fan-out, and a dead server is exactly the failure the
    // quorum tolerates (send_batch is best-effort by contract). Mixed-
    // register backlog coalesces into the same per-peer pipelines.
    let batch: Vec<(ProcessId, Msg)> = scope
        .targets
        .iter()
        .map(|&s| {
            let request = match scope.wrap {
                Some(register) => Msg::ForRegister { register, inner: Box::new(request_for(s)) },
                None => request_for(s),
            };
            // The epoch header goes outermost (elided at epoch 0, so the
            // legacy wire is byte-identical): servers adopt it before
            // unwrapping the register frame.
            (ProcessId::Server(s), request.in_epoch(scope.epoch))
        })
        .collect();
    endpoint.send_batch(batch);
}

/// Like [`round_trip`], but with a per-server request — the delta fast read
/// sends each server only what that server has not acknowledged.
///
/// Each attempt re-broadcasts and waits up to `timeout`; acks accumulate
/// in a per-server map *across* attempts, so a duplicate reply from a
/// re-broadcast can never double-count toward the quorum, and a straggler
/// from an earlier attempt still completes a later one.
///
/// A wrapped scope adds the [`Msg::ForRegister`] frame header on the way
/// out and strips it (register-checked) on the way in, so the matcher sees
/// only its own register's bare replies — a shared endpoint can carry many
/// scoped clients' traffic without cross-talk.
///
/// Epoch handling: every reply's epoch header is stripped before matching.
/// A reply tagged with a *higher* epoch than the scope means the cluster
/// reconfigured mid-round: the scope re-derives itself from the shared
/// view (which the coordinator installed before any server could produce
/// that tag) and the request is re-broadcast under the new coverage. The
/// acks already collected keep counting — each records an idempotent
/// server-side effect that happened, and the refreshed satisfaction rule
/// is re-evaluated over the whole map — so an in-flight operation rides
/// through a reconfiguration instead of timing out. The refresh works on
/// a local clone; the client's persistent scope catches up at the next
/// operation's `refresh_scope`.
fn round_trip_per_server<E: Endpoint, T>(
    endpoint: &E,
    scope: &Scope,
    view: Option<&ClusterView>,
    mut request_for: impl FnMut(ServerId) -> Msg,
    timeout: Duration,
    retry: RetryPolicy,
    mut matcher: impl FnMut(Msg) -> Option<T>,
) -> Result<BTreeMap<ServerId, T>, RuntimeError> {
    let mut scope = scope.clone();
    let mut acks: BTreeMap<ServerId, T> = BTreeMap::new();
    let attempts = retry.attempts.max(1);
    for attempt in 0..attempts {
        if attempt > 0 && !retry.backoff.is_zero() {
            std::thread::sleep(retry.backoff);
        }
        if let Some(view) = view {
            scope.refresh_from(view);
        }
        broadcast_scope(endpoint, &scope, &mut request_for);
        // A timeout too long to be a point in time ("never") is no deadline.
        let deadline = Instant::now().checked_add(timeout);
        while !scope.satisfied(&acks) {
            let left = deadline
                .map_or(Duration::MAX, |at| at.saturating_duration_since(Instant::now()));
            if left.is_zero() {
                break;
            }
            match endpoint.inbox().recv_timeout(left) {
                Ok((from, msg)) => {
                    let (frame_epoch, msg) = msg.into_epoch_parts();
                    if frame_epoch > scope.epoch {
                        if let Some(view) = view {
                            if scope.refresh_from(view) {
                                broadcast_scope(endpoint, &scope, &mut request_for);
                            }
                        }
                    }
                    let Some(msg) = scope.unwrap(msg) else { continue };
                    if let (ProcessId::Server(sid), Some(payload)) = (from, matcher(msg)) {
                        acks.insert(sid, payload);
                    }
                }
                Err(_) => break,
            }
        }
        if scope.satisfied(&acks) {
            return Ok(acks);
        }
    }
    Err(RuntimeError::Timeout {
        waited: timeout,
        collected: acks.len(),
        required: scope.quorum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::spawn_server;
    use crate::transport::InMemoryTransport;

    fn cluster(
        config: ClusterConfig,
    ) -> (InMemoryTransport, Vec<crate::server::ServerHandle>) {
        let transport = InMemoryTransport::new();
        let servers = config
            .server_ids()
            .map(|s| spawn_server(transport.register(ProcessId::Server(s))))
            .collect();
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
            assert!(s.shutdown() > 0);
        }
    }

    #[test]
    fn quorum_survives_t_dead_servers() {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let transport = InMemoryTransport::new();
        // Only bring up 2 of 3 servers: the third is "crashed".
        let s0 = spawn_server(transport.register(ProcessId::server(0)));
        let s1 = spawn_server(transport.register(ProcessId::server(1)));
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
        let s0 = spawn_server(transport.register(ProcessId::server(0)));
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
        let s0 = spawn_server(transport.register(ProcessId::server(0)));
        let late = {
            let transport = transport.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(300));
                spawn_server(transport.register(ProcessId::server(1)))
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
        let transport = InMemoryTransport::new();
        let servers: Vec<_> = config
            .server_ids()
            .map(|s| {
                crate::server::spawn_server_with(
                    transport.register(ProcessId::Server(s)),
                    mwr_core::RegisterServer::with_gc(config.readers() + config.writers()),
                )
            })
            .collect();
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
}
