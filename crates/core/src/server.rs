//! The register server automaton — Algorithm 2 of the paper, extended to
//! serve every protocol variant in the design space, plus the bounded-state
//! machinery (delta snapshots and acknowledged-floor GC) that makes the
//! fast read O(new information) instead of O(history).
//!
//! The server keeps a *value store* (`valuevector` in the paper): every
//! tagged value it has ever received, each with an `updated` set recording
//! the clients registered on it. Request types:
//!
//! - **Query** (pure): reply with the current maximum value `vali`. Used by
//!   the first round of slow writes and slow reads.
//! - **Update** (mutating): `update(val, c)` per Algorithm 2 — insert or
//!   merge the value, track the maximum, register the sender. Used by the
//!   second round of writes and by slow-read write-backs. Carries the
//!   sender's completed-operation floor for GC.
//! - **ReadFast** (mutating + query): apply `update(val, rj)` for every
//!   value in the reader's `valQueue`, then `update(vali, rj)` — the reader
//!   registered on the current maximum — then reply with the full store.
//!   This is the fast-read round of Algorithm 1/2; registering the reader
//!   before replying is what the admissibility degrees count (Lemma 8:
//!   *"every server which replies to r2 … adds r2 to its updated set before
//!   replying"*).
//! - **ReadFastDelta** (mutating + query): the bounded-state fast read.
//!   Semantically identical to **ReadFast** — the reader ends up registered
//!   on exactly its `valQueue` and `vali`, and receives (logically) the
//!   full store — but only *new information* crosses the wire in either
//!   direction. Past the values it sends, the reader is registered in one
//!   walk over the store ([`ServerState::catch_up_registrations`]).
//!
//! # The store's layout
//!
//! The store is one `Vec` of `(value, entry)` sorted by value, so `vali` is
//! its last element: storing a new maximum — nearly every write — is a
//! push with no search, and a prune is one `retain`. An entry holds the
//! version its value was first added at, the version of its latest
//! registration, and its `updated` set: each registered client with the
//! version its registration got, sorted by client. Up to two registrations
//! live inside the entry — a value's writer and one reader, all that a
//! value of a one-writer, one-reader register ever gets; a third moves the
//! set to a `Vec` of its own, which the entry keeps until it is pruned. On
//! that shape storing, registering on and pruning a value allocate
//! nothing, however far a reader has fallen behind.
//!
//! # The delta protocol
//!
//! Every registration the server records — each `(value, client)` pair —
//! bumps a monotone per-server *version* counter. A reader remembers, per
//! server, the last version it merged (`acked`); the server's reply covers
//! exactly the registrations in `(acked, now]`. Because links are FIFO and
//! clients run one operation at a time, the deltas a reader merges are
//! contiguous, so its cached copy of the server's store is exact above the
//! GC floor: the reconstruction equals the full-info [`Snapshot`] of
//! `store ∩ ({v ≥ pruned} ∪ {latest})` (a former `latest` the server kept
//! through a prune is the one value outside it; see
//! [`DeltaSnapshot`](crate::msg::DeltaSnapshot)), and `admissible(·)`
//! selection is unchanged.
//!
//! Two details keep the *registration* behavior identical to full-info:
//!
//! 1. The reader sends only `valQueue` entries the server does not already
//!    know it has (`val_queue ∖ cache`), so the server applies
//!    `update(val, rj)` just for those; and
//! 2. for the rest of the `valQueue` — values the reader learned from
//!    deltas up to `acked` — the server *re-registers* the reader itself
//!    ([`ServerState::catch_up_registrations`]): any value first added at
//!    version ≤ `acked` is provably in the reader's `valQueue` (the reader
//!    merged the delta that introduced it), exactly the set full-info
//!    re-sends would have registered. Each stored value keeps the version
//!    it was added at, and each reader a mark (the largest `acked` it was
//!    caught up to), so catch-up is the window `(mark, acked]` of added
//!    versions. One walk over the store registers the reader on that
//!    window, on the initial value and on `vali`; `vali` is the store's
//!    maximum and so its last entry, so its registration is minted last,
//!    as full-info's `update(vali, rj)` after the re-sent `valQueue` is.
//!
//! # Acknowledged-floor GC — correctness argument
//!
//! Clients piggyback their *completed-operation floor* — the largest tag
//! they have returned or written — on every `Update` and `ReadFastDelta`.
//! Pruning is **membership-aware**: once every client *this server has
//! heard any message from* has reported a floor, the server prunes every
//! stored value strictly below the minimum reported floor (keeping `vali`
//! unconditionally), and refuses to re-insert values below that line (late
//! duplicates, stale write-backs). Membership is what keeps a client that
//! crashes before its first message — or a handle that is configured but
//! never used — from wedging GC forever: clients the server has never
//! heard from simply do not participate in the minimum. A *contacted*
//! client that never reports (e.g. a full-info reader, whose `ReadFast`
//! carries no floor) still holds pruning off — the conservative direction.
//!
//! Why this is safe: let `f = min` reported floor. Every reader has
//! completed an operation returning (or writing back) a value `≥ f`, and a
//! completed read's return value enters the reader's `valQueue`. A fast
//! read sends its whole `valQueue` (logically) to every server, and every
//! replying server registers the reader on each entry before replying — so
//! each `valQueue` entry is contained in all `S − t` replies with the
//! reader as a common witness, i.e. admissible with degree 1. The selection
//! loop returns the *largest* admissible value, hence always a value
//! `≥ max(valQueue) ≥` the reader's own floor `≥ f`. The fast read's
//! fallback therefore never needs a pruned entry, and no future read of
//! any client can return a value below `f`: entries below `f` are dead.
//! (Readers prune their own `valQueue` and per-server caches below the
//! server-announced floor for the same reason — see
//! [`DeltaSnapshot::pruned`](crate::msg::DeltaSnapshot).)
//!
//! The one case the argument above does not cover is a client whose
//! *first* contact with a server arrives after pruning has engaged: its
//! whole `valQueue` (just the initial value) is below `f`, so the plain
//! `update` path would drop it dead on arrival and the degree-1 guarantee
//! would evaporate. Two mechanisms close the gap. Full-info `ReadFast`
//! re-registration is exempt from the dead-on-arrival rule (the reader
//! cannot learn the floor from a `ReadFastAck`, and its `valQueue` is
//! re-sent wholesale every read anyway, so the exemption does not unbound
//! memory). Delta readers *do* learn the floor (`DeltaSnapshot::pruned`),
//! detect `pruned > own floor` after their first round, and — in both
//! `ReadMode::Fast` and `ReadMode::Adaptive`, whose degree-based accept
//! stands on the same `valQueue` anchor; the rule exists once, in the
//! client's round machine (`crate::round`, reason 1) — secure the
//! snapshot maximum with an ABD-style write-back round instead of trusting
//! `admissible(·)` over registrations the floor may have eaten; from then
//! on they report floors like everyone else and the standard argument
//! applies. The paper's full-info model is deliberately append-only ("the
//! server just appends everything … never deleting any information",
//! §4.1); this module is the practical counterpoint the analysis
//! abstracts away.
//!
//! # Crash–recover: state transfer soundness
//!
//! A crashed server may *rejoin*: it fetches a [`StateTransfer`] from a
//! quorum (`S − t`) of live peers, merges them via [`ServerState::install`],
//! and only then resumes answering clients. Three properties make the
//! rejoined server safe to count in quorums again:
//!
//! 1. **Every completed operation survives.** A completed write (or
//!    write-back) stored its value on `S − t` servers; a fetch quorum of
//!    `S − t` live peers intersects that set in at least `S − 2t ≥ 1`
//!    servers, so the union of the fetched stores contains every completed
//!    operation's value. Transferred *registrations* are sound to adopt
//!    wholesale because a registration `(v, c)` — on any server — only ever
//!    attests the global fact "`v` is in `c`'s `valQueue` (or `c` wrote
//!    `v`)", which is exactly what the admissibility degrees rely on.
//! 2. **No tag resurrection.** The merge prunes the unioned store below the
//!    *maximum* of the peers' GC floors before installing: a peer pruned at
//!    `f` only after every client completed an operation `≥ f`, so values
//!    below `f` are dead globally, no matter which lagging peer still held
//!    a copy. The installed GC state starts at that floor (and inherits the
//!    peers' membership and floor reports), so the rejoined server also
//!    refuses late duplicates below it, like any other server.
//! 3. **No duplicate-version delta corruption.** Versions are per-server
//!    counters, and a reader's cached mirror of the crashed store — with an
//!    acknowledged version minted by the *previous* incarnation — describes
//!    a store that no longer exists. The rejoined server resumes its
//!    counter strictly above both the peers' high-waters and its own
//!    pre-crash version (the live runtime's bank thread returns its final
//!    version high-water when it exits, and the cluster keeps that one word
//!    across the crash — the customary stable-storage bootstrap record of
//!    crash-recover models), then installs every transferred
//!    value and registration as *fresh* versioned events and records the
//!    resulting high-water as its *reset floor*. A `ReadFastDelta` whose
//!    `acked` falls below the reset floor is answered from version 0 — the
//!    whole rebuilt store — with `from = 0 < acked` signalling the reader
//!    to discard its stale mirror ([`FastReadState::reset`]), merge the
//!    full refresh, and secure that read's return value with a write-back
//!    round (its own witness registrations may not have survived the
//!    crash). Post-install acknowledgements are always `≥` the reset
//!    floor, so exactly the stale readers pay the refresh.
//!
//! # Client churn: floor-safe departure
//!
//! A departing client broadcasts [`Msg::Depart`]; [`ServerState::depart`]
//! removes it from the GC membership (`seen`) and the floor reports
//! (`floors`), drops its catch-up mark and its registrations, and
//! re-evaluates pruning (the departed client may have been the one
//! unreported floor holding GC off, or the minimum floor holding it down).
//! Safety: removing a departed client's registrations only *shrinks*
//! witness sets, which makes admissibility more conservative, and every
//! reader keeps the degree-1 guarantee on its own `valQueue` through its
//! own registrations — the departed client is simply a client that
//! (provably) never speaks again, a special case of the client-crash fault
//! model the protocol already tolerates. Liveness: the client leaves `seen` and `floors` together, so
//! the engagement condition (`floors` covers `seen`) is re-checked on
//! departure and a registered-then-silent client can un-wedge GC by
//! departing.
//!
//! [`StateTransfer`]: crate::msg::StateTransfer
//! [`Msg::Depart`]: crate::msg::Msg::Depart
//! [`FastReadState::reset`]: crate::msg::FastReadState::reset

use std::collections::BTreeMap;

use mwr_sim::{Automaton, Context};
use mwr_types::{ClientId, InlineList, ProcessId, TaggedValue};

use crate::events::ClientEvent;
use crate::msg::{
    ClientSet, DeltaRecords, DeltaSnapshot, FloorReport, Msg, Snapshot, StateTransfer, ValueRecord,
};

/// One stored value's bookkeeping: which clients are registered on it and
/// when (in registration-version terms) each one arrived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Entry {
    /// Registered clients, sorted, each with the version its registration
    /// got (flat: populations are tens of clients, and this is the hottest
    /// per-registration probe on the server), in place up to two. Equality
    /// is by content, whichever form holds it, so `ServerState`'s `Eq`
    /// means equal stores.
    updated: InlineList<(ClientId, u64)>,
    /// The version at which this value entered the store (a value pruned
    /// and inserted again gets a new one). It is the catch-up key: a reader
    /// whose acknowledgement reaches it merged the delta that introduced
    /// the value (see [`ServerState::catch_up_registrations`]).
    first_added: u64,
    /// The highest registration version in `updated` — the version counter
    /// is globally monotone, so this is just the version of the most recent
    /// insert. Lets [`ServerState::delta_since`] skip untouched values with
    /// one comparison instead of scanning their registration lists. May
    /// overstate after a [`ServerState::depart`] removal (harmless: the
    /// scan then finds nothing and emits no record).
    max_reg: u64,
}

impl Entry {
    /// Where `client`'s registration is (`Ok`) or would go (`Err`).
    fn find(&self, client: ClientId) -> Result<usize, usize> {
        self.updated.binary_search_by_key(&client, |r| r.0)
    }

    /// How many clients registered on this value after version `from`.
    fn registered_since(&self, from: u64) -> usize {
        if self.max_reg <= from {
            0
        } else if self.first_added > from {
            self.updated.len() // every registration of a value added since
        } else {
            self.updated.iter().filter(|&&(_, v)| v > from).count()
        }
    }

    /// Registers `c` on this value unless it already is, stamping the
    /// registration with the next version. The third registration moves the
    /// list out of place into room for `population` (the register's `R + W`,
    /// if above two: every client it could ever hold), so it allocates once
    /// and never grows again.
    fn register(&mut self, c: ClientId, version: &mut u64, population: usize) {
        if let Err(i) = self.find(c) {
            if self.updated.len() == 2 && population > 2 && !self.updated.is_spilled() {
                self.updated.reserve(population - 2);
            }
            *version += 1;
            self.updated.insert(i, (c, *version));
            self.max_reg = *version;
        }
    }
}

/// Acknowledged-floor GC bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GcState {
    /// The cluster's full client population (R + W): the room a store
    /// entry's registrations spill into.
    population: usize,
    /// Every client this server has heard any message from. Pruning is
    /// membership-aware: it engages once `floors` covers `seen`.
    seen: ClientSet,
    /// Latest floor reported per client, sorted by client.
    floors: Vec<(ClientId, TaggedValue)>,
    /// The minimum of `floors` as of the last engagement scan — lets
    /// [`ServerState::record_floor`] skip the rescan when the reporting
    /// client provably did not hold the minimum (the common case on the
    /// hot Update/fast-read path).
    min_reported: TaggedValue,
    /// Everything strictly below this has been pruned.
    pruned_floor: TaggedValue,
}

/// The state of a register server, independent of any transport.
///
/// [`RegisterServer`] wraps this for the simulator; `mwr-runtime` drives the
/// same logic over threads and sockets.
///
/// # Examples
///
/// ```
/// use mwr_core::ServerState;
/// use mwr_types::{ClientId, Tag, TaggedValue, Value, WriterId};
///
/// let mut s = ServerState::new();
/// let v1 = TaggedValue::new(Tag::new(1, WriterId::new(0)), Value::new(10));
/// s.update(v1, ClientId::writer(0));
/// assert_eq!(s.latest(), v1);
/// let snap = s.snapshot();
/// assert!(snap.contains(v1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerState {
    latest: TaggedValue,
    /// Every stored value with its bookkeeping, sorted by value.
    store: Vec<(TaggedValue, Entry)>,
    /// Monotone registration counter; every new `(value, client)` pair gets
    /// the next version.
    version: u64,
    /// Per-reader catch-up high-water mark, sorted by reader: the largest
    /// acknowledged version whose values this reader has already been
    /// re-registered on.
    registered_up_to: Vec<(ClientId, u64)>,
    /// `Some` iff acknowledged-floor GC is enabled.
    gc: Option<GcState>,
    /// The version high-water recorded by the last [`install`](Self::install):
    /// a reader acknowledgement below it was minted by a previous
    /// incarnation of this server and describes a store that no longer
    /// exists. Zero on a server that has never recovered.
    reset_floor: u64,
}

impl ServerState {
    /// A fresh server holding only the initial value `((0, ⊥), 0)` with an
    /// empty `updated` set (Algorithm 2, initialization). GC is off.
    pub fn new() -> Self {
        ServerState {
            latest: TaggedValue::initial(),
            store: vec![(TaggedValue::initial(), Entry::default())],
            version: 0,
            registered_up_to: Vec::new(),
            gc: None,
            reset_floor: 0,
        }
    }

    /// A fresh server with acknowledged-floor GC enabled for a cluster of
    /// `population` clients (`R + W`). Pruning is membership-aware: it
    /// starts once every client *this server has heard from* has reported a
    /// completed-operation floor, so a client that crashes before sending
    /// its first message cannot wedge GC (see the module docs).
    pub fn with_gc(population: usize) -> Self {
        let mut state = ServerState::new();
        state.gc = Some(GcState {
            population,
            seen: ClientSet::new(),
            floors: Vec::new(),
            min_reported: TaggedValue::initial(),
            pruned_floor: TaggedValue::initial(),
        });
        state
    }

    /// The client population GC was enabled for (0 while GC is off).
    fn population(&self) -> usize {
        self.gc.as_ref().map_or(0, |g| g.population)
    }

    /// The current maximum value `vali`.
    pub fn latest(&self) -> TaggedValue {
        self.latest
    }

    /// The server's GC floor: everything strictly below it has been pruned.
    /// Stays at the initial value while GC is off or not yet engaged.
    pub fn pruned_floor(&self) -> TaggedValue {
        self.gc.as_ref().map_or_else(TaggedValue::initial, |g| g.pruned_floor)
    }

    /// The current registration version (grows with every new
    /// `(value, client)` registration).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The version high-water recorded by the last [`install`](Self::install):
    /// reader acknowledgements strictly below it predate this incarnation
    /// of the server and must be answered with a full refresh from version
    /// 0 (see the module docs on delta corruption). Zero on a server that
    /// has never recovered.
    pub fn reset_floor(&self) -> u64 {
        self.reset_floor
    }

    /// Algorithm 2's `update(val, c)`: insert `val` if new, advance the
    /// maximum if it is larger, and register `c` on it.
    ///
    /// The paper's pseudocode resets `updated` to `{c}` when a strictly
    /// larger value arrives and merges `c` otherwise; values below the
    /// current maximum that were never seen before are still stored (the
    /// store is append-only in the full-info spirit). With GC engaged,
    /// values strictly below the pruned floor that would not advance the
    /// maximum are ignored — they are below every client's completed floor,
    /// so no future read can return them (see the module docs).
    pub fn update(&mut self, val: TaggedValue, c: ClientId) {
        self.update_impl(val, c, false);
    }

    /// `update` with the dead-on-arrival rule suspended, for full-info
    /// `ReadFast` re-registration: the full-info wire carries no floor
    /// announcement, so a reader whose whole `valQueue` fell below the
    /// pruned floor (its first contact arrived after membership-aware
    /// pruning engaged) cannot detect it and fall back; re-inserting its
    /// `valQueue` restores the degree-1 admissibility guarantee the module
    /// docs rely on. Bounded because a full-info `valQueue` is what the
    /// reader re-sends every read anyway.
    fn update_resurrecting(&mut self, val: TaggedValue, c: ClientId) {
        self.update_impl(val, c, true);
    }

    fn update_impl(&mut self, val: TaggedValue, c: ClientId, force: bool) {
        let below = !force && val < self.pruned_floor() && val <= self.latest;
        if below && self.find(val).is_err() {
            return; // dead on arrival: a late duplicate below the GC floor
        }
        let population = self.population();
        let i = self.insert(val);
        self.store[i].1.register(c, &mut self.version, population);
        if val > self.latest {
            self.latest = val;
        }
    }

    /// Registers a delta fast reader before its reply: on every stored
    /// value it provably knows — those first added at a version `≤ acked`
    /// (the reader merged the delta that introduced them, so they are in
    /// its `valQueue`) — and on the current maximum `vali`. This is the
    /// delta protocol's stand-in for full-info's `valQueue` re-send and its
    /// `update(vali, rj)`. Values first added at or below the reader's mark
    /// (the largest `acked` it was caught up to) were covered then, so one
    /// walk over the store registers it on the window `(mark, acked]`, on
    /// the initial value and on `latest`: O(|store|), like
    /// [`delta_since`](Self::delta_since). `latest` is the store's maximum
    /// and so its last entry: its registration is minted after the window's.
    pub fn catch_up_registrations(&mut self, reader: ClientId, acked: u64) {
        let i = match self.registered_up_to.binary_search_by_key(&reader, |r| r.0) {
            Ok(i) => i,
            Err(i) => {
                self.registered_up_to.insert(i, (reader, 0));
                i
            }
        };
        let mark = self.registered_up_to[i].1;
        self.registered_up_to[i].1 = mark.max(acked);
        let (latest, population) = (self.latest, self.population());
        let version = &mut self.version;
        for (val, entry) in &mut self.store {
            // The initial value is in every reader's `valQueue` from birth;
            // full-info re-sends it every read.
            let window = mark < entry.first_added && entry.first_added <= acked;
            if window || *val == TaggedValue::initial() || *val == latest {
                entry.register(reader, version, population);
            }
        }
    }

    /// Records that `client` has contacted this server (any message).
    /// Membership-aware pruning engages once every *contacted* client has
    /// reported a floor, so contact without a floor report holds GC off —
    /// the conservative direction. No-op when GC is off.
    pub fn note_contact(&mut self, client: ClientId) {
        if let Some(gc) = &mut self.gc {
            gc.seen.insert(client);
        }
    }

    /// Records `client`'s completed-operation floor and prunes once the
    /// floors cover the contacted membership. No-op when GC is off.
    pub fn record_floor(&mut self, client: ClientId, floor: TaggedValue) {
        let Some(gc) = &mut self.gc else { return };
        gc.seen.insert(client);
        match gc.floors.binary_search_by_key(&client, |r| r.0) {
            Ok(i) => {
                let old = gc.floors[i].1;
                if floor <= old {
                    return; // floor is monotone: nothing changed
                }
                gc.floors[i].1 = floor;
                // Raising a floor that was not the minimum cannot move the
                // minimum, and the membership did not change, so the
                // engagement condition is unchanged too: skip the rescan.
                if old > gc.min_reported {
                    return;
                }
            }
            Err(i) => gc.floors.insert(i, (client, floor)),
        }
        self.maybe_prune();
    }

    /// Re-evaluates the pruning engagement condition and prunes if the
    /// minimum reported floor advanced — called whenever the floor map or
    /// the membership changes (floor reports *and* departures).
    fn maybe_prune(&mut self) {
        let Some(gc) = &mut self.gc else { return };
        // Floors is a subset of seen, so equal sizes means every contacted
        // client has reported; an empty floor map never engages (the
        // minimum over nothing is meaningless).
        if gc.floors.is_empty() || gc.floors.len() != gc.seen.len() {
            return;
        }
        let min = gc.floors.iter().map(|&(_, floor)| floor).min().unwrap_or_default();
        gc.min_reported = min;
        if min > gc.pruned_floor {
            gc.pruned_floor = min;
            self.prune_below(min);
        }
    }

    /// Removes every trace of a departing (or provably-dead) client: its
    /// GC membership and floor report, its catch-up high-water mark, and
    /// its registrations — then re-evaluates pruning, since the departed
    /// client may have been the unreported floor wedging GC or the minimum
    /// floor holding it down. See the module docs for why shrinking
    /// witness sets is safe.
    pub fn depart(&mut self, client: ClientId) {
        self.registered_up_to.retain(|&(c, _)| c != client);
        for (_, entry) in &mut self.store {
            if let Ok(i) = entry.find(client) {
                entry.updated.remove(i);
            }
        }
        if let Some(gc) = &mut self.gc {
            gc.seen.remove(client);
            gc.floors.retain(|&(c, _)| c != client);
        }
        self.maybe_prune();
    }

    /// Exports the full state as a catch-up payload for a recovering peer
    /// (the reply to [`Msg::StateFetch`]).
    pub fn export(&self) -> StateTransfer {
        let (seen, floors) = match &self.gc {
            Some(gc) => (
                gc.seen.as_slice().to_vec(),
                gc.floors.iter().map(|&(client, floor)| FloorReport { client, floor }).collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        StateTransfer {
            version: self.version,
            latest: self.latest,
            pruned: self.pruned_floor(),
            entries: self.snapshot().entries,
            seen,
            floors,
        }
    }

    /// Merges a quorum of peers' [`StateTransfer`]s into this (freshly
    /// constructed) server, making it safe to serve quorums again.
    ///
    /// `version_floor` is the recovering server's own pre-crash version
    /// bound (the cluster's version beacon); the counter resumes strictly
    /// above both it and every peer's high-water, every transferred value
    /// and registration is installed as a fresh versioned event, the
    /// unioned store is pruned below the maximum peer GC floor (no tag
    /// resurrection), and the final version becomes the *reset floor* that
    /// flags pre-crash reader acknowledgements for a full refresh. See the
    /// module docs for the soundness argument.
    pub fn install(&mut self, version_floor: u64, transfers: &[StateTransfer]) {
        let mut base = self.version.max(version_floor);
        for t in transfers {
            base = base.max(t.version);
        }
        // Reserve one version as the incarnation mark so even an empty
        // install moves the counter: every pre-crash acknowledgement ends
        // up strictly below the reset floor.
        self.version = base + 1;

        let mut merged: BTreeMap<TaggedValue, Vec<ClientId>> = BTreeMap::new();
        let mut latest = self.latest;
        let mut pruned = self.pruned_floor();
        for t in transfers {
            latest = latest.max(t.latest);
            pruned = pruned.max(t.pruned);
            for rec in &t.entries {
                let set = merged.entry(rec.value).or_default();
                for &c in &rec.updated {
                    if let Err(i) = set.binary_search(&c) {
                        set.insert(i, c);
                    }
                }
            }
        }
        for (&val, clients) in &merged {
            if val < pruned && val != latest {
                continue; // dead on every peer's floor: never resurrect it
            }
            if clients.is_empty() {
                // A value with no surviving registrations still needs a
                // versioned addition so later reader catch-up covers it.
                self.insert(val);
            } else {
                for &c in clients {
                    self.update_impl(val, c, true);
                }
            }
        }
        if latest > self.latest {
            self.latest = latest;
        }
        if let Some(gc) = &mut self.gc {
            let seen = transfers.iter().flat_map(|t| &t.seen);
            gc.seen = gc.seen.as_slice().iter().chain(seen).copied().collect();
            let floors = transfers.iter().flat_map(|t| &t.floors);
            gc.floors.extend(floors.map(|fr| (fr.client, fr.floor)));
            // Keep each client's highest report.
            gc.floors.sort_unstable_by_key(|&(c, floor)| (c, std::cmp::Reverse(floor)));
            gc.floors.dedup_by_key(|&mut (c, _)| c);
            gc.pruned_floor = gc.pruned_floor.max(pruned);
            // The direct floor merge bypassed `record_floor`, so refresh the
            // cached minimum: a stale-low cache would let every later
            // `record_floor` skip the rescan (its floor compares above the
            // stale minimum) and wedge pruning on reconfigured servers.
            gc.min_reported = gc.floors.iter().map(|&(_, floor)| floor).min().unwrap_or_default();
        }
        if pruned > TaggedValue::initial() {
            // Drops the seeded initial value (and anything else dead) while
            // keeping the latest, like any other pruning pass.
            self.prune_below(pruned);
        }
        self.reset_floor = self.version;
    }

    /// The full store as reported to full-info fast reads.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            entries: self
                .store
                .iter()
                .map(|(value, entry)| ValueRecord {
                    value: *value,
                    updated: entry.updated.map(|(c, _)| c),
                })
                .collect(),
        }
    }

    /// The store changes above registration version `from`, as reported to
    /// delta fast reads. Derived straight from the store: each entry keeps
    /// its registrations stamped with their versions (sorted by client, the
    /// order the wire wants), so the reply is one walk over the live values
    /// — a single comparison skips untouched ones via `max_reg` — with no
    /// registration log and no sort. A record carries up to two clients in
    /// place and more in the reply's one overflow buffer. The record list
    /// is allocated at the first record, with room for a record per value
    /// left; the overflow buffer (boxed) at the first record that spills,
    /// with room for exactly the clients of every list that spills. So an
    /// empty reply allocates nothing, a reply of short lists once, and any
    /// other three times.
    pub fn delta_since(&self, from: u64) -> DeltaSnapshot {
        let mut entries = DeltaRecords::new();
        let mut spilled = false; // whether the overflow buffer is sized
        for (i, (val, entry)) in self.store.iter().enumerate() {
            let new = entry.registered_since(from);
            if new == 0 {
                continue; // nothing registered on this value since `from`
            }
            if entries.is_empty() {
                entries.reserve(self.store.len() - i, 0);
            }
            let clients = entry.updated.iter().filter(|&&(_, v)| v > from).map(|&(c, _)| c);
            if new <= 2 {
                entries.push_inline(*val, clients);
                continue;
            }
            entries.open(*val);
            if !spilled {
                spilled = true;
                let left = self.store[i..].iter().map(|(_, e)| e.registered_since(from));
                entries.reserve(0, left.filter(|&n| n > 2).sum());
            }
            entries.extend_last(new, clients);
        }
        DeltaSnapshot {
            from,
            version: self.version,
            latest: self.latest,
            pruned: self.pruned_floor(),
            entries,
        }
    }

    /// Number of distinct values stored.
    pub fn stored_values(&self) -> usize {
        self.store.len()
    }

    /// The `updated` set registered for `val`, if stored.
    pub fn updated_set(&self, val: TaggedValue) -> Option<Vec<ClientId>> {
        let i = self.find(val).ok()?;
        Some(self.store[i].1.updated.iter().map(|r| r.0).collect())
    }

    /// Where `val` is (`Ok`) or would be inserted (`Err`) in the store.
    fn find(&self, val: TaggedValue) -> Result<usize, usize> {
        self.store.binary_search_by_key(&val, |&(v, _)| v)
    }

    /// The store index of `val`, which is added (at the next version) if
    /// it is not stored. A new maximum — nearly every write — is appended
    /// without a search.
    fn insert(&mut self, val: TaggedValue) -> usize {
        let at = match self.store.last() {
            Some(&(max, _)) if max < val => Err(self.store.len()),
            _ => self.find(val),
        };
        at.unwrap_or_else(|i| {
            self.version += 1;
            self.store.insert(i, (val, Entry { first_added: self.version, ..Entry::default() }));
            i
        })
    }

    /// Garbage-collects values strictly below `floor`, keeping the current
    /// maximum unconditionally. Returns how many entries were dropped.
    ///
    /// Called by [`record_floor`](Self::record_floor) once every client has
    /// acknowledged a completed operation `≥ floor`; see the module docs
    /// for why the fast read's fallback never needs the pruned entries.
    pub fn prune_below(&mut self, floor: TaggedValue) -> usize {
        let latest = self.latest;
        let before = self.store.len();
        self.store.retain(|&(val, _)| val >= floor || val == latest);
        before - self.store.len()
    }
}

impl Default for ServerState {
    fn default() -> Self {
        ServerState::new()
    }
}

/// The server automaton for the simulator: [`ServerState`] plus the message
/// handling of Algorithm 2.
#[derive(Debug, Clone, Default)]
pub struct RegisterServer {
    state: ServerState,
}

impl RegisterServer {
    /// Creates a fresh server (GC off — faithful to the paper's full-info
    /// model).
    pub fn new() -> Self {
        RegisterServer { state: ServerState::new() }
    }

    /// Creates a server with acknowledged-floor GC enabled for a cluster of
    /// `population` clients (`R + W`). Pruning is membership-aware — see
    /// [`ServerState::with_gc`].
    pub fn with_gc(population: usize) -> Self {
        RegisterServer { state: ServerState::with_gc(population) }
    }

    /// Creates a recovering server: GC-enabled for `population` clients,
    /// with a quorum of peers' catch-up snapshots installed on top (see
    /// [`ServerState::install`]). `version_floor` is the server's own
    /// pre-crash version bound (the version its bank thread returned when
    /// it exited).
    pub fn recovered(
        population: usize,
        version_floor: u64,
        transfers: &[StateTransfer],
    ) -> Self {
        let mut state = ServerState::with_gc(population);
        state.install(version_floor, transfers);
        RegisterServer { state }
    }

    /// Read access to the server's state (useful in tests).
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// Merges a quorum of peer state into this *running* server — the
    /// reconfiguration coordinator's push into a joining member
    /// ([`Msg::StateInstall`]). This is the rejoin merge verbatim
    /// ([`ServerState::install`]): unions only, the version counter resumes
    /// above every transferred high-water mark, nothing below the
    /// transferred floor is resurrected, and the reset-floor stamp sends any
    /// reader holding a pre-install delta mirror through a full refresh.
    pub fn install_from(&mut self, transfers: &[StateTransfer]) {
        self.state.install(0, transfers);
    }

    /// Computes the reply for one request, mutating state as required.
    ///
    /// Returns `None` for messages a server never receives (acks, invokes);
    /// those indicate a routing bug and are ignored defensively here — the
    /// simulator's topology enforcement catches genuine mistakes loudly.
    pub fn handle(&mut self, from: ProcessId, msg: &Msg) -> Option<Msg> {
        // Server-to-server recovery and reconfiguration traffic is matched
        // before the client gate: only peers may fetch or install state, and
        // servers never enter the GC membership.
        if let Msg::StateFetch { nonce } = msg {
            from.as_server()?;
            return Some(Msg::StateSnapshot { nonce: *nonce, state: Box::new(self.state.export()) });
        }
        if let Msg::StateInstall { nonce, transfers } = msg {
            from.as_server()?;
            self.install_from(transfers);
            return Some(Msg::StateInstallAck { nonce: *nonce });
        }
        let client = from.as_client()?;
        self.state.note_contact(client);
        match msg {
            Msg::Query { handle } => Some(Msg::QueryAck {
                handle: *handle,
                latest: self.state.latest(),
            }),
            Msg::Update { handle, value, floor } => {
                self.state.record_floor(client, *floor);
                self.state.update(*value, client);
                Some(Msg::UpdateAck { handle: *handle })
            }
            Msg::ReadFast { handle, val_queue } => {
                for val in val_queue {
                    self.state.update_resurrecting(*val, client);
                }
                let latest = self.state.latest();
                self.state.update(latest, client);
                Some(Msg::ReadFastAck {
                    handle: *handle,
                    snapshot: self.state.snapshot(),
                })
            }
            Msg::ReadFastDelta { handle, acked, floor, new_values } => {
                Some(Msg::ReadFastDeltaAck {
                    handle: *handle,
                    delta: self.fast_read_delta(client, *acked, *floor, new_values),
                })
            }
            Msg::ReadFastRuns { handle, acked, floor, new_values } => {
                // Wire v4: identical server-side processing; only the
                // ack's encoding differs (run-length `updated` lists).
                Some(Msg::ReadFastRunsAck {
                    handle: *handle,
                    delta: self.fast_read_delta(client, *acked, *floor, new_values),
                })
            }
            Msg::Depart { handle } => {
                self.state.depart(client);
                Some(Msg::DepartAck { handle: *handle })
            }
            _ => None,
        }
    }

    /// The shared body of both delta-wire fast reads
    /// ([`Msg::ReadFastDelta`] and the v4 [`Msg::ReadFastRuns`]): floor
    /// and `valQueue` bookkeeping, reader catch-up, and the incremental
    /// snapshot reply.
    fn fast_read_delta(
        &mut self,
        client: ClientId,
        acked: u64,
        floor: TaggedValue,
        new_values: &[TaggedValue],
    ) -> DeltaSnapshot {
        // An acknowledgement below the reset floor was minted by a
        // previous incarnation of this server: answer from version 0 (the
        // whole rebuilt store) so `from < acked` tells the reader to
        // discard its stale mirror and resynchronize.
        let acked = if acked < self.state.reset_floor() { 0 } else { acked };
        self.state.record_floor(client, floor);
        for val in new_values {
            self.state.update(*val, client);
        }
        self.state.catch_up_registrations(client, acked);
        self.state.delta_since(acked)
    }
}

impl Automaton<Msg, ClientEvent> for RegisterServer {
    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg, ClientEvent>) {
        if let Some(reply) = self.handle(from, &msg) {
            ctx.send(from, reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{OpHandle, OpId};
    use mwr_types::{Tag, Value, WriterId};
    use std::collections::BTreeSet;

    fn tv(ts: u64, w: u32, v: u64) -> TaggedValue {
        TaggedValue::new(Tag::new(ts, WriterId::new(w)), Value::new(v))
    }

    fn rhandle(seq: u64) -> OpHandle {
        OpHandle { op: OpId { client: ClientId::reader(0), seq }, phase: 1 }
    }

    #[test]
    fn initial_state_stores_bottom() {
        let s = ServerState::new();
        assert!(s.latest().tag().is_initial());
        assert_eq!(s.stored_values(), 1);
        assert_eq!(s.updated_set(TaggedValue::initial()), Some(vec![]));
        assert_eq!(s.version(), 0);
    }

    #[test]
    fn update_advances_latest_monotonically() {
        let mut s = ServerState::new();
        s.update(tv(2, 0, 20), ClientId::writer(0));
        assert_eq!(s.latest(), tv(2, 0, 20));
        // A smaller value arrives late: stored, but latest unchanged.
        s.update(tv(1, 1, 10), ClientId::writer(1));
        assert_eq!(s.latest(), tv(2, 0, 20));
        assert_eq!(s.stored_values(), 3);
    }

    #[test]
    fn update_merges_updated_sets() {
        let mut s = ServerState::new();
        let v = tv(1, 0, 10);
        s.update(v, ClientId::writer(0));
        s.update(v, ClientId::reader(1));
        assert_eq!(
            s.updated_set(v),
            Some(vec![ClientId::reader(1), ClientId::writer(0)])
        );
    }

    #[test]
    fn query_does_not_mutate() {
        let mut srv = RegisterServer::new();
        let before = srv.state().clone();
        let handle = rhandle(0);
        let reply = srv.handle(ProcessId::reader(0), &Msg::Query { handle });
        assert_eq!(
            reply,
            Some(Msg::QueryAck { handle, latest: TaggedValue::initial() })
        );
        assert_eq!(srv.state(), &before);
    }

    #[test]
    fn read_fast_applies_val_queue_then_registers_then_snapshots() {
        let mut srv = RegisterServer::new();
        let w = ProcessId::writer(0);
        let r = ProcessId::reader(0);
        let handle = OpHandle { op: OpId { client: ClientId::writer(0), seq: 0 }, phase: 2 };
        srv.handle(
            w,
            &Msg::Update { handle, value: tv(1, 0, 11), floor: TaggedValue::initial() },
        );

        let reply = srv
            .handle(
                r,
                &Msg::ReadFast { handle: rhandle(0), val_queue: vec![TaggedValue::initial()] },
            )
            .unwrap();
        let Msg::ReadFastAck { snapshot, .. } = reply else {
            panic!("expected ReadFastAck");
        };
        // The reader is registered on the current maximum before the reply
        // (the property Lemma 8 relies on).
        assert!(snapshot
            .updated_for(tv(1, 0, 11))
            .unwrap()
            .contains(&ClientId::reader(0)));
        // The val_queue registration landed on the initial value too.
        assert!(snapshot
            .updated_for(TaggedValue::initial())
            .unwrap()
            .contains(&ClientId::reader(0)));
    }

    /// The delta protocol and the full-info protocol leave the server in
    /// identical registration state, and the delta stream reconstructs the
    /// full snapshot exactly.
    #[test]
    fn delta_stream_reconstructs_the_full_snapshot() {
        let mut full = RegisterServer::new();
        let mut delta = RegisterServer::new();
        let w = ProcessId::writer(0);
        let r = ProcessId::reader(0);
        let wfloor = TaggedValue::initial();

        // Reconstructed view: seeded like the store's initial state.
        let mut cache: BTreeMap<TaggedValue, BTreeSet<ClientId>> = BTreeMap::new();
        cache.insert(TaggedValue::initial(), BTreeSet::new());
        let mut acked = 0u64;

        for round in 0..5u64 {
            let value = tv(round + 1, 0, round + 1);
            let wh = OpHandle { op: OpId { client: ClientId::writer(0), seq: round }, phase: 2 };
            full.handle(w, &Msg::Update { handle: wh, value, floor: wfloor });
            delta.handle(w, &Msg::Update { handle: wh, value, floor: wfloor });

            // Full-info read re-sends everything it knows (= the cache).
            let val_queue: Vec<TaggedValue> = cache.keys().copied().collect();
            let f = full
                .handle(r, &Msg::ReadFast { handle: rhandle(round), val_queue })
                .unwrap();
            // Delta read sends nothing new (the cache tracks the server).
            let d = delta
                .handle(
                    r,
                    &Msg::ReadFastDelta {
                        handle: rhandle(round),
                        acked,
                        floor: TaggedValue::initial(),
                        new_values: vec![],
                    },
                )
                .unwrap();
            let Msg::ReadFastAck { snapshot, .. } = f else { panic!() };
            let Msg::ReadFastDeltaAck { delta: ds, .. } = d else { panic!() };
            assert_eq!(ds.from, acked);
            assert!(ds.version > acked, "reply must cover the new registrations");
            for rec in &ds.entries {
                cache.entry(rec.value).or_default().extend(rec.updated.iter().copied());
            }
            acked = ds.version;
            let reconstructed = Snapshot {
                entries: cache
                    .iter()
                    .map(|(value, updated)| ValueRecord {
                        value: *value,
                        updated: updated.iter().copied().collect(),
                    })
                    .collect(),
            };
            assert_eq!(reconstructed, snapshot, "round {round}: byte-for-byte");
            assert_eq!(ds.latest, value);
        }
        assert_eq!(full.state().snapshot(), delta.state().snapshot());
    }

    /// A late duplicate `ReadFastDelta` (old acked version) is harmless:
    /// registrations are idempotent and the reply simply re-covers the
    /// already-delivered window.
    #[test]
    fn late_duplicate_read_fast_delta_is_idempotent() {
        let mut srv = RegisterServer::new();
        let r = ProcessId::reader(0);
        srv.handle(
            ProcessId::writer(0),
            &Msg::Update {
                handle: OpHandle { op: OpId { client: ClientId::writer(0), seq: 0 }, phase: 2 },
                value: tv(1, 0, 5),
                floor: TaggedValue::initial(),
            },
        );
        let fresh = srv
            .handle(
                r,
                &Msg::ReadFastDelta {
                    handle: rhandle(0),
                    acked: 0,
                    floor: TaggedValue::initial(),
                    new_values: vec![TaggedValue::initial()],
                },
            )
            .unwrap();
        let Msg::ReadFastDeltaAck { delta: first, .. } = fresh else { panic!() };
        let state_after = srv.state().clone();
        // The duplicate re-sends the same request with the old acked floor.
        let dup = srv
            .handle(
                r,
                &Msg::ReadFastDelta {
                    handle: rhandle(0),
                    acked: 0,
                    floor: TaggedValue::initial(),
                    new_values: vec![TaggedValue::initial()],
                },
            )
            .unwrap();
        let Msg::ReadFastDeltaAck { delta: second, .. } = dup else { panic!() };
        assert_eq!(srv.state(), &state_after, "no state change on duplicate");
        assert_eq!(first, second, "same window, same delta");
    }

    #[test]
    fn server_ignores_client_only_messages() {
        let mut srv = RegisterServer::new();
        assert_eq!(srv.handle(ProcessId::reader(0), &Msg::InvokeRead), None);
        let handle = rhandle(0);
        assert_eq!(srv.handle(ProcessId::reader(0), &Msg::UpdateAck { handle }), None);
    }

    #[test]
    fn prune_below_drops_stale_entries_but_keeps_latest() {
        let mut s = ServerState::new();
        for i in 1..=5 {
            s.update(tv(i, 0, i * 10), ClientId::writer(0));
        }
        assert_eq!(s.stored_values(), 6); // initial + 5
        let dropped = s.prune_below(tv(4, 0, 40));
        assert_eq!(dropped, 4); // initial, ts1..ts3
        assert_eq!(s.latest(), tv(5, 0, 50));
        assert!(s.updated_set(tv(4, 0, 40)).is_some());
        assert!(s.updated_set(tv(3, 0, 30)).is_none());
        // The latest survives even a floor above it.
        let dropped = s.prune_below(tv(9, 0, 0));
        assert_eq!(dropped, 1);
        assert!(s.updated_set(s.latest()).is_some());
    }

    /// What a delta mirror holds is `store ∩ ({v ≥ pruned} ∪ {latest})`,
    /// which is not always the whole store: a server keeps its `latest`
    /// through a prune even below the floor, and still stores it after a
    /// newer value arrives, while a mirror drops it then.
    #[test]
    fn a_delta_mirror_is_the_store_above_the_floor_plus_latest() {
        use crate::msg::SnapshotCache;
        let (v1, v2, v3) = (tv(1, 0, 1), tv(2, 0, 2), tv(3, 0, 3));
        let mut s = ServerState::with_gc(1);
        s.update(v1, ClientId::writer(0));
        // The writer's floor is a write this server missed: the prune at v2
        // keeps v1, the current maximum.
        s.record_floor(ClientId::writer(0), v2);
        assert_eq!((s.pruned_floor(), s.latest()), (v2, v1));
        s.update(v3, ClientId::writer(0));

        let mut mirror = SnapshotCache::new();
        mirror.merge(&s.delta_since(0));
        let stored = |v| s.updated_set(v).is_some();
        assert!(stored(v1) && stored(v3), "the server still stores v1 and v3");
        assert!(!mirror.knows(v1) && mirror.knows(v3), "the mirror holds v3 only");
        for v in [TaggedValue::initial(), v1, v2, v3] {
            let kept = v >= s.pruned_floor() || v == s.latest();
            assert_eq!(mirror.knows(v), stored(v) && kept, "mirror vs store at {v}");
        }
    }

    /// A contacted client that has not yet reported a floor holds pruning
    /// off; once the floors cover the contacted membership, pruning runs at
    /// the minimum reported floor.
    #[test]
    fn gc_waits_for_every_contacted_client() {
        let mut s = ServerState::with_gc(3);
        for i in 1..=4 {
            s.update(tv(i, 0, i), ClientId::writer(0));
        }
        assert_eq!(s.stored_values(), 5);
        // Reader 1 has contacted (say, a Query) but never reported: nothing
        // may be pruned while a contacted client's floor is unknown.
        s.note_contact(ClientId::reader(1));
        s.record_floor(ClientId::writer(0), tv(4, 0, 4));
        s.record_floor(ClientId::reader(0), tv(3, 0, 3));
        assert_eq!(s.stored_values(), 5, "GC must wait for every contacted client");
        assert_eq!(s.pruned_floor(), TaggedValue::initial());
        s.record_floor(ClientId::reader(1), tv(2, 0, 2));
        // min floor = (2, w1): initial and ts1 go.
        assert_eq!(s.pruned_floor(), tv(2, 0, 2));
        assert_eq!(s.stored_values(), 3);
        assert!(s.updated_set(tv(2, 0, 2)).is_some());
        assert!(s.updated_set(tv(1, 0, 1)).is_none());
    }

    /// Regression (GC floor wedge): a client that crashes before sending
    /// its first message must not wedge pruning — the floor advances and
    /// memory stays bounded on the floors of the clients that actually
    /// exist on the wire.
    #[test]
    fn gc_floor_advances_despite_a_silent_client() {
        // Population 3, but reader 1 crashed before its first op and never
        // contacts the server at all.
        let mut s = ServerState::with_gc(3);
        for i in 1..=64 {
            s.update(tv(i, 0, i), ClientId::writer(0));
            s.record_floor(ClientId::writer(0), tv(i, 0, i));
            s.record_floor(ClientId::reader(0), tv(i, 0, i));
        }
        assert_eq!(s.pruned_floor(), tv(64, 0, 64), "floor advances without the silent client");
        assert_eq!(s.stored_values(), 1, "memory stays bounded: only the latest survives");
    }

    /// The full-info fast-read path re-registers a late-joining reader's
    /// `valQueue` even below the GC floor (it cannot learn the floor from a
    /// `ReadFastAck`), restoring the degree-1 admissibility witness.
    #[test]
    fn read_fast_reregisters_below_the_floor_for_late_joiners() {
        let mut srv = RegisterServer::with_gc(2);
        for i in 1..=3u64 {
            srv.handle(
                ProcessId::writer(0),
                &Msg::Update {
                    handle: OpHandle {
                        op: OpId { client: ClientId::writer(0), seq: i },
                        phase: 2,
                    },
                    value: tv(i, 0, i),
                    floor: tv(i, 0, i),
                },
            );
        }
        assert_eq!(srv.state().pruned_floor(), tv(3, 0, 3), "writer-only membership pruned");
        // A reader joins late: its whole valQueue is below the floor.
        let reply = srv
            .handle(
                ProcessId::reader(0),
                &Msg::ReadFast { handle: rhandle(0), val_queue: vec![TaggedValue::initial()] },
            )
            .unwrap();
        let Msg::ReadFastAck { snapshot, .. } = reply else { panic!("expected ReadFastAck") };
        assert!(
            snapshot
                .updated_for(TaggedValue::initial())
                .is_some_and(|u| u.contains(&ClientId::reader(0))),
            "the reader's valQueue entry is resurrected and witnessed"
        );
    }

    /// Floors only ever advance; a stale (smaller) floor report cannot
    /// regress the GC line.
    #[test]
    fn stale_floor_reports_do_not_regress() {
        let mut s = ServerState::with_gc(1);
        for i in 1..=3 {
            s.update(tv(i, 0, i), ClientId::writer(0));
        }
        s.record_floor(ClientId::reader(0), tv(3, 0, 3));
        assert_eq!(s.pruned_floor(), tv(3, 0, 3));
        s.record_floor(ClientId::reader(0), tv(1, 0, 1));
        assert_eq!(s.pruned_floor(), tv(3, 0, 3), "floor is monotone");
    }

    /// Once pruned, a value stays dead: late duplicates below the GC floor
    /// are not re-inserted (they are below every client's completed floor).
    #[test]
    fn pruned_values_cannot_be_resurrected() {
        let mut s = ServerState::with_gc(1);
        for i in 1..=3 {
            s.update(tv(i, 0, i), ClientId::writer(0));
        }
        s.record_floor(ClientId::reader(0), tv(3, 0, 3));
        assert_eq!(s.stored_values(), 1);
        s.update(tv(1, 0, 1), ClientId::writer(1)); // late duplicate
        assert_eq!(s.stored_values(), 1, "below-floor values stay dead");
        // …but a *new maximum* is always accepted.
        s.update(tv(9, 0, 9), ClientId::writer(1));
        assert_eq!(s.latest(), tv(9, 0, 9));
    }

    /// A registered-then-silent client wedges GC; departing un-wedges it:
    /// the remaining reporters' minimum floor prunes immediately.
    #[test]
    fn depart_unwedges_gc_and_drops_registrations() {
        let mut s = ServerState::with_gc(3);
        for i in 1..=4 {
            s.update(tv(i, 0, i), ClientId::writer(0));
        }
        s.update(tv(4, 0, 4), ClientId::reader(1));
        s.note_contact(ClientId::reader(1));
        s.record_floor(ClientId::writer(0), tv(4, 0, 4));
        s.record_floor(ClientId::reader(0), tv(3, 0, 3));
        // Reader 1 contacted (its update above) but never reports: wedged.
        assert_eq!(s.pruned_floor(), TaggedValue::initial());

        s.depart(ClientId::reader(1));
        assert_eq!(s.pruned_floor(), tv(3, 0, 3), "departure re-engages pruning");
        assert!(
            !s.updated_set(tv(4, 0, 4)).unwrap().contains(&ClientId::reader(1)),
            "departed client's registrations are dropped"
        );
        // The departed client's registration no longer flows to readers.
        let d = s.delta_since(0);
        assert!(d.entries.iter().all(|rec| !rec.updated.contains(&ClientId::reader(1))));
    }

    /// Departing the client holding the *minimum* floor lets the floor
    /// rise to the survivors' minimum.
    #[test]
    fn departing_the_minimum_floor_advances_the_line() {
        let mut s = ServerState::with_gc(2);
        for i in 1..=5 {
            s.update(tv(i, 0, i), ClientId::writer(0));
        }
        s.note_contact(ClientId::reader(0));
        s.record_floor(ClientId::writer(0), tv(5, 0, 5));
        s.record_floor(ClientId::reader(0), tv(2, 0, 2));
        assert_eq!(s.pruned_floor(), tv(2, 0, 2));
        s.depart(ClientId::reader(0));
        assert_eq!(s.pruned_floor(), tv(5, 0, 5), "survivor minimum takes over");
        // Departing the last client must not prune on an empty floor map.
        s.depart(ClientId::writer(0));
        assert_eq!(s.pruned_floor(), tv(5, 0, 5));
    }

    /// `install` merges a quorum of transfers: union of stores and
    /// registrations, version resumed above every high-water (and the
    /// recovering server's own pre-crash bound), GC floor at the peers'
    /// maximum with no resurrection below it.
    #[test]
    fn install_merges_transfers_above_every_version_stamp() {
        let mut peer_a = ServerState::with_gc(2);
        let mut peer_b = ServerState::with_gc(2);
        for i in 1..=3 {
            peer_a.update(tv(i, 0, i), ClientId::writer(0));
        }
        peer_b.update(tv(3, 0, 3), ClientId::writer(0));
        peer_b.update(tv(4, 0, 4), ClientId::reader(0));
        // Peer A pruned below ts3: those tags are dead globally.
        peer_a.record_floor(ClientId::writer(0), tv(3, 0, 3));
        peer_a.record_floor(ClientId::reader(0), tv(3, 0, 3));
        assert_eq!(peer_a.pruned_floor(), tv(3, 0, 3));

        let transfers = [peer_a.export(), peer_b.export()];
        let own_pre_crash_version = 100;
        let srv = RegisterServer::recovered(2, own_pre_crash_version, &transfers);
        let s = srv.state();
        assert!(
            s.version() > own_pre_crash_version,
            "resumes above the pre-crash beacon: {}",
            s.version()
        );
        assert!(s.version() > peer_a.version() && s.version() > peer_b.version());
        assert_eq!(s.reset_floor(), s.version(), "install stamps the reset floor");
        assert_eq!(s.latest(), tv(4, 0, 4));
        assert_eq!(s.pruned_floor(), tv(3, 0, 3), "inherits the maximum peer floor");
        assert!(s.updated_set(tv(2, 0, 2)).is_none(), "no tag resurrection below the floor");
        assert!(s.updated_set(tv(3, 0, 3)).is_some());
        assert!(
            s.updated_set(tv(4, 0, 4)).unwrap().contains(&ClientId::reader(0)),
            "peer registrations are adopted"
        );
    }

    /// Floors adopted through `install` must keep pruning live: the merge
    /// bypasses `record_floor`, so a stale cached minimum would make every
    /// later report look like a non-minimum raise and skip the rescan —
    /// wedging GC on freshly reconfigured servers forever.
    #[test]
    fn floors_inherited_by_install_do_not_wedge_pruning() {
        let mut peer = ServerState::with_gc(2);
        for i in 1..=6 {
            peer.update(tv(i, 0, i), ClientId::writer(0));
        }
        peer.record_floor(ClientId::writer(0), tv(2, 0, 2));
        peer.record_floor(ClientId::reader(0), tv(2, 0, 2));
        assert_eq!(peer.pruned_floor(), tv(2, 0, 2));

        let mut s = ServerState::with_gc(2);
        s.install(0, &[peer.export()]);
        assert_eq!(s.pruned_floor(), tv(2, 0, 2), "inherits the peer floor");
        // Both clients raise their (inherited) floors. No departures and no
        // first-time reports ever happen on this server, so these calls are
        // pruning's only chance to advance.
        s.record_floor(ClientId::writer(0), tv(5, 0, 5));
        s.record_floor(ClientId::reader(0), tv(4, 0, 4));
        assert_eq!(
            s.pruned_floor(),
            tv(4, 0, 4),
            "floor reports after a state transfer still advance pruning"
        );
    }

    /// A reader holding a pre-crash acknowledgement gets the whole rebuilt
    /// store with `from = 0` (the resynchronization signal); post-install
    /// acknowledgements take the normal incremental path.
    #[test]
    fn stale_acked_after_install_gets_a_full_refresh() {
        let mut peer = ServerState::new();
        peer.update(tv(1, 0, 1), ClientId::writer(0));
        peer.update(tv(2, 0, 2), ClientId::writer(0));
        let mut srv = RegisterServer::recovered(2, 50, &[peer.export()]);
        let reset = srv.state().reset_floor();
        assert!(reset > 50);

        // acked = 7: minted by the previous incarnation (7 < reset floor).
        let reply = srv
            .handle(
                ProcessId::reader(0),
                &Msg::ReadFastDelta {
                    handle: rhandle(0),
                    acked: 7,
                    floor: TaggedValue::initial(),
                    new_values: vec![],
                },
            )
            .unwrap();
        let Msg::ReadFastDeltaAck { delta, .. } = reply else { panic!() };
        assert_eq!(delta.from, 0, "full refresh signals the reset");
        assert!(delta.version >= reset);
        let values: Vec<TaggedValue> = delta.entries.iter().map(|r| r.value).collect();
        assert!(values.contains(&tv(1, 0, 1)) && values.contains(&tv(2, 0, 2)));

        // A post-install acknowledgement is served incrementally.
        let acked = delta.version;
        let reply = srv
            .handle(
                ProcessId::reader(0),
                &Msg::ReadFastDelta {
                    handle: rhandle(1),
                    acked,
                    floor: TaggedValue::initial(),
                    new_values: vec![],
                },
            )
            .unwrap();
        let Msg::ReadFastDeltaAck { delta, .. } = reply else { panic!() };
        assert_eq!(delta.from, acked, "post-install acks take the delta path");
    }

    /// Only peers may fetch state; the reply carries the exporter's full
    /// store and GC bookkeeping.
    #[test]
    fn state_fetch_is_server_only_and_exports_everything() {
        let mut srv = RegisterServer::with_gc(2);
        srv.handle(
            ProcessId::writer(0),
            &Msg::Update {
                handle: OpHandle { op: OpId { client: ClientId::writer(0), seq: 0 }, phase: 2 },
                value: tv(1, 0, 1),
                floor: tv(1, 0, 1),
            },
        );
        assert_eq!(
            srv.handle(ProcessId::reader(0), &Msg::StateFetch { nonce: 7 }),
            None,
            "clients may not fetch state"
        );
        let reply = srv.handle(ProcessId::server(3), &Msg::StateFetch { nonce: 7 }).unwrap();
        let Msg::StateSnapshot { nonce, state } = reply else { panic!() };
        assert_eq!(nonce, 7);
        assert_eq!(state.version, srv.state().version());
        assert_eq!(state.latest, tv(1, 0, 1));
        assert!(state.seen.contains(&ClientId::writer(0)));
        assert_eq!(state.floors.len(), 1);
        assert!(state.entries.iter().any(|r| r.value == tv(1, 0, 1)));
        // The fetching peer itself never entered the GC membership.
        assert_eq!(state.seen, vec![ClientId::writer(0)]);
    }

    /// Only peers may push installs; the install merges like a rejoin
    /// (version above the transfer's high-water, reset floor stamped).
    #[test]
    fn state_install_is_server_only_and_merges_like_rejoin() {
        let mut donor = RegisterServer::with_gc(2);
        donor.handle(
            ProcessId::writer(0),
            &Msg::Update {
                handle: OpHandle { op: OpId { client: ClientId::writer(0), seq: 0 }, phase: 2 },
                value: tv(3, 0, 30),
                floor: TaggedValue::initial(),
            },
        );
        let transfer = donor.state().export();

        let mut joiner = RegisterServer::with_gc(2);
        let install = Msg::StateInstall { nonce: 5, transfers: vec![transfer.clone()] };
        assert_eq!(
            joiner.handle(ProcessId::writer(0), &install),
            None,
            "clients may not install state"
        );
        let reply = joiner.handle(ProcessId::server(9), &install);
        assert_eq!(reply, Some(Msg::StateInstallAck { nonce: 5 }));
        assert_eq!(joiner.state().latest(), tv(3, 0, 30));
        assert!(joiner.state().version() > transfer.version, "version resumes above donor");
        assert_eq!(joiner.state().reset_floor(), joiner.state().version());
        // The coordinator never entered the GC membership.
        assert!(!joiner.state().export().seen.contains(&ClientId::writer(9)));
    }

    /// Departure round-trips through `handle`: the ack echoes the handle
    /// and the client is gone from the GC bookkeeping.
    #[test]
    fn depart_message_acknowledges_and_cleans_up() {
        let mut srv = RegisterServer::with_gc(2);
        srv.handle(
            ProcessId::reader(0),
            &Msg::ReadFastDelta {
                handle: rhandle(0),
                acked: 0,
                floor: TaggedValue::initial(),
                new_values: vec![],
            },
        );
        let handle = rhandle(1);
        let reply = srv.handle(ProcessId::reader(0), &Msg::Depart { handle });
        assert_eq!(reply, Some(Msg::DepartAck { handle }));
        assert!(srv.state().export().seen.is_empty(), "membership is clean after departure");
    }

    fn runs(seq: u64, acked: u64) -> Msg {
        Msg::ReadFastRuns {
            handle: rhandle(seq),
            acked,
            floor: TaggedValue::initial(),
            new_values: vec![],
        }
    }

    fn write(srv: &mut RegisterServer, value: TaggedValue, floor: TaggedValue) {
        let handle = OpHandle { op: OpId { client: ClientId::writer(0), seq: 0 }, phase: 2 };
        srv.handle(ProcessId::writer(0), &Msg::Update { handle, value, floor });
    }

    fn delta_of(reply: Option<Msg>) -> DeltaSnapshot {
        match reply {
            Some(Msg::ReadFastRunsAck { delta, .. }) => delta,
            other => panic!("not a runs ack: {other:?}"),
        }
    }

    fn registered(s: &ServerState, v: TaggedValue, c: ClientId) -> bool {
        s.updated_set(v).is_some_and(|u| u.contains(&c))
    }

    /// Catch-up covers `(mark, acked]`: a value first added at exactly
    /// `acked` is caught up, one first added at the reader's previous mark
    /// is not. The mark is set before its value exists so the lower edge is
    /// observable — a reader caught up to its mark is already registered on
    /// everything first added at or below it.
    #[test]
    fn catch_up_covers_values_first_added_after_the_mark_up_to_acked() {
        let r = ClientId::reader(0);
        let mut s = ServerState::new();
        s.catch_up_registrations(r, 2);
        assert_eq!(s.version(), 1, "only the registration on the initial value");
        let (v1, v2, v3, v4) = (tv(1, 0, 1), tv(2, 0, 2), tv(3, 0, 3), tv(4, 0, 4));
        for v in [v1, v2, v3, v4] {
            s.update(v, ClientId::writer(0));
        }
        // First added at versions 2 (the mark), 4, 6 and 8; v4 is latest.
        s.catch_up_registrations(r, 4);
        assert!(!registered(&s, v1, r), "first added at the previous mark");
        assert!(registered(&s, v2, r), "first added at exactly acked");
        assert!(!registered(&s, v3, r), "first added after acked");
        assert!(registered(&s, v4, r), "latest");
        assert!(registered(&s, TaggedValue::initial(), r));
    }

    /// The walk registers the reader on the current maximum, and mints that
    /// registration last: `latest` is the store's last entry, so the
    /// version order is the one a separate `update(latest, reader)` after
    /// the catch-up would give.
    #[test]
    fn catch_up_registers_the_reader_on_latest_last() {
        let r = ClientId::reader(0);
        let mut s = ServerState::new();
        let (v1, v3) = (tv(1, 0, 10), tv(3, 0, 30));
        s.update(v1, ClientId::writer(0));
        let acked = s.version();
        s.update(v3, ClientId::writer(1));
        let before = s.version();
        s.catch_up_registrations(r, acked);
        assert_eq!(s.version(), before + 3, "initial, v1 (the window) and latest");
        let last = s.delta_since(s.version() - 1);
        let values: Vec<TaggedValue> = last.entries.iter().map(|rec| rec.value).collect();
        assert_eq!(values, vec![v3], "the registration on latest is the newest");
        assert_eq!(last.entries.iter().next().map(|record| record.updated), Some(&[r][..]));
    }

    /// A value pruned and then re-inserted by a full-info `ReadFast` is a
    /// new addition: catch-up covers it once an acknowledgement reaches its
    /// new `first_added`, never under the one it had before the prune.
    #[test]
    fn a_resurrected_value_is_caught_up_under_its_new_first_added() {
        let mut srv = RegisterServer::with_gc(3);
        let (r0, r1) = (ProcessId::reader(0), ProcessId::reader(1));
        let reader = ClientId::reader(0);
        let v = |i| tv(i, 0, i);
        for i in 1..=3 {
            write(&mut srv, v(i), v(i));
        }
        assert!(srv.state().updated_set(v(1)).is_none(), "v1 is pruned");
        let a1 = delta_of(srv.handle(r0, &runs(0, 0))).version;
        srv.handle(r1, &Msg::ReadFast { handle: rhandle(0), val_queue: vec![v(1)] });
        assert!(srv.state().updated_set(v(1)).is_some(), "v1 is back, first added after a1");
        let a2 = delta_of(srv.handle(r0, &runs(1, a1))).version;
        assert!(!registered(srv.state(), v(1), reader), "window (0, a1] predates v1's return");
        srv.handle(r0, &runs(2, a2));
        assert!(registered(srv.state(), v(1), reader), "window (a1, a2] holds it");
    }

    /// After `install_from` on a running server, a pre-install `acked`
    /// draws the version-0 refresh, which catches up on nothing; the next
    /// read's acknowledgement covers the installed values.
    #[test]
    fn after_an_install_the_refresh_catches_up_nothing_and_the_next_read_everything() {
        let mut srv = RegisterServer::with_gc(3);
        let r0 = ProcessId::reader(0);
        let reader = ClientId::reader(0);
        let (v1, v2, v3) = (tv(1, 0, 1), tv(2, 1, 2), tv(3, 1, 3));
        write(&mut srv, v1, TaggedValue::initial());
        let a1 = delta_of(srv.handle(r0, &runs(0, 0))).version;
        let a2 = delta_of(srv.handle(r0, &runs(1, a1))).version;
        let mut donor = ServerState::new();
        donor.update(v2, ClientId::writer(1));
        donor.update(v3, ClientId::writer(1));
        srv.install_from(&[donor.export()]);
        assert!(a2 < srv.state().reset_floor());

        let refresh = delta_of(srv.handle(r0, &runs(2, a2)));
        assert_eq!(refresh.from, 0, "a pre-install ack is answered from version 0");
        let values: Vec<TaggedValue> = refresh.entries.iter().map(|r| r.value).collect();
        assert!(values.contains(&v2) && values.contains(&v3));
        assert!(!registered(srv.state(), v2, reader), "the refresh catches up on nothing");
        assert!(registered(srv.state(), v3, reader), "the reader is registered on latest");

        srv.handle(r0, &runs(3, refresh.version));
        assert!(registered(srv.state(), v2, reader), "the next read covers installed values");
    }

    /// A request whose `acked` is at or below the reader's mark (a repeat,
    /// or an older acknowledgement) registers the reader on the initial
    /// value and the latest one only.
    #[test]
    fn an_ack_at_or_below_the_mark_registers_only_the_initial_value_and_latest() {
        let mut srv = RegisterServer::new();
        let r0 = ProcessId::reader(0);
        let reader = ClientId::reader(0);
        let (v1, v2, v3) = (tv(1, 0, 1), tv(2, 0, 2), tv(3, 0, 3));
        write(&mut srv, v1, TaggedValue::initial());
        let a1 = delta_of(srv.handle(r0, &runs(0, 0))).version;
        delta_of(srv.handle(r0, &runs(1, a1)));
        write(&mut srv, v2, v1);
        write(&mut srv, v3, v2);
        for (seq, acked) in [(2, a1), (3, 0)] {
            let before = srv.state().version();
            srv.handle(r0, &runs(seq, acked));
            assert!(!registered(srv.state(), v2, reader), "acked {acked}: nothing caught up");
            assert!(registered(srv.state(), v3, reader), "acked {acked}: latest");
            assert!(registered(srv.state(), TaggedValue::initial(), reader));
            let expected = u64::from(seq == 2);
            assert_eq!(srv.state().version() - before, expected, "acked {acked}: registrations");
        }
    }

    #[test]
    fn concurrent_tags_from_two_writers_order_by_writer_id() {
        let mut s = ServerState::new();
        s.update(tv(1, 1, 200), ClientId::writer(1));
        s.update(tv(1, 0, 100), ClientId::writer(0));
        // (1, w2) > (1, w1): latest stays with the higher writer id.
        assert_eq!(s.latest(), tv(1, 1, 200));
    }
}
