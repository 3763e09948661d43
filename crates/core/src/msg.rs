//! Protocol messages exchanged between clients and servers.
//!
//! Every protocol in the design space is built from the two round-trip
//! primitives of the paper's algorithm schema (§2.2): *query* (collect
//! information from all servers) and *update* (send information to all
//! servers). The fast read of Algorithm 1 uses a combined round-trip that
//! both updates (the reader's `valQueue`, plus registering the reader in the
//! `updated` bookkeeping) and queries (the server's value store).
//!
//! Each wire type's byte layout is stated once, by a
//! [`wire_layout!`](mwr_types::codec::wire_layout) row next to its
//! declaration — [`Msg`]'s table, one row per variant with its
//! discriminant, follows the enum — and the macro writes both `encode` and
//! `decode`. Three fields travel in a form of their own, each through a
//! field codec module below: [`DeltaSnapshot`]'s `entries`, laid out as a
//! `Vec<ValueRecord>`; [`Msg::ReadFastRunsAck`]'s `delta`, whose `updated`
//! lists are run-length encoded; and a frame header's `inner`.
//! A frame carries at most two headers ([`Msg::InEpoch`] and
//! [`Msg::ForRegister`], in either order); a third is refused
//! ([`DecodeError::TooDeep`](mwr_types::codec::DecodeError::TooDeep))
//! before its payload is decoded, so no frame recurses the decoder deeper
//! than that.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use mwr_types::codec::{reservation, wire_layout, Buf, DecodeError, Wire, MAX_COLLECTION_LEN};
use mwr_types::{ClientId, ConfigEpoch, InlineList, RegisterId, ServerId, TaggedValue, Value};

use crate::admissible::{WitnessIndex, WitnessSelector};

/// Identifier of one operation instance: the invoking client plus a
/// per-client sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId {
    /// The invoking client.
    pub client: ClientId,
    /// The client-local sequence number (0, 1, 2, …).
    pub seq: u64,
}

wire_layout! { struct OpId { client, seq } }

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.client, self.seq)
    }
}

/// Identifies one *phase* (round-trip) of one operation, so that late
/// replies from an earlier phase or operation are discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpHandle {
    /// The operation.
    pub op: OpId,
    /// The round-trip number within the operation (1 or 2).
    pub phase: u8,
}

wire_layout! { struct OpHandle { op, phase } }

impl std::fmt::Display for OpHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.op, self.phase)
    }
}

/// One entry of a server's value store as reported to a fast read: a tagged
/// value plus the set of clients recorded in its `updated` set
/// (Algorithm 2's `valuevector`). Up to two clients travel inside the
/// record, so a record of a one-writer, one-reader value allocates nothing
/// of its own; on the wire the list is a `Vec`'s layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValueRecord {
    /// The stored tagged value.
    pub value: TaggedValue,
    /// Clients that have been registered on this value, in sorted order.
    pub updated: InlineList<ClientId>,
}

wire_layout! { struct ValueRecord { value, updated } }

/// A server's reply to the fast-read round-trip: its full value store.
///
/// This follows the paper's *full-info* inclination (§4.1): servers report
/// everything they hold; practical deployments would prune, which is an
/// optimization the analysis deliberately ignores. The delta protocol
/// ([`Msg::ReadFastRuns`]/[`DeltaSnapshot`]) is that optimization: clients
/// reconstruct this exact snapshot from cached per-server state instead of
/// receiving it whole on every read.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// All stored values with their `updated` sets, sorted by tag.
    pub entries: Vec<ValueRecord>,
}

wire_layout! { struct Snapshot { entries } }

impl Snapshot {
    /// The largest tagged value in the snapshot, if any.
    pub fn max_value(&self) -> Option<TaggedValue> {
        self.entries.iter().map(|e| e.value).max()
    }

    /// The `updated` set recorded for `value`, if present.
    pub fn updated_for(&self, value: TaggedValue) -> Option<&[ClientId]> {
        self.entries
            .iter()
            .find(|e| e.value == value)
            .map(|e| e.updated.as_slice())
    }

    /// Whether the snapshot contains `value`.
    pub fn contains(&self, value: TaggedValue) -> bool {
        self.entries.iter().any(|e| e.value == value)
    }
}

/// The incremental form of a [`Snapshot`]: everything the server learned
/// since the reader's acknowledged version, plus enough header state for the
/// reader to keep its cached copy of the server's store exact.
///
/// Versions count *registrations* — every `(value, client)` pair the server
/// records bumps a per-server monotone counter — so the half-open window
/// `(from, version]` identifies precisely the store mutations this delta
/// carries. A reader that merges deltas contiguously (its acknowledged
/// version always equals the previous delta's `version`; per-link FIFO and
/// one-operation-at-a-time clients guarantee this) reconstructs the part of
/// the server's store that GC has not condemned:
/// `store ∩ ({v ≥ pruned} ∪ {latest})`, every value with its full
/// registration set. That is the whole store except in one corner: the
/// server prunes only when its floor moves and keeps its `latest` through
/// the prune even below the floor, while the reader drops everything below
/// `pruned` but the *current* `latest` — so once a newer value arrives, the
/// server still stores the former maximum and the mirror no longer does.
/// Nothing can return such a value (it is below every client's completed
/// floor; see the server module's GC argument).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaSnapshot {
    /// The reader-acknowledged version this delta starts from (exclusive).
    pub from: u64,
    /// The server's registration version after handling the request; the
    /// reader's next acknowledged floor.
    pub version: u64,
    /// The server's current maximum value `vali`.
    pub latest: TaggedValue,
    /// The server's garbage-collection floor: every value strictly below it
    /// has been pruned server-side and may be pruned from reader state too
    /// (it is below every client's completed-operation floor).
    pub pruned: TaggedValue,
    /// Values with registrations in `(from, version]`, sorted by tag; each
    /// record lists only the *newly registered* clients.
    pub entries: DeltaRecords,
}

wire_layout! { struct DeltaSnapshot { from, version, latest, pruned, entries via records_list } }

/// The records of a [`DeltaSnapshot`]: each value with the clients newly
/// registered on it, sorted by value.
///
/// A record keeps up to two clients in place, so a reply about
/// one-writer, one-reader values allocates nothing but its record list. A
/// longer list goes into the delta's one overflow buffer, and the record
/// keeps its span there. The buffer is shared by every record of the reply,
/// and it hangs off the first record, for two reasons:
///
/// - *Allocations.* A wide reply (`sim-wide`'s carries ≈ 49 registrations
///   over ≈ 15 records, most longer than two) costs one overflow buffer
///   however many of its records are long. A `Vec` of each record's own
///   cost one allocation per record.
/// - *Size.* `DeltaRecords` is one `Vec`, the size of the
///   `Vec<ValueRecord>` it replaced, so a [`Msg`] stays within 120 bytes.
///   Every move of a `Msg` pays for its size: at 128 bytes (an 8-byte
///   field more in a delta) `mem-narrow` lost 10 % of its operations per
///   second, and records as two plain `Vec`s (a 168-byte `Msg`) lost 27 %.
///   What the buffer costs instead is one boxed pointer in every record,
///   set in the first only.
///
/// It reads as a sequence of [`Record`]s. Equality is by content, and
/// `Debug` prints the list of [`ValueRecord`]s it replaced, so digests of
/// `Debug` output do not move. On the wire it is a `Vec<ValueRecord>`'s
/// layout (the run-length ack writes each list as runs). Decoding fills it
/// straight from the wire, and [`MAX_COLLECTION_LEN`] bounds the clients
/// of all its records together.
///
/// [`MAX_COLLECTION_LEN`]: mwr_types::codec::MAX_COLLECTION_LEN
#[derive(Clone, Default)]
pub struct DeltaRecords(Vec<DeltaRecord>);

/// One record of [`DeltaRecords`].
#[derive(Debug, Clone)]
struct DeltaRecord {
    value: TaggedValue,
    clients: Clients,
    /// The first record's: the delta's overflow buffer, every client list
    /// longer than two back to back in record order. The other records'
    /// stay `None`; boxed, it costs them one pointer each.
    #[allow(clippy::box_collection, reason = "a thin pointer keeps every record small")]
    overflow: Option<Box<Vec<ClientId>>>,
}

/// Where a record's clients are.
#[derive(Debug, Clone, Copy)]
enum Clients {
    /// The first `len` of `slots`.
    Inline { len: u8, slots: [ClientId; 2] },
    /// `overflow[start .. start + len]`.
    Spilled { start: u32, len: u32 },
}

/// A record of [`DeltaRecords`], borrowed: a value and the clients newly
/// registered on it, in sorted order.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// The stored tagged value.
    pub value: TaggedValue,
    /// The clients newly registered on it.
    pub updated: &'a [ClientId],
}

impl std::fmt::Debug for Record<'_> {
    /// The form of the [`ValueRecord`] it stands for.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut record = f.debug_struct("ValueRecord");
        record.field("value", &self.value).field("updated", &self.updated).finish()
    }
}

impl DeltaRecords {
    /// No records; it allocates nothing.
    pub const fn new() -> Self {
        DeltaRecords(Vec::new())
    }

    /// Makes room for `records` more records and `overflow` more clients of
    /// lists longer than two, each in one allocation of exactly that size if
    /// it has to grow; no overflow buffer is made for an `overflow` of 0.
    ///
    /// # Panics
    ///
    /// If `overflow > 0` and there is no record yet to hold the buffer.
    pub(crate) fn reserve(&mut self, records: usize, overflow: usize) {
        self.0.reserve_exact(records);
        if overflow > 0 {
            let first = self.0.first_mut().expect("the overflow buffer hangs off the first record");
            first.overflow.get_or_insert_with(Box::default).reserve_exact(overflow);
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no records.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The records, in order.
    pub fn iter(&self) -> Records<'_> {
        let overflow = self.0.first().and_then(|first| first.overflow.as_deref());
        Records { records: self.0.iter(), overflow: overflow.map_or(&[], Vec::as_slice) }
    }

    /// Appends a record of `value` with the clients `clients` yields, which
    /// are two at most (any more are not taken): in place, with no
    /// allocation but the record list's.
    pub(crate) fn push_inline(
        &mut self,
        value: TaggedValue,
        clients: impl IntoIterator<Item = ClientId>,
    ) {
        let mut slots = [ClientId::reader(0); 2];
        let mut len = 0;
        for (slot, client) in slots.iter_mut().zip(clients) {
            *slot = client;
            len += 1;
        }
        let clients = Clients::Inline { len, slots };
        self.0.push(DeltaRecord { value, clients, overflow: None });
    }

    /// Appends a record of `value` with no clients yet.
    pub(crate) fn open(&mut self, value: TaggedValue) {
        let clients = Clients::Inline { len: 0, slots: [ClientId::reader(0); 2] };
        self.0.push(DeltaRecord { value, clients, overflow: None });
    }

    /// Appends up to `len` clients, what `clients` yields, to the last
    /// record's list: in place while the list fits two, else at the end of
    /// the overflow buffer, where that list is the last one.
    ///
    /// # Panics
    ///
    /// If there is no record.
    pub(crate) fn extend_last(&mut self, len: usize, clients: impl IntoIterator<Item = ClientId>) {
        let (first, rest) = self.0.split_first_mut().expect("clients are added to an open record");
        let DeltaRecord { clients: first_clients, overflow, .. } = first;
        let list = rest.last_mut().map_or(first_clients, |last| &mut last.clients);
        let clients = clients.into_iter().take(len);
        let span = |overflow: &Vec<ClientId>, start: u32| {
            u32::try_from(overflow.len()).expect("a delta's lists fit u32 indices") - start
        };
        match list {
            Clients::Inline { len: had, slots } if usize::from(*had) + len <= slots.len() => {
                for client in clients {
                    slots[usize::from(*had)] = client;
                    *had += 1;
                }
            }
            Clients::Inline { len: had, slots } => {
                let overflow = overflow.get_or_insert_with(Box::default);
                let start = span(overflow, 0);
                overflow.extend_from_slice(&slots[..usize::from(*had)]);
                overflow.extend(clients);
                *list = Clients::Spilled { start, len: span(overflow, start) };
            }
            Clients::Spilled { start, len: had } => {
                let overflow = overflow.as_mut().expect("a spilled list's buffer");
                overflow.extend(clients);
                *had = span(overflow, *start);
            }
        }
    }

    /// Decodes the record count and each record's value, and has `list`
    /// decode each record's client list onto it, counting the clients of
    /// every list so far in `total` (which [`MAX_COLLECTION_LEN`] bounds).
    fn decode_each<B: Buf>(
        buf: &mut B,
        mut list: impl FnMut(&mut B, &mut u64, &mut DeltaRecords) -> Result<(), DecodeError>,
    ) -> Result<Self, DecodeError> {
        let declared = u64::decode(buf)?;
        if declared > MAX_COLLECTION_LEN {
            return Err(DecodeError::LengthOverflow { declared });
        }
        let mut records = DeltaRecords::new();
        records.reserve(reservation::<DeltaRecord, B>(declared, buf), 0);
        let mut total = 0;
        for _ in 0..declared {
            records.open(TaggedValue::decode(buf)?);
            list(buf, &mut total, &mut records)?;
        }
        Ok(records)
    }
}

/// The iterator over [`DeltaRecords`].
#[derive(Debug, Clone)]
pub struct Records<'a> {
    records: std::slice::Iter<'a, DeltaRecord>,
    overflow: &'a [ClientId],
}

impl<'a> Iterator for Records<'a> {
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Record<'a>> {
        let record = self.records.next()?;
        let updated = match &record.clients {
            Clients::Inline { len, slots } => &slots[..usize::from(*len)],
            &Clients::Spilled { start, len } => {
                &self.overflow[start as usize..start as usize + len as usize]
            }
        };
        Some(Record { value: record.value, updated })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for Records<'_> {}

impl<'a> IntoIterator for &'a DeltaRecords {
    type Item = Record<'a>;
    type IntoIter = Records<'a>;

    fn into_iter(self) -> Records<'a> {
        self.iter()
    }
}

impl FromIterator<ValueRecord> for DeltaRecords {
    fn from_iter<I: IntoIterator<Item = ValueRecord>>(iter: I) -> Self {
        let mut records = DeltaRecords::new();
        for record in iter {
            records.open(record.value);
            records.extend_last(record.updated.len(), record.updated.iter().copied());
        }
        records
    }
}

impl From<Vec<ValueRecord>> for DeltaRecords {
    fn from(records: Vec<ValueRecord>) -> Self {
        records.into_iter().collect()
    }
}

impl PartialEq for DeltaRecords {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for DeltaRecords {}

impl std::fmt::Debug for DeltaRecords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}


/// One client's reported completed-operation floor, as carried inside a
/// [`StateTransfer`] so a recovering server inherits its peers' GC progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FloorReport {
    /// The reporting client.
    pub client: ClientId,
    /// The largest tag the client has returned or written, as known to the
    /// transferring server.
    pub floor: TaggedValue,
}

wire_layout! { struct FloorReport { client, floor } }

/// A catch-up snapshot of one server's full state, shipped to a recovering
/// peer during rejoin ([`Msg::StateFetch`] / [`Msg::StateSnapshot`]).
///
/// Carries everything a rejoined server needs to serve quorums again
/// without corrupting anyone: the full store with its registration sets,
/// the sender's registration-version high-water mark (so the recovering
/// server can resume *above* every version stamp a reader might hold), the
/// GC floor (so pruned tags are never resurrected), and the sender's GC
/// membership and floor reports (so pruning re-engages without waiting for
/// every client to speak again). See `ServerState::install` for the merge
/// rules and the soundness argument.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateTransfer {
    /// The sender's registration-version high-water mark.
    pub version: u64,
    /// The sender's current maximum value `vali`.
    pub latest: TaggedValue,
    /// The sender's GC floor: everything strictly below it is dead.
    pub pruned: TaggedValue,
    /// The sender's full store: every value with its registered clients.
    pub entries: Vec<ValueRecord>,
    /// GC membership: every client the sender has heard from.
    pub seen: Vec<ClientId>,
    /// The completed-operation floors reported to the sender.
    pub floors: Vec<FloorReport>,
}

wire_layout! { struct StateTransfer { version, latest, pruned, entries, seen, floors } }

/// One register's catch-up snapshot inside a shard-wide transfer
/// ([`Msg::ShardSnapshot`]).
///
/// A rejoining keyspace server fetches per *shard*, but state transfer stays
/// per *register*: each register's store, floors and version stamps are
/// installed into that register's own `ServerState`, so recovery can never
/// bleed one key's GC floor into another or resurrect a value under the
/// wrong key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterTransfer {
    /// The register this state belongs to.
    pub register: RegisterId,
    /// The register's full per-server state, exactly as in the
    /// single-register rejoin path.
    pub state: StateTransfer,
}

wire_layout! { struct RegisterTransfer { register, state } }

/// The entries of `val_queue` not present in the sorted `known` sequence —
/// the `new_values` of the next delta request, shared by both cache kinds.
/// A single merge-join over the two sorted sequences
/// (`O(|queue| + |known|)`), instead of a tree probe per queue entry per
/// server.
fn unacknowledged_from<'q>(
    known: impl Iterator<Item = TaggedValue>,
    val_queue: impl IntoIterator<Item = &'q TaggedValue>,
) -> Vec<TaggedValue> {
    let mut out = Vec::new();
    let mut known = known.peekable();
    for &v in val_queue {
        while known.next_if(|k| *k < v).is_some() {}
        if known.peek() != Some(&v) {
            out.push(v);
        }
    }
    out
}

/// A sorted, deduplicated set of client identifiers, Vec-backed: at
/// protocol populations (tens of clients) a binary search plus memmove
/// beats a tree's node allocations on the delta-merge flood path, and the
/// admissibility evaluators read it as a plain slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientSet(Vec<ClientId>);

impl ClientSet {
    /// An empty set.
    pub fn new() -> Self {
        ClientSet::default()
    }

    /// Inserts `client`, returning whether it was new.
    pub fn insert(&mut self, client: ClientId) -> bool {
        match self.0.binary_search(&client) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, client);
                true
            }
        }
    }

    /// Removes `client`, returning whether it was present.
    pub fn remove(&mut self, client: ClientId) -> bool {
        match self.0.binary_search(&client) {
            Ok(i) => {
                self.0.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether `client` is in the set.
    pub fn contains(&self, client: ClientId) -> bool {
        self.0.binary_search(&client).is_ok()
    }

    /// The clients in ascending order.
    pub fn as_slice(&self) -> &[ClientId] {
        &self.0
    }

    /// Number of clients in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl FromIterator<ClientId> for ClientSet {
    fn from_iter<I: IntoIterator<Item = ClientId>>(iter: I) -> Self {
        let mut v: Vec<ClientId> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        ClientSet(v)
    }
}

/// A reader's cached copy of one server's store, maintained by merging
/// [`DeltaSnapshot`]s — the client-side dual of the delta wire.
///
/// Contiguous versioned deltas over FIFO links keep the cache equal to
/// `store ∩ ({v ≥ pruned} ∪ {latest})` with full registration sets, so
/// [`reconstruct`](Self::reconstruct) equals the full-info [`Snapshot`]
/// minus the one corner [`DeltaSnapshot`] describes: a former `latest`
/// below the GC floor, which the server keeps and the cache drops once
/// `latest` moves on.
#[derive(Debug, Clone)]
pub struct SnapshotCache {
    /// The last merged [`DeltaSnapshot::version`]; sent back as `acked`.
    version: u64,
    /// value → registered clients, as far as this reader knows; sorted by
    /// value (small post-GC, so a flat Vec beats a tree on the merge path).
    entries: Vec<(TaggedValue, ClientSet)>,
}

impl SnapshotCache {
    /// Seeded like a fresh server's store: the initial value with an empty
    /// `updated` set, version 0.
    pub fn new() -> Self {
        SnapshotCache { version: 0, entries: vec![(TaggedValue::initial(), ClientSet::new())] }
    }

    /// The acknowledged version a reader sends with its next
    /// [`Msg::ReadFastRuns`].
    pub fn acked_version(&self) -> u64 {
        self.version
    }

    /// Whether the server is known to hold `value` (such entries are
    /// omitted from the request's `new_values`).
    pub fn knows(&self, value: TaggedValue) -> bool {
        self.entries.binary_search_by_key(&value, |e| e.0).is_ok()
    }

    /// The entries of `val_queue` (ascending, without repeats: a set or a
    /// sorted slice) this server is *not* known to hold — the `new_values`
    /// of the next delta request.
    pub fn unacknowledged<'q>(
        &self,
        val_queue: impl IntoIterator<Item = &'q TaggedValue>,
    ) -> Vec<TaggedValue> {
        unacknowledged_from(self.entries.iter().map(|e| e.0), val_queue)
    }

    /// The registered clients cached for `value`, if the server is known to
    /// hold it.
    pub fn updated_for(&self, value: TaggedValue) -> Option<&ClientSet> {
        self.entries
            .binary_search_by_key(&value, |e| e.0)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Iterates the cached `(value, registered clients)` entries in
    /// ascending tag order — the borrowed form of [`reconstruct`]
    /// (`SnapshotView::Cached` reads through this).
    ///
    /// [`reconstruct`]: Self::reconstruct
    pub fn iter(&self) -> std::slice::Iter<'_, (TaggedValue, ClientSet)> {
        self.entries.iter()
    }

    /// The mutable client set for `value`, created empty if absent.
    fn set_mut(&mut self, value: TaggedValue) -> &mut ClientSet {
        match self.entries.binary_search_by_key(&value, |e| e.0) {
            Ok(i) => &mut self.entries[i].1,
            Err(i) => {
                self.entries.insert(i, (value, ClientSet::new()));
                &mut self.entries[i].1
            }
        }
    }

    /// Merges one delta; idempotent (set unions), monotone in version.
    ///
    /// [`FastReadState::merge`] is the indexed twin of this method: the two
    /// must apply identical store semantics, which
    /// `tests/witness_equivalence.rs` pins by rebuilding the index from
    /// caches merged through this method.
    pub fn merge(&mut self, delta: &DeltaSnapshot) {
        for rec in &delta.entries {
            let clients = self.set_mut(rec.value);
            for &c in rec.updated {
                clients.insert(c);
            }
        }
        self.version = self.version.max(delta.version);
        // Mirror the server's GC: drop everything below its floor but its
        // `latest` (see the type docs for the one value this drops early).
        let (pruned, latest) = (delta.pruned, delta.latest);
        self.entries.retain(|(v, _)| *v >= pruned || *v == latest);
    }

    /// The server's logical full-info snapshot, reconstructed.
    pub fn reconstruct(&self) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .map(|(value, updated)| ValueRecord {
                    value: *value,
                    updated: updated.as_slice().into(),
                })
                .collect(),
        }
    }
}

impl Default for SnapshotCache {
    fn default() -> Self {
        SnapshotCache::new()
    }
}

/// What a [`FastReadState`] knows about one server, borrowed: the
/// acknowledged version, and which values the server is known to hold —
/// read straight off the server's slot in the shared [`WitnessIndex`],
/// whose `containing` bits are the reader's only mirror of each store.
#[derive(Debug, Clone, Copy)]
pub struct ReaderCache<'a> {
    /// The last merged [`DeltaSnapshot::version`]; sent back as `acked`.
    version: u64,
    /// The server's slot bit in `index`.
    bit: u128,
    index: &'a WitnessIndex,
}

impl ReaderCache<'_> {
    /// The acknowledged version to send with the next
    /// [`Msg::ReadFastRuns`].
    pub fn acked_version(&self) -> u64 {
        self.version
    }

    /// Whether the server is known to hold `value` (such entries are
    /// omitted from the request's `new_values`).
    pub fn knows(&self, value: TaggedValue) -> bool {
        self.index.holds(self.bit, value)
    }

    /// The entries of `val_queue` (ascending, without repeats: a set or a
    /// sorted slice) this server is *not* known to hold — the `new_values`
    /// of the next delta request.
    pub fn unacknowledged<'q>(
        &self,
        val_queue: impl IntoIterator<Item = &'q TaggedValue>,
    ) -> Vec<TaggedValue> {
        unacknowledged_from(self.index.values_in(self.bit), val_queue)
    }
}

/// A reader's complete fast-read state for the delta wire: each server's
/// acknowledged version plus one [`WitnessIndex`] over every server's
/// store, maintained *incrementally* as deltas merge.
///
/// Index slot `s` is server `s` (at most 128 servers), and the index is the
/// only mirror kept: which values a server holds is its slot's
/// `containing` bit, which clients it registered on them its witness bits.
/// A merge is one forward pass of the delta's sorted records over the
/// sorted index plus, for the server's GC, one sweep over the index prefix
/// below its floor; a read's return-value selection needs no per-read
/// reconstruction or indexing at all: it masks the standing index down to
/// the servers that replied ([`selector`](Self::selector)) and walks it
/// once. Owned by the client's [`RoundMachine`](crate::RoundMachine), which
/// both drivers share.
///
/// What a read allocates is sized once: a value's witness list, at its
/// first witness, for every client of the register; the selection's degree
/// buffer, kept from read to read.
#[derive(Debug, Clone)]
pub struct FastReadState {
    /// Acknowledged version per server contacted so far.
    versions: BTreeMap<ServerId, u64>,
    index: WitnessIndex,
    /// The register's client population (`R + W`): the most witnesses a
    /// value can have.
    clients: usize,
    /// The degree buffer of every selection over `index`.
    scratch: Vec<u128>,
}

impl FastReadState {
    /// Empty state for a register of `clients` clients (`R + W`): no
    /// server contacted yet.
    pub fn new(clients: usize) -> Self {
        let (versions, index, scratch) = (BTreeMap::new(), WitnessIndex::new(), Vec::new());
        FastReadState { versions, index, clients, scratch }
    }

    /// The index slot backing `server`.
    ///
    /// # Panics
    ///
    /// Panics if `server.index() ≥ 128` (bitmask width).
    pub fn slot(server: ServerId) -> usize {
        let slot = server.as_usize();
        assert!(slot < crate::admissible::MAX_SLOTS, "server {server} beyond bitmask width");
        slot
    }

    /// The reply-mask bit for `server`.
    pub fn mask_bit(server: ServerId) -> u128 {
        1u128 << Self::slot(server)
    }

    /// What the reader knows about `server`'s store, created on first use
    /// (a fresh mirror mirrors a fresh store: the initial value, no
    /// registrations, version 0).
    pub fn cache(&mut self, server: ServerId) -> ReaderCache<'_> {
        let version = *self.version_mut(server);
        ReaderCache { version, bit: Self::mask_bit(server), index: &self.index }
    }

    /// `server`'s acknowledged version; on first contact the index learns
    /// the fresh store's one entry in the same call.
    fn version_mut(&mut self, server: ServerId) -> &mut u64 {
        let slot = Self::slot(server);
        let index = &mut self.index;
        self.versions.entry(server).or_insert_with(|| {
            index.record_value(slot, TaggedValue::initial());
            0
        })
    }

    /// Merges one delta from `server` into the index: one forward pass
    /// records the delta's values and registrations, one sweep mirrors the
    /// server's GC.
    ///
    /// Applies exactly [`SnapshotCache::merge`]'s store semantics (pinned
    /// by `tests/witness_equivalence.rs` against a from-scratch rebuild
    /// over `SnapshotCache` mirrors).
    pub fn merge(&mut self, server: ServerId, delta: &DeltaSnapshot) {
        let version = self.version_mut(server);
        *version = (*version).max(delta.version);
        let slot = Self::slot(server);
        self.index
            .record_entries(slot, delta.entries.iter().map(|r| (r.value, r.updated)), self.clients);
        // Drop what the server dropped; it keeps `latest` unconditionally.
        self.index.evict_below(slot, delta.pruned, delta.latest);
    }

    /// The standing witness index over every cached server store.
    pub fn index(&self) -> &WitnessIndex {
        &self.index
    }

    /// A selection over the standing index, restricted to the servers in
    /// `mask` (see [`WitnessIndex::selector`]); its degree buffer is this
    /// state's, so a read allocates none.
    pub fn selector(
        &mut self,
        mask: u128,
        servers: usize,
        max_faults: usize,
        max_degree: usize,
    ) -> WitnessSelector<'_> {
        self.index.selector(&mut self.scratch, mask, servers, max_faults, max_degree)
    }

    /// Forgets everything cached about `server`, returning its slot to the
    /// fresh-store state (the initial value, version 0) and evicting every
    /// stale witness bit from the index.
    ///
    /// Called when a delta reply's `from` falls *below* the acknowledged
    /// version the reader sent: the server has crashed and been reinstalled
    /// from its peers, so the cached mirror of its store no longer
    /// corresponds to anything the server holds. The reply that signalled
    /// the reset covers the server's entire rebuilt store from version 0,
    /// so merging it right after this call makes the mirror exact again.
    pub fn reset(&mut self, server: ServerId) {
        let slot = Self::slot(server);
        let Some(version) = self.versions.get_mut(&server) else { return };
        *version = 0;
        self.index.evict_slot(slot);
        self.index.record_value(slot, TaggedValue::initial());
    }
}

/// Protocol messages. One enum serves every protocol variant; which subset
/// is exercised depends on the chosen write/read modes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Msg {
    // -- external inputs (harness → client) --------------------------------
    /// Invoke a read operation on a reader client.
    InvokeRead,
    /// Invoke a write of `Value` on a writer client.
    InvokeWrite(Value),

    // -- client → server ----------------------------------------------------
    /// Query the server's state (first round of slow writes / slow reads).
    Query {
        /// Operation phase this query belongs to.
        handle: OpHandle,
    },
    /// Store `value` on the server (second round of writes, and the
    /// write-back round of slow reads).
    Update {
        /// Operation phase this update belongs to.
        handle: OpHandle,
        /// The tagged value to store.
        value: TaggedValue,
        /// The sender's completed-operation floor — the largest tag it has
        /// returned or written — piggybacked for acknowledged-floor GC.
        floor: TaggedValue,
    },
    /// The combined fast-read round-trip (Algorithm 1, line 19): carries the
    /// reader's accumulated `valQueue`; the server registers the reader and
    /// replies with its store.
    ReadFast {
        /// Operation phase this round belongs to.
        handle: OpHandle,
        /// Every tagged value the reader has ever observed.
        val_queue: Vec<TaggedValue>,
    },
    /// The bounded-state fast read (wire version 3): only `valQueue`
    /// entries the reader does not already know this server holds, plus the
    /// reader's acknowledged snapshot version and completed-operation floor.
    /// The server replies with a [`DeltaSnapshot`] instead of its full
    /// store. Servers still answer it; readers send [`Msg::ReadFastRuns`].
    ReadFastDelta {
        /// Operation phase this round belongs to.
        handle: OpHandle,
        /// The last [`DeltaSnapshot::version`] the reader merged from this
        /// server; the reply covers `(acked, now]`.
        acked: u64,
        /// The reader's completed-operation floor (GC piggyback).
        floor: TaggedValue,
        /// `valQueue` entries not yet acknowledged by this server.
        new_values: Vec<TaggedValue>,
    },

    // -- server → client ----------------------------------------------------
    /// Reply to [`Msg::Query`] with the server's current maximum value.
    QueryAck {
        /// Echo of the query's handle.
        handle: OpHandle,
        /// The server's current maximum tagged value (`vali`).
        latest: TaggedValue,
    },
    /// Acknowledgement of an [`Msg::Update`].
    UpdateAck {
        /// Echo of the update's handle.
        handle: OpHandle,
    },
    /// Reply to [`Msg::ReadFast`] with the server's full store.
    ReadFastAck {
        /// Echo of the round's handle.
        handle: OpHandle,
        /// The server's store at reply time.
        snapshot: Snapshot,
    },
    /// Reply to [`Msg::ReadFastDelta`] with the store changes above the
    /// reader's acknowledged version.
    ReadFastDeltaAck {
        /// Echo of the round's handle.
        handle: OpHandle,
        /// The incremental snapshot.
        delta: DeltaSnapshot,
    },

    // -- recovery and churn -------------------------------------------------
    /// A recovering server's request for a catch-up snapshot (server →
    /// server — the one message exchanged between replicas). Peers reply
    /// with [`Msg::StateSnapshot`]; the recovering server installs a quorum
    /// of them before it resumes answering clients.
    StateFetch {
        /// Correlates replies with this fetch round (servers have no
        /// [`OpHandle`]s).
        nonce: u64,
    },
    /// A live server's reply to [`Msg::StateFetch`]: its full state.
    StateSnapshot {
        /// Echo of the fetch nonce.
        nonce: u64,
        /// The catch-up payload, boxed so the rare recovery message does
        /// not fatten every [`Msg`] moved through a channel.
        state: Box<StateTransfer>,
    },
    /// A client's announcement that it is leaving for good: the server
    /// removes it from GC membership (so its silence can never wedge the
    /// floor again) and drops its registrations and catch-up bookkeeping.
    Depart {
        /// Operation phase this departure belongs to.
        handle: OpHandle,
    },
    /// Acknowledgement of a [`Msg::Depart`].
    DepartAck {
        /// Echo of the departure's handle.
        handle: OpHandle,
    },

    // -- keyspace multiplexing (wire version 2) -----------------------------
    /// A protocol message addressed to one named register of a keyspace.
    ///
    /// This is the wire-version-2 frame header: a compact register id
    /// prefixed to any inner message, letting one connection (and one
    /// per-peer writer pipeline) multiplex every register a client touches.
    /// Discriminants 0–13 are the legacy single-register frames and still
    /// decode unchanged; a bank routes them to [`RegisterId::DEFAULT`], so a
    /// v1 peer talking to a keyspace server lands on register `k1`.
    ForRegister {
        /// The addressed register.
        register: RegisterId,
        /// The wrapped protocol message, boxed to keep [`Msg`]'s move size
        /// at the legacy frame size.
        inner: Box<Msg>,
    },
    /// A rejoining keyspace server's request for one shard's catch-up state
    /// (server → server). Peers in the shard's group reply with
    /// [`Msg::ShardSnapshot`]; the recovering server installs a quorum of
    /// them *per shard* before serving that shard again.
    ShardFetch {
        /// The shard whose registers are requested.
        shard: u32,
        /// Correlates replies with this fetch round.
        nonce: u64,
    },
    /// A live server's reply to [`Msg::ShardFetch`]: the full state of every
    /// register of that shard it has instantiated. Registers the peer never
    /// touched are omitted — lazy instantiation makes absence an empty
    /// (vacuously correct) transfer.
    ShardSnapshot {
        /// Echo of the fetch nonce.
        nonce: u64,
        /// Echo of the requested shard.
        shard: u32,
        /// Per-register catch-up payloads.
        registers: Vec<RegisterTransfer>,
    },

    // -- reconfiguration (wire version 3) -----------------------------------
    /// The configuration-epoch frame header: every message sent while the
    /// cluster is past epoch 0 travels wrapped in the sender's current
    /// epoch. Receivers adopt `max(own, frame)` and tag their replies, so a
    /// client whose view is stale learns of a reconfiguration from *any*
    /// reply and refreshes its endpoint set mid-round. Legacy v1/v2 frames
    /// (discriminants 0–16) decode unchanged as epoch 0, and an epoch-0
    /// process emits no wrapper — a cluster that never reconfigures stays
    /// byte-identical on the wire.
    InEpoch {
        /// The sender's configuration epoch.
        epoch: ConfigEpoch,
        /// The wrapped protocol message, boxed to keep [`Msg`]'s move size
        /// at the legacy frame size.
        inner: Box<Msg>,
    },
    /// The reconfiguration coordinator's push of a merged old-quorum state
    /// into a *joining* server (server-side counterpart of the rejoin path's
    /// pull). The target installs the transfers exactly as a recovering
    /// server would — version resumes above every high-water mark, nothing
    /// below the transferred floor is resurrected — and acknowledges.
    StateInstall {
        /// Correlates the acknowledgement with this install.
        nonce: u64,
        /// One transfer per old-configuration quorum member.
        transfers: Vec<StateTransfer>,
    },
    /// A joining server's acknowledgement of a [`Msg::StateInstall`]: its
    /// state now dominates an old-configuration quorum.
    StateInstallAck {
        /// Echo of the install nonce.
        nonce: u64,
    },
    /// The coordinator's push of one shard's merged state into a server
    /// *gaining* that shard under the new configuration (a joining server,
    /// or a survivor the rendezvous reshuffle assigns new shards).
    ShardInstall {
        /// Correlates the acknowledgement with this install.
        nonce: u64,
        /// The shard whose registers are pushed.
        shard: u32,
        /// Per-register payloads, each merged from a group quorum.
        registers: Vec<RegisterTransfer>,
    },
    /// Acknowledgement of a [`Msg::ShardInstall`].
    ShardInstallAck {
        /// Echo of the install nonce.
        nonce: u64,
        /// Echo of the installed shard.
        shard: u32,
    },

    // -- batched registration gossip (wire version 4) ------------------------
    /// The run-length fast read: field-for-field identical to
    /// [`Msg::ReadFastDelta`], but its discriminant announces that the
    /// sender decodes run-length acknowledgements, so the server replies
    /// with [`Msg::ReadFastRunsAck`] instead of [`Msg::ReadFastDeltaAck`].
    /// A v3 peer keeps sending discriminant 8 and keeps receiving
    /// discriminant 9, byte for byte — version negotiation is carried by
    /// the request discriminant alone. Servers still answer v3 for that
    /// decode compatibility, but no reader in this workspace sends it:
    /// every delta fast read is this message.
    ReadFastRuns {
        /// Operation phase this round belongs to.
        handle: OpHandle,
        /// The last [`DeltaSnapshot::version`] the reader merged from this
        /// server; the reply covers `(acked, now]`.
        acked: u64,
        /// The reader's completed-operation floor (GC piggyback).
        floor: TaggedValue,
        /// `valQueue` entries not yet acknowledged by this server.
        new_values: Vec<TaggedValue>,
    },
    /// Reply to [`Msg::ReadFastRuns`]: the *same* [`DeltaSnapshot`] a
    /// [`Msg::ReadFastDeltaAck`] would carry, but each record's sorted
    /// `updated` list travels run-length encoded
    /// ([`mwr_types::codec::client_runs`]). Decoding expands the runs back
    /// into the identical flat list, so everything past the codec — cache
    /// merges, the witness index, `admissible(·)` selection — is
    /// byte-for-byte the full-information protocol. The compression
    /// collapses the O(W×R) catch-up re-registration stream (every write
    /// re-registers every reader, which every other reader then receives)
    /// into one run per value.
    ReadFastRunsAck {
        /// Echo of the round's handle.
        handle: OpHandle,
        /// The incremental snapshot (runs are a wire artifact only).
        delta: DeltaSnapshot,
    },
}

// `Msg`'s wire layout, its one statement: each variant's discriminant, then
// its fields in wire order.
wire_layout! {
    enum Msg {
        0 => InvokeRead,
        1 => InvokeWrite(value),
        2 => Query { handle },
        3 => Update { handle, value, floor },
        4 => ReadFast { handle, val_queue },
        5 => QueryAck { handle, latest },
        6 => UpdateAck { handle },
        7 => ReadFastAck { handle, snapshot },
        8 => ReadFastDelta { handle, acked, floor, new_values },
        9 => ReadFastDeltaAck { handle, delta },
        10 => StateFetch { nonce },
        11 => StateSnapshot { nonce, state },
        12 => Depart { handle },
        13 => DepartAck { handle },
        14 => ForRegister { register, inner via header_payload },
        15 => ShardFetch { shard, nonce },
        16 => ShardSnapshot { nonce, shard, registers },
        17 => InEpoch { epoch, inner via header_payload },
        18 => StateInstall { nonce, transfers },
        19 => StateInstallAck { nonce },
        20 => ShardInstall { nonce, shard, registers },
        21 => ShardInstallAck { nonce, shard },
        22 => ReadFastRuns { handle, acked, floor, new_values },
        23 => ReadFastRunsAck { handle, delta via runs_delta },
    }
}

impl Msg {
    /// The epoch this frame was tagged with: the header epoch for
    /// [`Msg::InEpoch`] frames, epoch 0 for legacy frames.
    pub fn epoch(&self) -> ConfigEpoch {
        match self {
            Msg::InEpoch { epoch, .. } => *epoch,
            _ => ConfigEpoch::ZERO,
        }
    }

    /// Strips an [`Msg::InEpoch`] header, returning the frame's epoch and
    /// payload (legacy frames are their own payload at epoch 0).
    pub fn into_epoch_parts(self) -> (ConfigEpoch, Msg) {
        match self {
            Msg::InEpoch { epoch, inner } => (epoch, *inner),
            other => (ConfigEpoch::ZERO, other),
        }
    }

    /// Wraps `self` in an epoch header when `epoch > 0`; epoch-0 frames stay
    /// legacy so a never-reconfigured cluster is byte-identical on the wire.
    pub fn in_epoch(self, epoch: ConfigEpoch) -> Msg {
        if epoch == ConfigEpoch::ZERO {
            self
        } else {
            Msg::InEpoch { epoch, inner: Box::new(self) }
        }
    }
}

/// The frame headers one message may carry: `InEpoch` and `ForRegister`,
/// in either order. No sender wraps more (`InEpoch ⊃ ForRegister ⊃
/// payload`), and a third is refused before its payload is decoded, so a
/// hostile frame cannot recurse the decoder off its thread's stack.
const MAX_HEADERS: usize = 2;

/// The field codec of a frame header's payload (`inner`): the message
/// itself, decoded only while fewer than [`MAX_HEADERS`] headers are open
/// on this thread.
mod header_payload {
    use std::cell::Cell;

    use mwr_types::codec::{Buf, BufMut, DecodeError, Wire};

    use super::{Msg, MAX_HEADERS};

    thread_local! {
        /// The headers whose payloads this thread is decoding.
        static OPEN: Cell<usize> = const { Cell::new(0) };
    }

    pub fn encode(inner: &Msg, buf: &mut impl BufMut) {
        inner.encode(buf);
    }

    pub fn decode(buf: &mut impl Buf) -> Result<Box<Msg>, DecodeError> {
        let open = OPEN.get();
        if open == MAX_HEADERS {
            return Err(DecodeError::TooDeep { context: "Msg (a third frame header)" });
        }
        OPEN.set(open + 1);
        // Decoding never panics (`tests/hostile_handle.rs`), so the count
        // is restored on every path out.
        let inner = Msg::decode(buf);
        OPEN.set(open);
        inner.map(Box::new)
    }
}

/// The field codec of [`DeltaSnapshot`]'s `entries`: a `Vec<ValueRecord>`'s
/// layout — the record count, then each record's value and client list.
mod records_list {
    use mwr_types::codec::{Buf, BufMut, DecodeError, Wire, MAX_COLLECTION_LEN};
    use mwr_types::ClientId;

    use super::DeltaRecords;

    pub fn encode(records: &DeltaRecords, buf: &mut impl BufMut) {
        (records.len() as u64).encode(buf);
        for record in records {
            record.value.encode(buf);
            (record.updated.len() as u64).encode(buf);
            record.updated.iter().for_each(|c| c.encode(buf));
        }
    }

    pub fn decode(buf: &mut impl Buf) -> Result<DeltaRecords, DecodeError> {
        DeltaRecords::decode_each(buf, |buf, total, records| {
            let len = u64::decode(buf)?;
            *total = total.saturating_add(len);
            if *total > MAX_COLLECTION_LEN {
                return Err(DecodeError::LengthOverflow { declared: *total });
            }
            for _ in 0..len {
                records.extend_last(1, [ClientId::decode(buf)?]);
            }
            Ok(())
        })
    }
}

/// The field codec of [`Msg::ReadFastRunsAck`]'s `delta`: a
/// [`DeltaSnapshot`]'s layout with each record's `updated` list run-length
/// encoded ([`client_runs`]).
mod runs_delta {
    use mwr_types::codec::{client_runs, Buf, BufMut, DecodeError, Wire};
    use mwr_types::TaggedValue;

    use super::{DeltaRecords, DeltaSnapshot};

    pub fn encode(delta: &DeltaSnapshot, buf: &mut impl BufMut) {
        delta.from.encode(buf);
        delta.version.encode(buf);
        delta.latest.encode(buf);
        delta.pruned.encode(buf);
        (delta.entries.len() as u64).encode(buf);
        for record in &delta.entries {
            record.value.encode(buf);
            client_runs::encode(record.updated, buf);
        }
    }

    pub fn decode(buf: &mut impl Buf) -> Result<DeltaSnapshot, DecodeError> {
        let from = u64::decode(buf)?;
        let version = u64::decode(buf)?;
        let latest = TaggedValue::decode(buf)?;
        let pruned = TaggedValue::decode(buf)?;
        let entries = DeltaRecords::decode_each(buf, |buf, total, records| {
            client_runs::decode(buf, total, |run| records.extend_last(run.len(), run))
        })?;
        Ok(DeltaSnapshot { from, version, latest, pruned, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_types::codec::{DecodeError, Wire};
    use mwr_types::{Tag, WriterId};

    fn handle() -> OpHandle {
        OpHandle { op: OpId { client: ClientId::reader(1), seq: 3 }, phase: 2 }
    }

    fn tv(ts: u64, w: u32, v: u64) -> TaggedValue {
        TaggedValue::new(Tag::new(ts, WriterId::new(w)), Value::new(v))
    }

    #[test]
    fn snapshot_queries() {
        let snap = Snapshot {
            entries: vec![
                ValueRecord { value: tv(1, 0, 10), updated: vec![ClientId::writer(0)].into() },
                ValueRecord {
                    value: tv(2, 1, 20),
                    updated: vec![ClientId::writer(1), ClientId::reader(0)].into(),
                },
            ],
        };
        assert_eq!(snap.max_value(), Some(tv(2, 1, 20)));
        assert!(snap.contains(tv(1, 0, 10)));
        assert!(!snap.contains(tv(3, 0, 0)));
        assert_eq!(snap.updated_for(tv(1, 0, 10)).unwrap().len(), 1);
        assert!(snap.updated_for(tv(9, 9, 9)).is_none());
        assert_eq!(Snapshot::default().max_value(), None);
    }

    #[test]
    fn all_messages_round_trip_on_the_wire() {
        let msgs = vec![
            Msg::InvokeRead,
            Msg::InvokeWrite(Value::new(5)),
            Msg::Query { handle: handle() },
            Msg::Update { handle: handle(), value: tv(4, 1, 44), floor: tv(3, 0, 33) },
            Msg::ReadFast { handle: handle(), val_queue: vec![tv(1, 0, 1), tv(2, 1, 2)] },
            Msg::QueryAck { handle: handle(), latest: tv(9, 0, 99) },
            Msg::UpdateAck { handle: handle() },
            Msg::ReadFastAck {
                handle: handle(),
                snapshot: Snapshot {
                    entries: vec![ValueRecord {
                        value: tv(1, 1, 7),
                        updated: vec![ClientId::reader(0), ClientId::writer(1)].into(),
                    }],
                },
            },
            Msg::ReadFastDelta {
                handle: handle(),
                acked: 17,
                floor: tv(2, 1, 2),
                new_values: vec![tv(3, 0, 3)],
            },
            Msg::ReadFastDeltaAck {
                handle: handle(),
                delta: DeltaSnapshot {
                    from: 17,
                    version: 21,
                    latest: tv(3, 0, 3),
                    pruned: tv(1, 0, 1),
                    entries: vec![ValueRecord {
                        value: tv(3, 0, 3),
                        updated: vec![ClientId::reader(1)].into(),
                    }]
                    .into(),
                },
            },
            Msg::StateFetch { nonce: 42 },
            Msg::StateSnapshot {
                nonce: 42,
                state: Box::new(StateTransfer {
                    version: 99,
                    latest: tv(5, 1, 55),
                    pruned: tv(2, 0, 22),
                    entries: vec![ValueRecord {
                        value: tv(5, 1, 55),
                        updated: vec![ClientId::reader(0), ClientId::writer(1)].into(),
                    }],
                    seen: vec![ClientId::reader(0), ClientId::writer(0)],
                    floors: vec![FloorReport { client: ClientId::writer(0), floor: tv(2, 0, 22) }],
                }),
            },
            Msg::Depart { handle: handle() },
            Msg::DepartAck { handle: handle() },
            Msg::ForRegister {
                register: RegisterId::new(7),
                inner: Box::new(Msg::Update {
                    handle: handle(),
                    value: tv(4, 1, 44),
                    floor: tv(3, 0, 33),
                }),
            },
            Msg::ShardFetch { shard: 3, nonce: 77 },
            Msg::ShardSnapshot {
                nonce: 77,
                shard: 3,
                registers: vec![RegisterTransfer {
                    register: RegisterId::new(9),
                    state: StateTransfer {
                        version: 4,
                        latest: tv(2, 0, 20),
                        pruned: tv(1, 0, 10),
                        entries: vec![ValueRecord {
                            value: tv(2, 0, 20),
                            updated: vec![ClientId::reader(0)].into(),
                        }],
                        seen: vec![ClientId::reader(0)],
                        floors: vec![],
                    },
                }],
            },
            Msg::InEpoch {
                epoch: mwr_types::ConfigEpoch::new(3),
                inner: Box::new(Msg::ForRegister {
                    register: RegisterId::new(7),
                    inner: Box::new(Msg::Query { handle: handle() }),
                }),
            },
            Msg::StateInstall {
                nonce: 8,
                transfers: vec![StateTransfer {
                    version: 4,
                    latest: tv(2, 0, 20),
                    pruned: tv(1, 0, 10),
                    entries: vec![ValueRecord {
                        value: tv(2, 0, 20),
                        updated: vec![ClientId::reader(0)].into(),
                    }],
                    seen: vec![ClientId::reader(0)],
                    floors: vec![],
                }],
            },
            Msg::StateInstallAck { nonce: 8 },
            Msg::ShardInstall {
                nonce: 9,
                shard: 2,
                registers: vec![RegisterTransfer {
                    register: RegisterId::new(5),
                    state: StateTransfer {
                        version: 1,
                        latest: tv(1, 1, 11),
                        pruned: TaggedValue::initial(),
                        entries: vec![],
                        seen: vec![],
                        floors: vec![],
                    },
                }],
            },
            Msg::ShardInstallAck { nonce: 9, shard: 2 },
            Msg::ReadFastRuns {
                handle: handle(),
                acked: 17,
                floor: tv(2, 1, 2),
                new_values: vec![tv(3, 0, 3)],
            },
            Msg::ReadFastRunsAck {
                handle: handle(),
                delta: DeltaSnapshot {
                    from: 17,
                    version: 29,
                    latest: tv(3, 0, 3),
                    pruned: tv(1, 0, 1),
                    entries: vec![
                        ValueRecord {
                            value: tv(3, 0, 3),
                            updated: (0..5).map(ClientId::reader).collect(),
                        },
                        ValueRecord {
                            value: tv(2, 1, 2),
                            updated: vec![ClientId::reader(2), ClientId::writer(1)].into(),
                        },
                    ]
                    .into(),
                },
            },
        ];
        let mut wire = Vec::new();
        for msg in msgs {
            let mut bytes = msg.to_bytes();
            wire.extend_from_slice(&bytes);
            assert_eq!(msg.encoded_len(), bytes.len(), "encoded_len matches encode: {msg:?}");
            let mut cursor: &[u8] = &bytes;
            assert_eq!(Msg::decode(&mut cursor).expect("decode from slice"), msg);
            assert!(cursor.is_empty());
            let decoded = Msg::decode(&mut bytes).expect("decode");
            assert_eq!(decoded, msg);
            assert!(bytes.is_empty());
        }
        // The bytes themselves, pinned: FNV-1a over every encoding above,
        // recorded before the layouts were declared by `wire_layout!`.
        let fnv = wire.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((wire.len(), fnv), (1369, 0xda3d9d3b9e5a6bb3), "a layout moved on the wire");
    }

    #[test]
    fn corrupted_discriminant_is_rejected() {
        let mut bytes: &[u8] = &[99];
        assert!(matches!(
            Msg::decode(&mut bytes),
            Err(DecodeError::InvalidDiscriminant { context: "Msg", value: 99 })
        ));
    }

    #[test]
    fn legacy_frames_decode_unchanged_next_to_the_register_header() {
        // Wire version 2 only *adds* discriminants 14–16; a v1 frame (0–13)
        // must decode to the identical message, and the register header must
        // cost exactly its discriminant byte plus the 4-byte id.
        let inner = Msg::Query { handle: handle() };
        let legacy = inner.to_bytes();
        let mut cursor: &[u8] = &legacy;
        assert_eq!(Msg::decode(&mut cursor).unwrap(), inner);

        let wrapped =
            Msg::ForRegister { register: RegisterId::new(3), inner: Box::new(inner.clone()) };
        assert_eq!(wrapped.encoded_len(), inner.encoded_len() + 5);
        // The wrapped frame's tail is the legacy frame, byte for byte.
        let bytes = wrapped.to_bytes();
        assert_eq!(&bytes[5..], &legacy[..]);
    }

    #[test]
    fn epoch_header_costs_five_bytes_and_is_elided_at_epoch_zero() {
        use mwr_types::ConfigEpoch;
        // Wire version 3 only *adds* discriminants 17–21; a v1/v2 frame
        // decodes to the identical message at epoch 0, and the epoch header
        // costs exactly its discriminant byte plus the 4-byte epoch.
        let inner = Msg::Query { handle: handle() };
        assert_eq!(inner.epoch(), ConfigEpoch::ZERO);
        assert_eq!(inner.clone().in_epoch(ConfigEpoch::ZERO), inner, "epoch 0 adds no wrapper");

        let e3 = ConfigEpoch::new(3);
        let wrapped = inner.clone().in_epoch(e3);
        assert_eq!(wrapped.encoded_len(), inner.encoded_len() + 5);
        assert_eq!(wrapped.epoch(), e3);
        // The wrapped frame's tail is the legacy frame, byte for byte.
        let bytes = wrapped.to_bytes();
        assert_eq!(&bytes[5..], &inner.to_bytes()[..]);
        assert_eq!(wrapped.into_epoch_parts(), (e3, inner));
    }

    #[test]
    fn v3_frames_decode_unchanged_next_to_the_runs_wire() {
        // Wire version 4 only *adds* discriminants 22–23: the v3 delta
        // request/ack must encode and decode byte-identically, and the
        // runs request must be the delta request with only the
        // discriminant byte changed (version negotiation is carried by
        // the request discriminant alone).
        let delta_req = Msg::ReadFastDelta {
            handle: handle(),
            acked: 17,
            floor: tv(2, 1, 2),
            new_values: vec![tv(3, 0, 3)],
        };
        let runs_req = Msg::ReadFastRuns {
            handle: handle(),
            acked: 17,
            floor: tv(2, 1, 2),
            new_values: vec![tv(3, 0, 3)],
        };
        let (v3, v4) = (delta_req.to_bytes(), runs_req.to_bytes());
        assert_eq!(v3[0], 8);
        assert_eq!(v4[0], 22);
        assert_eq!(&v3[1..], &v4[1..], "payloads are identical past the discriminant");
        let mut cursor: &[u8] = &v3;
        assert_eq!(Msg::decode(&mut cursor).unwrap(), delta_req);
    }

    /// Records of 0, 1, 2, 3 and 64 clients — in place and spilled alike —
    /// through every codec that carries one: the plain list layout in a
    /// full-info snapshot, a v3 delta and a state transfer, and the
    /// run-length layout in a runs ack. The bytes are pinned against
    /// figures recorded while `ValueRecord::updated` was a `Vec`.
    #[test]
    fn records_of_every_length_keep_their_bytes_on_every_codec() {
        // Sorted like a store's: readers with a gap after every second, then
        // consecutive writers, so the run-length form has runs to split.
        let clients = |n: u32| -> Vec<ClientId> {
            let readers = n.div_ceil(2);
            (0..readers)
                .map(|i| ClientId::reader(i + i / 2))
                .chain((0..n - readers).map(ClientId::writer))
                .collect()
        };
        let records: Vec<ValueRecord> = [0, 1, 2, 3, 64]
            .into_iter()
            .enumerate()
            .map(|(i, n)| ValueRecord {
                value: tv(i as u64 + 1, n, u64::from(n)),
                updated: clients(n).into(),
            })
            .collect();
        let delta = DeltaSnapshot {
            from: 2,
            version: 80,
            latest: tv(5, 64, 64),
            pruned: TaggedValue::initial(),
            entries: records.clone().into(),
        };
        let msgs = [
            Msg::ReadFastAck { handle: handle(), snapshot: Snapshot { entries: records.clone() } },
            Msg::ReadFastDeltaAck { handle: handle(), delta: delta.clone() },
            Msg::StateSnapshot {
                nonce: 5,
                state: Box::new(StateTransfer {
                    version: 80,
                    latest: tv(5, 64, 64),
                    pruned: TaggedValue::initial(),
                    entries: records,
                    seen: clients(3),
                    floors: vec![],
                }),
            },
            Msg::ReadFastRunsAck { handle: handle(), delta },
        ];
        let mut pins = Vec::new();
        for msg in msgs {
            let bytes = msg.to_bytes();
            assert_eq!(msg.encoded_len(), bytes.len(), "encoded_len matches encode: {msg:?}");
            assert_eq!(Msg::decode(&mut &bytes[..]).expect("decode"), msg);
            let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
            pins.push((bytes.len(), fnv));
        }
        // Recorded at the parent of the in-place record list.
        let recorded = vec![
            (518, 0xa0ac_a8c3_815c_f776),
            (572, 0x9f6e_4bc7_2d53_b3b4),
            (589, 0xe9ae_8dd3_b1fe_1ed2),
            (420, 0x5eac_894a_40eb_d9c2),
        ];
        assert_eq!(pins, recorded, "a record's layout moved on the wire");
    }

    #[test]
    fn runs_ack_compresses_dense_registration_gossip() {
        // The catch-up stream's shape: every reader re-registered on one
        // value. 64 consecutive readers collapse to a single 9-byte run
        // where the v3 ack spends 5 bytes per client.
        let dense = DeltaSnapshot {
            from: 3,
            version: 90,
            latest: tv(5, 0, 50),
            pruned: TaggedValue::initial(),
            entries: vec![ValueRecord {
                value: tv(5, 0, 50),
                updated: (0..64).map(ClientId::reader).collect(),
            }]
            .into(),
        };
        let v3 = Msg::ReadFastDeltaAck { handle: handle(), delta: dense.clone() };
        let v4 = Msg::ReadFastRunsAck { handle: handle(), delta: dense };
        assert!(
            v4.encoded_len() < v3.encoded_len() / 3,
            "runs ack {} must be well under a third of the delta ack {}",
            v4.encoded_len(),
            v3.encoded_len()
        );
        // And it stays a faithful encoding: decode gives the same delta.
        let mut bytes = v4.to_bytes();
        assert_eq!(Msg::decode(&mut bytes).unwrap(), v4);
    }

    /// A `Msg` moves by value through every channel, simulator queue and
    /// handler call, and every byte of it costs: with an 8-byte field added
    /// to a delta (a 128-byte `Msg`), `mem-narrow` on one pinned vCPU fell
    /// from ≈ 730 k to ≈ 657 k operations per second and its `wr_p50` rose
    /// from 1.28 to 1.51 µs; at 144 bytes steady in-memory writes took 2.70 µs instead
    /// of 1.85 µs, and a delta's records as two plain `Vec`s (a 168-byte
    /// `Msg`) lost 27 % on `mem-narrow`. That is why a delta's overflow
    /// buffer hangs off its first record instead of the delta.
    #[test]
    fn a_msg_fits_in_120_bytes() {
        let size = std::mem::size_of::<Msg>();
        assert!(size <= 120, "a Msg is {size} bytes");
    }

    #[test]
    fn display_formats_handles() {
        assert_eq!(handle().to_string(), "r2#3(2)");
    }

    #[test]
    fn client_set_stays_sorted_and_deduplicated() {
        let mut set = ClientSet::new();
        assert!(set.insert(ClientId::writer(1)));
        assert!(set.insert(ClientId::reader(0)));
        assert!(!set.insert(ClientId::writer(1)), "duplicate insert is a no-op");
        assert!(set.contains(ClientId::reader(0)));
        assert!(!set.contains(ClientId::reader(9)));
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        let sorted: Vec<ClientId> = set.as_slice().to_vec();
        let mut expect = sorted.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect, "as_slice is ascending");
        let from_iter: ClientSet =
            [ClientId::writer(1), ClientId::reader(0), ClientId::writer(1)].into_iter().collect();
        assert_eq!(from_iter, set);
        assert!(set.remove(ClientId::reader(0)));
        assert!(!set.remove(ClientId::reader(0)), "removing an absent client is a no-op");
        assert_eq!(set.as_slice(), &[ClientId::writer(1)]);
    }

    fn delta(version: u64, latest: TaggedValue, pruned: TaggedValue, entries: Vec<ValueRecord>) -> DeltaSnapshot {
        DeltaSnapshot { from: 0, version, latest, pruned, entries: entries.into() }
    }

    #[test]
    fn unacknowledged_is_the_set_difference_on_both_cache_kinds() {
        let (a, b, c) = (tv(1, 0, 1), tv(2, 0, 2), tv(3, 1, 3));
        let mut cache = SnapshotCache::new();
        cache.merge(&delta(
            1,
            b,
            TaggedValue::initial(),
            vec![ValueRecord { value: b, updated: vec![ClientId::writer(0)].into() }],
        ));
        let mut state = FastReadState::new(2);
        state.merge(
            ServerId::new(0),
            &delta(1, b, TaggedValue::initial(), vec![ValueRecord { value: b, updated: vec![].into() }]),
        );

        let queue: std::collections::BTreeSet<TaggedValue> =
            [TaggedValue::initial(), a, b, c].into_iter().collect();
        let expect: Vec<TaggedValue> =
            queue.iter().filter(|v| !cache.knows(**v)).copied().collect();
        assert_eq!(cache.unacknowledged(&queue), expect);
        assert_eq!(state.cache(ServerId::new(0)).unacknowledged(&queue), expect);
        assert_eq!(expect, vec![a, c], "initial and b are known, a and c are not");
    }

    /// A reset returns the slot to the fresh-store state: stale values and
    /// witness bits vanish, and re-merging the server's rebuilt store makes
    /// the mirror exact again.
    #[test]
    fn fast_read_state_reset_clears_the_slot_and_its_witnesses() {
        let (v1, v2) = (tv(1, 0, 1), tv(2, 0, 2));
        let mut state = FastReadState::new(2);
        let s0 = ServerId::new(0);
        state.merge(
            s0,
            &delta(
                3,
                v1,
                TaggedValue::initial(),
                vec![ValueRecord { value: v1, updated: vec![ClientId::reader(0)].into() }],
            ),
        );
        assert!(state.cache(s0).knows(v1));

        state.reset(s0);
        assert!(!state.cache(s0).knows(v1), "stale value forgotten");
        assert!(state.cache(s0).knows(TaggedValue::initial()), "fresh-store seed");
        assert_eq!(state.cache(s0).acked_version(), 0, "acked version rewound");
        assert_eq!(
            state.index().values_in(1).collect::<Vec<_>>(),
            vec![TaggedValue::initial()],
            "stale witness bits evicted"
        );

        // Merging the rebuilt server's full-store delta resynchronizes.
        state.merge(
            s0,
            &delta(7, v2, TaggedValue::initial(), vec![ValueRecord {
                value: v2,
                updated: vec![ClientId::writer(0)].into(),
            }]),
        );
        assert!(state.cache(s0).knows(v2));
        assert_eq!(state.cache(s0).acked_version(), 7);

        // Resetting a never-contacted server is a no-op.
        state.reset(ServerId::new(5));
    }

    #[test]
    fn fast_read_state_merge_tracks_values_and_evicts_on_gc() {
        let (v1, v2) = (tv(1, 0, 1), tv(2, 0, 2));
        let mut state = FastReadState::new(2);
        let s0 = ServerId::new(0);
        state.merge(
            s0,
            &delta(
                2,
                v1,
                TaggedValue::initial(),
                vec![ValueRecord { value: v1, updated: vec![ClientId::reader(0)].into() }],
            ),
        );
        assert!(state.cache(s0).knows(v1));
        assert_eq!(state.cache(s0).acked_version(), 2);
        assert_eq!(state.index().values_in(1).collect::<Vec<_>>(), vec![TaggedValue::initial(), v1]);

        // GC floor v2 with latest v2: both the initial value and v1 drop
        // from cache and index alike.
        state.merge(
            s0,
            &delta(3, v2, v2, vec![ValueRecord { value: v2, updated: vec![ClientId::writer(0)].into() }]),
        );
        assert!(!state.cache(s0).knows(v1));
        assert!(state.cache(s0).knows(v2));
        assert_eq!(state.index().values_in(1).collect::<Vec<_>>(), vec![v2]);
        assert_eq!(
            state.selector(1, 1, 0, 1).max_candidate(),
            Some(v2),
            "selection sees exactly the surviving state"
        );
    }
}
