//! The `admissible(·)` predicate of Algorithm 1 and the fast-read return
//! value selection.
//!
//! A value `v` is *admissible with degree `a`* in a read (Algorithm 1,
//! line 32) when there is a subset `µ` of the received `READACK` messages
//! such that
//!
//! 1. every message in `µ` contains `v`,
//! 2. `|µ| ≥ S − a·t`, and
//! 3. `|⋂_{m∈µ} m.updated(v)| ≥ a` — at least `a` clients are registered on
//!    `v` in **every** message of `µ`.
//!
//! Intuition (from Dutta et al. [12], extended to multiple writers here):
//! degree `a = 1` means a full quorum saw `v` with a common witness (the
//! writer); each missed server can be traded for one more common witness
//! client, because a witness client in the intersection either completed an
//! operation ordering `v` before this read, or will itself testify to later
//! reads. The feasibility condition `R < S/t − 2` guarantees that degrees up
//! to `R + 1` still leave non-empty quorums (`S − (R+1)t > t ≥ 1`).
//!
//! # Two evaluators, one seam
//!
//! Reply data reaches the predicate through the [`SnapshotSource`] /
//! [`SnapshotView`] seam, which borrows either a full-info wire
//! [`Snapshot`] or a reader-side [`SnapshotCache`](crate::SnapshotCache)
//! mirror without cloning. Over that seam sit two implementations:
//!
//! - [`Admissibility`] — the naive reference: rebuilds its witness bitmasks
//!   per `(candidate, degree)` probe. Kept as the executable specification
//!   (property tests pin the fast path against it) and used by the
//!   Byzantine reader, whose vouch-filtered snapshots are synthesized fresh
//!   each read anyway.
//! - [`WitnessIndex`] + [`WitnessSelector`] — the production fast path: the
//!   per-value masks are built **once** (per read via
//!   [`WitnessIndex::from_views`], or maintained **incrementally across
//!   reads** by [`FastReadState`](crate::FastReadState) as delta snapshots
//!   merge, where the index is also the reader's only record of which
//!   values each server holds) and shared across every candidate and every
//!   degree of the selection walk.
//!
//! # Complexity
//!
//! The naive check is exponential in the client population (choose the
//! witness set `C`). Both evaluators represent, for each candidate client,
//! the set of replies containing it as a bitmask, and search for `a`
//! clients whose mask intersection has popcount `≥ S − a·t`, pruning
//! subsets whose running intersection is already too small. With the
//! protocol's small degrees (`a ≤ R + 1`) and client populations this is
//! microseconds in practice — the `admissible` Criterion bench quantifies
//! both evaluators, and `admissible_smoke --assert-admissible-floor` gates
//! the fast path's scaling in CI.

use std::collections::BTreeMap;
use std::ops::Range;

use mwr_types::{ClientId, TaggedValue};

use crate::msg::{ClientSet, Snapshot, SnapshotCache, ValueRecord};

/// The widest reply set / server population the bitmask evaluators support.
pub const MAX_SLOTS: usize = 128;

/// The largest admissibility degree an *adaptive* read may trust for its
/// fast path: `a ≤ R + 1` (the algorithm's degree range) **and**
/// `S − a·t ≥ t + 1` (Lemma 9's requirement that a degree-`a` witness set
/// still spans more than `t` servers, so it survives crashes and
/// intersects every quorum).
///
/// In feasible configurations (`t(R + 2) < S`) the two bounds coincide at
/// `R + 1`, so the adaptive fast path accepts exactly what Algorithm 1
/// accepts; beyond the feasibility boundary the cap shrinks and more reads
/// take the write-back fallback. With `t = 0` every degree is safe.
///
/// # Examples
///
/// ```
/// use mwr_core::adaptive_degree_cap;
///
/// assert_eq!(adaptive_degree_cap(5, 1, 2), 3);  // feasible: R + 1
/// assert_eq!(adaptive_degree_cap(5, 1, 4), 3);  // infeasible: (S − t − 1)/t
/// assert_eq!(adaptive_degree_cap(3, 1, 2), 1);  // barely anything is safe
/// assert_eq!(adaptive_degree_cap(4, 0, 7), 8);  // no faults: R + 1
/// ```
pub fn adaptive_degree_cap(servers: usize, max_faults: usize, readers: usize) -> usize {
    if max_faults == 0 {
        return readers + 1;
    }
    let lemma9 = (servers.saturating_sub(max_faults + 1)) / max_faults;
    lemma9.min(readers + 1)
}

// --- the borrowed reply seam ------------------------------------------------

/// A borrowed view of one server's logical snapshot: either a full-info
/// wire [`Snapshot`] or a reader-side [`SnapshotCache`] mirror.
///
/// Admissibility evaluation consumes replies through this seam, so neither
/// evaluator ever needs the cache reconstructed into an owned `Snapshot`
/// (the clone that used to dominate W2R1's read cost at high `R`).
#[derive(Debug, Clone, Copy)]
pub enum SnapshotView<'a> {
    /// A full-info snapshot as received on the wire.
    Full(&'a Snapshot),
    /// A reader's cached mirror of one server's store (delta wire).
    Cached(&'a SnapshotCache),
}

impl<'a> SnapshotView<'a> {
    /// The clients registered on `value`, if the snapshot contains it.
    pub fn updated_for(&self, value: TaggedValue) -> Option<&'a [ClientId]> {
        match self {
            SnapshotView::Full(s) => s.updated_for(value),
            SnapshotView::Cached(c) => c.updated_for(value).map(ClientSet::as_slice),
        }
    }

    /// Iterates every `(value, registered clients)` entry in ascending tag
    /// order.
    pub fn entries(&self) -> Entries<'a> {
        match self {
            SnapshotView::Full(s) => Entries::Full(s.entries.iter()),
            SnapshotView::Cached(c) => Entries::Cached(c.iter()),
        }
    }
}

/// Iterator over the `(value, clients)` entries of a [`SnapshotView`].
#[derive(Debug, Clone)]
pub enum Entries<'a> {
    /// Entries of a full-info [`Snapshot`].
    Full(std::slice::Iter<'a, ValueRecord>),
    /// Entries of a [`SnapshotCache`].
    Cached(std::slice::Iter<'a, (TaggedValue, ClientSet)>),
}

impl<'a> Iterator for Entries<'a> {
    type Item = (TaggedValue, &'a [ClientId]);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Entries::Full(it) => it.next().map(|r| (r.value, r.updated.as_slice())),
            Entries::Cached(it) => it.next().map(|(v, u)| (*v, u.as_slice())),
        }
    }
}

/// Anything that can lend a [`SnapshotView`] of one server's reply.
pub trait SnapshotSource {
    /// Borrows this reply as a view.
    fn view(&self) -> SnapshotView<'_>;
}

impl SnapshotSource for Snapshot {
    fn view(&self) -> SnapshotView<'_> {
        SnapshotView::Full(self)
    }
}

impl SnapshotSource for SnapshotCache {
    fn view(&self) -> SnapshotView<'_> {
        SnapshotView::Cached(self)
    }
}

impl SnapshotSource for SnapshotView<'_> {
    fn view(&self) -> SnapshotView<'_> {
        *self
    }
}

// --- the naive reference evaluator ------------------------------------------

/// Evaluates admissibility over the replies of one fast read — the naive
/// reference implementation (see the module docs for how it relates to
/// [`WitnessIndex`]).
///
/// # Examples
///
/// ```
/// use mwr_core::{Admissibility, Snapshot, ValueRecord};
/// use mwr_types::{ClientId, Tag, TaggedValue, Value, WriterId};
///
/// let v = TaggedValue::new(Tag::new(1, WriterId::new(0)), Value::new(7));
/// let snap = |clients: &[ClientId]| Snapshot {
///     entries: vec![ValueRecord { value: v, updated: clients.into() }],
/// };
/// // S = 3, t = 1, quorum = 2 replies, both containing v with the writer
/// // registered: admissible with degree 1.
/// let replies = vec![
///     snap(&[ClientId::writer(0)]),
///     snap(&[ClientId::writer(0)]),
/// ];
/// let adm = Admissibility::new(&replies, 3, 1, 2);
/// assert_eq!(adm.degree(v), Some(1));
/// ```
#[derive(Debug)]
pub struct Admissibility<'a, S: SnapshotSource = Snapshot> {
    replies: &'a [S],
    servers: usize,
    max_faults: usize,
    max_degree: usize,
}

impl<'a, S: SnapshotSource> Admissibility<'a, S> {
    /// Creates an evaluator over `replies` (one snapshot per distinct
    /// server) for a cluster with `servers` servers and `max_faults` crash
    /// tolerance; degrees range over `1 ..= max_degree` (the algorithm uses
    /// `max_degree = R + 1`).
    ///
    /// # Panics
    ///
    /// Panics if more than 128 replies are supplied (bitmask width).
    pub fn new(replies: &'a [S], servers: usize, max_faults: usize, max_degree: usize) -> Self {
        assert!(
            replies.len() <= MAX_SLOTS,
            "at most 128 server replies supported"
        );
        Admissibility { replies, servers, max_faults, max_degree }
    }

    /// Whether `v` is admissible with exactly degree `a`.
    pub fn admissible_with_degree(&self, v: TaggedValue, a: usize) -> bool {
        if a == 0 {
            return false;
        }
        // |µ| ≥ S − a·t, and µ must be non-empty for the intersection to be
        // meaningful.
        let needed = self.servers.saturating_sub(a * self.max_faults).max(1);

        // Bitmask per candidate client: which replies contain v with this
        // client registered on it.
        let mut masks: BTreeMap<ClientId, u128> = BTreeMap::new();
        let mut containing = 0usize;
        for (i, snap) in self.replies.iter().enumerate() {
            if let Some(updated) = snap.view().updated_for(v) {
                containing += 1;
                for &c in updated {
                    *masks.entry(c).or_insert(0) |= 1u128 << i;
                }
            }
        }
        if containing < needed {
            return false;
        }
        // Drop clients that alone cannot reach the threshold.
        let candidates: Vec<u128> = masks
            .values()
            .copied()
            .filter(|m| m.count_ones() as usize >= needed)
            .collect();
        if candidates.len() < a {
            return false;
        }
        search(&candidates, 0, u128::MAX, a, needed)
    }

    /// The smallest degree `a ∈ [1, max_degree]` with which `v` is
    /// admissible, or `None`.
    pub fn degree(&self, v: TaggedValue) -> Option<usize> {
        (1..=self.max_degree).find(|&a| self.admissible_with_degree(v, a))
    }

    /// All distinct values present in any reply, in descending tag order —
    /// the candidate order of Algorithm 1's selection loop.
    pub fn candidates_descending(&self) -> Vec<TaggedValue> {
        let mut vals: Vec<TaggedValue> = self
            .replies
            .iter()
            .flat_map(|s| s.view().entries().map(|(v, _)| v))
            .collect();
        vals.sort_unstable();
        vals.dedup();
        vals.reverse();
        vals
    }

    /// Algorithm 1's read return value: the largest admissible value.
    ///
    /// Walks candidates in descending order (`maxV`, then "remove `maxV`
    /// from all messages" and repeat) and returns the first admissible one.
    ///
    /// # Panics
    ///
    /// Panics if no value is admissible. This cannot happen in a run of the
    /// protocol: the reader's `valQueue` always contains the initial value,
    /// every replying server registers the reader on it before replying, so
    /// the initial value is admissible with degree 1.
    pub fn select_return_value(&self) -> TaggedValue {
        for v in self.candidates_descending() {
            if self.degree(v).is_some() {
                return v;
            }
        }
        panic!(
            "no admissible value among {} replies — protocol invariant broken",
            self.replies.len()
        );
    }
}

/// Depth-first search for `remaining` more clients whose combined mask
/// intersection keeps at least `needed` replies.
///
/// Shared by both evaluators; the result is independent of candidate order,
/// which is why the selector may sort its candidates for pruning without
/// diverging from the reference.
fn search(candidates: &[u128], start: usize, acc: u128, remaining: usize, needed: usize) -> bool {
    if remaining == 0 {
        return acc.count_ones() as usize >= needed;
    }
    for i in start..candidates.len() {
        // Not enough candidates left to pick `remaining`.
        if candidates.len() - i < remaining {
            return false;
        }
        let next = acc & candidates[i];
        if (next.count_ones() as usize) < needed {
            continue;
        }
        if search(candidates, i + 1, next, remaining - 1, needed) {
            return true;
        }
    }
    false
}

// --- the incremental fast path ----------------------------------------------

/// Per-value witness bitmasks over up to 128 reply *slots* (one slot per
/// server or per reply position).
///
/// For every candidate value the index records (a) which slots currently
/// hold the value (`containing`) and (b), per registered client, the slots
/// where that client is registered on it. Every candidate walk, degree
/// probe and witness-subset search of the selection runs over these masks,
/// so they are computed exactly once:
///
/// - per read, for full-info replies, via [`WitnessIndex::from_views`];
/// - across reads, for the delta wire, maintained incrementally by
///   [`FastReadState`](crate::FastReadState) as deltas merge — the per-read
///   cost of selection no longer rebuilds anything at all. There slot `s`'s
///   `containing` bits *are* the reader's mirror of server `s`'s store:
///   nothing else records which values a server holds.
///
/// Both paths take a reply's entries sorted by value, so recording them is
/// one forward pass over the sorted index. Values whose `containing` mask
/// goes empty (GC eviction, one sweep over the prefix below a floor) are
/// dropped, so the index stays bounded by live protocol state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WitnessIndex {
    /// value → witness masks, sorted by value ascending. Post-GC the live
    /// value population is small, so a flat sorted Vec keeps both the
    /// merge-path probes and the descending selection walk cache-local.
    entries: Vec<(TaggedValue, ValueWitness)>,
}

/// The masks recorded for one candidate value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ValueWitness {
    /// Bit `s`: slot `s` currently holds this value.
    containing: u128,
    /// Client → slots where the client is registered on this value, sorted
    /// by client. Every set bit here is also set in `containing` (a
    /// registration implies the slot holds the value).
    witnesses: Vec<(ClientId, u128)>,
}

impl ValueWitness {
    /// Marks `client` registered on this value at `slot` (which therefore
    /// holds the value).
    fn record(&mut self, slot: usize, client: ClientId) {
        let bit = 1u128 << slot;
        self.containing |= bit;
        match self.witnesses.binary_search_by_key(&client, |e| e.0) {
            Ok(i) => self.witnesses[i].1 |= bit,
            Err(i) => self.witnesses.insert(i, (client, bit)),
        }
    }

    /// Registers a whole record's client list on this value at `slot` in
    /// one pass — a merge-join over the two client-sorted lists, instead
    /// of one binary search per registration. This is the delta-merge hot
    /// path: a fast read's reply re-registers O(W×R) catch-up clients, and
    /// both the wire's `updated` lists and `witnesses` are sorted by
    /// client. Out-of-order elements (a non-conforming peer) fall back to
    /// the searched insert, preserving set semantics. A list still
    /// unallocated is sized once for `population` witnesses (if not 0), the
    /// most a value can have.
    fn record_sorted(&mut self, slot: usize, clients: &[ClientId], population: usize) {
        let bit = 1u128 << slot;
        self.containing |= bit;
        if population > 0 && self.witnesses.capacity() == 0 && !clients.is_empty() {
            self.witnesses.reserve_exact(population);
        }
        let mut i = 0;
        let mut prev: Option<ClientId> = None;
        for &c in clients {
            if prev.is_some_and(|p| c <= p) {
                self.record(slot, c);
                continue;
            }
            prev = Some(c);
            while i < self.witnesses.len() && self.witnesses[i].0 < c {
                i += 1;
            }
            if i < self.witnesses.len() && self.witnesses[i].0 == c {
                self.witnesses[i].1 |= bit;
            } else {
                self.witnesses.insert(i, (c, bit));
            }
            i += 1;
        }
    }
}

impl WitnessIndex {
    /// An empty index.
    pub fn new() -> Self {
        WitnessIndex::default()
    }

    /// Builds the index once over borrowed reply data (slot `i` = the
    /// `i`-th view) and returns it with the mask covering all slots — the
    /// per-read path for full-info replies.
    ///
    /// # Panics
    ///
    /// Panics if more than 128 views are supplied.
    pub fn from_views<'a, I>(views: I) -> (Self, u128)
    where
        I: IntoIterator<Item = SnapshotView<'a>>,
    {
        let mut index = WitnessIndex::new();
        let mut slots = 0usize;
        for (slot, view) in views.into_iter().enumerate() {
            assert!(slot < MAX_SLOTS, "at most 128 server replies supported");
            slots = slot + 1;
            index.record_entries(slot, view.entries(), 0);
        }
        (index, mask_of(slots))
    }

    /// Records that slot `slot` holds each entry's value with the entry's
    /// clients registered on it — a snapshot's entries or a delta's
    /// records, both sorted by value. Sorted input is merged in with one
    /// forward cursor over the sorted index; an entry out of order (a
    /// non-conforming peer) falls back to the searched insert, preserving
    /// set semantics. A value's first witnesses size its witness list for
    /// `population` clients, if that is not 0 (else it grows as it fills).
    pub(crate) fn record_entries<'a>(
        &mut self,
        slot: usize,
        entries: impl IntoIterator<Item = (TaggedValue, &'a [ClientId])>,
        population: usize,
    ) {
        // Every entry before `cursor` is below every in-order value still to
        // come; a searched insert (a value below `prev`) keeps that true.
        let mut cursor = 0;
        let mut prev: Option<TaggedValue> = None;
        for (value, clients) in entries {
            let w = if prev.is_some_and(|p| value <= p) {
                self.witness_entry(value)
            } else {
                prev = Some(value);
                while self.entries.get(cursor).is_some_and(|e| e.0 < value) {
                    cursor += 1;
                }
                if self.entries.get(cursor).is_none_or(|e| e.0 != value) {
                    self.entries.insert(cursor, (value, ValueWitness::default()));
                }
                &mut self.entries[cursor].1
            };
            w.record_sorted(slot, clients, population);
        }
    }

    /// Records that slot `slot` holds `value` (with no new registrations).
    ///
    /// # Panics
    ///
    /// Panics if `slot ≥ 128`.
    pub fn record_value(&mut self, slot: usize, value: TaggedValue) {
        assert!(slot < MAX_SLOTS, "slot {slot} out of bitmask range");
        self.witness_entry(value).containing |= 1u128 << slot;
    }

    /// Records that slot `slot` registers `client` on `value` (implies the
    /// slot holds the value).
    ///
    /// # Panics
    ///
    /// Panics if `slot ≥ 128`.
    pub fn record_witness(&mut self, slot: usize, value: TaggedValue, client: ClientId) {
        assert!(slot < MAX_SLOTS, "slot {slot} out of bitmask range");
        self.witness_entry(value).record(slot, client);
    }

    /// The mutable witness entry for `value`, created empty if absent.
    fn witness_entry(&mut self, value: TaggedValue) -> &mut ValueWitness {
        match self.entries.binary_search_by_key(&value, |e| e.0) {
            Ok(i) => &mut self.entries[i].1,
            Err(i) => {
                self.entries.insert(i, (value, ValueWitness::default()));
                &mut self.entries[i].1
            }
        }
    }

    /// Forgets everything slot `slot` recorded about `value` (the slot's
    /// store pruned it); drops the value entirely once no slot holds it —
    /// the one-value case of the sweep a delta's GC floor runs.
    pub fn evict(&mut self, slot: usize, value: TaggedValue) {
        let found = self.entries.binary_search_by_key(&value, |e| e.0);
        self.sweep(slot, found.map_or(0..0, |at| at..at + 1), None);
    }

    /// Mirrors one server's GC: forgets everything slot `slot` recorded
    /// about the values below `floor`, except `spare` (the server's
    /// `latest`, which it never prunes) — one sweep over the index prefix
    /// below the floor.
    pub(crate) fn evict_below(&mut self, slot: usize, floor: TaggedValue, spare: TaggedValue) {
        let end = self.entries.partition_point(|e| e.0 < floor);
        self.sweep(slot, 0..end, Some(spare));
    }

    /// Forgets everything slot `slot` recorded.
    pub(crate) fn evict_slot(&mut self, slot: usize) {
        self.sweep(slot, 0..self.entries.len(), None);
    }

    /// Clears slot `slot`'s bits on the entries at positions `range`
    /// (except `spare`'s), then drops every value no slot holds any more in
    /// one `retain`.
    fn sweep(&mut self, slot: usize, range: Range<usize>, spare: Option<TaggedValue>) {
        assert!(slot < MAX_SLOTS, "slot {slot} out of bitmask range");
        let bit = 1u128 << slot;
        let mut emptied = false;
        for (value, w) in &mut self.entries[range] {
            if w.containing & bit == 0 || Some(*value) == spare {
                continue;
            }
            w.containing &= !bit;
            if w.containing == 0 {
                emptied = true;
                continue;
            }
            w.witnesses.retain_mut(|e| {
                e.1 &= !bit;
                e.1 != 0
            });
        }
        if emptied {
            self.entries.retain(|(_, w)| w.containing != 0);
        }
    }

    /// Whether some slot in `mask` currently holds `value`.
    pub(crate) fn holds(&self, mask: u128, value: TaggedValue) -> bool {
        self.entries
            .binary_search_by_key(&value, |e| e.0)
            .is_ok_and(|i| self.entries[i].1.containing & mask != 0)
    }

    /// The values some slot in `mask` currently holds, ascending — what a
    /// fast read folds into its `valQueue`.
    pub fn values_in(&self, mask: u128) -> impl Iterator<Item = TaggedValue> + '_ {
        self.entries
            .iter()
            .filter(move |(_, w)| w.containing & mask != 0)
            .map(|(v, _)| *v)
    }

    /// Number of indexed values (across all slots).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no values at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A selection evaluator restricted to the slots in `mask` (the servers
    /// that actually replied to this read), for a cluster with `servers`
    /// servers, `max_faults` crash tolerance and degrees `1 ..= max_degree`.
    /// `scratch` is its degree buffer: one kept across reads
    /// ([`FastReadState::selector`](crate::FastReadState::selector)) makes
    /// a selection allocate nothing once it has grown.
    pub fn selector<'a>(
        &'a self,
        scratch: &'a mut Vec<u128>,
        mask: u128,
        servers: usize,
        max_faults: usize,
        max_degree: usize,
    ) -> WitnessSelector<'a> {
        WitnessSelector { index: self, mask, servers, max_faults, max_degree, scratch }
    }
}

/// The mask covering slots `0 .. slots`.
///
/// # Panics
///
/// Panics if `slots > 128`.
pub fn mask_of(slots: usize) -> u128 {
    assert!(slots <= MAX_SLOTS, "at most 128 slots supported");
    if slots == MAX_SLOTS {
        u128::MAX
    } else {
        (1u128 << slots) - 1
    }
}

/// One read's return-value selection over a [`WitnessIndex`]: Algorithm 1's
/// candidate walk and `admissible(·)` probes, restricted to the reply slots
/// in the selector's mask.
///
/// Selection is a single descending walk over the index (the candidates are
/// already distinct and tag-ordered — no per-read collect/sort/dedup), and
/// each candidate's masked witness masks are materialized once and shared
/// across all of its degree probes. The borrowed scratch buffer is the only
/// memory it needs, reused across every candidate of the walk.
#[derive(Debug)]
pub struct WitnessSelector<'a> {
    index: &'a WitnessIndex,
    mask: u128,
    servers: usize,
    max_faults: usize,
    max_degree: usize,
    /// Masked witness masks of the candidate under evaluation, sorted by
    /// descending popcount; refilled per candidate, reused across degrees.
    scratch: &'a mut Vec<u128>,
}

impl WitnessSelector<'_> {
    /// The smallest degree `a ∈ [1, max_degree]` with which `v` is
    /// admissible within the replied slots, or `None`.
    pub fn degree(&mut self, v: TaggedValue) -> Option<usize> {
        let index = self.index;
        index
            .entries
            .binary_search_by_key(&v, |e| e.0)
            .ok()
            .and_then(|i| self.degree_of(&index.entries[i].1))
    }

    /// The largest candidate value any replied slot holds — Algorithm 1's
    /// `maxV`, the adaptive read's fast-path candidate.
    pub fn max_candidate(&self) -> Option<TaggedValue> {
        self.index
            .entries
            .iter()
            .rev()
            .find(|(_, w)| w.containing & self.mask != 0)
            .map(|(v, _)| *v)
    }

    /// Algorithm 1's read return value: the largest admissible value, found
    /// in one descending walk over the index.
    ///
    /// # Panics
    ///
    /// Panics if no value is admissible (impossible in a protocol run; see
    /// [`Admissibility::select_return_value`]).
    pub fn select_return_value(&mut self) -> TaggedValue {
        let index = self.index;
        for (v, w) in index.entries.iter().rev() {
            if self.degree_of(w).is_some() {
                return *v;
            }
        }
        panic!(
            "no admissible value among {} replies — protocol invariant broken",
            self.mask.count_ones()
        );
    }

    /// Degree probe sharing one masked-and-sorted witness list across all
    /// degrees of this candidate.
    fn degree_of(&mut self, w: &ValueWitness) -> Option<usize> {
        let containing = (w.containing & self.mask).count_ones() as usize;
        if containing == 0 {
            return None;
        }
        self.scratch.clear();
        self.scratch
            .extend(w.witnesses.iter().map(|e| e.1 & self.mask).filter(|m| *m != 0));
        self.scratch
            .sort_unstable_by_key(|m| std::cmp::Reverse(m.count_ones()));
        for a in 1..=self.max_degree {
            let needed = self.servers.saturating_sub(a * self.max_faults).max(1);
            if containing < needed {
                continue;
            }
            // Only clients whose own mask reaches the threshold can join a
            // witness set; sorted by popcount, they form a prefix that only
            // grows as the degree rises (needed falls).
            let eligible = self
                .scratch
                .partition_point(|m| m.count_ones() as usize >= needed);
            if eligible < a {
                continue;
            }
            if search(&self.scratch[..eligible], 0, u128::MAX, a, needed) {
                return Some(a);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ValueRecord;
    use mwr_types::{Tag, Value, WriterId};

    fn tv(ts: u64, w: u32, v: u64) -> TaggedValue {
        TaggedValue::new(Tag::new(ts, WriterId::new(w)), Value::new(v))
    }

    /// Builds one snapshot from (value, updated-clients) pairs.
    fn snap(entries: &[(TaggedValue, &[ClientId])]) -> Snapshot {
        Snapshot {
            entries: entries
                .iter()
                .map(|(v, cs)| ValueRecord { value: *v, updated: (*cs).into() })
                .collect(),
        }
    }

    /// The indexed evaluation of the same replies, for the paired asserts.
    fn indexed(replies: &[Snapshot], servers: usize, t: usize, max_degree: usize) -> (WitnessIndex, u128, usize, usize, usize) {
        let (index, mask) = WitnessIndex::from_views(replies.iter().map(SnapshotSource::view));
        (index, mask, servers, t, max_degree)
    }

    fn indexed_degree(replies: &[Snapshot], servers: usize, t: usize, max_degree: usize, v: TaggedValue) -> Option<usize> {
        let (index, mask, s, t, d) = indexed(replies, servers, t, max_degree);
        index.selector(&mut Vec::new(), mask, s, t, d).degree(v)
    }

    const W0: ClientId = ClientId::writer(0);
    const R0: ClientId = ClientId::reader(0);
    const R1: ClientId = ClientId::reader(1);

    #[test]
    fn full_quorum_with_common_writer_is_degree_one() {
        let v = tv(1, 0, 10);
        // S = 5, t = 1: quorum 4. All four replies contain v with w0.
        let replies = vec![
            snap(&[(v, &[W0])]),
            snap(&[(v, &[W0])]),
            snap(&[(v, &[W0])]),
            snap(&[(v, &[W0])]),
        ];
        let adm = Admissibility::new(&replies, 5, 1, 3);
        assert_eq!(adm.degree(v), Some(1));
        assert_eq!(indexed_degree(&replies, 5, 1, 3, v), Some(1));
    }

    #[test]
    fn partial_coverage_needs_higher_degree() {
        let v = tv(1, 0, 10);
        let other = tv(0, 0, 0);
        // S = 5, t = 1. Only 3 replies contain v (≥ S − 2t = 3), each with
        // two common witnesses {w0, r0}: degree 2, not degree 1.
        let replies = vec![
            snap(&[(v, &[W0, R0])]),
            snap(&[(v, &[W0, R0])]),
            snap(&[(v, &[W0, R0])]),
            snap(&[(other, &[R0])]),
        ];
        let adm = Admissibility::new(&replies, 5, 1, 3);
        assert!(!adm.admissible_with_degree(v, 1));
        assert!(adm.admissible_with_degree(v, 2));
        assert_eq!(adm.degree(v), Some(2));
        assert_eq!(indexed_degree(&replies, 5, 1, 3, v), Some(2));
    }

    #[test]
    fn one_common_witness_cannot_support_degree_two() {
        let v = tv(1, 0, 10);
        // 3 of 4 replies contain v but the only common client is w0:
        // degree 2 requires two common witnesses.
        let replies = vec![
            snap(&[(v, &[W0, R0])]),
            snap(&[(v, &[W0, R1])]),
            snap(&[(v, &[W0])]),
            snap(&[]),
        ];
        let adm = Admissibility::new(&replies, 5, 1, 3);
        assert!(!adm.admissible_with_degree(v, 2));
        // …but degree 1 also fails (only 3 < S − t = 4 replies contain v).
        assert_eq!(adm.degree(v), None);
        assert_eq!(indexed_degree(&replies, 5, 1, 3, v), None);
    }

    #[test]
    fn witness_subsets_are_searched_not_just_global_intersection() {
        let v = tv(1, 0, 10);
        // S = 4, t = 1, degree 2 needs |µ| ≥ 2 with 2 common witnesses.
        // Global intersection over all three replies is {w0} (too small),
        // but µ = {reply0, reply1} has {w0, r0} in common.
        let replies = vec![
            snap(&[(v, &[W0, R0])]),
            snap(&[(v, &[W0, R0])]),
            snap(&[(v, &[W0, R1])]),
        ];
        let adm = Admissibility::new(&replies, 4, 1, 3);
        assert!(adm.admissible_with_degree(v, 2));
        assert_eq!(indexed_degree(&replies, 4, 1, 3, v), adm.degree(v));
    }

    #[test]
    fn initial_value_with_reader_registration_is_always_admissible() {
        let init = TaggedValue::initial();
        // Every replying server registered the reader before replying.
        let replies: Vec<Snapshot> = (0..4).map(|_| snap(&[(init, &[R0])])).collect();
        let adm = Admissibility::new(&replies, 5, 1, 3);
        assert_eq!(adm.degree(init), Some(1));
        assert_eq!(adm.select_return_value(), init);
        let (index, mask) = WitnessIndex::from_views(replies.iter().map(SnapshotSource::view));
        assert_eq!(index.selector(&mut Vec::new(), mask, 5, 1, 3).select_return_value(), init);
    }

    #[test]
    fn selection_prefers_largest_admissible() {
        let old = tv(1, 0, 10);
        let new = tv(2, 1, 20);
        // `new` is on only 2 of 4 replies with a single witness: not
        // admissible (degree 2 needs 2 witnesses). `old` is everywhere.
        let replies = vec![
            snap(&[(old, &[W0, R0]), (new, &[ClientId::writer(1)])]),
            snap(&[(old, &[W0, R0]), (new, &[ClientId::writer(1)])]),
            snap(&[(old, &[W0, R0])]),
            snap(&[(old, &[W0, R0])]),
        ];
        let adm = Admissibility::new(&replies, 5, 1, 3);
        assert_eq!(adm.degree(new), None);
        assert_eq!(adm.select_return_value(), old);
        assert_eq!(adm.candidates_descending(), vec![new, old]);
        let (index, mask) = WitnessIndex::from_views(replies.iter().map(SnapshotSource::view));
        let mut scratch = Vec::new();
        let mut sel = index.selector(&mut scratch, mask, 5, 1, 3);
        assert_eq!(sel.degree(new), None);
        assert_eq!(sel.max_candidate(), Some(new));
        assert_eq!(sel.select_return_value(), old);
    }

    #[test]
    fn degree_zero_is_never_admissible() {
        let v = tv(1, 0, 1);
        let replies = vec![snap(&[(v, &[W0])])];
        let adm = Admissibility::new(&replies, 2, 0, 2);
        assert!(!adm.admissible_with_degree(v, 0));
    }

    #[test]
    fn zero_faults_requires_all_servers_for_degree_one() {
        let v = tv(1, 0, 1);
        // t = 0: needed = S for every degree; 2 of 3 replies contain v.
        let replies = vec![snap(&[(v, &[W0])]), snap(&[(v, &[W0])]), snap(&[])];
        let adm = Admissibility::new(&replies, 3, 0, 2);
        assert_eq!(adm.degree(v), None);
        assert_eq!(indexed_degree(&replies, 3, 0, 2, v), None);
        let full: Vec<Snapshot> = (0..3).map(|_| snap(&[(v, &[W0])])).collect();
        let adm = Admissibility::new(&full, 3, 0, 2);
        assert_eq!(adm.degree(v), Some(1));
        assert_eq!(indexed_degree(&full, 3, 0, 2, v), Some(1));
    }

    #[test]
    #[should_panic(expected = "no admissible value")]
    fn empty_replies_panic_on_selection() {
        let replies: Vec<Snapshot> = vec![Snapshot::default()];
        Admissibility::new(&replies, 3, 1, 2).select_return_value();
    }

    #[test]
    #[should_panic(expected = "no admissible value")]
    fn selector_panics_like_the_reference_on_empty_replies() {
        let replies: Vec<Snapshot> = vec![Snapshot::default()];
        let (index, mask) = WitnessIndex::from_views(replies.iter().map(SnapshotSource::view));
        index.selector(&mut Vec::new(), mask, 3, 1, 2).select_return_value();
    }

    #[test]
    fn naive_evaluator_reads_cached_views_too() {
        // The seam: the reference evaluator runs directly over caches.
        let v = tv(1, 0, 7);
        let mut cache = SnapshotCache::new();
        cache.merge(&crate::msg::DeltaSnapshot {
            from: 0,
            version: 1,
            latest: v,
            pruned: TaggedValue::initial(),
            entries: vec![ValueRecord { value: v, updated: vec![W0].into() }].into(),
        });
        let caches = vec![cache.clone(), cache.clone()];
        let adm = Admissibility::new(&caches, 3, 1, 2);
        assert_eq!(adm.degree(v), Some(1));
        assert_eq!(adm.select_return_value(), v);
    }

    #[test]
    fn index_masks_out_slots_that_did_not_reply() {
        let v = tv(1, 0, 10);
        // 4 slots hold v, but only slots {0, 1} replied: S = 5, t = 1 needs
        // 4 containing replies for degree 1 — masked down to 2, nothing is
        // admissible; with all slots it is.
        let replies: Vec<Snapshot> = (0..4).map(|_| snap(&[(v, &[W0])])).collect();
        let (index, mask) = WitnessIndex::from_views(replies.iter().map(SnapshotSource::view));
        assert_eq!(index.selector(&mut Vec::new(), mask, 5, 1, 3).degree(v), Some(1));
        assert_eq!(index.selector(&mut Vec::new(), 0b11, 5, 1, 3).degree(v), None);
        assert_eq!(index.selector(&mut Vec::new(), 0b11, 5, 1, 3).max_candidate(), Some(v));
        assert_eq!(index.selector(&mut Vec::new(), 0, 5, 1, 3).max_candidate(), None);
    }

    #[test]
    fn eviction_drops_masks_and_empty_values() {
        let v = tv(1, 0, 10);
        let mut index = WitnessIndex::new();
        index.record_witness(0, v, W0);
        index.record_witness(1, v, W0);
        index.record_witness(1, v, R0);
        assert_eq!(index.len(), 1);
        index.evict(1, v);
        // Slot 0 still holds it, with w0 only.
        assert_eq!(index.selector(&mut Vec::new(), 0b1, 1, 0, 1).degree(v), Some(1));
        assert_eq!(index.selector(&mut Vec::new(), 0b10, 2, 1, 1).degree(v), None);
        index.evict(0, v);
        assert!(index.is_empty(), "no slot holds the value any more");
        assert_eq!(index.values_in(u128::MAX).count(), 0);
    }

    #[test]
    fn bitmask_boundary_slot_127_works_and_128_panics() {
        let v = tv(1, 0, 1);
        let mut index = WitnessIndex::new();
        index.record_witness(127, v, W0);
        let mut scratch = Vec::new();
        assert_eq!(index.selector(&mut scratch, mask_of(128), 128, 0, 1).max_candidate(), Some(v));
        // 128 one-reply snapshots is the widest supported read.
        let replies: Vec<Snapshot> = (0..128).map(|_| snap(&[(v, &[W0])])).collect();
        let (wide, mask) = WitnessIndex::from_views(replies.iter().map(SnapshotSource::view));
        assert_eq!(mask, u128::MAX);
        assert_eq!(wide.selector(&mut Vec::new(), mask, 128, 0, 1).degree(v), Some(1));
        assert!(std::panic::catch_unwind(|| {
            let mut index = WitnessIndex::new();
            index.record_value(128, v);
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| mask_of(129)).is_err());
        let too_many: Vec<Snapshot> = (0..129).map(|_| snap(&[])).collect();
        assert!(std::panic::catch_unwind(|| {
            WitnessIndex::from_views(too_many.iter().map(SnapshotSource::view))
        })
        .is_err());
    }

    #[test]
    fn values_in_respects_the_mask() {
        let a = tv(1, 0, 1);
        let b = tv(2, 0, 2);
        let mut index = WitnessIndex::new();
        index.record_value(0, a);
        index.record_value(1, b);
        assert_eq!(index.values_in(0b01).collect::<Vec<_>>(), vec![a]);
        assert_eq!(index.values_in(0b10).collect::<Vec<_>>(), vec![b]);
        assert_eq!(index.values_in(0b11).collect::<Vec<_>>(), vec![a, b]);
    }
}
