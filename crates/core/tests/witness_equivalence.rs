//! Property pins for the incremental fast-read selection: the
//! [`WitnessIndex`]/[`WitnessSelector`] production path must agree with the
//! naive [`Admissibility`] reference on every degree probe and on the
//! selected return value, and the index maintained *incrementally* across
//! delta merges (with GC pruning) must equal the index rebuilt from scratch
//! over the resulting caches.
//!
//! The naive evaluator rebuilds its witness bitmasks per `(candidate,
//! degree)` pair — it is the executable form of Algorithm 1's definition —
//! so agreement here is what lets the clients run the indexed path while
//! `tests/facade_equivalence.rs` pins whole event streams.

use std::collections::{BTreeMap, BTreeSet};

use mwr_core::{
    Admissibility, DeltaSnapshot, FastReadState, Snapshot, SnapshotCache, SnapshotSource,
    ValueRecord, WitnessIndex,
};
use mwr_types::{ClientId, ServerId, Tag, TaggedValue, Value, WriterId};

use proptest::collection::vec;
use proptest::prelude::*;

/// Distinct non-initial candidate values; index `POOL` is the initial value.
const POOL: usize = 6;

fn pool_value(i: usize) -> TaggedValue {
    if i >= POOL {
        TaggedValue::initial()
    } else {
        TaggedValue::new(Tag::new(i as u64 + 1, WriterId::new((i % 2) as u32)), Value::new(i as u64))
    }
}

/// Bit `b` of `bits` registers client `b` (readers 0–3, writers 0–3).
fn clients_of(bits: u16) -> impl Iterator<Item = ClientId> {
    (0..8u32).filter(move |b| bits & (1 << b) != 0).map(|b| {
        if b < 4 {
            ClientId::reader(b)
        } else {
            ClientId::writer(b - 4)
        }
    })
}

/// One snapshot from raw `(value index, client bits)` pairs, deduplicated
/// by value exactly like a server store would hold it.
fn snapshot(raw: &[(usize, u16)]) -> Snapshot {
    let mut entries: BTreeMap<TaggedValue, BTreeSet<ClientId>> = BTreeMap::new();
    for &(v, bits) in raw {
        entries.entry(pool_value(v)).or_default().extend(clients_of(bits));
    }
    Snapshot {
        entries: entries
            .into_iter()
            .map(|(value, updated)| ValueRecord {
                value,
                updated: updated.into_iter().collect(),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Per-read equivalence: the index built once over borrowed replies
    /// answers every degree probe, the max-candidate query, and the full
    /// selection walk exactly like the naive reference.
    #[test]
    fn index_matches_naive_reference(
        raw in vec(vec((0usize..7, 0u16..256), 0..6), 1..10),
        servers in 3usize..13,
        faults in 0usize..3,
        max_degree in 1usize..6,
    ) {
        let replies: Vec<Snapshot> = raw.iter().map(|r| snapshot(r)).collect();
        let naive = Admissibility::new(&replies, servers, faults, max_degree);
        let (index, mask) = WitnessIndex::from_views(replies.iter().map(SnapshotSource::view));
        let mut scratch = Vec::new();
        let mut sel = index.selector(&mut scratch, mask, servers, faults, max_degree);

        let mut any_admissible = false;
        for i in 0..=POOL {
            let v = pool_value(i);
            let naive_degree = naive.degree(v);
            prop_assert_eq!(sel.degree(v), naive_degree, "degree({}) diverged", v);
            any_admissible |= naive_degree.is_some();
        }
        prop_assert_eq!(sel.max_candidate(), naive.candidates_descending().first().copied());
        if any_admissible {
            prop_assert_eq!(sel.select_return_value(), naive.select_return_value());
        }
    }

    /// Maintenance equivalence: merging an arbitrary interleaving of deltas
    /// (additions, registrations, version bumps, GC pruning) through
    /// `FastReadState` leaves exactly the index a from-scratch rebuild over
    /// the resulting caches produces — and selection over it agrees with
    /// the naive reference run on any replied subset of those caches.
    #[test]
    fn incremental_index_equals_rebuild_across_merges(
        deltas in vec(
            (
                0usize..4,                                  // server
                vec((0usize..7, 0u16..256), 0..4),          // delta entries
                0u64..20,                                   // version
                0usize..8,                                  // pruned (7 = initial)
                0usize..7,                                  // latest
            ),
            0..14,
        ),
        replied_bits in 1u8..16,
        servers in 4usize..9,
        faults in 0usize..3,
        max_degree in 1usize..5,
    ) {
        let mut state = FastReadState::new(8);
        let mut mirror: BTreeMap<ServerId, SnapshotCache> = BTreeMap::new();
        for s in 0..4u32 {
            state.cache(ServerId::new(s));
            mirror.insert(ServerId::new(s), SnapshotCache::new());
        }
        for (server, entries, version, pruned, latest) in &deltas {
            let snap = snapshot(entries);
            let delta = DeltaSnapshot {
                from: 0,
                version: *version,
                latest: pool_value(*latest),
                pruned: pool_value((*pruned).min(POOL)),
                entries: snap.entries.into(),
            };
            let sid = ServerId::new(*server as u32);
            state.merge(sid, &delta);
            mirror.get_mut(&sid).unwrap().merge(&delta);
        }

        // The incrementally-maintained index is byte-for-byte the rebuild.
        let (rebuilt, full_mask) =
            WitnessIndex::from_views(mirror.values().map(SnapshotSource::view));
        prop_assert_eq!(full_mask, 0b1111);
        prop_assert_eq!(state.index(), &rebuilt);

        // Selection over any replied subset matches the naive reference
        // evaluated directly on the replying caches (no reconstruction).
        let replied_caches: Vec<SnapshotCache> = mirror
            .iter()
            .filter(|(s, _)| replied_bits & (1 << s.index()) != 0)
            .map(|(_, c)| c.clone())
            .collect();
        let naive = Admissibility::new(&replied_caches, servers, faults, max_degree);
        let mut sel = state.selector(replied_bits as u128, servers, faults, max_degree);
        let mut any_admissible = false;
        for i in 0..=POOL {
            let v = pool_value(i);
            let naive_degree = naive.degree(v);
            prop_assert_eq!(sel.degree(v), naive_degree, "degree({}) diverged", v);
            any_admissible |= naive_degree.is_some();
        }
        prop_assert_eq!(sel.max_candidate(), naive.candidates_descending().first().copied());
        if any_admissible {
            prop_assert_eq!(sel.select_return_value(), naive.select_return_value());
        }

        // GC floors must evict index entries: nothing below every cache's
        // floor (unless resurrected as a `latest`) survives in the index.
        for v in state.index().values_in(u128::MAX) {
            prop_assert!(
                mirror.values().any(|c| c.knows(v)),
                "index holds {} but no cache does", v
            );
        }
    }

    /// Mirror equivalence: what `FastReadState` answers about each server —
    /// which values it holds, the acknowledged version, and the next
    /// request's `new_values` — is exactly what a `SnapshotCache` fed the
    /// same deltas answers, through resets (a rejoined server) and through
    /// records that arrive out of tag order (a non-conforming peer).
    #[test]
    fn reader_state_answers_like_per_server_mirrors(
        moves in vec(
            (
                0usize..4,                                  // server
                vec((0usize..7, 0u16..256), 0..5),          // delta entries
                0u64..20,                                   // version
                0usize..8,                                  // pruned (7 = initial)
                0usize..7,                                  // latest
                0u8..8,      // 0 reset, 1–2 descending, 3 repeated, else ascending
            ),
            0..16,
        ),
        queue_bits in 0u8..128,
    ) {
        let mut state = FastReadState::new(8);
        let mut mirror: BTreeMap<ServerId, SnapshotCache> = BTreeMap::new();
        for (server, entries, version, pruned, latest, kind) in &moves {
            let sid = ServerId::new(*server as u32);
            let cache = mirror.entry(sid).or_default();
            if *kind == 0 {
                state.reset(sid);
                *cache = SnapshotCache::new();
                continue;
            }
            let mut records = snapshot(entries).entries;
            match kind {
                1 | 2 => records.reverse(),
                3 => records.extend(records.clone()),
                _ => {}
            }
            let delta = DeltaSnapshot {
                from: 0,
                version: *version,
                latest: pool_value(*latest),
                pruned: pool_value((*pruned).min(POOL)),
                entries: records.into(),
            };
            state.merge(sid, &delta);
            cache.merge(&delta);
        }

        let queue: BTreeSet<TaggedValue> =
            (0..=POOL).filter(|i| queue_bits & (1 << i) != 0).map(pool_value).collect();
        for s in 0..4u32 {
            let sid = ServerId::new(s);
            let expect = mirror.get(&sid).cloned().unwrap_or_default();
            let cache = state.cache(sid);
            for i in 0..=POOL {
                let v = pool_value(i);
                prop_assert_eq!(cache.knows(v), expect.knows(v), "server {} knows({})", s, v);
            }
            prop_assert_eq!(cache.acked_version(), expect.acked_version(), "server {}", s);
            prop_assert_eq!(cache.unacknowledged(&queue), expect.unacknowledged(&queue));
            mirror.insert(sid, expect);
        }
        let (rebuilt, _) = WitnessIndex::from_views(mirror.values().map(SnapshotSource::view));
        prop_assert_eq!(state.index(), &rebuilt);
    }
}
