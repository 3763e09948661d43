//! Integration: the keyspace's routing and wire-format invariants hold on
//! adversarial inputs.
//!
//! Three families of properties keep the sharded keyspace sound:
//!
//! - **Routing determinism** — a [`Router`] is a pure function of the
//!   keyspace shape. Two independently constructed routers (different
//!   processes, restarts, rejoining servers) must agree on every key's
//!   shard and group, or clients and recovering servers would talk past
//!   each other.
//! - **Shard balance** — rendezvous hashing must spread keys across
//!   shards without pathological hot spots, or "sharding" buys nothing.
//! - **Wire round-trip** — the [`Msg::ForRegister`] frame header must
//!   round-trip for every register id, and legacy single-register frames
//!   (discriminants 0–13) must decode unchanged, so a v1 peer still
//!   interoperates with a keyspace server.

use bytes::BytesMut;
use mwr::core::{Msg, OpHandle, OpId, Router, Snapshot, ValueRecord};
use mwr::types::codec::Wire;
use mwr::types::{ClientId, RegisterId, ServerId, Tag, TaggedValue, Value, WriterId};

use proptest::prelude::*;

/// A valid keyspace shape: `servers ≥ 3`, `1 ≤ group ≤ servers`, and a
/// shard count that keeps group enumeration cheap. The group size is
/// derived from a free draw so it always lands in range for the drawn
/// server count.
fn shape_strategy() -> impl Strategy<Value = (usize, usize, usize)> {
    (3usize..=16, any::<u32>(), 1usize..=64)
        .prop_map(|(servers, group_draw, shards)| {
            let group = 1 + group_draw as usize % servers;
            (servers, group, shards)
        })
}

fn tv(ts: u64, w: u32, v: u64) -> TaggedValue {
    TaggedValue::new(Tag::new(ts, WriterId::new(w)), Value::new(v))
}

fn handle(seq: u64, phase: u8) -> OpHandle {
    OpHandle { op: OpId { client: ClientId::writer(0), seq }, phase }
}

/// A sample of inner protocol messages a [`Msg::ForRegister`] frame can
/// carry, parameterized enough to exercise variable-length payloads.
fn inner_strategy() -> impl Strategy<Value = Msg> {
    (0usize..6, any::<u64>(), 0u64..1_000, 0u32..8, any::<u64>()).prop_map(
        |(variant, seq, ts, w, v)| {
            let phase = (seq % 3) as u8 + 1;
            match variant {
                0 => Msg::Query { handle: handle(seq, phase) },
                1 => Msg::Update {
                    handle: handle(seq, phase),
                    value: tv(ts, w, v),
                    floor: tv(ts / 2, w, v / 2),
                },
                2 => Msg::QueryAck { handle: handle(seq, phase), latest: tv(ts, w, v) },
                3 => Msg::UpdateAck { handle: handle(seq, phase) },
                4 => Msg::ReadFastDelta {
                    handle: handle(seq, phase),
                    acked: ts,
                    floor: tv(ts, w, v),
                    new_values: vec![tv(ts + 1, w, v), tv(ts + 2, w, v)],
                },
                _ => Msg::ReadFastAck {
                    handle: handle(seq, phase),
                    snapshot: Snapshot {
                        entries: vec![ValueRecord {
                            value: tv(ts, w, v),
                            updated: vec![ClientId::reader(0), ClientId::writer(1)].into(),
                        }],
                    },
                },
            }
        },
    )
}

/// Encodes `msg` and decodes it back, asserting the `encoded_len`
/// contract along the way.
fn round_trip(msg: &Msg) -> Msg {
    let mut buf = BytesMut::new();
    msg.encode(&mut buf);
    assert_eq!(buf.len(), msg.encoded_len(), "encoded_len must match bytes written");
    let mut bytes: &[u8] = &buf;
    let decoded = Msg::decode(&mut bytes).expect("decode what we encoded");
    assert!(bytes.is_empty(), "decode must consume the whole frame");
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same keyspace shape → same routing, from independently constructed
    /// routers: what a client process and a rejoining server each compute
    /// locally must agree.
    #[test]
    fn routing_is_deterministic_across_router_instances(
        shape in shape_strategy(),
        raw_keys in proptest::collection::vec(any::<u32>(), 1..32),
    ) {
        let (servers, group, shards) = shape;
        let a = Router::new(servers as u32, group as u32, shards as u32);
        let b = Router::new(servers as u32, group as u32, shards as u32);
        for &raw in &raw_keys {
            let key = RegisterId::new(raw);
            prop_assert_eq!(a.shard_of(key), b.shard_of(key));
            prop_assert_eq!(a.group_of(key), b.group_of(key));
            // The group is exactly `group` distinct in-range servers.
            let members = a.group_of(key);
            prop_assert_eq!(members.len(), group);
            let mut seen = std::collections::BTreeSet::new();
            for s in &members {
                prop_assert!((s.index() as usize) < servers, "member in range");
                prop_assert!(seen.insert(*s), "members distinct");
            }
        }
    }

    /// Group membership and the server-side shard inventory are two views
    /// of the same assignment: `s ∈ group(shard)` iff `shard ∈ shards_on(s)`.
    #[test]
    fn group_membership_matches_the_shard_inventory(shape in shape_strategy()) {
        let (servers, group, shards) = shape;
        let router = Router::new(servers as u32, group as u32, shards as u32);
        for s in 0..servers as u32 {
            let server = ServerId::new(s);
            let inventory: std::collections::BTreeSet<u32> =
                router.shards_on(server).into_iter().collect();
            for shard in 0..shards as u32 {
                let member = router.group(shard).contains(&server);
                prop_assert_eq!(
                    member,
                    inventory.contains(&shard),
                    "server {} shard {}: group says {}, inventory says {}",
                    s, shard, member, inventory.contains(&shard),
                );
            }
        }
    }

    /// Sequential register ids (the workload's key pattern) spread across
    /// shards without a pathological hot spot: no shard sees more than 4x
    /// its fair share of 2048 keys, and no shard starves below a quarter.
    #[test]
    fn shard_load_stays_balanced_under_sequential_keys(
        shards in 2usize..=32,
    ) {
        const KEYS: usize = 2048;
        let router = Router::new(11, 5, shards as u32);
        let mut load = vec![0usize; shards];
        for k in 0..KEYS as u32 {
            load[router.shard_of(RegisterId::new(k)) as usize] += 1;
        }
        let fair = KEYS as f64 / shards as f64;
        let max = *load.iter().max().expect("non-empty") as f64;
        let min = *load.iter().min().expect("non-empty") as f64;
        prop_assert!(
            max <= 4.0 * fair,
            "hottest shard holds {max} of {KEYS} keys (fair share {fair:.0}): {load:?}"
        );
        prop_assert!(
            min >= fair / 4.0,
            "coldest shard holds {min} of {KEYS} keys (fair share {fair:.0}): {load:?}"
        );
    }

    /// The wire-version-2 frame header round-trips for any register id and
    /// any inner message shape.
    #[test]
    fn for_register_frames_round_trip(
        register in any::<u32>(),
        inner in inner_strategy(),
    ) {
        let framed = Msg::ForRegister {
            register: RegisterId::new(register),
            inner: Box::new(inner.clone()),
        };
        prop_assert_eq!(round_trip(&framed), framed);
        // The header costs exactly the discriminant byte plus the compact
        // register id.
        let overhead = framed.encoded_len() - inner.encoded_len();
        prop_assert_eq!(overhead, 5, "frame header is discriminant + u32 register id");
    }

    /// Legacy single-register frames (discriminants 0–13) decode unchanged
    /// next to the new keyspace discriminants: upgrading the wire version
    /// never re-interprets an old frame.
    #[test]
    fn legacy_frames_decode_unchanged(inner in inner_strategy()) {
        prop_assert_eq!(round_trip(&inner), inner);
    }
}
