//! Criterion bench: wire-codec encode/decode throughput for the protocol
//! messages the live transport moves, so codec regressions are visible
//! independent of sockets and threads.
//!
//! The interesting contrast is the fast read's two wire formats: a
//! full-info `ReadFastAck` ships the server's whole store (O(history)
//! payload), a `ReadFastDelta`/`ReadFastDeltaAck` pair ships O(new
//! information). The small fixed-size messages (`Update`/`UpdateAck`) are
//! the per-operation floor every protocol pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bytes::BytesMut;
use mwr_core::{DeltaSnapshot, Msg, OpHandle, OpId, Snapshot, ValueRecord};
use mwr_types::codec::Wire;
use mwr_types::{ClientId, Tag, TaggedValue, Value, WriterId};

fn handle() -> OpHandle {
    OpHandle { op: OpId { client: ClientId::reader(0), seq: 42 }, phase: 1 }
}

fn tv(ts: u64, v: u64) -> TaggedValue {
    TaggedValue::new(Tag::new(ts, WriterId::new((ts % 2) as u32)), Value::new(v))
}

/// A store of `entries` values, each registered by `witnesses` clients —
/// the payload shape a long-running full-info server reports.
fn records(entries: usize, witnesses: usize) -> Vec<ValueRecord> {
    (0..entries)
        .map(|i| ValueRecord {
            value: tv(i as u64 + 1, i as u64),
            updated: (0..witnesses).map(|w| ClientId::reader(w as u32)).collect(),
        })
        .collect()
}

/// The messages the transport moves, from the per-op floor to the
/// O(history) full-info snapshot against its O(new) delta replacement.
fn messages(entries: usize) -> Vec<(&'static str, Msg)> {
    vec![
        ("update", Msg::Update { handle: handle(), value: tv(7, 7), floor: tv(3, 3) }),
        ("update_ack", Msg::UpdateAck { handle: handle() }),
        (
            "read_fast_ack_full",
            Msg::ReadFastAck { handle: handle(), snapshot: Snapshot { entries: records(entries, 4) } },
        ),
        (
            "read_fast_delta",
            Msg::ReadFastDelta { handle: handle(), acked: 17, floor: tv(3, 3), new_values: vec![tv(9, 9)] },
        ),
        (
            "read_fast_delta_ack",
            Msg::ReadFastDeltaAck {
                handle: handle(),
                delta: DeltaSnapshot {
                    from: 17,
                    version: 21,
                    latest: tv(9, 9),
                    pruned: tv(2, 2),
                    // A delta carries only the newly registered pairs.
                    entries: records(2, 1).into(),
                },
            },
        ),
    ]
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_encode");
    for (name, msg) in messages(64) {
        let mut buf = BytesMut::with_capacity(msg.encoded_len());
        group.bench_with_input(BenchmarkId::from_parameter(name), &msg, |b, msg| {
            b.iter(|| {
                buf.clear();
                msg.encode(&mut buf);
                buf.len()
            })
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_decode");
    for (name, msg) in messages(64) {
        let bytes = msg.to_bytes();
        group.bench_with_input(BenchmarkId::from_parameter(name), &bytes, |b, bytes| {
            b.iter(|| {
                let mut cursor: &[u8] = bytes;
                Msg::decode(&mut cursor).expect("decode")
            })
        });
    }
    group.finish();
}

/// Full-info ack encode cost as the store grows — the O(history) curve the
/// delta wire flattens.
fn bench_full_info_growth(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_full_info_growth");
    for entries in [16usize, 64, 256] {
        let msg = Msg::ReadFastAck {
            handle: handle(),
            snapshot: Snapshot { entries: records(entries, 4) },
        };
        let mut buf = BytesMut::with_capacity(msg.encoded_len());
        group.bench_with_input(BenchmarkId::from_parameter(entries), &msg, |b, msg| {
            b.iter(|| {
                buf.clear();
                msg.encode(&mut buf);
                buf.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode, bench_full_info_growth);
criterion_main!(benches);
