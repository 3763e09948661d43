//! Criterion bench: the `admissible(·)` predicate (ablation of the fast
//! read's extra decision cost over a plain max-tag slow read), for both
//! evaluators:
//!
//! - `admissible_select` — the naive reference ([`Admissibility`]), which
//!   rebuilds witness bitmasks per (candidate, degree) probe;
//! - `witness_build_select` — `WitnessIndex::from_views` + one selection
//!   walk (the full-info wire's per-read cost);
//! - `witness_incremental_select` — selection over a standing index (the
//!   delta wire's steady-state cost, with index maintenance amortized into
//!   merges).
//!
//! `admissible_smoke --assert-admissible-floor` is the CI-gated subset of
//! these curves. The index maintenance itself is `fast_read_merge`: one
//! read's worth of `FastReadState::merge` calls at `sim-wide`'s shape; the
//! server's side of the same round is `server_fast_read`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mwr_bench::synthetic_replies;
use mwr_core::{
    Admissibility, DeltaSnapshot, FastReadState, Msg, OpHandle, OpId, RegisterServer, Snapshot,
    SnapshotSource, ValueRecord, WitnessIndex,
};
use mwr_types::{ClientId, ProcessId, ServerId, Tag, TaggedValue, Value, WriterId};

fn bench_admissible(c: &mut Criterion) {
    let shapes = [(5usize, 1usize, 2usize), (9, 2, 2), (13, 3, 2), (25, 4, 2)];

    let mut group = c.benchmark_group("admissible_select");
    for (servers, t, readers) in shapes {
        let quorum = servers - t;
        let snaps = synthetic_replies(quorum, 8, readers + 2);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("S{servers}_t{t}")),
            &snaps,
            |b, snaps| {
                b.iter(|| {
                    Admissibility::new(snaps, servers, t, readers + 1).select_return_value()
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("witness_build_select");
    for (servers, t, readers) in shapes {
        let quorum = servers - t;
        let snaps = synthetic_replies(quorum, 8, readers + 2);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("S{servers}_t{t}")),
            &snaps,
            |b, snaps| {
                b.iter(|| {
                    let (index, mask) =
                        WitnessIndex::from_views(snaps.iter().map(SnapshotSource::view));
                    index
                        .selector(&mut Vec::new(), mask, servers, t, readers + 1)
                        .select_return_value()
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("witness_incremental_select");
    for (servers, t, readers) in shapes {
        let quorum = servers - t;
        let snaps = synthetic_replies(quorum, 8, readers + 2);
        let (index, mask) = WitnessIndex::from_views(snaps.iter().map(SnapshotSource::view));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("S{servers}_t{t}")),
            &(index, mask),
            |b, (index, mask)| {
                let mut scratch = Vec::new();
                b.iter(|| {
                    let mut sel = index.selector(&mut scratch, *mask, servers, t, readers + 1);
                    sel.select_return_value()
                })
            },
        );
    }
    group.finish();

    // Slow-read baseline for the ablation: picking the max tag only.
    let mut group = c.benchmark_group("slow_read_max_baseline");
    let snaps = synthetic_replies(12, 8, 4);
    group.bench_function("max_tag", |b| {
        b.iter(|| snaps.iter().filter_map(Snapshot::max_value).max())
    });
    group.finish();
}

/// One fast read's index maintenance at `sim-wide`'s measured shape
/// (S = 11, t = 1, 8 writers × 8 readers): a reader whose index holds 22
/// values merges one delta from each of the 10 servers of its quorum, each
/// carrying 15 records (7 of them new values) with 52 new registrations and
/// a GC floor that evicts 6 values from that server's slot. `clone` is the
/// set-up every iteration repeats (the merges consume the state); the
/// merge cost is `S11_read` minus `clone`.
fn bench_fast_read_merge(c: &mut Criterion) {
    let tv = |ts: u64| TaggedValue::new(Tag::new(ts, WriterId::new(ts as u32 % 8)), Value::new(ts));
    let writers = |ts: u64| vec![ClientId::writer(ts as u32 % 8)];
    let servers: Vec<ServerId> = (0..11).map(ServerId::new).collect();

    // Standing state: every server holds the initial value and v1..v21,
    // each registered with its writer.
    let mut standing = FastReadState::new(16);
    for &s in &servers {
        let entries = (1..=21).map(|ts| ValueRecord { value: tv(ts), updated: writers(ts).into() }).collect();
        standing.merge(
            s,
            &DeltaSnapshot { from: 0, version: 21, latest: tv(21), pruned: TaggedValue::initial(), entries },
        );
    }
    assert_eq!(standing.index().len(), 22);

    // The read's delta: v14..v28 (v22.. new), readers registered on each —
    // four on the first seven records, three on the rest (52 pairs) — and
    // a floor at v6, which evicts the initial value and v1..v5.
    let entries: Vec<ValueRecord> = (14..=28)
        .map(|ts| {
            let readers = if ts < 21 { 4 } else { 3 };
            ValueRecord { value: tv(ts), updated: (0..readers).map(ClientId::reader).collect() }
        })
        .collect();
    assert_eq!(entries.iter().map(|r| r.updated.len()).sum::<usize>(), 52);
    let entries = entries.into();
    let delta = DeltaSnapshot { from: 21, version: 80, latest: tv(28), pruned: tv(6), entries };

    let mut group = c.benchmark_group("fast_read_merge");
    group.bench_function("clone", |b| b.iter(|| standing.clone()));
    group.bench_function("S11_read", |b| {
        b.iter(|| {
            let mut state = standing.clone();
            for &s in &servers[..10] {
                state.merge(s, &delta);
            }
            state
        })
    });
    group.finish();
}

/// One fast read's server side at `sim-wide`'s measured shape (8 writers ×
/// 8 readers, GC on): a `ReadFastRuns` through `RegisterServer::handle` on a
/// server storing 22 values, whose reader catches up on the 8 values
/// first added between its previous two reads and gets a reply carrying
/// 48 registrations. `clone` is the set-up every iteration repeats (the
/// read mutates the server); the read's cost is `read` minus `clone`.
fn bench_server_fast_read(c: &mut Criterion) {
    let tv = |ts: u64| TaggedValue::new(Tag::new(ts, WriterId::new(ts as u32 % 8)), Value::new(ts));
    let op = |client| OpHandle { op: OpId { client, seq: 0 }, phase: 1 };
    let runs = |r: u32, acked, floor| Msg::ReadFastRuns {
        handle: op(ClientId::reader(r)),
        acked,
        floor,
        new_values: Vec::new(),
    };
    let mut server = RegisterServer::with_gc(16);
    let mut acked = [0u64; 8];
    // Round k: eight writes (each writer's floor its previous write), then
    // reads by `readers` in order, their floors thirteen writes behind.
    let rounds: [(u64, &[u32]); 3] =
        [(0, &[0, 1, 2, 3, 4, 5, 6, 7]), (1, &[1, 2, 3, 4, 5, 6, 7, 0]), (2, &[1, 2, 3, 4])];
    for (k, readers) in rounds {
        for ts in 8 * k + 1..=8 * k + 8 {
            let w = ts as u32 % 8;
            let value = tv(ts);
            let floor = tv(ts.saturating_sub(8));
            let update = Msg::Update { handle: op(ClientId::writer(w)), value, floor };
            server.handle(ProcessId::writer(w), &update);
        }
        for &r in readers {
            let floor = tv((8 * k + 8).saturating_sub(13));
            match server.handle(ProcessId::reader(r), &runs(r, acked[r as usize], floor)) {
                Some(Msg::ReadFastRunsAck { delta, .. }) => acked[r as usize] = delta.version,
                other => panic!("not a runs ack: {other:?}"),
            }
        }
    }
    let request = runs(0, acked[0], tv(11));
    let reader = ProcessId::reader(0);
    let Some(Msg::ReadFastRunsAck { delta, .. }) = server.clone().handle(reader, &request) else {
        panic!("not a runs ack")
    };
    let regs = delta.entries.iter().map(|r| r.updated.len()).sum::<usize>();
    assert_eq!((server.state().stored_values(), regs), (22, 48));

    let mut group = c.benchmark_group("server_fast_read");
    group.bench_function("clone", |b| b.iter(|| server.clone()));
    group.bench_function("read", |b| {
        b.iter(|| {
            let mut server = server.clone();
            server.handle(reader, &request);
            server
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_admissible, bench_fast_read_merge, bench_server_fast_read
}
criterion_main!(benches);
