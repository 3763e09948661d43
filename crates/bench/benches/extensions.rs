//! Micro-benchmarks for the extension layers: Byzantine vouching, the
//! adaptive degree cap selection, and staleness analysis — the ablation
//! costs attached to the features beyond the paper's core algorithms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mwr_almost::StalenessReport;
use mwr_byz::{safe_max_tag, vouched_snapshots};
use mwr_check::History;
use mwr_core::{Protocol, Snapshot, SnapshotSource, ValueRecord, WitnessIndex};
use mwr_register::Deployment;
use mwr_types::{ClientId, ClusterConfig, Tag, TaggedValue, Value, WriterId};
use mwr_workload::{run_closed_loop, WorkloadSpec};

fn snapshots(servers: usize, values: usize, witnesses: usize) -> Vec<Snapshot> {
    (0..servers)
        .map(|s| Snapshot {
            entries: (0..values)
                .map(|v| ValueRecord {
                    value: TaggedValue::new(
                        Tag::new(v as u64 + 1, WriterId::new(((v + s) % 3) as u32)),
                        Value::new(v as u64),
                    ),
                    updated: (0..witnesses).map(|w| ClientId::reader(w as u32)).collect(),
                })
                .collect(),
        })
        .collect()
}

fn bench_vouching(c: &mut Criterion) {
    let mut group = c.benchmark_group("byz_vouching");
    group.sample_size(20);
    for (servers, values) in [(7usize, 8usize), (13, 16), (25, 32)] {
        let snaps = snapshots(servers, values, 3);
        group.bench_with_input(
            BenchmarkId::new("vouched_snapshots", format!("S{servers}xV{values}")),
            &snaps,
            |b, snaps| b.iter(|| vouched_snapshots(std::hint::black_box(snaps), 3)),
        );
    }
    let tags: Vec<Tag> = (0..64).map(|i| Tag::new(i % 11, WriterId::new((i % 5) as u32))).collect();
    group.bench_function("safe_max_tag/64", |b| {
        b.iter(|| safe_max_tag(std::hint::black_box(&tags), 2))
    });
    group.finish();
}

/// What an adaptive read runs on full-info replies (`RoundMachine`'s
/// `ReadMode::Adaptive` arm): index the replies, then the maximum
/// candidate and its degree under the adaptive cap. The naive
/// `Admissibility` reference is timed in `admissible.rs`'s
/// `admissible_select` group.
fn bench_adaptive_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive_selection");
    group.sample_size(20);
    for values in [4usize, 16, 64] {
        let snaps = snapshots(4, values, 3);
        group.bench_with_input(
            BenchmarkId::new("degree_of_max", values),
            &snaps,
            |b, snaps| {
                b.iter(|| {
                    let cap = mwr_core::adaptive_degree_cap(5, 1, 2);
                    let replies = std::hint::black_box(snaps).iter().map(SnapshotSource::view);
                    let (index, mask) = WitnessIndex::from_views(replies);
                    let mut scratch = Vec::new();
                    let mut selector = index.selector(&mut scratch, mask, 5, 1, cap);
                    let max = selector.max_candidate().unwrap();
                    selector.degree(max)
                })
            },
        );
    }
    group.finish();
}

fn bench_staleness_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("staleness_analysis");
    group.sample_size(10);
    // A realistic history from a closed-loop run.
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let cluster = Deployment::new(config).protocol(Protocol::W2R1).sim_cluster().unwrap();
    for ticks in [2_000u64, 8_000] {
        let report = run_closed_loop(
            &cluster,
            WorkloadSpec {
                duration: mwr_sim::SimTime::from_ticks(ticks),
                think_time: mwr_sim::SimTime::from_ticks(10),
                seed: 5,
            },
        )
        .unwrap();
        let history = History::from_events(&report.events).unwrap();
        group.bench_with_input(
            BenchmarkId::new("analyze", history.len()),
            &history,
            |b, h| b.iter(|| StalenessReport::analyze(std::hint::black_box(h))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_vouching, bench_adaptive_selection, bench_staleness_analysis);
criterion_main!(benches);
