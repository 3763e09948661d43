//! Criterion bench: atomicity checker scaling (graph vs exhaustive search).
//!
//! The histories are clean W2R1 runs, so `graph` measures the checker's
//! fast path (one `O(n log n)` sweep): its 1 k / 4 k / 16 k-op points should
//! grow barely faster than the operation count. `search` stays at ≤ 32 ops.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mwr_bench::random_schedule;
use mwr_check::{check_atomicity, search_atomicity, History};
use mwr_core::Protocol;
use mwr_register::Deployment;
use mwr_types::ClusterConfig;

fn history_of(ops_per_client: usize) -> History {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let cluster = Deployment::new(config).protocol(Protocol::W2R1).sim_cluster().unwrap();
    // The long histories get a horizon that keeps the offered load of the
    // short ones (four clients, ~50 ticks per operation each).
    let horizon = (ops_per_client as u64 * 50).max(1_000);
    let schedule = random_schedule(&config, ops_per_client, horizon, 42);
    let events = cluster.run_schedule(11, &schedule).unwrap();
    History::from_events(&events).unwrap()
}

fn bench_checkers(c: &mut Criterion) {
    let mut group = c.benchmark_group("atomicity_checkers");
    for ops in [2usize, 5, 10, 20, 250, 1_000, 4_000] {
        let history = history_of(ops);
        group.bench_with_input(
            BenchmarkId::new("graph", history.len()),
            &history,
            |b, h| b.iter(|| check_atomicity(h)),
        );
        if history.len() <= 32 {
            group.bench_with_input(
                BenchmarkId::new("search", history.len()),
                &history,
                |b, h| b.iter(|| search_atomicity(h)),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_checkers
}
criterion_main!(benches);
