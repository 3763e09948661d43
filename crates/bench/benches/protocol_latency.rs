//! Criterion bench: operation cost per protocol (experiment F2 backing).
//!
//! Measures complete simulated runs of a fixed schedule for every protocol
//! in the design space. Wall-clock here tracks simulator work, which is
//! proportional to messages — i.e. to round-trips, the paper's cost metric.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mwr_core::{Protocol, ScheduledOp};
use mwr_register::Deployment;
use mwr_sim::SimTime;
use mwr_types::{ClusterConfig, Value};

fn schedule() -> Vec<(SimTime, ScheduledOp)> {
    let mut ops = Vec::new();
    for i in 0..10u64 {
        ops.push((
            SimTime::from_ticks(i * 40),
            ScheduledOp::Write { writer: (i % 2) as u32, value: Value::new(i + 1) },
        ));
        ops.push((SimTime::from_ticks(i * 40 + 20), ScheduledOp::Read { reader: (i % 2) as u32 }));
    }
    ops
}

fn bench_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_run");
    let schedule = schedule();
    for protocol in Protocol::ALL {
        let writers = if protocol.is_single_writer() { 1 } else { 2 };
        let config = ClusterConfig::new(5, 1, 2, writers).unwrap();
        let cluster = Deployment::new(config).protocol(protocol).sim_cluster().unwrap();
        let sched: Vec<_> = schedule
            .iter()
            .filter(|(_, op)| match op {
                ScheduledOp::Write { writer, .. } => (*writer as usize) < writers,
                ScheduledOp::Read { .. } => true,
            })
            .cloned()
            .collect();
        group.bench_function(BenchmarkId::from_parameter(protocol.name()), |b| {
            b.iter(|| cluster.run_schedule(7, &sched).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_protocols
}
criterion_main!(benches);
