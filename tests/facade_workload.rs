//! Integration: one `WorkloadSpec` runs closed-loop on all three backends
//! through `Deployment::run_closed_loop` — the genuinely new scenario the
//! facade opens (closed-loop contended workloads on the live runtime),
//! with one tick meaning one microsecond on the live backends.

use mwr::register::{Backend, Deployment, Protocol};
use mwr::sim::SimTime;
use mwr::types::ClusterConfig;
use mwr::workload::WorkloadSpec;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        duration: SimTime::from_ticks(30_000), // 30k ticks sim; 30 ms live
        think_time: SimTime::from_ticks(300),
        seed: 5,
    }
}

#[test]
fn the_same_workload_spec_runs_on_all_three_backends() {
    let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
    for backend in [Backend::Sim { seed: 5 }, Backend::InMemory, Backend::Tcp] {
        let report = Deployment::new(config)
            .protocol(Protocol::W2R1)
            .backend(backend)
            .run_closed_loop(spec())
            .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
        assert!(report.reads.count() > 0, "{backend:?}: reads completed");
        assert!(report.writes.count() > 0, "{backend:?}: writes completed");
        assert!(report.throughput_per_kilotick() > 0.0, "{backend:?}");
        if matches!(backend, Backend::Sim { .. }) {
            assert!(!report.events.is_empty(), "sim runs carry a checkable history");
        } else {
            assert!(report.events.is_empty(), "live runs have no virtual-time history");
        }
    }
}

#[test]
fn contended_live_closed_loop_stays_wait_free() {
    // The new scenario the facade opens: contended closed-loop workloads
    // (2 writers + 2 readers issuing concurrently) on the live runtime.
    // Every client keeps completing operations — no timeout ever fires —
    // on both live transports. (No test asserts latency *ordering* across
    // protocols: wall-clock latency is measured by `benchmark/`, and the
    // CPU-bound in-memory transport does not price round-trips.)
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    for backend in [Backend::InMemory, Backend::Tcp] {
        let report = Deployment::new(config)
            .protocol(Protocol::W2R1)
            .backend(backend)
            .run_closed_loop(WorkloadSpec {
                duration: SimTime::from_ticks(1_000_000), // 1 s of issuing
                think_time: SimTime::from_ticks(200),
                seed: 0,
            })
            .unwrap_or_else(|e| panic!("{backend:?}: a contended client failed: {e}"));
        assert!(report.reads.count() > 50, "{backend:?}: reads kept flowing");
        assert!(report.writes.count() > 50, "{backend:?}: writes kept flowing");
    }
}
