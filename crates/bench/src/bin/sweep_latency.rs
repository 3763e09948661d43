//! Experiment X2 — the latency story motivating the paper (§1): one
//! round-trip vs two, swept over cluster size and a geo-replication delay
//! matrix. W2R1's fast read halves read latency relative to W2R2 at equal
//! consistency, which is exactly the value of the paper's algorithm.

use mwr_core::{Cluster, Protocol};
use mwr_register::Deployment;
use mwr_sim::{DelayModel, GeoMatrix, SimTime};
use mwr_types::{ClusterConfig, ProcessId};
use mwr_workload::{drive_closed_loop, TextTable, WorkloadSpec};

fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        duration: SimTime::from_ticks(20_000),
        think_time: SimTime::from_ticks(40),
        seed,
    }
}

fn main() {
    println!("== Latency sweeps: W2R1 vs W2R2 ==\n");

    println!("-- sweep over cluster size S (t = 1, uniform 50–150 tick links) --");
    let mut table = TextTable::new(vec![
        "S", "W2R2 read p50", "W2R1 read p50", "speedup", "write p50 (both)",
    ]);
    for s in [3usize, 5, 7, 9] {
        let config = ClusterConfig::new(s, 1, 2, 2).unwrap();
        let mut p50 = Vec::new();
        let mut wp50 = SimTime::ZERO;
        for protocol in [Protocol::W2R2, Protocol::W2R1] {
            let cluster =
                Deployment::new(config).protocol(protocol).sim_cluster().expect("core sim");
            let mut sim_spec = spec(9);
            sim_spec.seed = 9;
            let mut report = run_with_delays(&cluster, sim_spec);
            let (w, r) = report.summaries();
            p50.push(r.p50);
            wp50 = w.p50;
        }
        table.row(vec![
            s.to_string(),
            p50[0].to_string(),
            p50[1].to_string(),
            format!("{:.2}x", p50[0].ticks() as f64 / p50[1].ticks().max(1) as f64),
            wp50.to_string(),
        ]);
    }
    println!("{table}");

    println!("-- geo-replication: 3 regions, 5 servers, client in region 0 --");
    let mut table = TextTable::new(vec!["protocol", "read p50", "read p99", "write p50"]);
    for protocol in [Protocol::W2R2, Protocol::W2R1] {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster =
            Deployment::new(config).protocol(protocol).sim_cluster().expect("core sim");
        let mut report = run_geo(&cluster, spec(21));
        let (w, r) = report.summaries();
        table.row(vec![
            protocol.name().to_string(),
            r.p50.to_string(),
            r.p99.to_string(),
            w.p50.to_string(),
        ]);
    }
    println!("{table}");
    println!("Expected shape: read p50 halves under W2R1 (one round-trip), write");
    println!("latency unchanged (both protocols use the two-round write).");
}

fn run_with_delays(cluster: &Cluster, spec: WorkloadSpec) -> mwr_workload::WorkloadReport {
    run_closed_loop_with(cluster, spec, |sim| {
        sim.network_mut().set_default_delay(DelayModel::Uniform {
            lo: SimTime::from_ticks(50),
            hi: SimTime::from_ticks(150),
        });
    })
}

fn run_geo(cluster: &Cluster, spec: WorkloadSpec) -> mwr_workload::WorkloadReport {
    run_closed_loop_with(cluster, spec, |sim| {
        let mut geo = GeoMatrix::new(vec![
            vec![SimTime::from_ticks(2), SimTime::from_ticks(40), SimTime::from_ticks(120)],
            vec![SimTime::from_ticks(40), SimTime::from_ticks(2), SimTime::from_ticks(80)],
            vec![SimTime::from_ticks(120), SimTime::from_ticks(80), SimTime::from_ticks(2)],
        ]);
        let config = cluster.config();
        let mut processes = Vec::new();
        for (i, s) in config.server_ids().enumerate() {
            geo.place(ProcessId::Server(s), i % 3);
            processes.push(ProcessId::Server(s));
        }
        for r in config.reader_ids() {
            geo.place(r.into(), 0);
            processes.push(r.into());
        }
        for w in config.writer_ids() {
            geo.place(w.into(), 0);
            processes.push(w.into());
        }
        sim.network_mut().apply_geo_matrix(&geo, &processes, SimTime::from_ticks(5));
    })
}

/// `run_closed_loop` with a network-customization hook: builds the
/// simulation, lets the experiment patch delays, then drives it.
fn run_closed_loop_with(
    cluster: &Cluster,
    spec: WorkloadSpec,
    customize: impl FnOnce(&mut mwr_sim::Simulation<mwr_core::Msg, mwr_core::ClientEvent>),
) -> mwr_workload::WorkloadReport {
    let mut sim = cluster.build_sim(spec.seed);
    customize(&mut sim);
    drive_closed_loop(&mut sim, cluster.config(), spec).expect("workload run")
}
