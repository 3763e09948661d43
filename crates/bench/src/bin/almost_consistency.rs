//! Experiment X3 — quantified inconsistency of tunable fast registers.
//!
//! The paper's future work (§7) asks: *fix fast implementations first, then
//! quantify how much data inconsistency is introduced when strictly
//! guaranteeing atomicity is impossible*. Its introduction grounds the
//! question in practice (§1): quorum stores like Cassandra let operations
//! finish in one round-trip at the price of weak consistency.
//!
//! This experiment sweeps the tunable-register grid of `mwr-almost`
//! (write-tagging × consistency levels × read repair) against the paper's
//! atomic protocols, under increasing write contention, and reports for
//! each configuration:
//!
//! - round-trips per operation (the latency currency of the paper),
//! - measured read/write p50 latency,
//! - the strongest Fig 2 consistency class the runs satisfied,
//! - the staleness quantification: % stale reads, max staleness (⇒ a lower
//!   bound on attainable `k`-atomicity), and new/old inversions.
//!
//! Expected shape: every configuration with a one-round-trip operation
//! trades some anomaly budget for latency — exactly what Theorem 1 and the
//! fast-read bound prove unavoidable — while the paper's W2R1 stays atomic
//! with one-round-trip reads by paying two-round-trip writes *and* the
//! `R < S/t − 2` constraint.

use mwr_almost::{ConsistencyClass, ConsistencyProfile, TunableSpec};
use mwr_check::History;
use mwr_core::Protocol;
use mwr_register::{Deployment, Spec};
use mwr_sim::{DelayModel, SimTime};
use mwr_types::ClusterConfig;
use mwr_workload::{drive_closed_loop, TextTable, WorkloadSpec};

/// A row candidate: either a tunable spec or one of the paper's protocols.
enum Candidate {
    Tunable(TunableSpec),
    Paper(Protocol),
}

impl Candidate {
    fn label(&self) -> String {
        match self {
            Candidate::Tunable(spec) => spec.label(),
            Candidate::Paper(p) => p.name().to_string(),
        }
    }

    fn round_trips(&self) -> (usize, usize) {
        match self {
            Candidate::Tunable(spec) => (spec.write_round_trips(), spec.read_round_trips()),
            Candidate::Paper(p) => (p.write_round_trips(), p.read_round_trips()),
        }
    }

    fn spec(&self) -> Spec {
        match self {
            Candidate::Tunable(t) => Spec::Tunable(*t),
            Candidate::Paper(p) => Spec::Core(*p),
        }
    }
}

struct Aggregate {
    reads: usize,
    stale: usize,
    max_staleness: usize,
    inversions: usize,
    write_order: usize,
    weakest: ConsistencyClass,
    read_p50: SimTime,
    write_p50: SimTime,
}

fn measure(
    candidate: &Candidate,
    config: ClusterConfig,
    think_time: SimTime,
    seeds: &[u64],
) -> Aggregate {
    let delay = DelayModel::Uniform {
        lo: SimTime::from_ticks(3),
        hi: SimTime::from_ticks(30),
    };
    let mut agg = Aggregate {
        reads: 0,
        stale: 0,
        max_staleness: 0,
        inversions: 0,
        write_order: 0,
        weakest: ConsistencyClass::Atomic,
        read_p50: SimTime::ZERO,
        write_p50: SimTime::ZERO,
    };
    for &seed in seeds {
        let spec = WorkloadSpec { duration: SimTime::from_ticks(1_500), think_time, seed };
        // Both families run through the one facade-built blueprint: the
        // driver no longer cares which kind of client it is driving.
        let cluster = Deployment::new(config)
            .protocol(candidate.spec())
            .sim_cluster()
            .expect("sim deployment");
        let mut sim = cluster.build_sim(seed);
        sim.network_mut().set_default_delay(delay);
        let mut report = drive_closed_loop(&mut sim, cluster.config(), spec).expect("closed loop");
        let history =
            History::from_events(&report.events).expect("quiescent run yields complete history");
        let profile = ConsistencyProfile::measure(&history);
        agg.reads += profile.staleness.reads();
        agg.stale += profile.staleness.stale_reads();
        agg.max_staleness = agg.max_staleness.max(profile.staleness.max_staleness());
        agg.inversions += profile.staleness.inversions();
        agg.write_order += profile.staleness.write_order_violations();
        agg.weakest = agg.weakest.min(profile.class);
        let (w, r) = report.summaries();
        agg.read_p50 = agg.read_p50.max(r.p50);
        agg.write_p50 = agg.write_p50.max(w.p50);
    }
    agg
}

fn main() {
    let config = ClusterConfig::new(5, 1, 2, 2).expect("valid config");
    let seeds: Vec<u64> = (1..=4).collect();

    let candidates = [
        Candidate::Tunable(TunableSpec::fastest()),
        Candidate::Tunable(TunableSpec::fastest_with_repair()),
        Candidate::Tunable(TunableSpec::quorum_lww()),
        Candidate::Tunable(TunableSpec {
            read_repair: true,
            ..TunableSpec::quorum_lww()
        }),
        Candidate::Tunable(TunableSpec::strong()),
        Candidate::Paper(Protocol::W2R1),
        Candidate::Paper(Protocol::W2R2),
    ];

    println!("== X3: inconsistency of tunable fast registers (paper §7 future work) ==");
    println!(
        "S = {}, t = {}, R = {}, W = {}; uniform link delay 3..30 ticks; {} seeds/config\n",
        config.servers(),
        config.max_faults(),
        config.readers(),
        config.writers(),
        seeds.len()
    );

    for (contention, think) in [("light", 300u64), ("medium", 60), ("heavy", 10)] {
        println!("-- contention: {contention} (think time {think} ticks) --");
        let mut table = TextTable::new(vec![
            "configuration",
            "wRTT",
            "rRTT",
            "rd p50",
            "wr p50",
            "class",
            "stale%",
            "maxStale",
            "invrs",
            "wOrd",
        ]);
        for candidate in &candidates {
            let agg = measure(candidate, config, SimTime::from_ticks(think), &seeds);
            let (w_rtt, r_rtt) = candidate.round_trips();
            let stale_pct = if agg.reads == 0 {
                0.0
            } else {
                100.0 * agg.stale as f64 / agg.reads as f64
            };
            table.row(vec![
                candidate.label(),
                w_rtt.to_string(),
                r_rtt.to_string(),
                agg.read_p50.ticks().to_string(),
                agg.write_p50.ticks().to_string(),
                agg.weakest.name().to_string(),
                format!("{stale_pct:.1}"),
                agg.max_staleness.to_string(),
                agg.inversions.to_string(),
                agg.write_order.to_string(),
            ]);
        }
        println!("{table}");
    }

    println!("Shape: one-round-trip operations without the paper's machinery surface");
    println!("stale reads and inversions that grow with contention; read repair and");
    println!("majority levels shrink but cannot eliminate them (Theorem 1); the");
    println!("paper's W2R1 keeps reads at one round-trip *and* stays atomic, at the");
    println!("cost of two-round-trip writes and the R < S/t − 2 bound.");
}
