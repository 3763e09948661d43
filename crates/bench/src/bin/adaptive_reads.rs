//! Experiment X5 — adaptive reads: semifast behaviour in the multi-writer
//! world (paper §6).
//!
//! Georgiou et al.'s *semifast* implementations make most reads fast and
//! only a bounded number slow; the paper notes that semifast MWMR
//! implementations are impossible. `Protocol::W2Ra` realizes the adaptive
//! compromise that *is* possible: reads take one round-trip whenever the
//! observed maximum is safely admissible and pay a write-back round
//! otherwise — with no bound on how often (that unboundedness is exactly
//! what the impossibility predicts).
//!
//! The experiment measures, against W2R2 and W2R1:
//!
//! 1. the fast-read fraction as write contention rises (the impossibility
//!    made quantitative), and
//! 2. the fast-read fraction across the feasibility boundary `R = S/t − 2`,
//!    where Algorithm 1 stops being an option and the adaptive fallback is
//!    the only sound way to keep sub-2-round-trip reads;
//! 3. read latency, showing adaptive reads interpolate between W2R1 (all
//!    fast) and W2R2 (all slow) while staying atomic everywhere.

use mwr_check::{check_atomicity, History};
use mwr_core::{ClientEvent, OpKind, Protocol};
use mwr_register::Deployment;
use mwr_sim::{DelayModel, SimTime};
use mwr_types::ClusterConfig;
use mwr_workload::{drive_closed_loop, TextTable, WorkloadSpec};

struct Outcome {
    fast_reads: usize,
    slow_reads: usize,
    read_p50: SimTime,
    atomic: bool,
}

fn measure(config: ClusterConfig, protocol: Protocol, think: u64, seeds: &[u64]) -> Outcome {
    let delay = DelayModel::Uniform { lo: SimTime::from_ticks(2), hi: SimTime::from_ticks(25) };
    let mut fast = 0usize;
    let mut slow = 0usize;
    let mut p50 = SimTime::ZERO;
    let mut atomic = true;
    for &seed in seeds {
        let cluster = Deployment::new(config).protocol(protocol).sim_cluster().expect("core sim");
        let spec = WorkloadSpec {
            duration: SimTime::from_ticks(1_500),
            think_time: SimTime::from_ticks(think),
            seed,
        };
        let mut sim = cluster.build_sim(seed);
        sim.network_mut().set_default_delay(delay);
        let mut report = drive_closed_loop(&mut sim, cluster.config(), spec).expect("closed loop");
        let mut read_ops = std::collections::BTreeSet::new();
        let mut slow_ops = std::collections::BTreeSet::new();
        for (_, e) in &report.events {
            match e {
                ClientEvent::Invoked { op, kind: OpKind::Read } => {
                    read_ops.insert(*op);
                }
                ClientEvent::SecondRound { op } if read_ops.contains(op) => {
                    slow_ops.insert(*op);
                }
                _ => {}
            }
        }
        fast += read_ops.len() - slow_ops.len();
        slow += slow_ops.len();
        let (_, r) = report.summaries();
        p50 = p50.max(r.p50);
        let history = History::from_events(&report.events).expect("complete");
        atomic &= check_atomicity(&history).is_ok();
    }
    Outcome { fast_reads: fast, slow_reads: slow, read_p50: p50, atomic }
}

fn fast_pct(o: &Outcome) -> f64 {
    let total = o.fast_reads + o.slow_reads;
    if total == 0 {
        100.0
    } else {
        100.0 * o.fast_reads as f64 / total as f64
    }
}

fn main() {
    let seeds: Vec<u64> = (1..=4).collect();
    println!("== X5: adaptive reads — semifast behaviour in the MWMR world (paper §6) ==\n");

    println!("-- Part 1: fast-read fraction vs contention (S = 5, t = 1, R = 2, W = 2) --");
    let config = ClusterConfig::new(5, 1, 2, 2).expect("valid");
    let mut table =
        TextTable::new(vec!["contention", "protocol", "fast%", "rd p50", "atomic"]);
    for (label, think) in [("light", 300u64), ("medium", 60), ("heavy", 10)] {
        for protocol in [Protocol::W2R2, Protocol::W2R1, Protocol::W2Ra] {
            let o = measure(config, protocol, think, &seeds);
            let fastpct = match protocol {
                Protocol::W2R2 => "0.0 (by design)".to_string(),
                Protocol::W2R1 => "100.0 (by design)".to_string(),
                _ => format!("{:.1}", fast_pct(&o)),
            };
            table.row(vec![
                label.to_string(),
                protocol.name().to_string(),
                fastpct,
                o.read_p50.ticks().to_string(),
                o.atomic.to_string(),
            ]);
        }
    }
    println!("{table}");

    println!("-- Part 2: across the feasibility boundary (S = 5, t = 1, boundary R = 3) --");
    println!("   W2R1 is only sound below the boundary; W2Ra is sound everywhere.\n");
    let mut table = TextTable::new(vec!["R", "feasible", "W2Ra fast%", "W2Ra rd p50", "atomic"]);
    for r in [1usize, 2, 3, 4, 5] {
        let Ok(config) = ClusterConfig::new(5, 1, r, 2) else { continue };
        let o = measure(config, Protocol::W2Ra, 40, &seeds);
        table.row(vec![
            r.to_string(),
            config.fast_read_feasible().to_string(),
            format!("{:.1}", fast_pct(&o)),
            o.read_p50.ticks().to_string(),
            o.atomic.to_string(),
        ]);
    }
    println!("{table}");
    println!("Shape: the fast fraction is governed by write contention (reads seeing a");
    println!("settled maximum go fast); the safe degree cap min(R + 1, (S − t − 1)/t)");
    println!("stops growing at the boundary, so unlike Algorithm 1 nothing breaks past");
    println!("it — atomicity holds in every cell. The fallback buys that generality");
    println!("with second round-trips, unboundedly many under contention, exactly as");
    println!("the semifast MWMR impossibility (paper §6) requires.");
}
