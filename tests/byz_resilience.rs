//! Integration tests for `mwr-byz`: masking-quorum protocols against
//! reply-corrupting adversaries, judged by the `mwr-check` checkers — the
//! executable form of the paper's §5 Byzantine remark.

use mwr::byz::{ByzBehavior, ByzConfig, ByzReadMode, ByzRegisterServer};
use mwr::check::{check_atomicity, History};
use mwr::core::{OpResult, Protocol, RegisterClient, RegisterServer, ScheduledOp};
use mwr::sim::{SimTime, Simulation};
use mwr::types::{ClusterConfig, ProcessId, Value};

mod common;
use common::{byz_cluster};

fn contended_schedule(rounds: u64, readers: u64) -> Vec<(SimTime, ScheduledOp)> {
    let mut ops = Vec::new();
    for i in 0..rounds {
        ops.push((
            SimTime::from_ticks(i * 9),
            ScheduledOp::Write { writer: (i % 2) as u32, value: Value::new(i + 1) },
        ));
        ops.push((
            SimTime::from_ticks(i * 9 + 4),
            ScheduledOp::Read { reader: (i % readers) as u32 },
        ));
    }
    ops
}

#[test]
fn masking_clients_stay_atomic_under_every_behavior() {
    let config = ByzConfig::new(5, 1, 2, 2).unwrap();
    let schedule = contended_schedule(6, 2);
    for behavior in ByzBehavior::ADVERSARIAL {
        for mode in [ByzReadMode::Slow, ByzReadMode::Fast] {
            let cluster = byz_cluster(config, mode, behavior);
            for seed in 1..=10 {
                let events = cluster.run_schedule(seed, &schedule).unwrap();
                let history = History::from_events(&events).unwrap();
                assert!(
                    check_atomicity(&history).is_ok(),
                    "{behavior}/{mode:?} seed {seed} violated atomicity"
                );
            }
        }
    }
}

#[test]
fn crash_tolerant_w2r2_is_broken_by_forgery_but_not_by_omission() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let schedule = contended_schedule(5, 2);
    let run = |behavior: ByzBehavior, seed: u64| {
        let mut sim: Simulation<_, _> = Simulation::new(seed);
        sim.add_process(ProcessId::server(0), ByzRegisterServer::new(behavior));
        for s in config.server_ids().skip(1) {
            sim.add_process(s.into(), RegisterServer::new());
        }
        for w in config.writer_ids() {
            sim.add_process(w.into(), RegisterClient::writer(w, config, Protocol::W2R2.write_mode()));
        }
        for r in config.reader_ids() {
            sim.add_process(r.into(), RegisterClient::reader(r, config, Protocol::W2R2.read_mode()));
        }
        for (at, op) in &schedule {
            op.schedule_into(&mut sim, *at).unwrap();
        }
        sim.run_until_quiescent().unwrap();
        sim.drain_notifications()
    };

    // Forgery: reads adopt the inflated garbage value — atomicity (indeed
    // safety) is gone.
    let mut broken = false;
    for seed in 1..=10 {
        let events = run(ByzBehavior::TagInflater { boost: 10_000 }, seed);
        let history = History::from_events(&events).unwrap();
        broken |= !check_atomicity(&history).is_ok();
    }
    assert!(broken, "a forging server must break the crash-tolerant protocol");

    // Omission (stale replies, silence): the max over S − t − 1 honest
    // replies still wins — the crash-tolerant protocol survives.
    for behavior in [ByzBehavior::StaleReplier, ByzBehavior::Mute] {
        for seed in 1..=10 {
            let events = run(behavior, seed);
            let history = History::from_events(&events).unwrap();
            assert!(
                check_atomicity(&history).is_ok(),
                "{behavior} seed {seed}: omission alone should not break W2R2"
            );
        }
    }
}

/// The surgical below-frontier construction: with `S = 5, b = 1` the
/// conjectured fast-read frontier `2b(R + 3) < S` is unsatisfiable, and a
/// hold-crafted schedule (in the style of the paper's impossibility
/// executions) exhibits a concrete new/old inversion between two vouched
/// fast reads.
#[test]
fn constructed_witness_breaks_vouched_fast_reads_below_the_frontier() {
    let config = ByzConfig::new(5, 1, 2, 2).unwrap();
    assert!(!config.fast_read_conjecture());
    let cluster = byz_cluster(config, ByzReadMode::Fast, ByzBehavior::StaleReplier);
    let mut sim = cluster.build_sim(1);

    // Reader 0 never talks to s1; reader 1 never talks to s4.
    sim.network_mut().hold_between(ProcessId::reader(0), ProcessId::server(1));
    sim.network_mut().hold_between(ProcessId::reader(1), ProcessId::server(4));
    // Writer 1's *update* round reaches only s0 (which hides it), s3, s4:
    // the holds activate after its query round is in flight.
    sim.schedule_hold(
        SimTime::from_ticks(21),
        mwr::sim::LinkSelector::directed(ProcessId::writer(1), ProcessId::server(1)),
    );
    sim.schedule_hold(
        SimTime::from_ticks(21),
        mwr::sim::LinkSelector::directed(ProcessId::writer(1), ProcessId::server(2)),
    );

    // w0 writes 1 to completion; w1's write of 2 stays in flight on {s3, s4}.
    cluster
        .schedule(&mut sim, SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(1) })
        .unwrap();
    cluster
        .schedule(&mut sim, SimTime::from_ticks(20), ScheduledOp::Write {
            writer: 1,
            value: Value::new(2),
        })
        .unwrap();
    // r0 reads from {s0, s2, s3, s4}: value 2 is vouched by s3, s4 → returned.
    cluster
        .schedule(&mut sim, SimTime::from_ticks(30), ScheduledOp::Read { reader: 0 })
        .unwrap();
    // r1 reads from {s0, s1, s2, s3}: value 2 has a single voucher → rejected.
    cluster
        .schedule(&mut sim, SimTime::from_ticks(40), ScheduledOp::Read { reader: 1 })
        .unwrap();
    sim.run_until_quiescent().unwrap();
    let events = sim.drain_notifications();

    let reads: Vec<Value> = events
        .iter()
        .filter_map(|(_, e)| match e {
            mwr::core::ClientEvent::Completed { result: OpResult::Read(tv), .. } => {
                Some(tv.value())
            }
            _ => None,
        })
        .collect();
    assert_eq!(reads, vec![Value::new(2), Value::new(1)], "new/old inversion exhibited");

    let history = History::from_events_with_open_ops(&events).unwrap();
    assert!(
        !check_atomicity(&history).is_ok(),
        "the checker must reject the constructed execution"
    );
}

#[test]
fn byzantine_budget_subsumes_crashes() {
    // b Byzantine = b crashed is the weakest use of the budget: everything
    // still works when the adversary simply crashes.
    let config = ByzConfig::new(9, 2, 3, 2).unwrap();
    let schedule = contended_schedule(6, 3);
    for mode in [ByzReadMode::Slow, ByzReadMode::Fast] {
        let cluster = byz_cluster(config, mode, ByzBehavior::Mute);
        let events = cluster.run_schedule(3, &schedule).unwrap();
        let history = History::from_events(&events).unwrap();
        assert_eq!(history.len(), 12, "{mode:?}: wait-freedom with 2 silent servers");
        assert!(check_atomicity(&history).is_ok());
    }
}

#[test]
fn forged_values_never_reach_any_client() {
    let config = ByzConfig::new(9, 2, 2, 2).unwrap();
    let schedule = contended_schedule(8, 2);
    for mode in [ByzReadMode::Slow, ByzReadMode::Fast] {
        let cluster = byz_cluster(config, mode, ByzBehavior::TagInflater { boost: 1 << 40 });
        for seed in 1..=10 {
            let events = cluster.run_schedule(seed, &schedule).unwrap();
            for (_, e) in &events {
                if let mwr::core::ClientEvent::Completed { result: OpResult::Read(tv), .. } = e {
                    assert!(tv.value().get() <= 8, "{mode:?} seed {seed}: forged read {tv}");
                    assert!(tv.tag().ts() < 1 << 40, "{mode:?} seed {seed}: forged tag {tv}");
                }
            }
        }
    }
}
