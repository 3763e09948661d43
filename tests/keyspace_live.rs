//! Integration: a multi-key keyspace over loopback TCP stays atomic —
//! register by register — while a server crashes and rejoins mid-traffic.
//!
//! Two writer threads and two reader threads hammer four registers whose
//! shard groups overlap on the victim server. Every operation flows
//! through a per-register streaming auditor at sample rate 1.0. Mid-run
//! the victim crashes (each of its shards loses one group member) and
//! then rejoins through per-shard quorum state transfer. The test
//! asserts:
//!
//! - zero linearizability violations on every touched register;
//! - no cross-key resurrection: each register only ever returns values
//!   from its own namespace, before and after the rejoin;
//! - no floor bleed: within one reader, a register's tags never move
//!   backwards across the crash/rejoin boundary;
//! - exactly the touched registers were audited — the rejoin manufactures
//!   no phantom registers.
//!
//! The same keyspace shape then runs `KeyspaceHandle::run_chaos` under two
//! [`FaultPlan`]s (a rolling restart over TCP, a churn storm in memory) on
//! Zipf-keyed traffic: the plan must run as written and heal, and every
//! touched register's auditor must accept its history.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use mwr::keyspace::{
    AuditConfig, AuditReport, FaultPlan, Keyspace, KeyspaceConfig, Protocol, RegisterId,
    RetryPolicy,
};
use mwr::types::{Tag, Value};
use mwr::workload::ChaosReport;

/// Each register writes values in its own namespace so a cross-key leak
/// is visible in the payload itself.
const NAMESPACE: u64 = 1_000_000;

const KEYS: [u32; 4] = [1, 9, 17, 42];

fn key_of(value: Value) -> u64 {
    value.get() / NAMESPACE
}

#[test]
fn audited_multi_key_crash_rejoin_over_tcp() {
    // 5 servers, t = 1, groups of 3, 8 shards, 2 readers + 2 writers:
    // groups overlap heavily, so the victim serves several of the keys.
    let config = KeyspaceConfig::new(5, 1, 3, 8, 2, 2).unwrap();
    let mut handle = Keyspace::new(config)
        .audit(AuditConfig::default())
        .timeout(Duration::from_secs(5))
        .retry(RetryPolicy { attempts: 4, backoff: Duration::from_millis(20) })
        .tcp()
        .unwrap();

    // Crash a server that serves the first key's group, so at least one
    // register demonstrably loses (and regains) a group member.
    let victim = handle.router().group_of(RegisterId::new(KEYS[0]))[0].index();

    // Mint every client up front: one writer and one reader per
    // (identity, key) pair, each identity's clients sharing one endpoint.
    let mut writers = Vec::new();
    for idx in 0..2u32 {
        let mut per_key = Vec::new();
        for &k in &KEYS {
            per_key.push((k, handle.writer(idx, RegisterId::new(k)).unwrap()));
        }
        writers.push(per_key);
    }
    let mut readers = Vec::new();
    for idx in 0..2u32 {
        let mut per_key = Vec::new();
        for &k in &KEYS {
            per_key.push((k, handle.reader(idx, RegisterId::new(k)).unwrap()));
        }
        readers.push(per_key);
    }

    let stop = AtomicBool::new(false);
    let (write_counts, read_counts) = thread::scope(|s| {
        let mut write_handles = Vec::new();
        for mut per_key in writers.drain(..) {
            write_handles.push(s.spawn({
                let stop = &stop;
                move || {
                    let mut seq = 0u64;
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for (k, w) in &mut per_key {
                            seq += 1;
                            let value = Value::new(u64::from(*k) * NAMESPACE + seq);
                            w.write(value).expect("write survives crash and rejoin");
                            ops += 1;
                        }
                    }
                    ops
                }
            }));
        }
        let mut read_handles = Vec::new();
        for mut per_key in readers.drain(..) {
            read_handles.push(s.spawn({
                let stop = &stop;
                move || {
                    // Per-key high-water tag: one reader's view of one
                    // register must never move backwards, or the rejoined
                    // server resurrected pre-crash state (floor bleed).
                    let mut last_tag: Vec<Tag> = vec![Tag::initial(); per_key.len()];
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for (i, (k, r)) in per_key.iter_mut().enumerate() {
                            let got = r.read().expect("read survives crash and rejoin");
                            if got.value() != Value::new(0) {
                                assert_eq!(
                                    key_of(got.value()),
                                    u64::from(*k),
                                    "register {k} returned another key's value {}",
                                    got.value()
                                );
                            }
                            assert!(
                                got.tag() >= last_tag[i],
                                "register {k} moved backwards: {:?} after {:?}",
                                got.tag(),
                                last_tag[i]
                            );
                            last_tag[i] = got.tag();
                            ops += 1;
                        }
                    }
                    ops
                }
            }));
        }

        // Traffic → crash → traffic over the degraded groups → rejoin
        // (per-shard quorum state transfer under load) → traffic over the
        // rejoined incarnation → stop.
        thread::sleep(Duration::from_millis(200));
        handle.crash_server(victim);
        thread::sleep(Duration::from_millis(300));
        handle.rejoin_server(victim).expect("live quorums answer every shard fetch");
        thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);

        let writes: u64 = write_handles.into_iter().map(|h| h.join().unwrap()).sum();
        let reads: u64 = read_handles.into_iter().map(|h| h.join().unwrap()).sum();
        (writes, reads)
    });

    assert!(write_counts > 0, "writers made progress through the fault");
    assert!(read_counts > 0, "readers made progress through the fault");
    assert_eq!(handle.live_servers(), vec![0, 1, 2, 3, 4], "victim rejoined");

    let (handled, verdicts) = handle.shutdown_audited();
    assert!(handled > 0, "servers handled requests");
    let audited_keys: Vec<u32> = verdicts.keys().map(|k| k.index()).collect();
    let mut expected = KEYS.to_vec();
    expected.sort_unstable();
    assert_eq!(audited_keys, expected, "exactly the touched registers were audited");
    for (key, report) in &verdicts {
        assert!(
            report.verdict.is_ok(),
            "register {key} not atomic across crash+rejoin: {report}"
        );
        assert!(report.stats.audited > 0, "register {key} audited no operations");
    }
}

/// The keyspace analogue of the register-level reconfiguration test: two
/// fresh servers join and two originals retire through the per-shard
/// joint-quorum handover while writer and reader threads hammer four
/// registers. Pre-handover clients must keep serving (they re-derive
/// their shard groups when the config epoch moves), every register must
/// stay atomic and inside its own namespace, no register's tags may move
/// backwards across the handover (per-shard state transfer must not bleed
/// another key's GC floor), and the retired servers must leave the member
/// set entirely.
#[test]
fn audited_multi_key_reconfigure_over_tcp() {
    let config = KeyspaceConfig::new(5, 1, 3, 8, 2, 2).unwrap();
    // The fault-window client idiom: short per-round timeouts with many
    // retries, so rounds whose frames died with a retiring server re-
    // broadcast against the refreshed shard groups.
    let mut handle = Keyspace::new(config)
        .audit(AuditConfig::default())
        .timeout(Duration::from_millis(400))
        .retry(RetryPolicy { attempts: 10, backoff: Duration::from_millis(10) })
        .tcp()
        .unwrap();

    let mut writers = Vec::new();
    for idx in 0..2u32 {
        let mut per_key = Vec::new();
        for &k in &KEYS {
            per_key.push((k, handle.writer(idx, RegisterId::new(k)).unwrap()));
        }
        writers.push(per_key);
    }
    let mut readers = Vec::new();
    for idx in 0..2u32 {
        let mut per_key = Vec::new();
        for &k in &KEYS {
            per_key.push((k, handle.reader(idx, RegisterId::new(k)).unwrap()));
        }
        readers.push(per_key);
    }

    let stop = AtomicBool::new(false);
    let (write_counts, read_counts) = thread::scope(|s| {
        let mut write_handles = Vec::new();
        for mut per_key in writers.drain(..) {
            write_handles.push(s.spawn({
                let stop = &stop;
                move || {
                    let mut seq = 0u64;
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for (k, w) in &mut per_key {
                            seq += 1;
                            let value = Value::new(u64::from(*k) * NAMESPACE + seq);
                            w.write(value).expect("write survives the handover");
                            ops += 1;
                        }
                    }
                    ops
                }
            }));
        }
        let mut read_handles = Vec::new();
        for mut per_key in readers.drain(..) {
            read_handles.push(s.spawn({
                let stop = &stop;
                move || {
                    // Per-key high-water tag: a register's view must never
                    // move backwards across the handover, or the shard
                    // transfer resurrected pruned state or leaked another
                    // register's floor.
                    let mut last_tag: Vec<Tag> = vec![Tag::initial(); per_key.len()];
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for (i, (k, r)) in per_key.iter_mut().enumerate() {
                            let got = r.read().expect("read survives the handover");
                            if got.value() != Value::new(0) {
                                assert_eq!(
                                    key_of(got.value()),
                                    u64::from(*k),
                                    "register {k} returned another key's value {}",
                                    got.value()
                                );
                            }
                            assert!(
                                got.tag() >= last_tag[i],
                                "register {k} moved backwards: {:?} after {:?}",
                                got.tag(),
                                last_tag[i]
                            );
                            last_tag[i] = got.tag();
                            ops += 1;
                        }
                    }
                    ops
                }
            }));
        }

        // Traffic over the original members → live handover (servers 5
        // and 6 join, 0 and 1 retire, every shard's state moves under
        // load) → traffic over the new member set → stop.
        thread::sleep(Duration::from_millis(200));
        let added = handle.reconfigure(2, &[0, 1]).expect("every shard's transfer quorum answers");
        assert_eq!(added, vec![5, 6], "two fresh servers joined");
        thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);

        let writes: u64 = write_handles.into_iter().map(|h| h.join().unwrap()).sum();
        let reads: u64 = read_handles.into_iter().map(|h| h.join().unwrap()).sum();
        (writes, reads)
    });

    assert!(write_counts > 0, "writers made progress through the handover");
    assert!(read_counts > 0, "readers made progress through the handover");
    assert_eq!(handle.members(), vec![2, 3, 4, 5, 6], "originals 0 and 1 retired");
    assert_eq!(handle.live_servers(), vec![2, 3, 4, 5, 6]);

    let (handled, verdicts) = handle.shutdown_audited();
    assert!(handled > 0, "servers handled requests");
    let audited_keys: Vec<u32> = verdicts.keys().map(|k| k.index()).collect();
    let mut expected = KEYS.to_vec();
    expected.sort_unstable();
    assert_eq!(audited_keys, expected, "exactly the touched registers were audited");
    for (key, report) in &verdicts {
        assert!(
            report.verdict.is_ok(),
            "register {key} not atomic across the handover: {report}"
        );
        assert!(report.stats.audited > 0, "register {key} audited no operations");
    }
}

/// The keyspace chaos shape: 5 servers, t = 1, groups of 3, 8 shards,
/// 2 readers + 2 writers on W2Ra, the fault-window client idiom (short
/// per-round timeout, many retries), every operation audited.
fn chaos_keyspace(plan: FaultPlan) -> Keyspace {
    Keyspace::new(KeyspaceConfig::new(5, 1, 3, 8, 2, 2).unwrap())
        .protocol(Protocol::W2Ra)
        .timeout(Duration::from_millis(400))
        .retry(RetryPolicy { attempts: 10, backoff: Duration::from_millis(10) })
        .audit(AuditConfig::default())
        .inject(plan)
}

/// Four Zipf(1.1)-skewed keys, seeded.
const CHAOS_KEYS: usize = 4;
const CHAOS_ZIPF: f64 = 1.1;
const CHAOS_SEED: u64 = 7;

/// The plan ran exactly as written (`(crashes, rejoins, churn clients)`),
/// every fault healed, and every touched register stayed atomic.
fn assert_plan_healed_atomically(
    report: &ChaosReport,
    plan: (u32, u32, u32),
    verdicts: &BTreeMap<RegisterId, AuditReport>,
) {
    assert!(report.healed(), "every fault healed, zero failed ops: {report:?}");
    assert_eq!(
        (report.crashes, report.rejoins, report.churn_joined, report.churn_departed),
        (plan.0, plan.1, plan.2, plan.2),
        "the plan ran as written: {report:?}"
    );
    assert!(!verdicts.is_empty(), "the drive touched and audited registers");
    for (key, audit) in verdicts {
        assert!(audit.verdict.is_ok(), "register {key} not atomic under the plan: {audit}");
    }
}

/// Every server of the keyspace crashes and rejoins once (per-shard
/// quorum state transfer under Zipf-keyed traffic) over loopback TCP.
#[test]
fn audited_keyspace_rolling_restart_over_tcp_heals_and_stays_atomic() {
    let mut handle = chaos_keyspace(FaultPlan::rolling_restart(5, 100)).tcp().unwrap();
    let report =
        handle.run_chaos(CHAOS_KEYS, CHAOS_ZIPF, Duration::from_secs(4), CHAOS_SEED).unwrap();
    assert_eq!(report.live_servers, vec![0, 1, 2, 3, 4], "every server rejoined");
    let (_handled, verdicts) = handle.shutdown_audited();
    assert_plan_healed_atomically(&report, (5, 5, 0), &verdicts);
}

/// 200 short-lived readers join, read twice and depart floor-safely
/// against the in-memory keyspace while stable clients keep serving.
#[test]
fn audited_keyspace_churn_storm_departs_every_client() {
    let mut handle = chaos_keyspace(FaultPlan::churn_storm(200, 2, 20)).in_memory().unwrap();
    let report =
        handle.run_chaos(CHAOS_KEYS, CHAOS_ZIPF, Duration::from_secs(1), CHAOS_SEED).unwrap();
    let (_handled, verdicts) = handle.shutdown_audited();
    assert_plan_healed_atomically(&report, (0, 0, 200), &verdicts);
}
