//! Integration: the live runtime (threads + channels, threads + TCP) runs
//! the same protocols with the same observable guarantees, deployed
//! through the `Deployment` facade.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

use mwr::core::{Msg, OpHandle, OpId};
use mwr::register::{AuditConfig, Backend, Deployment, FaultPlan, Protocol, RetryPolicy};
use mwr::runtime::{Endpoint as _, RuntimeError, TcpEndpoint, TcpRegistry, TcpTuning};
use mwr::types::{ClientId, ClusterConfig, ProcessId, Tag, TaggedValue, Value, WriterId};

#[test]
fn read_your_writes_and_monotonic_reads_in_memory() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let cluster = Deployment::new(config)
        .protocol(Protocol::W2R1)
        .backend(Backend::InMemory)
        .in_memory()
        .unwrap();
    let mut w0 = cluster.writer(0).unwrap();
    let mut w1 = cluster.writer(1).unwrap();
    let mut r0 = cluster.reader(0).unwrap();
    let mut r1 = cluster.reader(1).unwrap();

    let mut last_seen = TaggedValue::initial();
    for round in 1..=10u64 {
        let t0 = w0.write(Value::new(round * 10)).unwrap();
        let t1 = w1.write(Value::new(round * 10 + 1)).unwrap();
        assert!(t1 > t0, "two-round writes order sequential writes (MWA0)");
        let a = r0.read().unwrap();
        let b = r1.read().unwrap();
        assert!(a >= t1, "read sees the last completed write (MWA2)");
        assert!(b >= a, "sequential reads never regress (MWA4)");
        assert!(b >= last_seen);
        last_seen = b;
    }
    cluster.shutdown();
}

#[test]
fn w2r2_and_w2r1_agree_over_tcp() {
    for protocol in [Protocol::W2R2, Protocol::W2R1] {
        let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
        let cluster =
            Deployment::new(config).protocol(protocol).backend(Backend::Tcp).tcp().unwrap();
        let mut w = cluster.writer(0).unwrap();
        let mut r = cluster.reader(0).unwrap();
        for i in 1..=5u64 {
            let written = w.write(Value::new(i)).unwrap();
            let read = r.read().unwrap();
            assert_eq!(read, written, "{protocol} over TCP");
        }
        assert!(cluster.shutdown() > 0);
    }
}

#[test]
fn interleaved_writers_over_tcp_keep_tag_order() {
    let config = ClusterConfig::new(3, 1, 1, 2).unwrap();
    let cluster =
        Deployment::new(config).protocol(Protocol::W2R1).backend(Backend::Tcp).tcp().unwrap();
    let mut w0 = cluster.writer(0).unwrap();
    let mut w1 = cluster.writer(1).unwrap();
    let mut tags = Vec::new();
    for i in 0..6u64 {
        let t = if i % 2 == 0 {
            w0.write(Value::new(i)).unwrap()
        } else {
            w1.write(Value::new(i)).unwrap()
        };
        tags.push(t);
    }
    for pair in tags.windows(2) {
        assert!(pair[0] < pair[1], "sequential writes get increasing tags");
    }
    cluster.shutdown();
}

#[test]
fn liveness_boundary_at_t_crashes() {
    let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
    let mut cluster = Deployment::new(config)
        .protocol(Protocol::W2R1)
        .backend(Backend::InMemory)
        .in_memory()
        .unwrap();
    let mut w = cluster.writer(0).unwrap();
    let mut r = cluster.reader(0).unwrap();

    w.write(Value::new(1)).unwrap();
    cluster.crash_server(2);
    // t = 1 crash: still wait-free.
    let tagged = w.write(Value::new(2)).unwrap();
    assert_eq!(r.read().unwrap(), tagged);

    // Beyond t: operations must block (and time out) rather than weaken
    // consistency — the paper's premise that fast+atomic+fault-tolerant
    // cannot all hold.
    cluster.crash_server(3);
    let mut w = w.with_timeout(Duration::from_millis(150));
    assert!(matches!(w.write(Value::new(3)), Err(RuntimeError::Timeout { .. })));
    cluster.shutdown();
}

/// Transport-level stress on the per-peer send path: many senders hammer
/// one endpoint concurrently — both through their own endpoints (one
/// connection each) and through one *shared* endpoint (six threads
/// contending on its per-peer lock, each send waiting for the write
/// ahead of it). Every frame must decode cleanly (no torn or interleaved
/// writes) and per-sender FIFO must hold.
#[test]
fn tcp_pipeline_stress_keeps_frames_whole_and_fifo() {
    const SENDERS: usize = 6;
    const MSGS: u64 = 300;
    let registry = TcpRegistry::new();
    let hub = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();

    // Lane ids 0..SENDERS use dedicated endpoints; lanes SENDERS..2*SENDERS
    // share one endpoint across threads.
    let make_msg = |lane: u64, seq: u64| Msg::Update {
        handle: OpHandle {
            op: OpId { client: ClientId::writer(lane as u32), seq },
            phase: 1,
        },
        value: TaggedValue::new(Tag::new(seq + 1, WriterId::new(lane as u32)), Value::new(seq)),
        floor: TaggedValue::initial(),
    };
    let shared = TcpEndpoint::bind(ProcessId::writer(SENDERS as u32), &registry).unwrap();
    std::thread::scope(|scope| {
        for lane in 0..SENDERS as u64 {
            let registry = registry.clone();
            scope.spawn(move || {
                let ep =
                    TcpEndpoint::bind(ProcessId::writer(lane as u32), &registry).unwrap();
                for seq in 0..MSGS {
                    ep.send(ProcessId::server(0), make_msg(lane, seq)).unwrap();
                }
            });
        }
        for lane in SENDERS as u64..2 * SENDERS as u64 {
            let shared = &shared;
            scope.spawn(move || {
                for seq in 0..MSGS {
                    shared.send(ProcessId::server(0), make_msg(lane, seq)).unwrap();
                }
            });
        }
    });

    let mut next_seq: HashMap<u64, u64> = HashMap::new();
    for _ in 0..2 * SENDERS as u64 * MSGS {
        let (_, msg) = hub
            .inbox()
            .recv_timeout(Duration::from_secs(30))
            .expect("every frame arrives intact");
        let Msg::Update { handle, value, .. } = msg else {
            panic!("torn or foreign frame decoded: {msg:?}");
        };
        let ClientId::Writer(w) = handle.op.client else { panic!("unexpected sender") };
        let lane = u64::from(w.index());
        assert_eq!(value.value(), Value::new(handle.op.seq), "frame payload intact");
        let expected = next_seq.entry(lane).or_insert(0);
        assert_eq!(
            handle.op.seq, *expected,
            "per-sender FIFO violated on lane {lane}"
        );
        *expected += 1;
    }
    assert!(hub.inbox().is_empty(), "no duplicated frames");
    // The shared endpoint funneled 6 threads through one pipeline: its
    // stats must account for every frame, one write each.
    let stats = shared.peer_stats(ProcessId::server(0)).unwrap();
    assert_eq!(stats.frames_sent, SENDERS as u64 * MSGS, "{stats:?}");
    assert!(stats.batches <= stats.frames_sent, "{stats:?}");
    assert_eq!(stats.frames_dropped, 0, "{stats:?}");
    // On the receive side, the hub's shared reader accounted for every
    // frame, and dropping the hub closes every adopted connection before
    // `drop` returns — the teardown the gauge makes assertable.
    let reader = hub.reader_stats();
    assert_eq!(reader.frames, 2 * SENDERS as u64 * MSGS, "{reader:?}");
    assert!(reader.wakes <= reader.frames, "{reader:?}");
    let gauge = hub.connection_gauge();
    assert!(gauge.load(Ordering::SeqCst) >= 1, "the live shared endpoint stays connected");
    drop(hub);
    assert_eq!(gauge.load(Ordering::SeqCst), 0, "teardown leaked adopted connections");
}

/// A transport-level reconnect storm against one endpoint: a peer re-binds
/// over and over, each incarnation sending a frame and receiving a reply
/// before its socket dies. Each teardown EOFs the hub's adopted inbound
/// connection and the one the hub dialed for its reply, and leaves the
/// hub's pipeline pointing at a dead socket or a negative-cached peer,
/// reached again by a fresh dial once the backoff has passed. The shared
/// reader must reap every EOF'd socket — the gauge
/// settles back to the live-connection count instead of accumulating one
/// leaked buffer per storm round — and endpoint drop closes the rest.
#[test]
fn tcp_reconnect_storm_does_not_leak_adopted_connections() {
    let registry = TcpRegistry::new().with_tuning(TcpTuning {
        reconnect_backoff: Duration::from_millis(5),
        ..TcpTuning::default()
    });
    let hub = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
    let gauge = hub.connection_gauge();
    for _ in 0..30 {
        let peer = TcpEndpoint::bind(ProcessId::reader(0), &registry).unwrap();
        peer.send(ProcessId::server(0), Msg::InvokeRead).unwrap();
        hub.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        // The reply exercises the hub's pipeline against a peer that
        // keeps dying: it dials each incarnation it can reach, and a
        // failed cycle negative-caches the peer for one backoff.
        let _ = hub.send(ProcessId::reader(0), Msg::InvokeRead);
        drop(peer);
    }
    // Every storm incarnation's socket EOF'd; the shared reader must reap
    // them all rather than pinning 30 dead sockets and their buffers.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while gauge.load(Ordering::SeqCst) > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "storm leaked adopted connections: {} still held",
            gauge.load(Ordering::SeqCst)
        );
        std::thread::yield_now();
    }
    drop(hub);
    assert_eq!(gauge.load(Ordering::SeqCst), 0);
}

/// Crashing a server mid-hammer must neither wedge the survivors'
/// pipelines nor the cluster teardown: all client operations keep
/// completing against the surviving quorum, and shutdown joins cleanly.
#[test]
fn tcp_pipeline_graceful_under_crash_load() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let mut cluster = Deployment::new(config)
        .protocol(Protocol::W2R1)
        .backend(Backend::Tcp)
        .timeout(Duration::from_secs(10))
        .tcp()
        .unwrap();
    let mut writers: Vec<_> = (0..2).map(|w| cluster.writer(w).unwrap()).collect();
    let mut readers: Vec<_> = (0..2).map(|r| cluster.reader(r).unwrap()).collect();

    std::thread::scope(|scope| {
        let crash = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(30));
            cluster.crash_server(1);
        });
        for (w, writer) in writers.iter_mut().enumerate() {
            scope.spawn(move || {
                for i in 0..60u64 {
                    writer
                        .write(Value::new(w as u64 * 1_000 + i))
                        .expect("writes survive a crashed minority");
                }
            });
        }
        for reader in readers.iter_mut() {
            scope.spawn(move || {
                let mut last = TaggedValue::initial();
                for _ in 0..60 {
                    let got = reader.read().expect("reads survive a crashed minority");
                    assert!(got >= last, "monotonic reads under crash load");
                    last = got;
                }
            });
        }
        crash.join().unwrap();
    });
    cluster.shutdown();
}

/// The crash-a-minority-under-load scenario re-run *continuously
/// verified*: every operation flows through the streaming auditor
/// (`sample_rate = 1.0`) while a server crashes mid-hammer. The verdict
/// must stay clean, and the small window must force truncation — the
/// auditor keeps up with fault-scenario traffic without retaining it.
#[test]
fn crash_under_load_stays_atomic_under_full_audit() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let mut cluster = Deployment::new(config)
        .protocol(Protocol::W2R1)
        .backend(Backend::Tcp)
        .timeout(Duration::from_secs(10))
        .audit(AuditConfig { sample_rate: 1.0, window: 64 })
        .tcp()
        .unwrap();
    let mut writers: Vec<_> = (0..2).map(|w| cluster.writer(w).unwrap()).collect();
    let mut readers: Vec<_> = (0..2).map(|r| cluster.reader(r).unwrap()).collect();

    std::thread::scope(|scope| {
        let crash = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(30));
            cluster.crash_server(1);
        });
        for (w, writer) in writers.iter_mut().enumerate() {
            scope.spawn(move || {
                for i in 0..60u64 {
                    writer
                        .write(Value::new(w as u64 * 1_000 + i))
                        .expect("writes survive a crashed minority");
                }
            });
        }
        for reader in readers.iter_mut() {
            scope.spawn(move || {
                for _ in 0..60 {
                    reader.read().expect("reads survive a crashed minority");
                }
            });
        }
        crash.join().unwrap();
    });
    // Tap clones live in the minted clients; the sidecar joins once they
    // are gone.
    drop(writers);
    drop(readers);
    let (_handled, report) = cluster.shutdown_audited();
    let report = report.expect("deployment was armed with an auditor");
    assert!(
        report.verdict.is_ok(),
        "crash-under-load traffic must stay atomic: {report}; {:?}",
        report.verdict
    );
    assert_eq!(report.stats.audited, 240, "2 writers + 2 readers x 60 ops, all sampled");
    assert!(report.stats.truncated > 0, "the small window must truncate: {report}");
    assert!(
        (report.stats.window_high_water as u64) < report.stats.audited,
        "window stays bounded under fault load: {report}"
    );
}

/// A reconnect storm, continuously verified: reader slot 1's endpoint is
/// torn down and re-bound over and over while fully audited writers and a
/// stable reader keep the cluster under load. Every teardown closes the
/// storm reader's connections to the servers; every re-bind registers a
/// new address, and the new incarnation dials each server afresh. A
/// server answers on the connection a request came in on, so it never
/// looks the reader up by address and holds no pipeline to it.
/// The storm reader is minted straight off the runtime cluster (no audit
/// tap: a re-bound endpoint restarts its op sequence numbers, which would
/// collide in the auditor's window); the audited stable clients assert
/// the storm never costs atomicity or liveness.
#[test]
fn reconnect_storm_stays_atomic_under_full_audit() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let cluster = Deployment::new(config)
        .protocol(Protocol::W2R1)
        .backend(Backend::Tcp)
        .timeout(Duration::from_secs(10))
        .audit(AuditConfig { sample_rate: 1.0, window: 64 })
        .tcp()
        .unwrap();
    let mut writers: Vec<_> = (0..2).map(|w| cluster.writer(w).unwrap()).collect();
    let mut reader = cluster.reader(0).unwrap();
    let runtime = cluster.cluster();

    std::thread::scope(|scope| {
        for (w, writer) in writers.iter_mut().enumerate() {
            scope.spawn(move || {
                for i in 0..80u64 {
                    writer
                        .write(Value::new(w as u64 * 1_000 + i))
                        .expect("writes keep completing through the storm");
                }
            });
        }
        let reader = &mut reader;
        scope.spawn(move || {
            let mut last = TaggedValue::initial();
            for _ in 0..80 {
                let got = reader.read().expect("reads keep completing through the storm");
                assert!(got >= last, "monotonic reads through the storm");
                last = got;
            }
        });
        scope.spawn(move || {
            for round in 0..6 {
                let mut churn = runtime
                    .reader(1)
                    .expect("storm reader re-binds its endpoint")
                    .with_timeout(Duration::from_millis(250));
                // A re-bound reader is answered on the connections it just
                // dialed, so a read normally completes at once; the retries
                // cover one that times out under the stable clients' load.
                let ok = (0..8).any(|_| churn.read().is_ok());
                assert!(ok, "storm round {round}: reply pipelines never forgave the re-bound reader");
            }
        });
    });
    drop(writers);
    drop(reader);
    let (_handled, report) = cluster.shutdown_audited();
    let report = report.expect("deployment was armed with an auditor");
    assert!(
        report.verdict.is_ok(),
        "storm traffic must stay atomic: {report}; {:?}",
        report.verdict
    );
    assert_eq!(report.stats.audited, 240, "2 writers x 80 + stable reader x 80, all sampled");
    assert!(report.stats.truncated > 0, "the small window must truncate: {report}");
    assert!(
        (report.stats.window_high_water as u64) < report.stats.audited,
        "window stays bounded through the storm: {report}"
    );
}

/// Crash → rejoin → crash the *other* minority, fully audited over TCP:
/// server 0 crashes, rejoins through quorum state transfer, and then
/// server 1 crashes — so every subsequent quorum (S − t = 2 of {0, 2})
/// must include the rejoined incarnation. The writes and reads riding
/// through all three phases stay atomic under `sample_rate = 1.0`, which
/// is exactly the soundness claim of the state-transfer protocol: a
/// rejoined server never serves below its pre-crash version stamps.
#[test]
fn audited_crash_rejoin_then_other_minority_over_tcp() {
    let config = ClusterConfig::new(3, 1, 1, 1).unwrap();
    let mut cluster = Deployment::new(config)
        .protocol(Protocol::W2R1)
        .backend(Backend::Tcp)
        .timeout(Duration::from_secs(5))
        .retry(RetryPolicy { attempts: 4, backoff: Duration::from_millis(20) })
        .audit(AuditConfig { sample_rate: 1.0, window: 64 })
        .tcp()
        .unwrap();
    let mut w = cluster.writer(0).unwrap();
    let mut r = cluster.reader(0).unwrap();

    // Phase 1: all up.
    let t1 = w.write(Value::new(1)).unwrap();
    assert_eq!(r.read().unwrap(), t1);

    // Phase 2: server 0 down; the surviving quorum {1, 2} carries writes
    // the rejoining server must learn through state transfer.
    cluster.crash_server(0);
    let t2 = w.write(Value::new(2)).unwrap();
    assert_eq!(r.read().unwrap(), t2);

    // Phase 3: server 0 rejoins from a quorum of live peers, then the
    // *other* minority crashes: every quorum now needs the rejoined
    // incarnation to answer — and to answer consistently.
    cluster.rejoin_server(0).expect("a live quorum answers the state fetch");
    cluster.crash_server(1);
    let t3 = w.write(Value::new(3)).unwrap();
    let got = r.read().unwrap();
    assert!(got >= t3, "the rejoined server serves quorums at current stamps");
    assert_eq!(cluster.live_servers(), vec![0, 2]);

    drop(w);
    drop(r);
    let (_handled, report) = cluster.shutdown_audited();
    let report = report.expect("deployment was armed with an auditor");
    assert!(
        report.verdict.is_ok(),
        "crash-rejoin-crash traffic must stay atomic: {report}; {:?}",
        report.verdict
    );
    assert_eq!(report.stats.audited, 6, "3 writes + 3 reads, all sampled");
}

/// The tentpole scenario, end to end: a fully-audited rolling restart
/// over TCP. Every server is crashed and rejoined once by the armed
/// `FaultPlan` while retrying clients hammer the register open-loop; the
/// drive must report every fault healed and zero failed operations, the
/// auditor must stay clean at `sample_rate = 1.0` — and afterwards,
/// crashing a live minority proves the rejoined incarnations genuinely
/// serve quorums rather than free-riding on the originals.
#[test]
fn audited_rolling_restart_over_tcp_heals_and_stays_atomic() {
    let config = ClusterConfig::new(3, 1, 2, 2).unwrap();
    // A short per-round timeout plus many retry attempts is the intended
    // fault-window configuration: a round whose frames died with a
    // crashed (or freshly re-bound) server times out quickly, and the
    // retry's re-broadcast reconnects to the incarnation's new address.
    let mut cluster = Deployment::new(config)
        .protocol(Protocol::W2R1)
        .backend(Backend::Tcp)
        .timeout(Duration::from_millis(400))
        .retry(RetryPolicy { attempts: 10, backoff: Duration::from_millis(10) })
        .audit(AuditConfig { sample_rate: 1.0, window: 64 })
        .inject(FaultPlan::rolling_restart(3, 150))
        .tcp()
        .unwrap();
    let report = cluster.run_chaos(Duration::from_secs(4)).unwrap();
    assert_eq!(report.crashes, 3, "every server crashed once: {report:?}");
    assert_eq!(report.rejoins, 3, "every server rejoined once: {report:?}");
    assert!(report.healed(), "all faults healed, zero failed ops: {report:?}");
    assert_eq!(report.live_servers, vec![0, 1, 2]);
    assert!(report.throughput.ops() > 0);

    // The rejoined incarnations must serve quorums on their own: crash a
    // minority and drive fresh (untapped) clients through the remaining
    // pair, both of which are post-restart incarnations. The re-bound
    // client slots keep the short-timeout-plus-retry idiom for a round
    // that times out; routing needs no retry, since each server answers
    // on the connection the fresh client dialed.
    cluster.crash_server(2);
    let runtime = cluster.cluster();
    let rebind_retry = RetryPolicy { attempts: 10, backoff: Duration::from_millis(10) };
    let mut w = runtime
        .writer(0)
        .unwrap()
        .with_timeout(Duration::from_millis(400))
        .with_retry(rebind_retry);
    let mut r = runtime
        .reader(0)
        .unwrap()
        .with_timeout(Duration::from_millis(400))
        .with_retry(rebind_retry);
    let written = w.write(Value::new(999)).unwrap();
    assert!(
        r.read().unwrap() >= written,
        "rejoined servers alone form a serving quorum"
    );
    drop(w);
    drop(r);
    let (_handled, audit) = cluster.shutdown_audited();
    let audit = audit.expect("deployment was armed with an auditor");
    assert!(
        audit.verdict.is_ok(),
        "rolling-restart traffic must stay atomic: {audit}; {:?}",
        audit.verdict
    );
    assert!(audit.stats.audited > 0, "the drive's clients were tapped: {audit}");
}

/// A churn storm, fully audited in memory: hundreds of short-lived
/// readers join on the reserved slot, read, and depart floor-safely while
/// stable clients keep the register under load. Every churn client must
/// depart (no leaked registrations pinning the acknowledged floor), no
/// operation may fail, and the stable traffic stays atomic.
#[test]
fn audited_churn_storm_departs_every_client() {
    let config = ClusterConfig::new(3, 1, 2, 2).unwrap();
    let mut cluster = Deployment::new(config)
        .protocol(Protocol::W2R1)
        .backend(Backend::InMemory)
        .timeout(Duration::from_secs(5))
        .audit(AuditConfig { sample_rate: 1.0, window: 64 })
        .inject(FaultPlan::churn_storm(200, 2, 20))
        .in_memory()
        .unwrap();
    let report = cluster.run_chaos(Duration::from_millis(500)).unwrap();
    assert_eq!(report.churn_joined, 200, "{report:?}");
    assert_eq!(report.churn_departed, 200, "every churn client departed: {report:?}");
    assert_eq!(report.churn_reads, 400, "{report:?}");
    assert!(report.healed(), "{report:?}");
    let (_handled, audit) = cluster.shutdown_audited();
    let audit = audit.expect("deployment was armed with an auditor");
    assert!(
        audit.verdict.is_ok(),
        "churn-storm traffic must stay atomic: {audit}; {:?}",
        audit.verdict
    );
}

/// Fault injection now works on the TCP backend too: a crashed minority
/// (≤ t servers) does not block W2R1's one-round-trip read.
#[test]
fn tcp_crashed_minority_does_not_block_fast_reads() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let mut cluster = Deployment::new(config)
        .protocol(Protocol::W2R1)
        .backend(Backend::Tcp)
        .timeout(Duration::from_secs(5))
        .tcp()
        .unwrap();
    let mut w = cluster.writer(0).unwrap();
    let mut r = cluster.reader(0).unwrap();

    let before = w.write(Value::new(1)).unwrap();
    assert_eq!(r.read().unwrap(), before);

    cluster.crash_server(0);
    // The quorum S − t = 4 still assembles: the write completes and the
    // fast read returns it in one round-trip, exactly as in-memory.
    let after = w.write(Value::new(2)).unwrap();
    assert_eq!(r.read().unwrap(), after, "crashed TCP minority must not block the fast read");
    cluster.shutdown();
}

/// A live joint-quorum reconfiguration over TCP, fully audited: two fresh
/// servers join and two originals retire mid-traffic (audit sample 1.0).
/// The handover must commit exactly once with zero failed operations and
/// zero linearizability violations, pre-handover clients keep serving
/// across the epoch change, and the removed servers' sockets are fully
/// torn down — their registry entries vanish and their old addresses
/// refuse connections.
#[test]
fn audited_reconfigure_over_tcp_swaps_servers_mid_traffic() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let mut cluster = Deployment::new(config)
        .protocol(Protocol::W2R1)
        .backend(Backend::Tcp)
        .timeout(Duration::from_millis(400))
        .retry(RetryPolicy { attempts: 10, backoff: Duration::from_millis(10) })
        .audit(AuditConfig { sample_rate: 1.0, window: 64 })
        .inject(FaultPlan::reconfigure(2, 2, 150))
        .tcp()
        .unwrap();

    // The plan removes the two lowest members (0 and 1): capture their
    // bound addresses before the drive so the teardown is checkable.
    let removed_addrs: Vec<_> = [0u32, 1]
        .iter()
        .map(|&s| {
            cluster
                .cluster()
                .factory()
                .lookup(ProcessId::server(s))
                .expect("original server is registered")
        })
        .collect();

    let report = cluster.run_chaos(Duration::from_secs(4)).unwrap();
    assert_eq!(report.reconfigs, 1, "exactly one committed handover: {report:?}");
    assert_eq!(report.reconfig_failures, 0, "{report:?}");
    assert_eq!(report.failed_ops, 0, "zero failed client operations: {report:?}");
    assert!(report.healed(), "{report:?}");
    assert_eq!(
        report.live_servers,
        vec![2, 3, 4, 5, 6],
        "originals 0 and 1 retired, joiners 5 and 6 serving: {report:?}"
    );
    assert!(report.throughput.ops() > 0);

    // Socket teardown: the registry forgot the removed servers...
    for s in [0u32, 1] {
        assert!(
            cluster.cluster().factory().lookup(ProcessId::server(s)).is_none(),
            "removed server {s} still registered after the handover"
        );
    }
    // ...and their listeners are gone — the old addresses refuse.
    for addr in removed_addrs {
        assert!(
            std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
            "removed server's listener at {addr} still accepts connections"
        );
    }

    // The post-handover configuration serves quorums on its own, and the
    // whole drive — including the joint window — was atomic.
    let runtime = cluster.cluster();
    let retry = RetryPolicy { attempts: 10, backoff: Duration::from_millis(10) };
    let mut w = runtime
        .writer(0)
        .unwrap()
        .with_timeout(Duration::from_millis(400))
        .with_retry(retry);
    let mut r = runtime
        .reader(0)
        .unwrap()
        .with_timeout(Duration::from_millis(400))
        .with_retry(retry);
    let written = w.write(Value::new(4242)).unwrap();
    assert!(r.read().unwrap() >= written, "the new server set forms a serving quorum");
    drop((w, r));

    let (_handled, audit) = cluster.shutdown_audited();
    let audit = audit.expect("deployment was armed with an auditor");
    assert!(
        audit.verdict.is_ok(),
        "reconfiguration traffic must stay atomic: {audit}; {:?}",
        audit.verdict
    );
    assert!(audit.stats.audited > 0, "the drive's clients were tapped: {audit}");
}
