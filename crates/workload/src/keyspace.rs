//! Open-loop throughput driver for the sharded keyspace.
//!
//! The flagship multi-register workload: every writer and reader thread
//! issues back-to-back operations against a [`KeyspaceCluster`], picking
//! the *key* of each operation from a [`Zipf`] distribution over
//! `1..=keys` — rank 1 the hottest register, skew `s` the tail weight.
//! Zipf-skewed popularity is the realistic regime for a keyed service
//! (caches, KV front ends), and it exercises exactly what sharding buys:
//! hot keys contend inside their own `g`-server group while the long tail
//! spreads across the other groups' quorums in parallel.
//!
//! Per-key clients are minted lazily and **multiplex one endpoint per
//! thread** (an `Arc`-shared endpoint under every scoped client), so a
//! thread touching 64 keys still drives one inbox and one set of per-peer
//! connections — the coalescing the keyspace frame header exists for.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{SeedableRng, Zipf};

use mwr_runtime::{
    AuditTap, EndpointFactory, FaultEvent, FaultPlan, KeyspaceCluster, LiveReader, LiveWriter,
    RetryPolicy, RuntimeError,
};
use mwr_sim::SimTime;
use mwr_types::{ReaderId, RegisterId, Value, WriterId};

use crate::chaos::{inject_plan, ChaosReport, Drive, TRIGGER_POLL};
use crate::live::ThroughputReport;
use crate::stats::LatencyStats;

/// Per-register audit wiring for the keyspace driver: atomicity is a
/// per-register property, so each key's clients need that key's tap.
pub type TapFor<'a> = &'a (dyn Fn(RegisterId) -> AuditTap + Sync);

/// Runs an open-loop Zipf-keyed throughput drive against a running
/// keyspace cluster: one thread per configured reader and writer, each
/// issuing back-to-back operations for `duration`, with every operation's
/// key drawn Zipf(`zipf`) from `keys` registers (`zipf = 0.0` is uniform).
///
/// The drive is deterministic in its *key sequence* per `seed` (each
/// thread derives its own stream), though wall-clock interleaving of
/// course is not.
///
/// # Errors
///
/// Returns the first client's [`RuntimeError`] if an endpoint cannot be
/// opened or an operation fails (e.g. a quorum timeout).
///
/// # Panics
///
/// Panics if `keys` is zero.
pub fn run_keyspace_open_loop<F: EndpointFactory>(
    cluster: &KeyspaceCluster<F>,
    keys: usize,
    zipf: f64,
    timeout: Option<Duration>,
    duration: Duration,
    seed: u64,
) -> Result<ThroughputReport, RuntimeError> {
    run_keyspace_open_loop_audited(
        cluster,
        keys,
        zipf,
        timeout,
        RetryPolicy::default(),
        duration,
        seed,
        None,
    )
}

/// [`run_keyspace_open_loop`] with a [`RetryPolicy`] and optional
/// per-register audit taps: when `tap_for` is given, every client a
/// thread mints for key `k` carries `tap_for(k)`, so each register's
/// sampled records flow to that register's own streaming auditor.
///
/// # Errors
///
/// Returns the first client's [`RuntimeError`] if an endpoint cannot be
/// opened or an operation fails (e.g. a quorum timeout).
///
/// # Panics
///
/// Panics if `keys` is zero.
#[allow(clippy::too_many_arguments)]
pub fn run_keyspace_open_loop_audited<F: EndpointFactory>(
    cluster: &KeyspaceCluster<F>,
    keys: usize,
    zipf: f64,
    timeout: Option<Duration>,
    retry: RetryPolicy,
    duration: Duration,
    seed: u64,
    tap_for: Option<TapFor<'_>>,
) -> Result<ThroughputReport, RuntimeError> {
    assert!(keys > 0, "keyspace drive needs at least one key");
    let config = cluster.config();
    let law = Zipf::new(keys as u64, zipf);
    // Everything a thread needs to mint per-key clients is Copy — the
    // cluster itself (whose factory need not be Sync) stays on this thread.
    let router = *cluster.router();
    let group_config = config.group_config();
    let (write_mode, read_mode) =
        (cluster.protocol().write_mode(), cluster.protocol().read_mode());
    // Clients watch the cluster view so a reconfiguration mid-drive
    // refreshes their per-key server groups instead of stranding them on
    // retired members.
    let view = cluster.view();

    // Open every thread's endpoint up front so setup failures surface
    // before any thread spawns; per-key clients are minted lazily inside
    // the threads over Arc clones of these.
    let mut writer_eps = Vec::with_capacity(config.writers());
    for w in 0..config.writers() as u32 {
        let ep = cluster
            .factory()
            .open(WriterId::new(w).into())
            .map_err(RuntimeError::from)?;
        writer_eps.push((w, Arc::new(ep)));
    }
    let mut reader_eps = Vec::with_capacity(config.readers());
    for r in 0..config.readers() as u32 {
        let ep = cluster
            .factory()
            .open(ReaderId::new(r).into())
            .map_err(RuntimeError::from)?;
        reader_eps.push((r, Arc::new(ep)));
    }

    let start = Instant::now();
    let (mut reads, mut writes) = (LatencyStats::new(), LatencyStats::new());
    let mut first_error: Option<RuntimeError> = None;
    thread::scope(|scope| {
        let mut write_threads = Vec::new();
        for (w, ep) in writer_eps {
            let view = Arc::clone(&view);
            write_threads.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (u64::from(w) << 1));
                let mut clients: BTreeMap<RegisterId, LiveWriter<Arc<F::Endpoint>>> =
                    BTreeMap::new();
                let mut lat = LatencyStats::new();
                let mut value = u64::from(w) * 1_000_000_000 + 1;
                while start.elapsed() < duration {
                    let key = RegisterId::new((law.sample(&mut rng) - 1) as u32);
                    let client = clients.entry(key).or_insert_with(|| {
                        let mut c = LiveWriter::new(
                            Arc::clone(&ep),
                            WriterId::new(w),
                            group_config,
                            write_mode,
                        )
                        .with_scope(key, router.group_of(key))
                        .with_view(Arc::clone(&view))
                        .with_retry(retry);
                        if let Some(t) = timeout {
                            c = c.with_timeout(t);
                        }
                        if let Some(tap_for) = tap_for {
                            c = c.with_tap(tap_for(key));
                        }
                        c
                    });
                    let t0 = Instant::now();
                    client.write(Value::new(value))?;
                    lat.record(SimTime::from_ticks(t0.elapsed().as_micros() as u64));
                    value += 1;
                }
                Ok::<LatencyStats, RuntimeError>(lat)
            }));
        }
        let mut read_threads = Vec::new();
        for (r, ep) in reader_eps {
            let view = Arc::clone(&view);
            read_threads.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (u64::from(r) << 1) ^ 1);
                let mut clients: BTreeMap<RegisterId, LiveReader<Arc<F::Endpoint>>> =
                    BTreeMap::new();
                let mut lat = LatencyStats::new();
                while start.elapsed() < duration {
                    let key = RegisterId::new((law.sample(&mut rng) - 1) as u32);
                    let client = clients.entry(key).or_insert_with(|| {
                        let mut c = LiveReader::new(
                            Arc::clone(&ep),
                            ReaderId::new(r),
                            group_config,
                            read_mode,
                        )
                        .with_scope(key, router.group_of(key))
                        .with_view(Arc::clone(&view))
                        .with_retry(retry);
                        if let Some(t) = timeout {
                            c = c.with_timeout(t);
                        }
                        if let Some(tap_for) = tap_for {
                            c = c.with_tap(tap_for(key));
                        }
                        c
                    });
                    let t0 = Instant::now();
                    client.read()?;
                    lat.record(SimTime::from_ticks(t0.elapsed().as_micros() as u64));
                }
                Ok::<LatencyStats, RuntimeError>(lat)
            }));
        }
        for t in write_threads {
            match t.join().expect("keyspace writer thread panicked") {
                Ok(lat) => writes.merge(&lat),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        for t in read_threads {
            match t.join().expect("keyspace reader thread panicked") {
                Ok(lat) => reads.merge(&lat),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
    });
    if let Some(e) = first_error {
        return Err(e);
    }
    Ok(ThroughputReport { reads, writes, elapsed: start.elapsed() })
}

/// The Zipf-keyed open-loop drive with a deterministic [`FaultPlan`]
/// executing against the keyspace cluster — the multi-register analogue of
/// [`run_chaos_live`](crate::run_chaos_live). The injector walks the plan
/// in order on the driving thread: crashes, quorum-state-transfer rejoins,
/// churn bursts (short-lived readers of the hottest key on the reserved
/// top reader slot), and live [`FaultEvent::Reconfigure`] handovers that
/// add fresh servers and retire the lowest-indexed members while every
/// per-key client keeps serving (clients watch the cluster view and
/// re-derive their shard groups when the epoch moves).
///
/// Client threads never abort the drive on an operation error: failures
/// are counted in the report, because the point of a chaos drive is to
/// measure whether the keyed service stayed up.
///
/// # Errors
///
/// Returns a [`RuntimeError`] only for setup failures (a stable client
/// endpoint that cannot open). Operation failures during the drive are
/// counted, never returned.
///
/// # Panics
///
/// Panics if `keys` is zero.
#[allow(clippy::too_many_arguments)]
pub fn run_keyspace_chaos<F: EndpointFactory>(
    cluster: &mut KeyspaceCluster<F>,
    keys: usize,
    zipf: f64,
    timeout: Option<Duration>,
    retry: RetryPolicy,
    plan: FaultPlan,
    duration: Duration,
    seed: u64,
    tap_for: Option<TapFor<'_>>,
) -> Result<ChaosReport, RuntimeError> {
    assert!(keys > 0, "keyspace drive needs at least one key");
    let config = cluster.config();
    let law = Zipf::new(keys as u64, zipf);
    let router = *cluster.router();
    let group_config = config.group_config();
    let (write_mode, read_mode) =
        (cluster.protocol().write_mode(), cluster.protocol().read_mode());
    let view = cluster.view();
    let churny = plan.steps().iter().any(|s| matches!(s.event, FaultEvent::ChurnBurst { .. }));
    let stable_readers =
        if churny { config.readers().saturating_sub(1) } else { config.readers() };
    let churn_slot = config.readers().saturating_sub(1) as u32;

    let mut writer_eps = Vec::with_capacity(config.writers());
    for w in 0..config.writers() as u32 {
        let ep = cluster
            .factory()
            .open(WriterId::new(w).into())
            .map_err(RuntimeError::from)?;
        writer_eps.push((w, Arc::new(ep)));
    }
    let mut reader_eps = Vec::with_capacity(stable_readers);
    for r in 0..stable_readers as u32 {
        let ep = cluster
            .factory()
            .open(ReaderId::new(r).into())
            .map_err(RuntimeError::from)?;
        reader_eps.push((r, Arc::new(ep)));
    }

    let completed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let start = Instant::now();
    let (mut reads, mut writes) = (LatencyStats::new(), LatencyStats::new());
    let mut report = ChaosReport::blank();

    thread::scope(|scope| {
        let completed = &completed;
        let failed = &failed;
        let mut write_threads = Vec::new();
        for (w, ep) in writer_eps {
            let view = Arc::clone(&view);
            write_threads.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (u64::from(w) << 1));
                let mut clients: BTreeMap<RegisterId, LiveWriter<Arc<F::Endpoint>>> =
                    BTreeMap::new();
                let mut lat = LatencyStats::new();
                let mut value = u64::from(w) * 1_000_000_000 + 1;
                while start.elapsed() < duration {
                    let key = RegisterId::new((law.sample(&mut rng) - 1) as u32);
                    let client = clients.entry(key).or_insert_with(|| {
                        let mut c = LiveWriter::new(
                            Arc::clone(&ep),
                            WriterId::new(w),
                            group_config,
                            write_mode,
                        )
                        .with_scope(key, router.group_of(key))
                        .with_view(Arc::clone(&view))
                        .with_retry(retry);
                        if let Some(t) = timeout {
                            c = c.with_timeout(t);
                        }
                        if let Some(tap_for) = tap_for {
                            c = c.with_tap(tap_for(key));
                        }
                        c
                    });
                    let t0 = Instant::now();
                    match client.write(Value::new(value)) {
                        Ok(_) => {
                            lat.record(SimTime::from_ticks(t0.elapsed().as_micros() as u64));
                            completed.fetch_add(1, Ordering::Relaxed);
                            value += 1;
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            thread::sleep(TRIGGER_POLL);
                        }
                    }
                }
                lat
            }));
        }
        let mut read_threads = Vec::new();
        for (r, ep) in reader_eps {
            let view = Arc::clone(&view);
            read_threads.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (u64::from(r) << 1) ^ 1);
                let mut clients: BTreeMap<RegisterId, LiveReader<Arc<F::Endpoint>>> =
                    BTreeMap::new();
                let mut lat = LatencyStats::new();
                while start.elapsed() < duration {
                    let key = RegisterId::new((law.sample(&mut rng) - 1) as u32);
                    let client = clients.entry(key).or_insert_with(|| {
                        let mut c = LiveReader::new(
                            Arc::clone(&ep),
                            ReaderId::new(r),
                            group_config,
                            read_mode,
                        )
                        .with_scope(key, router.group_of(key))
                        .with_view(Arc::clone(&view))
                        .with_retry(retry);
                        if let Some(t) = timeout {
                            c = c.with_timeout(t);
                        }
                        if let Some(tap_for) = tap_for {
                            c = c.with_tap(tap_for(key));
                        }
                        c
                    });
                    let t0 = Instant::now();
                    match client.read() {
                        Ok(_) => {
                            lat.record(SimTime::from_ticks(t0.elapsed().as_micros() as u64));
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            thread::sleep(TRIGGER_POLL);
                        }
                    }
                }
                lat
            }));
        }

        // Each churn incarnation reads the hottest key (Zipf rank 1) on
        // the reserved top reader slot. (`&mut &mut`: the injector takes
        // anything that derefs to the manager, and a `&mut` to it does.)
        let drive = Drive { start, duration, completed, failed };
        inject_plan(&mut &mut *cluster, &plan, &drive, &mut report, &mut reads, |cluster| {
            let (key, id) = (RegisterId::new(0), ReaderId::new(churn_slot));
            let client =
                LiveReader::new(cluster.factory().open(id.into())?, id, group_config, read_mode)
                    .with_scope(key, router.group_of(key))
                    .with_view(Arc::clone(&view))
                    .with_retry(retry);
            Ok(match timeout {
                Some(t) => client.with_timeout(t),
                None => client,
            })
        });

        for t in write_threads {
            writes.merge(&t.join().expect("keyspace writer thread panicked"));
        }
        for t in read_threads {
            reads.merge(&t.join().expect("keyspace reader thread panicked"));
        }
    });

    report.throughput = ThroughputReport { reads, writes, elapsed: start.elapsed() };
    report.failed_ops = failed.load(Ordering::Relaxed);
    report.live_servers = cluster.live_servers();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_core::Protocol;
    use mwr_runtime::InMemoryTransport;
    use mwr_types::KeyspaceConfig;

    #[test]
    fn keyspace_drive_reports_throughput_across_keys() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 2, 2).unwrap();
        let cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2Ra).unwrap();
        let report =
            run_keyspace_open_loop(&cluster, 16, 1.1, None, Duration::from_millis(30), 42)
                .unwrap();
        assert!(report.reads.count() > 0 && report.writes.count() > 0);
        assert!(report.ops_per_sec() > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn keyspace_chaos_reconfigures_mid_drive_with_keys_serving() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 2, 1).unwrap();
        let mut cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2Ra).unwrap();
        let plan = FaultPlan::reconfigure(2, 2, 30);
        let report = run_keyspace_chaos(
            &mut cluster,
            8,
            1.1,
            Some(Duration::from_secs(2)),
            RetryPolicy { attempts: 4, backoff: Duration::from_millis(2) },
            plan,
            Duration::from_millis(400),
            42,
            None,
        )
        .unwrap();
        assert_eq!(report.reconfigs, 1, "{report:?}");
        assert!(report.healed(), "{report:?}");
        assert_eq!(cluster.members(), vec![2, 3, 4, 5, 6]);
        assert!(report.throughput.ops() > 0);
        cluster.shutdown();
    }

    #[test]
    fn keyspace_chaos_churn_burst_departs_every_incarnation() {
        let config = KeyspaceConfig::new(3, 1, 3, 4, 2, 1).unwrap();
        let mut cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R2).unwrap();
        let plan = FaultPlan::churn_storm(10, 2, 5);
        let report = run_keyspace_chaos(
            &mut cluster,
            4,
            0.0,
            Some(Duration::from_secs(2)),
            RetryPolicy::default(),
            plan,
            Duration::from_millis(300),
            7,
            None,
        )
        .unwrap();
        assert_eq!(report.churn_joined, 10, "{report:?}");
        assert_eq!(report.churn_departed, 10, "{report:?}");
        assert_eq!(report.churn_reads, 20, "{report:?}");
        assert!(report.healed(), "{report:?}");
        cluster.shutdown();
    }

    #[test]
    fn single_key_drive_degenerates_to_one_register() {
        let config = KeyspaceConfig::new(3, 1, 3, 4, 1, 1).unwrap();
        let cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R2).unwrap();
        let report =
            run_keyspace_open_loop(&cluster, 1, 0.0, None, Duration::from_millis(20), 7).unwrap();
        assert!(report.ops() > 0);
        cluster.shutdown();
    }
}
