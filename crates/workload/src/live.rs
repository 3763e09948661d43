//! The one live drive: closed and open loop, one register and a Zipf-keyed
//! keyspace, with and without a fault plan — one set-up, one client-thread
//! loop.
//!
//! One thread per configured writer and reader issues operations until
//! `duration` elapses, `think` apart (zero is the open loop: back to back,
//! yielding the CPU in between, the offered load set by the client
//! population). A register is the one-key keyspace, so what differs between
//! workloads is input, not mode:
//!
//! - **Clients.** Each thread gets a `mint(key) -> client` closure from its
//!   caller, called the first time the thread draws a key; that client then
//!   serves the key. A register's mint hands out its one unscoped client; a
//!   keyspace's mints per-key clients scoped to the key's group over **one
//!   `Arc` endpoint per thread**, so a thread touching 64 keys still drives
//!   one inbox and one set of per-peer connections. Writers and readers
//!   differ only in the call the loop times.
//! - **Keys.** [`Keys`]: Zipf(`zipf`) over `count` registers, one seeded
//!   stream per thread; one key is the register.
//! - **Taps.** One [`TapFor`]: atomicity is per register, so each key's
//!   clients carry that key's tap (a register's returns its single tap).
//! - **Faults.** The [`Target`]'s [`FaultPlan`], walked in order on the
//!   driving thread while the clients run; an empty plan fires nothing.
//!
//! A failed operation never stops a thread: it is counted, the first error
//! is kept, and the thread backs off briefly and goes on. The open and
//! closed loops return that error ([`ChaosReport::into_throughput`]); a
//! chaos drive reports the count.
//!
//! The simulator's [`WorkloadSpec`] runs here with one tick read as **one
//! microsecond** of wall-clock time ([`DriveSpec::from`]), so one spec
//! produces comparable closed-loop workloads on the simulator, on
//! in-memory channels and on loopback TCP. Latencies are in microseconds.

use std::borrow::BorrowMut;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{SeedableRng, Zipf};

use mwr_runtime::{
    AuditTap, Endpoint, EndpointFactory, FaultEvent, FaultPlan, KeyspaceCluster, LiveClient,
    LiveReader, LiveWriter, RetryPolicy, RuntimeError, TransportError,
};
use mwr_sim::SimTime;
use mwr_types::{ClientId, ReaderId, RegisterId, TaggedValue, Value, WriterId};

use crate::chaos::{inject_plan, ChaosReport, Shared, TRIGGER_POLL};
use crate::driver::{WorkloadReport, WorkloadSpec};
use crate::stats::LatencyStats;

/// Per-register audit wiring: each key's clients carry `tap_for(key)`, so
/// every register's sampled records flow to that register's own streaming
/// auditor.
pub type TapFor<'a> = &'a (dyn Fn(RegisterId) -> AuditTap + Sync);

/// Which register each operation of a drive addresses: rank `k` of a
/// Zipf(`zipf`) law over `1..=count` is register `k − 1`, so register 0 is
/// the hottest (`zipf = 0.0` is uniform). Every client thread draws its own
/// stream, deterministic per `seed`; wall-clock interleaving is not.
#[derive(Debug, Clone, Copy)]
pub struct Keys {
    /// Registers `0..count`; one is the single-register case.
    pub count: usize,
    /// The Zipf skew `s`.
    pub zipf: f64,
    /// The seed every thread's stream derives from.
    pub seed: u64,
}

impl Keys {
    /// The single register: every operation addresses register 0.
    pub const ONE: Keys = Keys { count: 1, zipf: 0.0, seed: 0 };

    /// The keys `client` draws, in order.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn stream(self, client: ClientId) -> impl Iterator<Item = RegisterId> {
        let law = Zipf::new(self.count as u64, self.zipf);
        let role = u64::from(matches!(client, ClientId::Reader(_)));
        let mut rng = SmallRng::seed_from_u64(self.seed ^ (u64::from(client.index()) << 1) ^ role);
        std::iter::repeat_with(move || RegisterId::new((law.sample(&mut rng) - 1) as u32))
    }
}

impl Default for Keys {
    /// [`Keys::ONE`].
    fn default() -> Self {
        Keys::ONE
    }
}

/// What a drive does besides minting clients: its keys, its pace and
/// length, and the knobs of every client it mints. The default is one
/// register, open loop, for no time at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriveSpec {
    /// Which register each operation addresses.
    pub keys: Keys,
    /// Gap between an operation's completion and the thread's next one.
    pub think: Duration,
    /// Wall-clock time during which operations are issued.
    pub duration: Duration,
    /// Per-round-trip quorum timeout (`None`: the client's default).
    pub timeout: Option<Duration>,
    /// The retry policy of every client, churn clients included.
    pub retry: RetryPolicy,
}

impl From<WorkloadSpec> for DriveSpec {
    /// The simulator's closed-loop spec on the live clock: one tick is one
    /// microsecond (the spec's `seed` drives simulated delays, not keys).
    fn from(spec: WorkloadSpec) -> Self {
        DriveSpec {
            think: Duration::from_micros(spec.think_time.ticks()),
            duration: Duration::from_micros(spec.duration.ticks()),
            ..DriveSpec::default()
        }
    }
}

impl DriveSpec {
    /// `client` with this drive's retry policy and timeout.
    fn arm<E: Endpoint, Id>(&self, client: LiveClient<E, Id>) -> LiveClient<E, Id> {
        let client = client.with_retry(self.retry);
        match self.timeout {
            Some(t) => client.with_timeout(t),
            None => client,
        }
    }
}

/// The cluster a drive runs against: a `RuntimeCluster` (one register) or
/// a [`KeyspaceCluster`]. A fault plan crashes, rejoins and reconfigures
/// it, so a drive that executes one borrows it exclusively; the open and
/// closed loops share it.
#[derive(Debug)]
pub enum Target<'a, C> {
    /// A drive without faults.
    Steady(&'a C),
    /// A drive executing the plan (an empty plan fires nothing).
    Faulted(&'a mut C, &'a FaultPlan),
}

impl<C> Target<'_, C> {
    fn cluster(&self) -> &C {
        match self {
            Target::Steady(cluster) => cluster,
            Target::Faulted(cluster, _) => cluster,
        }
    }
}

/// A measured drive: per-operation latency under load plus the
/// completed-operation counts the throughput figures derive from.
#[derive(Debug, Default)]
pub struct ThroughputReport {
    /// Completed-read latencies, in microseconds.
    pub reads: LatencyStats,
    /// Completed-write latencies, in microseconds.
    pub writes: LatencyStats,
    /// Wall-clock time the drive took.
    pub elapsed: Duration,
}

impl ThroughputReport {
    /// Total operations completed (reads plus writes).
    pub fn ops(&self) -> usize {
        self.reads.count() + self.writes.count()
    }

    /// Aggregate completed operations per second of wall-clock time.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ops() as f64 / self.elapsed.as_secs_f64()
    }
}

impl From<ThroughputReport> for WorkloadReport {
    /// A live closed-loop run as a [`WorkloadReport`]: no virtual-time
    /// history to check (`events` is empty — use the simulator for
    /// checkable histories), and the end time in microsecond ticks.
    fn from(report: ThroughputReport) -> Self {
        WorkloadReport {
            events: Vec::new(),
            reads: report.reads,
            writes: report.writes,
            end_time: SimTime::from_ticks(report.elapsed.as_micros() as u64),
        }
    }
}

/// Runs one drive against `target` (the module docs above describe it).
/// `writer` and `reader` open one thread's endpoint and return its mint:
/// the drive calls them for every stable thread before any thread spawns,
/// and `reader` again for each churn incarnation on the reserved top reader
/// slot (its client reads register 0, untapped: every incarnation reuses
/// the slot's id, and the auditor keys operations by id).
///
/// # Errors
///
/// A [`RuntimeError`] only if an opener fails while the stable threads are
/// set up; operation failures are counted in the report.
///
/// # Panics
///
/// Panics if `spec.keys.count` is zero, or if a client thread panics.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use mwr_core::Protocol;
/// use mwr_runtime::{InMemoryTransport, RuntimeCluster};
/// use mwr_types::ClusterConfig;
/// use mwr_workload::{drive, DriveSpec, Target};
///
/// let config = ClusterConfig::new(3, 1, 1, 1)?;
/// let cluster = RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1)?;
/// // A register thread draws one key: its mint hands out its one client.
/// let report = drive(
///     Target::Steady(&cluster),
///     |c, w| {
///         let mut client = Some(c.writer(w.index())?);
///         Ok(move |_| client.take().expect("one key"))
///     },
///     |c, r| {
///         let mut client = Some(c.reader(r.index())?);
///         Ok(move |_| client.take().expect("one key"))
///     },
///     None,
///     DriveSpec { duration: Duration::from_millis(5), ..DriveSpec::default() },
/// )?;
/// assert!(report.throughput.reads.count() > 0 && report.first_error.is_none());
/// cluster.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn drive<F, C, E, W, R>(
    mut target: Target<'_, C>,
    writer: impl Fn(&C, WriterId) -> Result<W, TransportError>,
    reader: impl Fn(&C, ReaderId) -> Result<R, TransportError>,
    tap_for: Option<TapFor<'_>>,
    spec: DriveSpec,
) -> Result<ChaosReport, RuntimeError>
where
    F: EndpointFactory,
    C: BorrowMut<KeyspaceCluster<F>>,
    E: Endpoint,
    W: FnMut(RegisterId) -> LiveWriter<E> + Send,
    R: FnMut(RegisterId) -> LiveReader<E> + Send,
{
    assert!(spec.keys.count > 0, "a drive needs at least one key");
    let plan = match &target {
        Target::Steady(_) => FaultPlan::default(),
        Target::Faulted(_, plan) => **plan,
    };
    let cluster = target.cluster();
    let manager: &KeyspaceCluster<F> = cluster.borrow();
    let config = manager.config();
    // The churn slot is the highest reader index; the stable drive leaves
    // it free so sequential churn incarnations can mint it.
    let churny = plan.steps().iter().any(|s| matches!(s.event, FaultEvent::ChurnBurst { .. }));
    let stable_readers = config.readers().saturating_sub(usize::from(churny));
    let churn_slot = ReaderId::new(config.readers().saturating_sub(1) as u32);

    // Open every thread's endpoint up front, so set-up failures surface
    // before any thread spawns.
    let writers = (0..config.writers() as u32)
        .map(|w| writer(cluster, WriterId::new(w)))
        .collect::<Result<Vec<_>, _>>()?;
    let readers = (0..stable_readers as u32)
        .map(|r| reader(cluster, ReaderId::new(r)))
        .collect::<Result<Vec<_>, _>>()?;

    let (completed, failed, start) = (AtomicU64::new(0), AtomicU64::new(0), Instant::now());
    let shared = Shared { start, duration: spec.duration, completed: &completed, failed: &failed };
    let (mut reads, mut writes) = (LatencyStats::new(), LatencyStats::new());
    let mut report = ChaosReport::default();
    thread::scope(|scope| {
        let shared = &shared;
        let writers: Vec<_> = (0..)
            .zip(writers)
            .map(|(w, mint)| {
                // Unique values per writer keep reads-from observable.
                let mut value = u64::from(w) * 1_000_000_000;
                let write = move |client: &mut LiveWriter<E>| {
                    value += 1;
                    client.write(Value::new(value))
                };
                let keys = spec.keys.stream(ClientId::writer(w));
                scope.spawn(move || serve(mint, write, keys, tap_for, &spec, shared))
            })
            .collect();
        let readers: Vec<_> = (0..)
            .zip(readers)
            .map(|(r, mint)| {
                let keys = spec.keys.stream(ClientId::reader(r));
                scope.spawn(move || serve(mint, LiveReader::read, keys, tap_for, &spec, shared))
            })
            .collect();

        if let Target::Faulted(cluster, _) = &mut target {
            inject_plan(&mut **cluster, &plan, shared, &mut report, &mut reads, |cluster| {
                Ok(spec.arm(reader(cluster, churn_slot)?(RegisterId::new(0))))
            });
        }

        for (threads, stats) in [(writers, &mut writes), (readers, &mut reads)] {
            for thread in threads {
                let (lat, error) = thread.join().expect("client thread panicked");
                stats.merge(&lat);
                report.first_error = report.first_error.take().or(error);
            }
        }
    });

    report.throughput = ThroughputReport { reads, writes, elapsed: shared.start.elapsed() };
    report.failed_ops = failed.load(Ordering::Relaxed);
    let manager: &KeyspaceCluster<F> = target.cluster().borrow();
    report.live_servers = manager.live_servers();
    Ok(report)
}

/// One client thread: draw a key, mint its client the first time, time
/// one `call` — until the drive's time is up. Returns the latencies of the
/// completed calls and the first failed call's error.
fn serve<E: Endpoint, Id>(
    mut mint: impl FnMut(RegisterId) -> LiveClient<E, Id>,
    mut call: impl FnMut(&mut LiveClient<E, Id>) -> Result<TaggedValue, RuntimeError>,
    keys: impl Iterator<Item = RegisterId>,
    tap_for: Option<TapFor<'_>>,
    spec: &DriveSpec,
    shared: &Shared<'_>,
) -> (LatencyStats, Option<RuntimeError>) {
    let mut clients = BTreeMap::new();
    let (mut lat, mut first_error) = (LatencyStats::new(), None);
    for key in keys.take_while(|_| shared.start.elapsed() < shared.duration) {
        let client = clients.entry(key).or_insert_with(|| {
            let client = spec.arm(mint(key));
            match tap_for {
                Some(tap_for) => client.with_tap(tap_for(key)),
                None => client,
            }
        });
        let t0 = Instant::now();
        match call(client) {
            Ok(_) => {
                lat.record(SimTime::from_ticks(t0.elapsed().as_micros() as u64));
                shared.completed.fetch_add(1, Ordering::Relaxed);
                if spec.think.is_zero() {
                    // An in-memory client never blocks (it runs every
                    // server's handler itself), so without a yield here the
                    // scheduler preempts it mid-operation, and a streaming
                    // auditor can settle nothing the other clients complete
                    // until that operation does.
                    thread::yield_now();
                } else {
                    thread::sleep(spec.think);
                }
            }
            Err(e) => {
                shared.failed.fetch_add(1, Ordering::Relaxed);
                first_error.get_or_insert(e);
                // Don't hot-spin on a persistent failure mode.
                thread::sleep(TRIGGER_POLL);
            }
        }
    }
    (lat, first_error)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    use mwr_core::Protocol;
    use mwr_runtime::{FaultPlan, InMemoryTransport, RuntimeCluster};
    use mwr_types::{ClusterConfig, KeyspaceConfig};

    /// The register facade's drive: each thread's one unscoped client.
    pub(crate) fn register<F: EndpointFactory>(
        target: Target<'_, RuntimeCluster<F>>,
        tap_for: Option<TapFor<'_>>,
        spec: DriveSpec,
    ) -> Result<ChaosReport, RuntimeError> {
        drive(
            target,
            |c, w| {
                let mut client = Some(c.writer(w.index())?);
                Ok(move |_| client.take().expect("one key"))
            },
            |c, r| {
                let mut client = Some(c.reader(r.index())?);
                Ok(move |_| client.take().expect("one key"))
            },
            tap_for,
            spec,
        )
    }

    /// The keyspace facade's drive: per-key scoped clients over one `Arc`
    /// endpoint per thread.
    pub(crate) fn keyspace<F: EndpointFactory>(
        target: Target<'_, KeyspaceCluster<F>>,
        spec: DriveSpec,
    ) -> Result<ChaosReport, RuntimeError> {
        drive(
            target,
            |c, w| {
                let ep = Arc::new(c.factory().open(w.into())?);
                let (config, view, router, mode) =
                    (c.config(), c.view(), *c.router(), c.protocol().write_mode());
                Ok(move |key| {
                    LiveWriter::new(Arc::clone(&ep), w, config.group_config(), mode)
                        .with_scope(key, router.group_of(key))
                        .with_view(Arc::clone(&view))
                })
            },
            |c, r| {
                let ep = Arc::new(c.factory().open(r.into())?);
                let (config, view, router, mode) =
                    (c.config(), c.view(), *c.router(), c.protocol().read_mode());
                Ok(move |key| {
                    LiveReader::new(Arc::clone(&ep), r, config.group_config(), mode)
                        .with_scope(key, router.group_of(key))
                        .with_view(Arc::clone(&view))
                })
            },
            None,
            spec,
        )
    }

    fn zipf(keys: usize, zipf: f64, seed: u64) -> Keys {
        Keys { count: keys, zipf, seed }
    }

    /// Recorded at the parent of PR 21 (fbcb633) from the keyspace
    /// driver's own thread loops: the first 32 keys writer 0 and reader 0
    /// drew for seed 42, 64 keys, s = 1.1. The drive promises a key
    /// sequence deterministic per seed, so these must not move.
    #[test]
    fn key_streams_reproduce_the_parent_drivers_sequences() {
        let keys = zipf(64, 1.1, 42);
        let first =
            |client| keys.stream(client).take(32).map(RegisterId::index).collect::<Vec<_>>();
        assert_eq!(
            first(ClientId::writer(0)),
            [
                14, 0, 1, 1, 0, 29, 0, 20, 1, 7, 0, 3, 4, 4, 9, 0, //
                0, 3, 0, 10, 49, 0, 6, 7, 0, 1, 14, 18, 45, 11, 18, 25,
            ]
        );
        assert_eq!(
            first(ClientId::reader(0)),
            [
                13, 7, 2, 23, 0, 0, 1, 32, 8, 0, 14, 0, 34, 11, 1, 1, //
                0, 0, 0, 52, 0, 6, 50, 0, 8, 38, 0, 4, 4, 7, 1, 33,
            ]
        );
        assert!(Keys::ONE.stream(ClientId::reader(3)).take(100).all(|k| k == RegisterId::new(0)));
    }

    #[test]
    fn open_loop_drive_saturates_and_reports_throughput() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let spec = DriveSpec { duration: Duration::from_millis(30), ..DriveSpec::default() };
        let report = register(Target::Steady(&cluster), None, spec)
            .and_then(ChaosReport::into_throughput)
            .unwrap();
        assert!(report.reads.count() > 0 && report.writes.count() > 0);
        assert!(report.ops_per_sec() > 0.0);
        assert!(report.elapsed >= Duration::from_millis(30));
        cluster.shutdown();
    }

    #[test]
    fn audited_open_loop_records_every_sampled_operation() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let (tap, rx) = AuditTap::bounded(1.0, mwr_runtime::DEFAULT_TAP_CAPACITY);
        // Drain concurrently like a real sidecar, so the drive never sees
        // tap backpressure no matter how fast the in-memory cluster runs.
        let drain = thread::spawn(move || {
            let mut count = 0usize;
            while rx.recv().is_ok() {
                count += 1;
            }
            count
        });
        let tap_for = |_| tap.clone();
        let spec = DriveSpec { duration: Duration::from_millis(30), ..DriveSpec::default() };
        let report = register(Target::Steady(&cluster), Some(&tap_for), spec)
            .and_then(ChaosReport::into_throughput)
            .unwrap();
        drop(tap);
        let records = drain.join().unwrap();
        // Sample rate 1.0: every completed operation contributed an
        // Invoked and a Completed record (floor advances come on top).
        assert!(
            records >= 2 * report.ops(),
            "expected >= {} records, got {records}",
            2 * report.ops()
        );
        cluster.shutdown();
    }

    #[test]
    fn live_closed_loop_measures_both_op_types() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster =
            RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
        let spec = WorkloadSpec {
            duration: SimTime::from_ticks(20_000),
            think_time: SimTime::from_ticks(200),
            seed: 0,
        };
        let report: WorkloadReport = register(Target::Steady(&cluster), None, spec.into())
            .and_then(ChaosReport::into_throughput)
            .unwrap()
            .into();
        assert!(report.reads.count() > 0, "readers completed operations");
        assert!(report.writes.count() > 0, "writers completed operations");
        assert!(report.events.is_empty(), "live runs carry no virtual-time events");
        assert!(report.throughput_per_kilotick() > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn keyspace_drive_reports_throughput_across_keys() {
        let config = KeyspaceConfig::new(5, 1, 3, 8, 2, 2).unwrap();
        let cluster =
            KeyspaceCluster::start_on(InMemoryTransport::new(), config, Protocol::W2Ra).unwrap();
        let spec = DriveSpec {
            keys: zipf(16, 1.1, 42),
            duration: Duration::from_millis(30),
            ..DriveSpec::default()
        };
        let report = keyspace(Target::Steady(&cluster), spec)
            .and_then(ChaosReport::into_throughput)
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
        let report = keyspace(
            Target::Faulted(&mut cluster, &plan),
            DriveSpec {
                keys: zipf(8, 1.1, 42),
                timeout: Some(Duration::from_secs(2)),
                retry: RetryPolicy { attempts: 4, backoff: Duration::from_millis(2) },
                duration: Duration::from_millis(400),
                ..DriveSpec::default()
            },
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
        let report = keyspace(
            Target::Faulted(&mut cluster, &plan),
            DriveSpec {
                keys: zipf(4, 0.0, 7),
                timeout: Some(Duration::from_secs(2)),
                duration: Duration::from_millis(300),
                ..DriveSpec::default()
            },
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
        let spec = DriveSpec {
            keys: zipf(1, 0.0, 7),
            duration: Duration::from_millis(20),
            ..DriveSpec::default()
        };
        let report = keyspace(Target::Steady(&cluster), spec)
            .and_then(ChaosReport::into_throughput)
            .unwrap();
        assert!(report.ops() > 0);
        cluster.shutdown();
    }
}
