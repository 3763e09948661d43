//! The live workloads rebuilt on traced endpoints: the same clusters,
//! clients and knobs the facade assembles, but started through
//! `RuntimeCluster::start_on` / `KeyspaceCluster::start_on` with a
//! [`TracedFactory`], every client tapped into a `StreamingAuditor` at
//! sample rate 1.0.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mwr::check::{StreamConfig, StreamingAuditor};
use mwr::runtime::{
    AuditReceiver, AuditTap, EndpointFactory, InMemoryTransport, KeyspaceCluster, LiveReader,
    LiveWriter, ReaderStats, RuntimeCluster, TcpRegistry, DEFAULT_TAP_CAPACITY,
};
use mwr::types::{ClusterConfig, KeyspaceConfig, ReaderId, RegisterId, Value, WriterId};
use mwr_benchmark::check::Checker;
use mwr_benchmark::cluster_of;
use mwr_benchmark::live::{Clients, OpOutput};
use mwr_benchmark::spec::{Workload, ZIPF_KEYS};
use mwr_benchmark::workloads::{
    first_ops, pack, protocol, text, Cluster, RESTART_RETRY, RESTART_TIMEOUT,
};

use crate::traced::{Collector, PipelineStats, TracedFactory};

/// What the auditor thread reports once every tap is gone.
#[derive(Debug, Default, Clone, Copy)]
pub struct AuditOutcome {
    /// Records observed, over all audited registers.
    pub records: u64,
    /// Time spent inside `StreamingAuditor::observe`.
    pub observing: Duration,
    /// Largest retained window of any register's auditor.
    pub window_high_water: usize,
    /// Registers whose verdict was not `Ok`.
    pub violations: u64,
}

/// Drains every tap into its own auditor (atomicity is per register) on
/// one thread, polling: the vendored channel has no dynamic select.
fn spawn_auditor(receivers: Vec<AuditReceiver>) -> JoinHandle<AuditOutcome> {
    std::thread::spawn(move || {
        let mut lanes: Vec<(AuditReceiver, StreamingAuditor, bool)> = receivers
            .into_iter()
            .map(|rx| (rx, StreamingAuditor::new(StreamConfig::default()), true))
            .collect();
        let mut out = AuditOutcome::default();
        loop {
            let mut idle = true;
            for (rx, auditor, open) in lanes.iter_mut().filter(|l| l.2) {
                loop {
                    match rx.try_recv() {
                        Ok(record) => {
                            idle = false;
                            let t = Instant::now();
                            auditor.observe(record);
                            out.observing += t.elapsed();
                            out.records += 1;
                        }
                        Err(crossbeam::channel::TryRecvError::Empty) => break,
                        Err(crossbeam::channel::TryRecvError::Disconnected) => {
                            *open = false;
                            break;
                        }
                    }
                }
            }
            if lanes.iter().all(|l| !l.2) {
                break;
            }
            if idle {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        for (_, auditor, _) in lanes {
            let report = auditor.finish();
            out.window_high_water = out.window_high_water.max(report.stats.window_high_water);
            out.violations += u64::from(!report.verdict.is_ok());
        }
        out
    })
}

/// A traced live deployment, clients past their first operations.
pub struct TracedRig {
    pub clients: Clients,
    pub cluster: Box<dyn Cluster>,
    pub checker: Checker,
    pub collector: Arc<Collector>,
    pub auditor: JoinHandle<AuditOutcome>,
    /// Replies that complete a round: group size minus `t`.
    pub quorum: usize,
    /// The register a loop key index names.
    pub register_of: fn(u32) -> RegisterId,
    /// Deployment-wide shared-reader counters (TCP only).
    pub reader_totals: Box<dyn Fn() -> Option<ReaderStats>>,
}

/// The single-register shapes: S=5 t=1 W=1 R=1.
fn narrow<F>(
    inner: F,
    workload: Workload,
    reader_totals: Box<dyn Fn() -> Option<ReaderStats>>,
) -> Result<TracedRig, String>
where
    F: EndpointFactory + 'static,
    F::Endpoint: PipelineStats,
{
    let factory = TracedFactory::new(inner);
    let config = ClusterConfig::new(5, 1, 1, 1).map_err(text)?;
    let cluster =
        RuntimeCluster::start_on(factory.clone(), config, protocol(workload)).map_err(text)?;
    let (tap, rx) = AuditTap::bounded(1.0, DEFAULT_TAP_CAPACITY);
    let mut writer = cluster.writer(0).map_err(text)?.with_tap(tap.clone());
    let mut reader = cluster.reader(0).map_err(text)?.with_tap(tap);
    if workload == Workload::TcpRestart {
        writer = writer
            .with_timeout(RESTART_TIMEOUT)
            .with_retry(RESTART_RETRY);
        reader = reader
            .with_timeout(RESTART_TIMEOUT)
            .with_retry(RESTART_RETRY);
    }
    Ok(TracedRig {
        clients: Clients {
            write: Box::new(move |_, v| -> OpOutput {
                writer.write(Value::new(v)).map(pack).map_err(text)
            }),
            read: Box::new(move |_| -> OpOutput { reader.read().map(pack).map_err(text) }),
        },
        cluster: cluster_of!(cluster),
        checker: Checker::new(1),
        collector: Arc::clone(factory.collector()),
        auditor: spawn_auditor(vec![rx]),
        quorum: config.quorum_size(),
        register_of: |_| RegisterId::DEFAULT,
        reader_totals,
    })
}

/// `ks-zipf`: S=11 t=1 g=5, 16 shards, one writer and one reader identity
/// sharing one endpoint each across all 64 keys.
fn keyed() -> Result<TracedRig, String> {
    let factory = TracedFactory::new(InMemoryTransport::new());
    let config = KeyspaceConfig::new(11, 1, 5, 16, 1, 1).map_err(text)?;
    let protocol = protocol(Workload::KsZipf);
    let cluster = KeyspaceCluster::start_on(factory.clone(), config, protocol).map_err(text)?;
    let register_of: fn(u32) -> RegisterId = |key| RegisterId::new(key + 1);
    let (wid, rid) = (WriterId::new(0), ReaderId::new(0));
    let writer_ep = Arc::new(factory.open(wid.into()).map_err(text)?);
    let reader_ep = Arc::new(factory.open(rid.into()).map_err(text)?);
    let group = config.group_config();
    let (mut writers, mut readers, mut receivers) = (Vec::new(), Vec::new(), Vec::new());
    for key in 0..ZIPF_KEYS as u32 {
        let register = register_of(key);
        let members = cluster.router().group_of(register);
        let (tap, rx) = AuditTap::bounded(1.0, DEFAULT_TAP_CAPACITY);
        receivers.push(rx);
        writers.push(
            LiveWriter::new(Arc::clone(&writer_ep), wid, group, protocol.write_mode())
                .with_scope(register, members.clone())
                .with_view(cluster.view())
                .with_tap(tap.clone()),
        );
        readers.push(
            LiveReader::new(Arc::clone(&reader_ep), rid, group, protocol.read_mode())
                .with_scope(register, members)
                .with_view(cluster.view())
                .with_tap(tap),
        );
    }
    Ok(TracedRig {
        clients: Clients {
            write: Box::new(move |key, v| -> OpOutput {
                writers[key].write(Value::new(v)).map(pack).map_err(text)
            }),
            read: Box::new(move |key| -> OpOutput { readers[key].read().map(pack).map_err(text) }),
        },
        cluster: cluster_of!(cluster),
        checker: Checker::new(ZIPF_KEYS),
        collector: Arc::clone(factory.collector()),
        auditor: spawn_auditor(receivers),
        quorum: config.group_quorum(),
        register_of,
        reader_totals: Box::new(|| None),
    })
}

/// Deploys `workload` on traced endpoints and completes one operation per
/// client (so client `seq` 0 is spent before the loop starts).
pub fn deploy_traced(workload: Workload) -> Result<TracedRig, String> {
    let mut rig = match workload {
        Workload::MemNarrow => narrow(InMemoryTransport::new(), workload, Box::new(|| None))?,
        Workload::TcpNarrow | Workload::TcpRestart => {
            let registry = TcpRegistry::new();
            let totals = registry.clone();
            narrow(
                registry,
                workload,
                Box::new(move || Some(totals.reader_totals())),
            )?
        }
        Workload::KsZipf => keyed()?,
        Workload::SimWide => return Err("sim-wide has no endpoints to trace".into()),
    };
    first_ops(&mut rig.clients, &rig.checker)?;
    Ok(rig)
}
