//! Experiment T1 — open-loop throughput on the live runtime.
//!
//! `live_latency` measures one operation at a time (closed loop); this bin
//! measures the other half of the practicality story (Nicolaou &
//! Georgiou): sustained ops/sec and latency-*under-load* as the client
//! population scales. It sweeps writer × reader counts over both live
//! transports for W2R1 (fast reads) and W2R2 (two-round reads), driving
//! every client open-loop — back-to-back operations, load fixed by the
//! population, not by a think-time schedule.
//!
//! Every sweep point runs once per transport: `channel` rows over the
//! in-memory transport, `shared` rows over loopback TCP (one connection
//! per peer pair, one readiness-driven reactor thread for the whole
//! cluster). TCP rows additionally report the reactor's wake-per-frame
//! ratio, and the contended W2R1-vs-W2R2 TCP ratio is the paper-claim
//! headline.
//!
//! The cluster is S = 11, t = 1: large enough that W2R1's fast-read
//! condition `R < S/t − 2 = 9` still holds at the sweep's maximum R = 8.
//!
//! With `--audit` every sweep point additionally carries the streaming
//! linearizability auditor (`--audit-sample`, default 0.1 of reads; writes
//! are always sampled) and the run fails on any violation. The unfiltered
//! run always measures the auditor's overhead — the most contended
//! in-memory point driven twice, bare and audited — and reports it in the
//! output and the JSON artifact.
//!
//! Emits `BENCH_live_throughput.json`. With `--assert-floor`, exits
//! non-zero if any sweep point completes fewer than
//! `--floor` ops/sec (default 50) — the CI liveness-under-load gate.
//!
//! With `--keys N[,M..] --zipf s` the bin runs the **keyspace sweep**
//! instead: each point deploys a sharded multi-register keyspace
//! ([`Keyspace`]) on the same 11 servers and drives it open-loop with
//! Zipf(`s`)-skewed key popularity. `--keys 1` degenerates to the
//! single-register service (group = whole cluster, W2R1) — the parity
//! points against the main sweep — while multi-key points shard into
//! groups of 5 (where W2R1's fast-read bound fails at R ≥ 3, so reads
//! adapt: W2Ra). Emits `BENCH_keyspace.json` in the sweep-line shape plus
//! `keys`/`zipf` columns, and honors `--audit` with one streaming auditor
//! per touched register.
//!
//! With `--faults rolling-restart|churn-storm|reconfigure`
//! (comma-separable) the bin runs the named audited chaos scenario(s)
//! instead of the sweep: a deterministic [`FaultPlan`] is armed on the
//! deployment and driven with `run_chaos` while stable clients measure
//! throughput *through* the faults. Rolling restart crashes and rejoins
//! every TCP server once (quorum state transfer on the live wire); churn
//! storm floods the in-memory cluster with hundreds of short-lived clients
//! that join, read, and depart floor-safely; reconfigure swaps two live
//! TCP servers for two fresh ones mid-traffic through the joint-quorum
//! handover, and additionally measures a fault-free *steady-state twin* of
//! the same deployment — the scenario fails unless throughput through the
//! reconfiguration window holds at least 50% of steady state. Combining
//! `--keys N[,M..]` with `--faults` adds one keyspace chaos row per
//! scenario × key count: the same plans driven against the sharded
//! Zipf-keyed service (per-shard state transfer, per-shard joint-quorum
//! handover). Emits `BENCH_chaos.json` in the same sweep-line shape
//! (`send_path` = scenario, plus a `faults` column and, on keyspace rows,
//! `keys`/`zipf` columns) so `bench_delta` renders chaos rows too, and
//! exits non-zero on any auditor violation, failed operation, unhealed
//! fault, unrecovered server, or breached reconfigure-window floor.

use std::fmt::Write as _;
use std::time::Duration;

use mwr_bench::args::Args;
use mwr_core::Protocol;
use mwr_keyspace::{Keyspace, KeyspaceHandle};
use mwr_register::{
    AuditConfig, AuditReport, Backend, Deployment, FaultPlan, LiveHandle, RetryPolicy,
};
use mwr_runtime::{EndpointFactory, ReaderStats};
use mwr_types::{ClusterConfig, KeyspaceConfig};
use mwr_workload::{TextTable, ThroughputReport};

const SERVERS: usize = 11;
const FAULTS: usize = 1;

/// One measured sweep point.
struct Row {
    transport: &'static str,
    send_path: &'static str,
    protocol: Protocol,
    writers: usize,
    readers: usize,
    ops: usize,
    ops_per_sec: f64,
    wr_p50_us: u64,
    wr_p99_us: u64,
    rd_p50_us: u64,
    rd_p99_us: u64,
    audit: Option<AuditReport>,
    /// Deployment-wide reader counters, on TCP rows only: wakes per frame
    /// is how many frames one reactor wake-up amortizes over.
    reader: Option<ReaderStats>,
}

impl Row {
    #[allow(clippy::too_many_arguments)]
    fn from_report(
        transport: &'static str,
        send_path: &'static str,
        protocol: Protocol,
        writers: usize,
        readers: usize,
        mut report: ThroughputReport,
        audit: Option<AuditReport>,
        reader: Option<ReaderStats>,
    ) -> Row {
        Row {
            transport,
            send_path,
            protocol,
            writers,
            readers,
            ops: report.ops(),
            ops_per_sec: report.ops_per_sec(),
            wr_p50_us: report.writes.percentile(50.0).ticks(),
            wr_p99_us: report.writes.percentile(99.0).ticks(),
            rd_p50_us: report.reads.percentile(50.0).ticks(),
            rd_p99_us: report.reads.percentile(99.0).ticks(),
            audit,
            reader,
        }
    }

    /// Poll wake-ups per decoded frame across the whole deployment; < 1.0
    /// means one `poll` wake drained multiple frames.
    fn wakes_per_frame(&self) -> Option<f64> {
        let r = self.reader?;
        (r.frames > 0).then(|| r.wakes as f64 / r.frames as f64)
    }

    fn cells(&self) -> Vec<String> {
        vec![
            self.transport.to_string(),
            self.send_path.to_string(),
            self.protocol.name().to_string(),
            format!("{}x{}", self.writers, self.readers),
            self.ops.to_string(),
            format!("{:.0}", self.ops_per_sec),
            self.wr_p50_us.to_string(),
            self.wr_p99_us.to_string(),
            self.rd_p50_us.to_string(),
            self.rd_p99_us.to_string(),
            self.wakes_per_frame().map_or_else(|| "-".into(), |w| format!("{w:.3}")),
        ]
    }
}

/// Deploys, drives open-loop, shuts down; generic over the transport.
fn drive_on<F: EndpointFactory>(
    handle: LiveHandle<F>,
    duration: Duration,
) -> (ThroughputReport, Option<AuditReport>) {
    let report = handle.run_open_loop(duration).expect("open-loop drive");
    let (_handled, audit) = handle.shutdown_audited();
    (report, audit)
}

fn measure_point(
    transport: &'static str,
    protocol: Protocol,
    writers: usize,
    readers: usize,
    duration: Duration,
    audit: Option<AuditConfig>,
) -> Row {
    let config = ClusterConfig::new(SERVERS, FAULTS, readers, writers).expect("valid sweep config");
    let mut deployment = Deployment::new(config).protocol(protocol);
    if let Some(cfg) = audit {
        deployment = deployment.audit(cfg);
    }
    let mut reader = None;
    let (send_path, (report, audit)) = match transport {
        "in-memory" => (
            "channel",
            drive_on(
                deployment.backend(Backend::InMemory).in_memory().expect("in-memory cluster"),
                duration,
            ),
        ),
        // Snapshot the deployment-wide reader counters before shutdown so
        // this row carries its own traffic's wake-per-frame ratio.
        "tcp" => {
            let handle = deployment.backend(Backend::Tcp).tcp().expect("tcp cluster");
            let report = handle.run_open_loop(duration).expect("open-loop drive");
            reader = Some(handle.cluster().factory().reader_totals());
            let (_handled, audit) = handle.shutdown_audited();
            ("shared", (report, audit))
        }
        other => unreachable!("unknown transport {other}"),
    };
    Row::from_report(transport, send_path, protocol, writers, readers, report, audit, reader)
}

/// The audit-overhead pair: the most contended in-memory point driven
/// bare and then audited at `rate`, same duration.
struct AuditOverhead {
    rate: f64,
    base_ops_per_sec: f64,
    audited_ops_per_sec: f64,
    report: AuditReport,
}

impl AuditOverhead {
    fn overhead_pct(&self) -> f64 {
        (1.0 - self.audited_ops_per_sec / self.base_ops_per_sec.max(1e-9)) * 100.0
    }
}

fn measure_audit_overhead(
    protocol: Protocol,
    clients: usize,
    duration: Duration,
    rate: f64,
) -> AuditOverhead {
    let bare = measure_point("in-memory", protocol, clients, clients, duration, None);
    let audited = measure_point(
        "in-memory",
        protocol,
        clients,
        clients,
        duration,
        Some(AuditConfig::sampled(rate)),
    );
    let report = audited.audit.expect("audited point carries a report");
    AuditOverhead {
        rate,
        base_ops_per_sec: bare.ops_per_sec,
        audited_ops_per_sec: audited.ops_per_sec,
        report,
    }
}

/// One completed chaos scenario, with the throughput numbers flattened at
/// construction (percentile extraction needs the report mutable).
struct ChaosRow {
    scenario: &'static str,
    transport: &'static str,
    protocol: Protocol,
    writers: usize,
    readers: usize,
    servers: usize,
    /// `Some` on keyspace chaos rows: the Zipf-keyed register count.
    keys: Option<usize>,
    /// `Some` on keyspace chaos rows: the Zipf skew.
    zipf: Option<f64>,
    /// Plan-specific expectation: servers each crashed+rejoined once
    /// (rolling restart), churn clients each joined+departed once, or
    /// joint-quorum handovers committed (reconfigure).
    expected_cycles: u32,
    ops: usize,
    ops_per_sec: f64,
    wr_p50_us: u64,
    wr_p99_us: u64,
    rd_p50_us: u64,
    rd_p99_us: u64,
    /// Fault-free twin of the same deployment (reconfigure only): the
    /// chaos window must hold ≥ [`RECONFIG_WINDOW_FLOOR`] of this.
    steady_ops_per_sec: Option<f64>,
    report: mwr_register::ChaosReport,
    audit: Option<AuditReport>,
    /// Keyspace chaos rows: `(registers audited, ops audited, all ok)`.
    key_audit: Option<(usize, u64, bool)>,
}

const CHAOS_SERVERS: usize = 3;

/// Reconfigure scenarios swap 2 of 5 servers: S = 5, t = 1 keeps both the
/// old and new quorums live through the joint window.
const RECONFIG_SERVERS: usize = 5;

/// Minimum fraction of fault-free steady-state throughput the reconfigure
/// window must sustain.
const RECONFIG_WINDOW_FLOOR: f64 = 0.5;

/// Runs the armed fault plan and flattens the report; generic over the
/// transport.
fn drive_chaos<F: EndpointFactory>(
    mut cluster: LiveHandle<F>,
    duration: Duration,
    scenario: &'static str,
    transport: &'static str,
    servers: usize,
    expected_cycles: u32,
) -> ChaosRow {
    let mut report = cluster.run_chaos(duration).expect("chaos drive");
    let (_handled, audit) = cluster.shutdown_audited();
    ChaosRow {
        scenario,
        transport,
        protocol: Protocol::W2R1,
        writers: 2,
        readers: 2,
        servers,
        keys: None,
        zipf: None,
        expected_cycles,
        ops: report.throughput.ops(),
        ops_per_sec: report.throughput.ops_per_sec(),
        wr_p50_us: report.throughput.writes.percentile(50.0).ticks(),
        wr_p99_us: report.throughput.writes.percentile(99.0).ticks(),
        rd_p50_us: report.throughput.reads.percentile(50.0).ticks(),
        rd_p99_us: report.throughput.reads.percentile(99.0).ticks(),
        steady_ops_per_sec: None,
        report,
        audit,
        key_audit: None,
    }
}

/// Deploys the named scenario, drives it under the fault plan, and
/// returns the measured row. Exits with usage on an unknown name.
fn run_fault_scenario(kind: &str, quick: bool, audit: Option<AuditConfig>) -> ChaosRow {
    let config = ClusterConfig::new(CHAOS_SERVERS, 1, 2, 2).expect("chaos cluster config");
    match kind {
        "rolling-restart" => {
            // The fault-window client configuration: a round whose frames
            // died with a crashed (or freshly re-bound) server times out
            // fast, and the retry's re-broadcast reconnects to the
            // incarnation's new address.
            let mut deployment = Deployment::new(config)
                .protocol(Protocol::W2R1)
                .backend(Backend::Tcp)
                .timeout(Duration::from_millis(400))
                .retry(RetryPolicy { attempts: 10, backoff: Duration::from_millis(10) })
                .inject(FaultPlan::rolling_restart(CHAOS_SERVERS as u32, 150));
            if let Some(cfg) = audit {
                deployment = deployment.audit(cfg);
            }
            let cluster = deployment.tcp().expect("tcp chaos cluster");
            let duration = Duration::from_millis(if quick { 2_000 } else { 4_000 });
            drive_chaos(
                cluster,
                duration,
                "rolling-restart",
                "tcp",
                CHAOS_SERVERS,
                CHAOS_SERVERS as u32,
            )
        }
        "churn-storm" => {
            let clients: u32 = if quick { 200 } else { 500 };
            let mut deployment = Deployment::new(config)
                .protocol(Protocol::W2R1)
                .backend(Backend::InMemory)
                .inject(FaultPlan::churn_storm(clients, 2, 20));
            if let Some(cfg) = audit {
                deployment = deployment.audit(cfg);
            }
            let cluster = deployment.in_memory().expect("in-memory chaos cluster");
            let duration = Duration::from_millis(if quick { 1_000 } else { 2_000 });
            drive_chaos(cluster, duration, "churn-storm", "in-memory", CHAOS_SERVERS, clients)
        }
        "reconfigure" => {
            // Swap 2 of 5 live TCP servers mid-traffic: announce the joint
            // epoch, quorum-transfer state to the joiners, commit, tear
            // down the removed pair — stable clients keep serving through
            // the whole window (a round that straddles the handover
            // refreshes its endpoint set mid-flight).
            let config =
                ClusterConfig::new(RECONFIG_SERVERS, 1, 2, 2).expect("reconfig cluster config");
            let duration = Duration::from_millis(if quick { 2_000 } else { 4_000 });
            let build = |plan: Option<FaultPlan>| {
                let mut deployment = Deployment::new(config)
                    .protocol(Protocol::W2R1)
                    .backend(Backend::Tcp)
                    .timeout(Duration::from_millis(400))
                    .retry(RetryPolicy { attempts: 10, backoff: Duration::from_millis(10) });
                if let Some(plan) = plan {
                    deployment = deployment.inject(plan);
                }
                deployment
            };
            // The fault-free twin first: same shape, same duration, no
            // plan — the denominator of the window-throughput floor.
            let twin = build(None).tcp().expect("tcp steady twin");
            let steady = twin.run_open_loop(duration).expect("steady twin drive").ops_per_sec();
            twin.shutdown();
            let mut deployment = build(Some(FaultPlan::reconfigure(2, 2, 150)));
            if let Some(cfg) = audit {
                deployment = deployment.audit(cfg);
            }
            let cluster = deployment.tcp().expect("tcp reconfig cluster");
            let mut row =
                drive_chaos(cluster, duration, "reconfigure", "tcp", RECONFIG_SERVERS, 1);
            row.steady_ops_per_sec = Some(steady);
            row
        }
        other => {
            eprintln!(
                "--faults expects rolling-restart|churn-storm|reconfigure \
                 (comma-separable), got {other:?}"
            );
            std::process::exit(2);
        }
    }
}

/// Runs the armed fault plan against a sharded keyspace and flattens the
/// report plus the per-register audit verdicts; generic over the
/// transport.
fn drive_keyspace_chaos<F: EndpointFactory>(
    mut handle: KeyspaceHandle<F>,
    keys: usize,
    zipf: f64,
    duration: Duration,
    scenario: &'static str,
    transport: &'static str,
    expected_cycles: u32,
) -> ChaosRow {
    let mut report = handle.run_chaos(keys, zipf, duration, 7).expect("keyspace chaos drive");
    let (_handled, reports) = handle.shutdown_audited();
    let key_audit = (!reports.is_empty()).then(|| {
        (
            reports.len(),
            reports.values().map(|a| a.stats.audited).sum(),
            reports.values().all(|a| a.verdict.is_ok()),
        )
    });
    ChaosRow {
        scenario,
        transport,
        protocol: Protocol::W2Ra,
        writers: 2,
        readers: 2,
        servers: RECONFIG_SERVERS,
        keys: Some(keys),
        zipf: Some(zipf),
        expected_cycles,
        ops: report.throughput.ops(),
        ops_per_sec: report.throughput.ops_per_sec(),
        wr_p50_us: report.throughput.writes.percentile(50.0).ticks(),
        wr_p99_us: report.throughput.writes.percentile(99.0).ticks(),
        rd_p50_us: report.throughput.reads.percentile(50.0).ticks(),
        rd_p99_us: report.throughput.reads.percentile(99.0).ticks(),
        steady_ops_per_sec: None,
        report,
        audit: None,
        key_audit,
    }
}

/// Deploys the named scenario against the sharded keyspace (S = 5, t = 1,
/// groups of 3, 8 shards) and drives it under the same fault plan:
/// per-shard quorum state transfer on rejoin, per-shard joint-quorum
/// handover on reconfigure, Zipf-keyed traffic throughout. Unknown names
/// were already rejected by [`run_fault_scenario`], which runs first.
fn run_keyspace_fault_scenario(
    kind: &str,
    keys: usize,
    zipf: f64,
    quick: bool,
    audit: Option<AuditConfig>,
) -> ChaosRow {
    let config =
        KeyspaceConfig::new(RECONFIG_SERVERS, 1, 3, 8, 2, 2).expect("keyspace chaos config");
    let blueprint = |plan: Option<FaultPlan>, audited: bool| {
        let mut b = Keyspace::new(config)
            .protocol(Protocol::W2Ra)
            .timeout(Duration::from_millis(400))
            .retry(RetryPolicy { attempts: 10, backoff: Duration::from_millis(10) });
        if let Some(plan) = plan {
            b = b.inject(plan);
        }
        if let (Some(cfg), true) = (audit, audited) {
            b = b.audit(cfg);
        }
        b
    };
    match kind {
        "rolling-restart" => {
            // A shorter stride than the register scenario: five servers
            // must each crash and rejoin inside the window, and every
            // rejoin pays a per-shard fetch quorum.
            let plan = FaultPlan::rolling_restart(RECONFIG_SERVERS as u32, 100);
            let handle = blueprint(Some(plan), true).tcp().expect("tcp keyspace chaos");
            let duration = Duration::from_millis(if quick { 2_000 } else { 4_000 });
            drive_keyspace_chaos(
                handle,
                keys,
                zipf,
                duration,
                "rolling-restart",
                "tcp",
                RECONFIG_SERVERS as u32,
            )
        }
        "churn-storm" => {
            let clients: u32 = if quick { 200 } else { 500 };
            let plan = FaultPlan::churn_storm(clients, 2, 20);
            let handle = blueprint(Some(plan), true).in_memory().expect("in-memory keyspace chaos");
            let duration = Duration::from_millis(if quick { 1_000 } else { 2_000 });
            drive_keyspace_chaos(handle, keys, zipf, duration, "churn-storm", "in-memory", clients)
        }
        "reconfigure" => {
            let duration = Duration::from_millis(if quick { 2_000 } else { 4_000 });
            // Fault-free steady-state twin, as in the register scenario.
            let twin = blueprint(None, false).tcp().expect("tcp keyspace steady twin");
            let steady =
                twin.run_open_loop(keys, zipf, duration, 7).expect("steady twin drive").ops_per_sec();
            twin.shutdown();
            let plan = FaultPlan::reconfigure(2, 2, 150);
            let handle = blueprint(Some(plan), true).tcp().expect("tcp keyspace reconfig");
            let mut row =
                drive_keyspace_chaos(handle, keys, zipf, duration, "reconfigure", "tcp", 1);
            row.steady_ops_per_sec = Some(steady);
            row
        }
        other => unreachable!("unvalidated keyspace fault scenario {other}"),
    }
}

/// Everything wrong with a finished scenario: empty means it passed.
fn chaos_failures(row: &ChaosRow) -> Vec<String> {
    let r = &row.report;
    let mut fails = Vec::new();
    if !r.healed() {
        fails.push(format!(
            "unhealed faults: {} rejoin failure(s), {} skipped step(s), {} failed op(s), \
             {} of {} churn clients departed",
            r.rejoin_failures, r.steps_skipped, r.failed_ops, r.churn_departed, r.churn_joined,
        ));
    }
    if r.live_servers.len() != row.servers {
        fails.push(format!(
            "unrecovered server(s): {:?} live of {}",
            r.live_servers, row.servers
        ));
    }
    let cycles_ok = match row.scenario {
        "rolling-restart" => r.crashes == row.expected_cycles && r.rejoins == row.expected_cycles,
        "reconfigure" => r.reconfigs == row.expected_cycles,
        _ => r.churn_joined == row.expected_cycles,
    };
    if !cycles_ok {
        fails.push(format!(
            "plan under-ran: {} crashes / {} rejoins / {} reconfigs / {} churn joins, \
             expected {} cycles",
            r.crashes, r.rejoins, r.reconfigs, r.churn_joined, row.expected_cycles,
        ));
    }
    if let Some(steady) = row.steady_ops_per_sec {
        if row.ops_per_sec < RECONFIG_WINDOW_FLOOR * steady {
            fails.push(format!(
                "reconfigure window held {:.0} ops/s, below {:.0}% of the {steady:.0} ops/s \
                 fault-free steady state",
                row.ops_per_sec,
                RECONFIG_WINDOW_FLOOR * 100.0,
            ));
        }
    }
    if let Some(a) = &row.audit {
        if !a.verdict.is_ok() {
            fails.push(format!("AUDIT VIOLATION: {a}"));
        }
    }
    if let Some((registers, _, ok)) = row.key_audit {
        if !ok {
            fails.push(format!(
                "AUDIT VIOLATION: a per-register auditor (of {registers}) rejected its history"
            ));
        }
    }
    fails
}

/// `BENCH_chaos.json`: the scenarios in the sweep-line shape
/// `bench_delta` parses (`send_path` = scenario, `faults` = scenario, and
/// keyspace chaos rows carry `keys`/`zipf` identity columns), plus the
/// chaos counters and — on reconfigure rows — the fault-free steady-state
/// twin's throughput.
fn chaos_to_json(rows: &[ChaosRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"experiment\": \"live_throughput_chaos\",\n  \"sweep\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        let _ = write!(
            s,
            "    {{\"transport\": \"{}\", \"send_path\": \"{}\", \"protocol\": \"{}\", \
             \"writers\": {}, \"readers\": {}",
            row.transport,
            row.scenario,
            row.protocol.name(),
            row.writers,
            row.readers,
        );
        if let (Some(keys), Some(zipf)) = (row.keys, row.zipf) {
            let _ = write!(s, ", \"keys\": {keys}, \"zipf\": {zipf:.2}");
        }
        let _ = write!(
            s,
            ", \"ops\": {}, \"ops_per_sec\": {:.1}, \"wr_p50_us\": {}, \"wr_p99_us\": {}, \
             \"rd_p50_us\": {}, \"rd_p99_us\": {}, \"faults\": \"{}\", \"crashes\": {}, \
             \"rejoins\": {}, \"reconfigs\": {}, \"reconfig_failures\": {}, \
             \"churn_joined\": {}, \"churn_departed\": {}, \"churn_reads\": {}, \
             \"failed_ops\": {}, \"steps_skipped\": {}, \"live_servers\": {}",
            row.ops,
            row.ops_per_sec,
            row.wr_p50_us,
            row.wr_p99_us,
            row.rd_p50_us,
            row.rd_p99_us,
            row.scenario,
            r.crashes,
            r.rejoins,
            r.reconfigs,
            r.reconfig_failures,
            r.churn_joined,
            r.churn_departed,
            r.churn_reads,
            r.failed_ops,
            r.steps_skipped,
            r.live_servers.len(),
        );
        if let Some(steady) = row.steady_ops_per_sec {
            let _ = write!(s, ", \"steady_ops_per_sec\": {steady:.1}");
        }
        if let Some(a) = &row.audit {
            let _ = write!(
                s,
                ", \"ops_audited\": {}, \"audit_ok\": {}",
                a.stats.audited,
                a.verdict.is_ok(),
            );
        }
        if let Some((registers, audited, ok)) = row.key_audit {
            let _ = write!(
                s,
                ", \"registers_audited\": {registers}, \"ops_audited\": {audited}, \
                 \"audit_ok\": {ok}"
            );
        }
        s.push('}');
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `--faults` entry point: run each named scenario (plus, with
/// `--keys`, its keyspace variant per key count), print the table, write
/// `BENCH_chaos.json`, and exit non-zero if any scenario failed.
fn run_chaos_mode(
    kinds: &str,
    key_counts: Option<&[usize]>,
    zipf: f64,
    quick: bool,
    audit: Option<AuditConfig>,
) -> ! {
    let mut rows: Vec<ChaosRow> = Vec::new();
    for kind in kinds.split(',').map(str::trim).filter(|k| !k.is_empty()) {
        rows.push(run_fault_scenario(kind, quick, audit));
        for &keys in key_counts.unwrap_or_default() {
            rows.push(run_keyspace_fault_scenario(kind, keys, zipf, quick, audit));
        }
    }
    if rows.is_empty() {
        eprintln!("--faults expects at least one scenario name");
        std::process::exit(2);
    }

    let mut table = TextTable::new(vec![
        "scenario", "transport", "keys", "ops", "ops/s", "steady", "wr p99µs", "rd p99µs",
        "crash/rejoin", "reconf", "churn join/depart", "failed", "live",
    ]);
    for row in &rows {
        let r = &row.report;
        table.row(vec![
            row.scenario.to_string(),
            row.transport.to_string(),
            row.keys.map_or_else(|| "-".into(), |k| k.to_string()),
            row.ops.to_string(),
            format!("{:.0}", row.ops_per_sec),
            row.steady_ops_per_sec.map_or_else(|| "-".into(), |s| format!("{s:.0}")),
            row.wr_p99_us.to_string(),
            row.rd_p99_us.to_string(),
            format!("{}/{}", r.crashes, r.rejoins),
            format!("{}/{}", r.reconfigs, r.reconfig_failures),
            format!("{}/{}", r.churn_joined, r.churn_departed),
            r.failed_ops.to_string(),
            format!("{}/{}", r.live_servers.len(), row.servers),
        ]);
    }
    println!("== chaos: audited fault scenarios (t=1, stable 2x2 clients) ==\n");
    println!("{table}");
    for row in &rows {
        if let Some(a) = &row.audit {
            println!("{}: {}", row.scenario, a);
        }
        if let Some((registers, audited, ok)) = row.key_audit {
            println!(
                "{} keys={}: {audited} ops audited across {registers} register-auditor(s), \
                 verdicts {}",
                row.scenario,
                row.keys.unwrap_or(0),
                if ok { "ok" } else { "VIOLATED" },
            );
        }
    }

    std::fs::write("BENCH_chaos.json", chaos_to_json(&rows)).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json");

    let mut failed = false;
    for row in &rows {
        for fail in chaos_failures(row) {
            eprintln!("FAIL [{}]: {fail}", row.scenario);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("chaos gate passed: every fault healed, every server recovered, audit clean");
    std::process::exit(0);
}

/// Shards in every keyspace deployment: 16 over 11 servers gives each
/// server membership in several overlapping groups.
const KEYSPACE_SHARDS: usize = 16;

/// Group size for multi-key points: g = 5, t = 1 keeps per-shard majority
/// quorums at 4-of-5 while fanning each operation to less than half the
/// cluster.
const KEYSPACE_GROUP: usize = 5;

/// One measured keyspace sweep point.
struct KeyspaceRow {
    transport: &'static str,
    send_path: &'static str,
    protocol: Protocol,
    keys: usize,
    zipf: f64,
    writers: usize,
    readers: usize,
    ops: usize,
    ops_per_sec: f64,
    wr_p50_us: u64,
    wr_p99_us: u64,
    rd_p50_us: u64,
    rd_p99_us: u64,
    /// `(registers audited, ops audited, all verdicts ok)` under `--audit`.
    audit: Option<(usize, u64, bool)>,
}

/// Drives the deployed keyspace open-loop and collects the per-register
/// audit verdicts; generic over the transport.
fn drive_keyspace<F: EndpointFactory>(
    handle: KeyspaceHandle<F>,
    keys: usize,
    zipf: f64,
    duration: Duration,
) -> (ThroughputReport, Option<(usize, u64, bool)>) {
    let report = handle.run_open_loop(keys, zipf, duration, 7).expect("keyspace drive");
    let (_handled, reports) = handle.shutdown_audited();
    let audit = (!reports.is_empty()).then(|| {
        (
            reports.len(),
            reports.values().map(|a| a.stats.audited).sum(),
            reports.values().all(|a| a.verdict.is_ok()),
        )
    });
    (report, audit)
}

fn measure_keyspace_point(
    transport: &'static str,
    keys: usize,
    zipf: f64,
    writers: usize,
    readers: usize,
    duration: Duration,
    audit: Option<AuditConfig>,
) -> KeyspaceRow {
    // One key degenerates to the single-register service: the group is the
    // whole cluster and W2R1's fast-read bound t(R + 2) < S holds up to
    // R = 8 at S = 11 — these are the parity points against the main
    // sweep. Multi-key points shard into groups of 5, where that bound
    // fails at R ≥ 3, so reads adapt per snapshot (W2Ra).
    let (group, protocol) = if keys == 1 {
        (SERVERS, Protocol::W2R1)
    } else {
        (KEYSPACE_GROUP, Protocol::W2Ra)
    };
    let config = KeyspaceConfig::new(SERVERS, FAULTS, group, KEYSPACE_SHARDS, readers, writers)
        .expect("valid keyspace sweep config");
    let mut blueprint = Keyspace::new(config).protocol(protocol);
    if let Some(cfg) = audit {
        blueprint = blueprint.audit(cfg);
    }
    let (send_path, (mut report, audit)) = match transport {
        "in-memory" => (
            "channel",
            drive_keyspace(blueprint.in_memory().expect("in-memory keyspace"), keys, zipf, duration),
        ),
        "tcp" => (
            "shared",
            drive_keyspace(blueprint.tcp().expect("tcp keyspace"), keys, zipf, duration),
        ),
        other => unreachable!("unknown keyspace transport {other}"),
    };
    KeyspaceRow {
        transport,
        send_path,
        protocol,
        keys,
        zipf,
        writers,
        readers,
        ops: report.ops(),
        ops_per_sec: report.ops_per_sec(),
        wr_p50_us: report.writes.percentile(50.0).ticks(),
        wr_p99_us: report.writes.percentile(99.0).ticks(),
        rd_p50_us: report.reads.percentile(50.0).ticks(),
        rd_p99_us: report.reads.percentile(99.0).ticks(),
        audit,
    }
}

/// `BENCH_keyspace.json`: the sweep-line shape `bench_delta` parses, plus
/// `keys`/`zipf` columns on every row.
fn keyspace_to_json(duration: Duration, zipf: f64, rows: &[KeyspaceRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"experiment\": \"live_throughput_keyspace\",\n");
    let _ = writeln!(s, "  \"duration_ms\": {},", duration.as_millis());
    let _ = writeln!(s, "  \"servers\": {SERVERS},");
    let _ = writeln!(s, "  \"shards\": {KEYSPACE_SHARDS},");
    let _ = writeln!(s, "  \"group_size\": {KEYSPACE_GROUP},");
    let _ = writeln!(s, "  \"zipf\": {zipf:.2},");
    s.push_str("  \"sweep\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"transport\": \"{}\", \"send_path\": \"{}\", \"protocol\": \"{}\", \
             \"writers\": {}, \"readers\": {}, \"keys\": {}, \"zipf\": {:.2}, \"ops\": {}, \
             \"ops_per_sec\": {:.1}, \"wr_p50_us\": {}, \"wr_p99_us\": {}, \"rd_p50_us\": {}, \
             \"rd_p99_us\": {}",
            row.transport,
            row.send_path,
            row.protocol.name(),
            row.writers,
            row.readers,
            row.keys,
            row.zipf,
            row.ops,
            row.ops_per_sec,
            row.wr_p50_us,
            row.wr_p99_us,
            row.rd_p50_us,
            row.rd_p99_us,
        );
        if let Some((registers, audited, ok)) = &row.audit {
            let _ = write!(
                s,
                ", \"registers_audited\": {registers}, \"ops_audited\": {audited}, \
                 \"audit_ok\": {ok}"
            );
        }
        s.push('}');
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `--keys` entry point: sweep the keyspace, print the table and the
/// sharding headline, write `BENCH_keyspace.json`, and exit non-zero on
/// any audit violation or floor breach.
fn run_keyspace_mode(
    key_counts: &[usize],
    zipf: f64,
    quick: bool,
    duration: Duration,
    audit: Option<AuditConfig>,
    floor: Option<f64>,
) -> ! {
    let points: &[(usize, usize)] =
        if quick { &[(4, 4)] } else { &[(1, 1), (2, 2), (4, 4), (8, 8)] };
    println!(
        "== T1k: open-loop keyspace throughput (S={SERVERS} t={FAULTS}, {KEYSPACE_SHARDS} \
         shards, g={KEYSPACE_GROUP} multi-key / g={SERVERS} single-key, zipf {zipf}, \
         {} ms/point) ==\n",
        duration.as_millis()
    );

    let mut rows: Vec<KeyspaceRow> = Vec::new();
    for &keys in key_counts {
        for &(w, r) in points {
            rows.push(measure_keyspace_point("in-memory", keys, zipf, w, r, duration, audit));
            rows.push(measure_keyspace_point("tcp", keys, zipf, w, r, duration, audit));
        }
    }

    let mut table = TextTable::new(vec![
        "transport", "send path", "protocol", "keys", "WxR", "ops", "ops/s", "wr p50µs", "wr p99",
        "rd p50µs", "rd p99",
    ]);
    for row in &rows {
        table.row(vec![
            row.transport.to_string(),
            row.send_path.to_string(),
            row.protocol.name().to_string(),
            row.keys.to_string(),
            format!("{}x{}", row.writers, row.readers),
            row.ops.to_string(),
            format!("{:.0}", row.ops_per_sec),
            row.wr_p50_us.to_string(),
            row.wr_p99_us.to_string(),
            row.rd_p50_us.to_string(),
            row.rd_p99_us.to_string(),
        ]);
    }
    println!("{table}");

    // Headlines: what sharding buys — the most contended in-memory
    // multi-key point against its single-key twin, and the best multi-key
    // in-memory point against the single-key most-contended figure (on a
    // core-starved box the contended points are scheduler-bound, so the
    // best point is where the smaller quorums actually show).
    let (max_w, max_r) = *points.last().expect("non-empty point list");
    let at = |keys: usize, w: usize, r: usize| {
        rows.iter()
            .find(|row| {
                row.transport == "in-memory" && row.keys == keys && row.writers == w && row.readers == r
            })
            .map(|row| row.ops_per_sec)
    };
    let single_contended = at(1, max_w, max_r);
    for &keys in key_counts.iter().filter(|&&k| k > 1) {
        if let (Some(multi), Some(single)) = (at(keys, max_w, max_r), single_contended) {
            println!(
                "sharding headline (in-memory {max_w}x{max_r}): {keys} keys {multi:.0} ops/s \
                 vs 1 key {single:.0} ops/s — {:.2}x aggregate",
                multi / single.max(1e-9),
            );
        }
        let best = points
            .iter()
            .filter_map(|&(w, r)| at(keys, w, r).map(|ops| (ops, w, r)))
            .max_by(|a, b| a.0.total_cmp(&b.0));
        if let Some((ops, w, r)) = best {
            match single_contended {
                Some(single) => println!(
                    "sharding best (in-memory): {keys} keys {ops:.0} ops/s at {w}x{r} — \
                     {:.2}x the 1-key {max_w}x{max_r} figure ({single:.0} ops/s)",
                    ops / single.max(1e-9),
                ),
                None => println!("sharding best (in-memory): {keys} keys {ops:.0} ops/s at {w}x{r}"),
            }
        }
    }

    if audit.is_some() {
        let registers: usize = rows.iter().filter_map(|r| r.audit.map(|(n, _, _)| n)).sum();
        let audited: u64 = rows.iter().filter_map(|r| r.audit.map(|(_, n, _)| n)).sum();
        println!(
            "audit: {audited} ops audited across {registers} register-auditor(s) over {} points",
            rows.len()
        );
    }

    std::fs::write("BENCH_keyspace.json", keyspace_to_json(duration, zipf, &rows))
        .expect("write BENCH_keyspace.json");
    println!("wrote BENCH_keyspace.json");

    let mut failed = false;
    for row in &rows {
        if let Some((_, _, ok)) = row.audit {
            if !ok {
                eprintln!(
                    "AUDIT VIOLATION: {} keys={} {}x{}",
                    row.transport, row.keys, row.writers, row.readers
                );
                failed = true;
            }
        }
        if let Some(floor) = floor {
            if row.ops_per_sec < floor {
                eprintln!(
                    "FAIL: {} keys={} {}x{} completed {:.0} ops/s (< floor {floor:.0})",
                    row.transport, row.keys, row.writers, row.readers, row.ops_per_sec,
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    if floor.is_some() {
        println!("keyspace floor assertion passed: every sweep point clears the floor");
    }
    std::process::exit(0);
}

/// The contended TCP W2R1-vs-W2R2 comparison — the paper-claim
/// headline (fast one-round reads should win under full contention).
struct ProtocolHeadline {
    writers: usize,
    readers: usize,
    w2r1_ops_per_sec: f64,
    w2r2_ops_per_sec: f64,
    ratio: f64,
}

/// Hand-rolled JSON (the workspace vendors no serde_json).
fn to_json(
    duration: Duration,
    rows: &[Row],
    protocol_headline: Option<&ProtocolHeadline>,
    audit: Option<&AuditOverhead>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"experiment\": \"live_throughput\",\n");
    let _ = writeln!(s, "  \"duration_ms\": {},", duration.as_millis());
    let _ = writeln!(s, "  \"servers\": {SERVERS},");
    if let Some(p) = protocol_headline {
        let _ = writeln!(
            s,
            "  \"contended_shared_w2r1_over_w2r2\": {{\"writers\": {}, \"readers\": {}, \
             \"w2r1_ops_per_sec\": {:.1}, \"w2r2_ops_per_sec\": {:.1}, \"ratio\": {:.2}}},",
            p.writers, p.readers, p.w2r1_ops_per_sec, p.w2r2_ops_per_sec, p.ratio,
        );
    }
    if let Some(a) = audit {
        let _ = writeln!(
            s,
            "  \"audit\": {{\"sample_rate\": {:.2}, \"base_ops_per_sec\": {:.1}, \
             \"audited_ops_per_sec\": {:.1}, \"overhead_pct\": {:.1}, \"ops_audited\": {}, \
             \"truncated\": {}, \"window_high_water\": {}, \"violations\": {}}},",
            a.rate,
            a.base_ops_per_sec,
            a.audited_ops_per_sec,
            a.overhead_pct(),
            a.report.stats.audited,
            a.report.stats.truncated,
            a.report.stats.window_high_water,
            usize::from(!a.report.verdict.is_ok()),
        );
    }
    s.push_str("  \"sweep\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"transport\": \"{}\", \"send_path\": \"{}\", \"protocol\": \"{}\", \
             \"writers\": {}, \"readers\": {}, \"ops\": {}, \"ops_per_sec\": {:.1}, \
             \"wr_p50_us\": {}, \"wr_p99_us\": {}, \"rd_p50_us\": {}, \"rd_p99_us\": {}",
            row.transport,
            row.send_path,
            row.protocol.name(),
            row.writers,
            row.readers,
            row.ops,
            row.ops_per_sec,
            row.wr_p50_us,
            row.wr_p99_us,
            row.rd_p50_us,
            row.rd_p99_us,
        );
        if let Some(r) = &row.reader {
            let _ = write!(
                s,
                ", \"reader_wakes\": {}, \"reader_frames\": {}",
                r.wakes, r.frames,
            );
            if let Some(w) = row.wakes_per_frame() {
                let _ = write!(s, ", \"wakes_per_frame\": {w:.4}");
            }
        }
        if let Some(a) = &row.audit {
            let _ = write!(
                s,
                ", \"ops_audited\": {}, \"audit_window_hwm\": {}, \"audit_ok\": {}",
                a.stats.audited,
                a.stats.window_high_water,
                a.verdict.is_ok(),
            );
        }
        s.push('}');
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args = Args::parse();
    args.expect_known(
        "live_throughput",
        &["quick", "assert-floor", "audit"],
        &[
            "duration-ms", "floor", "protocol", "transport", "clients", "audit-sample", "faults",
            "keys", "zipf", "out",
        ],
    );
    let quick = args.flag("quick");
    // `--keys` parses up front: alone it selects the keyspace sweep, and
    // combined with `--faults` it adds keyspace chaos rows per scenario.
    let key_counts: Option<Vec<usize>> = args.get("keys").map(|list| {
        let counts: Vec<usize> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| panic!("--keys expects a comma list of counts, got {s:?}"))
            })
            .collect();
        assert!(!counts.is_empty(), "--keys expects at least one count");
        assert!(counts.iter().all(|&k| k > 0), "--keys counts must be positive");
        counts
    });
    let zipf: f64 = args
        .get("zipf")
        .map_or(1.1, |s| s.parse().expect("--zipf expects a non-negative float"));
    assert!(zipf >= 0.0 && zipf.is_finite(), "--zipf expects a non-negative float");
    if let Some(kinds) = args.get("faults") {
        // Chaos mode replaces the sweep entirely. The auditor defaults to
        // sampling everything here: a fault window is exactly where a
        // stale read would hide, and the op volume is modest.
        let rate = args
            .get("audit-sample")
            .map_or(1.0, |s| s.parse().expect("--audit-sample expects a rate in (0, 1]"));
        let audit = args
            .flag("audit")
            .then(|| AuditConfig { sample_rate: rate, ..AuditConfig::default() });
        run_chaos_mode(kinds, key_counts.as_deref(), zipf, quick, audit);
    }
    if let Some(key_counts) = &key_counts {
        // Keyspace mode replaces the sweep entirely: a comma list of key
        // counts (e.g. `--keys 1,64`) lets one run emit the single-key
        // parity points and the sharded multi-key points side by side.
        let rate = args
            .get("audit-sample")
            .map_or(1.0, |s| s.parse().expect("--audit-sample expects a rate in (0, 1]"));
        let audit = args
            .flag("audit")
            .then(|| AuditConfig { sample_rate: rate, ..AuditConfig::default() });
        // Longer windows than the main sweep: a fresh keyspace point pays a
        // TCP connection storm (every client endpoint × every group member)
        // before steady state, and short windows measure only the storm.
        let duration =
            Duration::from_millis(args.get_u64("duration-ms", if quick { 500 } else { 3_000 }));
        let floor = args.flag("assert-floor").then(|| args.get_u64("floor", 50) as f64);
        run_keyspace_mode(key_counts, zipf, quick, duration, audit, floor);
    }
    let assert_floor = args.flag("assert-floor");
    let audit_sweep = args.flag("audit");
    let audit_rate = args
        .get("audit-sample")
        .map_or(0.1, |s| s.parse().expect("--audit-sample expects a rate in (0, 1]"));
    let sweep_audit =
        audit_sweep.then(|| AuditConfig { sample_rate: audit_rate, ..AuditConfig::default() });
    let duration =
        Duration::from_millis(args.get_u64("duration-ms", if quick { 120 } else { 250 }));
    let floor = args.get_u64("floor", 50) as f64;
    // Optional sweep filters for focused (re)measurement; the committed
    // artifact is always produced by the unfiltered sweep.
    let protocols: Vec<Protocol> = match args.get("protocol") {
        None => vec![Protocol::W2R1, Protocol::W2R2],
        Some(p) => vec![p.parse().expect("--protocol W2R1|W2R2")],
    };
    let transport_filter = args.get("transport").map(str::to_owned);
    if let Some(t) = transport_filter.as_deref() {
        assert!(
            matches!(t, "in-memory" | "tcp"),
            "--transport must be in-memory or tcp, got {t}"
        );
    }
    let out_path = args.get("out").map(str::to_owned);

    // `--clients a,b,..` overrides the W×R grid — focused re-measurement
    // of one contention level without sweeping the whole square.
    let client_override: Option<Vec<usize>> = args.get("clients").map(|list| {
        let counts: Vec<usize> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| panic!("--clients expects a comma list of counts, got {s:?}"))
            })
            .collect();
        assert!(!counts.is_empty(), "--clients expects at least one count");
        assert!(counts.iter().all(|&c| c > 0), "--clients counts must be positive");
        counts
    });
    let client_counts: &[usize] = match &client_override {
        Some(counts) => counts,
        None if quick => &[1, 4],
        None => &[1, 2, 4, 8],
    };
    let max_clients = *client_counts.last().expect("non-empty sweep");

    println!(
        "== T1: open-loop live throughput (S={SERVERS} t={FAULTS}, \
         W x R in {client_counts:?}^2, {} ms/point) ==\n",
        duration.as_millis()
    );

    let mut rows: Vec<Row> = Vec::new();
    for &protocol in &protocols {
        for &writers in client_counts {
            for &readers in client_counts {
                for transport in ["in-memory", "tcp"] {
                    if transport_filter.as_deref().is_none_or(|only| only == transport) {
                        rows.push(measure_point(
                            transport, protocol, writers, readers, duration, sweep_audit,
                        ));
                    }
                }
            }
        }
    }

    let mut table = TextTable::new(vec![
        "transport", "send path", "protocol", "WxR", "ops", "ops/s", "wr p50µs", "wr p99",
        "rd p50µs", "rd p99", "wk/frm",
    ]);
    for row in &rows {
        table.row(row.cells());
    }
    println!("{table}");

    if audit_sweep {
        let audited: u64 = rows.iter().filter_map(|r| r.audit.as_ref()).map(|a| a.stats.audited).sum();
        let hwm = rows
            .iter()
            .filter_map(|r| r.audit.as_ref())
            .map(|a| a.stats.window_high_water)
            .max()
            .unwrap_or(0);
        let violations: Vec<&Row> = rows
            .iter()
            .filter(|r| r.audit.as_ref().is_some_and(|a| !a.verdict.is_ok()))
            .collect();
        println!(
            "audit (sample rate {audit_rate}): {audited} ops audited across {} points, \
             max window high-water {hwm}, {} violation(s)",
            rows.len(),
            violations.len(),
        );
        for row in &violations {
            eprintln!(
                "AUDIT VIOLATION: {} {} {} {}x{}: {}",
                row.transport,
                row.send_path,
                row.protocol.name(),
                row.writers,
                row.readers,
                row.audit
                    .as_ref()
                    .and_then(|a| a.verdict.violation())
                    .expect("filtered on violating rows"),
            );
        }
        if !violations.is_empty() {
            std::process::exit(1);
        }
    }

    let (total_wakes, total_frames) = rows
        .iter()
        .filter_map(|row| row.reader.as_ref())
        .fold((0u64, 0u64), |(w, f), r| (w + r.wakes, f + r.frames));
    if total_frames > 0 {
        println!(
            "reactor: {total_frames} frames decoded in {total_wakes} wakes \
             ({:.3} wakes/frame)",
            total_wakes as f64 / total_frames as f64,
        );
    }

    // The paper-claim headline: W2R1's one-round fast reads vs W2R2's
    // two-round reads under full contention over TCP.
    let tcp_point = |protocol: Protocol, w: usize, r: usize| {
        rows.iter()
            .find(|row| {
                row.transport == "tcp"
                    && row.protocol == protocol
                    && row.writers == w
                    && row.readers == r
            })
            .map(|row| row.ops_per_sec)
    };
    let protocol_headline = match (
        tcp_point(Protocol::W2R1, max_clients, max_clients),
        tcp_point(Protocol::W2R2, max_clients, max_clients),
    ) {
        (Some(w2r1), Some(w2r2)) => {
            let ratio = w2r1 / w2r2.max(1e-9);
            println!(
                "contended tcp ({max_clients}x{max_clients} clients): W2R1 {w2r1:.0} \
                 ops/s vs W2R2 {w2r2:.0} ops/s — {ratio:.2}x"
            );
            Some(ProtocolHeadline {
                writers: max_clients,
                readers: max_clients,
                w2r1_ops_per_sec: w2r1,
                w2r2_ops_per_sec: w2r2,
                ratio,
            })
        }
        _ => None,
    };

    let unfiltered =
        protocols.len() == 2 && transport_filter.is_none() && client_override.is_none();
    let overhead = if unfiltered {
        // The auditor's cost, measured where it hurts most: the most
        // contended in-memory point (TCP points are transport-bound and
        // would understate it), bare vs audited at the sample rate.
        let overhead =
            measure_audit_overhead(Protocol::W2R1, max_clients, duration, audit_rate);
        assert!(
            overhead.report.verdict.is_ok(),
            "audited overhead run found a violation: {}",
            overhead.report
        );
        println!(
            "audit overhead (in-memory {max_clients}x{max_clients}, sample rate {:.2}): \
             {:.0} ops/s bare vs {:.0} ops/s audited ({:+.1}%), {}",
            overhead.rate,
            overhead.base_ops_per_sec,
            overhead.audited_ops_per_sec,
            -overhead.overhead_pct(),
            overhead.report,
        );
        Some(overhead)
    } else {
        None
    };
    // `--out` writes the (possibly filtered) sweep wherever the caller
    // asks — the CI matrix cells each upload their own artifact. The
    // committed `BENCH_live_throughput.json` is only ever produced by the
    // unfiltered sweep.
    let default_artifact = unfiltered.then(|| "BENCH_live_throughput.json".to_owned());
    if let Some(path) = out_path.or(default_artifact) {
        let json = to_json(duration, &rows, protocol_headline.as_ref(), overhead.as_ref());
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    } else {
        println!("filtered sweep: BENCH_live_throughput.json left untouched");
    }

    println!("\nShape: closed-loop latency hides what happens when clients pile up;");
    println!("sweeping the population shows it. The per-peer writer pipelines keep");
    println!("ops/sec scaling with clients — broadcasts fan out as parallel enqueues,");
    println!("frames coalesce into single writes, and one reader wake drains every");
    println!("frame that arrived since the last (the wk/frm column).");

    if assert_floor {
        let mut failed = false;
        for row in &rows {
            if row.ops_per_sec < floor {
                eprintln!(
                    "FAIL: {} {} {} {}x{} completed {:.0} ops/s (< floor {floor:.0})",
                    row.transport,
                    row.send_path,
                    row.protocol.name(),
                    row.writers,
                    row.readers,
                    row.ops_per_sec,
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("throughput floor assertion passed: every sweep point clears {floor:.0} ops/s");
    }
}
