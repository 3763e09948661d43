//! The per-layer pass: the benchmark's workloads once more, measured at
//! each layer's public boundary from the benchmark's own files.
//!
//! ```text
//! mwr-benchmark-trace [--workload name] [--seed N] [--seconds 12]
//!     every workload (or one): prints every per-layer metric, writes
//!     benchmark/out/trace-<workload>.json and benchmark/out/layers.json
//! mwr-benchmark-trace --workload name --seed N --seconds S --trace 1
//!     one run for the acceptance driver: one JSON object on the last line
//! ```
//!
//! Unlike `mwr-benchmark`, this binary reaches beneath the facade
//! (`mwr::runtime`, `mwr::core`, `mwr::types::codec`); a refactor there can
//! break it without touching the numbers changes are judged on.
//!
//! A live run spends its `--seconds` on: an untraced repeat through the
//! facade (the base of `trace_overhead_share`), a traced repeat on
//! [`traced::TracedFactory`] endpoints with the streaming auditor at sample
//! rate 1.0, and a lockstep replay of the protocol and codec layers.

mod lockstep;
mod rigs;
mod spans;
mod traced;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mwr::runtime::ReaderStats;
use mwr::types::{ClientId, ClusterConfig, KeyspaceConfig, ReaderId, WriterId};
use mwr_benchmark::args::Args;
use mwr_benchmark::host::{sleep_until, voluntary_switches};
use mwr_benchmark::json::Json;
use mwr_benchmark::live::run_closed_loop;
use mwr_benchmark::report::{driver_result, write_out};
use mwr_benchmark::spec::{Workload, PER_LAYER, ZIPF_KEYS};
use mwr_benchmark::stats::median;
use mwr_benchmark::workloads::{
    conduct_restarts, deploy, deploy_sim, live_metrics, plan, protocol, run_live, run_sim, verdict,
    Outcome,
};

use crate::lockstep::{replay_bank, replay_register, Attribution};
use crate::rigs::deploy_traced;
use crate::spans::{index, kind_stats, spans, spans_json, trace_ops, KindStats, OpTrace};
use crate::traced::SendEvent;

/// Operations per kind whose spans are written to the trace file.
const SPANS_PER_KIND: usize = 1_000;

type Metrics = BTreeMap<&'static str, f64>;

fn median_us(ns: &[f64]) -> f64 {
    median(ns).unwrap_or(0.0) / 1e3
}

fn per(count: u64, ops: u64) -> f64 {
    count as f64 / ops.max(1) as f64
}

/// The lockstep figures at the workload's `(S, t, W, R)`; the keyspace
/// additionally replays its banks.
fn lockstep_metrics(workload: Workload, seed: u64, budget: Duration, m: &mut Metrics) {
    let config = match workload {
        Workload::SimWide => ClusterConfig::new(11, 1, 8, 8),
        _ => ClusterConfig::new(5, 1, 1, 1),
    }
    .expect("the workloads' shapes are valid");
    let protocol = protocol(workload);
    let a: Attribution = replay_register(config, protocol, budget / 2);
    m.insert("core.server.query_ns", a.query.mean_ns());
    m.insert("core.server.update_ns", a.update.mean_ns());
    m.insert("core.server.readfast_ns", a.readfast.mean_ns());
    m.insert("core.server.reply_regs", per(a.reply_regs, a.readfast_acks));
    m.insert("core.client.ack_ns", a.ack.mean_ns());
    m.insert("core.client.readfast_ack_ns", a.readfast_ack.mean_ns());
    m.insert("types.codec.encode_ns", a.encode.mean_ns());
    m.insert("types.codec.decode_ns", a.decode.mean_ns());
    m.insert(
        "types.codec.readfast_ack_bytes",
        per(a.readfast_ack_bytes, a.readfast_acks),
    );
    if workload == Workload::KsZipf {
        let shape = KeyspaceConfig::new(11, 1, 5, 16, 1, 1).expect("the keyspace shape is valid");
        let keys = plan(workload, seed, 1, false);
        let b = replay_bank(
            shape,
            protocol,
            keys.writer_keys,
            keys.reader_keys,
            budget / 2,
        );
        m.insert("core.bank.handle_ns", b.attribution.bank_handle.mean_ns());
        m.insert("core.routing.group_of_ns", b.group_of_ns);
        m.insert("core.bank.registers", b.registers_per_bank);
    }
}

/// Counts at the send boundary, over the events inside the measurement.
fn transport_metrics(events: &[SendEvent], ops: u64, m: &mut Metrics) {
    let mut calls: [(std::collections::HashSet<(mwr::types::ProcessId, u32)>, f64); 2] =
        Default::default();
    let mut bytes = 0u64;
    for e in events {
        let role = usize::from(e.from.is_server());
        if calls[role].0.insert((e.from, e.call)) {
            calls[role].1 += (e.exit_ns - e.entry_ns) as f64;
        }
        bytes += u64::from(e.bytes);
    }
    let mean_us = |(set, ns): &(std::collections::HashSet<_>, f64)| {
        if set.is_empty() {
            0.0
        } else {
            ns / set.len() as f64 / 1e3
        }
    };
    m.insert("runtime.transport.client_send_us", mean_us(&calls[0]));
    m.insert("runtime.transport.server_send_us", mean_us(&calls[1]));
    m.insert(
        "runtime.transport.frames_per_op",
        per(events.len() as u64, ops),
    );
    m.insert("runtime.transport.bytes_per_op", per(bytes, ops));
    m.insert(
        "runtime.transport.send_calls_per_op",
        per((calls[0].0.len() + calls[1].0.len()) as u64, ops),
    );
}

fn client_metrics(reads: &KindStats, writes: &KindStats, m: &mut Metrics) {
    m.insert("runtime.client.rd_assemble_us", median_us(&reads.assemble));
    m.insert("runtime.client.wr_assemble_us", median_us(&writes.assemble));
    m.insert("runtime.client.rd_complete_us", median_us(&reads.complete));
    m.insert("runtime.client.wr_complete_us", median_us(&writes.complete));
    m.insert("runtime.client.rounds_per_rd", per(reads.rounds, reads.ops));
    m.insert(
        "runtime.client.rounds_per_wr",
        per(writes.rounds, writes.ops),
    );
    m.insert(
        "runtime.client.retries_per_kop",
        per(
            (reads.retries + writes.retries) * 1_000,
            reads.ops + writes.ops,
        ),
    );
    let turnaround: Vec<f64> = reads
        .turnaround
        .iter()
        .chain(&writes.turnaround)
        .copied()
        .collect();
    m.insert("runtime.server.turnaround_us", median_us(&turnaround));
    m.insert(
        "trace.rd_children_over_root",
        per(reads.children_ns, reads.root_ns),
    );
    m.insert(
        "trace.wr_children_over_root",
        per(writes.children_ns, writes.root_ns),
    );
}

/// The trace file: how to read it is in benchmark/README.md.
fn write_trace(workload: Workload, seed: u64, ops: &[&OpTrace]) -> Result<(), String> {
    let mut next_id = 0;
    let all: Vec<_> = ops.iter().flat_map(|op| spans(op, &mut next_id)).collect();
    let doc = Json::obj([
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::Int(seed as i64)),
        (
            "clock",
            Json::Str("nanoseconds since the benchmark process's first clock reading".into()),
        ),
        (
            "note",
            Json::Str(format!(
                "the first {SPANS_PER_KIND} traced reads and writes of the measurement; children \
                 of one root tile it, `op` is shared by the spans of one operation"
            )),
        ),
        ("spans", spans_json(&all)),
    ]);
    write_out(&format!("trace-{}.json", workload.name()), &doc.pretty()).map(drop)
}

/// The traced repeat of a live workload.
fn traced_repeat(
    workload: Workload,
    seed: u64,
    windows: usize,
    m: &mut Metrics,
) -> Result<Outcome, String> {
    let rig = deploy_traced(workload)?;
    let rigs::TracedRig {
        clients,
        mut cluster,
        checker,
        collector,
        auditor,
        quorum,
        register_of,
        reader_totals,
    } = rig;
    let loop_plan = plan(workload, seed, windows, true);
    let total_ns = loop_plan.total_ns();
    let (mut result, (faults, switches, readers)) =
        run_closed_loop(clients, &loop_plan, &checker, |begin| {
            let before = (voluntary_switches(), reader_totals());
            let faults = (workload == Workload::TcpRestart).then(|| {
                let opens = |k| begin + loop_plan.window_start_ns(k);
                conduct_restarts(cluster.as_mut(), seed, windows, opens)
            });
            // Client endpoints drop with the loop; read their counters
            // just before it ends.
            sleep_until(begin + total_ns - 20_000_000);
            let after = (voluntary_switches(), reader_totals());
            let switches = after.0.zip(before.0).map(|(a, b)| a.saturating_sub(b));
            let readers = after
                .1
                .zip(before.1)
                .map(|(a, b): (ReaderStats, ReaderStats)| {
                    (
                        a.wakes.saturating_sub(b.wakes),
                        a.frames.saturating_sub(b.frames),
                    )
                });
            (faults, switches, readers)
        });
    let t = Instant::now();
    cluster.shutdown();
    m.insert(
        "runtime.cluster.teardown_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    let audit = auditor
        .join()
        .map_err(|_| "auditor thread panicked".to_string())?;

    let window = (result.begin_ns, result.begin_ns + total_ns);
    let events: Vec<SendEvent> = collector
        .take_events()
        .into_iter()
        .filter(|e| (window.0..window.1).contains(&e.entry_ns))
        .collect();
    let rounds = index(&events);
    let (read_marks, write_marks) = (
        std::mem::take(&mut result.reads.marks),
        std::mem::take(&mut result.writes.marks),
    );
    let reader = ClientId::Reader(ReaderId::new(0));
    let writer = ClientId::Writer(WriterId::new(0));
    let (reads, rd_untraced) =
        trace_ops(&read_marks, reader, register_of, 1, &rounds, quorum, window);
    let (writes, wr_untraced) = trace_ops(
        &write_marks,
        writer,
        register_of,
        1,
        &rounds,
        quorum,
        window,
    );
    let sample: Vec<&OpTrace> = reads
        .iter()
        .take(SPANS_PER_KIND)
        .chain(writes.iter().take(SPANS_PER_KIND))
        .collect();
    write_trace(workload, seed, &sample)?;

    let (rd, wr) = (kind_stats(&reads), kind_stats(&writes));
    client_metrics(&rd, &wr, m);
    m.insert("trace.ops_traced", (rd.ops + wr.ops) as f64);
    m.insert("trace.ops_untraced", (rd_untraced + wr_untraced) as f64);
    let completed = result.reads.completed() + result.writes.completed();
    transport_metrics(&events, completed, m);
    m.insert(
        "runtime.transport.ctxsw_per_op",
        per(switches.unwrap_or(0), completed),
    );
    m.insert(
        "runtime.client.stall_max_ms",
        result.reads.max_ns.max(result.writes.max_ns) as f64 / 1e6,
    );
    if let Some((wakes, frames)) = readers {
        m.insert("runtime.tcp.wakes_per_frame", per(wakes, frames));
    }
    let pipelines = collector.pipelines();
    if pipelines.batches > 0 {
        m.insert(
            "runtime.tcp.frames_per_write",
            per(pipelines.frames_sent, pipelines.batches),
        );
        m.insert(
            "runtime.tcp.frames_dropped",
            pipelines.frames_dropped as f64,
        );
    }
    m.insert(
        "check.stream_records_per_s",
        audit.records as f64 / audit.observing.as_secs_f64().max(1e-9),
    );
    m.insert(
        "check.stream_window_high_water",
        audit.window_high_water as f64,
    );

    let mut outcome = live_metrics(workload, result, 0.0);
    (outcome.violations, outcome.stale_reads) = verdict(workload, &checker, audit.violations);
    outcome.notes.extend(checker.first_violation());
    if let Some(faults) = faults {
        m.insert(
            "runtime.cluster.crash_ms",
            median(&faults.crash_ms).unwrap_or(0.0),
        );
        m.insert(
            "runtime.cluster.rejoin_ms",
            median(faults.rejoin_ms.get(1..).unwrap_or(&[])).unwrap_or(0.0),
        );
        outcome.failed += faults.rejoin_errors.len() as u64;
        outcome.notes.extend(faults.rejoin_errors);
    }
    Ok(outcome)
}

/// All per-layer metrics of one workload; `outcome.metrics` holds every
/// name in [`PER_LAYER`], 0 where the layer is not on the workload's path.
fn run_layers(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut m: Metrics = PER_LAYER.iter().map(|metric| (metric.name, 0.0)).collect();
    let budget = Duration::from_secs(seconds);
    let mut outcome = Outcome::default();

    if workload.is_live() {
        // Deployment cost through the facade, as users pay it.
        let rig = deploy(workload)?;
        let deploy_ms = rig.deploy_time.as_secs_f64() * 1e3;
        if workload == Workload::KsZipf {
            m.insert("keyspace.deploy_ms", deploy_ms);
            m.insert(
                "keyspace.mint_us",
                rig.mint_time.as_secs_f64() * 1e6 / (2 * ZIPF_KEYS) as f64,
            );
        } else {
            m.insert("register.deploy_ms", deploy_ms);
        }
        drop(rig.clients);
        rig.cluster.shutdown();

        // Equally long, so the overhead compares like with like.
        let windows = workload.windows_in(seconds * 2 / 5).max(2);
        let untraced = run_live(workload, seed, windows)?;
        let traced = traced_repeat(workload, seed, windows, &mut m)?;
        let (base, with) = (untraced.metrics["ops_per_s"], traced.metrics["ops_per_s"]);
        let reference = untraced.metrics.get("host_ref_us").copied();
        for (layer, end_to_end) in [
            ("untraced.rd_p95_us", "rd_p95_us"),
            ("untraced.wr_p95_us", "wr_p95_us"),
            ("untraced.rejoin_p50_ms", "rejoin_p50_ms"),
        ] {
            m.insert(
                layer,
                untraced.metrics.get(end_to_end).copied().unwrap_or(0.0),
            );
        }
        m.insert("host.ref_us", reference.unwrap_or(0.0));
        m.insert("traced.ops_per_s", with);
        m.insert("trace_overhead_share", 1.0 - with / base);
        m.insert("traced.failed_share", per(traced.failed, traced.attempted));
        m.insert("traced.violations", traced.violations as f64);
        outcome.attempted = untraced.attempted + traced.attempted;
        outcome.failed = untraced.failed + traced.failed;
        outcome.violations = untraced.violations + traced.violations;
        outcome.stale_reads = untraced.stale_reads + traced.stale_reads;
        outcome.notes = [untraced.notes, traced.notes].concat();
    } else {
        let t = Instant::now();
        drop(deploy_sim(seed)?);
        m.insert("register.deploy_ms", t.elapsed().as_secs_f64() * 1e3);
        let sim = run_sim(seed, workload.windows_in(seconds * 4 / 5))?;
        for (layer, end_to_end) in [
            ("sim.events_per_s", "events_per_s"),
            ("sim.ops_per_s", "sim_ops_per_s"),
            ("sim.msgs_per_op", "msgs_per_op"),
            ("sim.rd_p50_ticks", "rd_p50_ticks"),
            ("sim.ops", "sim_ops"),
            ("check.ops_per_s", "check_ops_per_s"),
            ("host.ref_us", "host_ref_us"),
        ] {
            m.insert(layer, sim.metrics.get(end_to_end).copied().unwrap_or(0.0));
        }
        outcome.attempted = sim.attempted;
        outcome.violations = sim.violations;
    }
    lockstep_metrics(workload, seed, budget / 10, &mut m);
    m.insert("check.stale_reads", outcome.stale_reads as f64);
    outcome.metrics = m;
    Ok(outcome)
}

fn print_layers(workload: Workload, outcome: &Outcome) {
    println!("\n== {} — per layer ==", workload.name());
    for metric in PER_LAYER {
        println!(
            "   {:<40} {:>8} {:>16.3}",
            metric.name, metric.unit, outcome.metrics[metric.name]
        );
    }
    println!(
        "   attempted {} failed {} violations {} stale reads (tracked) {}",
        outcome.attempted, outcome.failed, outcome.violations, outcome.stale_reads
    );
    for note in &outcome.notes {
        println!("   {note}");
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    args.expect_known(&["workload", "seed", "seconds", "trace"])?;
    let seed = args.number("seed", 1)?;
    let seconds = args.number("seconds", 12)?.max(4);
    let selected: Vec<Workload> = args.workload()?.map_or(Workload::ALL.to_vec(), |w| vec![w]);

    if args.has("trace") {
        let [workload] = selected[..] else {
            return Err("--trace needs --workload".into());
        };
        let outcome = run_layers(workload, seed, seconds)?;
        for note in &outcome.notes {
            eprintln!("{}: {note}", workload.name());
        }
        println!("{}", driver_result(&outcome, &PER_LAYER, false)?.compact());
        return Ok(if outcome.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let mut correct = true;
    let mut stored = Vec::new();
    for workload in selected {
        let outcome = run_layers(workload, seed, seconds)?;
        print_layers(workload, &outcome);
        correct &= outcome.correct();
        stored.push((workload.name(), driver_result(&outcome, &PER_LAYER, false)?));
    }
    let path = write_out("layers.json", &Json::obj(stored).pretty())?;
    println!(
        "\nwrote {} and trace-<workload>.json beside it",
        path.display()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    mwr_benchmark::host::pin_to_one_cpu();
    match Args::parse(std::env::args().skip(1), &[]).and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("mwr-benchmark-trace: {message}");
            ExitCode::from(2)
        }
    }
}
