//! The end-to-end benchmark. Three ways to run it:
//!
//! ```text
//! mwr-benchmark [--seed N] [--repeats 3] [--workload name] [--quick]
//!     every workload (or one), repeats interleaved A B C D E, A B C D E …,
//!     10 windows (or simulator seeds) each — one repeat of 3 with --quick;
//!     prints every end-to-end metric with unit, median and min/max over
//!     repeats, writes benchmark/out/report.json (and, for a full run of all
//!     workloads, rewrites benchmark/baseline.json)
//! mwr-benchmark selfcheck [--seed N] [--repeats 3] [--quick]
//!     two full sets of this build, their repeats interleaved; fails if any
//!     gated median differs by more than the issue's bound
//! mwr-benchmark spread [--seed N] [--workload name]
//!     what the acceptance driver measures: ten single 20 s runs per
//!     workload with seeds N, N+1, …, then per metric the interquartile
//!     distance as a share of the median; a run of all workloads rewrites
//!     benchmark/spread.json
//! mwr-benchmark --workload name --seed N --seconds S --trace 0
//!     one run for the acceptance driver: one JSON object on the last line
//! ```
//!
//! Exits non-zero on any failed operation or atomicity violation.

use std::process::ExitCode;

use mwr_benchmark::args::Args;
use mwr_benchmark::host::{canary_ms, pin_to_one_cpu};
use mwr_benchmark::reference::NOMINAL_US;
use mwr_benchmark::report::{
    agreements, driver_result, print_agreements, print_set, print_spreads, set_json, spreads,
    spreads_json, write_out, Repeats, Set,
};
use mwr_benchmark::spec::{
    Workload, END_TO_END, QUICK_WINDOWS, REPORT_WINDOWS, RUN_SECONDS, SPREAD_RUNS,
};
use mwr_benchmark::stats::median;
use mwr_benchmark::workloads::{driver_view, run_repeat, setup_samples, Outcome, SETUP_BUDGET};

/// Runs `sets` sets of `repeats` repeats, interleaved at every level — for
/// each repeat, each set in turn runs the workloads A B C D E — so slow
/// host phases fall on all workloads and all sets alike.
fn run_sets(
    selected: &[Workload],
    seed: u64,
    repeats: u64,
    windows: usize,
    sets: usize,
) -> Result<Vec<Set>, String> {
    let fresh = || Set {
        workloads: selected
            .iter()
            .map(|&w| Repeats {
                workload: w,
                outcomes: vec![],
            })
            .collect(),
        canary_ms: vec![canary_ms()],
    };
    let mut all: Vec<Set> = (0..sets).map(|_| fresh()).collect();
    for repeat in 0..repeats {
        for (s, set) in all.iter_mut().enumerate() {
            for (i, &workload) in selected.iter().enumerate() {
                let outcome = run_repeat(workload, seed, windows)?;
                let canary = canary_ms();
                let set_label = if sets > 1 {
                    format!("set {s} ")
                } else {
                    String::new()
                };
                let shown = driver_view(workload, outcome.clone()).metrics;
                println!(
                    "{set_label}repeat {repeat} {:<12} {:>10.0} ops/s  cpu {:>6.1} us/op  failed \
                     {} violations {} stale reads {}  canary {canary:.1} ms",
                    workload.name(),
                    shown.get("ops_per_s").copied().unwrap_or(0.0),
                    shown.get("cpu_us_per_op").copied().unwrap_or(0.0),
                    outcome.failed,
                    outcome.violations,
                    outcome.stale_reads,
                );
                set.workloads[i].outcomes.push(outcome);
                set.canary_ms.push(canary);
            }
        }
    }
    Ok(all)
}

/// One run as the acceptance driver asks for it: `seconds` of windows (or
/// as many simulator seeds), under the driver-gated names. Set-up is sampled
/// in two sessions, one before and one after the measurement, and the
/// median sample is `setup_s`.
fn driver_outcome(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut setups = setup_samples(workload, SETUP_BUDGET / 2)?;
    let outcome = run_repeat(workload, seed, workload.windows_in(seconds))?;
    setups.extend(setup_samples(workload, SETUP_BUDGET / 2)?);
    let mut outcome = driver_view(workload, outcome);
    outcome
        .metrics
        .extend(median(&setups).map(|s| ("setup_s", s)));
    for note in std::mem::take(&mut outcome.notes) {
        eprintln!("{}: {note}", workload.name());
    }
    if outcome.stale_reads > 0 {
        eprintln!(
            "{}: {} stale read(s), tracked as ROADMAP open item 1, not counted as violations",
            workload.name(),
            outcome.stale_reads
        );
    }
    Ok(outcome)
}

fn driver_run(workload: Workload, seed: u64, seconds: u64) -> Result<ExitCode, String> {
    let outcome = driver_outcome(workload, seed, seconds)?;
    println!("{}", driver_result(&outcome, &END_TO_END, true)?.compact());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `spread`: [`SPREAD_RUNS`] driver-style runs per workload, interleaved,
/// each with another seed; then the spread table.
fn spread_runs(selected: &[Workload], seed: u64) -> Result<ExitCode, String> {
    let mut sets: Vec<Repeats> = selected
        .iter()
        .map(|&w| Repeats {
            workload: w,
            outcomes: vec![],
        })
        .collect();
    for run in 0..SPREAD_RUNS {
        for set in &mut sets {
            let outcome = driver_outcome(set.workload, seed + run, RUN_SECONDS)?;
            println!(
                "run {run} {:<12} {:>10.1} ops/s  failed {} violations {}  canary {:.1} ms",
                set.workload.name(),
                outcome.metrics.get("ops_per_s").copied().unwrap_or(0.0),
                outcome.failed,
                outcome.violations,
                canary_ms(),
            );
            set.outcomes.push(outcome);
        }
    }
    let rows = spreads(&sets);
    let steady = print_spreads(&rows);
    let stored = spreads_json(&rows, seed, RUN_SECONDS).pretty();
    let path = write_out("spread.json", &stored)?;
    println!("\nwrote {}", path.display());
    if selected.len() == Workload::ALL.len() {
        rewrite_committed("spread.json", &stored)?;
    }
    let correct = sets.iter().all(Repeats::correct);
    Ok(if steady && correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Rewrites one of the two committed result files beside `Cargo.toml`.
fn rewrite_committed(name: &str, text: &str) -> Result<(), String> {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("rewrote {path}");
    Ok(())
}

fn run(args: &Args) -> Result<ExitCode, String> {
    args.expect_known(&["workload", "seed", "seconds", "trace", "repeats"])?;
    let seed = args.number("seed", 1)?;
    let quick = args.flag("quick");
    let windows = if quick { QUICK_WINDOWS } else { REPORT_WINDOWS };
    let repeats = args.number("repeats", if quick { 1 } else { 3 })?.max(1);
    let selected: Vec<Workload> = args.workload()?.map_or(Workload::ALL.to_vec(), |w| vec![w]);

    if args.has("seconds") {
        let seconds = args.number("seconds", RUN_SECONDS)?.max(1);
        if args.subcommand.is_some() {
            return Err("--seconds belongs to a driver run (no subcommand)".into());
        }
        if args.number("trace", 0)? != 0 {
            return Err(
                "--trace 1 is the mwr-benchmark-trace binary (see benchmark/run.sh)".into(),
            );
        }
        let [workload] = selected[..] else {
            return Err("--seconds needs --workload".into());
        };
        return driver_run(workload, seed, seconds);
    }

    println!(
        "mwr-benchmark: 2 driver threads and every other thread on one vCPU, closed loop, zero \
         think time, 0 injected delay on live workloads (latency is processor + scheduler \
         time); timings are quoted at a host-reference round trip of {NOMINAL_US} us \
         (host_ref_us is what the run measured)"
    );
    match args.subcommand.as_deref() {
        None => {
            let set = run_sets(&selected, seed, repeats, windows, 1)?.remove(0);
            print_set(&set);
            let stored = set_json(&set, seed, windows).pretty();
            let path = write_out("report.json", &stored)?;
            println!("\nwrote {}", path.display());
            if !quick && selected.len() == Workload::ALL.len() {
                rewrite_committed("baseline.json", &stored)?;
            }
            Ok(if set.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("selfcheck") => {
            let [first, second] = &run_sets(&selected, seed, repeats, windows, 2)?[..] else {
                unreachable!("two sets were asked for");
            };
            let agreed = print_agreements(&agreements(first, second));
            let correct = first.correct() && second.correct();
            println!(
                "\nselfcheck: {}; canary {:.1}–{:.1} ms",
                match (agreed, correct) {
                    (true, true) => "both sets agree within every bound",
                    (false, true) => "FAILED: a gated median moved by more than its bound",
                    (_, false) => "FAILED: a run was incorrect",
                },
                first
                    .canary_ms
                    .iter()
                    .chain(&second.canary_ms)
                    .copied()
                    .fold(f64::MAX, f64::min),
                first
                    .canary_ms
                    .iter()
                    .chain(&second.canary_ms)
                    .copied()
                    .fold(0.0, f64::max),
            );
            Ok(if agreed && correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("spread") => spread_runs(&selected, seed),
        Some(other) => Err(format!(
            "unknown subcommand `{other}` (try `selfcheck` or `spread`)"
        )),
    }
}

fn main() -> ExitCode {
    pin_to_one_cpu();
    match Args::parse(std::env::args().skip(1), &["quick"]).and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("mwr-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
