//! Experiment C1 — atomicity-checker scaling smoke & CI gate.
//!
//! The criterion `checker` bench draws the curve; this bin is the cheap,
//! assertable version for CI. It simulates clean W2R1 histories shaped like
//! the repo benchmark's `sim-wide` workload (S=11, 8 writers × 8 readers,
//! closed loop, think time 5) at two horizons — about 16 k (exactly
//! `sim-wide`'s 16 255) and 32 k operations — and times
//! [`check_atomicity`] on each, alternately, so that a slow phase of a
//! shared host falls on both.
//!
//! Every such history is all-clear, so the verdict comes from the checker's
//! fast path: one `O(n log n)` sweep. With `--assert-growth` the bin exits
//! non-zero if checking the larger history costs more than [`MAX_GROWTH`]×
//! the smaller, for 2× the operations. A scan of all pairs — what the fast
//! path used to be — costs 4× (measured: 10×); the sweep measures 1.8–2.4×.
//! Both histories are well past the L2 cache, so the ratio compares like
//! with like: against a history small enough to sit in cache the sweep's
//! ratio is inflated by the cache, not by the algorithm.
//!
//! `--repeat N` additionally times `N` single calls on the `sim-wide`-sized
//! history and prints their min / median / max: the call-to-call spread
//! that PR 11 recorded as finding 7.

use std::time::Instant;

use mwr_bench::args::Args;
use mwr_check::{check_atomicity, History};
use mwr_core::Protocol;
use mwr_register::{Backend, Deployment};
use mwr_sim::SimTime;
use mwr_types::ClusterConfig;
use mwr_workload::WorkloadSpec;

/// How much longer the ~32 k-op history may take to check than the ~16 k-op
/// one before `--assert-growth` fails.
const MAX_GROWTH: f64 = 3.0;

/// A clean W2R1 history of about two operations per tick of `ticks`.
fn simulated_history(ticks: u64) -> History {
    const SEED: u64 = 101;
    let config = ClusterConfig::new(11, 1, 8, 8).expect("valid cluster");
    let spec = WorkloadSpec {
        duration: SimTime::from_ticks(ticks),
        think_time: SimTime::from_ticks(5),
        seed: SEED,
    };
    let report = Deployment::new(config)
        .protocol(Protocol::W2R1)
        .backend(Backend::Sim { seed: SEED })
        .run_closed_loop(spec)
        .expect("simulation runs");
    History::from_events(&report.events).expect("quiescent run")
}

/// One timed call, in µs; panics if the history is not atomic.
fn check_us(history: &History) -> f64 {
    let t0 = Instant::now();
    let verdict = check_atomicity(history);
    let us = t0.elapsed().as_secs_f64() * 1e6;
    assert!(verdict.is_ok(), "W2R1 history is not atomic: {verdict:?}");
    us
}

/// How many times the two histories are timed, alternately.
const ROUNDS: usize = 9;

/// Times `small` and `large` alternately, [`ROUNDS`] times over — two calls
/// on `small` for each call on `large`, so both sides of a round cover the
/// same number of operations and sit in the same phase of a shared host —
/// and returns the medians of µs per call on `small`, µs per call on
/// `large`, and their per-round ratio.
fn alternating_us(small: &History, large: &History) -> (f64, f64, f64) {
    let median = |mut samples: [f64; ROUNDS]| {
        samples.sort_unstable_by(f64::total_cmp);
        samples[ROUNDS / 2]
    };
    let (mut small_us, mut large_us, mut ratio) = ([0f64; ROUNDS], [0f64; ROUNDS], [0f64; ROUNDS]);
    for round in 0..ROUNDS {
        small_us[round] = (check_us(small) + check_us(small)) / 2.0;
        large_us[round] = check_us(large);
        ratio[round] = large_us[round] / small_us[round].max(1.0);
    }
    (median(small_us), median(large_us), median(ratio))
}

/// `(min, median, max)` of `calls` single timed calls, in µs.
fn spread_us(history: &History, calls: usize) -> (f64, f64, f64) {
    let mut samples: Vec<f64> = (0..calls).map(|_| check_us(history)).collect();
    samples.sort_unstable_by(f64::total_cmp);
    (samples[0], samples[calls / 2], samples[calls - 1])
}

fn main() {
    let args = Args::parse();
    args.expect_known("checker_smoke", &["assert-growth"], &["repeat"]);
    let assert_growth = args.flag("assert-growth");
    let repeat = args.get_u64("repeat", 0) as usize;

    println!("== C1: check_atomicity on clean W2R1 histories (median of {ROUNDS} rounds) ==\n");
    let sim_wide = simulated_history(8_000);
    let double = simulated_history(16_000);
    let (small_us, large_us, time_ratio) = alternating_us(&sim_wide, &double);
    println!("{:>8} {:>12} {:>10}", "ops", "check", "per op");
    for (history, us) in [(&sim_wide, small_us), (&double, large_us)] {
        println!("{:>8} {:>10.0}us {:>8.3}us", history.len(), us, us / history.len() as f64);
    }
    if repeat > 0 {
        let (min, median, max) = spread_us(&sim_wide, repeat);
        println!(
            "\n{} ops, {repeat} single calls: min {min:.0}us  median {median:.0}us  \
             max {max:.0}us  (max/min {:.2})",
            sim_wide.len(),
            max / min.max(1.0)
        );
    }

    let (small_ops, large_ops) = (sim_wide.len(), double.len());
    let ops_ratio = large_ops as f64 / small_ops as f64;
    println!(
        "\nShape: {ops_ratio:.1}x the operations cost {time_ratio:.2}x the time, round for round \
         (linearithmic ~{:.1}x, all-pairs ~{:.1}x).",
        ops_ratio * (large_ops as f64).log2() / (small_ops as f64).log2(),
        ops_ratio * ops_ratio
    );

    if assert_growth {
        if time_ratio > MAX_GROWTH {
            eprintln!(
                "FAIL: checking {large_ops} ops took {time_ratio:.2}x as long as {small_ops} ops \
                 (> {MAX_GROWTH:.0}x) — is the fast path scanning pairs again?"
            );
            std::process::exit(1);
        }
        println!("growth assertion passed: {time_ratio:.2}x <= {MAX_GROWTH:.0}x");
    }
}
