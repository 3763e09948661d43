//! Experiment A1 — admissibility fast-path smoke & CI floor.
//!
//! The criterion `admissible` bench draws the full latency curves; this bin
//! is the cheap, assertable version for CI: it times the two production
//! paths of return-value selection —
//!
//! - **per-read build**: `WitnessIndex::from_views` over a quorum of
//!   borrowed snapshots plus one selection walk (the full-info wire's
//!   per-read cost), and
//! - **incremental**: one selection walk over a standing index (the delta
//!   wire's steady-state cost, where merges amortize index maintenance),
//!
//! plus the server's delta-path round (register + catch-up + assemble
//! `DeltaSnapshot`), across cluster sizes and candidate-value counts.
//!
//! With `--assert-admissible-floor` it exits non-zero if any point exceeds
//! `--max-ns` nanoseconds per operation, or if growing the candidate set
//! 8× (8 → 64 values) grows selection cost by more than `--max-growth`×.
//! A quadratic regression in the index (e.g. re-building masks per
//! candidate × degree, the pre-incremental behavior) blows both bounds;
//! run-to-run noise on a loaded single-core box does not.

use std::time::Instant;

use mwr_bench::args::Args;
use mwr_bench::synthetic_replies;
use mwr_core::{ServerState, SnapshotSource, WitnessIndex};
use mwr_types::ClientId;

/// Median-of-3 timing of `f`, in ns per iteration.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut samples = [0f64; 3];
    for s in &mut samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        *s = t0.elapsed().as_nanos() as f64 / iters as f64;
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    samples[1]
}

fn main() {
    let args = Args::parse();
    args.expect_known(
        "admissible_smoke",
        &["assert-admissible-floor"],
        &["max-ns", "max-growth", "iters"],
    );
    let assert_floor = args.flag("assert-admissible-floor");
    let max_ns = args.get_u64("max-ns", 250_000) as f64;
    let max_growth = args.get_u64("max-growth", 24) as f64;
    let iters = args.get_u64("iters", 2_000) as u32;

    println!("== A1: admissibility fast-path smoke (ns/op, median of 3 runs x {iters} iters) ==\n");
    println!(
        "{:<14} {:>7} {:>16} {:>14} {:>14}",
        "cluster", "values", "per-read build", "incremental", "server delta"
    );

    let mut failed = false;
    // (servers, faults, readers) shaped like the criterion bench.
    for (servers, t, readers) in [(5usize, 1usize, 2usize), (13, 3, 2), (25, 4, 2)] {
        let quorum = servers - t;
        let mut growth: Vec<(f64, f64)> = Vec::new();
        for values in [8usize, 64] {
            let snaps = synthetic_replies(quorum, values, readers + 2);

            let per_read = time_ns(iters, || {
                let (index, mask) =
                    WitnessIndex::from_views(snaps.iter().map(SnapshotSource::view));
                let v = index
                    .selector(&mut Vec::new(), mask, servers, t, readers + 1)
                    .select_return_value();
                std::hint::black_box(v);
            });

            let (index, mask) = WitnessIndex::from_views(snaps.iter().map(SnapshotSource::view));
            let mut scratch = Vec::new();
            let incremental = time_ns(iters, || {
                let v = index
                    .selector(&mut scratch, mask, servers, t, readers + 1)
                    .select_return_value();
                std::hint::black_box(v);
            });

            // The server's whole delta round for a reader that acked the
            // state the other clients produced.
            let mut server = ServerState::new();
            for snap in &snaps {
                for rec in &snap.entries {
                    for &c in &rec.updated {
                        server.update(rec.value, c);
                    }
                }
            }
            let reader = ClientId::reader(90);
            // The round mutates the server, so each iteration works on a
            // clone; timing the clone alone and subtracting isolates the
            // registration walk + assemble cost the column reports.
            let clone_ns = time_ns(iters, || {
                std::hint::black_box(server.clone());
            });
            let server_delta = (time_ns(iters, || {
                let mut s = server.clone();
                let acked = s.version();
                s.catch_up_registrations(reader, acked);
                std::hint::black_box(s.delta_since(acked));
            }) - clone_ns)
                .max(0.0);

            println!(
                "S{servers} t{t} R{readers}    {values:>7} {per_read:>13.0}ns {incremental:>11.0}ns {server_delta:>11.0}ns"
            );
            growth.push((per_read, incremental));
            for (label, ns) in [("per-read", per_read), ("incremental", incremental)] {
                if ns > max_ns {
                    eprintln!(
                        "FAIL: S{servers} t{t} values={values} {label} selection took {ns:.0}ns \
                         (> --max-ns {max_ns:.0})"
                    );
                    failed = true;
                }
            }
        }
        let (build8, inc8) = growth[0];
        let (build64, inc64) = growth[1];
        for (label, small, big) in [("per-read", build8, build64), ("incremental", inc8, inc64)] {
            let ratio = big / small.max(1.0);
            if ratio > max_growth {
                eprintln!(
                    "FAIL: S{servers} t{t} {label} selection grew {ratio:.1}x from 8 to 64 \
                     candidate values (> --max-growth {max_growth:.0}x) — quadratic regression?"
                );
                failed = true;
            }
        }
    }

    println!("\nShape: selection cost must scale with live state, not candidates x degrees;");
    println!("the incremental column is what every delta-wire read pays after merges.");

    if assert_floor {
        if failed {
            std::process::exit(1);
        }
        println!("admissibility floor assertion passed: all points under {max_ns:.0}ns and {max_growth:.0}x growth");
    }
}
