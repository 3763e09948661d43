//! The benchmark's fixed vocabulary: workload names, metric names with
//! unit, direction and bound, and the seeded input streams (Zipf keys,
//! restart order). Later issues cite these names; do not rename them.

use std::time::Duration;

use rand::distributions::Zipf;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The five workloads, in interleaving order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-memory backend, S=5 t=1 W=1 R=1, W2R1.
    MemNarrow,
    /// Same shape and protocol over loopback TCP.
    TcpNarrow,
    /// Keyspace, in-memory, S=11 t=1 g=5, 16 shards, 64 Zipf(1.1) keys, W2Ra.
    KsZipf,
    /// `tcp-narrow` under a fixed-clock crash/rejoin schedule.
    TcpRestart,
    /// Simulator, S=11 t=1 W=8 R=8, W2R1, unit delays, closed loop for
    /// 8 000 ticks, then the checker.
    SimWide,
}

impl Workload {
    /// Every workload, in the order repeats interleave them.
    pub const ALL: [Workload; 5] = [
        Workload::MemNarrow,
        Workload::TcpNarrow,
        Workload::KsZipf,
        Workload::TcpRestart,
        Workload::SimWide,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MemNarrow => "mem-narrow",
            Workload::TcpNarrow => "tcp-narrow",
            Workload::KsZipf => "ks-zipf",
            Workload::TcpRestart => "tcp-restart",
            Workload::SimWide => "sim-wide",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the layers it stresses and the ones it
    /// bypasses (one line; also the `why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MemNarrow => {
                "messages move by value: protocol client/server code and channel wakes only; \
                 the control on which transport and codec changes must not move"
            }
            Workload::TcpNarrow => {
                "same shape over loopback TCP: runtime::tcp and types::codec dominate, so \
                 send-path, wake, framing and wire-format work shows here and not on mem-narrow"
            }
            Workload::KsZipf => {
                "64 Zipf(1.1) keys through ServerBank, Router and ForRegister framing: many \
                 small registers instead of one hot one; keeps the keyspace stack honest"
            }
            Workload::TcpRestart => {
                "tcp-narrow under a fixed-clock crash/rejoin schedule: state transfer and \
                 client reconnect, which no steady workload touches"
            }
            Workload::SimWide => {
                "8x8 clients on S=11 in the simulator (unit delays) plus check_atomicity: one \
                 thread, exact counts; rd_/wr_p50_us here = host us per op to simulate / to \
                 simulate and check"
            }
        }
    }

    /// Whether real threads and wall-clock latencies are involved.
    pub fn is_live(self) -> bool {
        self != Workload::SimWide
    }

    /// Length of one measurement window: a second, or — under the restart
    /// schedule — one whole crash/rejoin cycle, so that every window holds
    /// the same work and windows stay comparable. `sim-wide` spends each
    /// window on one simulator seed, which takes this long to simulate and
    /// check at the nominal host speed.
    pub fn window(self) -> Duration {
        match self {
            Workload::TcpRestart => RESTART_PERIOD,
            Workload::SimWide => Duration::from_millis(1150),
            _ => Duration::from_secs(1),
        }
    }

    /// Whole windows that fit into `seconds` of measurement (at least one),
    /// with a host-reference slice ([`crate::reference::SLICE`]) before the
    /// first and after each.
    pub fn windows_in(self, seconds: u64) -> usize {
        let slice = crate::reference::SLICE.as_millis();
        let fit =
            ((seconds * 1_000) as u128).saturating_sub(slice) / (self.window().as_millis() + slice);
        fit.max(1) as usize
    }
}

/// Measurement windows of one repeat in the all-workloads report (so ten
/// crash/rejoin cycles on `tcp-restart`, ten simulator seeds on `sim-wide`).
pub const REPORT_WINDOWS: usize = 10;
/// Windows of the one repeat `--quick` runs.
pub const QUICK_WINDOWS: usize = 3;
/// What the acceptance driver passes as `--seconds` (`run_seconds` in
/// `BENCHMARK.json`), and how many runs per workload it takes quartiles
/// over; `spread` does the same.
pub const RUN_SECONDS: u64 = 20;
/// See [`RUN_SECONDS`].
pub const SPREAD_RUNS: u64 = 10;
/// Warm-up before the first window (caches, connections, lazy state).
pub const WARMUP: Duration = Duration::from_secs(1);

/// The restart schedule of `tcp-restart`: one crash per window of this
/// length, `RESTART_LEAD` into it, the rejoin call `RESTART_DOWN` later.
pub const RESTART_PERIOD: Duration = Duration::from_millis(1500);
/// How long a crashed server stays down before `rejoin_server` is called.
pub const RESTART_DOWN: Duration = Duration::from_millis(400);
/// Offset of each crash into its window.
pub const RESTART_LEAD: Duration = Duration::from_millis(100);
/// Servers of the narrow live shapes.
pub const NARROW_SERVERS: u32 = 5;

/// Keys of `ks-zipf` and the skew of their popularity.
pub const ZIPF_KEYS: usize = 64;
/// Zipf exponent of `ks-zipf`.
pub const ZIPF_S: f64 = 1.1;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The name reports and later issues use.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// ISSUE 11's bound: the share of the baseline median by which the
    /// metric may worsen before it counts as a regression. `selfcheck`
    /// holds medians over interleaved repeats to it. `None` for ungated
    /// metrics; `Some(0.0)` for metrics that must repeat exactly.
    pub bound: Option<f64>,
    /// An absolute difference that is always allowed, in the metric's unit
    /// (the issue gives `setup_s` max(10 %, 5 ms)).
    pub slack: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        slack: 0.0,
    }
}

const fn free(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        slack: 0.0,
    }
}

/// The bound every [`END_TO_END`] metric carries in `BENCHMARK.json`: the
/// driver contract's largest. The driver compares single `RUN_SECONDS`
/// runs and refuses a benchmark whose spread over ten of them exceeds the
/// bound, as it did this one's first version (26 % on `tcp-narrow`). Pinned
/// to one vCPU and quoted at the nominal host speed the spread is 1–10 %
/// (README, *spread*), so single runs mostly resolve the issue's 10 % now;
/// the declared bound keeps its distance from a host that has surprised
/// before, and the issue's bounds are held in `selfcheck`.
pub const DRIVER_BOUND: f64 = 0.25;

/// The end-to-end metrics the acceptance driver gates: the `end_to_end`
/// entries of `BENCHMARK.json`. The contract wants each of them from every
/// workload, never zero and never constant, so only these five of the
/// issue's fifteen can travel there; `sim-wide`, which has no wall-clock
/// latency, fills the two latency names with the host cost of simulating
/// and of simulating and checking (see `workloads::driver_view`).
pub const END_TO_END: [Metric; 5] = [
    gated("ops_per_s", "1/s", Better::Higher, 0.10),
    gated("rd_p50_us", "us", Better::Lower, 0.10),
    gated("wr_p50_us", "us", Better::Lower, 0.10),
    gated("cpu_us_per_op", "us", Better::Lower, 0.10),
    Metric {
        slack: 0.005,
        ..gated("setup_s", "s", Better::Lower, 0.10)
    },
];

/// The other ten of the issue's fifteen. The all-workloads report prints
/// them and `selfcheck` gates them, but the driver contract cannot carry
/// them as `end_to_end`: they exist on some workloads only
/// (`rejoin_p50_ms`, `stall_max_ms`, the simulator's four; a tail
/// percentile needs ≥ 100 samples beyond it and `sim-wide` yields one
/// sample per seed), or they are zero on a correct run (`failed_share`,
/// `violations`). The driver sees those two as `failed`/`attempted` and
/// `correct`, and the rest as per-layer metrics.
pub const WORKLOAD_SPECIFIC: [Metric; 10] = [
    gated("rd_p95_us", "us", Better::Lower, 0.15),
    gated("wr_p95_us", "us", Better::Lower, 0.15),
    gated("failed_share", "share", Better::Lower, 0.0),
    gated("violations", "count", Better::Lower, 0.0),
    gated("rejoin_p50_ms", "ms", Better::Lower, 0.10),
    // Reported, no longer held to the issue's 15 %: on one vCPU no operation
    // waits out the 400 ms timeout any more, and the longest one is a
    // scheduling hiccup of 15–220 ms that does not repeat (README, finding 2).
    free("stall_max_ms", "ms", Better::Lower),
    gated("sim_ops_per_s", "1/s", Better::Higher, 0.10),
    gated("check_ops_per_s", "1/s", Better::Higher, 0.10),
    gated("rd_p50_ticks", "ticks", Better::Lower, 0.0),
    gated("msgs_per_op", "count", Better::Lower, 0.0),
];

/// Printed and stored as diagnostics, never gated: `host_ref_us` is the
/// run's median host-reference round trip (`crate::reference`; every timing
/// is quoted at `NOMINAL_US`, and `value × host_ref_us ÷ NOMINAL_US` is what
/// the clock read), the far tails did not repeat within a factor of two on
/// the 2-vCPU box, and `stale_reads` is
/// the tracked defect of ROADMAP open item 1 (see
/// `workloads::tracks_stale_reads`), about one per two million operations.
pub const DIAGNOSTIC: [Metric; 6] = [
    free("host_ref_us", "us", Better::Lower),
    free("rd_p99_us", "us", Better::Lower),
    free("wr_p99_us", "us", Better::Lower),
    free("rd_p999_us", "us", Better::Lower),
    free("wr_p999_us", "us", Better::Lower),
    free("stale_reads", "count", Better::Lower),
];

/// The per-layer metrics of the traced pass (`per_layer` in
/// `BENCHMARK.json`). A metric that does not apply to a workload reads 0
/// there. README maps each to the end-to-end metric it should move.
pub const PER_LAYER: [Metric; 57] = [
    free("runtime.client.rd_assemble_us", "us", Better::Lower),
    free("runtime.client.wr_assemble_us", "us", Better::Lower),
    free("runtime.client.rd_complete_us", "us", Better::Lower),
    free("runtime.client.wr_complete_us", "us", Better::Lower),
    free("runtime.client.rounds_per_rd", "count", Better::Lower),
    free("runtime.client.rounds_per_wr", "count", Better::Lower),
    free("runtime.client.retries_per_kop", "count", Better::Lower),
    free("runtime.client.stall_max_ms", "ms", Better::Lower),
    free("runtime.transport.client_send_us", "us", Better::Lower),
    free("runtime.transport.server_send_us", "us", Better::Lower),
    free("runtime.transport.frames_per_op", "count", Better::Lower),
    free("runtime.transport.bytes_per_op", "count", Better::Lower),
    free(
        "runtime.transport.send_calls_per_op",
        "count",
        Better::Lower,
    ),
    free("runtime.transport.ctxsw_per_op", "count", Better::Lower),
    free("runtime.tcp.wakes_per_frame", "count", Better::Lower),
    free("runtime.tcp.frames_per_write", "count", Better::Higher),
    free("runtime.tcp.frames_dropped", "count", Better::Lower),
    free("runtime.server.turnaround_us", "us", Better::Lower),
    free("core.server.query_ns", "ns", Better::Lower),
    free("core.server.update_ns", "ns", Better::Lower),
    free("core.server.readfast_ns", "ns", Better::Lower),
    free("core.server.reply_regs", "count", Better::Lower),
    free("core.client.ack_ns", "ns", Better::Lower),
    free("core.client.readfast_ack_ns", "ns", Better::Lower),
    free("core.bank.handle_ns", "ns", Better::Lower),
    free("core.routing.group_of_ns", "ns", Better::Lower),
    free("core.bank.registers", "count", Better::Lower),
    free("types.codec.encode_ns", "ns", Better::Lower),
    free("types.codec.decode_ns", "ns", Better::Lower),
    free("types.codec.readfast_ack_bytes", "count", Better::Lower),
    free("sim.events_per_s", "1/s", Better::Higher),
    free("sim.ops_per_s", "1/s", Better::Higher),
    free("sim.msgs_per_op", "count", Better::Lower),
    free("sim.rd_p50_ticks", "ticks", Better::Lower),
    free("sim.ops", "count", Better::Higher),
    free("check.ops_per_s", "1/s", Better::Higher),
    free("check.stale_reads", "count", Better::Lower),
    free("check.stream_records_per_s", "1/s", Better::Higher),
    free("check.stream_window_high_water", "count", Better::Lower),
    free("runtime.cluster.crash_ms", "ms", Better::Lower),
    free("runtime.cluster.rejoin_ms", "ms", Better::Lower),
    free("runtime.cluster.teardown_ms", "ms", Better::Lower),
    free("register.deploy_ms", "ms", Better::Lower),
    free("keyspace.deploy_ms", "ms", Better::Lower),
    free("keyspace.mint_us", "us", Better::Lower),
    free("trace_overhead_share", "share", Better::Lower),
    free("trace.rd_children_over_root", "share", Better::Lower),
    free("trace.wr_children_over_root", "share", Better::Lower),
    free("trace.ops_traced", "count", Better::Higher),
    free("trace.ops_untraced", "count", Better::Lower),
    free("untraced.rd_p95_us", "us", Better::Lower),
    free("untraced.wr_p95_us", "us", Better::Lower),
    free("untraced.rejoin_p50_ms", "ms", Better::Lower),
    free("traced.ops_per_s", "1/s", Better::Higher),
    free("traced.failed_share", "share", Better::Lower),
    free("traced.violations", "count", Better::Lower),
    free("host.ref_us", "us", Better::Lower),
];

/// A seeded stream of register indices: the benchmark's only randomness,
/// so the same `--seed` gives the same inputs on every host.
#[derive(Debug, Clone)]
pub struct KeyStream {
    /// Popularity of the registers; `None` for the single-register case.
    zipf: Option<Zipf>,
    rng: SmallRng,
}

impl KeyStream {
    /// The stream that always yields register 0.
    pub fn single() -> Self {
        KeyStream {
            zipf: None,
            rng: SmallRng::seed_from_u64(0),
        }
    }

    /// `keys` registers with Zipf(`s`) popularity (rank 0 hottest), drawn
    /// from `seed`, decorrelated per `lane` (one lane per thread).
    pub fn zipf(keys: usize, s: f64, seed: u64, lane: u64) -> Self {
        KeyStream {
            zipf: Some(Zipf::new(keys as u64, s)),
            rng: SmallRng::seed_from_u64(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F)),
        }
    }

    /// How many registers the stream ranges over.
    pub fn keys(&self) -> usize {
        self.zipf.map_or(1, |z| z.n() as usize)
    }

    /// The next register index.
    pub fn next_key(&mut self) -> usize {
        match self.zipf {
            None => 0,
            Some(zipf) => zipf.sample(&mut self.rng) as usize - 1,
        }
    }
}

/// The server crashed in cycle `cycle` of the restart schedule: the five
/// servers in rotation, the rotation's start chosen by the seed.
pub fn restart_victim(seed: u64, cycle: usize) -> u32 {
    ((seed % u64::from(NARROW_SERVERS)) as u32 + cycle as u32) % NARROW_SERVERS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_fits_the_contract_and_is_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()), "{}", w.name());
            assert!(seen.insert(w.name()));
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        let metrics = END_TO_END
            .iter()
            .chain(&WORKLOAD_SPECIFIC)
            .chain(&DIAGNOSTIC)
            .chain(&PER_LAYER);
        for m in metrics {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} named twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}: unit {}",
                m.name,
                m.unit
            );
            if let Some(b) = m.bound {
                assert!((0.0..=0.25).contains(&b), "{}", m.name);
            }
        }
        assert_eq!(
            END_TO_END.len() + WORKLOAD_SPECIFIC.len(),
            15,
            "the issue's fifteen"
        );
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(Workload::from_name("nope").is_none());
    }

    /// `BENCHMARK.json` at the repo root is written by hand; this keeps it
    /// saying what the code measures.
    #[test]
    fn benchmark_json_declares_exactly_this_vocabulary() {
        use crate::json::Json;
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else {
            panic!("an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let text_of = |j: &Json, key: &str| match j.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        assert_eq!(list("paths"), [Json::Str("benchmark".into())]);
        assert_eq!(
            list("command"),
            [
                Json::Str("bash".into()),
                Json::Str("benchmark/run.sh".into())
            ]
        );
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert_eq!(seconds, RUN_SECONDS as f64);
        const { assert!(RUN_SECONDS >= 1 && RUN_SECONDS <= 60 && DRIVER_BOUND <= 0.25) };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (declared, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(
                (text_of(declared, "name"), text_of(declared, "why")),
                (w.name().into(), w.why().into())
            );
        }
        for (key, metrics, bounded) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let declared = list(key);
            assert_eq!(declared.len(), metrics.len(), "{key}");
            for (d, m) in declared.iter().zip(metrics) {
                assert_eq!(text_of(d, "name"), m.name);
                assert_eq!(text_of(d, "unit"), m.unit, "{}", m.name);
                assert_eq!(text_of(d, "better"), m.better.word(), "{}", m.name);
                assert_eq!(
                    d.get("bound").and_then(Json::as_f64),
                    bounded.then_some(DRIVER_BOUND),
                    "{}",
                    m.name
                );
                assert_eq!(m.bound.is_some(), bounded, "{}", m.name);
            }
        }
    }

    #[test]
    fn key_streams_are_seed_deterministic_and_skewed() {
        let draw = |seed, lane| {
            let mut s = KeyStream::zipf(ZIPF_KEYS, ZIPF_S, seed, lane);
            (0..10_000).map(|_| s.next_key()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0), "same seed, same keys");
        assert_ne!(draw(7, 0), draw(8, 0), "another seed, other keys");
        assert_ne!(draw(7, 0), draw(7, 1), "lanes are decorrelated");
        let keys = draw(7, 0);
        assert!(keys.iter().all(|&k| k < ZIPF_KEYS));
        let hottest = keys.iter().filter(|&&k| k == 0).count();
        let coldest = keys.iter().filter(|&&k| k == ZIPF_KEYS - 1).count();
        // Zipf(1.1) over 64 keys: rank 1 draws ~23 %, rank 64 ~0.2 %.
        assert!((1_800..2_800).contains(&hottest), "{hottest}");
        assert!(coldest < 100, "{coldest}");
        let mut single = KeyStream::single();
        assert_eq!(
            (single.keys(), single.next_key(), single.next_key()),
            (1, 0, 0)
        );
    }

    #[test]
    fn restart_order_rotates_from_a_seeded_start() {
        let order = |seed| (0..10).map(|c| restart_victim(seed, c)).collect::<Vec<_>>();
        assert_eq!(order(0), vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
        assert_eq!(order(7), vec![2, 3, 4, 0, 1, 2, 3, 4, 0, 1]);
        assert_eq!(order(7), order(7));
        assert_eq!(Workload::TcpRestart.windows_in(20), 12);
        assert_eq!(Workload::TcpRestart.windows_in(1), 1);
        assert_eq!(Workload::MemNarrow.windows_in(20), 18, "18 × 1.1 s + 0.1 s");
        assert_eq!(Workload::SimWide.windows_in(20), 15);
    }
}
