//! Cross-commit pin on the simulator: protocol runs under jittered delays, a
//! hold, a release and a crash reproduce, delivery for delivery, what an
//! earlier engine produced.
//!
//! `crates/sim/tests/determinism.rs` and the `*_equivalence` suites compare
//! two runs of one binary; a change to the event queue that reorders a tie
//! or shifts a delay draw moves both runs alike and passes them. The
//! digests below were recorded at the parent of PR 19 (commit 89898d4, whose
//! heap still carried whole `Scheduled<M>` events), before the engine was
//! touched, and are FNV-1a (64-bit) over every field of every `TraceEntry`,
//! every `(SimTime, ClientEvent)` of the report and the final `RunStats`.
//!
//! The last three digests were recorded the same way at the parent of PR 20
//! (commit dc1d697), before the two client implementations became drivers of
//! one round machine: they widen the pin to the adaptive fallback, the
//! full-info wire and the fast write, which the first three never run.
//!
//! The four tunable digests were recorded at the parent of the change that
//! made `mwr-almost`'s clients a configuration of the round machine (commit
//! 97173e9), on the same schedule. They digest each trace summary only up to
//! its `floor:` field: the machine piggybacks its completed floor on
//! `Update` where the old client sent the initial value, and the tunable
//! cluster's servers run without GC, which ignores every floor.
//!
//! The two Byzantine digests were recorded the same way at commit 2739039,
//! before the Byzantine family became a constructor of `mwr_core::Cluster`,
//! on a (9, 2, 2, 2) cluster whose servers 0 and 1 are the adversaries.

use mwr::almost::{tunable_cluster, ConsistencyLevel, TunableSpec};
use mwr::byz::{byz_cluster, ByzBehavior, ByzConfig, ByzReadMode};
use mwr::core::{Cluster, FastWire, Protocol};
use mwr::sim::{DelayModel, LinkSelector, SimTime};
use mwr::types::{ClusterConfig, ProcessId};
use mwr::workload::{drive_closed_loop, WorkloadSpec};

/// FNV-1a (64-bit) over little-endian integers and length-prefixed strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn int(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.int(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Runs `protocol` on `(S, t, R, W)` with seed 42, `Uniform{1, 40}` delays,
/// r0 → s1 held from tick 100 to 700 and s0 crashed at 900, closed-loop for
/// 3 000 ticks with think time 5; returns (deliveries, client events, digest).
fn golden_run(protocol: Protocol, (s, t, r, w): (usize, usize, usize, usize)) -> (usize, usize, u64) {
    golden_run_of(Cluster::new(ClusterConfig::new(s, t, r, w).unwrap(), protocol))
}

/// [`golden_run`]'s schedule on any blueprint.
fn golden_run_of(cluster: Cluster) -> (usize, usize, u64) {
    golden_digest(&cluster, |summary| summary)
}

/// [`golden_run_of`], digesting each trace summary as `summary` cuts it.
fn golden_digest(cluster: &Cluster, summary: fn(&str) -> &str) -> (usize, usize, u64) {
    let config = cluster.config();
    let mut sim = cluster.build_sim(42);
    sim.network_mut().set_default_delay(DelayModel::Uniform {
        lo: SimTime::from_ticks(1),
        hi: SimTime::from_ticks(40),
    });
    sim.enable_trace();
    let held = LinkSelector::directed(ProcessId::reader(0), ProcessId::server(1));
    sim.schedule_hold(SimTime::from_ticks(100), held);
    sim.schedule_release(SimTime::from_ticks(700), held);
    sim.schedule_crash(SimTime::from_ticks(900), ProcessId::server(0));
    let spec = WorkloadSpec {
        duration: SimTime::from_ticks(3_000),
        think_time: SimTime::from_ticks(5),
        seed: 42,
    };
    let report = drive_closed_loop(&mut sim, config, spec).unwrap();

    let mut digest = Fnv::new();
    let trace = sim.trace().expect("tracing enabled").entries();
    for e in trace {
        digest.int(e.at.ticks());
        digest.text(&e.from.to_string());
        digest.text(&e.to.to_string());
        digest.text(summary(&e.summary));
    }
    for (at, event) in &report.events {
        digest.int(at.ticks());
        digest.text(&format!("{event:?}"));
    }
    let stats = sim.stats();
    assert!(stats.messages_parked > 0, "the hold must actually bite");
    assert!(stats.messages_dropped_crash > 0, "the crash must actually bite");
    for v in [
        stats.events_processed,
        stats.messages_delivered,
        stats.messages_parked,
        stats.messages_dropped_crash,
        stats.timers_fired,
        stats.externals_delivered,
        stats.end_time.ticks(),
    ] {
        digest.int(v);
    }
    (trace.len(), report.events.len(), digest.0)
}

#[test]
fn w2r1_narrow_reproduces_the_parent_of_pr_19() {
    assert_eq!(golden_run(Protocol::W2R1, (5, 1, 2, 2)), (1_804, 363, 0x5a79_d751_3250_828f));
}

#[test]
fn w2r1_wide_reproduces_the_parent_of_pr_19() {
    assert_eq!(golden_run(Protocol::W2R1, (11, 1, 8, 8)), (14_984, 1_266, 0xd62b_ce37_3c8e_b33f));
}

#[test]
fn w2r2_two_crashes_tolerated_reproduces_the_parent_of_pr_19() {
    assert_eq!(golden_run(Protocol::W2R2, (7, 2, 2, 2)), (2_928, 348, 0x7f3b_1b7f_c620_f262));
}

/// `t(R + 2) < S` fails at R = 4, so the adaptive reads fall back to the
/// write-back round (47 times in this run).
#[test]
fn w2ra_beyond_the_fast_read_bound_reproduces_the_parent_of_pr_20() {
    assert_eq!(golden_run(Protocol::W2Ra, (5, 1, 4, 2)), (2_722, 528, 0xffaa_67f6_909c_9735));
}

#[test]
fn w2r1_full_info_reproduces_the_parent_of_pr_20() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let cluster = Cluster::with_wire(config, Protocol::W2R1, FastWire::FullInfo, true);
    assert_eq!(golden_run_of(cluster), (1_804, 363, 0xc8f2_1883_de07_8c7d));
}

#[test]
fn naive_fast_write_reproduces_the_parent_of_pr_20() {
    assert_eq!(golden_run(Protocol::NaiveW1R1, (5, 1, 2, 2)), (1_760, 408, 0x95ff_b0e8_5b7b_4c4a));
}

/// [`golden_run_of`]'s schedule on a tunable cluster at (5, 1, 2, 2); each
/// trace summary is digested up to its `floor:` field (module docs).
fn tunable_golden_run(spec: TunableSpec) -> (usize, usize, u64) {
    let cluster = tunable_cluster(ClusterConfig::new(5, 1, 2, 2).unwrap(), spec);
    golden_digest(&cluster, |summary| summary.split(", floor: ").next().unwrap_or_default())
}

#[test]
fn tunable_one_one_with_repair_reproduces_the_separate_tunable_client() {
    assert_eq!(tunable_golden_run(TunableSpec::fastest_with_repair()), (5_570, 864, 0x824a_7438_9b31_9f9d));
}

#[test]
fn tunable_quorum_lww_reproduces_the_separate_tunable_client() {
    assert_eq!(tunable_golden_run(TunableSpec::quorum_lww()), (2_118, 492, 0x94de_9056_e258_780d));
}

#[test]
fn tunable_strong_reproduces_the_separate_tunable_client() {
    assert_eq!(tunable_golden_run(TunableSpec::strong()), (2_194, 442, 0xdb5e_535d_add7_68d8));
}

/// The s0 crash at tick 900 blocks every later write that waits for ALL.
#[test]
fn tunable_all_level_write_reproduces_the_separate_tunable_client() {
    let spec = TunableSpec { write_level: ConsistencyLevel::All, ..TunableSpec::fastest() };
    assert_eq!(tunable_golden_run(spec), (2_132, 484, 0xc991_6e74_f586_5d55));
}

/// [`golden_run_of`]'s schedule on a Byzantine (9, 2, 2, 2) cluster whose
/// servers 0 and 1 run `behavior` (module docs).
fn byz_golden_run(read_mode: ByzReadMode, behavior: ByzBehavior) -> (usize, usize, u64) {
    golden_run_of(byz_cluster(ByzConfig::new(9, 2, 2, 2).unwrap(), read_mode, behavior))
}

#[test]
fn byz_fast_reads_against_stale_repliers_reproduce_the_recorded_digest() {
    assert_eq!(
        byz_golden_run(ByzReadMode::Fast, ByzBehavior::StaleReplier),
        (3_540, 371, 0xe1e0_760a_ac0e_88a4)
    );
}

#[test]
fn byz_slow_reads_against_equivocators_reproduce_the_recorded_digest() {
    assert_eq!(
        byz_golden_run(ByzReadMode::Slow, ByzBehavior::Equivocator),
        (3_622, 327, 0x54f3_a254_85ba_66f4)
    );
}
