//! Regression: the simulator is a pure function of (seed, schedule).
//!
//! Future performance work (batched event queues, pooled allocations,
//! parallel delivery) must not change a single delivery relative to these
//! pins: same seed and schedule ⇒ bit-identical event trace, different
//! seed ⇒ different delay draws, and — because delays come from per-link
//! streams — traffic on one link must never perturb another link's delays.

use mwr_sim::{Automaton, Context, DelayModel, Simulation, SimTime, TraceEntry};
use mwr_types::ProcessId;

#[derive(Clone, Debug, PartialEq)]
enum Msg {
    Ping(u32),
    Pong(u32),
}

/// Echo server: replies `Pong(n)` to `Ping(n)`.
struct Echo;

impl Automaton<Msg, (ProcessId, u32)> for Echo {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Msg,
        ctx: &mut Context<'_, Msg, (ProcessId, u32)>,
    ) {
        if let Msg::Ping(n) = msg {
            ctx.send(from, Msg::Pong(n));
        }
    }
}

/// Client: pings the given servers on every external input, notifies on pong.
struct Pinger {
    servers: Vec<ProcessId>,
    sent: u32,
}

impl Automaton<Msg, (ProcessId, u32)> for Pinger {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Msg,
        ctx: &mut Context<'_, Msg, (ProcessId, u32)>,
    ) {
        if let Msg::Pong(n) = msg {
            ctx.notify((from, n));
        }
    }

    fn on_external(&mut self, _input: Msg, ctx: &mut Context<'_, Msg, (ProcessId, u32)>) {
        self.sent += 1;
        for &s in &self.servers {
            ctx.send(s, Msg::Ping(self.sent));
        }
    }
}

const JITTER: DelayModel = DelayModel::Uniform {
    lo: SimTime::from_ticks(1),
    hi: SimTime::from_ticks(40),
};

/// Timestamped pong notifications, as drained from the simulation.
type NoteLog = Vec<(SimTime, (ProcessId, u32))>;

/// Builds a sim with `clients` pingers each talking to `servers` echo
/// servers, pinging `rounds` times on a fixed cadence, and returns the full
/// trace plus the notification log.
fn run(seed: u64, clients: u32, servers: u32, rounds: u64) -> (Vec<TraceEntry>, NoteLog) {
    let mut sim: Simulation<Msg, (ProcessId, u32)> = Simulation::new(seed);
    sim.network_mut().set_default_delay(JITTER);
    sim.enable_trace();
    let server_ids: Vec<ProcessId> = (0..servers).map(ProcessId::server).collect();
    for s in &server_ids {
        sim.add_process(*s, Echo);
    }
    for c in 0..clients {
        sim.add_process(
            ProcessId::reader(c),
            Pinger { servers: server_ids.clone(), sent: 0 },
        );
        for round in 0..rounds {
            sim.schedule_external(
                SimTime::from_ticks(round * 50 + u64::from(c)),
                ProcessId::reader(c),
                Msg::Ping(0),
            )
            .unwrap();
        }
    }
    sim.run_until_quiescent().unwrap();
    let trace = sim.trace().expect("tracing enabled").entries().to_vec();
    let notes = sim.drain_notifications();
    (trace, notes)
}

#[test]
fn same_seed_and_schedule_reproduce_the_exact_event_trace() {
    let (trace_a, notes_a) = run(42, 3, 4, 6);
    let (trace_b, notes_b) = run(42, 3, 4, 6);
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "delivery-for-delivery identical");
    assert_eq!(notes_a, notes_b, "notification-for-notification identical");
}

#[test]
fn different_seeds_draw_different_delays() {
    let (trace_a, _) = run(1, 3, 4, 6);
    let (trace_b, _) = run(2, 3, 4, 6);
    // Same message multiset, different timing: sort both by content and
    // compare delivery times pairwise.
    assert_eq!(trace_a.len(), trace_b.len());
    assert_ne!(trace_a, trace_b, "seed must steer the delay draws");
}

#[test]
fn traffic_on_one_link_never_perturbs_another_links_delays() {
    // Baseline: reader 0 alone. Perturbed: reader 1 added, generating
    // interleaved traffic on disjoint links. Reader 0's deliveries must be
    // identical in both runs — per-link delay streams, not a shared one.
    let (quiet, _) = run(7, 1, 4, 6);
    let (busy, _) = run(7, 2, 4, 6);
    let r0 = ProcessId::reader(0);
    let quiet_r0: Vec<&TraceEntry> =
        quiet.iter().filter(|e| e.from == r0 || e.to == r0).collect();
    let busy_r0: Vec<&TraceEntry> =
        busy.iter().filter(|e| e.from == r0 || e.to == r0).collect();
    assert!(!quiet_r0.is_empty());
    assert_eq!(quiet_r0, busy_r0, "observed link unaffected by unrelated traffic");
}

#[test]
fn crash_and_hold_controls_are_part_of_the_deterministic_input() {
    let run_with_controls = |seed: u64| {
        let mut sim: Simulation<Msg, (ProcessId, u32)> = Simulation::new(seed);
        sim.network_mut().set_default_delay(JITTER);
        sim.enable_trace();
        for s in 0..3 {
            sim.add_process(ProcessId::server(s), Echo);
        }
        let servers = (0..3).map(ProcessId::server).collect();
        sim.add_process(ProcessId::reader(0), Pinger { servers, sent: 0 });
        sim.schedule_crash(SimTime::from_ticks(60), ProcessId::server(2));
        sim.schedule_hold(
            SimTime::ZERO,
            mwr_sim::LinkSelector::directed(ProcessId::reader(0), ProcessId::server(1)),
        );
        sim.schedule_release(
            SimTime::from_ticks(90),
            mwr_sim::LinkSelector::directed(ProcessId::reader(0), ProcessId::server(1)),
        );
        for round in 0..4u64 {
            sim.schedule_external(
                SimTime::from_ticks(round * 50),
                ProcessId::reader(0),
                Msg::Ping(0),
            )
            .unwrap();
        }
        sim.run_until_quiescent().unwrap();
        (sim.trace().unwrap().entries().to_vec(), sim.stats())
    };
    let (trace_a, stats_a) = run_with_controls(11);
    let (trace_b, stats_b) = run_with_controls(11);
    assert_eq!(trace_a, trace_b);
    assert_eq!(stats_a, stats_b);
    assert!(stats_a.messages_parked > 0, "the hold must actually bite");
    assert!(stats_a.messages_dropped_crash > 0, "the crash must actually bite");
}

/// FNV-1a (64-bit) over little-endian integers and length-prefixed strings:
/// the digest the cross-commit pin below is stated in.
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

/// The tests above compare two runs of one binary. This one compares this
/// binary with an earlier one: the constants were recorded at the parent of
/// PR 19 (commit 89898d4, the engine whose heap still carried whole
/// `Scheduled<M>` events), before the event queue was touched. An engine
/// change that moves one delivery, one tie-break or one delay draw changes
/// the digest.
#[test]
fn the_trace_of_seed_42_is_the_one_the_parent_of_pr_19_recorded() {
    let (trace, notes) = run(42, 3, 4, 6);
    let mut digest = Fnv::new();
    for e in &trace {
        digest.int(e.at.ticks());
        digest.text(&e.from.to_string());
        digest.text(&e.to.to_string());
        digest.text(&e.summary);
    }
    for (at, (from, n)) in &notes {
        digest.int(at.ticks());
        digest.text(&from.to_string());
        digest.int(u64::from(*n));
    }
    assert_eq!(
        (trace.len(), notes.len(), digest.0),
        (144, 72, 0x49b3_3416_1c31_aaeb),
        "the engine no longer reproduces the parent's run delivery for delivery"
    );
}
