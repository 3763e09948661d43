//! Regression: the simulator is a pure function of (seed, schedule).
//!
//! Future performance work (batched event queues, pooled allocations,
//! parallel delivery) must not change a single delivery relative to these
//! pins: same seed and schedule ⇒ bit-identical event trace, different
//! seed ⇒ different delay draws, and — because delays come from per-link
//! streams — traffic on one link must never perturb another link's delays.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use mwr_sim::{Automaton, Context, DelayModel, Simulation, SimTime, TimerId, TraceEntry};
use mwr_types::ProcessId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// One schedule's bookkeeping, shared by the harness and every automaton:
/// the instant each event was scheduled for, indexed by the order it was
/// scheduled in, and every firing as `(now, index)`.
#[derive(Default)]
struct Ledger {
    due: Vec<SimTime>,
    fired: Vec<(SimTime, u64)>,
}

impl Ledger {
    /// Records an event due at `at` and returns its scheduling index.
    fn schedule(&mut self, at: SimTime) -> u64 {
        self.due.push(at);
        self.due.len() as u64 - 1
    }
}

/// A token that lives `hops` more deliveries, named by its scheduling index.
#[derive(Clone, Debug)]
struct Token {
    id: u64,
    hops: u32,
}

/// Logs every callback and, while the token it was handed has hops left,
/// sends zero to two tokens to random peers and sometimes sets a timer.
/// Sends are made before the timer because the engine schedules a
/// callback's sends before its timers, so the ledger's indices are the
/// engine's scheduling order.
struct Relay {
    ledger: Rc<RefCell<Ledger>>,
    delays: Rc<BTreeMap<(ProcessId, ProcessId), u64>>,
    peers: Vec<ProcessId>,
    rng: SmallRng,
    timers: HashMap<TimerId, (u64, u32)>,
}

impl Relay {
    fn fire(&mut self, id: u64, hops: u32, ctx: &mut Context<'_, Token, ()>) {
        let now = ctx.now();
        let mut ledger = self.ledger.borrow_mut();
        ledger.fired.push((now, id));
        let Some(hops) = hops.checked_sub(1) else { return };
        for _ in 0..self.rng.gen_range(0..=2u32) {
            let peer = self.peers[self.rng.gen_range(0..self.peers.len())];
            let delay = self.delays[&(ctx.self_id(), peer)];
            let id = ledger.schedule(now + SimTime::from_ticks(delay));
            ctx.send(peer, Token { id, hops });
        }
        if self.rng.gen_bool(0.4) {
            let delay = SimTime::from_ticks(self.rng.gen_range(0..=80u64));
            let id = ledger.schedule(now + delay);
            self.timers.insert(ctx.set_timer(delay), (id, hops));
        }
    }
}

impl Automaton<Token, ()> for Relay {
    fn on_message(&mut self, _: ProcessId, token: Token, ctx: &mut Context<'_, Token, ()>) {
        self.fire(token.id, token.hops, ctx);
    }

    fn on_external(&mut self, token: Token, ctx: &mut Context<'_, Token, ()>) {
        self.fire(token.id, token.hops, ctx);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, Token, ()>) {
        let (id, hops) = self.timers.remove(&timer).expect("a timer fires once");
        self.fire(id, hops, ctx);
    }
}

/// Runs one seeded schedule over three readers and three servers whose
/// eighteen directed links each have a constant delay of 0–80 ticks:
/// externals at random instants (some 10 000 ticks or more ahead), tokens
/// relayed and timers set by the automata, and the clock moved by
/// `run_until` jumps between batches of externals. Returns the ledger.
fn random_schedule(seed: u64) -> Ledger {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ledger = Rc::new(RefCell::new(Ledger::default()));
    let clients: Vec<ProcessId> = (0..3).map(ProcessId::reader).collect();
    let servers: Vec<ProcessId> = (0..3).map(ProcessId::server).collect();
    let mut delays = BTreeMap::new();
    for &c in &clients {
        for &s in &servers {
            delays.insert((c, s), rng.gen_range(0..=80u64));
            delays.insert((s, c), rng.gen_range(0..=80u64));
        }
    }
    let mut sim: Simulation<Token, ()> = Simulation::new(seed);
    for (&(from, to), &ticks) in &delays {
        sim.network_mut().set_link_delay(from, to, DelayModel::Constant(SimTime::from_ticks(ticks)));
    }
    let delays = Rc::new(delays);
    for (own, peers) in [(&clients, &servers), (&servers, &clients)] {
        for &p in own {
            sim.add_process(
                p,
                Relay {
                    ledger: Rc::clone(&ledger),
                    delays: Rc::clone(&delays),
                    peers: peers.clone(),
                    rng: SmallRng::seed_from_u64(rng.gen_range(0..u64::MAX)),
                    timers: HashMap::new(),
                },
            );
        }
    }
    let processes: Vec<ProcessId> = clients.iter().chain(&servers).copied().collect();
    for _ in 0..8 {
        for _ in 0..rng.gen_range(1..=4u32) {
            let ahead = if rng.gen_bool(0.15) { rng.gen_range(10_000..=20_000u64) } else { rng.gen_range(0..=120u64) };
            let at = sim.now() + SimTime::from_ticks(ahead);
            let to = processes[rng.gen_range(0..processes.len())];
            let id = ledger.borrow_mut().schedule(at);
            sim.schedule_external(at, to, Token { id, hops: rng.gen_range(0..=5u32) }).unwrap();
        }
        let deadline = sim.now() + SimTime::from_ticks(rng.gen_range(0..=150u64));
        sim.run_until(deadline).unwrap();
    }
    sim.run_until_quiescent().unwrap();
    drop(sim);
    Rc::try_unwrap(ledger).ok().expect("the simulation is gone").into_inner()
}

/// The queue's contract, checked against what it is stated in rather than
/// against a recorded run: an event fires at the instant it was scheduled
/// for, exactly once, and events of one instant fire in the order they were
/// scheduled, whatever their kind and whoever scheduled them.
#[test]
fn delivery_is_sorted_by_instant_then_scheduling_order() {
    let (mut events, mut shared_instants) = (0, 0);
    for seed in 0..200 {
        let Ledger { due, fired } = random_schedule(seed);
        for &(at, id) in &fired {
            assert_eq!(due[id as usize], at, "seed {seed}: event {id} fired off its instant");
        }
        if let Some(w) = fired.windows(2).find(|w| w[0] >= w[1]) {
            panic!("seed {seed}: {:?} fired before {:?}", w[0], w[1]);
        }
        let mut ids: Vec<u64> = fired.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..due.len() as u64).collect::<Vec<_>>(), "seed {seed}: not every event fired once");
        events += fired.len();
        shared_instants += fired.windows(2).filter(|w| w[0].0 == w[1].0).count();
    }
    assert!(events > 20_000, "{events} events in 200 schedules");
    assert!(shared_instants > 2_000, "ties must be exercised: {shared_instants}");
}
