//! The discrete-event simulation engine.
//!
//! What one event costs outside the automaton it is delivered to is what
//! every simulated suite pays half a million times per run, so the engine
//! keeps three things out of the per-event path:
//!
//! - **The queue is a FIFO per instant.** Pending events sit by value in
//!   one bucket per instant, kept in a map ordered by instant; scheduling
//!   appends to its instant's bucket and firing takes the front of the
//!   earliest. Ties in virtual time therefore fire in scheduling order with
//!   nothing to compare or sift, and the payload is never boxed. A bucket
//!   that empties is kept and handed to the next new instant.
//! - **Dispatch is in place.** The automaton is borrowed where it lives for
//!   the length of its callback. That is sound because a callback cannot
//!   reach the engine: everything it does goes into its [`Context`]'s
//!   buffers, which are applied only after it has returned, and the two
//!   engine fields the context does borrow (the shared RNG and the timer
//!   counter) are disjoint from the automaton table. The buffers are the
//!   engine's own, lent to each context empty and taken back drained, so an
//!   event in steady state allocates nothing here.
//! - **A delay stream exists once its link draws.** A link's stream is a
//!   function of `(seed, from, to)` alone, created on first use, and
//!   [`DelayModel::Constant`](crate::DelayModel::Constant) never draws: a
//!   stream that was never created is indistinguishable from one that was
//!   never sampled, so only a link whose model draws is looked up.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use mwr_types::ProcessId;

use crate::automaton::{Automaton, Buffers, Context};
use crate::delay::DelayModel;
use crate::event::{ControlAction, EventKind, LinkSelector};
use crate::network::{Network, Topology};
use crate::time::SimTime;
use crate::trace::Trace;

/// Statistics accumulated over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Total events processed.
    pub events_processed: u64,
    /// Messages delivered to live automata.
    pub messages_delivered: u64,
    /// Messages parked on held links (may later be released).
    pub messages_parked: u64,
    /// Messages dropped because the recipient had crashed.
    pub messages_dropped_crash: u64,
    /// Timers that fired.
    pub timers_fired: u64,
    /// External inputs delivered.
    pub externals_delivered: u64,
    /// Virtual time of the last processed event.
    pub end_time: SimTime,
}

/// Errors produced by the simulation engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// `run_until_quiescent` processed more events than the configured
    /// limit — almost always a protocol livelock.
    EventLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// An external input was scheduled for a process that was never added.
    UnknownProcess {
        /// The missing process.
        process: ProcessId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EventLimitExceeded { limit } => {
                write!(f, "event limit of {limit} exceeded; protocol livelock?")
            }
            SimError::UnknownProcess { process } => {
                write!(f, "no automaton registered for process {process}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A summary of one processed event, returned by [`Simulation::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteppedEvent {
    /// When the event fired.
    pub at: SimTime,
    /// What happened.
    pub kind: SteppedKind,
}

/// The kind of a stepped event (message payloads are deliberately erased).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteppedKind {
    /// A message was delivered.
    Delivered {
        /// Sender.
        from: ProcessId,
        /// Recipient.
        to: ProcessId,
    },
    /// A message was dropped because the recipient crashed.
    DroppedCrashed {
        /// The crashed recipient.
        to: ProcessId,
    },
    /// An external input was delivered.
    External {
        /// Recipient.
        to: ProcessId,
    },
    /// A timer fired.
    Timer {
        /// The owning process.
        process: ProcessId,
    },
    /// A process crashed.
    Crashed {
        /// The process that crashed.
        process: ProcessId,
    },
    /// A network control action was applied.
    Control,
}

#[derive(Debug)]
struct ParkedMsg<M> {
    from: ProcessId,
    to: ProcessId,
    msg: M,
}

/// The deterministic discrete-event simulator.
///
/// Type parameters: `M` is the protocol message type (shared by all automata
/// in one simulation), `N` is the notification type automata emit to the
/// harness (e.g. operation completions). See the crate-level docs for an
/// end-to-end example.
pub struct Simulation<M, N> {
    now: SimTime,
    /// Pending events: one FIFO bucket per instant, in scheduling order.
    queue: BTreeMap<SimTime, VecDeque<EventKind<M>>>,
    /// Buckets emptied by firing, kept for the next new instant.
    spare: Vec<VecDeque<EventKind<M>>>,
    automata: BTreeMap<ProcessId, Box<dyn Automaton<M, N>>>,
    network: Network,
    parked: Vec<ParkedMsg<M>>,
    seed: u64,
    rng: SmallRng,
    /// One independent delay stream per directed link, created when the
    /// link first draws a delay (a `Constant` link never does).
    ///
    /// Sampling per-link rather than from the shared engine RNG means the
    /// traffic on one link can never perturb the delays drawn on another:
    /// adding or removing messages between a disjoint pair of processes
    /// leaves every other link's delay sequence bit-identical. Paired
    /// experiments (same seed, protocol variants differing only in extra
    /// messages) stay comparable.
    link_rngs: BTreeMap<(ProcessId, ProcessId), SmallRng>,
    next_timer_id: u64,
    /// The effect buffers lent to each callback's [`Context`]; empty
    /// between callbacks.
    buffers: Buffers<M, N>,
    notifications: Vec<(SimTime, N)>,
    trace: Option<Trace>,
    started: bool,
    stats: RunStats,
    event_limit: u64,
}

impl<M: fmt::Debug, N> fmt::Debug for Simulation<M, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending_events", &self.queue.values().map(VecDeque::len).sum::<usize>())
            .field("processes", &self.automata.len())
            .field("parked", &self.parked.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<M: Clone + fmt::Debug, N> Simulation<M, N> {
    /// Creates a simulation with the paper's client↔server-only topology.
    ///
    /// All randomness (delay sampling, automaton RNG use) derives from
    /// `seed`: identical seeds and inputs yield identical runs.
    pub fn new(seed: u64) -> Self {
        Simulation::with_topology(seed, Topology::ClientServerOnly)
    }

    /// Creates a simulation with an explicit topology policy.
    pub fn with_topology(seed: u64, topology: Topology) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: BTreeMap::new(),
            spare: Vec::new(),
            automata: BTreeMap::new(),
            network: Network::new(topology),
            parked: Vec::new(),
            seed,
            rng: SmallRng::seed_from_u64(seed),
            link_rngs: BTreeMap::new(),
            next_timer_id: 0,
            buffers: Buffers::default(),
            notifications: Vec::new(),
            trace: None,
            started: false,
            stats: RunStats::default(),
            event_limit: 10_000_000,
        }
    }

    /// Registers a process automaton.
    ///
    /// # Panics
    ///
    /// Panics if a process with the same id was already added.
    pub fn add_process(&mut self, id: ProcessId, automaton: impl Automaton<M, N> + 'static) -> &mut Self {
        let prev = self.automata.insert(id, Box::new(automaton));
        assert!(prev.is_none(), "duplicate process {id}");
        self
    }

    /// Immutable access to the network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the network (delay models, holds, crashes).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Caps the number of events a single `run_until_quiescent` may process.
    pub fn set_event_limit(&mut self, limit: u64) -> &mut Self {
        self.event_limit = limit;
        self
    }

    /// Starts recording every delivery into a [`Trace`].
    pub fn enable_trace(&mut self) -> &mut Self {
        if self.trace.is_none() {
            self.trace = Some(Trace::new());
        }
        self
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Schedules an external input for delivery to `to` at time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcess`] if no automaton is registered
    /// for `to`.
    pub fn schedule_external(&mut self, at: SimTime, to: ProcessId, msg: M) -> Result<(), SimError> {
        if !self.automata.contains_key(&to) {
            return Err(SimError::UnknownProcess { process: to });
        }
        self.push_event(at, EventKind::External { to, msg });
        Ok(())
    }

    /// Schedules a crash of `process` at time `at`.
    pub fn schedule_crash(&mut self, at: SimTime, process: ProcessId) {
        self.push_event(at, EventKind::Crash { process });
    }

    /// Schedules a hold on the selected links at time `at`.
    pub fn schedule_hold(&mut self, at: SimTime, selector: LinkSelector) {
        self.push_event(at, EventKind::Control(ControlAction::Hold(selector)));
    }

    /// Schedules a release of the selected links at time `at`.
    pub fn schedule_release(&mut self, at: SimTime, selector: LinkSelector) {
        self.push_event(at, EventKind::Control(ControlAction::Release(selector)));
    }

    /// Schedules holds on both directed links between `a` and `b` — the
    /// proofs' "skip server" gesture.
    pub fn schedule_hold_between(&mut self, at: SimTime, a: ProcessId, b: ProcessId) {
        self.schedule_hold(at, LinkSelector::directed(a, b));
        self.schedule_hold(at, LinkSelector::directed(b, a));
    }

    /// Schedules releases on both directed links between `a` and `b`.
    pub fn schedule_release_between(&mut self, at: SimTime, a: ProcessId, b: ProcessId) {
        self.schedule_release(at, LinkSelector::directed(a, b));
        self.schedule_release(at, LinkSelector::directed(b, a));
    }

    /// Immediately releases the selected links and re-injects any parked
    /// messages that are no longer held.
    pub fn release_now(&mut self, selector: LinkSelector) {
        self.network.release(selector);
        self.reinject_parked();
    }

    /// Notifications emitted so far, drained. Each carries the virtual time
    /// at which it was emitted.
    pub fn drain_notifications(&mut self) -> Vec<(SimTime, N)> {
        std::mem::take(&mut self.notifications)
    }

    /// Number of undelivered (parked) messages currently held by the
    /// network — the proofs' "skipped" messages.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Runs until no events remain (parked messages do not count).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the configured event
    /// limit is hit, which indicates a livelock.
    pub fn run_until_quiescent(&mut self) -> Result<RunStats, SimError> {
        let mut processed: u64 = 0;
        while self.step().is_some() {
            processed += 1;
            if processed > self.event_limit {
                return Err(SimError::EventLimitExceeded { limit: self.event_limit });
            }
        }
        Ok(self.stats)
    }

    /// Runs all events scheduled at or before `deadline`, then advances the
    /// clock to `deadline`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the configured event
    /// limit is hit.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<RunStats, SimError> {
        self.ensure_started();
        let mut processed: u64 = 0;
        while let Some((&at, _)) = self.queue.first_key_value() {
            if at > deadline {
                break;
            }
            self.step();
            processed += 1;
            if processed > self.event_limit {
                return Err(SimError::EventLimitExceeded { limit: self.event_limit });
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        Ok(self.stats)
    }

    /// Processes the next event, if any. Calls `on_start` hooks on first
    /// use. Returns a payload-erased summary of what happened.
    pub fn step(&mut self) -> Option<SteppedEvent> {
        self.ensure_started();
        let mut bucket = self.queue.first_entry()?;
        let at = *bucket.key();
        let event = bucket.get_mut().pop_front().expect("an empty bucket is never left queued");
        if bucket.get().is_empty() {
            self.spare.push(bucket.remove());
        }
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.stats.events_processed += 1;
        self.stats.end_time = self.now;
        let kind = match event {
            EventKind::Deliver { from, to, msg } => {
                if self.network.is_crashed(to) {
                    self.stats.messages_dropped_crash += 1;
                    SteppedKind::DroppedCrashed { to }
                } else {
                    if let Some(trace) = &mut self.trace {
                        trace.record(self.now, from, to, format!("{msg:?}"));
                    }
                    self.dispatch(to, |a, ctx| a.on_message(from, msg, ctx));
                    self.stats.messages_delivered += 1;
                    SteppedKind::Delivered { from, to }
                }
            }
            EventKind::External { to, msg } => {
                if self.network.is_crashed(to) {
                    self.stats.messages_dropped_crash += 1;
                    SteppedKind::DroppedCrashed { to }
                } else {
                    self.dispatch(to, |a, ctx| a.on_external(msg, ctx));
                    self.stats.externals_delivered += 1;
                    SteppedKind::External { to }
                }
            }
            EventKind::Timer { process, timer } => {
                if self.network.is_crashed(process) {
                    SteppedKind::DroppedCrashed { to: process }
                } else {
                    self.dispatch(process, |a, ctx| a.on_timer(timer, ctx));
                    self.stats.timers_fired += 1;
                    SteppedKind::Timer { process }
                }
            }
            EventKind::Crash { process } => {
                self.network.crash(process);
                SteppedKind::Crashed { process }
            }
            EventKind::Control(action) => {
                match action {
                    ControlAction::Hold(sel) => self.network.hold(sel),
                    ControlAction::Release(sel) => {
                        self.network.release(sel);
                        self.reinject_parked();
                    }
                }
                SteppedKind::Control
            }
        };
        Some(SteppedEvent { at: self.now, kind })
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let ids: Vec<ProcessId> = self.automata.keys().copied().collect();
        for id in ids {
            self.dispatch(id, |a, ctx| a.on_start(ctx));
        }
    }

    /// Runs `f` on the automaton for `to`, borrowed in place, with a context
    /// over the engine's effect buffers, then applies the buffered effects.
    ///
    /// # Panics
    ///
    /// Panics if no automaton exists for `to` (a scheduling bug — externals
    /// are validated at schedule time) or if a send violates the topology.
    fn dispatch<F>(&mut self, to: ProcessId, f: F)
    where
        F: FnOnce(&mut dyn Automaton<M, N>, &mut Context<'_, M, N>),
    {
        let automaton = self
            .automata
            .get_mut(&to)
            .unwrap_or_else(|| panic!("no automaton for process {to}"));
        let mut ctx = Context::with_buffers(
            self.now,
            to,
            &mut self.rng,
            &mut self.next_timer_id,
            std::mem::take(&mut self.buffers),
        );
        f(automaton.as_mut(), &mut ctx);
        let (mut sends, mut timers, mut notes) = ctx.into_buffers();
        for (dest, msg) in sends.drain(..) {
            self.route(to, dest, msg);
        }
        for (fire_at, timer) in timers.drain(..) {
            self.push_event(fire_at, EventKind::Timer { process: to, timer });
        }
        self.notifications.extend(notes.drain(..).map(|note| (self.now, note)));
        self.buffers = (sends, timers, notes);
    }

    fn route(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        assert!(
            self.network.topology().allows(from, to),
            "topology violation: {from} → {to} is not a legal channel under {:?}",
            self.network.topology()
        );
        if self.network.is_held(from, to) {
            self.parked.push(ParkedMsg { from, to, msg });
            self.stats.messages_parked += 1;
        } else {
            let delay = self.link_delay(from, to);
            self.push_event(self.now + delay, EventKind::Deliver { from, to, msg });
        }
    }

    /// The delay of the next message on `from → to`. Only a model that
    /// draws touches the link's stream.
    fn link_delay(&mut self, from: ProcessId, to: ProcessId) -> SimTime {
        match self.network.delay_for(from, to) {
            DelayModel::Constant(delay) => delay,
            model => model.sample(self.link_rng(from, to)),
        }
    }

    /// The delay stream of the directed link `from → to`, derived from the
    /// run seed and the link identity alone (see the field docs on
    /// `link_rngs` for why delays are not drawn from the shared RNG).
    fn link_rng(&mut self, from: ProcessId, to: ProcessId) -> &mut SmallRng {
        let seed = self.seed;
        self.link_rngs.entry((from, to)).or_insert_with(|| {
            let mut h = seed ^ 0x6c77_6c69_6e6b_7321; // "lwlink s!" domain tag
            for word in [process_key(from), process_key(to)] {
                h ^= word;
                h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23);
            }
            SmallRng::seed_from_u64(h)
        })
    }

    fn reinject_parked(&mut self) {
        let mut still_parked = Vec::new();
        let parked = std::mem::take(&mut self.parked);
        for p in parked {
            if self.network.is_held(p.from, p.to) {
                still_parked.push(p);
            } else {
                let delay = self.link_delay(p.from, p.to);
                self.push_event(
                    self.now + delay,
                    EventKind::Deliver { from: p.from, to: p.to, msg: p.msg },
                );
            }
        }
        self.parked = still_parked;
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind<M>) {
        let spare = &mut self.spare;
        self.queue.entry(at.max(self.now)).or_insert_with(|| spare.pop().unwrap_or_default()).push_back(kind);
    }
}


/// A stable 64-bit key for a process identity, used to derive per-link
/// delay streams.
fn process_key(p: ProcessId) -> u64 {
    match p {
        ProcessId::Server(s) => u64::from(s.index()),
        ProcessId::Client(c) => match c {
            mwr_types::ClientId::Reader(r) => (1 << 32) | u64::from(r.index()),
            mwr_types::ClientId::Writer(w) => (2 << 32) | u64::from(w.index()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::TimerId;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    /// Echo server: replies Pong(n) to Ping(n).
    struct Echo;

    impl Automaton<Msg, (ProcessId, u32)> for Echo {
        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg, (ProcessId, u32)>) {
            if let Msg::Ping(n) = msg {
                ctx.send(from, Msg::Pong(n));
            }
        }
    }

    /// Client that pings all servers on external input and notifies on pong.
    struct Pinger {
        servers: usize,
    }

    impl Automaton<Msg, (ProcessId, u32)> for Pinger {
        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg, (ProcessId, u32)>) {
            if let Msg::Pong(n) = msg {
                ctx.notify((from, n));
            }
        }

        fn on_external(&mut self, input: Msg, ctx: &mut Context<'_, Msg, (ProcessId, u32)>) {
            if let Msg::Ping(n) = input {
                ctx.broadcast_to_servers(self.servers, Msg::Ping(n));
            }
        }
    }

    fn setup(servers: usize, seed: u64) -> Simulation<Msg, (ProcessId, u32)> {
        let mut sim = Simulation::new(seed);
        sim.add_process(ProcessId::reader(0), Pinger { servers });
        for i in 0..servers {
            sim.add_process(ProcessId::server(i as u32), Echo);
        }
        sim
    }

    #[test]
    fn round_trip_reaches_all_servers() {
        let mut sim = setup(3, 1);
        sim.schedule_external(SimTime::ZERO, ProcessId::reader(0), Msg::Ping(7)).unwrap();
        let stats = sim.run_until_quiescent().unwrap();
        let notes = sim.drain_notifications();
        assert_eq!(notes.len(), 3);
        assert!(notes.iter().all(|(_, (_, n))| *n == 7));
        assert_eq!(stats.messages_delivered, 6); // 3 pings + 3 pongs
        assert_eq!(stats.externals_delivered, 1);
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        let run = |seed| {
            let mut sim = setup(5, seed);
            sim.network_mut().set_default_delay(DelayModel::Uniform {
                lo: SimTime::from_ticks(1),
                hi: SimTime::from_ticks(100),
            });
            sim.schedule_external(SimTime::ZERO, ProcessId::reader(0), Msg::Ping(1)).unwrap();
            sim.run_until_quiescent().unwrap();
            sim.drain_notifications()
                .into_iter()
                .map(|(t, (s, _))| (t, s))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should reorder replies");
    }

    #[test]
    fn held_links_park_messages_and_release_reinjects() {
        let mut sim = setup(2, 3);
        let r = ProcessId::reader(0);
        let s0 = ProcessId::server(0);
        sim.network_mut().hold_between(r, s0);
        sim.schedule_external(SimTime::ZERO, r, Msg::Ping(9)).unwrap();
        sim.run_until_quiescent().unwrap();
        // Only server 1 replied; the s0 ping is parked.
        assert_eq!(sim.drain_notifications().len(), 1);
        assert_eq!(sim.parked_count(), 1);

        sim.release_now(LinkSelector::directed(r, s0));
        sim.release_now(LinkSelector::directed(s0, r));
        sim.run_until_quiescent().unwrap();
        let notes = sim.drain_notifications();
        assert_eq!(notes.len(), 1, "released ping should complete the round-trip");
        assert_eq!(sim.parked_count(), 0);
    }

    #[test]
    fn crashed_server_never_replies() {
        let mut sim = setup(3, 5);
        sim.schedule_crash(SimTime::ZERO, ProcessId::server(2));
        sim.schedule_external(SimTime::from_ticks(1), ProcessId::reader(0), Msg::Ping(4)).unwrap();
        let stats = sim.run_until_quiescent().unwrap();
        assert_eq!(sim.drain_notifications().len(), 2);
        assert_eq!(stats.messages_dropped_crash, 1);
    }

    #[test]
    fn scheduled_hold_and_release_follow_virtual_time() {
        let mut sim = setup(1, 8);
        let r = ProcessId::reader(0);
        let s = ProcessId::server(0);
        sim.network_mut().set_default_delay(DelayModel::Constant(SimTime::from_ticks(1)));
        sim.schedule_hold_between(SimTime::ZERO, r, s);
        sim.schedule_external(SimTime::from_ticks(1), r, Msg::Ping(1)).unwrap();
        sim.schedule_release_between(SimTime::from_ticks(100), r, s);
        sim.run_until_quiescent().unwrap();
        let notes = sim.drain_notifications();
        assert_eq!(notes.len(), 1);
        assert!(notes[0].0 > SimTime::from_ticks(100), "pong must arrive after release");
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = setup(1, 2);
        sim.network_mut().set_default_delay(DelayModel::Constant(SimTime::from_ticks(10)));
        sim.schedule_external(SimTime::ZERO, ProcessId::reader(0), Msg::Ping(1)).unwrap();
        sim.run_until(SimTime::from_ticks(5)).unwrap();
        assert_eq!(sim.now(), SimTime::from_ticks(5));
        assert!(sim.drain_notifications().is_empty(), "pong needs 20 ticks");
        sim.run_until(SimTime::from_ticks(50)).unwrap();
        assert_eq!(sim.drain_notifications().len(), 1);
        assert_eq!(sim.now(), SimTime::from_ticks(50));
    }

    #[test]
    fn external_to_unknown_process_is_an_error() {
        let mut sim = setup(1, 0);
        let err = sim
            .schedule_external(SimTime::ZERO, ProcessId::writer(9), Msg::Ping(0))
            .unwrap_err();
        assert_eq!(err, SimError::UnknownProcess { process: ProcessId::writer(9) });
    }

    #[test]
    fn event_limit_catches_livelock() {
        /// Two processes bouncing a message forever.
        struct Bouncer;
        impl Automaton<Msg, ()> for Bouncer {
            fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg, ()>) {
                ctx.send(from, msg);
            }
            fn on_external(&mut self, _input: Msg, ctx: &mut Context<'_, Msg, ()>) {
                ctx.send(ProcessId::server(0), Msg::Ping(0));
            }
        }
        let mut sim: Simulation<Msg, ()> = Simulation::new(0);
        sim.add_process(ProcessId::reader(0), Bouncer);
        sim.add_process(ProcessId::server(0), Bouncer);
        sim.set_event_limit(1000);
        sim.schedule_external(SimTime::ZERO, ProcessId::reader(0), Msg::Ping(0)).unwrap();
        assert_eq!(
            sim.run_until_quiescent(),
            Err(SimError::EventLimitExceeded { limit: 1000 })
        );
    }

    #[test]
    #[should_panic(expected = "topology violation")]
    fn server_to_server_send_panics() {
        /// A buggy server that forwards to another server.
        struct Gossip;
        impl Automaton<Msg, (ProcessId, u32)> for Gossip {
            fn on_message(
                &mut self,
                _from: ProcessId,
                msg: Msg,
                ctx: &mut Context<'_, Msg, (ProcessId, u32)>,
            ) {
                ctx.send(ProcessId::server(1), msg);
            }
        }
        let mut sim: Simulation<Msg, (ProcessId, u32)> = Simulation::new(0);
        sim.add_process(ProcessId::reader(0), Pinger { servers: 1 });
        sim.add_process(ProcessId::server(0), Gossip);
        sim.add_process(ProcessId::server(1), Echo);
        sim.schedule_external(SimTime::ZERO, ProcessId::reader(0), Msg::Ping(0)).unwrap();
        let _ = sim.run_until_quiescent();
    }

    #[test]
    #[should_panic(expected = "duplicate process")]
    fn duplicate_process_panics() {
        let mut sim: Simulation<Msg, (ProcessId, u32)> = Simulation::new(0);
        sim.add_process(ProcessId::server(0), Echo);
        sim.add_process(ProcessId::server(0), Echo);
    }

    #[test]
    fn trace_records_deliveries() {
        let mut sim = setup(2, 11);
        sim.enable_trace();
        sim.schedule_external(SimTime::ZERO, ProcessId::reader(0), Msg::Ping(3)).unwrap();
        sim.run_until_quiescent().unwrap();
        let trace = sim.trace().unwrap();
        assert_eq!(trace.len(), 4); // 2 pings + 2 pongs
        assert!(trace.entries().iter().any(|e| e.summary.contains("Ping")));
        assert!(trace.entries().iter().any(|e| e.summary.contains("Pong")));
    }

    #[test]
    fn events_of_one_tick_fire_in_scheduling_order_whatever_their_kind() {
        #[derive(Debug, PartialEq)]
        enum Seen {
            External(u32),
            Timer(TimerId),
        }
        /// Sets a timer five ticks out on start and on `Ping(0)`; reports
        /// every other external and every timer.
        struct Recorder;
        impl Automaton<Msg, Seen> for Recorder {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg, Seen>) {
                ctx.set_timer(SimTime::from_ticks(5));
            }
            fn on_message(&mut self, _: ProcessId, _: Msg, _: &mut Context<'_, Msg, Seen>) {}
            fn on_external(&mut self, input: Msg, ctx: &mut Context<'_, Msg, Seen>) {
                match input {
                    Msg::Ping(0) => {
                        ctx.set_timer(SimTime::from_ticks(5));
                    }
                    Msg::Ping(n) | Msg::Pong(n) => ctx.notify(Seen::External(n)),
                }
            }
            fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, Msg, Seen>) {
                ctx.notify(Seen::Timer(timer));
            }
        }
        let r = ProcessId::reader(0);
        let five = SimTime::from_ticks(5);
        let mut sim: Simulation<Msg, Seen> = Simulation::new(0);
        sim.add_process(r, Recorder);
        // Scheduling order for tick 5: external 1, the start timer, the
        // timer set at tick 0, external 2 — kinds interleaved on purpose.
        sim.schedule_external(SimTime::ZERO, r, Msg::Ping(0)).unwrap();
        sim.schedule_external(five, r, Msg::Ping(1)).unwrap();
        assert_eq!(sim.step().map(|e| e.at), Some(SimTime::ZERO));
        sim.schedule_external(five, r, Msg::Ping(2)).unwrap();
        sim.run_until_quiescent().unwrap();
        assert_eq!(
            sim.drain_notifications(),
            vec![
                (five, Seen::External(1)),
                (five, Seen::Timer(TimerId(0))),
                (five, Seen::Timer(TimerId(1))),
                (five, Seen::External(2)),
            ]
        );
    }

    #[test]
    fn every_payload_is_given_back_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        #[derive(Debug, Default)]
        struct Census {
            made: AtomicUsize,
            dropped: AtomicUsize,
        }
        /// A message that counts its constructions (clones included) and
        /// its drops.
        #[derive(Debug)]
        struct Counted(Arc<Census>);
        impl Counted {
            fn new(census: &Arc<Census>) -> Self {
                census.made.fetch_add(1, Ordering::Relaxed);
                Counted(Arc::clone(census))
            }
        }
        impl Clone for Counted {
            fn clone(&self) -> Self {
                Counted::new(&self.0)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        /// Sends every message it is handed back to where it came from; an
        /// external goes to all four servers.
        struct Reflector;
        impl Automaton<Counted, ()> for Reflector {
            fn on_message(&mut self, from: ProcessId, msg: Counted, ctx: &mut Context<'_, Counted, ()>) {
                if ctx.self_id().is_server() {
                    ctx.send(from, msg);
                }
            }
            fn on_external(&mut self, input: Counted, ctx: &mut Context<'_, Counted, ()>) {
                ctx.broadcast_to_servers(4, input);
            }
        }

        let census = Arc::new(Census::default());
        let r = ProcessId::reader(0);
        let mut sim: Simulation<Counted, ()> = Simulation::new(9);
        sim.add_process(r, Reflector);
        for i in 0..4 {
            sim.add_process(ProcessId::server(i), Reflector);
        }
        // s0 answers; s1 has crashed by the time its copy arrives; the copy
        // for s2 is parked and later released; the one for s3 stays parked.
        sim.schedule_crash(SimTime::ZERO, ProcessId::server(1));
        sim.network_mut().hold(LinkSelector::directed(r, ProcessId::server(2)));
        sim.network_mut().hold(LinkSelector::directed(r, ProcessId::server(3)));
        sim.enable_trace();
        sim.schedule_external(SimTime::from_ticks(1), r, Counted::new(&census)).unwrap();
        sim.schedule_release(SimTime::from_ticks(50), LinkSelector::directed(r, ProcessId::server(2)));
        let stats = sim.run_until_quiescent().unwrap();
        assert_eq!(stats.messages_dropped_crash, 1);
        assert_eq!(stats.messages_parked, 2);
        assert_eq!(stats.messages_delivered, 4, "s0 and s2 each heard and were heard");
        assert_eq!(sim.parked_count(), 1);
        // One more external that never fires: its payload is still queued
        // when the simulation goes.
        sim.schedule_external(SimTime::FAR_FUTURE, r, Counted::new(&census)).unwrap();
        drop(sim);
        let made = census.made.load(Ordering::Relaxed);
        assert_eq!(made, 2 + 4, "two externals and one clone per server");
        assert_eq!(census.dropped.load(Ordering::Relaxed), made);
    }

    #[test]
    fn a_link_switched_to_uniform_mid_run_draws_its_streams_first_value() {
        let r = ProcessId::reader(0);
        let s = ProcessId::server(0);
        let jitter = DelayModel::Uniform { lo: SimTime::from_ticks(1), hi: SimTime::from_ticks(1_000) };
        // Ticks from the external that caused it to the arrival of each
        // ping on r → s.
        let flight_times = |first: DelayModel| {
            let mut sim = setup(1, 77);
            sim.enable_trace();
            sim.network_mut().set_link_delay(r, s, first);
            sim.schedule_external(SimTime::ZERO, r, Msg::Ping(1)).unwrap();
            sim.run_until(SimTime::from_ticks(5_000)).unwrap();
            sim.network_mut().set_link_delay(r, s, jitter);
            sim.schedule_external(SimTime::from_ticks(5_000), r, Msg::Ping(2)).unwrap();
            sim.run_until_quiescent().unwrap();
            let arrivals: Vec<u64> =
                sim.trace().unwrap().entries().iter().filter(|e| e.to == s).map(|e| e.at.ticks()).collect();
            (arrivals[0], arrivals[1] - 5_000)
        };
        let (constant, first_draw_after_switch) = flight_times(DelayModel::Constant(SimTime::from_ticks(3)));
        let (first_draw, second_draw) = flight_times(jitter);
        assert_eq!(constant, 3);
        // The constant message consumed nothing: the stream starts at the
        // switch, exactly as if the link had drawn from the beginning.
        assert_eq!(first_draw_after_switch, first_draw);
        assert_ne!(first_draw, second_draw, "a stream, not a constant (seed 77)");
    }

    #[test]
    fn effect_buffers_are_empty_when_a_callback_starts() {
        /// Asserts its context is clean, then leaves all three buffers
        /// non-empty behind it, in every callback.
        struct Tidy {
            callbacks: u32,
        }
        impl Tidy {
            fn enter(&mut self, peer: ProcessId, ctx: &mut Context<'_, Msg, (ProcessId, u32)>) {
                assert!(ctx.sends.is_empty(), "sends of an earlier callback leaked");
                assert!(ctx.timers.is_empty(), "timers of an earlier callback leaked");
                assert!(ctx.notes.is_empty(), "notes of an earlier callback leaked");
                self.callbacks += 1;
                if self.callbacks <= 40 {
                    ctx.send(peer, Msg::Ping(self.callbacks));
                    ctx.set_timer(SimTime::from_ticks(3));
                    ctx.notify((peer, self.callbacks));
                }
            }
        }
        type Ctx<'a> = Context<'a, Msg, (ProcessId, u32)>;
        impl Automaton<Msg, (ProcessId, u32)> for Tidy {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.enter(ProcessId::server(0), ctx);
            }
            fn on_message(&mut self, from: ProcessId, _: Msg, ctx: &mut Ctx<'_>) {
                self.enter(from, ctx);
            }
            fn on_external(&mut self, _: Msg, ctx: &mut Ctx<'_>) {
                self.enter(ProcessId::server(0), ctx);
            }
            fn on_timer(&mut self, _: TimerId, ctx: &mut Ctx<'_>) {
                self.enter(ProcessId::server(0), ctx);
            }
        }
        let mut sim: Simulation<Msg, (ProcessId, u32)> = Simulation::new(4);
        sim.add_process(ProcessId::reader(0), Tidy { callbacks: 0 });
        sim.add_process(ProcessId::server(0), Echo);
        sim.schedule_external(SimTime::from_ticks(2), ProcessId::reader(0), Msg::Ping(0)).unwrap();
        let stats = sim.run_until_quiescent().unwrap();
        assert_eq!((stats.timers_fired, stats.messages_delivered), (40, 80));
        assert_eq!(sim.drain_notifications().len(), 40);
        // Lent, drained and taken back: empty, and the capacity is kept.
        let (sends, timers, notes) = &sim.buffers;
        assert!(sends.is_empty() && timers.is_empty() && notes.is_empty());
        assert!(sends.capacity() > 0 && timers.capacity() > 0 && notes.capacity() > 0);
    }
}
