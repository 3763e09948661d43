//! The process automaton trait and its execution context.

use rand::rngs::SmallRng;

use mwr_types::ProcessId;

use crate::time::SimTime;

/// Identifier of a pending timer, returned by [`Context::set_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// A deterministic process automaton.
///
/// The paper models an implementation as "a collection of automata" whose
/// computation proceeds in steps (§2.1). An automaton reacts to message
/// deliveries, external inputs from the harness (operation invocations), and
/// its own timers. All effects go through the [`Context`]: sending messages,
/// setting timers, and emitting notifications of type `N` to the harness.
///
/// Determinism requirement: automata must not consult wall-clock time or
/// global state; all nondeterminism comes from the seeded simulation.
pub trait Automaton<M, N> {
    /// Called once when the simulation starts, before any event fires.
    fn on_start(&mut self, ctx: &mut Context<'_, M, N>) {
        let _ = ctx;
    }

    /// Called when a message from another process is delivered.
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<'_, M, N>);

    /// Called when the harness injects an external input (e.g. an operation
    /// invocation on a client). Defaults to ignoring the input.
    fn on_external(&mut self, input: M, ctx: &mut Context<'_, M, N>) {
        let _ = (input, ctx);
    }

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, M, N>) {
        let _ = (timer, ctx);
    }
}

/// The three effect buffers of a [`Context`]: sends, timers, notifications.
///
/// The engine owns one set, lends it to the context of each callback and
/// takes it back drained, so that a callback's effects land in capacity an
/// earlier callback already paid for.
pub(crate) type Buffers<M, N> = (Vec<(ProcessId, M)>, Vec<(SimTime, TimerId)>, Vec<N>);

/// The effect interface handed to automaton callbacks.
///
/// Effects are buffered and applied by the engine after the callback
/// returns, so automata never observe partially applied state.
#[derive(Debug)]
pub struct Context<'a, M, N> {
    now: SimTime,
    self_id: ProcessId,
    rng: &'a mut SmallRng,
    next_timer_id: &'a mut u64,
    pub(crate) sends: Vec<(ProcessId, M)>,
    pub(crate) timers: Vec<(SimTime, TimerId)>,
    pub(crate) notes: Vec<N>,
}

impl<'a, M, N> Context<'a, M, N> {
    /// Creates a context detached from any simulation engine, for driving
    /// automata directly in lockstep harnesses (microbenchmarks, CPU
    /// attribution, unit tests of `Automaton` impls). Buffered effects are
    /// read back with [`Context::take_sends`] / [`Context::take_notes`];
    /// timers are buffered but never fire on their own.
    pub fn detached(
        now: SimTime,
        self_id: ProcessId,
        rng: &'a mut SmallRng,
        next_timer_id: &'a mut u64,
    ) -> Self {
        Context::new(now, self_id, rng, next_timer_id)
    }

    /// Drains the messages buffered by [`Context::send`] /
    /// [`Context::broadcast_to_servers`] since the last drain, as
    /// `(destination, message)` pairs. Detached-context harnesses route
    /// these by hand; inside the engine the drain happens automatically.
    pub fn take_sends(&mut self) -> Vec<(ProcessId, M)> {
        std::mem::take(&mut self.sends)
    }

    /// Drains the notifications buffered by [`Context::notify`] since the
    /// last drain.
    pub fn take_notes(&mut self) -> Vec<N> {
        std::mem::take(&mut self.notes)
    }

    pub(crate) fn new(
        now: SimTime,
        self_id: ProcessId,
        rng: &'a mut SmallRng,
        next_timer_id: &'a mut u64,
    ) -> Self {
        Context::with_buffers(now, self_id, rng, next_timer_id, Buffers::default())
    }

    /// A context that buffers into `buffers`, which the caller hands over
    /// empty and gets back from [`Context::into_buffers`].
    pub(crate) fn with_buffers(
        now: SimTime,
        self_id: ProcessId,
        rng: &'a mut SmallRng,
        next_timer_id: &'a mut u64,
        (sends, timers, notes): Buffers<M, N>,
    ) -> Self {
        Context { now, self_id, rng, next_timer_id, sends, timers, notes }
    }

    /// Ends the callback: the buffers, holding every effect not yet taken.
    pub(crate) fn into_buffers(self) -> Buffers<M, N> {
        (self.sends, self.timers, self.notes)
    }

    /// Current virtual time. For metrics only — protocol logic must not
    /// branch on it (processes cannot read the global clock in the model).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The identity of the process running this callback.
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// Sends `msg` to `to`. Delivery is asynchronous; the message is
    /// scheduled once the callback returns, with the link's sampled delay.
    ///
    /// # Panics
    ///
    /// The engine panics when the send violates the configured
    /// [`Topology`](crate::Topology) (e.g. server→server under the paper's
    /// model) — that is a protocol bug, not a runtime condition.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Sends `msg` to every server in `0..count`.
    ///
    /// Round-trips in the paper's algorithm schema (§2.2) always address
    /// *all* servers; this is the idiomatic way to start one.
    pub fn broadcast_to_servers(&mut self, count: usize, msg: M)
    where
        M: Clone,
    {
        for i in 0..count {
            self.send(ProcessId::server(i as u32), msg.clone());
        }
    }

    /// Schedules a timer `delay` from now and returns its identifier.
    pub fn set_timer(&mut self, delay: SimTime) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.timers.push((self.now + delay, id));
        id
    }

    /// Emits a notification to the harness (e.g. "operation completed").
    pub fn notify(&mut self, note: N) {
        self.notes.push(note);
    }

    /// Deterministic RNG shared with the engine; protocols do not use it,
    /// but randomized client drivers may.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn context_buffers_effects() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut next_timer = 0;
        let mut ctx: Context<'_, &'static str, u32> = Context::new(
            SimTime::from_ticks(10),
            ProcessId::reader(0),
            &mut rng,
            &mut next_timer,
        );
        assert_eq!(ctx.now(), SimTime::from_ticks(10));
        assert_eq!(ctx.self_id(), ProcessId::reader(0));

        ctx.send(ProcessId::server(0), "hello");
        ctx.broadcast_to_servers(3, "all");
        let t = ctx.set_timer(SimTime::from_ticks(5));
        ctx.notify(7);

        assert_eq!(ctx.sends.len(), 4);
        assert_eq!(ctx.timers, vec![(SimTime::from_ticks(15), t)]);
        assert_eq!(ctx.notes, vec![7]);
        assert_eq!(next_timer, 1);
    }

    #[test]
    fn timer_ids_are_unique_across_contexts() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut next_timer = 0;
        let t1 = {
            let mut ctx: Context<'_, (), ()> =
                Context::new(SimTime::ZERO, ProcessId::reader(0), &mut rng, &mut next_timer);
            ctx.set_timer(SimTime::ZERO)
        };
        let t2 = {
            let mut ctx: Context<'_, (), ()> =
                Context::new(SimTime::ZERO, ProcessId::reader(0), &mut rng, &mut next_timer);
            ctx.set_timer(SimTime::ZERO)
        };
        assert_ne!(t1, t2);
    }
}
