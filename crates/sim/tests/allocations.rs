//! What the engine allocates per event, counted by the allocator itself.
//!
//! In steady state an event allocates nothing: it is queued by value in the
//! bucket of its instant, a bucket emptied by firing is kept for the next
//! new instant, the automaton is borrowed where it lives, and the effect
//! buffers its callback fills are the engine's own, reused from the callback
//! before. A payload boxed per event, a bucket built per instant, a `Vec`
//! built per dispatch, or an automaton boxed again on its way back into the
//! table shows here as a count above zero.
//!
//! Only the measuring thread counts, and only while it is armed: libtest's
//! main thread (and anything else the harness runs) allocates whenever it
//! likes, and a process-wide count once failed inside a loaded
//! `cargo test --workspace` for exactly that reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use mwr_sim::{Automaton, Context, Simulation, SimTime, TimerId};
use mwr_types::ProcessId;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's requests are counted. `const`-initialised with
    /// no destructor, so reading it never allocates (nor registers
    /// anything) from inside the allocator.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting every request for new or larger memory
/// that an armed thread makes.
struct Counting;

impl Counting {
    fn count() {
        if ARMED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returns, so `System`'s guarantees are this allocator's; the
// counter is an atomic and the flag a `const` thread-local, and neither
// touches memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        // SAFETY: `ptr` came from `System` through this allocator with `layout`,
        // and the caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SERVERS: usize = 4;

/// A 120-byte message, the size of `mwr_core::Msg`.
type Wide = [u64; 15];

/// Server: returns every message. Client: answers each reply with a new
/// message to that server and a timer; a timer does nothing when it fires.
/// All nodes count, in one cell, the events their effects schedule.
struct Node {
    scheduled: Rc<Cell<u64>>,
}

impl Automaton<Wide, ()> for Node {
    fn on_message(&mut self, from: ProcessId, msg: Wide, ctx: &mut Context<'_, Wide, ()>) {
        ctx.send(from, msg);
        self.scheduled.set(self.scheduled.get() + 1);
        if ctx.self_id().is_client() {
            ctx.set_timer(SimTime::from_ticks(3));
            self.scheduled.set(self.scheduled.get() + 1);
        }
    }

    fn on_external(&mut self, input: Wide, ctx: &mut Context<'_, Wide, ()>) {
        ctx.broadcast_to_servers(SERVERS, input);
    }

    fn on_timer(&mut self, _: TimerId, _: &mut Context<'_, Wide, ()>) {}
}

#[test]
fn a_steady_state_event_allocates_nothing() {
    let scheduled = Rc::new(Cell::new(0));
    let node = || Node { scheduled: Rc::clone(&scheduled) };
    let mut sim: Simulation<Wide, ()> = Simulation::new(3);
    sim.add_process(ProcessId::reader(0), node());
    for i in 0..SERVERS {
        sim.add_process(ProcessId::server(i as u32), node());
    }
    sim.schedule_external(SimTime::ZERO, ProcessId::reader(0), [7; 15]).unwrap();
    // Past start-up: the queue, its spare buckets and the effect buffers
    // have their capacity.
    for _ in 0..1_000 {
        sim.step().expect("the tokens bounce for ever");
    }

    let (allocated, events, timers) =
        (ALLOCATIONS.load(Ordering::Relaxed), scheduled.get(), sim.stats().timers_fired);
    ARMED.with(|armed| armed.set(true));
    for _ in 0..30_000 {
        sim.step().expect("the tokens bounce for ever");
    }
    ARMED.with(|armed| armed.set(false));
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - allocated;
    let events = scheduled.get() - events;
    let timers = sim.stats().timers_fired - timers;

    assert!(timers > 5_000, "timers must be part of the mix");
    assert!(events >= 30_000, "an event fired is an event that was scheduled");
    assert_eq!(allocated, 0, "allocations over {events} events scheduled");
}
