//! What a wide fast read allocates, counted by the allocator itself.
//!
//! W2R1 at (S, t, R, W) = (11, 1, 8, 8) in the simulator through the facade
//! — the shape of the `sim-wide` workload, on a shorter horizon. Every
//! reader's delta reply carries dozens of registrations over a dozen
//! records, most of them longer than the two clients a record keeps in
//! place, so what a reply, a server's store entry and a reader's witness
//! list allocate per registration shows here as a change in allocations
//! per completed operation. The simulator runs on the calling thread, so
//! the count covers every client, every server and the engine alike.
//!
//! Only the measuring thread counts, and only while it is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mwr::register::{Backend, Deployment, Protocol};
use mwr::sim::SimTime;
use mwr::types::ClusterConfig;
use mwr::workload::WorkloadSpec;

thread_local! {
    /// Whether this thread's requests are counted. `const`-initialised with
    /// no destructor, so reading it never allocates (nor registers
    /// anything) from inside the allocator.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Requests this thread made while armed.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every request for new or larger memory
/// that an armed thread makes.
struct Counting;

impl Counting {
    fn count() {
        if ARMED.with(Cell::get) {
            COUNT.with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returns, so `System`'s guarantees are this allocator's; the
// flag and the counter are `const` thread-locals, and neither touches memory
// the allocator manages.
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

/// Runs `f` armed and returns what it returned with the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNT.with(Cell::get);
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    (result, COUNT.with(Cell::get) - before)
}

#[test]
fn a_wide_closed_loop_allocates_the_recorded_figure_per_operation() {
    let mut sim = Deployment::new(ClusterConfig::new(11, 1, 8, 8).unwrap())
        .protocol(Protocol::W2R1)
        .backend(Backend::Sim { seed: 7 })
        .sim()
        .unwrap();
    let spec = WorkloadSpec {
        duration: SimTime::from_ticks(8_000),
        think_time: SimTime::from_ticks(5),
        seed: 7,
    };
    let (report, allocations) = counted(|| sim.run_closed_loop(spec).unwrap());
    let ops = (report.reads.count() + report.writes.count()) as u64;
    // Recorded at the parent: 1 444 420 allocations over the same 16 255
    // operations, 88.9 per operation. About 60 of them were the per-record
    // client `Vec`s of the delta replies (49 registrations over ≈ 15
    // records, most of them longer than two); a reply keeps every list
    // longer than two in one overflow buffer now, three allocations with
    // the record list and the buffer's box. About 14 were store entries'
    // registration lists growing by doubling once they spilled: one spills
    // once now, into room for the register's 16 clients. About 9 were the
    // reader's witness lists growing the same way, sized once for 16
    // clients now, and one per read the selection's degree buffer, which
    // the reader keeps. What is left per operation is mostly per reply and per value:
    // the eleven replies' record lists and overflow buffers, the requests'
    // unacknowledged-value lists, and one registration list per value on
    // every server and one witness list per value on every reader.
    assert_eq!((ops, allocations), (16_255, 504_002), "operations completed and allocations");
    assert!(allocations <= 32 * ops, "{} allocations per operation", allocations as f64 / ops as f64);
}
