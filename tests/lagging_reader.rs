//! A reader that has fallen far behind catches up in one read, and what the
//! catching up allocates.
//!
//! W2R1 at (S, t, R, W) = (5, 1, 1, 1), in memory through the facade — the
//! shape of the `mem-narrow` workload. The reader reads once, so every
//! server counts it in the GC membership and its floor holds pruning back;
//! then the writer writes 1 000 values, and every store keeps all of them.
//! The reader's next read must return the last write, catching up on every
//! value it missed; the read after that reports the new floor, which
//! prunes every store, and must return the same value.
//!
//! In memory a server answers on its sender's thread, so the count covers
//! both sides of both reads: the requests, each server's registrations and
//! delta reply, and the reader's `valQueue` and witness index. A change
//! that adds or removes an allocation per value behind shows here as a
//! difference of thousands.
//!
//! Only the measuring thread counts, and only while it is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mwr::register::{Backend, Deployment, Protocol};
use mwr::types::{ClusterConfig, Value};

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
fn a_reader_a_thousand_writes_behind_catches_up_and_allocates_the_recorded_figure() {
    const BEHIND: u64 = 1_000;
    let register = Deployment::new(ClusterConfig::new(5, 1, 1, 1).unwrap())
        .protocol(Protocol::W2R1)
        .backend(Backend::InMemory)
        .in_memory()
        .unwrap();
    let mut writer = register.writer(0).unwrap();
    let mut reader = register.reader(0).unwrap();
    // One read first: from now on every server has heard from the reader
    // and waits for its floor before it prunes.
    assert!(reader.read().unwrap().tag().is_initial());
    let mut last = None;
    for i in 1..=BEHIND {
        last = Some(writer.write(Value::new(i)).unwrap());
    }
    let (reads, allocations) = counted(|| [reader.read().unwrap(), reader.read().unwrap()]);
    assert_eq!(
        reads.map(Some),
        [last, last],
        "both reads return the last write"
    );
    drop((writer, reader));
    register.shutdown();
    // Recorded at the parent: 6 045, and 6 202 before that. The 157 that
    // went first were the `valQueue`'s tree nodes for the 1 000 values
    // learned (a sorted `Vec` grows by doubling). The 5 007 that went next
    // were the delta replies' per-record `Vec`s: 5 001 in the first read's
    // five replies, 6 in the second's. A record carries up to two clients
    // in place now, and every record here carries one or two. Still paid
    // per value behind: one list per value in the reader's witness index
    // (1 000, each sized once for the register's two clients); the other
    // 36 are the requests' unacknowledged-value lists and each reply's
    // record list (one allocation per reply that has a record), and the
    // growth of the buffers that hold them. Recorded at the parent: 1 038,
    // with a degree buffer allocated afresh by each of the two reads; the
    // reader's fast-read state keeps it from its first read now.
    assert_eq!(allocations, 1_036, "allocations for the two reads");
}
