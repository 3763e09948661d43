//! What one live operation allocates in memory, counted by the allocator
//! itself: a W2R1 write (two rounds) and a fast read (one round) on a warm
//! in-memory cluster of five servers, the shape of the `mem-narrow`
//! workload.
//!
//! In memory a server answers on its sender's thread, so the figure covers
//! the whole round trip: the client's frames, the transport's hop, each
//! server's handler and the replies' way back. A change to any of them that
//! adds or removes an allocation per round shows here as a different count.
//!
//! Only the measuring thread counts, and only while it is armed, so tests
//! running beside each other (and the harness's own threads) cannot move
//! one another's figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mwr_core::Protocol;
use mwr_runtime::{InMemoryTransport, RuntimeCluster, TcpRegistry};
use mwr_types::{ClusterConfig, Value};

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
fn a_steady_in_memory_write_and_read_allocate_the_recorded_figures() {
    const WARM: u64 = 200;
    const OPS: u64 = 1_000;
    let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
    let cluster =
        RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
    let mut writer = cluster.writer(0).unwrap();
    let mut reader = cluster.reader(0).unwrap();
    // Warm: every buffer, route cache and server store reaches its steady
    // size, and GC keeps the stores from growing past it.
    for i in 1..=WARM {
        let written = writer.write(Value::new(i)).unwrap();
        assert_eq!(reader.read().unwrap(), written);
    }
    let ((), writes) = counted(|| {
        for i in WARM + 1..=WARM + OPS {
            writer.write(Value::new(i)).unwrap();
        }
    });
    let (last, reads) = counted(|| (0..OPS).map(|_| reader.read().unwrap()).last());
    assert_eq!(last.map(|read| read.value()), Some(Value::new(WARM + OPS)));
    drop((writer, reader));
    cluster.shutdown();
    // Recorded before a round trip's replies skipped the inbox: 7 040 and
    // 16 185, one more per round for the broadcast's batch `Vec`; then
    // 5 040 and 15 185 with the client keeping that buffer across rounds.
    // Five per write were each server's registration list for the new
    // value: registrations now live in the store's entry up to two, so a
    // write allocates nothing but the 40 doublings of the five stores,
    // which grow by the thousand values the reader's floor holds back. The
    // `valQueue` is a sorted `Vec` now, not a tree: 158 fewer reads'
    // allocations, its nodes less the `Vec`'s doublings (15 027).
    //
    // The reads': 1 023 for the first, which catches up on the thousand
    // writes — one list per value in the reader's witness index, the rest
    // buffers growing — and 3 009 for the 999 after it: 12 of buffers
    // growing and 3 each, the record list of the one reply that has
    // records (from the server whose reply the round before did not merge,
    // so it re-sends what that reply carried), the request's
    // unacknowledged-value list to that server, and the selection's degree
    // buffer. Recorded at the parent: 6 024 and 9 003 (9 each), with a
    // record list for every server's reply, empty or not, and a `Vec` per
    // record (5 001 in the first read, 2 in each after): a record carries
    // up to two clients in place now. Then 4 032: one more per read was the
    // selection's degree buffer, allocated afresh by every read. The
    // reader's fast-read state keeps it now, so the 999 reads after the
    // first allocate 2 each (3 032).
    assert_eq!(
        (writes, reads),
        (40, 3_032),
        "allocations per {OPS} writes and per {OPS} reads"
    );
}

/// On TCP a server answers on the reactor, so the client thread's count is
/// the client's alone: the machine's frames, the round trip and the take
/// from the inbox. Writes are counted, not reads: a read's count depends on
/// which four of the five replies complete its round (a straggler is not
/// merged, so the next request to that server re-announces what it missed),
/// and that is the scheduler's choice.
#[test]
fn a_steady_tcp_write_allocates_nothing_on_the_client_thread() {
    const WARM: u64 = 200;
    const OPS: u64 = 1_000;
    let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
    let cluster = RuntimeCluster::start_on(TcpRegistry::new(), config, Protocol::W2R1).unwrap();
    let mut writer = cluster.writer(0).unwrap();
    let mut reader = cluster.reader(0).unwrap();
    for i in 1..=WARM {
        let written = writer.write(Value::new(i)).unwrap();
        assert_eq!(reader.read().unwrap(), written);
    }
    let (last, writes) = counted(|| {
        (WARM + 1..=WARM + OPS)
            .map(|i| writer.write(Value::new(i)).unwrap())
            .last()
    });
    assert_eq!(last, Some(reader.read().unwrap()));
    drop((writer, reader));
    cluster.shutdown();
    // Recorded at the parent: 4 000, two per round — the batch `Vec` the
    // trait's default `round_trip` hands over by value, and the staging
    // `Vec` of `TcpEndpoint::send_batch`. `TcpEndpoint::round_trip` writes
    // from the client's kept buffer and stages nothing.
    assert_eq!(writes, 0, "allocations per {OPS} writes");
}
