//! What the fast-read round and a write's store round allocate at the
//! handler level, counted by the allocator itself.
//!
//! Four pins. The reader's side: merging a delta that brings no new value
//! and no new `(value, client)` pair — the steady state of a reader that
//! re-reads a quiet register, GC eviction included — allocates nothing,
//! because the witness index is the reader's only mirror of each server's
//! store and every maintenance step works in place. The server's side: one
//! `ReadFastRuns` handled by `RegisterServer::handle` allocates a fixed
//! number of times for a fixed history (the figure and where it comes from
//! are written at the assertion), so a change to what a fast-read reply
//! registers or carries shows here as a different count. And an `Update`
//! for a `(value, client)` pair the server already holds — a retried or
//! repeated write on a warm, GC-engaged server — allocates nothing: the
//! floor report, the membership check and the registration probe are
//! binary searches over sorted vectors that need no new memory. Nor does
//! an `Update` of a new value on such a server, registered on by its writer
//! and then its reader as on `mem-narrow`: a value's registrations live in
//! its store entry up to two, and the store appends into capacity it holds.
//!
//! Only the measuring thread counts, and only while it is armed, so tests
//! running beside each other (and the harness's own threads) cannot move
//! one another's figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mwr_core::{DeltaSnapshot, FastReadState, Msg, OpHandle, OpId, RegisterServer, ValueRecord};
use mwr_types::{ClientId, ProcessId, ServerId, Tag, TaggedValue, Value, WriterId};

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

fn tv(ts: u64, w: u32) -> TaggedValue {
    TaggedValue::new(Tag::new(ts, WriterId::new(w)), Value::new(ts))
}

fn record(value: TaggedValue, clients: &[ClientId]) -> ValueRecord {
    ValueRecord { value, updated: clients.into() }
}

#[test]
fn merging_a_delta_with_nothing_new_allocates_nothing() {
    // `sim-wide`'s shape: eleven servers, eight writers, eight readers.
    let servers: Vec<ServerId> = (0..11).map(ServerId::new).collect();
    let writers: Vec<ClientId> = (0..8).map(ClientId::writer).collect();
    let readers: Vec<ClientId> = (0..8).map(ClientId::reader).collect();
    let everyone: Vec<ClientId> = readers.iter().chain(&writers).copied().collect();
    let values: Vec<TaggedValue> = (1..=6).map(|ts| tv(ts, ts as u32 % 8)).collect();

    let mut state = FastReadState::new(everyone.len());
    for &s in &servers {
        let entries = values.iter().map(|&v| record(v, &everyone)).collect();
        let delta = DeltaSnapshot {
            from: 0,
            version: 100,
            latest: values[5],
            pruned: TaggedValue::initial(),
            entries,
        };
        state.merge(s, &delta);
    }
    assert_eq!(state.index().len(), 7, "six values and the initial one");

    // Every server re-announces pairs the reader already holds and moves
    // its GC floor to the third value: the initial value and the first two
    // are evicted from every slot (and so from the index), nothing is added.
    let quiet = DeltaSnapshot {
        from: 100,
        version: 140,
        latest: values[5],
        pruned: values[2],
        entries: values[2..].iter().map(|&v| record(v, &readers)).collect(),
    };
    let ((), allocations) = counted(|| {
        for &s in &servers {
            state.merge(s, &quiet);
        }
    });
    assert_eq!(state.index().len(), 4, "the GC floor evicted three values");
    assert_eq!(allocations, 0, "a merge with nothing new allocated");
}

#[test]
fn a_runs_fast_read_allocates_the_recorded_figure() {
    let mut server = RegisterServer::with_gc(4);
    let (w0, w1) = (ProcessId::writer(0), ProcessId::writer(1));
    let (r0, r1) = (ProcessId::reader(0), ProcessId::reader(1));
    let handle = |client: ClientId, seq: u64| OpHandle { op: OpId { client, seq }, phase: 1 };
    let mut send = |from: ProcessId, msg: Msg| server.handle(from, &msg).expect("a reply");
    let update = |w: u32, seq: u64, value: TaggedValue, floor: TaggedValue| Msg::Update {
        handle: handle(ClientId::writer(w), seq),
        value,
        floor,
    };
    let runs = |r: u32, seq: u64, acked: u64, floor: TaggedValue| Msg::ReadFastRuns {
        handle: handle(ClientId::reader(r), seq),
        acked,
        floor,
        new_values: Vec::new(),
    };
    let version = |reply: Msg| match reply {
        Msg::ReadFastRunsAck { delta, .. } => delta.version,
        other => panic!("not a runs ack: {other:?}"),
    };
    let initial = TaggedValue::initial();

    send(w0, update(0, 0, tv(1, 0), initial));
    send(w1, update(1, 0, tv(2, 1), initial));
    let acked_r0 = version(send(r0, runs(0, 0, 0, initial)));
    let acked_r1 = version(send(r1, runs(1, 0, 0, initial)));
    send(w0, update(0, 1, tv(3, 0), tv(1, 0)));
    send(w1, update(1, 1, tv(4, 1), tv(2, 1)));
    send(r1, runs(1, 1, acked_r1, tv(2, 1)));
    send(w0, update(0, 2, tv(5, 0), tv(3, 0)));

    // Reader 0's second read: its floor report lifts the minimum to v2 and
    // prunes, catch-up re-registers it on what it learned from its first
    // read, it is registered on the latest value, and the reply is built.
    let (reply, allocations) = counted(|| send(r0, runs(0, 1, acked_r0, tv(2, 1))));
    let Msg::ReadFastRunsAck { delta, .. } = &reply else { panic!("not a runs ack: {reply:?}") };
    assert_eq!(delta.pruned, tv(2, 1), "the measured read moved the GC floor");
    assert_eq!(delta.entries.len(), 4, "v2 (reader 1), v3, v4, v5");
    // Recorded at 506ac05: 5, the reply's record list and one `Vec` per
    // record (four). A record carries up to two clients in place now, and
    // these carry one or two: what is left is the record list. The floor
    // report, the prune, catch-up and the registration on v5 all land in
    // capacity the server already holds.
    assert_eq!(allocations, 1, "allocations for one ReadFastRuns");
}

#[test]
fn a_repeated_update_on_a_warm_server_allocates_nothing() {
    let mut server = RegisterServer::with_gc(3);
    let handle = OpHandle { op: OpId { client: ClientId::writer(0), seq: 0 }, phase: 2 };
    let update = |value, floor| Msg::Update { handle, value, floor };
    let runs = |floor| Msg::ReadFastRuns { handle, acked: 0, floor, new_values: Vec::new() };
    for ts in 1..=6 {
        server.handle(ProcessId::writer(0), &update(tv(ts, 0), tv(ts - 1, 0)));
        server.handle(ProcessId::writer(1), &update(tv(ts, 1), tv(ts - 1, 1)));
        server.handle(ProcessId::reader(0), &runs(tv(ts - 1, 1)));
    }
    assert!(server.state().pruned_floor() > TaggedValue::initial(), "GC is engaged");

    // Writer 0 repeats its last write (a retried second round): the value
    // is stored, the writer is registered on it, its floor does not move.
    let repeat = update(tv(6, 0), tv(5, 0));
    let (reply, allocations) = counted(|| server.handle(ProcessId::writer(0), &repeat));
    assert!(matches!(reply, Some(Msg::UpdateAck { .. })), "{reply:?}");
    // Recorded at 2db20b3.
    assert_eq!(allocations, 0, "allocations for an Update already registered");
}

#[test]
fn a_write_of_a_new_value_on_a_warm_server_allocates_nothing() {
    let mut server = RegisterServer::with_gc(2);
    let writer = |seq| OpHandle { op: OpId { client: ClientId::writer(0), seq }, phase: 2 };
    let reader = |seq| OpHandle { op: OpId { client: ClientId::reader(0), seq }, phase: 1 };
    let update = |ts: u64| Msg::Update { handle: writer(ts), value: tv(ts, 0), floor: tv(ts - 1, 0) };
    let read = |ts: u64, acked| Msg::ReadFastRuns {
        handle: reader(ts),
        acked,
        floor: tv(ts, 0),
        new_values: Vec::new(),
    };
    // Each write followed by a read, as on `mem-narrow`: the reader's
    // floor follows the writer's, so GC keeps the store at a few values
    // and every one of them is registered on by the writer and the reader.
    let mut acked = 0;
    for ts in 1..=20 {
        server.handle(ProcessId::writer(0), &update(ts));
        match server.handle(ProcessId::reader(0), &read(ts, acked)) {
            Some(Msg::ReadFastRunsAck { delta, .. }) => acked = delta.version,
            other => panic!("not a runs ack: {other:?}"),
        }
    }
    assert!(server.state().stored_values() <= 3, "GC keeps the store small");

    let (reply, allocations) = counted(|| server.handle(ProcessId::writer(0), &update(21)));
    assert!(matches!(reply, Some(Msg::UpdateAck { .. })), "{reply:?}");
    assert_eq!(server.state().latest(), tv(21, 0));
    // Recorded at the parent: 1, the new value's registration list. A
    // value's registrations live in its store entry up to two (its writer
    // and one reader), and the store's capacity is warm.
    assert_eq!(allocations, 0, "allocations for an Update of a new value");
}

#[test]
fn a_runs_fast_read_with_an_empty_delta_allocates_nothing() {
    let mut server = RegisterServer::with_gc(2);
    let writer = OpHandle { op: OpId { client: ClientId::writer(0), seq: 0 }, phase: 2 };
    let reader = |seq| OpHandle { op: OpId { client: ClientId::reader(0), seq }, phase: 1 };
    let read = |seq, acked| Msg::ReadFastRuns {
        handle: reader(seq),
        acked,
        floor: tv(1, 0),
        new_values: Vec::new(),
    };
    let initial = TaggedValue::initial();
    server.handle(ProcessId::writer(0), &Msg::Update { handle: writer, value: tv(1, 0), floor: initial });
    let acked = match server.handle(ProcessId::reader(0), &read(0, 0)) {
        Some(Msg::ReadFastRunsAck { delta, .. }) => delta.version,
        other => panic!("not a runs ack: {other:?}"),
    };

    // The reader reads again with nothing written since: catch-up and the
    // registration on the latest value find it registered already, so the
    // reply has no record.
    let (delta, allocations) = counted(|| server.state().delta_since(acked));
    assert!(delta.entries.is_empty(), "{delta:?}");
    // Recorded at the parent: 1, the record list, reserved for a record
    // per stored value before a record was found. It is allocated at the
    // first record now.
    assert_eq!(allocations, 0, "allocations for an empty delta");
    let (reply, allocations) = counted(|| server.handle(ProcessId::reader(0), &read(1, acked)));
    let Some(Msg::ReadFastRunsAck { delta, .. }) = &reply else { panic!("not a runs ack: {reply:?}") };
    assert!(delta.entries.is_empty(), "{delta:?}");
    // Recorded at the parent: 1, the same record list; the floor report,
    // catch-up and the registration probe need no new memory.
    assert_eq!(allocations, 0, "allocations for a ReadFastRuns with an empty delta");
}
