//! A frame's declared element count is the sender's claim, not a fact: a
//! few bytes announcing 2²⁴ elements must fail to decode without the
//! decoder first reserving room for them (ROADMAP: "malformed or hostile
//! frames can't panic or balloon a server"). Nor may a frame's depth be
//! the sender's choice: a few kilobytes of nested headers must not recurse
//! the decoder off its thread's stack.
//!
//! The counting allocator below counts every thread. Beside the two
//! allocation tests run only each other and the nesting test, which holds
//! about 10 KB at once: the allocation tests' decodes peak near 32 KiB, so
//! their 64 KiB bound still has room for the others.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mwr_core::{DeltaRecords, DeltaSnapshot, Msg, OpHandle, OpId, ValueRecord};
use mwr_types::codec::{DecodeError, Wire, MAX_COLLECTION_LEN};
use mwr_types::{ClientId, ConfigEpoch, RegisterId, Tag, TaggedValue, Value, WriterId};

/// Bytes currently allocated, and the most that ever were.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: defers every allocation to `System`; the counters are only
// bookkeeping. (`realloc` keeps its default: `alloc`, copy, `dealloc`.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What a hostile frame may cost before it is refused.
const BOUND: usize = 64 * 1024;

/// Runs `decode` and returns its result with the most memory it held at
/// once beyond what was live when it began.
fn peak_of<T>(decode: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = decode();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(before))
}

/// `frame` with its last eight bytes — the element count of the collection
/// the message ends in — replaced by `declared`.
fn declaring(frame: &[u8], declared: u64) -> Vec<u8> {
    let mut frame = frame.to_vec();
    let at = frame.len() - 8;
    frame[at..].copy_from_slice(&declared.to_be_bytes());
    frame
}

#[test]
fn a_declared_length_reserves_no_more_than_the_frame_can_hold() {
    let handle = OpHandle { op: OpId { client: ClientId::reader(1), seq: 3 }, phase: 1 };
    let initial = TaggedValue::initial();
    // Both messages end in an empty collection: the generic `Vec<T>` codec
    // and the hand-rolled run-length arm.
    let runs = Msg::ReadFastRuns { handle, acked: 0, floor: initial, new_values: vec![] };
    let entries = DeltaRecords::new();
    let delta = DeltaSnapshot { from: 0, version: 0, latest: initial, pruned: initial, entries };
    let runs_ack = Msg::ReadFastRunsAck { handle, delta };

    // The smallest such frame: a count and five bytes of nothing (13 bytes).
    let mut bare = MAX_COLLECTION_LEN.to_be_bytes().to_vec();
    bare.extend_from_slice(&[0; 5]);
    let (result, peak) = peak_of(|| Vec::<ValueRecord>::decode(&mut &bare[..]));
    assert!(matches!(result, Err(DecodeError::UnexpectedEof { .. })), "{result:?}");
    assert!(peak < BOUND, "Vec<ValueRecord> of 13 bytes held {peak} bytes");

    // A large one: the same count and a megabyte that is no element. What
    // is reserved must not scale with the frame either (at the in-memory
    // size of a `ValueRecord`, a byte of frame would buy dozens).
    let mut junk = MAX_COLLECTION_LEN.to_be_bytes().to_vec();
    junk.resize(1 << 20, 0xff);
    let (result, peak) = peak_of(|| Vec::<ValueRecord>::decode(&mut &junk[..]));
    assert!(result.is_err(), "{result:?}");
    assert!(peak < BOUND, "Vec<ValueRecord> of 1 MiB of junk held {peak} bytes");

    for msg in [runs, runs_ack] {
        let honest = msg.to_bytes();
        assert_eq!(Msg::decode(&mut &honest[..]).as_ref(), Ok(&msg));

        let hostile = declaring(&honest, MAX_COLLECTION_LEN);
        let (result, peak) = peak_of(|| Msg::decode(&mut &hostile[..]));
        assert!(matches!(result, Err(DecodeError::UnexpectedEof { .. })), "{result:?}");
        assert!(peak < BOUND, "{msg:?} declaring 2^24 elements held {peak} bytes");

        let mut padded = hostile.clone();
        padded.resize(1 << 20, 0xff);
        let (result, peak) = peak_of(|| Msg::decode(&mut &padded[..]));
        assert!(result.is_err(), "{result:?}");
        assert!(peak < BOUND, "{msg:?} with 1 MiB of junk held {peak} bytes");

        // One past the cap is refused by name, as before.
        let over = declaring(&honest, MAX_COLLECTION_LEN + 1);
        let (result, peak) = peak_of(|| Msg::decode(&mut &over[..]));
        assert_eq!(result, Err(DecodeError::LengthOverflow { declared: MAX_COLLECTION_LEN + 1 }));
        assert!(peak < BOUND);
    }
}

/// A run list is the one layout where a few bytes may rightly stand for
/// many elements: a run of 2²⁴ clients is nine bytes. So the bound on what
/// a fast-read reply may expand to is the delta's, not each record's: a
/// frame whose records together claim more than [`MAX_COLLECTION_LEN`]
/// clients is refused before the run that crosses the bound is expanded,
/// and nothing is reserved on the strength of a run's length alone.
#[test]
fn a_deltas_runs_together_expand_to_at_most_the_collection_bound() {
    let handle = OpHandle { op: OpId { client: ClientId::reader(1), seq: 3 }, phase: 1 };
    let (v1, v2) = (tv(1), tv(2));
    // Two records of three consecutive clients: one run each, and the
    // frame ends in the second run's length.
    let records = [
        ValueRecord { value: v1, updated: (0..3).map(ClientId::reader).collect() },
        ValueRecord { value: v2, updated: (0..3).map(ClientId::writer).collect() },
    ];
    let delta = DeltaSnapshot {
        from: 0,
        version: 6,
        latest: v2,
        pruned: TaggedValue::initial(),
        entries: records.into_iter().collect(),
    };
    let honest = Msg::ReadFastRunsAck { handle, delta }.to_bytes();
    assert_eq!(Msg::decode(&mut &honest[..]).map(|msg| msg.encoded_len()), Ok(honest.len()));

    // The second run claims all but two clients of the bound: alone within
    // it, together with the first record's three one past it.
    let mut hostile = honest.to_vec();
    let at = hostile.len() - 4;
    hostile[at..].copy_from_slice(&(MAX_COLLECTION_LEN as u32 - 2).to_be_bytes());
    let (result, peak) = peak_of(|| Msg::decode(&mut &hostile[..]));
    let refused = result.err();
    assert_eq!(
        (refused, peak < BOUND),
        (Some(DecodeError::LengthOverflow { declared: MAX_COLLECTION_LEN + 1 }), true),
        "a 2^24-client run after a record of three held {peak} bytes"
    );
}

fn tv(ts: u64) -> TaggedValue {
    TaggedValue::new(Tag::new(ts, WriterId::new(0)), Value::new(ts))
}

/// A frame carries at most two headers (`ForRegister`, `InEpoch`), and a
/// third is refused before its payload is decoded. Decoding recurses once
/// per header, and a stack overflow is no panic that `catch_unwind` could
/// stop: unbounded, 2 000 headers (10 KB) abort the process, and on TCP
/// the decoding thread is the reactor every endpoint of a registry needs.
#[test]
fn a_frame_nests_at_most_two_headers() {
    let handle = OpHandle { op: OpId { client: ClientId::writer(0), seq: 1 }, phase: 1 };
    let keyed = |msg: Msg| Msg::ForRegister { register: RegisterId::new(2), inner: Box::new(msg) };
    let epoched = |msg: Msg| Msg::InEpoch { epoch: ConfigEpoch::new(3), inner: Box::new(msg) };
    let query = Msg::Query { handle };

    // 2 000 epoch headers, decoded on a thread with the reactor's default
    // 2 MiB stack.
    let header = epoched(query.clone()).to_bytes().slice(..5);
    let payload = query.to_bytes();
    let mut deep = Vec::with_capacity(2_000 * header.len() + payload.len());
    for _ in 0..2_000 {
        deep.extend_from_slice(&header);
    }
    deep.extend_from_slice(&payload);
    let result = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || Msg::decode(&mut &deep[..]))
        .expect("spawn a decoder")
        .join()
        .expect("the decoder returns");
    assert!(matches!(result, Err(DecodeError::TooDeep { .. })), "{result:?}");

    // A third header, even a short way down, is refused as such.
    let third = epoched(keyed(epoched(query.clone()))).to_bytes();
    let result = Msg::decode(&mut &third[..]);
    assert!(matches!(result, Err(DecodeError::TooDeep { .. })), "{result:?}");

    // Every nesting a sender may produce: each header alone, both in either
    // order, and each twice.
    for msg in [
        keyed(query.clone()),
        epoched(query.clone()),
        epoched(keyed(query.clone())),
        keyed(epoched(query.clone())),
        keyed(keyed(query.clone())),
        epoched(epoched(query.clone())),
    ] {
        assert_eq!(Msg::decode(&mut &msg.to_bytes()[..]).as_ref(), Ok(&msg));
    }
}
