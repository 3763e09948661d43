//! A frame's declared element count is the sender's claim, not a fact: a
//! few bytes announcing 2²⁴ elements must fail to decode without the
//! decoder first reserving room for them (ROADMAP: "malformed or hostile
//! frames can't panic or balloon a server").
//!
//! This binary holds exactly one test so that the counting allocator below
//! sees only the decoder's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mwr_core::{DeltaSnapshot, Msg, OpHandle, OpId, ValueRecord};
use mwr_types::codec::{DecodeError, Wire, MAX_COLLECTION_LEN};
use mwr_types::{ClientId, TaggedValue};

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
    let delta =
        DeltaSnapshot { from: 0, version: 0, latest: initial, pruned: initial, entries: vec![] };
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
