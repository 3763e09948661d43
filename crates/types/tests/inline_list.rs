//! `InlineList`: where its items live, what filling it allocates, and that
//! it behaves as a `Vec` of the same items whichever form holds them.
//!
//! Only the measuring thread counts, and only while it is armed, so tests
//! running beside each other (and the harness's own threads) cannot move
//! one another's figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mwr_types::codec::Wire;
use mwr_types::{ClientId, InlineList};

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

fn readers(n: u32) -> Vec<ClientId> {
    (0..n).map(ClientId::reader).collect()
}

#[test]
fn the_third_item_spills_and_two_stay_in_place() {
    let (list, allocations) = counted(|| {
        let mut list = InlineList::new();
        list.push(ClientId::writer(0));
        list.insert(0, ClientId::reader(0));
        list
    });
    assert_eq!(allocations, 0, "two items cost no allocation");
    assert!(!list.is_spilled());
    assert_eq!(list.as_slice(), [ClientId::reader(0), ClientId::writer(0)]);

    let (list, allocations) = counted(|| {
        let mut list = list;
        list.insert(1, ClientId::reader(1));
        list
    });
    assert_eq!(allocations, 1, "the third item moves the list to one `Vec`");
    assert!(list.is_spilled());
    assert_eq!(list.as_slice(), [ClientId::reader(0), ClientId::reader(1), ClientId::writer(0)]);
}

#[test]
fn a_spill_from_a_known_count_is_one_allocation() {
    for n in [0, 1, 2, 3, 5, 64] {
        let expect = u64::from(n > 2);
        let ids = readers(n);
        let (list, allocations) = counted(|| {
            let mut list = InlineList::with_capacity(ids.len());
            for &c in &ids {
                list.push(c);
            }
            list
        });
        assert_eq!((list.as_slice(), allocations), (&ids[..], expect), "with_capacity({n})");

        let (list, allocations) = counted(|| ids.iter().copied().collect::<InlineList<_>>());
        assert_eq!((list.as_slice(), allocations), (&ids[..], expect), "collect {n}");

        let (list, allocations) = counted(|| {
            let mut list = InlineList::new();
            list.reserve(ids.len());
            for &c in &ids {
                list.push(c);
            }
            list
        });
        assert_eq!((list.as_slice(), allocations), (&ids[..], expect), "reserve({n})");

        let stamped: InlineList<(ClientId, u64)> = ids.iter().map(|&c| (c, 7)).collect();
        let (list, allocations) = counted(|| stamped.map(|(c, _)| c));
        assert_eq!((list.as_slice(), allocations), (&ids[..], expect), "map {n}");

        let bytes = ids.to_bytes();
        let (list, allocations) = counted(|| InlineList::<ClientId>::decode(&mut &bytes[..]).unwrap());
        assert_eq!((list.as_slice(), allocations), (&ids[..], expect), "decode {n}");
    }
}

#[test]
fn equality_debug_and_bytes_are_the_slices_in_either_form() {
    let inline: InlineList<ClientId> = readers(2).into();
    let mut spilled: InlineList<ClientId> = readers(3).into();
    spilled.remove(2);
    assert!(!inline.is_spilled() && spilled.is_spilled());
    assert_eq!(inline, spilled);
    assert_ne!(inline, InlineList::from(&readers(1)[..]));
    for list in [&inline, &spilled] {
        assert_eq!(format!("{list:?}"), format!("{:?}", readers(2)));
        assert_eq!(list.to_bytes(), readers(2).to_bytes());
    }
    let empty: InlineList<ClientId> = InlineList::new();
    assert_eq!(empty, InlineList::from(Vec::new()));
    assert_eq!(format!("{empty:?}"), "[]");
}

#[test]
fn insert_and_remove_agree_with_a_vec_in_both_forms() {
    let mut list = InlineList::new();
    let mut model: Vec<u32> = Vec::new();
    // Grow past the slots and shrink back below them, inserting at the
    // front, the middle and the back and removing likewise.
    let mut x = 7u32;
    for step in 0..40 {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345) >> 3;
        let grow = step < 10 || (20..30).contains(&step);
        if grow || model.is_empty() {
            let at = x as usize % (model.len() + 1);
            list.insert(at, x);
            model.insert(at, x);
        } else {
            let at = x as usize % model.len();
            assert_eq!(list.remove(at), model.remove(at));
        }
        assert_eq!(list.as_slice(), &model[..], "after step {step}");
        assert_eq!(list.len(), model.len());
    }

    // And in place: remove from the front and the back of a full pair.
    let mut pair: InlineList<u32> = vec![1, 2].into();
    assert_eq!(pair.remove(0), 1);
    pair.push(3);
    assert_eq!(pair.remove(1), 3);
    assert_eq!(pair.as_slice(), [2]);
    assert!(!pair.is_spilled());
}

#[test]
#[should_panic(expected = "past the length")]
fn an_insertion_past_the_end_panics_in_place() {
    let mut list: InlineList<u32> = vec![1].into();
    list.insert(2, 9);
}
