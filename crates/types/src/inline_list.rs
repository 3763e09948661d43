//! [`InlineList`]: a list that keeps its first two items in place.

use std::fmt;
use std::ops::Deref;

/// How many items a list holds in place before it spills to the heap: a
/// value of a one-writer, one-reader register is registered on by two
/// clients, its writer and its reader.
const INLINE: usize = 2;

/// A list of `Copy` items that holds up to two of them in place and moves
/// them to a `Vec` of its own on the third, which it keeps from then on.
///
/// It is the form of a server store entry's registrations and of a full
/// snapshot record's `updated` set, so a value registered on by two
/// clients or fewer costs no allocation of its own, in the store or on the
/// way to the reader. (A delta's records keep two in place too, and their
/// longer lists in one buffer per delta: `mwr_core::DeltaRecords`.)
/// Where the final length is known beforehand ([`with_capacity`], [`map`],
/// a [`FromIterator`] whose size hint is exact, [`reserve`], the wire
/// decoder), a list longer than two spills with one allocation of exactly
/// that size.
///
/// It reads as a slice (`Deref<Target = [T]>`); equality, `Debug` and its
/// [`Wire`](crate::codec::Wire) layout are those of the slice, whichever
/// form holds the items, so it is byte for byte and digest for digest a
/// `Vec<T>`.
///
/// [`with_capacity`]: InlineList::with_capacity
/// [`map`]: InlineList::map
/// [`reserve`]: InlineList::reserve
///
/// # Examples
///
/// ```
/// use mwr_types::{ClientId, InlineList};
///
/// let mut clients = InlineList::new();
/// clients.push(ClientId::reader(0));
/// clients.push(ClientId::writer(0));
/// assert!(!clients.is_spilled());
/// clients.insert(1, ClientId::reader(1));
/// assert!(clients.is_spilled());
/// assert_eq!(clients[..], [ClientId::reader(0), ClientId::reader(1), ClientId::writer(0)]);
/// ```
#[derive(Clone)]
pub struct InlineList<T: Copy>(Repr<T>);

#[derive(Clone)]
enum Repr<T: Copy> {
    /// The first `len` of `slots` are the items; the others hold stale
    /// copies and are never read.
    Inline { len: u8, slots: [T; INLINE] },
    /// The items, on the heap. An empty list is an unallocated `Vec`: its
    /// first item moves the list in place.
    Spilled(Vec<T>),
}

impl<T: Copy> InlineList<T> {
    /// An empty list; it allocates nothing.
    pub const fn new() -> Self {
        InlineList(Repr::Spilled(Vec::new()))
    }

    /// An empty list that holds `capacity` items without allocating again:
    /// in place up to two, else in one `Vec` of exactly that capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= INLINE {
            InlineList::new()
        } else {
            InlineList(Repr::Spilled(Vec::with_capacity(capacity)))
        }
    }

    /// The items, in order.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, slots } => &slots[..usize::from(*len)],
            Repr::Spilled(items) => items,
        }
    }

    /// The list of `f` of each item, in the same form: in place, or in one
    /// `Vec` of exactly this length.
    pub fn map<U: Copy>(&self, f: impl FnMut(T) -> U) -> InlineList<U> {
        match &self.0 {
            Repr::Inline { len, slots } => InlineList(Repr::Inline { len: *len, slots: slots.map(f) }),
            Repr::Spilled(items) => InlineList(Repr::Spilled(items.iter().copied().map(f).collect())),
        }
    }

    /// Whether the items live in a `Vec` of their own.
    pub fn is_spilled(&self) -> bool {
        matches!(&self.0, Repr::Spilled(items) if items.capacity() > 0)
    }

    /// Makes room for `additional` more items. A list that must leave its
    /// slots for them spills into one `Vec` of exactly the room needed.
    pub fn reserve(&mut self, additional: usize) {
        let needed = self.len() + additional;
        match &mut self.0 {
            Repr::Spilled(items) if items.capacity() > 0 => items.reserve(additional),
            _ if needed > INLINE => self.spill(needed),
            _ => {}
        }
    }

    /// Inserts `item` at `index`, shifting the items after it.
    ///
    /// # Panics
    ///
    /// If `index > len`.
    pub fn insert(&mut self, index: usize, item: T) {
        match &mut self.0 {
            Repr::Inline { len, slots } if usize::from(*len) < INLINE => {
                let n = usize::from(*len);
                assert!(index <= n, "insertion index {index} is past the length {n}");
                slots.copy_within(index..n, index + 1);
                slots[index] = item;
                *len += 1;
            }
            Repr::Inline { .. } => {
                self.spill(2 * INLINE);
                self.insert(index, item);
            }
            Repr::Spilled(items) if items.capacity() > 0 => items.insert(index, item),
            Repr::Spilled(_) => {
                assert!(index == 0, "insertion index {index} is past the length 0");
                self.0 = Repr::Inline { len: 1, slots: [item; INLINE] };
            }
        }
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Inline { len, slots } if usize::from(*len) < INLINE => {
                slots[usize::from(*len)] = item;
                *len += 1;
            }
            Repr::Spilled(items) if items.capacity() > 0 => items.push(item),
            _ => self.insert(self.len(), item),
        }
    }

    /// Moves the items into a `Vec` of `capacity`.
    fn spill(&mut self, capacity: usize) {
        let mut items = Vec::with_capacity(capacity);
        items.extend_from_slice(self.as_slice());
        self.0 = Repr::Spilled(items);
    }

    /// Removes and returns the item at `index`, shifting the items after it.
    ///
    /// # Panics
    ///
    /// If `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        match &mut self.0 {
            Repr::Inline { len, slots } => {
                let n = usize::from(*len);
                assert!(index < n, "removal index {index} is past the length {n}");
                let item = slots[index];
                slots.copy_within(index + 1..n, index);
                *len -= 1;
                item
            }
            Repr::Spilled(items) => items.remove(index),
        }
    }
}

impl<T: Copy> Default for InlineList<T> {
    fn default() -> Self {
        InlineList::new()
    }
}

impl<T: Copy> Deref for InlineList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T: Copy> IntoIterator for &'a InlineList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy> Extend<T> for InlineList<T> {
    /// Reserves for the iterator's lower size bound first, so an exact
    /// hint spills at most once, into a `Vec` of exactly the size needed.
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
        iter.for_each(|item| self.push(item));
    }
}

impl<T: Copy> FromIterator<T> for InlineList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = InlineList::new();
        list.extend(iter);
        list
    }
}

impl<T: Copy> From<Vec<T>> for InlineList<T> {
    /// Moves a `Vec`'s items in place if they fit, else keeps the `Vec`.
    fn from(items: Vec<T>) -> Self {
        if items.len() > INLINE {
            InlineList(Repr::Spilled(items))
        } else {
            items.into_iter().collect()
        }
    }
}

impl<T: Copy> From<&[T]> for InlineList<T> {
    fn from(items: &[T]) -> Self {
        items.iter().copied().collect()
    }
}

impl<T: Copy + PartialEq> PartialEq for InlineList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq> Eq for InlineList<T> {}

impl<T: Copy + fmt::Debug> fmt::Debug for InlineList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}
