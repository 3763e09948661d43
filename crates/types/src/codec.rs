//! A small hand-rolled binary wire codec.
//!
//! The live TCP transport in `mwr-runtime` needs to frame protocol messages
//! on the wire. The offline dependency set contains `serde` but no binary
//! serialization format, so the workspace ships its own compact, explicit
//! codec: fixed-width big-endian integers, length-prefixed sequences, and
//! one-byte discriminants for enums.
//!
//! Every type that travels over the network implements [`Wire`]. The codec is
//! deliberately non-self-describing — both endpoints are always the same
//! binary version in this repository.
//!
//! A composite type's byte layout is stated once, as a [`wire_layout!`]
//! row next to the type (its fields in wire order; for an enum, each
//! variant's discriminant first), and the macro writes both `encode` and
//! `decode` from that row. Only the leaves are written by hand here: the
//! integers, `bool`, `Option`, `Vec`, [`InlineList`] (laid out as a `Vec`),
//! `Box`, the ids, [`Value`],
//! [`ConfigEpoch`], [`Tag`] (whose decode refuses ⊥ with a timestamp) and
//! [`TaggedValue`], plus [`client_runs`], the run-length field codec.
//! A type that contains itself bounds its own depth in its row's field
//! codec and refuses a deeper value with [`DecodeError::TooDeep`]: a
//! `Msg` frame carries at most two headers, so no frame recurses the
//! decoder off the stack of the thread that reads it.
//!
//! # Examples
//!
//! ```
//! use bytes::BytesMut;
//! use mwr_types::codec::Wire;
//! use mwr_types::{Tag, WriterId};
//!
//! let tag = Tag::new(7, WriterId::new(1));
//! let mut buf = BytesMut::new();
//! tag.encode(&mut buf);
//! let mut bytes = buf.freeze();
//! let decoded = Tag::decode(&mut bytes)?;
//! assert_eq!(decoded, tag);
//! # Ok::<(), mwr_types::codec::DecodeError>(())
//! ```

use std::fmt;

pub use bytes::{Buf, BufMut};
use bytes::{Bytes, BytesMut};

use crate::{
    ClientId, ConfigEpoch, InlineList, ProcessId, ReaderId, RegisterId, ServerId, Tag, TaggedValue,
    Value, WriterId, WriterSlot,
};

/// Errors produced while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// What was being decoded when input ran out.
        context: &'static str,
    },
    /// An enum discriminant byte had no corresponding variant.
    InvalidDiscriminant {
        /// The type whose discriminant was invalid.
        context: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A declared collection length exceeded the sanity bound.
    LengthOverflow {
        /// The declared length.
        declared: u64,
    },
    /// A value nested inside itself more often than its type allows.
    TooDeep {
        /// What was nested too deep.
        context: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while decoding {context}")
            }
            DecodeError::InvalidDiscriminant { context, value } => {
                write!(f, "invalid discriminant {value} for {context}")
            }
            DecodeError::LengthOverflow { declared } => {
                write!(f, "declared collection length {declared} exceeds sanity bound")
            }
            DecodeError::TooDeep { context } => write!(f, "{context} nested too deep"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Upper bound on decoded collection lengths; a defence against corrupted or
/// hostile frames allocating unbounded memory.
pub const MAX_COLLECTION_LEN: u64 = 1 << 24;

/// Most bytes a decoder reserves on the strength of a declared element
/// count alone; a longer collection grows as its elements actually decode.
const MAX_RESERVED_BYTES: usize = 32 * 1024;

/// How many `T`s to reserve for a collection declaring `declared` of them.
///
/// The count is the sender's claim, not a fact: reserve no more elements
/// than the frame has bytes left (an element is at least one byte), and no
/// more than fit in 32 KiB, whatever `T`'s in-memory size is.
pub fn reservation<T, B: Buf>(declared: u64, buf: &B) -> usize {
    let fitting = MAX_RESERVED_BYTES / std::mem::size_of::<T>().max(1);
    (declared as usize).min(buf.remaining()).min(fitting)
}

/// Binary encoding/decoding of a value for network transport.
///
/// Implementations must be deterministic: `decode(encode(x)) == x` for every
/// `x`. A composite type's [`encode`](Wire::encode) and
/// [`decode`](Wire::decode) are both written by [`wire_layout!`] from one
/// statement of its layout; [`encoded_len`](Wire::encoded_len) is derived
/// from `encode` and never written by hand.
///
/// Encoding is generic over [`BufMut`] and decoding over [`Buf`], so hot
/// paths can encode straight into a reusable frame buffer and decode
/// straight out of a reusable read buffer (`&mut &[u8]`) without first
/// copying the frame into an owned [`Bytes`].
pub trait Wire: Sized {
    /// Appends the encoded representation of `self` to `buf`.
    fn encode<B: BufMut>(&self, buf: &mut B);

    /// The exact number of bytes [`encode`](Wire::encode) appends for
    /// `self`: `encode` run into a sink that only counts, so it allocates
    /// nothing and cannot disagree with the bytes on the wire.
    fn encoded_len(&self) -> usize {
        let mut count = ByteCount(0);
        self.encode(&mut count);
        count.0
    }

    /// Decodes a value from the front of `buf`, consuming exactly the bytes
    /// written by [`encode`](Wire::encode).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the buffer is truncated or contains an
    /// invalid discriminant or length.
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError>;

    /// Encodes `self` into a fresh, exactly-sized buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.freeze()
    }
}

/// Implements [`Wire`] for a type from one statement of its byte layout.
///
/// A struct's row names its fields in wire order. An enum's rows give each
/// variant's one-byte discriminant, then the variant, then its fields in
/// wire order (a tuple variant's fields are bound by any names). `encode`
/// writes the row, `decode` reads it back in the same order, each field by
/// its own `Wire` impl — or, written `field via codec`, by the `encode` and
/// `decode` functions of the module `codec`, for a field that travels in a
/// form of its own.
///
/// The rows are checked against the type's declaration: a field left out or
/// misspelt, or a variant missing, does not compile, and two variants given
/// one discriminant leave `decode` an unreachable arm (a warning, which CI
/// denies). Only the field *order* is the row's alone to get right: the
/// byte pins in `mwr-types`' and `mwr-core`'s round-trip tests hold it.
///
/// # Examples
///
/// ```
/// use mwr_types::codec::{wire_layout, Wire};
/// use mwr_types::{ClientId, Value};
///
/// #[derive(Debug, PartialEq)]
/// struct Stamp {
///     by: ClientId,
///     at: u64,
/// }
///
/// #[derive(Debug, PartialEq)]
/// enum Event {
///     Tick,
///     Stamped(Stamp),
///     Wrote { value: Value, stamp: Stamp },
/// }
///
/// wire_layout! { struct Stamp { by, at } }
/// wire_layout! { enum Event { 0 => Tick, 1 => Stamped(stamp), 2 => Wrote { stamp, value } } }
///
/// let event = Event::Wrote { value: Value::new(7), stamp: Stamp { by: ClientId::reader(1), at: 3 } };
/// let bytes = event.to_bytes();
/// assert_eq!(bytes.len(), 1 + (5 + 8) + 8);
/// assert_eq!(Event::decode(&mut &bytes[..])?, event);
/// # Ok::<(), mwr_types::codec::DecodeError>(())
/// ```
#[macro_export]
macro_rules! wire_layout {
    (struct $name:ident { $($field:ident $(via $codec:ident)?),* $(,)? }) => {
        impl $crate::codec::Wire for $name {
            fn encode<B: $crate::codec::BufMut>(&self, buf: &mut B) {
                let $name { $($field),* } = self;
                $($crate::wire_layout!(@encode $field $(via $codec)?, buf);)*
            }

            fn decode<B: $crate::codec::Buf>(buf: &mut B) -> Result<Self, $crate::codec::DecodeError> {
                Ok($name { $($field: $crate::wire_layout!(@decode $field $(via $codec)?, buf)),* })
            }
        }
    };
    (enum $name:ident { $($disc:literal => $variant:ident
        $(( $($bound:ident),* ))?
        $({ $($field:ident $(via $codec:ident)?),* })?
    ),* $(,)? }) => {
        impl $crate::codec::Wire for $name {
            fn encode<B: $crate::codec::BufMut>(&self, buf: &mut B) {
                match self {
                    $($name::$variant $(($($bound),*))? $({ $($field),* })? => {
                        buf.put_u8($disc);
                        $($($crate::wire_layout!(@encode $bound, buf);)*)?
                        $($($crate::wire_layout!(@encode $field $(via $codec)?, buf);)*)?
                    })*
                }
            }

            fn decode<B: $crate::codec::Buf>(buf: &mut B) -> Result<Self, $crate::codec::DecodeError> {
                match <u8 as $crate::codec::Wire>::decode(buf)? {
                    $($disc => Ok($name::$variant
                        $(($($crate::wire_layout!(@decode $bound, buf)),*))?
                        $({ $($field: $crate::wire_layout!(@decode $field $(via $codec)?, buf)),* })?
                    ),)*
                    value => Err($crate::codec::DecodeError::InvalidDiscriminant {
                        context: stringify!($name),
                        value,
                    }),
                }
            }
        }
    };
    (@encode $field:ident, $buf:ident) => { $crate::codec::Wire::encode($field, $buf) };
    (@encode $field:ident via $codec:ident, $buf:ident) => { $codec::encode($field, $buf) };
    (@decode $field:ident, $buf:ident) => { $crate::codec::Wire::decode($buf)? };
    (@decode $field:ident via $codec:ident, $buf:ident) => { $codec::decode($buf)? };
}

pub use crate::wire_layout;

/// A [`BufMut`] that keeps nothing but the number of bytes put into it.
struct ByteCount(usize);

impl BufMut for ByteCount {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

fn need(buf: &impl Buf, n: usize, context: &'static str) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::UnexpectedEof { context })
    } else {
        Ok(())
    }
}

impl Wire for u8 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(*self);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        need(buf, 1, "u8")?;
        Ok(buf.get_u8())
    }
}

impl Wire for u32 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(*self);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        need(buf, 4, "u32")?;
        Ok(buf.get_u32())
    }
}

impl Wire for u64 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64(*self);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        need(buf, 8, "u64")?;
        Ok(buf.get_u64())
    }
}

impl Wire for bool {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(u8::from(*self));
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(DecodeError::InvalidDiscriminant { context: "bool", value }),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            value => Err(DecodeError::InvalidDiscriminant { context: "Option", value }),
        }
    }
}

/// A sequence's layout: its length as a `u64`, then each item.
fn encode_seq<T: Wire, B: BufMut>(items: &[T], buf: &mut B) {
    buf.put_u64(items.len() as u64);
    for item in items {
        item.encode(buf);
    }
}

/// Reads [`encode_seq`]'s layout into a collection made by `with_capacity`
/// for as many items as [`reservation`] trusts the declared length with.
fn decode_seq<T: Wire, B: Buf, C>(
    buf: &mut B,
    with_capacity: impl FnOnce(usize) -> C,
    mut push: impl FnMut(&mut C, T),
) -> Result<C, DecodeError> {
    let len = u64::decode(buf)?;
    if len > MAX_COLLECTION_LEN {
        return Err(DecodeError::LengthOverflow { declared: len });
    }
    let mut out = with_capacity(reservation::<T, B>(len, buf));
    for _ in 0..len {
        push(&mut out, T::decode(buf)?);
    }
    Ok(out)
}

impl<T: Wire> Wire for Vec<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        encode_seq(self, buf);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        decode_seq(buf, Vec::with_capacity, Vec::push)
    }
}

/// Byte for byte the layout of a `Vec<T>` of the same items. Decoding fills
/// the list straight from the wire: in place up to two items, else in one
/// `Vec` of the declared length.
impl<T: Wire + Copy> Wire for InlineList<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        encode_seq(self, buf);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        decode_seq(buf, InlineList::with_capacity, InlineList::push)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        (**self).encode(buf);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        T::decode(buf).map(Box::new)
    }
}

macro_rules! wire_id {
    ($name:ident) => {
        impl Wire for $name {
            fn encode<B: BufMut>(&self, buf: &mut B) {
                self.index().encode(buf);
            }

            fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
                Ok($name::new(u32::decode(buf)?))
            }
        }
    };
}

wire_id!(ServerId);
wire_id!(ReaderId);
wire_id!(WriterId);
wire_id!(RegisterId);

impl Wire for ConfigEpoch {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.get().encode(buf);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(ConfigEpoch::new(u32::decode(buf)?))
    }
}

wire_layout! { enum ClientId { 0 => Reader(reader), 1 => Writer(writer) } }

/// A run of clients with consecutive indices of one kind: `start`,
/// `start + 1`, …, `start + len − 1` (runs never cross from readers into
/// writers). The wire-version-4 registration gossip compresses sorted
/// `updated` lists into these runs — the catch-up re-registrations that
/// full-info-equivalent semantics fan out to every reader are dense in
/// client-id space, so a list of `R` readers collapses to one 9-byte run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRun {
    /// The first client of the run.
    pub start: ClientId,
    /// How many consecutive clients the run covers (encoders emit ≥ 1).
    pub len: u32,
}

wire_layout! { struct ClientRun { start, len } }

/// Run-length encoding of client-id lists ([`ClientRun`]), streamed
/// straight to and from the wire without materializing the runs.
///
/// Any list round-trips exactly (order preserved; a non-consecutive
/// element is its own run of 1), but the encoding only *wins* on sorted
/// lists with dense index runs — which is what the registration gossip
/// produces.
pub mod client_runs {
    use super::{Buf, BufMut, ClientId, ClientRun, DecodeError, Wire, MAX_COLLECTION_LEN};

    struct Runs<'a> {
        ids: &'a [ClientId],
        i: usize,
    }

    impl Iterator for Runs<'_> {
        type Item = ClientRun;

        fn next(&mut self) -> Option<ClientRun> {
            let start = *self.ids.get(self.i)?;
            self.i += 1;
            let mut prev = start;
            let mut len: u32 = 1;
            while let Some(&next) = self.ids.get(self.i) {
                if len < u32::MAX && prev.is_followed_by(next) {
                    prev = next;
                    len += 1;
                    self.i += 1;
                } else {
                    break;
                }
            }
            Some(ClientRun { start, len })
        }
    }

    fn runs(ids: &[ClientId]) -> Runs<'_> {
        Runs { ids, i: 0 }
    }

    /// Number of maximal runs in `ids`.
    pub fn count(ids: &[ClientId]) -> u64 {
        runs(ids).count() as u64
    }

    /// Appends `ids` as a length-prefixed run list (run count as `u64`,
    /// then each run).
    pub fn encode<B: BufMut>(ids: &[ClientId], buf: &mut B) {
        count(ids).encode(buf);
        for run in runs(ids) {
            run.encode(buf);
        }
    }

    /// Most clients of one run handed over at once: what a sink that
    /// reserves for them sets aside on a run's claim is at most 32 KiB,
    /// [`MAX_RESERVED_BYTES`](super::MAX_RESERVED_BYTES) as for any declared
    /// length.
    const PIECE: u32 = (super::MAX_RESERVED_BYTES / std::mem::size_of::<ClientId>()) as u32;

    /// Decodes a run list, handing the clients of each run to `expand` in
    /// order — the clients of `decode(encode(ids))` are `ids`, for every
    /// list. A run is handed over in pieces of at most 4 096 clients, so a
    /// sink that reserves room for each piece grows with what it is given.
    ///
    /// `total` counts the clients expanded so far by every run list of the
    /// message, this one included, and [`MAX_COLLECTION_LEN`] bounds it:
    /// a run is checked against the bound before it is expanded. One bound
    /// for the whole message, because a run is the one layout where a few
    /// bytes may rightly stand for many elements (nine bytes for 2²⁴
    /// clients), so a bound per list would let a frame claim it once per
    /// list.
    ///
    /// # Errors
    ///
    /// Rejects a run count beyond [`MAX_COLLECTION_LEN`], a run that takes
    /// `total` beyond it, and a run whose indices would overflow `u32` —
    /// the declared-length defences of the plain `Vec` codec, applied to
    /// the *expanded* size a hostile frame could claim cheaply.
    pub fn decode<B: Buf>(
        buf: &mut B,
        total: &mut u64,
        mut expand: impl FnMut(RunClients),
    ) -> Result<(), DecodeError> {
        let declared = u64::decode(buf)?;
        if declared > MAX_COLLECTION_LEN {
            return Err(DecodeError::LengthOverflow { declared });
        }
        for _ in 0..declared {
            let run = ClientRun::decode(buf)?;
            *total += u64::from(run.len);
            if *total > MAX_COLLECTION_LEN {
                return Err(DecodeError::LengthOverflow { declared: *total });
            }
            if run.len > 0 && run.start.offset(run.len - 1).is_none() {
                return Err(DecodeError::LengthOverflow { declared: u64::from(run.len) });
            }
            for at in (0..run.len).step_by(PIECE as usize) {
                expand(RunClients { start: run.start, at, end: at + PIECE.min(run.len - at) });
            }
        }
        Ok(())
    }

    /// The clients of (a piece of) one decoded run, in order: an exact-size
    /// iterator, so a sink can reserve for them once.
    #[derive(Debug, Clone)]
    pub struct RunClients {
        start: ClientId,
        /// The offsets from `start` still to come: `at .. end`, all of
        /// them valid (checked before the run is handed over).
        at: u32,
        end: u32,
    }

    impl Iterator for RunClients {
        type Item = ClientId;

        fn next(&mut self) -> Option<ClientId> {
            if self.at == self.end {
                return None;
            }
            self.at += 1;
            self.start.offset(self.at - 1)
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            let left = (self.end - self.at) as usize;
            (left, Some(left))
        }
    }

    impl ExactSizeIterator for RunClients {}
}

wire_layout! { enum ProcessId { 0 => Server(server), 1 => Client(client) } }
wire_layout! { enum WriterSlot { 0 => Bottom, 1 => Writer(writer) } }

impl Wire for Tag {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.ts().encode(buf);
        self.writer().encode(buf);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let ts = u64::decode(buf)?;
        let writer = WriterSlot::decode(buf)?;
        match writer {
            WriterSlot::Bottom if ts == 0 => Ok(Tag::initial()),
            // Only (0, ⊥) is a bottom tag: no `Tag` encodes to any other, so
            // one on the wire is a corrupt or hostile frame.
            WriterSlot::Bottom => Err(DecodeError::InvalidDiscriminant { context: "Tag (⊥ with ts > 0)", value: 0 }),
            WriterSlot::Writer(w) => Ok(Tag::new(ts, w)),
        }
    }
}

impl Wire for Value {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.get().encode(buf);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(Value::new(u64::decode(buf)?))
    }
}

impl Wire for TaggedValue {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.tag().encode(buf);
        self.value().encode(buf);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let tag = Tag::decode(buf)?;
        let value = Value::decode(buf)?;
        Ok(TaggedValue::new(tag, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let mut bytes = value.to_bytes();
        assert_eq!(value.encoded_len(), bytes.len(), "encoded_len must match encode");
        // Decode from a borrowed slice cursor (the transport's reusable
        // read-buffer path) and from an owned `Bytes`: both must agree.
        let mut cursor: &[u8] = &bytes;
        let from_slice = T::decode(&mut cursor).expect("decode from slice");
        assert_eq!(&from_slice, value);
        assert!(cursor.is_empty(), "slice decode must consume the whole encoding");
        let decoded = T::decode(&mut bytes).expect("decode");
        assert_eq!(&decoded, value);
        assert!(bytes.is_empty(), "decode must consume the whole encoding");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u32::MAX);
        round_trip(&u64::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&Some(42u64));
        round_trip(&Option::<u64>::None);
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Vec::<u64>::new());
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(&ServerId::new(3));
        round_trip(&ConfigEpoch::ZERO);
        round_trip(&ConfigEpoch::new(9));
        round_trip(&RegisterId::new(41));
        round_trip(&RegisterId::DEFAULT);
        round_trip(&ClientId::reader(1));
        round_trip(&ClientId::writer(0));
        round_trip(&ProcessId::server(2));
        round_trip(&Tag::initial());
        round_trip(&Tag::new(9, WriterId::new(4)));
        round_trip(&TaggedValue::new(Tag::new(1, WriterId::new(0)), Value::new(77)));

        // The composite layouts' bytes, pinned: FNV-1a over their
        // encodings, recorded before they were declared by `wire_layout!`.
        let composites = [
            ClientId::reader(1).to_bytes(),
            ClientId::writer(0).to_bytes(),
            ProcessId::server(2).to_bytes(),
            ProcessId::reader(3).to_bytes(),
            ProcessId::writer(4).to_bytes(),
            WriterSlot::Bottom.to_bytes(),
            WriterSlot::Writer(WriterId::new(5)).to_bytes(),
            ClientRun { start: ClientId::writer(6), len: 7 }.to_bytes(),
        ];
        round_trip(&WriterSlot::Bottom);
        round_trip(&WriterSlot::Writer(WriterId::new(5)));
        round_trip(&ClientRun { start: ClientId::writer(6), len: 7 });
        let wire: Vec<u8> = composites.iter().flat_map(|bytes| bytes.to_vec()).collect();
        let fnv = wire.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((wire.len(), fnv), (42, 0x42485f39e2d3670f), "a layout moved on the wire");
    }

    /// No `Tag` encodes a timestamp beside the ⊥ writer, so a frame that
    /// carries one is refused — in every build, and without a panic: on
    /// TCP the decoder runs on the reactor every endpoint depends on.
    #[test]
    fn a_bottom_tag_with_a_timestamp_is_refused() {
        let mut bytes = Tag::initial().to_bytes().to_vec();
        bytes[..8].copy_from_slice(&5u64.to_be_bytes());
        assert!(matches!(Tag::decode(&mut &bytes[..]), Err(DecodeError::InvalidDiscriminant { .. })));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let tag = Tag::new(1, WriterId::new(0));
        let bytes = tag.to_bytes();
        for cut in 0..bytes.len() {
            let mut prefix = bytes.slice(0..cut);
            assert!(
                Tag::decode(&mut prefix).is_err(),
                "prefix of length {cut} must not decode"
            );
        }
    }

    #[test]
    fn invalid_discriminants_are_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        let mut bytes = buf.freeze();
        assert_eq!(
            ClientId::decode(&mut bytes),
            Err(DecodeError::InvalidDiscriminant { context: "ClientId", value: 7 })
        );
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u64(MAX_COLLECTION_LEN + 1);
        let mut bytes = buf.freeze();
        assert_eq!(
            Vec::<u64>::decode(&mut bytes),
            Err(DecodeError::LengthOverflow { declared: MAX_COLLECTION_LEN + 1 })
        );
    }

    fn runs_round_trip(ids: &[ClientId]) {
        let mut buf = BytesMut::new();
        client_runs::encode(ids, &mut buf);
        let mut cursor: &[u8] = &buf;
        let (mut decoded, mut total) = (Vec::new(), 0);
        client_runs::decode(&mut cursor, &mut total, |run| decoded.extend(run))
            .expect("decode runs");
        assert_eq!((&decoded[..], total), (ids, ids.len() as u64));
        assert!(cursor.is_empty(), "runs decode must consume the whole encoding");
    }

    #[test]
    fn dense_client_list_collapses_to_one_run() {
        let ids: Vec<ClientId> = (0..128).map(ClientId::reader).collect();
        // 128 consecutive readers: 8-byte count + one 9-byte run, vs the
        // plain Vec codec's 8 + 128 × 5 bytes.
        assert_eq!(client_runs::count(&ids), 1);
        let mut buf = BytesMut::new();
        client_runs::encode(&ids, &mut buf);
        assert_eq!(buf.len(), 17);
        runs_round_trip(&ids);
    }

    #[test]
    fn runs_split_at_the_reader_writer_boundary_and_at_gaps() {
        let ids = vec![
            ClientId::reader(0),
            ClientId::reader(1),
            ClientId::reader(3), // gap: new run
            ClientId::writer(4), // kind change: new run even though 3→4
            ClientId::writer(5),
        ];
        assert_eq!(client_runs::count(&ids), 3);
        runs_round_trip(&ids);
    }

    #[test]
    fn run_boundaries_around_128_round_trip() {
        // The paper's protocols cap servers at 128 (the u128 reply mask);
        // pin the encoding on either side of that population boundary.
        for n in [127u32, 128, 129] {
            let ids: Vec<ClientId> = (0..n).map(ClientId::reader).collect();
            assert_eq!(client_runs::count(&ids), 1);
            runs_round_trip(&ids);
        }
    }

    #[test]
    fn a_long_run_is_handed_over_in_pieces_of_at_most_32_kib() {
        let mut buf = BytesMut::new();
        1u64.encode(&mut buf);
        ClientRun { start: ClientId::writer(7), len: 10_000 }.encode(&mut buf);
        let (mut pieces, mut clients) = (Vec::new(), Vec::new());
        client_runs::decode(&mut &buf[..], &mut 0, |run| {
            pieces.push(run.len());
            clients.extend(run);
        })
        .expect("decode runs");
        assert_eq!(pieces, [4_096, 4_096, 1_808]);
        assert!(clients.iter().copied().eq((7..10_007).map(ClientId::writer)));
    }

    #[test]
    fn run_at_the_index_ceiling_round_trips() {
        let ids = vec![ClientId::writer(u32::MAX - 1), ClientId::writer(u32::MAX)];
        assert_eq!(client_runs::count(&ids), 1);
        runs_round_trip(&ids);
    }

    #[test]
    fn overflowing_run_is_rejected() {
        // A run starting at u32::MAX − 1 with length 3 would wrap the
        // index space; the expansion must refuse, not wrap.
        let mut buf = BytesMut::new();
        1u64.encode(&mut buf);
        ClientRun { start: ClientId::reader(u32::MAX - 1), len: 3 }.encode(&mut buf);
        let mut bytes = buf.freeze();
        assert!(client_runs::decode(&mut bytes, &mut 0, |_| {}).is_err());
    }

    #[test]
    fn oversized_run_expansion_is_rejected() {
        // Two runs whose *expanded* total exceeds the collection bound:
        // cheap bytes must not claim an expensive allocation.
        let mut buf = BytesMut::new();
        2u64.encode(&mut buf);
        ClientRun { start: ClientId::reader(0), len: MAX_COLLECTION_LEN as u32 }.encode(&mut buf);
        ClientRun { start: ClientId::writer(0), len: 1 }.encode(&mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(
            client_runs::decode(&mut bytes, &mut 0, |_| {}),
            Err(DecodeError::LengthOverflow { declared: MAX_COLLECTION_LEN + 1 })
        );
    }

    #[test]
    fn the_expansion_bound_spans_every_list_of_a_message() {
        // Each list alone is within the bound; the second takes the
        // message's total one past it and is refused before it expands.
        let list = |start: ClientId, len: u32| {
            let mut buf = BytesMut::new();
            1u64.encode(&mut buf);
            ClientRun { start, len }.encode(&mut buf);
            buf.freeze()
        };
        let (mut total, mut pushed) = (0, 0);
        let first = list(ClientId::reader(0), 3);
        client_runs::decode(&mut &first[..], &mut total, |run| pushed += run.len())
            .expect("within the bound");
        let second = list(ClientId::writer(0), MAX_COLLECTION_LEN as u32 - 2);
        assert_eq!(
            client_runs::decode(&mut &second[..], &mut total, |run| pushed += run.len()),
            Err(DecodeError::LengthOverflow { declared: MAX_COLLECTION_LEN + 1 })
        );
        assert_eq!(pushed, 3, "the refused run expanded nothing");
    }

    proptest! {
        #[test]
        fn prop_tag_round_trips(ts in 0u64..1_000_000, wid in 0u32..64) {
            round_trip(&Tag::new(ts, WriterId::new(wid)));
        }

        #[test]
        fn prop_client_runs_round_trip_any_list(
            raw in proptest::collection::vec((any::<bool>(), 0u32..400), 0..64),
        ) {
            // Arbitrary (unsorted, duplicated, gapped) lists: the encoding
            // must be a bijection on sequences, not just on the sorted
            // lists the server emits.
            let ids: Vec<ClientId> = raw
                .iter()
                .map(|&(w, i)| if w { ClientId::writer(i) } else { ClientId::reader(i) })
                .collect();
            runs_round_trip(&ids);
        }

        #[test]
        fn prop_sorted_client_runs_compress_to_gap_count(
            raw_readers in proptest::collection::vec(0u32..600, 0..64),
            raw_writers in proptest::collection::vec(0u32..600, 0..64),
        ) {
            // The registration-gossip shape: sorted readers then writers.
            let dedup = |mut v: Vec<u32>| -> Vec<u32> {
                v.sort_unstable();
                v.dedup();
                v
            };
            let (readers, writers) = (dedup(raw_readers), dedup(raw_writers));
            let ids: Vec<ClientId> = readers
                .iter()
                .map(|&i| ClientId::reader(i))
                .chain(writers.iter().map(|&i| ClientId::writer(i)))
                .collect();
            let gaps = |v: &[u32]| -> u64 {
                match v.len() {
                    0 => 0,
                    n => 1 + (1..n).filter(|&k| v[k] != v[k - 1] + 1).count() as u64,
                }
            };
            prop_assert_eq!(client_runs::count(&ids), gaps(&readers) + gaps(&writers));
            runs_round_trip(&ids);
        }

        #[test]
        fn prop_tagged_value_round_trips(
            ts in 0u64..1_000_000,
            wid in 0u32..64,
            payload: u64,
        ) {
            round_trip(&TaggedValue::new(Tag::new(ts, WriterId::new(wid)), Value::new(payload)));
        }

        #[test]
        fn prop_composite_with_bottom_tags_round_trips(
            raw in proptest::collection::vec((0u64..100, 0u32..8, any::<bool>(), 0u64..1000), 0..16),
        ) {
            // Mixed payload exercising every branch of the Tag encoding,
            // including the (0, ⊥) bottom discriminant, nested in the
            // length-prefixed Vec and Option codecs.
            let values: Vec<Option<TaggedValue>> = raw
                .iter()
                .map(|&(ts, w, bottom, payload)| {
                    let tag = if bottom { Tag::initial() } else { Tag::new(ts, WriterId::new(w)) };
                    (payload % 3 != 0).then_some(TaggedValue::new(tag, Value::new(payload)))
                })
                .collect();
            round_trip(&values);
        }

        #[test]
        fn prop_vec_of_process_ids_round_trips(ids in proptest::collection::vec(0u32..100, 0..20)) {
            let v: Vec<ProcessId> = ids
                .iter()
                .map(|&i| match i % 3 {
                    0 => ProcessId::server(i),
                    1 => ProcessId::reader(i),
                    _ => ProcessId::writer(i),
                })
                .collect();
            round_trip(&v);
        }
    }
}
