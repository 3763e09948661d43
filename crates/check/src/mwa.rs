//! The paper's MWA0–MWA4 properties (Appendix A.1), checked directly on a
//! history's tags.
//!
//! These properties are the proof obligations for the W2R1 implementation:
//! if a tag-disciplined protocol satisfies all five, the induced order
//! `op1 ≺π op2 ⟺ value(op1) < value(op2)` is a legal linearization, hence
//! the protocol is atomic. They are *sufficient*, not necessary — a history
//! can be atomic while breaking MWA0 (e.g. tag order opposite to an
//! unobserved write order) — so the general verdict remains with
//! [`check_atomicity`](crate::check_atomicity). Integration tests assert
//! the implication "MWA holds ⟹ atomic" on every W2R1 run.

use std::collections::BTreeMap;
use std::fmt;

use mwr_core::OpId;
use mwr_types::TaggedValue;

use crate::history::{History, Operation, Timestamp};

/// Which MWA property failed, with the offending operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MwaViolation {
    /// MWA0: writes `first ≺σ second` but `tag(first) ≥ tag(second)`.
    Mwa0 {
        /// The earlier write.
        first: OpId,
        /// The later write with a non-larger tag.
        second: OpId,
    },
    /// MWA1: a read returned a negative/ill-formed tag. (Unrepresentable
    /// with this crate's types; kept for completeness of the property set.)
    Mwa1 {
        /// The offending read.
        read: OpId,
    },
    /// MWA2: read `read` follows write `write` but returned a smaller tag.
    Mwa2 {
        /// The preceding write.
        write: OpId,
        /// The read that missed it.
        read: OpId,
    },
    /// MWA3: read `read` returned a value whose write it precedes.
    Mwa3 {
        /// The read that saw the future.
        read: OpId,
        /// The write it preceded.
        write: OpId,
    },
    /// MWA4: reads `first ≺σ second` but the second returned a smaller tag.
    Mwa4 {
        /// The earlier read.
        first: OpId,
        /// The later read that regressed.
        second: OpId,
    },
    /// A read returned a tag no write produced (needed before MWA3 can
    /// locate the source write).
    UnknownSource {
        /// The offending read.
        read: OpId,
        /// The unexplained value.
        value: TaggedValue,
    },
    /// The history has open operations.
    Open,
}

impl fmt::Display for MwaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MwaViolation::Mwa0 { first, second } => {
                write!(f, "MWA0: write {first} precedes {second} but has a larger-or-equal tag")
            }
            MwaViolation::Mwa1 { read } => write!(f, "MWA1: read {read} returned an ill-formed tag"),
            MwaViolation::Mwa2 { write, read } => {
                write!(f, "MWA2: read {read} follows write {write} but returned a smaller tag")
            }
            MwaViolation::Mwa3 { read, write } => {
                write!(f, "MWA3: read {read} returned the value of a later write {write}")
            }
            MwaViolation::Mwa4 { first, second } => {
                write!(f, "MWA4: read {second} follows {first} but returned a smaller tag")
            }
            MwaViolation::UnknownSource { read, value } => {
                write!(f, "read {read} returned {value}, which no write produced")
            }
            MwaViolation::Open => write!(f, "history has open operations"),
        }
    }
}

/// Why a history's tag order is not known to be a legal linearization.
pub(crate) enum TagOrderBreak {
    /// One of the paper's five properties fails.
    Mwa(MwaViolation),
    /// MWA0–MWA4 all hold, but a write invoked after a read completed
    /// carries a tag no larger than the one that read returned — the
    /// read→write analogue of MWA2, which the five properties leave open on
    /// *arbitrary* uniquely-tagged histories (see [`check_atomicity`]).
    ///
    /// [`check_atomicity`]: crate::check_atomicity
    WriteBelowEarlierRead,
}

/// Judges every order property of the tag order in one sweep.
///
/// `write_of` maps each written value to the index (in `history.ops()`) of
/// the write [MWA3](MwaViolation::Mwa3) should take as its source.
///
/// Operations are visited in invocation order while a second cursor walks
/// them in completion order, so when `b` is visited exactly the operations
/// `a` with `a.completed < b.invoked` — the paper's `a ≺σ b`, strict — have
/// been folded into two running witnesses: the completed-before write and
/// the completed-before read with the largest tagged value. "Some preceding
/// write has a tag ≥ / > this one" is then one comparison against the
/// witness, which is also the violating pair reported. Two sorts plus one
/// map lookup per read: `O(n log n)`.
///
/// The breaks are reported in the order MWA0, MWA1, MWA2, MWA3 (or
/// [`UnknownSource`](MwaViolation::UnknownSource), whichever read comes
/// first in history order), MWA4, and last
/// [`WriteBelowEarlierRead`](TagOrderBreak::WriteBelowEarlierRead).
pub(crate) fn tag_order(
    history: &History,
    write_of: &BTreeMap<TaggedValue, usize>,
) -> Result<(), TagOrderBreak> {
    let ops = history.ops();
    let mwa = |violation| Err(TagOrderBreak::Mwa(violation));
    // Stable sorts: equal stamps (hand-built histories) keep history order,
    // so the witnesses below are deterministic.
    let mut by_invocation: Vec<&Operation> = ops.iter().collect();
    by_invocation.sort_by_key(|o| o.invoked);
    let mut by_completion: Vec<&Operation> = ops.iter().collect();
    by_completion.sort_by_key(|o| o.completed);

    let mut completed = by_completion.into_iter().peekable();
    // Among the operations completed before the one being visited: the
    // first write, and the first read, to reach the largest tagged value.
    let mut top_write: Option<&Operation> = None;
    let mut top_read: Option<&Operation> = None;
    let (mut mwa2, mut mwa4, mut write_below_read) = (None, None, false);
    for b in by_invocation {
        while let Some(a) = completed.next_if(|a| a.precedes(b)) {
            let top = if a.is_write() { &mut top_write } else { &mut top_read };
            if top.is_none_or(|t| a.tagged_value() > t.tagged_value()) {
                *top = Some(a);
            }
        }
        let value = b.tagged_value();
        if b.is_write() {
            if let Some(a) = top_write.filter(|a| a.tagged_value() >= value) {
                return mwa(MwaViolation::Mwa0 { first: a.id, second: b.id });
            }
            // The largest tagged value carries the largest tag.
            write_below_read |= top_read.is_some_and(|r| r.tagged_value().tag() >= value.tag());
        } else {
            mwa2 = mwa2.or_else(|| {
                let w = top_write.filter(|w| w.tagged_value() > value)?;
                Some(MwaViolation::Mwa2 { write: w.id, read: b.id })
            });
            mwa4 = mwa4.or_else(|| {
                let a = top_read.filter(|a| a.tagged_value() > value)?;
                Some(MwaViolation::Mwa4 { first: a.id, second: b.id })
            });
        }
    }

    // MWA1: tags are non-negative by construction; assert the invariant.
    if let Some(r) = history.reads().find(|r| r.tagged_value() < TaggedValue::initial()) {
        return mwa(MwaViolation::Mwa1 { read: r.id });
    }
    if let Some(violation) = mwa2 {
        return mwa(violation);
    }
    // MWA3 (requires locating each read's source write).
    for r in history.reads() {
        let v = r.tagged_value();
        if v == TaggedValue::initial() {
            continue; // wr_{0,⊥} is never invoked (paper Appendix A.1)
        }
        let Some(src) = write_of.get(&v).map(|&i| &ops[i]) else {
            return mwa(MwaViolation::UnknownSource { read: r.id, value: v });
        };
        if r.precedes(src) {
            return mwa(MwaViolation::Mwa3 { read: r.id, write: src.id });
        }
    }
    if let Some(violation) = mwa4 {
        return mwa(violation);
    }
    if write_below_read {
        return Err(TagOrderBreak::WriteBelowEarlierRead);
    }
    Ok(())
}

/// Checks MWA0–MWA4 on a history.
///
/// One sweep over the operations in invocation order against running
/// maxima of what completed before — `O(n log n)` for `n` operations, not
/// a scan of all pairs.
///
/// # Errors
///
/// Returns the first violated property, in the order MWA0 → MWA4, with a
/// pair of operations that violates it. Which pair, when several do, is
/// fixed: the later operation is the earliest-invoked one that has a
/// counterpart; the earlier one is, of the writes (or reads) completed
/// before it, the one with the largest tagged value — the first of them to
/// complete, if several carry it. MWA3 and
/// [`UnknownSource`](MwaViolation::UnknownSource) name the first offending
/// read in history order, and as its source the first write in history
/// order that produced its value.
///
/// # Examples
///
/// ```
/// use mwr_check::{check_mwa, History};
///
/// assert!(check_mwa(&History::default()).is_ok());
/// ```
pub fn check_mwa(history: &History) -> Result<(), MwaViolation> {
    if history.ops().iter().any(|o| o.completed == Timestamp::MAX) {
        return Err(MwaViolation::Open);
    }
    let mut write_of = BTreeMap::new();
    for (i, op) in history.ops().iter().enumerate().filter(|(_, o)| o.is_write()) {
        write_of.entry(op.tagged_value()).or_insert(i);
    }
    match tag_order(history, &write_of) {
        Err(TagOrderBreak::Mwa(violation)) => Err(violation),
        Err(TagOrderBreak::WriteBelowEarlierRead) | Ok(()) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Operation;
    use mwr_core::{OpKind, OpResult};
    use mwr_sim::SimTime;
    use mwr_types::{ClientId, Tag, Value, WriterId};

    fn ts(t: u64) -> Timestamp {
        Timestamp { time: SimTime::from_ticks(t), seq: t }
    }

    fn tv(ts_: u64, w: u32, v: u64) -> TaggedValue {
        TaggedValue::new(Tag::new(ts_, WriterId::new(w)), Value::new(v))
    }

    fn write(client: u32, seq: u64, val: TaggedValue, s: u64, f: u64) -> Operation {
        Operation {
            id: OpId { client: ClientId::writer(client), seq },
            kind: OpKind::Write(val.value()),
            result: OpResult::Written(val),
            invoked: ts(s),
            completed: ts(f),
        }
    }

    fn read(client: u32, seq: u64, val: TaggedValue, s: u64, f: u64) -> Operation {
        Operation {
            id: OpId { client: ClientId::reader(client), seq },
            kind: OpKind::Read,
            result: OpResult::Read(val),
            invoked: ts(s),
            completed: ts(f),
        }
    }

    #[test]
    fn clean_history_passes() {
        let v1 = tv(1, 0, 1);
        let v2 = tv(2, 1, 2);
        let h = History::from_operations(vec![
            write(0, 0, v1, 0, 10),
            read(0, 0, v1, 20, 30),
            write(1, 0, v2, 40, 50),
            read(1, 0, v2, 60, 70),
        ])
        .unwrap();
        assert_eq!(check_mwa(&h), Ok(()));
    }

    #[test]
    fn mwa0_catches_tag_inversion() {
        // Sequential writes whose tags decrease — the naive fast write's
        // signature failure.
        let h = History::from_operations(vec![
            write(1, 0, tv(1, 1, 2), 0, 10),
            write(0, 0, tv(1, 0, 1), 20, 30),
        ])
        .unwrap();
        assert!(matches!(check_mwa(&h), Err(MwaViolation::Mwa0 { .. })));
    }

    #[test]
    fn mwa2_catches_read_missing_preceding_write() {
        let v1 = tv(1, 0, 1);
        let h = History::from_operations(vec![
            write(0, 0, v1, 0, 10),
            read(0, 0, TaggedValue::initial(), 20, 30),
        ])
        .unwrap();
        assert!(matches!(check_mwa(&h), Err(MwaViolation::Mwa2 { .. })));
    }

    #[test]
    fn mwa3_catches_future_read() {
        let v1 = tv(1, 0, 1);
        let h = History::from_operations(vec![
            read(0, 0, v1, 0, 10),
            write(0, 0, v1, 20, 30),
        ])
        .unwrap();
        assert!(matches!(check_mwa(&h), Err(MwaViolation::Mwa3 { .. })));
    }

    #[test]
    fn mwa4_catches_read_regression() {
        let v1 = tv(1, 0, 1);
        let v2 = tv(2, 1, 2);
        // v2's write stays concurrent with both reads so MWA2 cannot fire;
        // the regression r0 = v2 then r1 = v1 is purely a read-read issue.
        let h = History::from_operations(vec![
            write(0, 0, v1, 0, 100),
            write(1, 0, v2, 0, 200),
            read(0, 0, v2, 110, 120),
            read(1, 0, v1, 130, 140),
        ])
        .unwrap();
        assert!(matches!(check_mwa(&h), Err(MwaViolation::Mwa4 { .. })));
    }

    #[test]
    fn unknown_source_is_reported() {
        let h = History::from_operations(vec![read(0, 0, tv(5, 0, 5), 0, 10)]).unwrap();
        assert!(matches!(check_mwa(&h), Err(MwaViolation::UnknownSource { .. })));
    }

    #[test]
    fn concurrent_writes_with_equal_ts_pass_mwa0() {
        // Concurrent writes may receive tags in either order (§5.2).
        let h = History::from_operations(vec![
            write(0, 0, tv(1, 0, 1), 0, 100),
            write(1, 0, tv(1, 1, 2), 0, 100),
        ])
        .unwrap();
        assert_eq!(check_mwa(&h), Ok(()));
    }
}
