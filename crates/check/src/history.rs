//! Execution histories: the observable record of invocations and responses
//! against which consistency is judged (paper §2.1).

use std::collections::BTreeMap;
use std::fmt;

use mwr_core::{ClientEvent, OpId, OpKind, OpResult};
use mwr_sim::SimTime;
use mwr_types::{ClientId, TaggedValue};

/// A totally ordered event timestamp: virtual time plus a tiebreaker
/// (the emission index within the run).
///
/// The paper's global clock assigns *unique* timestamps to events; the
/// simulator can emit several notifications at one virtual instant, so the
/// emission index restores uniqueness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Emission index within the run.
    pub seq: u64,
}

impl Timestamp {
    /// A timestamp before every real event (the virtual initial write).
    pub const MIN: Timestamp = Timestamp { time: SimTime::ZERO, seq: 0 };

    /// A timestamp after every real event (open operations).
    pub const MAX: Timestamp =
        Timestamp { time: SimTime::FAR_FUTURE, seq: u64::MAX };
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.time, self.seq)
    }
}

/// One completed (or open) operation in a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// The operation identity (client + sequence).
    pub id: OpId,
    /// Read or write.
    pub kind: OpKind,
    /// The outcome. For open operations this is the *pending* write value.
    pub result: OpResult,
    /// Invocation event timestamp (`O.s` in the paper).
    pub invoked: Timestamp,
    /// Response event timestamp (`O.f`); [`Timestamp::MAX`] if open.
    pub completed: Timestamp,
}

impl Operation {
    /// The tagged value this operation wrote or read.
    pub fn tagged_value(&self) -> TaggedValue {
        self.result.tagged_value()
    }

    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        matches!(self.kind, OpKind::Write(_))
    }

    /// Whether this is a read.
    pub fn is_read(&self) -> bool {
        matches!(self.kind, OpKind::Read)
    }

    /// Real-time precedence: `self ≺σ other` iff `self.f < other.s`.
    pub fn precedes(&self, other: &Operation) -> bool {
        self.completed < other.invoked
    }

    /// Whether the two operations overlap in real time.
    pub fn concurrent_with(&self, other: &Operation) -> bool {
        !self.precedes(other) && !other.precedes(self)
    }
}

/// Errors when assembling a history from client events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// An operation completed without a matching invocation.
    CompletionWithoutInvocation {
        /// The orphan operation.
        op: OpId,
    },
    /// An operation was invoked twice.
    DuplicateInvocation {
        /// The duplicated operation.
        op: OpId,
    },
    /// Operations never completed (run was not quiescent). Use
    /// [`History::from_events_with_open_ops`] to include them as open.
    PendingOperations {
        /// The unfinished operations.
        ops: Vec<OpId>,
    },
    /// A client overlapped two of its own operations — the execution is not
    /// well-formed (§2.1) and no consistency verdict is meaningful.
    NotWellFormed {
        /// The client with overlapping operations.
        client: ClientId,
    },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::CompletionWithoutInvocation { op } => {
                write!(f, "operation {op} completed without an invocation")
            }
            HistoryError::DuplicateInvocation { op } => {
                write!(f, "operation {op} invoked twice")
            }
            HistoryError::PendingOperations { ops } => {
                write!(f, "{} operation(s) never completed", ops.len())
            }
            HistoryError::NotWellFormed { client } => {
                write!(f, "client {client} overlapped its own operations")
            }
        }
    }
}

impl std::error::Error for HistoryError {}

/// A register execution history.
///
/// # Examples
///
/// ```
/// use mwr_check::History;
/// use mwr_core::{Cluster, Protocol, ScheduledOp};
/// use mwr_sim::SimTime;
/// use mwr_types::{ClusterConfig, Value};
///
/// let config = ClusterConfig::new(5, 1, 2, 2)?;
/// let cluster = Cluster::new(config, Protocol::W2R1);
/// let events = cluster.run_schedule(
///     1,
///     &[
///         (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(5) }),
///         (SimTime::from_ticks(50), ScheduledOp::Read { reader: 0 }),
///     ],
/// )?;
/// let history = History::from_events(&events)?;
/// assert_eq!(history.len(), 2);
/// assert_eq!(history.reads().count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct History {
    ops: Vec<Operation>,
}

impl History {
    /// Builds a history from a quiescent run's client events.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError`] on orphan completions, duplicate
    /// invocations, pending operations, or per-client overlap.
    pub fn from_events(events: &[(SimTime, ClientEvent)]) -> Result<Self, HistoryError> {
        Self::build(events, false)
    }

    /// Like [`History::from_events`] but keeps operations that never
    /// completed, assigning them [`Timestamp::MAX`] as response time (an
    /// open operation may be linearized anywhere after its invocation).
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError`] on orphan completions, duplicate
    /// invocations, or per-client overlap.
    pub fn from_events_with_open_ops(
        events: &[(SimTime, ClientEvent)],
    ) -> Result<Self, HistoryError> {
        Self::build(events, true)
    }

    fn build(events: &[(SimTime, ClientEvent)], keep_open: bool) -> Result<Self, HistoryError> {
        // seq starts at 1 so Timestamp::MIN is strictly before everything.
        let mut open: BTreeMap<OpId, (OpKind, Timestamp)> = BTreeMap::new();
        let mut ops: Vec<Operation> = Vec::new();
        for (i, (time, event)) in events.iter().enumerate() {
            let ts = Timestamp { time: *time, seq: i as u64 + 1 };
            match event {
                ClientEvent::Invoked { op, kind } => {
                    if open.insert(*op, (*kind, ts)).is_some() {
                        return Err(HistoryError::DuplicateInvocation { op: *op });
                    }
                }
                // Internal round-trip marker: consistency is judged on
                // invocation and response events only (paper §2.1).
                ClientEvent::SecondRound { .. } => {}
                ClientEvent::Completed { op, kind, result } => {
                    let Some((_, invoked)) = open.remove(op) else {
                        return Err(HistoryError::CompletionWithoutInvocation { op: *op });
                    };
                    ops.push(Operation {
                        id: *op,
                        kind: *kind,
                        result: *result,
                        invoked,
                        completed: ts,
                    });
                }
            }
        }
        if !open.is_empty() {
            if keep_open {
                for (op, (kind, invoked)) in open {
                    let result = match kind {
                        OpKind::Write(v) => {
                            // The tag is unknown for an open write; record
                            // the intent with an initial tag — checkers
                            // treat open writes specially.
                            OpResult::Written(TaggedValue::new(
                                mwr_types::Tag::initial().next(mwr_types::WriterId::new(0)),
                                v,
                            ))
                        }
                        OpKind::Read => OpResult::Read(TaggedValue::initial()),
                    };
                    ops.push(Operation { id: op, kind, result, invoked, completed: Timestamp::MAX });
                }
            } else {
                return Err(HistoryError::PendingOperations { ops: open.into_keys().collect() });
            }
        }
        let history = History { ops };
        history.verify_well_formed()?;
        Ok(history)
    }

    /// Builds a history directly from operations (used by tests and by
    /// hand-crafted counterexample constructions).
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::NotWellFormed`] if a client overlaps its own
    /// operations.
    pub fn from_operations(ops: Vec<Operation>) -> Result<Self, HistoryError> {
        let history = History { ops };
        history.verify_well_formed()?;
        Ok(history)
    }

    fn verify_well_formed(&self) -> Result<(), HistoryError> {
        let mut by_client: BTreeMap<ClientId, Vec<&Operation>> = BTreeMap::new();
        for op in &self.ops {
            by_client.entry(op.id.client).or_default().push(op);
        }
        for (client, mut ops) in by_client {
            ops.sort_by_key(|o| o.invoked);
            for pair in ops.windows(2) {
                if !pair[0].precedes(pair[1]) {
                    return Err(HistoryError::NotWellFormed { client });
                }
            }
        }
        Ok(())
    }

    /// All operations, in completion order of the underlying event stream.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The write operations.
    pub fn writes(&self) -> impl Iterator<Item = &Operation> + '_ {
        self.ops.iter().filter(|o| o.is_write())
    }

    /// The read operations.
    pub fn reads(&self) -> impl Iterator<Item = &Operation> + '_ {
        self.ops.iter().filter(|o| o.is_read())
    }

    /// The operations of one client, in program order.
    pub fn by_client(&self, client: ClientId) -> Vec<&Operation> {
        let mut ops: Vec<&Operation> =
            self.ops.iter().filter(|o| o.id.client == client).collect();
        ops.sort_by_key(|o| o.invoked);
        ops
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ops: Vec<&Operation> = self.ops.iter().collect();
        ops.sort_by_key(|o| o.invoked);
        for op in ops {
            let what = match op.kind {
                OpKind::Read => format!("read() = {}", op.tagged_value()),
                OpKind::Write(v) => format!("write({v}) @ {}", op.tagged_value().tag()),
            };
            writeln!(f, "[{} … {}] {}: {}", op.invoked, op.completed, op.id, what)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_types::{Tag, Value, WriterId};

    fn ts(t: u64, s: u64) -> Timestamp {
        Timestamp { time: SimTime::from_ticks(t), seq: s }
    }

    fn tv(ts_: u64, w: u32, v: u64) -> TaggedValue {
        TaggedValue::new(Tag::new(ts_, WriterId::new(w)), Value::new(v))
    }

    fn write_op(client: u32, seq: u64, tag: TaggedValue, s: u64, f: u64) -> Operation {
        Operation {
            id: OpId { client: ClientId::writer(client), seq },
            kind: OpKind::Write(tag.value()),
            result: OpResult::Written(tag),
            invoked: ts(s, s),
            completed: ts(f, f),
        }
    }

    fn read_op(client: u32, seq: u64, tag: TaggedValue, s: u64, f: u64) -> Operation {
        Operation {
            id: OpId { client: ClientId::reader(client), seq },
            kind: OpKind::Read,
            result: OpResult::Read(tag),
            invoked: ts(s, s),
            completed: ts(f, f),
        }
    }

    #[test]
    fn precedence_and_concurrency() {
        let a = write_op(0, 0, tv(1, 0, 1), 0, 10);
        let b = read_op(0, 0, tv(1, 0, 1), 11, 20);
        let c = read_op(1, 0, tv(1, 0, 1), 5, 15);
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        assert!(a.concurrent_with(&c));
        assert!(c.concurrent_with(&b));
    }

    #[test]
    fn from_events_pairs_invocations_and_completions() {
        let op = OpId { client: ClientId::writer(0), seq: 0 };
        let tvv = tv(1, 0, 9);
        let events = vec![
            (SimTime::ZERO, ClientEvent::Invoked { op, kind: OpKind::Write(Value::new(9)) }),
            (
                SimTime::from_ticks(4),
                ClientEvent::Completed {
                    op,
                    kind: OpKind::Write(Value::new(9)),
                    result: OpResult::Written(tvv),
                },
            ),
        ];
        let h = History::from_events(&events).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.writes().count(), 1);
        assert_eq!(h.ops()[0].tagged_value(), tvv);
        assert!(h.ops()[0].invoked < h.ops()[0].completed);
    }

    #[test]
    fn pending_operations_are_rejected_by_default() {
        let op = OpId { client: ClientId::reader(0), seq: 0 };
        let events = vec![(SimTime::ZERO, ClientEvent::Invoked { op, kind: OpKind::Read })];
        assert_eq!(
            History::from_events(&events),
            Err(HistoryError::PendingOperations { ops: vec![op] })
        );
        let h = History::from_events_with_open_ops(&events).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.ops()[0].completed, Timestamp::MAX);
    }

    #[test]
    fn orphan_completion_is_rejected() {
        let op = OpId { client: ClientId::reader(0), seq: 0 };
        let events = vec![(
            SimTime::ZERO,
            ClientEvent::Completed {
                op,
                kind: OpKind::Read,
                result: OpResult::Read(TaggedValue::initial()),
            },
        )];
        assert_eq!(
            History::from_events(&events),
            Err(HistoryError::CompletionWithoutInvocation { op })
        );
    }

    #[test]
    fn overlapping_client_ops_are_rejected() {
        let ops = vec![
            read_op(0, 0, tv(0, 0, 0), 0, 10),
            read_op(0, 1, tv(0, 0, 0), 5, 15), // same reader overlaps itself
        ];
        assert_eq!(
            History::from_operations(ops),
            Err(HistoryError::NotWellFormed { client: ClientId::reader(0) })
        );
    }

    #[test]
    fn by_client_is_in_program_order() {
        let h = History::from_operations(vec![
            read_op(0, 1, tv(1, 0, 1), 20, 30),
            read_op(0, 0, tv(1, 0, 1), 0, 10),
            read_op(1, 0, tv(1, 0, 1), 0, 10),
        ])
        .unwrap();
        let r0 = h.by_client(ClientId::reader(0));
        assert_eq!(r0.len(), 2);
        assert!(r0[0].invoked < r0[1].invoked);
    }

    #[test]
    fn display_is_sorted_by_invocation() {
        let h = History::from_operations(vec![
            read_op(0, 0, tv(1, 0, 5), 12, 20),
            write_op(0, 0, tv(1, 0, 5), 0, 10),
        ])
        .unwrap();
        let text = h.to_string();
        let w_pos = text.find("write(5)").unwrap();
        let r_pos = text.find("read()").unwrap();
        assert!(w_pos < r_pos, "write should render first:\n{text}");
    }
}
