//! Polynomial-time atomicity checking for uniquely-tagged register
//! histories, by constraint-graph saturation.
//!
//! Every write in our histories carries a unique [`TaggedValue`] (tags embed
//! the writer id, and each writer's timestamps increase), so the *reads-from*
//! relation is observable. Under unique values, atomicity (Definition 2.1 of
//! the paper) is decidable in polynomial time by saturating an order graph
//! with four sound rules and checking acyclicity:
//!
//! 1. **Real-time**: `a → b` when `a.f < b.s` (the paper's `≺σ`).
//! 2. **Read-from**: `w(v) → r(v)`.
//! 3. **No intervening write before the read's source**: if `w' ⇝ r(v)` for
//!    a write `w' ≠ w(v)`, then `w' → w(v)` — otherwise `w'` would fall
//!    between `w(v)` and `r(v)` in any linearization extending the graph,
//!    contradicting the read-from requirement.
//! 4. **Reads precede later writes**: if `w(v) ⇝ w'`, then `r(v) → w'`.
//!
//! (`⇝` is reachability.) Saturation runs rules 3–4 to fixpoint, recomputing
//! reachability; the history is atomic iff the final graph is acyclic. For
//! registers with unique values this rule set is complete (Gibbons & Korach's
//! *VL* analysis; cf. Wei et al.'s atomicity verification, ref [28] of the
//! paper) — the property-based tests in this crate cross-validate the verdict
//! against the exhaustive [`search`](crate::search_atomicity) oracle on
//! thousands of random histories.
//!
//! Complexity: `O(k · n³/64)` with bitset reachability, where `k` is the
//! number of saturation rounds (tiny in practice) — paid only by histories
//! whose tag order is not already a legal linearization; the rest are
//! accepted by an `O(n log n)` sweep before any matrix is built (see
//! [`check_atomicity`]). The `checker` Criterion bench measures both.

use std::collections::BTreeMap;
use std::fmt;

use mwr_types::TaggedValue;

use crate::history::{History, Operation, Timestamp};
use mwr_core::OpId;

/// A node in a violation witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessNode {
    /// The virtual write that installed the initial value `(0, ⊥)`.
    InitialWrite,
    /// A real operation.
    Op(OpId),
}

impl fmt::Display for WitnessNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessNode::InitialWrite => write!(f, "⟨init⟩"),
            WitnessNode::Op(op) => write!(f, "{op}"),
        }
    }
}

/// Why a history is not atomic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A read returned a value no write produced ("thin air").
    ReadWithoutSource {
        /// The offending read.
        read: OpId,
        /// The unexplained value.
        value: TaggedValue,
    },
    /// Two writes produced the same tag — the tag discipline itself broke
    /// (MWA0 fallout), so reads-from is ambiguous.
    DuplicateWriteTag {
        /// The shared tag.
        value: TaggedValue,
        /// The two writes.
        writes: (OpId, OpId),
    },
    /// The saturated order graph has a cycle: no linearization can satisfy
    /// both the real-time order and the read-from requirement.
    Cycle {
        /// Operations forming the cycle, in order.
        nodes: Vec<WitnessNode>,
    },
    /// The history contains operations that never completed; run the
    /// execution to quiescence before checking.
    OpenOperations {
        /// How many operations were open.
        count: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ReadWithoutSource { read, value } => {
                write!(f, "read {read} returned {value}, which no write produced")
            }
            Violation::DuplicateWriteTag { value, writes } => write!(
                f,
                "writes {} and {} both produced {value}",
                writes.0, writes.1
            ),
            Violation::Cycle { nodes } => {
                write!(f, "ordering contradiction: ")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, " → ")?;
                    }
                    write!(f, "{n}")?;
                }
                Ok(())
            }
            Violation::OpenOperations { count } => {
                write!(f, "{count} operation(s) never completed")
            }
        }
    }
}

/// The outcome of a consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The history satisfies the property.
    Ok,
    /// The history violates it, with a witness.
    Violation(Violation),
}

impl Verdict {
    /// Whether the property holds.
    pub fn is_ok(&self) -> bool {
        matches!(self, Verdict::Ok)
    }

    /// The violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            Verdict::Ok => None,
            Verdict::Violation(v) => Some(v),
        }
    }
}

/// Square bitset adjacency/reachability matrix.
#[derive(Clone)]
struct BitMatrix {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

impl BitMatrix {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitMatrix { n, words, rows: vec![0; n * words] }
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize) {
        self.rows[i * self.words + j / 64] |= 1 << (j % 64);
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> bool {
        self.rows[i * self.words + j / 64] & (1 << (j % 64)) != 0
    }

    /// Warshall's transitive closure with word-parallel row unions.
    fn transitive_closure(&self) -> BitMatrix {
        let mut c = self.clone();
        for k in 0..c.n {
            let krow: Vec<u64> =
                c.rows[k * c.words..(k + 1) * c.words].to_vec();
            for i in 0..c.n {
                if c.get(i, k) {
                    let base = i * c.words;
                    for (w, &bits) in krow.iter().enumerate() {
                        c.rows[base + w] |= bits;
                    }
                }
            }
        }
        c
    }
}

/// A direct-edge graph with an incrementally maintained transitive closure.
///
/// The saturation loop adds edges one at a time; recomputing a full
/// Warshall closure per round made each round `O(n³/64)` and dominated the
/// checker on long histories (the ROADMAP's second perf item). Instead the
/// closure is computed once and then *maintained*: inserting `u → v` unions
/// `reach(v) ∪ {v}` into the row of `u` and of every node that reaches `u`
/// — `O(n²/64)` per edge that actually changes reachability, and a no-op
/// for edges already implied.
struct Reach {
    /// Direct edges only (what `extract_cycle` walks).
    direct: BitMatrix,
    /// Reachability over `direct` (irreflexive unless a cycle exists).
    closed: BitMatrix,
}

impl Reach {
    fn new(direct: BitMatrix) -> Self {
        let closed = direct.transitive_closure();
        Reach { direct, closed }
    }

    /// First node on a cycle, if any.
    fn cycle_node(&self) -> Option<usize> {
        (0..self.closed.n).find(|&i| self.closed.get(i, i))
    }

    /// Whether `j` is reachable from `i` via one or more direct edges.
    #[inline]
    fn reaches(&self, i: usize, j: usize) -> bool {
        self.closed.get(i, j)
    }

    /// Inserts the direct edge `u → v`, updating the closure. Returns
    /// `Some(node)` if the insertion created a cycle through `node`.
    fn add_edge(&mut self, u: usize, v: usize) -> Option<usize> {
        self.direct.set(u, v);
        if self.closed.get(u, v) {
            return None; // already implied: closure unchanged
        }
        let creates_cycle = u == v || self.closed.get(v, u);
        // target = reach(v) ∪ {v}
        let words = self.closed.words;
        let mut target: Vec<u64> = self.closed.rows[v * words..(v + 1) * words].to_vec();
        target[v / 64] |= 1 << (v % 64);
        for i in 0..self.closed.n {
            if i == u || self.closed.get(i, u) {
                let base = i * words;
                for (w, &bits) in target.iter().enumerate() {
                    self.closed.rows[base + w] |= bits;
                }
            }
        }
        creates_cycle.then_some(u)
    }
}

/// Checks a history for atomicity (Definition 2.1).
///
/// # Cost
///
/// A history whose tag order is itself a legal linearization — every run
/// of the paper's algorithms, hence every all-clear simulator history and
/// auditor window — is accepted by one invocation-order sweep in
/// `O(n log n)` (see [`check_mwa`](crate::check_mwa)). Only when the sweep
/// does not say `Ok` is the order graph built and saturated, `O(k · n³/64)`
/// (module docs); that path is the arbiter, so the sweep can only ever
/// save time, never change a verdict.
///
/// # Witnesses
///
/// [`Violation::DuplicateWriteTag`] and [`Violation::ReadWithoutSource`]
/// name the first offender in history order; a [`Violation::Cycle`] is a
/// shortest cycle through the node at which saturation closed one. The
/// sweep's own witness pairs are not reported here — ask
/// [`check_mwa`](crate::check_mwa) for them.
///
/// # Examples
///
/// A stale read is caught:
///
/// ```
/// use mwr_check::{check_atomicity, History, Operation, Timestamp};
/// use mwr_core::{OpId, OpKind, OpResult};
/// use mwr_sim::SimTime;
/// use mwr_types::{ClientId, Tag, TaggedValue, Value, WriterId};
///
/// let ts = |t: u64| Timestamp { time: SimTime::from_ticks(t), seq: t };
/// let v1 = TaggedValue::new(Tag::new(1, WriterId::new(0)), Value::new(1));
/// let v2 = TaggedValue::new(Tag::new(2, WriterId::new(1)), Value::new(2));
/// let history = History::from_operations(vec![
///     Operation { id: OpId { client: ClientId::writer(0), seq: 0 },
///                 kind: OpKind::Write(Value::new(1)),
///                 result: OpResult::Written(v1), invoked: ts(0), completed: ts(1) },
///     Operation { id: OpId { client: ClientId::writer(1), seq: 0 },
///                 kind: OpKind::Write(Value::new(2)),
///                 result: OpResult::Written(v2), invoked: ts(2), completed: ts(3) },
///     // Read after both writes returns the *older* value: not atomic.
///     Operation { id: OpId { client: ClientId::reader(0), seq: 0 },
///                 kind: OpKind::Read,
///                 result: OpResult::Read(v1), invoked: ts(4), completed: ts(5) },
/// ])?;
/// assert!(!check_atomicity(&history).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_atomicity(history: &History) -> Verdict {
    let open = history
        .ops()
        .iter()
        .filter(|o| o.completed == Timestamp::MAX)
        .count();
    if open > 0 {
        return Verdict::Violation(Violation::OpenOperations { count: open });
    }

    // Node 0 is the virtual initial write; real ops follow.
    let ops: Vec<&Operation> = history.ops().iter().collect();
    let n = ops.len() + 1;
    let node = |i: usize| i + 1;

    // Map each written tag to its write (an index into `ops`); detect
    // duplicates.
    let mut write_of: BTreeMap<TaggedValue, usize> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate().filter(|(_, o)| o.is_write()) {
        let value = op.tagged_value();
        // A real write that produced the initial tag is nonsensical; report
        // it as a duplicate of itself against the virtual write.
        let prev =
            if value == TaggedValue::initial() { Some(i) } else { write_of.insert(value, i) };
        if let Some(prev) = prev {
            return Verdict::Violation(Violation::DuplicateWriteTag {
                value,
                writes: (ops[prev].id, op.id),
            });
        }
    }

    // Fast path: a tag-disciplined history whose tag order is a legal
    // linearization is atomic: no duplicate tags (checked above) and every
    // read has a known source (the sweep looks each one up). One
    // `O(n log n)` sweep (`mwa::tag_order`, sharing `write_of`) decides it,
    // so the common all-clear case builds nothing of what follows — neither
    // the read → source pairs nor the `n × n` matrices.
    //
    // MWA0-MWA4 (paper Appendix A) are *almost* that condition, but not
    // quite: they constrain write/write (MWA0), write→read (MWA2) and
    // read/read (MWA4) pairs, yet say nothing about a write that follows a
    // read. An artificial history can satisfy all five while a later write
    // takes a tag *below* an already-returned value — property-based
    // cross-validation against the search oracle surfaced exactly such a
    // case. The paper's algorithms cannot produce it (a two-round write's
    // `maxTS + 1` dominates every previously-returned timestamp), which is
    // the implicit step in the appendix argument; for arbitrary histories
    // the fast path must check the read→write direction explicitly
    // (`TagOrderBreak::WriteBelowEarlierRead`).
    if crate::mwa::tag_order(history, &write_of).is_ok() {
        return Verdict::Ok;
    }

    // (read node, source write node) pairs. A read without a source did not
    // pass the sweep, so it is still reported here, first in history order.
    let mut reads: Vec<(usize, usize)> = Vec::new();
    for (i, op) in ops.iter().enumerate().filter(|(_, o)| o.is_read()) {
        let value = op.tagged_value();
        let source = if value == TaggedValue::initial() {
            Some(0)
        } else {
            write_of.get(&value).map(|&w| node(w))
        };
        match source {
            Some(w) => reads.push((node(i), w)),
            None => {
                return Verdict::Violation(Violation::ReadWithoutSource { read: op.id, value })
            }
        }
    }

    let writes: Vec<usize> = std::iter::once(0)
        .chain(ops.iter().enumerate().filter(|(_, o)| o.is_write()).map(|(i, _)| node(i)))
        .collect();

    let mut edges = BitMatrix::new(n);
    // Real-time edges; the virtual initial write precedes everything.
    for i in 1..n {
        edges.set(0, i);
    }
    for (i, a) in ops.iter().enumerate() {
        for (j, b) in ops.iter().enumerate() {
            if i != j && a.precedes(b) {
                edges.set(node(i), node(j));
            }
        }
    }
    // Read-from edges.
    for &(r, w) in &reads {
        if w != r {
            edges.set(w, r);
        }
    }

    // Saturate rules 3 and 4 with an incrementally maintained closure:
    // only edges that add reachability cost an O(n²/64) closure update.
    let mut reach = Reach::new(edges);
    if let Some(i) = reach.cycle_node() {
        return Verdict::Violation(Violation::Cycle {
            nodes: extract_cycle(&reach.direct, i, &ops),
        });
    }
    loop {
        let mut changed = false;
        for &(r, w) in &reads {
            for &w2 in &writes {
                if w2 == w {
                    continue;
                }
                // Rule 3: w2 ⇝ r implies w2 → w.
                if reach.reaches(w2, r) && !reach.direct.get(w2, w) {
                    changed = true;
                    if let Some(i) = reach.add_edge(w2, w) {
                        return Verdict::Violation(Violation::Cycle {
                            nodes: extract_cycle(&reach.direct, i, &ops),
                        });
                    }
                }
                // Rule 4: w ⇝ w2 implies r → w2.
                if reach.reaches(w, w2) && !reach.direct.get(r, w2) {
                    changed = true;
                    if let Some(i) = reach.add_edge(r, w2) {
                        return Verdict::Violation(Violation::Cycle {
                            nodes: extract_cycle(&reach.direct, i, &ops),
                        });
                    }
                }
            }
        }
        if !changed {
            return Verdict::Ok;
        }
    }
}

/// Recovers a *shortest* concrete cycle through `start` for the witness.
///
/// BFS from `start` over the direct edges, stopping at the first dequeued
/// node with an edge back to `start`; the parent chain reconstructs the
/// cycle. O(V²) on the bitset adjacency — a path-enumerating DFS here is
/// exponential on the dense contradiction graphs that non-atomic
/// high-contention histories produce, and shortest witnesses read better
/// anyway.
fn extract_cycle(edges: &BitMatrix, start: usize, ops: &[&Operation]) -> Vec<WitnessNode> {
    let n = edges.n;
    let as_witness = |path: &[usize]| {
        path.iter()
            .map(|&i| {
                if i == 0 {
                    WitnessNode::InitialWrite
                } else {
                    WitnessNode::Op(ops[i - 1].id)
                }
            })
            .collect()
    };
    let mut parent = vec![usize::MAX; n];
    parent[start] = start;
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(v) = queue.pop_front() {
        if v != start && edges.get(v, start) {
            // Reconstruct start → … → v; the edge v → start closes it.
            let mut path = vec![v];
            let mut at = v;
            while at != start {
                at = parent[at];
                path.push(at);
            }
            path.reverse();
            return as_witness(&path);
        }
        // `j` is a graph-node id probed through the bitset, not a slice
        // traversal.
        #[allow(clippy::needless_range_loop)]
        for j in 0..n {
            if edges.get(v, j) && parent[j] == usize::MAX {
                parent[j] = v;
                queue.push_back(j);
            }
        }
    }
    // The caller only invokes this when the closure has `start ⇝ start`, so
    // a cycle through `start` must have been found above.
    vec![WitnessNode::InitialWrite]
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn empty_history_is_atomic() {
        assert!(check_atomicity(&History::default()).is_ok());
    }

    /// Regression: MWA0–MWA4 alone are not sufficient for atomicity of
    /// arbitrary histories. Here a write (`wA`, tag `(1, w2)`) begins after
    /// a read already returned the larger tag `(1, w3)`; every MWA property
    /// holds (they never compare a read with a *later* write), yet no
    /// linearization exists: read-from forces `w3 ≺ r1 ≺ wA ≺ w3`. The
    /// fast path must therefore also check the read→write direction. Found
    /// by property-based cross-validation against the search oracle.
    #[test]
    fn write_after_read_with_smaller_tag_is_caught_despite_mwa() {
        let history = History::from_operations(vec![
            write(0, 0, tv(1, 0, 68), 0, 5),
            write(1, 0, tv(1, 1, 57), 13, 17), // follows r0, smaller tag than (1, w2)
            write(2, 0, tv(1, 2, 7), 11, 19),
            read(0, 0, tv(1, 2, 7), 1, 12), // overlaps the (1, w2) write, precedes (1, w1)
            read(1, 0, tv(1, 2, 7), 14, 24),
            read(1, 1, tv(1, 2, 7), 32, 36),
        ])
        .unwrap();
        assert!(crate::check_mwa(&history).is_ok(), "all five MWA properties hold");
        let verdict = check_atomicity(&history);
        assert!(
            matches!(verdict, Verdict::Violation(Violation::Cycle { .. })),
            "got {verdict:?}"
        );
        assert!(!crate::search_atomicity(&history).is_ok(), "the oracle agrees");
    }

    #[test]
    fn sequential_write_read_is_atomic() {
        let v = tv(1, 0, 1);
        let h = History::from_operations(vec![
            write(0, 0, v, 0, 10),
            read(0, 0, v, 20, 30),
        ])
        .unwrap();
        assert!(check_atomicity(&h).is_ok());
    }

    #[test]
    fn read_of_initial_before_any_write_is_atomic() {
        let h = History::from_operations(vec![
            read(0, 0, TaggedValue::initial(), 0, 10),
            write(0, 0, tv(1, 0, 1), 20, 30),
        ])
        .unwrap();
        assert!(check_atomicity(&h).is_ok());
    }

    #[test]
    fn read_of_initial_after_a_write_is_a_violation() {
        let h = History::from_operations(vec![
            write(0, 0, tv(1, 0, 1), 0, 10),
            read(0, 0, TaggedValue::initial(), 20, 30),
        ])
        .unwrap();
        let verdict = check_atomicity(&h);
        assert!(matches!(verdict.violation(), Some(Violation::Cycle { .. })), "{verdict:?}");
    }

    #[test]
    fn stale_read_after_two_writes_is_a_violation() {
        let v1 = tv(1, 0, 1);
        let v2 = tv(2, 1, 2);
        let h = History::from_operations(vec![
            write(0, 0, v1, 0, 10),
            write(1, 0, v2, 20, 30),
            read(0, 0, v1, 40, 50),
        ])
        .unwrap();
        assert!(!check_atomicity(&h).is_ok());
    }

    #[test]
    fn concurrent_writes_allow_either_read_order_consistently() {
        let v1 = tv(1, 0, 1);
        let v2 = tv(1, 1, 2);
        // Two concurrent writes; later reads agree on v2 then stay at v2.
        let h = History::from_operations(vec![
            write(0, 0, v1, 0, 100),
            write(1, 0, v2, 0, 100),
            read(0, 0, v2, 110, 120),
            read(1, 0, v2, 130, 140),
        ])
        .unwrap();
        assert!(check_atomicity(&h).is_ok());
    }

    #[test]
    fn new_old_inversion_between_reads_is_a_violation() {
        let v1 = tv(1, 0, 1);
        let v2 = tv(1, 1, 2);
        // r1 sees v2, then a later r2 sees v1: the paper's canonical
        // atomicity violation (read-read inversion).
        let h = History::from_operations(vec![
            write(0, 0, v1, 0, 100),
            write(1, 0, v2, 0, 100),
            read(0, 0, v2, 110, 120),
            read(1, 0, v1, 130, 140),
        ])
        .unwrap();
        assert!(!check_atomicity(&h).is_ok());
    }

    #[test]
    fn read_concurrent_with_write_may_return_old_or_new() {
        let v1 = tv(1, 0, 1);
        for returned in [TaggedValue::initial(), v1] {
            let h = History::from_operations(vec![
                write(0, 0, v1, 0, 100),
                read(0, 0, returned, 50, 60),
            ])
            .unwrap();
            assert!(check_atomicity(&h).is_ok(), "returned {returned}");
        }
    }

    #[test]
    fn thin_air_read_is_reported() {
        let h = History::from_operations(vec![read(0, 0, tv(7, 0, 7), 0, 10)]).unwrap();
        assert!(matches!(
            check_atomicity(&h).violation(),
            Some(Violation::ReadWithoutSource { .. })
        ));
    }

    #[test]
    fn duplicate_write_tags_are_reported() {
        let v = tv(1, 0, 1);
        let h = History::from_operations(vec![
            write(0, 0, v, 0, 10),
            write(0, 1, v, 20, 30),
        ])
        .unwrap();
        assert!(matches!(
            check_atomicity(&h).violation(),
            Some(Violation::DuplicateWriteTag { .. })
        ));
    }

    #[test]
    fn write_read_ping_pong_chain_is_atomic() {
        // w1 → r(v1) ∥ w2 → r(v2) with proper ordering.
        let v1 = tv(1, 0, 1);
        let v2 = tv(2, 1, 2);
        let h = History::from_operations(vec![
            write(0, 0, v1, 0, 10),
            read(0, 0, v1, 5, 25), // concurrent with w1's tail: returns v1
            write(1, 0, v2, 30, 40),
            read(1, 0, v2, 35, 50),
            read(0, 1, v2, 60, 70),
        ])
        .unwrap();
        assert!(check_atomicity(&h).is_ok());
    }

    #[test]
    fn future_read_is_a_violation() {
        // Read completes before the write that produced its value begins.
        let v1 = tv(1, 0, 1);
        let h = History::from_operations(vec![
            read(0, 0, v1, 0, 10),
            write(0, 0, v1, 20, 30),
        ])
        .unwrap();
        assert!(!check_atomicity(&h).is_ok());
    }

    #[test]
    fn open_operations_are_rejected() {
        let mut op = read(0, 0, TaggedValue::initial(), 0, 10);
        op.completed = Timestamp::MAX;
        let h = History::from_operations(vec![op]).unwrap();
        assert!(matches!(
            check_atomicity(&h).violation(),
            Some(Violation::OpenOperations { count: 1 })
        ));
    }

    #[test]
    fn violation_display_is_informative() {
        let h = History::from_operations(vec![read(0, 0, tv(7, 0, 7), 0, 10)]).unwrap();
        let text = check_atomicity(&h).violation().unwrap().to_string();
        assert!(text.contains("no write produced"), "{text}");
    }
}
