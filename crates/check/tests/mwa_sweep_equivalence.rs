//! Differential pin for the invocation-order sweep behind [`check_mwa`] and
//! the fast path of [`check_atomicity`].
//!
//! The five nested pair scans the sweep replaced live on here, verbatim, as
//! the oracle (`oracle_check_mwa`, `oracle_writes_dominate_preceding_reads`).
//! On every generated history the sweep must give the same `Ok`/`Err` and
//! the same [`MwaViolation`] variant as the scans, and the pair it names
//! must really violate that property (the scans name the first violating
//! pair in history order, the sweep the running-maximum one, so the pairs
//! themselves may differ). The read→write check has no public face of its
//! own, so it is pinned through [`check_atomicity`]: whatever the scans
//! accept must be `Ok`, and on histories small enough for the exhaustive
//! [`search_atomicity`] the verdicts must agree outright.
//!
//! Three classes of history, ≥ 256 cases each:
//!
//! - *scattered*: every operation its own client, so intervals overlap at
//!   will; stamps and tags from tiny domains, so equal stamps, inverted
//!   intervals, duplicate write tags and reads of unwritten values are all
//!   common;
//! - *disciplined*: sequential operations per client against an honest
//!   register model (atomic by construction, coarse clock so stamps tie),
//!   then at most one corrupted field;
//! - *simulated*: a W2R1 simulator run, then at most one corrupted field.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mwr_check::{
    check_atomicity, check_mwa, search_atomicity, History, MwaViolation, Operation, Timestamp,
    Verdict, Violation,
};
use mwr_core::{Cluster, OpId, OpKind, OpResult, Protocol, ScheduledOp, SimCluster};
use mwr_sim::SimTime;
use mwr_types::{ClientId, ClusterConfig, Tag, TaggedValue, Value, WriterId};

use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The oracle: `check_mwa` and `writes_dominate_preceding_reads` exactly as
// they stood before the sweep.
// ---------------------------------------------------------------------

fn oracle_check_mwa(history: &History) -> Result<(), MwaViolation> {
    if history.ops().iter().any(|o| o.completed == Timestamp::MAX) {
        return Err(MwaViolation::Open);
    }
    let writes: Vec<_> = history.writes().collect();
    let reads: Vec<_> = history.reads().collect();

    // MWA0.
    for a in &writes {
        for b in &writes {
            if a.precedes(b) && a.tagged_value() >= b.tagged_value() {
                return Err(MwaViolation::Mwa0 { first: a.id, second: b.id });
            }
        }
    }
    // MWA1: tags are non-negative by construction; assert the invariant.
    for r in &reads {
        if r.tagged_value() < TaggedValue::initial() {
            return Err(MwaViolation::Mwa1 { read: r.id });
        }
    }
    // MWA2.
    for w in &writes {
        for r in &reads {
            if w.precedes(r) && r.tagged_value() < w.tagged_value() {
                return Err(MwaViolation::Mwa2 { write: w.id, read: r.id });
            }
        }
    }
    // MWA3 (requires locating each read's source write).
    for r in &reads {
        let v = r.tagged_value();
        if v == TaggedValue::initial() {
            continue; // wr_{0,⊥} is never invoked (paper Appendix A.1)
        }
        let Some(src) = writes.iter().find(|w| w.tagged_value() == v) else {
            return Err(MwaViolation::UnknownSource { read: r.id, value: v });
        };
        if r.precedes(src) {
            return Err(MwaViolation::Mwa3 { read: r.id, write: src.id });
        }
    }
    // MWA4.
    for a in &reads {
        for b in &reads {
            if a.precedes(b) && b.tagged_value() < a.tagged_value() {
                return Err(MwaViolation::Mwa4 { first: a.id, second: b.id });
            }
        }
    }
    Ok(())
}

fn oracle_writes_dominate_preceding_reads(history: &History) -> bool {
    history.reads().all(|r| {
        history
            .writes()
            .all(|w| !r.precedes(w) || w.tagged_value().tag() > r.tagged_value().tag())
    })
}

// ---------------------------------------------------------------------
// Judging one history.
// ---------------------------------------------------------------------

fn outcome_name(outcome: &Result<(), MwaViolation>) -> &'static str {
    match outcome {
        Ok(()) => "Ok",
        Err(MwaViolation::Mwa0 { .. }) => "Mwa0",
        Err(MwaViolation::Mwa1 { .. }) => "Mwa1",
        Err(MwaViolation::Mwa2 { .. }) => "Mwa2",
        Err(MwaViolation::Mwa3 { .. }) => "Mwa3",
        Err(MwaViolation::Mwa4 { .. }) => "Mwa4",
        Err(MwaViolation::UnknownSource { .. }) => "UnknownSource",
        Err(MwaViolation::Open) => "Open",
    }
}

/// Whether the operations `violation` names break the property it names,
/// judged from the definitions. Operation ids are unique in every
/// generated history.
fn genuinely_violates(history: &History, violation: MwaViolation) -> bool {
    let op = |id: OpId| {
        history.ops().iter().find(|o| o.id == id).expect("the witness is an op of the history")
    };
    match violation {
        MwaViolation::Mwa0 { first, second } => {
            let (a, b) = (op(first), op(second));
            a.is_write() && b.is_write() && a.precedes(b) && a.tagged_value() >= b.tagged_value()
        }
        // Nothing orders below the initial value.
        MwaViolation::Mwa1 { .. } => false,
        MwaViolation::Mwa2 { write, read } => {
            let (w, r) = (op(write), op(read));
            w.is_write() && r.is_read() && w.precedes(r) && r.tagged_value() < w.tagged_value()
        }
        MwaViolation::Mwa3 { read, write } => {
            let (r, w) = (op(read), op(write));
            r.is_read()
                && w.is_write()
                && r.tagged_value() != TaggedValue::initial()
                && w.tagged_value() == r.tagged_value()
                && r.precedes(w)
        }
        MwaViolation::Mwa4 { first, second } => {
            let (a, b) = (op(first), op(second));
            a.is_read() && b.is_read() && a.precedes(b) && b.tagged_value() < a.tagged_value()
        }
        MwaViolation::UnknownSource { read, value } => {
            let r = op(read);
            r.is_read()
                && r.tagged_value() == value
                && value != TaggedValue::initial()
                && history.writes().all(|w| w.tagged_value() != value)
        }
        MwaViolation::Open => history.ops().iter().any(|o| o.completed == Timestamp::MAX),
    }
}

/// Outcomes seen so far, per class of history.
static SEEN: Mutex<BTreeMap<(&'static str, &'static str), u32>> = Mutex::new(BTreeMap::new());

fn seen(class: &'static str, outcome: &'static str) -> u32 {
    SEEN.lock().unwrap().get(&(class, outcome)).copied().unwrap_or(0)
}

fn cases(class: &'static str) -> u32 {
    SEEN.lock().unwrap().iter().filter(|((c, _), _)| *c == class).map(|(_, n)| n).sum()
}

/// Histories the exhaustive oracle is asked about (it is exponential in
/// the worst case).
const SEARCHABLE: usize = 14;

fn sweep_agrees_with_scans(class: &'static str, history: &History) -> Result<(), TestCaseError> {
    let expected = oracle_check_mwa(history);
    let got = check_mwa(history);
    prop_assert_eq!(
        outcome_name(&got),
        outcome_name(&expected),
        "sweep {:?} vs scans {:?} on:\n{}",
        got,
        expected,
        history
    );
    if let Err(violation) = got {
        prop_assert!(
            genuinely_violates(history, violation),
            "{:?} does not hold of the operations it names:\n{}",
            violation,
            history
        );
        // These three are decided in history order by sweep and scans
        // alike, so even the witness must match.
        if matches!(
            violation,
            MwaViolation::Mwa3 { .. } | MwaViolation::UnknownSource { .. } | MwaViolation::Open
        ) {
            prop_assert_eq!(Err(violation), expected, "on:\n{}", history);
        }
    }

    let verdict = check_atomicity(history);
    let ambiguous = matches!(verdict, Verdict::Violation(Violation::DuplicateWriteTag { .. }));
    if expected.is_ok() && oracle_writes_dominate_preceding_reads(history) && !ambiguous {
        prop_assert!(verdict.is_ok(), "the scans accept, not the checker:\n{}", history);
    }
    // An interval that ends before it starts makes real-time precedence
    // cyclic (two operations can each precede the other); the tag-order
    // fast path, scans or sweep, never looked for that, so the search is
    // only asked about histories whose intervals run forwards.
    let forwards = history.ops().iter().all(|o| o.invoked <= o.completed);
    if history.len() <= SEARCHABLE && !ambiguous && forwards {
        prop_assert_eq!(
            verdict.is_ok(),
            search_atomicity(history).is_ok(),
            "checker {:?} splits from the exhaustive search on:\n{}",
            verdict,
            history
        );
    }
    *SEEN.lock().unwrap().entry((class, outcome_name(&expected))).or_default() += 1;
    Ok(())
}

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

fn at(time: u64, seq: u64) -> Timestamp {
    Timestamp { time: SimTime::from_ticks(time), seq }
}

/// Value `k` of an eight-value domain: the initial value, then
/// `(timestamp, writer, payload)` triples. The second and third share a
/// tag — a payload forged under a genuine tag — which is the one case
/// where comparing tags and comparing tagged values differ.
fn small_value(k: u8) -> TaggedValue {
    const WRITTEN: [(u64, u32, u64); 7] =
        [(1, 0, 10), (1, 0, 99), (1, 1, 11), (1, 2, 12), (2, 0, 20), (2, 1, 21), (2, 2, 22)];
    match k.checked_sub(1) {
        None => TaggedValue::initial(),
        Some(k) => {
            let (ts, w, payload) = WRITTEN[usize::from(k)];
            TaggedValue::new(Tag::new(ts, WriterId::new(w)), Value::new(payload))
        }
    }
}

fn operation(id: OpId, value: TaggedValue, invoked: Timestamp, completed: Timestamp) -> Operation {
    let (kind, result) = if id.client.as_writer().is_some() {
        (OpKind::Write(value.value()), OpResult::Written(value))
    } else {
        (OpKind::Read, OpResult::Read(value))
    };
    Operation { id, kind, result, invoked, completed }
}

/// `(kind, value, (start, length, start seq, end seq), oddity)`.
type Scattered = (u8, u8, (u64, u64, u64, u64), u8);

/// Every operation is its own client, so any set of intervals is
/// well-formed. `kind` 0 is a write; `oddity` 0 inverts the interval, 1
/// leaves the operation open.
fn scattered_history(specs: Vec<Scattered>) -> History {
    let ops = specs
        .into_iter()
        .enumerate()
        .map(|(i, (kind, value, (start, len, seq_s, seq_f), oddity))| {
            let i = i as u32;
            let client = if kind == 0 { ClientId::writer(i) } else { ClientId::reader(i) };
            // Writes never mint the initial value: that is a verdict of
            // its own in `check_atomicity` and uninteresting here.
            let value = small_value(if kind == 0 { value.max(1) } else { value });
            // Writes run long: two reads can only break MWA4 without also
            // breaking MWA2 or MWA3 inside the write they disagree about.
            let len = if kind == 0 { 3 * len } else { len };
            let (mut invoked, mut completed) = (at(start, seq_s), at(start + len, seq_f));
            match oddity {
                0 => std::mem::swap(&mut invoked, &mut completed),
                1 => completed = Timestamp::MAX,
                _ => {}
            }
            operation(OpId { client, seq: 0 }, value, invoked, completed)
        })
        .collect();
    History::from_operations(ops).expect("one op per client is always well-formed")
}

/// Up to `max_ops` operations, one in `kinds` of them a write, over the
/// first `values` of [`small_value`]'s domain, one in `oddities` inverted
/// and as many left open.
fn scattered(
    max_ops: usize,
    kinds: u8,
    values: u8,
    oddities: u8,
) -> impl Strategy<Value = History> {
    vec((0..kinds, 0..values, (0u64..10, 0u64..5, 0u64..3, 0u64..3), 0..oddities), 0..=max_ops)
        .prop_map(scattered_history)
}

/// Up to three long writes from instant 0 and a handful of short reads
/// that each return one of their values or the initial one: while the
/// writes run only MWA4 constrains the reads, afterwards MWA2 does too.
fn inversions() -> impl Strategy<Value = History> {
    (vec(10u64..40, 1..=3), vec((0u64..24, 0u64..3, 0u8..12), 2..8)).prop_map(|(writes, reads)| {
        let values = writes.len() as u8 + 1;
        let writes = writes.iter().zip(0u32..).map(|(&end, w)| {
            let id = OpId { client: ClientId::writer(w), seq: 0 };
            operation(id, small_value(w as u8 + 1), at(0, 0), at(end, 0))
        });
        let reads = reads.iter().zip(0u32..).map(|(&(start, len, value), r)| {
            let id = OpId { client: ClientId::reader(r), seq: 0 };
            operation(id, small_value(value % values), at(start, 1), at(start + len, 1))
        });
        let ops = writes.chain(reads).collect();
        History::from_operations(ops).expect("one op per client is always well-formed")
    })
}

/// `(client, gap before, length, instant of effect within the interval)`.
type Disciplined = (u8, u64, u64, u64);

/// Three writers and three readers, each issuing its operations one after
/// another; every operation takes effect at one instant inside its
/// interval, in that order, against a register — so the history is atomic
/// and its tag order is the linearization. All stamps share `seq` 0, so
/// operations of different clients tie often.
fn disciplined_ops(specs: &[Disciplined]) -> Vec<Operation> {
    let mut clock = [0u64; 6];
    let mut seqs = [0u64; 6];
    // (effect instant, client, seq, invoked, completed)
    let mut laid_out: Vec<(u64, usize, u64, u64, u64)> = Vec::new();
    for &(client, gap, len, point) in specs {
        let c = usize::from(client % 6);
        let start = clock[c] + 1 + gap;
        let end = start + len;
        clock[c] = end;
        laid_out.push((start + point % (len + 1), c, seqs[c], start, end));
        seqs[c] += 1;
    }
    let mut by_effect: Vec<usize> = (0..laid_out.len()).collect();
    by_effect.sort_by_key(|&i| laid_out[i].0);
    let mut register = TaggedValue::initial();
    let mut next_ts = 0;
    let mut ops = Vec::new();
    for i in by_effect {
        let (_, c, seq, start, end) = laid_out[i];
        let id = if c < 3 {
            next_ts += 1;
            register = TaggedValue::new(
                Tag::new(next_ts, WriterId::new(c as u32)),
                Value::new(next_ts * 10 + c as u64),
            );
            OpId { client: ClientId::writer(c as u32), seq }
        } else {
            OpId { client: ClientId::reader(c as u32 - 3), seq }
        };
        ops.push(operation(id, register, at(start, 0), at(end, 0)));
    }
    ops
}

/// Rewrites one field of one operation (`how` 0 and 1 rewrite nothing):
/// the value to another operation's, to the initial one or to one nobody
/// wrote, or either stamp to another operation's. `None` if a client's
/// operations overlap afterwards.
fn corrupt(mut ops: Vec<Operation>, how: u8, target: usize, donor: usize) -> Option<History> {
    if !ops.is_empty() && how >= 2 {
        let donor = ops[donor % ops.len()];
        let target = target % ops.len();
        let op = &mut ops[target];
        match how {
            2 => *op = operation(op.id, donor.tagged_value(), op.invoked, op.completed),
            3 => *op = operation(op.id, TaggedValue::initial(), op.invoked, op.completed),
            4 => {
                let thin_air = TaggedValue::new(Tag::new(77, WriterId::new(1)), Value::new(7));
                *op = operation(op.id, thin_air, op.invoked, op.completed);
            }
            5 => op.invoked = donor.invoked,
            6 => op.invoked = donor.completed,
            7 => op.completed = donor.invoked,
            _ => op.completed = donor.completed,
        }
    }
    History::from_operations(ops).ok()
}

/// `(instant, client)` → a simulator schedule over two writers
/// and two readers, write values made unique.
fn schedule(specs: &[(u64, u32)]) -> Vec<(SimTime, ScheduledOp)> {
    specs
        .iter()
        .zip(1u64..)
        .map(|(&(at, client), n)| {
            let op = if client < 2 {
                ScheduledOp::Write { writer: client, value: Value::new(n) }
            } else {
                ScheduledOp::Read { reader: client - 2 }
            };
            (SimTime::from_ticks(at), op)
        })
        .collect()
}

// ---------------------------------------------------------------------
// The properties. The `proptest!` functions carry no `#[test]`: each is
// run by a plain test below that then checks what the run covered.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    fn scattered_small(history in scattered(6, 2, 8, 40)) {
        sweep_agrees_with_scans("scattered", &history)?;
    }

    fn scattered_large(history in scattered(40, 2, 8, 250)) {
        sweep_agrees_with_scans("scattered", &history)?;
    }

    /// Few writes and few values: most violations are between reads.
    fn scattered_reads(history in scattered(8, 4, 4, 60)) {
        sweep_agrees_with_scans("scattered", &history)?;
    }

    fn scattered_inversions(history in inversions()) {
        sweep_agrees_with_scans("scattered", &history)?;
    }

    fn disciplined_then_one_corruption(
        specs in vec((0u8..6, 0u64..3, 0u64..6, 0u64..6), 0..24),
        how in 0u8..9,
        target: usize,
        donor: usize,
    ) {
        if let Some(history) = corrupt(disciplined_ops(&specs), how, target, donor) {
            sweep_agrees_with_scans("disciplined", &history)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn simulated_then_one_corruption(
        specs in vec((0u64..120, 0u32..4), 1..=16),
        seed in 0u64..1000,
        how in 0u8..9,
        target: usize,
        donor: usize,
    ) {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster = Cluster::new(config, Protocol::W2R1);
        let events = cluster.run_schedule(seed, &schedule(&specs)).unwrap();
        let clean = History::from_events(&events).unwrap();
        if how < 2 {
            prop_assert_eq!(check_mwa(&clean), Ok(()), "W2R1 broke MWA:\n{}", clean);
        }
        if let Some(history) = corrupt(clean.ops().to_vec(), how, target, donor) {
            sweep_agrees_with_scans("simulated", &history)?;
        }
    }
}

/// Every outcome the types can express (MWA1 cannot occur: nothing orders
/// below the initial value).
const REPRESENTABLE: [&str; 7] = ["Ok", "Mwa0", "Mwa2", "Mwa3", "Mwa4", "UnknownSource", "Open"];

#[test]
fn scattered_histories_agree_and_reach_every_variant() {
    scattered_small();
    scattered_large();
    scattered_reads();
    scattered_inversions();
    assert!(cases("scattered") >= 256);
    for outcome in REPRESENTABLE {
        let n = seen("scattered", outcome);
        assert!(n >= 64, "only {n} scattered histories came out {outcome}");
    }
}

#[test]
fn disciplined_histories_agree_clean_and_corrupted() {
    disciplined_then_one_corruption();
    assert!(cases("disciplined") >= 256, "{} well-formed cases", cases("disciplined"));
    for outcome in ["Ok", "Mwa0", "Mwa2", "Mwa3", "Mwa4", "UnknownSource"] {
        assert!(seen("disciplined", outcome) > 0, "no disciplined history came out {outcome}");
    }
}

#[test]
fn simulated_histories_agree_clean_and_corrupted() {
    simulated_then_one_corruption();
    assert!(cases("simulated") >= 256, "{} well-formed cases", cases("simulated"));
    assert!(seen("simulated", "Ok") >= 64, "clean runs are the common case");
    let violating = cases("simulated") - seen("simulated", "Ok");
    assert!(violating >= 32, "only {violating} corruptions turned into a violation");
}

/// The read→write check compares *tags*, and an equal tag does not
/// dominate. Only a payload forged under a genuine tag gets there (with one
/// payload per tag the same pair already breaks MWA3), so the generators
/// rarely do; this is the smallest history that does. `w0` and `w1` mint
/// the same tag with different payloads; `r0` returns `w0`'s value before
/// `w1` begins, `r1` returns it again after `w1` ended. All five MWA
/// properties hold — yet `w0 ≺ r0 ≺ w1` in real time while `r1` needs `w0`
/// to be the last write before it: `w1 ≺ w0`.
#[test]
fn a_later_write_with_an_equal_tag_is_not_waved_through() {
    let (forged, genuine) = (small_value(2), small_value(1));
    assert!(forged.tag() == genuine.tag() && forged > genuine);
    let id = |client| OpId { client, seq: 0 };
    let history = History::from_operations(vec![
        operation(id(ClientId::writer(0)), forged, at(0, 0), at(50, 0)),
        operation(id(ClientId::reader(0)), forged, at(1, 0), at(5, 0)),
        operation(id(ClientId::writer(1)), genuine, at(10, 0), at(20, 0)),
        operation(id(ClientId::reader(1)), forged, at(30, 0), at(40, 0)),
    ])
    .unwrap();
    assert_eq!(check_mwa(&history), Ok(()));
    assert_eq!(oracle_check_mwa(&history), Ok(()));
    assert!(!oracle_writes_dominate_preceding_reads(&history));
    assert!(!search_atomicity(&history).is_ok());
    assert!(!check_atomicity(&history).is_ok());
}
