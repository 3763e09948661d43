//! A live server runs `ServerBank::handle` on whatever a peer's bytes decode
//! to — on TCP on the reactor thread that reads every endpoint of the
//! registry — so no decodable frame may make it panic (ROADMAP item 10a).
//!
//! Inputs are arbitrary bytes and byte-mutated valid frames of every `Msg`
//! discriminant, bare and nested in `ForRegister` and `InEpoch` headers.
//! Every input `Msg::decode` accepts is handed, from an arbitrary sender,
//! to one warm bank per case, in sequence, so hostile frames also meet the
//! state earlier ones left behind.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::BytesMut;
use proptest::collection::vec;
use proptest::prelude::*;

use mwr_core::{Msg, OpHandle, OpId, Router, ServerBank};
use mwr_types::codec::{DecodeError, Wire};
use mwr_types::{ClientId, ConfigEpoch, ProcessId, RegisterId, Tag, TaggedValue, Value, WriterId};

fn handle(client: ClientId, seq: u64) -> OpHandle {
    OpHandle { op: OpId { client, seq }, phase: 1 }
}

fn tagged(ts: u64, v: u64) -> TaggedValue {
    TaggedValue::new(Tag::new(ts, WriterId::new(0)), Value::new(v))
}

/// A bank that has seen writes and reads on the default register and on
/// three keyed ones.
fn warm_bank() -> ServerBank {
    let mut bank = ServerBank::new(2, Router::new(3, 3, 4));
    for (seq, register) in [None, Some(1), Some(2), Some(3)].into_iter().enumerate() {
        let seq = seq as u64;
        let update = Msg::Update {
            handle: handle(ClientId::writer(0), seq),
            value: tagged(seq + 1, seq * 10),
            floor: TaggedValue::initial(),
        };
        let read = Msg::ReadFastRuns {
            handle: handle(ClientId::reader(0), seq),
            acked: 0,
            floor: TaggedValue::initial(),
            new_values: vec![tagged(seq + 1, seq * 10)],
        };
        for (from, msg) in [(ProcessId::writer(0), update), (ProcessId::reader(0), read)] {
            let msg = match register {
                Some(r) => Msg::ForRegister { register: RegisterId::new(r), inner: Box::new(msg) },
                None => msg,
            };
            bank.handle(from, &msg);
        }
    }
    bank
}

/// One valid frame of every discriminant: the requests a bank answers,
/// the replies a warm bank gives them, and the installs built from its
/// snapshots — each also nested in the two frame headers, alone and
/// together, both ways round, and in a header of its own kind.
fn corpus() -> Vec<Vec<u8>> {
    let (w, r) = (ClientId::writer(0), ClientId::reader(0));
    let requests = vec![
        (ProcessId::reader(0), Msg::InvokeRead),
        (ProcessId::writer(0), Msg::InvokeWrite(Value::new(3))),
        (ProcessId::writer(0), Msg::Query { handle: handle(w, 9) }),
        (
            ProcessId::writer(0),
            Msg::Update { handle: handle(w, 9), value: tagged(7, 70), floor: tagged(1, 0) },
        ),
        (ProcessId::reader(0), Msg::ReadFast { handle: handle(r, 9), val_queue: vec![tagged(7, 70)] }),
        (
            ProcessId::reader(0),
            Msg::ReadFastDelta { handle: handle(r, 9), acked: 1, floor: tagged(1, 0), new_values: vec![] },
        ),
        (
            ProcessId::reader(0),
            Msg::ReadFastRuns { handle: handle(r, 9), acked: 0, floor: tagged(1, 0), new_values: vec![] },
        ),
        (ProcessId::server(1), Msg::StateFetch { nonce: 4 }),
        (ProcessId::reader(0), Msg::Depart { handle: handle(r, 10) }),
        (ProcessId::server(1), Msg::ShardFetch { shard: 1, nonce: 4 }),
    ];
    let mut bank = warm_bank();
    let mut frames: Vec<Msg> = Vec::new();
    for (from, request) in requests {
        let reply = bank.handle(from, &request);
        frames.push(request);
        frames.extend(reply);
    }
    let mut installs = Vec::new();
    for frame in &frames {
        match frame {
            Msg::StateSnapshot { nonce, state } => {
                installs.push(Msg::StateInstall { nonce: *nonce, transfers: vec![(**state).clone()] });
            }
            Msg::ShardSnapshot { nonce, shard, registers } => {
                installs.push(Msg::ShardInstall { nonce: *nonce, shard: *shard, registers: registers.clone() });
            }
            _ => {}
        }
    }
    for install in installs {
        frames.extend(bank.handle(ProcessId::server(1), &install));
        frames.push(install);
    }
    let keyed = |msg: Msg| Msg::ForRegister { register: RegisterId::new(2), inner: Box::new(msg) };
    let epoched = |msg: Msg| Msg::InEpoch { epoch: ConfigEpoch::new(3), inner: Box::new(msg) };
    let nested: Vec<Msg> = frames
        .iter()
        .flat_map(|msg| {
            [
                keyed(msg.clone()),
                epoched(msg.clone()),
                epoched(keyed(msg.clone())),
                keyed(epoched(msg.clone())),
                keyed(keyed(msg.clone())),
                epoched(epoched(msg.clone())),
            ]
        })
        .collect();
    frames.extend(nested);
    frames
        .iter()
        .map(|msg| {
            let mut buf = BytesMut::new();
            msg.encode(&mut buf);
            buf.to_vec()
        })
        .collect()
}

/// Every discriminant the codec knows leads at least one corpus frame.
#[test]
fn the_corpus_covers_every_discriminant() {
    let leading: BTreeSet<u8> = corpus().iter().map(|frame| frame[0]).collect();
    // One byte is a discriminant and nothing else: a known one runs out of
    // input (or is the whole frame), an unknown one is refused as such.
    let known: BTreeSet<u8> = (0..=u8::MAX)
        .filter(|&d| !matches!(Msg::decode(&mut &[d][..]), Err(DecodeError::InvalidDiscriminant { .. })))
        .collect();
    assert_eq!(leading, known);
}

/// A sender: a member server, a coordinator-like far server id, a reader
/// or a writer.
fn sender() -> impl Strategy<Value = ProcessId> {
    prop_oneof![
        (0u32..4).prop_map(ProcessId::server),
        Just(ProcessId::server(u32::MAX - 1)),
        (0u32..4).prop_map(ProcessId::reader),
        (0u32..4).prop_map(ProcessId::writer),
    ]
}

/// One input: `(frame, mutations, noise, sender)`. A frame index past the corpus
/// stands for the noise bytes alone; otherwise each `(at, byte)` overwrites
/// one byte of the frame (`at` modulo its length), and the frame is cut
/// after the last mutated byte when the noise is empty.
type Input = (usize, Vec<(u32, u8)>, Vec<u8>, ProcessId);

fn input(frames: usize) -> impl Strategy<Value = Input> {
    (0..frames + frames / 8 + 1, vec((0u32..u32::MAX, 0u8..=u8::MAX), 0..4), vec(0u8..=u8::MAX, 0..48), sender())
}

fn bytes_of(corpus: &[Vec<u8>], (frame, mutations, noise, _): &Input) -> Vec<u8> {
    let Some(valid) = corpus.get(*frame) else { return noise.clone() };
    let mut bytes = valid.clone();
    let mut cut = bytes.len();
    for &(at, byte) in mutations {
        let at = at as usize % bytes.len();
        bytes[at] = byte;
        cut = at + 1;
    }
    if noise.is_empty() && !mutations.is_empty() {
        bytes.truncate(cut);
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_bank_never_panics_on_a_decodable_frame(inputs in vec(input(CORPUS_LEN), 1..24)) {
        let corpus = corpus();
        prop_assert_eq!(corpus.len(), CORPUS_LEN);
        let mut bank = warm_bank();
        for input in &inputs {
            let bytes = bytes_of(&corpus, input);
            let Ok(msg) = Msg::decode(&mut &bytes[..]) else { continue };
            let from = input.3;
            let handled = catch_unwind(AssertUnwindSafe(|| bank.handle(from, &msg)));
            prop_assert!(handled.is_ok(), "the bank panicked on {msg:?} from {from}");
        }
    }
}

/// The corpus size, fixed so the input strategy can be built before it.
const CORPUS_LEN: usize = 154;
