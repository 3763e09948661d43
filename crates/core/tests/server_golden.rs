//! Cross-commit pin on one register server: a seeded sequence of 5 000
//! requests through `RegisterServer::handle` reproduces, reply for reply,
//! what the server answered at commit 2db20b3, before its store and its
//! per-client maps became sorted vectors and reader catch-up became a
//! window over the store.
//!
//! `tests/sim_golden.rs` digests whole simulated runs, but its clients seldom
//! send a stale or repeated acknowledgement, never depart, and never meet a
//! state install. This sequence does all of that at `sim-wide`'s population
//! (8 writers, 8 readers, one server with acknowledged-floor GC): updates
//! with rising floors, repeated and late values, delta and runs fast reads
//! whose `acked` is the reader's last reply version — sometimes an older
//! one, the one it sent last, or 0 —, full-info fast reads, queries,
//! departures, a peer's state installed mid-run (after which every
//! pre-install acknowledgement draws the version-0 refresh), and a state
//! fetch every 500 calls. The digest is FNV-1a (64-bit) over the `Debug`
//! form of every reply, of the state right after the install and of the
//! final `export()`.

use mwr_core::{DeltaSnapshot, Msg, OpHandle, OpId, RegisterServer};
use mwr_types::{ClientId, ProcessId, Tag, TaggedValue, Value, WriterId};

/// FNV-1a (64-bit) over length-prefixed strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }
}

/// SplitMix64, written out so the request stream depends on the seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const WRITERS: u32 = 8;
const READERS: u32 = 8;
const CALLS: u64 = 5_000;
/// The call before which the peer's state is installed.
const INSTALL_AT: u64 = 2_500;
/// How many values a full-info reader re-sends at most (its newest ones).
const QUEUE_CAP: usize = 12;

fn tv(ts: u64, w: u32) -> TaggedValue {
    TaggedValue::new(
        Tag::new(ts, WriterId::new(w)),
        Value::new(ts * 10 + u64::from(w)),
    )
}

struct Writer {
    seq: u64,
    /// The writer's last completed write: its floor, and what it repeats.
    last: TaggedValue,
}

struct Reader {
    seq: u64,
    /// Every reply version this reader was sent since it last (re)joined,
    /// oldest first; the last one is its current acknowledgement.
    versions: Vec<u64>,
    /// The `acked` of its previous delta request, for exact repeats.
    sent: u64,
    floor: TaggedValue,
    /// What a full-info read re-sends: the initial value and the newest
    /// values the reader has seen, sorted.
    queue: Vec<TaggedValue>,
}

impl Reader {
    fn new() -> Self {
        Reader {
            seq: 0,
            versions: vec![0],
            sent: 0,
            floor: TaggedValue::initial(),
            queue: vec![TaggedValue::initial()],
        }
    }

    fn learn(&mut self, v: TaggedValue) {
        if let Err(i) = self.queue.binary_search(&v) {
            self.queue.insert(i, v);
            if self.queue.len() > QUEUE_CAP {
                self.queue.remove(1);
            }
        }
    }

    fn merge(&mut self, delta: &DeltaSnapshot, rng: &mut Rng) {
        self.versions.push(delta.version);
        for rec in &delta.entries {
            self.learn(rec.value);
        }
        if rng.chance(50) {
            self.floor = self.floor.max(delta.latest);
        }
    }
}

/// Hands `msg` to `server` and digests the reply.
fn send(server: &mut RegisterServer, from: ProcessId, msg: &Msg, digest: &mut Fnv) -> Option<Msg> {
    let reply = server.handle(from, msg);
    digest.text(&format!("{reply:?}"));
    reply
}

/// Drives the sequence; returns (calls, version-0 refreshes, digest).
fn golden_sequence(seed: u64) -> (u64, u64, u64) {
    let mut rng = Rng(seed);
    let mut server = RegisterServer::with_gc((WRITERS + READERS) as usize);
    // A peer that receives about half of the fresh writes, some of them
    // writes the server itself misses; its state is installed mid-run.
    let mut peer = RegisterServer::with_gc((WRITERS + READERS) as usize);
    let mut writers: Vec<Writer> = (0..WRITERS)
        .map(|_| Writer {
            seq: 0,
            last: TaggedValue::initial(),
        })
        .collect();
    let mut readers: Vec<Reader> = (0..READERS).map(|_| Reader::new()).collect();
    let mut ts = 0u64;
    let mut digest = Fnv::new();
    let mut calls = 0u64;
    let mut refreshes = 0u64;

    while calls < CALLS {
        if calls == INSTALL_AT {
            server.install_from(&[peer.state().export()]);
            digest.text(&format!("{:?}", server.state().export()));
        }
        if calls % 500 == 499 {
            send(
                &mut server,
                ProcessId::server(1),
                &Msg::StateFetch { nonce: calls },
                &mut digest,
            );
            calls += 1;
            continue;
        }
        if rng.chance(40) {
            let w = rng.below(u64::from(WRITERS)) as u32;
            let from = ProcessId::writer(w);
            let writer = &mut writers[w as usize];
            writer.seq += 1;
            let handle = OpHandle {
                op: OpId {
                    client: ClientId::writer(w),
                    seq: writer.seq,
                },
                phase: 2,
            };
            let kind = rng.below(100);
            let msg = if kind < 1 {
                Msg::Depart { handle }
            } else if kind < 6 {
                Msg::Query {
                    handle: OpHandle { phase: 1, ..handle },
                }
            } else if kind < 14 {
                Msg::Update {
                    handle,
                    value: writer.last,
                    floor: writer.last,
                }
            } else if kind < 24 {
                let late = tv(
                    ts.saturating_sub(1 + rng.below(12)),
                    rng.below(u64::from(WRITERS)) as u32,
                );
                Msg::Update {
                    handle,
                    value: late,
                    floor: writer.last,
                }
            } else {
                ts += 1;
                let value = tv(ts, w);
                let msg = Msg::Update {
                    handle,
                    value,
                    floor: writer.last,
                };
                writer.last = value;
                if rng.chance(50) {
                    peer.handle(from, &msg);
                }
                if rng.chance(12) {
                    continue; // a write this server misses
                }
                msg
            };
            send(&mut server, from, &msg, &mut digest);
        } else {
            let r = rng.below(u64::from(READERS)) as u32;
            let from = ProcessId::reader(r);
            let reader = &mut readers[r as usize];
            reader.seq += 1;
            let handle = OpHandle {
                op: OpId {
                    client: ClientId::reader(r),
                    seq: reader.seq,
                },
                phase: 1,
            };
            let kind = rng.below(100);
            if kind < 2 {
                send(&mut server, from, &Msg::Depart { handle }, &mut digest);
                let seq = reader.seq;
                *reader = Reader::new();
                reader.seq = seq;
            } else if kind < 12 {
                send(&mut server, from, &Msg::Query { handle }, &mut digest);
            } else if kind < 22 {
                let msg = Msg::ReadFast {
                    handle,
                    val_queue: reader.queue.clone(),
                };
                if let Some(Msg::ReadFastAck { snapshot, .. }) =
                    send(&mut server, from, &msg, &mut digest)
                {
                    for rec in &snapshot.entries {
                        reader.learn(rec.value);
                    }
                }
            } else {
                let current = *reader
                    .versions
                    .last()
                    .expect("a reader always holds version 0");
                let acked = match rng.below(20) {
                    0 => 0,
                    1 | 2 => reader.versions[rng.below(reader.versions.len() as u64) as usize],
                    3 => reader.sent,
                    _ => current,
                };
                reader.sent = acked;
                let new_values = if rng.chance(10) {
                    vec![tv(ts, rng.below(u64::from(WRITERS)) as u32)]
                } else {
                    Vec::new()
                };
                let floor = reader.floor;
                let msg = if kind < 40 {
                    Msg::ReadFastDelta {
                        handle,
                        acked,
                        floor,
                        new_values,
                    }
                } else {
                    Msg::ReadFastRuns {
                        handle,
                        acked,
                        floor,
                        new_values,
                    }
                };
                match send(&mut server, from, &msg, &mut digest) {
                    Some(
                        Msg::ReadFastDeltaAck { delta, .. } | Msg::ReadFastRunsAck { delta, .. },
                    ) => {
                        if delta.from < acked {
                            refreshes += 1;
                        }
                        reader.merge(&delta, &mut rng);
                    }
                    other => panic!("not a delta ack: {other:?}"),
                }
            }
        }
        calls += 1;
    }
    let state = server.state();
    assert!(
        state.pruned_floor() > TaggedValue::initial(),
        "GC must engage"
    );
    assert!(state.reset_floor() > 0, "the install must happen");
    digest.text(&format!("{:?}", state.export()));
    (calls, refreshes, digest.0)
}

#[test]
fn one_server_reproduces_its_replies_at_2db20b3() {
    assert_eq!(golden_sequence(11), (5_000, 25, 0x5329_ccd5_962a_6e5a));
}
