//! From raw records to spans: pure functions over the driver loop's
//! [`OpMark`]s and the traced endpoints' [`SendEvent`]s.
//!
//! Every operation gets a root span (`op.read` / `op.write`) and, per
//! round trip, five children that tile it **by construction**:
//!
//! ```text
//! client.assemble        round start → entry of the client's broadcast
//! transport.client_send  inside the client's send_batch
//! server.turnaround      broadcast exit → entry of the quorum-completing
//!                        server's reply send (transit + wake + inbox
//!                        dwell + handler: not separable from outside)
//! transport.server_send  inside that server's reply send
//! client.complete        reply send exit → round end (transit + reader
//!                        wake + decode + selection)
//! ```
//!
//! A round ends where the next round's broadcast begins (for the last
//! round: where the operation returns), so a later round's assembly is
//! counted in the earlier round's `client.complete` — the client thread
//! does both back to back and the boundary is not visible from outside.
//! Threads run concurrently, so a server can start replying before the
//! client's batch call has returned; boundaries are clamped to be
//! monotone, which keeps the tiling exact and makes the overlapped child
//! zero-length. A span's self time is its length minus what its children
//! cover: zero for a root, the whole span for a child.

use std::collections::HashMap;

use mwr::core::{OpHandle, OpId};
use mwr::types::{ClientId, ProcessId, RegisterId};
use mwr_benchmark::json::Json;
use mwr_benchmark::live::OpMark;

use crate::traced::{Kind, RoundKey, SendEvent};

/// Child span names, in tiling order.
pub const CHILDREN: [&str; 5] = [
    "client.assemble",
    "transport.client_send",
    "server.turnaround",
    "transport.server_send",
    "client.complete",
];

/// What the endpoints saw of one round trip.
#[derive(Debug, Default, Clone)]
pub struct RoundEvents {
    /// The client's broadcasts of this round, `(call, entry, exit)`; more
    /// than one means the round was retried.
    pub broadcasts: Vec<(u32, u64, u64)>,
    /// Server replies, `(server, entry, exit)`.
    pub replies: Vec<(ProcessId, u64, u64)>,
}

/// Groups events by the round they belong to.
pub fn index(events: &[SendEvent]) -> HashMap<RoundKey, RoundEvents> {
    let mut rounds: HashMap<RoundKey, RoundEvents> = HashMap::new();
    for e in events {
        let Some(key) = e.round else { continue };
        let round = rounds.entry(key).or_default();
        match e.kind {
            // One record per message; a batch is one broadcast.
            Kind::Query | Kind::Update | Kind::ReadFast
                if e.from.is_client()
                    && !round.broadcasts.iter().any(|&(call, ..)| call == e.call) =>
            {
                round.broadcasts.push((e.call, e.entry_ns, e.exit_ns));
            }
            Kind::QueryAck | Kind::UpdateAck | Kind::ReadFastAck if e.from.is_server() => {
                round.replies.push((e.from, e.entry_ns, e.exit_ns));
            }
            _ => {}
        }
    }
    rounds
}

/// One round trip, reduced to the instants the spans hang on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTrace {
    /// Entry and exit of the client's first broadcast.
    pub send: (u64, u64),
    /// Broadcasts of this round (1 unless retried).
    pub broadcasts: u32,
    /// Entry and exit of the quorum-completing server's reply send.
    pub reply: (u64, u64),
}

/// One traced operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    pub read: bool,
    /// The shared identifier of its spans, e.g. `r1#17@k4` (client, its sequence number, register).
    pub id: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rounds: Vec<RoundTrace>,
}

/// Reduces a round's events; `None` when no broadcast was seen or fewer
/// than `quorum` distinct servers replied.
pub fn round_trace(events: &RoundEvents, quorum: usize) -> Option<RoundTrace> {
    let &(_, entry, exit) = events
        .broadcasts
        .iter()
        .min_by_key(|&&(_, entry, _)| entry)?;
    let mut replies = events.replies.clone();
    replies.sort_by_key(|&(_, _, exit)| exit);
    let mut seen = Vec::with_capacity(replies.len());
    replies.retain(|&(server, ..)| {
        let first = !seen.contains(&server);
        seen.push(server);
        first
    });
    let &(_, reply_entry, reply_exit) = replies.get(quorum.checked_sub(1)?)?;
    Some(RoundTrace {
        send: (entry, exit),
        broadcasts: events.broadcasts.len() as u32,
        reply: (reply_entry, reply_exit),
    })
}

/// Matches one thread's operation marks with the rounds the endpoints saw.
/// The `n`-th mark on a register is the client's operation
/// `first_seq + n` there. Returns the traced operations and how many
/// completed operations could not be traced (a round without a quorum of
/// recorded replies).
pub fn trace_ops(
    marks: &[OpMark],
    client: ClientId,
    register_of: impl Fn(u32) -> RegisterId,
    first_seq: u64,
    rounds: &HashMap<RoundKey, RoundEvents>,
    quorum: usize,
    window: (u64, u64),
) -> (Vec<OpTrace>, u64) {
    let mut next_seq: HashMap<u32, u64> = HashMap::new();
    let mut traced = Vec::new();
    let mut untraced = 0;
    for mark in marks {
        let seq = next_seq.entry(mark.key).or_insert(first_seq);
        let op = OpId { client, seq: *seq };
        *seq += 1;
        if !mark.ok || mark.start_ns < window.0 || mark.end_ns >= window.1 {
            continue;
        }
        let register = register_of(mark.key);
        let found: Option<Vec<RoundTrace>> = (1u8..)
            .map_while(|phase| {
                rounds.get(&RoundKey {
                    register,
                    handle: OpHandle { op, phase },
                })
            })
            .map(|events| round_trace(events, quorum))
            .collect();
        match found {
            Some(found) if !found.is_empty() => traced.push(OpTrace {
                read: matches!(client, ClientId::Reader(_)),
                id: format!("{client}#{}@{register}", op.seq),
                start_ns: mark.start_ns,
                end_ns: mark.end_ns,
                rounds: found,
            }),
            _ => untraced += 1,
        }
    }
    (traced, untraced)
}

/// The six boundaries of each round of `op`: round start, the four
/// interior instants clamped monotone, round end.
pub fn boundaries(op: &OpTrace) -> Vec<[u64; 6]> {
    let mut out = Vec::with_capacity(op.rounds.len());
    let mut start = op.start_ns;
    for (i, round) in op.rounds.iter().enumerate() {
        let end = match op.rounds.get(i + 1) {
            Some(next) => next.send.0.clamp(start, op.end_ns),
            None => op.end_ns,
        };
        let mut b = [
            start,
            round.send.0,
            round.send.1,
            round.reply.0,
            round.reply.1,
            end,
        ];
        for k in 1..5 {
            b[k] = b[k].clamp(b[k - 1], end);
        }
        out.push(b);
        start = end;
    }
    out
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that caused it; `None` for a root.
    pub parent: Option<u64>,
    /// Shared by all spans of one operation.
    pub op: String,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The root and child spans of `op`, ids counted up from `*next_id`.
pub fn spans(op: &OpTrace, next_id: &mut u64) -> Vec<Span> {
    let mut id = || {
        *next_id += 1;
        *next_id - 1
    };
    let root = id();
    let mut out = vec![Span {
        id: root,
        parent: None,
        op: op.id.clone(),
        name: if op.read { "op.read" } else { "op.write" },
        start_ns: op.start_ns,
        end_ns: op.end_ns,
    }];
    for b in boundaries(op) {
        for (k, name) in CHILDREN.into_iter().enumerate() {
            out.push(Span {
                id: id(),
                parent: Some(root),
                op: op.id.clone(),
                name,
                start_ns: b[k],
                end_ns: b[k + 1],
            });
        }
    }
    out
}

/// The trace file's span list.
pub fn spans_json(all: &[Span]) -> Json {
    Json::Arr(
        all.iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Int(s.id as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("op", Json::Str(s.op.clone())),
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                ])
            })
            .collect(),
    )
}

/// Per-kind sums over traced operations, nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct KindStats {
    pub ops: u64,
    pub rounds: u64,
    pub retries: u64,
    /// Per operation: `client.assemble` summed over its rounds.
    pub assemble: Vec<f64>,
    /// Per operation: `client.complete` summed over its rounds.
    pub complete: Vec<f64>,
    /// Per round: `server.turnaround`.
    pub turnaround: Vec<f64>,
    /// Sum of root lengths and of all child lengths (for the tiling check).
    pub root_ns: u64,
    pub children_ns: u64,
}

/// Folds traced operations of one kind.
pub fn kind_stats<'a>(ops: impl IntoIterator<Item = &'a OpTrace>) -> KindStats {
    let mut stats = KindStats::default();
    for op in ops {
        stats.ops += 1;
        stats.rounds += op.rounds.len() as u64;
        stats.retries += op
            .rounds
            .iter()
            .map(|r| u64::from(r.broadcasts.saturating_sub(1)))
            .sum::<u64>();
        let bounds = boundaries(op);
        stats
            .assemble
            .push(bounds.iter().map(|b| (b[1] - b[0]) as f64).sum());
        stats
            .complete
            .push(bounds.iter().map(|b| (b[5] - b[4]) as f64).sum());
        stats
            .turnaround
            .extend(bounds.iter().map(|b| (b[3] - b[2]) as f64));
        stats.root_ns += op.end_ns - op.start_ns;
        // Summed from the emitted spans, not assumed from the boundaries.
        stats.children_ns += spans(op, &mut 0)
            .iter()
            .filter(|s| s.parent.is_some())
            .map(|s| s.end_ns - s.start_ns)
            .sum::<u64>();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr::types::{ReaderId, WriterId};

    fn op(rounds: Vec<RoundTrace>) -> OpTrace {
        OpTrace {
            read: rounds.len() == 1,
            id: "t".into(),
            start_ns: 1_000,
            end_ns: 9_000,
            rounds,
        }
    }

    fn children_sum(op: &OpTrace) -> u64 {
        spans(op, &mut 0)
            .iter()
            .filter(|s| s.parent.is_some())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    #[test]
    fn children_tile_the_root_exactly() {
        let one = op(vec![RoundTrace {
            send: (1_200, 1_500),
            broadcasts: 1,
            reply: (4_000, 4_100),
        }]);
        let all = spans(&one, &mut 10);
        assert_eq!(all.len(), 6);
        assert_eq!(
            (all[0].id, all[0].parent, all[0].name),
            (10, None, "op.read")
        );
        assert!(all[1..].iter().all(|s| s.parent == Some(10) && s.op == "t"));
        assert_eq!(
            all[1..].iter().map(|s| s.name).collect::<Vec<_>>(),
            CHILDREN
        );
        // Consecutive, gap-free, from root start to root end.
        assert_eq!(all[1].start_ns, 1_000);
        assert!(all[1..].windows(2).all(|p| p[0].end_ns == p[1].start_ns));
        assert_eq!(all[5].end_ns, 9_000);
        assert_eq!(children_sum(&one), 8_000);

        let two = op(vec![
            RoundTrace {
                send: (1_200, 1_500),
                broadcasts: 1,
                reply: (3_000, 3_100),
            },
            RoundTrace {
                send: (3_900, 4_200),
                broadcasts: 2,
                reply: (7_000, 7_200),
            },
        ]);
        assert_eq!(spans(&two, &mut 0).len(), 11);
        assert_eq!(children_sum(&two), 8_000);
        let b = boundaries(&two);
        assert_eq!(b[0], [1_000, 1_200, 1_500, 3_000, 3_100, 3_900]);
        assert_eq!(
            b[1],
            [3_900, 3_900, 4_200, 7_000, 7_200, 9_000],
            "later assembly folds back"
        );
        let stats = kind_stats([&two]);
        assert_eq!((stats.ops, stats.rounds, stats.retries), (1, 2, 1));
        assert_eq!(stats.assemble, [200.0]);
        assert_eq!(stats.complete, [800.0 + 1_800.0]);
        assert_eq!((stats.root_ns, stats.children_ns), (8_000, 8_000));
    }

    #[test]
    fn overlapping_threads_are_clamped_not_double_counted() {
        // The server replied before the client's batch call returned, and
        // a clock reading lies outside the operation.
        let odd = op(vec![RoundTrace {
            send: (900, 5_000),
            broadcasts: 1,
            reply: (3_000, 12_000),
        }]);
        let b = boundaries(&odd);
        assert_eq!(b[0], [1_000, 1_000, 5_000, 5_000, 9_000, 9_000]);
        assert_eq!(children_sum(&odd), 8_000);
    }

    #[test]
    fn marks_meet_events_through_the_op_handle() {
        let reader = ClientId::Reader(ReaderId::new(0));
        let key = |seq, phase| RoundKey {
            register: RegisterId::DEFAULT,
            handle: OpHandle {
                op: OpId {
                    client: reader,
                    seq,
                },
                phase,
            },
        };
        let event = |from, call, kind, round, at: u64| SendEvent {
            entry_ns: at,
            exit_ns: at + 10,
            from,
            call,
            kind,
            round: Some(round),
            bytes: 8,
        };
        let (client, s) = (ProcessId::reader(0), ProcessId::server);
        let mut events = Vec::new();
        // seq 1: broadcast to three servers (one call), replies from s0, s1, s1 again, s2.
        for _server in 0..3 {
            events.push(event(client, 0, Kind::ReadFast, key(1, 1), 100));
        }
        for (server, at) in [(0, 200), (1, 300), (1, 310), (2, 400)] {
            events.push(event(s(server), 0, Kind::ReadFastAck, key(1, 1), at));
        }
        // seq 2: broadcast seen, but only one reply.
        events.push(event(client, 1, Kind::ReadFast, key(2, 1), 600));
        events.push(event(s(0), 1, Kind::ReadFastAck, key(2, 1), 700));
        let rounds = index(&events);
        assert_eq!(
            rounds[&key(1, 1)].broadcasts.len(),
            1,
            "one batch, one broadcast"
        );
        assert_eq!(rounds[&key(1, 1)].replies.len(), 4);
        // Quorum of 3 distinct servers completes on s2's reply, not s1's duplicate.
        let round = round_trace(&rounds[&key(1, 1)], 3).unwrap();
        assert_eq!((round.send, round.reply), ((100, 110), (400, 410)));
        assert_eq!(round_trace(&rounds[&key(1, 1)], 4), None);

        let mark = |start, end| OpMark {
            key: 0,
            start_ns: start,
            end_ns: end,
            ok: true,
        };
        // seq 0 is the setup operation, so marks start at first_seq = 1.
        let marks = [mark(50, 500), mark(550, 800), mark(5_000, 5_100)];
        let (traced, untraced) = trace_ops(
            &marks,
            reader,
            |_| RegisterId::DEFAULT,
            1,
            &rounds,
            3,
            (0, 1_000),
        );
        assert_eq!(traced.len(), 1);
        assert_eq!(
            traced[0].id, "r1#1@k1",
            "ids print one-based, as in the paper"
        );
        assert_eq!(
            untraced, 1,
            "seq 2 lacks a quorum of recorded replies; seq 3 is outside"
        );
        let writer = ClientId::Writer(WriterId::new(0));
        let (none, missing) = trace_ops(
            &marks[..1],
            writer,
            |_| RegisterId::DEFAULT,
            1,
            &rounds,
            3,
            (0, 1_000),
        );
        assert!(
            none.is_empty() && missing == 1,
            "another client's rounds do not match"
        );
    }
}
