//! Lockstep attribution of the protocol and codec layers, in the style of
//! `proto_profile`: the real `RegisterServer` / `RegisterClient` /
//! `ServerBank` automata driven single-threaded through detached
//! contexts, every message encoded and decoded on its way, each call
//! timed by kind. No transport, no threads, no scheduler: the figures are
//! pure CPU per call at the workload's `(S, t, W, R)`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use mwr::core::{FastWire, Msg, Protocol, RegisterClient, RegisterServer, Router, ServerBank};
use mwr::sim::{Automaton, Context, SimTime};
use mwr::types::codec::Wire;
use mwr::types::{ClusterConfig, KeyspaceConfig, ProcessId, ReaderId, RegisterId, Value, WriterId};
use mwr_benchmark::spec::KeyStream;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::traced::{classify, Kind};

/// Total time and call count of one kind of call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cost {
    pub time: Duration,
    pub calls: u64,
}

impl Cost {
    fn add(&mut self, spent: Duration) {
        self.time += spent;
        self.calls += 1;
    }

    /// Mean nanoseconds per call; 0 when never called.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.time.as_secs_f64() * 1e9 / self.calls as f64
        }
    }
}

/// What one lockstep replay attributed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Attribution {
    /// `RegisterServer::on_message` on a `Query`.
    pub query: Cost,
    /// … on an `Update`.
    pub update: Cost,
    /// … on a fast-read request.
    pub readfast: Cost,
    /// `RegisterClient::on_message` on a `QueryAck` or `UpdateAck`.
    pub ack: Cost,
    /// … on a fast-read reply.
    pub readfast_ack: Cost,
    /// `ServerBank::handle` on a `ForRegister` frame (bank replay only).
    pub bank_handle: Cost,
    /// `Wire::encode` of every message in the loop.
    pub encode: Cost,
    /// `Wire::decode` of every message in the loop.
    pub decode: Cost,
    /// Registrations carried by fast-read replies, and their encoded size.
    pub reply_regs: u64,
    pub readfast_ack_bytes: u64,
    pub readfast_acks: u64,
}

impl Attribution {
    /// Encodes and decodes `msg` (both timed), returning the decoded copy
    /// that travels on, so a codec asymmetry would surface as a stall.
    fn through_codec(&mut self, msg: &Msg, buf: &mut BytesMut) -> Msg {
        buf.clear();
        let t = Instant::now();
        msg.encode(buf);
        self.encode.add(t.elapsed());
        let mut bytes: &[u8] = buf;
        let t = Instant::now();
        let decoded = Msg::decode(&mut bytes).expect("a message we just encoded decodes");
        self.decode.add(t.elapsed());
        if classify(msg).0 == Kind::ReadFastAck {
            self.readfast_acks += 1;
            self.readfast_ack_bytes += buf.len() as u64;
            self.reply_regs += registrations(msg);
        }
        decoded
    }

    fn server_cost(&mut self, kind: Kind) -> Option<&mut Cost> {
        match kind {
            Kind::Query => Some(&mut self.query),
            Kind::Update => Some(&mut self.update),
            Kind::ReadFast => Some(&mut self.readfast),
            _ => None,
        }
    }

    fn client_cost(&mut self, kind: Kind) -> Option<&mut Cost> {
        match kind {
            Kind::QueryAck | Kind::UpdateAck => Some(&mut self.ack),
            Kind::ReadFastAck => Some(&mut self.readfast_ack),
            _ => None,
        }
    }
}

/// `(value, client)` registrations a fast-read reply carries.
fn registrations(msg: &Msg) -> u64 {
    let mut inner = msg;
    while let Msg::ForRegister { inner: m, .. } | Msg::InEpoch { inner: m, .. } = inner {
        inner = m;
    }
    match inner {
        Msg::ReadFastDeltaAck { delta, .. } | Msg::ReadFastRunsAck { delta, .. } => {
            delta.entries.iter().map(|r| r.updated.len() as u64).sum()
        }
        Msg::ReadFastAck { snapshot, .. } => snapshot
            .entries
            .iter()
            .map(|r| r.updated.len() as u64)
            .sum(),
        _ => 0,
    }
}

fn clients(
    config: ClusterConfig,
    protocol: Protocol,
) -> (Vec<RegisterClient>, Vec<RegisterClient>) {
    let writers = (0..config.writers())
        .map(|i| RegisterClient::writer(WriterId::new(i as u32), config, protocol.write_mode()))
        .collect();
    let readers = (0..config.readers())
        .map(|i| {
            RegisterClient::reader_with_wire(
                ReaderId::new(i as u32),
                config,
                protocol.read_mode(),
                FastWire::default(),
            )
        })
        .collect();
    (writers, readers)
}

/// Replays one register at `config`: each round invokes one write per
/// writer and one read per reader, then pumps the queue to quiescence.
pub fn replay_register(config: ClusterConfig, protocol: Protocol, budget: Duration) -> Attribution {
    let population = config.readers() + config.writers();
    let mut servers: Vec<RegisterServer> = (0..config.servers())
        .map(|_| RegisterServer::with_gc(population))
        .collect();
    let (mut writers, mut readers) = clients(config, protocol);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut next_timer = 0u64;
    let mut out = Attribution::default();
    let mut buf = BytesMut::new();
    let mut queue: VecDeque<(ProcessId, ProcessId, Msg)> = VecDeque::new();
    let started = Instant::now();
    let mut round = 0u64;
    while round < 50 || started.elapsed() < budget {
        round += 1;
        for (i, w) in writers.iter_mut().enumerate() {
            let from = ProcessId::writer(i as u32);
            let mut ctx = Context::detached(SimTime::ZERO, from, &mut rng, &mut next_timer);
            w.on_external(
                Msg::InvokeWrite(Value::new(round * 64 + i as u64)),
                &mut ctx,
            );
            queue.extend(ctx.take_sends().into_iter().map(|(to, m)| (from, to, m)));
        }
        for (i, r) in readers.iter_mut().enumerate() {
            let from = ProcessId::reader(i as u32);
            let mut ctx = Context::detached(SimTime::ZERO, from, &mut rng, &mut next_timer);
            r.on_external(Msg::InvokeRead, &mut ctx);
            queue.extend(ctx.take_sends().into_iter().map(|(to, m)| (from, to, m)));
        }
        while let Some((from, to, msg)) = queue.pop_front() {
            let kind = classify(&msg).0;
            let msg = out.through_codec(&msg, &mut buf);
            let mut ctx = Context::detached(SimTime::ZERO, to, &mut rng, &mut next_timer);
            let t = Instant::now();
            if let Some(s) = to.as_server() {
                servers[s.index() as usize].on_message(from, msg, &mut ctx);
                let spent = t.elapsed();
                if let Some(cost) = out.server_cost(kind) {
                    cost.add(spent);
                }
            } else {
                let id = to.as_client().expect("a server or a client");
                let client = match id.as_reader() {
                    Some(r) => &mut readers[r.index() as usize],
                    None => &mut writers[id.index() as usize],
                };
                client.on_message(from, msg, &mut ctx);
                let spent = t.elapsed();
                if let Some(cost) = out.client_cost(kind) {
                    cost.add(spent);
                }
            }
            queue.extend(ctx.take_sends().into_iter().map(|(dest, m)| (to, dest, m)));
        }
    }
    out
}

/// What the keyspace replay adds.
#[derive(Debug, Clone, Copy)]
pub struct BankAttribution {
    pub attribution: Attribution,
    /// Mean nanoseconds of `Router::group_of`.
    pub group_of_ns: f64,
    /// Mean registers instantiated per bank at the end.
    pub registers_per_bank: f64,
}

/// Replays a keyspace: one `ServerBank` per server, one writer and one
/// reader automaton per key (scoped to the key's group by translating
/// group positions to member ids), keys drawn from the workload's stream.
pub fn replay_bank(
    config: KeyspaceConfig,
    protocol: Protocol,
    mut writer_keys: KeyStream,
    mut reader_keys: KeyStream,
    budget: Duration,
) -> BankAttribution {
    let router = Router::for_keyspace(&config);
    let population = config.readers() + config.writers();
    let mut banks: Vec<ServerBank> = (0..config.servers())
        .map(|_| ServerBank::new(population, router))
        .collect();
    let keys = writer_keys.keys();
    let register = |key: usize| RegisterId::new(key as u32 + 1);
    let groups: Vec<_> = (0..keys).map(|k| router.group_of(register(k))).collect();
    let mut per_key: Vec<_> = (0..keys)
        .map(|_| clients(config.group_config(), protocol))
        .collect();

    let mut rng = SmallRng::seed_from_u64(7);
    let mut next_timer = 0u64;
    let mut out = Attribution::default();
    let mut buf = BytesMut::new();
    // (key, from, to, message); servers are addressed by group position.
    let mut queue: VecDeque<(usize, ProcessId, ProcessId, Msg)> = VecDeque::new();
    let started = Instant::now();
    let mut round = 0u64;
    while round < 50 || started.elapsed() < budget {
        round += 1;
        let (wk, rk) = (writer_keys.next_key(), reader_keys.next_key());
        let from = ProcessId::writer(0);
        let mut ctx = Context::detached(SimTime::ZERO, from, &mut rng, &mut next_timer);
        per_key[wk].0[0].on_external(Msg::InvokeWrite(Value::new(round)), &mut ctx);
        queue.extend(
            ctx.take_sends()
                .into_iter()
                .map(|(to, m)| (wk, from, to, m)),
        );
        let from = ProcessId::reader(0);
        let mut ctx = Context::detached(SimTime::ZERO, from, &mut rng, &mut next_timer);
        per_key[rk].1[0].on_external(Msg::InvokeRead, &mut ctx);
        queue.extend(
            ctx.take_sends()
                .into_iter()
                .map(|(to, m)| (rk, from, to, m)),
        );

        while let Some((key, from, to, msg)) = queue.pop_front() {
            if let Some(position) = to.as_server() {
                let frame = Msg::ForRegister {
                    register: register(key),
                    inner: Box::new(msg),
                };
                let frame = out.through_codec(&frame, &mut buf);
                let member = groups[key][position.index() as usize];
                let t = Instant::now();
                let reply = banks[member.index() as usize].handle(from, &frame);
                out.bank_handle.add(t.elapsed());
                if let Some(reply) = reply {
                    queue.push_back((key, to, from, reply));
                }
            } else {
                let kind = classify(&msg).0;
                let Msg::ForRegister { inner, .. } = out.through_codec(&msg, &mut buf) else {
                    unreachable!("banks answer register frames with register frames");
                };
                let client = match to.as_client().and_then(|c| c.as_reader()) {
                    Some(_) => &mut per_key[key].1[0],
                    None => &mut per_key[key].0[0],
                };
                let mut ctx = Context::detached(SimTime::ZERO, to, &mut rng, &mut next_timer);
                let t = Instant::now();
                client.on_message(from, *inner, &mut ctx);
                let spent = t.elapsed();
                if let Some(cost) = out.client_cost(kind) {
                    cost.add(spent);
                }
                queue.extend(
                    ctx.take_sends()
                        .into_iter()
                        .map(|(dest, m)| (key, to, dest, m)),
                );
            }
        }
    }

    let lookups = 200_000u32;
    let t = Instant::now();
    for i in 0..lookups {
        black_box(router.group_of(black_box(register(i as usize % keys))));
    }
    let group_of_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(lookups);
    let registers: usize = banks.iter().map(|b| b.registers().count()).sum();
    BankAttribution {
        attribution: out,
        group_of_ns,
        registers_per_bank: registers as f64 / banks.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_benchmark::spec::{ZIPF_KEYS, ZIPF_S};

    #[test]
    fn register_replay_completes_rounds_and_attributes_every_kind() {
        let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
        let a = replay_register(config, Protocol::W2R1, Duration::ZERO);
        // 50 rounds × (query + update) × 5 servers, and one fast read × 5.
        assert_eq!(
            (a.query.calls, a.update.calls, a.readfast.calls),
            (250, 250, 250)
        );
        assert_eq!(a.readfast_acks, 250);
        assert!(
            a.ack.calls >= 2 * 50 * 4,
            "writers hear at least a quorum per round"
        );
        assert_eq!(a.encode.calls, a.decode.calls);
        assert!(a.readfast_ack_bytes > 0 && a.query.mean_ns() > 0.0);
        assert_eq!(a.bank_handle.calls, 0);
    }

    #[test]
    fn bank_replay_spreads_registers_over_groups() {
        let config = KeyspaceConfig::new(11, 1, 5, 16, 1, 1).unwrap();
        let keys = |lane| KeyStream::zipf(ZIPF_KEYS, ZIPF_S, 3, lane);
        let b = replay_bank(config, Protocol::W2Ra, keys(0), keys(1), Duration::ZERO);
        // Each round: a write (2 rounds × 5 frames) and a read (≥ 1 × 5).
        assert!(b.attribution.bank_handle.calls >= 50 * 15);
        assert!(b.registers_per_bank > 1.0 && b.registers_per_bank <= ZIPF_KEYS as f64);
        assert!(b.group_of_ns > 0.0);
    }
}
