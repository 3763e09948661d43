//! Benchmark-owned wrappers around the public transport traits: every
//! `send`/`send_batch` of every endpoint is timed and counted from
//! outside, with nothing changed beneath `mwr::runtime`.
//!
//! A [`TracedFactory`] wraps a real [`EndpointFactory`] and is handed to
//! `RuntimeCluster::start_on` / `KeyspaceCluster::start_on`; each
//! [`TracedEndpoint`] it opens appends one [`SendEvent`] per message to its
//! own buffer and hands the buffer to the shared [`Collector`] when it is
//! dropped, so records stay in memory until the run is over.

use std::sync::{Arc, Mutex};

use crossbeam::channel::Receiver;
use mwr::core::{Msg, OpHandle};
use mwr::runtime::{
    Endpoint, EndpointFactory, InMemoryEndpoint, Inbound, PeerStats, TcpEndpoint, TransportError,
};
use mwr::types::codec::Wire;
use mwr::types::{ProcessId, RegisterId};
use mwr_benchmark::host::now_ns;

/// The protocol message kinds the trace tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Query,
    Update,
    ReadFast,
    QueryAck,
    UpdateAck,
    ReadFastAck,
    /// State transfer, departures, installs: not part of an operation.
    Other,
}

/// Which round of which operation a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoundKey {
    pub register: RegisterId,
    pub handle: OpHandle,
}

/// Looks through the epoch and register frame headers at the protocol
/// message inside.
pub fn classify(msg: &Msg) -> (Kind, Option<RoundKey>) {
    let mut register = RegisterId::DEFAULT;
    let mut inner = msg;
    loop {
        match inner {
            Msg::InEpoch { inner: m, .. } => inner = m,
            Msg::ForRegister {
                register: r,
                inner: m,
            } => {
                register = *r;
                inner = m;
            }
            _ => break,
        }
    }
    let (kind, handle) = match inner {
        Msg::Query { handle } => (Kind::Query, handle),
        Msg::Update { handle, .. } => (Kind::Update, handle),
        Msg::ReadFast { handle, .. }
        | Msg::ReadFastDelta { handle, .. }
        | Msg::ReadFastRuns { handle, .. } => (Kind::ReadFast, handle),
        Msg::QueryAck { handle, .. } => (Kind::QueryAck, handle),
        Msg::UpdateAck { handle } => (Kind::UpdateAck, handle),
        Msg::ReadFastAck { handle, .. }
        | Msg::ReadFastDeltaAck { handle, .. }
        | Msg::ReadFastRunsAck { handle, .. } => (Kind::ReadFastAck, handle),
        _ => return (Kind::Other, None),
    };
    (
        kind,
        Some(RoundKey {
            register,
            handle: *handle,
        }),
    )
}

/// One message crossing an endpoint's send boundary.
#[derive(Debug, Clone, Copy)]
pub struct SendEvent {
    /// Entry of the `send`/`send_batch` call that carried it.
    pub entry_ns: u64,
    /// Exit of that call.
    pub exit_ns: u64,
    pub from: ProcessId,
    /// Ordinal of the call on its endpoint: messages of one batch share it.
    pub call: u32,
    pub kind: Kind,
    pub round: Option<RoundKey>,
    /// `Wire::encoded_len` of the message, computed outside the timed call.
    pub bytes: u32,
}

/// Whole-life writer-pipeline totals of the endpoints dropped so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineTotals {
    pub frames_sent: u64,
    pub batches: u64,
    pub frames_dropped: u64,
}

/// Where dropped endpoints leave their records.
#[derive(Debug, Default)]
pub struct Collector {
    buffers: Mutex<Vec<Vec<SendEvent>>>,
    pipelines: Mutex<PipelineTotals>,
}

impl Collector {
    /// Every event of every endpoint dropped so far, unordered.
    pub fn take_events(&self) -> Vec<SendEvent> {
        std::mem::take(&mut *self.buffers.lock().expect("collector poisoned"))
            .into_iter()
            .flatten()
            .collect()
    }

    pub fn pipelines(&self) -> PipelineTotals {
        *self.pipelines.lock().expect("collector poisoned")
    }
}

/// Transport counters only the concrete endpoint type can report.
pub trait PipelineStats {
    /// Writer-pipeline counters toward `peer`, if the transport has any.
    fn pipeline(&self, peer: ProcessId) -> Option<PeerStats>;
}

impl PipelineStats for TcpEndpoint {
    fn pipeline(&self, peer: ProcessId) -> Option<PeerStats> {
        self.peer_stats(peer)
    }
}

impl PipelineStats for InMemoryEndpoint {
    fn pipeline(&self, _: ProcessId) -> Option<PeerStats> {
        None
    }
}

/// An [`EndpointFactory`] whose endpoints record what they send.
#[derive(Debug, Clone)]
pub struct TracedFactory<F> {
    inner: F,
    collector: Arc<Collector>,
}

impl<F> TracedFactory<F> {
    pub fn new(inner: F) -> Self {
        TracedFactory {
            inner,
            collector: Arc::default(),
        }
    }

    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }
}

impl<F> EndpointFactory for TracedFactory<F>
where
    F: EndpointFactory,
    F::Endpoint: PipelineStats,
{
    type Endpoint = TracedEndpoint<F::Endpoint>;

    fn open(&self, id: ProcessId) -> Result<Self::Endpoint, TransportError> {
        Ok(TracedEndpoint {
            inner: self.inner.open(id)?,
            collector: Arc::clone(&self.collector),
            log: Mutex::default(),
        })
    }

    fn close(&self, id: ProcessId) {
        self.inner.close(id);
    }
}

#[derive(Debug, Default)]
struct Log {
    events: Vec<SendEvent>,
    calls: u32,
    /// Every peer this endpoint sent to, for the pipeline totals at drop.
    peers: Vec<ProcessId>,
}

/// An endpoint that times and counts its own sends.
#[derive(Debug)]
pub struct TracedEndpoint<E: Endpoint + PipelineStats> {
    inner: E,
    collector: Arc<Collector>,
    /// Effectively single-threaded (one server thread or one client
    /// thread sends on an endpoint); the lock is there for `Sync`.
    log: Mutex<Log>,
}

impl<E: Endpoint + PipelineStats> TracedEndpoint<E> {
    /// Runs `send` on the inner endpoint and records one event per
    /// message, all stamped with the call's entry and exit.
    fn traced<T>(
        &self,
        meta: impl IntoIterator<Item = (ProcessId, Kind, Option<RoundKey>, u32)>,
        send: impl FnOnce() -> T,
    ) -> T {
        let entry_ns = now_ns();
        let result = send();
        let exit_ns = now_ns();
        let mut log = self.log.lock().expect("trace log poisoned");
        let call = log.calls;
        log.calls += 1;
        let from = self.inner.id();
        for (to, kind, round, bytes) in meta {
            if !log.peers.contains(&to) {
                log.peers.push(to);
            }
            log.events.push(SendEvent {
                entry_ns,
                exit_ns,
                from,
                call,
                kind,
                round,
                bytes,
            });
        }
        result
    }
}

fn describe(to: ProcessId, msg: &Msg) -> (ProcessId, Kind, Option<RoundKey>, u32) {
    let (kind, round) = classify(msg);
    (to, kind, round, msg.encoded_len() as u32)
}

impl<E: Endpoint + PipelineStats> Endpoint for TracedEndpoint<E> {
    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn send(&self, to: ProcessId, msg: Msg) -> Result<(), TransportError> {
        let meta = [describe(to, &msg)];
        self.traced(meta, || self.inner.send(to, msg))
    }

    fn send_batch(&self, batch: Vec<(ProcessId, Msg)>) {
        let meta: Vec<_> = batch.iter().map(|(to, msg)| describe(*to, msg)).collect();
        self.traced(meta, || self.inner.send_batch(batch));
    }

    fn inbox(&self) -> &Receiver<Inbound> {
        self.inner.inbox()
    }
}

impl<E: Endpoint + PipelineStats> Drop for TracedEndpoint<E> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned log just loses its records.
        let Ok(log) = self.log.get_mut() else { return };
        if let Ok(mut totals) = self.collector.pipelines.lock() {
            for stats in log.peers.iter().filter_map(|&p| self.inner.pipeline(p)) {
                totals.frames_sent += stats.frames_sent;
                totals.batches += stats.batches;
                totals.frames_dropped += stats.frames_dropped;
            }
        }
        if let Ok(mut buffers) = self.collector.buffers.lock() {
            buffers.push(std::mem::take(&mut log.events));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr::core::OpId;
    use mwr::runtime::InMemoryTransport;
    use mwr::types::{ClientId, ConfigEpoch, ReaderId};

    fn handle(seq: u64, phase: u8) -> OpHandle {
        OpHandle {
            op: OpId {
                client: ClientId::Reader(ReaderId::new(0)),
                seq,
            },
            phase,
        }
    }

    #[test]
    fn classify_sees_through_frame_headers() {
        let bare = Msg::Query {
            handle: handle(3, 1),
        };
        assert_eq!(
            classify(&bare),
            (
                Kind::Query,
                Some(RoundKey {
                    register: RegisterId::DEFAULT,
                    handle: handle(3, 1)
                })
            )
        );
        let wrapped = Msg::ForRegister {
            register: RegisterId::new(9),
            inner: Box::new(Msg::UpdateAck {
                handle: handle(4, 2),
            }),
        };
        let framed = Msg::InEpoch {
            epoch: ConfigEpoch::ZERO,
            inner: Box::new(wrapped),
        };
        assert_eq!(
            classify(&framed),
            (
                Kind::UpdateAck,
                Some(RoundKey {
                    register: RegisterId::new(9),
                    handle: handle(4, 2)
                })
            )
        );
        assert_eq!(classify(&Msg::StateFetch { nonce: 1 }), (Kind::Other, None));
    }

    #[test]
    fn endpoints_record_sends_and_hand_them_over_on_drop() {
        let factory = TracedFactory::new(InMemoryTransport::new());
        let client = factory.open(ProcessId::reader(0)).unwrap();
        let server = factory.open(ProcessId::server(0)).unwrap();
        client
            .send(
                ProcessId::server(0),
                Msg::Query {
                    handle: handle(0, 1),
                },
            )
            .unwrap();
        client.send_batch(vec![
            (
                ProcessId::server(0),
                Msg::Query {
                    handle: handle(1, 1),
                },
            ),
            (
                ProcessId::server(7),
                Msg::Query {
                    handle: handle(1, 1),
                },
            ),
        ]);
        assert_eq!(server.inbox().len(), 2, "messages really travel");
        assert!(
            factory.collector().take_events().is_empty(),
            "nothing until drop"
        );
        drop(client);
        let events = factory.collector().take_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events.iter().map(|e| e.call).collect::<Vec<_>>(), [0, 1, 1]);
        assert!(events.iter().all(|e| e.kind == Kind::Query && e.bytes > 0));
        assert!(events
            .iter()
            .all(|e| e.entry_ns <= e.exit_ns && e.from == ProcessId::reader(0)));
        assert_eq!(
            (events[1].entry_ns, events[1].exit_ns),
            (events[2].entry_ns, events[2].exit_ns)
        );
        drop(server);
    }
}
