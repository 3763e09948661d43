//! Endpoint teardown seen from outside the transport: after `drop`, the
//! process holds no descriptor and runs no thread it did not before.
//!
//! This file holds exactly one test, so nothing else in the process opens
//! or closes descriptors, or starts or ends threads, while it counts them.

#![cfg(target_os = "linux")]

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use mwr_core::Msg;
use mwr_runtime::{Endpoint as _, TcpEndpoint, TcpRegistry};
use mwr_types::{ProcessId, Value};

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

fn running_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

/// Asserts that `count` is back to `before` after a `drop`. Every thread was
/// joined, but `join` returns when the kernel wakes the joiner, a moment
/// before it takes the ended task (and what only that task still held) off
/// `/proc`: wait for that, with a bound, before comparing.
fn assert_back_to(before: usize, count: fn() -> usize, what: &str) {
    let unlisted = Instant::now() + Duration::from_secs(1);
    while count() != before && Instant::now() < unlisted {
        std::thread::yield_now();
    }
    assert_eq!(count(), before, "{what}");
}

#[test]
fn endpoint_drop_leaves_no_socket_open() {
    let before = open_descriptors();
    let threads_before = running_threads();
    let registry = TcpRegistry::new();
    let hub = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
    let peers: Vec<TcpEndpoint> =
        (0..4).map(|i| TcpEndpoint::bind(ProcessId::writer(i), &registry).unwrap()).collect();
    // Every kind of connection an endpoint can hold: accepted and read
    // (peer → hub), dialed for a reply and written (hub → peer), and
    // dialed towards a peer that never answers (hub → last peer).
    for peer in &peers[..3] {
        peer.send(ProcessId::server(0), Msg::InvokeWrite(Value::new(1))).unwrap();
        let (from, _) = hub.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        hub.send(from, Msg::InvokeRead).unwrap();
        peer.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
    }
    hub.send(ProcessId::writer(3), Msg::InvokeRead).unwrap();
    peers[3].inbox().recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(open_descriptors() > before, "the endpoints hold sockets while alive");
    assert!(running_threads() > threads_before, "the endpoints run threads while alive");

    let gauges: Vec<_> =
        peers.iter().chain([&hub]).map(TcpEndpoint::connection_gauge).collect();
    // The hub's reader counts the connection the hub dialed on its next
    // wake-up, which can come after the peer has already been heard.
    let adopted = Instant::now() + Duration::from_secs(5);
    while gauges[4].load(Ordering::SeqCst) < 7 && Instant::now() < adopted {
        std::thread::yield_now();
    }
    assert_eq!(
        gauges[4].load(Ordering::SeqCst),
        7,
        "three accepted, three dialed for replies and one dialed to the silent peer"
    );
    // Half the peers go first (the hub reaps their EOFs or not — either
    // way its own drop must close what is left), then the hub, then the
    // peers whose connections the hub's drop just killed.
    let mut peers = peers;
    peers.truncate(2);
    drop(hub);
    drop(peers);
    for gauge in gauges {
        assert_eq!(gauge.load(Ordering::SeqCst), 0, "teardown must empty every gauge");
    }
    assert_back_to(before, open_descriptors, "teardown leaked a descriptor");
    assert_back_to(threads_before, running_threads, "a thread outlived its endpoint's drop");
}
