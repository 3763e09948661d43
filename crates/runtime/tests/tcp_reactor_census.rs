//! The reactor counted from outside the transport, by thread name: a
//! registry's endpoints, however many, are read by exactly one thread,
//! which goes with the last of them and comes back with the next.
//!
//! This file holds exactly one test, so every `tcp-*` thread in the
//! process is this registry's — in `src/tcp.rs` the neighbouring unit
//! tests run reactors of their own, and a census there counts theirs.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use mwr_core::Msg;
use mwr_runtime::{Endpoint as _, TcpEndpoint, TcpRegistry};
use mwr_types::{ProcessId, Value};

/// Threads of this process whose name (as the kernel keeps it: the first
/// 15 bytes) starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter(|task| {
            let comm = task.as_ref().expect("procfs").path().join("comm");
            // A thread can end between the listing and the read.
            std::fs::read_to_string(comm).is_ok_and(|name| name.starts_with(prefix))
        })
        .count()
}

/// Asserts that `n` threads named `prefix…` are left after a `drop`. The
/// threads were joined, but `join` returns when the kernel wakes the
/// joiner, a moment before it takes the ended task off the list.
fn assert_threads_left(prefix: &str, n: usize, what: &str) {
    let unlisted = Instant::now() + Duration::from_secs(1);
    while threads_named(prefix) != n && Instant::now() < unlisted {
        std::thread::yield_now();
    }
    assert_eq!(threads_named(prefix), n, "{what}");
}

/// Binds `n` endpoints and passes a frame around the ring, so that every
/// one of them holds a dialed and an accepted connection.
fn ring(registry: &TcpRegistry, n: u32) -> Vec<TcpEndpoint> {
    let endpoints: Vec<TcpEndpoint> =
        (0..n).map(|i| TcpEndpoint::bind(ProcessId::server(i), registry).unwrap()).collect();
    for (i, endpoint) in endpoints.iter().enumerate() {
        let next = &endpoints[(i + 1) % endpoints.len()];
        endpoint.send(next.id(), Msg::InvokeWrite(Value::new(i as u64))).unwrap();
        let (from, _) = next.inbox().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, endpoint.id());
    }
    endpoints
}

#[test]
fn a_registry_runs_one_reactor_thread_however_many_endpoints_it_has() {
    assert_eq!(threads_named("tcp-"), 0, "nothing of the transport runs before the first bind");
    let registry = TcpRegistry::new();

    let mut endpoints = ring(&registry, 8);
    assert_eq!(threads_named("tcp-reactor"), 1);
    assert_eq!(threads_named("tcp-acceptor"), 8);
    // Nothing else: no reader of an endpoint's own under any name (and one
    // sender per endpoint never needs a drain thread).
    assert_eq!(threads_named("tcp-"), 9);

    // The reactor belongs to the endpoints jointly: it outlives any of
    // them, and goes with the last — while the registry is still here.
    endpoints.truncate(3);
    assert_threads_left("tcp-", 4, "three acceptors and the reactor stay");
    assert_eq!(threads_named("tcp-reactor"), 1);
    drop(endpoints);
    assert_threads_left("tcp-", 0, "a thread outlived the registry's last endpoint");

    // A second generation on the same registry: one reactor again.
    let endpoints = ring(&registry, 2);
    assert_eq!(threads_named("tcp-reactor"), 1);
    assert_eq!(threads_named("tcp-"), 3);
    drop(endpoints);
    assert_threads_left("tcp-", 0, "a thread outlived the second generation");
}
