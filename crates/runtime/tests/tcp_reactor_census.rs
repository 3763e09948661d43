//! The reactor counted from outside the transport, by thread name: a
//! registry's endpoints, however many, are served — accepted on and read —
//! by exactly one thread, which goes with the last of them and comes back
//! with the next.
//!
//! And a server runs no thread at all, on either transport: on TCP its
//! handler runs on that reactor, in memory on the thread that sends to it.
//!
//! Every `tcp-*` thread in the process must be the registry's under count:
//! in `src/tcp.rs` the neighbouring unit tests run reactors of their own,
//! and a census there counts theirs. So the first test counts in this
//! process, which runs nothing else, and the second in a child process
//! that runs only it.

#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

use mwr_core::{Msg, Protocol};
use mwr_runtime::{Endpoint as _, EndpointFactory, InMemoryTransport, RuntimeCluster, TcpEndpoint, TcpRegistry};
use mwr_types::{ClusterConfig, ProcessId, Value};

/// Every thread of this process by name (as the kernel keeps it: the
/// first 15 bytes), with how many threads carry it.
fn census() -> BTreeMap<String, usize> {
    let mut names = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        // A thread can end between the listing and the read.
        if let Ok(name) = std::fs::read_to_string(task.expect("procfs").path().join("comm")) {
            *names.entry(name.trim_end().to_owned()).or_insert(0) += 1;
        }
    }
    names
}

/// Threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    census().iter().filter(|(name, _)| name.starts_with(prefix)).map(|(_, n)| n).sum()
}

/// Asserts that `n` threads are named `prefix…`, waiting up to a second
/// for the count to settle: a `drop` joined its threads, but `join`
/// returns when the kernel wakes the joiner, a moment before it takes the
/// ended task off the list; and a thread spawned by a `bind` may not
/// carry its name yet. A failure prints the whole census, which tells a
/// thread not yet named from one nobody expected (a thread per peer,
/// say).
fn assert_threads(prefix: &str, n: usize, what: &str) {
    let settled = Instant::now() + Duration::from_secs(1);
    while threads_named(prefix) != n && Instant::now() < settled {
        std::thread::yield_now();
    }
    assert_eq!(threads_named(prefix), n, "{what}; threads by name: {:?}", census());
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
    assert_threads("tcp-reactor", 1, "one reactor for eight endpoints");
    assert_threads("tcp-acceptor", 0, "the reactor accepts: no thread per listener");
    // Nothing else: no reader or acceptor of an endpoint's own under any
    // name, and no writer either (a send runs on its caller's thread).
    assert_threads("tcp-", 1, "the reactor is all there is");

    // The reactor belongs to the endpoints jointly: it outlives any of
    // them, and goes with the last — while the registry is still here.
    endpoints.truncate(3);
    assert_threads("tcp-reactor", 1, "the reactor outlives five endpoints");
    assert_threads("tcp-", 1, "three endpoints add no thread to the reactor");
    drop(endpoints);
    assert_threads("tcp-", 0, "a thread outlived the registry's last endpoint");

    // A second generation on the same registry: one reactor again.
    let endpoints = ring(&registry, 2);
    assert_threads("tcp-reactor", 1, "the second generation starts one reactor");
    assert_threads("tcp-", 1, "and nothing else");
    drop(endpoints);
    assert_threads("tcp-", 0, "a thread outlived the second generation");
}

/// One write and one read through `cluster`: its servers answer.
fn write_and_read<F: EndpointFactory>(cluster: &RuntimeCluster<F>) {
    let (mut writer, mut reader) = (cluster.writer(0).unwrap(), cluster.reader(0).unwrap());
    let written = writer.write(Value::new(1)).unwrap();
    assert_eq!(reader.read().unwrap(), written);
}

/// Set in the child process the second test runs itself in.
const ALONE: &str = "MWR_CENSUS_ALONE";

#[test]
fn no_server_runs_a_thread_on_either_transport() {
    if std::env::var_os(ALONE).is_none() {
        let status = Command::new(std::env::current_exe().expect("the test binary"))
            .args(["--exact", "no_server_runs_a_thread_on_either_transport", "--test-threads=1", "-q"])
            .env(ALONE, "1")
            .status()
            .expect("the census runs alone in a child process");
        assert!(status.success(), "the census failed in its child process: {status}");
        return;
    }
    let config = ClusterConfig::new(5, 1, 1, 1).unwrap();
    let tcp = RuntimeCluster::start_on(TcpRegistry::new(), config, Protocol::W2R1).unwrap();
    write_and_read(&tcp);
    assert_threads("mwr-bank", 0, "a TCP server answers on the reactor");
    assert_threads("tcp-", 1, "five servers and their clients run one reactor and nothing else");
    tcp.shutdown();
    assert_threads("tcp-", 0, "a thread outlived the TCP cluster");

    let memory = RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1).unwrap();
    write_and_read(&memory);
    assert_threads("mwr-bank", 0, "an in-memory server answers on its sender's thread");
    memory.shutdown();
}
