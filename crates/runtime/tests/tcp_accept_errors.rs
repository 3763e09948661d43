//! A failed `accept` must not be the endpoint's last: the reactor keeps
//! accepting on its listener after the descriptor table was full for a
//! while, and does not spin on the listener while it is full.
//!
//! This file holds exactly one test, so nothing else in the process needs
//! a descriptor while the test has taken them all.

#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use std::fs::File;
use std::net::TcpStream;
use std::os::raw::c_int;
use std::time::Duration;

use mwr_core::Msg;
use mwr_runtime::{Endpoint as _, TcpEndpoint, TcpRegistry};
use mwr_types::{ProcessId, Value};

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

extern "C" {
    fn getrlimit(resource: c_int, limit: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, limit: *const RLimit) -> c_int;
}

/// Lowers the soft descriptor limit to `soft`, so exhausting the table
/// takes about a hundred opens whatever limit the test was started under.
fn lower_descriptor_limit(soft: u64) {
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a valid, writable `struct rlimit` (two 64-bit
    // words on 64-bit Linux) for the duration of the call.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) }, 0, "getrlimit");
    limit.cur = soft.min(limit.max);
    // SAFETY: `limit` is a valid `struct rlimit`, only read by the call.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &limit) }, 0, "setrlimit");
}

#[test]
fn acceptor_survives_a_full_descriptor_table() {
    lower_descriptor_limit(128);
    let registry = TcpRegistry::new();
    let hub = TcpEndpoint::bind(ProcessId::server(0), &registry).unwrap();
    let peer = TcpEndpoint::bind(ProcessId::writer(0), &registry).unwrap();

    // Take every descriptor the process may still open.
    let mut hoard: Vec<File> = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        hoard.push(file);
    }
    assert!(hoard.len() > 1, "nothing to exhaust");
    // Give one back for the dialing end of a connection to the hub. The
    // connection completes in the kernel, the reactor wakes for the hub's
    // listener, and its `accept` finds no descriptor for the accepted end
    // (`EMFILE`).
    hoard.pop();
    let wakes_before = registry.reader_totals().wakes;
    let _dialed = TcpStream::connect(hub.local_addr()).expect("one descriptor was free");
    // Nothing but the reactor's wake count shows that it has tried.
    // Should it not be scheduled within this pause, the test passes
    // without having tested anything; it cannot fail for that reason.
    std::thread::sleep(Duration::from_millis(100));
    // The connection stays queued while the table is full, so the listener
    // stays ready. A reactor that withdraws it and retries every 1 ms
    // wakes about 100 times in this hold; one that retries at once spins
    // through orders of magnitude more.
    let wakes = registry.reader_totals().wakes - wakes_before;
    assert!(wakes < 1_000, "the reactor spun on the full descriptor table: {wakes} wakes in 100 ms");
    drop(hoard);

    // Descriptors are available again: the next peer must get through.
    peer.send(ProcessId::server(0), Msg::InvokeWrite(Value::new(7))).unwrap();
    let (from, msg) = hub
        .inbox()
        .recv_timeout(Duration::from_secs(5))
        .expect("the acceptor stopped accepting after one failed accept");
    assert_eq!(from, ProcessId::writer(0));
    assert_eq!(msg, Msg::InvokeWrite(Value::new(7)));
}
