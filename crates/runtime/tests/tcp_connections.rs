//! How many sockets a TCP cluster holds: one connection per client–server
//! pair. The client dials it on its first request, and the server's replies
//! ride back on it, so neither side ever opens a second one.
//!
//! The count is the registry's gauge, summed over every endpoint opened
//! through it: each connection is counted once at the end that dialed it
//! and once at the end that accepted it.

use mwr_core::Protocol;
use mwr_runtime::{LiveReader, LiveWriter, RuntimeCluster, TcpEndpoint, TcpRegistry};
use mwr_types::{ClusterConfig, Value};

/// One write by each writer, then one read by each reader.
fn rounds(writers: &mut [LiveWriter<TcpEndpoint>], readers: &mut [LiveReader<TcpEndpoint>], n: u64) {
    for round in 0..n {
        for writer in writers.iter_mut() {
            writer.write(Value::new(round)).expect("a write completes");
        }
        for reader in readers.iter_mut() {
            reader.read().expect("a read completes");
        }
    }
}

#[test]
fn a_tcp_cluster_holds_one_connection_per_client_server_pair() {
    let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
    let cluster = RuntimeCluster::start_on(TcpRegistry::new(), config, Protocol::W2R1).unwrap();
    let mut writers: Vec<_> = (0..2).map(|i| cluster.writer(i).unwrap()).collect();
    let mut readers: Vec<_> = (0..2).map(|i| cluster.reader(i).unwrap()).collect();
    // Two ends of each connection, four clients, five servers.
    let pairs = 2 * 4 * 5;

    rounds(&mut writers, &mut readers, 50);
    let open = cluster.factory().reader_totals().open_connections;
    assert_eq!(open, pairs, "after the first 50 rounds: {open} connection ends for 20 client–server pairs");

    rounds(&mut writers, &mut readers, 50);
    let open = cluster.factory().reader_totals().open_connections;
    assert_eq!(open, pairs, "after 50 more rounds: {open} connection ends for 20 client–server pairs");

    drop((writers, readers));
    cluster.shutdown();
}
