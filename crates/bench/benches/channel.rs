//! Criterion bench: what one hand-off through `crossbeam::channel` costs —
//! the price of a frame on the in-memory runtime, where every message of an
//! operation passes through exactly this and nothing else.
//!
//! Two shapes. `ping_pong` is the bare hand-off: two threads, one message
//! each way. `round_5_wait_4` is the protocol's round on S = 5, t = 1: one
//! client fans a request out to five server threads parked in the
//! `select!` of `mwr_runtime`'s server loop (inbox + shutdown channel), each
//! replies into the client's one inbox, and the client goes on after four —
//! the fifth reply is met, and skipped, in the next round.
//!
//! The figure depends on where the threads run: across two CPUs a wake is
//! an inter-processor interrupt, on one it is a context switch (and a woken
//! thread can pre-empt its waker, which is what the channel's
//! notify-after-unlock rule is about). The repo benchmark pins to one CPU;
//! to read the same cost here: `taskset -c 0 cargo bench -p mwr-bench
//! --bench channel`.

use std::thread;

use criterion::{criterion_group, criterion_main, Criterion};
use crossbeam::channel::{bounded, select, unbounded};

fn bench_ping_pong(c: &mut Criterion) {
    let (ping_tx, ping_rx) = unbounded::<u64>();
    let (pong_tx, pong_rx) = unbounded::<u64>();
    thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(n) = ping_rx.recv() {
                pong_tx.send(n).expect("the bench thread outlives the echo");
            }
        });
        c.bench_function("channel/ping_pong", |b| {
            b.iter(|| {
                ping_tx.send(1).expect("echo thread alive");
                pong_rx.recv().expect("echo thread alive")
            })
        });
        // Disconnecting the ping channel ends the echo thread.
        drop(ping_tx);
    });
}

fn bench_round(c: &mut Criterion) {
    const SERVERS: usize = 5;
    const QUORUM: usize = 4;
    let (reply_tx, reply_rx) = unbounded::<u64>();
    thread::scope(|scope| {
        let mut inboxes = Vec::new();
        let mut shutdowns = Vec::new();
        for _ in 0..SERVERS {
            let (inbox_tx, inbox_rx) = unbounded::<u64>();
            let (shutdown_tx, shutdown_rx) = bounded::<()>(1);
            let reply_tx = reply_tx.clone();
            scope.spawn(move || loop {
                select! {
                    recv(inbox_rx) -> request => {
                        let Ok(round) = request else { return };
                        reply_tx.send(round).expect("the bench thread outlives the servers");
                    }
                    recv(shutdown_rx) -> _ => return,
                }
            });
            inboxes.push(inbox_tx);
            shutdowns.push(shutdown_tx);
        }
        let mut round = 0;
        c.bench_function("channel/round_5_wait_4", |b| {
            b.iter(|| {
                round += 1;
                for inbox in &inboxes {
                    inbox.send(round).expect("server thread alive");
                }
                let mut acks = 0;
                while acks < QUORUM {
                    // An earlier round's fifth reply carries its number.
                    if reply_rx.recv().expect("server threads alive") == round {
                        acks += 1;
                    }
                }
            })
        });
        // Disconnecting its inbox ends each server thread.
        drop((inboxes, shutdowns));
    });
}

criterion_group!(benches, bench_ping_pong, bench_round);
criterion_main!(benches);
