//! Criterion bench: what one event costs in `mwr_sim::Simulation` itself —
//! queue, dispatch, routing — with automata that do nothing but send back
//! what they were sent.
//!
//! Four readers and four servers keep `pending` tokens bouncing for ever;
//! each of the sixteen links has its own constant delay (1–16 ticks), so the
//! pending events are spread over virtual time rather than all due at once.
//! Two queue depths, 16 and 1 024 (the 8 × 8 `sim-wide` cluster has ≈ 87
//! events pending), and two payloads: a unit message, and a 120-byte one,
//! the size of `mwr_core::Msg`. The gap between the two payloads at one
//! depth is what carrying the message through the queue costs: an event is
//! queued by value, so the wide payload is copied in when it is scheduled
//! and out when it fires, and never boxed or sifted.
//!
//! One iteration is 1 000 events, and the rate is printed in events:
//! `cargo bench -p mwr-bench --bench sim_engine` (`taskset -c 0` to read it
//! as the repo benchmark does, on one CPU).

use std::fmt::Debug;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mwr_sim::{Automaton, Context, DelayModel, Simulation, SimTime};
use mwr_types::ProcessId;

const SIDE: u32 = 4;
const EVENTS_PER_ITER: u64 = 1_000;

/// As large as a protocol message (`size_of::<mwr_core::Msg>()` = 120).
type Wide = [u64; 15];

/// Returns every message to its sender. A reader starts a token on each
/// external input, towards its servers in turn.
struct Bounce {
    started: u32,
}

impl<M> Automaton<M, ()> for Bounce {
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<'_, M, ()>) {
        ctx.send(from, msg);
    }

    fn on_external(&mut self, input: M, ctx: &mut Context<'_, M, ()>) {
        ctx.send(ProcessId::server(self.started % SIDE), input);
        self.started += 1;
    }
}

/// A simulation with `pending` tokens in flight, past its start-up.
fn bouncing<M: Clone + Debug + Default + 'static>(pending: u32) -> Simulation<M, ()> {
    let mut sim: Simulation<M, ()> = Simulation::new(1);
    for i in 0..SIDE {
        sim.add_process(ProcessId::reader(i), Bounce { started: 0 });
        sim.add_process(ProcessId::server(i), Bounce { started: 0 });
        for j in 0..SIDE {
            let delay = DelayModel::Constant(SimTime::from_ticks(u64::from(1 + i * SIDE + j)));
            sim.network_mut().set_link_delay(ProcessId::reader(i), ProcessId::server(j), delay);
            sim.network_mut().set_link_delay(ProcessId::server(j), ProcessId::reader(i), delay);
        }
    }
    for token in 0..pending {
        sim.schedule_external(SimTime::ZERO, ProcessId::reader(token % SIDE), M::default())
            .expect("the reader was added above");
    }
    for _ in 0..10 * pending {
        sim.step();
    }
    sim
}

fn bench_payload<M: Clone + Debug + Default + 'static>(c: &mut Criterion, payload: &str) {
    let mut group = c.benchmark_group("sim_engine");
    group.throughput(Throughput::Elements(EVENTS_PER_ITER));
    for pending in [16, 1_024] {
        let mut sim = bouncing::<M>(pending);
        group.bench_function(BenchmarkId::new(payload, pending), |b| {
            b.iter(|| {
                for _ in 0..EVENTS_PER_ITER {
                    sim.step();
                }
                sim.now()
            })
        });
    }
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    assert_eq!(std::mem::size_of::<Wide>(), 120);
    bench_payload::<()>(c, "unit");
    bench_payload::<Wide>(c, "120_bytes");
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
