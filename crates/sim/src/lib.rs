//! Deterministic discrete-event simulator for the paper's system model.
//!
//! The paper (§2.1, Fig 1) analyses register emulations in an asynchronous
//! message-passing system: `S` servers, `R` readers, `W` writers, reliable
//! bidirectional channels between every client and every server, **no**
//! server↔server or client↔client communication, and up to `t` server
//! crashes. This crate turns that model into an executable, deterministic
//! substrate:
//!
//! - [`Simulation`] — a seeded discrete-event loop over user [`Automaton`]s.
//! - [`Network`] — per-directed-link [`DelayModel`]s, *hold/release* controls
//!   (the proofs' "skip one server" is a hold that is never released), and
//!   crash injection.
//! - [`Topology`] — enforcement of the client↔server-only communication
//!   pattern; illegal sends panic.
//!
//! Determinism: every run is a pure function of the seed and the scheduled
//! inputs. Ties in virtual time are broken by schedule order.
//!
//! Cost per event: the event queue is one FIFO bucket per pending instant,
//! so an event is appended by value when it is scheduled and taken from the
//! front of the earliest bucket when it fires — nothing is boxed or sifted,
//! and a bucket that empties is reused by the next new instant. An
//! automaton runs where it is stored: its callback can only fill the
//! buffers of its [`Context`], which the engine owns, lends out empty and
//! applies after the callback has returned, so the callback never sees the
//! engine and the engine allocates nothing for it. A link's delay stream is a function of `(seed, from, to)` alone
//! and comes into being when the link first *draws* a delay; a
//! [`DelayModel::Constant`] link never does, and a stream that does not
//! exist is indistinguishable from one that was never sampled. None of this
//! is observable: `tests/determinism.rs` and the umbrella crate's
//! `tests/sim_golden.rs` hold digests of whole runs recorded from the engine
//! that predates it.
//!
//! # Examples
//!
//! A client pinging one echo server:
//!
//! ```
//! use mwr_sim::{Automaton, Context, Simulation, SimTime};
//! use mwr_types::ProcessId;
//!
//! #[derive(Clone, Debug, PartialEq)]
//! enum Msg { Ping, Pong }
//!
//! struct Server;
//! impl Automaton<Msg, ()> for Server {
//!     fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg, ()>) {
//!         if msg == Msg::Ping {
//!             ctx.send(from, Msg::Pong);
//!         }
//!     }
//! }
//!
//! struct Client;
//! impl Automaton<Msg, ()> for Client {
//!     fn on_message(&mut self, _from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg, ()>) {
//!         if msg == Msg::Pong {
//!             ctx.notify(());
//!         }
//!     }
//!     fn on_external(&mut self, _input: Msg, ctx: &mut Context<'_, Msg, ()>) {
//!         ctx.send(ProcessId::server(0), Msg::Ping);
//!     }
//! }
//!
//! let mut sim: Simulation<Msg, ()> = Simulation::new(7);
//! sim.add_process(ProcessId::reader(0), Client);
//! sim.add_process(ProcessId::server(0), Server);
//! sim.schedule_external(SimTime::ZERO, ProcessId::reader(0), Msg::Ping)?;
//! sim.run_until_quiescent()?;
//! assert_eq!(sim.drain_notifications().len(), 1);
//! # Ok::<(), mwr_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod automaton;
mod delay;
mod event;
mod network;
mod sim;
mod time;
mod trace;

pub use automaton::{Automaton, Context, TimerId};
pub use delay::{DelayModel, GeoMatrix};
pub use event::{ControlAction, EventKind, LinkSelector};
pub use network::{LinkStatus, Network, Topology};
pub use sim::{RunStats, SimError, SteppedEvent, SteppedKind, Simulation};
pub use time::SimTime;
pub use trace::{Trace, TraceEntry};
