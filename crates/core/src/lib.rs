//! Multi-writer atomic register protocols — the core library of the `mwr`
//! workspace, reproducing *Fine-grained Analysis on Fast Implementations of
//! Multi-writer Atomic Registers* (Huang, Huang & Wei, PODC 2020).
//!
//! # The design space
//!
//! A register emulation is classified by round-trips per operation (Fig 2):
//! `WxRy` = writes take `x` round-trips, reads take `y`. This crate
//! implements every point as a composition of [`WriteMode`] × [`ReadMode`]
//! over a single unified [`RegisterServer`] (Algorithm 2):
//!
//! | [`Protocol`] | Write | Read | Atomic? |
//! |---|---|---|---|
//! | [`Protocol::W2R2`] | slow | slow | iff `t < S/2` (LS97) |
//! | [`Protocol::W2R1`] | slow | fast | iff `R < S/t − 2` — **the paper's Algorithms 1–2** |
//! | [`Protocol::AbdSwmrW1R2`] | fast | slow | single writer only (ABD) |
//! | [`Protocol::DuttaSwmrW1R1`] | fast | fast | single writer and `R < S/t − 2` |
//! | [`Protocol::NaiveW1R2`] | fast | slow | **never** with `W ≥ 2, t ≥ 1` (Theorem 1) |
//! | [`Protocol::NaiveW1R1`] | fast | fast | **never** with `W ≥ 2, t ≥ 1` |
//!
//! The two "naive" protocols exist *because* the paper proves them
//! impossible: they are the violation witnesses that the atomicity checker
//! in `mwr-check` catches, and `mwr-chains` mechanizes the proof that no
//! cleverer implementation can do better.
//!
//! # Correctness properties
//!
//! The W2R1 implementation satisfies the paper's MWA0–MWA4 (Appendix A):
//!
//! - **MWA0** — non-concurrent writes get increasing tags (two-round write).
//! - **MWA1** — reads return tags with non-negative timestamps.
//! - **MWA2** — a read following `wr_{k,i}` returns `≥ (k, wi)`.
//! - **MWA3** — a read never returns a value before it was written.
//! - **MWA4** — of two non-concurrent reads, the later returns `≥` the
//!   earlier.
//!
//! These are exercised by the integration and property tests at the
//! workspace root, with verdicts delivered by the `mwr-check` checkers.
//!
//! # Examples
//!
//! ```
//! use mwr_core::{Cluster, Protocol, ScheduledOp};
//! use mwr_sim::SimTime;
//! use mwr_types::{ClusterConfig, Value};
//!
//! // The paper's fast-read algorithm on S = 5 servers, t = 1, R = 2, W = 2.
//! let config = ClusterConfig::new(5, 1, 2, 2)?;
//! assert!(config.fast_read_feasible());
//! let cluster = Cluster::new(config, Protocol::W2R1);
//! let events = cluster.run_schedule(
//!     42,
//!     &[
//!         (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(7) }),
//!         (SimTime::from_ticks(100), ScheduledOp::Read { reader: 0 }),
//!     ],
//! )?;
//! assert_eq!(events.len(), 5); // incl. the slow write's second-round marker
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod admissible;
mod audit;
mod bank;
mod client;
mod cluster;
mod events;
mod msg;
mod protocol;
mod reconfig;
mod round;
mod routing;
mod server;

pub use audit::AuditRecord;

pub use admissible::{
    adaptive_degree_cap, mask_of, Admissibility, Entries, SnapshotSource, SnapshotView,
    WitnessIndex, WitnessSelector, MAX_SLOTS,
};
pub use client::RegisterClient;
pub use cluster::{Cluster, ScheduledOp};
pub use events::{ClientEvent, OpKind, OpResult};
pub use bank::ServerBank;
pub use msg::{
    ClientSet, DeltaRecords, DeltaSnapshot, FastReadState, FloorReport, Msg, OpHandle, OpId,
    ReaderCache, Record, Records, RegisterTransfer, Snapshot, SnapshotCache, StateTransfer,
    ValueRecord,
};
pub use protocol::{ParseProtocolError, Protocol};
pub use reconfig::JointQuorum;
pub use round::{FastWire, ReadMode, RoundMachine, Scope, Step, WriteMode};
pub use routing::{Router, MAX_MEMBERS};
pub use server::{RegisterServer, ServerState};
