//! Byzantine extension of the multi-writer register protocols.
//!
//! The paper closes §5 with: *"for our W2R1 implementation, we can further
//! study whether it can be extended to further tolerate Byzantine failures.
//! The extension is principally the same with that in the single-writer
//! case"* (Dutta et al. \[12\]). This crate builds that extension and the
//! adversary to test it against:
//!
//! - [`ByzBehavior`] — reply-corrupting server adversaries: hiding writes
//!   ([`ByzBehavior::StaleReplier`]), forging arbitrarily large tags
//!   ([`ByzBehavior::TagInflater`]), answering different clients
//!   differently ([`ByzBehavior::Equivocator`]), or going silent
//!   ([`ByzBehavior::Mute`]). Impossibility results in the crash model
//!   carry over to this strictly stronger model for free (§5.2 of the
//!   paper); the interesting direction is making the *implementations*
//!   survive.
//! - [`ByzConfig`] — masking-quorum arithmetic: quorums of size `S − b`
//!   (the maximal wait-free quorum, mirroring the paper's `S − t`)
//!   intersect in `S − 2b ≥ 2b + 1` servers, so every two quorums share
//!   `b + 1` *correct* servers; requires `S ≥ 4b + 1` (Malkhi–Reiter
//!   masking quorums, here with unauthenticated data).
//! - [`ByzClient`] — register clients hardened by **vouching**: a reported
//!   value counts only when `b + 1` servers report it identically, and
//!   writers take the `(b+1)`-st largest reported tag (immune to
//!   inflation). Two read modes: [`ByzReadMode::Slow`] (vouched maximum +
//!   write-back — the Byzantine W2R2) and [`ByzReadMode::Fast`] (vouched
//!   admissibility, one round-trip — the Byzantine W2R1).
//! - [`byz_cluster`] — the simulated blueprint: a `mwr_core::Cluster`
//!   over these servers and clients, scheduled against its crash view, so
//!   every schedule- and workload-driven harness runs it like any other
//!   protocol family.
//!
//! For the fast read the exact feasibility frontier is precisely the open
//! question the paper leaves; [`ByzConfig::fast_read_conjecture`] states
//! the natural generalization `2b·(R + 2) < q` of the paper's
//! `t·(R + 2) < S`, and the `byz_resilience` experiment in `mwr-bench`
//! maps the empirical boundary against it.
//!
//! # Examples
//!
//! The Byzantine W2R2 surviving a tag-forging server that breaks the
//! crash-tolerant protocol:
//!
//! ```
//! use mwr_byz::{byz_cluster, ByzBehavior, ByzConfig, ByzReadMode};
//! use mwr_core::ScheduledOp;
//! use mwr_sim::SimTime;
//! use mwr_types::Value;
//!
//! let config = ByzConfig::new(5, 1, 2, 2)?;
//! assert!(config.masking_feasible());
//! let cluster = byz_cluster(config, ByzReadMode::Slow, ByzBehavior::TagInflater { boost: 1_000 });
//! let events = cluster.run_schedule(
//!     1,
//!     &[
//!         (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(7) }),
//!         (SimTime::from_ticks(100), ScheduledOp::Read { reader: 0 }),
//!     ],
//! )?;
//! // The read returns the genuine write, not the forged tag.
//! assert_eq!(events.len(), 6); // both ops take two round-trips
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod behavior;
mod client;
mod cluster;
mod config;
mod server;
mod vouch;

pub use behavior::ByzBehavior;
pub use client::{ByzClient, ByzReadMode};
pub use cluster::byz_cluster;
pub use config::{ByzConfig, ByzConfigError};
pub use server::ByzRegisterServer;
pub use vouch::{safe_max_tag, vouched_snapshots, vouched_values};
