//! Almost-strong consistency for quorum-replicated registers.
//!
//! The paper's closing sentence (§7) sets the agenda this crate executes:
//!
//! > *"we will fix fast implementations in the first place, and then
//! > quantify how much data inconsistency will be introduced when strictly
//! > guaranteeing atomicity is impossible."*
//!
//! Its introduction motivates the same question from practice: Cassandra-
//! style stores let every operation pick a *consistency level* (how many
//! replica acknowledgements to wait for), and "when read or write is
//! required to finish in one round-trip, weak consistency has to be
//! accepted" (§1). This crate makes both halves concrete:
//!
//! - [`TunableCluster`] / [`TunableSpec`] — register clients whose write
//!   tagging ([`WriteTagging::Local`] = one round-trip, last-writer-wins;
//!   [`WriteTagging::Queried`] = the paper's two-round-trip tag discipline)
//!   and per-operation ack thresholds ([`ConsistencyLevel`]) are tunable,
//!   with optional Cassandra-style asynchronous *read repair*.
//! - No client of its own: a [`TunableSpec`] configures `mwr-core`'s round
//!   machine (`RoundMachine`), driven by its simulator client
//!   (`RegisterClient`) against its unmodified servers. A consistency level
//!   is the quorum of the machine's scope.
//! - [`StalenessReport`] — quantification of the inconsistency a history
//!   exhibits: per-read *staleness* (how many real-time-preceding writes
//!   were newer than the returned value), new/old inversions between reads,
//!   and a sound lower bound on the `k` for which the history could be
//!   `k`-atomic.
//! - [`ConsistencyProfile`] — the measured position of a configuration on
//!   Fig 2's consistency spectrum (atomic / regular / safe / none), with the
//!   staleness quantification attached.
//!
//! The experiment binary `almost_consistency` (in `mwr-bench`) sweeps the
//! level grid and regenerates the crate-level claim: configurations whose
//! read+write thresholds do not cover a majority-intersecting quorum pair
//! trade bounded-but-nonzero staleness for one-round-trip latency, exactly
//! the trade-off the paper's impossibility theorems prove unavoidable.
//!
//! # Examples
//!
//! Quantifying the inconsistency of the fastest configuration (ONE/ONE,
//! local tags — both operations one round-trip, which Theorem 1 and the
//! fast-read bound prove cannot be atomic):
//!
//! ```
//! use mwr_almost::{ConsistencyLevel, StalenessReport, TunableCluster, TunableSpec, WriteTagging};
//! use mwr_check::History;
//! use mwr_core::{ScheduledOp, SimCluster};
//! use mwr_sim::SimTime;
//! use mwr_types::{ClusterConfig, Value};
//!
//! let config = ClusterConfig::new(5, 1, 2, 2)?;
//! let cluster = TunableCluster::new(config, TunableSpec::fastest());
//! let mut ops = vec![];
//! for i in 0..6u64 {
//!     ops.push((SimTime::from_ticks(i * 2), ScheduledOp::Write {
//!         writer: (i % 2) as u32,
//!         value: Value::new(i + 1),
//!     }));
//!     ops.push((SimTime::from_ticks(i * 2 + 1), ScheduledOp::Read { reader: (i % 2) as u32 }));
//! }
//! let events = cluster.run_schedule(7, &ops)?;
//! let report = StalenessReport::analyze(&History::from_events(&events)?);
//! // The run may or may not hit a violation at this seed; the *metric* is
//! // always defined, and zero staleness is exactly atomicity's freshness.
//! assert!(report.reads() == 6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod level;
mod metrics;
mod profile;

pub use cluster::TunableCluster;
pub use level::{ConsistencyLevel, TunableSpec, WriteTagging};
pub use metrics::{ReadStaleness, StalenessReport};
pub use profile::{ConsistencyClass, ConsistencyProfile};
