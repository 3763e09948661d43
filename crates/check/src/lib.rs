//! Consistency checking for register execution histories.
//!
//! This crate turns the *definitions* of the paper into executable judges:
//!
//! - [`History`] — the observable record of invocations and responses
//!   (paper §2.1), assembled from `mwr-core` client events.
//! - [`check_atomicity`] — polynomial graph-saturation checker for
//!   atomicity (Definition 2.1), exact for uniquely-tagged histories.
//! - [`search_atomicity`] — exhaustive Wing–Gong linearization search; the
//!   oracle the graph checker is cross-validated against.
//! - [`check_regular`] / [`check_safe`] — the weaker rungs of Fig 2's
//!   consistency spectrum.
//! - [`check_mwa`] — the paper's MWA0–MWA4 proof obligations (Appendix A)
//!   for tag-disciplined protocols like W2R1.
//!
//! # Examples
//!
//! Verifying the paper's W2R1 algorithm on an adversarial schedule:
//!
//! ```
//! use mwr_check::{check_atomicity, History};
//! use mwr_core::{Cluster, Protocol, ScheduledOp};
//! use mwr_sim::SimTime;
//! use mwr_types::{ClusterConfig, Value};
//!
//! let config = ClusterConfig::new(5, 1, 2, 2)?;
//! let cluster = Cluster::new(config, Protocol::W2R1);
//! let mut ops = vec![];
//! for i in 0..4 {
//!     ops.push((SimTime::from_ticks(i * 3), ScheduledOp::Write {
//!         writer: (i % 2) as u32,
//!         value: Value::new(i),
//!     }));
//!     ops.push((SimTime::from_ticks(i * 3 + 1), ScheduledOp::Read { reader: (i % 2) as u32 }));
//! }
//! let events = cluster.run_schedule(123, &ops)?;
//! let history = History::from_events(&events)?;
//! assert!(check_atomicity(&history).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod graph;
mod history;
mod mwa;
mod search;
mod spectrum;
mod stream;

pub use graph::{check_atomicity, Verdict, Violation, WitnessNode};
pub use history::{History, HistoryError, Operation, Timestamp};
pub use mwa::{check_mwa, MwaViolation};
pub use search::{search_atomicity, MAX_SEARCH_OPS};
pub use spectrum::{check_regular, check_safe};
pub use stream::{AuditReport, AuditStats, StreamConfig, StreamingAuditor};

pub use mwr_core::AuditRecord;

use mwr_core::ClientEvent;
use mwr_sim::SimTime;

/// Convenience: build a [`History`] from client events and check atomicity.
///
/// # Errors
///
/// Returns the [`HistoryError`] if the event stream is malformed.
///
/// # Examples
///
/// ```
/// use mwr_check::check_events;
///
/// assert!(check_events(&[])?.is_ok());
/// # Ok::<(), mwr_check::HistoryError>(())
/// ```
pub fn check_events(events: &[(SimTime, ClientEvent)]) -> Result<Verdict, HistoryError> {
    Ok(check_atomicity(&History::from_events(events)?))
}
