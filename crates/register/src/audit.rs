//! Continuous linearizability auditing of live deployments.
//!
//! [`Deployment::audit`](crate::Deployment::audit) arms a live deployment
//! — a register or a keyspace — with an [`AuditConfig`]. The resulting
//! [`LiveHandle`](crate::LiveHandle) then owns one **audit sidecar per
//! register**: every client the handle mints (or its drives mint) carries
//! its register's [`AuditTap`](mwr_runtime::AuditTap) emitting sampled
//! operation records, and a dedicated thread folds those records into
//! `mwr-check`'s [`StreamingAuditor`](mwr_check::StreamingAuditor) —
//! atomicity is checked *while the traffic runs*, with the auditor's
//! window truncation keeping memory bounded under indefinite load.
//!
//! Collect the verdicts with `LiveHandle::shutdown_audited`, which drains
//! the taps, finalizes the auditors, and returns the [`AuditReport`]s
//! (a register's one, a keyspace's per touched key) next to the usual
//! handled-requests count.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use mwr_core::Protocol;
//! use mwr_register::{AuditConfig, Backend, Deployment};
//! use mwr_types::ClusterConfig;
//!
//! let config = ClusterConfig::new(3, 1, 1, 1)?;
//! let live = Deployment::new(config)
//!     .protocol(Protocol::W2R1)
//!     .backend(Backend::InMemory)
//!     .audit(AuditConfig::default()) // sample every operation
//!     .in_memory()?;
//! live.run_open_loop(Duration::from_millis(5))?;
//! let (_handled, report) = live.shutdown_audited();
//! let report = report.expect("deployment was armed with an auditor");
//! assert!(report.verdict.is_ok(), "live traffic was atomic: {report}");
//! assert!(report.stats.audited > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::thread::{self, JoinHandle};

use mwr_check::{AuditReport, StreamConfig, StreamingAuditor};
use mwr_runtime::{AuditReceiver, AuditTap, TransportError, DEFAULT_TAP_CAPACITY};
use mwr_types::RegisterId;

use crate::error::DeployError;

/// Continuous-audit knob for live deployments, set via
/// [`Deployment::audit`](crate::Deployment::audit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Fraction of reads sampled into the auditor, in `(0, 1]`. Writes
    /// are always recorded — they are the scarce events every read's
    /// verdict depends on.
    pub sample_rate: f64,
    /// Bound on completed operations the auditor retains before forcing a
    /// check-and-truncate pass (the streaming window).
    pub window: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig { sample_rate: 1.0, window: StreamConfig::default().window }
    }
}

impl AuditConfig {
    /// Audit a `rate` fraction of reads (writes are always recorded),
    /// with the default window.
    pub fn sampled(rate: f64) -> Self {
        AuditConfig { sample_rate: rate, ..AuditConfig::default() }
    }
}

/// The per-register audit sidecars a live handle owns: atomicity is a
/// per-register property, so each register gets its own streaming
/// auditor — a tap and the thread folding the tap's records — and every
/// client of that register (across writer/reader indices) shares its tap.
/// A register deployment is key [`RegisterId::DEFAULT`].
#[derive(Debug)]
pub(crate) struct AuditHub {
    cfg: AuditConfig,
    sidecars: Mutex<HashMap<RegisterId, (AuditTap, JoinHandle<AuditReport>)>>,
}

impl AuditHub {
    pub(crate) fn new(cfg: AuditConfig) -> Self {
        AuditHub { cfg, sidecars: Mutex::new(HashMap::new()) }
    }

    /// The tap for `key`'s register, spawning its sidecar on first touch.
    ///
    /// # Errors
    ///
    /// A [`DeployError::Transport`] if the OS refuses to spawn the sidecar
    /// thread.
    pub(crate) fn tap(&self, key: RegisterId) -> Result<AuditTap, DeployError> {
        let mut sidecars = self.sidecars.lock().expect("audit hub poisoned");
        let (tap, _) = match sidecars.entry(key) {
            Entry::Occupied(sidecar) => sidecar.into_mut(),
            Entry::Vacant(slot) => {
                let cfg = self.cfg;
                let (tap, rx) = AuditTap::bounded(cfg.sample_rate, DEFAULT_TAP_CAPACITY);
                let join = thread::Builder::new()
                    .name("mwr-audit".into())
                    .spawn(move || sidecar_loop(&rx, cfg))
                    .map_err(|e| TransportError::Io { kind: e.kind() })?;
                slot.insert((tap, join))
            }
        };
        Ok(tap.clone())
    }

    /// A drive's taps: each key's clients carry [`tap`](Self::tap)`(key)`.
    /// A drive's mint cannot fail, so a sidecar that cannot spawn there
    /// panics the client thread, and the drive re-raises the panic.
    pub(crate) fn taps(&self) -> impl Fn(RegisterId) -> AuditTap + Sync + '_ {
        |key| self.tap(key).unwrap_or_else(|e| panic!("audit sidecar for register {key}: {e}"))
    }

    /// Drops the hub's tap clones and joins every sidecar. Minted clients
    /// hold their own tap clones, so each join completes once they are
    /// all dropped; a sidecar that panicked re-raises here.
    pub(crate) fn finish(self) -> BTreeMap<RegisterId, AuditReport> {
        let sidecars = self.sidecars.into_inner().expect("audit hub poisoned");
        sidecars
            .into_iter()
            .map(|(key, (tap, join))| {
                drop(tap);
                (key, join.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            })
            .collect()
    }
}

fn sidecar_loop(rx: &AuditReceiver, cfg: AuditConfig) -> AuditReport {
    let mut auditor =
        StreamingAuditor::new(StreamConfig { window: cfg.window, ..StreamConfig::default() });
    while let Ok(record) = rx.recv() {
        auditor.observe(record);
    }
    auditor.finish()
}
