//! Deployment-time and run-time errors of the facade.

use std::fmt;

use mwr_runtime::{RuntimeError, TransportError};
use mwr_sim::SimError;

/// Why a [`Deployment`](crate::Deployment) — a register or a
/// [`Keyspace`](crate::Keyspace) — could not be built or run.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    /// The protocol family is not wired to the requested backend (yet).
    Unsupported {
        /// The spec's family (`core`, `tunable`, `byzantine`).
        family: &'static str,
        /// The requested backend (`sim`, `in-memory`, `tcp`).
        backend: &'static str,
        /// What is missing.
        reason: &'static str,
    },
    /// A knob was set that the chosen shape, protocol and backend do not
    /// accept, or set to a value nothing could honour.
    Knob {
        /// The offending knob (`backend`, `timeout`, `audit`, `retry`,
        /// `faults`).
        knob: &'static str,
        /// Why the combination rejects it.
        reason: &'static str,
    },
    /// The Byzantine spec's own configuration disagrees with the
    /// deployment's cluster configuration.
    ByzMismatch {
        /// Rendered description of the disagreement.
        detail: String,
    },
    /// A keyspace's protocol reads fast, but its *group* does not satisfy
    /// the paper's feasibility bound `t(R + 2) < g` — within a shard the
    /// group plays the role of `S`.
    FastReadInfeasible {
        /// Servers per shard group.
        group_size: usize,
        /// Tolerated faults.
        max_faults: usize,
        /// Configured readers.
        readers: usize,
    },
    /// A typed start method was called for a backend other than the one
    /// configured with [`Deployment::backend`](crate::Deployment::backend).
    WrongBackend {
        /// The backend the start method builds.
        requested: &'static str,
        /// The backend the deployment is configured for.
        configured: &'static str,
    },
    /// The client endpoints of a live handle are taken: a drive
    /// (`run_closed_loop`, `run_open_loop`, `run_chaos`) was asked for after
    /// `writer()`/`reader()` minted a client, or a drive was asked for — or
    /// a client minted — after a drive already ran. Deploy a fresh handle
    /// (`Deployment::run_closed_loop` always does).
    HandlesInUse,
    /// The live transport failed while starting servers, opening client
    /// endpoints or spawning an audit sidecar thread.
    Transport(TransportError),
    /// The simulator reported an error while driving a workload.
    Sim(SimError),
    /// A live client operation failed while driving a workload.
    Runtime(RuntimeError),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Unsupported { family, backend, reason } => {
                write!(f, "the {family} family is not supported on the {backend} backend: {reason}")
            }
            DeployError::Knob { knob, reason } => {
                write!(f, "the {knob} knob does not apply here: {reason}")
            }
            DeployError::ByzMismatch { detail } => {
                write!(f, "byzantine spec disagrees with the deployment config: {detail}")
            }
            DeployError::FastReadInfeasible { group_size, max_faults, readers } => write!(
                f,
                "fast reads infeasible inside a shard group: t(R+2) < g requires \
                 {max_faults}*({readers}+2) < {group_size}; pick W2R2/W2Ra or grow the group"
            ),
            DeployError::WrongBackend { requested, configured } => write!(
                f,
                "deployment is configured for the {configured} backend, not {requested}; \
                 adjust .backend(..) or call the matching start method"
            ),
            DeployError::HandlesInUse => write!(
                f,
                "the live handle's client endpoints are taken: a drive needs a handle with \
                 no minted writer()/reader() clients, and nothing can be minted or driven \
                 after a drive has run; deploy a fresh handle"
            ),
            DeployError::Transport(e) => write!(f, "transport: {e}"),
            DeployError::Sim(e) => write!(f, "simulator: {e}"),
            DeployError::Runtime(e) => write!(f, "runtime: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<TransportError> for DeployError {
    fn from(e: TransportError) -> Self {
        DeployError::Transport(e)
    }
}

impl From<SimError> for DeployError {
    fn from(e: SimError) -> Self {
        DeployError::Sim(e)
    }
}

impl From<RuntimeError> for DeployError {
    fn from(e: RuntimeError) -> Self {
        DeployError::Runtime(e)
    }
}
