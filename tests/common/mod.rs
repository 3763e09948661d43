//! Shared facade helpers for the integration suites: every test that
//! needs a sim-side blueprint builds it through `Deployment` via these
//! one-liners, so the construction idiom lives in exactly one place.
//!
//! (Each integration test is its own crate, so any single suite uses only
//! a subset of these — hence the `dead_code` allowance.)

#![allow(dead_code)]

use mwr::almost::TunableSpec;
use mwr::byz::{ByzBehavior, ByzConfig, ByzReadMode};
use mwr::core::Protocol;
use mwr::register::{Cluster, Deployment};
use mwr::types::ClusterConfig;

/// Facade-built sim blueprint for a core protocol.
pub fn sim_cluster(config: ClusterConfig, protocol: Protocol) -> Cluster {
    Deployment::new(config).protocol(protocol).sim_cluster().unwrap()
}

/// Facade-built sim blueprint for a tunable-quorum spec.
pub fn tunable_cluster(config: ClusterConfig, spec: TunableSpec) -> Cluster {
    Deployment::new(config).protocol(spec).sim_cluster().unwrap()
}

/// Facade-built sim blueprint for a Byzantine cluster (crash view t = b).
pub fn byz_cluster(
    config: ByzConfig,
    read_mode: ByzReadMode,
    behavior: ByzBehavior,
) -> Cluster {
    Deployment::byz(config, read_mode, behavior).sim_cluster().unwrap()
}
