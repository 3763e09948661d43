//! Cluster configuration: the `(S, t, R, W)` parameters of the paper's
//! system model, with quorum arithmetic and feasibility predicates.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::{ReaderId, ServerId, WriterId};

/// Errors produced when validating a [`ClusterConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The model requires at least two servers (`S ≥ 2`, paper §2.1).
    TooFewServers {
        /// The offending server count.
        servers: usize,
    },
    /// Quorum intersection requires `t < S` even to assemble one quorum;
    /// atomic W2R2 emulation additionally requires `t < S/2` (checked by
    /// [`ClusterConfig::majority_quorums_intersect`], not here).
    TooManyFaults {
        /// The offending fault bound.
        max_faults: usize,
        /// The server count it was checked against.
        servers: usize,
    },
    /// The multi-writer analysis assumes at least one reader and one writer;
    /// the paper's theorems use `R ≥ 2, W ≥ 2` but degenerate single-client
    /// clusters are permitted for the single-writer baselines.
    NoClients,
    /// A keyspace shard group cannot contain more servers than the cluster
    /// has (`g ≤ S`).
    GroupTooLarge {
        /// The offending group size.
        group_size: usize,
        /// The server count it was checked against.
        servers: usize,
    },
    /// A keyspace needs at least one shard to route registers onto.
    NoShards,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooFewServers { servers } => {
                write!(f, "replicated system needs at least 2 servers, got {servers}")
            }
            ConfigError::TooManyFaults { max_faults, servers } => write!(
                f,
                "fault bound t={max_faults} leaves no quorum among S={servers} servers"
            ),
            ConfigError::NoClients => write!(f, "cluster needs at least one reader or writer"),
            ConfigError::GroupTooLarge { group_size, servers } => write!(
                f,
                "shard group size g={group_size} exceeds cluster size S={servers}"
            ),
            ConfigError::NoShards => write!(f, "keyspace needs at least one shard"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The static parameters of a register emulation: `S` servers of which at
/// most `t` may crash, `R` readers and `W` writers.
///
/// # Examples
///
/// ```
/// use mwr_types::ClusterConfig;
///
/// // S = 5, t = 1, R = 2, W = 2: fast reads are feasible (1·(2+2) < 5).
/// let c = ClusterConfig::new(5, 1, 2, 2)?;
/// assert_eq!(c.quorum_size(), 4);
/// assert!(c.fast_read_feasible());
///
/// // S = 4, t = 1, R = 2: boundary case — 1·(2+2) = 4, not < 4.
/// let c = ClusterConfig::new(4, 1, 2, 2)?;
/// assert!(!c.fast_read_feasible());
/// # Ok::<(), mwr_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClusterConfig {
    servers: usize,
    max_faults: usize,
    readers: usize,
    writers: usize,
}

impl ClusterConfig {
    /// Creates and validates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `S < 2`, if `t ≥ S` (no quorum can ever be
    /// assembled), or if there are no clients at all.
    pub fn new(
        servers: usize,
        max_faults: usize,
        readers: usize,
        writers: usize,
    ) -> Result<Self, ConfigError> {
        if servers < 2 {
            return Err(ConfigError::TooFewServers { servers });
        }
        if max_faults >= servers {
            return Err(ConfigError::TooManyFaults { max_faults, servers });
        }
        if readers == 0 && writers == 0 {
            return Err(ConfigError::NoClients);
        }
        Ok(ClusterConfig {
            servers,
            max_faults,
            readers,
            writers,
        })
    }

    /// Number of servers `S`.
    pub const fn servers(&self) -> usize {
        self.servers
    }

    /// Fault bound `t`: the number of servers that may crash.
    pub const fn max_faults(&self) -> usize {
        self.max_faults
    }

    /// Number of readers `R`.
    pub const fn readers(&self) -> usize {
        self.readers
    }

    /// Number of writers `W`.
    pub const fn writers(&self) -> usize {
        self.writers
    }

    /// The quorum size `S − t`: every round-trip waits for this many replies
    /// so that it terminates despite `t` crashes (wait-freedom, §2.1).
    pub const fn quorum_size(&self) -> usize {
        self.servers - self.max_faults
    }

    /// Whether any two quorums of size `S − t` intersect, i.e. `t < S/2`,
    /// equivalently `2t < S`. This is the classical requirement for the
    /// two-round-trip emulations (Table 1, row W2R2).
    pub const fn majority_quorums_intersect(&self) -> bool {
        2 * self.max_faults < self.servers
    }

    /// The paper's fast-read feasibility condition `R < S/t − 2`, evaluated
    /// exactly as `t·(R + 2) < S` to avoid integer-division pitfalls
    /// (Table 1, row W2R1; §5).
    ///
    /// When `t = 0` no server ever crashes and the condition is vacuously
    /// satisfied.
    pub const fn fast_read_feasible(&self) -> bool {
        self.max_faults == 0 || self.max_faults * (self.readers + 2) < self.servers
    }

    /// Iterates over all server identifiers `s1 … sS`.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.servers as u32).map(ServerId::new)
    }

    /// Iterates over all reader identifiers `r1 … rR`.
    pub fn reader_ids(&self) -> impl Iterator<Item = ReaderId> + '_ {
        (0..self.readers as u32).map(ReaderId::new)
    }

    /// Iterates over all writer identifiers `w1 … wW`.
    pub fn writer_ids(&self) -> impl Iterator<Item = WriterId> + '_ {
        (0..self.writers as u32).map(WriterId::new)
    }

    /// Total number of processes `S + R + W`.
    pub const fn processes(&self) -> usize {
        self.servers + self.readers + self.writers
    }

    /// The configuration one reconfiguration epoch would commit: the same
    /// `t`, `R`, `W` over a different server count — revalidated from
    /// scratch, because `S` is a live correctness parameter (quorum size,
    /// majority intersection and the fast-read bound all move with it).
    ///
    /// # Errors
    ///
    /// Same as [`ClusterConfig::new`]: the target set must still assemble
    /// quorums (`t < S'`, `S' ≥ 2`).
    pub fn reconfigured(&self, servers: usize) -> Result<Self, ConfigError> {
        ClusterConfig::new(servers, self.max_faults, self.readers, self.writers)
    }
}

impl fmt::Display for ClusterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "S={} t={} R={} W={}",
            self.servers, self.max_faults, self.readers, self.writers
        )
    }
}

/// The static parameters of a sharded multi-register keyspace: `S` servers,
/// `G` shards, each shard served by a rendezvous-chosen group of `g` servers
/// of which at most `t` may crash, shared by `R` readers and `W` writers.
///
/// Every register is an independent emulation of the paper's model inside its
/// shard group, so all per-register guarantees (quorum arithmetic, fast-read
/// feasibility) are those of the *group-sized* [`ClusterConfig`] returned by
/// [`KeyspaceConfig::group_config`].
///
/// # Examples
///
/// ```
/// use mwr_types::KeyspaceConfig;
///
/// // 11 servers, groups of 5 with t = 1, 16 shards, 8 readers + 8 writers.
/// let k = KeyspaceConfig::new(11, 1, 5, 16, 8, 8)?;
/// assert_eq!(k.group_quorum(), 4);
/// assert_eq!(k.group_config().servers(), 5);
/// # Ok::<(), mwr_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KeyspaceConfig {
    servers: usize,
    max_faults: usize,
    group_size: usize,
    shards: usize,
    readers: usize,
    writers: usize,
}

impl KeyspaceConfig {
    /// Creates and validates a keyspace configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the per-group cluster `(g, t, R, W)` fails
    /// [`ClusterConfig::new`] validation, if `g > S`, or if there are no
    /// shards.
    pub fn new(
        servers: usize,
        max_faults: usize,
        group_size: usize,
        shards: usize,
        readers: usize,
        writers: usize,
    ) -> Result<Self, ConfigError> {
        // Each shard group is a self-contained register cluster; validate it
        // with the same rules as a standalone deployment.
        ClusterConfig::new(group_size, max_faults, readers, writers)?;
        if group_size > servers {
            return Err(ConfigError::GroupTooLarge { group_size, servers });
        }
        if shards == 0 {
            return Err(ConfigError::NoShards);
        }
        Ok(KeyspaceConfig {
            servers,
            max_faults,
            group_size,
            shards,
            readers,
            writers,
        })
    }

    /// Total number of servers `S` in the cluster.
    pub const fn servers(&self) -> usize {
        self.servers
    }

    /// Fault bound `t` *per shard group*.
    pub const fn max_faults(&self) -> usize {
        self.max_faults
    }

    /// Number of servers `g` serving each shard.
    pub const fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of shards registers are hashed onto.
    pub const fn shards(&self) -> usize {
        self.shards
    }

    /// Number of readers `R`.
    pub const fn readers(&self) -> usize {
        self.readers
    }

    /// Number of writers `W`.
    pub const fn writers(&self) -> usize {
        self.writers
    }

    /// The per-shard quorum size `g − t`: every per-register round-trip waits
    /// for this many replies from the shard's group.
    pub const fn group_quorum(&self) -> usize {
        self.group_size - self.max_faults
    }

    /// The cluster configuration a single register lives under: `g` servers,
    /// `t` faults, and the keyspace's full client population (any reader or
    /// writer may touch any register).
    pub fn group_config(&self) -> ClusterConfig {
        // Validated in `new`, so this cannot fail.
        ClusterConfig::new(self.group_size, self.max_faults, self.readers, self.writers)
            .expect("group config validated at construction")
    }

    /// Iterates over all server identifiers `s1 … sS`.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.servers as u32).map(ServerId::new)
    }

    /// Iterates over all reader identifiers `r1 … rR`.
    pub fn reader_ids(&self) -> impl Iterator<Item = ReaderId> + '_ {
        (0..self.readers as u32).map(ReaderId::new)
    }

    /// Iterates over all writer identifiers `w1 … wW`.
    pub fn writer_ids(&self) -> impl Iterator<Item = WriterId> + '_ {
        (0..self.writers as u32).map(WriterId::new)
    }
}

impl fmt::Display for KeyspaceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "S={} t={} g={} shards={} R={} W={}",
            self.servers, self.max_faults, self.group_size, self.shards, self.readers, self.writers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_configurations() {
        assert_eq!(
            ClusterConfig::new(1, 0, 1, 1),
            Err(ConfigError::TooFewServers { servers: 1 })
        );
        assert_eq!(
            ClusterConfig::new(3, 3, 1, 1),
            Err(ConfigError::TooManyFaults { max_faults: 3, servers: 3 })
        );
        assert_eq!(ClusterConfig::new(3, 1, 0, 0), Err(ConfigError::NoClients));
    }

    #[test]
    fn quorum_arithmetic() {
        let c = ClusterConfig::new(7, 2, 3, 2).unwrap();
        assert_eq!(c.quorum_size(), 5);
        assert!(c.majority_quorums_intersect());

        let c = ClusterConfig::new(4, 2, 1, 1).unwrap();
        assert_eq!(c.quorum_size(), 2);
        assert!(!c.majority_quorums_intersect()); // 2t = S
    }

    #[test]
    fn fast_read_condition_matches_exact_inequality() {
        // Paper: R < S/t − 2  ⟺  t(R+2) < S.
        // S=5, t=1: feasible for R ≤ 2 (t(R+2) = R+2 < 5 ⟺ R < 3).
        assert!(ClusterConfig::new(5, 1, 2, 2).unwrap().fast_read_feasible());
        assert!(!ClusterConfig::new(5, 1, 3, 2).unwrap().fast_read_feasible());
        // S=9, t=2: t(R+2) < 9 ⟺ R+2 < 4.5 ⟺ R ≤ 2.
        assert!(ClusterConfig::new(9, 2, 2, 2).unwrap().fast_read_feasible());
        assert!(!ClusterConfig::new(9, 2, 3, 2).unwrap().fast_read_feasible());
        // t = 0: vacuously feasible.
        assert!(ClusterConfig::new(2, 0, 100, 1).unwrap().fast_read_feasible());
    }

    #[test]
    fn boundary_r_equals_s_over_t_minus_2_is_infeasible() {
        // S=8, t=2 ⇒ S/t − 2 = 2; R = 2 must be infeasible (strict <).
        assert!(!ClusterConfig::new(8, 2, 2, 2).unwrap().fast_read_feasible());
        // R = 1 is feasible: 2·3 = 6 < 8.
        assert!(ClusterConfig::new(8, 2, 1, 2).unwrap().fast_read_feasible());
    }

    #[test]
    fn id_iterators_cover_all_processes() {
        let c = ClusterConfig::new(3, 1, 2, 2).unwrap();
        assert_eq!(c.server_ids().count(), 3);
        assert_eq!(c.reader_ids().count(), 2);
        assert_eq!(c.writer_ids().count(), 2);
        assert_eq!(c.processes(), 7);
    }

    #[test]
    fn keyspace_config_validates_group_and_shards() {
        let k = KeyspaceConfig::new(11, 1, 5, 16, 8, 8).unwrap();
        assert_eq!(k.group_quorum(), 4);
        assert_eq!(k.group_config(), ClusterConfig::new(5, 1, 8, 8).unwrap());
        assert_eq!(k.server_ids().count(), 11);
        assert_eq!(k.to_string(), "S=11 t=1 g=5 shards=16 R=8 W=8");

        assert_eq!(
            KeyspaceConfig::new(3, 1, 5, 4, 1, 1),
            Err(ConfigError::GroupTooLarge { group_size: 5, servers: 3 })
        );
        assert_eq!(KeyspaceConfig::new(5, 1, 3, 0, 1, 1), Err(ConfigError::NoShards));
        // Per-group validation applies: t must leave a quorum within g.
        assert_eq!(
            KeyspaceConfig::new(9, 3, 3, 4, 1, 1),
            Err(ConfigError::TooManyFaults { max_faults: 3, servers: 3 })
        );
    }
}
