//! Consistency levels and write-tagging disciplines — the tunables of a
//! quorum-replicated register in the Cassandra mould (paper §1).

use std::fmt;

use mwr_types::ClusterConfig;

/// How many server acknowledgements an operation round waits for.
///
/// This is the per-operation "consistency level" knob of quorum-replicated
/// stores, and the `quorum` of the round machine's scope. The round still
/// *broadcasts* to all servers (the paper's algorithm schema, §2.2); the
/// level only decides when the client stops waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsistencyLevel {
    /// Wait for a single acknowledgement.
    One,
    /// Wait for a majority: `⌊S/2⌋ + 1`.
    Majority,
    /// Wait for every server. Blocks (loses wait-freedom) if any server is
    /// crashed — the classic `ALL` trade-off.
    All,
    /// Wait for exactly `n` acknowledgements, clamped to `[1, S]`.
    Exact(u32),
}

impl ConsistencyLevel {
    /// The number of acknowledgements this level waits for under `config`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mwr_almost::ConsistencyLevel;
    /// use mwr_types::ClusterConfig;
    ///
    /// let config = ClusterConfig::new(5, 1, 2, 2)?;
    /// assert_eq!(ConsistencyLevel::One.acks(&config), 1);
    /// assert_eq!(ConsistencyLevel::Majority.acks(&config), 3);
    /// assert_eq!(ConsistencyLevel::All.acks(&config), 5);
    /// assert_eq!(ConsistencyLevel::Exact(9).acks(&config), 5); // clamped
    /// # Ok::<(), mwr_types::ConfigError>(())
    /// ```
    pub fn acks(self, config: &ClusterConfig) -> usize {
        let s = config.servers();
        match self {
            ConsistencyLevel::One => 1,
            ConsistencyLevel::Majority => s / 2 + 1,
            ConsistencyLevel::All => s,
            ConsistencyLevel::Exact(n) => (n as usize).clamp(1, s),
        }
    }

    /// Whether an operation at this level is wait-free under `config`: it
    /// can complete with `t` servers crashed, i.e. `acks ≤ S − t`.
    pub fn wait_free(self, config: &ClusterConfig) -> bool {
        self.acks(config) <= config.servers() - config.max_faults()
    }

    /// Short name used in experiment tables.
    pub fn name(self) -> String {
        match self {
            ConsistencyLevel::One => "ONE".to_string(),
            ConsistencyLevel::Majority => "MAJ".to_string(),
            ConsistencyLevel::All => "ALL".to_string(),
            ConsistencyLevel::Exact(n) => format!("={n}"),
        }
    }
}

impl fmt::Display for ConsistencyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// How writes obtain their tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteTagging {
    /// One round-trip: the writer stamps values from a local counter and
    /// ties are broken by writer id — last-writer-wins. This is the "fast
    /// write" whose multi-writer atomicity Theorem 1 rules out.
    Local,
    /// Two round-trips: query the maximum tag first, then write
    /// `(maxTS + 1, wi)` — the tag discipline of the paper's Algorithm 1 /
    /// LS97. Both rounds wait for the write level.
    Queried,
}

impl WriteTagging {
    /// Round-trips per write under this discipline.
    pub fn round_trips(self) -> usize {
        match self {
            WriteTagging::Local => 1,
            WriteTagging::Queried => 2,
        }
    }
}

/// A full tunable-register configuration: tagging plus per-operation levels
/// plus read repair.
///
/// # Examples
///
/// ```
/// use mwr_almost::{ConsistencyLevel, TunableSpec, WriteTagging};
/// use mwr_types::ClusterConfig;
///
/// let config = ClusterConfig::new(5, 1, 2, 2)?;
/// let strong = TunableSpec::strong();
/// assert!(strong.quorums_intersect(&config));
/// assert_eq!(strong.write_round_trips(), 2);
///
/// let fastest = TunableSpec::fastest();
/// assert!(!fastest.quorums_intersect(&config));
/// assert_eq!(fastest.write_round_trips(), 1);
/// assert_eq!(fastest.read_round_trips(), 1);
/// # Ok::<(), mwr_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TunableSpec {
    /// How writes obtain tags.
    pub tagging: WriteTagging,
    /// Ack threshold of the write's update round.
    pub write_level: ConsistencyLevel,
    /// Ack threshold of the read round.
    pub read_level: ConsistencyLevel,
    /// Cassandra-style read repair: after a read completes, asynchronously
    /// push the value it chose to all servers (fire-and-forget; does not
    /// add client-perceived latency).
    pub read_repair: bool,
}

impl TunableSpec {
    /// The fastest configuration: local tags, ONE/ONE, no repair. Both
    /// operations are one round-trip — the design point the paper proves
    /// cannot be atomic (`W1R1` row of Table 1).
    pub fn fastest() -> Self {
        TunableSpec {
            tagging: WriteTagging::Local,
            write_level: ConsistencyLevel::One,
            read_level: ConsistencyLevel::One,
            read_repair: false,
        }
    }

    /// [`TunableSpec::fastest`] plus read repair — the common production
    /// mitigation. Still not atomic; the experiment quantifies how much
    /// repair helps.
    pub fn fastest_with_repair() -> Self {
        TunableSpec { read_repair: true, ..TunableSpec::fastest() }
    }

    /// Local (one-round-trip) writes at majority level, majority reads —
    /// "QUORUM/QUORUM" with last-writer-wins tags, the default advice for
    /// Cassandra. Overlapping quorums, but fast writes still admit
    /// anomalies under write concurrency (Theorem 1 explains why).
    pub fn quorum_lww() -> Self {
        TunableSpec {
            tagging: WriteTagging::Local,
            write_level: ConsistencyLevel::Majority,
            read_level: ConsistencyLevel::Majority,
            read_repair: false,
        }
    }

    /// The strongest configuration this crate offers: queried tags
    /// (two-round-trip writes) with majority thresholds everywhere. Reads
    /// are still one round-trip without the paper's `admissible(·)`
    /// machinery, so atomicity is *not* guaranteed (the fast-read bound
    /// explains why) — but only new/old inversions between *reads* remain
    /// possible; reads never miss a completed write.
    pub fn strong() -> Self {
        TunableSpec {
            tagging: WriteTagging::Queried,
            write_level: ConsistencyLevel::Majority,
            read_level: ConsistencyLevel::Majority,
            read_repair: false,
        }
    }

    /// Round-trips per write.
    pub fn write_round_trips(self) -> usize {
        self.tagging.round_trips()
    }

    /// Round-trips per read (always one; repair is asynchronous).
    pub fn read_round_trips(self) -> usize {
        1
    }

    /// Whether the read and write ack sets are guaranteed to intersect:
    /// `read_acks + write_acks > S`. Intersection is necessary (not
    /// sufficient) for every read to observe the latest completed write.
    pub fn quorums_intersect(self, config: &ClusterConfig) -> bool {
        self.read_level.acks(config) + self.write_level.acks(config) > config.servers()
    }

    /// Whether every operation stays wait-free under `t` crashes.
    pub fn wait_free(self, config: &ClusterConfig) -> bool {
        self.write_level.wait_free(config) && self.read_level.wait_free(config)
    }

    /// Table label, e.g. `"lww W:ONE R:MAJ +repair"`.
    pub fn label(self) -> String {
        let tagging = match self.tagging {
            WriteTagging::Local => "lww".to_string(),
            WriteTagging::Queried => format!("tag@{}", self.write_level.name()),
        };
        let repair = if self.read_repair { " +repair" } else { "" };
        format!("{tagging} W:{} R:{}{repair}", self.write_level.name(), self.read_level.name())
    }
}

impl fmt::Display for TunableSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(s: usize, t: usize) -> ClusterConfig {
        ClusterConfig::new(s, t, 2, 2).unwrap()
    }

    #[test]
    fn ack_counts_follow_levels() {
        let c = config(7, 2);
        assert_eq!(ConsistencyLevel::One.acks(&c), 1);
        assert_eq!(ConsistencyLevel::Majority.acks(&c), 4);
        assert_eq!(ConsistencyLevel::All.acks(&c), 7);
        assert_eq!(ConsistencyLevel::Exact(3).acks(&c), 3);
        assert_eq!(ConsistencyLevel::Exact(0).acks(&c), 1, "clamped up");
        assert_eq!(ConsistencyLevel::Exact(40).acks(&c), 7, "clamped down");
    }

    #[test]
    fn all_is_not_wait_free_with_faults() {
        let c = config(5, 1);
        assert!(ConsistencyLevel::One.wait_free(&c));
        assert!(ConsistencyLevel::Majority.wait_free(&c));
        assert!(!ConsistencyLevel::All.wait_free(&c));
        assert!(ConsistencyLevel::Exact(4).wait_free(&c));
        assert!(!ConsistencyLevel::Exact(5).wait_free(&c));
    }

    #[test]
    fn intersection_requires_read_plus_write_over_s() {
        let c = config(5, 1);
        assert!(TunableSpec::strong().quorums_intersect(&c));
        assert!(TunableSpec::quorum_lww().quorums_intersect(&c));
        assert!(!TunableSpec::fastest().quorums_intersect(&c));
        let one_all = TunableSpec {
            tagging: WriteTagging::Local,
            write_level: ConsistencyLevel::One,
            read_level: ConsistencyLevel::All,
            read_repair: false,
        };
        assert!(one_all.quorums_intersect(&c));
        assert!(!one_all.wait_free(&c));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TunableSpec::fastest().label(), "lww W:ONE R:ONE");
        assert_eq!(TunableSpec::fastest_with_repair().label(), "lww W:ONE R:ONE +repair");
        assert_eq!(TunableSpec::strong().label(), "tag@MAJ W:MAJ R:MAJ");
        assert_eq!(ConsistencyLevel::Exact(3).to_string(), "=3");
    }

    #[test]
    fn round_trip_counts() {
        assert_eq!(TunableSpec::fastest().write_round_trips(), 1);
        assert_eq!(TunableSpec::strong().write_round_trips(), 2);
        assert_eq!(TunableSpec::strong().read_round_trips(), 1);
    }
}
