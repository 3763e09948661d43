//! Masking-quorum arithmetic for clusters with Byzantine servers.

use std::fmt;

use mwr_types::ClusterConfig;

/// Parameters of a Byzantine register cluster: `S` servers of which at most
/// `b` are Byzantine (arbitrarily corrupting or withholding their replies),
/// `R` readers and `W` writers. Clients are correct; channels are reliable.
///
/// The failure budget `b` subsumes crashes: a crashed server is a Byzantine
/// server that chose silence ([`ByzBehavior::Mute`]).
///
/// [`ByzBehavior::Mute`]: crate::ByzBehavior::Mute
///
/// # Examples
///
/// ```
/// use mwr_byz::ByzConfig;
///
/// let config = ByzConfig::new(5, 1, 2, 2)?;
/// assert_eq!(config.quorum_size(), 4);    // S − b, intersecting in ≥ 2b + 1
/// assert_eq!(config.vouch_threshold(), 2); // b + 1
/// assert!(config.masking_feasible());      // S ≥ 4b + 1
/// # Ok::<(), mwr_byz::ByzConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByzConfig {
    servers: usize,
    byz: usize,
    readers: usize,
    writers: usize,
}

/// Error constructing a [`ByzConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ByzConfigError {
    /// Fewer than two servers cannot form a distributed emulation.
    TooFewServers {
        /// Requested server count.
        servers: usize,
    },
    /// The masking-quorum construction requires `S ≥ 4b + 1`.
    TooManyByzantine {
        /// Requested server count.
        servers: usize,
        /// Requested Byzantine budget.
        byz: usize,
    },
    /// At least one reader and one writer are required.
    NoClients,
}

impl fmt::Display for ByzConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ByzConfigError::TooFewServers { servers } => {
                write!(f, "need at least 2 servers, got {servers}")
            }
            ByzConfigError::TooManyByzantine { servers, byz } => {
                write!(f, "masking quorums need S ≥ 4b + 1, got S = {servers}, b = {byz}")
            }
            ByzConfigError::NoClients => write!(f, "need at least one reader and one writer"),
        }
    }
}

impl std::error::Error for ByzConfigError {}

impl ByzConfig {
    /// Creates a configuration, validating the masking-quorum requirement.
    ///
    /// # Errors
    ///
    /// Returns [`ByzConfigError`] when `S < 2`, when `S < 4b + 1`, or when
    /// there are no readers or writers.
    pub fn new(
        servers: usize,
        byz: usize,
        readers: usize,
        writers: usize,
    ) -> Result<Self, ByzConfigError> {
        if servers < 2 {
            return Err(ByzConfigError::TooFewServers { servers });
        }
        if servers < 4 * byz + 1 {
            return Err(ByzConfigError::TooManyByzantine { servers, byz });
        }
        if readers == 0 || writers == 0 {
            return Err(ByzConfigError::NoClients);
        }
        Ok(ByzConfig { servers, byz, readers, writers })
    }

    /// Number of servers `S`.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Byzantine budget `b`.
    pub fn byz(&self) -> usize {
        self.byz
    }

    /// Number of readers `R`.
    pub fn readers(&self) -> usize {
        self.readers
    }

    /// Number of writers `W`.
    pub fn writers(&self) -> usize {
        self.writers
    }

    /// The crash view `(S, t = b, R, W)`: the population as a crash-model
    /// configuration, the one the scheduling harnesses address and the
    /// facade validates against.
    pub fn crash_view(&self) -> ClusterConfig {
        ClusterConfig::new(self.servers, self.byz, self.readers, self.writers)
            .expect("every valid ByzConfig has a valid crash view (S ≥ 4b + 1 > b)")
    }

    /// The quorum size `q = S − b`: the maximal wait-free quorum,
    /// mirroring the paper's `S − t` discipline. Any two quorums intersect
    /// in `2q − S = S − 2b ≥ 2b + 1` servers (using `S ≥ 4b + 1`), hence in
    /// `≥ b + 1` *correct* servers — the masking-quorum property of
    /// Malkhi–Reiter, instantiated at threshold quorums.
    pub fn quorum_size(&self) -> usize {
        self.servers - self.byz
    }

    /// The vouching threshold `b + 1`: a reported value is believed only
    /// when this many servers report it identically (at least one of them
    /// is then correct).
    pub fn vouch_threshold(&self) -> usize {
        self.byz + 1
    }

    /// Whether the construction is live *and* safe: two quorums share at
    /// least `2b + 1` servers (`S ≥ 4b + 1`, guaranteed by construction).
    pub fn masking_feasible(&self) -> bool {
        2 * self.quorum_size() > self.servers + 2 * self.byz
    }

    /// The natural generalization of the paper's fast-read condition
    /// `t·(R + 2) < S` to the Byzantine setting: `2b·(R + 3) < S`.
    ///
    /// Derivation sketch, mirroring the crash case. A degree-`a`
    /// admissibility witness set must keep `|µ| ≥ q − a·2b` (each Byzantine
    /// server can both hide a value it holds *and* flaunt one it doesn't —
    /// a `2b` margin per degree instead of `t`), and even at the maximal
    /// degree `a = R + 1` the witness set must still intersect every other
    /// quorum in `2b + 1` servers (`b + 1` correct): `|µ| + q − S ≥ 2b + 1`.
    /// With `q = S − b` this reduces to `2b(R + 3) < S`; at `b = 0` it
    /// degenerates to the paper's `t = 0` case (always feasible).
    ///
    /// This is stated as a **conjecture** — deriving the exact Byzantine
    /// frontier is precisely the future work the paper's §5 points at; the
    /// `byz_resilience` experiment maps the empirical boundary against it.
    pub fn fast_read_conjecture(&self) -> bool {
        2 * self.byz * (self.readers + 3) < self.servers
    }
}

impl fmt::Display for ByzConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "S={} b={} R={} W={}",
            self.servers, self.byz, self.readers, self.writers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sizes_satisfy_masking_intersection() {
        // (S, b) → q = S − b with 2q − S ≥ 2b + 1.
        for (s, b, expected) in [(5, 1, 4), (9, 2, 7), (13, 3, 10), (4, 0, 4), (2, 0, 2)] {
            let c = ByzConfig::new(s, b, 1, 1).unwrap();
            assert_eq!(c.quorum_size(), expected, "S={s}, b={b}");
            assert!(2 * c.quorum_size() - s > 2 * b);
            assert!(c.masking_feasible());
        }
    }

    #[test]
    fn four_b_plus_one_is_the_boundary() {
        assert!(ByzConfig::new(5, 1, 1, 1).is_ok());
        assert!(matches!(
            ByzConfig::new(4, 1, 1, 1),
            Err(ByzConfigError::TooManyByzantine { .. })
        ));
        assert!(ByzConfig::new(9, 2, 1, 1).is_ok());
        assert!(ByzConfig::new(8, 2, 1, 1).is_err());
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        assert!(matches!(ByzConfig::new(1, 0, 1, 1), Err(ByzConfigError::TooFewServers { .. })));
        assert!(matches!(ByzConfig::new(3, 0, 0, 1), Err(ByzConfigError::NoClients)));
        assert!(matches!(ByzConfig::new(3, 0, 1, 0), Err(ByzConfigError::NoClients)));
    }

    #[test]
    fn zero_byzantine_degenerates_to_the_papers_t_zero_case() {
        let c = ByzConfig::new(5, 0, 2, 2).unwrap();
        assert_eq!(c.quorum_size(), 5, "q = S − 0: wait for everyone, as the paper does at t = 0");
        assert_eq!(c.vouch_threshold(), 1);
        assert!(c.fast_read_conjecture(), "t = 0 fast reads are always feasible");
    }

    #[test]
    fn fast_read_conjecture_shrinks_with_readers() {
        // S = 17, b = 1: conjecture holds iff 2(R + 3) < 17 ⟺ R ≤ 5.
        assert!(ByzConfig::new(17, 1, 5, 2).unwrap().fast_read_conjecture());
        assert!(!ByzConfig::new(17, 1, 6, 2).unwrap().fast_read_conjecture());
    }

    #[test]
    fn errors_render() {
        assert!(ByzConfig::new(4, 1, 1, 1).unwrap_err().to_string().contains("4b + 1"));
        assert!(ByzConfig::new(1, 0, 1, 1).unwrap_err().to_string().contains("at least 2"));
    }
}
