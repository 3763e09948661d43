//! Named protocols: the four design points of Table 1 / Fig 2, as concrete
//! combinations of write and read modes.

use std::fmt;

use mwr_types::ClusterConfig;

use crate::round::{ReadMode, WriteMode};

/// A register emulation protocol from the paper's design space.
///
/// Naming follows the paper: `WxRy` means writes take `x` round-trips and
/// reads take `y`. Multi-writer variants that are *provably not atomic*
/// (fast multi-writer writes — the paper's main theorem) are still
/// implemented, as violation witnesses for the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Slow write, slow read — the Lynch–Shvartsman '97 multi-writer ABD.
    /// Atomic whenever `t < S/2` (Table 1, row 1).
    W2R2,
    /// Slow write, fast read — **the paper's Algorithm 1 & 2**. Atomic iff
    /// `R < S/t − 2` (Table 1, row 3).
    W2R1,
    /// Slow write, *adaptive* read: one round-trip when the maximum is
    /// safely admissible, an extra write-back round otherwise. Atomic for
    /// any `R` (validated empirically across the Table 1 grid); the
    /// semifast idea of Georgiou et al., with the unbounded slow fallback
    /// their MWMR impossibility makes unavoidable (paper §6).
    W2Ra,
    /// Fast write, slow read, **single writer** — Attiya–Bar-Noy–Dolev.
    /// Atomic whenever `t < S/2`; the single-writer counterpart that shows
    /// fast writes are only impossible with `W ≥ 2`.
    AbdSwmrW1R2,
    /// Fast write, fast read, **single writer** — Dutta et al. 2010. Atomic
    /// iff `R < S/t − 2`.
    DuttaSwmrW1R1,
    /// Fast write, slow read with **multiple writers** — the design point
    /// the paper proves impossible (Theorem 1). Implemented naively
    /// (writer-local timestamps) as a violation witness.
    NaiveW1R2,
    /// Fast write, fast read with **multiple writers** — impossible per
    /// Dutta et al.; violation witness.
    NaiveW1R1,
}

impl Protocol {
    /// All protocols, in Table 1 order (the adaptive extension follows the
    /// paper's rows).
    pub const ALL: [Protocol; 7] = [
        Protocol::W2R2,
        Protocol::W2R1,
        Protocol::W2Ra,
        Protocol::AbdSwmrW1R2,
        Protocol::DuttaSwmrW1R1,
        Protocol::NaiveW1R2,
        Protocol::NaiveW1R1,
    ];

    /// The write mode this protocol uses.
    pub fn write_mode(self) -> WriteMode {
        match self {
            Protocol::W2R2 | Protocol::W2R1 | Protocol::W2Ra => WriteMode::Slow,
            Protocol::AbdSwmrW1R2
            | Protocol::DuttaSwmrW1R1
            | Protocol::NaiveW1R2
            | Protocol::NaiveW1R1 => WriteMode::Fast,
        }
    }

    /// The read mode this protocol uses.
    pub fn read_mode(self) -> ReadMode {
        match self {
            Protocol::W2R2 | Protocol::AbdSwmrW1R2 | Protocol::NaiveW1R2 => ReadMode::Slow,
            Protocol::W2R1 | Protocol::DuttaSwmrW1R1 | Protocol::NaiveW1R1 => ReadMode::Fast,
            Protocol::W2Ra => ReadMode::Adaptive,
        }
    }

    /// Round-trips a write needs.
    pub fn write_round_trips(self) -> usize {
        match self.write_mode() {
            WriteMode::Fast => 1,
            WriteMode::Slow => 2,
        }
    }

    /// Round-trips a read needs (the worst case: adaptive reads usually
    /// finish in one).
    pub fn read_round_trips(self) -> usize {
        match self.read_mode() {
            ReadMode::Fast => 1,
            ReadMode::Slow | ReadMode::Adaptive => 2,
        }
    }

    /// Whether the protocol is only meaningful with a single writer.
    pub fn is_single_writer(self) -> bool {
        matches!(self, Protocol::AbdSwmrW1R2 | Protocol::DuttaSwmrW1R1)
    }

    /// The theory's verdict: is this protocol atomic under `config`?
    ///
    /// This is the *expected* column of the Table 1 experiment; the
    /// `table1_design_space` binary compares it against checker verdicts on
    /// simulated executions.
    pub fn expected_atomic(self, config: &ClusterConfig) -> bool {
        let majority = config.majority_quorums_intersect();
        match self {
            Protocol::W2R2 => majority,
            Protocol::W2R1 => majority && config.fast_read_feasible(),
            // The adaptive fallback removes the R < S/t − 2 constraint;
            // this expectation is validated empirically by the Table 1
            // experiment rather than claimed by the paper.
            Protocol::W2Ra => majority,
            Protocol::AbdSwmrW1R2 => majority && config.writers() == 1,
            Protocol::DuttaSwmrW1R1 => {
                majority && config.writers() == 1 && config.fast_read_feasible()
            }
            // Theorem 1 (and Dutta et al. for W1R1): impossible once W ≥ 2
            // and t ≥ 1. With W = 1 these degenerate to the SWMR variants.
            Protocol::NaiveW1R2 => {
                majority && (config.writers() == 1 || config.max_faults() == 0)
            }
            Protocol::NaiveW1R1 => {
                majority
                    && config.fast_read_feasible()
                    && (config.writers() == 1 || config.max_faults() == 0)
            }
        }
    }

    /// Short human-readable name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::W2R2 => "W2R2 (LS97)",
            Protocol::W2R1 => "W2R1 (this paper)",
            Protocol::W2Ra => "W2Ra (adaptive)",
            Protocol::AbdSwmrW1R2 => "W1R2-SW (ABD)",
            Protocol::DuttaSwmrW1R1 => "W1R1-SW (DGLV)",
            Protocol::NaiveW1R2 => "W1R2-MW (naive)",
            Protocol::NaiveW1R1 => "W1R1-MW (naive)",
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`Protocol`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProtocolError {
    /// The unrecognized input.
    pub input: String,
}

impl fmt::Display for ParseProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown protocol '{}'; expected one of w2r2, w2r1, w2ra, abd, dutta, naive-w1r2, naive-w1r1",
            self.input
        )
    }
}

impl std::error::Error for ParseProtocolError {}

impl std::str::FromStr for Protocol {
    type Err = ParseProtocolError;

    /// Parses the short names used by the experiment binaries' CLI flags.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "w2r2" | "ls97" => Ok(Protocol::W2R2),
            "w2r1" => Ok(Protocol::W2R1),
            "w2ra" | "adaptive" => Ok(Protocol::W2Ra),
            "abd" | "w1r2-sw" => Ok(Protocol::AbdSwmrW1R2),
            "dutta" | "dglv" | "w1r1-sw" => Ok(Protocol::DuttaSwmrW1R1),
            "naive-w1r2" | "w1r2-mw" => Ok(Protocol::NaiveW1R2),
            "naive-w1r1" | "w1r1-mw" => Ok(Protocol::NaiveW1R1),
            other => Err(ParseProtocolError { input: other.to_string() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_counts_match_names() {
        assert_eq!(Protocol::W2R2.write_round_trips(), 2);
        assert_eq!(Protocol::W2R2.read_round_trips(), 2);
        assert_eq!(Protocol::W2R1.write_round_trips(), 2);
        assert_eq!(Protocol::W2R1.read_round_trips(), 1);
        assert_eq!(Protocol::AbdSwmrW1R2.write_round_trips(), 1);
        assert_eq!(Protocol::AbdSwmrW1R2.read_round_trips(), 2);
        assert_eq!(Protocol::NaiveW1R1.write_round_trips(), 1);
        assert_eq!(Protocol::NaiveW1R1.read_round_trips(), 1);
    }

    #[test]
    fn table1_expectations_multi_writer() {
        // S = 5, t = 1, R = 2, W = 2: fast reads feasible.
        let c = ClusterConfig::new(5, 1, 2, 2).unwrap();
        assert!(Protocol::W2R2.expected_atomic(&c));
        assert!(Protocol::W2R1.expected_atomic(&c));
        assert!(!Protocol::NaiveW1R2.expected_atomic(&c), "Theorem 1");
        assert!(!Protocol::NaiveW1R1.expected_atomic(&c));
        assert!(!Protocol::AbdSwmrW1R2.expected_atomic(&c), "ABD needs W = 1");
    }

    #[test]
    fn table1_expectations_single_writer() {
        let c = ClusterConfig::new(5, 1, 2, 1).unwrap();
        assert!(Protocol::AbdSwmrW1R2.expected_atomic(&c));
        assert!(Protocol::DuttaSwmrW1R1.expected_atomic(&c));
        // With one writer the "naive" fast write IS the ABD write.
        assert!(Protocol::NaiveW1R2.expected_atomic(&c));
    }

    #[test]
    fn w2r1_expectation_flips_at_the_feasibility_boundary() {
        // S = 5, t = 1: feasible iff R < 3.
        let feasible = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let infeasible = ClusterConfig::new(5, 1, 3, 2).unwrap();
        assert!(Protocol::W2R1.expected_atomic(&feasible));
        assert!(!Protocol::W2R1.expected_atomic(&infeasible));
    }

    #[test]
    fn no_protocol_survives_non_intersecting_quorums() {
        let c = ClusterConfig::new(4, 2, 1, 1).unwrap(); // 2t = S
        for p in Protocol::ALL {
            assert!(!p.expected_atomic(&c), "{p} should need t < S/2");
        }
    }

    #[test]
    fn display_uses_short_names() {
        assert_eq!(Protocol::W2R1.to_string(), "W2R1 (this paper)");
    }

    #[test]
    fn parsing_round_trips_and_rejects_unknowns() {
        for (input, expected) in [
            ("w2r2", Protocol::W2R2),
            ("W2R1", Protocol::W2R1),
            ("abd", Protocol::AbdSwmrW1R2),
            ("dglv", Protocol::DuttaSwmrW1R1),
            ("naive-w1r2", Protocol::NaiveW1R2),
            ("w1r1-mw", Protocol::NaiveW1R1),
        ] {
            assert_eq!(input.parse::<Protocol>().unwrap(), expected);
        }
        let err = "paxos".parse::<Protocol>().unwrap_err();
        assert!(err.to_string().contains("paxos"));
    }
}
