//! Placing a measured history on the consistency spectrum of the paper's
//! Fig 2, with inconsistency quantification attached.

use std::fmt;

use mwr_check::{check_atomicity, check_regular, check_safe, History};

use crate::metrics::StalenessReport;

/// The strongest Fig 2 consistency condition a history satisfies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConsistencyClass {
    /// Not even safe: some read concurrent with no write returned a value
    /// no legal preceding write produced.
    None,
    /// Safe but not regular.
    Safe,
    /// Regular but not atomic.
    Regular,
    /// Atomic (Definition 2.1 holds).
    Atomic,
}

impl ConsistencyClass {
    /// Short table label.
    pub fn name(self) -> &'static str {
        match self {
            ConsistencyClass::None => "none",
            ConsistencyClass::Safe => "safe",
            ConsistencyClass::Regular => "regular",
            ConsistencyClass::Atomic => "ATOMIC",
        }
    }
}

impl fmt::Display for ConsistencyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A history's measured consistency class plus its staleness
/// quantification.
///
/// # Examples
///
/// ```
/// use mwr_almost::{ConsistencyClass, ConsistencyProfile};
/// use mwr_check::History;
///
/// let profile = ConsistencyProfile::measure(&History::default());
/// assert_eq!(profile.class, ConsistencyClass::Atomic);
/// assert!(profile.staleness.is_fresh());
/// ```
#[derive(Debug, Clone)]
pub struct ConsistencyProfile {
    /// The strongest condition the history satisfies.
    pub class: ConsistencyClass,
    /// The inconsistency quantification.
    pub staleness: StalenessReport,
}

impl ConsistencyProfile {
    /// Judges a history against the full spectrum and quantifies its
    /// staleness.
    pub fn measure(history: &History) -> Self {
        let class = if check_atomicity(history).is_ok() {
            ConsistencyClass::Atomic
        } else if check_regular(history).is_ok() {
            ConsistencyClass::Regular
        } else if check_safe(history).is_ok() {
            ConsistencyClass::Safe
        } else {
            ConsistencyClass::None
        };
        ConsistencyProfile { class, staleness: StalenessReport::analyze(history) }
    }
}

impl fmt::Display for ConsistencyProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} — {}", self.class, self.staleness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_core::{Cluster, Protocol, ScheduledOp};
    use mwr_sim::SimTime;
    use mwr_types::{ClusterConfig, Value};

    #[test]
    fn class_ordering_matches_spectrum_strength() {
        assert!(ConsistencyClass::Atomic > ConsistencyClass::Regular);
        assert!(ConsistencyClass::Regular > ConsistencyClass::Safe);
        assert!(ConsistencyClass::Safe > ConsistencyClass::None);
    }

    #[test]
    fn atomic_protocol_profiles_as_atomic_and_fresh() {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster = Cluster::new(config, Protocol::W2R1);
        let mut ops = vec![];
        for i in 0..5u64 {
            ops.push((SimTime::from_ticks(i * 2), ScheduledOp::Write {
                writer: (i % 2) as u32,
                value: Value::new(i + 1),
            }));
            ops.push((SimTime::from_ticks(i * 2 + 1), ScheduledOp::Read {
                reader: (i % 2) as u32,
            }));
        }
        let events = cluster.run_schedule(11, &ops).unwrap();
        let history = mwr_check::History::from_events(&events).unwrap();
        let profile = ConsistencyProfile::measure(&history);
        assert_eq!(profile.class, ConsistencyClass::Atomic);
        assert!(profile.staleness.is_fresh(), "atomic ⟹ fresh");
    }

    #[test]
    fn display_includes_class_and_staleness() {
        let profile = ConsistencyProfile::measure(&History::default());
        let text = profile.to_string();
        assert!(text.contains("ATOMIC"), "{text}");
        assert!(text.contains("0 reads"), "{text}");
    }
}
