//! Property-based tests for the extension crates (`mwr-almost`,
//! `mwr-byz`) and the adaptive read mode: metric invariants, vouching
//! invariants, and cross-layer agreement, on randomized inputs.

use std::collections::BTreeSet;

use proptest::prelude::*;

use mwr::almost::{StalenessReport, TunableSpec};
use mwr::byz::{safe_max_tag, vouched_snapshots, vouched_values};
use mwr::check::{check_atomicity, History};
use mwr::core::{Protocol, ScheduledOp, Snapshot, ValueRecord};
use mwr::sim::{DelayModel, SimTime};
use mwr::types::{ClientId, ClusterConfig, Tag, TaggedValue, Value, WriterId};

mod common;
use common::{sim_cluster, tunable_cluster};

// --- generators --------------------------------------------------------------

fn arb_tag() -> impl Strategy<Value = Tag> {
    (0u64..6, 0u32..4).prop_map(|(ts, w)| {
        if ts == 0 {
            Tag::initial()
        } else {
            Tag::new(ts, WriterId::new(w))
        }
    })
}

fn arb_tagged_value() -> impl Strategy<Value = TaggedValue> {
    (arb_tag(), 0u64..50).prop_map(|(t, v)| TaggedValue::new(t, Value::new(v)))
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    proptest::collection::vec((arb_tagged_value(), 0usize..3), 0..5).prop_map(|entries| {
        let mut seen = BTreeSet::new();
        Snapshot {
            entries: entries
                .into_iter()
                .filter(|(v, _)| seen.insert(*v))
                .map(|(value, n)| ValueRecord {
                    value,
                    updated: (0..n).map(|i| ClientId::reader(i as u32)).collect(),
                })
                .collect(),
        }
    })
}

fn arb_schedule(ops: usize) -> impl Strategy<Value = Vec<(SimTime, ScheduledOp)>> {
    proptest::collection::vec((0u64..400, any::<bool>(), 0u32..2), ops).prop_map(|raw| {
        let mut value = 0;
        raw.into_iter()
            .map(|(at, is_write, client)| {
                let op = if is_write {
                    value += 1;
                    ScheduledOp::Write { writer: client, value: Value::new(value) }
                } else {
                    ScheduledOp::Read { reader: client }
                };
                (SimTime::from_ticks(at), op)
            })
            .collect()
    })
}

// --- vouching invariants ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Vouched sets shrink (weakly) as the threshold rises, and threshold 1
    /// admits every reported value.
    #[test]
    fn vouching_is_antitone_in_the_threshold(
        snaps in proptest::collection::vec(arb_snapshot(), 1..6)
    ) {
        let all: BTreeSet<TaggedValue> =
            snaps.iter().flat_map(|s| s.entries.iter().map(|e| e.value)).collect();
        let t1: BTreeSet<TaggedValue> = vouched_values(&snaps, 1).into_iter().collect();
        prop_assert_eq!(t1, all);
        let mut previous = usize::MAX;
        for threshold in 1..=snaps.len() + 1 {
            let vouched = vouched_values(&snaps, threshold);
            prop_assert!(vouched.len() <= previous);
            previous = vouched.len();
            // Every vouched value really does appear in ≥ threshold snapshots.
            for v in vouched {
                let count = snaps.iter().filter(|s| s.contains(v)).count();
                prop_assert!(count >= threshold);
            }
        }
    }

    /// Filtering snapshots to vouched values never invents entries and
    /// keeps the witness sets of surviving entries intact.
    #[test]
    fn vouched_snapshots_are_projections(
        snaps in proptest::collection::vec(arb_snapshot(), 1..6),
        threshold in 1usize..4,
    ) {
        let filtered = vouched_snapshots(&snaps, threshold);
        prop_assert_eq!(filtered.len(), snaps.len());
        for (orig, filt) in snaps.iter().zip(&filtered) {
            for entry in &filt.entries {
                prop_assert_eq!(
                    orig.updated_for(entry.value),
                    Some(entry.updated.as_slice()),
                    "witness sets preserved"
                );
            }
            prop_assert!(filt.entries.len() <= orig.entries.len());
        }
    }

    /// The safe maximum never exceeds the true maximum and never falls
    /// below any tag reported by more than `byz` servers.
    #[test]
    fn safe_max_is_bounded(
        tags in proptest::collection::vec(arb_tag(), 1..8),
        byz in 0usize..3,
    ) {
        let safe = safe_max_tag(&tags, byz);
        if tags.len() > byz {
            let max = *tags.iter().max().unwrap();
            prop_assert!(safe <= max);
            // Any tag with more than `byz` reports survives the discard.
            for t in &tags {
                let copies = tags.iter().filter(|x| *x == t).count();
                if copies > byz {
                    prop_assert!(safe >= *t);
                }
            }
        } else {
            prop_assert!(safe.is_initial());
        }
    }
}

// --- staleness metric invariants ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On arbitrary tunable-register runs: the histogram partitions the
    /// reads, the report is deterministic, and `is_fresh`/`anomaly_free`
    /// agree with their defining quantities.
    #[test]
    fn staleness_report_internal_consistency(
        schedule in arb_schedule(10),
        seed in 1u64..500,
    ) {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster = tunable_cluster(config, TunableSpec::fastest());
        let mut sim = cluster.build_sim(seed);
        sim.network_mut().set_default_delay(DelayModel::Uniform {
            lo: SimTime::from_ticks(1),
            hi: SimTime::from_ticks(15),
        });
        for (at, op) in &schedule {
            cluster.schedule(&mut sim, *at, *op).unwrap();
        }
        sim.run_until_quiescent().unwrap();
        let history = History::from_events(&sim.drain_notifications()).unwrap();
        let report = StalenessReport::analyze(&history);

        let histogram_total: usize = report.histogram().values().sum();
        prop_assert_eq!(histogram_total, report.reads());
        prop_assert_eq!(report.per_read().len(), report.reads());
        prop_assert_eq!(
            report.is_fresh(),
            report.max_staleness() == 0 && report.inversions() == 0
        );
        prop_assert_eq!(
            report.anomaly_free(),
            report.is_fresh() && report.write_order_violations() == 0
        );
        prop_assert_eq!(report.k_atomicity_lower_bound(), report.max_staleness() + 1);
        prop_assert_eq!(&StalenessReport::analyze(&history), &report, "deterministic");
    }

    /// The paper's protocols under arbitrary schedules: atomic verdicts and
    /// clean anomaly reports, in every mode including adaptive.
    #[test]
    fn paper_protocols_are_atomic_and_anomaly_free_on_random_schedules(
        schedule in arb_schedule(8),
        seed in 1u64..200,
        protocol in prop_oneof![
            Just(Protocol::W2R2),
            Just(Protocol::W2R1),
            Just(Protocol::W2Ra),
        ],
    ) {
        let config = ClusterConfig::new(5, 1, 2, 2).unwrap();
        let cluster = sim_cluster(config, protocol);
        let mut sim = cluster.build_sim(seed);
        sim.network_mut().set_default_delay(DelayModel::Uniform {
            lo: SimTime::from_ticks(1),
            hi: SimTime::from_ticks(15),
        });
        for (at, op) in &schedule {
            cluster.schedule(&mut sim, *at, *op).unwrap();
        }
        sim.run_until_quiescent().unwrap();
        let history = History::from_events(&sim.drain_notifications()).unwrap();
        prop_assert!(check_atomicity(&history).is_ok(), "{}", protocol);
        let report = StalenessReport::analyze(&history);
        prop_assert!(report.anomaly_free(), "{}: {report}", protocol);
    }
}

// --- W1Rk reduction sanity over randomized parameters --------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Expansion is an isomorphism on round-1 structure and inserts
    /// contiguous blocks: collapsing the expansion recovers the original.
    #[test]
    fn read_expansion_round_trips(
        servers in 3usize..6,
        i1 in 1usize..4,
        k in 0usize..4,
        rounds in 2u8..6,
    ) {
        let i1 = i1.min(servers);
        let k = k.min(servers);
        let base = mwr::chains::beta(servers, i1, mwr::chains::Stem::Prev, k);
        let expanded = mwr::chains::expand_reads(&base, rounds);
        // Collapse: drop rounds 3..=k and compare logs.
        let mut collapsed = mwr::chains::Execution::new(servers, "collapsed");
        for s in 0..servers {
            for &a in expanded.log(s) {
                match a {
                    mwr::chains::Arrival::Read(_, r) if r > 2 => {}
                    other => collapsed.append_at(s, other),
                }
            }
        }
        prop_assert!(collapsed.same_logs(&base));
    }
}
