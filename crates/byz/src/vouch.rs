//! Vouching: believing a reported value only when enough servers report it
//! identically that at least one of them must be correct.

use std::collections::BTreeMap;

use mwr_core::Snapshot;
use mwr_types::{Tag, TaggedValue};

/// The values present in at least `threshold` of the given snapshots,
/// ascending by tag.
///
/// With `threshold = b + 1`, at least one voucher is correct, so a vouched
/// value was genuinely stored by a correct server — forgeries (reported by
/// at most `b` servers) never qualify.
///
/// # Examples
///
/// ```
/// use mwr_byz::vouched_values;
/// use mwr_core::{Snapshot, ValueRecord};
/// use mwr_types::{Tag, TaggedValue, Value, WriterId};
///
/// let v = TaggedValue::new(Tag::new(1, WriterId::new(0)), Value::new(7));
/// let forged = TaggedValue::new(Tag::new(99, WriterId::new(9)), Value::new(666));
/// let with = |vals: &[TaggedValue]| Snapshot {
///     entries: vals.iter().map(|v| ValueRecord { value: *v, updated: Default::default() }).collect(),
/// };
/// let snaps = [with(&[v]), with(&[v]), with(&[forged])];
/// assert_eq!(vouched_values(&snaps, 2), vec![v]); // the forgery had one voucher
/// ```
pub fn vouched_values(snapshots: &[Snapshot], threshold: usize) -> Vec<TaggedValue> {
    let mut counts: BTreeMap<TaggedValue, usize> = BTreeMap::new();
    for snap in snapshots {
        for entry in &snap.entries {
            *counts.entry(entry.value).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .filter(|&(_, n)| n >= threshold)
        .map(|(v, _)| v)
        .collect()
}

/// The snapshots filtered down to vouched values only.
///
/// Feeding these to the `admissible(·)` evaluator makes degree counting
/// blind to forgeries while preserving the genuine entries and their
/// `updated` witness sets.
pub fn vouched_snapshots(snapshots: &[Snapshot], threshold: usize) -> Vec<Snapshot> {
    let vouched = vouched_values(snapshots, threshold);
    snapshots
        .iter()
        .map(|snap| Snapshot {
            entries: snap
                .entries
                .iter()
                .filter(|e| vouched.binary_search(&e.value).is_ok())
                .cloned()
                .collect(),
        })
        .collect()
}

/// The `(byz + 1)`-st largest of the reported tags — the inflation-immune
/// maximum.
///
/// At most `byz` of the reports are forged, so after discarding the `byz`
/// largest, the next one is at most the true maximum; and every tag that
/// `byz + 1` servers reported at least this high is retained. Writers use
/// this to pick the next timestamp: it dominates every *completed* write
/// (which is vouched by `b + 1` quorum-intersection servers) yet cannot be
/// dragged upward by forgeries.
///
/// Returns [`Tag::initial`] when there are `byz` or fewer reports.
///
/// # Examples
///
/// ```
/// use mwr_byz::safe_max_tag;
/// use mwr_types::{Tag, WriterId};
///
/// let honest = Tag::new(4, WriterId::new(0));
/// let forged = Tag::new(1_000_000, WriterId::new(9));
/// let tags = [honest, honest, honest, forged];
/// assert_eq!(safe_max_tag(&tags, 1), honest);
/// ```
pub fn safe_max_tag(tags: &[Tag], byz: usize) -> Tag {
    if tags.len() <= byz {
        return Tag::initial();
    }
    let mut sorted: Vec<Tag> = tags.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    sorted[byz]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwr_core::ValueRecord;
    use mwr_types::{ClientId, Value, WriterId};

    fn tv(ts: u64, w: u32, v: u64) -> TaggedValue {
        TaggedValue::new(Tag::new(ts, WriterId::new(w)), Value::new(v))
    }

    fn snap(vals: &[(TaggedValue, Vec<ClientId>)]) -> Snapshot {
        Snapshot {
            entries: vals
                .iter()
                .map(|(v, u)| ValueRecord { value: *v, updated: u.clone().into() })
                .collect(),
        }
    }

    #[test]
    fn vouching_requires_threshold_distinct_snapshots() {
        let a = tv(1, 0, 10);
        let b = tv(2, 1, 20);
        let snaps = [
            snap(&[(a, vec![]), (b, vec![])]),
            snap(&[(a, vec![])]),
            snap(&[(a, vec![])]),
        ];
        assert_eq!(vouched_values(&snaps, 1), vec![a, b]);
        assert_eq!(vouched_values(&snaps, 2), vec![a]);
        assert_eq!(vouched_values(&snaps, 3), vec![a]);
        assert_eq!(vouched_values(&snaps, 4), vec![]);
    }

    #[test]
    fn vouched_snapshots_preserve_witness_sets() {
        let real = tv(1, 0, 10);
        let forged = tv(50, 9, 99);
        let snaps = [
            snap(&[(real, vec![ClientId::writer(0)])]),
            snap(&[(real, vec![ClientId::writer(0), ClientId::reader(0)])]),
            snap(&[(forged, vec![ClientId::writer(0)])]),
        ];
        let filtered = vouched_snapshots(&snaps, 2);
        assert_eq!(filtered.len(), 3, "one filtered snapshot per reply");
        assert!(filtered[0].contains(real));
        assert_eq!(filtered[1].updated_for(real).unwrap().len(), 2);
        assert!(!filtered[2].contains(forged), "forgery removed");
        assert!(filtered[2].entries.is_empty());
    }

    #[test]
    fn safe_max_discards_exactly_byz_top_reports() {
        let t = |ts| Tag::new(ts, WriterId::new(0));
        assert_eq!(safe_max_tag(&[t(1), t(2), t(3), t(900)], 1), t(3));
        assert_eq!(safe_max_tag(&[t(1), t(2), t(900), t(901)], 2), t(2));
        assert_eq!(safe_max_tag(&[t(5)], 0), t(5));
    }

    #[test]
    fn safe_max_with_too_few_reports_is_initial() {
        let t = Tag::new(7, WriterId::new(0));
        assert_eq!(safe_max_tag(&[t], 1), Tag::initial());
        assert_eq!(safe_max_tag(&[], 0), Tag::initial());
    }

    #[test]
    fn safe_max_is_monotone_in_honest_reports() {
        // Adding an honest high report can only raise the safe max.
        let t = |ts| Tag::new(ts, WriterId::new(0));
        let base = safe_max_tag(&[t(1), t(2), t(3)], 1);
        let more = safe_max_tag(&[t(1), t(2), t(3), t(4)], 1);
        assert!(more >= base);
    }
}
