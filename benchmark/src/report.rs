//! Turning outcomes into output: the driver's one-line result, the
//! all-workloads table with median and min/max over repeats, the stored
//! baseline, and the `selfcheck` comparison of two sets.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::json::Json;
use crate::spec::{Metric, Workload, DIAGNOSTIC, DRIVER_BOUND, END_TO_END, WORKLOAD_SPECIFIC};
use crate::stats::{median, min_max, quartiles};
use crate::workloads::Outcome;

/// Writes `text` to `name` under `benchmark/out/` (git-ignored), creating
/// the directory as needed.
///
/// # Errors
///
/// The I/O error, with the path.
pub fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// The result object the acceptance driver reads from the last line of
/// standard output: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with one `{value, unit}` per metric of `metrics`.
///
/// # Errors
///
/// Names the metric the outcome lacks (or, with `nonzero`, reads zero):
/// the driver must get no result rather than a partial one.
pub fn driver_result(outcome: &Outcome, metrics: &[Metric], nonzero: bool) -> Result<Json, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        let value = *outcome
            .metrics
            .get(m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() || (nonzero && value == 0.0) {
            return Err(format!("metric {} measured {value}", m.name));
        }
        fields.push((
            m.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(outcome.attempted.max(1) as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", Json::obj(fields)),
    ]))
}

/// The repeats of one workload.
#[derive(Debug, Clone)]
pub struct Repeats {
    /// Which workload.
    pub workload: Workload,
    /// One outcome per repeat, in run order.
    pub outcomes: Vec<Outcome>,
}

impl Repeats {
    /// The values of `metric` across repeats. `failed_share`, `violations`
    /// and `stale_reads` are derived from the outcome's counts.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| match metric {
                "failed_share" => Some(o.failed as f64 / o.attempted.max(1) as f64),
                "violations" => Some(o.violations as f64),
                "stale_reads" => Some(o.stale_reads as f64),
                _ => o.metrics.get(metric).copied(),
            })
            .collect()
    }

    /// Median over repeats.
    pub fn median(&self, metric: &str) -> Option<f64> {
        median(&self.values(metric))
    }

    /// Whether every repeat was correct.
    pub fn correct(&self) -> bool {
        self.outcomes.iter().all(Outcome::correct)
    }
}

/// One full set: every selected workload's repeats, with the host canary
/// readings taken around each repeat.
#[derive(Debug, Clone, Default)]
pub struct Set {
    /// Per workload, in interleaving order.
    pub workloads: Vec<Repeats>,
    /// Canary milliseconds, in the order they were taken.
    pub canary_ms: Vec<f64>,
}

impl Set {
    /// Whether every repeat of every workload was correct.
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(Repeats::correct)
    }
}

fn reported_metrics() -> impl Iterator<Item = &'static Metric> {
    END_TO_END
        .iter()
        .chain(&WORKLOAD_SPECIFIC)
        .chain(&DIAGNOSTIC)
}

fn bound_text(m: &Metric) -> String {
    match m.bound {
        None => "diagnostic".into(),
        Some(0.0) => "exact".into(),
        Some(b) if m.slack > 0.0 => format!("max({:.0} %, {} {})", b * 100.0, m.slack, m.unit),
        Some(b) => format!("{:.0} %", b * 100.0),
    }
}

/// Prints every metric of every workload by name, with unit, median and
/// min/max over repeats.
pub fn print_set(set: &Set) {
    for r in &set.workloads {
        println!(
            "\n== {} — {} repeat(s) ==",
            r.workload.name(),
            r.outcomes.len()
        );
        println!("   {}", r.workload.why());
        println!(
            "   {:<18} {:>6} {:>14} {:>14} {:>14}  {:<6} bound",
            "metric", "unit", "median", "min", "max", "better"
        );
        for m in reported_metrics() {
            let values = r.values(m.name);
            let (Some(med), Some((lo, hi))) = (median(&values), min_max(&values)) else {
                continue;
            };
            println!(
                "   {:<18} {:>6} {:>14.3} {:>14.3} {:>14.3}  {:<6} {}",
                m.name,
                m.unit,
                med,
                lo,
                hi,
                m.better.word(),
                bound_text(m)
            );
        }
        for (i, o) in r.outcomes.iter().enumerate() {
            let series: Vec<String> = o
                .series
                .get("ops_per_s")
                .or(o.series.get("sim_ops_per_s"))
                .map_or(vec![], |s| s.iter().map(|v| format!("{v:.0}")).collect());
            println!(
                "   repeat {i}: attempted {} failed {} violations {} stale reads (tracked) {}; \
                 ops/s per window: {}",
                o.attempted,
                o.failed,
                o.violations,
                o.stale_reads,
                series.join(" ")
            );
            for note in &o.notes {
                println!("   repeat {i}: {note}");
            }
        }
    }
}

/// The stored form of a set.
pub fn set_json(set: &Set, seed: u64, windows: usize) -> Json {
    let workloads = set.workloads.iter().map(|r| {
        let metrics = reported_metrics().filter_map(|m| {
            let values = r.values(m.name);
            let (med, (lo, hi)) = (median(&values)?, min_max(&values)?);
            Some((
                m.name,
                Json::obj([
                    ("unit", Json::Str(m.unit.into())),
                    ("better", Json::Str(m.better.word().into())),
                    ("bound", m.bound.map_or(Json::Null, Json::Num)),
                    ("median", Json::Num(med)),
                    ("min", Json::Num(lo)),
                    ("max", Json::Num(hi)),
                    (
                        "repeats",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ))
        });
        let sum = |f: fn(&Outcome) -> u64| Json::Int(r.outcomes.iter().map(f).sum::<u64>() as i64);
        (
            r.workload.name(),
            Json::obj([
                ("why", Json::Str(r.workload.why().into())),
                ("attempted", sum(|o| o.attempted)),
                ("failed", sum(|o| o.failed)),
                ("violations", sum(|o| o.violations)),
                ("stale_reads", sum(|o| o.stale_reads)),
                ("metrics", Json::obj(metrics.collect::<Vec<_>>())),
                (
                    "series",
                    Json::Arr(
                        r.outcomes
                            .iter()
                            .map(|o| {
                                Json::obj(o.series.iter().map(|(name, values)| {
                                    (
                                        *name,
                                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                                    )
                                }))
                            })
                            .collect(),
                    ),
                ),
            ]),
        )
    });
    Json::obj([
        ("benchmark", Json::Str("mwr-benchmark".into())),
        ("seed", Json::Int(seed as i64)),
        ("windows_per_repeat", Json::Int(windows as i64)),
        (
            "load_shape",
            Json::Str(
                "one process pinned to one vCPU, 2 driver threads (1 writer + 1 reader), closed \
                 loop, zero think time, 2 ops in flight; loopback/in-process, 0 injected message \
                 delay on live workloads (latency is processor + scheduler time); sim-wide: one \
                 thread, virtual time at unit link delays; every timing is quoted at the nominal \
                 host-reference round trip (value x host_ref_us / nominal_ref_us = clock reading)"
                    .into(),
            ),
        ),
        ("driver_threads", Json::Int(2)),
        ("nominal_ref_us", Json::Num(crate::reference::NOMINAL_US)),
        (
            "host_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        (
            "canary_ms",
            Json::Arr(set.canary_ms.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("workloads", Json::obj(workloads.collect::<Vec<_>>())),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Json::Null),
    ])
}

/// One `(workload, metric)` row of `spread`: what the acceptance driver
/// computes from single runs, each with another seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Spread {
    /// The workload's name.
    pub workload: &'static str,
    /// The driver-gated metric.
    pub metric: &'static Metric,
    /// One value per run, in run order.
    pub values: Vec<f64>,
    /// Their median.
    pub median: f64,
    /// Interquartile distance as a share of the median.
    pub spread: f64,
}

impl Spread {
    /// Whether the driver would accept the spread: inside [`DRIVER_BOUND`].
    /// `setup_s` is held to it too, although the driver exempts it.
    pub fn accepted(&self) -> bool {
        self.spread <= DRIVER_BOUND
    }

    /// Whether single runs resolve a change as small as the issue's bound.
    /// Where they do not, a smaller difference between two commits is
    /// *unresolved*, not *unchanged*, unless every run of one side beats
    /// every run of the other; `selfcheck`'s repeats are the finer tool.
    pub fn resolves_issue_bound(&self) -> bool {
        self.metric
            .bound
            .is_some_and(|b| self.spread <= b || self.spread * self.median <= self.metric.slack)
    }
}

/// The spread of every driver-gated metric over `runs` (driver-view
/// outcomes, one per run).
pub fn spreads(runs: &[Repeats]) -> Vec<Spread> {
    let mut rows = Vec::new();
    for r in runs {
        for metric in &END_TO_END {
            let values = r.values(metric.name);
            if let (Some(median), Some(spread)) = (median(&values), crate::stats::spread(&values)) {
                rows.push(Spread {
                    workload: r.workload.name(),
                    metric,
                    values,
                    median,
                    spread,
                });
            }
        }
    }
    rows
}

/// Prints the `spread` table (markdown, as committed in the README) and
/// returns whether the driver would accept every row.
pub fn print_spreads(rows: &[Spread]) -> bool {
    println!(
        "\n| workload | metric | unit | median | spread (IQR ÷ median) | driver bound | | \
         issue bound | single runs resolve it |"
    );
    println!("|---|---|---|---:|---:|---:|---|---:|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {:.4} | {:.1} % | {:.0} % | {} | {} | {} |",
            r.workload,
            r.metric.name,
            r.metric.unit,
            r.median,
            r.spread * 100.0,
            DRIVER_BOUND * 100.0,
            if r.accepted() { "ok" } else { "**outside**" },
            bound_text(r.metric),
            if r.resolves_issue_bound() {
                "yes"
            } else {
                "unresolved"
            },
        );
    }
    rows.iter().all(Spread::accepted)
}

/// The stored form of a `spread` run (`benchmark/spread.json`): ISSUE 11
/// wants the measured spread on record wherever a bound is wider than the
/// issue's, and `BENCHMARK.json` may hold the contract's six keys only.
pub fn spreads_json(rows: &[Spread], seed: u64, seconds: u64) -> Json {
    let entries = rows.iter().map(|r| {
        let (q1, q3) = quartiles(&r.values).unwrap_or((r.median, r.median));
        Json::obj([
            ("workload", Json::Str(r.workload.into())),
            ("metric", Json::Str(r.metric.name.into())),
            ("unit", Json::Str(r.metric.unit.into())),
            ("median", Json::Num(r.median)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("spread", Json::Num(r.spread)),
            ("driver_bound", Json::Num(DRIVER_BOUND)),
            ("issue_bound", r.metric.bound.map_or(Json::Null, Json::Num)),
            (
                "single_runs_resolve_issue_bound",
                Json::Bool(r.resolves_issue_bound()),
            ),
            (
                "runs",
                Json::Arr(r.values.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    });
    Json::obj([
        ("benchmark", Json::Str("mwr-benchmark spread".into())),
        ("first_seed", Json::Int(seed as i64)),
        ("seconds_per_run", Json::Int(seconds as i64)),
        ("spreads", Json::Arr(entries.collect())),
        ("claim", Json::Null),
    ])
}

/// One `(workload, metric)` row of `selfcheck`.
#[derive(Debug, Clone, PartialEq)]
pub struct Agreement {
    /// The workload's name.
    pub workload: &'static str,
    /// The metric.
    pub metric: &'static Metric,
    /// Median of the first set.
    pub first: f64,
    /// Median of the second set.
    pub second: f64,
}

impl Agreement {
    /// How far apart the medians are, as a share of the smaller: 0 when
    /// they agree exactly (including both zero).
    pub fn gap(&self) -> f64 {
        let (lo, hi) = (self.first.min(self.second), self.first.max(self.second));
        if hi == lo {
            0.0
        } else if lo <= 0.0 {
            f64::INFINITY
        } else {
            hi / lo - 1.0
        }
    }

    /// Whether the two sets agree within the metric's bound (or its
    /// absolute slack).
    pub fn within_bound(&self) -> bool {
        (self.first - self.second).abs() <= self.metric.slack
            || self.metric.bound.is_none_or(|b| self.gap() <= b)
    }
}

/// Compares two sets of the same build, gated metrics only.
pub fn agreements(first: &Set, second: &Set) -> Vec<Agreement> {
    let second: BTreeMap<&str, &Repeats> = second
        .workloads
        .iter()
        .map(|r| (r.workload.name(), r))
        .collect();
    let mut rows = Vec::new();
    for a in &first.workloads {
        let Some(b) = second.get(a.workload.name()) else {
            continue;
        };
        for metric in END_TO_END.iter().chain(&WORKLOAD_SPECIFIC) {
            if let (Some(x), Some(y)) = (a.median(metric.name), b.median(metric.name)) {
                rows.push(Agreement {
                    workload: a.workload.name(),
                    metric,
                    first: x,
                    second: y,
                });
            }
        }
    }
    rows
}

/// Prints the `selfcheck` table (markdown, as committed in the README)
/// and returns whether every gated pair agreed.
pub fn print_agreements(rows: &[Agreement]) -> bool {
    println!("\n| workload | metric | unit | set 1 median | set 2 median | gap | bound | |");
    println!("|---|---|---|---:|---:|---:|---:|---|");
    let mut all = true;
    for r in rows {
        let ok = r.within_bound();
        all &= ok;
        println!(
            "| {} | {} | {} | {:.3} | {:.3} | {:.1} % | {} | {} |",
            r.workload,
            r.metric.name,
            r.metric.unit,
            r.first,
            r.second,
            r.gap() * 100.0,
            bound_text(r.metric),
            if ok { "ok" } else { "**outside**" }
        );
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(pairs: &[(&'static str, f64)]) -> Outcome {
        Outcome {
            metrics: pairs.iter().copied().collect(),
            attempted: 100,
            ..Outcome::default()
        }
    }

    #[test]
    fn driver_result_has_exactly_the_contract_keys_and_round_trips() {
        let metrics = [END_TO_END[0], END_TO_END[4]];
        let out = outcome(&[("ops_per_s", 7531.25), ("setup_s", 0.0123), ("extra", 1.0)]);
        let json = driver_result(&out, &metrics, true).unwrap();
        let Json::Obj(pairs) = &json else {
            panic!("object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let line = json.compact();
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, json);
        let m = back.get("metrics").unwrap();
        assert_eq!(
            m.get("ops_per_s").unwrap().get("value").unwrap().as_f64(),
            Some(7531.25)
        );
        assert_eq!(
            m.get("setup_s").unwrap().get("unit"),
            Some(&Json::Str("s".into()))
        );
        assert!(m.get("extra").is_none(), "only the declared metrics travel");
    }

    #[test]
    fn driver_result_refuses_missing_or_zero_metrics() {
        let metrics = [END_TO_END[0]];
        assert!(driver_result(&outcome(&[]), &metrics, true).is_err());
        assert!(driver_result(&outcome(&[("ops_per_s", 0.0)]), &metrics, true).is_err());
        assert!(driver_result(&outcome(&[("ops_per_s", 0.0)]), &metrics, false).is_ok());
        assert!(driver_result(&outcome(&[("ops_per_s", f64::NAN)]), &metrics, false).is_err());
        let mut failed = outcome(&[("ops_per_s", 1.0)]);
        failed.failed = 1;
        let json = driver_result(&failed, &metrics, true).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn selfcheck_gap_is_symmetric_and_exact_metrics_must_match() {
        let set = |ops: f64, ticks: f64| Set {
            workloads: vec![Repeats {
                workload: Workload::SimWide,
                outcomes: vec![outcome(&[("ops_per_s", ops), ("rd_p50_ticks", ticks)])],
            }],
            canary_ms: vec![],
        };
        let rows = agreements(&set(100.0, 2.0), &set(108.0, 2.0));
        let ops = rows.iter().find(|r| r.metric.name == "ops_per_s").unwrap();
        assert!((ops.gap() - 0.08).abs() < 1e-12 && ops.within_bound());
        let back = agreements(&set(108.0, 2.0), &set(100.0, 2.0));
        let ops = back.iter().find(|r| r.metric.name == "ops_per_s").unwrap();
        assert!(
            (ops.gap() - 0.08).abs() < 1e-12,
            "the gap does not depend on the order"
        );
        assert!(rows.iter().all(Agreement::within_bound));
        // failed_share and violations are derived and agree at zero.
        assert!(rows
            .iter()
            .any(|r| r.metric.name == "violations" && r.gap() == 0.0));
        let off = agreements(&set(100.0, 2.0), &set(100.0, 3.0));
        assert!(off
            .iter()
            .any(|r| r.metric.name == "rd_p50_ticks" && !r.within_bound()));
        let far = agreements(&set(100.0, 2.0), &set(130.0, 2.0));
        assert!(far
            .iter()
            .any(|r| r.metric.name == "ops_per_s" && !r.within_bound()));
    }

    #[test]
    fn setup_slack_is_absolute_and_spreads_are_held_to_both_bounds() {
        let set = |setup: f64| Set {
            workloads: vec![Repeats {
                workload: Workload::KsZipf,
                outcomes: vec![outcome(&[("setup_s", setup)])],
            }],
            canary_ms: vec![],
        };
        // 11 ms against 14 ms: 27 % apart, but inside the issue's 5 ms.
        assert!(agreements(&set(0.011), &set(0.014))[0].within_bound());
        assert!(!agreements(&set(0.011), &set(0.017))[0].within_bound());

        let runs = |values: &[f64]| Repeats {
            workload: Workload::MemNarrow,
            outcomes: values
                .iter()
                .map(|&v| outcome(&[("ops_per_s", v)]))
                .collect(),
        };
        // IQR ÷ median (exclusive quartiles): 0 %, 13.5 %, 47.5 %.
        let steady = spreads(&[runs(&[100.0; 4])]);
        assert!(steady[0].accepted() && steady[0].resolves_issue_bound());
        let noisy = spreads(&[runs(&[91.0, 94.0, 100.0, 100.0, 106.0, 109.0])]);
        assert!((noisy[0].spread - 0.135).abs() < 1e-12, "{noisy:?}");
        assert!(noisy[0].accepted() && !noisy[0].resolves_issue_bound());
        let wild = spreads(&[runs(&[70.0, 80.0, 100.0, 100.0, 120.0, 130.0])]);
        assert!(!wild[0].accepted());
        let stored = spreads_json(&noisy, 1000, 20);
        assert_eq!(Json::parse(&stored.pretty()).unwrap(), stored);
        let Json::Obj(pairs) = &stored else {
            panic!("object")
        };
        assert_eq!(pairs.last(), Some(&("claim".to_string(), Json::Null)));
    }

    #[test]
    fn stored_set_ends_with_a_null_claim_and_parses_back() {
        let set = Set {
            workloads: vec![Repeats {
                workload: Workload::MemNarrow,
                outcomes: vec![
                    outcome(&[("ops_per_s", 14_000.0)]),
                    outcome(&[("ops_per_s", 15_000.0)]),
                ],
            }],
            canary_ms: vec![21.5, 21.7],
        };
        let json = set_json(&set, 1, 10);
        let Json::Obj(pairs) = &json else {
            panic!("object")
        };
        assert_eq!(pairs.last(), Some(&("claim".to_string(), Json::Null)));
        let back = Json::parse(&json.pretty()).unwrap();
        assert_eq!(back, json);
        let ops = back
            .get("workloads")
            .unwrap()
            .get("mem-narrow")
            .unwrap()
            .get("metrics")
            .unwrap();
        assert_eq!(
            ops.get("ops_per_s")
                .unwrap()
                .get("median")
                .unwrap()
                .as_f64(),
            Some(14_500.0)
        );
        assert_eq!(
            ops.get("failed_share")
                .unwrap()
                .get("max")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
