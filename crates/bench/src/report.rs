//! Minimal parser for the `BENCH_live_throughput.json` artifact family and
//! the markdown delta table the CI perf-regression step renders from two
//! of them.
//!
//! The workspace vendors no `serde_json`, and the artifacts are written by
//! `live_throughput` in a fixed, line-oriented shape (one sweep point per
//! line). This module parses exactly that shape — it is a companion to the
//! writer, not a general JSON parser — and is unit-tested against the
//! writer's output formats: the plain sweep (`BENCH_live_throughput.json`),
//! the chaos scenarios (`BENCH_chaos.json`, `send_path` = scenario, with a
//! `faults` column naming the driven plan and — on keyspace chaos rows —
//! `keys`/`zipf` columns too), and the keyspace sweep
//! (`BENCH_keyspace.json`, whose rows carry extra `keys`/`zipf` columns).
//! The `keys`, `zipf`, and `faults` columns are part of a point's
//! identity: a reconfigure-window point never silently compares against a
//! fault-free one.

use std::fmt::Write as _;

/// One sweep point of a `live_throughput` report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// `"in-memory"` or `"tcp"`.
    pub transport: String,
    /// `"channel"` (in-memory) or `"shared"` (TCP) on sweep rows; the
    /// scenario name on chaos rows.
    pub send_path: String,
    /// Protocol display name, e.g. `"W2R1 (this paper)"`.
    pub protocol: String,
    /// Writer count of the point.
    pub writers: u64,
    /// Reader count of the point.
    pub readers: u64,
    /// Measured throughput.
    pub ops_per_sec: f64,
    /// Read latency-under-load p50 (µs).
    pub rd_p50_us: u64,
    /// Register count of a keyspace sweep row (`BENCH_keyspace.json`);
    /// `None` on single-register rows.
    pub keys: Option<u64>,
    /// Zipf skew of a keyspace sweep row; `None` on single-register rows.
    pub zipf: Option<f64>,
    /// Fault scenario driven through the point (`BENCH_chaos.json`, e.g.
    /// `"reconfigure"`); `None` on fault-free sweep rows.
    pub faults: Option<String>,
}

impl SweepPoint {
    /// The identity a point is matched on across two reports. The zipf
    /// skew is keyed by bit pattern: two floats compare equal here exactly
    /// when the writer printed them identically.
    #[allow(clippy::type_complexity)]
    pub fn key(
        &self,
    ) -> (String, String, String, u64, u64, Option<u64>, Option<u64>, Option<String>) {
        (
            self.transport.clone(),
            self.send_path.clone(),
            self.protocol.clone(),
            self.writers,
            self.readers,
            self.keys,
            self.zipf.map(f64::to_bits),
            self.faults.clone(),
        )
    }

    /// Human-readable point label for tables.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{} {} {} {}x{}",
            self.transport, self.send_path, self.protocol, self.writers, self.readers
        );
        if let Some(keys) = self.keys {
            let _ = write!(label, " keys={keys}");
        }
        if let Some(zipf) = self.zipf {
            let _ = write!(label, " zipf={zipf}");
        }
        if let Some(faults) = &self.faults {
            let _ = write!(label, " faults={faults}");
        }
        label
    }
}

/// Extracts the string value of `"key": "value"` from a JSON line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts the numeric value of `"key": 123` or `"key": 123.4` from a
/// JSON line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the sweep points out of a `BENCH_live_throughput.json` document.
///
/// # Errors
///
/// Returns a description of the first malformed sweep line, or of a
/// document with no sweep points at all.
pub fn parse_live_throughput(json: &str) -> Result<Vec<SweepPoint>, String> {
    let mut points = Vec::new();
    for line in json.lines() {
        // Sweep lines (and only they) carry a "transport" field.
        if !line.contains("\"transport\"") {
            continue;
        }
        let point = (|| {
            Some(SweepPoint {
                transport: str_field(line, "transport")?,
                send_path: str_field(line, "send_path")?,
                protocol: str_field(line, "protocol")?,
                writers: num_field(line, "writers")? as u64,
                readers: num_field(line, "readers")? as u64,
                ops_per_sec: num_field(line, "ops_per_sec")?,
                rd_p50_us: num_field(line, "rd_p50_us")? as u64,
                keys: num_field(line, "keys").map(|v| v as u64),
                zipf: num_field(line, "zipf"),
                faults: str_field(line, "faults"),
            })
        })()
        .ok_or_else(|| format!("malformed sweep line: {}", line.trim()))?;
        points.push(point);
    }
    if points.is_empty() {
        return Err("no sweep points found (not a live_throughput report?)".into());
    }
    Ok(points)
}

/// Renders the markdown delta table comparing `fresh` against `baseline`,
/// matching points by (transport, send path, protocol, W, R) plus the
/// keys/zipf/faults columns when present (a keyspace point never matches a
/// single-register point, and a fault-window point never matches a
/// fault-free one). Returns the table plus the geometric-mean
/// throughput ratio over matched points.
///
/// Points only one side measured are listed (`new point`) or counted (a
/// quick sweep legitimately re-measures a subset of the full baseline)
/// rather than silently shifting the comparison, and a point with a zero
/// or non-finite throughput on either side renders as `n/a` and stays out
/// of the geomean instead of exploding it.
pub fn delta_table(baseline: &[SweepPoint], fresh: &[SweepPoint]) -> (String, f64) {
    let mut out = String::new();
    out.push_str("| point | baseline ops/s | fresh ops/s | Δ ops/s | rd p50 µs |\n");
    out.push_str("|---|---:|---:|---:|---:|\n");
    let mut log_sum = 0.0f64;
    let mut matched = 0usize;
    for f in fresh {
        let Some(b) = baseline.iter().find(|b| b.key() == f.key()) else {
            let _ = writeln!(
                out,
                "| {} | — | {:.0} | new point | {} |",
                f.label(),
                f.ops_per_sec,
                f.rd_p50_us
            );
            continue;
        };
        let usable = |ops: f64| ops.is_finite() && ops > 0.0;
        if !usable(b.ops_per_sec) || !usable(f.ops_per_sec) {
            // A side that recorded no ops (crashed run, zero duration) has
            // no meaningful ratio.
            let _ = writeln!(
                out,
                "| {} | {:.0} | {:.0} | n/a | {} → {} |",
                f.label(),
                b.ops_per_sec,
                f.ops_per_sec,
                b.rd_p50_us,
                f.rd_p50_us
            );
            continue;
        }
        let ratio = f.ops_per_sec / b.ops_per_sec;
        log_sum += ratio.ln();
        matched += 1;
        let _ = writeln!(
            out,
            "| {} | {:.0} | {:.0} | {:+.1}% | {} → {} |",
            f.label(),
            b.ops_per_sec,
            f.ops_per_sec,
            (ratio - 1.0) * 100.0,
            b.rd_p50_us,
            f.rd_p50_us
        );
    }
    let unmeasured = baseline
        .iter()
        .filter(|b| !fresh.iter().any(|f| f.key() == b.key()))
        .count();
    let geomean = if matched > 0 { (log_sum / matched as f64).exp() } else { 1.0 };
    let _ = writeln!(
        out,
        "\n**geomean fresh/baseline over {matched} matched points: {geomean:.3}x** \
         (run-to-run noise on the 1-core CI box is ±10–20%; the hard gate is \
         `--assert-floor`, this table is the trend signal)"
    );
    if unmeasured > 0 {
        let _ = writeln!(
            out,
            "\n{unmeasured} baseline point(s) not re-measured in this run."
        );
    }
    (out, geomean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "experiment": "live_throughput",
  "duration_ms": 500,
  "servers": 11,
  "geomean_pipeline_over_legacy": 1.26,
  "contended_tcp": [
    {"protocol": "W2R1 (this paper)", "pipeline_ops_per_sec": 2151.0, "legacy_ops_per_sec": 1739.7, "speedup": 1.24}
  ],
  "sweep": [
    {"transport": "in-memory", "send_path": "channel", "protocol": "W2R1 (this paper)", "writers": 1, "readers": 1, "ops": 10001, "ops_per_sec": 19992.9, "wr_p50_us": 104, "wr_p99_us": 230, "rd_p50_us": 80, "rd_p99_us": 191},
    {"transport": "tcp", "send_path": "pipeline", "protocol": "W2R1 (this paper)", "writers": 8, "readers": 8, "ops": 1105, "ops_per_sec": 2151.0, "wr_p50_us": 8025, "wr_p99_us": 22922, "rd_p50_us": 6071, "rd_p99_us": 14903}
  ]
}
"#;

    /// `BENCH_chaos.json` rows: `send_path` = scenario, a `faults` column
    /// naming the driven plan, extra chaos counters trailing the standard
    /// columns — and, on keyspace chaos rows, `keys`/`zipf` columns too.
    const CHAOS_SAMPLE: &str = r#"{
  "experiment": "live_throughput_chaos",
  "sweep": [
    {"transport": "tcp", "send_path": "rolling-restart", "protocol": "W2R1 (this paper)", "writers": 2, "readers": 2, "ops": 804, "ops_per_sec": 199.7, "wr_p50_us": 4000, "wr_p99_us": 410000, "rd_p50_us": 2500, "rd_p99_us": 380000, "faults": "rolling-restart", "crashes": 3, "rejoins": 3, "reconfigs": 0, "reconfig_failures": 0, "churn_joined": 0, "churn_departed": 0, "churn_reads": 0, "failed_ops": 0, "steps_skipped": 0, "live_servers": 3, "ops_audited": 804, "audit_ok": true},
    {"transport": "in-memory", "send_path": "churn-storm", "protocol": "W2R1 (this paper)", "writers": 2, "readers": 2, "ops": 4100, "ops_per_sec": 2050.0, "wr_p50_us": 700, "wr_p99_us": 4400, "rd_p50_us": 500, "rd_p99_us": 3100, "faults": "churn-storm", "crashes": 0, "rejoins": 0, "reconfigs": 0, "reconfig_failures": 0, "churn_joined": 500, "churn_departed": 500, "churn_reads": 1000, "failed_ops": 0, "steps_skipped": 0, "live_servers": 3},
    {"transport": "tcp", "send_path": "reconfigure", "protocol": "W2R1 (this paper)", "writers": 2, "readers": 2, "ops": 1400, "ops_per_sec": 350.0, "wr_p50_us": 5000, "wr_p99_us": 210000, "rd_p50_us": 3000, "rd_p99_us": 180000, "faults": "reconfigure", "crashes": 0, "rejoins": 0, "reconfigs": 1, "reconfig_failures": 0, "churn_joined": 0, "churn_departed": 0, "churn_reads": 0, "failed_ops": 0, "steps_skipped": 0, "live_servers": 5, "steady_ops_per_sec": 520.0, "ops_audited": 1400, "audit_ok": true},
    {"transport": "tcp", "send_path": "reconfigure", "protocol": "W2Ra (adaptive)", "writers": 2, "readers": 2, "keys": 4, "zipf": 1.10, "ops": 1100, "ops_per_sec": 275.0, "wr_p50_us": 6000, "wr_p99_us": 230000, "rd_p50_us": 3500, "rd_p99_us": 190000, "faults": "reconfigure", "crashes": 0, "rejoins": 0, "reconfigs": 1, "reconfig_failures": 0, "churn_joined": 0, "churn_departed": 0, "churn_reads": 0, "failed_ops": 0, "steps_skipped": 0, "live_servers": 5, "steady_ops_per_sec": 410.0, "registers_audited": 4, "ops_audited": 1100, "audit_ok": true}
  ]
}
"#;

    /// `BENCH_keyspace.json` rows: standard columns plus `keys`/`zipf`.
    const KEYSPACE_SAMPLE: &str = r#"{
  "experiment": "live_throughput_keyspace",
  "duration_ms": 3000,
  "servers": 11,
  "shards": 16,
  "group_size": 5,
  "zipf": 1.10,
  "sweep": [
    {"transport": "in-memory", "send_path": "channel", "protocol": "W2R1 (this paper)", "writers": 1, "readers": 1, "keys": 1, "zipf": 1.10, "ops": 42640, "ops_per_sec": 14210.0, "wr_p50_us": 171, "wr_p99_us": 417, "rd_p50_us": 99, "rd_p99_us": 263},
    {"transport": "in-memory", "send_path": "channel", "protocol": "W2Ra (adaptive)", "writers": 2, "readers": 2, "keys": 64, "zipf": 1.10, "ops": 91649, "ops_per_sec": 30538.0, "wr_p50_us": 126, "wr_p99_us": 399, "rd_p50_us": 102, "rd_p99_us": 306, "registers_audited": 64, "ops_audited": 9000, "audit_ok": true}
  ]
}
"#;

    #[test]
    fn parses_sweep_points_and_skips_headline_lines() {
        let points = parse_live_throughput(SAMPLE).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].transport, "in-memory");
        assert_eq!(points[0].protocol, "W2R1 (this paper)");
        assert_eq!(points[0].writers, 1);
        assert_eq!(points[0].ops_per_sec, 19992.9);
        assert_eq!(points[1].send_path, "pipeline");
        assert_eq!(points[1].rd_p50_us, 6071);
        // Single-register rows have no keyspace columns.
        assert_eq!(points[0].keys, None);
        assert_eq!(points[0].zipf, None);
    }

    #[test]
    fn parses_chaos_rows_with_scenario_send_paths() {
        let points = parse_live_throughput(CHAOS_SAMPLE).unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].send_path, "rolling-restart");
        assert_eq!(points[0].ops_per_sec, 199.7);
        assert_eq!(points[0].faults.as_deref(), Some("rolling-restart"));
        assert_eq!(points[1].send_path, "churn-storm");
        assert_eq!(points[1].keys, None, "single-register chaos rows carry no keyspace columns");
    }

    #[test]
    fn parses_reconfigure_rows_and_keyspace_chaos_columns() {
        let points = parse_live_throughput(CHAOS_SAMPLE).unwrap();
        // The single-register reconfigure window.
        assert_eq!(points[2].faults.as_deref(), Some("reconfigure"));
        assert_eq!(points[2].keys, None);
        assert!(points[2].label().contains("faults=reconfigure"), "{}", points[2].label());
        // The keyspace reconfigure window: keys/zipf AND faults columns.
        assert_eq!(points[3].faults.as_deref(), Some("reconfigure"));
        assert_eq!(points[3].keys, Some(4));
        assert_eq!(points[3].zipf, Some(1.10));
        assert!(points[3].label().contains("keys=4"), "{}", points[3].label());
        // Same scenario, different shape: distinct identities.
        assert_ne!(points[2].key(), points[3].key());
    }

    #[test]
    fn fault_window_points_never_match_fault_free_points() {
        // A reconfigure-window keyspace point must not silently compare
        // against the fault-free keyspace point with the same W x R.
        let chaos = parse_live_throughput(CHAOS_SAMPLE).unwrap();
        let mut fault_free = chaos.clone();
        for p in &mut fault_free {
            p.faults = None;
        }
        let (table, _) = delta_table(&fault_free, &chaos);
        assert_eq!(table.matches("| new point |").count(), chaos.len(), "{table}");
        // And a chaos baseline matches itself exactly.
        let (self_table, geomean) = delta_table(&chaos, &chaos);
        assert!(!self_table.contains("new point"), "{self_table}");
        assert!((geomean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parses_keyspace_rows_with_keys_and_zipf_columns() {
        let points = parse_live_throughput(KEYSPACE_SAMPLE).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].keys, Some(1));
        assert_eq!(points[0].zipf, Some(1.10));
        assert_eq!(points[1].keys, Some(64));
        assert_eq!(points[1].ops_per_sec, 30538.0);
        // The keyspace columns are part of a point's identity and label.
        assert_ne!(points[0].key(), points[1].key());
        assert!(points[1].label().contains("keys=64"), "{}", points[1].label());
        assert!(points[1].label().contains("zipf=1.1"), "{}", points[1].label());
    }

    #[test]
    fn keyspace_points_never_match_single_register_points() {
        let single = parse_live_throughput(SAMPLE).unwrap();
        let keyed = parse_live_throughput(KEYSPACE_SAMPLE).unwrap();
        // Same transport/send_path/protocol/WxR as `single[0]`, but with
        // keyspace columns: must render as a new point, not a delta.
        let (table, _) = delta_table(&single, &keyed);
        assert_eq!(table.matches("| new point |").count(), 2, "{table}");
        // And a keyspace baseline matches itself exactly.
        let (self_table, geomean) = delta_table(&keyed, &keyed);
        assert!(!self_table.contains("new point"), "{self_table}");
        assert!((geomean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_documents_without_sweep_points() {
        assert!(parse_live_throughput("{}").is_err());
        assert!(parse_live_throughput("{\"transport\": 3}").is_err());
    }

    #[test]
    fn delta_table_matches_points_and_reports_geomean() {
        let baseline = parse_live_throughput(SAMPLE).unwrap();
        let mut fresh = baseline.clone();
        fresh[0].ops_per_sec *= 1.10;
        fresh[1].ops_per_sec *= 0.90;
        fresh.push(SweepPoint {
            transport: "tcp".into(),
            send_path: "pipeline".into(),
            protocol: "W2R2 (LS97)".into(),
            writers: 4,
            readers: 4,
            ops_per_sec: 100.0,
            rd_p50_us: 5,
            keys: None,
            zipf: None,
            faults: None,
        });
        let (table, geomean) = delta_table(&baseline, &fresh);
        assert!(table.contains("+10.0%"), "{table}");
        assert!(table.contains("-10.0%"), "{table}");
        assert!(table.contains("| new point |"), "{table}");
        assert!((geomean - (1.10f64 * 0.90).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn zero_throughput_points_render_na_and_stay_out_of_the_geomean() {
        let baseline = parse_live_throughput(SAMPLE).unwrap();
        let mut fresh = baseline.clone();
        fresh[0].ops_per_sec *= 1.10;
        // A crashed baseline point must not divide-by-zero its ratio into
        // the geomean.
        let mut dead_baseline = baseline.clone();
        dead_baseline[1].ops_per_sec = 0.0;
        let (table, geomean) = delta_table(&dead_baseline, &fresh);
        assert!(table.contains("| n/a |"), "{table}");
        assert!((geomean - 1.10).abs() < 1e-9, "geomean {geomean} should only see the live point");
        // Same for a crashed fresh point.
        let mut dead_fresh = fresh.clone();
        dead_fresh[1].ops_per_sec = f64::NAN;
        let (table, geomean) = delta_table(&baseline, &dead_fresh);
        assert!(table.contains("| n/a |"), "{table}");
        assert!((geomean - 1.10).abs() < 1e-9);
    }

    #[test]
    fn unmeasured_baseline_points_are_counted_not_silently_dropped() {
        let baseline = parse_live_throughput(SAMPLE).unwrap();
        let fresh = vec![baseline[0].clone()];
        let (table, _) = delta_table(&baseline, &fresh);
        assert!(table.contains("1 baseline point(s) not re-measured"), "{table}");
        let (full_table, _) = delta_table(&baseline, &baseline.clone());
        assert!(!full_table.contains("not re-measured"), "{full_table}");
    }

    #[test]
    fn quick_sweeps_compare_against_full_baselines() {
        // --quick measures a subset of points; every quick point must still
        // match its counterpart in the committed full-sweep baseline.
        let baseline = parse_live_throughput(SAMPLE).unwrap();
        let fresh = vec![baseline[1].clone()];
        let (table, geomean) = delta_table(&baseline, &fresh);
        assert!(table.contains("8x8"));
        assert!(!table.contains("| new |"), "{table}");
        assert!((geomean - 1.0).abs() < 1e-9);
    }
}
