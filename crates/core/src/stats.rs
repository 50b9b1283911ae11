//! Execution statistics.
//!
//! Every query execution reports, per synchronization round: site busy
//! times, coordinator time, and rows/bytes shipped each way — the raw
//! series behind each figure of the paper.

use skalla_net::RoundStats;
use skalla_relation::Relation;

/// Per-round measurements taken by the coordinator.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    /// Stage label (matches the plan's stage label).
    pub label: String,
    /// Busy seconds per site (only sites that participated are non-zero).
    pub site_busy_s: Vec<f64>,
    /// Coordinator compute seconds (fragment building + synchronization).
    pub coord_s: f64,
    /// Base-structure rows shipped coordinator → sites (total).
    pub rows_down: u64,
    /// Result rows shipped sites → coordinator (total).
    pub rows_up: u64,
}

/// Statistics for one distributed query execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Per-round compute measurements.
    pub stages: Vec<StageTimes>,
    /// Per-round traffic (parallel to `stages`).
    pub net: Vec<RoundStats>,
    /// Real wall-clock seconds for the whole execution.
    pub wall_s: f64,
}

impl ExecStats {
    /// Total bytes transferred in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.net.iter().map(|r| r.totals().total_bytes()).sum()
    }

    /// Bytes shipped coordinator → sites.
    pub fn bytes_down(&self) -> u64 {
        self.net.iter().map(|r| r.totals().down_bytes).sum()
    }

    /// Bytes shipped sites → coordinator.
    pub fn bytes_up(&self) -> u64 {
        self.net.iter().map(|r| r.totals().up_bytes).sum()
    }

    /// Total messages both ways.
    pub fn total_messages(&self) -> u64 {
        self.net
            .iter()
            .map(|r| {
                let t = r.totals();
                t.down_msgs + t.up_msgs
            })
            .sum()
    }

    /// Rows shipped down / up over all rounds.
    pub fn total_rows(&self) -> (u64, u64) {
        let down = self.stages.iter().map(|s| s.rows_down).sum();
        let up = self.stages.iter().map(|s| s.rows_up).sum();
        (down, up)
    }

    /// Number of synchronization rounds (the plan-distribution round is
    /// bookkeeping, not a synchronization, and is excluded).
    pub fn n_rounds(&self) -> usize {
        self.stages.iter().filter(|s| s.label != "plan").count()
    }

    /// Stats for a query served entirely from the semantic cache (a
    /// full-result hit or a coalesced in-flight result): one marker
    /// round labeled `"cache"`, zero traffic.
    pub fn cache_hit(n_sites: usize, wall_s: f64) -> ExecStats {
        ExecStats {
            stages: vec![StageTimes {
                label: "cache".to_string(),
                site_busy_s: vec![0.0; n_sites],
                ..StageTimes::default()
            }],
            net: Vec::new(),
            wall_s,
        }
    }

    /// Whether these stats describe a query answered without contacting
    /// sites (see [`ExecStats::cache_hit`]).
    pub fn is_cache_hit(&self) -> bool {
        self.net.is_empty() && self.stages.iter().any(|s| s.label == "cache")
    }
}

/// One row of the per-round timeline table: compute and traffic for a
/// single round, with the busy-time skew across participating sites.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// Stage label.
    pub label: String,
    /// Busy seconds of the slowest participating site.
    pub slowest_site_s: f64,
    /// Mean busy seconds over participating sites (busy > 0).
    pub mean_site_s: f64,
    /// Skew ratio: slowest / mean (1.0 when no site worked).
    pub skew: f64,
    /// Coordinator compute seconds.
    pub coord_s: f64,
    /// Rows shipped coordinator → sites.
    pub rows_down: u64,
    /// Rows shipped sites → coordinator.
    pub rows_up: u64,
    /// Bytes coordinator → sites (payload + framing).
    pub bytes_down: u64,
    /// Bytes sites → coordinator.
    pub bytes_up: u64,
    /// Messages both ways.
    pub msgs: u64,
}

impl ExecStats {
    /// Per-round summaries, zipping compute measurements with traffic.
    pub fn round_summaries(&self) -> Vec<RoundSummary> {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let busy: Vec<f64> = st
                    .site_busy_s
                    .iter()
                    .copied()
                    .filter(|s| *s > 0.0)
                    .collect();
                let slowest = busy.iter().copied().fold(0.0, f64::max);
                let mean = if busy.is_empty() {
                    0.0
                } else {
                    busy.iter().sum::<f64>() / busy.len() as f64
                };
                let skew = if mean > 0.0 { slowest / mean } else { 1.0 };
                let (bytes_down, bytes_up, msgs) = match self.net.get(i) {
                    Some(r) => {
                        let t = r.totals();
                        (t.down_bytes, t.up_bytes, t.down_msgs + t.up_msgs)
                    }
                    None => (0, 0, 0),
                };
                RoundSummary {
                    label: st.label.clone(),
                    slowest_site_s: slowest,
                    mean_site_s: mean,
                    skew,
                    coord_s: st.coord_s,
                    rows_down: st.rows_down,
                    rows_up: st.rows_up,
                    bytes_down,
                    bytes_up,
                    msgs,
                }
            })
            .collect()
    }

    /// The machine-readable form of these statistics: per-round
    /// breakdown plus totals, as one JSON object. This is the body of a
    /// slow-query log line and of the telemetry a CLI run exposes.
    pub fn to_json(&self) -> skalla_obs::json::Json {
        use skalla_obs::json::Json;
        let rounds = Json::Arr(
            self.round_summaries()
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("label", Json::Str(r.label.clone())),
                        ("busy_max_s", Json::Float(r.slowest_site_s)),
                        ("busy_mean_s", Json::Float(r.mean_site_s)),
                        ("skew", Json::Float(r.skew)),
                        ("coord_s", Json::Float(r.coord_s)),
                        ("rows_down", Json::UInt(r.rows_down)),
                        ("rows_up", Json::UInt(r.rows_up)),
                        ("bytes_down", Json::UInt(r.bytes_down)),
                        ("bytes_up", Json::UInt(r.bytes_up)),
                        ("msgs", Json::UInt(r.msgs)),
                    ])
                })
                .collect(),
        );
        let (rows_down, rows_up) = self.total_rows();
        Json::obj(vec![
            ("wall_s", Json::Float(self.wall_s)),
            ("n_rounds", Json::UInt(self.n_rounds() as u64)),
            ("bytes_down", Json::UInt(self.bytes_down())),
            ("bytes_up", Json::UInt(self.bytes_up())),
            ("messages", Json::UInt(self.total_messages())),
            ("rows_down", Json::UInt(rows_down)),
            ("rows_up", Json::UInt(rows_up)),
            ("rounds", rounds),
        ])
    }

    /// Render the per-round timeline as a fixed-width text table (the
    /// `EXPLAIN ANALYZE` output).
    pub fn round_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<5} {:<24} {:>9} {:>10} {:>5} {:>8} {:>9} {:>8} {:>10} {:>9} {:>5}\n",
            "round",
            "stage",
            "busy max",
            "busy mean",
            "skew",
            "coord s",
            "rows down",
            "rows up",
            "bytes down",
            "bytes up",
            "msgs"
        ));
        for (i, r) in self.round_summaries().iter().enumerate() {
            out.push_str(&format!(
                "{:<5} {:<24} {:>9.4} {:>10.4} {:>5.2} {:>8.4} {:>9} {:>8} {:>10} {:>9} {:>5}\n",
                i,
                r.label,
                r.slowest_site_s,
                r.mean_site_s,
                r.skew,
                r.coord_s,
                r.rows_down,
                r.rows_up,
                r.bytes_down,
                r.bytes_up,
                r.msgs
            ));
        }
        out
    }
}

/// The outcome of a distributed query: the result relation plus the
/// execution statistics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The query answer.
    pub relation: Relation,
    /// Measurements.
    pub stats: ExecStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_net::LinkStats;

    fn round(label: &str, down: u64, up: u64) -> RoundStats {
        RoundStats {
            label: label.into(),
            per_site: vec![LinkStats {
                down_bytes: down,
                up_bytes: up,
                down_msgs: (down > 0) as u64,
                up_msgs: (up > 0) as u64,
            }],
        }
    }

    fn stats() -> ExecStats {
        ExecStats {
            stages: vec![
                StageTimes {
                    label: "base".into(),
                    site_busy_s: vec![0.1, 0.3],
                    coord_s: 0.05,
                    rows_down: 0,
                    rows_up: 100,
                },
                StageTimes {
                    label: "gmdj 1".into(),
                    site_busy_s: vec![0.2, 0.1],
                    coord_s: 0.05,
                    rows_down: 200,
                    rows_up: 100,
                },
            ],
            net: vec![round("base", 0, 1000), round("gmdj 1", 2000, 1000)],
            wall_s: 1.0,
        }
    }

    #[test]
    fn byte_and_row_totals() {
        let s = stats();
        assert_eq!(s.total_bytes(), 4000);
        assert_eq!(s.bytes_down(), 2000);
        assert_eq!(s.bytes_up(), 2000);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_rows(), (200, 200));
        assert_eq!(s.n_rounds(), 2);
    }

    #[test]
    fn round_summaries_zip_compute_and_traffic() {
        let s = stats();
        let rows = s.round_summaries();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "base");
        assert!((rows[0].slowest_site_s - 0.3).abs() < 1e-12);
        assert!((rows[0].mean_site_s - 0.2).abs() < 1e-12);
        assert!((rows[0].skew - 1.5).abs() < 1e-12);
        assert_eq!(rows[0].bytes_up, 1000);
        assert_eq!(rows[0].bytes_down, 0);
        assert_eq!(rows[1].rows_down, 200);
        assert_eq!(rows[1].msgs, 2);
    }

    #[test]
    fn skew_is_one_when_no_site_worked() {
        let s = ExecStats {
            stages: vec![StageTimes {
                label: "plan".into(),
                site_busy_s: vec![0.0, 0.0],
                ..StageTimes::default()
            }],
            net: vec![round("plan", 100, 0)],
            wall_s: 0.0,
        };
        let rows = s.round_summaries();
        assert_eq!(rows[0].skew, 1.0);
        assert_eq!(rows[0].slowest_site_s, 0.0);
    }

    #[test]
    fn round_table_renders_every_round() {
        let s = stats();
        let table = s.round_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 rounds
        assert!(lines[0].contains("busy max"));
        assert!(lines[1].contains("base"));
        assert!(lines[2].contains("gmdj 1"));
    }

    #[test]
    fn to_json_round_trips_through_the_obs_parser() {
        let s = stats();
        let text = s.to_json().to_json();
        let back = skalla_obs::json::parse(&text).unwrap();
        assert_eq!(back.get("n_rounds").and_then(|j| j.as_u64()), Some(2));
        assert_eq!(back.get("bytes_down").and_then(|j| j.as_u64()), Some(2000));
        assert_eq!(back.get("messages").and_then(|j| j.as_u64()), Some(3));
        let rounds = back.get("rounds").and_then(|j| j.as_arr()).unwrap();
        assert_eq!(rounds.len(), 2);
        assert_eq!(
            rounds[0].get("label").and_then(|j| j.as_str()),
            Some("base")
        );
        assert_eq!(
            rounds[0].get("busy_max_s").and_then(|j| j.as_f64()),
            Some(0.3)
        );
        assert_eq!(rounds[1].get("rows_down").and_then(|j| j.as_u64()), Some(200));
    }
}
