//! Execution statistics.
//!
//! Every query execution reports, per synchronization round: site busy
//! times, coordinator and wait time, and rows/bytes shipped each way —
//! the raw series behind each figure of the paper.

use crate::coordinator::Clock;
use skalla_net::{LinkStats, RoundStats};
use skalla_relation::Relation;

/// Per-round measurements taken by the coordinator.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    /// Stage label (matches the plan's stage label).
    pub label: String,
    /// Busy seconds per site (only sites that participated are non-zero).
    /// They overlap the round's `wait_s`.
    pub site_busy_s: Vec<f64>,
    /// Coordinator wall seconds outside waits: planning, encoding,
    /// sending (a blocked send included), decoding and synchronizing.
    pub coord_s: f64,
    /// Coordinator wall seconds blocked receiving from the sites. Over
    /// all rounds, `coord_s + wait_s` sums to [`ExecStats::wall_s`].
    pub wait_s: f64,
    /// Base-structure rows shipped coordinator → sites (total).
    pub rows_down: u64,
    /// Result rows shipped sites → coordinator (total).
    pub rows_up: u64,
}

impl StageTimes {
    /// A round labeled `label` over `n_sites` sites, nothing measured yet.
    pub(crate) fn new(label: &str, n_sites: usize) -> StageTimes {
        StageTimes {
            label: label.to_string(),
            site_busy_s: vec![0.0; n_sites],
            ..StageTimes::default()
        }
    }

    /// Busy seconds of the round's slowest site.
    pub fn busy_max_s(&self) -> f64 {
        self.site_busy_s.iter().copied().fold(0.0, f64::max)
    }

    /// Mean busy seconds over the sites that worked (busy > 0), and the
    /// skew `busy_max_s / mean` (1.0 when no site worked).
    fn busy_mean_and_skew(&self) -> (f64, f64) {
        let worked = self.site_busy_s.iter().filter(|s| **s > 0.0);
        let mean = worked.clone().sum::<f64>() / worked.count().max(1) as f64;
        if mean == 0.0 {
            return (0.0, 1.0);
        }
        (mean, self.busy_max_s() / mean)
    }
}

/// Statistics for one distributed query execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Per-round compute measurements.
    pub stages: Vec<StageTimes>,
    /// Per-round traffic (parallel to `stages`).
    pub net: Vec<RoundStats>,
    /// Real wall-clock seconds for the whole execution: the sum of every
    /// round's `coord_s + wait_s`.
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
    /// round labeled `"cache"`, zero traffic, whose coordinator seconds
    /// are the wall since `clock` started.
    pub(crate) fn cache_hit(n_sites: usize, mut clock: Clock) -> ExecStats {
        let mut st = StageTimes::new("cache", n_sites);
        clock.charge(&mut st.coord_s);
        ExecStats {
            stages: vec![st],
            net: Vec::new(),
            wall_s: clock.wall_s(),
        }
    }

    /// Whether these stats describe a query answered without contacting
    /// sites: one zero-byte round labeled `"cache"`.
    pub fn is_cache_hit(&self) -> bool {
        self.net.is_empty() && self.stages.iter().any(|s| s.label == "cache")
    }

    /// Each round's compute measurements beside its traffic totals.
    fn rounds(&self) -> impl Iterator<Item = (&StageTimes, LinkStats)> {
        self.stages.iter().enumerate().map(|(i, st)| {
            (
                st,
                self.net.get(i).map(RoundStats::totals).unwrap_or_default(),
            )
        })
    }

    /// The machine-readable form of these statistics: per-round
    /// breakdown plus totals, as one JSON object. This is the body of a
    /// slow-query log line and of the telemetry a CLI run exposes.
    pub fn to_json(&self) -> skalla_obs::json::Json {
        use skalla_obs::json::Json;
        let rounds = Json::Arr(
            self.rounds()
                .map(|(st, net)| {
                    let (busy_mean, skew) = st.busy_mean_and_skew();
                    Json::obj(vec![
                        ("label", Json::Str(st.label.clone())),
                        ("busy_max_s", Json::Float(st.busy_max_s())),
                        ("busy_mean_s", Json::Float(busy_mean)),
                        ("skew", Json::Float(skew)),
                        ("coord_s", Json::Float(st.coord_s)),
                        ("wait_s", Json::Float(st.wait_s)),
                        ("rows_down", Json::UInt(st.rows_down)),
                        ("rows_up", Json::UInt(st.rows_up)),
                        ("bytes_down", Json::UInt(net.down_bytes)),
                        ("bytes_up", Json::UInt(net.up_bytes)),
                        ("msgs", Json::UInt(net.down_msgs + net.up_msgs)),
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
    /// `EXPLAIN ANALYZE` output). Its `coord s` and `wait s` columns
    /// partition the wall time; site busy time overlaps `wait s`.
    pub fn round_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<5} {:<24} {:>9} {:>10} {:>5} {:>8} {:>8} {:>9} {:>8} {:>10} {:>9} {:>5}\n",
            "round",
            "stage",
            "busy max",
            "busy mean",
            "skew",
            "coord s",
            "wait s",
            "rows down",
            "rows up",
            "bytes down",
            "bytes up",
            "msgs"
        ));
        for (i, (st, net)) in self.rounds().enumerate() {
            let (busy_mean, skew) = st.busy_mean_and_skew();
            out.push_str(&format!(
                "{:<5} {:<24} {:>9.4} {:>10.4} {:>5.2} {:>8.4} {:>8.4} {:>9} {:>8} {:>10} {:>9} {:>5}\n",
                i,
                st.label,
                st.busy_max_s(),
                busy_mean,
                skew,
                st.coord_s,
                st.wait_s,
                st.rows_down,
                st.rows_up,
                net.down_bytes,
                net.up_bytes,
                net.down_msgs + net.up_msgs
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
                    wait_s: 0.35,
                    rows_down: 0,
                    rows_up: 100,
                },
                StageTimes {
                    label: "gmdj 1".into(),
                    site_busy_s: vec![0.2, 0.1],
                    coord_s: 0.05,
                    wait_s: 0.55,
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

    /// The table's rows under its header: each round's label and its
    /// ten numeric cells, `busy max` to `msgs`.
    fn cells(table: &str) -> Vec<(String, Vec<f64>)> {
        table
            .lines()
            .skip(1)
            .map(|line| {
                let words: Vec<&str> = line.split_whitespace().collect();
                let (label, numbers) = words[1..].split_at(words.len() - 11);
                (
                    label.join(" "),
                    numbers.iter().map(|w| w.parse().unwrap()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn round_table_zips_compute_and_traffic() {
        let rows = cells(&stats().round_table());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "base");
        // busy max, busy mean, skew, coord s, wait s
        assert_eq!(rows[0].1[..5], [0.3, 0.2, 1.5, 0.05, 0.35]);
        // rows down, rows up, bytes down, bytes up, msgs
        assert_eq!(rows[0].1[5..], [0.0, 100.0, 0.0, 1000.0, 1.0]);
        assert_eq!(rows[1].0, "gmdj 1");
        assert_eq!(rows[1].1[5..], [200.0, 100.0, 2000.0, 1000.0, 2.0]);
    }

    #[test]
    fn round_table_skew_is_one_when_no_site_worked() {
        let s = ExecStats {
            stages: vec![StageTimes {
                label: "plan".into(),
                site_busy_s: vec![0.0, 0.0],
                ..StageTimes::default()
            }],
            net: vec![round("plan", 100, 0)],
            wall_s: 0.0,
        };
        let rows = cells(&s.round_table());
        assert_eq!(rows[0].1[..3], [0.0, 0.0, 1.0]);
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
        assert_eq!(rounds[1].get("wait_s").and_then(|j| j.as_f64()), Some(0.55));
        assert_eq!(rounds[1].get("rows_down").and_then(|j| j.as_u64()), Some(200));
    }
}
