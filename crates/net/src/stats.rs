//! Traffic accounting.
//!
//! Every byte crossing the coordinator ↔ site links is recorded here,
//! grouped into *rounds* (the paper's unit of synchronization). Figure 2
//! (right) plots exactly these counters, and Theorem 2's bound is asserted
//! against them in the integration tests.
//!
//! Every query frame is counted; only telemetry export is exempt (it is
//! out-of-band diagnostics, not query traffic).

use crate::lock;
use crate::transport::{Message, TELEMETRY_TAG};
use skalla_obs::{Obs, Track};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed per-message framing overhead (header bytes) added to the payload
/// size in the accounting, so that message count also contributes.
pub const MESSAGE_OVERHEAD_BYTES: u64 = 16;

/// Direction of a transfer, from the coordinator's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Coordinator → site.
    Down,
    /// Site → coordinator.
    Up,
}

/// Traffic counters for one round at one site link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Bytes coordinator → site (payload + framing).
    pub down_bytes: u64,
    /// Bytes site → coordinator.
    pub up_bytes: u64,
    /// Messages coordinator → site.
    pub down_msgs: u64,
    /// Messages site → coordinator.
    pub up_msgs: u64,
}

impl LinkStats {
    /// Total bytes both directions.
    pub fn total_bytes(&self) -> u64 {
        self.down_bytes + self.up_bytes
    }

    fn add(&mut self, o: &LinkStats) {
        self.down_bytes += o.down_bytes;
        self.up_bytes += o.up_bytes;
        self.down_msgs += o.down_msgs;
        self.up_msgs += o.up_msgs;
    }
}

/// Traffic for one round across all site links.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    /// Human-readable label set by the coordinator (e.g. `"base"`,
    /// `"gmdj 1"`).
    pub label: String,
    /// Per-site link counters.
    pub per_site: Vec<LinkStats>,
}

impl RoundStats {
    /// Aggregate counters over all sites.
    pub fn totals(&self) -> LinkStats {
        let mut t = LinkStats::default();
        for s in &self.per_site {
            t.add(s);
        }
        t
    }
}

/// Shared traffic accounting for a network.
///
/// The coordinator opens rounds with [`NetStats::begin_round`]; transfers
/// recorded by either end land in the currently open round.
#[derive(Debug)]
pub struct NetStats {
    n_sites: usize,
    rounds: Mutex<Vec<RoundStats>>,
    current: AtomicUsize,
    obs: Mutex<Obs>,
    transport: Mutex<&'static str>,
}

impl NetStats {
    /// Accounting for `n_sites` site links, with an initial round open
    /// (label `"round 0"`).
    pub fn new(n_sites: usize) -> Arc<NetStats> {
        let stats = NetStats {
            n_sites,
            rounds: Mutex::new(vec![RoundStats {
                label: "round 0".to_string(),
                per_site: vec![LinkStats::default(); n_sites],
            }]),
            current: AtomicUsize::new(0),
            obs: Mutex::new(Obs::disabled()),
            transport: Mutex::new("channel"),
        };
        Arc::new(stats)
    }

    /// Label the transport carrying this traffic (`"channel"` by default,
    /// `"tcp"` for the socket transport). The label is attached to every
    /// `msg down` / `msg up` obs event as a `transport` attribute; it does
    /// not affect the byte accounting, which is transport-invariant.
    pub fn set_transport(&self, label: &'static str) {
        *lock(&self.transport) = label;
    }

    /// The transport label (see [`NetStats::set_transport`]).
    pub fn transport(&self) -> &'static str {
        *lock(&self.transport)
    }

    /// Attach an observability handle: every recorded message also emits
    /// a `msg down` / `msg up` instant event on the net track, carrying
    /// the same byte accounting as [`LinkStats`].
    pub fn set_obs(&self, obs: Obs) {
        *lock(&self.obs) = obs;
    }

    /// Number of site links.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Open a new round; subsequent transfers are attributed to it.
    pub fn begin_round(&self, label: impl Into<String>) {
        let mut rounds = lock(&self.rounds);
        rounds.push(RoundStats {
            label: label.into(),
            per_site: vec![LinkStats::default(); self.n_sites],
        });
        self.current.store(rounds.len() - 1, Ordering::SeqCst);
    }

    /// Record a transfer of `payload_bytes` on `site`'s link that is not
    /// a protocol frame (the centralized baseline's detail shipment).
    pub fn record(&self, site: usize, dir: Direction, payload_bytes: u64) {
        self.count(site, dir, payload_bytes, None, 0);
    }

    /// Record one protocol frame crossing `site`'s link. Every transport
    /// calls this for every frame it sends or receives — plan, task,
    /// result, error, shutdown — so the [`MESSAGE_OVERHEAD_BYTES`]
    /// framing is counted uniformly, and the one exemption is made here:
    /// telemetry frames ([`TELEMETRY_TAG`]) are diagnostics, not query
    /// traffic, and are not counted.
    ///
    /// The frame's query id rides the obs event (omitted for the control
    /// stream, id 0) so traces can be filtered per query; the byte
    /// accounting itself is query-agnostic.
    pub fn record_frame(&self, site: usize, dir: Direction, msg: &Message) {
        if msg.tag != TELEMETRY_TAG {
            self.count(site, dir, msg.payload.len() as u64, Some(msg.tag), msg.query_id);
        }
    }

    fn count(
        &self,
        site: usize,
        dir: Direction,
        payload_bytes: u64,
        tag: Option<u8>,
        query_id: u32,
    ) {
        let cur = self.current.load(Ordering::SeqCst);
        let mut rounds = lock(&self.rounds);
        let link = &mut rounds[cur].per_site[site];
        match dir {
            Direction::Down => {
                link.down_bytes += payload_bytes + MESSAGE_OVERHEAD_BYTES;
                link.down_msgs += 1;
            }
            Direction::Up => {
                link.up_bytes += payload_bytes + MESSAGE_OVERHEAD_BYTES;
                link.up_msgs += 1;
            }
        }
        drop(rounds);
        let obs = lock(&self.obs).clone();
        if obs.is_recording() {
            let name = match dir {
                Direction::Down => "msg down",
                Direction::Up => "msg up",
            };
            let mut args: Vec<(&'static str, skalla_obs::ArgValue)> = vec![
                ("site", site.into()),
                ("bytes", (payload_bytes + MESSAGE_OVERHEAD_BYTES).into()),
                (
                    "transport",
                    skalla_obs::ArgValue::Str(self.transport().to_string()),
                ),
            ];
            if let Some(t) = tag {
                args.push(("tag", (t as u64).into()));
            }
            if query_id != 0 {
                args.push(("query_id", (query_id as u64).into()));
            }
            obs.event(Track::Net, name, args);
            let counter = match dir {
                Direction::Down => "net.bytes_down",
                Direction::Up => "net.bytes_up",
            };
            obs.counter_add(counter, (payload_bytes + MESSAGE_OVERHEAD_BYTES) as f64);
        }
    }

    /// Snapshot of all rounds.
    pub fn rounds(&self) -> Vec<RoundStats> {
        lock(&self.rounds).clone()
    }

    /// Grand totals over all rounds.
    pub fn totals(&self) -> LinkStats {
        let mut t = LinkStats::default();
        for r in lock(&self.rounds).iter() {
            t.add(&r.totals());
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_attribute_to_current_round() {
        let s = NetStats::new(2);
        s.record(0, Direction::Down, 100);
        s.begin_round("gmdj 1");
        s.record(1, Direction::Up, 50);
        let rounds = s.rounds();
        assert_eq!(rounds.len(), 2);
        assert_eq!(
            rounds[0].per_site[0].down_bytes,
            100 + MESSAGE_OVERHEAD_BYTES
        );
        assert_eq!(rounds[0].per_site[1], LinkStats::default());
        assert_eq!(rounds[1].label, "gmdj 1");
        assert_eq!(rounds[1].per_site[1].up_bytes, 50 + MESSAGE_OVERHEAD_BYTES);
        assert_eq!(rounds[1].per_site[1].up_msgs, 1);
    }

    #[test]
    fn totals_sum_rounds_and_sites() {
        let s = NetStats::new(2);
        s.record(0, Direction::Down, 10);
        s.record(1, Direction::Down, 10);
        s.begin_round("next");
        s.record(0, Direction::Up, 5);
        let t = s.totals();
        assert_eq!(t.down_bytes, 2 * (10 + MESSAGE_OVERHEAD_BYTES));
        assert_eq!(t.up_bytes, 5 + MESSAGE_OVERHEAD_BYTES);
        assert_eq!(t.down_msgs, 2);
        assert_eq!(t.up_msgs, 1);
        assert_eq!(t.total_bytes(), t.down_bytes + t.up_bytes);
    }
}
