//! The in-process channel transport (the default).
//!
//! Sites are threads and links are crossbeam channels in a star topology:
//! zero configuration, fully deterministic, and the byte accounting is
//! identical to the [`crate::tcp`] transport because both record at the
//! logical payload layer (see [`crate::transport`]). This is the
//! transport the tests, benchmarks and figure harnesses use; the TCP
//! transport is for real multi-process deployments.

use crate::stats::{Direction, NetStats};
use crate::transport::{CoordinatorTransport, Message, NetError, SiteTransport};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// The coordinator's handle to all site links (channel transport).
///
/// The receive side is mutex-guarded so the handle is `Sync` and can be
/// shared behind an `Arc` by a multiplexer; with a single dispatcher
/// thread draining it, the lock is uncontended.
#[derive(Debug)]
pub struct CoordinatorNet {
    to_sites: Vec<Sender<Message>>,
    from_sites: Mutex<Receiver<(usize, Message)>>,
    stats: Arc<NetStats>,
}

impl CoordinatorNet {
    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.to_sites.len()
    }

    /// The shared traffic accounting.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Send a message to one site. Telemetry frames bypass the byte
    /// accounting (see [`crate::transport::TELEMETRY_TAG`]).
    pub fn send(&self, site: usize, msg: Message) -> Result<(), NetError> {
        self.stats.record_frame(site, Direction::Down, &msg);
        self.to_sites[site]
            .send(msg)
            .map_err(|_| NetError::Disconnected)
    }

    /// Send copies of a message to every site.
    pub fn broadcast(&self, msg: &Message) -> Result<(), NetError> {
        for site in 0..self.n_sites() {
            self.send(site, msg.clone())?;
        }
        Ok(())
    }

    /// Receive the next message from any site (blocking, with timeout).
    pub fn recv(&self, timeout: Duration) -> Result<(usize, Message), NetError> {
        match self.from_sites.lock().recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }
}

impl CoordinatorTransport for CoordinatorNet {
    fn n_sites(&self) -> usize {
        CoordinatorNet::n_sites(self)
    }

    fn stats(&self) -> &Arc<NetStats> {
        CoordinatorNet::stats(self)
    }

    fn send(&self, site: usize, msg: Message) -> Result<(), NetError> {
        CoordinatorNet::send(self, site, msg)
    }

    fn recv(&self, timeout: Duration) -> Result<(usize, Message), NetError> {
        CoordinatorNet::recv(self, timeout)
    }
}

/// One site's handle to its coordinator link (channel transport).
#[derive(Debug)]
pub struct SiteNet {
    site_id: usize,
    rx: Mutex<Receiver<Message>>,
    tx: Sender<(usize, Message)>,
    stats: Arc<NetStats>,
}

impl SiteNet {
    /// This site's index.
    pub fn site_id(&self) -> usize {
        self.site_id
    }

    /// Send a message to the coordinator. Telemetry frames bypass the
    /// byte accounting (see [`crate::transport::TELEMETRY_TAG`]).
    pub fn send(&self, msg: Message) -> Result<(), NetError> {
        self.stats.record_frame(self.site_id, Direction::Up, &msg);
        self.tx
            .send((self.site_id, msg))
            .map_err(|_| NetError::Disconnected)
    }

    /// Receive the next message from the coordinator (blocking).
    pub fn recv(&self) -> Result<Message, NetError> {
        self.rx.lock().recv().map_err(|_| NetError::Disconnected)
    }
}

impl SiteTransport for SiteNet {
    fn site_id(&self) -> usize {
        SiteNet::site_id(self)
    }

    fn send(&self, msg: Message) -> Result<(), NetError> {
        SiteNet::send(self, msg)
    }

    fn recv(&self) -> Result<Message, NetError> {
        SiteNet::recv(self)
    }
}

/// Build a star network: one coordinator handle and `n` site handles,
/// sharing a [`NetStats`]. The shared stats means each message is
/// recorded exactly once, by the end that sends it.
pub fn star(n: usize) -> (CoordinatorNet, Vec<SiteNet>) {
    let stats = NetStats::new(n);
    let (up_tx, up_rx) = unbounded();
    let mut to_sites = Vec::with_capacity(n);
    let mut sites = Vec::with_capacity(n);
    for site_id in 0..n {
        let (down_tx, down_rx) = unbounded();
        to_sites.push(down_tx);
        sites.push(SiteNet {
            site_id,
            rx: Mutex::new(down_rx),
            tx: up_tx.clone(),
            stats: Arc::clone(&stats),
        });
    }
    (
        CoordinatorNet {
            to_sites,
            from_sites: Mutex::new(up_rx),
            stats,
        },
        sites,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MESSAGE_OVERHEAD_BYTES;

    #[test]
    fn round_trip_via_threads() {
        let (coord, sites) = star(3);
        let handles: Vec<_> = sites
            .into_iter()
            .map(|s| {
                std::thread::spawn(move || {
                    let m = s.recv().unwrap();
                    assert_eq!(m.tag, 7);
                    s.send(Message::new(8, vec![s.site_id() as u8])).unwrap();
                })
            })
            .collect();
        coord.broadcast(&Message::new(7, b"abc".to_vec())).unwrap();
        let mut seen = [false; 3];
        for _ in 0..3 {
            let (site, m) = coord.recv(Duration::from_secs(5)).unwrap();
            assert_eq!(m.tag, 8);
            assert_eq!(m.payload, vec![site as u8]);
            seen[site] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for h in handles {
            h.join().unwrap();
        }
        let t = coord.stats().totals();
        assert_eq!(t.down_bytes, 3 * (3 + MESSAGE_OVERHEAD_BYTES));
        assert_eq!(t.up_bytes, 3 * (1 + MESSAGE_OVERHEAD_BYTES));
        assert_eq!(t.down_msgs, 3);
        assert_eq!(t.up_msgs, 3);
    }

    /// Pins the accounting contract: *every* message kind — including
    /// zero-payload control messages like shutdown, and error replies —
    /// is charged its payload plus exactly one framing overhead, in the
    /// direction it travelled.
    #[test]
    fn every_message_kind_counts_framing_overhead() {
        // Tag values mirror the coordinator protocol: run-stage, result,
        // error, shutdown, plan. The accounting must not special-case any.
        let down_msgs = [(1u8, 64usize), (4, 0), (5, 300)]; // task, shutdown, plan
        let up_msgs = [(2u8, 128usize), (3, 17)]; // result, error

        let (coord, sites) = star(2);
        for (tag, len) in down_msgs {
            coord.send(1, Message::new(tag, vec![0; len])).unwrap();
        }
        for (tag, len) in up_msgs {
            sites[0].send(Message::new(tag, vec![0; len])).unwrap();
        }

        let rounds = coord.stats().rounds();
        let link_down = rounds[0].per_site[1];
        let link_up = rounds[0].per_site[0];
        let expect_down: u64 = down_msgs
            .iter()
            .map(|(_, len)| *len as u64 + MESSAGE_OVERHEAD_BYTES)
            .sum();
        let expect_up: u64 = up_msgs
            .iter()
            .map(|(_, len)| *len as u64 + MESSAGE_OVERHEAD_BYTES)
            .sum();
        assert_eq!(link_down.down_bytes, expect_down);
        assert_eq!(link_down.down_msgs, down_msgs.len() as u64);
        assert_eq!(link_up.up_bytes, expect_up);
        assert_eq!(link_up.up_msgs, up_msgs.len() as u64);
        // Nothing leaked onto the other links/directions.
        assert_eq!(link_down.up_msgs, 0);
        assert_eq!(link_up.down_msgs, 0);
    }

    #[test]
    fn recorded_messages_emit_obs_events() {
        use skalla_obs::Obs;
        let (coord, sites) = star(1);
        let obs = Obs::recording();
        coord.stats().set_obs(obs.clone());
        coord.send(0, Message::new(5, vec![0; 10])).unwrap();
        sites[0].send(Message::new(3, vec![0; 4])).unwrap();
        let events = obs.recorder().unwrap().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "msg down");
        assert!(events[0]
            .args
            .iter()
            .any(|(k, v)| *k == "bytes"
                && *v == skalla_obs::ArgValue::UInt(10 + MESSAGE_OVERHEAD_BYTES)));
        assert!(events[0]
            .args
            .iter()
            .any(|(k, v)| *k == "tag" && *v == skalla_obs::ArgValue::UInt(5)));
        assert!(
            events[0].args.iter().any(|(k, v)| *k == "transport"
                && *v == skalla_obs::ArgValue::Str("channel".to_string())),
            "events carry the transport attribute"
        );
        assert_eq!(events[1].name, "msg up");
        let counters = obs.recorder().unwrap().counters();
        assert_eq!(
            counters["net.bytes_down"],
            (10 + MESSAGE_OVERHEAD_BYTES) as f64
        );
        assert_eq!(
            counters["net.bytes_up"],
            (4 + MESSAGE_OVERHEAD_BYTES) as f64
        );
    }

    /// Telemetry frames are invisible to the byte accounting in both
    /// directions — the channel/TCP byte-identity invariant must hold
    /// whether or not telemetry export is on.
    #[test]
    fn telemetry_frames_bypass_accounting() {
        use crate::transport::TELEMETRY_TAG;
        let (coord, sites) = star(1);
        coord
            .send(0, Message::new(TELEMETRY_TAG, vec![0; 100]))
            .unwrap();
        sites[0]
            .send(Message::new(TELEMETRY_TAG, vec![0; 200]))
            .unwrap();
        let t = coord.stats().totals();
        assert_eq!((t.down_bytes, t.up_bytes, t.down_msgs, t.up_msgs), (0, 0, 0, 0));
        // The frames still arrive.
        assert_eq!(sites[0].recv().unwrap().tag, TELEMETRY_TAG);
        assert_eq!(coord.recv(Duration::from_secs(5)).unwrap().1.tag, TELEMETRY_TAG);
    }

    #[test]
    fn recv_times_out() {
        let (coord, _sites) = star(1);
        assert_eq!(
            coord.recv(Duration::from_millis(10)).unwrap_err(),
            NetError::Timeout
        );
    }

    #[test]
    fn disconnected_site_detected() {
        let (coord, sites) = star(1);
        drop(sites);
        assert_eq!(
            coord.send(0, Message::new(0, vec![])).unwrap_err(),
            NetError::Disconnected
        );
    }
}
