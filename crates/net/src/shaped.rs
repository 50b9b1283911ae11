//! Link shaping: the paper's LAN, emulated between in-process sites.
//!
//! [`shaped_star`] wraps a channel [`star`] so that a run on one machine
//! takes the time the paper's network (Sect. 5) would take. Every frame,
//! in either direction, is serialized through one shared coordinator-NIC
//! byte budget ([`Link::bandwidth`]) — the link every byte of the star
//! crosses — and then arrives one [`Link::latency`] later; the latencies
//! of frames in flight overlap, and each link stays FIFO.
//!
//! The shaping is timestamps, not threads: a send reserves the frame's
//! slot on the NIC and queues its arrival time, and the receiving end
//! sleeps until that time before handing the frame over. The byte
//! accounting is the wrapped star's, untouched.

use crate::channel::{star, CoordinatorNet, SiteNet};
use crate::lock;
use crate::stats::{NetStats, MESSAGE_OVERHEAD_BYTES};
use crate::transport::{CoordinatorTransport, Message, NetError, SiteTransport};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The longest one frame is delayed: a link that slow is as good as cut,
/// and the cap keeps `Instant` arithmetic in range.
const MAX_DELAY: Duration = Duration::from_secs(3600);

/// The emulated network's two parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way delay of every frame once the NIC has sent it.
    pub latency: Duration,
    /// The coordinator NIC's rate in bytes per second, shared by every
    /// frame in both directions (a frame is its accounted size: payload
    /// plus [`MESSAGE_OVERHEAD_BYTES`]).
    pub bandwidth: f64,
}

impl Link {
    /// The paper's era: a 100 Mbit/s switched LAN, 1 ms one way.
    pub fn lan() -> Link {
        Link {
            latency: Duration::from_millis(1),
            bandwidth: 100e6 / 8.0,
        }
    }
}

/// The coordinator's NIC: when it is next free, and the arrival times of
/// the frames in flight to each receiving end, in send order.
#[derive(Debug)]
struct Nic {
    link: Link,
    free_at: Mutex<Instant>,
    /// Per receiving end: the coordinator first (one queue, as the
    /// star's uplinks share one channel), then site `i` at `1 + i`.
    arrivals: Vec<Mutex<VecDeque<Instant>>>,
}

impl Nic {
    /// Reserve `msg`'s slot on the NIC, queue its arrival time, and hand
    /// it to `send`, all under the NIC's lock, so each queue is in its
    /// channel's order. The time is queued first, so a receiver never
    /// holds a frame without it; a failed send leaves it on the queue of
    /// an end that is gone.
    fn transmit(
        &self,
        to: usize,
        msg: Message,
        send: impl FnOnce(Message) -> Result<(), NetError>,
    ) -> Result<(), NetError> {
        let bytes = (msg.payload.len() as u64 + MESSAGE_OVERHEAD_BYTES) as f64;
        let wire = Duration::try_from_secs_f64(bytes / self.link.bandwidth).unwrap_or(MAX_DELAY);
        let mut free_at = lock(&self.free_at);
        *free_at = (*free_at).max(Instant::now()) + wire.min(MAX_DELAY);
        let arrives = *free_at + self.link.latency.min(MAX_DELAY);
        lock(&self.arrivals[to]).push_back(arrives);
        send(msg)
    }

    /// Hold the frame just taken off end `to`'s channel until it arrives.
    /// The queue's lock is released before the sleep, so a frame sent to
    /// `to` meanwhile is not held up behind this one's latency.
    fn deliver(&self, to: usize) {
        let at = lock(&self.arrivals[to]).pop_front();
        if let Some(at) = at {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
        }
    }
}

/// The coordinator's end of a [`shaped_star`]. A frame already taken off
/// the channel is delivered when it arrives, even past `recv`'s timeout:
/// as on the raw star, a receive that finds a frame does not time out.
#[derive(Debug)]
pub struct ShapedCoordinator {
    inner: CoordinatorNet,
    nic: Arc<Nic>,
}

impl CoordinatorTransport for ShapedCoordinator {
    fn n_sites(&self) -> usize {
        self.inner.n_sites()
    }

    fn stats(&self) -> &Arc<NetStats> {
        self.inner.stats()
    }

    fn send(&self, site: usize, msg: Message) -> Result<(), NetError> {
        (self.nic).transmit(1 + site, msg, |m| self.inner.send(site, m))
    }

    fn recv(&self, timeout: Duration) -> Result<(usize, Message), NetError> {
        let (site, msg) = self.inner.recv(timeout)?;
        self.nic.deliver(0);
        Ok((site, msg))
    }
}

/// One site's end of a [`shaped_star`].
#[derive(Debug)]
pub struct ShapedSite {
    inner: SiteNet,
    nic: Arc<Nic>,
}

impl SiteTransport for ShapedSite {
    fn site_id(&self) -> usize {
        self.inner.site_id()
    }

    fn send(&self, msg: Message) -> Result<(), NetError> {
        self.nic.transmit(0, msg, |m| self.inner.send(m))
    }

    fn recv(&self) -> Result<Message, NetError> {
        let msg = self.inner.recv()?;
        self.nic.deliver(1 + self.site_id());
        Ok(msg)
    }
}

/// A [`star`] of `n` sites whose links are shaped to `link` (see the
/// module docs). Its [`NetStats`] record what the raw star records.
pub fn shaped_star(n: usize, link: Link) -> (ShapedCoordinator, Vec<ShapedSite>) {
    let (inner, sites) = star(n);
    let nic = Arc::new(Nic {
        link,
        free_at: Mutex::new(Instant::now()),
        arrivals: (0..=n).map(|_| Mutex::default()).collect(),
    });
    let sites = (sites.into_iter())
        .map(|inner| ShapedSite {
            inner,
            nic: Arc::clone(&nic),
        })
        .collect();
    (ShapedCoordinator { inner, nic }, sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RoundStats;
    use crate::transport::TELEMETRY_TAG;

    /// 20 ms one way, 1 MB/s: a 20 kB frame spends 20 ms on the NIC.
    const SLOW: Link = Link {
        latency: Duration::from_millis(20),
        bandwidth: 1e6,
    };
    const FIVE_S: Duration = Duration::from_secs(5);

    /// A message of `bytes` as accounted (payload plus framing).
    fn frame(tag: u8, bytes: u64) -> Message {
        Message::new(tag, vec![0; (bytes - MESSAGE_OVERHEAD_BYTES) as usize])
    }

    /// Milliseconds `f` takes.
    fn ms(f: impl FnOnce()) -> u128 {
        let start = Instant::now();
        f();
        start.elapsed().as_millis()
    }

    #[test]
    fn frames_pay_latency_plus_transfer_through_one_nic() {
        let (coord, sites) = shaped_star(2, SLOW);
        let one = ms(|| {
            coord.send(0, frame(1, 20_000)).unwrap();
            sites[0].recv().unwrap();
        });
        assert!(one >= 40, "{one} ms");
        // Both sites at once: 40 ms on the shared NIC, then the latency.
        let both = ms(|| {
            sites.iter().for_each(|s| s.send(frame(2, 20_000)).unwrap());
            sites.iter().for_each(|_| drop(coord.recv(FIVE_S).unwrap()));
        });
        assert!(both >= 60, "{both} ms");
    }

    /// A frame sent to an end that is still waiting out an earlier
    /// frame's latency is not held up behind it: the send returns at
    /// once, so the NIC is not held meanwhile, and the two latencies
    /// overlap.
    #[test]
    fn frames_to_one_end_overlap_their_latencies() {
        let link = Link {
            latency: Duration::from_millis(50),
            bandwidth: 1e9,
        };
        let (coord, mut sites) = shaped_star(1, link);
        let site = sites.remove(0);
        let receiver = std::thread::spawn(move || {
            site.recv().unwrap();
            site.recv().unwrap();
        });
        let mut second_send = 0;
        let both = ms(|| {
            coord.send(0, frame(1, 100)).unwrap();
            // Let the site take the first frame and start waiting on it.
            std::thread::sleep(Duration::from_millis(5));
            second_send = ms(|| coord.send(0, frame(2, 100)).unwrap());
            receiver.join().unwrap();
        });
        assert!(second_send < 25, "the second send took {second_send} ms");
        assert!(both < 75, "{both} ms for two frames of 50 ms latency");
    }

    #[test]
    fn one_link_delivers_in_send_order() {
        let (coord, sites) = shaped_star(1, Link::lan());
        for i in 0..200u64 {
            let bytes = MESSAGE_OVERHEAD_BYTES + (i * 7_919) % 6_000;
            sites[0].send(frame(i as u8, bytes)).unwrap();
        }
        for i in 0..200 {
            assert_eq!(coord.recv(FIVE_S).unwrap().1.tag, i as u8);
        }
    }

    /// Two rounds of frames both ways, telemetry among them: the rounds
    /// a star records.
    fn traffic<S: SiteTransport>(
        (coord, sites): (impl CoordinatorTransport, Vec<S>),
    ) -> Vec<RoundStats> {
        for (round, bytes) in [(1, 100u64), (2, 5_000)] {
            coord.stats().begin_round(format!("r{round}"));
            coord.broadcast(&frame(round, bytes)).unwrap();
            for s in &sites {
                let up = bytes * (s.site_id() as u64 + 1);
                s.recv().unwrap();
                s.send(frame(round, up)).unwrap();
                s.send(Message::new(TELEMETRY_TAG, vec![0; 64])).unwrap();
            }
            for _ in 0..2 * sites.len() {
                coord.recv(FIVE_S).unwrap();
            }
        }
        coord.stats().rounds()
    }

    #[test]
    fn stats_are_the_raw_stars() {
        assert_eq!(traffic(shaped_star(3, Link::lan())), traffic(star(3)));
    }

    /// An idle receive, then a send and a receive after the sites hung up.
    fn errors<S: SiteTransport>(
        (coord, sites): (impl CoordinatorTransport, Vec<S>),
    ) -> [NetError; 3] {
        let idle = coord.recv(Duration::from_millis(10)).unwrap_err();
        drop(sites);
        let send = coord.send(0, frame(1, 16)).unwrap_err();
        let recv = coord.recv(Duration::from_millis(10)).unwrap_err();
        [idle, send, recv]
    }

    #[test]
    fn timeouts_and_disconnects_are_the_raw_stars() {
        let want = [
            NetError::Timeout,
            NetError::Disconnected,
            NetError::Disconnected,
        ];
        assert_eq!(errors(star(1)), want);
        assert_eq!(errors(shaped_star(1, Link::lan())), want);
        let (coord, sites) = shaped_star(1, Link::lan());
        drop(coord);
        assert_eq!(sites[0].recv().unwrap_err(), NetError::Disconnected);
    }

    /// No thread serves the shaping: once both ends are gone, nothing
    /// holds the NIC.
    #[test]
    fn dropping_both_ends_releases_everything() {
        let (coord, sites) = shaped_star(2, Link::lan());
        coord.send(1, frame(1, 100)).unwrap();
        let nic = Arc::downgrade(&coord.nic);
        drop((coord, sites));
        assert!(nic.upgrade().is_none());
    }
}
