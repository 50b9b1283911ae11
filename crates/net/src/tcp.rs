//! The TCP transport: real sockets for multi-process clusters.
//!
//! Frames on the wire are `tag: u8`, `query_id: u32` (little-endian),
//! `len: u32` (little-endian), then `len` payload bytes — the protocol
//! v2 frame format. The query id lets one persistent connection carry
//! interleaved rounds of several concurrent queries; id 0 is the
//! control stream (handshake and connection shutdown only). Reads tolerate partial delivery (`read` loops
//! until the frame is complete) and surface a clean
//! [`NetError::SiteDisconnected`] / [`NetError::Disconnected`] when the
//! peer closes or resets mid-frame, so a site dying mid-round aborts the
//! query with a diagnostic instead of hanging. Connection establishment
//! retries with exponential backoff ([`TcpConfig::connect_attempts`]) to
//! absorb site startup races.
//!
//! **Accounting invariant**: [`NetStats`] records the *logical* payload
//! bytes plus [`crate::stats::MESSAGE_OVERHEAD_BYTES`] per message —
//! never the 9-byte wire header or the transport-internal hello frame —
//! so the recorded traffic is bit-identical to the in-process channel
//! transport for the same protocol exchange. The coordinator records
//! downlink messages when it sends and uplink messages when it receives
//! (the two processes do not share memory); each site process keeps its
//! own symmetric [`NetStats`].

use crate::lock;
use crate::stats::{Direction, NetStats};
use crate::transport::{CoordinatorTransport, Message, NetError, SiteTransport};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Refuse frames larger than this (corrupt header guard).
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Wire tag of the transport-internal handshake frame (never surfaced as
/// a [`Message`] and never recorded in [`NetStats`]).
const HELLO_TAG: u8 = 0xFF;

/// Poll granularity for deadline-bounded reads.
const READ_TICK: Duration = Duration::from_millis(200);

/// Knobs for connection establishment and per-link socket behaviour.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// How many connect attempts before giving up (≥ 1). Attempts are
    /// spaced by exponential backoff, absorbing site startup races.
    pub connect_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the backoff between attempts.
    pub backoff_max: Duration,
    /// Idle timeout for a site waiting on its coordinator link
    /// (`None` = wait forever). A timeout is fatal for the link: the
    /// frame stream may be mid-frame, so the session ends.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout for every link (`None` = block forever).
    pub write_timeout: Option<Duration>,
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig {
            connect_timeout: Duration::from_secs(2),
            connect_attempts: 10,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl TcpConfig {
    /// The backoff delay before attempt `attempt + 1` (0-based): the base
    /// doubled per attempt, capped at [`TcpConfig::backoff_max`].
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let mult = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.backoff_base
            .checked_mul(mult)
            .unwrap_or(self.backoff_max)
            .min(self.backoff_max)
    }
}

fn io_err(e: std::io::Error) -> NetError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => NetError::Timeout,
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe
        | ErrorKind::NotConnected => NetError::Disconnected,
        _ => NetError::Io(e.to_string()),
    }
}

/// Fill `buf` completely, looping over partial reads. `Ok(0)` from the
/// socket (peer closed) maps to [`NetError::Disconnected`]; socket-level
/// read timeouts are treated as poll ticks until `deadline` (if any)
/// expires, which maps to [`NetError::Timeout`].
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Option<Instant>,
) -> Result<(), NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(NetError::Disconnected),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(NetError::Timeout);
                }
            }
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(())
}

/// Read one `tag | query_id | len | payload` (v2) frame.
fn read_frame(stream: &mut TcpStream, deadline: Option<Instant>) -> Result<Message, NetError> {
    let mut header = [0u8; 9];
    read_full(stream, &mut header, deadline)?;
    let tag = header[0];
    let query_id = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(NetError::Io(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    read_full(stream, &mut payload, deadline)?;
    Ok(Message {
        tag,
        query_id,
        payload,
    })
}

/// Write one frame as a single buffer (one `write_all`, so a frame is
/// never interleaved when several query workers share the link).
fn write_frame(stream: &mut TcpStream, msg: &Message) -> Result<(), NetError> {
    let mut buf = Vec::with_capacity(9 + msg.payload.len());
    buf.push(msg.tag);
    buf.extend_from_slice(&msg.query_id.to_le_bytes());
    buf.extend_from_slice(&(msg.payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&msg.payload);
    stream.write_all(&buf).map_err(io_err)
}

/// Dial `addr`, retrying with exponential backoff per [`TcpConfig`].
pub fn connect_with_backoff(addr: &str, cfg: &TcpConfig) -> Result<TcpStream, NetError> {
    let attempts = cfg.connect_attempts.max(1);
    let mut last = String::from("no address resolved");
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(cfg.backoff_delay(attempt - 1));
        }
        match addr.to_socket_addrs() {
            Err(e) => last = format!("resolving {addr}: {e}"),
            Ok(addrs) => {
                for sa in addrs {
                    match TcpStream::connect_timeout(&sa, cfg.connect_timeout) {
                        Ok(stream) => {
                            let _ = stream.set_nodelay(true);
                            return Ok(stream);
                        }
                        Err(e) => last = e.to_string(),
                    }
                }
            }
        }
    }
    Err(NetError::Connect {
        addr: addr.to_string(),
        attempts,
        error: last,
    })
}

/// What a coordinator reader thread forwards to the receive queue.
enum Inbound {
    Msg(usize, Message),
    Gone(usize, String),
}

/// The coordinator's end of a TCP star: one connection per site, one
/// reader thread per connection multiplexing into a single receive queue.
///
/// The receive queue is mutex-guarded so the handle is `Sync` and can be
/// shared behind an `Arc` by a multiplexer; with a single dispatcher
/// thread draining it, the lock is uncontended.
pub struct TcpCoordinator {
    links: Vec<Mutex<TcpStream>>,
    inbound: Mutex<Receiver<Inbound>>,
    stats: Arc<NetStats>,
}

impl std::fmt::Debug for TcpCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCoordinator")
            .field("n_sites", &self.links.len())
            .finish()
    }
}

impl TcpCoordinator {
    /// Connect to every site (with backoff), perform the hello handshake
    /// that assigns each its index, and start the reader threads.
    /// `addrs[i]` becomes site `i`.
    pub fn connect(addrs: &[String], cfg: &TcpConfig) -> Result<TcpCoordinator, NetError> {
        let n = addrs.len();
        let stats = NetStats::new(n);
        stats.set_transport("tcp");
        let (tx, rx): (Sender<Inbound>, Receiver<Inbound>) = channel();
        let mut links = Vec::with_capacity(n);
        for (site, addr) in addrs.iter().enumerate() {
            let mut stream = connect_with_backoff(addr, cfg)?;
            stream
                .set_write_timeout(cfg.write_timeout)
                .map_err(io_err)?;
            // Hello: assign the site its index and the cluster size.
            let mut hello = Vec::with_capacity(8);
            hello.extend_from_slice(&(site as u32).to_le_bytes());
            hello.extend_from_slice(&(n as u32).to_le_bytes());
            write_frame(&mut stream, &Message::new(HELLO_TAG, hello))?;
            let mut reader = stream.try_clone().map_err(io_err)?;
            let tx = tx.clone();
            std::thread::Builder::new()
                .name(format!("net-reader-{site}"))
                .spawn(move || loop {
                    match read_frame(&mut reader, None) {
                        Ok(msg) => {
                            if tx.send(Inbound::Msg(site, msg)).is_err() {
                                return; // coordinator dropped
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(Inbound::Gone(site, e.to_string()));
                            return;
                        }
                    }
                })
                .map_err(|e| NetError::Io(format!("spawning reader: {e}")))?;
            links.push(Mutex::new(stream));
        }
        Ok(TcpCoordinator {
            links,
            inbound: Mutex::new(rx),
            stats,
        })
    }
}

impl CoordinatorTransport for TcpCoordinator {
    fn n_sites(&self) -> usize {
        self.links.len()
    }

    fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    fn send(&self, site: usize, msg: Message) -> Result<(), NetError> {
        self.stats.record_frame(site, Direction::Down, &msg);
        write_frame(&mut lock(&self.links[site]), &msg).map_err(|e| match e {
            NetError::Disconnected => NetError::SiteDisconnected {
                site,
                detail: "send failed: peer closed the connection".into(),
            },
            other => other,
        })
    }

    fn recv(&self, timeout: Duration) -> Result<(usize, Message), NetError> {
        match lock(&self.inbound).recv_timeout(timeout) {
            Ok(Inbound::Msg(site, msg)) => {
                self.stats.record_frame(site, Direction::Up, &msg);
                Ok((site, msg))
            }
            Ok(Inbound::Gone(site, detail)) => Err(NetError::SiteDisconnected { site, detail }),
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }
}

impl Drop for TcpCoordinator {
    fn drop(&mut self) {
        // Unblock the reader threads so they exit promptly.
        for link in &self.links {
            let _ = lock(link).shutdown(Shutdown::Both);
        }
    }
}

/// A bound listener a site process accepts coordinator sessions on.
#[derive(Debug)]
pub struct TcpSiteListener {
    listener: TcpListener,
}

impl TcpSiteListener {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str) -> Result<TcpSiteListener, NetError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| NetError::Io(format!("binding {addr}: {e}")))?;
        Ok(TcpSiteListener { listener })
    }

    /// The actual bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        self.listener.local_addr().map_err(io_err)
    }

    /// Accept one coordinator session: wait for a connection, read the
    /// hello frame (bounded by [`TcpConfig::connect_timeout`]) and return
    /// the site's transport handle.
    pub fn accept(&self, cfg: &TcpConfig) -> Result<TcpSite, NetError> {
        let (stream, _peer) = self.listener.accept().map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream
            .set_write_timeout(cfg.write_timeout)
            .map_err(io_err)?;
        // Deadline-bounded reads poll at READ_TICK granularity.
        stream.set_read_timeout(Some(READ_TICK)).map_err(io_err)?;
        let mut read_half = stream.try_clone().map_err(io_err)?;
        let hello = read_frame(&mut read_half, Some(Instant::now() + cfg.connect_timeout))?;
        if hello.tag != HELLO_TAG || hello.payload.len() != 8 {
            return Err(NetError::Io(format!(
                "bad handshake frame (tag {})",
                hello.tag
            )));
        }
        let p = &hello.payload;
        let site_id = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
        let n_sites = u32::from_le_bytes([p[4], p[5], p[6], p[7]]) as usize;
        if site_id >= n_sites {
            return Err(NetError::Io(format!(
                "handshake assigned site {site_id} of {n_sites}"
            )));
        }
        let stats = NetStats::new(n_sites);
        stats.set_transport("tcp");
        Ok(TcpSite {
            site_id,
            n_sites,
            read_half: Mutex::new(read_half),
            write_half: Mutex::new(stream),
            read_timeout: cfg.read_timeout,
            stats,
        })
    }
}

/// One site's end of its coordinator link over TCP.
pub struct TcpSite {
    site_id: usize,
    n_sites: usize,
    read_half: Mutex<TcpStream>,
    write_half: Mutex<TcpStream>,
    read_timeout: Option<Duration>,
    stats: Arc<NetStats>,
}

impl std::fmt::Debug for TcpSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSite")
            .field("site_id", &self.site_id)
            .field("n_sites", &self.n_sites)
            .finish()
    }
}

impl TcpSite {
    /// Cluster size announced by the coordinator's handshake.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// This site process's local traffic accounting (symmetric to the
    /// coordinator's view of this link).
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Receive with an explicit deadline, overriding the configured idle
    /// timeout. Used to bound the protocol handshake: a client that
    /// connects and then goes silent gets [`NetError::Timeout`] instead
    /// of wedging the server's accept loop.
    pub fn recv_deadline(&self, timeout: Duration) -> Result<Message, NetError> {
        let msg = read_frame(&mut lock(&self.read_half), Some(Instant::now() + timeout))?;
        self.stats.record_frame(self.site_id, Direction::Down, &msg);
        Ok(msg)
    }
}

impl SiteTransport for TcpSite {
    fn site_id(&self) -> usize {
        self.site_id
    }

    fn send(&self, msg: Message) -> Result<(), NetError> {
        self.stats.record_frame(self.site_id, Direction::Up, &msg);
        write_frame(&mut lock(&self.write_half), &msg)
    }

    fn recv(&self) -> Result<Message, NetError> {
        let deadline = self.read_timeout.map(|t| Instant::now() + t);
        let msg = read_frame(&mut lock(&self.read_half), deadline)?;
        self.stats.record_frame(self.site_id, Direction::Down, &msg);
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MESSAGE_OVERHEAD_BYTES;

    fn loopback_pair(cfg: &TcpConfig) -> (TcpCoordinator, TcpSite) {
        let listener = TcpSiteListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg2 = cfg.clone();
        let h = std::thread::spawn(move || TcpCoordinator::connect(&[addr], &cfg2).unwrap());
        let site = listener.accept(cfg).unwrap();
        (h.join().unwrap(), site)
    }

    #[test]
    fn round_trip_and_logical_accounting() {
        let cfg = TcpConfig::default();
        let (coord, site) = loopback_pair(&cfg);
        assert_eq!(coord.n_sites(), 1);
        assert_eq!(site.site_id(), 0);
        assert_eq!(site.n_sites(), 1);

        coord.send(0, Message::new(7, b"abcde".to_vec())).unwrap();
        let m = site.recv().unwrap();
        assert_eq!((m.tag, m.payload.as_slice()), (7, b"abcde".as_slice()));
        site.send(Message::new(8, vec![1, 2])).unwrap();
        let (from, m) = coord.recv(Duration::from_secs(5)).unwrap();
        assert_eq!((from, m.tag), (0, 8));

        // Both ends account logical payload bytes, not the wire framing
        // (5-byte header) or the hello frame.
        let ct = coord.stats().totals();
        assert_eq!(ct.down_bytes, 5 + MESSAGE_OVERHEAD_BYTES);
        assert_eq!(ct.up_bytes, 2 + MESSAGE_OVERHEAD_BYTES);
        assert_eq!((ct.down_msgs, ct.up_msgs), (1, 1));
        let st = site.stats().totals();
        assert_eq!(st, ct);
    }

    #[test]
    fn fragmented_frames_reassemble() {
        // Write a frame byte-by-byte with pauses: read_full must keep
        // polling through partial deliveries and socket timeouts.
        let listener = TcpSiteListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            // Hello frame, then a dribbled 3-byte message (v2 framing:
            // tag, query_id, len, payload).
            let mut hello = vec![HELLO_TAG];
            hello.extend_from_slice(&0u32.to_le_bytes()); // query_id
            hello.extend_from_slice(&8u32.to_le_bytes()); // len
            hello.extend_from_slice(&0u32.to_le_bytes()); // site_id
            hello.extend_from_slice(&1u32.to_le_bytes()); // n_sites
            s.write_all(&hello).unwrap();
            let mut frame = vec![9u8];
            frame.extend_from_slice(&42u32.to_le_bytes()); // query_id
            frame.extend_from_slice(&3u32.to_le_bytes()); // len
            frame.extend_from_slice(b"xyz");
            for b in frame {
                s.write_all(&[b]).unwrap();
                s.flush().unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            s
        });
        let site = listener.accept(&TcpConfig::default()).unwrap();
        let m = site.recv().unwrap();
        assert_eq!((m.tag, m.payload.as_slice()), (9, b"xyz".as_slice()));
        assert_eq!(m.query_id, 42, "query id survives the wire round-trip");
        drop(writer.join().unwrap());
    }

    #[test]
    fn peer_death_is_disconnect_not_hang() {
        let cfg = TcpConfig::default();
        let (coord, site) = loopback_pair(&cfg);
        drop(site); // site process "dies"
        let err = coord.recv(Duration::from_secs(10)).unwrap_err();
        assert!(
            matches!(err, NetError::SiteDisconnected { site: 0, .. }),
            "expected SiteDisconnected, got {err:?}"
        );
    }

    #[test]
    fn site_read_timeout_expires() {
        let cfg = TcpConfig {
            read_timeout: Some(Duration::from_millis(50)),
            ..TcpConfig::default()
        };
        let (_coord, site) = loopback_pair(&cfg);
        assert_eq!(site.recv().unwrap_err(), NetError::Timeout);
    }

    #[test]
    fn connect_failure_reports_attempts() {
        // Bind then drop a listener to obtain a (very likely) closed port.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        drop(l);
        let cfg = TcpConfig {
            connect_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            connect_timeout: Duration::from_millis(200),
            ..TcpConfig::default()
        };
        match connect_with_backoff(&addr, &cfg) {
            Err(NetError::Connect { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected Connect error, got {other:?}"),
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = TcpConfig {
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            ..TcpConfig::default()
        };
        assert_eq!(cfg.backoff_delay(0), Duration::from_millis(50));
        assert_eq!(cfg.backoff_delay(1), Duration::from_millis(100));
        assert_eq!(cfg.backoff_delay(2), Duration::from_millis(200));
        assert_eq!(cfg.backoff_delay(6), Duration::from_secs(2)); // capped
        assert_eq!(cfg.backoff_delay(63), Duration::from_secs(2)); // no overflow
    }

    #[test]
    fn oversized_frame_rejected() {
        let listener = TcpSiteListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut hello = vec![HELLO_TAG];
            hello.extend_from_slice(&0u32.to_le_bytes()); // query_id
            hello.extend_from_slice(&8u32.to_le_bytes()); // len
            hello.extend_from_slice(&0u32.to_le_bytes()); // site_id
            hello.extend_from_slice(&1u32.to_le_bytes()); // n_sites
            s.write_all(&hello).unwrap();
            // A header claiming a frame over the limit.
            let mut bad = vec![1u8];
            bad.extend_from_slice(&0u32.to_le_bytes()); // query_id
            bad.extend_from_slice(&u32::MAX.to_le_bytes()); // len
            s.write_all(&bad).unwrap();
            s
        });
        let site = listener.accept(&TcpConfig::default()).unwrap();
        assert!(matches!(site.recv().unwrap_err(), NetError::Io(_)));
        drop(writer.join().unwrap());
    }
}
