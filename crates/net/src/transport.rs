//! The transport abstraction between the coordinator and the sites.
//!
//! The paper ran Skalla with sites on separate machines over a LAN
//! (Sect. 5). This reproduction supports two interchangeable transports
//! behind the [`CoordinatorTransport`] / [`SiteTransport`] trait pair:
//!
//! * **In-process channels** ([`crate::channel`], built by
//!   [`crate::channel::star`]) — sites are threads and links are
//!   crossbeam channels. Zero configuration; the default for tests,
//!   benchmarks and the figure harnesses, so experiments reproduce the
//!   paper's communication behaviour deterministically on one machine.
//! * **TCP sockets** ([`crate::tcp`]) — sites are separate processes
//!   (one machine or several) speaking length-prefixed frames over
//!   `std::net`, with per-link read/write timeouts and
//!   connect-with-backoff for site startup races.
//!
//! Both record every transfer in [`crate::stats::NetStats`] at the same
//! *logical* layer — payload bytes plus the fixed
//! [`crate::stats::MESSAGE_OVERHEAD_BYTES`] framing charge, never the
//! physical wire encoding — so byte/message/round accounting is
//! transport-invariant and the paper's traffic formulas hold verbatim
//! over real sockets. Simulated wire time is derived from the byte
//! counts by [`crate::cost::CostModel`].

use crate::stats::NetStats;
use std::sync::Arc;
use std::time::Duration;

/// The frame tag carrying telemetry (site → coordinator metric/trace
/// export).
///
/// Telemetry frames are **never recorded in [`NetStats`]**, on either
/// transport, in either direction: the byte accounting reproduces the
/// paper's query-traffic formulas, and observability payloads are not
/// query traffic. Exempting them at the transport layer keeps the
/// channel/TCP byte-identity invariant intact whether or not telemetry
/// export is enabled.
pub const TELEMETRY_TAG: u8 = 9;

/// A framed message: an application-defined tag, the query it belongs
/// to, and payload bytes.
///
/// `query_id` 0 is the control stream (catalog handshake and
/// connection shutdown only); every query's frames carry an id ≥ 1 so a
/// demultiplexer can route them to per-query state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Application-defined message type tag.
    pub tag: u8,
    /// The query this frame belongs to (0 = control stream).
    pub query_id: u32,
    /// Serialized payload.
    pub payload: Vec<u8>,
}

impl Message {
    /// Construct a message on the control stream (`query_id` 0).
    pub fn new(tag: u8, payload: Vec<u8>) -> Message {
        Message {
            tag,
            query_id: 0,
            payload,
        }
    }

    /// Construct a message stamped with a query id.
    pub fn for_query(tag: u8, query_id: u32, payload: Vec<u8>) -> Message {
        Message {
            tag,
            query_id,
            payload,
        }
    }

    /// This message re-stamped onto another query stream.
    pub fn with_query_id(mut self, query_id: u32) -> Message {
        self.query_id = query_id;
        self
    }
}

/// Errors surfaced by the transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The peer hung up.
    Disconnected,
    /// No message arrived within the timeout.
    Timeout,
    /// A specific site's link died (TCP: connection reset / EOF), with a
    /// diagnostic. The coordinator uses this to abort the query with a
    /// useful message instead of hanging out the round timeout.
    SiteDisconnected {
        /// The site whose link died.
        site: usize,
        /// Underlying I/O detail (e.g. "connection reset by peer").
        detail: String,
    },
    /// Could not establish a connection, even with retries.
    Connect {
        /// The address dialled.
        addr: String,
        /// How many attempts were made before giving up.
        attempts: u32,
        /// The last I/O error observed.
        error: String,
    },
    /// Any other socket-level failure.
    Io(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::SiteDisconnected { site, detail } => {
                write!(f, "site {site} disconnected: {detail}")
            }
            NetError::Connect {
                addr,
                attempts,
                error,
            } => write!(
                f,
                "could not connect to {addr} after {attempts} attempt(s): {error}"
            ),
            NetError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

/// The coordinator's view of the network: a star of per-site links.
///
/// Implementations must record every [`send`](Self::send) and every
/// delivered [`recv`](Self::recv) in [`Self::stats`] at the logical
/// payload layer (see the module docs), so the coordinator's traffic
/// accounting is identical whichever transport carries the bytes.
pub trait CoordinatorTransport: Send {
    /// Number of site links.
    fn n_sites(&self) -> usize;

    /// The shared traffic accounting.
    fn stats(&self) -> &Arc<NetStats>;

    /// Send a message to one site.
    fn send(&self, site: usize, msg: Message) -> Result<(), NetError>;

    /// Receive the next message from any site (blocking, with timeout).
    fn recv(&self, timeout: Duration) -> Result<(usize, Message), NetError>;

    /// Send copies of a message to every site.
    fn broadcast(&self, msg: &Message) -> Result<(), NetError> {
        for site in 0..self.n_sites() {
            self.send(site, msg.clone())?;
        }
        Ok(())
    }
}

/// One site's view of the network: its single link to the coordinator.
pub trait SiteTransport: Send {
    /// This site's index.
    fn site_id(&self) -> usize;

    /// Send a message to the coordinator.
    fn send(&self, msg: Message) -> Result<(), NetError>;

    /// Receive the next message from the coordinator (blocking; honours
    /// the transport's configured idle timeout, if any).
    fn recv(&self) -> Result<Message, NetError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::star;

    #[test]
    fn broadcast_default_sends_to_every_site() {
        // Exercise the trait's default broadcast through a dyn reference.
        let (coord, sites) = star(3);
        let c: &dyn CoordinatorTransport = &coord;
        c.broadcast(&Message::new(9, b"hi".to_vec())).unwrap();
        for s in &sites {
            assert_eq!(s.recv().unwrap().tag, 9);
        }
    }

    #[test]
    fn net_error_display() {
        assert_eq!(NetError::Disconnected.to_string(), "peer disconnected");
        assert_eq!(NetError::Timeout.to_string(), "receive timed out");
        assert_eq!(
            NetError::SiteDisconnected {
                site: 2,
                detail: "reset".into()
            }
            .to_string(),
            "site 2 disconnected: reset"
        );
        assert!(NetError::Connect {
            addr: "127.0.0.1:1".into(),
            attempts: 3,
            error: "refused".into()
        }
        .to_string()
        .contains("after 3 attempt(s)"));
        assert!(NetError::Io("broken pipe".into())
            .to_string()
            .contains("broken pipe"));
    }
}
