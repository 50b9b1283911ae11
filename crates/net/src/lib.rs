//! # skalla-net — coordinator/site transports with exact byte accounting
//!
//! The network between Skalla warehouse sites and the coordinator, behind
//! the [`transport::CoordinatorTransport`] / [`transport::SiteTransport`]
//! trait pair. Two interchangeable implementations:
//!
//! * [`channel`] — in-process: sites are threads connected by channels in
//!   a star topology (built by [`star`]). The zero-config default.
//!   [`shaped`] wraps it ([`shaped_star`]) so its links take the time a
//!   [`Link`] — the paper's LAN, [`Link::lan`] — would take.
//! * [`tcp`] — real sockets: sites are separate processes speaking
//!   length-prefixed frames, with connect backoff and per-link timeouts.
//!
//! Every transfer is recorded per round and per site in
//! [`stats::NetStats`] at the logical payload layer, identically for
//! every transport, shaped or not.

// missing_docs is denied workspace-wide (see [workspace.lints]).
// Bad input is answered with an error, never a panic; a local invariant
// carries `#[expect(clippy::…, reason = "…")]` (docs/STATIC_ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod channel;
pub mod mux;
pub mod shaped;
pub mod stats;
pub mod tcp;
pub mod transport;

pub use channel::{star, CoordinatorNet, SiteNet};
pub use mux::{MuxHandle, QueryMux};
pub use shaped::{shaped_star, Link, ShapedCoordinator, ShapedSite};
pub use stats::{Direction, LinkStats, NetStats, RoundStats, MESSAGE_OVERHEAD_BYTES};
pub use tcp::{connect_with_backoff, TcpConfig, TcpCoordinator, TcpSite, TcpSiteListener};
pub use transport::{CoordinatorTransport, Message, NetError, SiteTransport, TELEMETRY_TAG};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if a thread panicked while holding
/// it: every update this crate makes under a lock leaves the data valid
/// at each step (a push, an insert, a whole-value store, or a stream
/// that a failed frame already marks dead).
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
