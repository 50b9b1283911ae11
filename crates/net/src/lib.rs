//! # skalla-net — coordinator/site transports with exact byte accounting
//!
//! The network between Skalla warehouse sites and the coordinator, behind
//! the [`transport::CoordinatorTransport`] / [`transport::SiteTransport`]
//! trait pair. Two interchangeable implementations:
//!
//! * [`channel`] — in-process: sites are threads connected by channels in
//!   a star topology (built by [`star`]). The zero-config default.
//! * [`tcp`] — real sockets: sites are separate processes speaking
//!   length-prefixed frames, with connect backoff and per-link timeouts.
//!
//! Every transfer is recorded per round and per site in
//! [`stats::NetStats`] at the logical payload layer, identically for both
//! transports; [`cost::CostModel`] converts the recorded traffic into
//! simulated wire time so experiments reproduce the paper's communication
//! behavior on a single machine.

// missing_docs is denied workspace-wide (see [workspace.lints]).
// Bad input is answered with an error, never a panic; a local invariant
// carries `#[expect(clippy::…, reason = "…")]` (docs/STATIC_ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod channel;
pub mod cost;
pub mod mux;
pub mod stats;
pub mod tcp;
pub mod transport;

pub use channel::{star, CoordinatorNet, SiteNet};
pub use cost::CostModel;
pub use mux::{MuxHandle, QueryMux};
pub use stats::{Direction, LinkStats, NetStats, RoundStats, MESSAGE_OVERHEAD_BYTES};
pub use tcp::{connect_with_backoff, TcpConfig, TcpCoordinator, TcpSite, TcpSiteListener};
pub use transport::{CoordinatorTransport, Message, NetError, SiteTransport, TELEMETRY_TAG};
