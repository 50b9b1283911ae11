//! Query multiplexing: many concurrent queries over one shared
//! coordinator transport.
//!
//! A [`QueryMux`] owns a shared [`CoordinatorTransport`] (one persistent
//! connection per site) and runs a single dispatcher thread that routes
//! every inbound frame to the query it belongs to by
//! [`Message::query_id`]. Each admitted query calls
//! [`QueryMux::register`] and receives a [`MuxHandle`] — itself a
//! [`CoordinatorTransport`] — that:
//!
//! * stamps its query id on every outgoing frame, and
//! * keeps its **own** [`NetStats`], recording sends at send time and
//!   receives at delivery time,
//!
//! so per-query round/byte/message accounting is exactly what a serial
//! single-query session over a dedicated connection would record. The
//! shared transport's own [`NetStats`] still accumulates the union of
//! all queries' traffic (plus connection-scoped control frames); the
//! per-query handles are the authoritative accounting, and obs handles
//! should be attached to them, not to the shared stats, to avoid
//! duplicate events.
//!
//! Link failures are connection-scoped: a site dying takes down every
//! in-flight query on the mux, so the dispatcher fans a
//! [`NetError::SiteDisconnected`] out to all registered queries and
//! remembers it — queries registered after the failure fail fast too.

use crate::lock;
use crate::stats::{Direction, NetStats};
use crate::transport::{CoordinatorTransport, Message, NetError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Dispatcher poll granularity (bounds shutdown latency).
const POLL_TICK: Duration = Duration::from_millis(50);

/// What the dispatcher forwards to a registered query.
enum Routed {
    /// A frame from `site` addressed to this query.
    Msg(usize, Message),
    /// The shared connection failed; the query cannot complete.
    Failed(NetError),
}

/// State shared between the mux, its dispatcher, and the handles.
struct MuxShared {
    queries: Mutex<HashMap<u32, Sender<Routed>>>,
    /// First fatal connection error, delivered to late registrants.
    failed: Mutex<Option<NetError>>,
    stop: AtomicBool,
}

impl MuxShared {
    fn fan_out(&self, err: &NetError) {
        *lock(&self.failed) = Some(err.clone());
        for tx in lock(&self.queries).values() {
            let _ = tx.send(Routed::Failed(err.clone()));
        }
    }
}

/// Multiplexes concurrent queries onto one shared coordinator transport.
pub struct QueryMux {
    inner: Arc<dyn CoordinatorTransport + Sync>,
    shared: Arc<MuxShared>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for QueryMux {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryMux")
            .field("n_sites", &self.inner.n_sites())
            .field("active_queries", &lock(&self.shared.queries).len())
            .finish()
    }
}

impl QueryMux {
    /// Wrap a shared transport and start the dispatcher thread; fails
    /// when the OS refuses the thread.
    pub fn new(inner: Arc<dyn CoordinatorTransport + Sync>) -> Result<QueryMux, NetError> {
        let shared = Arc::new(MuxShared {
            queries: Mutex::new(HashMap::new()),
            failed: Mutex::new(None),
            stop: AtomicBool::new(false),
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("query-mux".to_string())
                .spawn(move || loop {
                    if shared.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match inner.recv(POLL_TICK) {
                        Ok((site, msg)) => {
                            let tx = lock(&shared.queries).get(&msg.query_id).cloned();
                            // Unroutable frames (a query that already
                            // aborted and deregistered) are dropped.
                            if let Some(tx) = tx {
                                let _ = tx.send(Routed::Msg(site, msg));
                            }
                        }
                        Err(NetError::Timeout) => {}
                        Err(err @ NetError::SiteDisconnected { .. }) => {
                            // The connection star is degraded for every
                            // query; keep draining the other links.
                            shared.fan_out(&err);
                        }
                        Err(err) => {
                            shared.fan_out(&err);
                            return;
                        }
                    }
                })
                .map_err(|e| NetError::Io(format!("spawning query-mux dispatcher: {e}")))?
        };
        Ok(QueryMux {
            inner,
            shared,
            dispatcher: Mutex::new(Some(dispatcher)),
        })
    }

    /// Number of site links on the shared transport.
    pub fn n_sites(&self) -> usize {
        self.inner.n_sites()
    }

    /// The shared transport, for the connection-scoped control frames
    /// on query id 0 — the catalog handshake and the final shutdown
    /// broadcast, the only traffic that id carries. They are charged to
    /// the shared stats, not to any query.
    pub fn shared_transport(&self) -> &Arc<dyn CoordinatorTransport + Sync> {
        &self.inner
    }

    /// Register a query and get its dedicated transport view. The
    /// handle's [`NetStats`] starts fresh (round 0 open), as on a
    /// dedicated connection. Panics if the id is 0 (the control stream)
    /// or already active.
    pub fn register(&self, query_id: u32) -> MuxHandle {
        assert_ne!(query_id, 0, "query id 0 is the control stream (handshake, shutdown)");
        let (tx, rx) = channel();
        if let Some(err) = lock(&self.shared.failed).clone() {
            let _ = tx.send(Routed::Failed(err));
        }
        let prev = lock(&self.shared.queries).insert(query_id, tx);
        assert!(prev.is_none(), "query id {query_id} already registered");
        let stats = NetStats::new(self.inner.n_sites());
        stats.set_transport(self.inner.stats().transport());
        MuxHandle {
            query_id,
            inner: Arc::clone(&self.inner),
            shared: Arc::clone(&self.shared),
            rx: Mutex::new(rx),
            stats,
        }
    }

    /// Stop the dispatcher and wait for it to exit. Called by `Drop`;
    /// explicit calls are idempotent.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = lock(&self.dispatcher).take() {
            let _ = h.join();
        }
    }
}

impl Drop for QueryMux {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One query's view of the shared connection star: a
/// [`CoordinatorTransport`] that stamps the query id on egress and
/// receives only this query's frames, with per-query [`NetStats`].
pub struct MuxHandle {
    query_id: u32,
    inner: Arc<dyn CoordinatorTransport + Sync>,
    shared: Arc<MuxShared>,
    rx: Mutex<Receiver<Routed>>,
    stats: Arc<NetStats>,
}

impl std::fmt::Debug for MuxHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxHandle")
            .field("query_id", &self.query_id)
            .finish()
    }
}

impl MuxHandle {
    /// The query this handle serves.
    pub fn query_id(&self) -> u32 {
        self.query_id
    }
}

impl CoordinatorTransport for MuxHandle {
    fn n_sites(&self) -> usize {
        self.inner.n_sites()
    }

    fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    fn send(&self, site: usize, msg: Message) -> Result<(), NetError> {
        let msg = msg.with_query_id(self.query_id);
        self.stats.record_frame(site, Direction::Down, &msg);
        self.inner.send(site, msg)
    }

    fn recv(&self, timeout: Duration) -> Result<(usize, Message), NetError> {
        match lock(&self.rx).recv_timeout(timeout) {
            Ok(Routed::Msg(site, msg)) => {
                self.stats.record_frame(site, Direction::Up, &msg);
                Ok((site, msg))
            }
            Ok(Routed::Failed(err)) => Err(err),
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }
}

impl Drop for MuxHandle {
    fn drop(&mut self) {
        lock(&self.shared.queries).remove(&self.query_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::star;
    use crate::stats::MESSAGE_OVERHEAD_BYTES;
    use crate::transport::SiteTransport;

    #[test]
    fn routes_frames_by_query_id() {
        let (coord, sites) = star(2);
        let mux = QueryMux::new(Arc::new(coord)).unwrap();
        let q1 = mux.register(1);
        let q2 = mux.register(2);

        // Echo sites: bounce each frame back on the same query stream.
        let echoes: Vec<_> = sites
            .into_iter()
            .map(|s| {
                std::thread::spawn(move || {
                    for _ in 0..2 {
                        let m = s.recv().unwrap();
                        s.send(Message::for_query(m.tag + 1, m.query_id, m.payload))
                            .unwrap();
                    }
                })
            })
            .collect();

        q1.broadcast(&Message::new(10, b"one".to_vec())).unwrap();
        q2.broadcast(&Message::new(20, b"two".to_vec())).unwrap();

        for _ in 0..2 {
            let (_, m) = q1.recv(Duration::from_secs(5)).unwrap();
            assert_eq!((m.tag, m.query_id), (11, 1));
            let (_, m) = q2.recv(Duration::from_secs(5)).unwrap();
            assert_eq!((m.tag, m.query_id), (21, 2));
        }
        for e in echoes {
            e.join().unwrap();
        }

        // Per-query stats saw only that query's traffic.
        let t1 = q1.stats().totals();
        assert_eq!(t1.down_bytes, 2 * (3 + MESSAGE_OVERHEAD_BYTES));
        assert_eq!(t1.up_bytes, 2 * (3 + MESSAGE_OVERHEAD_BYTES));
        assert_eq!((t1.down_msgs, t1.up_msgs), (2, 2));
        assert_eq!(q2.stats().totals(), t1);
    }

    #[test]
    fn failure_fans_out_to_all_queries_and_late_registrants() {
        let (coord, sites) = star(1);
        let mux = QueryMux::new(Arc::new(coord)).unwrap();
        let q1 = mux.register(1);
        drop(sites); // every link dies
        // The channel transport reports a dead star as Disconnected on
        // send; the dispatcher sees it once a recv errors. Poke it:
        let err = q1.recv(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, NetError::Disconnected);
        let q2 = mux.register(2);
        assert_eq!(
            q2.recv(Duration::from_secs(5)).unwrap_err(),
            NetError::Disconnected
        );
    }

    #[test]
    fn deregistered_query_frames_are_dropped() {
        let (coord, sites) = star(1);
        let mux = QueryMux::new(Arc::new(coord)).unwrap();
        let q1 = mux.register(1);
        drop(q1); // query aborted
        sites[0]
            .send(Message::for_query(2, 1, b"late".to_vec()))
            .unwrap();
        // A fresh query must not receive the stale frame.
        let q2 = mux.register(2);
        assert_eq!(
            q2.recv(Duration::from_millis(200)).unwrap_err(),
            NetError::Timeout
        );
    }
}
