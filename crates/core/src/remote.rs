//! Multi-process execution over the TCP transport.
//!
//! [`SiteServer`] is a standalone warehouse site (what `skalla-cli site`
//! runs): it answers the versioned catalog handshake and then serves the
//! session with [`site_session_loop`], the same loop an in-process site
//! thread runs. The coordinator side is the [`crate::Skalla`] engine's
//! remote backend ([`crate::SkallaBuilder::remote`]): it dials the sites,
//! learns their schemas and partition domains through
//! `catalog_handshake`, holds one persistent session per site for its
//! whole lifetime, and multiplexes any number of (concurrent) queries
//! over it by query id.
//!
//! The handshake is charged to the shared connection's pre-query round,
//! never to a query's [`crate::stats::ExecStats::net`], so per-query
//! rounds line up one-to-one with an in-process run. Each stage's site
//! busy time, and a standalone site's trace delta, come back in that
//! stage's round in a [`crate::protocol::TAG_TELEMETRY`] frame, which
//! the transports exempt from byte accounting.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::coordinator::net_err;
use crate::distribution::DistributionInfo;
use crate::protocol::{self, SiteCatalogEntry};
use crate::site::site_session_loop;
use skalla_net::{CoordinatorTransport, SiteTransport, TcpConfig, TcpSiteListener};
use skalla_obs::Obs;
use skalla_relation::{DomainMap, Error, Relation, Result};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// How long the coordinator waits for each site's catalog reply.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(60);

/// What the catalog handshake learns: distribution knowledge and the
/// plan-validation catalog.
pub(crate) type HandshakeInfo = (DistributionInfo, HashMap<String, Arc<Relation>>);

/// Run the versioned catalog handshake over an established coordinator
/// transport: broadcast the catalog request (carrying
/// [`protocol::PROTOCOL_VERSION`]), collect every site's reply, and
/// assemble the coordinator's distribution knowledge and
/// plan-validation catalog — checking the sites agree on the warehouse
/// shape.
///
/// Handshake traffic lands in the shared transport's accounting (the
/// pre-query "round 0"), never in any query's stats.
pub(crate) fn catalog_handshake(coord: &dyn CoordinatorTransport) -> Result<HandshakeInfo> {
    let n = coord.n_sites();
    coord
        .broadcast(&protocol::catalog_request())
        .map_err(net_err)?;
    let mut per_site: Vec<Option<Vec<SiteCatalogEntry>>> = vec![None; n];
    for _ in 0..n {
        let (site, msg) = coord.recv(HANDSHAKE_TIMEOUT).map_err(net_err)?;
        match msg.tag {
            protocol::TAG_CATALOG => {
                per_site[site] = Some(protocol::decode_catalog(&msg.payload)?);
            }
            protocol::TAG_ERROR => {
                return Err(Error::Execution(format!(
                    "site {site} rejected the catalog handshake: {}",
                    protocol::decode_error(&msg.payload)
                )));
            }
            t => {
                return Err(Error::Execution(format!(
                    "unexpected message tag {t} from site {site} during handshake"
                )));
            }
        }
    }
    // A misbehaving site can answer twice, leaving another site's slot
    // empty even after n receives — that's a protocol error, not a panic.
    let per_site: Vec<Vec<SiteCatalogEntry>> = per_site
        .into_iter()
        .enumerate()
        .map(|(site, e)| {
            e.ok_or_else(|| {
                Error::Execution(format!(
                    "site {site} never answered the catalog handshake (another \
                     site replied more than once)"
                ))
            })
        })
        .collect::<Result<_>>()?;

    let mut dist = DistributionInfo::new(n);
    let mut catalog: HashMap<String, Arc<Relation>> = HashMap::new();
    for entry in &per_site[0] {
        let mut domains = Vec::with_capacity(n);
        for (site, entries) in per_site.iter().enumerate() {
            let here = entries
                .iter()
                .find(|e| e.table == entry.table)
                .ok_or_else(|| {
                    Error::Execution(format!(
                        "site {site} does not hold table {:?}",
                        entry.table
                    ))
                })?;
            if here.schema != entry.schema {
                return Err(Error::Execution(format!(
                    "site {site} disagrees on the schema of {:?}",
                    entry.table
                )));
            }
            domains.push(here.domains.clone());
        }
        dist.set_table(entry.table.clone(), domains);
        catalog.insert(
            entry.table.clone(),
            Arc::new(Relation::empty(entry.schema.clone())),
        );
    }
    for (site, entries) in per_site.iter().enumerate() {
        if entries.len() != per_site[0].len() {
            return Err(Error::Execution(format!(
                "site {site} advertises {} tables, site 0 advertises {}",
                entries.len(),
                per_site[0].len()
            )));
        }
    }
    Ok((dist, catalog))
}

/// A standalone warehouse site: a bound listener plus the site's local
/// tables and partition-domain descriptions. Each accepted coordinator
/// session is served to completion — catalog handshake (with protocol
/// version negotiation), then the [`site_session_loop`] demultiplexer
/// until shutdown or disconnect.
pub struct SiteServer {
    listener: TcpSiteListener,
    catalog: HashMap<String, Arc<Relation>>,
    entries: Vec<SiteCatalogEntry>,
    cfg: TcpConfig,
    obs: Obs,
}

/// A site's tables in name order, so nothing built from them — the
/// advertised catalog above all — depends on the map's hash order.
#[expect(clippy::disallowed_methods, reason = "sorted before it is returned")]
fn sorted_tables(catalog: &HashMap<String, Arc<Relation>>) -> Vec<(&String, &Arc<Relation>)> {
    let mut tables: Vec<_> = catalog.iter().collect();
    tables.sort_unstable_by_key(|(name, _)| *name);
    tables
}

impl std::fmt::Debug for SiteServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tables: Vec<&String> = sorted_tables(&self.catalog).into_iter().map(|t| t.0).collect();
        f.debug_struct("SiteServer")
            .field("tables", &tables)
            .finish()
    }
}

impl SiteServer {
    /// Bind `addr` (use port 0 for an ephemeral port, then
    /// [`SiteServer::local_addr`]). `domains` gives this site's φ
    /// description per table; tables without one advertise unconstrained
    /// domains.
    pub fn bind(
        addr: &str,
        catalog: HashMap<String, Arc<Relation>>,
        domains: HashMap<String, DomainMap>,
        cfg: TcpConfig,
    ) -> Result<SiteServer> {
        let listener = TcpSiteListener::bind(addr).map_err(net_err)?;
        let entries: Vec<SiteCatalogEntry> = sorted_tables(&catalog)
            .into_iter()
            .map(|(table, rel)| SiteCatalogEntry {
                table: table.clone(),
                schema: rel.schema().clone(),
                domains: domains.get(table).cloned().unwrap_or_default(),
            })
            .collect();
        Ok(SiteServer {
            listener,
            catalog,
            entries,
            cfg,
            obs: Obs::disabled(),
        })
    }

    /// The actual bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.listener.local_addr().map_err(net_err)
    }

    /// Attach an observability handle for site task spans.
    pub fn set_obs(&mut self, obs: Obs) -> &mut SiteServer {
        self.obs = obs;
        self
    }

    /// Accept one coordinator session and serve it to completion.
    /// Returns after the coordinator's shutdown broadcast (normal end of
    /// session) or when the link dies; either way the listener stays
    /// bound, so the caller may loop.
    ///
    /// The handshake read is **deadline-bounded** (the session's
    /// configured read timeout, capped at 60 s): a coordinator that
    /// connects and then disconnects — or goes silent — mid-handshake
    /// surfaces as a clean error here instead of blocking the accept
    /// loop forever on a half-open socket.
    ///
    /// After the handshake the session is served by
    /// [`crate::site::site_session_loop`], which demultiplexes frames to
    /// per-query workers by query id — so one persistent session carries
    /// any number of concurrent queries.
    pub fn serve_once(&self) -> Result<()> {
        let site = self.listener.accept(&self.cfg).map_err(net_err)?;
        // The handshake: a remote coordinator always asks for the catalog
        // before planning.
        let handshake_bound = self
            .cfg
            .read_timeout
            .map(|t| t.min(HANDSHAKE_TIMEOUT))
            .unwrap_or(HANDSHAKE_TIMEOUT);
        let first = site.recv_deadline(handshake_bound).map_err(net_err)?;
        if first.tag != protocol::TAG_CATALOG_REQ {
            let _ = site.send(protocol::error("expected a catalog request"));
            return Err(Error::Execution(format!(
                "expected catalog request, got message tag {}",
                first.tag
            )));
        }
        let version = protocol::decode_catalog_request(&first.payload)?;
        if version != protocol::PROTOCOL_VERSION {
            let detail = format!(
                "unsupported protocol version v{version} (this site speaks v{})",
                protocol::PROTOCOL_VERSION
            );
            let _ = site.send(protocol::error(&detail));
            return Err(Error::Execution(detail));
        }
        site.send(protocol::catalog(&self.entries))
            .map_err(net_err)?;
        // A standalone site owns its recorder, so it exports obs deltas
        // in its per-stage telemetry frames (the coordinator merges them
        // into one cross-process trace).
        site_session_loop(&self.catalog, Arc::new(site), true, &self.obs);
        Ok(())
    }

    /// Serve coordinator sessions forever (one at a time). A failed
    /// session — handshake violation, a coordinator disconnecting
    /// mid-handshake, link death — is logged to stderr and the server
    /// returns to accepting the next session.
    pub fn serve_forever(&self) -> Result<()> {
        loop {
            if let Err(e) = self.serve_once() {
                eprintln!("skalla site: session ended with error: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OptFlags, Planner};
    use crate::warehouse::Skalla;
    use skalla_gmdj::prelude::*;
    use skalla_relation::{row, DataType, Domain, Schema};

    fn fragments() -> Vec<(Relation, DomainMap)> {
        let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
        let p0 = Relation::new(
            schema.clone(),
            vec![row![1i64, 10i64], row![1i64, 30i64], row![2i64, 5i64]],
        )
        .unwrap();
        let p1 = Relation::new(schema, vec![row![3i64, 7i64], row![3i64, 9i64]]).unwrap();
        vec![
            (p0, DomainMap::new().with("g", Domain::IntRange(1, 2))),
            (p1, DomainMap::new().with("g", Domain::IntRange(3, 3))),
        ]
    }

    fn expr() -> GmdjExpr {
        GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("cnt"), AggSpec::avg("v", "avg")],
            ))
            .build()
    }

    fn spawn_sites(parts: Vec<(Relation, DomainMap)>) -> Vec<String> {
        let mut addrs = Vec::new();
        for (rel, dom) in parts {
            let catalog = HashMap::from([("t".to_string(), Arc::new(rel))]);
            let domains = HashMap::from([("t".to_string(), dom)]);
            let server =
                SiteServer::bind("127.0.0.1:0", catalog, domains, TcpConfig::default()).unwrap();
            addrs.push(server.local_addr().unwrap().to_string());
            std::thread::spawn(move || {
                let _ = server.serve_once();
            });
        }
        addrs
    }

    fn connect(addrs: &[String]) -> Result<Skalla> {
        Skalla::builder().remote(addrs, TcpConfig::default()).build()
    }

    #[test]
    fn remote_engine_learns_catalog_and_executes() {
        let addrs = spawn_sites(fragments());
        let rc = connect(&addrs).unwrap();
        assert_eq!(rc.n_sites(), 2);
        // Distribution knowledge crossed the wire.
        assert!(rc.distribution().is_partition_attribute("t", "g"));
        let plan = Planner::new(rc.distribution()).optimize(&expr(), OptFlags::all());
        let out = rc.execute(&plan).unwrap();
        let sorted = out.relation.sorted_by(&["g"]).unwrap();
        assert_eq!(sorted.rows()[0], row![1i64, 2i64, 20.0]);
        assert_eq!(sorted.rows()[1], row![2i64, 1i64, 5.0]);
        assert_eq!(sorted.rows()[2], row![3i64, 2i64, 8.0]);
        // Per-query rounds only: plan + stages, no handshake round.
        assert_eq!(out.stats.stages[0].label, "plan");
        assert_eq!(out.stats.net.len(), out.stats.stages.len());
    }

    #[test]
    fn advertised_catalog_does_not_depend_on_hash_order() {
        // Two servers over the same three tables, each handed a fresh
        // `HashMap` (its own `RandomState`, so its own iteration order).
        let bind = || {
            let catalog: HashMap<String, Arc<Relation>> = ["zeta", "alpha", "mid"]
                .into_iter()
                .zip(fragments().into_iter().cycle())
                .map(|(table, (rel, _))| (table.to_string(), Arc::new(rel)))
                .collect();
            SiteServer::bind("127.0.0.1:0", catalog, HashMap::new(), TcpConfig::default()).unwrap()
        };
        let (a, b) = (bind(), bind());
        let tables: Vec<&str> = a.entries.iter().map(|e| e.table.as_str()).collect();
        assert_eq!(tables, ["alpha", "mid", "zeta"]);
        assert_eq!(
            protocol::catalog(&a.entries).payload,
            protocol::catalog(&b.entries).payload
        );
    }

    #[test]
    fn schema_disagreement_is_rejected() {
        let schema_a = Schema::of(&[("g", DataType::Int)]);
        let schema_b = Schema::of(&[("g", DataType::Str)]);
        let parts = vec![
            (Relation::new(schema_a, vec![]).unwrap(), DomainMap::new()),
            (Relation::new(schema_b, vec![]).unwrap(), DomainMap::new()),
        ];
        let addrs = spawn_sites(parts);
        let err = connect(&addrs).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
    }
}
