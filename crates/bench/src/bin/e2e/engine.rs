//! Standing an engine up over a workload's data, all in this process, and
//! running one op against it — through the public API only.

use crate::workloads::{Table, Transport, Workload};
use skalla_core::{ExecStats, OptFlags, SiteServer, Skalla};
use skalla_net::TcpConfig;
use skalla_obs::Obs;
use skalla_relation::{Error, Relation, Result};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running engine plus, over TCP, the site-server threads behind it.
pub struct Engine {
    // `Option` so that `drop` can release the sites (the engine's shutdown
    // broadcast ends `serve_once`) before joining their threads.
    skalla: Option<Skalla>,
    servers: Vec<JoinHandle<()>>,
}

impl std::ops::Deref for Engine {
    type Target = Skalla;

    fn deref(&self) -> &Skalla {
        self.skalla.as_ref().expect("engine lives until drop")
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.skalla.take();
        for server in self.servers.drain(..) {
            let _ = server.join();
        }
    }
}

/// Deep copies of the master fragments; the copies have no columnar
/// layout yet (see [`Table`]).
pub fn clone_tables(tables: &[Table]) -> Vec<Table> {
    tables
        .iter()
        .map(|t| Table {
            name: t.name,
            parts: t.parts.clone(),
        })
        .collect()
}

/// Build an engine over `tables` and return it with the set-up time: from
/// handing the relations to the public API until `build()` returns, so
/// work a later change moves to load time (a columnar build, an index)
/// shows here. `obs` is `None` for every end-to-end number.
pub fn build(w: &Workload, tables: Vec<Table>, obs: Option<Obs>) -> Result<(Engine, Duration)> {
    let started = Instant::now();
    let mut builder = Skalla::builder().max_concurrent(w.clients);
    if let Some(obs) = obs {
        builder = builder.obs(obs);
    }
    let mut servers = Vec::new();
    match w.transport {
        Transport::Channel => {
            for t in tables {
                builder = builder.partitions(t.name, t.parts);
            }
        }
        Transport::Tcp => {
            let n_sites = tables.first().map_or(0, |t| t.parts.len());
            let mut per_site: Vec<(HashMap<_, _>, HashMap<_, _>)> =
                (0..n_sites).map(|_| Default::default()).collect();
            for t in tables {
                for (site, part) in t.parts.into_iter().enumerate() {
                    per_site[site]
                        .0
                        .insert(t.name.to_string(), Arc::new(part.relation));
                    per_site[site].1.insert(t.name.to_string(), part.domains);
                }
            }
            let mut addrs = Vec::with_capacity(n_sites);
            for (catalog, domains) in per_site {
                let server =
                    SiteServer::bind("127.0.0.1:0", catalog, domains, TcpConfig::default())?;
                addrs.push(server.local_addr()?.to_string());
                servers.push(
                    std::thread::Builder::new()
                        .name("e2e-site-server".into())
                        .spawn(move || {
                            let _ = server.serve_once();
                        })
                        .map_err(|e| Error::Execution(format!("spawning site server: {e}")))?,
                );
            }
            builder = builder.remote(&addrs, TcpConfig::default());
        }
    }
    let skalla = builder.build()?;
    Ok((
        Engine {
            skalla: Some(skalla),
            servers,
        },
        started.elapsed(),
    ))
}

/// What one op cost, summed over the queries it submitted, from the
/// `ExecStats` each of them returned.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStats {
    pub bytes_down: u64,
    pub bytes_up: u64,
    pub msgs: u64,
    pub rounds: u64,
    /// Σ over rounds of the slowest site's busy time: the part of the
    /// latency that site work alone accounts for.
    pub busy_critical_s: f64,
    /// Busy time per site, summed over rounds.
    pub busy_per_site_s: Vec<f64>,
    pub coord_s: f64,
}

impl OpStats {
    pub fn bytes(&self) -> u64 {
        self.bytes_down + self.bytes_up
    }

    pub fn contacted_sites(&self) -> bool {
        self.msgs > 0
    }

    fn add(&mut self, stats: &ExecStats) {
        self.bytes_down += stats.bytes_down();
        self.bytes_up += stats.bytes_up();
        self.msgs += stats.total_messages();
        self.rounds += stats.n_rounds() as u64;
        for stage in &stats.stages {
            self.coord_s += stage.coord_s;
            self.busy_critical_s += stage.site_busy_s.iter().copied().fold(0.0, f64::max);
            if self.busy_per_site_s.len() < stage.site_busy_s.len() {
                self.busy_per_site_s.resize(stage.site_busy_s.len(), 0.0);
            }
            for (total, busy) in self.busy_per_site_s.iter_mut().zip(&stage.site_busy_s) {
                *total += busy;
            }
        }
    }
}

/// One op: submit every item of the workload once — the queries as text,
/// then the cube — starting the walk at item `start` (clients use different
/// starts). Returns the answers in item order, whatever the walk order.
pub fn run_op(engine: &Skalla, w: &Workload, start: usize) -> Result<(Vec<Relation>, OpStats)> {
    let n = w.items();
    let mut answers: Vec<Option<Relation>> = vec![None; n];
    let mut stats = OpStats::default();
    for step in 0..n {
        let item = (start + step) % n;
        let relation = match (w.queries.get(item), &w.cube) {
            (Some(query), _) => {
                let out = skalla_query::run(&query.text, engine, OptFlags::all())?;
                stats.add(&out.stats);
                out.relation
            }
            (None, Some(cube)) => {
                let out =
                    skalla_query::cube(engine, cube.table, cube.dims, &cube.aggs, OptFlags::all())?;
                for level in &out.levels {
                    if let Some(s) = &level.stats {
                        stats.add(s);
                    }
                }
                out.relation
            }
            (None, None) => unreachable!("items() counts the cube only when there is one"),
        };
        answers[item] = Some(relation);
    }
    Ok((answers.into_iter().flatten().collect(), stats))
}
