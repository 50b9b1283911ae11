//! `skalla-cli` — run and explain distributed OLAP queries from the
//! command line.
//!
//! ```text
//! skalla-cli explain --dataset flow --sites 4 --opt all --query-file q.skl
//! skalla-cli run     --dataset tpcr --sites 8 --opt none -q "BASE …; MD …;"
//! skalla-cli run     --csv flow=flows.csv --types int,int,int --partition-by source_as …
//! skalla-cli gen     --dataset flow --rows 10000 --out flows.csv
//! ```
//!
//! Queries use the `skalla-query` language: a `BASE SELECT DISTINCT …`
//! statement followed by `MD name = AGG(expr), … OVER table WHERE θ;`
//! statements (unqualified columns are detail-side; `b.name` refers to the
//! base, including aggregates from earlier MD statements).

use skalla::core::{Cluster, EngineConfig, OptFlags, Planner, SiteServer, Skalla, Warehouse};
use skalla::datagen::flow::{generate_flows, FlowConfig};
use skalla::datagen::partition::{observe_int_ranges, Partition};
use skalla::datagen::tpcr::{generate_tpcr, TpcrConfig};
use skalla::net::TcpConfig;
use skalla::obs::chrome::{metrics_snapshot, write_chrome_trace};
use skalla::obs::json::{self, Json};
use skalla::obs::serve::MetricsServer;
use skalla::obs::{Histogram, Obs};
use skalla::query;
use skalla::relation::{csv, DataType, DomainMap, Relation, Schema};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "run" => cmd_run(rest, true),
        "explain" => cmd_run(rest, false),
        "cube" => cmd_cube(rest),
        "gen" => cmd_gen(rest),
        "site" => cmd_site(rest),
        "net-probe" => cmd_net_probe(),
        "trace-check" => cmd_trace_check(rest),
        "http-get" => cmd_http_get(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
skalla-cli — distributed OLAP with GMDJ operators

USAGE:
  skalla-cli run     [data options] [--opt LEVEL] (-q QUERY | --query-file F) [--limit N]
  skalla-cli run     --sites ADDR,ADDR,… [tcp options] [--opt LEVEL] (-q … | --query-file F)
  skalla-cli explain [data options] [--opt LEVEL] (-q QUERY | --query-file F)
  skalla-cli cube    [data options] --dims C1,C2,… [--aggs SPEC,…] [--no-rollup]
  skalla-cli gen     --dataset flow|tpcr [--rows N] [--seed S] --out FILE.csv
  skalla-cli site    --listen ADDR --site-index I [data options] [tcp options] [--once]
  skalla-cli trace-check FILE.json --sites N
                                     assert a merged Chrome trace has spans on
                                     every lane site-0 … site-{N-1}
  skalla-cli http-get URL            fetch http://HOST:PORT/path and print the body

DATA OPTIONS (choose one source):
  --dataset flow|tpcr        built-in generator (default: flow)
  --rows N                   generated fact rows (default: 10000)
  --seed S                   generator seed (default: 42)
  --csv NAME=PATH            load a CSV file as table NAME
  --types t1,t2,…            column types for --csv (int|double|str)
  --partition-by COL         integer partition attribute (default: first column)
  --sites N                  number of warehouse sites (default: 4);
                             for `run`, a comma-separated address list instead
                             connects to standalone `skalla-cli site` processes

SITE (standalone warehouse site process):
  --listen ADDR              bind address, e.g. 127.0.0.1:7101 (port 0 = ephemeral;
                             prints `listening on HOST:PORT` once bound)
  --site-index I             which fragment of the partitioned data this site holds
  --once                     serve one coordinator session, then exit
  --metrics-listen ADDR      also serve live metrics over HTTP (see OBSERVABILITY)

TCP OPTIONS (run --sites / site):
  --net-timeout SECS         per-round receive timeout, and the site's idle
                             read timeout (default: 120)
  --connect-attempts N       coordinator dial attempts per site (default: 10)
  --connect-backoff-ms MS    initial retry backoff, doubling per attempt,
                             capped at 2s (default: 50)

QUERY OPTIONS:
  --opt all|none|coalesce|group-reduction|sync-reduction   (default: all)
  -q QUERY | --query-file F   the query text
  --limit N                   print at most N result rows (default: 20)
  --chunk N                   row blocking: ship results in chunks of N rows
  --threads N                 worker threads per site for the morsel-parallel
                              GMDJ kernel (default: available cores; 1 = serial;
                              more than the core count is capped to it)
  --morsel-rows N             detail rows per morsel (default: 65536; fixes the
                              accumulator merge structure, so output bits depend
                              on it)
  --no-cache                  disable the semantic result cache (same as
                              --cache-bytes 0): every query pays its full
                              site traffic, repeats included (ablation;
                              same bits either way)
  --cache-bytes N             byte budget of the semantic result cache
                              (default: 64 MiB; 0 turns it off)
  --concurrency N             submit the query N times at once through the
                              multi-query scheduler; the copies share the
                              persistent site sessions and must agree
                              (default: 1)

CUBE OPTIONS:
  --dims C1,C2,…              cube dimensions (required)
  --aggs SPEC,…               aggregates: count | sum:COL | avg:COL | min:COL |
                              max:COL | var:COL | stddev:COL (default: count)
  --table NAME                fact table (default: the --csv name or --dataset)
  --no-rollup                 run one distributed query per grouping set
                              instead of rolling coarse levels up locally from
                              the finest level's sub-aggregates (ablation)

OBSERVABILITY:
  --trace FILE.json           (run) record spans/events and write a Chrome trace
                              merging the coordinator and every site's telemetry
                              into one timeline (load in Perfetto or
                              chrome://tracing)
  --metrics FILE.json         (run) write a flat counters/histograms snapshot
  --metrics-listen ADDR       (run/site) serve live metrics over HTTP while the
                              process runs: /metrics (Prometheus text),
                              /metrics.json, /trace.json. Port 0 = ephemeral;
                              prints `metrics listening on http://HOST:PORT`
  --metrics-linger SECS       (run) keep the metrics endpoint up for SECS
                              seconds after the query finishes (default: 0)
  --slow-query-log FILE       (run) append one JSON line per logged query:
                              timestamp, query text, wall seconds, full stats
  --slow-query-ms N           (run) only log queries slower than N ms
                              (default: 0 = log every query)";

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flags(args: &[String]) -> Result<OptFlags, String> {
    match opt(args, "--opt").as_deref().unwrap_or("all") {
        "all" => Ok(OptFlags::all()),
        "none" => Ok(OptFlags::none()),
        "coalesce" => Ok(OptFlags::coalesce_only()),
        "group-reduction" => Ok(OptFlags::group_reduction_only()),
        "sync-reduction" => Ok(OptFlags::sync_reduction_only()),
        other => Err(format!("unknown --opt {other:?}")),
    }
}

fn load_query(args: &[String]) -> Result<String, String> {
    if let Some(q) = opt(args, "-q") {
        return Ok(q);
    }
    if let Some(path) = opt(args, "--query-file") {
        return std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"));
    }
    Err("missing query: pass -q '…' or --query-file FILE".to_string())
}

/// Build the partitioned warehouse data from the data options: the fact
/// table's name and its per-site `(fragment, φ-domains)` pairs. Shared by
/// the in-process engine (`run`/`explain`) and the standalone `site`
/// command, so both construct byte-identical fragments from the same
/// flags.
fn build_partitions(args: &[String]) -> Result<(String, Vec<Partition>), String> {
    let sites: usize = opt(args, "--sites")
        .map(|s| s.parse().map_err(|e| format!("bad --sites: {e}")))
        .transpose()?
        .unwrap_or(4);
    if let Some(spec) = opt(args, "--csv") {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| "--csv expects NAME=PATH".to_string())?;
        let types: Vec<DataType> = opt(args, "--types")
            .ok_or_else(|| "--csv requires --types".to_string())?
            .split(',')
            .map(|t| match t.trim() {
                "int" => Ok(DataType::Int),
                "double" => Ok(DataType::Double),
                "str" => Ok(DataType::Str),
                other => Err(format!("unknown type {other:?}")),
            })
            .collect::<Result<_, String>>()?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let header = text.lines().next().ok_or_else(|| "empty CSV".to_string())?;
        let names: Vec<&str> = header.split(',').collect();
        if names.len() != types.len() {
            return Err(format!(
                "{} columns in header but {} in --types",
                names.len(),
                types.len()
            ));
        }
        let schema = Schema::of(
            &names
                .iter()
                .zip(&types)
                .map(|(n, t)| (*n, *t))
                .collect::<Vec<_>>(),
        );
        let rel = csv::from_csv(&text, schema).map_err(|e| e.to_string())?;
        let pcol = opt(args, "--partition-by").unwrap_or_else(|| names[0].to_string());
        let parts = skalla::datagen::partition::try_partition_by_int_ranges(&rel, &pcol, sites)
            .map_err(|e| e.to_string())?;
        println!(
            "loaded {} rows into table {name:?}, partitioned on {pcol} across {sites} site(s)",
            rel.len()
        );
        return Ok((name.to_string(), parts));
    }

    let rows: usize = opt(args, "--rows")
        .map(|s| s.parse().map_err(|e| format!("bad --rows: {e}")))
        .transpose()?
        .unwrap_or(10_000);
    let seed: u64 = opt(args, "--seed")
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    match opt(args, "--dataset").as_deref().unwrap_or("flow") {
        "flow" => {
            let flows = generate_flows(&FlowConfig::new(rows, seed));
            let pcol = opt(args, "--partition-by").unwrap_or_else(|| "source_as".into());
            let parts =
                skalla::datagen::partition::try_partition_by_int_ranges(&flows, &pcol, sites)
                    .map_err(|e| e.to_string())?;
            println!("generated {rows} flows, partitioned on {pcol} across {sites} site(s)");
            Ok(("flow".to_string(), parts))
        }
        "tpcr" => {
            let tpcr = generate_tpcr(&TpcrConfig::new(rows, seed));
            let pcol = opt(args, "--partition-by").unwrap_or_else(|| "nation_key".into());
            let mut parts =
                skalla::datagen::partition::try_partition_by_int_ranges(&tpcr, &pcol, sites)
                    .map_err(|e| e.to_string())?;
            if pcol == "nation_key" {
                observe_int_ranges(&mut parts, &["cust_key", "cust_group"]);
            }
            println!("generated {rows} TPCR rows, partitioned on {pcol} across {sites} site(s)");
            Ok(("tpcr".to_string(), parts))
        }
        other => Err(format!("unknown --dataset {other:?}")),
    }
}

/// The `site` command needs a concrete [`Cluster`] to slice one
/// fragment's catalog and φ-domains out of.
fn build_cluster(args: &[String]) -> Result<Cluster, String> {
    let (table, parts) = build_partitions(args)?;
    Ok(Cluster::from_partitions(table, parts))
}

/// Build a [`TcpConfig`] from the `--net-timeout`, `--connect-attempts`,
/// and `--connect-backoff-ms` flags (defaults otherwise).
fn tcp_config(args: &[String]) -> Result<TcpConfig, String> {
    let mut cfg = TcpConfig::default();
    if let Some(s) = opt(args, "--net-timeout") {
        let secs: u64 = s.parse().map_err(|e| format!("bad --net-timeout: {e}"))?;
        cfg.read_timeout = Some(Duration::from_secs(secs));
    }
    if let Some(s) = opt(args, "--connect-attempts") {
        cfg.connect_attempts = s
            .parse()
            .map_err(|e| format!("bad --connect-attempts: {e}"))?;
        if cfg.connect_attempts == 0 {
            return Err("--connect-attempts must be at least 1".to_string());
        }
    }
    if let Some(s) = opt(args, "--connect-backoff-ms") {
        let ms: u64 = s
            .parse()
            .map_err(|e| format!("bad --connect-backoff-ms: {e}"))?;
        cfg.backoff_base = Duration::from_millis(ms);
    }
    Ok(cfg)
}

/// Build the engine behind `run`/`explain` through [`Skalla::builder`],
/// interpreting `--sites`: a bare number means an in-process warehouse of
/// that many sites; anything else is a comma-separated `HOST:PORT` list
/// of standalone `skalla-cli site` processes to connect to. Everything
/// downstream (planning, execution, stats printing) dispatches through
/// the [`Warehouse`] trait, so the two runtimes share one code path.
fn build_engine(args: &[String], obs: Obs) -> Result<Box<dyn Warehouse>, String> {
    let mut builder = Skalla::builder().config(EngineConfig {
        obs,
        ..EngineConfig::default()
    });
    if let Some(bytes) = opt(args, "--cache-bytes") {
        let n: usize = bytes.parse().map_err(|e| format!("bad --cache-bytes: {e}"))?;
        builder = builder.cache_bytes(n);
    }
    if args.iter().any(|a| a == "--no-cache") {
        builder = builder.cache_bytes(0);
    }
    if let Some(chunk) = opt(args, "--chunk") {
        let n: usize = chunk.parse().map_err(|e| format!("bad --chunk: {e}"))?;
        builder = builder.chunk_rows(Some(n));
    }
    let mut eval = skalla::gmdj::EvalOptions::default();
    if let Some(threads) = opt(args, "--threads") {
        let n: usize = threads.parse().map_err(|e| format!("bad --threads: {e}"))?;
        if n == 0 {
            return Err("--threads must be at least 1 (omit for auto)".to_string());
        }
        eval.parallelism = n;
    }
    if let Some(rows) = opt(args, "--morsel-rows") {
        let n: usize = rows.parse().map_err(|e| format!("bad --morsel-rows: {e}"))?;
        if n == 0 {
            return Err("--morsel-rows must be at least 1".to_string());
        }
        eval.morsel_rows = n;
    }
    builder = builder.eval_options(eval);
    if let Some(c) = opt(args, "--concurrency") {
        let n: usize = c.parse().map_err(|e| format!("bad --concurrency: {e}"))?;
        if n == 0 {
            return Err("--concurrency must be at least 1".to_string());
        }
        builder = builder.max_concurrent(n);
    }

    let remote_list = opt(args, "--sites").filter(|s| s.parse::<usize>().is_err());
    if let Some(list) = remote_list {
        let addrs: Vec<String> = list
            .split(',')
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect();
        if addrs.is_empty() || addrs.iter().any(|a| !a.contains(':')) {
            return Err(format!(
                "--sites {list:?} is neither a site count nor a comma-separated HOST:PORT list"
            ));
        }
        let cfg = tcp_config(args)?;
        if let Some(t) = cfg.read_timeout {
            builder = builder.timeout(t);
        }
        let engine = builder.remote(&addrs, cfg).build().map_err(|e| e.to_string())?;
        println!("connected to {} remote site(s)", engine.n_sites());
        Ok(Box::new(engine))
    } else {
        let (table, parts) = build_partitions(args)?;
        let engine = builder
            .partitions(table, parts)
            .build()
            .map_err(|e| e.to_string())?;
        Ok(Box::new(engine))
    }
}

fn cmd_run(args: &[String], execute: bool) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let text = load_query(args)?;
    let trace_path = opt(args, "--trace");
    let metrics_path = opt(args, "--metrics");
    let metrics_listen = opt(args, "--metrics-listen");
    let metrics_linger: u64 = opt(args, "--metrics-linger")
        .map(|s| s.parse().map_err(|e| format!("bad --metrics-linger: {e}")))
        .transpose()?
        .unwrap_or(0);
    let slow_log_path = opt(args, "--slow-query-log");
    let slow_query_ms: f64 = opt(args, "--slow-query-ms")
        .map(|s| s.parse().map_err(|e| format!("bad --slow-query-ms: {e}")))
        .transpose()?
        .unwrap_or(0.0);
    let concurrency: usize = opt(args, "--concurrency")
        .map(|s| s.parse().map_err(|e| format!("bad --concurrency: {e}")))
        .transpose()?
        .unwrap_or(1);
    let record = execute
        && (trace_path.is_some() || metrics_path.is_some() || metrics_listen.is_some());
    let obs = if record { Obs::recording() } else { Obs::disabled() };
    // The coordinator claims process lane 1 in merged traces; imported
    // site telemetry lands on lanes 2+ (see `Skalla::execute`).
    if let Some(rec) = obs.recorder() {
        rec.set_process(1, "coordinator");
    }
    // Bind the live endpoint before the query runs so scrapers can watch
    // the scheduler gauges move while work is in flight.
    let metrics_server = match (&metrics_listen, obs.recorder()) {
        (Some(addr), Some(rec)) => {
            let server = MetricsServer::bind(addr, Arc::clone(rec))
                .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
            // Parsed by scripts (and ci.sh) to discover ephemeral ports.
            println!("metrics listening on http://{}", server.local_addr());
            Some(server)
        }
        _ => None,
    };
    let engine = build_engine(args, obs.clone())?;

    let expr = query::compile_text(&text).map_err(|e| e.to_string())?;
    let planner = Planner::new(engine.distribution()).with_obs(obs.clone());
    let (plan, decisions) = planner.optimize_with_decisions(&expr, flags);
    println!("\n{}", plan.explain());
    if !decisions.is_empty() {
        println!("=== optimizer decisions ===");
        for d in &decisions {
            println!("{d}");
        }
        println!();
    }
    if !execute {
        return Ok(());
    }

    // With --concurrency N > 1, submit the same query N times at once:
    // the scheduler admits them concurrently and multiplexes their rounds
    // over the shared per-site sessions. All copies must agree.
    let started = std::time::Instant::now();
    let mut results = Vec::new();
    if concurrency > 1 {
        let outs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..concurrency)
                .map(|_| scope.spawn(|| engine.execute(&plan)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query thread panicked"))
                .collect::<Vec<_>>()
        });
        for out in outs {
            results.push(out.map_err(|e| e.to_string())?);
        }
    } else {
        results.push(engine.execute(&plan).map_err(|e| e.to_string())?);
    }
    let concurrent_wall = started.elapsed().as_secs_f64();
    for other in &results[1..] {
        if !other.relation.same_bag(&results[0].relation) {
            return Err("concurrent copies of the query disagree on the result".to_string());
        }
    }
    let out = &results[0];
    let limit: usize = opt(args, "--limit")
        .map(|s| s.parse().map_err(|e| format!("bad --limit: {e}")))
        .transpose()?
        .unwrap_or(20);

    println!("=== result ({} groups) ===", out.relation.len());
    let shown = Relation::from_shared(
        out.relation.schema_ref(),
        out.relation.rows().iter().take(limit).cloned().collect(),
    );
    print!("{}", csv::to_csv(&shown));
    if out.relation.len() > limit {
        println!(
            "… ({} more rows; raise --limit)",
            out.relation.len() - limit
        );
    }

    let stats = &out.stats;
    let (down, up) = stats.total_rows();
    println!("\n=== execution ===");
    println!("rounds:          {}", stats.n_rounds());
    println!(
        "bytes:           {} down / {} up",
        stats.bytes_down(),
        stats.bytes_up()
    );
    println!("group rows:      {down} down / {up} up (detail rows shipped: 0)");
    println!("wall clock:      {:.4}s", stats.wall_s);
    if concurrency > 1 {
        let serial_sum: f64 = results.iter().map(|r| r.stats.wall_s).sum();
        let mut lat = Histogram::default();
        for r in &results {
            lat.record(r.stats.wall_s);
        }
        println!("\n=== concurrency ===");
        println!("queries:         {concurrency} (identical results)");
        println!("combined wall:   {concurrent_wall:.4}s (sum of per-query walls: {serial_sum:.4}s)");
        println!(
            "latency:         p50 {:.4}s p95 {:.4}s p99 {:.4}s (n={})",
            lat.percentile(50.0),
            lat.percentile(95.0),
            lat.percentile(99.0),
            lat.count()
        );
        for (i, r) in results.iter().enumerate() {
            println!(
                "  query {i}: {} rounds, {} B down / {} B up, {:.4}s",
                r.stats.n_rounds(),
                r.stats.bytes_down(),
                r.stats.bytes_up(),
                r.stats.wall_s
            );
        }
    }
    println!("\n=== per-round timeline ===");
    print!("{}", stats.round_table());

    if let Some(rec) = obs.recorder() {
        if let Some(path) = &trace_path {
            std::fs::write(path, write_chrome_trace(rec))
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("\nwrote Chrome trace to {path} (open in Perfetto or chrome://tracing)");
        }
        if let Some(path) = &metrics_path {
            std::fs::write(path, metrics_snapshot(rec).to_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote metrics snapshot to {path}");
        }
    }

    // Slow-query log: one JSON line per query at or above the threshold
    // (threshold 0 logs everything). Appends, so a long-lived script can
    // accumulate a history across runs and feed it to jq or an indexer.
    if let Some(path) = &slow_log_path {
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let mut lines = String::new();
        let mut logged = 0usize;
        for r in &results {
            if r.stats.wall_s * 1000.0 < slow_query_ms {
                continue;
            }
            Json::obj(vec![
                ("ts_unix_us", Json::UInt(ts)),
                ("query", Json::Str(text.clone())),
                ("wall_s", Json::Float(r.stats.wall_s)),
                ("threshold_ms", Json::Float(slow_query_ms)),
                ("stats", r.stats.to_json()),
            ])
            .write(&mut lines);
            lines.push('\n');
            logged += 1;
        }
        if logged > 0 {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("opening {path}: {e}"))?;
            f.write_all(lines.as_bytes())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        println!(
            "slow-query log: {logged} of {} quer{} at or above {slow_query_ms}ms → {path}",
            results.len(),
            if results.len() == 1 { "y" } else { "ies" },
        );
    }

    // Keep the live endpoint up after the query so one-shot runs can
    // still be scraped (ci.sh probes it during this window).
    if let Some(server) = &metrics_server {
        if metrics_linger > 0 {
            println!(
                "metrics endpoint lingering {metrics_linger}s at http://{}",
                server.local_addr()
            );
            std::thread::sleep(Duration::from_secs(metrics_linger));
        }
    }
    Ok(())
}

/// `skalla-cli site`: run one warehouse site as a standalone process.
///
/// The site builds the *same* deterministic partitioned warehouse as an
/// in-process run with identical data options (same generator, seed, and
/// partitioner), then keeps only its own fragment (`--site-index`). Start
/// one process per site with the same data options and pass their
/// addresses to `skalla-cli run --sites`; results and recorded traffic
/// match the in-process cluster exactly.
/// Parse `--aggs count,sum:COL,…` into named [`skalla::gmdj::AggSpec`]s.
fn parse_cube_aggs(spec: &str) -> Result<Vec<skalla::gmdj::AggSpec>, String> {
    use skalla::gmdj::AggSpec;
    let mut aggs = Vec::new();
    for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let agg = match item.split_once(':').map(|(f, c)| (f.trim(), c.trim())) {
            None if item == "count" => AggSpec::count("count"),
            Some(("sum", c)) => AggSpec::sum(c, format!("sum_{c}")),
            Some(("avg", c)) => AggSpec::avg(c, format!("avg_{c}")),
            Some(("min", c)) => AggSpec::min(c, format!("min_{c}")),
            Some(("max", c)) => AggSpec::max(c, format!("max_{c}")),
            Some(("var", c)) => AggSpec::var(c, format!("var_{c}")),
            Some(("stddev", c)) => AggSpec::stddev(c, format!("stddev_{c}")),
            _ => {
                return Err(format!(
                    "bad --aggs item {item:?} (count | sum:COL | avg:COL | min:COL \
                     | max:COL | var:COL | stddev:COL)"
                ))
            }
        };
        aggs.push(agg);
    }
    Ok(aggs)
}

/// `CUBE BY` over the fact table: the finest grouping set runs as one
/// distributed query with decomposed sub-aggregates; every coarser level
/// is rolled up locally (disable with `--no-rollup` to run one query per
/// grouping set). Prints the per-level provenance table.
fn cmd_cube(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let dims_spec = opt(args, "--dims").ok_or_else(|| "cube needs --dims C1,C2,…".to_string())?;
    let dims: Vec<String> = dims_spec
        .split(',')
        .map(|d| d.trim().to_string())
        .filter(|d| !d.is_empty())
        .collect();
    let dim_refs: Vec<&str> = dims.iter().map(String::as_str).collect();
    let aggs = parse_cube_aggs(&opt(args, "--aggs").unwrap_or_else(|| "count".to_string()))?;
    let rollup = !args.iter().any(|a| a == "--no-rollup");
    let table = opt(args, "--table")
        .or_else(|| {
            opt(args, "--csv").and_then(|s| s.split_once('=').map(|(n, _)| n.to_string()))
        })
        .or_else(|| opt(args, "--dataset"))
        .unwrap_or_else(|| "flow".to_string());

    let engine = build_engine(args, Obs::disabled())?;
    let result = query::cube_with_rollup(&*engine, &table, &dim_refs, &aggs, flags, rollup)
        .map_err(|e| e.to_string())?;

    println!("\n=== grouping sets ===");
    print!("{}", query::render_cube_levels(&result));

    let limit: usize = opt(args, "--limit")
        .map(|s| s.parse().map_err(|e| format!("bad --limit: {e}")))
        .transpose()?
        .unwrap_or(20);
    println!("\n=== cube ({} rows) ===", result.relation.len());
    let shown = Relation::from_shared(
        result.relation.schema_ref(),
        result.relation.rows().iter().take(limit).cloned().collect(),
    );
    print!("{}", csv::to_csv(&shown));
    if result.relation.len() > limit {
        println!(
            "… ({} more rows; raise --limit)",
            result.relation.len() - limit
        );
    }
    Ok(())
}

fn cmd_site(args: &[String]) -> Result<(), String> {
    let listen = opt(args, "--listen").ok_or_else(|| "missing --listen ADDR".to_string())?;
    let index: usize = opt(args, "--site-index")
        .map(|s| s.parse().map_err(|e| format!("bad --site-index: {e}")))
        .transpose()?
        .unwrap_or(0);
    let cluster = build_cluster(args)?;
    if index >= cluster.n_sites() {
        return Err(format!(
            "--site-index {index} out of range for {} site(s)",
            cluster.n_sites()
        ));
    }
    let catalog: HashMap<String, Arc<Relation>> = cluster.site_catalog(index).clone();
    let dist = cluster.distribution();
    let domains: HashMap<String, DomainMap> = catalog
        .keys()
        .map(|table| (table.clone(), dist.domains(table, index)))
        .collect();
    let mut server = SiteServer::bind(&listen, catalog, domains, tcp_config(args)?)
        .map_err(|e| e.to_string())?;
    // A standalone site always records: its spans and counters ship to
    // the coordinator in telemetry frames after every query, so a `run
    // --trace` against this site sees its work merged into one timeline.
    // Process lane `2 + index` matches the lane the coordinator assigns
    // on import; the name labels this lane in Perfetto.
    let obs = Obs::recording();
    if let Some(rec) = obs.recorder() {
        rec.set_process(2 + index as u32, format!("site-{index}"));
    }
    server.set_obs(obs.clone());
    let _metrics_server = match (opt(args, "--metrics-listen"), obs.recorder()) {
        (Some(addr), Some(rec)) => {
            let ms = MetricsServer::bind(&addr, Arc::clone(rec))
                .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
            println!("metrics listening on http://{}", ms.local_addr());
            Some(ms)
        }
        _ => None,
    };
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Parsed by scripts (and ci.sh) to discover ephemeral ports — flush so
    // it is visible even through a pipe.
    println!("site {index} listening on {addr}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    if args.iter().any(|a| a == "--once") {
        server.serve_once().map_err(|e| e.to_string())
    } else {
        server.serve_forever().map_err(|e| e.to_string())
    }
}

/// `skalla-cli net-probe`: verify loopback TCP sockets work in this
/// environment (bind an ephemeral port, connect, accept). Exit status is
/// the answer; CI uses it to skip the multi-process smoke test gracefully
/// in sandboxes without network namespaces.
fn cmd_net_probe() -> Result<(), String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let _client = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2))
        .map_err(|e| format!("connect: {e}"))?;
    let _server = listener.accept().map_err(|e| format!("accept: {e}"))?;
    println!("loopback sockets ok");
    Ok(())
}

/// `skalla-cli trace-check FILE.json --sites N`: assert a merged Chrome
/// trace really contains every site's work — at least one complete span
/// (`"X"`) on each process lane `site-0` … `site-{N-1}` (named by
/// `process_name` metadata). Exit status is the answer; CI uses it to
/// verify that every site's telemetry made it back to the coordinator
/// and into the trace.
fn cmd_trace_check(args: &[String]) -> Result<(), String> {
    let usage = || "usage: trace-check FILE.json --sites N".to_string();
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(usage)?;
    let sites: usize = opt(args, "--sites")
        .ok_or_else(usage)?
        .parse()
        .map_err(|e| format!("bad --sites: {e}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no traceEvents array — not a Chrome trace"))?;

    // Process lanes are named by "M" metadata records:
    //   {"ph":"M","pid":P,"name":"process_name","args":{"name":"site-0"}}
    let mut lanes: HashMap<u64, String> = HashMap::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) == Some("M")
            && ev.get("name").and_then(Json::as_str) == Some("process_name")
        {
            if let (Some(pid), Some(name)) = (
                ev.get("pid").and_then(Json::as_u64),
                ev.get("args").and_then(|a| a.get("name")).and_then(Json::as_str),
            ) {
                lanes.insert(pid, name.to_string());
            }
        }
    }
    let mut spans_per_lane: HashMap<u64, usize> = HashMap::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) == Some("X") {
            if let Some(pid) = ev.get("pid").and_then(Json::as_u64) {
                *spans_per_lane.entry(pid).or_default() += 1;
            }
        }
    }
    let mut named: Vec<(&u64, &String)> = lanes.iter().collect();
    named.sort();
    for (pid, name) in &named {
        println!(
            "process {pid} ({name}): {} span(s)",
            spans_per_lane.get(pid).copied().unwrap_or(0)
        );
    }
    if !lanes.values().any(|n| n == "coordinator") {
        return Err(format!("{path}: no process lane named \"coordinator\""));
    }
    let mut site_spans = 0;
    for site in 0..sites {
        let lane = format!("site-{site}");
        let spans: usize = named
            .iter()
            .filter(|(_, name)| **name == lane)
            .map(|(pid, _)| spans_per_lane.get(pid).copied().unwrap_or(0))
            .sum();
        if spans == 0 {
            return Err(format!(
                "{path}: no spans on process lane {lane} — that site's telemetry is missing"
            ));
        }
        site_spans += spans;
    }
    println!("ok: {site_spans} span(s) across {sites} site lane(s)");
    Ok(())
}

/// `skalla-cli http-get URL`: minimal HTTP/1.0 GET over a raw socket,
/// printing the response body. Exists so ci.sh can probe the
/// `--metrics-listen` endpoint without depending on curl or wget.
fn cmd_http_get(args: &[String]) -> Result<(), String> {
    let url = args
        .first()
        .ok_or_else(|| "usage: http-get http://HOST:PORT/path".to_string())?;
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("{url:?}: only http:// URLs are supported"))?;
    let (host, path) = match rest.split_once('/') {
        Some((h, p)) => (h, format!("/{p}")),
        None => (rest, "/".to_string()),
    };
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(host).map_err(|e| format!("connect {host}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("recv: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP response (no header terminator)".to_string())?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{url}: {status}"));
    }
    print!("{body}");
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let rows: usize = opt(args, "--rows")
        .map(|s| s.parse().map_err(|e| format!("bad --rows: {e}")))
        .transpose()?
        .unwrap_or(10_000);
    let seed: u64 = opt(args, "--seed")
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let out = opt(args, "--out").ok_or_else(|| "missing --out FILE.csv".to_string())?;
    let rel = match opt(args, "--dataset").as_deref().unwrap_or("flow") {
        "flow" => generate_flows(&FlowConfig::new(rows, seed)),
        "tpcr" => generate_tpcr(&TpcrConfig::new(rows, seed)),
        other => return Err(format!("unknown --dataset {other:?}")),
    };
    std::fs::write(&out, csv::to_csv(&rel)).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} rows to {out}", rel.len());
    Ok(())
}
