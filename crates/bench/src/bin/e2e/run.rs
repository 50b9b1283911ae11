//! One workload, one process: datagen → cold engines → warm-up → timed
//! closed loop → more cold engines → references → (unless `--trace 0`)
//! layer pass.

use crate::engine::{self, Engine, OpStats};
use crate::layers;
use crate::metrics::Ledger;
use crate::stats::{median, ms, percentile};
use crate::sys;
use crate::verify::{bit_identical, mismatch, references};
use crate::workloads::{self, Workload, N_SITES};
use skalla_core::CacheStats;
use skalla_obs::json::Json;
use skalla_relation::Relation;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// How much of everything a run does. `--smoke` keeps the flow and
/// shrinks the counts (and `workloads::build` the data).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub cold_engines: usize,
    /// Engines built and dropped unused, for `setup_s` alone: a set-up is
    /// a fraction of a millisecond of thread spawns and handshakes, and
    /// its median needs more samples than the cold ops can pay for.
    pub setup_only_engines: usize,
    pub warmup_ops: usize,
    /// The timed phase never measures fewer ops than this, however short
    /// `--seconds` is.
    pub min_ops: usize,
    /// Repetitions behind each micro-measurement of the layer pass.
    pub reps: usize,
    /// Ops behind each side of `obs.traced_overhead_share`.
    pub overhead_ops: usize,
}

impl Scale {
    pub fn of(smoke: bool) -> Scale {
        if smoke {
            Scale {
                cold_engines: 2,
                setup_only_engines: 1,
                warmup_ops: 1,
                min_ops: 8,
                reps: 3,
                overhead_ops: 4,
            }
        } else {
            Scale {
                cold_engines: 10,
                setup_only_engines: 20,
                warmup_ops: 10,
                min_ops: 200,
                reps: 31,
                overhead_ops: 30,
            }
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Everything one run measured.
pub struct Report {
    pub opts: RunOpts,
    pub end_to_end: Ledger,
    pub per_layer: Ledger,
    /// Not gated, not per-layer: where the run's own time went.
    pub info: Vec<(&'static str, f64)>,
    /// The raw samples behind the gated timings, for whoever doubts a
    /// median: set-up and first op per cold engine, latency per timed op.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub provenance: Json,
    pub attempted: u64,
    /// One line per failed op, wrong answer or refusal.
    pub failures: Vec<String>,
    /// The layer pass's spans, when traced.
    pub spans: Option<Json>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One timed op.
struct OpRecord {
    latency_s: f64,
    stats: OpStats,
}

/// One closed-loop phase, from its first round opening to the decision to
/// stop.
struct Phase {
    ops: Vec<OpRecord>,
    attempted: usize,
    wall_s: f64,
    /// Process CPU (user + sys, every thread) over `wall_s`.
    cpu_s: f64,
    failures: Vec<String>,
}

impl Phase {
    fn latencies_s(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.latency_s).collect()
    }

    /// Mean per op of a count every op reported (exact: the counts are).
    fn per_op(&self, count: impl Fn(&OpStats) -> u64) -> f64 {
        self.ops.iter().map(|o| count(&o.stats)).sum::<u64>() as f64 / self.ops.len() as f64
    }
}

/// Compare an op's answers with the first answers of the run, bit for bit.
fn check_repeat(
    answers: &[Relation],
    firsts: &[Relation],
    w: &Workload,
    what: &str,
) -> Vec<String> {
    answers
        .iter()
        .zip(firsts)
        .enumerate()
        .filter(|(_, (got, first))| !bit_identical(got, first))
        .map(|(item, _)| {
            let label = w.queries.get(item).map_or("cube", |q| q.label);
            format!("{what}: {label} is not bit-identical to the run's first answer")
        })
        .collect()
}

/// The closed loop: `w.clients` callers, each submitting its next op when
/// the previous one has answered. A barrier opens every round; before
/// each `w.bump_every`-th round its leader either bumps the partition
/// epoch or — once `seconds` have passed and `min_ops` are done — ends the
/// phase, so every phase is a whole number of bump cycles and the hit/miss
/// mix does not depend on where the clock ran out. Answers are compared
/// after the op's latency is taken.
fn closed_loop(
    engine: &Engine,
    w: &Workload,
    firsts: &[Relation],
    seconds: f64,
    min_ops: usize,
) -> Phase {
    let barrier = Barrier::new(w.clients);
    let stop = AtomicBool::new(false);
    let done = AtomicUsize::new(0);
    // (wall, CPU) when the leader ended the phase.
    let ended = Mutex::new((0.0, 0.0));
    let cpu_now = || sys::process_cpu_s().unwrap_or(f64::NAN);
    let cpu_started = cpu_now();
    let started = Instant::now();
    let per_client: Vec<(Vec<OpRecord>, usize, Vec<String>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..w.clients)
            .map(|client| {
                let (barrier, stop, done, ended) = (&barrier, &stop, &done, &ended);
                scope.spawn(move || {
                    let start_item = client * w.items() / w.clients;
                    let (mut ops, mut attempted, mut failures) = (Vec::new(), 0, Vec::new());
                    for round in 0usize.. {
                        if barrier.wait().is_leader() && round % w.bump_every == 0 {
                            let wall_s = started.elapsed().as_secs_f64();
                            if done.load(Ordering::SeqCst) >= min_ops && wall_s >= seconds {
                                *ended.lock().expect("no client panics") =
                                    (wall_s, cpu_now() - cpu_started);
                                stop.store(true, Ordering::SeqCst);
                            } else {
                                engine.bump_partition_epoch();
                            }
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        attempted += 1;
                        let t = Instant::now();
                        let outcome = engine::run_op(engine, w, start_item);
                        let latency_s = t.elapsed().as_secs_f64();
                        match outcome {
                            Ok((answers, stats)) => {
                                let wrong = check_repeat(&answers, firsts, w, "timed op");
                                if wrong.is_empty() {
                                    ops.push(OpRecord { latency_s, stats });
                                }
                                failures.extend(wrong);
                            }
                            Err(e) => failures.push(format!("timed op: {e}")),
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    (ops, attempted, failures)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    let (wall_s, cpu_s) = ended.into_inner().expect("no client panics");
    let mut phase = Phase {
        ops: Vec::new(),
        attempted: 0,
        wall_s,
        cpu_s,
        failures: Vec::new(),
    };
    for (ops, attempted, failures) in per_client {
        phase.ops.extend(ops);
        phase.attempted += attempted;
        phase.failures.extend(failures);
    }
    phase
}

/// The cold engines of a run: each over fresh copies of the data, each
/// timed for set-up and for its first op, each answer checked bit for bit
/// against the first engine's (which `run_workload` checks against the
/// reference).
#[derive(Default)]
struct ColdStarts {
    setup_s: Vec<f64>,
    op_s: Vec<f64>,
    /// The first engine's answers, in item order.
    firsts: Vec<Relation>,
    failures: Vec<String>,
}

impl ColdStarts {
    /// Build an engine over fresh copies of the data and time the set-up.
    fn set_up(&mut self, w: &Workload) -> Result<Engine, String> {
        let k = self.setup_s.len();
        let tables = engine::clone_tables(&w.tables);
        let (engine, setup) =
            engine::build(w, tables, None).map_err(|e| format!("building engine {k}: {e}"))?;
        self.setup_s.push(setup.as_secs_f64());
        Ok(engine)
    }

    /// Set an engine up and time its first op.
    fn start(&mut self, w: &Workload) -> Result<Engine, String> {
        let k = self.setup_s.len();
        let engine = self.set_up(w)?;
        let t = Instant::now();
        let outcome = engine::run_op(&engine, w, 0);
        let cold_s = t.elapsed().as_secs_f64();
        match outcome {
            Ok((answers, _)) => {
                self.op_s.push(cold_s);
                if self.firsts.is_empty() {
                    self.firsts = answers;
                } else {
                    self.failures
                        .extend(check_repeat(&answers, &self.firsts, w, "cold op"));
                }
            }
            Err(e) => self.failures.push(format!("cold engine {k}: {e}")),
        }
        Ok(engine)
    }
}

/// The layers as the timed phase saw them, from the statistics every op
/// already returned.
fn phase_layers(
    phase: &Phase,
    engine: &Engine,
    cache_before: CacheStats,
    cache_after: CacheStats,
) -> Ledger {
    let n_ops = phase.ops.len() as f64;
    let latencies = phase.latencies_s();
    let mut layer = Ledger::default();
    let served =
        (cache_after.hits - cache_before.hits) + (cache_after.coalesced - cache_before.coalesced);
    let missed = cache_after.misses - cache_before.misses;
    let lookups = (served + missed).max(1) as f64;
    layer.put("cache.hit_share", served as f64 / lookups);
    layer.put(
        "cache.coalesced_share",
        (cache_after.coalesced - cache_before.coalesced) as f64 / lookups,
    );
    layer.put("cache.misses", missed as f64 / n_ops);
    layer.put("cache.resident_bytes", cache_after.bytes as f64);
    layer.put(
        "scheduler.rejected",
        engine.scheduler().rejected_total() as f64,
    );
    layer.put(
        "scheduler.timed_out",
        engine.scheduler().timed_out_total() as f64,
    );
    // Site and coordinator time only exist on ops that reached the sites;
    // on `dashboard_mix` the median op is a cache hit with none of either.
    let executed: Vec<&OpStats> = phase
        .ops
        .iter()
        .map(|o| &o.stats)
        .filter(|s| s.contacted_sites())
        .collect();
    let over_executed =
        |f: &dyn Fn(&OpStats) -> f64| median(&executed.iter().map(|s| f(s)).collect::<Vec<_>>());
    let site_mean = |s: &OpStats| s.busy_per_site_s.iter().sum::<f64>() / N_SITES as f64;
    layer.put_timing(
        "site.busy_max_ms",
        over_executed(&|s| ms(s.busy_critical_s)),
        executed.len(),
    );
    layer.put_timing(
        "site.busy_mean_ms",
        over_executed(&|s| ms(site_mean(s))),
        executed.len(),
    );
    layer.put_timing(
        "site.busy_skew",
        over_executed(&|s| s.busy_per_site_s.iter().copied().fold(0.0, f64::max) / site_mean(s)),
        executed.len(),
    );
    layer.put_timing(
        "coordinator.busy_ms",
        over_executed(&|s| ms(s.coord_s)),
        executed.len(),
    );
    layer.put("net.bytes_down", phase.per_op(|s| s.bytes_down));
    layer.put("net.bytes_up", phase.per_op(|s| s.bytes_up));
    layer.put("net.msgs", phase.per_op(|s| s.msgs));
    layer.put_timing(
        "warehouse.latency_p95_ms",
        percentile(&latencies, 95.0).map(ms),
        latencies.len(),
    );
    layer.put_timing(
        "warehouse.latency_max_ms",
        percentile(&latencies, 100.0).map(ms),
        latencies.len(),
    );
    layer.put("warehouse.samples", n_ops);
    // The reconciliation row: what is left of an op's latency once the
    // slowest site of every round and the coordinator's own work are
    // taken out — wire, waits, thread hand-offs, telemetry.
    let unattributed_s = median(
        &phase
            .ops
            .iter()
            .map(|o| o.latency_s - o.stats.busy_critical_s - o.stats.coord_s)
            .collect::<Vec<_>>(),
    )
    .expect("at least one op");
    layer.put_timing(
        "warehouse.unattributed_ms",
        Some(ms(unattributed_s)),
        latencies.len(),
    );
    layer.put(
        "warehouse.unattributed_share",
        unattributed_s / median(&latencies).expect("at least one op"),
    );
    layer
}

/// Run one workload and measure it.
pub fn run_workload(opts: &RunOpts) -> Result<Report, String> {
    let scale = Scale::of(opts.smoke);
    let provenance = sys::provenance();
    let mut info: Vec<(&'static str, f64)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;

    let t = Instant::now();
    let w = workloads::build(&opts.workload, opts.seed, opts.smoke).ok_or_else(|| {
        format!(
            "unknown workload {:?} (known: {})",
            opts.workload,
            workloads::NAMES.join(", ")
        )
    })?;
    info.push(("datagen_s", t.elapsed().as_secs_f64()));
    // What the harness itself holds before any engine exists (the master
    // copy of the data, and whatever generating it took).
    let harness_rss = sys::peak_rss_mb();

    // Cold engines, half of them before the timed phase (the last of
    // those serves it) and half after it, so that one burst of host
    // interference cannot sit on every cold op of the run.
    let mut cold = ColdStarts::default();
    let mut engine: Option<Engine> = None;
    for _ in 0..scale.cold_engines / 2 {
        drop(engine.take()); // release the previous engine's memory first
        engine = Some(cold.start(&w)?);
    }
    let engine = engine.ok_or("no cold engine was built")?;
    if cold.firsts.is_empty() {
        return Err(format!(
            "no cold op succeeded: {}",
            cold.failures.join("; ")
        ));
    }
    let firsts = cold.firsts.clone();

    let warmup = closed_loop(&engine, &w, &firsts, 0.0, scale.warmup_ops);
    failures.extend(warmup.failures);
    attempted += warmup.attempted as u64;

    let cache_before = engine.semantic_cache().stats();
    let steal_before = sys::host_steal_s();
    let phase = closed_loop(&engine, &w, &firsts, opts.seconds, scale.min_ops);
    let cache_after = engine.semantic_cache().stats();
    if let Some(steal_s) = sys::host_steal_s()
        .zip(steal_before)
        .map(|(after, before)| after - before)
    {
        // A timing taken while the host ran other guests on our CPUs says
        // little about the engine; leave a trace of it beside the numbers.
        info.push(("timed_steal_s", steal_s));
        if steal_s > 0.05 * phase.wall_s * sys::nproc() as f64 {
            eprintln!(
                "warning: the hypervisor stole {steal_s:.1} CPU-seconds during the timed phase; \
                 timings will be noisy"
            );
        }
    }
    // Read here: the master data, one engine over its own copy, and every
    // op so far. The second half of the cold engines (two engines alive at
    // once), the references and the layer pass come after, so that none of
    // the harness's own heavy steps sets the process's high-water mark.
    let peak_rss = sys::peak_rss_mb();
    failures.extend(phase.failures.iter().cloned());
    attempted += phase.attempted as u64;
    for _ in scale.cold_engines / 2..scale.cold_engines {
        drop(cold.start(&w)?);
    }
    for _ in 0..scale.setup_only_engines {
        drop(cold.set_up(&w)?);
    }
    let ColdStarts {
        setup_s,
        op_s: cold_op_s,
        failures: cold_failures,
        ..
    } = cold;
    attempted += scale.cold_engines as u64;
    failures.extend(cold_failures);
    if phase.ops.is_empty() {
        return Err(format!("no timed op succeeded: {}", failures.join("; ")));
    }

    // The correctness gate's other half: every answer of the run is
    // bit-identical to the first engine's, and those match the references.
    let t = Instant::now();
    let refs = references(&w).map_err(|e| format!("computing references: {e}"))?;
    for (item, (got, reference)) in firsts.iter().zip(&refs).enumerate() {
        if let Some(what) = mismatch(got, reference) {
            let label = w.queries.get(item).map_or("cube", |q| q.label);
            failures.push(format!(
                "cold engine 0: {label} differs from the reference: {what}"
            ));
        }
    }
    info.push(("reference_s", t.elapsed().as_secs_f64()));

    let n_ops = phase.ops.len() as f64;
    let latencies = phase.latencies_s();
    let mut e2e = Ledger::default();
    e2e.put_timing("setup_s", median(&setup_s), setup_s.len());
    e2e.put_timing("cold_op_ms", median(&cold_op_s).map(ms), cold_op_s.len());
    e2e.put_timing(
        "latency_p50_ms",
        median(&latencies).map(ms),
        latencies.len(),
    );
    e2e.put_timing(
        "throughput_ops_s",
        Some(n_ops / phase.wall_s),
        latencies.len(),
    );
    e2e.put_timing(
        "cpu_ms_per_op",
        Some(ms(phase.cpu_s) / n_ops),
        latencies.len(),
    );
    e2e.put("bytes_per_op", phase.per_op(|s| s.bytes()));
    e2e.put("rounds_per_op", phase.per_op(|s| s.rounds));
    e2e.put_opt("peak_rss_mb", peak_rss, None);

    let mut layer = phase_layers(&phase, &engine, cache_before, cache_after);

    let samples = vec![
        ("setup_s", setup_s.clone()),
        ("cold_op_ms", cold_op_s.iter().copied().map(ms).collect()),
        ("latency_ms", latencies.iter().copied().map(ms).collect()),
    ];
    info.push(("timed_wall_s", phase.wall_s));
    info.push(("timed_cpu_s", phase.cpu_s));
    if let Some(mb) = harness_rss {
        info.push(("harness_rss_mb", mb));
    }
    info.push(("rows", w.rows() as f64));
    info.push(("sites", N_SITES as f64));
    info.push(("clients", w.clients as f64));
    info.push(("cold_engines", scale.cold_engines as f64));
    info.push(("setup_only_engines", scale.setup_only_engines as f64));
    info.push(("warmup_ops", warmup.attempted as f64));
    info.push(("timed_ops", n_ops));

    let mut spans = None;
    if opts.trace {
        let t = Instant::now();
        let pass = layers::layer_pass(&w, engine, &firsts, scale)
            .map_err(|e| format!("layer pass: {e}"))?;
        layer.0.extend(pass.ledger.0);
        failures.extend(pass.failures);
        spans = Some(pass.spans);
        info.push(("layer_pass_s", t.elapsed().as_secs_f64()));
    }
    layer.put(
        "failed_share",
        (failures.len() as f64 / attempted.max(1) as f64).min(1.0),
    );

    let mut provenance = provenance;
    provenance.extend([
        ("seed", Json::UInt(opts.seed)),
        ("smoke", Json::Bool(opts.smoke)),
        ("transport", Json::Str(w.transport.label().into())),
        ("requested_seconds", Json::Float(opts.seconds)),
    ]);
    Ok(Report {
        opts: opts.clone(),
        end_to_end: e2e,
        per_layer: layer,
        info,
        samples,
        provenance: Json::obj(provenance),
        attempted,
        failures,
        spans,
    })
}
