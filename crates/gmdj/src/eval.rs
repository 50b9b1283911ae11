//! Centralized / per-site GMDJ evaluation.
//!
//! Conventional groupwise aggregation does not apply to GMDJs because the
//! ranges `RNG(b, R, θ)` of different base tuples may overlap. Each block
//! `(θᵢ, lᵢ)` is prepared from the [θ analysis](crate::theta::analyze_theta):
//! its equi-key conjuncts `b.x = r.y` become key column lists (empty ⇒ the
//! block runs as a nested loop) and the rest of θᵢ a bound residual.
//!
//! **Morsel-driven parallelism.** The detail relation is split into
//! fixed-size morsels of [`EvalOptions::morsel_rows`] rows (Leis et al.,
//! SIGMOD 2014). Workers — the calling thread plus
//! [`EvalOptions::parallelism`] − 1 [`std::thread::scope`] threads — claim
//! morsels from an atomic counter; each morsel accumulates into fresh
//! state, and morsel results are merged **in morsel order**. Because the
//! morsel decomposition depends only on the input size and `morsel_rows` —
//! never on the thread count — float aggregates are bit-identical across
//! `parallelism` values.
//!
//! The kernel ends with the merged typed states and a per-group match
//! flag, and both answers are read off them. [`eval_shipped`] builds
//! exactly what a warehouse site ships to the coordinator for a merge
//! unit — key columns and *physical* (sub-aggregate) accumulators,
//! matched groups only under site-side group reduction; [`eval_local`] is
//! its every-column, every-row form. [`eval_full`] finalizes them in
//! place into the logical output, for a site's locally chained unit
//! (Thm 5) and for single-machine evaluation.
//!
//! **One kernel.** Every entry runs the vectorized kernel in
//! [`crate::columnar`], whose accumulators are the typed states of
//! [`crate::state`]. The test suites hold it to a reference written
//! apart (`oracle::serial_local`): a serial loop over every (block, base
//! tuple, detail tuple) pair with the same morsel decomposition and merge
//! order.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::agg::AccLayout;
use crate::columnar::eval_columnar;
use crate::operator::Gmdj;
use crate::theta::analyze_theta;
use skalla_obs::timing::{charge_foreign_ns, thread_cpu_ns};
use skalla_obs::{Obs, Track};
use skalla_relation::{BoundExpr, Column, Columns, Error, Relation, Result, Schema};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Default morsel size (rows of the detail relation per work unit).
pub const DEFAULT_MORSEL_ROWS: usize = 65_536;

/// Evaluation knobs. Every field is a pure performance switch of the
/// kernel: Thms 1–3 make the answer a function of the data and φ, never
/// of how a site scans, so any setting produces the centralized oracle's
/// result (and, for a fixed `morsel_rows`, the same f64 bits). The
/// knob-lattice property test (`tests/property_equivalence.rs`) carries
/// that invariant; the operator surface is the `skalla-cli` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Worker threads for the morsel-parallel kernel. `0` means "auto":
    /// use [`std::thread::available_parallelism`]. `1` runs the kernel
    /// serially (same morsel structure, same bits). A value above the
    /// core count is capped to it — a remote `PLAN` frame supplies this
    /// field, and must not decide how many threads a site starts. CLI
    /// `--threads`.
    pub parallelism: usize,
    /// Rows per morsel. Output bits depend on this (it fixes the
    /// accumulator merge structure) but **not** on `parallelism`. CLI
    /// `--morsel-rows`.
    pub morsel_rows: usize,
}

impl Default for EvalOptions {
    /// Auto parallelism and [`DEFAULT_MORSEL_ROWS`].
    fn default() -> Self {
        EvalOptions {
            parallelism: 0,
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }
}

impl EvalOptions {
    /// The resolved worker count: the machine's available cores, or
    /// `parallelism` when it is set and smaller.
    pub fn effective_parallelism(&self) -> usize {
        let cores = cores();
        match self.parallelism {
            0 => cores,
            p => p.min(cores),
        }
    }
}

/// The machine's available cores, looked up once: the lookup reads cgroup
/// files, which costs more than a small kernel call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The result of evaluating a GMDJ at one site.
#[derive(Debug, Clone)]
pub struct LocalGmdj {
    /// Base columns ⊕ physical accumulator columns, one row per base tuple
    /// (same order as the input base relation), made of the kernel's
    /// columns ([`Relation::from_columns`]).
    pub physical: Relation,
    /// Per base tuple: did any detail tuple at this site match any θᵢ?
    /// (`|RNG(b, Rᵢ, θ₁ ∨ … ∨ θ_m)| > 0` — the distribution-independent
    /// group-reduction test of Proposition 1.)
    pub matched: Vec<bool>,
}

pub(crate) struct PreparedBlock {
    /// Base-side positions of equi-key columns (empty ⇒ nested loop).
    pub(crate) base_keys: Vec<usize>,
    /// Detail-side positions of equi-key columns.
    pub(crate) detail_keys: Vec<usize>,
    /// Bound residual (or the full θ for the nested-loop path).
    pub(crate) condition: BoundExpr,
    /// `true` when `condition` is a trivially true literal — pre-bound out
    /// of the inner loops.
    pub(crate) trivial_condition: bool,
    /// Bound aggregate inputs (`None` for `COUNT(*)`).
    pub(crate) aggs: Vec<Option<BoundExpr>>,
}

/// Validate `gmdj` against the two schemas and prepare its blocks: the
/// equi-key columns θ's analysis lifts, the bound residual and the bound
/// aggregate inputs; and its layout over the detail schema.
pub(crate) fn prepare_blocks(
    gmdj: &Gmdj,
    base: &Schema,
    detail: &Schema,
) -> Result<(AccLayout, Vec<PreparedBlock>)> {
    gmdj.validate(base, detail)?;
    let layout = gmdj.layout(detail)?;
    let mut blocks = Vec::with_capacity(gmdj.blocks.len());
    for block in &gmdj.blocks {
        let analysis = analyze_theta(&block.theta);
        let (base_keys, detail_keys, condition) = if !analysis.equi.is_empty() {
            let mut bk = Vec::with_capacity(analysis.equi.len());
            let mut dk = Vec::with_capacity(analysis.equi.len());
            for (b, d) in &analysis.equi {
                bk.push(base.index_of(b)?);
                dk.push(detail.index_of(d)?);
            }
            (bk, dk, analysis.residual.bind(base, Some(detail))?)
        } else {
            (
                Vec::new(),
                Vec::new(),
                block.theta.bind(base, Some(detail))?,
            )
        };
        let aggs = (block.aggs.iter())
            .map(|a| a.input.as_ref().map(|e| e.bind(base, Some(detail))).transpose())
            .collect::<Result<_>>()?;
        let trivial_condition =
            matches!(condition, BoundExpr::Lit(ref v) if v.is_truthy());
        blocks.push(PreparedBlock {
            base_keys,
            detail_keys,
            condition,
            trivial_condition,
            aggs,
        });
    }
    Ok((layout, blocks))
}

/// The morsel decomposition of `n` detail rows: `(rows per morsel,
/// morsels ≥ 1)`. A function of the input size and `morsel_rows` only, so
/// the merge structure (and the bits) never depends on the kernel or the
/// worker count.
pub(crate) fn morsels(n: usize, opts: EvalOptions) -> (usize, usize) {
    let morsel_rows = opts.morsel_rows.max(1);
    (morsel_rows, n.div_ceil(morsel_rows).max(1))
}

/// A morsel-at-a-time kernel the [`drive`] loop runs: the columnar
/// kernel in [`crate::columnar`]. Results must be a pure function of
/// (input, morsel structure): a fresh state per morsel plus an
/// in-morsel-order merge.
pub(crate) trait MorselKernel: Sync {
    /// Per-morsel accumulation state.
    type State: Send;
    /// Per-worker buffers, reused morsel after morsel and never
    /// merged.
    type Buffers: Default;
    /// Number of morsels the detail relation splits into (≥ 1).
    fn n_morsels(&self) -> usize;
    /// Number of detail rows in morsel `m` (span attribute only).
    fn morsel_rows_in(&self, m: usize) -> usize;
    /// A fresh (empty) accumulation state.
    fn init_state(&self) -> Self::State;
    /// Evaluate morsel `m` into `state` (which is fresh).
    fn run_morsel_into(&self, m: usize, state: &mut Self::State, buffers: &mut Self::Buffers)
        -> Result<()>;
    /// Merge `src` (a later morsel) into `dst`, in morsel order.
    fn merge_state(&self, dst: &mut Self::State, src: &Self::State) -> Result<()>;
}

/// Run one morsel behind a panic barrier, recording a span on the
/// worker's own track (span nesting is per-track, so concurrent workers
/// must not share one).
fn run_caught<K: MorselKernel>(
    kernel: &K,
    m: usize,
    state: &mut K::State,
    buffers: &mut K::Buffers,
    worker: usize,
    obs: &Obs,
    site: usize,
) -> Result<()> {
    let mut span = if obs.is_recording() {
        Some(
            obs.span(Track::Worker(site, worker), "morsel")
                .with("morsel", m)
                .with("rows", kernel.morsel_rows_in(m)),
        )
    } else {
        None
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "feeds only the diagnostic morsel-latency histogram, never busy accounting"
    )]
    let t = std::time::Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| kernel.run_morsel_into(m, state, buffers)))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            Err(Error::Execution(format!(
                "worker panicked in morsel {m}: {msg}"
            )))
        });
    if let Some(span) = span.take() {
        obs.hist("kernel.morsel_us", t.elapsed().as_micros() as f64);
        obs.counter_add("kernel.morsels", 1.0);
        span.finish();
    }
    out
}

/// The shared morsel driver: claim morsels, evaluate each into a fresh
/// state, merge **in morsel order**. Because the decomposition and merge
/// structure depend only on (input, `morsel_rows`), bits never depend on
/// the worker count.
///
/// A single morsel runs inline on the caller, skipping the core-count
/// lookup. Otherwise the calling thread is worker 0 and `workers − 1`
/// scoped threads join it (none at one worker). Each spawned thread hands
/// back its thread CPU clock (its whole life is this call), which is
/// charged to the caller through [`charge_foreign_ns`], so the caller's
/// busy timer counts the compute it waited for; the caller's own morsels
/// are on its own clock already.
pub(crate) fn drive<K: MorselKernel>(
    kernel: &K,
    opts: EvalOptions,
    obs: &Obs,
    site: usize,
) -> Result<K::State> {
    let n_morsels = kernel.n_morsels();
    if n_morsels == 1 {
        let mut state = kernel.init_state();
        run_caught(kernel, 0, &mut state, &mut K::Buffers::default(), 0, obs, site)?;
        return Ok(state);
    }
    let workers = opts.effective_parallelism().clamp(1, n_morsels);

    // Workers claim morsels from an atomic counter; every morsel gets
    // fresh accumulators, merged afterwards in morsel order.
    let next = AtomicUsize::new(0);
    let work = |w: usize| {
        let mut buffers = K::Buffers::default();
        let mut out = Vec::new();
        loop {
            let m = next.fetch_add(1, Ordering::Relaxed);
            if m >= n_morsels {
                break;
            }
            let mut state = kernel.init_state();
            let r = run_caught(kernel, m, &mut state, &mut buffers, w, obs, site).map(|()| state);
            out.push((m, r));
        }
        out
    };
    let (mine, spawned) = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|w| {
                let work = &work;
                s.spawn(move || (work(w), thread_cpu_ns().unwrap_or(0)))
            })
            .collect();
        let mine = work(0);
        let spawned = handles
            .into_iter()
            .map(|h| {
                // `run_caught` already turns a kernel panic into an error.
                h.join()
                    .map_err(|_| Error::Execution("a morsel worker panicked".into()))
            })
            .collect::<Result<Vec<_>>>();
        (mine, spawned)
    });
    let mut states: Vec<Option<Result<K::State>>> = (0..n_morsels).map(|_| None).collect();
    for (m, result) in mine {
        states[m] = Some(result);
    }
    for (outs, cpu_ns) in spawned? {
        charge_foreign_ns(cpu_ns);
        for (m, result) in outs {
            states[m] = Some(result);
        }
    }

    // Merge in morsel order (deterministic). Errors surface for the
    // smallest failing morsel index, independent of worker scheduling.
    let unclaimed = || Error::Execution("a morsel was never evaluated".into());
    let mut merged: Option<K::State> = None;
    for state in states {
        let state = state.ok_or_else(unclaimed)??;
        match &mut merged {
            None => merged = Some(state),
            Some(acc) => kernel.merge_state(acc, &state)?,
        }
    }
    merged.ok_or_else(unclaimed)
}

/// Evaluate a GMDJ at one site: sub-aggregates only — [`eval_shipped`]
/// with every base column and every base tuple, untraced.
pub fn eval_local(
    base: &Relation,
    detail: &Relation,
    gmdj: &Gmdj,
    opts: EvalOptions,
) -> Result<LocalGmdj> {
    let all: Vec<usize> = (0..base.schema().len()).collect();
    eval_shipped(base, detail, gmdj, &all, false, opts, &Obs::disabled(), 0)
}

/// A merge unit's sub-result as a site ships it, built as columns
/// straight from the kernel's accumulator states: the base columns at
/// `key` (the base's own, shared, or gathered when rows are dropped; none
/// for an answer by position), then the physical accumulator columns, one
/// row per base tuple in base order — or, with `reduce` (Prop 1's
/// site-side group reduction), one per base tuple some detail tuple
/// matched — beside every base tuple's match flag. No row is built; the
/// relation's columns keep `ColumnBuilder`'s representation rule, so it
/// encodes to the bytes any other path to its values would. Per-morsel
/// spans are recorded on [`Track::Worker`]`(site, worker)` tracks, with
/// `kernel.morsel_us` histogram and `kernel.morsels` counter updates.
#[allow(clippy::too_many_arguments)]
pub fn eval_shipped(
    base: &Relation,
    detail: &Relation,
    gmdj: &Gmdj,
    key: &[usize],
    reduce: bool,
    opts: EvalOptions,
    obs: &Obs,
    site: usize,
) -> Result<LocalGmdj> {
    let key_schema = base.schema().project(key)?;
    let (states, matched) = eval_columnar(base, detail, gmdj, opts, obs, site)?;
    let schema = key_schema.extend(&states.layout().fields())?;
    let n = base.len();
    let at: Vec<u32> = (0..n as u32).filter(|&p| !reduce || matched[p as usize]).collect();
    let mut cols: Vec<Arc<Column>> = key
        .iter()
        .map(|&c| match at.len() == n {
            true => base.shared_column(c),
            false => Arc::new(base.column(c).gather(&at)),
        })
        .collect();
    cols.extend(states.physical_columns(&at));
    Ok(LocalGmdj {
        physical: Relation::from_columns(schema, Columns::from_shared(at.len(), cols))?,
        matched,
    })
}

/// Evaluate a GMDJ to its logical output on one machine: the base's
/// columns, shared, then every aggregate finalized from the kernel's
/// states over every base tuple
/// ([`AccStates::finalize_columns`](crate::state::AccStates::finalize_columns)). No row
/// is built. A site's step of a locally chained unit (Thm 5) and the
/// centralized evaluation; spans as [`eval_shipped`]'s.
pub fn eval_full(
    base: &Relation,
    detail: &Relation,
    gmdj: &Gmdj,
    opts: EvalOptions,
    obs: &Obs,
    site: usize,
) -> Result<Relation> {
    let schema = gmdj.output_schema(base.schema(), detail.schema())?;
    let (states, _) = eval_columnar(base, detail, gmdj, opts, obs, site)?;
    let n = base.len();
    let mut cols: Vec<Arc<Column>> = (0..base.schema().len()).map(|c| base.shared_column(c)).collect();
    cols.extend(states.finalize_columns(&(0..n as u32).collect::<Vec<_>>(), &vec![true; n]));
    Relation::from_columns(schema, Columns::from_shared(n, cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::oracle::{finalize_rows, merge_all, serial_local};
    use crate::theta::ThetaBuilder;
    use skalla_relation::{row, DataType, Expr, Row, Value};

    fn detail() -> Relation {
        Relation::new(
            Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]),
            vec![
                row![1i64, 10i64],
                row![1i64, 20i64],
                row![2i64, 5i64],
                row![2i64, 7i64],
                row![2i64, 9i64],
            ],
        )
        .unwrap()
    }

    fn base() -> Relation {
        Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            vec![row![1i64], row![2i64], row![3i64]],
        )
        .unwrap()
    }

    fn simple_gmdj() -> Gmdj {
        Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![AggSpec::count("cnt"), AggSpec::avg("v", "avg")],
        )
    }

    fn opts() -> EvalOptions {
        EvalOptions {
            parallelism: 1,
            ..EvalOptions::default()
        }
    }

    /// Every case below runs on both kernels: the row reference's answer,
    /// returned once the engine kernel's has been checked against it.
    fn local_both(b: &Relation, d: &Relation, g: &Gmdj, o: EvalOptions) -> LocalGmdj {
        let rows = serial_local(b, d, g, o).unwrap();
        let cols = eval_local(b, d, g, o).unwrap();
        assert_eq!(cols.physical, rows.physical);
        assert_eq!(cols.matched, rows.matched);
        rows
    }

    fn full_both(b: &Relation, d: &Relation, g: &Gmdj, o: EvalOptions) -> Relation {
        let local = local_both(b, d, g, o);
        let rows = finalize_rows(&local.physical, b.schema().len(), g, d.schema()).unwrap();
        assert_eq!(eval_full(b, d, g, o, &Obs::disabled(), 0).unwrap(), rows);
        rows
    }

    #[test]
    fn grouped_count_and_avg() {
        let out = full_both(&base(), &detail(), &simple_gmdj(), opts());
        assert_eq!(out.schema().column_names(), ["g", "cnt", "avg"]);
        assert_eq!(out.rows()[0], row![1i64, 2i64, 15.0]);
        assert_eq!(out.rows()[1], row![2i64, 3i64, 7.0]);
        // Group 3 has no detail tuples: COUNT 0, AVG NULL.
        assert_eq!(
            out.rows()[2],
            Row::new(vec![Value::Int(3), Value::Int(0), Value::Null])
        );
    }

    #[test]
    fn hash_and_nested_loop_agree() {
        // The same key written as a range, `b.g <= r.g AND b.g >= r.g`,
        // is not lifted by `analyze_theta`, so it runs the nested loop.
        let ranged = Expr::bcol("g")
            .le(Expr::dcol("g"))
            .and(Expr::bcol("g").ge(Expr::dcol("g")));
        assert!(analyze_theta(&ranged).equi.is_empty());
        let nested = Gmdj::new("t").block(
            ranged,
            vec![AggSpec::count("cnt"), AggSpec::avg("v", "avg")],
        );
        let hash = full_both(&base(), &detail(), &simple_gmdj(), opts());
        let nl = full_both(&base(), &detail(), &nested, opts());
        assert_eq!(hash, nl);
    }

    #[test]
    fn morsel_decomposition_is_thread_count_invariant() {
        // Tiny morsels force many of them; every parallelism level must
        // produce identical physical accumulators and flags.
        let reference = local_both(
            &base(),
            &detail(),
            &simple_gmdj(),
            EvalOptions {
                morsel_rows: 2,
                ..opts()
            },
        );
        for p in [2usize, 3, 8] {
            let out = local_both(
                &base(),
                &detail(),
                &simple_gmdj(),
                EvalOptions {
                    morsel_rows: 2,
                    parallelism: p,
                },
            );
            assert_eq!(out.physical, reference.physical, "parallelism {p}");
            assert_eq!(out.matched, reference.matched, "parallelism {p}");
        }
    }

    #[test]
    fn remote_parallelism_is_capped_at_the_core_count() {
        // A PLAN frame can carry any u32: one thread per detail row at
        // one-row morsels would be the peer's choice, not the site's.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let greedy = EvalOptions {
            parallelism: usize::MAX,
            morsel_rows: 1,
        };
        assert_eq!(greedy.effective_parallelism(), cores);
        assert_eq!(EvalOptions::default().effective_parallelism(), cores);
        let one = EvalOptions {
            parallelism: 1,
            ..greedy
        };
        assert_eq!(one.effective_parallelism(), 1);
        // And the answer is the serial one, bit for bit.
        let out = local_both(&base(), &detail(), &simple_gmdj(), greedy);
        let serial = local_both(&base(), &detail(), &simple_gmdj(), one);
        assert_eq!(out.physical, serial.physical);
        assert_eq!(out.matched, serial.matched);
    }

    /// A kernel whose morsels listed in `bad` panic; the others count
    /// themselves.
    struct PanickyKernel {
        n_morsels: usize,
        bad: &'static [usize],
    }

    impl MorselKernel for PanickyKernel {
        type State = usize;
        type Buffers = ();

        fn n_morsels(&self) -> usize {
            self.n_morsels
        }

        fn morsel_rows_in(&self, _m: usize) -> usize {
            1
        }

        fn init_state(&self) -> usize {
            0
        }

        fn run_morsel_into(&self, m: usize, state: &mut usize, _: &mut ()) -> Result<()> {
            if self.bad.contains(&m) {
                panic!("boom in {m}");
            }
            *state += 1;
            Ok(())
        }

        fn merge_state(&self, dst: &mut usize, src: &usize) -> Result<()> {
            *dst += *src;
            Ok(())
        }
    }

    #[test]
    fn worker_panic_surfaces_as_execution_error() {
        // One worker or several: a panicking morsel becomes an `Error::Execution` naming the smallest
        // failing morsel, whichever worker hit which one first.
        for parallelism in [1usize, 2, 4] {
            let opts = EvalOptions {
                parallelism,
                ..opts()
            };
            let kernel = PanickyKernel {
                n_morsels: 5,
                bad: &[3, 1],
            };
            let msg = drive(&kernel, opts, &Obs::disabled(), 0)
                .unwrap_err()
                .to_string();
            assert!(
                msg.contains("panicked in morsel 1") && msg.contains("boom in 1"),
                "parallelism {parallelism}: {msg}"
            );
            let healthy = PanickyKernel {
                n_morsels: 5,
                bad: &[],
            };
            assert_eq!(drive(&healthy, opts, &Obs::disabled(), 0).unwrap(), 5);
        }
    }

    #[test]
    fn duplicate_base_keys_all_probe_candidates() {
        // Duplicate base tuples share a key; each must receive its own
        // accumulators.
        let b = Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            vec![row![2i64], row![2i64], row![1i64]],
        )
        .unwrap();
        let out = full_both(&b, &detail(), &simple_gmdj(), opts());
        assert_eq!(out.rows()[0], row![2i64, 3i64, 7.0]);
        assert_eq!(out.rows()[0], out.rows()[1]);
        assert_eq!(out.rows()[2], row![1i64, 2i64, 15.0]);
    }

    #[test]
    fn overlapping_ranges_nested_loop() {
        // θ: r.v >= b.lo — ranges overlap across base tuples (not a group-by).
        let base = Relation::new(
            Schema::of(&[("lo", DataType::Int)]),
            vec![row![0i64], row![8i64]],
        )
        .unwrap();
        let g = Gmdj::new("t").block(
            Expr::dcol("v").ge(Expr::bcol("lo")),
            vec![AggSpec::count("cnt")],
        );
        let out = full_both(&base, &detail(), &g, opts());
        // lo=0 matches all 5; lo=8 matches v ∈ {10, 20, 9}.
        assert_eq!(out.rows()[0], row![0i64, 5i64]);
        assert_eq!(out.rows()[1], row![8i64, 3i64]);
    }

    #[test]
    fn correlated_second_block_uses_first_outputs() {
        // Two-step: first compute avg per group, then count tuples above it
        // (paper Example 1 collapsed to one partition).
        let b1 = full_both(&base(), &detail(), &simple_gmdj(), opts());
        let g2 = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"])
                .and(Expr::dcol("v").ge(Expr::bcol("avg")))
                .build(),
            vec![AggSpec::count("cnt2")],
        );
        let out = full_both(&b1, &detail(), &g2, opts());
        // Group 1: avg 15, v ∈ {20} above-or-equal → wait, v ∈ {10, 20}; 20 >= 15 → 1.
        assert_eq!(out.rows()[0], row![1i64, 2i64, 15.0, 1i64]);
        // Group 2: avg 7, v ∈ {7, 9} ≥ 7 → 2.
        assert_eq!(out.rows()[1], row![2i64, 3i64, 7.0, 2i64]);
        // Group 3: no tuples.
        assert_eq!(out.rows()[2].get(3), &Value::Int(0));
    }

    #[test]
    fn local_eval_matched_flags_and_reduction() {
        let local = local_both(&base(), &detail(), &simple_gmdj(), opts());
        assert_eq!(local.matched, vec![true, true, false]);
        // Physical schema carries the AVG decomposition.
        assert_eq!(
            local.physical.schema().column_names(),
            ["g", "cnt", "avg__sum", "avg__cnt"]
        );
        // What a site ships: the key and accumulator columns of the
        // physical rows — of the matched ones under reduction.
        let b1 = full_both(&base(), &detail(), &simple_gmdj(), opts());
        let g2 = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"])
                .and(Expr::dcol("v").ge(Expr::bcol("avg")))
                .build(),
            vec![AggSpec::count("cnt2"), AggSpec::avg("v", "avg2")],
        );
        let local = local_both(&b1, &detail(), &g2, opts());
        let keyed = local
            .physical
            .project(&["g", "cnt2", "avg2__sum", "avg2__cnt"])
            .unwrap();
        for reduce in [false, true] {
            let shipped =
                eval_shipped(&b1, &detail(), &g2, &[0], reduce, opts(), &Obs::disabled(), 0)
                    .unwrap()
                    .physical;
            let want: Vec<&Row> = keyed
                .iter()
                .zip(&local.matched)
                .filter(|(_, m)| **m || !reduce)
                .map(|(r, _)| r)
                .collect();
            assert_eq!(shipped.schema(), keyed.schema());
            assert_eq!(shipped.iter().collect::<Vec<_>>(), want, "reduce {reduce}");
        }
        assert_eq!(local.matched, vec![true, true, false]);
    }

    #[test]
    fn sub_super_aggregation_matches_direct() {
        // Split detail into two partitions, evaluate locally, merge, and
        // compare against direct evaluation (Theorem 1).
        let d = detail();
        let p1 = Relation::from_shared(d.schema_ref(), d.rows()[..2].to_vec());
        let p2 = Relation::from_shared(d.schema_ref(), d.rows()[2..].to_vec());
        let g = simple_gmdj();
        let l1 = local_both(&base(), &p1, &g, opts());
        let l2 = local_both(&base(), &p2, &g, opts());

        let layout = g.layout(d.schema()).unwrap();
        let base_arity = base().schema().len();
        let mut merged = l1.physical.clone();
        for (dst, src) in merged
            .rows_mut()
            .iter_mut()
            .zip(l2.physical.rows())
        {
            let mut dvals = dst.values().to_vec();
            merge_all(&layout, &mut dvals[base_arity..], &src.values()[base_arity..]).unwrap();
            *dst = Row::new(dvals);
        }
        let merged_final = finalize_rows(&merged, base_arity, &g, d.schema()).unwrap();
        let direct = full_both(&base(), &d, &g, opts());
        assert_eq!(merged_final, direct);
    }

    #[test]
    fn empty_detail_relation() {
        let d = Relation::empty(detail().schema().clone());
        let out = full_both(&base(), &d, &simple_gmdj(), opts());
        assert_eq!(out.len(), 3);
        assert_eq!(out.rows()[0].get(1), &Value::Int(0));
        assert!(out.rows()[0].get(2).is_null());
    }

    #[test]
    fn empty_base_relation() {
        let b = Relation::empty(base().schema().clone());
        let out = full_both(&b, &detail(), &simple_gmdj(), opts());
        assert!(out.is_empty());
        assert_eq!(out.schema().column_names(), ["g", "cnt", "avg"]);
    }

    #[test]
    fn multi_block_different_thetas() {
        let g = Gmdj::new("t")
            .block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("all_cnt")],
            )
            .block(
                ThetaBuilder::group_by(&["g"])
                    .and(Expr::dcol("v").gt(Expr::lit(8i64)))
                    .build(),
                vec![AggSpec::count("big_cnt"), AggSpec::max("v", "big_max")],
            );
        let out = full_both(&base(), &detail(), &g, opts());
        assert_eq!(out.rows()[0], row![1i64, 2i64, 2i64, 20i64]);
        assert_eq!(out.rows()[1], row![2i64, 3i64, 1i64, 9i64]);
    }

    #[test]
    fn duplicate_base_tuples_each_get_aggregates() {
        // Definition 1 allows duplicate base tuples; each contributes an
        // output tuple.
        let b = Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            vec![row![1i64], row![1i64]],
        )
        .unwrap();
        let out = full_both(&b, &detail(), &simple_gmdj(), opts());
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0], out.rows()[1]);
    }

    #[test]
    fn morsel_spans_are_recorded_per_worker() {
        let obs = Obs::recording();
        eval_shipped(
            &base(),
            &detail(),
            &simple_gmdj(),
            &[0],
            false,
            EvalOptions {
                morsel_rows: 2,
                parallelism: 2,
            },
            &obs,
            7,
        )
        .unwrap();
        let rec = obs.recorder().unwrap();
        let spans = rec.spans();
        let morsels: Vec<_> = spans.iter().filter(|s| s.name == "morsel").collect();
        assert_eq!(morsels.len(), 3, "5 rows / 2-row morsels");
        assert!(morsels
            .iter()
            .all(|s| matches!(s.track, Track::Worker(7, _)) && s.dur_us.is_some()));
        assert_eq!(rec.histograms()["kernel.morsel_us"].count(), 3);
    }

    /// A site's answer, built as columns from the kernel's states, encodes
    /// to the bytes of the same answer rebuilt from its rows
    /// (`Relation::new(schema, rows)`, whose columns `Columns::from_rows`
    /// makes), with and without Prop 1's reduction: Int and Double AVG,
    /// VAR, an all-NULL SUM, a string MIN, NaN payloads, −0.0 and NULL
    /// keys and inputs. (Row blocking's slices are checked the same way in
    /// `skalla-core`.)
    #[test]
    fn shipped_answer_encodes_as_its_rows() {
        let nan = |p: u64| Value::Double(f64::from_bits(0x7ff8_0000_0000_0000 | p));
        let detail = Relation::new(
            Schema::of(&[
                ("g", DataType::Int),
                ("i", DataType::Int),
                ("d", DataType::Double),
                ("n", DataType::Int),
                ("s", DataType::Str),
            ]),
            (0..30i64)
                .map(|r| {
                    let g = if r % 11 == 0 { Value::Null } else { Value::Int(r % 6) };
                    let d = [nan(r as u64), Value::Double(-0.0), Value::Null, Value::Double(r as f64 / 3.0)];
                    let s = if r % 3 == 0 { Value::Null } else { Value::str(format!("s{}", r % 4)) };
                    Row::new(vec![g, Value::Int(r << 40), d[r as usize % 4].clone(), Value::Null, s])
                })
                .collect(),
        )
        .unwrap();
        let base = Relation::new(
            Schema::of(&[("g", DataType::Int), ("tag", DataType::Str)]),
            (0..9i64)
                .map(|g| row![g, format!("t{}", g % 2)])
                .chain([Row::new(vec![Value::Null, Value::str("tn")])])
                .collect(),
        )
        .unwrap();
        let op = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![
                AggSpec::count("cnt"),
                AggSpec::avg("i", "avg_i"),
                AggSpec::avg("d", "avg_d"),
                AggSpec::var("d", "var_d"),
                AggSpec::sum("n", "sum_n"),
                AggSpec::min("s", "min_s"),
            ],
        );
        let encode = |r: &Relation| {
            let mut enc = skalla_relation::codec::Encoder::new();
            enc.put_relation(r);
            enc.finish()
        };
        for key in [&[0usize][..], &[1, 0]] {
            for reduce in [false, true] {
                let answer = eval_shipped(&base, &detail, &op, key, reduce, opts(), &Obs::disabled(), 0)
                    .unwrap()
                    .physical;
                let bytes = encode(&answer);
                let rows = Relation::new(answer.schema().clone(), answer.rows().to_vec()).unwrap();
                assert_eq!(rows.len(), if reduce { 7 } else { 10 });
                assert!(bytes == encode(&rows), "key {key:?}, reduce {reduce}");
            }
        }
    }
}
