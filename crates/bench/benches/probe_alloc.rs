//! Regression guard: the columnar GMDJ kernel performs **zero heap
//! allocations per detail row**.
//!
//! The group-id probe reads each detail row's local group from the
//! partition's memo and the typed aggregate inner loops fold column
//! slices, never materializing a `Vec<Value>` key per detail tuple
//! (`Row::key`). This guard measures allocator activity with a counting
//! `#[global_allocator]` while evaluating two all-miss workloads that
//! differ only in detail size: the difference must be (near) zero (the
//! kernel's setup allocates a constant *number* of typed vectors,
//! independent of detail size, so the size delta isolates the per-row
//! cost). A closure that boxes one value per extra row is the positive
//! control proving the instrument actually counts per-row allocations.
//!
//! A second workload has every detail row *hit* a group and run the
//! typed θ-residual comparison (`r.v >= b.lo`), so the candidate pass,
//! the residual's filter and the selection it leaves are under the same
//! guard (the candidate buffers are sized once per worker and reused
//! morsel after morsel: nothing per row). Two more hit legs follow it: a
//! `Double` residual against a per-base `Double` column (`r.x >= b.avg`),
//! and a base that holds every key twice, so the candidates also take the
//! duplicate-key chain sweep.
//!
//! A cold leg runs the kernel on fresh relations of the hit shape (64
//! groups). A relation holds its columns from construction, which is
//! outside the count, so the call builds the relation's group ids only:
//! they allocate per group, never per row.
//!
//! A coordinator leg merges the sites' answers over the same 2,000 groups
//! the way the engine does: each answer is encoded into a `RESULT` frame
//! and decoded (`protocol::result_with` → `decode_result_frame`,
//! outside the count: a frame's own buffers are per frame by nature),
//! then `MergeSync::new`, one absorb per answer, `finish`. Against a
//! shipped B the answers are positional (`absorb_at`): accumulator
//! columns for every group of B, and, under Prop 1, a survivor set over a
//! Thm 4 fragment of B's even rows; a folded unit's answers are keyed
//! sorted runs (`absorb_frame` keeps each run, and `finish_held` makes
//! the one pass over the runs that places each leaf's rows in B_next);
//! then a resident round answers by position over the rows each leaf held
//! (`absorb_at` with the leaf's own map). For each of these four legs on
//! its own, 6 sites' answers may allocate at most two times per extra
//! leaf more than 2 sites' answers, so nothing is allocated per absorbed
//! row, per tree level or per leaf's held rows.
//!
//! Three decode legs read a bit-packed and a delta-coded (sorted) `Int`
//! column and a bit-packed `Double` column of 2,000 and of 20,000 rows
//! (`codec::decode_relation`): each must allocate equally often at both
//! sizes, so unpacking allocates per column, never per value.
//!
//! Two legs hold a merge unit's answer columnar end to end, each over
//! 1,000 and then 11,000 groups (the same detail, all in one morsel): the
//! site's answer (`eval_shipped`, with Prop 1's reduction dropping every
//! tenth group, → `protocol::result`) and the coordinator's
//! `MergeSync::finish` (after positional answers against a shipped B, and
//! keyed ones folded, each a sorted run as a site's is). Both must
//! allocate per column, never per group.
//!
//! A chain leg does the same for Theorem 5's locally chained unit, over
//! 1,000 and then 11,000 groups: the site's chain (`eval_local` →
//! `finalize_physical` → `project` → `protocol::result`), then the
//! coordinator's `ChainSync` absorbing two sites' disjoint answers and
//! finishing against B (the groups no site owns filled in) and folded
//! (each half then a sorted run, as a site's is). It must allocate per
//! column, never per group.
//!
//! Not a timing benchmark — plain assertions, run by `ci.sh`.

use skalla_core::coordinator::{empty_aggregates, ChainSync, MergeSync};
use skalla_core::protocol::{decode_result, decode_result_frame, result, result_with, Survivors};
use skalla_gmdj::prelude::*;
use skalla_gmdj::eval::{eval_local, eval_shipped, finalize_physical};
use skalla_obs::Obs;
use skalla_gmdj::EvalOptions;
use skalla_relation::codec::{decode_relation, encode_relation};
use skalla_relation::{DataType, Row};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Detail rows whose keys all miss the base index (base keys are < 1000).
fn miss_detail(rows: usize) -> Relation {
    Relation::new(
        Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]),
        (0..rows)
            .map(|i| Row::new(vec![(1000 + i as i64).into(), (i as i64).into()]))
            .collect(),
    )
    .unwrap()
}

/// Detail rows that each hit one of the 64 base groups; about half pass
/// the residual `r.v >= b.lo`, and about half `r.x >= b.avg`.
fn hit_detail(rows: usize) -> Relation {
    Relation::new(
        Schema::of(&[("g", DataType::Int), ("v", DataType::Int), ("x", DataType::Double)]),
        (0..rows)
            .map(|i| {
                let (g, v) = (i as i64 % 64, i as i64 % 1000);
                Row::new(vec![g.into(), v.into(), (v as f64 + 0.5).into()])
            })
            .collect(),
    )
    .unwrap()
}

/// The bound on one coordinator merge leg's 6-vs-2-sites allocation
/// delta: two allocations for each of the 4 extra leaves.
const MERGE_LEG_BOUND: u64 = 8;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

fn main() {
    let base = Relation::new(
        Schema::of(&[("g", DataType::Int)]),
        (0..64).map(|g: i64| Row::new(vec![g.into()])).collect(),
    )
    .unwrap();
    let op = Gmdj::new("t").block(
        ThetaBuilder::group_by(&["g"]).build(),
        vec![AggSpec::count("cnt")],
    );
    // Single morsel, single worker: the only size-dependent work is the
    // probe loop itself.
    let opts = EvalOptions {
        parallelism: 1,
        morsel_rows: 1 << 30,
    };

    const SMALL: usize = 1_000;
    const LARGE: usize = 11_000;
    let small = miss_detail(SMALL);
    let large = miss_detail(LARGE);

    // Warm up (lazy one-time allocations — including the cached columnar
    // layout — must not skew counts).
    eval_local(&base, &small, &op, opts).unwrap();
    eval_local(&base, &large, &op, opts).unwrap();
    let measure = |detail: &Relation| {
        allocs_during(|| {
            eval_local(&base, detail, &op, opts).unwrap();
        })
    };
    let col_delta = measure(&large).saturating_sub(measure(&small));

    // The typed residual: same shape of measurement, every row a hit.
    let lo_base = Relation::new(
        Schema::of(&[("g", DataType::Int), ("lo", DataType::Int)]),
        (0..64).map(|g: i64| Row::new(vec![g.into(), 500i64.into()])).collect(),
    )
    .unwrap();
    let residual_op = Gmdj::new("t").block(
        ThetaBuilder::group_by(&["g"])
            .and(Expr::dcol("v").ge(Expr::bcol("lo")))
            .build(),
        vec![AggSpec::count("cnt"), AggSpec::sum("v", "sum_v")],
    );
    let (small_hit, large_hit) = (hit_detail(SMALL), hit_detail(LARGE));
    let measure_residual = |detail: &Relation| {
        let run = || {
            eval_local(&lo_base, detail, &residual_op, opts).unwrap();
        };
        run(); // builds the touched columns
        allocs_during(run)
    };
    let residual_delta =
        measure_residual(&large_hit).saturating_sub(measure_residual(&small_hit));
    // The same with a `Double` comparison against a per-base `Double`
    // column, then with every base key twice (the chain sweep).
    let avg_base = Relation::new(
        Schema::of(&[("g", DataType::Int), ("avg", DataType::Double)]),
        (0..64).map(|g: i64| Row::new(vec![g.into(), (g as f64 * 7.5).into()])).collect(),
    )
    .unwrap();
    let double_op = Gmdj::new("t").block(
        ThetaBuilder::group_by(&["g"])
            .and(Expr::dcol("x").ge(Expr::bcol("avg")))
            .build(),
        vec![AggSpec::count("cnt"), AggSpec::avg("x", "avg_x")],
    );
    let dup_base = Relation::new(
        Schema::of(&[("g", DataType::Int)]),
        (0..128).map(|g: i64| Row::new(vec![(g % 64).into()])).collect(),
    )
    .unwrap();
    let measure_hit = |b: &Relation, op: &Gmdj, detail: &Relation| {
        let run = || {
            eval_local(b, detail, op, opts).unwrap();
        };
        run(); // builds the touched columns
        allocs_during(run)
    };
    let double_delta = measure_hit(&avg_base, &double_op, &large_hit)
        .saturating_sub(measure_hit(&avg_base, &double_op, &small_hit));
    let dup_delta = measure_hit(&dup_base, &op, &large_hit)
        .saturating_sub(measure_hit(&dup_base, &op, &small_hit));
    // The cold leg: nothing built before the call.
    let measure_cold = |rows: usize| {
        let fresh = hit_detail(rows);
        allocs_during(|| {
            eval_local(&base, &fresh, &op, opts).unwrap();
        })
    };
    let cold_delta = measure_cold(LARGE).saturating_sub(measure_cold(SMALL));

    // The coordinator leg: every site answers every group, or by
    // position under Prop 1 nine in ten of B's even rows.
    const GROUPS: i64 = 2_000;
    let answer = Relation::new(
        Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
        (0..GROUPS).map(|g| Row::new(vec![g.into(), 1i64.into()])).collect(),
    )
    .unwrap();
    let merge_base = Relation::new(
        Schema::of(&[("g", DataType::Int)]),
        (0..GROUPS).map(|g| Row::new(vec![g.into()])).collect(),
    )
    .unwrap();
    let key = ["g".to_string()];
    let even: Vec<u32> = (0..GROUPS as u32).step_by(2).collect();
    let survivors = Survivors::of(&(0..even.len()).map(|i| i % 10 != 9).collect::<Vec<_>>());
    let counts = answer.project(&["cnt"]).unwrap();
    let reduced = counts.gather(&survivors.at);
    let frames = [
        (result(1, &counts), Some(None)),
        (result_with(1, &reduced, Some(&survivors)), Some(Some(&even[..]))),
        (result(1, &answer), None),
    ];
    // One count per leg: positional, positional under Prop 1, folded,
    // resident.
    let measure_merge = |sites: usize| {
        let mut allocs = [0; 4];
        let mut held = None;
        // `Some(fragment)`: positional against B; `None`: keyed, folded,
        // each leaf's rows recorded as they land and placed in B_next.
        for ((frame, at), allocs) in frames.iter().zip(&mut allocs) {
            let answers: Vec<_> = (0..sites)
                .map(|_| decode_result_frame(&frame.payload).unwrap())
                .collect();
            *allocs = allocs_during(|| {
                let mut sync = MergeSync::new(at.map(|_| &merge_base), &key, &op).unwrap();
                for (leaf, answer) in answers.into_iter().enumerate() {
                    match at {
                        Some(fragment) => sync.absorb_at(leaf, *fragment, answer).unwrap(),
                        None => sync.absorb_frame(leaf, answer).unwrap(),
                    }
                }
                match at {
                    Some(_) => drop(sync.finish(merge_base.schema(), &op, small.schema()).unwrap()),
                    None => held = Some(sync.finish_held(merge_base.schema(), &op, small.schema()).unwrap().1),
                }
            });
        }
        // Resident after the fold: each leaf answers by position over the
        // rows it held (B_next's rows are `merge_base`'s, in key order).
        let held = held.unwrap();
        let answers: Vec<_> = (0..sites)
            .map(|_| decode_result_frame(&frames[0].0.payload).unwrap())
            .collect();
        allocs[3] = allocs_during(|| {
            let mut sync = MergeSync::new(Some(&merge_base), &key, &op).unwrap();
            for (leaf, answer) in answers.into_iter().enumerate() {
                sync.absorb_at(leaf, Some(held.leaf(leaf)), answer).unwrap();
            }
            sync.finish(merge_base.schema(), &op, small.schema()).unwrap();
        });
        allocs
    };
    let (merge_6, merge_2) = (measure_merge(6), measure_merge(2));
    let merge_deltas: [u64; 4] = std::array::from_fn(|leg| merge_6[leg].abs_diff(merge_2[leg]));

    // The decode leg: one bit-packed `Int` column of 2,000 and of 20,000
    // rows (offsets of 7 bits) decodes with the same allocations: the
    // packed run is unpacked a block at a time, through buffers on the
    // stack, into the column's one vector.
    let packed = |rows: i64| {
        let rel = Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            (0..rows).map(|i| Row::new(vec![(1_000 + i % 100).into()])).collect(),
        )
        .unwrap();
        encode_relation(&rel)
    };
    let (packed_small, packed_large) = (packed(2_000), packed(20_000));
    assert!(packed_large.len() < 20_000, "the column is packed: {} bytes", packed_large.len());
    let measure_decode = |bytes: &[u8]| allocs_during(|| drop(decode_relation(bytes).unwrap()));
    let decode_delta = measure_decode(&packed_large).abs_diff(measure_decode(&packed_small));
    // The same for a delta-coded column: a sorted key, gaps of 1 to 3
    // (2 bits a row), whose running sum is the column's one vector.
    let delta = |rows: i64| {
        let rel = Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            (0..rows).map(|i| Row::new(vec![(i * 2 + i % 3).into()])).collect(),
        )
        .unwrap();
        encode_relation(&rel)
    };
    let (delta_small, delta_large) = (delta(2_000), delta(20_000));
    assert!(delta_large.len() < 6_000, "the column is delta-coded: {} bytes", delta_large.len());
    let delta_decode_delta = measure_decode(&delta_large).abs_diff(measure_decode(&delta_small));
    // The same for a `Double` column packed on its bits: prices a quarter
    // apart, 1,000 to 1,024.75.
    let prices = |rows: i64| {
        let rel = Relation::new(
            Schema::of(&[("x", DataType::Double)]),
            (0..rows).map(|i| Row::new(vec![(1_000.0 + (i % 100) as f64 * 0.25).into()])).collect(),
        )
        .unwrap();
        encode_relation(&rel)
    };
    let (prices_small, prices_large) = (prices(2_000), prices(20_000));
    assert!(prices_large.len() < 8 * 20_000, "the column is packed: {} bytes", prices_large.len());
    let double_decode_delta = measure_decode(&prices_large).abs_diff(measure_decode(&prices_small));
    let decode_allocs = [&packed_large, &delta_large, &prices_large].map(|b| measure_decode(b));

    // The site-answer leg: B of `n` groups (every tenth one matching no
    // detail row) against one detail of LARGE groups.
    let wide_op = Gmdj::new("t").block(
        ThetaBuilder::group_by(&["g"]).build(),
        vec![
            AggSpec::count("cnt"),
            AggSpec::sum("v", "sum_v"),
            AggSpec::avg("x", "avg_x"),
            AggSpec::max("x", "max_x"),
        ],
    );
    let groups_detail = Relation::new(
        Schema::of(&[("g", DataType::Int), ("v", DataType::Int), ("x", DataType::Double)]),
        (0..LARGE as i64)
            .map(|g| Row::new(vec![g.into(), (g % 100).into(), (g as f64 * 0.5).into()]))
            .collect(),
    )
    .unwrap();
    let groups_base = |n: usize| {
        let key = |g: i64| if g % 10 == 9 { -g - 1 } else { g };
        let rows = (0..n as i64).map(|g| Row::new(vec![key(g).into()])).collect();
        Relation::new(Schema::of(&[("g", DataType::Int)]), rows).unwrap()
    };
    let measure_answer = |n: usize| {
        let b = groups_base(n);
        let run = || {
            let answer =
                eval_shipped(&b, &groups_detail, &wide_op, &[0], true, opts, &Obs::disabled(), 0)
                    .unwrap()
                    .physical;
            std::hint::black_box(result(1, &answer));
        };
        run(); // builds B's key column and the detail's
        allocs_during(run)
    };
    let answer_delta = measure_answer(LARGE).abs_diff(measure_answer(SMALL));

    // The coordinator-finish leg: two sites answer every one of `n`
    // groups, by position against B and keyed when folded; only `finish`
    // is counted.
    let measure_finish = |n: usize| {
        let b = groups_base(n);
        let mut allocs = 0;
        for folded in [false, true] {
            let key_idx: &[usize] = if folded { &[0] } else { &[] };
            // A folded site's groups are its own, in key order.
            let b = if folded { b.sorted_by(&["g"]).unwrap() } else { b.clone() };
            let answer = eval_shipped(&b, &groups_detail, &wide_op, key_idx, false, opts, &Obs::disabled(), 0)
                .unwrap()
                .physical;
            let frame = result(1, &answer);
            let mut sync = MergeSync::new((!folded).then_some(&b), &key, &wide_op).unwrap();
            for leaf in 0..2 {
                let answer = decode_result_frame(&frame.payload).unwrap();
                match folded {
                    false => sync.absorb_at(leaf, None, answer).unwrap(),
                    true => sync.absorb_frame(leaf, answer).unwrap(),
                }
            }
            allocs += allocs_during(|| {
                std::hint::black_box(sync.finish(b.schema(), &wide_op, groups_detail.schema()).unwrap());
            });
        }
        allocs
    };
    let finish_delta = measure_finish(LARGE).abs_diff(measure_finish(SMALL));

    // The chain leg: a site's Thm 5 chain over `n` groups, then the
    // coordinator's assembly of two sites' disjoint halves of it (the
    // groups that match no detail row are owned by neither).
    let names = ["g", "cnt", "sum_v", "avg_x", "max_x"];
    let measure_chain = |n: usize| {
        let b = groups_base(n);
        let site = || {
            let local = eval_local(&b, &groups_detail, &wide_op, opts).unwrap();
            let cur = finalize_physical(&local.physical, 1, &wide_op, groups_detail.schema()).unwrap();
            let answer = cur.project(&names).unwrap();
            std::hint::black_box(result(1, &answer));
            answer
        };
        let answer = site(); // builds B's key column and the detail's
        let mut allocs = allocs_during(|| {
            site();
        });
        let half = Expr::lit(n as i64 / 2);
        let owned = [
            Expr::bcol("g").ge(Expr::lit(0i64)).and(Expr::bcol("g").lt(half.clone())),
            Expr::bcol("g").ge(half),
        ];
        let halves: Vec<Relation> = owned
            .iter()
            .map(|p| {
                let kept = answer.select(&p.bind(answer.schema(), None).unwrap()).unwrap();
                decode_result(&result(1, &kept).payload).unwrap().2
            })
            .collect();
        let out = wide_op.output_schema(b.schema(), groups_detail.schema()).unwrap();
        let empty = empty_aggregates(std::slice::from_ref(&wide_op)).unwrap();
        for folded in [false, true] {
            // A folded site's answer is in key order.
            let halves: Vec<Relation> = match folded {
                true => halves.iter().map(|h| h.sorted_by(&["g"]).unwrap()).collect(),
                false => halves.clone(),
            };
            allocs += allocs_during(|| {
                let mut sync = ChainSync::new(1);
                for h in &halves {
                    sync.absorb(h).unwrap();
                }
                std::hint::black_box(match folded {
                    false => sync.finish_against(&b, &key, &empty, out.clone()).unwrap(),
                    true => sync.finish_folded(out.clone()).unwrap(),
                });
            });
        }
        allocs
    };
    let chain_delta = measure_chain(LARGE).abs_diff(measure_chain(SMALL));
    let extra_groups = LARGE - SMALL;
    let extra_rows = (LARGE - SMALL) as u64;
    let control = allocs_during(|| {
        for i in 0..extra_rows {
            std::hint::black_box(Box::new(i));
        }
    });

    println!("probe_alloc guard ({extra_rows} extra all-miss probes)");
    println!("  columnar       allocation delta: {col_delta}");
    println!("  typed residual allocation delta: {residual_delta}");
    println!("  Double residual allocation delta: {double_delta}");
    println!("  duplicate keys allocation delta: {dup_delta}");
    println!("  cold columnar  allocation delta: {cold_delta}");
    println!("  merge 6 vs 2 sites  (delta per leg: positional, Prop 1, folded, resident): {merge_deltas:?}");
    println!("  packed decode 20,000 vs 2,000 rows (delta): {decode_delta}");
    println!("  delta-coded decode 20,000 vs 2,000 rows (delta): {delta_decode_delta}");
    println!("  packed Double decode 20,000 vs 2,000 rows (delta): {double_decode_delta}");
    println!("  decode allocations at 20,000 rows (packed, delta-coded, packed Double): {decode_allocs:?}");
    println!("  site answer {extra_groups} more groups (delta): {answer_delta}");
    println!("  finish {extra_groups} more groups (delta):      {finish_delta}");
    println!("  chain {extra_groups} more groups (delta):       {chain_delta}");
    println!("  control        allocations:      {control}");

    // Group-id probing and the typed inner loops must not allocate per
    // row. Allow a tiny slack for allocator-internal noise, but nothing
    // proportional to row count.
    assert!(
        col_delta <= 16,
        "columnar kernel allocated {col_delta} times for {extra_rows} extra \
         rows — its inner loops regressed to per-row allocation"
    );
    assert!(
        residual_delta <= 16,
        "columnar kernel with a typed residual allocated {residual_delta} times for \
         {extra_rows} extra hits — the residual loop regressed to per-row allocation"
    );
    assert!(
        double_delta <= 16,
        "columnar kernel with a Double residual allocated {double_delta} times for \
         {extra_rows} extra hits — the residual filter regressed to per-row allocation"
    );
    assert!(
        dup_delta <= 16,
        "columnar kernel over duplicate base keys allocated {dup_delta} times for \
         {extra_rows} extra hits — the chain sweep regressed to per-row allocation"
    );
    assert!(
        cold_delta <= 16,
        "cold columnar kernel allocated {cold_delta} times for {extra_rows} extra \
         rows — building the key column or the group ids regressed to per-row allocation"
    );
    // Each leg on its own: 4 more leaves may each allocate a few times
    // (a leaf's states and its presence bits), never per
    // absorbed row or tree level.
    for (leg, delta) in ["positional", "Prop 1 positional", "folded", "resident"].iter().zip(merge_deltas) {
        assert!(
            delta <= MERGE_LEG_BOUND,
            "merging 6 sites' answers ({leg}) allocated {delta} times more or fewer than \
             merging 2 over the same {GROUPS} groups — the coordinator merge regressed to \
             per-row or per-level allocation"
        );
    }
    assert!(
        decode_delta == 0,
        "decoding a packed column of 20,000 rows allocated {decode_delta} times more or \
         fewer than one of 2,000 — unpacking regressed to per-value allocation"
    );
    assert!(
        delta_decode_delta == 0,
        "decoding a delta-coded column of 20,000 rows allocated {delta_decode_delta} times \
         more or fewer than one of 2,000 — summing the gaps regressed to per-value allocation"
    );
    assert!(
        double_decode_delta == 0,
        "decoding a packed Double column of 20,000 rows allocated {double_decode_delta} times \
         more or fewer than one of 2,000 — unpacking its bits regressed to per-value allocation"
    );
    assert!(
        answer_delta <= 16,
        "a site's answer over {extra_groups} more groups allocated {answer_delta} times \
         more or fewer — building or encoding it regressed to per-group allocation"
    );
    assert!(
        finish_delta <= 16,
        "MergeSync::finish over {extra_groups} more groups allocated {finish_delta} times \
         more or fewer — finalizing X regressed to per-group allocation"
    );
    assert!(
        chain_delta <= 16,
        "the Thm 5 chain over {extra_groups} more groups allocated {chain_delta} times \
         more or fewer — the site's chain or ChainSync regressed to per-group allocation"
    );
    // Positive control: one box per extra row, so the counter must see
    // at least one allocation per extra row.
    assert!(
        control >= extra_rows,
        "control counted {control} < {extra_rows}: the tracking allocator \
         is not observing per-row allocations"
    );
    println!("probe_alloc guard passed ✓");
}
