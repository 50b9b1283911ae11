#!/usr/bin/env bash
# Local CI: build, test, lint. Run from the repo root. Each tool runs once.
#
#   ./ci.sh          full gate: release build, `cargo test --workspace`
#                    (tier-1 is the root package's share of it), clippy,
#                    rustdoc, bench smokes, TCP smoke tests
#   ./ci.sh --fast   inner-loop subset: release build and clippy — which
#                    carries the panic, wall-clock and hash-order contracts
#                    (docs/STATIC_ANALYSIS.md)
#   ./ci.sh --perf   the end-to-end benchmark (BENCHMARK.json) at the parent
#                    and at the working tree, ten alternated runs each;
#                    fails when `e2e compare` finds a regression. The
#                    parent is HEAD while the tree has uncommitted changes
#                    (a PR not yet committed) and HEAD~1 once it is clean.
#                    Not part of the gate (host noise: the bounds are
#                    ±25%); a PR touching crates/*/src pastes the table
#                    into CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")"

# Parent and change are built from their own sources into their own
# target directories, then the two binaries alternate seed by seed (and
# swap who goes first) so drift on the host lands on both sides.
perf() {
  local wt=target/perf/parent out=target/perf/out e2e=crates/bench/src/bin/e2e/Cargo.toml
  local parent=HEAD~1
  if [[ -n "$(git status --porcelain)" ]]; then parent=HEAD; fi
  echo "ci.sh --perf: parent is $parent = $(git rev-parse "$parent")"
  rm -rf "$out" "$wt"
  mkdir -p "$out" "$wt"
  git archive "$parent" | tar -x -C "$wt"
  cargo build --release --manifest-path "$wt/$e2e" --target-dir target/perf/build-parent
  cargo build --release --manifest-path "$e2e" --target-dir target/perf/build-head
  cp target/perf/build-parent/release/e2e "$out/e2e-parent"
  cp target/perf/build-head/release/e2e "$out/e2e-head"
  local seed side order
  for seed in $(seq 1 10); do
    if (( seed % 2 )); then order="parent head"; else order="head parent"; fi
    for side in $order; do
      echo "ci.sh --perf: seed $seed, $side"
      "$out/e2e-$side" run --trace 0 --seed "$seed" --out "$out/$side-$seed" >/dev/null
    done
  done
  "$out/e2e-head" compare "$out"/parent-*/*.result.json -- "$out"/head-*/*.result.json
}

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
elif [[ "${1:-}" == "--perf" ]]; then
  perf
  echo "ci.sh: no end-to-end metric regressed"
  exit 0
elif [[ -n "${1:-}" ]]; then
  echo "ci.sh: unknown flag '$1' (--fast and --perf are supported)" >&2
  exit 2
fi

cargo build --release
# The hygiene contracts ride clippy: the four panic lints are denied at
# every library crate's root, wall clocks and hash-order iteration at the
# top of the site-busy and wire-order modules (clippy.toml).
cargo clippy --all-targets --workspace -- -D warnings

if [[ "$FAST" == 1 ]]; then
  echo "ci.sh: fast checks passed"
  exit 0
fi
# Tier-1 and every crate's unit tests, once. That every evaluation knob
# (workers, morsel size, semantic cache) and both transports produce the
# oracle's answer is a property test inside it
# (the knob lattice of tests/property_equivalence.rs); that the frame
# catalog in docs/ARCHITECTURE.md is the tag registry is a unit test of
# skalla-core.
cargo test --workspace -q
# Rustdoc must stay warning-clean. The vendored `rand` shim is an API
# stand-in, not our documentation surface, so it is excluded.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude rand
# Allocation guard (plain-main bench, not run by `cargo test`): the
# columnar kernel's group-id probe and typed inner loops allocate nothing
# per probe, cold call included; the coordinator's merge (2 vs 6 sites)
# and its finish, the frame decoders, a site's shipped answer and a
# Thm 5 chain step with its `ChainSync` allocate per column, never per
# row or group.
cargo bench -p skalla-bench --bench probe_alloc
# End-to-end benchmark smoke (BENCHMARK.json): the harness at reduced
# size, so a change that breaks its use of the public API fails here and
# not in the next benchmark run.
cargo run --release -q -p skalla-bench --bin e2e -- run --smoke --out target/e2e-smoke
# The paper's curve shapes (Figs. 2–5) at reduced size: `figs --check` asserts them.
# Every figs time claim is checked on measured wall time over the emulated LAN.
cargo run --release -q -p skalla-bench --bin figs -- --quick --check --repeats 5
# The examples assert what they show (`data_cube` its roll-up against the
# finest level on 8 sites, `quickstart` the paper's Example 1): run them,
# not only compile them.
for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

# Multi-process TCP smoke test: two standalone site processes on ephemeral
# loopback ports, one coordinator run over them. Skipped gracefully in
# sandboxes without loopback sockets (net-probe fails there).
CLI=target/release/skalla-cli
# wait_listening PREFIX I…: give each site whose log is
# "$SMOKE_DIR/PREFIX<I>.log" five seconds to say it is listening.
wait_listening() {
  local log i
  for i in "${@:2}"; do
    log="$SMOKE_DIR/$1$i.log"
    for _ in $(seq 1 50); do
      grep -q 'listening on' "$log" && break
      sleep 0.1
    done
    grep -q 'listening on' "$log" \
      || { echo "ci.sh: $1 $i never came up" >&2; cat "$log" >&2; exit 1; }
  done
}
# same_answer LOG ARG…: the result rows a TCP run wrote to LOG (the CSV
# block after "=== result") must be those of `skalla-cli run ARG…`: the
# same query in process, over the same data options.
result_rows() { sed -n '/^=== result/,/^$/p' "$1"; }
same_answer() {
  local log=$1
  shift
  "$CLI" run "$@" >"$log.local"
  if ! diff <(result_rows "$log") <(result_rows "$log.local") >"$log.diff"; then
    echo "ci.sh: the result rows in $log differ from an in-process run" >&2
    head -20 "$log.diff" >&2
    exit 1
  fi
  echo "ci.sh: the $(sed -n 's/^=== result (\(.*\)) ===$/\1/p' "$log") of $(basename "$log") equal an in-process run's"
}
if "$CLI" net-probe >/dev/null 2>&1; then
  SMOKE_DIR=$(mktemp -d)
  trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
  for i in 0 1; do
    "$CLI" site --listen 127.0.0.1:0 --site-index "$i" --sites 2 \
      --dataset flow --rows 4000 --once >"$SMOKE_DIR/site$i.log" &
  done
  wait_listening site 0 1
  # Anchored: with --metrics-listen a process also prints
  # "metrics listening on …", which a bare 'listening on' sed would catch.
  ADDRS=$(for i in 0 1; do sed -n "s/^site $i listening on //p" "$SMOKE_DIR/site$i.log"; done | paste -sd, -)
  # Telemetry smoke: trace the distributed run (sites always record and
  # ship their deltas back), expose live metrics, and linger so we can
  # probe the endpoint after the query completes.
  "$CLI" run --sites "$ADDRS" --query-file queries/example1.skl --limit 1000000 \
    --trace "$SMOKE_DIR/trace.json" --metrics-listen 127.0.0.1:0 --metrics-linger 10 \
    --slow-query-log "$SMOKE_DIR/slow.jsonl" >"$SMOKE_DIR/run.log" 2>&1 &
  RUN_PID=$!
  for _ in $(seq 1 100); do
    grep -q 'lingering' "$SMOKE_DIR/run.log" && break
    sleep 0.1
  done
  grep -q 'lingering' "$SMOKE_DIR/run.log" \
    || { echo "ci.sh: traced run never reached the linger window" >&2; cat "$SMOKE_DIR/run.log" >&2; exit 1; }
  # The run's log, its result rows elided (same_answer checks them).
  awk '/^=== result/ { print; skip = 1; next } skip && /^$/ { skip = 0 } !skip' "$SMOKE_DIR/run.log"
  METRICS=$(sed -n 's|^metrics listening on http://||p' "$SMOKE_DIR/run.log")
  "$CLI" http-get "http://$METRICS/metrics" >"$SMOKE_DIR/metrics.txt"
  # The scheduler gauges and the query-latency histogram must be exposed.
  grep -q '^skalla_scheduler_admitted_total 1' "$SMOKE_DIR/metrics.txt"
  grep -q '^skalla_scheduler_running' "$SMOKE_DIR/metrics.txt"
  grep -q '^skalla_query_wall_s_count' "$SMOKE_DIR/metrics.txt"
  wait "$RUN_PID"
  wait
  # The slow-query log carries each round's wait seconds over real sockets.
  grep -q '"wait_s"' "$SMOKE_DIR/slow.jsonl"
  same_answer "$SMOKE_DIR/run.log" --dataset flow --rows 4000 --sites 2 \
    --query-file queries/example1.skl --limit 1000000
  # The merged trace must contain real site-side spans from both sites
  # (exported by the site processes over TAG_TELEMETRY), not just
  # coordinator lanes.
  "$CLI" trace-check "$SMOKE_DIR/trace.json" --sites 2
  echo "ci.sh: TCP smoke test passed (sites $ADDRS, metrics at $METRICS)"

  # Concurrent multi-query smoke: 4 sites, 4 copies of the fig2-style
  # query submitted at once over one persistent session per site. The CLI
  # itself verifies the concurrent copies agree on the result, and
  # same_answer that it is the in-process one.
  for i in 0 1 2 3; do
    "$CLI" site --listen 127.0.0.1:0 --site-index "$i" --sites 4 \
      --dataset tpcr --rows 4000 --once >"$SMOKE_DIR/csite$i.log" &
  done
  wait_listening csite 0 1 2 3
  CADDRS=$(for i in 0 1 2 3; do sed -n "s/^site $i listening on //p" "$SMOKE_DIR/csite$i.log"; done | paste -sd, -)
  CQUERY='BASE SELECT DISTINCT cust_group FROM tpcr;
    MD cnt1 = COUNT(*), avg1 = AVG(extended_price) OVER tpcr WHERE cust_group = b.cust_group;
    MD cnt2 = COUNT(*) OVER tpcr WHERE cust_group = b.cust_group AND extended_price >= b.avg1;'
  "$CLI" run --sites "$CADDRS" --concurrency 4 --limit 1000000 -q "$CQUERY" >"$SMOKE_DIR/crun.log"
  wait
  same_answer "$SMOKE_DIR/crun.log" --dataset tpcr --rows 4000 --sites 4 --limit 1000000 -q "$CQUERY"
  echo "ci.sh: concurrent TCP smoke test passed (4 queries over sites $CADDRS)"

  # Resident-round smoke: 4 fresh sites of the same shape, the chain
  # grouped on part_key, which no site's partition bounds. Round 1 folds
  # and round 2 ships each site only its own parts, keyless, so 4
  # concurrent queries each keep held rows across two rounds in the site
  # processes.
  for i in 0 1 2 3; do
    "$CLI" site --listen 127.0.0.1:0 --site-index "$i" --sites 4 \
      --dataset tpcr --rows 4000 --once >"$SMOKE_DIR/rsite$i.log" &
  done
  wait_listening rsite 0 1 2 3
  RADDRS=$(for i in 0 1 2 3; do sed -n "s/^site $i listening on //p" "$SMOKE_DIR/rsite$i.log"; done | paste -sd, -)
  RQUERY='BASE SELECT DISTINCT part_key FROM tpcr;
    MD cnt1 = COUNT(*), avg1 = AVG(extended_price) OVER tpcr WHERE part_key = b.part_key;
    MD cnt2 = COUNT(*) OVER tpcr WHERE part_key = b.part_key AND extended_price >= b.avg1;'
  "$CLI" run --sites "$RADDRS" --concurrency 4 --limit 1000000 -q "$RQUERY" >"$SMOKE_DIR/rrun.log"
  wait
  same_answer "$SMOKE_DIR/rrun.log" --dataset tpcr --rows 4000 --sites 4 --limit 1000000 -q "$RQUERY"
  echo "ci.sh: resident-round TCP smoke test passed (4 queries over sites $RADDRS)"
else
  echo "ci.sh: loopback sockets unavailable, skipping TCP smoke tests"
fi

echo "ci.sh: all checks passed"
