#!/usr/bin/env bash
# Tier-1 verification, runnable fully offline (the workspace has no
# registry dependencies: `proptest` is vendored in crates/proptest and
# randomness comes from the in-tree numkit::rng).
#
#   scripts/verify.sh
#
# Runs: release build, the full test suite (plus the cross-engine
# agreement and engine bit-identity gates explicitly), the wsn_perf
# benchmark's own tests, rustfmt in check mode, clippy with warnings
# denied and rustdoc with warnings denied (the workspace carries
# `#![warn(missing_docs)]`). Fails on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

# named_tests CARGO_TEST_ARGS... -- NAME...: runs exactly the tests whose
# full paths are the NAMEs (`--exact`) and fails unless every one of them
# ran and passed. A bare name filter that matches nothing runs 0 tests
# and exits 0, so a renamed or deleted test would silently empty its gate.
named_tests() {
  local args=()
  while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
    args+=("$1")
    shift
  done
  shift
  local out passed
  if ! out="$(cargo test -q --offline "${args[@]}" -- --exact "$@" 2>&1)"; then
    printf '%s\n' "$out" >&2
    return 1
  fi
  passed="$(printf '%s\n' "$out" \
    | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' \
    | awk '{ s += $1 } END { print s + 0 }')"
  if [ "$passed" -ne "$#" ]; then
    printf '%s\n' "$out" >&2
    echo "verify: $passed of $# named tests ran in ${args[*]}: $*" >&2
    return 1
  fi
}

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test --offline =="
cargo test -q --offline

echo "== cargo test cross_engine (envelope vs full co-simulation) =="
cargo test -q --offline -p wsn-dse --test cross_engine

echo "== engine gate: steady-state solver, envelope and full-engine outputs pinned =="
# The harvester solve must stay bit-identical to the original 80-step
# bisection, from any guess it is seeded with, and envelope outputs over
# Table V and short full-engine runs (RK4 between scheduled events,
# retuning, faults) to their pinned bits. The oracle solves every point
# again from good, bad and invalid guesses, and
# engine_walks_seeded_from_the_last_answer_are_bit_identical seeds each
# solve of a store-voltage walk as the envelope engine does. The solve
# replays that bisection, skipping the residual far from the root: the
# rounding noise of the residual's sign must stay far inside the
# replay's margin, a conducting solve within its evaluation budget, and
# a seeded one within its smaller budget.
cargo test -q --offline -p harvester --test steady_state_oracle
named_tests -p harvester --test steady_state_oracle -- \
  engine_walks_seeded_from_the_last_answer_are_bit_identical
named_tests -p harvester --lib -- \
  generator::tests::residual_sign_noise_stays_far_inside_the_margin \
  generator::tests::conducting_solves_make_at_most_30_residual_evaluations \
  generator::tests::seeded_solves_along_a_store_voltage_walk_make_at_most_19_evaluations
cargo test -q --offline -p wsn-node --test envelope_pin
cargo test -q --offline -p wsn-node --test fullsim_pin

echo "== optimiser gate: SA and GA trajectories pinned and equal to the original kernels =="
# Both optimisers of the flow's step keep their pinned trajectories, and
# agree bit for bit with their first implementations, kept verbatim in
# the oracle test, over seeds, dimensions, boxes, objective shapes and
# settings. The annealer skips the Box–Muller transform where the clamp
# decides a coordinate; its sign test must agree with the transform's
# sign around the bands it leaves to the transform.
named_tests -p optim --test trajectory_pin -- \
  simulated_annealing_trajectories_are_pinned \
  genetic_algorithm_trajectories_are_pinned
named_tests -p optim --test kernel_oracle -- \
  simulated_annealing_matches_the_original \
  genetic_algorithm_matches_the_original \
  default_runs_match_the_original \
  breed_matches_the_original \
  normal_matches_the_original
named_tests -p optim --lib -- \
  sa::tests::the_skip_agrees_with_the_sign_of_the_transform \
  sa::tests::exp_is_zero_below_the_underflow_cut \
  sa::tests::searches_when_the_centre_is_not_finite

echo "== fault-injection gate: determinism + nominal preservation =="
named_tests -p wsn-dse --test determinism -- \
  fault_injected_report_is_bit_identical_at_any_job_count \
  nominal_fault_plan_reproduces_the_baseline_report
named_tests -p wsn-node --lib -- \
  envelope::tests::nominal_plan_reproduces_the_fault_free_run \
  fullsim::tests::nominal_plan_reproduces_the_fault_free_run

echo "== fault-injection gate: partial batches never poison the cache =="
named_tests -p wsn-dse --lib -- \
  pool::tests::partial_batch_isolates_failures_and_keeps_cache_clean \
  pool::tests::panicking_evaluations_are_caught_and_reported \
  pool::tests::transient_failures_are_retried_within_the_batch

echo "== network gate: channel invariants + fleet reduction =="
cargo test -q --offline -p wsn-net --test channel_props
cargo test -q --offline -p wsn-net --test network

echo "== network gate: bit-identical fleet report at --jobs 1/2/8 =="
FLEET_ARGS="network --nodes 16 --horizon 900 --clock 8e6 --watchdog 60 \
  --interval 0.005 --json"
FLEET_DIR="$(mktemp -d)"
SERVE_PID=""
trap 'if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi; \
  rm -rf "$FLEET_DIR"' EXIT
for jobs in 1 2 8; do
  # shellcheck disable=SC2086
  target/release/wsn_dse $FLEET_ARGS --jobs "$jobs" > "$FLEET_DIR/jobs$jobs.json"
done
cmp "$FLEET_DIR/jobs1.json" "$FLEET_DIR/jobs2.json"
cmp "$FLEET_DIR/jobs1.json" "$FLEET_DIR/jobs8.json"

echo "== report gate: DSE, fleet and chaos-ladder outputs pinned; naive arbitration oracle =="
# Computed DSE and fleet reports and the chaos ladders keep their pinned
# hashes; the naive sweep reproduces every node's channel verdict.
cargo test -q --offline -p wsn-dse --test report_pin
cargo test -q --offline -p wsn-net --test report_pin

echo "== linalg gate: stack storage matches the heap reference =="
cargo test -q --offline -p numkit --test linalg_backends

echo "== determinism gate: bit-identical DSE report at --jobs 1/2/8 =="
for jobs in 1 2 8; do
  target/release/wsn_dse run --horizon 900 --json --jobs "$jobs" \
    > "$FLEET_DIR/dse-$jobs.json"
done
cmp "$FLEET_DIR/dse-1.json" "$FLEET_DIR/dse-2.json"
cmp "$FLEET_DIR/dse-1.json" "$FLEET_DIR/dse-8.json"

echo "== linalg gate: hot-path bench smoke (asserts batch scoring agreement) =="
target/release/linalg_hot_path --quick --out "$FLEET_DIR/BENCH_linalg.json"

echo "== pareto gate: NSGA-II invariants + flow determinism =="
cargo test -q --offline -p wsn-pareto

echo "== pareto gate: bit-identical front report at --jobs 1/2/8 =="
PARETO_ARGS="pareto --horizon 900 --json"
for jobs in 1 2 8; do
  # shellcheck disable=SC2086
  target/release/wsn_dse $PARETO_ARGS --jobs "$jobs" \
    > "$FLEET_DIR/pareto-jobs$jobs.json"
done
cmp "$FLEET_DIR/pareto-jobs1.json" "$FLEET_DIR/pareto-jobs2.json"
cmp "$FLEET_DIR/pareto-jobs1.json" "$FLEET_DIR/pareto-jobs8.json"
# The adaptive driver and the fleet flow obey the same discipline.
for jobs in 1 8; do
  # shellcheck disable=SC2086
  target/release/wsn_dse $PARETO_ARGS --adaptive --budget 14 --jobs "$jobs" \
    > "$FLEET_DIR/pareto-adaptive$jobs.json"
  target/release/wsn_dse pareto --fleet --nodes 3 --horizon 900 --json \
    --jobs "$jobs" > "$FLEET_DIR/pareto-fleet$jobs.json"
done
cmp "$FLEET_DIR/pareto-adaptive1.json" "$FLEET_DIR/pareto-adaptive8.json"
cmp "$FLEET_DIR/pareto-fleet1.json" "$FLEET_DIR/pareto-fleet8.json"

echo "== pareto gate: convergence bench smoke (adaptive beats the fixed plan) =="
target/release/pareto_convergence --quick --out "$FLEET_DIR/BENCH_pareto.json"

echo "== pareto gate: NSGA-II matches its oracle; fronts pinned =="
# NSGA-II must agree bit for bit with the original implementation kept
# in the oracle test, and Pareto reports at the 900 s horizon with their
# pinned hashes. A full convergence run (single-node and 4-axis fleet
# objectives, ~0.2 s) must reproduce the committed BENCH_pareto.json.
cargo test -q --offline -p wsn-pareto --test nsga_oracle
cargo test -q --offline -p wsn-pareto --test front_pin
target/release/pareto_convergence --out "$FLEET_DIR/BENCH_pareto-full.json"
cmp "$FLEET_DIR/BENCH_pareto-full.json" BENCH_pareto.json

echo "== robustness gate: chaos harness + corrupted-cache recovery =="
cargo test -q --offline -p wsn-dse --test chaos
named_tests -p wsn-dse --lib -- \
  persist::tests::every_single_byte_flip_is_caught \
  persist::tests::every_truncation_is_safe \
  persist::tests::garbage_file_is_fully_quarantined \
  pool::tests::poisoned_cache_mutex_recovers_instead_of_cascading

echo "== robustness gate: warm cache run is byte-identical to cold =="
CACHE_DIR="$FLEET_DIR/evalcache"
strip_cache() { sed -E 's/"cache":\{[^}]*\},?//' "$1"; }
# The pareto flow shares the persistent cache discipline: a warm rerun
# must reproduce the cold report outside the cache counters.
# shellcheck disable=SC2086
target/release/wsn_dse $PARETO_ARGS --jobs 2 \
  --cache-dir "$FLEET_DIR/paretocache" > "$FLEET_DIR/pareto-cold.json"
# shellcheck disable=SC2086
target/release/wsn_dse $PARETO_ARGS --jobs 8 \
  --cache-dir "$FLEET_DIR/paretocache" > "$FLEET_DIR/pareto-warm.json"
cmp <(strip_cache "$FLEET_DIR/pareto-cold.json") \
    <(strip_cache "$FLEET_DIR/pareto-warm.json")
cmp <(strip_cache "$FLEET_DIR/pareto-cold.json") \
    <(strip_cache "$FLEET_DIR/pareto-jobs1.json")
target/release/wsn_dse run --horizon 900 --json --jobs 2 \
  --cache-dir "$CACHE_DIR" > "$FLEET_DIR/cache-cold.json"
target/release/wsn_dse run --horizon 900 --json --jobs 8 \
  --cache-dir "$CACHE_DIR" > "$FLEET_DIR/cache-warm.json"
# Outside the (intentionally warmth-dependent) cache counters, the warm
# report must match the cold one byte for byte — and the cold report must
# match the uncached baseline produced by the determinism gate above.
cmp <(strip_cache "$FLEET_DIR/cache-cold.json") \
    <(strip_cache "$FLEET_DIR/cache-warm.json")
cmp <(strip_cache "$FLEET_DIR/cache-cold.json") \
    <(strip_cache "$FLEET_DIR/dse-1.json")
grep -q '"disk_loads":0' "$FLEET_DIR/cache-cold.json"
if grep -o '"disk_loads":[0-9]*' "$FLEET_DIR/cache-warm.json" \
    | grep -q '"disk_loads":0$'; then
  echo "verify: warm cache run loaded nothing from disk" >&2
  exit 1
fi

echo "== robustness gate: chaos storm completes with degraded service, reproducibly at --jobs 1 =="
target/release/wsn_dse chaos --points 24 --horizon 600 --chaos-rate 0.35 \
  --eval-retries 2 --json > "$FLEET_DIR/chaos.json"
if grep -o '"degraded_served":[0-9]*' "$FLEET_DIR/chaos.json" \
    | grep -q '"degraded_served":0$'; then
  echo "verify: chaos storm exercised no degraded tier" >&2
  exit 1
fi
grep -q '"degraded_served":' "$FLEET_DIR/chaos.json"
# Its breakers see completion order, so the storm reproduces at --jobs 1.
for run in a b; do
  target/release/wsn_dse chaos --points 24 --horizon 600 --chaos-rate 0.35 \
    --eval-retries 2 --json --jobs 1 > "$FLEET_DIR/chaos-jobs1-$run.json"
done
cmp "$FLEET_DIR/chaos-jobs1-a.json" "$FLEET_DIR/chaos-jobs1-b.json"

echo "== serving gate: protocol codec + socket suite + chaos soak =="
cargo test -q --offline -p wsn-dse --test protocol_props
cargo test -q --offline -p wsn-net --test serve
cargo test -q --offline -p wsn-net --test serve_soak

echo "== serving gate: served reports are byte-identical to the CLI =="
ADDR_FILE="$FLEET_DIR/serve.addr"
target/release/wsn_dse serve --addr 127.0.0.1:0 --addr-file "$ADDR_FILE" \
  --cache-dir "$FLEET_DIR/servecache" > "$FLEET_DIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$ADDR_FILE" ] && break
  sleep 0.1
done
[ -s "$ADDR_FILE" ] || { echo "verify: wsn-serve never announced its address" >&2; exit 1; }
ADDR="$(cat "$ADDR_FILE")"
# served_equals_cli ARGS...: the served report of a job equals
# `wsn_dse ARGS --json` byte for byte; single-node run and pareto
# reports outside their shared-cache counters.
served_equals_cli() {
  target/release/wsn_dse "$@" --json > "$FLEET_DIR/cli.json"
  target/release/wsn_client --addr "$ADDR" "$@" > "$FLEET_DIR/served.json"
  case "$1" in
    run | pareto) cmp <(strip_cache "$FLEET_DIR/served.json") \
                      <(strip_cache "$FLEET_DIR/cli.json") ;;
    *) cmp "$FLEET_DIR/served.json" "$FLEET_DIR/cli.json" ;;
  esac
}
# Every job type, including the channel, topology, fault and adaptive
# options a server once ignored.
served_equals_cli run --horizon 900
served_equals_cli simulate --clock 125000 --watchdog 60 --interval 0.005 --horizon 900
served_equals_cli faults --horizon 900 --fault-seed 3 --fault-rate 0.2
# Every realisation sends nothing: the ratios are null, not inf/NaN.
served_equals_cli faults --horizon 600 --fault-rate 1
served_equals_cli network --nodes 4 --horizon 600 --grid-pitch 30 --interference 20 \
  --delivery 50
served_equals_cli network --nodes 4 --horizon 900 --dse
served_equals_cli pareto --horizon 900
served_equals_cli pareto --fleet --nodes 3 --horizon 900
served_equals_cli pareto --horizon 600 --fault-seed 3 --fault-rate 0.2
served_equals_cli pareto --fleet --nodes 3 --horizon 600 --slot 0.05 --adaptive
# Warm pass: the same answer again, now served from the shared cache
# and, for the D-optimal design and the SA/GA optima, the step memo.
# Options may precede the command, values included.
# stats_hits SECTION FILE: the hits of a stats frame's "cache" or "memo"
# object (fails when the object is missing).
stats_hits() { grep -o "\"$1\":{\"entries\":[0-9]*,\"hits\":[0-9]*" "$2" | sed 's/.*://'; }
target/release/wsn_client --addr "$ADDR" stats > "$FLEET_DIR/serve-stats-cold.json"
MEMO_HITS_COLD="$(stats_hits memo "$FLEET_DIR/serve-stats-cold.json")"
target/release/wsn_client --id warm --timeout-ms 600000 --addr "$ADDR" run --horizon 900 \
  > "$FLEET_DIR/served-run-warm.json"
cmp <(strip_cache "$FLEET_DIR/served-run-warm.json") \
    <(strip_cache "$FLEET_DIR/dse-1.json")
target/release/wsn_client --addr "$ADDR" stats > "$FLEET_DIR/serve-stats.json"
CACHE_HITS="$(stats_hits cache "$FLEET_DIR/serve-stats.json")"
MEMO_HITS="$(stats_hits memo "$FLEET_DIR/serve-stats.json")"
[ "$CACHE_HITS" -gt 0 ] || { echo "verify: warm served run never hit the shared cache" >&2; exit 1; }
[ "$MEMO_HITS" -ge $((MEMO_HITS_COLD + 2)) ] || {
  echo "verify: warm served run took its design and optima from no memo" >&2
  exit 1
}

echo "== serving gate: unknown options and missing values are errors =="
# must_reject OPTION CMD...: CMD exits non-zero, prints nothing on
# stdout and names OPTION in its error.
must_reject() {
  local option="$1"
  shift
  if "$@" > "$FLEET_DIR/rejected.out" 2> "$FLEET_DIR/rejected.err"; then
    echo "verify: accepted a bad command line: $*" >&2
    exit 1
  fi
  [ ! -s "$FLEET_DIR/rejected.out" ] || { echo "verify: stdout from: $*" >&2; exit 1; }
  grep -qF -- "$option" "$FLEET_DIR/rejected.err"
}
must_reject --hoirzon target/release/wsn_dse simulate --hoirzon 60
must_reject --linalg target/release/wsn_dse run --linalg bogus
must_reject --seed target/release/wsn_dse run --seed
must_reject --bogus target/release/wsn_client --addr "$ADDR" run --bogus
target/release/wsn_client --addr "$ADDR" shutdown > /dev/null
wait "$SERVE_PID"
SERVE_PID=""

echo "== cache gate: plain and DSE network runs and refine reuse --cache-dir byte-identically =="
# A cold and then a warm run with --cache-dir each equal the uncached
# output byte for byte and leave the v2 cache file behind. `refine`
# (text output) runs its second phase on the first phase's pool, so the
# warm run reads both phases from the directory.
FLEET_DSE_ARGS="network --nodes 4 --horizon 900 --dse --json"
REFINE_ARGS="refine --horizon 900"
# shellcheck disable=SC2086
target/release/wsn_dse $FLEET_DSE_ARGS > "$FLEET_DIR/fleet-dse.json"
# shellcheck disable=SC2086
target/release/wsn_dse $REFINE_ARGS > "$FLEET_DIR/refine.json"
for gate in "jobs1:$FLEET_ARGS" "fleet-dse:$FLEET_DSE_ARGS" "refine:$REFINE_ARGS"; do
  name="${gate%%:*}"
  for pass in cold warm; do
    # shellcheck disable=SC2086
    target/release/wsn_dse ${gate#*:} --cache-dir "$FLEET_DIR/$name-cache" \
      > "$FLEET_DIR/$name-$pass.json"
    cmp "$FLEET_DIR/$name-$pass.json" "$FLEET_DIR/$name.json"
  done
  [ -f "$FLEET_DIR/$name-cache/evalcache.v2.bin" ]
done

echo "== serving gate: an ignored --cache-dir warns in structured JSON =="
target/release/wsn_dse simulate --horizon 600 --json --cache-dir "$FLEET_DIR/nevercache" \
  > /dev/null 2> "$FLEET_DIR/cache-warning.log"
grep -q '"warning":"cache_dir_ignored","context":"simulate"' "$FLEET_DIR/cache-warning.log"
[ ! -e "$FLEET_DIR/nevercache" ] || { echo "verify: an ignored cache dir was created" >&2; exit 1; }

echo "== serving gate: load bench smoke (asserts warm hit rate > 90%, warm p50 >= 3x faster) =="
target/release/serve_load --quick --out "$FLEET_DIR/BENCH_serve.json"

echo "== benchmark gate: wsn_perf unit tests and smoke runs of every workload =="
# A package outside the workspace, so root `cargo test` skips it. Its
# smoke runs check every served payload against the library's answer.
cargo test --release --offline --manifest-path crates/bench/src/bin/wsn_perf/Cargo.toml

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --quiet

echo "verify: all checks passed"
