#!/usr/bin/env bash
# Repo verification gate: tier-1 suite plus the sanitizer jobs that guard
# the concurrency paths (docs/INTERNALS.md, "Threading model & sanitizers").
#
# Usage:  scripts/check.sh [tier1|release|tsan|asan|stress|crash|subs|
#                           figures|bench-smoke|net-smoke|ops-smoke|all]
#                           (default: all)
#
# Jobs (each one is what CI runs as a separate job):
#   tier1       - every perf-gate baseline is tracked by git, then the
#                 plain RelWithDebInfo build and the full ctest suite
#   release     - compile only: every target (tests, benches, examples,
#                 tools) at Release (-O3) with -Werror, so diagnostics that
#                 only the optimizer emits fail too; runs no ctest
#   tsan        - ThreadSanitizer build, full suite + stress harness, time-boxed
#   asan        - ASan+UBSan build, full suite + stress harness, time-boxed
#   stress      - just `ctest -L stress` under both sanitizers (quick race gate)
#   crash       - `ctest -L crash`: the crash-recovery differential oracle
#                 (docs/INTERNALS.md, "Durability"). Forks the durable store,
#                 kills it at every WAL/segment crash point plus a fixed seed
#                 matrix of random points, and proves recovery loses no acked
#                 record and answers queries identically. Then the CLI round
#                 trip: `experiment --shards 2 --durable-dir D`, `recover
#                 --shards 2` must report records, `recover --shards 1` must
#                 fail, and D must hold no top-level wal.log.
#   subs        - `ctest -L subs`: the continuous-query suite
#                 (docs/INTERNALS.md, "Continuous queries") — the
#                 standing-query differential oracle (seeded stream vs a
#                 brute-force reference, byte-identical folded delta
#                 streams across every policy and shard count, including
#                 audit-asserted member evictions with disk-backed
#                 refill), the 500-seed delta-fold property test, and the
#                 SubscriptionManager units. Runs at the default shard
#                 count, then again at KFLUSH_TEST_SHARDS=1, then the
#                 subscription-overhead bench whose artifact carries the
#                 zero-subscription perf gate (<= 2% vs no-manager,
#                 enforced by scripts/validate_bench_json.py).
#   figures     - the paper-shaped outputs must not move: builds the
#                 default preset, reruns every figure bench at
#                 KFLUSH_BENCH_SCALE=0.1 and `kflushctl compare
#                 --memory-mb 8 --queries 3000` at 1 and 4 shards, and
#                 diffs each stdout byte for byte against bench/golden/.
#                 Then the query path's exact outputs: `perfbench/run.py
#                 --workload query_replay --seed 1 --seconds 10 --trace 1`,
#                 its answer, hit and disk-traffic metrics written one
#                 `name value` per line at full precision, diffed the same
#                 way. A change that moves a row on purpose regenerates
#                 them and says why in CHANGES.md:
#                   KFLUSH_BENCH_OUT=D scripts/check.sh figures
#                   cp D/figures/*.txt bench/golden/
#   bench-smoke - tiny-scale bench_snapshot run; validates the BENCH_*.json
#                 metrics artifact schema with scripts/validate_bench_json.py
#                 (including the flush-cycle identity: every
#                 flush.stage_micros.{select,index,drop,drain} count equals
#                 flush.cycles and the four sums add up to the
#                 flush.cycle_micros sum; and the query identity: every
#                 query.stage_micros.{postings,disk,merge,materialize}
#                 count equals query.executed and the four sums add up to
#                 the query.latency_micros.* sums), then a traced
#                 bench_fig5_memory_behavior run validated with
#                 scripts/validate_trace_json.py. Artifacts land in
#                 KFLUSH_BENCH_OUT (default: a temp dir) so CI can upload them.
#   net-smoke   - the network front-end over real loopback TCP
#                 (docs/INTERNALS.md, "Networking"): a tiny in-process
#                 bench_net_load run (validates BENCH_net_load.json — zero
#                 silent drops, offered == acked + skipped + nacked), then
#                 the external loop: `kflushctl serve` in the background,
#                 driven by bench_net_load --connect with a protocol
#                 Shutdown at the end; the serve process must exit 0 after
#                 verifying its own accounting.
#   ops-smoke   - the live ops surface (docs/OBSERVABILITY.md): serve in
#                 the background, readiness via `kflushctl health`, real
#                 load, then a kStatsProm scrape linted with
#                 scripts/validate_prometheus.py, `kflushctl top --once`
#                 with the stage counts cross-checked against
#                 net.ingest_acks, and a protocol shutdown that must
#                 drain and exit 0. Artifacts (scrape, top output, serve
#                 log) land in KFLUSH_BENCH_OUT.
#
# The stress harness derives all RNG streams from one base seed; on failure
# we print how to replay it. Override with KFLUSH_STRESS_SEED=<seed>.
set -u
cd "$(dirname "$0")/.."

JOBS="${KFLUSH_BUILD_JOBS:-$(nproc)}"
# Time-box per sanitizer ctest invocation (TSan runs ~5-15x slower).
STRESS_TIMEOUT="${KFLUSH_STRESS_TIMEOUT:-3600}"
# The committed ratchet files the perf gates compare against (--baseline).
INSERT_GATE_BASELINE=bench/baselines/BENCH_baseline.json
# The figure outputs the figures job pins, one golden per bench/golden/
# file: each figure bench, then `kflushctl compare` at each shard count.
FIGURE_BENCHES=(bench_fig5_memory_behavior bench_fig7_kfilled
                bench_fig8_hit_correlated bench_fig9_hit_uniform
                bench_fig11_spatial bench_fig12_user bench_ablation)
FIGURE_COMPARE_SHARDS=(1 4)
# The per-layer metrics of the traced query_replay run that must repeat
# exactly: the answers, the hit ratios, and the disk and index traffic.
QUERY_REPLAY_GOLDEN=bench/golden/perfbench_query_replay_seed1.txt
QUERY_REPLAY_METRICS=(hit_ratio query.hit_ratio.single query.hit_ratio.and
                      query.hit_ratio.or query.results_per_query
                      query.answer_digest disk.term_reads_per_query
                      disk.postings_read_per_result
                      disk.records_read_per_query index.kfilled_terms
                      flush.cycles route.copies_per_tweet)
GOLDENS=()
for b in "${FIGURE_BENCHES[@]}"; do GOLDENS+=("bench/golden/${b}.txt"); done
for s in "${FIGURE_COMPARE_SHARDS[@]}"; do
  GOLDENS+=("bench/golden/kflushctl_compare_shards${s}.txt")
done
GOLDENS+=("${QUERY_REPLAY_GOLDEN}")
GATE_BASELINES=("${INSERT_GATE_BASELINE}" "${GOLDENS[@]}")
FAILED=()

note() { printf '\n== %s ==\n' "$*"; }

replay_hint() {
  echo "stress harness failed: look for '[stress] base seed' above;"
  echo "replay with  KFLUSH_STRESS_SEED=<seed> ctest --test-dir $1 -L stress"
}

build() {  # build <preset>
  cmake --preset "$1" && cmake --build --preset "$1" -j "${JOBS}"
}

run_ctest() {  # run_ctest <builddir> <label: all|stress>
  local dir="$1" what="$2" rc
  if [ "${what}" = stress ]; then
    timeout "${STRESS_TIMEOUT}" ctest --test-dir "${dir}" -L stress \
        --output-on-failure
  else
    timeout "${STRESS_TIMEOUT}" ctest --test-dir "${dir}" --output-on-failure
  fi
  rc=$?
  if [ ${rc} -eq 124 ]; then
    echo "ctest in ${dir} exceeded the ${STRESS_TIMEOUT}s time box"
  fi
  return ${rc}
}

# A baseline or golden that exists only in one working tree (or that
# .gitignore swallows) leaves its gate dead on a fresh clone: fail on any
# that git does not track.
check_gate_baselines_tracked() {
  local file rc=0
  for file in "${GATE_BASELINES[@]}"; do
    if ! git ls-files --error-unmatch "${file}" >/dev/null 2>&1; then
      echo "gate baseline ${file} is not tracked by git"
      rc=1
    fi
  done
  return ${rc}
}

job_tier1() {
  note "tier1: perf-gate baselines and figure goldens are committed"
  check_gate_baselines_tracked || return 1
  note "tier1: plain build + full suite"
  build default && run_ctest build all || return 1
  # Shard matrix: the full suite above ran the `shards` label (routing
  # goldens, merge property tests, differential oracle) at the default
  # KFLUSH_TEST_SHARDS=4; re-run it at 1 shard so the degenerate
  # single-shard deployment stays oracle-identical too.
  note "tier1: shard matrix (KFLUSH_TEST_SHARDS=1)"
  KFLUSH_TEST_SHARDS=1 timeout "${STRESS_TIMEOUT}" \
      ctest --test-dir build -L shards --output-on-failure
}

job_release() {
  note "release: every target at -O3 with -Werror (compile only)"
  build release
}

job_tsan() {
  note "tsan: ThreadSanitizer build + full suite (incl. stress harness)"
  build tsan && run_ctest build-tsan all || { replay_hint build-tsan; return 1; }
}

job_asan() {
  note "asan: ASan+UBSan build + full suite (incl. stress harness)"
  build asan && run_ctest build-asan all || { replay_hint build-asan; return 1; }
}

job_stress() {
  note "stress: race harness only, under TSan then ASan+UBSan"
  { build tsan && run_ctest build-tsan stress; } \
      || { replay_hint build-tsan; return 1; }
  { build asan && run_ctest build-asan stress; } \
      || { replay_hint build-asan; return 1; }
}

job_crash() {
  note "crash: crash-recovery differential oracle (ctest -L crash)"
  # The oracle's kill-point matrix is seeded from a fixed base inside the
  # test (kSeedBase), so failures replay exactly with
  #   ctest --test-dir build -L crash -R <failing param>
  build default || return 1
  timeout "${STRESS_TIMEOUT}" ctest --test-dir build -L crash \
      --output-on-failure || return 1
  # CLI round trip: `recover` reads the per-shard layout `experiment`
  # (and `serve`) write, and refuses a different shard count without
  # creating anything.
  note "crash: experiment --shards 2 -> recover --shards 2 / 1"
  local dir out records
  dir="$(mktemp -d)/durable"
  ./build/tools/kflushctl experiment --shards 2 --durable-dir "${dir}" \
      --memory-mb 1 --queries 100 --vocab 2000 --users 500 >/dev/null \
      || return 1
  out="$(./build/tools/kflushctl recover --durable-dir "${dir}" \
      --shards 2)" || { echo "recover --shards 2 failed"; return 1; }
  echo "${out}" | head -1
  records="$(echo "${out}" | head -1 | sed -n 's/.*: \([0-9]*\) records$/\1/p')"
  if [ -z "${records}" ] || [ "${records}" -le 0 ]; then
    echo "recover --shards 2 recovered no records"; return 1
  fi
  if ./build/tools/kflushctl recover --durable-dir "${dir}" --shards 1 \
      >/dev/null 2>&1; then
    echo "recover --shards 1 opened a 2-shard directory"; return 1
  fi
  if [ -e "${dir}/wal.log" ]; then
    echo "recover left a top-level wal.log in a sharded directory"; return 1
  fi
  rm -rf "$(dirname "${dir}")"
}

job_subs() {
  note "subs: continuous-query oracle + fold property tests (ctest -L subs)"
  build default || return 1
  timeout "${STRESS_TIMEOUT}" ctest --test-dir build -L subs \
      --output-on-failure || return 1
  # Shard matrix: the oracle's fan-out merge must stay reference-identical
  # on a degenerate single-shard deployment too.
  note "subs: shard matrix (KFLUSH_TEST_SHARDS=1)"
  KFLUSH_TEST_SHARDS=1 timeout "${STRESS_TIMEOUT}" \
      ctest --test-dir build -L subs --output-on-failure || return 1
  # Subscription-overhead bench: the artifact carries the
  # bench.zero_sub_overhead_bps perf gate the validator enforces.
  note "subs: subscription-overhead bench + artifact gate"
  local out scale
  cmake --build build -j "${JOBS}" --target bench_subscriptions || return 1
  out="${KFLUSH_BENCH_OUT:-$(mktemp -d)}"
  mkdir -p "${out}"
  scale="${KFLUSH_BENCH_SCALE:-0.05}"
  KFLUSH_BENCH_SCALE="${scale}" KFLUSH_BENCH_OUT="${out}" \
      ./build/bench/bench_subscriptions || return 1
  python3 scripts/validate_bench_json.py \
      "${out}/BENCH_subscriptions.json"
}

job_figures() {
  note "figures: paper-figure outputs vs bench/golden, byte for byte"
  local out b s golden rc=0
  build default || return 1
  out="${KFLUSH_BENCH_OUT:-$(mktemp -d)}/figures"
  mkdir -p "${out}"
  for b in "${FIGURE_BENCHES[@]}"; do
    KFLUSH_BENCH_SCALE=0.1 KFLUSH_BENCH_OUT="${out}" \
        "./build/bench/${b}" > "${out}/${b}.txt" || return 1
  done
  for s in "${FIGURE_COMPARE_SHARDS[@]}"; do
    ./build/tools/kflushctl compare --memory-mb 8 --queries 3000 \
        --shards "${s}" > "${out}/kflushctl_compare_shards${s}.txt" \
        || return 1
  done
  # run.py prints its result as one JSON object on the last line.
  python3 perfbench/run.py --workload query_replay --seed 1 --seconds 10 \
      --trace 1 > "${out}/perfbench_query_replay.out" || return 1
  tail -n 1 "${out}/perfbench_query_replay.out" | python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
for name in sys.argv[1:]:
    print(name, json.dumps(metrics[name]["value"]))
' "${QUERY_REPLAY_METRICS[@]}" \
      > "${out}/$(basename "${QUERY_REPLAY_GOLDEN}")" || return 1
  for golden in "${GOLDENS[@]}"; do
    diff -u "${golden}" "${out}/$(basename "${golden}")" || rc=1
  done
  if [ ${rc} -ne 0 ]; then
    echo "figure outputs moved; if on purpose: cp ${out}/*.txt bench/golden/"
    echo "and say why in CHANGES.md"
  fi
  return ${rc}
}

job_bench_smoke() {
  note "bench-smoke: tiny bench runs + BENCH_*.json and trace schema checks"
  local out scale
  build default && cmake --build build -j "${JOBS}" \
      --target bench_snapshot bench_fig5_memory_behavior \
               bench_shard_scaling bench_micro || return 1
  out="${KFLUSH_BENCH_OUT:-$(mktemp -d)}"
  mkdir -p "${out}"
  scale="${KFLUSH_BENCH_SCALE:-0.05}"
  KFLUSH_BENCH_SCALE="${scale}" KFLUSH_BENCH_OUT="${out}" \
      ./build/bench/bench_snapshot || return 1
  KFLUSH_BENCH_SCALE="${scale}" KFLUSH_BENCH_OUT="${out}" \
      ./build/bench/bench_shard_scaling || return 1
  # Digestion perf gate: per-insert CPU cost vs the committed ratchet
  # baseline (bench/baselines/). Fails on >10% regression per policy.
  KFLUSH_BENCH_SCALE="${scale}" KFLUSH_BENCH_OUT="${out}" \
      ./build/bench/bench_micro --breakdown || return 1
  python3 scripts/validate_bench_json.py \
      --baseline "${INSERT_GATE_BASELINE}" \
      "${out}"/BENCH_*.json || return 1
  KFLUSH_BENCH_SCALE="${scale}" KFLUSH_BENCH_OUT="${out}" \
      ./build/bench/bench_fig5_memory_behavior \
      --trace-out "${out}/trace_fig5.json" || return 1
  python3 scripts/validate_trace_json.py "${out}/trace_fig5.json"
}

job_net_smoke() {
  note "net-smoke: loopback load harness + kflushctl serve round trip"
  local out scale port rc serve_pid
  build default && cmake --build build -j "${JOBS}" \
      --target bench_net_load kflushctl || return 1
  out="${KFLUSH_BENCH_OUT:-$(mktemp -d)}"
  mkdir -p "${out}"
  scale="${KFLUSH_BENCH_SCALE:-0.05}"
  # In-process: server + sharded system in the bench binary; the run
  # itself fails on any accounting hole (silent drop, offered !=
  # acked + skipped + nacked), then the artifact schema is checked.
  KFLUSH_BENCH_SCALE="${scale}" KFLUSH_BENCH_OUT="${out}" \
      ./build/bench/bench_net_load --users 4 --seconds 1 \
      --rates 4000,12000 || return 1
  python3 scripts/validate_bench_json.py \
      "${out}/BENCH_net_load.json" || return 1
  # External: a real serve process, driven over loopback, shut down via
  # the protocol. serve exits non-zero if its accounting has a hole.
  port=$(( 20000 + RANDOM % 20000 ))
  ./build/tools/kflushctl serve --port "${port}" --shards 2 \
      --memory-mb 32 &
  serve_pid=$!
  for _ in $(seq 1 50); do
    if ! kill -0 "${serve_pid}" 2>/dev/null; then
      echo "net-smoke: kflushctl serve died before accepting connections"
      wait "${serve_pid}"
      return 1
    fi
    (exec 3<>"/dev/tcp/127.0.0.1/${port}") 2>/dev/null && break
    sleep 0.1
  done
  KFLUSH_BENCH_SCALE="${scale}" \
      ./build/bench/bench_net_load --connect "127.0.0.1:${port}" \
      --users 2 --seconds 1 --rates 4000 --shutdown
  rc=$?
  if [ ${rc} -ne 0 ]; then
    kill "${serve_pid}" 2>/dev/null
    wait "${serve_pid}" 2>/dev/null
    return 1
  fi
  wait "${serve_pid}"
  rc=$?
  if [ ${rc} -ne 0 ]; then
    echo "net-smoke: kflushctl serve exited ${rc} (accounting hole?)"
    return 1
  fi
}

job_ops_smoke() {
  note "ops-smoke: serve + kStatsProm scrape lint + kflushctl top/health"
  local out scale port rc serve_pid
  build default && cmake --build build -j "${JOBS}" \
      --target bench_net_load kflushctl || return 1
  out="${KFLUSH_BENCH_OUT:-$(mktemp -d)}"
  mkdir -p "${out}"
  scale="${KFLUSH_BENCH_SCALE:-0.05}"
  port=$(( 20000 + RANDOM % 20000 ))
  ./build/tools/kflushctl serve --port "${port}" --shards 2 \
      --memory-mb 32 --slow-request-micros 2000000 \
      > "${out}/ops_serve.log" 2>&1 &
  serve_pid=$!
  # Readiness through the protocol itself: health answers kServing.
  for _ in $(seq 1 50); do
    if ! kill -0 "${serve_pid}" 2>/dev/null; then
      echo "ops-smoke: kflushctl serve died before serving"
      cat "${out}/ops_serve.log"
      wait "${serve_pid}"
      return 1
    fi
    ./build/tools/kflushctl health --port "${port}" >/dev/null 2>&1 && break
    sleep 0.1
  done
  ./build/tools/kflushctl health --port "${port}" || {
    kill "${serve_pid}" 2>/dev/null; wait "${serve_pid}" 2>/dev/null
    return 1
  }
  # Some real traffic so the stage histograms have samples to lint.
  KFLUSH_BENCH_SCALE="${scale}" \
      ./build/bench/bench_net_load --connect "127.0.0.1:${port}" \
      --users 2 --seconds 1 --rates 4000 || {
    kill "${serve_pid}" 2>/dev/null; wait "${serve_pid}" 2>/dev/null
    return 1
  }
  # Scrape the exposition, lint it, and check the stage histograms
  # reconcile against the ack counter end to end.
  ./build/tools/kflushctl scrape --port "${port}" \
      > "${out}/ops_scrape.prom" || {
    kill "${serve_pid}" 2>/dev/null; wait "${serve_pid}" 2>/dev/null
    return 1
  }
  python3 scripts/validate_prometheus.py "${out}/ops_scrape.prom" || {
    kill "${serve_pid}" 2>/dev/null; wait "${serve_pid}" 2>/dev/null
    return 1
  }
  ./build/tools/kflushctl top --port "${port}" --once \
      > "${out}/ops_top.txt" || {
    kill "${serve_pid}" 2>/dev/null; wait "${serve_pid}" 2>/dev/null
    return 1
  }
  grep -q '^ingest_acks ' "${out}/ops_top.txt" || {
    echo "ops-smoke: top --once missing ingest_acks"
    kill "${serve_pid}" 2>/dev/null; wait "${serve_pid}" 2>/dev/null
    return 1
  }
  acks=$(awk '/^ingest_acks /{print $2}' "${out}/ops_top.txt")
  for stage in decode admission commit respond; do
    count=$(awk -v k="stage_${stage}_count" '$1==k{print $2}' \
        "${out}/ops_top.txt")
    if [ "${count}" != "${acks}" ]; then
      echo "ops-smoke: stage_${stage}_count ${count} != ingest_acks ${acks}"
      kill "${serve_pid}" 2>/dev/null; wait "${serve_pid}" 2>/dev/null
      return 1
    fi
  done
  # Protocol shutdown; serve must drain and exit 0.
  ./build/tools/kflushctl shutdown --port "${port}" || {
    kill "${serve_pid}" 2>/dev/null; wait "${serve_pid}" 2>/dev/null
    return 1
  }
  wait "${serve_pid}"
  rc=$?
  if [ ${rc} -ne 0 ]; then
    echo "ops-smoke: kflushctl serve exited ${rc}"
    cat "${out}/ops_serve.log"
    return 1
  fi
  grep -q 'draining' "${out}/ops_serve.log" || {
    echo "ops-smoke: serve log missing the draining transition"
    return 1
  }
}

run_job() { "job_${1//-/_}" || FAILED+=("$1"); }

case "${1:-all}" in
  tier1|release|tsan|asan|stress|crash|subs|figures|bench-smoke|net-smoke|ops-smoke)
    run_job "$1" ;;
  all) run_job tier1; run_job release; run_job tsan; run_job asan
       run_job crash; run_job subs; run_job figures; run_job bench-smoke
       run_job net-smoke; run_job ops-smoke ;;
  *) echo "usage: $0 [tier1|release|tsan|asan|stress|crash|subs|figures|bench-smoke|net-smoke|ops-smoke|all]" >&2
     exit 2 ;;
esac

if [ ${#FAILED[@]} -gt 0 ]; then
  note "FAILED jobs: ${FAILED[*]}"
  exit 1
fi
note "all jobs passed"
