#!/usr/bin/env bash
# The one copy of every CI lane: each .github/workflows/ci.yml job installs
# the toolchain and runs one of these. Usage:
#   ./ci.sh            # tier-1 verify (warning-free build + ctest, minus
#                      # LABELS slow)
#   ./ci.sh sanitize   # ASan/UBSan build + FULL ctest incl. slow (slower)
#   ./ci.sh bench      # quick benches + BENCH_*.json checks + golden traces
#                      # + the repo benchmark's checks (perfbench) + the
#                      # telemetry plane's memory and allocation bounds
#                      # (pull_fanout, push_scaleout) + the RUBiS request
#                      # path's allocation bound
#   ./ci.sh perf       # Release build, DES-kernel perf smoke (bench_engine)
#   ./ci.sh slo        # freshness plane only: ctest -L slo + bench_freshness
#   ./ci.sh notel      # telemetry compiled out (RDMAMON_TELEMETRY=OFF):
#                      # warning-free build + ctest, minus LABELS slow
#
# Flight-recorder post-mortems (crash dumps, SLO breach dumps) land in
# <build dir>/flight-dumps; on a red run they are the first thing to read
# (tools/flightdump.py). Bench reports land in bench-results/.
#
# Tests carrying ctest LABELS slow (golden-trace bench replays) are kept
# out of tier-1 to hold its wall-clock; they run in the sanitize and
# bench lanes.
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 2)

if [[ "${1:-}" == "sanitize" ]]; then
  cmake -B build-asan -S . -DRDMAMON_SANITIZE=address,undefined
  cmake --build build-asan -j "$jobs"
  mkdir -p build-asan/flight-dumps
  export RDMAMON_FLIGHT_DIR="$PWD/build-asan/flight-dumps"
  ctest --test-dir build-asan --output-on-failure -j "$jobs"
  # Cross-scheme conformance contract, named so a sanitizer hit in the
  # push/adaptive paths is attributed to the suite that guards them.
  ctest --test-dir build-asan -L conformance --output-on-failure -j "$jobs"
  # Multi-tenant QoS surface (arbiter properties + TenantFault storms),
  # named for the same reason.
  ctest --test-dir build-asan -L qos --output-on-failure -j "$jobs"
elif [[ "${1:-}" == "bench" ]]; then
  benches=(fig3_latency scale_poll fault_resilience scale_frontends verbs qos
           freshness)
  # Built only for their golden-trace replays below.
  replayed=(fig4_granularity fig5_accuracy fig6_interrupts fig7_zipf
            fig8_ganglia fig9_finegrain table1_rubis ablation)
  cmake -B build -S .
  cmake --build build -j "$jobs" --target "${replayed[@]/#/bench_}" \
    "${benches[@]/#/bench_}"
  mkdir -p bench-results
  for b in "${benches[@]}"; do
    RDMAMON_BENCH_DIR=bench-results ./build/bench/bench_$b --quick
    python3 -m json.tool "bench-results/BENCH_$b.json" > /dev/null
    echo "BENCH_$b.json: valid"
  done
  # Headline acceptance checks: fig3 telemetry delta, scale-out flatness,
  # push/pull/adaptive, scatter and verbs fast-path scaling, multi-tenant
  # QoS both directions, information-age freshness.
  python3 tools/check_bench.py bench-results fig3_latency scale_frontends \
    scale_poll verbs qos freshness
  # Golden-trace replays (ctest LABELS slow): every quick figure bench but
  # bench_engine (host time) pinned against tests/golden/*.json.
  ctest --test-dir build -L slow --output-on-failure -j "$jobs"
  # The repo benchmark's checks (BENCHMARK.json), short: builds perfbench
  # against this tree and exits 1 on a request/fetch conservation failure,
  # differing same-seed outputs, or a dispatch made on no view.
  python3 perfbench/run.py --seconds 1
  # The telemetry plane's cost on pull_fanout (512 back ends): the peak
  # RSS with the registry installed stays within 1.15x of the registry-off
  # replica's, and the measured run makes no more heap allocations than
  # that replica (telemetry.overhead_allocs_per_sim_s is 0). Rings and
  # histograms allocate only what they record, and distributions are per
  # scheme and front end, counts per back end; with rings sized up front
  # the ratio was 2.66x, with histograms per back end 1.27x.
  # The same memory bound on push_scaleout (4 front ends, 64 back ends,
  # Adaptive push): plain peak RSS within 1.30x of noreg. A one-sided op
  # is one flight record, written at completion, and a ring's buffer
  # doubles as it fills, so the back ends' NIC rings hold what they
  # recorded; with two records per op and 24 KB per ring on its first
  # record the ratio was 1.35x.
  # The socket path's allocations: on rubis_zipf a served request makes at
  # most 0.06 heap allocations (about 0.046 at seed 1). What is left is
  # the balancer's dispatch log, one deque block per 32 picks of a
  # 16-byte record (about 277 per simulated s), the e-RDMA-Sync READ
  # blocks (125), and about 8 from queues reaching a new peak (the event
  # queue, a back end's interrupt path) and web statistics. Disturbance
  # stages restart the same threads and connections; when each stage
  # built its own it was 0.074, with a 40-byte record (a block per 12
  # picks) 0.126, and when socket payloads were std::any values rather
  # than inline images, about 4.1.
  python3 - "${CARGO_TARGET_DIR:-.bench_build}/perfbench/perfbench_run" <<'EOF'
import json, subprocess, sys
def run(workload, mode):
    out = subprocess.run([sys.argv[1], "--workload", workload, "--seed", "1",
                          "--mode", mode], check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    return json.loads(out.strip().splitlines()[-1])
plain = run("pull_fanout", "plain")
noreg = run("pull_fanout", "noreg")
ratio = plain["peak_rss_mb"] / noreg["peak_rss_mb"]
print(f"pull_fanout peak RSS: {plain['peak_rss_mb']:.2f} MB with the "
      f"registry, {noreg['peak_rss_mb']:.2f} MB without: {ratio:.2f}x "
      f"(bound 1.15x)")
extra = plain["allocs"] - noreg["allocs"]
print(f"pull_fanout allocations: {plain['allocs']} with the registry, "
      f"{noreg['allocs']} without: {extra:+d} (bound 0)")
push_plain = run("push_scaleout", "plain")
push_noreg = run("push_scaleout", "noreg")
push_ratio = push_plain["peak_rss_mb"] / push_noreg["peak_rss_mb"]
print(f"push_scaleout peak RSS: {push_plain['peak_rss_mb']:.2f} MB with the "
      f"registry, {push_noreg['peak_rss_mb']:.2f} MB without: "
      f"{push_ratio:.2f}x (bound 1.30x)")
rubis = run("rubis_zipf", "plain")
allocs = rubis["allocs"] / rubis["sim_s"]
served = rubis["counts"]["web.requests_per_sim_s"]
per_request = allocs / served
print(f"rubis_zipf: {allocs:.0f} allocations per simulated s over "
      f"{served:.0f} served requests: {per_request:.3f} per request "
      f"(bound 0.06)")
sys.exit(0 if ratio <= 1.15 and extra <= 0 and push_ratio <= 1.30
         and per_request <= 0.06 else 1)
EOF
elif [[ "${1:-}" == "slo" ]]; then
  # Freshness-plane smoke: the staleness SLO / flight recorder / alarm-MR
  # surface (ctest LABELS slo) plus the information-age bench. Fast enough
  # to run on every edit of src/telemetry/.
  cmake -B build -S .
  cmake --build build -j "$jobs" --target test_slo bench_freshness
  mkdir -p build/flight-dumps bench-results
  RDMAMON_FLIGHT_DIR="$PWD/build/flight-dumps" \
    ctest --test-dir build -L slo --output-on-failure -j "$jobs"
  RDMAMON_BENCH_DIR=bench-results ./build/bench/bench_freshness --quick
  python3 tools/check_bench.py bench-results freshness
elif [[ "${1:-}" == "notel" ]]; then
  # The compiled-out telemetry build: every record helper is a no-op, so a
  # test that reads metrics, flight records or SLO edges guards those
  # reads with telemetry::kEnabled. The slow golden replays stay out: the
  # QoS golden pins SLO-engine output.
  cmake -B build-notel -S . -DRDMAMON_TELEMETRY=OFF -DRDMAMON_WERROR=ON
  cmake --build build-notel -j "$jobs"
  ctest --test-dir build-notel --output-on-failure -j "$jobs" -LE slow
elif [[ "${1:-}" == "perf" ]]; then
  # DES-kernel perf smoke: Release build, quick bench_engine run. The
  # binary itself exits non-zero if the timer-wheel kernel heap-allocates
  # during a steady-state recycling workload; check_bench.py then asserts
  # the report's headlines.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs" --target bench_engine
  mkdir -p bench-results
  RDMAMON_BENCH_DIR=bench-results ./build-release/bench/bench_engine --quick
  python3 tools/check_bench.py bench-results engine
else
  # Warnings are errors here, so the tree stays warning-free.
  cmake -B build -S . -DRDMAMON_WERROR=ON
  cmake --build build -j "$jobs"
  mkdir -p build/flight-dumps
  export RDMAMON_FLIGHT_DIR="$PWD/build/flight-dumps"
  ctest --test-dir build --output-on-failure -j "$jobs" -LE slow
  # Cross-scheme conformance contract, named for an explicit pass line.
  ctest --test-dir build -L conformance --output-on-failure -j "$jobs"
fi
