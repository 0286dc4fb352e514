#!/usr/bin/env bash
# Regenerate the golden-trace JSONs after an INTENDED behaviour change.
# Run from the repo root; pass the build dir as $1 (default: build).
# Commit the refreshed goldens together with the change that moved them.
set -euo pipefail
cd "$(dirname "$0")/../.."
build="${1:-build}"

benches=(fig3_latency fig4_granularity fig5_accuracy fig6_interrupts
         fig7_zipf fig8_ganglia fig9_finegrain table1_rubis ablation
         scale_frontends scale_poll verbs qos fault_resilience freshness)
cmake --build "$build" --target "${benches[@]/#/bench_}"
for b in "${benches[@]}"; do
  RDMAMON_BENCH_DIR=tests/golden "./$build/bench/bench_$b" --quick >/dev/null
  echo "regenerated tests/golden/BENCH_$b.json"
done
