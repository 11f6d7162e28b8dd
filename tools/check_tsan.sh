#!/usr/bin/env bash
# Builds the project with ThreadSanitizer (-DSWEETKNN_TSAN=ON) and runs
# the gpusim + core + serve test suites under it. parallel_launch_test
# drives the execution engine at 2 and 8 workers, so the pool, the
# striped atomic locks, and the trace-replay pipeline are all exercised
# under TSan; blocking_queue_test and knn_service_test exercise the
# serving layer's admission queue, dispatcher, shard fan-out, and LRU
# cache under concurrent clients; hot_swap_test swaps index generations
# behind live traffic; metrics_test hammers the lock-free counters and
# histograms from many threads; shutdown_storm_test races Submit against
# Shutdown; swap_staleness_test races cache inserts against SwapIndex;
# compaction_race_test races mutations, forced compactions, and hot
# swaps against live clients; route_planner_test flips the hybrid
# planner's mode and feeds its selectivity EMA from many threads while
# Choose() races the lock-free route counters; shard_index_test covers
# the index as a serving shard (answers, merge, and every state between
# a compaction's capture and its install) that both serving backends
# run; router_timeout_test drives the cluster router's channel IO
# threads, reply queues, and worker-death path (it spawns shard-worker
# processes through the CLI binary); scheduler_test hammers the
# deficit-round-robin admission scheduler's pops against concurrent
# submits; multitenant_test parks the dispatcher to race metric exports
# and drops against queued requests; tenant_storm_test floods two
# weighted tenants past capacity and runs a compaction storm on one
# tenant while another serves; job_test runs the offline-job engine —
# submit/poll/cancel from client threads racing the job thread and the
# batch scheduler, including a mid-job cancel under live point lookups —
# and range_query_test covers the range modalities' boundary cases on
# the same service paths.
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DSWEETKNN_TSAN=ON >/dev/null

TESTS=(
  warp_test
  coalescing_test
  memory_test
  atomics_test
  device_test
  parallel_launch_test
  clustering_test
  route_planner_test
  level1_test
  level2_test
  ti_knn_gpu_test
  blocking_queue_test
  metrics_test
  knn_service_test
  hot_swap_test
  shutdown_storm_test
  swap_staleness_test
  compaction_race_test
  shard_index_test
  router_timeout_test
  scheduler_test
  multitenant_test
  tenant_storm_test
  range_query_test
  job_test
)

# router_timeout_test spawns shard-worker processes from the CLI binary.
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}" sweetknn_cli
export SWEETKNN_CLI="$PWD/$BUILD_DIR/tools/sweetknn_cli"

status=0
for t in "${TESTS[@]}"; do
  echo "=== TSan: $t ==="
  if ! "$BUILD_DIR/tests/$t"; then
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "TSan check passed: ${#TESTS[@]} suites clean."
else
  echo "TSan check FAILED." >&2
fi
exit "$status"
