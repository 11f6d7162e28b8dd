// The four benchmark workloads (METRICS.md has the map of what each
// measures and which layer should move which number).

#ifndef SWEETKNN_PERFBENCH_WORKLOADS_H_
#define SWEETKNN_PERFBENCH_WORKLOADS_H_

#include <string>

#include "common/range_result.h"
#include "gpusim/stats.h"
#include "harness.h"
#include "serve/knn_service.h"
#include "simd/simd_kernels.h"

namespace sweetknn::perfbench {

/// In-process KnnService, open-loop 90% reads / 5% inserts / 5% removes.
RunResult RunServeRw(const Args& args, Tracer* tracer);
/// Router over shard-worker processes, open-loop reads.
RunResult RunClusterRead(const Args& args, Tracer* tracer,
                         const std::string& worker_binary);
/// One caller: SweetKnnIndex kNN blocks, then radius blocks.
RunResult RunJoinBatch(const Args& args, Tracer* tracer);
/// SweetKnn::SelfJoin over scaled paper datasets on the simulated K20c.
RunResult RunPaperSim(const Args& args, Tracer* tracer);

/// Simulated stage split of one device run, in seconds, by kernel name
/// (level1*, level2*, everything else = preprocessing), plus transfers.
struct StageTimes {
  double level1_s = 0.0;
  double level2_s = 0.0;
  double preprocess_s = 0.0;
  double transfer_s = 0.0;
  uint64_t launches = 0;

  void Add(const gpusim::Profile& profile);
};

/// Repetitions of every set-up, reported as their median.
inline constexpr int kSetupReps = 5;

/// The per-layer metrics every traced run reports, in one canonical
/// order. A layer a workload does not exercise reports 0.
struct LayerMetrics {
  uint64_t samples = 1;  ///< Ops the numbers were taken over.

  double simd_knn_s = 0.0;
  double simd_knn_gbps = 0.0;

  double core_query_s = 0.0;
  double core_host_route_s = 0.0;
  double core_device_route_s = 0.0;
  uint64_t core_host_routes = 0;
  uint64_t core_device_routes = 0;
  double core_radius_s = 0.0;
  double core_range_candidate_frac = 0.0;
  double core_saved_frac = 0.0;
  uint64_t core_distance_calcs = 0;
  uint64_t core_overlay_rows = 0;
  double core_overlay_read_ms = 0.0;
  double core_compacted_read_ms = 0.0;

  StageTimes stages;
  double gpusim_warp_eff = 0.0;

  double serve_queue_wait_p50_ms = 0.0;
  double serve_queue_wait_p99_ms = 0.0;
  double serve_batch_assembly_p50_ms = 0.0;
  double serve_fanout_p50_ms = 0.0;
  double serve_fanout_p99_ms = 0.0;
  double serve_merge_p50_ms = 0.0;
  double serve_mean_batch_rows = 0.0;
  uint64_t serve_compactions = 0;
  uint64_t serve_shed = 0;
  uint64_t serve_deadline_exceeded = 0;
  /// Serving read tail split by route exposure (see OpRecord).
  double serve_read_p99_device_ms = 0.0;
  double serve_read_p99_host_ms = 0.0;
  double serve_device_exposed_frac = 0.0;

  double net_queue_wait_p50_ms = 0.0;
  double net_rpc_overhead_p50_ms = 0.0;
  double net_rpc_overhead_p99_ms = 0.0;
  double net_frame_bytes_per_read = 0.0;
  uint64_t net_rpc_timeouts = 0;
  uint64_t net_worker_deaths = 0;
  uint64_t net_retried_groups = 0;
};

/// Appends every LayerMetrics field to `result` under its metric name.
void AddLayerMetrics(const LayerMetrics& layers, RunResult* result);

/// Relative change of the median, in percent: how much slower the
/// traced ops ran than the untraced ones (0 when either is empty).
double OverheadPct(const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms);

/// Brute-force closed-ball search: every row of `targets` within
/// `radius` of each query row, sorted under NeighborLess.
RangeResult BruteRadius(const HostMatrix& queries,
                        const simd::PackedTargets& targets, float radius,
                        simd::Dist dist);

/// Byte equality of two range results.
bool SameRanges(const RangeResult& a, const RangeResult& b);

// -- Serving helpers (serve_rw, cluster_read) ----------------------------

/// Op kinds of the serving schedules, and masks selecting them.
enum OpKind : uint8_t { kRead = 0, kInsert = 1, kRemove = 2 };
inline constexpr unsigned kReads = 1u << kRead;
inline constexpr unsigned kWrites = (1u << kInsert) | (1u << kRemove);

/// Latencies (ms from scheduled send) of the ops whose kind is in
/// `kinds`. A failed op missed every limit: it counts as the whole phase
/// length.
std::vector<double> LatenciesMs(const std::vector<OpRecord>& ops,
                                unsigned kinds, double phase_seconds);

/// Windowed statistics: a load phase is cut into `windows` equal slices
/// and the workloads report the median over all slices of the run, so a
/// burst of machine noise spoils one slice, not the run.
///
/// Appends the q-quantile of the selected ops' latencies in each slice
/// (by scheduled send) to `out`, and counts the ops into `samples`.
void AppendWindowQuantiles(const std::vector<OpRecord>& ops, unsigned kinds,
                           double q, double phase_seconds, int windows,
                           std::vector<double>* out, uint64_t* samples);

/// Appends completed ops per second in each slice of a closed-loop phase
/// (by completion) to `out`.
void AppendWindowRates(const std::vector<OpRecord>& ops, double phase_seconds,
                       int windows, std::vector<double>* out);

/// Folds every op's outcome into the tally.
void TallyOps(const std::vector<OpRecord>& ops, FailureTally* tally);

/// The service's own split of its time and counters, read from
/// stats() and ExportMetricsJson(): queue wait, batch assembly, shard
/// fan-out, merge, planner route seconds and counts, simulated stages.
void AddServiceLayers(const serve::KnnService& service, LayerMetrics* layers);

/// Splits the reads' latency tail by whether a device-routed shard run
/// was decided while the read was in flight.
void AddRouteSplit(const std::vector<OpRecord>& ops, double phase_seconds,
                   LayerMetrics* layers);

/// Median of the untraced and of the traced reads' latency, as the
/// tracing overhead in percent; `traced_from_s` splits the schedule.
double ReadOverheadPct(const std::vector<OpRecord>& ops, double traced_from_s);

}  // namespace sweetknn::perfbench

#endif  // SWEETKNN_PERFBENCH_WORKLOADS_H_
