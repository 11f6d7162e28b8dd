// join_batch: one caller drives a SweetKnnIndex (auto planner, no ANN)
// over a 128k x 16 clustered base — 8 MiB, beyond per-core L2 — with
// 256-row exact k=10 Query blocks, then RadiusSearch blocks at a radius
// where the TI range filter examines under 2% of candidate pairs. The
// service and the wire are bypassed: the simd kernels and the planner's
// routing do nearly all the work.
//
// Work is counted in planner cycles of 16 decisions (the planner's
// exploration interval), so every run sees the same host/device route
// mix and the block-latency quantiles do not depend on where a time
// window happened to cut a cycle.

#include <cstring>
#include <memory>
#include <thread>

#include "common/range_result.h"
#include "core/device_points.h"
#include "core/sweet_knn.h"
#include "simd/simd_kernels.h"
#include "workloads.h"

namespace sweetknn::perfbench {
namespace {

constexpr size_t kBaseRows = 131072;
constexpr size_t kDims = 16;
constexpr size_t kBlockRows = 256;
constexpr size_t kDistinctBlocks = 16;
constexpr int kK = 10;
constexpr float kRadius = 0.12f;

/// One timed block.
struct Block {
  size_t query_block = 0;
  double ms = 0.0;
  bool device = false;
  bool traced = false;
};

}  // namespace

RunResult RunJoinBatch(const Args& args, Tracer* tracer) {
  RunResult result;
  Tracer untraced(false);

  const HostMatrix all =
      ClusteredPoints(kBaseRows + kDistinctBlocks * kBlockRows, kDims,
                      args.seed);
  HostMatrix base(kBaseRows, kDims);
  std::memcpy(base.mutable_data(), all.data(), base.size() * sizeof(float));
  std::vector<HostMatrix> blocks;
  for (size_t b = 0; b < kDistinctBlocks; ++b) {
    HostMatrix block(kBlockRows, kDims);
    std::memcpy(block.mutable_data(), all.row(kBaseRows + b * kBlockRows),
                block.size() * sizeof(float));
    blocks.push_back(std::move(block));
  }

  // Set-up: the index build (Step-1 clustering + packing), repeated.
  std::unique_ptr<SweetKnnIndex> index;
  std::vector<double> setup_s;
  {
    ScopedSpan root(tracer, "setup", Layer::kHarness);
    for (int rep = 0; rep < kSetupReps; ++rep) {
      index.reset();
      ScopedSpan span(tracer, "core.SweetKnnIndex", Layer::kCore, root.id());
      const Clock::time_point t0 = Clock::now();
      index = std::make_unique<SweetKnnIndex>(base);
      setup_s.push_back(Since(t0, Clock::now()));
    }
  }
  core::RoutePlanner& planner = index->planner();
  const int cycle = std::max(1, planner.config().explore_interval);

  // Per-layer accumulators over every core call of the run (kNN and
  // radius blocks), each attributed to the route the planner took.
  double host_route_s = 0.0, device_route_s = 0.0;
  uint64_t host_routes = 0, device_routes = 0;
  uint64_t knn_calcs = 0, knn_pairs = 0;
  double warp_eff_sum = 0.0;
  int device_knn_runs = 0;
  StageTimes stages;
  core::RangeScanStats range_stats;

  std::vector<Block> knn_ops, radius_ops;
  std::vector<KnnResult> knn_answers;
  std::vector<RangeResult> radius_answers;
  uint64_t request = 0;

  // Block i queries block (i + i / cycle) % 16, so the device-routed
  // first block of each cycle sees a different query block every cycle.
  auto block_of = [&](size_t i) {
    return (i + i / static_cast<size_t>(cycle)) % kDistinctBlocks;
  };
  auto run_knn = [&](Tracer* t, bool traced) {
    Block op;
    op.query_block = block_of(knn_ops.size());
    op.traced = traced;
    const uint64_t d0 = planner.device_routes();
    const uint64_t h0 = planner.host_routes();
    core::KnnRunStats stats;
    ++request;
    const int64_t root = t->Open("knn_block", Layer::kHarness, -1, request);
    const int64_t span = t->Open("core.Query", Layer::kCore, root, request);
    const Clock::time_point t0 = Clock::now();
    KnnResult answer = index->Query(blocks[op.query_block], kK, &stats);
    const double secs = Since(t0, Clock::now());
    t->Close(span);
    op.ms = secs * 1e3;
    op.device = planner.device_routes() != d0;
    device_routes += planner.device_routes() - d0;
    host_routes += planner.host_routes() - h0;
    (op.device ? device_route_s : host_route_s) += secs;
    if (op.device) {
      ScopedSpan read(t, "gpusim.Profile", Layer::kGpusim, root, request);
      stages.Add(stats.profile);
      knn_calcs += stats.distance_calcs;
      knn_pairs += stats.total_pairs;
      warp_eff_sum += stats.level2_warp_efficiency;
      ++device_knn_runs;
    }
    t->Close(root);
    knn_ops.push_back(op);
    knn_answers.push_back(std::move(answer));
  };

  auto run_radius = [&](Tracer* t) {
    Block op;
    op.query_block = block_of(radius_ops.size());
    const uint64_t d0 = planner.device_routes();
    const uint64_t h0 = planner.host_routes();
    core::RangeScanStats stats;
    ++request;
    const int64_t root = t->Open("radius_block", Layer::kHarness, -1, request);
    const int64_t span =
        t->Open("core.RadiusSearch", Layer::kCore, root, request);
    const Clock::time_point t0 = Clock::now();
    RangeResult answer =
        index->RadiusSearch(blocks[op.query_block], kRadius, &stats);
    const double secs = Since(t0, Clock::now());
    t->Close(span);
    t->Close(root);
    op.ms = secs * 1e3;
    op.device = planner.device_routes() != d0;
    device_routes += planner.device_routes() - d0;
    host_routes += planner.host_routes() - h0;
    (op.device ? device_route_s : host_route_s) += secs;
    range_stats.Accumulate(stats);
    radius_ops.push_back(op);
    radius_answers.push_back(std::move(answer));
  };

  // kNN phase: whole planner cycles. The traced run times its first
  // half untraced so trace.overhead_pct compares like with like.
  const int knn_cycles =
      std::max(args.trace ? 2 : 1, static_cast<int>(args.seconds / 5.0 + 0.5));
  const int radius_cycles =
      std::max(1, static_cast<int>(args.seconds / 10.0 + 0.5));
  const Clock::time_point knn_t0 = Clock::now();
  for (int c = 0; c < knn_cycles; ++c) {
    const bool traced = args.trace && c >= knn_cycles / 2;
    for (int i = 0; i < cycle; ++i) {
      run_knn(traced ? tracer : &untraced, traced);
    }
  }
  const double knn_wall_s = Since(knn_t0, Clock::now());
  const Clock::time_point radius_t0 = Clock::now();
  for (int c = 0; c < radius_cycles * cycle; ++c) {
    run_radius(args.trace ? tracer : &untraced);
  }
  const double radius_wall_s = Since(radius_t0, Clock::now());

  // Correctness gate, outside the timed region: every block must be
  // bit-identical to the brute-force oracle over the same base.
  const simd::PackedTargets packed =
      simd::PackedTargets::Pack(base.data(), base.rows(), base.cols());
  const simd::Dist dist = core::SimdDistFor(core::TiOptions().metric);
  {
    ScopedSpan gate(tracer, "gate", Layer::kHarness);
    std::vector<KnnResult> knn_oracle;
    for (const HostMatrix& block : blocks) {
      ScopedSpan span(tracer, "simd.PackedKnn", Layer::kSimd, gate.id());
      knn_oracle.push_back(simd::PackedKnn(block, packed, kK, dist, Callers()));
    }
    std::vector<RangeResult> radius_oracle(kDistinctBlocks);
    {
      ScopedSpan span(tracer, "simd.QueryDistances", Layer::kSimd, gate.id());
      std::vector<std::thread> workers;
      for (size_t w = 0; w < static_cast<size_t>(Callers()); ++w) {
        workers.emplace_back([&, w] {
          for (size_t b = w; b < kDistinctBlocks; b += Callers()) {
            radius_oracle[b] = BruteRadius(blocks[b], packed, kRadius, dist);
          }
        });
      }
      for (std::thread& t : workers) t.join();
    }
    for (size_t i = 0; i < knn_ops.size(); ++i) {
      const KnnResult& want = knn_oracle[knn_ops[i].query_block];
      const KnnResult& got = knn_answers[i];
      const bool same = got.num_queries() == want.num_queries() &&
                        got.k() == want.k() &&
                        SameNeighbors(got.row(0), want.row(0),
                                      want.num_queries() * kK);
      result.Phase("knn_blocks").Add(same ? Fail::kNone : Fail::kMismatch);
    }
    for (size_t i = 0; i < radius_ops.size(); ++i) {
      const bool same = SameRanges(
          radius_answers[i], radius_oracle[radius_ops[i].query_block]);
      result.Phase("radius_blocks").Add(same ? Fail::kNone : Fail::kMismatch);
    }
  }

  std::vector<double> untraced_host_ms, traced_host_ms;
  for (const Block& op : knn_ops) {
    if (!op.device) {
      (op.traced ? traced_host_ms : untraced_host_ms).push_back(op.ms);
    }
  }
  // Statistics per planner cycle (every cycle has the same route mix),
  // then the median over cycles: machine noise spoils a cycle, not the
  // run.
  struct CycleStats {
    double p50_ms = 0.0, p99_ms = 0.0, rows_per_s = 0.0;
  };
  auto per_cycle = [&](const std::vector<Block>& ops) {
    std::vector<double> p50, p99, rate;
    for (size_t begin = 0; begin + cycle <= ops.size(); begin += cycle) {
      std::vector<double> ms;
      for (size_t i = begin; i < begin + cycle; ++i) ms.push_back(ops[i].ms);
      p50.push_back(Quantile(ms, 0.50));
      p99.push_back(Quantile(ms, 0.99));
      double total_ms = 0.0;
      for (double m : ms) total_ms += m;
      rate.push_back(static_cast<double>(cycle * kBlockRows) /
                     (total_ms / 1e3));
    }
    return CycleStats{Median(p50), Median(p99), Median(rate)};
  };
  const CycleStats knn = per_cycle(knn_ops);
  const CycleStats radius = per_cycle(radius_ops);
  const uint64_t knn_n = knn_ops.size(), radius_n = radius_ops.size();

  result.report = {
      {"setup_s", "s", Median(setup_s), kSetupReps},
      {"join_rows_per_s", "1/s", knn.rows_per_s, knn_n},
      {"block_p50_ms", "ms", knn.p50_ms, knn_n},
      {"block_p99_ms", "ms", knn.p99_ms, knn_n},
      {"radius_rows_per_s", "1/s", radius.rows_per_s, radius_n},
      {"peak_rss_mb", "MiB", PeakRssMb(), 1},
  };
  if (!args.trace) {
    result.Add("setup_s", "s", Median(setup_s), kSetupReps);
    result.Add("read_p50_ms", "ms", knn.p50_ms, knn_n);
    result.Add("read_rows_per_s", "1/s", knn.rows_per_s, knn_n);
    result.Add("aux_p50_ms", "ms", radius.p50_ms, radius_n);
    result.Add("peak_rss_mb", "MiB", PeakRssMb());
    return result;
  }

  // Traced run only: replay the host-routed kNN blocks through the simd
  // kernels on the benchmark's own packed copy of the base, one worker
  // like the index's host route.
  double simd_s = 0.0;
  uint64_t simd_rows = 0;
  {
    ScopedSpan replay(tracer, "simd_replay", Layer::kHarness);
    for (const Block& op : knn_ops) {
      if (op.device) continue;
      ScopedSpan span(tracer, "simd.PackedKnn", Layer::kSimd, replay.id());
      const Clock::time_point t0 = Clock::now();
      simd::PackedKnn(blocks[op.query_block], packed, kK, dist, 1);
      simd_s += Since(t0, Clock::now());
      simd_rows += kBlockRows;
    }
  }
  const double simd_bytes = static_cast<double>(simd_rows) *
                            static_cast<double>(kBaseRows * kDims) *
                            sizeof(float);
  LayerMetrics layers;
  layers.simd_knn_s = simd_s;
  layers.simd_knn_gbps = simd_s > 0 ? simd_bytes / simd_s / 1e9 : 0.0;
  layers.core_query_s = knn_wall_s + radius_wall_s;
  layers.core_host_route_s = host_route_s;
  layers.core_device_route_s = device_route_s;
  layers.core_host_routes = host_routes;
  layers.core_device_routes = device_routes;
  layers.core_radius_s = radius_wall_s;
  layers.core_range_candidate_frac =
      range_stats.total_pairs == 0
          ? 0.0
          : static_cast<double>(range_stats.candidates) /
                static_cast<double>(range_stats.total_pairs);
  layers.core_saved_frac =
      knn_pairs == 0 ? 0.0
                     : 1.0 - static_cast<double>(knn_calcs) /
                                 static_cast<double>(knn_pairs);
  layers.core_distance_calcs = knn_calcs;
  layers.stages = stages;
  layers.gpusim_warp_eff =
      device_knn_runs == 0 ? 0.0 : warp_eff_sum / device_knn_runs;
  layers.samples = knn_n + radius_n;
  AddLayerMetrics(layers, &result);
  AddHarnessLayerMetrics(*tracer, Lateness{},
                         OverheadPct(untraced_host_ms, traced_host_ms),
                         &result);
  return result;
}

}  // namespace sweetknn::perfbench
