// Pieces shared by the workloads: the simulated-stage split, the
// canonical per-layer metric list, the brute-force range oracle, and the
// serving workloads' latency and service-counter readers.

#include <algorithm>

#include "common/metrics.h"
#include "workloads.h"

namespace sweetknn::perfbench {

void StageTimes::Add(const gpusim::Profile& profile) {
  for (const gpusim::LaunchRecord& record : profile.launches) {
    if (record.kernel_name.rfind("level1", 0) == 0) {
      level1_s += record.sim_time_s;
    } else if (record.kernel_name.rfind("level2", 0) == 0) {
      level2_s += record.sim_time_s;
    } else {
      preprocess_s += record.sim_time_s;
    }
    ++launches;
  }
  transfer_s += profile.transfer_time_s;
}

void AddLayerMetrics(const LayerMetrics& l, RunResult* r) {
  const uint64_t n = l.samples;
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  r->Add("simd.knn_s", "s", l.simd_knn_s, n);
  r->Add("simd.knn_gbps", "GB/s", l.simd_knn_gbps, n);
  r->Add("core.query_s", "s", l.core_query_s, n);
  r->Add("core.host_route_s", "s", l.core_host_route_s, n);
  r->Add("core.device_route_s", "s", l.core_device_route_s, n);
  r->Add("core.host_routes", "count", count(l.core_host_routes), n);
  r->Add("core.device_routes", "count", count(l.core_device_routes), n);
  r->Add("core.radius_s", "s", l.core_radius_s, n);
  r->Add("core.range_candidate_frac", "frac", l.core_range_candidate_frac, n);
  r->Add("core.saved_frac", "frac", l.core_saved_frac, n);
  r->Add("core.distance_calcs", "count", count(l.core_distance_calcs), n);
  r->Add("core.overlay_rows", "count", count(l.core_overlay_rows), n);
  r->Add("core.overlay_read_ms", "ms", l.core_overlay_read_ms, n);
  r->Add("core.compacted_read_ms", "ms", l.core_compacted_read_ms, n);
  r->Add("gpusim.level1_ms", "ms", l.stages.level1_s * 1e3, n);
  r->Add("gpusim.level2_ms", "ms", l.stages.level2_s * 1e3, n);
  r->Add("gpusim.transfer_ms", "ms", l.stages.transfer_s * 1e3, n);
  r->Add("gpusim.preprocess_ms", "ms", l.stages.preprocess_s * 1e3, n);
  r->Add("gpusim.warp_eff", "frac", l.gpusim_warp_eff, n);
  r->Add("gpusim.launches", "count", count(l.stages.launches), n);
  r->Add("serve.queue_wait_p50_ms", "ms", l.serve_queue_wait_p50_ms, n);
  r->Add("serve.queue_wait_p99_ms", "ms", l.serve_queue_wait_p99_ms, n);
  r->Add("serve.batch_assembly_p50_ms", "ms", l.serve_batch_assembly_p50_ms,
         n);
  r->Add("serve.fanout_p50_ms", "ms", l.serve_fanout_p50_ms, n);
  r->Add("serve.fanout_p99_ms", "ms", l.serve_fanout_p99_ms, n);
  r->Add("serve.merge_p50_ms", "ms", l.serve_merge_p50_ms, n);
  r->Add("serve.mean_batch_rows", "rows", l.serve_mean_batch_rows, n);
  r->Add("serve.compactions", "count", count(l.serve_compactions), n);
  r->Add("serve.shed", "count", count(l.serve_shed), n);
  r->Add("serve.deadline_exceeded", "count", count(l.serve_deadline_exceeded),
         n);
  r->Add("serve.read_p99_device_ms", "ms", l.serve_read_p99_device_ms, n);
  r->Add("serve.read_p99_host_ms", "ms", l.serve_read_p99_host_ms, n);
  r->Add("serve.device_exposed_frac", "frac", l.serve_device_exposed_frac, n);
  r->Add("net.queue_wait_p50_ms", "ms", l.net_queue_wait_p50_ms, n);
  r->Add("net.rpc_overhead_p50_ms", "ms", l.net_rpc_overhead_p50_ms, n);
  r->Add("net.rpc_overhead_p99_ms", "ms", l.net_rpc_overhead_p99_ms, n);
  r->Add("net.frame_bytes_per_read", "bytes", l.net_frame_bytes_per_read, n);
  r->Add("net.rpc_timeouts", "count", count(l.net_rpc_timeouts), n);
  r->Add("net.worker_deaths", "count", count(l.net_worker_deaths), n);
  r->Add("net.retried_groups", "count", count(l.net_retried_groups), n);
}

double OverheadPct(const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms) {
  if (untraced_ms.empty() || traced_ms.empty()) return 0.0;
  const double base = Median(untraced_ms);
  return base > 0 ? (Median(traced_ms) / base - 1.0) * 100.0 : 0.0;
}

RangeResult BruteRadius(const HostMatrix& queries,
                        const simd::PackedTargets& targets, float radius,
                        simd::Dist dist) {
  RangeResult out;
  std::vector<float> dists(targets.n());
  std::vector<Neighbor> row;
  for (size_t q = 0; q < queries.rows(); ++q) {
    simd::QueryDistances(queries.row(q), targets, dist, dists.data());
    row.clear();
    for (size_t t = 0; t < dists.size(); ++t) {
      if (dists[t] <= radius) {
        row.push_back(Neighbor{static_cast<uint32_t>(t), dists[t]});
      }
    }
    std::sort(row.begin(), row.end(), NeighborLess);
    out.AppendRow(row);
  }
  return out;
}

bool SameRanges(const RangeResult& a, const RangeResult& b) {
  if (a.num_queries() != b.num_queries()) return false;
  for (size_t q = 0; q < a.num_queries(); ++q) {
    if (a.count(q) != b.count(q) ||
        !SameNeighbors(a.begin(q), b.begin(q), a.count(q))) {
      return false;
    }
  }
  return true;
}

std::vector<double> LatenciesMs(const std::vector<OpRecord>& ops,
                                unsigned kinds, double phase_seconds) {
  std::vector<double> ms;
  for (const OpRecord& op : ops) {
    if ((kinds & (1u << op.kind)) == 0) continue;
    ms.push_back(op.fail == Fail::kNone ? op.latency_ms()
                                        : phase_seconds * 1e3);
  }
  return ms;
}

void AppendWindowQuantiles(const std::vector<OpRecord>& ops, unsigned kinds,
                           double q, double phase_seconds, int windows,
                           std::vector<double>* out, uint64_t* samples) {
  std::vector<std::vector<OpRecord>> slices(static_cast<size_t>(windows));
  for (const OpRecord& op : ops) {
    const int w = static_cast<int>(op.scheduled_s / phase_seconds * windows);
    slices[static_cast<size_t>(std::clamp(w, 0, windows - 1))].push_back(op);
  }
  for (const std::vector<OpRecord>& slice : slices) {
    const std::vector<double> ms = LatenciesMs(slice, kinds, phase_seconds);
    if (ms.empty()) continue;
    *samples += ms.size();
    out->push_back(Quantile(ms, q));
  }
}

void AppendWindowRates(const std::vector<OpRecord>& ops, double phase_seconds,
                       int windows, std::vector<double>* out) {
  std::vector<double> done(static_cast<size_t>(windows), 0.0);
  for (const OpRecord& op : ops) {
    const int w = static_cast<int>(op.done_s / phase_seconds * windows);
    if (w >= 0 && w < windows) done[static_cast<size_t>(w)] += 1.0;
  }
  for (double d : done) out->push_back(d / (phase_seconds / windows));
}

void TallyOps(const std::vector<OpRecord>& ops, FailureTally* tally) {
  for (const OpRecord& op : ops) tally->Add(op.fail);
}

void AddServiceLayers(const serve::KnnService& service, LayerMetrics* l) {
  common::MetricsRegistry exported;
  SK_CHECK(common::ParseMetricsJson(service.ExportMetricsJson(), &exported)
               .ok());
  auto p_ms = [&](const char* name, double q) {
    return exported.SnapshotHistogram(name).Percentile(q) * 1e3;
  };
  auto counter = [&](const char* name) {
    return exported.GetCounter(name, "")->value();
  };
  l->serve_queue_wait_p50_ms = p_ms("sweetknn_queue_wait_seconds", 0.50);
  l->serve_queue_wait_p99_ms = p_ms("sweetknn_queue_wait_seconds", 0.99);
  l->serve_batch_assembly_p50_ms =
      p_ms("sweetknn_batch_assembly_seconds", 0.50);
  l->serve_fanout_p50_ms = p_ms("sweetknn_shard_fanout_seconds", 0.50);
  l->serve_fanout_p99_ms = p_ms("sweetknn_shard_fanout_seconds", 0.99);
  l->serve_merge_p50_ms = p_ms("sweetknn_merge_seconds", 0.50);
  const serve::ServiceStats stats = service.stats();
  l->serve_mean_batch_rows = stats.MeanBatchSize();
  l->serve_compactions = stats.compactions;
  l->serve_shed = stats.shed_requests;
  l->serve_deadline_exceeded = stats.deadline_exceeded;
  l->core_distance_calcs = stats.distance_calcs;

  const double host_s =
      exported.SnapshotHistogram("sweetknn_planner_host_route_seconds").sum;
  const double device_s =
      exported.SnapshotHistogram("sweetknn_planner_device_route_seconds").sum;
  l->core_host_route_s = host_s;
  l->core_device_route_s = device_s;
  l->core_query_s = host_s + device_s;
  l->core_host_routes = service.planner().host_routes();
  l->core_device_routes = service.planner().device_routes();
  l->stages.level1_s = counter("sweetknn_sim_level1_seconds_total");
  l->stages.level2_s = counter("sweetknn_sim_level2_seconds_total");
  l->stages.transfer_s = counter("sweetknn_sim_transfer_seconds_total");
  l->stages.preprocess_s = counter("sweetknn_sim_preprocess_seconds_total");
}

void AddRouteSplit(const std::vector<OpRecord>& ops, double phase_seconds,
                   LayerMetrics* l) {
  std::vector<OpRecord> device, host;
  for (const OpRecord& op : ops) {
    if (op.kind != kRead) continue;
    (op.device_exposed ? device : host).push_back(op);
  }
  l->serve_read_p99_device_ms =
      Quantile(LatenciesMs(device, kReads, phase_seconds), 0.99);
  l->serve_read_p99_host_ms =
      Quantile(LatenciesMs(host, kReads, phase_seconds), 0.99);
  const size_t reads = device.size() + host.size();
  l->serve_device_exposed_frac =
      reads == 0 ? 0.0
                 : static_cast<double>(device.size()) /
                       static_cast<double>(reads);
}

double ReadOverheadPct(const std::vector<OpRecord>& ops,
                       double traced_from_s) {
  std::vector<double> untraced, traced;
  for (const OpRecord& op : ops) {
    if (op.kind != kRead || op.fail != Fail::kNone) continue;
    (op.scheduled_s >= traced_from_s ? traced : untraced)
        .push_back(op.latency_ms());
  }
  return OverheadPct(untraced, traced);
}

}  // namespace sweetknn::perfbench
