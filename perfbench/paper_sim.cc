// paper_sim: SweetKnn::SelfJoin with k=20 (the paper's setting,
// TiOptions::Sweet, adaptive) on the scaled simulated K20c over four of
// the scaled paper datasets chosen so the adaptive scheme takes
// different branches: 3DNet (d=4) and kdd (d=42), where the filter
// saves >99% of distance computations, dor (d=1024, several threads per
// query) and arcene (d=10000, where the filter saves almost nothing).
// The only workload where gpusim and the device TI kernels do most of
// the work. A sweep joins all four; sweeps repeat for the run length.
// Simulated time is deterministic, so every sweep must reproduce the
// first one's simulated time and neighbor lists exactly.

#include <string>
#include <vector>

#include "core/device_points.h"
#include "core/sweet_knn.h"
#include "dataset/paper_datasets.h"
#include "workloads.h"

namespace sweetknn::perfbench {
namespace {

constexpr int kK = 20;
const char* const kDatasets[] = {"3DNet", "kdd", "dor", "arcene"};

/// The registry's stand-ins with their rows in a seeded order: the
/// points are the paper datasets' every run, while the landmark choice
/// and kernel schedule follow the run seed.
std::vector<dataset::Dataset> MakeInputs(uint64_t seed) {
  std::vector<dataset::Dataset> out;
  for (const char* name : kDatasets) {
    dataset::Dataset data =
        dataset::MakePaperDataset(dataset::PaperDatasetByName(name));
    data.points = ShuffledRows(data.points, seed);
    out.push_back(std::move(data));
  }
  return out;
}

struct Sweep {
  double wall_s = 0.0;
  double sim_s = 0.0;
  bool traced = false;
};

}  // namespace

RunResult RunPaperSim(const Args& args, Tracer* tracer) {
  RunResult result;
  Tracer untraced(false);

  SweetKnn::Config config;
  config.device =
      gpusim::DeviceSpec::ScaledK20c(dataset::ScaledDeviceMemoryBytes());
  config.options = core::TiOptions::Sweet();
  config.options.sim_threads = Callers();

  // Set-up: generate the inputs and bring up a simulated device.
  std::vector<dataset::Dataset> inputs;
  std::vector<double> setup_s;
  {
    ScopedSpan root(tracer, "setup", Layer::kHarness);
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      inputs = MakeInputs(args.seed);
      {
        ScopedSpan span(tracer, "gpusim.Device", Layer::kGpusim, root.id());
        SweetKnn warm(config);
      }
      setup_s.push_back(Since(t0, Clock::now()));
    }
  }

  std::vector<Sweep> sweeps;
  std::vector<KnnResult> first;        // per dataset, from sweep 0
  std::vector<double> first_sim_s;     // per dataset
  StageTimes stages;                   // of sweep 0
  std::vector<core::KnnRunStats> stats_of_first;
  uint64_t request = 0;

  const Clock::time_point phase_t0 = Clock::now();
  // At least two sweeps; the traced run times its first half untraced.
  while (sweeps.size() < 2 ||
         Since(phase_t0, Clock::now()) + sweeps.back().wall_s <=
             args.seconds) {
    const bool traced = args.trace && sweeps.size() % 2 == 1;
    Tracer* t = traced ? tracer : &untraced;
    Sweep sweep;
    sweep.traced = traced;
    ++request;
    const int64_t root = t->Open("sweep", Layer::kHarness, -1, request);
    const Clock::time_point t0 = Clock::now();
    for (size_t d = 0; d < inputs.size(); ++d) {
      SweetKnn knn(config);
      core::KnnRunStats stats;
      const int64_t span =
          t->Open("core.SelfJoin", Layer::kCore, root, request);
      KnnResult answer = knn.SelfJoin(inputs[d].points, kK, &stats);
      t->Close(span);
      sweep.sim_s += stats.sim_time_s;
      if (sweeps.empty()) {
        ScopedSpan read(t, "gpusim.Profile", Layer::kGpusim, root, request);
        stages.Add(stats.profile);
        first.push_back(std::move(answer));
        first_sim_s.push_back(stats.sim_time_s);
        stats.profile.Clear();
        stats_of_first.push_back(std::move(stats));
        continue;
      }
      // Determinism: the same inputs on a fresh device reproduce the
      // first sweep bit for bit, simulated time included.
      const bool same = stats.sim_time_s == first_sim_s[d] &&
                        answer.k() == first[d].k() &&
                        answer.num_queries() == first[d].num_queries() &&
                        SameNeighbors(answer.row(0), first[d].row(0),
                                      answer.num_queries() * kK);
      result.Phase("sweeps").Add(same ? Fail::kNone : Fail::kMismatch);
    }
    sweep.wall_s = Since(t0, Clock::now());
    t->Close(root);
    sweeps.push_back(sweep);
  }

  // Correctness gate: the first sweep against the host brute force.
  double simd_s = 0.0, simd_bytes = 0.0;
  {
    ScopedSpan gate(tracer, "gate", Layer::kHarness);
    const simd::Dist dist = core::SimdDistFor(config.options.metric);
    for (size_t d = 0; d < inputs.size(); ++d) {
      const HostMatrix& points = inputs[d].points;
      ScopedSpan span(tracer, "simd.PackedKnn", Layer::kSimd, gate.id());
      const Clock::time_point t0 = Clock::now();
      const simd::PackedTargets packed = simd::PackedTargets::Pack(
          points.data(), points.rows(), points.cols());
      const KnnResult want =
          simd::PackedKnn(points, packed, kK, dist, Callers());
      simd_s += Since(t0, Clock::now());
      simd_bytes += static_cast<double>(points.rows()) *
                    static_cast<double>(points.size()) * sizeof(float);
      const bool same = want.num_queries() == first[d].num_queries() &&
                        SameNeighbors(want.row(0), first[d].row(0),
                                      want.num_queries() * kK);
      result.Phase("gate").Add(same ? Fail::kNone : Fail::kMismatch);
    }
  }

  std::vector<double> wall_ms, sim_ms, untraced_ms, traced_ms;
  double wall_total = 0.0;
  for (const Sweep& s : sweeps) {
    wall_ms.push_back(s.wall_s * 1e3);
    sim_ms.push_back(s.sim_s * 1e3);
    wall_total += s.wall_s;
    (s.traced ? traced_ms : untraced_ms).push_back(s.wall_s * 1e3);
  }
  double rows = 0.0;
  for (const dataset::Dataset& d : inputs) rows += static_cast<double>(d.n());
  const uint64_t n = sweeps.size();
  // Per median sweep, so one slow sweep does not move the rate.
  const double rows_per_s = rows / (Quantile(wall_ms, 0.50) / 1e3);

  for (size_t d = 0; d < inputs.size(); ++d) {
    const core::KnnRunStats& s = stats_of_first[d];
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%-7s n=%-6zu d=%-6zu sim=%.4f ms saved=%.4f warp_eff=%.3f "
                  "filter=%s tpq=%d",
                  kDatasets[d], inputs[d].n(), inputs[d].dims(),
                  s.sim_time_s * 1e3, s.SavedFraction(),
                  s.level2_warp_efficiency,
                  s.filter_used == core::Level2Filter::kFull ? "full"
                                                             : "partial",
                  s.threads_per_query);
    result.notes.push_back(line);
  }
  result.report = {
      {"setup_s", "s", Median(setup_s), kSetupReps},
      {"sim_join_ms", "ms", Median(sim_ms), n},
      {"sim_wall_s", "s", Median(wall_ms) / 1e3, n},
      {"peak_rss_mb", "MiB", PeakRssMb(), 1},
  };
  if (!args.trace) {
    result.Add("setup_s", "s", Median(setup_s), kSetupReps);
    result.Add("read_p50_ms", "ms", Quantile(wall_ms, 0.50), n);
    result.Add("read_rows_per_s", "1/s", rows_per_s, n);
    result.Add("aux_p50_ms", "ms", Quantile(sim_ms, 0.50), n);
    result.Add("peak_rss_mb", "MiB", PeakRssMb());
    return result;
  }

  LayerMetrics layers;
  layers.samples = n * inputs.size();
  layers.simd_knn_s = simd_s;
  layers.simd_knn_gbps = simd_s > 0 ? simd_bytes / simd_s / 1e9 : 0.0;
  uint64_t calcs = 0, pairs = 0;
  double warp = 0.0;
  for (const core::KnnRunStats& s : stats_of_first) {
    calcs += s.distance_calcs;
    pairs += s.total_pairs;
    warp += s.level2_warp_efficiency;
  }
  layers.core_query_s = wall_total;
  layers.core_device_route_s = wall_total;
  layers.core_device_routes = n * inputs.size();
  layers.core_saved_frac =
      pairs == 0 ? 0.0
                 : 1.0 - static_cast<double>(calcs) /
                             static_cast<double>(pairs);
  layers.core_distance_calcs = calcs;
  layers.stages = stages;
  layers.gpusim_warp_eff = warp / static_cast<double>(inputs.size());
  AddLayerMetrics(layers, &result);
  AddHarnessLayerMetrics(*tracer, Lateness{},
                         OverheadPct(untraced_ms, traced_ms), &result);
  return result;
}

}  // namespace sweetknn::perfbench
