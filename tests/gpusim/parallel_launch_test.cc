// Determinism suite for the parallel execution engine: running a grid at
// 1, 2, 4 or 8 host workers must produce bit-identical functional results
// and bit-identical LaunchRecords (instructions, transactions,
// dram_transactions, divergence, atomic serializations, simulated time),
// including launches whose thread groups straddle block edges and run in
// ordered block spans.
#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <vector>

#include "baseline/brute_force_cpu.h"
#include "baseline/ti_knn_cpu.h"
#include "common/rng.h"
#include "core/ti_knn_gpu.h"
#include "gpusim/device.h"
#include "gtest/gtest.h"

namespace sweetknn::gpusim {
namespace {

constexpr std::array<int, 3> kWorkerCounts = {1, 2, 8};

void ExpectStatsEqual(const KernelStats& a, const KernelStats& b,
                      const std::string& kernel) {
  EXPECT_EQ(a.warp_instructions, b.warp_instructions) << kernel;
  EXPECT_EQ(a.active_lane_ops, b.active_lane_ops) << kernel;
  EXPECT_EQ(a.divergent_branches, b.divergent_branches) << kernel;
  EXPECT_EQ(a.global_transactions, b.global_transactions) << kernel;
  EXPECT_EQ(a.dram_transactions, b.dram_transactions) << kernel;
  EXPECT_EQ(a.global_load_instructions, b.global_load_instructions) << kernel;
  EXPECT_EQ(a.global_store_instructions, b.global_store_instructions)
      << kernel;
  EXPECT_EQ(a.atomic_operations, b.atomic_operations) << kernel;
  EXPECT_EQ(a.atomic_serializations, b.atomic_serializations) << kernel;
}

void ExpectProfilesEqual(const Profile& a, const Profile& b) {
  ASSERT_EQ(a.launches.size(), b.launches.size());
  for (size_t i = 0; i < a.launches.size(); ++i) {
    const LaunchRecord& ra = a.launches[i];
    const LaunchRecord& rb = b.launches[i];
    EXPECT_EQ(ra.kernel_name, rb.kernel_name);
    EXPECT_EQ(ra.grid_blocks, rb.grid_blocks);
    EXPECT_EQ(ra.block_threads, rb.block_threads);
    ExpectStatsEqual(ra.stats, rb.stats, ra.kernel_name);
    // Bitwise double equality: the cost model is a pure function of the
    // stats, so identical stats must give identical simulated time.
    EXPECT_EQ(ra.occupancy, rb.occupancy) << ra.kernel_name;
    EXPECT_EQ(ra.sim_time_s, rb.sim_time_s) << ra.kernel_name;
  }
  EXPECT_EQ(a.transfer_time_s, b.transfer_time_s);
}

void ExpectResultsEqual(const KnnResult& a, const KnnResult& b) {
  ASSERT_EQ(a.num_queries(), b.num_queries());
  ASSERT_EQ(a.k(), b.k());
  for (size_t q = 0; q < a.num_queries(); ++q) {
    for (int j = 0; j < a.k(); ++j) {
      EXPECT_EQ(a.row(q)[j].index, b.row(q)[j].index) << "q=" << q;
      EXPECT_EQ(a.row(q)[j].distance, b.row(q)[j].distance) << "q=" << q;
    }
  }
}

/// A grid whose blocks stress every order-sensitive part of the engine:
/// divergent control flow, coalesced and strided loads with heavy L2
/// reuse across blocks (so dram_transactions depend on the global access
/// order), and cross-block atomics of every flavor.
struct MicroRun {
  Profile profile;
  std::vector<uint32_t> histogram;
  std::vector<float> minmax;
  std::vector<float> out;
};

MicroRun RunMicroGrid(int workers) {
  Device dev(DeviceSpec::TeslaK20c());
  dev.set_execution_threads(workers);

  // 4 MB of floats: larger than the 1.5 MB L2, so blocks evict each
  // other's segments and the replay order is load-bearing.
  const size_t n = 1u << 20;
  std::vector<float> host_data(n);
  Rng rng(42);
  for (float& v : host_data) v = rng.NextFloat();
  DeviceBuffer<float> data = dev.Alloc<float>(n, "data");
  dev.CopyToDevice(&data, host_data.data(), n);

  const size_t hist_bins = 97;
  DeviceBuffer<uint32_t> hist = dev.Alloc<uint32_t>(hist_bins, "hist");
  for (size_t i = 0; i < hist_bins; ++i) hist[i] = 0;
  DeviceBuffer<float> minmax = dev.Alloc<float>(2, "minmax");
  minmax[0] = 1e30f;
  minmax[1] = -1e30f;

  const LaunchConfig cfg{64, 256};
  const size_t total = static_cast<size_t>(cfg.TotalThreads());
  DeviceBuffer<float> out = dev.Alloc<float>(total, "out");

  dev.Launch(KernelMeta{"micro_gather_diverge", 32, 0}, cfg, [&](Warp& w) {
    Reg<uint32_t> tid;
    w.Op([&](int lane) {
      tid[lane] = static_cast<uint32_t>(w.GlobalThreadId(lane));
    });
    Reg<float> acc;
    w.Op([&](int lane) { acc[lane] = 0.0f; });
    // Per-lane trip counts force divergent loop exits.
    Reg<uint32_t> trips;
    w.Op([&](int lane) { trips[lane] = 1 + tid[lane] % 5; });
    Reg<uint32_t> t;
    w.Op([&](int lane) { t[lane] = 0; });
    w.While([&](int lane) { return t[lane] < trips[lane]; }, [&] {
      Reg<float> v;
      // Scattered gather with heavy cross-block overlap.
      w.Load(data,
             [&](int lane) {
               return (static_cast<size_t>(tid[lane]) * 2654435761u +
                       t[lane] * 7919u) %
                      n;
             },
             [&](int lane, float x) { v[lane] = x; });
      w.If(w.Ballot([&](int lane) { return (tid[lane] & 1u) == 0; }),
           [&] { w.Op([&](int lane) { acc[lane] += v[lane]; }); });
      w.Op([&](int lane) { ++t[lane]; });
    });
    w.Store(out, [&](int lane) { return tid[lane]; },
            [&](int lane) { return acc[lane]; });
  });

  dev.Launch(KernelMeta{"micro_strided", 32, 0}, cfg, [&](Warp& w) {
    Reg<float> sum;
    w.Op([&](int lane) { sum[lane] = 0.0f; });
    // Column-major style strided read: 8 elements, 4096 apart.
    w.LoadStrided(data,
                  [&](int lane) {
                    return (static_cast<size_t>(w.GlobalThreadId(lane)) *
                            31u) %
                           (n - 8 * 4096);
                  },
                  /*count=*/8, /*stride=*/4096,
                  [&](int lane, const float* p) { sum[lane] += p[0]; });
    w.Op([](int) {});
  });

  dev.Launch(KernelMeta{"micro_atomics", 32, 0}, cfg, [&](Warp& w) {
    Reg<uint32_t> tid;
    w.Op([&](int lane) {
      tid[lane] = static_cast<uint32_t>(w.GlobalThreadId(lane));
    });
    // Cross-block histogram: every block hits the same 97 cells.
    w.AtomicAdd(hist, [&](int lane) { return tid[lane] % hist_bins; },
                [](int) { return uint32_t{1}; }, [](int, uint32_t) {});
    w.AtomicMinFloat(minmax, [](int) { return 0; },
                     [&](int lane) { return host_data[tid[lane]]; });
    w.AtomicMaxFloat(minmax, [](int) { return 1; },
                     [&](int lane) { return host_data[tid[lane]]; });
  });

  MicroRun run;
  run.profile = dev.profile();
  run.histogram.assign(hist_bins, 0);
  for (size_t i = 0; i < hist_bins; ++i) run.histogram[i] = hist[i];
  run.minmax = {minmax[0], minmax[1]};
  run.out.resize(total);
  dev.CopyToHost(out, run.out.data(), total);
  return run;
}

TEST(ParallelLaunch, MicroGridIsWorkerCountInvariant) {
  const MicroRun serial = RunMicroGrid(1);
  // Sanity: the workload actually exercises cache pressure, divergence,
  // and atomic conflicts.
  const KernelStats agg = serial.profile.AggregateStats();
  EXPECT_GT(agg.dram_transactions, 0u);
  EXPECT_LT(agg.dram_transactions, agg.global_transactions);
  EXPECT_GT(agg.divergent_branches, 0u);
  EXPECT_GT(agg.atomic_serializations, 0u);
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(workers);
    const MicroRun run = RunMicroGrid(workers);
    ExpectProfilesEqual(serial.profile, run.profile);
    EXPECT_EQ(serial.histogram, run.histogram);
    EXPECT_EQ(serial.minmax, run.minmax);
    EXPECT_EQ(serial.out, run.out);
  }
}

TEST(ParallelLaunch, HostSerialMetaForcesLegacyPath) {
  // A deliberately order-dependent kernel (fetch-add slot reservation)
  // whose ordered span is the whole grid must give the serial slot
  // assignment at any worker count.
  auto run = [](int workers) {
    Device dev(DeviceSpec::TeslaK20c());
    dev.set_execution_threads(workers);
    const size_t n = 4096;
    DeviceBuffer<uint32_t> cursor = dev.Alloc<uint32_t>(1, "cursor");
    cursor[0] = 0;
    DeviceBuffer<uint32_t> slots = dev.Alloc<uint32_t>(n, "slots");
    KernelMeta meta{"reserve_slots", 24, 0};
    meta.ordered_span_blocks = KernelMeta::kWholeGrid;
    dev.Launch(meta, LaunchConfig::Cover(static_cast<int64_t>(n), 128),
               [&](Warp& w) {
      Reg<uint32_t> slot;
      w.AtomicAdd(cursor, [](int) { return 0; },
                  [](int) { return uint32_t{1}; },
                  [&](int lane, uint32_t old) { slot[lane] = old; });
      w.Store(slots,
              [&](int lane) { return w.GlobalThreadId(lane); },
              [&](int lane) { return slot[lane]; });
    });
    std::vector<uint32_t> out(n);
    dev.CopyToHost(slots, out.data(), n);
    return out;
  };
  const std::vector<uint32_t> serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

/// Cooperating groups of 40 consecutive threads that straddle 64-thread
/// block edges: each thread reads its group's slot, min-reduces a value
/// derived from what it read into the slot, and reads the slot back, so
/// what a thread sees depends on which group members ran before it. With
/// an ordered span that holds whole groups, any worker count must
/// reproduce the serial outputs and LaunchRecord.
struct GroupRun {
  Profile profile;
  std::vector<float> seen;
  std::vector<float> slots;
};

GroupRun RunStraddlingGroups(int workers, int span_blocks) {
  Device dev(DeviceSpec::TeslaK20c());
  dev.set_execution_threads(workers);
  const int group = 40;
  const LaunchConfig cfg{60, 64};  // 64 % 40 != 0: groups cross edges
  const size_t threads = static_cast<size_t>(cfg.TotalThreads());
  const size_t num_slots = threads / static_cast<size_t>(group);
  DeviceBuffer<float> slots = dev.Alloc<float>(num_slots, "slots");
  for (size_t i = 0; i < num_slots; ++i) slots[i] = 1e30f;
  DeviceBuffer<float> seen = dev.Alloc<float>(threads, "seen");
  KernelMeta meta{"straddling_groups", 32, 0};
  meta.ordered_span_blocks = span_blocks;
  dev.Launch(meta, cfg, [&](Warp& w) {
    Reg<size_t> slot;
    Reg<float> mine;
    w.Op([&](int lane) {
      const uint32_t tid = static_cast<uint32_t>(w.GlobalThreadId(lane));
      slot[lane] = tid / static_cast<uint32_t>(group);
      mine[lane] = static_cast<float>((tid * 2654435761u) % 1000u);
    });
    Reg<float> before;
    w.Load(slots, [&](int lane) { return slot[lane]; },
           [&](int lane, float v) { before[lane] = v; });
    w.AtomicMinFloat(slots, [&](int lane) { return slot[lane]; },
                     [&](int lane) {
                       return std::min(before[lane] - 1.0f, mine[lane]);
                     });
    Reg<float> after;
    w.Load(slots, [&](int lane) { return slot[lane]; },
           [&](int lane, float v) { after[lane] = v; });
    w.Store(seen, [&](int lane) { return w.GlobalThreadId(lane); },
            [&](int lane) { return after[lane]; });
  });
  GroupRun run;
  run.profile = dev.profile();
  run.seen.resize(threads);
  dev.CopyToHost(seen, run.seen.data(), threads);
  run.slots.resize(num_slots);
  dev.CopyToHost(slots, run.slots.data(), num_slots);
  return run;
}

TEST(ParallelLaunch, OrderedSpanKeepsStraddlingGroupsSerial) {
  // 40-thread groups in 64-thread blocks: the pattern repeats every
  // lcm(64, 40) = 320 threads, so 5-block spans hold whole groups. The
  // engine's natural chunks at 2, 4 and 8 workers (7, 3 and 1 blocks of
  // the 60) would cut groups; the span must round them up.
  const int span = 40 / std::gcd(64, 40);
  ASSERT_EQ(span, 5);
  const GroupRun serial = RunStraddlingGroups(1, span);
  // Sanity: threads of one group saw different slot values, i.e. the
  // outputs really depend on execution order within a group.
  size_t order_dependent = 0;
  for (size_t t = 0; t < serial.seen.size(); ++t) {
    if (serial.seen[t] != serial.slots[t / 40]) ++order_dependent;
  }
  EXPECT_GT(order_dependent, serial.seen.size() / 8);
  for (const int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE(workers);
    const GroupRun run = RunStraddlingGroups(workers, span);
    ExpectProfilesEqual(serial.profile, run.profile);
    EXPECT_EQ(serial.seen, run.seen);
    EXPECT_EQ(serial.slots, run.slots);
  }
}

// --- End-to-end: the real level-1/level-2 kernels --------------------------

HostMatrix RandomClusteredMatrix(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  HostMatrix out(n, dims);
  const int clusters = 9;
  for (size_t p = 0; p < n; ++p) {
    const uint64_t c = rng.NextBounded(clusters);
    for (size_t j = 0; j < dims; ++j) {
      out.at(p, j) = static_cast<float>(c) * 0.7f + rng.NextFloat() * 0.3f;
    }
  }
  return out;
}

struct EngineRun {
  KnnResult result{0, 1};
  core::KnnRunStats stats;
  Profile profile;
};

void ExpectRunStatsEqual(const core::KnnRunStats& a,
                         const core::KnnRunStats& b) {
  EXPECT_EQ(a.distance_calcs, b.distance_calcs);
  EXPECT_EQ(a.total_pairs, b.total_pairs);
  EXPECT_EQ(a.sim_time_s, b.sim_time_s);
  EXPECT_EQ(a.level2_warp_efficiency, b.level2_warp_efficiency);
  EXPECT_EQ(a.filter_used, b.filter_used);
  EXPECT_EQ(a.placement_used, b.placement_used);
  EXPECT_EQ(a.threads_per_query, b.threads_per_query);
  EXPECT_EQ(a.landmarks_query, b.landmarks_query);
  EXPECT_EQ(a.landmarks_target, b.landmarks_target);
  EXPECT_EQ(a.query_partitions, b.query_partitions);
}

EngineRun RunEngine(const core::TiOptions& base, int workers,
                    const HostMatrix& query, const HostMatrix& target,
                    int k) {
  core::TiOptions options = base;
  options.sim_threads = workers;
  Device dev(DeviceSpec::TeslaK20c());
  core::TiKnnEngine engine(&dev, options);
  engine.Prepare(query, target);
  EngineRun run;
  run.result = engine.Run(k, &run.stats);
  run.stats.profile.Clear();
  run.profile = dev.profile();
  return run;
}

/// Returns the serial run, for callers that check what it exercised.
EngineRun ExpectEngineDeterministic(
    const core::TiOptions& options, size_t query_rows = 300,
    const std::vector<int>& worker_counts = {kWorkerCounts.begin(),
                                             kWorkerCounts.end()}) {
  const HostMatrix target = RandomClusteredMatrix(700, 8, 1);
  const HostMatrix query = RandomClusteredMatrix(query_rows, 8, 2);
  const int k = 10;
  EngineRun serial = RunEngine(options, 1, query, target, k);
  for (const int workers : worker_counts) {
    SCOPED_TRACE(workers);
    const EngineRun run = RunEngine(options, workers, query, target, k);
    ExpectResultsEqual(serial.result, run.result);
    ExpectRunStatsEqual(serial.stats, run.stats);
    ExpectProfilesEqual(serial.profile, run.profile);
  }
  return serial;
}

/// Grid blocks of the run's level-2 filter launch.
int Level2FilterBlocks(const Profile& profile) {
  for (const LaunchRecord& launch : profile.launches) {
    if (launch.kernel_name == "level2_full_filter") {
      return launch.grid_blocks;
    }
  }
  return 0;
}

TEST(ParallelLaunch, SweetKnnAdaptiveIsWorkerCountInvariant) {
  ExpectEngineDeterministic(core::TiOptions{});
}

TEST(ParallelLaunch, BasicTiIsWorkerCountInvariant) {
  ExpectEngineDeterministic(core::TiOptions::BasicTi());
}

TEST(ParallelLaunch, MultiThreadPerQueryIsWorkerCountInvariant) {
  core::TiOptions options;
  options.threads_per_query_override = 4;  // exercises shared-theta slots
  options.filter_override = core::Level2Filter::kFull;
  ExpectEngineDeterministic(options);
}

// Cooperating groups that straddle 256-thread block edges: tpq = 3 (as
// the adaptive scheme picks for dor) runs in 3-block ordered spans and
// tpq = 66 (arcene) in 33-block spans; both must match the serial engine.
TEST(ParallelLaunch, StraddlingThreeThreadGroupsAreWorkerCountInvariant) {
  core::TiOptions options;
  options.threads_per_query_override = 3;
  options.filter_override = core::Level2Filter::kFull;
  const EngineRun serial = ExpectEngineDeterministic(options, 2000, {1, 4});
  EXPECT_EQ(serial.stats.threads_per_query, 3);
  EXPECT_GT(Level2FilterBlocks(serial.profile), 3 * 4);  // several spans
}

TEST(ParallelLaunch, StraddlingSixtySixThreadGroupsAreWorkerCountInvariant) {
  core::TiOptions options;
  options.threads_per_query_override = 66;
  options.filter_override = core::Level2Filter::kFull;
  const EngineRun serial = ExpectEngineDeterministic(options, 300, {1, 4});
  EXPECT_EQ(serial.stats.threads_per_query, 66);
  EXPECT_GT(Level2FilterBlocks(serial.profile), 33 * 2);  // several spans
}

TEST(ParallelLaunch, PartialFilterIsWorkerCountInvariant) {
  core::TiOptions options;
  options.filter_override = core::Level2Filter::kPartial;
  ExpectEngineDeterministic(options);
}

TEST(ParallelLaunch, CpuBaselinesAreThreadCountInvariant) {
  const HostMatrix target = RandomClusteredMatrix(500, 6, 3);
  const HostMatrix query = RandomClusteredMatrix(200, 6, 4);
  const int k = 5;
  const KnnResult bf1 = baseline::BruteForceCpu(query, target, k,
                                                core::Metric::kEuclidean, 1);
  baseline::TiCpuStats ti_stats1;
  const KnnResult ti1 =
      baseline::TiKnnCpu(query, target, k, 0, &ti_stats1, 7, 1);
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(workers);
    ExpectResultsEqual(bf1, baseline::BruteForceCpu(
                                query, target, k, core::Metric::kEuclidean,
                                workers));
    baseline::TiCpuStats ti_stats;
    ExpectResultsEqual(
        ti1, baseline::TiKnnCpu(query, target, k, 0, &ti_stats, 7, workers));
    EXPECT_EQ(ti_stats1.distance_calcs, ti_stats.distance_calcs);
  }
}

}  // namespace
}  // namespace sweetknn::gpusim
