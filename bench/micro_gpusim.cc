// Micro-benchmarks (google-benchmark) for the simulator substrate and the
// hot host-side data structures: how fast the SIMT interpreter executes
// warp instructions, memory-instruction accounting, and top-k selection.
// These measure *host* wall-clock cost of simulation, not simulated time.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <random>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/topk.h"
#include "gpusim/cache_sim.h"
#include "gpusim/device.h"
#include "gpusim/exec_engine.h"
#include "gpusim/warp.h"

namespace sweetknn {
namespace {

void BM_WarpOpThroughput(benchmark::State& state) {
  gpusim::KernelStats stats;
  gpusim::Warp warp(&stats, 0, 256, 0, gpusim::kFullMask);
  gpusim::Reg<float> acc;
  for (auto _ : state) {
    warp.Op([&](int lane) { acc[lane] += 1.0f; });
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_WarpOpThroughput);

void BM_WarpBallot(benchmark::State& state) {
  gpusim::KernelStats stats;
  gpusim::Warp warp(&stats, 0, 256, 0, gpusim::kFullMask);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        warp.Ballot([](int lane) { return lane % 3 == 0; }));
  }
}
BENCHMARK(BM_WarpBallot);

// A warp with its top lane off, as in a grid's trailing partial warp:
// Op and Ballot walk the mask lane by lane.
constexpr gpusim::LaneMask kPartialMask = 0x7fffffffu;

void BM_WarpOpPartialMask(benchmark::State& state) {
  gpusim::KernelStats stats;
  gpusim::Warp warp(&stats, 0, 256, 0, kPartialMask);
  gpusim::Reg<float> acc;
  for (auto _ : state) {
    warp.Op([&](int lane) { acc[lane] += 1.0f; });
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 31);
}
BENCHMARK(BM_WarpOpPartialMask);

void BM_WarpBallotPartialMask(benchmark::State& state) {
  gpusim::KernelStats stats;
  gpusim::Warp warp(&stats, 0, 256, 0, kPartialMask);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        warp.Ballot([](int lane) { return lane % 3 == 0; }));
  }
}
BENCHMARK(BM_WarpBallotPartialMask);

/// Lane offsets 0..31 in a fixed random order.
std::array<size_t, 32> ShuffledLanes() {
  std::array<size_t, 32> perm;
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::shuffle(perm.begin(), perm.end(), std::mt19937_64(3));
  return perm;
}

/// Traced-mode warps append to a SegmentTrace the engine replays and
/// frees per chunk; the benchmarks free it every kTraceFlushIters
/// iterations so it stays small.
constexpr int64_t kTraceFlushIters = 4096;

void BM_CoalescedLoad(benchmark::State& state) {
  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  auto buf = dev.Alloc<float>(1 << 16, "buf");
  gpusim::KernelStats stats;
  gpusim::CacheSim cache(10240);
  gpusim::Warp warp(&stats, 0, 256, 0, gpusim::kFullMask, &cache);
  size_t base = 0;
  for (auto _ : state) {
    warp.Load(buf, [&](int lane) { return (base + lane) & 0xffff; },
              [](int, float) {});
    base += 32;
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_CoalescedLoad);

void BM_ScatteredLoad(benchmark::State& state) {
  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  auto buf = dev.Alloc<float>(1 << 16, "buf");
  gpusim::KernelStats stats;
  gpusim::CacheSim cache(10240);
  gpusim::Warp warp(&stats, 0, 256, 0, gpusim::kFullMask, &cache);
  for (auto _ : state) {
    warp.Load(buf, [](int lane) { return lane * 1024; }, [](int, float) {});
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ScatteredLoad);

void BM_BroadcastLoad(benchmark::State& state) {
  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  auto buf = dev.Alloc<float>(1 << 16, "buf");
  gpusim::KernelStats stats;
  gpusim::CacheSim cache(10240);
  gpusim::Warp warp(&stats, 0, 256, 0, gpusim::kFullMask, &cache);
  size_t base = 0;
  for (auto _ : state) {
    warp.Load(buf, [&](int) { return base; }, [](int, float) {});
    base = (base + 32) & 0xffff;
  }
  benchmark::DoNotOptimize(stats.global_transactions);
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_BroadcastLoad);

// Lanes hit 32 distinct segments in a shuffled order, so the coalescer
// must sort them before merging.
void BM_ShuffledLoad(benchmark::State& state) {
  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  auto buf = dev.Alloc<float>(1 << 16, "buf");
  gpusim::KernelStats stats;
  gpusim::CacheSim cache(10240);
  gpusim::Warp warp(&stats, 0, 256, 0, gpusim::kFullMask, &cache);
  const std::array<size_t, 32> perm = ShuffledLanes();
  for (auto _ : state) {
    warp.Load(buf, [&](int lane) { return perm[lane] * 1024; },
              [](int, float) {});
  }
  benchmark::DoNotOptimize(stats.global_transactions);
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ShuffledLoad);

void BM_CoalescedLoadTraced(benchmark::State& state) {
  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  auto buf = dev.Alloc<float>(1 << 16, "buf");
  gpusim::KernelStats stats;
  gpusim::SegmentTrace trace;
  gpusim::Warp warp(&stats, 0, 256, 0, gpusim::kFullMask, nullptr, nullptr,
                    &trace);
  size_t base = 0;
  int64_t iters = 0;
  for (auto _ : state) {
    warp.Load(buf, [&](int lane) { return (base + lane) & 0xffff; },
              [](int, float) {});
    base += 32;
    if (++iters % kTraceFlushIters == 0) trace.Release();
  }
  benchmark::DoNotOptimize(stats.global_transactions);
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_CoalescedLoadTraced);

void BM_ShuffledLoadTraced(benchmark::State& state) {
  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  auto buf = dev.Alloc<float>(1 << 16, "buf");
  gpusim::KernelStats stats;
  gpusim::SegmentTrace trace;
  gpusim::Warp warp(&stats, 0, 256, 0, gpusim::kFullMask, nullptr, nullptr,
                    &trace);
  const std::array<size_t, 32> perm = ShuffledLanes();
  int64_t iters = 0;
  for (auto _ : state) {
    warp.Load(buf, [&](int lane) { return perm[lane] * 1024; },
              [](int, float) {});
    if (++iters % kTraceFlushIters == 0) trace.Release();
  }
  benchmark::DoNotOptimize(stats.global_transactions);
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ShuffledLoadTraced);

void BM_PartialMaskLoad(benchmark::State& state) {
  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  auto buf = dev.Alloc<float>(1 << 16, "buf");
  gpusim::KernelStats stats;
  gpusim::CacheSim cache(10240);
  gpusim::Warp warp(&stats, 0, 256, 0, kPartialMask, &cache);
  size_t base = 0;
  for (auto _ : state) {
    warp.Load(buf, [&](int lane) { return (base + lane) & 0xffff; },
              [](int, float) {});
    base += 32;
  }
  benchmark::DoNotOptimize(stats.global_transactions);
  state.SetItemsProcessed(state.iterations() * 31);
}
BENCHMARK(BM_PartialMaskLoad);

void BM_LoadRangePoint(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  auto buf = dev.Alloc<float>(64 * dims, "points");
  gpusim::KernelStats stats;
  gpusim::CacheSim cache(10240);
  gpusim::Warp warp(&stats, 0, 256, 0, gpusim::kFullMask, &cache);
  for (auto _ : state) {
    warp.LoadRange(buf, [&](int lane) { return (lane % 64) * dims; }, dims,
                   4, [](int, const float*) {});
  }
}
BENCHMARK(BM_LoadRangePoint)->Arg(4)->Arg(64)->Arg(1024);

void BM_TopKInsertion(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<float> values(4096);
  for (float& v : values) v = rng.NextFloat();
  for (auto _ : state) {
    TopK heap(k);
    for (uint32_t i = 0; i < values.size(); ++i) {
      heap.PushIfCloser({i, values[i]});
    }
    benchmark::DoNotOptimize(heap.max());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_TopKInsertion)->Arg(1)->Arg(20)->Arg(512);

void BM_CacheSimAccess(benchmark::State& state) {
  gpusim::CacheSim cache(10240);
  uint64_t seg = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(seg++ % 20000));
  }
}
BENCHMARK(BM_CacheSimAccess);

void BM_EuclideanDistance(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<float> a(dims);
  std::vector<float> b(dims);
  for (size_t i = 0; i < dims; ++i) {
    a[i] = rng.NextFloat();
    b[i] = rng.NextFloat();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EuclideanDistance(a.data(), b.data(), dims));
  }
}
BENCHMARK(BM_EuclideanDistance)->Arg(4)->Arg(29)->Arg(281);

}  // namespace
}  // namespace sweetknn

BENCHMARK_MAIN();
