#include "core/level1.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "core/ti_bounds.h"

namespace sweetknn::core {

namespace {

using gpusim::Device;
using gpusim::DeviceBuffer;
using gpusim::KernelMeta;
using gpusim::LaneMask;
using gpusim::LaunchConfig;
using gpusim::Reg;
using gpusim::Warp;

constexpr double kSortKeysPerSecond = 6e8;

/// Per-lane bounded max-heap over plain floats, used by the calUB kernel
/// to pool the k smallest upper bounds (functional state; the caller
/// charges the simulated instruction costs).
class BoundHeap {
 public:
  void Reset(int k) {
    k_ = k;
    heap_.clear();
  }
  bool Full() const { return static_cast<int>(heap_.size()) == k_; }
  float Max() const {
    return Full() ? heap_.front() : std::numeric_limits<float>::infinity();
  }
  /// Returns the number of sift steps performed (0 = rejected).
  int PushIfSmaller(float v) {
    if (!Full()) {
      heap_.push_back(v);
      std::push_heap(heap_.begin(), heap_.end());
      return static_cast<int>(std::log2(heap_.size() + 1)) + 1;
    }
    if (v >= heap_.front()) return 0;
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() = v;
    std::push_heap(heap_.begin(), heap_.end());
    return static_cast<int>(std::log2(heap_.size() + 1)) + 1;
  }
  const std::vector<float>& values() const { return heap_; }

 private:
  int k_ = 0;
  std::vector<float> heap_;
};

}  // namespace

Level1Result RunLevel1(Device* dev, const QueryClustering& qc,
                       const TargetClustering& tc, int k,
                       int block_threads) {
  SK_CHECK_GT(k, 0);
  const int mq = qc.num_clusters;
  const int mt = tc.num_clusters;
  const size_t dims = qc.centers.dims();
  const Metric metric = qc.centers.metric();

  Level1Result out;
  out.k = k;
  out.cluster_ub = dev->Alloc<float>(static_cast<size_t>(mq), "cluster UB");
  out.cluster_kubs = dev->Alloc<float>(
      static_cast<size_t>(mq) * static_cast<size_t>(k), "cluster kUBs");

  // ---- calUB kernels (section III-B), elastically parallel: tpc
  // threads cooperate on each query cluster, each sweeping a strided
  // subset of the target clusters into a local k-bound pool; a merge
  // kernel pools them and takes the kth smallest. With enough query
  // clusters tpc is 1 and this degenerates to the paper's one-thread-
  // per-cluster kernel. ----
  const int budget = dev->spec().MaxConcurrentThreads() / 4;
  // Each cooperating thread needs a k-float pool slot; cap the fan-out so
  // the pool buffer takes at most half of free device memory.
  const int by_memory = static_cast<int>(
      dev->free_bytes() / 2 /
      (static_cast<size_t>(std::max(1, mq)) * static_cast<size_t>(k) * 4));
  const int tpc = std::clamp(std::min(budget / std::max(1, mq), by_memory),
                             1, mt);
  const int64_t calub_threads = static_cast<int64_t>(mq) * tpc;
  DeviceBuffer<float> pools = dev->Alloc<float>(
      static_cast<size_t>(calub_threads) * static_cast<size_t>(k),
      "calUB pools");
  {
    KernelMeta meta{"level1_calub", 48, 0};
    dev->Launch(meta, LaunchConfig::Cover(calub_threads, block_threads),
                [&](Warp& w) {
      const LaneMask valid = w.Ballot([&](int lane) {
        return static_cast<int64_t>(w.GlobalThreadId(lane)) < calub_threads;
      });
      if (valid == 0) return;
      w.If(valid, [&] {
        Reg<int> cq;
        Reg<int> sub;
        w.Op([&](int lane) {
          cq[lane] = w.GlobalThreadId(lane) / tpc;
          sub[lane] = w.GlobalThreadId(lane) % tpc;
        });
        Reg<PointAccessor> qcenter;
        qc.centers.LoadPoints(
            w, [&](int lane) { return cq[lane]; },
            [&](int lane, PointAccessor acc) { qcenter[lane] = acc; });
        Reg<float> qmax;
        w.Load(qc.max_dist, [&](int lane) { return cq[lane]; },
               [&](int lane, float v) { qmax[lane] = v; });

        std::array<BoundHeap, gpusim::kWarpSize> heaps;
        w.Op([&](int lane) { heaps[static_cast<size_t>(lane)].Reset(k); });

        Reg<int> j;
        w.Op([&](int lane) { j[lane] = sub[lane]; });
        w.While(
            [&](int lane) { return j[lane] < mt; },
            [&] {
              Reg<uint32_t> begin;
              Reg<uint32_t> end;
              w.Load(tc.member_offsets, [&](int lane) { return j[lane]; },
                     [&](int lane, uint32_t v) { begin[lane] = v; });
              w.Load(tc.member_offsets,
                     [&](int lane) { return j[lane] + 1; },
                     [&](int lane, uint32_t v) { end[lane] = v; });
              const LaneMask nonempty = w.Ballot(
                  [&](int lane) { return end[lane] > begin[lane]; });
              w.If(nonempty, [&] {
                Reg<PointAccessor> tcenter;
                tc.centers.LoadPoints(
                    w, [&](int lane) { return j[lane]; },
                    [&](int lane, PointAccessor acc) {
                      tcenter[lane] = acc;
                    });
                Reg<float> ccdist;
                WarpDistances(w, qcenter, tcenter, dims, metric, &ccdist);

                // 2-landmark upper bounds through the cluster's points
                // closest to its center (stored last: member_dists is
                // descending). Bounds grow with i, so each lane stops
                // early once a bound cannot enter its pool (the paper's
                // footnote 1).
                Reg<int> i;
                w.Op([&](int lane) { i[lane] = 0; });
                w.While(
                    [&](int lane) {
                      return i[lane] <
                             std::min<int>(
                                 k, static_cast<int>(end[lane] -
                                                     begin[lane]));
                    },
                    [&] {
                      Reg<float> closest;
                      w.Load(tc.member_dists,
                             [&](int lane) {
                               return end[lane] - 1 -
                                      static_cast<uint32_t>(i[lane]);
                             },
                             [&](int lane, float v) { closest[lane] = v; });
                      Reg<float> bound;
                      w.Op([&](int lane) {
                        bound[lane] = TwoLandmarkUpperBound(
                            ccdist[lane], qmax[lane], closest[lane]);
                      });
                      w.BreakIf(w.Ballot([&](int lane) {
                        return bound[lane] >=
                               heaps[static_cast<size_t>(lane)].Max();
                      }));
                      // Heap maintenance; the warp pays for the deepest
                      // sift among its lanes.
                      int max_steps = 0;
                      w.Op([&](int lane) {
                        max_steps = std::max(
                            max_steps, heaps[static_cast<size_t>(lane)]
                                           .PushIfSmaller(bound[lane]));
                      });
                      if (max_steps > 0) {
                        w.Op([](int) {}, static_cast<uint64_t>(max_steps));
                      }
                      w.Op([&](int lane) { ++i[lane]; });
                    });
              });
              w.Op([&](int lane) { j[lane] += tpc; });
            });

        w.StoreRange(
            pools,
            [&](int lane) {
              return static_cast<size_t>(w.GlobalThreadId(lane)) *
                     static_cast<size_t>(k);
            },
            static_cast<size_t>(k), /*vector_width=*/4,
            [&](int lane, size_t idx) {
              const auto& values = heaps[static_cast<size_t>(lane)].values();
              return idx < values.size()
                         ? values[idx]
                         : std::numeric_limits<float>::infinity();
            });
      });
    });
  }
  {
    // Merge the tpc pools of each query cluster: UB = kth smallest pooled
    // bound; the pooled k bounds are also kept (cluster_kubs).
    KernelMeta meta{"level1_calub_merge", 48, 0};
    dev->Launch(meta, LaunchConfig::Cover(mq, block_threads), [&](Warp& w) {
      const LaneMask valid = w.Ballot(
          [&](int lane) { return w.GlobalThreadId(lane) < mq; });
      if (valid == 0) return;
      w.If(valid, [&] {
        Reg<const float*> pool_ptr;
        w.LoadRange(
            pools,
            [&](int lane) {
              return static_cast<size_t>(w.GlobalThreadId(lane)) *
                     static_cast<size_t>(tpc) * static_cast<size_t>(k);
            },
            static_cast<size_t>(tpc) * static_cast<size_t>(k), 4,
            [&](int lane, const float* p) { pool_ptr[lane] = p; });
        std::array<BoundHeap, gpusim::kWarpSize> merged;
        w.Op([&](int lane) {
          auto& heap = merged[static_cast<size_t>(lane)];
          heap.Reset(k);
          for (size_t e = 0;
               e < static_cast<size_t>(tpc) * static_cast<size_t>(k); ++e) {
            heap.PushIfSmaller(pool_ptr[lane][e]);
          }
        });
        w.Op([](int) {},
             static_cast<uint64_t>(tpc) * static_cast<uint64_t>(k));
        w.Store(out.cluster_ub,
                [&](int lane) { return w.GlobalThreadId(lane); },
                [&](int lane) {
                  return merged[static_cast<size_t>(lane)].Max();
                });
        w.StoreRange(
            out.cluster_kubs,
            [&](int lane) {
              return static_cast<size_t>(w.GlobalThreadId(lane)) *
                     static_cast<size_t>(k);
            },
            static_cast<size_t>(k), /*vector_width=*/4,
            [&](int lane, size_t idx) {
              const auto& values =
                  merged[static_cast<size_t>(lane)].values();
              return idx < values.size()
                         ? values[idx]
                         : std::numeric_limits<float>::infinity();
            });
      });
    });
  }

  // ---- Group filter kernels: one thread per (query cluster, target
  // cluster) pair (Algorithm 1). Two passes — count, then fill into
  // exactly-sized arrays — so no mq x mt staging buffer is needed (it
  // would not fit for large landmark counts). ----
  DeviceBuffer<uint32_t> cand_count =
      dev->Alloc<uint32_t>(static_cast<size_t>(mq), "candidate counts");
  const int64_t pairs = static_cast<int64_t>(mq) * mt;
  // The pair predicate, shared by both passes.
  auto pair_kernel = [&](Warp& w, auto&& on_keep) {
    const LaneMask valid = w.Ballot([&](int lane) {
      return static_cast<int64_t>(w.GlobalThreadId(lane)) < pairs;
    });
    if (valid == 0) return;
    w.If(valid, [&] {
      Reg<int> cq;
      Reg<int> ct;
      w.Op([&](int lane) {
        const int64_t idx = w.GlobalThreadId(lane);
        cq[lane] = static_cast<int>(idx / mt);
        ct[lane] = static_cast<int>(idx % mt);
      });
      // Skip empty target clusters.
      Reg<uint32_t> tsize;
      w.Load(tc.member_offsets, [&](int lane) { return ct[lane]; },
             [&](int lane, uint32_t begin) {
               tsize[lane] =
                   tc.member_offsets[static_cast<size_t>(ct[lane]) + 1] -
                   begin;
             });
      const LaneMask nonempty =
          w.Ballot([&](int lane) { return tsize[lane] > 0; });
      w.If(nonempty, [&] {
        Reg<PointAccessor> qcenter;
        Reg<PointAccessor> tcenter;
        qc.centers.LoadPoints(
            w, [&](int lane) { return cq[lane]; },
            [&](int lane, PointAccessor acc) { qcenter[lane] = acc; });
        tc.centers.LoadPoints(
            w, [&](int lane) { return ct[lane]; },
            [&](int lane, PointAccessor acc) { tcenter[lane] = acc; });
        Reg<float> ccdist;
        WarpDistances(w, qcenter, tcenter, dims, metric, &ccdist);
        Reg<float> qmax;
        Reg<float> tmax;
        Reg<float> ub;
        w.Load(qc.max_dist, [&](int lane) { return cq[lane]; },
               [&](int lane, float v) { qmax[lane] = v; });
        w.Load(tc.max_dist, [&](int lane) { return ct[lane]; },
               [&](int lane, float v) { tmax[lane] = v; });
        w.Load(out.cluster_ub, [&](int lane) { return cq[lane]; },
               [&](int lane, float v) { ub[lane] = v; });
        const LaneMask keep = w.Ballot([&](int lane) {
          const float lb = TwoLandmarkLowerBound(ccdist[lane], qmax[lane],
                                                 tmax[lane]);
          // Inclusive: a cluster whose bound exactly equals UB can still
          // hold a kth-place tie (paper Alg. 1 uses strict <, which
          // loses tied neighbors on e.g. integer-grid data).
          return lb <= ub[lane];
        });
        w.If(keep, [&] { on_keep(w, cq, ct, ccdist); });
      });
    });
  };

  {
    KernelMeta meta{"level1_group_filter_count", 40, 0};
    dev->Launch(meta, LaunchConfig::Cover(pairs, block_threads),
                [&](Warp& w) {
      pair_kernel(w, [&](Warp& w2, Reg<int>& cq, Reg<int>&, Reg<float>&) {
        w2.AtomicAdd(
            cand_count, [&](int lane) { return cq[lane]; },
            [](int) { return uint32_t{1}; }, [](int, uint32_t) {});
      });
    });
  }

  out.cand_offsets =
      dev->Alloc<uint32_t>(static_cast<size_t>(mq) + 1, "cand offsets");
  uint64_t total = 0;
  for (int cq = 0; cq < mq; ++cq) {
    out.cand_offsets[cq] = static_cast<uint32_t>(total);
    total += cand_count[cq];
  }
  out.cand_offsets[mq] = static_cast<uint32_t>(total);
  out.total_candidates = total;
  dev->RecordAnalyticLaunch("scan_cand_offsets",
                            static_cast<double>(mq) / 2e9 +
                                dev->spec().kernel_launch_overhead_s);
  out.cand_clusters = dev->Alloc<uint32_t>(std::max<uint64_t>(total, 1),
                                           "cand clusters");
  out.cand_center_dist =
      dev->Alloc<float>(std::max<uint64_t>(total, 1), "cand center dists");

  {
    // Fill pass: cursors restart from zero.
    for (int cq = 0; cq < mq; ++cq) cand_count[cq] = 0;
    KernelMeta meta{"level1_group_filter_fill", 40, 0};
    // The fetch-add old value reserves the store slot, so the candidate
    // order (and the transaction pattern of the scatter) depends on block
    // execution order: keep this launch on the serial engine. It is O(mq *
    // mt) — negligible next to level 2 — and the per-cluster sort below
    // re-establishes a total order anyway.
    meta.ordered_span_blocks = KernelMeta::kWholeGrid;
    dev->Launch(meta, LaunchConfig::Cover(pairs, block_threads),
                [&](Warp& w) {
      pair_kernel(w, [&](Warp& w2, Reg<int>& cq, Reg<int>& ct,
                         Reg<float>& ccdist) {
        Reg<uint32_t> slot;
        w2.AtomicAdd(
            cand_count, [&](int lane) { return cq[lane]; },
            [](int) { return uint32_t{1}; },
            [&](int lane, uint32_t old) { slot[lane] = old; });
        w2.Store(out.cand_clusters,
                 [&](int lane) {
                   return out.cand_offsets[cq[lane]] + slot[lane];
                 },
                 [&](int lane) { return static_cast<uint32_t>(ct[lane]); });
        w2.Store(out.cand_center_dist,
                 [&](int lane) {
                   return out.cand_offsets[cq[lane]] + slot[lane];
                 },
                 [&](int lane) { return ccdist[lane]; });
      });
    });
  }

  // ---- Per-cluster ascending sort by center distance (Step 3
  // precondition). Functionally on the host, charged as a device
  // segmented sort. ----
  std::vector<uint32_t> order;
  for (int cq = 0; cq < mq; ++cq) {
    const uint32_t begin = out.cand_offsets[cq];
    const uint32_t end = out.cand_offsets[cq + 1];
    const uint32_t count = end - begin;
    order.resize(count);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const float da = out.cand_center_dist[begin + a];
      const float db = out.cand_center_dist[begin + b];
      if (da != db) return da < db;
      return out.cand_clusters[begin + a] < out.cand_clusters[begin + b];
    });
    std::vector<uint32_t> tmp_c(count);
    std::vector<float> tmp_d(count);
    for (uint32_t i = 0; i < count; ++i) {
      tmp_c[i] = out.cand_clusters[begin + order[i]];
      tmp_d[i] = out.cand_center_dist[begin + order[i]];
    }
    for (uint32_t i = 0; i < count; ++i) {
      out.cand_clusters[begin + i] = tmp_c[i];
      out.cand_center_dist[begin + i] = tmp_d[i];
    }
  }
  dev->RecordAnalyticLaunch(
      "sort_candidate_lists",
      static_cast<double>(total) / kSortKeysPerSecond +
          dev->spec().kernel_launch_overhead_s);
  return out;
}

}  // namespace sweetknn::core
