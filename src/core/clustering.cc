#include "core/clustering.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "gpusim/gemm_model.h"
#include "simd/simd_kernels.h"

namespace sweetknn::core {

namespace {

using gpusim::Device;
using gpusim::DeviceBuffer;
using gpusim::KernelMeta;
using gpusim::LaneMask;
using gpusim::LaunchConfig;
using gpusim::Reg;
using gpusim::Warp;

/// Packs the host-side view of a DevicePoints buffer (either layout)
/// for the vectorized batch kernels. Pure host bookkeeping: no device
/// charge, and the packed copy holds exactly the device bytes.
simd::PackedTargets PackPoints(const DevicePoints& pts) {
  const bool row_major = pts.layout() == PointLayout::kRowMajor;
  return simd::PackedTargets::PackStrided(
      pts.HostPoint(0).base, pts.n(), pts.dims(),
      /*row_stride=*/row_major ? pts.dims() : 1,
      /*col_stride=*/row_major ? 1 : pts.n());
}

/// Contiguous view of one lane's point for the batch kernels: row-major
/// accessors are already contiguous; column-major lanes copy their point
/// into the lane's scratch slot (bit-exact float copies).
const float* LaneRow(const PointAccessor& pt, size_t dims, int lane,
                     std::vector<float>* scratch) {
  if (pt.stride == 1) return pt.base;
  float* dst = scratch->data() + static_cast<size_t>(lane) * dims;
  for (size_t j = 0; j < dims; ++j) dst[j] = pt[j];
  return dst;
}

/// Simulated device-side radix-sort throughput (thrust-class sort on
/// Kepler), used for the per-cluster ordering pass.
constexpr double kSortKeysPerSecond = 6e8;
/// Simulated throughput of a device prefix-scan.
constexpr double kScanElemsPerSecond = 2e9;

/// Pair-parallel assignment for small point sets: one thread per
/// (point, center) pair, argmin via a packed (distance bits, center)
/// atomicMin, then a small decode kernel. Elastic-parallelism analogue of
/// the paper's multi-thread-per-query idea applied to preprocessing,
/// needed because a 100-point kernel cannot occupy the chip.
void RunAssignKernelPairs(Device* dev, const DevicePoints& points,
                          const DevicePoints& centers, int block_threads,
                          const std::string& name,
                          DeviceBuffer<uint32_t>* assignment,
                          DeviceBuffer<float>* dist_to_center,
                          DeviceBuffer<float>* max_dist) {
  const size_t n = points.n();
  const size_t dims = points.dims();
  const Metric metric = points.metric();
  const size_t m = centers.n();
  DeviceBuffer<uint64_t> best = dev->Alloc<uint64_t>(n, "argmin keys");
  for (size_t i = 0; i < n; ++i) best[i] = ~uint64_t{0};  // cudaMemset

  // Each thread owns one (point, center-chunk) pair: the point is loaded
  // once per chunk instead of once per center, and enough chunks are
  // made to occupy the device.
  const size_t budget = static_cast<size_t>(
      std::max(1, dev->spec().MaxConcurrentThreads() / 4));
  const size_t num_chunks =
      std::clamp<size_t>(budget / std::max<size_t>(1, n), 1, m);
  const size_t chunk_size = (m + num_chunks - 1) / num_chunks;
  const int64_t total_threads =
      static_cast<int64_t>(n) * static_cast<int64_t>(num_chunks);
  const simd::PackedTargets packed_centers = PackPoints(centers);
  const simd::Dist dist_kind = SimdDistFor(metric);
  // Widest span any lane evaluates: its chunk plus the tile-alignment
  // back-off of the span start.
  const size_t lane_stride = chunk_size + simd::kTileLanes;
  KernelMeta meta{name + "_pairs", 40, 0};
  dev->Launch(meta, LaunchConfig::Cover(total_threads, block_threads),
              [&](Warp& w) {
    const LaneMask valid = w.Ballot([&](int lane) {
      return static_cast<int64_t>(w.GlobalThreadId(lane)) < total_threads;
    });
    w.If(valid, [&] {
      // p varies fastest so lanes hit distinct points (no atomic
      // conflicts) and share each center load.
      Reg<size_t> p;
      Reg<size_t> chunk;
      w.Op([&](int lane) {
        const size_t idx = static_cast<size_t>(w.GlobalThreadId(lane));
        p[lane] = idx % n;
        chunk[lane] = idx / n;
      });
      Reg<PointAccessor> point;
      points.LoadPoints(w, [&](int lane) { return p[lane]; },
                        [&](int lane, PointAccessor a) { point[lane] = a; });
      // Hoisted bulk math: each lane's chunk of point-vs-center distances
      // is evaluated up front by the vectorized host kernels (over the
      // tile-aligned span covering the chunk). The While walk below keeps
      // its exact lockstep structure and per-step cost charges; its
      // distance Op reads the precomputed values, which are bit-identical
      // to AccessorDistance (the tests/simd suite holds the two
      // definitions together).
      thread_local std::vector<float> lane_dists;
      thread_local std::vector<float> lane_scratch;
      lane_dists.resize(gpusim::kWarpSize * lane_stride);
      lane_scratch.resize(gpusim::kWarpSize * dims);
      std::array<size_t, gpusim::kWarpSize> lane_base{};
      for (int lane = 0; lane < gpusim::kWarpSize; ++lane) {
        if (static_cast<int64_t>(w.GlobalThreadId(lane)) >= total_threads) {
          continue;
        }
        const size_t start = chunk[lane] * chunk_size;
        const size_t end = std::min(m, (chunk[lane] + 1) * chunk_size);
        if (start >= end) continue;
        const size_t aligned = start - start % simd::kTileLanes;
        lane_base[lane] = aligned;
        const float* row = LaneRow(point[lane], dims, lane, &lane_scratch);
        simd::QueryDistances(row, packed_centers, aligned, end, dist_kind,
                             lane_dists.data() + lane * lane_stride);
      }
      Reg<uint64_t> key;
      w.Op([&](int lane) { key[lane] = ~uint64_t{0}; });
      Reg<size_t> c;
      w.Op([&](int lane) { c[lane] = chunk[lane] * chunk_size; });
      w.While(
          [&](int lane) {
            return c[lane] < std::min(m, (chunk[lane] + 1) * chunk_size);
          },
          [&] {
            Reg<PointAccessor> center;
            centers.LoadPoints(w, [&](int lane) { return c[lane]; },
                               [&](int lane, PointAccessor a) {
                                 center[lane] = a;
                               });
            w.Op(
                [&](int lane) {
                  const float d =
                      lane_dists[static_cast<size_t>(lane) * lane_stride +
                                 (c[lane] - lane_base[lane])];
                  uint32_t bits = 0;
                  static_assert(sizeof(bits) == sizeof(d));
                  std::memcpy(&bits, &d, sizeof(bits));
                  const uint64_t cand =
                      (static_cast<uint64_t>(bits) << 32) |
                      static_cast<uint64_t>(c[lane]);
                  key[lane] = std::min(key[lane], cand);
                },
                DistanceOpCost(dims));
            w.Op([&](int lane) { ++c[lane]; });
          });
      w.AtomicMin(best, [&](int lane) { return p[lane]; },
                  [&](int lane) { return key[lane]; });
    });
  });

  KernelMeta decode_meta{name + "_decode", 24, 0};
  dev->Launch(decode_meta,
              LaunchConfig::Cover(static_cast<int64_t>(n), block_threads),
              [&](Warp& w) {
    const LaneMask valid = w.Ballot([&](int lane) {
      return static_cast<size_t>(w.GlobalThreadId(lane)) < n;
    });
    w.If(valid, [&] {
      Reg<uint64_t> key;
      w.Load(best, [&](int lane) { return w.GlobalThreadId(lane); },
             [&](int lane, uint64_t v) { key[lane] = v; });
      Reg<uint32_t> cluster;
      Reg<float> dist;
      w.Op([&](int lane) {
        cluster[lane] = static_cast<uint32_t>(key[lane] & 0xffffffffu);
        const uint32_t bits = static_cast<uint32_t>(key[lane] >> 32);
        std::memcpy(&dist[lane], &bits, sizeof(float));
      });
      w.Store(*assignment, [&](int lane) { return w.GlobalThreadId(lane); },
              [&](int lane) { return cluster[lane]; });
      w.Store(*dist_to_center,
              [&](int lane) { return w.GlobalThreadId(lane); },
              [&](int lane) { return dist[lane]; });
      if (max_dist != nullptr) {
        w.AtomicMaxFloat(*max_dist,
                         [&](int lane) { return cluster[lane]; },
                         [&](int lane) { return dist[lane]; });
      }
    });
  });
}

/// Assignment kernel shared by query and target clustering: each thread
/// owns one point, scans all centers, and records the nearest center and
/// the distance to it. Optionally updates the per-cluster max distance
/// with an atomicMax (queries and targets both need the radius). Falls
/// back to the pair-parallel variant when the point count alone cannot
/// keep the device busy.
void RunAssignKernel(Device* dev, const DevicePoints& points,
                     const DevicePoints& centers, int block_threads,
                     const char* name, DeviceBuffer<uint32_t>* assignment,
                     DeviceBuffer<float>* dist_to_center,
                     DeviceBuffer<float>* max_dist) {
  const size_t n = points.n();
  const size_t dims = points.dims();
  const Metric metric = points.metric();
  const size_t m = centers.n();
  if (n < static_cast<size_t>(dev->spec().MaxConcurrentThreads() / 4)) {
    RunAssignKernelPairs(dev, points, centers, block_threads, name,
                         assignment, dist_to_center, max_dist);
    return;
  }
  const simd::PackedTargets packed_centers = PackPoints(centers);
  const simd::Dist dist_kind = SimdDistFor(metric);
  KernelMeta meta{name, /*regs_per_thread=*/40, /*shared_bytes_per_block=*/0};
  dev->Launch(meta, LaunchConfig::Cover(static_cast<int64_t>(n),
                                        block_threads),
              [&](Warp& w) {
    const LaneMask valid = w.Ballot([&](int lane) {
      return static_cast<size_t>(w.GlobalThreadId(lane)) < n;
    });
    w.If(valid, [&] {
      Reg<PointAccessor> point;
      points.LoadPoints(
          w, [&](int lane) { return w.GlobalThreadId(lane); },
          [&](int lane, PointAccessor acc) { point[lane] = acc; });
      // Hoisted bulk math: all m distances for every active lane are
      // evaluated up front by the vectorized host kernels. The lockstep
      // center walk keeps its exact structure and cost charges; its
      // distance Op reads the precomputed values, which are bit-identical
      // to AccessorDistance.
      thread_local std::vector<float> lane_dists;
      thread_local std::vector<float> lane_scratch;
      lane_dists.resize(gpusim::kWarpSize * m);
      lane_scratch.resize(gpusim::kWarpSize * dims);
      for (int lane = 0; lane < gpusim::kWarpSize; ++lane) {
        if (static_cast<size_t>(w.GlobalThreadId(lane)) >= n) continue;
        const float* row = LaneRow(point[lane], dims, lane, &lane_scratch);
        simd::QueryDistances(row, packed_centers, dist_kind,
                             lane_dists.data() + lane * m);
      }
      Reg<float> best_dist;
      Reg<uint32_t> best_cluster;
      w.Op([&](int lane) {
        best_dist[lane] = std::numeric_limits<float>::infinity();
        best_cluster[lane] = 0;
      });
      // All lanes walk the centers in lockstep; center loads broadcast.
      for (size_t c = 0; c < m; ++c) {
        Reg<PointAccessor> center;
        centers.LoadPoints(
            w, [&](int) { return c; },
            [&](int lane, PointAccessor acc) { center[lane] = acc; });
        Reg<float> dist;
        w.Op(
            [&](int lane) {
              dist[lane] = lane_dists[static_cast<size_t>(lane) * m + c];
            },
            DistanceOpCost(dims));
        w.Op([&](int lane) {
          if (dist[lane] < best_dist[lane]) {
            best_dist[lane] = dist[lane];
            best_cluster[lane] = static_cast<uint32_t>(c);
          }
        });
      }
      w.Store(*assignment,
              [&](int lane) { return w.GlobalThreadId(lane); },
              [&](int lane) { return best_cluster[lane]; });
      w.Store(*dist_to_center,
              [&](int lane) { return w.GlobalThreadId(lane); },
              [&](int lane) { return best_dist[lane]; });
      if (max_dist != nullptr) {
        w.AtomicMaxFloat(*max_dist,
                         [&](int lane) { return best_cluster[lane]; },
                         [&](int lane) { return best_dist[lane]; });
      }
    });
  });
}


/// A few Lloyd iterations over the landmark centers: reassign points,
/// recompute centroids (functionally on the host, charged as a device
/// centroid-update pass), repeat. Empty clusters keep their old center.
DevicePoints RefineCentersKMeans(Device* dev, const DevicePoints& points,
                                 DevicePoints centers, int iterations,
                                 int block_threads, const char* tag) {
  const size_t n = points.n();
  const size_t dims = points.dims();
  const size_t m = centers.n();
  for (int iter = 0; iter < iterations; ++iter) {
    DeviceBuffer<uint32_t> assignment =
        dev->Alloc<uint32_t>(n, "kmeans assignment");
    DeviceBuffer<float> dist = dev->Alloc<float>(n, "kmeans dists");
    RunAssignKernel(dev, points, centers, block_threads,
                    (std::string("kmeans_assign:") + tag).c_str(),
                    &assignment, &dist, nullptr);
    HostMatrix means(m, dims);
    std::vector<uint32_t> counts(m, 0);
    // Per-chunk partial sums merged in chunk index order. Chunk boundaries
    // are fixed by kChunkPoints alone — never by the worker count — so the
    // float accumulation order, and therefore the refined centers, are
    // identical for any number of workers (and match the old serial sweep
    // exactly whenever n fits in one chunk).
    constexpr size_t kChunkPoints = 4096;
    const size_t num_chunks = common::NumChunks(n, kChunkPoints);
    std::vector<HostMatrix> chunk_means(num_chunks);
    std::vector<std::vector<uint32_t>> chunk_counts(num_chunks);
    common::ParallelForChunks(
        dev->execution_threads(), n, kChunkPoints,
        [&](size_t chunk, size_t begin, size_t end) {
          HostMatrix local_means(m, dims);
          std::vector<uint32_t> local_counts(m, 0);
          for (size_t p = begin; p < end; ++p) {
            const uint32_t c = assignment[p];
            ++local_counts[c];
            // AddRow is an elementwise vector add in the same j order,
            // so either branch produces the same bytes as the old scalar
            // loop; only contiguous rows can take the vector path.
            const PointAccessor pt = points.HostPoint(p);
            if (pt.stride == 1) {
              simd::AddRow(local_means.mutable_row(c), pt.base, dims);
            } else {
              for (size_t j = 0; j < dims; ++j) {
                local_means.at(c, j) += pt[j];
              }
            }
          }
          chunk_means[chunk] = std::move(local_means);
          chunk_counts[chunk] = std::move(local_counts);
        });
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      for (size_t c = 0; c < m; ++c) {
        counts[c] += chunk_counts[chunk][c];
        simd::AddRow(means.mutable_row(c), chunk_means[chunk].row(c), dims);
      }
    }
    for (size_t c = 0; c < m; ++c) {
      for (size_t j = 0; j < dims; ++j) {
        if (counts[c] > 0) {
          means.at(c, j) /= static_cast<float>(counts[c]);
        } else {
          means.at(c, j) = centers.At(c, j);
        }
      }
    }
    dev->RecordAnalyticLaunch(
        std::string("kmeans_update:") + tag,
        static_cast<double>(n) * dims * 4.0 /
                dev->spec().mem_bandwidth_bytes_per_s +
            dev->spec().kernel_launch_overhead_s);
    centers = DevicePoints::CreateOnDevice(dev, means, centers.layout(),
                                           "kmeans centers",
                                           /*vector_width=*/4,
                                           centers.metric());
  }
  return centers;
}

/// Two-pass member-list construction (paper section III-A): pass A counts
/// cluster sizes with atomicAdd, recording each point's local ID; the host
/// sizes the per-cluster arrays (an exclusive scan); pass B scatters
/// members to offset + local ID, needing no synchronization.
struct MemberLists {
  DeviceBuffer<uint32_t> offsets;  // m + 1
  DeviceBuffer<uint32_t> members;  // n grouped by cluster
};

MemberLists BuildMemberLists(Device* dev,
                             const DeviceBuffer<uint32_t>& assignment,
                             size_t n, size_t m, int block_threads,
                             const char* tag) {
  DeviceBuffer<uint32_t> sizes = dev->Alloc<uint32_t>(m, "cluster sizes");
  DeviceBuffer<uint32_t> local_ids = dev->Alloc<uint32_t>(n, "local ids");

  KernelMeta count_meta{std::string("count_members:") + tag, 24, 0};
  // The fetch-add old value becomes the point's local ID, i.e. its slot in
  // the scatter pass — a block-execution-order-dependent result the
  // parallel engine cannot reproduce bit-exactly. O(n) and cheap: keep it
  // on the serial engine.
  count_meta.ordered_span_blocks = KernelMeta::kWholeGrid;
  dev->Launch(count_meta,
              LaunchConfig::Cover(static_cast<int64_t>(n), block_threads),
              [&](Warp& w) {
    const LaneMask valid = w.Ballot([&](int lane) {
      return static_cast<size_t>(w.GlobalThreadId(lane)) < n;
    });
    w.If(valid, [&] {
      Reg<uint32_t> cluster;
      w.Load(assignment, [&](int lane) { return w.GlobalThreadId(lane); },
             [&](int lane, uint32_t c) { cluster[lane] = c; });
      w.AtomicAdd(
          sizes, [&](int lane) { return cluster[lane]; },
          [](int) { return uint32_t{1}; },
          [&](int lane, uint32_t old) {
            local_ids[static_cast<size_t>(w.GlobalThreadId(lane))] = old;
          });
    });
  });

  // Exclusive scan over sizes (modeled as a device scan).
  MemberLists out;
  out.offsets = dev->Alloc<uint32_t>(m + 1, "member offsets");
  uint32_t running = 0;
  for (size_t c = 0; c < m; ++c) {
    out.offsets[c] = running;
    running += sizes[c];
  }
  out.offsets[m] = running;
  dev->RecordAnalyticLaunch(std::string("scan_offsets:") + tag,
                            static_cast<double>(m) / kScanElemsPerSecond +
                                dev->spec().kernel_launch_overhead_s);

  out.members = dev->Alloc<uint32_t>(n, "member ids");
  KernelMeta scatter_meta{std::string("scatter_members:") + tag, 24, 0};
  dev->Launch(scatter_meta,
              LaunchConfig::Cover(static_cast<int64_t>(n), block_threads),
              [&](Warp& w) {
    const LaneMask valid = w.Ballot([&](int lane) {
      return static_cast<size_t>(w.GlobalThreadId(lane)) < n;
    });
    w.If(valid, [&] {
      Reg<uint32_t> cluster;
      Reg<uint32_t> local;
      w.Load(assignment, [&](int lane) { return w.GlobalThreadId(lane); },
             [&](int lane, uint32_t c) { cluster[lane] = c; });
      w.Load(local_ids, [&](int lane) { return w.GlobalThreadId(lane); },
             [&](int lane, uint32_t v) { local[lane] = v; });
      Reg<uint32_t> slot;
      w.Load(out.offsets, [&](int lane) { return cluster[lane]; },
             [&](int lane, uint32_t off) { slot[lane] = off + local[lane]; });
      w.Store(out.members, [&](int lane) { return slot[lane]; },
              [&](int lane) {
                return static_cast<uint32_t>(w.GlobalThreadId(lane));
              });
    });
  });
  return out;
}

}  // namespace

int DefaultLandmarkCount(size_t n, size_t free_bytes) {
  const int by_rule = static_cast<int>(3.0 * std::sqrt(static_cast<double>(n)));
  // Clustering structures cost roughly 16 bytes per landmark per side plus
  // the candidate matrix (8 bytes per cluster pair); cap the count so they
  // fit in a quarter of free memory: 8*m^2 <= free/4.
  const double cap_sq = static_cast<double>(free_bytes) / 32.0;
  const int by_mem = static_cast<int>(std::sqrt(std::max(1.0, cap_sq)));
  int m = std::min(by_rule, by_mem);
  m = std::max(1, std::min(m, static_cast<int>(n)));
  return m;
}

std::vector<uint32_t> SelectLandmarks(Device* dev, const DevicePoints& points,
                                      int m, int trials, uint64_t seed,
                                      int block_threads) {
  SK_CHECK_GT(m, 0);
  SK_CHECK_GT(trials, 0);
  const size_t n = points.n();
  const size_t dims = points.dims();
  SK_CHECK_LE(static_cast<size_t>(m), n);

  // Random candidate sets (host-side RNG; the paper generates them in a
  // kernel, but the cost is negligible either way).
  Rng rng(seed);
  std::vector<uint32_t> candidates(static_cast<size_t>(trials * m));
  for (uint32_t& id : candidates) {
    id = static_cast<uint32_t>(rng.NextBounded(n));
  }

  // The pairwise-distance sums over each candidate set are a bulk
  // regular computation; a production implementation evaluates them with
  // the same tiled GEMM formulation the baseline uses for its distance
  // matrix (one m x m x d GEMM per candidate set), so we charge them
  // analytically and evaluate the sums functionally (DESIGN.md
  // "Deviations").
  (void)block_threads;
  // All trials batch into one GEMM (block rows = candidate sets).
  const gpusim::GemmModel gemm(dev->spec());
  // The per-trial sum reduction streams at memory bandwidth.
  const double gemm_time =
      gemm.Time(static_cast<int64_t>(trials) * m, m,
                static_cast<int64_t>(dims)) +
      static_cast<double>(trials) * m * m * 4.0 /
          dev->spec().mem_bandwidth_bytes_per_s;
  dev->RecordAnalyticLaunch("landmark_pair_sums", gemm_time);

  std::vector<float> host_sums(static_cast<size_t>(trials), 0.0f);
  const simd::Dist dist_kind = SimdDistFor(points.metric());
  std::vector<float> gathered(static_cast<size_t>(m) * dims);
  std::vector<float> pair_dists(static_cast<size_t>(m));
  for (int trial = 0; trial < trials; ++trial) {
    const size_t base = static_cast<size_t>(trial) * static_cast<size_t>(m);
    // Gather the trial's candidate rows, pack once, and evaluate each
    // row-i-vs-all block with the batch kernels. Each pair distance is
    // bit-identical to the old per-pair walk, and the double sum still
    // adds them in ascending (i, j>i) order, so host_sums is unchanged.
    for (int i = 0; i < m; ++i) {
      const PointAccessor pt =
          points.HostPoint(candidates[base + static_cast<size_t>(i)]);
      float* dst = gathered.data() + static_cast<size_t>(i) * dims;
      for (size_t j = 0; j < dims; ++j) dst[j] = pt[j];
    }
    const simd::PackedTargets packed = simd::PackedTargets::Pack(
        gathered.data(), static_cast<size_t>(m), dims);
    double sum = 0.0;
    for (int i = 0; i < m; ++i) {
      simd::QueryDistances(gathered.data() + static_cast<size_t>(i) * dims,
                           packed, dist_kind, pair_dists.data());
      for (int j = i + 1; j < m; ++j) {
        sum += static_cast<double>(pair_dists[static_cast<size_t>(j)]);
      }
    }
    host_sums[static_cast<size_t>(trial)] = static_cast<float>(sum);
  }
  const size_t best = static_cast<size_t>(
      std::max_element(host_sums.begin(), host_sums.end()) -
      host_sums.begin());
  std::vector<uint32_t> out(
      candidates.begin() + static_cast<long>(best * static_cast<size_t>(m)),
      candidates.begin() +
          static_cast<long>((best + 1) * static_cast<size_t>(m)));
  // Duplicate candidates would create empty twin clusters; dedupe while
  // preserving order (replacement ids drawn deterministically).
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  while (out.size() < static_cast<size_t>(m)) {
    const uint32_t id = static_cast<uint32_t>(rng.NextBounded(n));
    if (!std::binary_search(out.begin(), out.end(), id)) {
      out.insert(std::lower_bound(out.begin(), out.end(), id), id);
    }
  }
  return out;
}

QueryClustering BuildQueryClustering(Device* dev, const DevicePoints& query,
                                     const ClusteringConfig& cfg) {
  QueryClustering out;
  const size_t n = query.n();
  const int m = cfg.landmarks_override > 0
                    ? std::min<int>(cfg.landmarks_override,
                                    static_cast<int>(n))
                    : DefaultLandmarkCount(n, dev->free_bytes());
  out.num_clusters = m;
  const std::vector<uint32_t> landmark_ids = SelectLandmarks(
      dev, query, m, cfg.landmark_trials, cfg.seed, cfg.block_threads);
  out.centers =
      DevicePoints::GatherRows(dev, query, landmark_ids, "query centers");
  if (cfg.kmeans_iterations > 0) {
    out.centers = RefineCentersKMeans(dev, query, std::move(out.centers),
                                      cfg.kmeans_iterations,
                                      cfg.block_threads, "query");
  }

  out.assignment = dev->Alloc<uint32_t>(n, "query assignment");
  out.max_dist = dev->Alloc<float>(static_cast<size_t>(m), "query radius");
  DeviceBuffer<float> dist_to_center =
      dev->Alloc<float>(n, "query center distances");
  RunAssignKernel(dev, query, out.centers, cfg.block_threads, "assign_query",
                  &out.assignment, &dist_to_center, &out.max_dist);

  MemberLists lists = BuildMemberLists(dev, out.assignment, n,
                                       static_cast<size_t>(m),
                                       cfg.block_threads, "query");
  out.member_offsets = std::move(lists.offsets);
  out.members = std::move(lists.members);
  return out;
}

QueryClustering QueryClusteringFromTarget(Device* dev,
                                          const DevicePoints& points,
                                          const TargetClustering& tc) {
  const size_t n = points.n();
  const size_t m = static_cast<size_t>(tc.num_clusters);
  QueryClustering out;
  out.num_clusters = tc.num_clusters;
  // Device-to-device copies of the shared structures. Centers are
  // re-gathered (a tiny kernel); the flat arrays are bulk-copied and
  // charged at DRAM bandwidth.
  std::vector<uint32_t> identity(m);
  std::iota(identity.begin(), identity.end(), 0u);
  out.centers = DevicePoints::GatherRows(dev, tc.centers, identity,
                                         "query centers (self-join)");
  out.assignment = dev->Alloc<uint32_t>(n, "q assignment (self-join)");
  std::copy(tc.assignment.data(), tc.assignment.data() + n,
            out.assignment.data());
  out.max_dist = dev->Alloc<float>(m, "q radius (self-join)");
  std::copy(tc.max_dist.data(), tc.max_dist.data() + m,
            out.max_dist.data());
  out.member_offsets =
      dev->Alloc<uint32_t>(m + 1, "q member offsets (self-join)");
  std::copy(tc.member_offsets.data(), tc.member_offsets.data() + m + 1,
            out.member_offsets.data());
  out.members = dev->Alloc<uint32_t>(n, "q members (self-join)");
  std::copy(tc.member_ids.data(), tc.member_ids.data() + n,
            out.members.data());
  const double bytes = static_cast<double>(2 * n + m + m + 1) * 4.0;
  dev->RecordAnalyticLaunch(
      "selfjoin_d2d_copy",
      bytes / dev->spec().mem_bandwidth_bytes_per_s +
          dev->spec().kernel_launch_overhead_s);
  return out;
}

TargetClusteringHost DownloadTargetClustering(const TargetClustering& tc) {
  TargetClusteringHost out;
  out.num_clusters = tc.num_clusters;
  const size_t m = static_cast<size_t>(tc.num_clusters);
  const size_t n = tc.assignment.size();
  out.centers = HostMatrix(tc.centers.n(), tc.centers.dims());
  for (size_t c = 0; c < tc.centers.n(); ++c) {
    for (size_t j = 0; j < tc.centers.dims(); ++j) {
      out.centers.at(c, j) = tc.centers.At(c, j);
    }
  }
  out.assignment.assign(tc.assignment.data(), tc.assignment.data() + n);
  out.member_offsets.assign(tc.member_offsets.data(),
                            tc.member_offsets.data() + m + 1);
  out.member_ids.assign(tc.member_ids.data(), tc.member_ids.data() + n);
  out.member_dists.assign(tc.member_dists.data(), tc.member_dists.data() + n);
  out.max_dist.assign(tc.max_dist.data(), tc.max_dist.data() + m);
  return out;
}

TargetClustering UploadTargetClustering(Device* dev,
                                        const TargetClusteringHost& host,
                                        PointLayout layout, int vector_width,
                                        Metric metric) {
  const size_t n = host.assignment.size();
  const size_t m = static_cast<size_t>(host.num_clusters);
  SK_CHECK_EQ(host.centers.rows(), m);
  SK_CHECK_EQ(host.member_offsets.size(), m + 1);
  SK_CHECK_EQ(host.member_ids.size(), n);
  SK_CHECK_EQ(host.member_dists.size(), n);
  SK_CHECK_EQ(host.max_dist.size(), m);

  TargetClustering out;
  out.num_clusters = host.num_clusters;
  out.centers = DevicePoints::Upload(dev, host.centers, layout,
                                     "target centers", vector_width, metric);
  out.assignment = dev->Alloc<uint32_t>(n, "t assignment");
  dev->CopyToDevice(&out.assignment, host.assignment.data(), n);
  out.member_offsets = dev->Alloc<uint32_t>(m + 1, "member offsets");
  dev->CopyToDevice(&out.member_offsets, host.member_offsets.data(), m + 1);
  out.member_ids = dev->Alloc<uint32_t>(n, "member ids");
  dev->CopyToDevice(&out.member_ids, host.member_ids.data(), n);
  out.member_dists = dev->Alloc<float>(n, "t member dists");
  dev->CopyToDevice(&out.member_dists, host.member_dists.data(), n);
  out.max_dist = dev->Alloc<float>(m, "target radius");
  dev->CopyToDevice(&out.max_dist, host.max_dist.data(), m);
  return out;
}

TargetClustering BuildTargetClustering(Device* dev,
                                       const DevicePoints& target,
                                       const ClusteringConfig& cfg) {
  TargetClustering out;
  const size_t n = target.n();
  const int m = cfg.landmarks_override > 0
                    ? std::min<int>(cfg.landmarks_override,
                                    static_cast<int>(n))
                    : DefaultLandmarkCount(n, dev->free_bytes());
  out.num_clusters = m;
  // Decorrelate from the query landmark RNG stream.
  const std::vector<uint32_t> landmark_ids =
      SelectLandmarks(dev, target, m, cfg.landmark_trials,
                      SplitMix64(cfg.seed ^ 0x7a11f00dULL), cfg.block_threads);
  out.centers =
      DevicePoints::GatherRows(dev, target, landmark_ids, "target centers");
  if (cfg.kmeans_iterations > 0) {
    out.centers = RefineCentersKMeans(dev, target, std::move(out.centers),
                                      cfg.kmeans_iterations,
                                      cfg.block_threads, "target");
  }

  out.assignment = dev->Alloc<uint32_t>(n, "t assignment");
  DeviceBuffer<float> dist_to_center = dev->Alloc<float>(n, "t distances");
  out.max_dist = dev->Alloc<float>(static_cast<size_t>(m), "target radius");
  RunAssignKernel(dev, target, out.centers, cfg.block_threads,
                  "assign_target", &out.assignment, &dist_to_center,
                  &out.max_dist);

  MemberLists lists = BuildMemberLists(dev, out.assignment, n,
                                       static_cast<size_t>(m),
                                       cfg.block_threads, "target");
  out.member_offsets = std::move(lists.offsets);
  out.member_ids = std::move(lists.members);

  // Per-cluster descending sort by distance-to-center (the order the
  // level-2 monotone break relies on). Functionally sorted on the host;
  // charged as a device segmented sort.
  out.member_dists = dev->Alloc<float>(n, "t member dists");
  for (int c = 0; c < m; ++c) {
    const uint32_t begin = out.member_offsets[c];
    const uint32_t end = out.member_offsets[c + 1];
    std::sort(out.member_ids.data() + begin, out.member_ids.data() + end,
              [&](uint32_t a, uint32_t b) {
                const float da = dist_to_center[a];
                const float db = dist_to_center[b];
                if (da != db) return da > db;
                return a < b;
              });
    for (uint32_t i = begin; i < end; ++i) {
      out.member_dists[i] = dist_to_center[out.member_ids[i]];
    }
  }
  dev->RecordAnalyticLaunch(
      "sort_target_clusters",
      static_cast<double>(n) / kSortKeysPerSecond +
          dev->spec().kernel_launch_overhead_s);
  return out;
}

std::vector<uint32_t> AnnEntryPointsFromClustering(
    const TargetClusteringHost& tc) {
  std::vector<uint32_t> entries;
  entries.reserve(tc.num_clusters);
  for (int c = 0; c < tc.num_clusters; ++c) {
    const uint32_t begin = tc.member_offsets[c];
    const uint32_t end = tc.member_offsets[c + 1];
    // Members are sorted descending by distance-to-center, so the last
    // one is the closest to the landmark.
    if (end > begin) entries.push_back(tc.member_ids[end - 1]);
  }
  return entries;
}

}  // namespace sweetknn::core
