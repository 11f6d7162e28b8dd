#include "core/level2.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"
#include "core/knearests_sim.h"
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

/// Candidate target points per query cluster (the partial filter's
/// worst-case survivor count).
std::vector<uint64_t> ClusterCandidatePoints(const TargetClustering& tc,
                                             const Level1Result& l1,
                                             int num_query_clusters) {
  std::vector<uint64_t> out(static_cast<size_t>(num_query_clusters), 0);
  for (int cq = 0; cq < num_query_clusters; ++cq) {
    for (uint32_t i = l1.cand_offsets[cq]; i < l1.cand_offsets[cq + 1];
         ++i) {
      const uint32_t tcid = l1.cand_clusters[i];
      out[static_cast<size_t>(cq)] +=
          tc.member_offsets[tcid + 1] - tc.member_offsets[tcid];
    }
  }
  return out;
}

uint32_t SlotQuery(const QueryClustering& qc, bool remap, size_t slot) {
  return remap ? qc.members[slot] : static_cast<uint32_t>(slot);
}

/// Copies a slot range's rows from the per-partition device output
/// buffers into the host-side KnnResult (invalid indices -> padding).
void HarvestRows(Device* dev, const QueryClustering& qc, bool remap,
                 size_t slot_begin, size_t slot_end, int k,
                 const DeviceBuffer<float>& out_dist,
                 const DeviceBuffer<uint32_t>& out_idx, KnnResult* result) {
  const size_t nslots = slot_end - slot_begin;
  std::vector<float> dists(nslots * static_cast<size_t>(k));
  std::vector<uint32_t> indices(nslots * static_cast<size_t>(k));
  dev->CopyToHost(out_dist, dists.data(), dists.size());
  dev->CopyToHost(out_idx, indices.data(), indices.size());
  for (size_t s = 0; s < nslots; ++s) {
    const uint32_t qid = SlotQuery(qc, remap, slot_begin + s);
    Neighbor* row = result->mutable_row(qid);
    for (int j = 0; j < k; ++j) {
      const size_t src = s * static_cast<size_t>(k) + static_cast<size_t>(j);
      if (indices[src] == kInvalidNeighbor) {
        row[j] = Neighbor{kInvalidNeighbor,
                          std::numeric_limits<float>::infinity()};
      } else {
        row[j] = Neighbor{indices[src], dists[src]};
      }
    }
  }
}

/// The full level-2 filtering kernel (Algorithm 2), with optional
/// thread-data remapping and multi-thread-per-query parallelism.
void RunFull(Device* dev, const DevicePoints& query,
             const DevicePoints& target, const QueryClustering& qc,
             const TargetClustering& tc, const Level1Result& l1,
             const Level2Config& cfg, size_t slot_begin, size_t slot_end,
             KnnResult* result, Level2Stats* stats) {
  const size_t nslots = slot_end - slot_begin;
  const int k = cfg.k;
  const int tpq = cfg.threads_per_query;
  const int fi = cfg.inner_stride;
  const int fo = tpq / fi;
  SK_CHECK_EQ(fi * fo, tpq);
  const size_t total_threads = nslots * static_cast<size_t>(tpq);
  const size_t dims = query.dims();
  const Metric metric = query.metric();

  DeviceBuffer<float> out_dist =
      dev->Alloc<float>(nslots * static_cast<size_t>(k), "l2 out dists");
  DeviceBuffer<uint32_t> out_idx =
      dev->Alloc<uint32_t>(nslots * static_cast<size_t>(k), "l2 out idx");

  DeviceBuffer<float> global_knear;
  if (cfg.placement == KnearestsPlacement::kGlobal) {
    global_knear = dev->Alloc<float>(total_threads * static_cast<size_t>(k),
                                     "kNearests pool");
  }

  DeviceBuffer<float> part_dist;
  DeviceBuffer<uint32_t> part_idx;
  DeviceBuffer<float> theta_shared;
  if (tpq > 1) {
    part_dist = dev->Alloc<float>(total_threads * static_cast<size_t>(k),
                                  "partial heaps d");
    part_idx = dev->Alloc<uint32_t>(total_threads * static_cast<size_t>(k),
                                    "partial heaps i");
    theta_shared = dev->Alloc<float>(nslots, "shared theta");

    // Seed the shared upper bounds from the level-1 cluster bounds.
    KernelMeta meta{"level2_theta_init", 24, 0};
    dev->Launch(meta,
                LaunchConfig::Cover(static_cast<int64_t>(nslots),
                                    cfg.block_threads),
                [&](Warp& w) {
      const LaneMask valid = w.Ballot([&](int lane) {
        return static_cast<size_t>(w.GlobalThreadId(lane)) < nslots;
      });
      w.If(valid, [&] {
        Reg<uint32_t> qid;
        if (cfg.remap) {
          w.Load(qc.members,
                 [&](int lane) {
                   return slot_begin +
                          static_cast<size_t>(w.GlobalThreadId(lane));
                 },
                 [&](int lane, uint32_t v) { qid[lane] = v; });
        } else {
          w.Op([&](int lane) {
            qid[lane] = static_cast<uint32_t>(
                slot_begin + static_cast<size_t>(w.GlobalThreadId(lane)));
          });
        }
        Reg<uint32_t> cid;
        w.Load(qc.assignment, [&](int lane) { return qid[lane]; },
               [&](int lane, uint32_t v) { cid[lane] = v; });
        Reg<float> ub;
        w.Load(l1.cluster_ub, [&](int lane) { return cid[lane]; },
               [&](int lane, float v) { ub[lane] = v; });
        w.Store(theta_shared,
                [&](int lane) { return w.GlobalThreadId(lane); },
                [&](int lane) { return ub[lane]; });
      });
    });
  }

  const int regs = KnearestsSim::RegistersForPlacement(cfg.placement, k, 44);
  const int shared = KnearestsSim::SharedBytesForPlacement(
      cfg.placement, k, cfg.block_threads);
  // Distance counting from concurrently executing blocks goes through a
  // sharded counter; the plain uint64 in Level2Stats would race.
  common::ShardedCounter distance_calcs;
  KernelMeta meta{"level2_full_filter", regs, shared};
  // A cooperating thread group shares its theta slot, and the value a
  // lane reads back depends on which group members ran before it. When
  // tpq does not divide the block size, groups straddle block edges; the
  // group/block pattern repeats every lcm(block_threads, tpq) threads, so
  // spans of tpq / gcd(block_threads, tpq) blocks hold whole groups and
  // run in serial order on one worker (1 when tpq divides the block).
  meta.ordered_span_blocks = tpq / std::gcd(cfg.block_threads, tpq);
  dev->Launch(meta,
              LaunchConfig::Cover(static_cast<int64_t>(total_threads),
                                  cfg.block_threads),
              [&](Warp& w) {
    const LaneMask valid = w.Ballot([&](int lane) {
      return static_cast<size_t>(w.GlobalThreadId(lane)) < total_threads;
    });
    if (valid == 0) return;
    w.If(valid, [&] {
      Reg<size_t> local_slot;
      Reg<int> sub_outer;
      Reg<int> sub_inner;
      w.Op([&](int lane) {
        const size_t tid = static_cast<size_t>(w.GlobalThreadId(lane));
        local_slot[lane] = tid / static_cast<size_t>(tpq);
        const int sub = static_cast<int>(tid % static_cast<size_t>(tpq));
        sub_outer[lane] = sub / fi;
        sub_inner[lane] = sub % fi;
      });
      Reg<uint32_t> qid;
      if (cfg.remap) {
        w.Load(qc.members,
               [&](int lane) { return slot_begin + local_slot[lane]; },
               [&](int lane, uint32_t v) { qid[lane] = v; });
      } else {
        w.Op([&](int lane) {
          qid[lane] = static_cast<uint32_t>(slot_begin + local_slot[lane]);
        });
      }
      Reg<uint32_t> cid;
      w.Load(qc.assignment, [&](int lane) { return qid[lane]; },
             [&](int lane, uint32_t v) { cid[lane] = v; });
      Reg<float> theta;
      w.Load(l1.cluster_ub, [&](int lane) { return cid[lane]; },
             [&](int lane, float v) { theta[lane] = v; });
      Reg<PointAccessor> qpoint;
      query.LoadPoints(w, [&](int lane) { return qid[lane]; },
                       [&](int lane, PointAccessor acc) {
                         qpoint[lane] = acc;
                       });

      KnearestsSim knear(k, cfg.placement, cfg.knearests_layout,
                         cfg.placement == KnearestsPlacement::kGlobal
                             ? &global_knear
                             : nullptr,
                         total_threads, dev->spec().l2_cache_bytes);
      knear.InitInfinity(w);

      Reg<uint32_t> cand_begin;
      Reg<uint32_t> cand_end;
      w.Load(l1.cand_offsets, [&](int lane) { return cid[lane]; },
             [&](int lane, uint32_t v) { cand_begin[lane] = v; });
      w.Load(l1.cand_offsets,
             [&](int lane) { return cid[lane] + 1; },
             [&](int lane, uint32_t v) { cand_end[lane] = v; });

      Reg<uint32_t> ci;
      w.Op([&](int lane) {
        ci[lane] = cand_begin[lane] + static_cast<uint32_t>(sub_outer[lane]);
      });
      w.While(
          [&](int lane) { return ci[lane] < cand_end[lane]; },
          [&] {
            Reg<uint32_t> tcid;
            w.Load(l1.cand_clusters, [&](int lane) { return ci[lane]; },
                   [&](int lane, uint32_t v) { tcid[lane] = v; });
            Reg<PointAccessor> tcenter;
            tc.centers.LoadPoints(
                w, [&](int lane) { return tcid[lane]; },
                [&](int lane, PointAccessor acc) { tcenter[lane] = acc; });
            Reg<float> q2tc;
            WarpDistances(w, qpoint, tcenter, dims, metric, &q2tc);
            if (tpq > 1) {
              // Refresh the cooperative bound.
              Reg<float> ts;
              w.Load(theta_shared,
                     [&](int lane) { return local_slot[lane]; },
                     [&](int lane, float v) { ts[lane] = v; });
              w.Op([&](int lane) {
                theta[lane] = std::min(theta[lane], ts[lane]);
              });
            }
            Reg<uint32_t> mbegin;
            Reg<uint32_t> mend;
            w.Load(tc.member_offsets, [&](int lane) { return tcid[lane]; },
                   [&](int lane, uint32_t v) { mbegin[lane] = v; });
            w.Load(tc.member_offsets,
                   [&](int lane) { return tcid[lane] + 1; },
                   [&](int lane, uint32_t v) { mend[lane] = v; });
            Reg<uint32_t> t;
            w.Op([&](int lane) {
              t[lane] =
                  mbegin[lane] + static_cast<uint32_t>(sub_inner[lane]);
            });
            w.While(
                [&](int lane) { return t[lane] < mend[lane]; },
                [&] {
                  // Member distances stream through float4 vector loads
                  // (paper IV-C3): with a unit-stride scan one 16-byte
                  // load serves four consecutive iterations.
                  Reg<float> mdist;
                  if (fi == 1) {
                    uint64_t quad_starts = 0;
                    w.Op(
                        [&](int lane) {
                          mdist[lane] = tc.member_dists[t[lane]];
                          if (t[lane] % 4 == 0) ++quad_starts;
                        },
                        /*cost=*/0);
                    if (quad_starts > 0) w.ChargeMemory(quad_starts, 1, 0);
                  } else {
                    w.Load(tc.member_dists,
                           [&](int lane) { return t[lane]; },
                           [&](int lane, float v) { mdist[lane] = v; });
                  }
                  Reg<float> lb;
                  w.Op([&](int lane) {
                    lb[lane] = SignedPointBound(q2tc[lane], mdist[lane]);
                  });
                  // Members are ordered by descending center distance, so
                  // lb only grows: once lb > theta nothing later in this
                  // cluster can qualify (Algorithm 2 line 10).
                  w.BreakIf(w.Ballot(
                      [&](int lane) { return lb[lane] > theta[lane]; }));
                  const LaneMask check = w.Ballot([&](int lane) {
                    return lb[lane] >= -theta[lane];
                  });
                  w.If(check, [&] {
                    Reg<uint32_t> tix;
                    w.Load(tc.member_ids,
                           [&](int lane) { return t[lane]; },
                           [&](int lane, uint32_t v) { tix[lane] = v; });
                    Reg<PointAccessor> tpoint;
                    target.LoadPoints(
                        w, [&](int lane) { return tix[lane]; },
                        [&](int lane, PointAccessor acc) {
                          tpoint[lane] = acc;
                        });
                    Reg<float> dist;
                    WarpDistances(w, qpoint, tpoint, dims, metric, &dist);
                    distance_calcs.Add(
                        static_cast<uint64_t>(w.ActiveCount()));
                    const LaneMask inserted = knear.TryInsert(
                        w, dist, tix,
                        [&](int lane) { return w.GlobalThreadId(lane); });
                    w.If(inserted, [&] {
                      w.Op([&](int lane) {
                        theta[lane] =
                            std::min(theta[lane], knear.Root(lane));
                      });
                      if (tpq > 1) {
                        w.AtomicMinFloat(
                            theta_shared,
                            [&](int lane) { return local_slot[lane]; },
                            [&](int lane) { return knear.Root(lane); });
                      }
                    });
                  });
                  w.Op([&](int lane) {
                    t[lane] += static_cast<uint32_t>(fi);
                  });
                });
            w.Op([&](int lane) {
              ci[lane] += static_cast<uint32_t>(fo);
            });
          });

      knear.ExtractSorted(w);
      if (tpq == 1) {
        w.StoreRange(
            out_dist,
            [&](int lane) {
              return local_slot[lane] * static_cast<size_t>(k);
            },
            static_cast<size_t>(k), 4, [&](int lane, size_t j) {
              return knear.Lane(lane)[j].distance;
            });
        w.StoreRange(
            out_idx,
            [&](int lane) {
              return local_slot[lane] * static_cast<size_t>(k);
            },
            static_cast<size_t>(k), 4, [&](int lane, size_t j) {
              return knear.Lane(lane)[j].index;
            });
      } else {
        w.StoreRange(
            part_dist,
            [&](int lane) {
              return static_cast<size_t>(w.GlobalThreadId(lane)) *
                     static_cast<size_t>(k);
            },
            static_cast<size_t>(k), 4, [&](int lane, size_t j) {
              return knear.Lane(lane)[j].distance;
            });
        w.StoreRange(
            part_idx,
            [&](int lane) {
              return static_cast<size_t>(w.GlobalThreadId(lane)) *
                     static_cast<size_t>(k);
            },
            static_cast<size_t>(k), 4, [&](int lane, size_t j) {
              return knear.Lane(lane)[j].index;
            });
      }
    });
  });
  stats->distance_calcs += distance_calcs.Sum();

  if (tpq > 1) {
    // Merge each query's tpq sorted partial heaps (merge-sort style,
    // paper IV-B2 last paragraph).
    KernelMeta merge_meta{"level2_merge", 48, 0};
    dev->Launch(merge_meta,
                LaunchConfig::Cover(static_cast<int64_t>(nslots),
                                    cfg.block_threads),
                [&](Warp& w) {
      const LaneMask valid = w.Ballot([&](int lane) {
        return static_cast<size_t>(w.GlobalThreadId(lane)) < nslots;
      });
      w.If(valid, [&] {
        Reg<const float*> dptr;
        Reg<const uint32_t*> iptr;
        w.LoadRange(
            part_dist,
            [&](int lane) {
              return static_cast<size_t>(w.GlobalThreadId(lane)) *
                     static_cast<size_t>(tpq) * static_cast<size_t>(k);
            },
            static_cast<size_t>(tpq) * static_cast<size_t>(k), 4,
            [&](int lane, const float* p) { dptr[lane] = p; });
        w.LoadRange(
            part_idx,
            [&](int lane) {
              return static_cast<size_t>(w.GlobalThreadId(lane)) *
                     static_cast<size_t>(tpq) * static_cast<size_t>(k);
            },
            static_cast<size_t>(tpq) * static_cast<size_t>(k), 4,
            [&](int lane, const uint32_t* p) { iptr[lane] = p; });
        std::array<std::vector<Neighbor>, gpusim::kWarpSize> merged;
        w.Op([&](int lane) {
          auto& out = merged[static_cast<size_t>(lane)];
          out.clear();
          for (size_t e = 0;
               e < static_cast<size_t>(tpq) * static_cast<size_t>(k); ++e) {
            if (iptr[lane][e] != kInvalidNeighbor) {
              out.push_back(Neighbor{iptr[lane][e], dptr[lane][e]});
            }
          }
          std::sort(out.begin(), out.end(), NeighborLess);
          if (out.size() > static_cast<size_t>(k)) {
            out.resize(static_cast<size_t>(k));
          }
          while (out.size() < static_cast<size_t>(k)) {
            out.push_back(Neighbor{kInvalidNeighbor,
                                   std::numeric_limits<float>::infinity()});
          }
        });
        // k-way merge cost: k output steps over a tpq-wide frontier.
        const uint64_t merge_cost =
            static_cast<uint64_t>(k) *
                (static_cast<uint64_t>(std::log2(std::max(2, tpq))) + 1) +
            static_cast<uint64_t>(tpq);
        w.Op([](int) {}, merge_cost);
        w.StoreRange(
            out_dist,
            [&](int lane) {
              return static_cast<size_t>(w.GlobalThreadId(lane)) *
                     static_cast<size_t>(k);
            },
            static_cast<size_t>(k), 4, [&](int lane, size_t j) {
              return merged[static_cast<size_t>(lane)][j].distance;
            });
        w.StoreRange(
            out_idx,
            [&](int lane) {
              return static_cast<size_t>(w.GlobalThreadId(lane)) *
                     static_cast<size_t>(k);
            },
            static_cast<size_t>(k), 4, [&](int lane, size_t j) {
              return merged[static_cast<size_t>(lane)][j].index;
            });
      });
    });
  }

  HarvestRows(dev, qc, cfg.remap, slot_begin, slot_end, k, out_dist,
              out_idx, result);
}

/// The partial level-2 filter (paper IV-B1): theta frozen at the level-1
/// bound, surviving distances spilled to global memory, then a selection
/// kernel extracts each query's k minima.
void RunPartial(Device* dev, const DevicePoints& query,
                const DevicePoints& target, const QueryClustering& qc,
                const TargetClustering& tc, const Level1Result& l1,
                const Level2Config& cfg, size_t slot_begin, size_t slot_end,
                KnnResult* result, Level2Stats* stats) {
  SK_CHECK_EQ(cfg.threads_per_query, 1)
      << "the partial filter is query-parallel";
  const size_t nslots = slot_end - slot_begin;
  const int k = cfg.k;
  const size_t dims = query.dims();
  const Metric metric = query.metric();

  // Survivor capacity: all candidate-cluster members of the slot's query
  // cluster (exclusive scan into per-slot extents).
  const std::vector<uint64_t> cluster_cap =
      ClusterCandidatePoints(tc, l1, qc.num_clusters);
  std::vector<uint64_t> surv_offsets(nslots + 1, 0);
  for (size_t s = 0; s < nslots; ++s) {
    const uint32_t qid = SlotQuery(qc, cfg.remap, slot_begin + s);
    surv_offsets[s + 1] =
        surv_offsets[s] + cluster_cap[qc.assignment[qid]];
  }
  const uint64_t total_cap = std::max<uint64_t>(surv_offsets[nslots], 1);

  DeviceBuffer<float> surv_dist = dev->Alloc<float>(total_cap, "survivors d");
  DeviceBuffer<uint32_t> surv_idx =
      dev->Alloc<uint32_t>(total_cap, "survivors i");
  DeviceBuffer<uint32_t> surv_count =
      dev->Alloc<uint32_t>(nslots, "survivor counts");
  DeviceBuffer<float> out_dist =
      dev->Alloc<float>(nslots * static_cast<size_t>(k), "l2 out dists");
  DeviceBuffer<uint32_t> out_idx =
      dev->Alloc<uint32_t>(nslots * static_cast<size_t>(k), "l2 out idx");

  // See RunFull: block-concurrent distance counting needs sharding. The
  // filter itself is parallel-safe — each slot's survivor count and
  // survivor range are touched only by that slot's own thread.
  common::ShardedCounter distance_calcs;
  KernelMeta meta{"level2_partial_filter", 40, 0};
  dev->Launch(meta,
              LaunchConfig::Cover(static_cast<int64_t>(nslots),
                                  cfg.block_threads),
              [&](Warp& w) {
    const LaneMask valid = w.Ballot([&](int lane) {
      return static_cast<size_t>(w.GlobalThreadId(lane)) < nslots;
    });
    if (valid == 0) return;
    w.If(valid, [&] {
      Reg<size_t> local_slot;
      w.Op([&](int lane) {
        local_slot[lane] = static_cast<size_t>(w.GlobalThreadId(lane));
      });
      Reg<uint32_t> qid;
      if (cfg.remap) {
        w.Load(qc.members,
               [&](int lane) { return slot_begin + local_slot[lane]; },
               [&](int lane, uint32_t v) { qid[lane] = v; });
      } else {
        w.Op([&](int lane) {
          qid[lane] = static_cast<uint32_t>(slot_begin + local_slot[lane]);
        });
      }
      Reg<uint32_t> cid;
      w.Load(qc.assignment, [&](int lane) { return qid[lane]; },
             [&](int lane, uint32_t v) { cid[lane] = v; });
      Reg<float> theta;  // Frozen at the level-1 bound.
      w.Load(l1.cluster_ub, [&](int lane) { return cid[lane]; },
             [&](int lane, float v) { theta[lane] = v; });
      Reg<PointAccessor> qpoint;
      query.LoadPoints(w, [&](int lane) { return qid[lane]; },
                       [&](int lane, PointAccessor acc) {
                         qpoint[lane] = acc;
                       });
      Reg<uint32_t> cand_begin;
      Reg<uint32_t> cand_end;
      w.Load(l1.cand_offsets, [&](int lane) { return cid[lane]; },
             [&](int lane, uint32_t v) { cand_begin[lane] = v; });
      w.Load(l1.cand_offsets, [&](int lane) { return cid[lane] + 1; },
             [&](int lane, uint32_t v) { cand_end[lane] = v; });
      Reg<uint32_t> ci;
      w.Op([&](int lane) { ci[lane] = cand_begin[lane]; });
      w.While(
          [&](int lane) { return ci[lane] < cand_end[lane]; },
          [&] {
            Reg<uint32_t> tcid;
            w.Load(l1.cand_clusters, [&](int lane) { return ci[lane]; },
                   [&](int lane, uint32_t v) { tcid[lane] = v; });
            Reg<PointAccessor> tcenter;
            tc.centers.LoadPoints(
                w, [&](int lane) { return tcid[lane]; },
                [&](int lane, PointAccessor acc) { tcenter[lane] = acc; });
            Reg<float> q2tc;
            WarpDistances(w, qpoint, tcenter, dims, metric, &q2tc);
            Reg<uint32_t> mbegin;
            Reg<uint32_t> mend;
            w.Load(tc.member_offsets, [&](int lane) { return tcid[lane]; },
                   [&](int lane, uint32_t v) { mbegin[lane] = v; });
            w.Load(tc.member_offsets,
                   [&](int lane) { return tcid[lane] + 1; },
                   [&](int lane, uint32_t v) { mend[lane] = v; });
            Reg<uint32_t> t;
            w.Op([&](int lane) { t[lane] = mbegin[lane]; });
            w.While(
                [&](int lane) { return t[lane] < mend[lane]; },
                [&] {
                  // float4-vectorized member-distance stream (IV-C3).
                  Reg<float> mdist;
                  uint64_t quad_starts = 0;
                  w.Op(
                      [&](int lane) {
                        mdist[lane] = tc.member_dists[t[lane]];
                        if (t[lane] % 4 == 0) ++quad_starts;
                      },
                      /*cost=*/0);
                  if (quad_starts > 0) w.ChargeMemory(quad_starts, 1, 0);
                  Reg<float> lb;
                  w.Op([&](int lane) {
                    lb[lane] = SignedPointBound(q2tc[lane], mdist[lane]);
                  });
                  w.BreakIf(w.Ballot(
                      [&](int lane) { return lb[lane] > theta[lane]; }));
                  const LaneMask check = w.Ballot([&](int lane) {
                    return lb[lane] >= -theta[lane];
                  });
                  w.If(check, [&] {
                    Reg<uint32_t> tix;
                    w.Load(tc.member_ids,
                           [&](int lane) { return t[lane]; },
                           [&](int lane, uint32_t v) { tix[lane] = v; });
                    Reg<PointAccessor> tpoint;
                    target.LoadPoints(
                        w, [&](int lane) { return tix[lane]; },
                        [&](int lane, PointAccessor acc) {
                          tpoint[lane] = acc;
                        });
                    Reg<float> dist;
                    WarpDistances(w, qpoint, tpoint, dims, metric, &dist);
                    distance_calcs.Add(
                        static_cast<uint64_t>(w.ActiveCount()));
                    Reg<uint32_t> pos;
                    w.AtomicAdd(
                        surv_count,
                        [&](int lane) { return local_slot[lane]; },
                        [](int) { return uint32_t{1}; },
                        [&](int lane, uint32_t old) { pos[lane] = old; });
                    // Survivor records are staged in shared memory and
                    // written out warp-cooperatively (a standard write-
                    // combining optimization), so the global stores
                    // coalesce even though the per-query regions are
                    // scattered.
                    w.Op([&](int lane) {
                      const uint64_t at =
                          surv_offsets[local_slot[lane]] + pos[lane];
                      surv_dist[at] = dist[lane];
                      surv_idx[at] = tix[lane];
                    });
                    const uint64_t active =
                        static_cast<uint64_t>(w.ActiveCount());
                    w.ChargeMemory(
                        /*transactions=*/(active * 8 + 127) / 128 + 1,
                        /*load_instructions=*/0, /*store_instructions=*/2);
                  });
                  w.Op([&](int lane) { ++t[lane]; });
                });
            w.Op([&](int lane) { ++ci[lane]; });
          });
    });
  });
  stats->distance_calcs += distance_calcs.Sum();

  // Selection kernel: each thread loads its query's survivors into
  // shared memory, sorts them with a bitonic network, and writes the k
  // smallest (the paper's \"later launched GPU kernel [that] finds the k
  // minimal distances\").
  KernelMeta sel_meta{"level2_partial_select", 48,
                      /*shared_bytes_per_block=*/24 * 1024};
  dev->Launch(sel_meta,
              LaunchConfig::Cover(static_cast<int64_t>(nslots),
                                  cfg.block_threads),
              [&](Warp& w) {
    const LaneMask valid = w.Ballot([&](int lane) {
      return static_cast<size_t>(w.GlobalThreadId(lane)) < nslots;
    });
    if (valid == 0) return;
    w.If(valid, [&] {
      Reg<size_t> slot;
      Reg<uint32_t> count;
      w.Op([&](int lane) {
        slot[lane] = static_cast<size_t>(w.GlobalThreadId(lane));
      });
      w.Load(surv_count, [&](int lane) { return slot[lane]; },
             [&](int lane, uint32_t v) { count[lane] = v; });
      // Load each lane's contiguous survivor range and select the k
      // smallest functionally; charge the loads per element and the sort
      // as a bitonic network over the largest lane's count.
      std::array<std::vector<Neighbor>, gpusim::kWarpSize> selected;
      uint32_t max_count = 0;
      uint64_t total_count = 0;
      w.Op([&](int lane) {
        auto& out_vec = selected[static_cast<size_t>(lane)];
        out_vec.clear();
        const uint64_t base = surv_offsets[slot[lane]];
        for (uint32_t i = 0; i < count[lane]; ++i) {
          out_vec.push_back(Neighbor{surv_idx[base + i],
                                     surv_dist[base + i]});
        }
        std::sort(out_vec.begin(), out_vec.end(), NeighborLess);
        if (out_vec.size() > static_cast<size_t>(k)) {
          out_vec.resize(static_cast<size_t>(k));
        }
        while (out_vec.size() < static_cast<size_t>(k)) {
          out_vec.push_back(Neighbor{kInvalidNeighbor,
                                     std::numeric_limits<float>::infinity()});
        }
        max_count = std::max(max_count, count[lane]);
        total_count += count[lane];
      });
      // Survivor reads: per-lane contiguous ranges, 8 bytes per element.
      const uint64_t read_instructions = (max_count + 3) / 4 * 2;
      w.ChargeMemory(/*transactions=*/(total_count * 8 + 127) / 128 +
                         w.ActiveCount(),
                     read_instructions, 0);
      // Bitonic sort cost: n log^2 n compare-exchange steps.
      const double n_sort = std::max<uint32_t>(max_count, 2);
      const double log_n = std::log2(n_sort);
      w.Op([](int) {},
           static_cast<uint64_t>(n_sort * log_n * log_n / 2.0) + 1);
      w.StoreRange(
          out_dist,
          [&](int lane) { return slot[lane] * static_cast<size_t>(k); },
          static_cast<size_t>(k), 4, [&](int lane, size_t j) {
            return selected[static_cast<size_t>(lane)][j].distance;
          });
      w.StoreRange(
          out_idx,
          [&](int lane) { return slot[lane] * static_cast<size_t>(k); },
          static_cast<size_t>(k), 4, [&](int lane, size_t j) {
            return selected[static_cast<size_t>(lane)][j].index;
          });
    });
  });

  HarvestRows(dev, qc, cfg.remap, slot_begin, slot_end, k, out_dist,
              out_idx, result);
}

}  // namespace

void RunLevel2(Device* dev, const DevicePoints& query,
               const DevicePoints& target, const QueryClustering& qc,
               const TargetClustering& tc, const Level1Result& l1,
               const Level2Config& cfg, size_t slot_begin, size_t slot_end,
               KnnResult* result, Level2Stats* stats) {
  SK_CHECK_LT(slot_begin, slot_end);
  SK_CHECK_LE(slot_end, query.n());
  if (cfg.filter == Level2Filter::kFull) {
    RunFull(dev, query, target, qc, tc, l1, cfg, slot_begin, slot_end,
            result, stats);
  } else {
    RunPartial(dev, query, target, qc, tc, l1, cfg, slot_begin, slot_end,
               result, stats);
  }
}

size_t Level2BufferBytes(const Level2Config& cfg, const QueryClustering& qc,
                         const TargetClustering& tc, const Level1Result& l1,
                         size_t slot_begin, size_t slot_end) {
  const size_t nslots = slot_end - slot_begin;
  const size_t k = static_cast<size_t>(cfg.k);
  size_t bytes = nslots * k * 8;  // out_dist + out_idx
  if (cfg.filter == Level2Filter::kFull) {
    const size_t threads =
        nslots * static_cast<size_t>(cfg.threads_per_query);
    if (cfg.placement == KnearestsPlacement::kGlobal) {
      bytes += threads * k * 4;
    }
    if (cfg.threads_per_query > 1) {
      bytes += threads * k * 8 + nslots * 4;
    }
  } else {
    const std::vector<uint64_t> cluster_cap =
        ClusterCandidatePoints(tc, l1, qc.num_clusters);
    uint64_t cap = 0;
    for (size_t s = slot_begin; s < slot_end; ++s) {
      const uint32_t qid = SlotQuery(qc, cfg.remap, s);
      cap += cluster_cap[qc.assignment[qid]];
    }
    bytes += cap * 8 + nslots * 4;
    if (4 * cfg.k > 1024) bytes += nslots * k * 4;
  }
  return bytes;
}

}  // namespace sweetknn::core
