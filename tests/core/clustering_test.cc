#include "core/clustering.h"

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "simd/simd_kernels.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace sweetknn::core {
namespace {

using testing::ClusteredPoints;

class ClusteringTest : public ::testing::Test {
 protected:
  ClusteringTest() : dev_(gpusim::DeviceSpec::TeslaK20c()) {}
  gpusim::Device dev_;
};

TEST_F(ClusteringTest, DefaultLandmarkCountFollowsRule) {
  EXPECT_EQ(DefaultLandmarkCount(10000, 1ull << 30), 300);
  EXPECT_EQ(DefaultLandmarkCount(100, 1ull << 30), 30);
  EXPECT_EQ(DefaultLandmarkCount(1, 1ull << 30), 1);
}

TEST_F(ClusteringTest, DefaultLandmarkCountCappedByMemory) {
  // With only 32 KiB free, 8 * m^2 <= 8 KiB -> m <= 32.
  EXPECT_LE(DefaultLandmarkCount(1'000'000, 32 * 1024), 32);
}

TEST_F(ClusteringTest, SelectLandmarksReturnsDistinctValidIds) {
  const HostMatrix m = ClusteredPoints(200, 4, 4, 91);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  const auto ids = SelectLandmarks(&dev_, pts, 40, 10, 7, 256);
  EXPECT_EQ(ids.size(), 40u);
  std::set<uint32_t> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), 40u);
  for (const uint32_t id : ids) EXPECT_LT(id, 200u);
}

/// SelectLandmarks as a serial loop: every trial evaluates full rows of
/// the candidate distance matrix and sums the pairs above the diagonal in
/// ascending (i, j > i) order. The pooled, upper-triangle evaluation must
/// pick the same landmarks.
std::vector<uint32_t> SerialFullRowLandmarks(const DevicePoints& points,
                                             int m, int trials,
                                             uint64_t seed) {
  const size_t n = points.n();
  const size_t dims = points.dims();
  const size_t mm = static_cast<size_t>(m);
  Rng rng(seed);
  std::vector<uint32_t> candidates(static_cast<size_t>(trials) * mm);
  for (uint32_t& id : candidates) {
    id = static_cast<uint32_t>(rng.NextBounded(n));
  }
  std::vector<float> sums(static_cast<size_t>(trials));
  std::vector<float> gathered(mm * dims);
  std::vector<float> row(mm);
  for (size_t trial = 0; trial < sums.size(); ++trial) {
    for (size_t i = 0; i < mm; ++i) {
      const PointAccessor pt = points.HostPoint(candidates[trial * mm + i]);
      for (size_t j = 0; j < dims; ++j) gathered[i * dims + j] = pt[j];
    }
    const simd::PackedTargets packed =
        simd::PackedTargets::Pack(gathered.data(), mm, dims);
    double sum = 0.0;
    for (size_t i = 0; i < mm; ++i) {
      simd::QueryDistances(gathered.data() + i * dims, packed,
                           SimdDistFor(points.metric()), row.data());
      for (size_t j = i + 1; j < mm; ++j) sum += row[j];
    }
    sums[trial] = static_cast<float>(sum);
  }
  const size_t best = static_cast<size_t>(
      std::max_element(sums.begin(), sums.end()) - sums.begin());
  std::vector<uint32_t> out(candidates.begin() + best * mm,
                            candidates.begin() + (best + 1) * mm);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  while (out.size() < mm) {
    const uint32_t id = static_cast<uint32_t>(rng.NextBounded(n));
    if (!std::binary_search(out.begin(), out.end(), id)) {
      out.insert(std::lower_bound(out.begin(), out.end(), id), id);
    }
  }
  return out;
}

TEST_F(ClusteringTest, SelectLandmarksIndependentOfExecutionThreads) {
  for (const size_t dims : {1, 4, 42, 1024}) {
    const HostMatrix host = ClusteredPoints(64, dims, 5, 100 + dims);
    for (const PointLayout layout :
         {PointLayout::kRowMajor, PointLayout::kColumnMajor}) {
      for (const Metric metric : {Metric::kEuclidean, Metric::kManhattan}) {
        const DevicePoints pts =
            DevicePoints::Upload(&dev_, host, layout, "p", 4, metric);
        for (const int m : {1, 2, 15, 16, 17, 33}) {
          const uint64_t seed = 31 * dims + static_cast<uint64_t>(m);
          SCOPED_TRACE(::testing::Message()
                       << "dims=" << dims << " m=" << m << " layout="
                       << static_cast<int>(layout)
                       << " metric=" << static_cast<int>(metric));
          const std::vector<uint32_t> expected =
              SerialFullRowLandmarks(pts, m, 10, seed);
          for (const int threads : {1, 2, 4}) {
            dev_.set_execution_threads(threads);
            EXPECT_EQ(SelectLandmarks(&dev_, pts, m, 10, seed, 256), expected)
                << "threads=" << threads;
          }
          dev_.set_execution_threads(1);
        }
      }
    }
  }
}

TEST_F(ClusteringTest, QueryAssignmentIsNearestCenter) {
  const HostMatrix m = ClusteredPoints(300, 5, 6, 92);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  ClusteringConfig cfg;
  const QueryClustering qc = BuildQueryClustering(&dev_, pts, cfg);
  ASSERT_GT(qc.num_clusters, 1);
  for (size_t p = 0; p < 300; ++p) {
    const uint32_t assigned = qc.assignment[p];
    const float assigned_dist = AccessorDistance(
        pts.HostPoint(p), qc.centers.HostPoint(assigned), 5);
    for (int c = 0; c < qc.num_clusters; ++c) {
      const float d = AccessorDistance(pts.HostPoint(p),
                                       qc.centers.HostPoint(c), 5);
      EXPECT_GE(d, assigned_dist - 1e-5f)
          << "point " << p << " closer to center " << c;
    }
  }
}

TEST_F(ClusteringTest, QueryMaxDistCoversAllMembers) {
  const HostMatrix m = ClusteredPoints(250, 4, 5, 93);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  ClusteringConfig cfg;
  const QueryClustering qc = BuildQueryClustering(&dev_, pts, cfg);
  for (size_t p = 0; p < 250; ++p) {
    const uint32_t c = qc.assignment[p];
    const float d =
        AccessorDistance(pts.HostPoint(p), qc.centers.HostPoint(c), 4);
    EXPECT_LE(d, qc.max_dist[c] + 1e-5f);
  }
}

TEST_F(ClusteringTest, QueryMemberListsPartitionTheSet) {
  const HostMatrix m = ClusteredPoints(180, 3, 4, 94);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  ClusteringConfig cfg;
  const QueryClustering qc = BuildQueryClustering(&dev_, pts, cfg);
  std::set<uint32_t> seen;
  for (int c = 0; c < qc.num_clusters; ++c) {
    for (uint32_t i = qc.member_offsets[c]; i < qc.member_offsets[c + 1];
         ++i) {
      const uint32_t member = qc.members[i];
      EXPECT_TRUE(seen.insert(member).second) << "duplicate " << member;
      EXPECT_EQ(qc.assignment[member], static_cast<uint32_t>(c));
    }
  }
  EXPECT_EQ(seen.size(), 180u);
}

TEST_F(ClusteringTest, TargetMembersSortedDescendingByCenterDistance) {
  const HostMatrix m = ClusteredPoints(260, 6, 5, 95);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  ClusteringConfig cfg;
  const TargetClustering tc = BuildTargetClustering(&dev_, pts, cfg);
  std::set<uint32_t> seen;
  for (int c = 0; c < tc.num_clusters; ++c) {
    float prev = std::numeric_limits<float>::infinity();
    for (uint32_t i = tc.member_offsets[c]; i < tc.member_offsets[c + 1];
         ++i) {
      EXPECT_LE(tc.member_dists[i], prev + 1e-6f);
      prev = tc.member_dists[i];
      // Stored distance matches the actual distance to the center.
      const float actual = AccessorDistance(
          pts.HostPoint(tc.member_ids[i]), tc.centers.HostPoint(c), 6);
      EXPECT_NEAR(tc.member_dists[i], actual, 1e-5f);
      seen.insert(tc.member_ids[i]);
    }
    // First member (if any) realizes the cluster radius.
    if (tc.member_offsets[c + 1] > tc.member_offsets[c]) {
      EXPECT_NEAR(tc.member_dists[tc.member_offsets[c]], tc.max_dist[c],
                  1e-5f);
    }
  }
  EXPECT_EQ(seen.size(), 260u);
}

TEST_F(ClusteringTest, LandmarkOverrideIsHonored) {
  const HostMatrix m = ClusteredPoints(400, 3, 4, 96);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  ClusteringConfig cfg;
  cfg.landmarks_override = 17;
  const TargetClustering tc = BuildTargetClustering(&dev_, pts, cfg);
  EXPECT_EQ(tc.num_clusters, 17);
}

TEST_F(ClusteringTest, SelfJoinViewMatchesIndependentBuild) {
  const HostMatrix m = ClusteredPoints(220, 5, 4, 97);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  ClusteringConfig cfg;
  const TargetClustering tc = BuildTargetClustering(&dev_, pts, cfg);
  const QueryClustering qc = QueryClusteringFromTarget(&dev_, pts, tc);
  EXPECT_EQ(qc.num_clusters, tc.num_clusters);
  for (size_t p = 0; p < 220; ++p) {
    EXPECT_EQ(qc.assignment[p], tc.assignment[p]);
  }
  for (int c = 0; c < qc.num_clusters; ++c) {
    EXPECT_EQ(qc.max_dist[c], tc.max_dist[c]);
    EXPECT_EQ(qc.member_offsets[c], tc.member_offsets[c]);
  }
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(qc.centers.At(2, j), tc.centers.At(2, j));
  }
}

}  // namespace
}  // namespace sweetknn::core
