#include "core/device_points.h"

#include <cstring>
#include <utility>

#include "gtest/gtest.h"
#include "test_util.h"

namespace sweetknn::core {
namespace {

HostMatrix SmallMatrix() {
  HostMatrix m(4, 6);
  for (size_t p = 0; p < 4; ++p) {
    for (size_t j = 0; j < 6; ++j) {
      m.at(p, j) = static_cast<float>(p * 10 + j);
    }
  }
  return m;
}

class DevicePointsTest : public ::testing::Test {
 protected:
  DevicePointsTest() : dev_(gpusim::DeviceSpec::TeslaK20c()) {}
  gpusim::Device dev_;
};

TEST_F(DevicePointsTest, RowMajorRoundTrip) {
  const HostMatrix m = SmallMatrix();
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  EXPECT_EQ(pts.n(), 4u);
  EXPECT_EQ(pts.dims(), 6u);
  for (size_t p = 0; p < 4; ++p) {
    for (size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(pts.At(p, j), m.at(p, j));
      EXPECT_EQ(pts.HostPoint(p)[j], m.at(p, j));
    }
  }
}

TEST_F(DevicePointsTest, ColumnMajorRoundTrip) {
  const HostMatrix m = SmallMatrix();
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kColumnMajor, "p");
  for (size_t p = 0; p < 4; ++p) {
    for (size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(pts.At(p, j), m.at(p, j));
      EXPECT_EQ(pts.HostPoint(p)[j], m.at(p, j));
    }
  }
}

TEST_F(DevicePointsTest, AccessorDistanceMatchesHost) {
  const HostMatrix m = testing::UniformPoints(10, 8, 81);
  const DevicePoints row =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "r");
  const DevicePoints col =
      DevicePoints::Upload(&dev_, m, PointLayout::kColumnMajor, "c");
  for (size_t a = 0; a < 10; ++a) {
    const float expected = EuclideanDistance(m.row(a), m.row(0), 8);
    EXPECT_NEAR(AccessorDistance(row.HostPoint(a), row.HostPoint(0), 8),
                expected, 1e-5f);
    EXPECT_NEAR(AccessorDistance(col.HostPoint(a), col.HostPoint(0), 8),
                expected, 1e-5f);
  }
}

TEST_F(DevicePointsTest, KernelLoadsDeliverCorrectValues) {
  const HostMatrix m = SmallMatrix();
  for (PointLayout layout :
       {PointLayout::kRowMajor, PointLayout::kColumnMajor}) {
    const DevicePoints pts = DevicePoints::Upload(&dev_, m, layout, "p");
    dev_.Launch(gpusim::KernelMeta{"probe", 32, 0},
                gpusim::LaunchConfig{1, 4}, [&](gpusim::Warp& w) {
      pts.LoadPoints(w, [&](int lane) { return lane; },
                     [&](int lane, PointAccessor acc) {
                       for (size_t j = 0; j < 6; ++j) {
                         EXPECT_EQ(acc[j],
                                   m.at(static_cast<size_t>(lane), j));
                       }
                     });
    });
  }
}

TEST_F(DevicePointsTest, VectorWidthChangesInstructionCount) {
  const HostMatrix m = testing::UniformPoints(32, 16, 82);
  const DevicePoints scalar =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "s", 1);
  const DevicePoints vec4 =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "v", 4);
  auto measure = [&](const DevicePoints& pts) {
    const auto& rec = dev_.Launch(
        gpusim::KernelMeta{"probe", 32, 0}, gpusim::LaunchConfig{1, 32},
        [&](gpusim::Warp& w) {
          pts.LoadPoints(w, [](int lane) { return lane; },
                         [](int, PointAccessor) {});
        });
    return rec.stats.global_load_instructions;
  };
  EXPECT_EQ(measure(scalar), 16u);
  EXPECT_EQ(measure(vec4), 4u);
}

TEST_F(DevicePointsTest, GatherRowsCopiesSelection) {
  const HostMatrix m = SmallMatrix();
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  const DevicePoints centers =
      DevicePoints::GatherRows(&dev_, pts, {2, 0}, "centers");
  EXPECT_EQ(centers.n(), 2u);
  for (size_t j = 0; j < 6; ++j) {
    EXPECT_EQ(centers.At(0, j), m.at(2, j));
    EXPECT_EQ(centers.At(1, j), m.at(0, j));
  }
}

TEST_F(DevicePointsTest, GatherRowsPreservesLayout) {
  const HostMatrix m = SmallMatrix();
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kColumnMajor, "p");
  const DevicePoints centers =
      DevicePoints::GatherRows(&dev_, pts, {1, 3}, "centers");
  EXPECT_EQ(centers.layout(), PointLayout::kColumnMajor);
  EXPECT_EQ(centers.At(1, 5), m.at(3, 5));
}

TEST_F(DevicePointsTest, WarpDistancesMatchAccessorAndChargeOneOp) {
  const HostMatrix m = testing::UniformPoints(40, 23, 83);
  for (PointLayout layout :
       {PointLayout::kRowMajor, PointLayout::kColumnMajor}) {
    for (Metric metric : {Metric::kEuclidean, Metric::kManhattan}) {
      const DevicePoints pts =
          DevicePoints::Upload(&dev_, m, layout, "p", 4, metric);
      // Lanes pair point lane/3 with point 39 - lane; a divergent mask
      // leaves some lanes idle.
      auto run = [&](bool helper) {
        gpusim::Reg<float> dist;
        const gpusim::LaunchRecord& rec = dev_.Launch(
            gpusim::KernelMeta{"probe", 32, 0}, gpusim::LaunchConfig{1, 32},
            [&](gpusim::Warp& w) {
              gpusim::Reg<PointAccessor> a;
              gpusim::Reg<PointAccessor> b;
              pts.LoadPoints(w, [](int lane) { return lane / 3; },
                             [&](int lane, PointAccessor acc) {
                               a[lane] = acc;
                             });
              pts.LoadPoints(w, [](int lane) { return 39 - lane; },
                             [&](int lane, PointAccessor acc) {
                               b[lane] = acc;
                             });
              w.If(w.Ballot([](int lane) { return lane % 5 != 2; }), [&] {
                if (helper) {
                  WarpDistances(w, a, b, pts.dims(), metric, &dist);
                } else {
                  w.Op(
                      [&](int lane) {
                        dist[lane] = pts.Distance(a[lane], b[lane]);
                      },
                      DistanceOpCost(pts.dims()));
                }
              });
            });
        return std::make_pair(rec.stats, dist);
      };
      const auto [want_stats, want] = run(false);
      const auto [got_stats, got] = run(true);
      EXPECT_EQ(want_stats.warp_instructions, got_stats.warp_instructions);
      EXPECT_EQ(want_stats.active_lane_ops, got_stats.active_lane_ops);
      for (int lane = 0; lane < gpusim::kWarpSize; ++lane) {
        if (lane % 5 == 2) continue;
        EXPECT_EQ(std::memcmp(&want[lane], &got[lane], sizeof(float)), 0)
            << "lane " << lane;
      }
    }
  }
}

TEST(DistanceOpCostTest, ScalesWithDims) {
  EXPECT_EQ(DistanceOpCost(1), 6u);
  EXPECT_EQ(DistanceOpCost(100), 204u);
}

}  // namespace
}  // namespace sweetknn::core
