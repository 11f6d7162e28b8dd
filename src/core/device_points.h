#ifndef SWEETKNN_CORE_DEVICE_POINTS_H_
#define SWEETKNN_CORE_DEVICE_POINTS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "core/options.h"
#include "gpusim/device.h"
#include "gpusim/warp.h"
#include "simd/simd_kernels.h"

namespace sweetknn::core {

/// The simd-module distance kind computing exactly what AccessorDistance
/// computes for this metric (bit-identical; the equivalence suite in
/// tests/simd holds the two definitions together).
inline simd::Dist SimdDistFor(Metric metric) {
  return metric == Metric::kEuclidean ? simd::Dist::kEuclidean
                                      : simd::Dist::kManhattan;
}

/// View of one point inside a DevicePoints buffer; dimension j is
/// base[j * stride] (stride 1 for row-major, N for column-major).
struct PointAccessor {
  const float* base = nullptr;
  size_t stride = 1;
  float operator[](size_t j) const { return base[j * stride]; }
};

/// Instruction cost charged for one d-dimensional distance evaluation
/// (subtract + accumulate per dimension, plus the final reduction).
inline uint64_t DistanceOpCost(size_t dims) {
  return 2 * static_cast<uint64_t>(dims) + 4;
}

/// Euclidean distance between two accessor-views.
inline float AccessorDistance(const PointAccessor& a, const PointAccessor& b,
                              size_t dims) {
  float acc = 0.0f;
  for (size_t j = 0; j < dims; ++j) {
    const float diff = a[j] - b[j];
    acc += diff * diff;
  }
  return std::sqrt(acc);
}

/// Distance under an arbitrary supported metric.
inline float AccessorDistance(const PointAccessor& a, const PointAccessor& b,
                              size_t dims, Metric metric) {
  if (metric == Metric::kEuclidean) return AccessorDistance(a, b, dims);
  float acc = 0.0f;
  for (size_t j = 0; j < dims; ++j) {
    acc += std::fabs(a[j] - b[j]);
  }
  return acc;
}

/// The SIMT distance instruction of the TI kernels: dist[lane] =
/// AccessorDistance(a[lane], b[lane], dims, metric) for every active
/// lane, charged as one Op of DistanceOpCost(dims). Row-major views (the
/// float4-loaded layout every Sweet KNN configuration uses) run all lanes
/// at once through simd::PairDistances; strided column-major views keep
/// the per-lane scalar loop. Both are bit-identical to AccessorDistance.
inline void WarpDistances(gpusim::Warp& w,
                          const gpusim::Reg<PointAccessor>& a,
                          const gpusim::Reg<PointAccessor>& b, size_t dims,
                          Metric metric, gpusim::Reg<float>* dist) {
  std::array<const float*, gpusim::kWarpSize> rows_a;
  std::array<const float*, gpusim::kWarpSize> rows_b;
  std::array<int, gpusim::kWarpSize> lanes;
  size_t n = 0;
  bool unit_stride = true;
  w.Op(
      [&](int lane) {
        rows_a[n] = a[lane].base;
        rows_b[n] = b[lane].base;
        lanes[n++] = lane;
        unit_stride = unit_stride && a[lane].stride == 1 &&
                      b[lane].stride == 1;
      },
      DistanceOpCost(dims));
  if (!unit_stride) {
    for (size_t i = 0; i < n; ++i) {
      (*dist)[lanes[i]] = AccessorDistance(a[lanes[i]], b[lanes[i]], dims,
                                           metric);
    }
    return;
  }
  std::array<float, gpusim::kWarpSize> out;
  simd::PairDistances(rows_a.data(), rows_b.data(), n, dims,
                      SimdDistFor(metric), out.data());
  for (size_t i = 0; i < n; ++i) (*dist)[lanes[i]] = out[i];
}

/// A point matrix resident in simulated device memory, stored in either
/// layout of paper Fig. 7. Kernels fetch whole points through
/// LoadPoints so the layout's coalescing behaviour is accounted:
/// row-major points load as float4 vector loads; column-major points load
/// one strided element per dimension.
class DevicePoints {
 public:
  DevicePoints() = default;

  /// Uploads `m` to `dev` in the given layout (charges the H2D transfer).
  /// `vector_width` is the elements-per-load of row-major point reads:
  /// 4 models float4 vector loads (paper IV-C3), 1 scalar loads.
  static DevicePoints Upload(gpusim::Device* dev, const HostMatrix& m,
                             PointLayout layout, const char* what,
                             int vector_width = 4,
                             Metric metric = Metric::kEuclidean) {
    return Create(dev, m, layout, what, vector_width, metric,
                  /*charge_transfer=*/true);
  }

  /// Materializes device-produced data (e.g. k-means centroids computed
  /// by a kernel): same as Upload but without the PCIe charge.
  static DevicePoints CreateOnDevice(gpusim::Device* dev,
                                     const HostMatrix& m, PointLayout layout,
                                     const char* what, int vector_width = 4,
                                     Metric metric = Metric::kEuclidean) {
    return Create(dev, m, layout, what, vector_width, metric,
                  /*charge_transfer=*/false);
  }

 private:
  static DevicePoints Create(gpusim::Device* dev, const HostMatrix& m,
                             PointLayout layout, const char* what,
                             int vector_width, Metric metric,
                             bool charge_transfer) {
    DevicePoints out;
    out.n_ = m.rows();
    out.dims_ = m.cols();
    out.layout_ = layout;
    out.vector_width_ = vector_width;
    out.metric_ = metric;
    out.buf_ = dev->Alloc<float>(m.rows() * m.cols(), what);
    if (layout == PointLayout::kRowMajor) {
      std::copy(m.data(), m.data() + m.size(), out.buf_.data());
    } else {
      for (size_t p = 0; p < m.rows(); ++p) {
        for (size_t j = 0; j < m.cols(); ++j) {
          out.buf_[j * m.rows() + p] = m.at(p, j);
        }
      }
    }
    if (charge_transfer) dev->ChargeTransfer(m.size() * sizeof(float));
    return out;
  }

 public:

  size_t n() const { return n_; }
  size_t dims() const { return dims_; }
  PointLayout layout() const { return layout_; }
  Metric metric() const { return metric_; }
  bool valid() const { return buf_.valid(); }

  /// Distance between two accessor-views under this space's metric.
  float Distance(const PointAccessor& a, const PointAccessor& b) const {
    return AccessorDistance(a, b, dims_, metric_);
  }

  /// Kernel-side whole-point load for every active lane:
  /// sink(lane, PointAccessor). Charges layout-appropriate instructions
  /// and memory transactions.
  template <typename IdxF, typename SinkF>
  void LoadPoints(gpusim::Warp& w, IdxF&& point_of, SinkF&& sink) const {
    if (layout_ == PointLayout::kRowMajor) {
      w.LoadRange(
          buf_, [&](int lane) { return point_of(lane) * dims_; }, dims_,
          vector_width_, [&](int lane, const float* ptr) {
            sink(lane, PointAccessor{ptr, 1});
          });
    } else {
      w.LoadStrided(
          buf_, [&](int lane) { return point_of(lane); }, dims_,
          /*stride=*/n_, [&](int lane, const float* ptr) {
            sink(lane, PointAccessor{ptr, n_});
          });
    }
  }

  /// Builds a new point matrix from selected rows of `src` with a
  /// simulated device-side gather kernel (used to materialize landmark
  /// centers without a host round-trip).
  static DevicePoints GatherRows(gpusim::Device* dev, const DevicePoints& src,
                                 const std::vector<uint32_t>& rows,
                                 const char* what) {
    DevicePoints out;
    out.n_ = rows.size();
    out.dims_ = src.dims_;
    out.layout_ = src.layout_;
    out.vector_width_ = src.vector_width_;
    out.metric_ = src.metric_;
    out.buf_ = dev->Alloc<float>(out.n_ * out.dims_, what);
    gpusim::KernelMeta meta{std::string("gather_rows:") + what, 24, 0};
    const auto cfg = gpusim::LaunchConfig::Cover(
        static_cast<int64_t>(rows.size()), 256);
    dev->Launch(meta, cfg, [&](gpusim::Warp& w) {
      const gpusim::LaneMask valid = w.Ballot([&](int lane) {
        return static_cast<size_t>(w.GlobalThreadId(lane)) < rows.size();
      });
      w.If(valid, [&] {
        gpusim::Reg<PointAccessor> point;
        src.LoadPoints(
            w,
            [&](int lane) {
              return rows[static_cast<size_t>(w.GlobalThreadId(lane))];
            },
            [&](int lane, PointAccessor acc) { point[lane] = acc; });
        if (out.layout_ == PointLayout::kRowMajor) {
          w.StoreRange(
              out.buf_,
              [&](int lane) {
                return static_cast<size_t>(w.GlobalThreadId(lane)) *
                       out.dims_;
              },
              out.dims_, /*vector_width=*/4,
              [&](int lane, size_t j) { return point[lane][j]; });
        } else {
          // Column-major destination: one strided store per dimension;
          // lanes hold consecutive p so each dimension's stores coalesce
          // into one transaction per warp.
          w.ChargeMemory(/*transactions=*/out.dims_,
                         /*load_instructions=*/0,
                         /*store_instructions=*/out.dims_);
          w.Op(
              [&](int lane) {
                const size_t p =
                    static_cast<size_t>(w.GlobalThreadId(lane));
                for (size_t j = 0; j < out.dims_; ++j) {
                  out.buf_[j * out.n_ + p] = point[lane][j];
                }
              },
              /*cost=*/0);
        }
      });
    });
    return out;
  }

  /// Host-side element access (for verification / CPU reference paths).
  float At(size_t p, size_t j) const {
    return layout_ == PointLayout::kRowMajor ? buf_[p * dims_ + j]
                                             : buf_[j * n_ + p];
  }

  /// Host-side accessor for point p.
  PointAccessor HostPoint(size_t p) const {
    return layout_ == PointLayout::kRowMajor
               ? PointAccessor{buf_.data() + p * dims_, 1}
               : PointAccessor{buf_.data() + p, n_};
  }

 private:
  size_t n_ = 0;
  size_t dims_ = 0;
  PointLayout layout_ = PointLayout::kRowMajor;
  int vector_width_ = 4;
  Metric metric_ = Metric::kEuclidean;
  gpusim::DeviceBuffer<float> buf_;
};

}  // namespace sweetknn::core

#endif  // SWEETKNN_CORE_DEVICE_POINTS_H_
