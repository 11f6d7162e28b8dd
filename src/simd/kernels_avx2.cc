// AVX2 tier: each tile's 16 lanes run as two __m256 accumulators. The
// vector axis is the target-point axis, so every lane's j-loop is the
// same scalar recurrence as kernels_scalar.cc — sub, mul, add in
// ascending j — just 8 lanes at once. Compiled with -mavx2 (no FMA ISA)
// and -ffp-contract=off, so mul+add can never fuse; vsqrtps is IEEE
// correctly rounded like std::sqrt. See docs/performance.md.

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "simd/kernels_impl.h"

#if !SWEETKNN_SIMD_HAVE_AVX2
#error "kernels_avx2.cc requires SWEETKNN_SIMD_HAVE_AVX2"
#endif

namespace sweetknn::simd::internal {

namespace {

// abs by clearing the sign bit — exactly what std::fabs(float) does,
// including for NaN payloads.
inline __m256 Abs256(__m256 v) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
}

inline void TileDistances(const float* query, const float* tile, size_t dims,
                          Dist dist, float* out16) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  if (dist == Dist::kManhattan) {
    for (size_t j = 0; j < dims; ++j) {
      const __m256 qj = _mm256_set1_ps(query[j]);
      const float* row = tile + j * kTileLanes;
      acc0 = _mm256_add_ps(acc0, Abs256(_mm256_sub_ps(qj,
                                                      _mm256_loadu_ps(row))));
      acc1 = _mm256_add_ps(
          acc1, Abs256(_mm256_sub_ps(qj, _mm256_loadu_ps(row + 8))));
    }
  } else {
    for (size_t j = 0; j < dims; ++j) {
      const __m256 qj = _mm256_set1_ps(query[j]);
      const float* row = tile + j * kTileLanes;
      const __m256 d0 = _mm256_sub_ps(qj, _mm256_loadu_ps(row));
      const __m256 d1 = _mm256_sub_ps(qj, _mm256_loadu_ps(row + 8));
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(d0, d0));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(d1, d1));
    }
    if (dist == Dist::kEuclidean) {
      acc0 = _mm256_sqrt_ps(acc0);
      acc1 = _mm256_sqrt_ps(acc1);
    }
  }
  _mm256_storeu_ps(out16, acc0);
  _mm256_storeu_ps(out16 + 8, acc1);
}

// In-register 8x8 transpose: on entry r[p] holds 8 consecutive
// dimensions of pair p; on exit r[t] holds dimension t of pairs 0..7.
__attribute__((always_inline)) inline void Transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

// Mask selecting lanes [0, n) of an 8-lane vector, n <= 8.
inline __m256i FirstLanesMask(size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Per-dimension term of one pair: (x-y)^2, or |x-y| for Manhattan.
template <bool kAbs>
inline __m256 PairTerms(__m256 x, __m256 y) {
  const __m256 d = _mm256_sub_ps(x, y);
  return kAbs ? Abs256(d) : _mm256_mul_ps(d, d);
}

// Distance accumulators of 8 pairs (lane p = pair p). Each 8-dimension
// block is loaded pair by pair, transposed, and added one dimension at a
// time, so lane p sees exactly the scalar recurrence over ascending j.
// The tail block loads through a mask, so its dead dimensions are
// 0 - 0 = +0 terms; adding +0 leaves any accumulator bit-identical
// (it starts at +0 and adds only squares or absolute values, so it is
// never -0), which keeps r[] in registers instead of indexing it by
// `rem`.
template <bool kAbs>
inline __m256 GroupAccumulate(const float* const* a, const float* const* b,
                              size_t dims) {
  __m256 acc = _mm256_setzero_ps();
  __m256 r[8];
  size_t j = 0;
  for (; j + 8 <= dims; j += 8) {
#pragma GCC unroll 8
    for (int p = 0; p < 8; ++p) {
      r[p] = PairTerms<kAbs>(_mm256_loadu_ps(a[p] + j),
                             _mm256_loadu_ps(b[p] + j));
    }
    Transpose8(r);
#pragma GCC unroll 8
    for (int t = 0; t < 8; ++t) acc = _mm256_add_ps(acc, r[t]);
  }
  const size_t rem = dims - j;
  if (rem > 0) {
    const __m256i mask = FirstLanesMask(rem);
#pragma GCC unroll 8
    for (int p = 0; p < 8; ++p) {
      r[p] = PairTerms<kAbs>(_mm256_maskload_ps(a[p] + j, mask),
                             _mm256_maskload_ps(b[p] + j, mask));
    }
    Transpose8(r);
#pragma GCC unroll 8
    for (int t = 0; t < 8; ++t) acc = _mm256_add_ps(acc, r[t]);
  }
  return acc;
}

template <bool kAbs>
void PairDistancesImpl(const float* const* a, const float* const* b,
                       size_t n, size_t dims, Dist dist, float* out) {
  const bool root = dist == Dist::kEuclidean;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 acc = GroupAccumulate<kAbs>(a + i, b + i, dims);
    if (root) acc = _mm256_sqrt_ps(acc);
    _mm256_storeu_ps(out + i, acc);
  }
  const size_t live = n - i;
  if (live == 0) return;
  // Partial group: pad the idle lanes with the last live pair, compute,
  // and store only the live lanes.
  const float* pa[8];
  const float* pb[8];
  for (size_t p = 0; p < 8; ++p) {
    const size_t src = i + std::min(p, live - 1);
    pa[p] = a[src];
    pb[p] = b[src];
  }
  __m256 acc = GroupAccumulate<kAbs>(pa, pb, dims);
  if (root) acc = _mm256_sqrt_ps(acc);
  _mm256_maskstore_ps(out + i, FirstLanesMask(live), acc);
}

}  // namespace

void QueryDistancesAvx2(const float* query, const float* tiles, size_t dims,
                        size_t row_begin, size_t row_end, Dist dist,
                        float* out) {
  float lanes[kTileLanes];
  for (size_t row = row_begin; row < row_end; row += kTileLanes) {
    const float* tile = tiles + (row / kTileLanes) * kTileLanes * dims;
    const size_t active =
        row_end - row < kTileLanes ? row_end - row : kTileLanes;
    if (active == kTileLanes) {
      TileDistances(query, tile, dims, dist, out + (row - row_begin));
    } else {
      TileDistances(query, tile, dims, dist, lanes);
      std::memcpy(out + (row - row_begin), lanes, active * sizeof(float));
    }
  }
}

void SelectNearestAvx2(const float* dists, size_t n, uint32_t index_base,
                       TopK* heap) {
  size_t i = 0;
  while (i < n && !heap->full()) {
    heap->PushIfCloser(
        Neighbor{index_base + static_cast<uint32_t>(i), dists[i]});
    ++i;
  }
  // Block-skip: 8 candidates at a time against the current kth distance.
  // The strict < test is exact for an ascending scan (simd_kernels.h);
  // surviving blocks re-test every lane through PushIfCloser, so a lane
  // that only qualified against the pre-block threshold is still
  // rejected correctly.
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(dists + i);
    const __m256 thr = _mm256_set1_ps(heap->max());
    if (_mm256_movemask_ps(_mm256_cmp_ps(v, thr, _CMP_LT_OQ)) == 0) continue;
    for (size_t l = 0; l < 8; ++l) {
      heap->PushIfCloser(
          Neighbor{index_base + static_cast<uint32_t>(i + l), dists[i + l]});
    }
  }
  for (; i < n; ++i) {
    heap->PushIfCloser(
        Neighbor{index_base + static_cast<uint32_t>(i), dists[i]});
  }
}

void AddRowAvx2(float* acc, const float* row, size_t dims) {
  size_t j = 0;
  for (; j + 8 <= dims; j += 8) {
    _mm256_storeu_ps(acc + j, _mm256_add_ps(_mm256_loadu_ps(acc + j),
                                            _mm256_loadu_ps(row + j)));
  }
  for (; j < dims; ++j) acc[j] += row[j];
}

void PairDistancesAvx2(const float* const* a, const float* const* b,
                       size_t n, size_t dims, Dist dist, float* out) {
  if (dist == Dist::kManhattan) {
    PairDistancesImpl<true>(a, b, n, dims, dist, out);
  } else {
    PairDistancesImpl<false>(a, b, n, dims, dist, out);
  }
}

}  // namespace sweetknn::simd::internal
