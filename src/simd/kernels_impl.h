#ifndef SWEETKNN_SIMD_KERNELS_IMPL_H_
#define SWEETKNN_SIMD_KERNELS_IMPL_H_

#include <cstddef>
#include <cstdint>

#include "common/topk.h"
#include "simd/simd_kernels.h"

// Per-tier kernel entry points, one translation unit each so the vector
// tiers can carry -mavx2 / -mavx512f (and -ffp-contract=off) without
// leaking those flags into the rest of the build. The dispatch layer in
// simd_dispatch.cc is the only caller.
//
// Contract shared by all tiers (the canonical order simd_kernels.h
// documents): per output row, dimensions accumulate in ascending j into
// one float; tiles are processed in ascending order; within a tile,
// lane l is row tile*kTileLanes + l. `tiles` points at the tile stream
// of a PackedTargets; `row_begin` is tile-aligned. PairDistances* run
// lane i as pair (a[i], b[i]) under the same per-pair order.

namespace sweetknn::simd::internal {

void QueryDistancesScalar(const float* query, const float* tiles, size_t dims,
                          size_t row_begin, size_t row_end, Dist dist,
                          float* out);
void SelectNearestScalar(const float* dists, size_t n, uint32_t index_base,
                         TopK* heap);
void AddRowScalar(float* acc, const float* row, size_t dims);
void PairDistancesScalar(const float* const* a, const float* const* b,
                         size_t n, size_t dims, Dist dist, float* out);

#if SWEETKNN_SIMD_HAVE_AVX2
void QueryDistancesAvx2(const float* query, const float* tiles, size_t dims,
                        size_t row_begin, size_t row_end, Dist dist,
                        float* out);
void SelectNearestAvx2(const float* dists, size_t n, uint32_t index_base,
                       TopK* heap);
void AddRowAvx2(float* acc, const float* row, size_t dims);
void PairDistancesAvx2(const float* const* a, const float* const* b,
                       size_t n, size_t dims, Dist dist, float* out);
#endif

#if SWEETKNN_SIMD_HAVE_AVX512
void QueryDistancesAvx512(const float* query, const float* tiles, size_t dims,
                          size_t row_begin, size_t row_end, Dist dist,
                          float* out);
void SelectNearestAvx512(const float* dists, size_t n, uint32_t index_base,
                         TopK* heap);
void AddRowAvx512(float* acc, const float* row, size_t dims);
#endif

}  // namespace sweetknn::simd::internal

#endif  // SWEETKNN_SIMD_KERNELS_IMPL_H_
