// Runtime dispatch for the vectorized host kernels: picks the best
// compiled-in tier the CPU supports once, honors SWEETKNN_FORCE_SCALAR,
// and exposes a test hook for pinning the tier. Also holds the
// tier-independent pieces: packing, chunking, and PackedKnn.

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/parallel_for.h"
#include "simd/kernels_impl.h"
#include "simd/simd_kernels.h"

namespace sweetknn::simd {

namespace {

// Target-row chunk per SelectNearest pass of PackedKnn: 4096 rows of
// distances (16 KiB) stay L1-resident between the distance and select
// sweeps. Tile-aligned as QueryDistances requires.
constexpr size_t kKnnChunkRows = 4096;
static_assert(kKnnChunkRows % kTileLanes == 0);

std::atomic<int> g_forced_level{-1};

bool ForceScalarFromEnv() {
  const char* env = std::getenv("SWEETKNN_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

Level DetectLevel() {
  if (ForceScalarFromEnv()) return Level::kScalar;
  if (CompiledIn(Level::kAvx512) && CpuSupports(Level::kAvx512)) {
    return Level::kAvx512;
  }
  if (CompiledIn(Level::kAvx2) && CpuSupports(Level::kAvx2)) {
    return Level::kAvx2;
  }
  return Level::kScalar;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool CompiledIn(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
      return SWEETKNN_SIMD_HAVE_AVX2 != 0;
    case Level::kAvx512:
      return SWEETKNN_SIMD_HAVE_AVX512 != 0;
  }
  return false;
}

bool CpuSupports(Level level) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Level::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return level == Level::kScalar;
#endif
}

Level ActiveLevel() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) {
    const Level level = static_cast<Level>(forced);
    if (CompiledIn(level) && CpuSupports(level)) return level;
    return Level::kScalar;
  }
  static const Level detected = DetectLevel();
  return detected;
}

void ForceLevelForTest(int level) {
  g_forced_level.store(level, std::memory_order_relaxed);
}

PackedTargets PackedTargets::PackStrided(const float* base, size_t n,
                                         size_t dims, size_t row_stride,
                                         size_t col_stride) {
  PackedTargets out;
  out.n_ = n;
  out.dims_ = dims;
  out.data_.assign(out.num_tiles() * kTileLanes * dims, 0.0f);
  for (size_t r = 0; r < n; ++r) {
    float* tile = out.data_.data() + (r / kTileLanes) * kTileLanes * dims;
    const size_t lane = r % kTileLanes;
    const float* src = base + r * row_stride;
    for (size_t j = 0; j < dims; ++j) {
      tile[j * kTileLanes + lane] = src[j * col_stride];
    }
  }
  return out;
}

void QueryDistances(const float* query, const PackedTargets& targets,
                    size_t row_begin, size_t row_end, Dist dist, float* out) {
  SK_DCHECK(row_begin % kTileLanes == 0);
  SK_DCHECK(row_end <= targets.n());
  if (row_begin >= row_end) return;
  switch (ActiveLevel()) {
#if SWEETKNN_SIMD_HAVE_AVX512
    case Level::kAvx512:
      internal::QueryDistancesAvx512(query, targets.tiles(), targets.dims(),
                                     row_begin, row_end, dist, out);
      return;
#endif
#if SWEETKNN_SIMD_HAVE_AVX2
    case Level::kAvx2:
      internal::QueryDistancesAvx2(query, targets.tiles(), targets.dims(),
                                   row_begin, row_end, dist, out);
      return;
#endif
    default:
      internal::QueryDistancesScalar(query, targets.tiles(), targets.dims(),
                                     row_begin, row_end, dist, out);
      return;
  }
}

void BlockDistances(const float* queries, size_t nq,
                    const PackedTargets& targets, Dist dist, float* out) {
  for (size_t q = 0; q < nq; ++q) {
    QueryDistances(queries + q * targets.dims(), targets, 0, targets.n(),
                   dist, out + q * targets.n());
  }
}

void QueryBlockDistances(const float* query, const float* rows, size_t n,
                         size_t dims, Dist dist, float* out) {
  // Pack one tile-sized stripe at a time; the stripe result is identical
  // to the corresponding rows of a full pack.
  for (size_t begin = 0; begin < n; begin += kTileLanes) {
    const size_t count = std::min(kTileLanes, n - begin);
    const PackedTargets stripe =
        PackedTargets::Pack(rows + begin * dims, count, dims);
    QueryDistances(query, stripe, 0, count, dist, out + begin);
  }
}

void AddRow(float* acc, const float* row, size_t dims) {
  switch (ActiveLevel()) {
#if SWEETKNN_SIMD_HAVE_AVX512
    case Level::kAvx512:
      internal::AddRowAvx512(acc, row, dims);
      return;
#endif
#if SWEETKNN_SIMD_HAVE_AVX2
    case Level::kAvx2:
      internal::AddRowAvx2(acc, row, dims);
      return;
#endif
    default:
      internal::AddRowScalar(acc, row, dims);
      return;
  }
}

void PairDistances(const float* const* a, const float* const* b, size_t n,
                   size_t dims, Dist dist, float* out) {
  switch (ActiveLevel()) {
#if SWEETKNN_SIMD_HAVE_AVX2
    // The AVX-512 tier runs the AVX2 kernel too (every AVX-512F CPU
    // implements AVX2): a 16x16 transpose timed no faster than two 8x8
    // ones, and a padded 16-lane group is twice the work of an 8-lane
    // one for the partial groups of a warp (docs/performance.md).
    case Level::kAvx512:
    case Level::kAvx2:
      internal::PairDistancesAvx2(a, b, n, dims, dist, out);
      return;
#endif
    default:
      internal::PairDistancesScalar(a, b, n, dims, dist, out);
      return;
  }
}

void SelectNearest(const float* dists, size_t n, uint32_t index_base,
                   TopK* heap) {
  switch (ActiveLevel()) {
#if SWEETKNN_SIMD_HAVE_AVX512
    case Level::kAvx512:
      internal::SelectNearestAvx512(dists, n, index_base, heap);
      return;
#endif
#if SWEETKNN_SIMD_HAVE_AVX2
    case Level::kAvx2:
      internal::SelectNearestAvx2(dists, n, index_base, heap);
      return;
#endif
    default:
      internal::SelectNearestScalar(dists, n, index_base, heap);
      return;
  }
}

KnnResult PackedKnn(const HostMatrix& queries, const PackedTargets& targets,
                    int k, Dist dist, int workers) {
  SK_CHECK_EQ(queries.cols(), targets.dims());
  KnnResult result(queries.rows(), k);
  common::ParallelFor(
      workers, queries.rows(), /*grain=*/8, [&](size_t begin, size_t end) {
        std::vector<float> dists(std::min(targets.n(), kKnnChunkRows));
        for (size_t q = begin; q < end; ++q) {
          TopK heap(k);
          for (size_t chunk = 0; chunk < targets.n();
               chunk += kKnnChunkRows) {
            const size_t chunk_end =
                std::min(targets.n(), chunk + kKnnChunkRows);
            QueryDistances(queries.row(q), targets, chunk, chunk_end, dist,
                           dists.data());
            SelectNearest(dists.data(), chunk_end - chunk,
                          static_cast<uint32_t>(chunk), &heap);
          }
          result.SetRow(q, heap.Sorted());
        }
      });
  return result;
}

}  // namespace sweetknn::simd
