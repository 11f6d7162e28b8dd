#ifndef SWEETKNN_SIMD_SIMD_KERNELS_H_
#define SWEETKNN_SIMD_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/knn_result.h"
#include "common/logging.h"
#include "common/matrix.h"
#include "common/topk.h"

namespace sweetknn::simd {

// ---------------------------------------------------------------------------
// Vectorized host math for the exact distance paths (docs/performance.md).
//
// Every kernel here computes in the CANONICAL accumulation order: for each
// (query, target) pair, dimensions are accumulated strictly in ascending j
// into a single float, exactly like core::AccessorDistance. Vector lanes
// run *different target points*, never different dimensions of one pair,
// so no reassociation ever happens and every implementation — scalar
// fallback, AVX2, AVX-512 — returns bit-identical floats. The SIMD
// translation units are compiled without FMA and with -ffp-contract=off
// so mul+add never fuses; sqrtps/sqrtss are both IEEE correctly rounded.
// ---------------------------------------------------------------------------

/// Instruction-set tier of the kernel implementations.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

const char* LevelName(Level level);

/// True when this build contains the given tier (compile-time support).
bool CompiledIn(Level level);

/// True when the running CPU can execute the given tier (raw CPUID; the
/// SWEETKNN_FORCE_SCALAR override does not affect this).
bool CpuSupports(Level level);

/// The tier every kernel below dispatches to: the best compiled-in tier
/// the CPU supports, downgraded to kScalar when the environment variable
/// SWEETKNN_FORCE_SCALAR is set (non-empty, not "0"). Detection runs once
/// and is cached; ForceLevelForTest overrides it.
Level ActiveLevel();

/// Test hook: pins ActiveLevel() to `level` (clamped to scalar when the
/// tier is unavailable); pass -1 to restore normal detection. Used by the
/// equivalence suite and the mutation fuzz harness to toggle dispatch
/// per step.
void ForceLevelForTest(int level);

/// Distance kind. kEuclidean applies the final sqrt (matching
/// core::Metric::kEuclidean); kSquaredEuclidean stops at the sum.
enum class Dist : int {
  kEuclidean = 0,
  kSquaredEuclidean = 1,
  kManhattan = 2,
};

/// Rows per tile of a PackedTargets. Fixed at 16 for every tier: AVX-512
/// consumes a tile per step, AVX2 two halves, the scalar fallback walks
/// the lanes one by one — all in the same per-lane order.
inline constexpr size_t kTileLanes = 16;

/// Target points re-laid-out for lane-parallel distance kernels: rows are
/// grouped into tiles of kTileLanes, each tile stored dimension-major
/// (element (row r, dim j) lives at tile_base + j * kTileLanes + lane,
/// lane = r % kTileLanes). The last tile is zero-padded; padded lanes are
/// computed and discarded, never written to output. Packing is a plain
/// copy — pack once, amortize over every query row.
class PackedTargets {
 public:
  PackedTargets() = default;

  /// Packs `n` contiguous row-major rows of `dims` floats.
  static PackedTargets Pack(const float* rows, size_t n, size_t dims) {
    return PackStrided(rows, n, dims, dims, 1);
  }

  /// Packs from a strided source: element (r, j) = base[r * row_stride +
  /// j * col_stride] (covers column-major layouts: row_stride 1,
  /// col_stride n).
  static PackedTargets PackStrided(const float* base, size_t n, size_t dims,
                                   size_t row_stride, size_t col_stride);

  size_t n() const { return n_; }
  size_t dims() const { return dims_; }
  size_t num_tiles() const { return (n_ + kTileLanes - 1) / kTileLanes; }
  const float* tiles() const { return data_.data(); }

 private:
  size_t n_ = 0;
  size_t dims_ = 0;
  std::vector<float> data_;  // num_tiles * kTileLanes * dims, zero padded
};

/// out[i - row_begin] = distance(query, target row i) for rows
/// [row_begin, row_end) of `targets`. row_begin must be tile-aligned
/// (a multiple of kTileLanes); callers chunk on tile boundaries so the
/// working set stays cache-resident. `query` is `targets.dims()`
/// contiguous floats at any alignment.
void QueryDistances(const float* query, const PackedTargets& targets,
                    size_t row_begin, size_t row_end, Dist dist, float* out);

/// Whole-set convenience form.
inline void QueryDistances(const float* query, const PackedTargets& targets,
                           Dist dist, float* out) {
  QueryDistances(query, targets, 0, targets.n(), dist, out);
}

/// Block-vs-block: out[q * targets.n() + t] = distance(query row q,
/// target row t) for `nq` contiguous row-major query rows.
void BlockDistances(const float* queries, size_t nq,
                    const PackedTargets& targets, Dist dist, float* out);

/// One query row against an unpacked contiguous row-major block: packs
/// tile-sized stripes on the fly into a stack buffer. Same canonical
/// results as packing the whole block first; use when the block is
/// scanned once (single-shot verification paths).
void QueryBlockDistances(const float* query, const float* rows, size_t n,
                         size_t dims, Dist dist, float* out);

/// Lane-parallel pair distances: out[i] = distance(a[i], b[i]) for `n`
/// pairs of contiguous `dims`-float rows at arbitrary addresses. This is
/// the host image of one SIMT distance instruction — lane i of the
/// vector runs pair i, and each pair still accumulates its terms in
/// ascending j into one float, so every tier is bit-identical to
/// core::AccessorDistance. Pairs may share rows (several lanes of a warp
/// working for one query). The vector tiers load 8 dimensions per pair
/// and transpose the 8x8 block in registers, so the per-pair adds run
/// one vector add per dimension; the AVX-512 tier runs the AVX2 kernel.
void PairDistances(const float* const* a, const float* const* b, size_t n,
                   size_t dims, Dist dist, float* out);

/// acc[j] += row[j] for j in [0, dims). Elementwise (lane-independent),
/// so vectorization cannot change any result bit.
void AddRow(float* acc, const float* row, size_t dims);

/// Scans dists[0..n) in ascending index order, offering neighbor
/// (index_base + i, dists[i]) to `heap` — bit-identical to the plain
/// PushIfCloser loop. Vector tiers skip whole blocks whose distances are
/// all >= the heap's current kth distance; the strict `<` block test is
/// exact because an ascending scan can never insert on a distance tie
/// (NeighborLess breaks ties toward the smaller index, which is already
/// in the heap). Callers must scan candidates in ascending index order
/// across successive calls for that argument to hold.
void SelectNearest(const float* dists, size_t n, uint32_t index_base,
                   TopK* heap);

/// Exact k-nearest of every query row over a packed target set: chunked
/// QueryDistances + SelectNearest per query, parallelized over query rows
/// on up to `workers` threads (results are independent of the worker
/// count). Neighbor indices are target row numbers; rows beyond the
/// target size pad with kInvalidNeighbor exactly like the scalar
/// brute-force loop.
KnnResult PackedKnn(const HostMatrix& queries, const PackedTargets& targets,
                    int k, Dist dist, int workers);

}  // namespace sweetknn::simd

#endif  // SWEETKNN_SIMD_SIMD_KERNELS_H_
