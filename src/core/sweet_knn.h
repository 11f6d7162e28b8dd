#ifndef SWEETKNN_CORE_SWEET_KNN_H_
#define SWEETKNN_CORE_SWEET_KNN_H_

#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "ann/ann_index.h"
#include "ann/search_mode.h"
#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/range_result.h"
#include "common/status.h"
#include "core/delta_overlay.h"
#include "core/options.h"
#include "core/range_search.h"
#include "core/route_planner.h"
#include "core/shard_merge.h"
#include "core/ti_knn_gpu.h"
#include "gpusim/device.h"
#include "simd/simd_kernels.h"

namespace sweetknn {

namespace store {
struct IndexSnapshot;
}  // namespace store

/// The library's front door: Sweet KNN with an owned simulated device.
///
///   sweetknn::SweetKnn knn;
///   KnnResult result = knn.SelfJoin(points, /*k=*/20);
///
/// For baseline comparisons or custom devices, construct with a Config;
/// for fine-grained control (re-using clusterings across k values), use
/// core::TiKnnEngine directly.
class SweetKnn {
 public:
  struct Config {
    gpusim::DeviceSpec device = gpusim::DeviceSpec::TeslaK20c();
    core::TiOptions options = core::TiOptions::Sweet();
    /// SweetKnnIndex only: auto-compact when the overlay (delta points +
    /// tombstones) exceeds this fraction of the base rows. <= 0 disables
    /// auto-compaction (Compact() stays available).
    double compact_delta_fraction = 0.25;
    /// SweetKnnIndex only: cost-based routing of each query batch
    /// between the simulated-GPU TI engine and the vectorized host
    /// kernels (docs/performance.md). Both routes answer bit-
    /// identically; force-device restores pre-planner behavior (and is
    /// what stats-asserting callers should pin, since host-routed
    /// batches report no simulated-device stats).
    core::PlannerConfig planner;
    /// SweetKnnIndex only: build the approximate kNN-graph tier over the
    /// frozen base (and rebuild it at every compaction), enabling
    /// SearchMode::Approx queries (docs/approx.md). Exact queries — and
    /// every index built without this — are completely unaffected.
    bool enable_ann = false;
    /// SweetKnnIndex only: NN-descent build knobs for the ANN tier.
    ann::GraphBuildParams ann_params;
  };

  SweetKnn() : SweetKnn(Config{}) {}
  explicit SweetKnn(const Config& config)
      : device_(config.device), options_(config.options) {}

  SweetKnn(const SweetKnn&) = delete;
  SweetKnn& operator=(const SweetKnn&) = delete;

  /// KNN join: the k nearest points of `target` for every row of `query`.
  KnnResult Join(const HostMatrix& query, const HostMatrix& target, int k,
                 core::KnnRunStats* stats = nullptr) {
    return core::TiKnnEngine::RunOnce(&device_, query, target, k, options_,
                                      stats);
  }

  /// Self-join (query set == target set), the setting of the paper's
  /// experiments. Note each point finds itself as its nearest neighbor.
  KnnResult SelfJoin(const HostMatrix& points, int k,
                     core::KnnRunStats* stats = nullptr) {
    return Join(points, points, k, stats);
  }

  /// Single-query convenience: the k nearest targets of one point.
  std::vector<Neighbor> Search(const HostMatrix& target,
                               const std::vector<float>& query_point, int k) {
    SK_CHECK_EQ(query_point.size(), target.cols());
    HostMatrix query(1, target.cols());
    std::memcpy(query.mutable_row(0), query_point.data(),
                target.cols() * sizeof(float));
    const KnnResult result = Join(query, target, k);
    return std::vector<Neighbor>(result.row(0), result.row(0) + result.k());
  }

  gpusim::Device& device() { return device_; }
  const core::TiOptions& options() const { return options_; }

 private:
  gpusim::Device device_;
  core::TiOptions options_;
};

/// A prebuilt index over a target set: the target-side clustering (the
/// expensive part of Step 1) is built once, then arbitrary query batches
/// run against it.
///
///   sweetknn::SweetKnnIndex index(gallery);
///   KnnResult r1 = index.Query(batch1, 10);
///   KnnResult r2 = index.Query(batch2, 10);
///
/// The target set is mutable: Insert/Remove buffer changes in a delta
/// overlay (new points served by an exact brute-force side scan, deleted
/// rows masked by stable id at merge time) without touching the frozen
/// base, and Compact() — run automatically once the overlay exceeds
/// Config::compact_delta_fraction of the base — folds the overlay into a
/// freshly clustered base. Answers are exact at every point: a mutated
/// index answers bit-identically to a cold-built index over the
/// surviving point set arranged in ascending stable-id order (the
/// mutation-differential fuzz suite proves this; docs/mutability.md has
/// the argument).
///
/// Rows are named by stable ids: the initial target's rows get ids
/// offset..offset+rows-1 (offset 0 unless the index holds one slice of
/// a larger target), every Insert allocates the next id, and ids are
/// never reused. Query results report stable ids.
///
/// The same object is one shard of the serving layer: serve::KnnService
/// and the shard-worker processes hold one index per target slice, route
/// each group themselves, and combine the per-shard Answer/RangeAnswer
/// contributions with core::MergeShardAnswers. They allocate stable ids
/// globally (Insert(id, point)) and schedule compactions through the
/// capture / rebuild / install steps below, so a rebuild runs outside
/// their lock.
///
/// Not thread-safe; serve::KnnService is the concurrent front-end.
class SweetKnnIndex {
 public:
  /// `offset` is the stable id of the target's first row.
  explicit SweetKnnIndex(const HostMatrix& target,
                         const SweetKnn::Config& config = {},
                         uint32_t offset = 0);

  SweetKnnIndex(const SweetKnnIndex&) = delete;
  SweetKnnIndex& operator=(const SweetKnnIndex&) = delete;

  /// The k nearest live points for every query row, as stable ids. When
  /// tombstones exist, the base engine is over-queried at
  /// k + |tombstones| so that masking can never starve the top-k.
  KnnResult Query(const HostMatrix& queries, int k,
                  core::KnnRunStats* stats = nullptr);

  /// Mode-selected query. Exact (or effectively exact: recall_target >=
  /// 1.0) modes — and approx requests against an index without a graph —
  /// run the exact path above, bit-identically. Approx modes answer the
  /// frozen base from the kNN-graph tier under the mode's candidate
  /// budget, still scanning delta points exactly and masking tombstones,
  /// so mutations never weaken below the graph's recall. `ann_stats`
  /// (optional) accumulates the graph-search work counters.
  KnnResult Query(const HostMatrix& queries, int k,
                  const ann::SearchMode& mode,
                  core::KnnRunStats* stats = nullptr,
                  ann::AnnSearchStats* ann_stats = nullptr);

  /// Single-point convenience.
  std::vector<Neighbor> Query(const std::vector<float>& point, int k);

  /// Answers one same-k query group on a caller-chosen route, as the
  /// contribution core::MergeShardAnswers pools: Query is the planner's
  /// choice, then this, then the planner's observation of the run.
  ///
  /// A pristine index runs its base at k and reports local indices
  /// (pristine answer: stable id = index + offset at merge time). A
  /// mutated index over-queries its base at k + |tombstones| (masking
  /// can then never starve the top k), side-scans its delta, and merges
  /// the two through MergeMutableResults — reporting its exact live
  /// top-k with stable ids substituted.
  ///
  /// `route` picks the exact base scan (simulated-device engine or the
  /// vectorized host kernels); both answer bit-identically, and a
  /// host-routed answer carries no simulated-device stats
  /// (device_routed = false). An effectively approx `mode` (with a built
  /// graph) answers the base from the ANN tier instead and reports the
  /// graph-search work counters. `stats` (optional) receives the full
  /// engine stats of a device-routed run, empty stats otherwise;
  /// `ann_stats` (optional) accumulates the graph-search counters.
  core::ShardAnswer Answer(const HostMatrix& queries, int k,
                           core::QueryRoute route,
                           const ann::SearchMode& mode =
                               ann::SearchMode::Exact(),
                           core::KnnRunStats* stats = nullptr,
                           ann::AnnSearchStats* ann_stats = nullptr);

  // -- Range modalities (docs/modalities.md) --------------------------

  /// Every live point within the closed ball distance <= radius of each
  /// query row, as stable ids, each row sorted ascending under
  /// NeighborLess on (distance, id). The planner picks the base-scan
  /// route — the TI-pruned scan reusing the Step-1 landmark bounds
  /// (kDevice) or the exhaustive vectorized host scan (kHost) — and
  /// both answer bit-identically; neither touches the simulated device,
  /// so kNN stats and the adaptive state are unperturbed. `stats`
  /// (optional) reports the base-scan work/pruning counters.
  RangeResult RadiusSearch(const HostMatrix& queries, float radius,
                           core::RangeScanStats* stats = nullptr);

  /// RadiusSearch on a caller-chosen route, as the per-shard answer
  /// core::MergeRangeShardAnswers pools: rows carry stable ids
  /// (tombstones masked, delta matches merged in).
  core::RangeShardAnswer RangeAnswer(const HostMatrix& queries, float radius,
                                     core::QueryRoute route);

  /// Every unordered pair of live points within the closed ball, each
  /// emitted once as (a, b, distance) with a < b, ordered by ascending
  /// a then (distance, b). Runs as chunked RadiusSearch over the live
  /// points (so pruning, routing, and overlay handling are the same
  /// fuzz-proven path), keeping matches with id > query id — which also
  /// excludes self-matches while keeping distinct duplicate points.
  std::vector<SelfJoinPair> SelfJoin(float radius,
                                     core::RangeScanStats* stats = nullptr);

  /// The exact kNN graph over the live points: row i of `neighbors`
  /// holds the k nearest live points of ids[i], excluding itself,
  /// padded with kInvalidNeighbor when fewer than k other points exist.
  /// Built as chunked Query(chunk, k + 1) with the self entry dropped:
  /// a point absent from its own top k+1 (duplicate-heavy sets) leaves
  /// the top k of the others intact, so the graph is exact either way.
  struct KnnGraphResult {
    std::vector<uint32_t> ids;  ///< Live stable ids, ascending.
    KnnResult neighbors;        ///< ids.size() rows of k stable-id entries.
  };
  KnnGraphResult KnnGraph(int k);

  /// The live points and their stable ids, ascending id order (the
  /// query source of the offline jobs).
  void ExportLive(std::vector<uint32_t>* ids, HostMatrix* points) const;

  /// Adds a point; returns its stable id. The point lands in the delta
  /// buffer and is served exactly from the next Query on. May trigger
  /// auto-compaction (see Config::compact_delta_fraction).
  uint32_t Insert(const std::vector<float>& point);

  /// Adds `point` (dims() floats) under a stable id the caller
  /// allocated. InvalidArgument, with no state change, when `id` does
  /// not exceed every delta id or already lives in this index. Never
  /// auto-compacts.
  Status Insert(uint32_t id, const float* point);

  /// Deletes the point with this stable id. Delta-resident points are
  /// erased in place; base rows are tombstoned until the next
  /// compaction, and so are delta entries an in-flight compaction has
  /// captured (erasing one would resurrect it at install). Returns false
  /// if the id was never live or already removed. Removing every point
  /// is allowed — queries then answer all padding. May trigger
  /// auto-compaction.
  bool Remove(uint32_t id);

  /// True when stable id `id` lives in this index: a base row
  /// (tombstoned or not) or a delta entry.
  bool Owns(uint32_t id) const;

  /// Folds the overlay into a fresh base: survivors of the old base plus
  /// the delta points, arranged in ascending stable-id order, get a
  /// from-scratch Step-1 clustering on a fresh simulated device (so the
  /// adaptive scheme sees exactly the allocation state of a cold build).
  /// Runs CaptureCompaction, RebuildCompaction and InstallCompaction
  /// back to back. No-op when the overlay is empty, no points survive,
  /// or a captured compaction is still in flight.
  void Compact();

  /// True when the overlay (delta points + tombstones) exceeds
  /// `fraction` of the base rows; `fraction` <= 0 never does. The
  /// auto-compaction trigger, and the serving layer's scheduling rule.
  bool OverlayExceeds(double fraction) const;

  // -- Compaction protocol (docs/mutability.md) ------------------------

  /// One compaction between its capture and its install. Capture and
  /// install run under the owner's lock; RebuildCompaction touches only
  /// the plan, so it can run outside the lock while the index keeps
  /// serving and mutating.
  struct CompactionPlan {
    SweetKnn::Config config;    ///< The index's config at capture.
    size_t watermark = 0;       ///< Delta entries consumed by the plan.
    HostMatrix points;          ///< Survivors + consumed delta, id order.
    std::vector<uint32_t> ids;  ///< Stable ids of `points` rows.
    /// Tombstones at capture (already excluded from `points`).
    std::unordered_set<uint32_t> captured_tombstones;
    /// The rebuilt base; after the install, the retired one, so the
    /// owner picks where it is destroyed. The engine is declared after
    /// its device and so dies first.
    std::unique_ptr<gpusim::Device> device;
    std::unique_ptr<core::TiKnnEngine> engine;
    simd::PackedTargets packed;
    ann::AnnIndex ann;
  };

  /// Capture: snapshots the live points (base survivors, then live delta
  /// entries — ascending stable-id order) into `plan` and marks the
  /// delta watermark. Returns false, changing nothing, when there is
  /// nothing to fold (empty overlay) or nothing survives (an empty base
  /// cannot be clustered). Must not be called with a compaction in
  /// flight.
  bool CaptureCompaction(CompactionPlan* plan);

  /// Rebuild: a fresh simulated device (so the adaptive scheme sees the
  /// free memory a cold build would), a full Step-1 clustering over the
  /// captured points, the packed host copy, and a fresh ANN graph when
  /// enabled.
  static void RebuildCompaction(CompactionPlan* plan);

  /// Install: swaps the rebuilt base in and carries forward mutations
  /// made since the capture — the delta suffix past the watermark
  /// verbatim, and removes of captured rows as tombstones of the new
  /// base. Captured ids that are literally 0..n-1 restore pristine form;
  /// any other id set becomes the new base's id map.
  void InstallCompaction(CompactionPlan* plan);

  /// True between CaptureCompaction and InstallCompaction.
  bool compaction_in_flight() const {
    return compact_watermark_ != kNoCompaction;
  }

  // -- Persistence (src/store/index_io.cc; link sweetknn_store) --------

  /// Persists the index (target points + target clustering + overlay +
  /// configuration fingerprints) to `path` in the src/store snapshot
  /// format; a pristine (never-mutated) index writes the backward-
  /// compatible v1 format, a mutated one v2. `dataset_name` is recorded
  /// as provenance.
  Status Save(const std::string& path,
              const std::string& dataset_name = "") const;

  /// Restores an index persisted by Save — including any delta/tombstone
  /// overlay — skipping the Step-1 landmark clustering. The snapshot
  /// must have been built under the same options and device spec as
  /// `config` (fingerprint-checked); a warm-loaded index answers every
  /// query bit-identically to the index that was saved. A shard file of
  /// a serving set loads as its slice: stable ids keep its offset.
  static Result<std::unique_ptr<SweetKnnIndex>> Load(
      const std::string& path, const SweetKnn::Config& config = {});

  /// The index as a snapshot: shard geometry and provenance as given,
  /// `next_id` recorded for a mutated index (the owner's id allocator
  /// for a serving shard). Delta entries tombstoned mid-compaction are
  /// dropped together with their tombstones, so the file's tombstones
  /// name base rows only.
  store::IndexSnapshot ExportSnapshot(const std::string& dataset_name,
                                      const std::string& builder,
                                      uint32_t shard_index,
                                      uint32_t shard_count,
                                      uint32_t next_id) const;

  /// Materializes an index from a loaded snapshot (Load's second half),
  /// after checking its fingerprints against `config`; `source` names
  /// the snapshot in error messages.
  static Result<std::unique_ptr<SweetKnnIndex>> Restore(
      store::IndexSnapshot snapshot, const SweetKnn::Config& config,
      const std::string& source);

  /// Live points: base rows minus tombstones plus delta points.
  size_t size() const {
    return base_rows_ - delta_.tombstones.size() + delta_.size();
  }
  size_t dims() const { return dims_; }
  /// Rows in the frozen TI-clustered base (including tombstoned ones).
  size_t base_rows() const { return base_rows_; }
  size_t delta_size() const { return delta_.size(); }
  size_t tombstone_count() const { return delta_.tombstones.size(); }
  /// The next stable id Insert will allocate.
  uint32_t next_id() const { return next_id_; }
  /// Compactions run so far (auto or manual).
  uint64_t compactions() const { return compactions_; }
  /// True when the index has no overlay and answers straight from the
  /// base (a never-mutated or freshly compacted-to-identity index).
  bool pristine() const { return delta_.Pristine() && id_map_.empty(); }
  /// The live stable ids, ascending.
  std::vector<uint32_t> LiveIds() const;

  /// The ANN tier (empty unless Config::enable_ann and the base is
  /// non-empty). Covers the frozen base as of the last (re)build.
  const ann::AnnIndex& ann() const { return ann_; }
  bool ann_enabled() const { return config_.enable_ann; }

  gpusim::Device& device() { return *device_; }
  const core::TiKnnEngine& engine() const { return *engine_; }
  /// The batch router (live mode switch; route counters).
  core::RoutePlanner& planner() { return planner_; }
  const core::RoutePlanner& planner() const { return planner_; }

 private:
  static constexpr size_t kNoCompaction = static_cast<size_t>(-1);

  struct WarmStartTag {};
  SweetKnnIndex(WarmStartTag, const HostMatrix& target,
                const core::TargetClusteringHost& clustering,
                const SweetKnn::Config& config, uint32_t offset);

  /// Installs a restored overlay (Restore's v2 path). `id_map` empty
  /// means the offset identity; the id allocator restarts at the larger
  /// of `next_id` and one past every id present.
  void AdoptOverlay(std::vector<uint32_t> id_map,
                    std::vector<uint32_t> delta_ids,
                    std::vector<float> delta_points,
                    const std::vector<uint32_t>& tombstones,
                    uint32_t next_id);

  /// The ANN tier over `base` under `config` (empty when disabled or the
  /// base is empty), seeding the entry points from `engine`'s Step-1
  /// landmark clustering.
  static ann::AnnIndex BuildAnn(const SweetKnn::Config& config,
                                const HostMatrix& base,
                                const core::TiKnnEngine& engine);

  /// Stable id of base row `i`.
  uint32_t BaseId(size_t i) const {
    return id_map_.empty() ? offset_ + static_cast<uint32_t>(i)
                           : id_map_[i];
  }
  /// True when `mode` answers the base from the ANN tier.
  bool UsesAnn(const ann::SearchMode& mode) const {
    return !mode.EffectiveExact() && !ann_.empty();
  }
  void MaybeCompact();

  /// The host image of the engine's Step-1 target clustering, exported
  /// lazily and cached until a compaction replaces the base (the
  /// export is charge-free, so caching is purely to avoid re-copying).
  const core::TargetClusteringHost& CachedClustering();

  SweetKnn::Config config_;
  std::unique_ptr<gpusim::Device> device_;
  std::unique_ptr<core::TiKnnEngine> engine_;
  core::RoutePlanner planner_;
  /// The frozen base, pre-packed for the vectorized host route (replaced
  /// by compaction installs alongside the engine).
  simd::PackedTargets packed_base_;
  /// The approximate tier over the same frozen base (empty when
  /// Config::enable_ann is off).
  ann::AnnIndex ann_;
  size_t dims_ = 0;
  size_t base_rows_ = 0;
  /// Stable id of base row 0 while id_map_ is empty.
  uint32_t offset_ = 0;
  /// Base row -> stable id, strictly increasing; empty = identity
  /// shifted by offset_ (initial build, or a compaction that produced
  /// ids 0..rows-1).
  std::vector<uint32_t> id_map_;
  core::DeltaBuffer delta_;
  uint32_t next_id_ = 0;
  uint64_t compactions_ = 0;
  /// While a compaction is in flight: how many delta entries it
  /// captured. Removes of captured entries tombstone instead of erasing
  /// (the rebuild already contains them); the suffix past the watermark
  /// stays freely mutable.
  size_t compact_watermark_ = kNoCompaction;
  /// See CachedClustering().
  std::unique_ptr<core::TargetClusteringHost> clustering_cache_;
};

}  // namespace sweetknn

#endif  // SWEETKNN_CORE_SWEET_KNN_H_
