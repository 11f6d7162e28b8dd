#include "core/sweet_knn.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "core/device_points.h"
#include "core/shard_merge.h"

namespace sweetknn {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Host-kernel parallelism of an index: its configured sim_threads, or
/// the environment default when unset (serving shards run with 1).
int HostWorkers(const core::TiOptions& options) {
  return options.sim_threads > 0 ? options.sim_threads
                                 : common::SimThreadsFromEnv();
}

/// Splits a profile's simulated kernel time by pipeline stage. Kernel
/// names are stable identifiers ("level1_calub", "level2_full_filter",
/// ...); everything that is neither level-1 nor level-2 filtering is
/// preprocessing (upload layout kernels, landmark clustering, member
/// scatter — the amortized Step-1 work plus per-batch query prep).
void AccumulateStageTimes(const gpusim::Profile& profile, double* level1,
                          double* level2, double* preprocess) {
  for (const gpusim::LaunchRecord& record : profile.launches) {
    if (record.kernel_name.rfind("level1", 0) == 0) {
      *level1 += record.sim_time_s;
    } else if (record.kernel_name.rfind("level2", 0) == 0) {
      *level2 += record.sim_time_s;
    } else {
      *preprocess += record.sim_time_s;
    }
  }
}

}  // namespace

SweetKnnIndex::SweetKnnIndex(const HostMatrix& target,
                             const SweetKnn::Config& config, uint32_t offset)
    : config_(config),
      device_(std::make_unique<gpusim::Device>(config.device)),
      engine_(std::make_unique<core::TiKnnEngine>(device_.get(),
                                                  config.options)),
      planner_(config.planner),
      packed_base_(simd::PackedTargets::Pack(target.data(), target.rows(),
                                             target.cols())),
      dims_(target.cols()),
      base_rows_(target.rows()),
      offset_(offset),
      next_id_(offset + static_cast<uint32_t>(target.rows())) {
  engine_->PrepareTarget(target);
  delta_.dims = dims_;
  ann_ = BuildAnn(config_, target, *engine_);
}

SweetKnnIndex::SweetKnnIndex(WarmStartTag, const HostMatrix& target,
                             const core::TargetClusteringHost& clustering,
                             const SweetKnn::Config& config, uint32_t offset)
    : config_(config),
      device_(std::make_unique<gpusim::Device>(config.device)),
      engine_(std::make_unique<core::TiKnnEngine>(device_.get(),
                                                  config.options)),
      planner_(config.planner),
      packed_base_(simd::PackedTargets::Pack(target.data(), target.rows(),
                                             target.cols())),
      dims_(target.cols()),
      base_rows_(target.rows()),
      offset_(offset),
      next_id_(offset + static_cast<uint32_t>(target.rows())) {
  engine_->RestoreTarget(target, clustering);
  delta_.dims = dims_;
  // No ANN build here: Restore (the only caller) either adopts the
  // persisted graph or rebuilds, after checking the snapshot.
}

ann::AnnIndex SweetKnnIndex::BuildAnn(const SweetKnn::Config& config,
                                      const HostMatrix& base,
                                      const core::TiKnnEngine& engine) {
  if (!config.enable_ann || base.rows() == 0) return ann::AnnIndex();
  ann::GraphBuildParams params = config.ann_params;
  // Inherit the engine's thread budget (serving resolves the workers
  // itself, since it pins shard engines to one thread).
  if (params.workers <= 0) params.workers = config.options.sim_threads;
  return ann::AnnIndex::Build(
      base, core::SimdDistFor(config.options.metric), params,
      core::AnnEntryPointsFromClustering(engine.ExportTargetClustering()));
}

void SweetKnnIndex::AdoptOverlay(std::vector<uint32_t> id_map,
                                 std::vector<uint32_t> delta_ids,
                                 std::vector<float> delta_points,
                                 const std::vector<uint32_t>& tombstones,
                                 uint32_t next_id) {
  id_map_ = std::move(id_map);
  SK_CHECK(id_map_.empty() || id_map_.size() == base_rows_);
  delta_.ids = std::move(delta_ids);
  delta_.points = std::move(delta_points);
  SK_CHECK_EQ(delta_.points.size(), delta_.ids.size() * dims_);
  delta_.tombstones.clear();
  delta_.tombstones.insert(tombstones.begin(), tombstones.end());
  next_id_ = std::max(next_id, next_id_);  // offset + base rows
  if (!id_map_.empty()) next_id_ = std::max(next_id_, id_map_.back() + 1);
  if (!delta_.ids.empty()) {
    next_id_ = std::max(next_id_, delta_.ids.back() + 1);
  }
}

KnnResult SweetKnnIndex::Query(const HostMatrix& queries, int k,
                               core::KnnRunStats* stats) {
  return Query(queries, k, ann::SearchMode::Exact(), stats);
}

KnnResult SweetKnnIndex::Query(const HostMatrix& queries, int k,
                               const ann::SearchMode& mode,
                               core::KnnRunStats* stats,
                               ann::AnnSearchStats* ann_stats) {
  SK_CHECK_EQ(queries.cols(), dims_);
  // Route the exact base scan by cost. Both routes return bit-identical
  // neighbor lists (the host path runs the same canonical float pipeline
  // the engine is fuzz-proven against), so only wall-clock and the stats
  // differ. Graph-answered modes take no route.
  const core::QueryRoute route =
      UsesAnn(mode) ? core::QueryRoute::kHost
                    : planner_.Choose(queries.rows(), base_rows_, dims_);
  core::KnnRunStats run_stats;
  core::ShardAnswer answer =
      Answer(queries, k, route, mode, &run_stats, ann_stats);
  if (answer.device_routed) planner_.ObserveDeviceRun(run_stats);
  if (stats != nullptr) *stats = std::move(run_stats);
  if (answer.pristine && offset_ != 0) {
    for (size_t q = 0; q < answer.result.num_queries(); ++q) {
      Neighbor* row = answer.result.mutable_row(q);
      for (int i = 0; i < answer.result.k(); ++i) {
        if (row[i].index != kInvalidNeighbor) row[i].index += offset_;
      }
    }
  }
  return std::move(answer.result);
}

std::vector<Neighbor> SweetKnnIndex::Query(const std::vector<float>& point,
                                           int k) {
  SK_CHECK_EQ(point.size(), dims_);
  HostMatrix one(1, dims_);
  std::memcpy(one.mutable_row(0), point.data(), dims_ * sizeof(float));
  const KnnResult result = Query(one, k);
  return std::vector<Neighbor>(result.row(0), result.row(0) + result.k());
}

core::ShardAnswer SweetKnnIndex::Answer(const HostMatrix& queries, int k,
                                        core::QueryRoute route,
                                        const ann::SearchMode& mode,
                                        core::KnnRunStats* stats,
                                        ann::AnnSearchStats* ann_stats) {
  SK_CHECK_EQ(queries.cols(), dims_);
  core::ShardAnswer answer;
  answer.offset = offset_;
  answer.pristine = pristine();
  answer.approx = UsesAnn(mode);
  answer.device_routed =
      !answer.approx && route == core::QueryRoute::kDevice;
  // Over-query the frozen base so tombstone masking can never leave a
  // row short of k live candidates (a pristine index has none).
  const int base_k = k + static_cast<int>(delta_.tombstones.size());
  core::KnnRunStats run_stats;
  KnnResult base;
  KnnResult delta_result;
  const SteadyClock::time_point start = SteadyClock::now();
  if (answer.approx) {
    const int ef = std::max(ann::EffectiveEf(mode, k), base_k);
    ann::AnnSearchStats searched;
    base = ann_.Search(queries, base_k, ef, HostWorkers(config_.options),
                       &searched);
    answer.ann_hops = searched.hops;
    answer.ann_candidates = searched.candidates_visited;
    if (ann_stats != nullptr) *ann_stats += searched;
  } else if (route == core::QueryRoute::kHost) {
    base = simd::PackedKnn(queries, packed_base_, base_k,
                           core::SimdDistFor(config_.options.metric),
                           HostWorkers(config_.options));
  } else {
    base = engine_->RunQueries(queries, base_k, &run_stats);
  }
  if (!answer.pristine && delta_.size() > 0) {
    // The delta scan contributes no simulated device time — it models
    // host-side work the GPU index never sees.
    delta_result =
        core::ScanDelta(delta_, queries, k, config_.options.metric);
  }
  answer.route_seconds = SecondsSince(start);

  if (answer.pristine) {
    answer.result = std::move(base);
  } else {
    // Local exact merge: the over-queried base (tombstones masked, row
    // indices -> stable ids) plus the delta side scan, giving this
    // index's exact live top-k under (distance, stable id).
    std::vector<core::MergeSource> sources;
    core::MergeSource base_src;
    base_src.result = &base;
    base_src.id_map = id_map_.empty() ? nullptr : id_map_.data();
    base_src.offset = offset_;
    base_src.tombstones =
        delta_.tombstones.empty() ? nullptr : &delta_.tombstones;
    sources.push_back(base_src);
    if (delta_.size() > 0) {
      core::MergeSource delta_src;
      delta_src.result = &delta_result;
      delta_src.id_map = delta_.ids.data();
      sources.push_back(delta_src);
    }
    answer.result = core::MergeMutableResults(sources, k);
  }

  if (answer.device_routed) {
    answer.sim_time_s = run_stats.sim_time_s;
    answer.distance_calcs = run_stats.distance_calcs;
    answer.total_pairs = run_stats.total_pairs;
    answer.filter_used = run_stats.filter_used;
    answer.placement_used = run_stats.placement_used;
    answer.threads_per_query = run_stats.threads_per_query;
    AccumulateStageTimes(run_stats.profile, &answer.level1_s,
                         &answer.level2_s, &answer.preprocess_s);
    answer.transfer_s = run_stats.profile.transfer_time_s;
  }
  if (stats != nullptr) *stats = std::move(run_stats);
  return answer;
}

const core::TargetClusteringHost& SweetKnnIndex::CachedClustering() {
  if (clustering_cache_ == nullptr) {
    clustering_cache_ = std::make_unique<core::TargetClusteringHost>(
        engine_->ExportTargetClustering());
  }
  return *clustering_cache_;
}

RangeResult SweetKnnIndex::RadiusSearch(const HostMatrix& queries,
                                        float radius,
                                        core::RangeScanStats* stats) {
  // An empty base has no scan to route.
  const core::QueryRoute route =
      base_rows_ > 0 ? planner_.Choose(queries.rows(), base_rows_, dims_)
                     : core::QueryRoute::kHost;
  core::RangeShardAnswer answer = RangeAnswer(queries, radius, route);
  if (stats != nullptr) *stats = answer.stats;
  return std::move(answer.result);
}

core::RangeShardAnswer SweetKnnIndex::RangeAnswer(const HostMatrix& queries,
                                                  float radius,
                                                  core::QueryRoute route) {
  SK_CHECK_EQ(queries.cols(), dims_);
  core::RangeShardAnswer answer;
  answer.device_routed = route == core::QueryRoute::kDevice;
  const simd::Dist dist_kind = core::SimdDistFor(config_.options.metric);
  const SteadyClock::time_point start = SteadyClock::now();
  RangeResult base;
  if (base_rows_ > 0) {
    base = answer.device_routed
               ? core::TiRangeScan(queries, packed_base_, CachedClustering(),
                                   radius, dist_kind, &answer.stats)
               : core::FullRangeScan(queries, packed_base_, radius, dist_kind,
                                     &answer.stats);
  } else {
    for (size_t q = 0; q < queries.rows(); ++q) base.AppendRow(nullptr, 0);
  }
  if (pristine() && offset_ == 0) {
    answer.result = std::move(base);  // base row index == stable id already
    answer.route_seconds = SecondsSince(start);
    return answer;
  }
  const RangeResult delta =
      core::RangeScanDelta(delta_, queries, radius, config_.options.metric);
  std::vector<Neighbor> row;
  for (size_t q = 0; q < queries.rows(); ++q) {
    row.clear();
    for (const Neighbor* nb = base.begin(q); nb != base.end(q); ++nb) {
      const uint32_t id = BaseId(nb->index);
      if (delta_.tombstones.count(id) != 0) continue;
      row.push_back(Neighbor{id, nb->distance});
    }
    for (const Neighbor* nb = delta.begin(q); nb != delta.end(q); ++nb) {
      row.push_back(Neighbor{delta_.ids[nb->index], nb->distance});
    }
    std::sort(row.begin(), row.end(), NeighborLess);
    answer.result.AppendRow(row);
  }
  answer.route_seconds = SecondsSince(start);
  return answer;
}

namespace {
/// Rows per chunk of the offline jobs (SelfJoin / KnnGraph): small
/// enough to bound peak memory, large enough to amortize the scans.
constexpr size_t kJobChunkRows = 64;
}  // namespace

std::vector<SelfJoinPair> SweetKnnIndex::SelfJoin(
    float radius, core::RangeScanStats* stats) {
  if (stats != nullptr) *stats = core::RangeScanStats{};
  std::vector<uint32_t> ids;
  HostMatrix points;
  ExportLive(&ids, &points);
  std::vector<SelfJoinPair> pairs;
  for (size_t begin = 0; begin < ids.size(); begin += kJobChunkRows) {
    const size_t end = std::min(ids.size(), begin + kJobChunkRows);
    HostMatrix chunk(end - begin, dims_);
    std::memcpy(chunk.mutable_data(), points.row(begin),
                (end - begin) * dims_ * sizeof(float));
    core::RangeScanStats chunk_stats;
    const RangeResult r = RadiusSearch(chunk, radius,
                                       stats != nullptr ? &chunk_stats
                                                        : nullptr);
    if (stats != nullptr) stats->Accumulate(chunk_stats);
    for (size_t i = 0; i < r.num_queries(); ++i) {
      const uint32_t a = ids[begin + i];
      for (const Neighbor* nb = r.begin(i); nb != r.end(i); ++nb) {
        // id > a emits each unordered pair once and drops the
        // self-match; rows are NeighborLess-sorted, so pairs of one `a`
        // come out in (distance, b) order.
        if (nb->index > a) pairs.push_back({a, nb->index, nb->distance});
      }
    }
  }
  return pairs;
}

SweetKnnIndex::KnnGraphResult SweetKnnIndex::KnnGraph(int k) {
  SK_CHECK_GT(k, 0);
  KnnGraphResult out;
  HostMatrix points;
  ExportLive(&out.ids, &points);
  out.neighbors = KnnResult(out.ids.size(), k);
  std::vector<Neighbor> row;
  for (size_t begin = 0; begin < out.ids.size(); begin += kJobChunkRows) {
    const size_t end = std::min(out.ids.size(), begin + kJobChunkRows);
    HostMatrix chunk(end - begin, dims_);
    std::memcpy(chunk.mutable_data(), points.row(begin),
                (end - begin) * dims_ * sizeof(float));
    const KnnResult r = Query(chunk, k + 1);
    for (size_t i = 0; i < end - begin; ++i) {
      row.clear();
      const uint32_t self = out.ids[begin + i];
      bool dropped_self = false;
      for (const Neighbor* nb = r.row(i); nb != r.row(i) + r.k(); ++nb) {
        if (nb->index == kInvalidNeighbor) break;
        if (!dropped_self && nb->index == self) {
          dropped_self = true;
          continue;
        }
        if (row.size() == static_cast<size_t>(k)) break;
        row.push_back(*nb);
      }
      out.neighbors.SetRow(begin + i, row);
    }
  }
  return out;
}

void SweetKnnIndex::ExportLive(std::vector<uint32_t>* ids,
                               HostMatrix* points) const {
  const HostMatrix base = engine_->ExportTarget();
  ids->clear();
  std::vector<const float*> rows;
  ids->reserve(size());
  rows.reserve(size());
  for (size_t i = 0; i < base_rows_; ++i) {
    const uint32_t id = BaseId(i);
    if (delta_.tombstones.count(id) != 0) continue;
    ids->push_back(id);
    rows.push_back(base.row(i));
  }
  // Delta ids all exceed every base id, so appending stays ascending. A
  // delta entry tombstoned mid-compaction is dead.
  for (size_t i = 0; i < delta_.size(); ++i) {
    if (delta_.tombstones.count(delta_.ids[i]) != 0) continue;
    ids->push_back(delta_.ids[i]);
    rows.push_back(delta_.point(i));
  }
  *points = HostMatrix(ids->size(), dims_);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(points->mutable_row(i), rows[i], dims_ * sizeof(float));
  }
}

uint32_t SweetKnnIndex::Insert(const std::vector<float>& point) {
  SK_CHECK_EQ(point.size(), dims_);
  const uint32_t id = next_id_;
  const Status inserted = Insert(id, point.data());
  SK_CHECK(inserted.ok()) << inserted.ToString();
  MaybeCompact();
  return id;
}

Status SweetKnnIndex::Insert(uint32_t id, const float* point) {
  if (!delta_.ids.empty() && id <= delta_.ids.back()) {
    return Status::InvalidArgument("id " + std::to_string(id) +
                                   " does not exceed the index's delta ids");
  }
  if (Owns(id)) {
    return Status::InvalidArgument("id " + std::to_string(id) +
                                   " already lives in this index");
  }
  delta_.Append(id, point);
  next_id_ = std::max(next_id_, id + 1);
  return Status::Ok();
}

bool SweetKnnIndex::Owns(uint32_t id) const {
  if (delta_.Find(id) != core::DeltaBuffer::kNotFound) return true;
  if (id_map_.empty()) return id >= offset_ && id - offset_ < base_rows_;
  return std::binary_search(id_map_.begin(), id_map_.end(), id);
}

bool SweetKnnIndex::Remove(uint32_t id) {
  if (!Owns(id) || delta_.tombstones.count(id) != 0) return false;
  const size_t pos = delta_.Find(id);
  if (pos != core::DeltaBuffer::kNotFound &&
      (!compaction_in_flight() || pos >= compact_watermark_)) {
    // Delta points were never clustered; erase in place.
    delta_.EraseAt(pos);
    return true;
  }
  // A base row, or a delta entry an in-flight compaction has already
  // captured (the rebuild contains it): mask it.
  delta_.tombstones.insert(id);
  MaybeCompact();
  return true;
}

std::vector<uint32_t> SweetKnnIndex::LiveIds() const {
  std::vector<uint32_t> live;
  live.reserve(size());
  for (size_t i = 0; i < base_rows_; ++i) {
    const uint32_t id = BaseId(i);
    if (delta_.tombstones.count(id) == 0) live.push_back(id);
  }
  // Every delta id exceeds every base id (ids are allocated monotonically
  // and the delta postdates the base), so this stays ascending.
  for (const uint32_t id : delta_.ids) {
    if (delta_.tombstones.count(id) == 0) live.push_back(id);
  }
  return live;
}

bool SweetKnnIndex::OverlayExceeds(double fraction) const {
  const double overlay =
      static_cast<double>(delta_.size() + delta_.tombstones.size());
  return fraction > 0.0 && overlay > fraction * static_cast<double>(base_rows_);
}

void SweetKnnIndex::MaybeCompact() {
  if (!compaction_in_flight() &&
      OverlayExceeds(config_.compact_delta_fraction)) {
    Compact();
  }
}

void SweetKnnIndex::Compact() {
  if (compaction_in_flight()) return;
  CompactionPlan plan;
  if (!CaptureCompaction(&plan)) return;
  RebuildCompaction(&plan);
  InstallCompaction(&plan);
}

bool SweetKnnIndex::CaptureCompaction(CompactionPlan* plan) {
  SK_CHECK(!compaction_in_flight());
  // Nothing to fold, or nothing survives: an empty base cannot be
  // clustered, so the overlay stays and queries keep masking.
  if (delta_.Pristine() || size() == 0) return false;
  plan->config = config_;
  plan->watermark = delta_.size();
  plan->captured_tombstones = delta_.tombstones;
  compact_watermark_ = plan->watermark;

  // The new base: base survivors, then live delta entries — ascending
  // stable-id order, because every delta id exceeds every base id.
  const HostMatrix base = engine_->ExportTarget();
  plan->points = HostMatrix(size(), dims_);
  plan->ids.clear();
  plan->ids.reserve(size());
  size_t out = 0;
  for (size_t i = 0; i < base_rows_; ++i) {
    const uint32_t id = BaseId(i);
    if (delta_.tombstones.count(id) != 0) continue;
    std::memcpy(plan->points.mutable_row(out++), base.row(i),
                dims_ * sizeof(float));
    plan->ids.push_back(id);
  }
  for (size_t j = 0; j < delta_.size(); ++j) {
    if (delta_.tombstones.count(delta_.ids[j]) != 0) continue;
    std::memcpy(plan->points.mutable_row(out++), delta_.point(j),
                dims_ * sizeof(float));
    plan->ids.push_back(delta_.ids[j]);
  }
  SK_CHECK_EQ(out, plan->points.rows());
  return true;
}

void SweetKnnIndex::RebuildCompaction(CompactionPlan* plan) {
  // A fresh device, not the live one: the adaptive scheme reads free
  // device memory, so rebuilding next to the old base could cluster
  // differently than a cold build.
  plan->device = std::make_unique<gpusim::Device>(plan->config.device);
  plan->engine = std::make_unique<core::TiKnnEngine>(plan->device.get(),
                                                     plan->config.options);
  plan->engine->PrepareTarget(plan->points);
  plan->packed = simd::PackedTargets::Pack(
      plan->points.data(), plan->points.rows(), plan->points.cols());
  plan->ann = BuildAnn(plan->config, plan->points, *plan->engine);
}

void SweetKnnIndex::InstallCompaction(CompactionPlan* plan) {
  SK_CHECK_EQ(compact_watermark_, plan->watermark);
  SK_CHECK(plan->engine != nullptr) << "install before rebuild";
  // Mutations since the capture carry over: the delta suffix verbatim
  // (removes past the watermark erase physically, so it holds no
  // tombstoned entries), and removes of captured rows as tombstones of
  // the new base.
  core::DeltaBuffer carried;
  carried.dims = dims_;
  for (size_t j = plan->watermark; j < delta_.size(); ++j) {
    carried.Append(delta_.ids[j], delta_.point(j));
  }
  for (const uint32_t id : delta_.tombstones) {
    if (plan->captured_tombstones.count(id) == 0) {
      carried.tombstones.insert(id);
    }
  }
  delta_ = std::move(carried);
  std::swap(device_, plan->device);
  std::swap(engine_, plan->engine);
  std::swap(packed_base_, plan->packed);
  std::swap(ann_, plan->ann);
  clustering_cache_.reset();  // the base (and its clustering) changed
  base_rows_ = plan->points.rows();
  // Ids 0..n-1 need no map (lets Save emit v1 again); any other set
  // keeps its ids, and the offset no longer applies.
  const bool identity =
      plan->ids.front() == 0 &&
      plan->ids.back() == static_cast<uint32_t>(plan->ids.size()) - 1;
  id_map_ = identity ? std::vector<uint32_t>{} : std::move(plan->ids);
  offset_ = 0;
  compact_watermark_ = kNoCompaction;
  ++compactions_;
}

}  // namespace sweetknn
