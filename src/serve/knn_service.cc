#include "serve/knn_service.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/device_points.h"
#include "core/shard_merge.h"

namespace sweetknn::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsBetween(SteadyClock::time_point from,
                      SteadyClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Stable ids of one snapshot's base rows, in row order.
uint32_t SnapshotBaseId(const store::IndexSnapshot& snap, size_t row) {
  return snap.id_map.empty()
             ? static_cast<uint32_t>(snap.shard_offset + row)
             : snap.id_map[row];
}

}  // namespace

auto KnnService::SchedOptions(const ServiceConfig& config)
    -> FairScheduler<RequestPtr>::Options {
  FairScheduler<RequestPtr>::Options opts;
  opts.max_queue_depth = config.max_queue_depth;
  opts.quantum = config.fair_quantum > 0
                     ? config.fair_quantum
                     : static_cast<size_t>(std::max(config.max_batch_size, 1));
  return opts;
}

KnnService::KnnService(const HostMatrix& target, const ServiceConfig& config)
    : config_(config),
      dims_(target.cols()),
      planner_(config.planner),
      queue_(SchedOptions(config)) {
  SK_CHECK(!target.empty()) << "KnnService needs a non-empty target set";
  SK_CHECK_GT(config_.max_batch_size, 0);
  InitMetrics();
  default_tenant_ =
      BuildTenant(kDefaultTenant, /*weight=*/1.0, target,
                  TenantSnapshotDir(kDefaultTenant));
  // config_ carries the default tenant's effective shard count from here
  // on: it is the one count readable without any index mutex (a tenant's
  // count never changes after its build; SwapIndex replaces shards,
  // never their number).
  config_.num_shards = default_tenant_->num_shards;
  const Status installed = manager_.Install(default_tenant_);
  SK_CHECK(installed.ok()) << installed.ToString();
  queue_.SetWeight(kDefaultTenant, 1.0);
  RefreshGlobalOverlayGauges();
  m_tenants_->Set(static_cast<double>(manager_.size()));
  StartThreads();
}

KnnService::KnnService(AdoptTag, std::vector<store::IndexSnapshot> snapshots,
                       const ServiceConfig& config)
    : config_(config),
      dims_(snapshots[0].target.cols()),
      planner_(config.planner),
      queue_(SchedOptions(config)) {
  SK_CHECK_GT(config_.max_batch_size, 0);
  config_.num_shards = static_cast<int>(snapshots.size());
  InitMetrics();
  auto tenant = std::make_shared<TenantIndex>();
  tenant->name = kDefaultTenant;
  tenant->dims = dims_;
  tenant->num_shards = static_cast<int>(snapshots.size());
  tenant->snapshot_dir = TenantSnapshotDir(kDefaultTenant);
  RegisterTenantMetrics(tenant.get());
  ShardSet set = BuildShardsFromSnapshots(std::move(snapshots));
  for (size_t s = 0; s < set.shards.size(); ++s) {
    tenant->shard_epochs.push_back(++epoch_counter_);
  }
  tenant->shards = std::move(set.shards);
  tenant->target_rows = set.live_rows;
  tenant->next_id = set.next_id;
  {
    std::lock_guard<std::mutex> lock(tenant->mutex);
    UpdateOverlayGaugesLocked(tenant.get());
  }
  default_tenant_ = tenant;
  const Status installed = manager_.Install(std::move(tenant));
  SK_CHECK(installed.ok()) << installed.ToString();
  queue_.SetWeight(kDefaultTenant, 1.0);
  RefreshGlobalOverlayGauges();
  m_tenants_->Set(static_cast<double>(manager_.size()));
  StartThreads();
}

Result<std::unique_ptr<KnnService>> KnnService::FromSnapshots(
    const std::string& dir, const ServiceConfig& config) {
  Result<std::vector<std::string>> listed = store::ListShardSnapshots(dir);
  if (!listed.ok()) return listed.status();
  const int num_shards = static_cast<int>(listed.value().size());
  Result<std::vector<store::IndexSnapshot>> loaded = LoadShardSet(
      dir, num_shards, config, /*dims=*/0, /*allow_overlay=*/true);
  if (!loaded.ok()) return loaded.status();
  return std::unique_ptr<KnnService>(
      new KnnService(AdoptTag{}, std::move(loaded).value(), config));
}

KnnService::~KnnService() { Shutdown(); }

void KnnService::StartThreads() {
  dispatcher_ = std::thread(&KnnService::DispatchLoop, this);
  job_thread_ = std::thread(&KnnService::JobLoop, this);
  if (config_.auto_compact) {
    compactor_ = std::thread(&KnnService::CompactorLoop, this);
  }
}

std::string KnnService::TenantSnapshotDir(const std::string& name) const {
  if (config_.snapshot_dir.empty()) return std::string();
  if (name == kDefaultTenant) return config_.snapshot_dir;
  return (std::filesystem::path(config_.snapshot_dir) / name).string();
}

Result<std::shared_ptr<TenantIndex>> KnnService::ResolveTenant(
    const std::string& name) const {
  std::shared_ptr<TenantIndex> tenant = manager_.Get(name);
  if (!tenant) return Status::NotFound("no index named '" + name + "'");
  return tenant;
}

std::shared_ptr<TenantIndex> KnnService::BuildTenant(
    const std::string& name, double weight, const HostMatrix& target,
    const std::string& snapshot_dir) {
  auto tenant = std::make_shared<TenantIndex>();
  tenant->name = name;
  tenant->dims = target.cols();
  tenant->weight = weight;
  tenant->snapshot_dir = snapshot_dir;
  tenant->target_rows = target.rows();
  const int num_shards = std::clamp(
      config_.num_shards, 1, static_cast<int>(target.rows()));
  tenant->num_shards = num_shards;
  RegisterTenantMetrics(tenant.get());

  // Each shard simulates its own device, so the shard fan-out below is the
  // host-parallel axis (ShardIndexConfig pins each shard engine to one
  // execution thread).
  const SweetKnn::Config shard_config =
      ShardIndexConfig(config_.options, config_.device, config_.enable_ann,
                       config_.ann_params);

  const size_t dims = tenant->dims;
  const size_t base = target.rows() / static_cast<size_t>(num_shards);
  const size_t rem = target.rows() % static_cast<size_t>(num_shards);
  std::vector<HostMatrix> slices;
  std::vector<uint32_t> offsets;
  size_t offset = 0;
  for (int s = 0; s < num_shards; ++s) {
    const size_t rows = base + (static_cast<size_t>(s) < rem ? 1 : 0);
    HostMatrix slice(rows, dims);
    std::memcpy(slice.mutable_data(), target.row(offset),
                rows * dims * sizeof(float));
    slices.push_back(std::move(slice));
    offsets.push_back(static_cast<uint32_t>(offset));
    tenant->shard_epochs.push_back(++epoch_counter_);
    offset += rows;
  }
  // The constructor's rows carry stable ids 0..rows-1; Insert allocates
  // upward from here.
  tenant->next_id = static_cast<uint32_t>(target.rows());

  // Warm start: restore the prepared indexes from the tenant's snapshot
  // directory if one is configured and its contents match this tenant
  // exactly; anything less falls back to the cold build below
  // (correctness never depends on the snapshots). Overlay (v2) sets are
  // rejected here — the byte-compare below only makes sense for pristine
  // indexes; mutated sets are adopted with FromSnapshots instead.
  std::vector<store::IndexSnapshot> snapshots;
  bool warm = false;
  if (!snapshot_dir.empty()) {
    Result<std::vector<store::IndexSnapshot>> loaded =
        LoadShardSet(snapshot_dir, num_shards, config_, dims,
                     /*allow_overlay=*/false);
    if (loaded.ok()) {
      snapshots = std::move(loaded).value();
      warm = true;
      for (int s = 0; s < num_shards; ++s) {
        const auto idx = static_cast<size_t>(s);
        const store::IndexSnapshot& snap = snapshots[idx];
        if (snap.shard_offset != offsets[idx] ||
            snap.target.rows() != slices[idx].rows() ||
            std::memcmp(snap.target.data(), slices[idx].data(),
                        slices[idx].size() * sizeof(float)) != 0) {
          SK_LOG(Warning) << "KnnService: snapshot shard " << s
                          << " of index '" << name
                          << "' does not hold this target's bytes; "
                          << "cold-building all shards";
          warm = false;
          break;
        }
      }
    } else {
      SK_LOG(Warning) << "KnnService: warm start of index '" << name
                      << "' from '" << snapshot_dir << "' failed ("
                      << loaded.status().ToString()
                      << "); cold-building all shards";
    }
  }

  // Build the per-shard indexes in parallel; each build or restore
  // touches only its own device. Warm or cold, the base bytes are the
  // slice bytes (warm starts byte-compare the snapshot against the slice
  // above), and a restore adopts any persisted ANN graph instead of
  // re-running NN-descent.
  tenant->shards.resize(static_cast<size_t>(num_shards));
  common::ThreadPool::Global()->ForkJoin(num_shards, [&](int s) {
    const auto idx = static_cast<size_t>(s);
    if (warm) {
      Result<std::unique_ptr<SweetKnnIndex>> restored =
          SweetKnnIndex::Restore(std::move(snapshots[idx]), shard_config,
                                 store::ShardSnapshotPath(snapshot_dir, s,
                                                          num_shards));
      SK_CHECK(restored.ok()) << restored.status().ToString();
      tenant->shards[idx] = std::move(restored).value();
    } else {
      tenant->shards[idx] = std::make_unique<SweetKnnIndex>(
          slices[idx], shard_config, offsets[idx]);
    }
  });
  if (warm) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.warm_started_shards += static_cast<uint64_t>(num_shards);
  }

  {
    std::lock_guard<std::mutex> lock(tenant->mutex);
    UpdateOverlayGaugesLocked(tenant.get());
  }
  return tenant;
}

// ---------------------------------------------------------------------------
// Index management
// ---------------------------------------------------------------------------

Status KnnService::CreateIndex(const std::string& name,
                               const HostMatrix& target, double weight) {
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::Unavailable(
        "KnnService is shut down; CreateIndex rejected");
  }
  if (!IndexManager::ValidName(name)) {
    return Status::InvalidArgument(
        "'" + name +
        "' is not a valid index name (1-64 chars of [A-Za-z0-9_.-], "
        "not starting with a dot)");
  }
  if (target.empty()) {
    return Status::InvalidArgument("index '" + name +
                                   "' needs a non-empty target set");
  }
  // Pre-check so a duplicate never pays for the build; Install
  // re-validates, so a racing CreateIndex loses the build, never
  // consistency.
  if (manager_.Get(name)) {
    return Status::InvalidArgument("an index named '" + name +
                                   "' already exists");
  }
  std::shared_ptr<TenantIndex> tenant =
      BuildTenant(name, weight, target, TenantSnapshotDir(name));
  SK_RETURN_IF_ERROR(manager_.Install(tenant));
  queue_.SetWeight(name, weight);
  RefreshGlobalOverlayGauges();
  m_tenants_->Set(static_cast<double>(manager_.size()));
  return Status::Ok();
}

Status KnnService::DropIndex(const std::string& name) {
  if (name == kDefaultTenant) {
    return Status::InvalidArgument("the default index cannot be dropped");
  }
  Result<std::shared_ptr<TenantIndex>> dropped = manager_.Drop(name);
  if (!dropped.ok()) return dropped.status();
  dropped.value()->dropped.store(true, std::memory_order_release);
  // Empty sub-queues forget their bookkeeping now; queued requests keep
  // the sub-queue alive until the dispatcher drains and fails them.
  queue_.Forget(name);
  // A recreated same-name index must never serve answers cached against
  // the dropped one.
  BumpCacheEpoch();
  ClearCache();
  RefreshGlobalOverlayGauges();
  m_tenants_->Set(static_cast<double>(manager_.size()));
  return Status::Ok();
}

std::vector<std::string> KnnService::ListIndexes() const {
  return manager_.List();
}

Status KnnService::SetIndexWeight(const std::string& name, double weight) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(name);
  if (!resolved.ok()) return resolved.status();
  {
    std::lock_guard<std::mutex> lock(resolved.value()->mutex);
    resolved.value()->weight = weight;
  }
  queue_.SetWeight(name, weight);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Metrics registration
// ---------------------------------------------------------------------------

void KnnService::InitMetrics() {
  const std::vector<double> latency = common::LatencyBucketsSeconds();
  m_requests_ = metrics_.GetCounter(
      "sweetknn_requests_total", "Search/JoinBatch calls admitted");
  m_queries_ = metrics_.GetCounter(
      "sweetknn_queries_total",
      "Query rows answered, including cache hits");
  m_rejected_ = metrics_.GetCounter(
      "sweetknn_rejected_requests_total",
      "Requests rejected because the service was shutting down");
  m_shed_requests_ = metrics_.GetCounter(
      "sweetknn_shed_requests_total",
      "Requests bounced by the max_queue_depth admission bound");
  m_deadline_exceeded_ = metrics_.GetCounter(
      "sweetknn_deadline_exceeded_total",
      "Admitted requests whose deadline expired while queued");
  m_batches_ = metrics_.GetCounter(
      "sweetknn_batches_total", "Micro-batches dispatched");
  m_engine_groups_ = metrics_.GetCounter(
      "sweetknn_engine_groups_total",
      "Same-k groups run through the shard engines");
  m_batched_queries_ = metrics_.GetCounter(
      "sweetknn_batched_queries_total",
      "Query rows that went through the engines");
  m_cache_lookups_ = metrics_.GetCounter(
      "sweetknn_cache_lookups_total", "Result-cache lookups");
  m_cache_hits_ = metrics_.GetCounter(
      "sweetknn_cache_hits_total", "Result-cache hits");
  m_cache_stale_drops_ = metrics_.GetCounter(
      "sweetknn_cache_stale_drops_total",
      "Cache inserts dropped because a swap, mutation, or compaction "
      "completed first");
  m_index_swaps_ = metrics_.GetCounter(
      "sweetknn_index_swaps_total", "Completed SwapIndex calls");
  m_distance_calcs_ = metrics_.GetCounter(
      "sweetknn_distance_calcs_total",
      "Level-2 distance computations summed over shards");
  m_sim_level1_ = metrics_.GetCounter(
      "sweetknn_sim_level1_seconds_total",
      "Simulated seconds in level-1 (landmark filter) kernels");
  m_sim_level2_ = metrics_.GetCounter(
      "sweetknn_sim_level2_seconds_total",
      "Simulated seconds in level-2 (point filter) kernels");
  m_sim_transfer_ = metrics_.GetCounter(
      "sweetknn_sim_transfer_seconds_total",
      "Simulated seconds in PCIe transfers");
  m_sim_preprocess_ = metrics_.GetCounter(
      "sweetknn_sim_preprocess_seconds_total",
      "Simulated seconds in preprocessing kernels (upload layout, "
      "clustering, member scatter)");
  m_sim_total_ = metrics_.GetCounter(
      "sweetknn_sim_device_seconds_total",
      "Simulated device seconds summed over every shard");
  m_sim_critical_ = metrics_.GetCounter(
      "sweetknn_sim_critical_seconds_total",
      "Per-group max shard time, summed (the latency cost)");
  m_filter_full_ = metrics_.GetCounter(
      "sweetknn_adaptive_filter_full_total",
      "Shard runs that used the full level-2 filter");
  m_filter_partial_ = metrics_.GetCounter(
      "sweetknn_adaptive_filter_partial_total",
      "Shard runs that used the partial level-2 filter");
  m_placement_global_ = metrics_.GetCounter(
      "sweetknn_adaptive_placement_global_total",
      "Shard runs with the kNearests array in global memory");
  m_placement_shared_ = metrics_.GetCounter(
      "sweetknn_adaptive_placement_shared_total",
      "Shard runs with the kNearests array in shared memory");
  m_placement_registers_ = metrics_.GetCounter(
      "sweetknn_adaptive_placement_registers_total",
      "Shard runs with the kNearests array in registers");
  m_inserts_ = metrics_.GetCounter(
      "sweetknn_inserts_total", "Points admitted through Insert/InsertBatch");
  m_removes_ = metrics_.GetCounter(
      "sweetknn_removes_total", "Successful Remove calls");
  m_remove_misses_ = metrics_.GetCounter(
      "sweetknn_remove_misses_total",
      "Remove calls naming an unknown or already-removed id");
  m_compactions_ = metrics_.GetCounter(
      "sweetknn_compactions_total",
      "Shard compactions installed (background or explicit)");
  m_compaction_aborts_ = metrics_.GetCounter(
      "sweetknn_compaction_aborts_total",
      "Compactions abandoned because a swap superseded the shard");
  m_compacted_rows_ = metrics_.GetCounter(
      "sweetknn_compacted_rows_total",
      "Rows clustered into fresh bases by compactions");
  m_planner_device_routes_ = metrics_.GetCounter(
      "sweetknn_planner_device_routes_total",
      "Shard base scans routed to the simulated-GPU TI engine");
  m_planner_host_routes_ = metrics_.GetCounter(
      "sweetknn_planner_host_routes_total",
      "Shard base scans routed to the vectorized host kernels");
  m_route_device_seconds_ = metrics_.GetHistogram(
      "sweetknn_planner_device_route_seconds",
      "Host wall-clock of one device-routed shard base scan", latency);
  m_route_host_seconds_ = metrics_.GetHistogram(
      "sweetknn_planner_host_route_seconds",
      "Host wall-clock of one host-routed shard base scan", latency);
  m_compaction_seconds_ = metrics_.GetHistogram(
      "sweetknn_compaction_seconds",
      "Host wall-clock of one shard compaction (capture to install)",
      latency);
  m_threads_per_query_ = metrics_.GetHistogram(
      "sweetknn_adaptive_threads_per_query",
      "Threads cooperating on one query, per shard run",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048});
  m_queue_wait_ = metrics_.GetHistogram(
      "sweetknn_queue_wait_seconds",
      "Admission to dequeue by the dispatcher", latency);
  m_batch_assembly_ = metrics_.GetHistogram(
      "sweetknn_batch_assembly_seconds",
      "First dequeue to micro-batch sealed", latency);
  m_shard_fanout_ = metrics_.GetHistogram(
      "sweetknn_shard_fanout_seconds",
      "Host wall-clock of the shard fan-out critical path", latency);
  m_merge_ = metrics_.GetHistogram(
      "sweetknn_merge_seconds", "Host wall-clock of the shard merge",
      latency);
  m_request_latency_ = metrics_.GetHistogram(
      "sweetknn_request_latency_seconds",
      "Admission to promise fulfillment, end to end", latency);
  m_batch_rows_ = metrics_.GetHistogram(
      "sweetknn_batch_size_rows", "Query rows per dispatched micro-batch",
      {1, 2, 4, 8, 16, 32, 64, 128, 256});
  m_range_groups_ = metrics_.GetCounter(
      "sweetknn_range_groups_total",
      "Same-radius range groups run through the shards");
  m_range_queries_ = metrics_.GetCounter(
      "sweetknn_range_queries_total",
      "Query rows answered by range groups");
  m_range_matches_ = metrics_.GetCounter(
      "sweetknn_range_matches_total",
      "In-ball matches returned by range groups");
  m_jobs_submitted_ = metrics_.GetCounter(
      "sweetknn_jobs_submitted_total", "Offline jobs admitted");
  m_jobs_completed_ = metrics_.GetCounter(
      "sweetknn_jobs_completed_total", "Offline jobs finished kDone");
  m_jobs_cancelled_ = metrics_.GetCounter(
      "sweetknn_jobs_cancelled_total", "Offline jobs finished kCancelled");
  m_jobs_failed_ = metrics_.GetCounter(
      "sweetknn_jobs_failed_total", "Offline jobs finished kFailed");
  m_job_seconds_ = metrics_.GetHistogram(
      "sweetknn_job_seconds",
      "Submit to terminal state of one offline job", latency);
  m_active_jobs_ = metrics_.GetGauge(
      "sweetknn_active_jobs", "Offline jobs pending or running");
  m_approx_groups_ = metrics_.GetCounter(
      "sweetknn_approx_groups_total",
      "Engine groups answered through the ANN graph tier");
  m_approx_queries_ = metrics_.GetCounter(
      "sweetknn_approx_queries_total",
      "Query rows answered through the ANN graph tier");
  m_ann_hops_ = metrics_.GetCounter(
      "sweetknn_ann_hops_total",
      "Graph nodes expanded by ANN searches, summed over shards");
  m_ann_candidates_ = metrics_.GetCounter(
      "sweetknn_ann_candidates_total",
      "Distance evaluations made by ANN searches, summed over shards");
  m_recall_probes_ = metrics_.GetCounter(
      "sweetknn_ann_recall_probes_total",
      "Approx groups re-answered exactly to measure recall");
  m_recall_estimate_ = metrics_.GetHistogram(
      "sweetknn_ann_recall_estimate",
      "Measured recall@k of probed approx groups against the exact answer",
      {0.5, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999, 1.0});
  m_queue_depth_ = metrics_.GetGauge(
      "sweetknn_queue_depth", "Admission-queue depth");
  m_peak_queue_depth_ = metrics_.GetGauge(
      "sweetknn_peak_queue_depth", "Admission-queue high-water mark");
  m_tenants_ = metrics_.GetGauge(
      "sweetknn_tenants", "Live named indexes (including the default)");
  m_index_generation_ = metrics_.GetGauge(
      "sweetknn_index_generation", "Live index generation (SwapIndex count)");
  m_delta_points_ = metrics_.GetGauge(
      "sweetknn_delta_points",
      "Current delta-buffered points, summed over shards");
  m_tombstones_ = metrics_.GetGauge(
      "sweetknn_tombstones", "Current tombstoned ids, summed over shards");
  m_live_rows_ = metrics_.GetGauge(
      "sweetknn_live_rows",
      "Live target rows: base minus tombstones plus delta");
}

void KnnService::RegisterTenantMetrics(TenantIndex* tenant) {
  const std::string labels = common::TenantLabel(tenant->name);
  tenant->m_requests = metrics_.GetCounter(
      "sweetknn_tenant_requests_total", labels,
      "Search/JoinBatch calls admitted, per tenant");
  tenant->m_queries = metrics_.GetCounter(
      "sweetknn_tenant_queries_total", labels,
      "Query rows answered, per tenant");
  tenant->m_shed = metrics_.GetCounter(
      "sweetknn_tenant_shed_requests_total", labels,
      "Requests shed by the admission bound, per tenant");
  tenant->m_deadline_exceeded = metrics_.GetCounter(
      "sweetknn_tenant_deadline_exceeded_total", labels,
      "Requests whose deadline expired while queued, per tenant");
  tenant->m_latency = metrics_.GetHistogram(
      "sweetknn_tenant_request_latency_seconds", labels,
      "Admission to promise fulfillment, per tenant",
      common::LatencyBucketsSeconds());
  tenant->m_live_rows = metrics_.GetGauge(
      "sweetknn_tenant_live_rows", labels,
      "Live target rows of this tenant");
}

void KnnService::Shutdown() {
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(compact_mutex_);
    compactor_stop_ = true;
  }
  compact_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
  // The job thread goes down before the queue closes: a running job
  // sees stopping_ at its next chunk boundary and fails Unavailable,
  // and its in-flight chunk — admitted before the close — is still
  // drained by the dispatcher, so the join below cannot deadlock.
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_stop_ = true;
  }
  jobs_cv_.notify_all();
  if (job_thread_.joinable()) job_thread_.join();
  queue_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

// ---------------------------------------------------------------------------
// Admission and queries
// ---------------------------------------------------------------------------

Result<std::future<Result<KnnResult>>> KnnService::Submit(
    RequestPtr request) {
  std::future<Result<KnnResult>> future = request->promise.get_future();
  SK_RETURN_IF_ERROR(AdmitRequest(std::move(request)));
  return future;
}

Result<std::future<Result<RangeResult>>> KnnService::SubmitRange(
    RequestPtr request) {
  std::future<Result<RangeResult>> future =
      request->range_promise.get_future();
  SK_RETURN_IF_ERROR(AdmitRequest(std::move(request)));
  return future;
}

Status KnnService::AdmitRequest(RequestPtr request) {
  const size_t rows = request->num_rows;
  // Pinned before the move: the dispatcher may consume the request (and
  // a concurrent DropIndex release the manager's reference) before the
  // accounting below runs.
  const std::shared_ptr<TenantIndex> tenant = request->tenant;
  request->admit_time = SteadyClock::now();
  if (request->timeout.count() > 0) {
    request->has_deadline = true;
    request->deadline = request->admit_time + request->timeout;
  }
  // Admission refuses once Shutdown() has closed the scheduler — including
  // when the close lands between our caller's checks and here. Rejection
  // is a clean Unavailable, never an abort: a serving process must
  // survive clients racing its shutdown. A shed is the same status with
  // its own counters: the client backs off either way.
  switch (queue_.Submit(tenant->name, std::move(request), rows)) {
    case FairScheduler<RequestPtr>::Admit::kClosed: {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.rejected_requests;
      }
      m_rejected_->Increment();
      return Status::Unavailable(
          "KnnService is shut down; request rejected");
    }
    case FairScheduler<RequestPtr>::Admit::kShed: {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.shed_requests;
      }
      m_shed_requests_->Increment();
      tenant->m_shed->Increment();
      return Status::Unavailable(
          "admission queue is full (max_queue_depth=" +
          std::to_string(config_.max_queue_depth) + "); request shed");
    }
    case FairScheduler<RequestPtr>::Admit::kAdmitted:
      break;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
    stats_.queries += rows;
  }
  m_requests_->Increment();
  m_queries_->Increment(static_cast<double>(rows));
  tenant->m_requests->Increment();
  tenant->m_queries->Increment(static_cast<double>(rows));
  return Status::Ok();
}

Result<std::vector<Neighbor>> KnnService::Search(
    const std::vector<float>& query_point, int k) {
  return Search(CallOptions{}, query_point, k, ann::SearchMode::Exact());
}

Result<std::vector<Neighbor>> KnnService::Search(
    const std::vector<float>& query_point, int k,
    const ann::SearchMode& mode) {
  return Search(CallOptions{}, query_point, k, mode);
}

Result<std::vector<Neighbor>> KnnService::Search(
    const CallOptions& opts, const std::vector<float>& query_point, int k) {
  return Search(opts, query_point, k, ann::SearchMode::Exact());
}

Result<std::vector<Neighbor>> KnnService::Search(
    const CallOptions& opts, const std::vector<float>& query_point, int k,
    const ann::SearchMode& mode) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(opts.tenant);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantIndex> tenant = std::move(resolved).value();
  SK_CHECK_EQ(query_point.size(), tenant->dims);
  SK_CHECK_GT(k, 0);
  // Normalized up front: approx(recall 1.0) is exact traffic, and must
  // batch and cache exactly like it.
  const ann::SearchMode normalized = ann::Normalize(mode);
  const SteadyClock::time_point start = SteadyClock::now();
  // Captured before the answer is computed: if a swap, mutation, or
  // compaction completes while this request is in flight, the cache
  // insert below must be dropped.
  const uint64_t epoch = cache_epoch_.load(std::memory_order_acquire);
  std::string key;
  if (config_.cache_capacity > 0) {
    key = CacheKey(tenant->name, query_point.data(), tenant->dims, k,
                   normalized);
    std::vector<Neighbor> cached;
    if (CacheLookup(key, &cached)) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.requests;
        ++stats_.queries;
      }
      m_requests_->Increment();
      m_queries_->Increment();
      tenant->m_requests->Increment();
      tenant->m_queries->Increment();
      const double seconds = SecondsBetween(start, SteadyClock::now());
      m_request_latency_->Observe(seconds);
      tenant->m_latency->Observe(seconds);
      return cached;
    }
  }

  auto request = std::make_unique<Request>();
  request->tenant = tenant;
  request->rows = query_point;
  request->num_rows = 1;
  request->k = k;
  request->mode = normalized;
  request->timeout = opts.timeout;
  Result<std::future<Result<KnnResult>>> submitted =
      Submit(std::move(request));
  if (!submitted.ok()) return submitted.status();
  Result<KnnResult> result = submitted.value().get();
  if (!result.ok()) return result.status();
  const KnnResult& answer = result.value();
  std::vector<Neighbor> neighbors(answer.row(0), answer.row(0) + answer.k());
  if (config_.cache_capacity > 0) {
    if (pre_cache_insert_hook_) pre_cache_insert_hook_();
    CacheInsert(key, neighbors, epoch);
  }
  return neighbors;
}

Result<KnnResult> KnnService::JoinBatch(const HostMatrix& queries, int k) {
  return JoinBatch(CallOptions{}, queries, k, ann::SearchMode::Exact());
}

Result<KnnResult> KnnService::JoinBatch(const HostMatrix& queries, int k,
                                        const ann::SearchMode& mode) {
  return JoinBatch(CallOptions{}, queries, k, mode);
}

Result<KnnResult> KnnService::JoinBatch(const CallOptions& opts,
                                        const HostMatrix& queries, int k) {
  return JoinBatch(opts, queries, k, ann::SearchMode::Exact());
}

Result<KnnResult> KnnService::JoinBatch(const CallOptions& opts,
                                        const HostMatrix& queries, int k,
                                        const ann::SearchMode& mode) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(opts.tenant);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantIndex> tenant = std::move(resolved).value();
  SK_CHECK(!queries.empty());
  SK_CHECK_EQ(queries.cols(), tenant->dims);
  SK_CHECK_GT(k, 0);
  auto request = std::make_unique<Request>();
  request->tenant = tenant;
  request->rows = queries.storage();
  request->num_rows = queries.rows();
  request->k = k;
  request->mode = ann::Normalize(mode);
  request->timeout = opts.timeout;
  Result<std::future<Result<KnnResult>>> submitted =
      Submit(std::move(request));
  if (!submitted.ok()) return submitted.status();
  return submitted.value().get();
}

// ---------------------------------------------------------------------------
// Range queries and offline jobs (docs/modalities.md)
// ---------------------------------------------------------------------------

Result<RangeResult> KnnService::RadiusSearch(const HostMatrix& queries,
                                             float radius) {
  return RadiusSearch(CallOptions{}, queries, radius);
}

Result<RangeResult> KnnService::RadiusSearch(const CallOptions& opts,
                                             const HostMatrix& queries,
                                             float radius) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(opts.tenant);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantIndex> tenant = std::move(resolved).value();
  SK_CHECK(!queries.empty());
  SK_CHECK_EQ(queries.cols(), tenant->dims);
  SK_CHECK_GE(radius, 0.0f);
  auto request = std::make_unique<Request>();
  request->tenant = tenant;
  request->rows = queries.storage();
  request->num_rows = queries.rows();
  request->is_range = true;
  request->radius = radius;
  request->mode = ann::SearchMode::Exact();
  request->timeout = opts.timeout;
  Result<std::future<Result<RangeResult>>> submitted =
      SubmitRange(std::move(request));
  if (!submitted.ok()) return submitted.status();
  return submitted.value().get();
}

Result<uint64_t> KnnService::SubmitJob(const JobSpec& spec) {
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::Unavailable("KnnService is shut down; job rejected");
  }
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(spec.tenant);
  if (!resolved.ok()) return resolved.status();
  switch (spec.kind) {
    case JobKind::kRadiusSearch:
      if (spec.queries.empty()) {
        return Status::InvalidArgument(
            "radius-search jobs need query rows");
      }
      if (spec.queries.cols() != resolved.value()->dims) {
        return Status::InvalidArgument(
            "job queries have " + std::to_string(spec.queries.cols()) +
            " dims, index '" + spec.tenant + "' serves " +
            std::to_string(resolved.value()->dims));
      }
      if (!(spec.radius >= 0.0f)) {
        return Status::InvalidArgument("job radius must be >= 0");
      }
      break;
    case JobKind::kSelfJoin:
      if (!(spec.radius >= 0.0f)) {
        return Status::InvalidArgument("job radius must be >= 0");
      }
      break;
    case JobKind::kKnnGraph:
      if (spec.k <= 0) {
        return Status::InvalidArgument("kNN-graph jobs need k > 0");
      }
      break;
  }
  auto job = std::make_unique<Job>();
  job->spec = spec;
  if (job->spec.chunk_rows == 0) job->spec.chunk_rows = 1;
  job->tenant = std::move(resolved).value();
  job->submit_time = SteadyClock::now();
  uint64_t id = 0;
  size_t active = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (jobs_stop_) {
      return Status::Unavailable("KnnService is shut down; job rejected");
    }
    id = next_job_id_++;
    job->id = id;
    jobs_.emplace(id, std::move(job));
    pending_jobs_.push_back(id);
    for (const auto& [jid, j] : jobs_) {
      (void)jid;
      if (j->state == JobState::kPending || j->state == JobState::kRunning) {
        ++active;
      }
    }
  }
  jobs_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.jobs_submitted;
  }
  m_jobs_submitted_->Increment();
  m_active_jobs_->Set(static_cast<double>(active));
  return id;
}

Result<JobProgress> KnnService::PollJob(uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(job_id));
  }
  JobProgress progress;
  progress.state = it->second->state;
  progress.total_rows = it->second->total_rows;
  progress.done_rows = it->second->done_rows;
  progress.error = it->second->error;
  return progress;
}

Status KnnService::CancelJob(uint64_t job_id) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(job_id));
  }
  // Terminal jobs keep their outcome; the flag only steers pending and
  // running jobs (honored at the next chunk boundary).
  it->second->cancel.store(true, std::memory_order_release);
  return Status::Ok();
}

Result<JobOutput> KnnService::TakeJobResult(uint64_t job_id) {
  std::unique_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return Status::NotFound("no job " + std::to_string(job_id));
    }
    if (it->second->state == JobState::kPending ||
        it->second->state == JobState::kRunning) {
      return Status::InvalidArgument(
          "job " + std::to_string(job_id) + " is still running");
    }
    // Any terminal job is reaped here — cancelled and failed jobs
    // surrender their slot too, reporting why instead of an output.
    job = std::move(it->second);
    jobs_.erase(it);
  }
  switch (job->state) {
    case JobState::kDone:
      return std::move(job->output);
    case JobState::kCancelled:
      return Status::Unavailable("job " + std::to_string(job_id) +
                                 " was cancelled");
    default:
      return job->fail_status;
  }
}

Result<JobOutput> KnnService::WaitAndTake(uint64_t job_id) {
  std::unique_ptr<Job> job;
  {
    std::unique_lock<std::mutex> lock(jobs_mutex_);
    jobs_cv_.wait(lock, [&] {
      auto it = jobs_.find(job_id);
      return it == jobs_.end() || (it->second->state != JobState::kPending &&
                                   it->second->state != JobState::kRunning);
    });
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return Status::NotFound("job " + std::to_string(job_id) +
                              " was taken concurrently");
    }
    job = std::move(it->second);
    jobs_.erase(it);
  }
  switch (job->state) {
    case JobState::kDone:
      return std::move(job->output);
    case JobState::kCancelled:
      return Status::Unavailable("job " + std::to_string(job_id) +
                                 " was cancelled");
    case JobState::kFailed:
      return job->fail_status;
    default:
      return Status::Internal("job " + std::to_string(job_id) +
                              " left the wait in a non-terminal state");
  }
}

Result<std::vector<SelfJoinPair>> KnnService::SelfJoin(float radius) {
  return SelfJoin(CallOptions{}, radius);
}

Result<std::vector<SelfJoinPair>> KnnService::SelfJoin(
    const CallOptions& opts, float radius) {
  JobSpec spec;
  spec.kind = JobKind::kSelfJoin;
  spec.radius = radius;
  spec.tenant = opts.tenant;
  Result<uint64_t> id = SubmitJob(spec);
  if (!id.ok()) return id.status();
  Result<JobOutput> out = WaitAndTake(id.value());
  if (!out.ok()) return out.status();
  return std::move(out.value().pairs);
}

Result<JobOutput> KnnService::KnnGraph(int k) {
  return KnnGraph(CallOptions{}, k);
}

Result<JobOutput> KnnService::KnnGraph(const CallOptions& opts, int k) {
  JobSpec spec;
  spec.kind = JobKind::kKnnGraph;
  spec.k = k;
  spec.tenant = opts.tenant;
  Result<uint64_t> id = SubmitJob(spec);
  if (!id.ok()) return id.status();
  return WaitAndTake(id.value());
}

void KnnService::SnapshotLive(TenantIndex* tenant,
                              std::vector<uint32_t>* ids,
                              HostMatrix* points) const {
  std::vector<std::vector<uint32_t>> shard_ids;
  std::vector<HostMatrix> shard_points;
  {
    std::lock_guard<std::mutex> lock(tenant->mutex);
    shard_ids.resize(tenant->shards.size());
    shard_points.resize(tenant->shards.size());
    for (size_t s = 0; s < tenant->shards.size(); ++s) {
      tenant->shards[s]->ExportLive(&shard_ids[s], &shard_points[s]);
    }
  }
  // Shards interleave in id space (inserts route by id % S), so the
  // global ascending order is a cross-shard sort, done off the lock.
  size_t total = 0;
  for (const std::vector<uint32_t>& v : shard_ids) total += v.size();
  std::vector<std::pair<uint32_t, std::pair<size_t, size_t>>> order;
  order.reserve(total);
  for (size_t s = 0; s < shard_ids.size(); ++s) {
    for (size_t r = 0; r < shard_ids[s].size(); ++r) {
      order.emplace_back(shard_ids[s][r], std::make_pair(s, r));
    }
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const size_t dims = tenant->dims;
  ids->clear();
  ids->reserve(total);
  *points = HostMatrix(total, dims);
  for (size_t r = 0; r < order.size(); ++r) {
    ids->push_back(order[r].first);
    std::memcpy(points->mutable_row(r),
                shard_points[order[r].second.first].row(
                    order[r].second.second),
                dims * sizeof(float));
  }
}

Result<RangeResult> KnnService::RangeChunk(
    const std::shared_ptr<TenantIndex>& tenant, const HostMatrix& queries,
    float radius) {
  auto request = std::make_unique<Request>();
  request->tenant = tenant;
  request->rows = queries.storage();
  request->num_rows = queries.rows();
  request->is_range = true;
  request->radius = radius;
  request->mode = ann::SearchMode::Exact();
  Result<std::future<Result<RangeResult>>> submitted =
      SubmitRange(std::move(request));
  if (!submitted.ok()) return submitted.status();
  return submitted.value().get();
}

void KnnService::FinishJob(Job* job, JobState state, Status status) {
  size_t active = 0;
  // Read under the lock: once notify_all runs, WaitAndTake may free the
  // job.
  SteadyClock::time_point submit_time;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    submit_time = job->submit_time;
    job->state = state;
    if (!status.ok()) {
      job->fail_status = status;
      job->error = status.ToString();
    }
    for (const auto& [jid, j] : jobs_) {
      (void)jid;
      if (j->state == JobState::kPending || j->state == JobState::kRunning) {
        ++active;
      }
    }
  }
  jobs_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    switch (state) {
      case JobState::kDone:
        ++stats_.jobs_completed;
        break;
      case JobState::kCancelled:
        ++stats_.jobs_cancelled;
        break;
      default:
        ++stats_.jobs_failed;
        break;
    }
  }
  switch (state) {
    case JobState::kDone:
      m_jobs_completed_->Increment();
      break;
    case JobState::kCancelled:
      m_jobs_cancelled_->Increment();
      break;
    default:
      m_jobs_failed_->Increment();
      break;
  }
  m_job_seconds_->Observe(SecondsBetween(submit_time, SteadyClock::now()));
  m_active_jobs_->Set(static_cast<double>(active));
}

void KnnService::JobLoop() {
  for (;;) {
    Job* job = nullptr;
    std::vector<uint64_t> orphaned;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex_);
      jobs_cv_.wait(lock,
                    [this] { return jobs_stop_ || !pending_jobs_.empty(); });
      if (jobs_stop_) {
        orphaned = std::move(pending_jobs_);
        pending_jobs_.clear();
      } else {
        const uint64_t id = pending_jobs_.front();
        pending_jobs_.erase(pending_jobs_.begin());
        auto it = jobs_.find(id);
        if (it != jobs_.end()) {
          job = it->second.get();
          job->state = JobState::kRunning;
        }
      }
    }
    if (job != nullptr) {
      // The Job object outlives this call: only a terminal state makes
      // it takeable, and RunJob publishes that itself, last.
      RunJob(job);
      continue;
    }
    // Shutdown: fail everything still pending, then exit.
    for (uint64_t id : orphaned) {
      Job* pending = nullptr;
      {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        auto it = jobs_.find(id);
        if (it != jobs_.end()) pending = it->second.get();
      }
      if (pending != nullptr) {
        FinishJob(pending, JobState::kFailed,
                  Status::Unavailable(
                      "KnnService shut down before the job ran"));
      }
    }
    return;
  }
}

void KnnService::RunJob(Job* job) {
  const std::shared_ptr<TenantIndex> tenant = job->tenant;
  if (job->cancel.load(std::memory_order_acquire)) {
    FinishJob(job, JobState::kCancelled);
    return;
  }
  if (tenant->dropped.load(std::memory_order_acquire)) {
    FinishJob(job, JobState::kFailed,
              Status::NotFound("index '" + tenant->name + "' was dropped"));
    return;
  }

  JobOutput out;
  out.kind = job->spec.kind;
  const size_t chunk_rows = std::max<size_t>(job->spec.chunk_rows, 1);
  const size_t dims = tenant->dims;
  const int k = job->spec.k;

  // Query source: radius jobs bring their own rows; the live-set kinds
  // snapshot the tenant's points once, at job start — each chunk then
  // answers against the index state of its own admission (every chunk
  // is internally consistent; mutations landing mid-job affect only
  // later chunks).
  HostMatrix queries;
  if (job->spec.kind == JobKind::kRadiusSearch) {
    queries = job->spec.queries;
  } else {
    SnapshotLive(tenant.get(), &out.query_ids, &queries);
  }
  const size_t total = queries.rows();
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    job->total_rows = total;
  }
  if (job->spec.kind == JobKind::kKnnGraph) {
    out.graph = KnnResult(total, k);
  }

  std::vector<Neighbor> rowbuf;
  for (size_t begin = 0; begin < total; begin += chunk_rows) {
    if (job->cancel.load(std::memory_order_acquire)) {
      FinishJob(job, JobState::kCancelled);
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      FinishJob(job, JobState::kFailed,
                Status::Unavailable("KnnService shut down mid-job"));
      return;
    }
    const size_t end = std::min(total, begin + chunk_rows);
    HostMatrix chunk(end - begin, dims);
    std::memcpy(chunk.mutable_data(), queries.row(begin),
                (end - begin) * dims * sizeof(float));
    if (job->spec.kind == JobKind::kKnnGraph) {
      // One ordinary kNN request at k+1 (the one extra slot absorbs the
      // query point itself; see core::SweetKnnIndex::KnnGraph for the
      // exactness argument), fair-shared through the admission queue.
      auto request = std::make_unique<Request>();
      request->tenant = tenant;
      request->rows.assign(chunk.storage().begin(), chunk.storage().end());
      request->num_rows = end - begin;
      request->k = k + 1;
      request->mode = ann::SearchMode::Exact();
      Result<std::future<Result<KnnResult>>> submitted =
          Submit(std::move(request));
      if (!submitted.ok()) {
        FinishJob(job, JobState::kFailed, submitted.status());
        return;
      }
      Result<KnnResult> answer = submitted.value().get();
      if (!answer.ok()) {
        FinishJob(job, JobState::kFailed, answer.status());
        return;
      }
      for (size_t q = 0; q < end - begin; ++q) {
        const uint32_t self = out.query_ids[begin + q];
        const Neighbor* src = answer.value().row(q);
        rowbuf.clear();
        bool dropped_self = false;
        for (int j = 0; j < k + 1; ++j) {
          if (src[j].index == kInvalidNeighbor) break;
          if (!dropped_self && src[j].index == self) {
            dropped_self = true;
            continue;
          }
          if (static_cast<int>(rowbuf.size()) == k) break;
          rowbuf.push_back(src[j]);
        }
        out.graph.SetRow(begin + q, rowbuf);
      }
    } else {
      Result<RangeResult> answer =
          RangeChunk(tenant, chunk, job->spec.radius);
      if (!answer.ok()) {
        FinishJob(job, JobState::kFailed, answer.status());
        return;
      }
      if (job->spec.kind == JobKind::kRadiusSearch) {
        out.range.AppendRows(answer.value());
      } else {
        // Self-join reduction: query a's in-ball matches, kept only for
        // ids above a — each unordered pair lands exactly once (on its
        // smaller id), self-matches drop (a == a fails a < b), exact
        // duplicates survive (distinct ids).
        for (size_t q = 0; q < answer.value().num_queries(); ++q) {
          const uint32_t a = out.query_ids[begin + q];
          for (const Neighbor* nb = answer.value().begin(q);
               nb != answer.value().end(q); ++nb) {
            if (nb->index > a) {
              out.pairs.push_back(SelfJoinPair{a, nb->index, nb->distance});
            }
          }
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      job->done_rows = end;
    }
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    job->output = std::move(out);
  }
  FinishJob(job, JobState::kDone);
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

Result<uint32_t> KnnService::Insert(const std::vector<float>& point) {
  return Insert(CallOptions{}, point);
}

Result<uint32_t> KnnService::Insert(const CallOptions& opts,
                                    const std::vector<float>& point) {
  SK_CHECK(!point.empty());
  HostMatrix one(1, point.size());
  std::memcpy(one.mutable_data(), point.data(),
              point.size() * sizeof(float));
  Result<std::vector<uint32_t>> ids = InsertBatch(opts, one);
  if (!ids.ok()) return ids.status();
  return ids.value()[0];
}

Result<std::vector<uint32_t>> KnnService::InsertBatch(
    const HostMatrix& points) {
  return InsertBatch(CallOptions{}, points);
}

Result<std::vector<uint32_t>> KnnService::InsertBatch(
    const CallOptions& opts, const HostMatrix& points) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(opts.tenant);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantIndex> tenant = std::move(resolved).value();
  SK_CHECK(!points.empty());
  SK_CHECK_EQ(points.cols(), tenant->dims);
  std::vector<uint32_t> ids;
  ids.reserve(points.rows());
  {
    std::lock_guard<std::mutex> index_lock(tenant->mutex);
    if (stopping_.load(std::memory_order_acquire)) {
      return Status::Unavailable(
          "KnnService is shut down; insert rejected");
    }
    for (size_t r = 0; r < points.rows(); ++r) {
      const uint32_t id = tenant->next_id++;
      SweetKnnIndex& shard =
          *tenant->shards[id % static_cast<uint32_t>(tenant->shards.size())];
      const Status inserted = shard.Insert(id, points.row(r));
      SK_CHECK(inserted.ok()) << inserted.ToString();
      ids.push_back(id);
      ++tenant->target_rows;
    }
    BumpCacheEpoch();
    UpdateOverlayGaugesLocked(tenant.get());
    for (const std::unique_ptr<SweetKnnIndex>& shard : tenant->shards) {
      MaybeScheduleCompaction(*shard);
    }
  }
  RefreshGlobalOverlayGauges();
  ClearCache();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.inserts += ids.size();
  }
  m_inserts_->Increment(static_cast<double>(ids.size()));
  return ids;
}

Result<bool> KnnService::Remove(uint32_t id) {
  return Remove(CallOptions{}, id);
}

Result<bool> KnnService::Remove(const CallOptions& opts, uint32_t id) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(opts.tenant);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantIndex> tenant = std::move(resolved).value();
  bool removed = false;
  {
    std::lock_guard<std::mutex> index_lock(tenant->mutex);
    if (stopping_.load(std::memory_order_acquire)) {
      return Status::Unavailable(
          "KnnService is shut down; remove rejected");
    }
    const int s = OwningShard(*tenant, id);
    if (s >= 0) {
      SweetKnnIndex& shard = *tenant->shards[static_cast<size_t>(s)];
      removed = shard.Remove(id);
      if (removed) {
        --tenant->target_rows;
        BumpCacheEpoch();
        UpdateOverlayGaugesLocked(tenant.get());
        MaybeScheduleCompaction(shard);
      }
    }
  }
  if (removed) {
    RefreshGlobalOverlayGauges();
    ClearCache();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (removed) {
      ++stats_.removes;
    } else {
      ++stats_.remove_misses;
    }
  }
  (removed ? m_removes_ : m_remove_misses_)->Increment();
  return removed;
}

int KnnService::OwningShard(const TenantIndex& tenant, uint32_t id) const {
  for (size_t s = 0; s < tenant.shards.size(); ++s) {
    if (tenant.shards[s]->Owns(id)) return static_cast<int>(s);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void KnnService::FailRequest(Request* request, Status status) {
  if (request->is_range) {
    request->range_promise.set_value(Result<RangeResult>(std::move(status)));
  } else {
    request->promise.set_value(Result<KnnResult>(std::move(status)));
  }
}

bool KnnService::FailFast(RequestPtr* request) {
  Request& req = **request;
  if (req.tenant->dropped.load(std::memory_order_acquire)) {
    FailRequest(&req, Status::NotFound("index '" + req.tenant->name +
                                       "' was dropped"));
    // The sub-queue may be empty now; let the scheduler forget it.
    queue_.Forget(req.tenant->name);
    request->reset();
    return true;
  }
  if (req.has_deadline && SteadyClock::now() >= req.deadline) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.deadline_exceeded;
    }
    m_deadline_exceeded_->Increment();
    req.tenant->m_deadline_exceeded->Increment();
    FailRequest(&req, Status::DeadlineExceeded(
                          "request deadline expired in the admission queue"));
    request->reset();
    return true;
  }
  return false;
}

void KnnService::DispatchLoop() {
  for (;;) {
    RequestPtr first;
    std::string tenant_name;
    if (queue_.WaitPop(&first, &tenant_name) != common::PopResult::kItem) {
      return;
    }
    {
      std::function<void()> hook;
      {
        std::lock_guard<std::mutex> lock(hook_mutex_);
        hook = pre_dispatch_hook_;
      }
      if (hook) hook();
    }
    if (FailFast(&first)) continue;
    // Micro-batching: coalesce admitted requests OF THIS TENANT until
    // max_batch_size query rows are on board or max_batch_wait has
    // passed since the batch opened. Batches are single-tenant — a
    // group runs under one tenant's index mutex — and the out-of-turn
    // tenant pops below charge the same DRR deficit WaitPop does, so
    // coalescing cannot cheat the fair shares.
    const SteadyClock::time_point opened = SteadyClock::now();
    m_queue_wait_->Observe(SecondsBetween(first->admit_time, opened));
    std::vector<RequestPtr> batch;
    size_t rows = first->num_rows;
    batch.push_back(std::move(first));
    const auto deadline = opened + config_.max_batch_wait;
    while (rows < static_cast<size_t>(config_.max_batch_size)) {
      RequestPtr next;
      if (!queue_.TryPopTenant(tenant_name, &next)) {
        if (SteadyClock::now() >= deadline ||
            queue_.WaitPopTenantUntil(tenant_name, &next, deadline) !=
                common::PopResult::kItem) {
          break;  // the batch is as full as it will get
        }
      }
      if (FailFast(&next)) continue;
      m_queue_wait_->Observe(
          SecondsBetween(next->admit_time, SteadyClock::now()));
      rows += next->num_rows;
      batch.push_back(std::move(next));
    }
    m_batch_assembly_->Observe(SecondsBetween(opened, SteadyClock::now()));
    m_batch_rows_->Observe(static_cast<double>(rows));
    // The queue-depth gauge is deliberately NOT Set here (nor in
    // Submit): two racing writers could publish a stale depth. It is
    // computed from the live scheduler at export time instead.
    //
    // One micro-batch dispatched; the per-k engine groups below are
    // accounted separately (engine_groups), so mixed-k traffic cannot
    // inflate the batch count and skew occupancy.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.batches;
    }
    m_batches_->Increment();

    // One engine batch per distinct (k, mode) — or per distinct radius
    // for range requests — preserving admission order within each group
    // and a deterministic order across groups (kNN groups by k
    // ascending, exact before approx; range groups after them by
    // radius). Modes were normalized at admission, so effectively exact
    // traffic lands in one group.
    struct GroupKey {
      bool is_range;
      float radius;
      int k;
      ann::SearchMode mode;
    };
    struct GroupKeyLess {
      bool operator()(const GroupKey& a, const GroupKey& b) const {
        if (a.is_range != b.is_range) return b.is_range;
        if (a.is_range) return a.radius < b.radius;
        if (a.k != b.k) return a.k < b.k;
        return ann::SearchModeLess(a.mode, b.mode);
      }
    };
    std::map<GroupKey, std::vector<RequestPtr>, GroupKeyLess> by_key;
    for (RequestPtr& request : batch) {
      by_key[{request->is_range, request->radius, request->k,
              request->mode}]
          .push_back(std::move(request));
    }
    for (auto& [key, group] : by_key) {
      if (key.is_range) {
        RunRangeGroup(std::move(group));
      } else {
        RunGroup(std::move(group));
      }
    }
  }
}

void KnnService::RunGroup(std::vector<RequestPtr> group) {
  const std::shared_ptr<TenantIndex> tenant = group[0]->tenant;
  const int k = group[0]->k;
  const ann::SearchMode mode = group[0]->mode;
  const size_t dims = tenant->dims;
  size_t rows = 0;
  for (const RequestPtr& request : group) rows += request->num_rows;
  HostMatrix queries(rows, dims);
  size_t row = 0;
  for (const RequestPtr& request : group) {
    std::memcpy(queries.mutable_row(row), request->rows.data(),
                request->num_rows * dims * sizeof(float));
    row += request->num_rows;
  }

  // The whole group runs against one index state of one tenant: a
  // concurrent SwapIndex, mutation, or compaction install of this
  // tenant waits here (or we wait for it), so no request's rows can
  // straddle an index change — and other tenants' mutexes are never
  // touched, so their mutations never stall this group.
  std::lock_guard<std::mutex> index_lock(tenant->mutex);
  const int num_shards = static_cast<int>(tenant->shards.size());

  // Route each shard's base scan by cost, serially before the fan-out so
  // the decision order is deterministic. Both routes return bit-identical
  // per-shard lists (the host path runs the same canonical float pipeline
  // the engine is fuzz-proven against), so the merged answer cannot
  // depend on the route; host-routed shards report no device stats.
  std::vector<core::QueryRoute> routes(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    routes[static_cast<size_t>(s)] = planner_.Choose(
        rows, tenant->shards[static_cast<size_t>(s)]->base_rows(), dims);
  }
  // The per-shard work — base scan (over-queried when mutated), delta
  // side scan, shard-local merge — lives in SweetKnnIndex::Answer, the
  // one code path the remote shard workers run too; the fan-out here is
  // just the in-process backend's transport.
  std::vector<core::ShardAnswer> answers(static_cast<size_t>(num_shards));
  const SteadyClock::time_point fanout_start = SteadyClock::now();
  common::ThreadPool::Global()->ForkJoin(num_shards, [&](int s) {
    const auto idx = static_cast<size_t>(s);
    answers[idx] =
        tenant->shards[idx]->Answer(queries, k, routes[idx], mode);
  });
  const SteadyClock::time_point merge_start = SteadyClock::now();
  m_shard_fanout_->Observe(SecondsBetween(fanout_start, merge_start));
  for (const core::ShardAnswer& answer : answers) {
    // An approx shard ran the graph search, not a planner route; it
    // belongs to neither route counter.
    if (answer.approx) continue;
    if (answer.device_routed) {
      m_planner_device_routes_->Increment();
      m_route_device_seconds_->Observe(answer.route_seconds);
      // The planner's selectivity EMA needs exactly the work counters
      // the answer carries.
      core::KnnRunStats observed;
      observed.distance_calcs = answer.distance_calcs;
      observed.total_pairs = answer.total_pairs;
      planner_.ObserveDeviceRun(observed);
    } else {
      m_planner_host_routes_->Increment();
      m_route_host_seconds_->Observe(answer.route_seconds);
    }
  }
  const KnnResult merged = core::MergeShardAnswers(answers, k);
  m_merge_->Observe(SecondsBetween(merge_start, SteadyClock::now()));

  // Recall self-measurement: every Nth approx group is also answered
  // exactly — same queries, same routes, same index state (we still
  // hold the tenant's index mutex) — and the measured recall@k lands in
  // the histogram. The probe costs one exact group; interval 0 disables
  // it.
  if (!mode.EffectiveExact()) {
    const int interval = config_.ann_recall_probe_interval;
    if (interval > 0 &&
        approx_group_counter_ % static_cast<uint64_t>(interval) == 0) {
      std::vector<core::ShardAnswer> exact_answers(
          static_cast<size_t>(num_shards));
      common::ThreadPool::Global()->ForkJoin(num_shards, [&](int s) {
        const auto idx = static_cast<size_t>(s);
        exact_answers[idx] =
            tenant->shards[idx]->Answer(queries, k, routes[idx]);
      });
      const KnnResult exact = core::MergeShardAnswers(exact_answers, k);
      // recall@k per row: |approx ids ∩ exact ids| / |exact live ids|
      // (padding rows measure nothing — there is no truth to recall).
      double recall_sum = 0.0;
      size_t measured = 0;
      std::unordered_set<uint32_t> truth;
      for (size_t q = 0; q < rows; ++q) {
        truth.clear();
        for (int j = 0; j < k; ++j) {
          const Neighbor& nb = exact.row(q)[j];
          if (nb.index == kInvalidNeighbor) break;
          truth.insert(nb.index);
        }
        if (truth.empty()) continue;
        size_t hits = 0;
        for (int j = 0; j < k; ++j) {
          if (truth.count(merged.row(q)[j].index) != 0) ++hits;
        }
        recall_sum +=
            static_cast<double>(hits) / static_cast<double>(truth.size());
        ++measured;
      }
      m_recall_probes_->Increment();
      if (measured > 0) {
        m_recall_estimate_->Observe(recall_sum /
                                    static_cast<double>(measured));
      }
    }
    ++approx_group_counter_;
  }

  RecordGroupStats(answers, rows);

  // Slice the merged result back into per-request answers.
  row = 0;
  for (RequestPtr& request : group) {
    KnnResult answer(request->num_rows, k);
    for (size_t q = 0; q < request->num_rows; ++q) {
      std::memcpy(answer.mutable_row(q), merged.row(row + q),
                  static_cast<size_t>(k) * sizeof(Neighbor));
    }
    row += request->num_rows;
    const double seconds =
        SecondsBetween(request->admit_time, SteadyClock::now());
    m_request_latency_->Observe(seconds);
    tenant->m_latency->Observe(seconds);
    request->promise.set_value(Result<KnnResult>(std::move(answer)));
  }
}

void KnnService::RunRangeGroup(std::vector<RequestPtr> group) {
  const std::shared_ptr<TenantIndex> tenant = group[0]->tenant;
  const float radius = group[0]->radius;
  const size_t dims = tenant->dims;
  size_t rows = 0;
  for (const RequestPtr& request : group) rows += request->num_rows;
  HostMatrix queries(rows, dims);
  size_t row = 0;
  for (const RequestPtr& request : group) {
    std::memcpy(queries.mutable_row(row), request->rows.data(),
                request->num_rows * dims * sizeof(float));
    row += request->num_rows;
  }

  // Same index-mutex scope as RunGroup: the whole range group answers
  // against one consistent index state of one tenant.
  std::lock_guard<std::mutex> index_lock(tenant->mutex);
  const int num_shards = static_cast<int>(tenant->shards.size());

  // The planner routes each shard's base scan exactly as it does for
  // kNN groups — both routes are bit-identical — but range scans never
  // feed the device-selectivity EMA (no simulated device runs for
  // them), so no ObserveDeviceRun here.
  std::vector<core::QueryRoute> routes(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    routes[static_cast<size_t>(s)] = planner_.Choose(
        rows, tenant->shards[static_cast<size_t>(s)]->base_rows(), dims);
  }
  std::vector<core::RangeShardAnswer> answers(
      static_cast<size_t>(num_shards));
  const SteadyClock::time_point fanout_start = SteadyClock::now();
  common::ThreadPool::Global()->ForkJoin(num_shards, [&](int s) {
    const auto idx = static_cast<size_t>(s);
    answers[idx] =
        tenant->shards[idx]->RangeAnswer(queries, radius, routes[idx]);
  });
  const SteadyClock::time_point merge_start = SteadyClock::now();
  m_shard_fanout_->Observe(SecondsBetween(fanout_start, merge_start));
  for (const core::RangeShardAnswer& answer : answers) {
    if (answer.device_routed) {
      m_planner_device_routes_->Increment();
      m_route_device_seconds_->Observe(answer.route_seconds);
    } else {
      m_planner_host_routes_->Increment();
      m_route_host_seconds_->Observe(answer.route_seconds);
    }
  }
  const RangeResult merged = core::MergeRangeShardAnswers(answers, rows);
  m_merge_->Observe(SecondsBetween(merge_start, SteadyClock::now()));

  RecordRangeGroupStats(rows, merged.total_matches());

  // Slice the merged result back into per-request answers.
  row = 0;
  for (RequestPtr& request : group) {
    RangeResult answer;
    for (size_t q = 0; q < request->num_rows; ++q) {
      answer.AppendRow(merged.begin(row + q), merged.count(row + q));
    }
    row += request->num_rows;
    const double seconds =
        SecondsBetween(request->admit_time, SteadyClock::now());
    m_request_latency_->Observe(seconds);
    tenant->m_latency->Observe(seconds);
    request->range_promise.set_value(Result<RangeResult>(std::move(answer)));
  }
}

void KnnService::RecordRangeGroupStats(size_t rows, size_t matches) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.range_groups;
    stats_.range_queries += rows;
    stats_.range_matches += matches;
  }
  m_range_groups_->Increment();
  m_range_queries_->Increment(static_cast<double>(rows));
  m_range_matches_->Increment(static_cast<double>(matches));
}

void KnnService::RecordGroupStats(
    const std::vector<core::ShardAnswer>& answers, size_t rows) {
  double slowest = 0.0;
  double total = 0.0;
  double level1 = 0.0;
  double level2 = 0.0;
  double transfer = 0.0;
  double preprocess = 0.0;
  uint64_t distance_calcs = 0;
  bool any_approx = false;
  uint64_t ann_hops = 0;
  uint64_t ann_candidates = 0;
  for (const core::ShardAnswer& s : answers) {
    if (s.approx) {
      any_approx = true;
      ann_hops += s.ann_hops;
      ann_candidates += s.ann_candidates;
    }
    // A host-routed shard ran no simulated device: its answer carries no
    // device stats and it made no adaptive decisions, so it contributes
    // to neither the sim-time counters nor the decision counts.
    if (!s.device_routed) continue;
    total += s.sim_time_s;
    slowest = std::max(slowest, s.sim_time_s);
    distance_calcs += s.distance_calcs;
    level1 += s.level1_s;
    level2 += s.level2_s;
    preprocess += s.preprocess_s;
    transfer += s.transfer_s;
    (s.filter_used == core::Level2Filter::kFull ? m_filter_full_
                                                : m_filter_partial_)
        ->Increment();
    switch (s.placement_used) {
      case core::KnearestsPlacement::kGlobal:
        m_placement_global_->Increment();
        break;
      case core::KnearestsPlacement::kShared:
        m_placement_shared_->Increment();
        break;
      case core::KnearestsPlacement::kRegisters:
        m_placement_registers_->Increment();
        break;
    }
    m_threads_per_query_->Observe(static_cast<double>(s.threads_per_query));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.engine_groups;
    stats_.batched_queries += rows;
    stats_.total_sim_time_s += total;
    stats_.critical_sim_time_s += slowest;
    stats_.distance_calcs += distance_calcs;
    if (any_approx) {
      ++stats_.approx_groups;
      stats_.approx_queries += rows;
    }
  }
  if (any_approx) {
    m_approx_groups_->Increment();
    m_approx_queries_->Increment(static_cast<double>(rows));
    m_ann_hops_->Increment(static_cast<double>(ann_hops));
    m_ann_candidates_->Increment(static_cast<double>(ann_candidates));
  }
  m_engine_groups_->Increment();
  m_batched_queries_->Increment(static_cast<double>(rows));
  m_sim_total_->Increment(total);
  m_sim_critical_->Increment(slowest);
  m_distance_calcs_->Increment(static_cast<double>(distance_calcs));
  m_sim_level1_->Increment(level1);
  m_sim_level2_->Increment(level2);
  m_sim_transfer_->Increment(transfer);
  m_sim_preprocess_->Increment(preprocess);
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

void KnnService::MaybeScheduleCompaction(const SweetKnnIndex& shard) {
  if (!config_.auto_compact) return;
  if (shard.compaction_in_flight()) return;
  if (!shard.OverlayExceeds(config_.compact_delta_fraction)) return;
  {
    std::lock_guard<std::mutex> lock(compact_mutex_);
    compact_pending_ = true;
  }
  compact_cv_.notify_one();
}

int KnnService::PickCompactionCandidate(TenantIndex* tenant) {
  std::lock_guard<std::mutex> index_lock(tenant->mutex);
  for (size_t s = 0; s < tenant->shards.size(); ++s) {
    const SweetKnnIndex& shard = *tenant->shards[s];
    if (!shard.compaction_in_flight() &&
        shard.OverlayExceeds(config_.compact_delta_fraction) &&
        shard.size() > 0) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

void KnnService::CompactorLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(compact_mutex_);
      compact_cv_.wait(lock,
                       [this] { return compact_pending_ || compactor_stop_; });
      if (compactor_stop_) return;
      compact_pending_ = false;
    }
    // Drain every over-threshold shard of every tenant, one rebuild at a
    // time; serving continues throughout (a tenant's index lock is only
    // held for the capture and the install).
    for (;;) {
      if (stopping_.load(std::memory_order_acquire)) break;
      bool progressed = false;
      bool failed = false;
      for (const std::shared_ptr<TenantIndex>& tenant : manager_.All()) {
        if (stopping_.load(std::memory_order_acquire)) break;
        const int candidate = PickCompactionCandidate(tenant.get());
        if (candidate < 0) continue;
        // An abort (epoch superseded by a swap) is already counted; any
        // other status here would be a logic error worth the log line.
        const Status status =
            CompactShardInternal(tenant.get(), candidate);
        if (!status.ok() && status.code() != StatusCode::kUnavailable) {
          SK_LOG(Warning) << "KnnService: background compaction of shard "
                          << candidate << " of index '" << tenant->name
                          << "' failed: " << status.ToString();
          failed = true;
          break;
        }
        progressed = true;
      }
      if (failed || !progressed) break;
    }
  }
}

Status KnnService::CompactShard(int shard) {
  SK_CHECK_GE(shard, 0);
  // The shard count is fixed at construction (SwapIndex replaces the
  // shards but never their number); checking config_ avoids touching
  // the shard vector outside the tenant's mutex.
  SK_CHECK_LT(shard, config_.num_shards);
  return CompactShardInternal(default_tenant_.get(), shard);
}

Status KnnService::CompactShard(const std::string& tenant_name, int shard) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  SK_CHECK_GE(shard, 0);
  SK_CHECK_LT(shard, resolved.value()->num_shards);
  return CompactShardInternal(resolved.value().get(), shard);
}

Status KnnService::CompactAll() {
  const int num_shards = config_.num_shards;
  for (int s = 0; s < num_shards; ++s) {
    SK_RETURN_IF_ERROR(CompactShardInternal(default_tenant_.get(), s));
  }
  return Status::Ok();
}

Status KnnService::CompactAll(const std::string& tenant_name) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantIndex> tenant = std::move(resolved).value();
  for (int s = 0; s < tenant->num_shards; ++s) {
    SK_RETURN_IF_ERROR(CompactShardInternal(tenant.get(), s));
  }
  return Status::Ok();
}

Status KnnService::CompactShardInternal(TenantIndex* tenant, int s) {
  const SteadyClock::time_point start = SteadyClock::now();
  const auto idx = static_cast<size_t>(s);
  SweetKnnIndex::CompactionPlan plan;
  uint64_t epoch = 0;
  // Capture: everything the rebuild needs, snapshotted under the tenant's
  // index lock. The consumed prefix is delta[0..watermark); entries
  // appended after the capture stay in the suffix and carry over
  // untouched.
  {
    std::lock_guard<std::mutex> index_lock(tenant->mutex);
    SweetKnnIndex& shard = *tenant->shards[idx];
    if (shard.compaction_in_flight()) {
      return Status::Unavailable(
          "shard " + std::to_string(s) +
          " already has a compaction in flight");
    }
    // An empty overlay has nothing to fold; with every point removed, an
    // empty base cannot be clustered, so the overlay stays as is and
    // queries keep answering all padding.
    if (!shard.CaptureCompaction(&plan)) return Status::Ok();
    epoch = tenant->shard_epochs[idx];
  }

  // Rebuild off-lock; serving continues against the old base the whole
  // time. The shard workers run the same SweetKnnIndex steps, so a
  // compaction on either backend produces the identical fresh base.
  SweetKnnIndex::RebuildCompaction(&plan);

  // Install: only if the shard we captured from is still the live one
  // (a SwapIndex assigns fresh epochs, orphaning this rebuild).
  {
    std::lock_guard<std::mutex> index_lock(tenant->mutex);
    if (idx >= tenant->shards.size() || tenant->shard_epochs[idx] != epoch) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.compaction_aborts;
      }
      m_compaction_aborts_->Increment();
      return Status::Unavailable(
          "shard " + std::to_string(s) +
          " was replaced while its compaction ran; rebuild discarded");
    }
    // Mutations that landed during the rebuild carry over onto the new
    // base (InstallCompaction).
    tenant->shards[idx]->InstallCompaction(&plan);
    BumpCacheEpoch();
    UpdateOverlayGaugesLocked(tenant);
  }
  RefreshGlobalOverlayGauges();
  ClearCache();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.compactions;
  }
  m_compactions_->Increment();
  m_compacted_rows_->Increment(static_cast<double>(plan.points.rows()));
  m_compaction_seconds_->Observe(SecondsBetween(start, SteadyClock::now()));
  return Status::Ok();  // the plan, now holding the old base, dies off-lock
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

Result<std::vector<store::IndexSnapshot>> KnnService::LoadShardSet(
    const std::string& dir, int num_shards, const ServiceConfig& config,
    size_t dims, bool allow_overlay) {
  Result<std::vector<std::string>> listed = store::ListShardSnapshots(dir);
  if (!listed.ok()) return listed.status();
  if (static_cast<int>(listed.value().size()) != num_shards) {
    return Status::InvalidArgument(
        dir + " holds " + std::to_string(listed.value().size()) +
        " shard snapshots, this service has " + std::to_string(num_shards) +
        " shards");
  }

  // Snapshot files parse and validate independently: fan the reads out
  // over the host pool.
  std::vector<store::IndexSnapshot> snapshots(
      static_cast<size_t>(num_shards));
  std::vector<Status> statuses(static_cast<size_t>(num_shards));
  common::ThreadPool::Global()->ForkJoin(num_shards, [&](int s) {
    const auto idx = static_cast<size_t>(s);
    Result<store::IndexSnapshot> snap = store::LoadIndexSnapshot(
        store::ShardSnapshotPath(dir, s, num_shards));
    if (snap.ok()) {
      snapshots[idx] = std::move(snap).value();
    } else {
      statuses[idx] = snap.status();
    }
  });

  const std::string want_options = store::OptionsFingerprint(config.options);
  const std::string want_device = store::DeviceFingerprint(config.device);
  bool any_overlay = false;
  for (int s = 0; s < num_shards; ++s) {
    const auto idx = static_cast<size_t>(s);
    SK_RETURN_IF_ERROR(statuses[idx]);
    const store::IndexSnapshot& snap = snapshots[idx];
    const std::string where =
        store::ShardSnapshotPath(dir, s, num_shards);
    if (snap.shard_index != static_cast<uint32_t>(s) ||
        snap.shard_count != static_cast<uint32_t>(num_shards)) {
      return Status::InvalidArgument(
          where + " records shard " + std::to_string(snap.shard_index) +
          "-of-" + std::to_string(snap.shard_count) + ", expected " +
          std::to_string(s) + "-of-" + std::to_string(num_shards));
    }
    if (dims == 0) dims = snapshots[0].target.cols();
    if (snap.target.cols() != dims) {
      return Status::InvalidArgument(
          where + " holds " + std::to_string(snap.target.cols()) +
          "-dimensional points, this service serves " +
          std::to_string(dims) + " dimensions");
    }
    if (snap.options_fingerprint != want_options) {
      return Status::InvalidArgument(
          where + " was built under different options: file has [" +
          snap.options_fingerprint + "], this service is [" + want_options +
          "]");
    }
    if (snap.device_fingerprint != want_device) {
      return Status::InvalidArgument(
          where + " was built for a different device: file has [" +
          snap.device_fingerprint + "], this service is [" + want_device +
          "]");
    }
    if (snap.HasOverlay()) {
      if (!allow_overlay) {
        return Status::InvalidArgument(
            where + " carries a mutation overlay; adopt mutated snapshot "
            "sets with KnnService::FromSnapshots");
      }
      any_overlay = true;
    }
  }

  if (!any_overlay) {
    // Pristine sets must tile the target: shard s's rows are global rows
    // [offset, offset + rows).
    uint64_t next_offset = 0;
    for (int s = 0; s < num_shards; ++s) {
      const store::IndexSnapshot& snap = snapshots[static_cast<size_t>(s)];
      if (snap.shard_offset != next_offset) {
        return Status::InvalidArgument(
            store::ShardSnapshotPath(dir, s, num_shards) +
            " starts at global row " + std::to_string(snap.shard_offset) +
            ", expected " + std::to_string(next_offset) +
            " (shards must tile the target)");
      }
      next_offset += snap.target.rows();
    }
  } else {
    // Mutated sets no longer tile; what must hold instead is that every
    // stable id — base (tombstoned or not) and delta — lives in exactly
    // one shard.
    std::vector<uint32_t> all_ids;
    for (const store::IndexSnapshot& snap : snapshots) {
      for (size_t i = 0; i < snap.target.rows(); ++i) {
        all_ids.push_back(SnapshotBaseId(snap, i));
      }
      all_ids.insert(all_ids.end(), snap.delta_ids.begin(),
                     snap.delta_ids.end());
    }
    std::sort(all_ids.begin(), all_ids.end());
    const auto dup = std::adjacent_find(all_ids.begin(), all_ids.end());
    if (dup != all_ids.end()) {
      return Status::InvalidArgument(
          dir + ": stable id " + std::to_string(*dup) +
          " appears in more than one shard snapshot");
    }
  }
  return snapshots;
}

KnnService::ShardSet KnnService::BuildShardsFromSnapshots(
    std::vector<store::IndexSnapshot> snapshots) const {
  const SweetKnn::Config shard_config =
      ShardIndexConfig(config_.options, config_.device, config_.enable_ann,
                       config_.ann_params);
  const int num_shards = static_cast<int>(snapshots.size());
  ShardSet set;
  set.shards.resize(snapshots.size());
  common::ThreadPool::Global()->ForkJoin(num_shards, [&](int s) {
    const auto idx = static_cast<size_t>(s);
    // LoadShardSet already checked the fingerprints against this config.
    Result<std::unique_ptr<SweetKnnIndex>> restored = SweetKnnIndex::Restore(
        std::move(snapshots[idx]), shard_config,
        "shard " + std::to_string(s));
    SK_CHECK(restored.ok()) << restored.status().ToString();
    set.shards[idx] = std::move(restored).value();
  });
  // The id allocator restarts strictly above every id any shard knows
  // (a restored index's next_id is already above each of its own ids).
  for (const std::unique_ptr<SweetKnnIndex>& shard : set.shards) {
    set.live_rows += shard->size();
    set.next_id = std::max(set.next_id, shard->next_id());
  }
  return set;
}

Status KnnService::SaveTenantSnapshots(TenantIndex* tenant,
                                       const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create snapshot directory " + dir + ": " +
                           ec.message());
  }
  std::lock_guard<std::mutex> index_lock(tenant->mutex);
  const int num_shards = static_cast<int>(tenant->shards.size());
  for (int s = 0; s < num_shards; ++s) {
    SK_RETURN_IF_ERROR(store::SaveIndexSnapshot(
        tenant->shards[static_cast<size_t>(s)]->ExportSnapshot(
            config_.dataset_name, "KnnService::SaveSnapshots",
            static_cast<uint32_t>(s), static_cast<uint32_t>(num_shards),
            tenant->next_id),
        store::ShardSnapshotPath(dir, s, num_shards)));
  }
  return Status::Ok();
}

Status KnnService::SaveSnapshots(const std::string& dir) {
  // The default tenant saves at the root — byte-identical to the
  // single-tenant layout — and every named tenant under "<dir>/<name>/"
  // (ListShardSnapshots ignores subdirectories, so the extra tenant
  // directories never confuse a legacy load of the root).
  SK_RETURN_IF_ERROR(SaveTenantSnapshots(default_tenant_.get(), dir));
  for (const std::shared_ptr<TenantIndex>& tenant : manager_.All()) {
    if (tenant->name == kDefaultTenant) continue;
    SK_RETURN_IF_ERROR(SaveTenantSnapshots(
        tenant.get(),
        (std::filesystem::path(dir) / tenant->name).string()));
  }
  return Status::Ok();
}

Status KnnService::SaveSnapshots(const std::string& tenant_name,
                                 const std::string& dir) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  return SaveTenantSnapshots(resolved.value().get(), dir);
}

Status KnnService::SwapIndex(const std::string& dir) {
  return SwapIndexInternal(default_tenant_.get(), dir);
}

Status KnnService::SwapIndex(const std::string& tenant_name,
                             const std::string& dir) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  return SwapIndexInternal(resolved.value().get(), dir);
}

Status KnnService::SwapIndexInternal(TenantIndex* tenant,
                                     const std::string& dir) {
  // The shard vector itself is index-mutex territory; the fixed count is
  // not.
  const int num_shards = tenant->num_shards;
  Result<std::vector<store::IndexSnapshot>> loaded = LoadShardSet(
      dir, num_shards, config_, tenant->dims, /*allow_overlay=*/true);
  if (!loaded.ok()) return loaded.status();

  // Re-materialize the replacement generation off to the side; the live
  // index keeps serving while this runs.
  ShardSet set = BuildShardsFromSnapshots(std::move(loaded).value());

  {
    std::lock_guard<std::mutex> index_lock(tenant->mutex);
    // Fresh epochs orphan every compaction captured against the old
    // generation: its install will see a mismatch and discard itself.
    for (uint64_t& epoch : tenant->shard_epochs) epoch = ++epoch_counter_;
    tenant->shards.swap(set.shards);
    tenant->target_rows = set.live_rows;
    // The allocator never rewinds — ids of the replaced generation must
    // stay retired, or a later insert could collide with an id a client
    // still holds.
    tenant->next_id = std::max(tenant->next_id, set.next_id);
    // Bump the generation before the cache clear below: any in-flight
    // request that computed its answer against the old shards now holds
    // a stale epoch tag, so its CacheInsert is dropped whether it lands
    // before or after the clear.
    index_generation_.fetch_add(1, std::memory_order_acq_rel);
    BumpCacheEpoch();
    UpdateOverlayGaugesLocked(tenant);
  }
  m_index_generation_->Set(
      static_cast<double>(index_generation_.load(std::memory_order_acquire)));
  // `set.shards` now holds the previous generation; it dies here, after
  // the lock, so teardown never blocks the dispatcher.
  set.shards.clear();
  RefreshGlobalOverlayGauges();
  ClearCache();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.index_swaps;
  }
  m_index_swaps_->Increment();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Stats, metrics, cache
// ---------------------------------------------------------------------------

void KnnService::BumpCacheEpoch() {
  cache_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void KnnService::ClearCache() {
  if (config_.cache_capacity == 0) return;
  std::lock_guard<std::mutex> cache_lock(cache_mutex_);
  cache_.clear();
  lru_.clear();
}

void KnnService::UpdateOverlayGaugesLocked(TenantIndex* tenant) {
  size_t delta_points = 0;
  size_t tombstones = 0;
  for (const std::unique_ptr<SweetKnnIndex>& shard : tenant->shards) {
    delta_points += shard->delta_size();
    tombstones += shard->tombstone_count();
  }
  tenant->delta_points.store(delta_points, std::memory_order_release);
  tenant->tombstones.store(tombstones, std::memory_order_release);
  tenant->live_rows.store(tenant->target_rows, std::memory_order_release);
  tenant->m_live_rows->Set(static_cast<double>(tenant->target_rows));
}

void KnnService::RefreshGlobalOverlayGauges() {
  uint64_t delta_points = 0;
  uint64_t tombstones = 0;
  uint64_t live_rows = 0;
  // Sums the per-tenant atomics — no tenant's index mutex is taken, so
  // this is safe from any locking context (see the lock-order note).
  for (const std::shared_ptr<TenantIndex>& tenant : manager_.All()) {
    delta_points += tenant->delta_points.load(std::memory_order_acquire);
    tombstones += tenant->tombstones.load(std::memory_order_acquire);
    live_rows += tenant->live_rows.load(std::memory_order_acquire);
  }
  m_delta_points_->Set(static_cast<double>(delta_points));
  m_tombstones_->Set(static_cast<double>(tombstones));
  m_live_rows_->Set(static_cast<double>(live_rows));
}

size_t KnnService::target_rows() const {
  std::lock_guard<std::mutex> lock(default_tenant_->mutex);
  return default_tenant_->target_rows;
}

Result<size_t> KnnService::target_rows(const std::string& tenant_name) const {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  std::lock_guard<std::mutex> lock(resolved.value()->mutex);
  return resolved.value()->target_rows;
}

ServiceStats KnnService::stats() const {
  ServiceStats snapshot;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    snapshot = stats_;
  }
  // The overlay sums come from the per-tenant atomics (maintained under
  // each tenant's mutex by UpdateOverlayGaugesLocked) — no index mutex
  // is taken, so stats() can never stall behind a compaction install.
  uint64_t delta_points = 0;
  uint64_t tombstones = 0;
  for (const std::shared_ptr<TenantIndex>& tenant : manager_.All()) {
    delta_points += tenant->delta_points.load(std::memory_order_acquire);
    tombstones += tenant->tombstones.load(std::memory_order_acquire);
  }
  snapshot.delta_points = delta_points;
  snapshot.tombstones = tombstones;
  snapshot.peak_queue_depth = queue_.peak_depth();
  return snapshot;
}

std::string KnnService::ExportMetricsJson() const {
  m_queue_depth_->Set(static_cast<double>(queue_.size()));
  m_peak_queue_depth_->Set(static_cast<double>(queue_.peak_depth()));
  m_tenants_->Set(static_cast<double>(manager_.size()));
  return metrics_.ExportJson();
}

std::string KnnService::ExportMetricsText() const {
  m_queue_depth_->Set(static_cast<double>(queue_.size()));
  m_peak_queue_depth_->Set(static_cast<double>(queue_.peak_depth()));
  m_tenants_->Set(static_cast<double>(manager_.size()));
  return metrics_.ExportPrometheusText();
}

std::string KnnService::CacheKey(const std::string& tenant, const float* row,
                                 size_t dims, int k,
                                 const ann::SearchMode& mode) {
  // `mode` arrives normalized, so every effectively exact request maps
  // to the one exact key for its (tenant, k, point). The tenant prefix
  // ends at the NUL — tenant names cannot contain one (ValidName) — so
  // two tenants' keys can never alias.
  const uint32_t kind = static_cast<uint32_t>(mode.kind);
  std::string key(tenant.size() + 1 + sizeof(int) + sizeof(uint32_t) +
                      sizeof(double) + sizeof(int) + dims * sizeof(float),
                  '\0');
  char* p = key.data();
  std::memcpy(p, tenant.data(), tenant.size());
  p += tenant.size() + 1;  // the NUL separator is already there
  std::memcpy(p, &k, sizeof(int));
  p += sizeof(int);
  std::memcpy(p, &kind, sizeof(uint32_t));
  p += sizeof(uint32_t);
  std::memcpy(p, &mode.recall_target, sizeof(double));
  p += sizeof(double);
  std::memcpy(p, &mode.ef, sizeof(int));
  p += sizeof(int);
  std::memcpy(p, row, dims * sizeof(float));
  return key;
}

bool KnnService::CacheLookup(const std::string& key,
                             std::vector<Neighbor>* out) {
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      *out = it->second.neighbors;
      hit = true;
    }
  }
  // Stats are recorded after releasing cache_mutex_: stats_mutex_ never
  // nests inside the cache lock (see the lock-order note in the header).
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.cache_lookups;
    if (hit) ++stats_.cache_hits;
  }
  m_cache_lookups_->Increment();
  if (hit) m_cache_hits_->Increment();
  return hit;
}

void KnnService::CacheInsert(const std::string& key,
                             std::vector<Neighbor> value, uint64_t epoch) {
  bool stale = false;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    // A swap, mutation, or compaction that completed after this answer
    // was computed has already bumped the cache epoch (under the
    // tenant's index mutex, before clearing the cache): inserting now
    // would serve pre-change neighbors forever.
    if (cache_epoch_.load(std::memory_order_acquire) != epoch) {
      stale = true;
    } else {
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        it->second.neighbors = std::move(value);
      } else {
        lru_.push_front(key);
        cache_.emplace(key, CacheEntry{lru_.begin(), std::move(value)});
        while (cache_.size() > config_.cache_capacity) {
          cache_.erase(lru_.back());
          lru_.pop_back();
        }
      }
    }
  }
  if (stale) {
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.cache_stale_drops;
    }
    m_cache_stale_drops_->Increment();
  }
}

}  // namespace sweetknn::serve
