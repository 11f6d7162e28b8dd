#ifndef SWEETKNN_SERVE_KNN_SERVICE_H_
#define SWEETKNN_SERVE_KNN_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/metrics.h"
#include "common/range_result.h"
#include "common/status.h"
#include "core/delta_overlay.h"
#include "core/options.h"
#include "core/route_planner.h"
#include "core/shard_merge.h"
#include "core/ti_knn_gpu.h"
#include "gpusim/device.h"
#include "serve/index_manager.h"
#include "serve/scheduler.h"
#include "simd/simd_kernels.h"
#include "store/snapshot.h"

namespace sweetknn::serve {

/// Knobs of the serving layer.
struct ServiceConfig {
  /// Target-set shards per index, each a simulated device with its own
  /// prepared TiKnnEngine index. Clamped per index to its target row
  /// count.
  int num_shards = 2;
  /// Micro-batching: the dispatcher coalesces admitted requests of one
  /// tenant until a batch holds this many query rows ...
  int max_batch_size = 64;
  /// ... or this much wall-clock has passed since the batch's first
  /// request, whichever comes first.
  std::chrono::microseconds max_batch_wait{500};
  /// LRU result-cache entries, keyed on (tenant, k, query row bytes).
  /// 0 = off. Serves single-row Search() requests only.
  size_t cache_capacity = 0;
  /// Load shedding: total admitted-but-undispatched requests, summed
  /// over every tenant, beyond which Search/JoinBatch are bounced with
  /// kUnavailable instead of growing the queue (and its tail latency)
  /// without limit. Shed requests are counted in stats().shed_requests
  /// and the sweetknn_shed_requests_total counter. 0 = unbounded (the
  /// legacy behavior).
  size_t max_queue_depth = 0;
  /// Cost units (query rows) a weight-1.0 tenant earns per round of the
  /// weighted-fair scheduler (see serve/scheduler.h). 0 = use
  /// max_batch_size, so one round roughly funds one micro-batch.
  size_t fair_quantum = 0;
  gpusim::DeviceSpec device = gpusim::DeviceSpec::TeslaK20c();
  core::TiOptions options = core::TiOptions::Sweet();
  /// If non-empty, warm start: restore each shard's prepared index from
  /// "<snapshot_dir>/shard-<s>-of-<n>.sksnap" instead of running the
  /// Step-1 landmark clustering. The snapshots must match the service's
  /// options/device fingerprints, shard geometry, and the target bytes
  /// passed to the constructor (which also means they must be pristine —
  /// adopt mutated snapshots with FromSnapshots instead); on any
  /// mismatch or load failure the service logs a warning and cold-builds
  /// every shard (check stats().warm_started_shards to see which path
  /// ran). Named tenants created with CreateIndex warm-start from
  /// "<snapshot_dir>/<tenant>/" the same way.
  std::string snapshot_dir;
  /// Dataset name recorded as provenance in snapshots written by
  /// SaveSnapshots.
  std::string dataset_name;
  /// Mutability (docs/mutability.md): a shard is scheduled for
  /// compaction once its overlay (delta points + tombstones) exceeds
  /// this fraction of its frozen base rows. <= 0 disables the threshold
  /// (CompactShard/CompactAll stay available).
  double compact_delta_fraction = 0.25;
  /// Run the background compactor thread, which rebuilds over-threshold
  /// shards off the serving path. false = compaction happens only via
  /// explicit CompactShard/CompactAll calls (deterministic; tests use
  /// this).
  bool auto_compact = true;
  /// Cost-based routing of each query group's per-shard base scan
  /// between the shard's simulated-GPU TI engine and the vectorized
  /// host kernels (docs/performance.md). Both routes answer bit-
  /// identically; host-routed shard runs report no simulated-device
  /// stats (sim-time counters, filter/placement decisions), so tests
  /// asserting those pin mode = kForceDevice. SWEETKNN_PLANNER
  /// ("auto" | "device" | "host") overrides the mode at construction.
  core::PlannerConfig planner;
  /// Build the approximate kNN-graph tier on every shard (and rebuild it
  /// at each compaction install), enabling SearchMode::Approx requests
  /// (docs/approx.md). Exact traffic — and every service built without
  /// this — is completely unaffected.
  bool enable_ann = false;
  /// NN-descent build knobs for the ANN tier. When ann_params.workers
  /// is 0, graph builds use options.sim_threads (the service's
  /// configured parallelism) before falling back to SWEETKNN_SIM_THREADS.
  ann::GraphBuildParams ann_params;
  /// Recall self-measurement: every Nth approx group is also answered
  /// exactly (under the same lock, against the same index state) and the
  /// observed recall@k lands in the sweetknn_ann_recall_estimate
  /// histogram. 0 disables the probe; small N is for tests/benchmarks —
  /// each probe costs one exact group.
  int ann_recall_probe_interval = 0;
};

/// The three offline modalities KnnService runs as long-running jobs
/// (docs/modalities.md). Radius jobs carry their own query rows;
/// self-join and kNN-graph jobs run over the tenant's live set as
/// snapshotted at job start.
enum class JobKind { kRadiusSearch, kSelfJoin, kKnnGraph };

/// Job lifecycle: kPending (queued behind earlier jobs) -> kRunning ->
/// one of kDone / kCancelled / kFailed. CancelJob flips the cancel
/// flag; the job thread honors it between chunks, so a cancel lands
/// within one chunk's worth of work.
enum class JobState { kPending, kRunning, kDone, kCancelled, kFailed };

/// What SubmitJob takes. `chunk_rows` bounds how many query rows each
/// admitted chunk carries — chunks ride the same weighted-fair admission
/// queue as point lookups, so a job never monopolizes the dispatcher
/// and a mid-job CancelJob takes effect at the next chunk boundary.
struct JobSpec {
  JobKind kind = JobKind::kRadiusSearch;
  /// Closed-ball radius (kRadiusSearch / kSelfJoin).
  float radius = 0.0f;
  /// Neighbors per node (kKnnGraph).
  int k = 0;
  /// Query rows (kRadiusSearch only; the other kinds query the live set).
  HostMatrix queries;
  /// Query rows per admitted chunk (clamped to >= 1).
  size_t chunk_rows = 64;
  std::string tenant = kDefaultTenant;
};

/// PollJob's answer.
struct JobProgress {
  JobState state = JobState::kPending;
  uint64_t total_rows = 0;  ///< Query rows the job will run.
  uint64_t done_rows = 0;   ///< Query rows completed so far.
  std::string error;        ///< Set when state == kFailed.
};

/// A finished job's result (TakeJobResult). Which fields are populated
/// depends on the kind; `query_ids` gives the stable id behind each
/// result row for the live-set kinds.
struct JobOutput {
  JobKind kind = JobKind::kRadiusSearch;
  /// kSelfJoin / kKnnGraph: stable ids of the snapshot rows, ascending.
  std::vector<uint32_t> query_ids;
  /// kRadiusSearch: row q = matches of input query q.
  RangeResult range;
  /// kSelfJoin: each unordered live pair within the radius exactly once
  /// (a < b), ascending (a, distance, b).
  std::vector<SelfJoinPair> pairs;
  /// kKnnGraph: row i = exact k nearest live points of query_ids[i],
  /// excluding itself.
  KnnResult graph;
};

/// Per-call options of the tenant-qualified Search/JoinBatch/mutation
/// overloads. The zero-argument legacy overloads behave exactly like
/// CallOptions{} — default tenant, no deadline.
struct CallOptions {
  /// The named index the call targets (see CreateIndex). Unknown names
  /// fail with NotFound.
  std::string tenant = kDefaultTenant;
  /// Queries only: relative deadline, measured from admission. A
  /// request still queued when it expires completes with
  /// kDeadlineExceeded without ever touching the shards. 0 = none.
  std::chrono::microseconds timeout{0};
};

/// Service-level counters, all cumulative since construction. The
/// metrics registry (KnnService::metrics()) carries the richer view —
/// latency histograms, per-stage sim time, compaction timings, and the
/// per-tenant labeled series.
struct ServiceStats {
  uint64_t requests = 0;        ///< Search/JoinBatch calls admitted.
  uint64_t queries = 0;         ///< Query rows answered (incl. cache hits).
  /// Search/JoinBatch calls rejected because the service was shutting
  /// down (never admitted, not counted in requests).
  uint64_t rejected_requests = 0;
  /// Search/JoinBatch calls bounced with kUnavailable by the
  /// max_queue_depth admission bound (never admitted).
  uint64_t shed_requests = 0;
  /// Admitted requests whose deadline expired while queued; completed
  /// with kDeadlineExceeded without touching the shards.
  uint64_t deadline_exceeded = 0;
  /// Micro-batches dispatched by the batching loop (one per coalescing
  /// window, regardless of how many distinct k values it held).
  uint64_t batches = 0;
  /// Same-k groups run through the shard engines. A mixed-k micro-batch
  /// produces several engine groups, so engine_groups >= batches.
  uint64_t engine_groups = 0;
  uint64_t batched_queries = 0; ///< Query rows that went through engines.
  uint64_t cache_lookups = 0;
  uint64_t cache_hits = 0;
  /// Result-cache inserts dropped because an index swap, mutation, or
  /// compaction completed after the answer was computed (the
  /// stale-insert guard).
  uint64_t cache_stale_drops = 0;
  uint64_t peak_queue_depth = 0;  ///< Admission-queue high-water mark.
  /// Simulated device time summed over every shard of every batch (the
  /// throughput cost: total device-seconds consumed).
  double total_sim_time_s = 0.0;
  /// Per-batch max over shards, summed over batches (the latency cost:
  /// shards run concurrently, a batch completes with its slowest shard).
  double critical_sim_time_s = 0.0;
  /// Level-2 distance computations summed over shards.
  uint64_t distance_calcs = 0;
  /// Shards restored from snapshots at construction (0 = cold build).
  uint64_t warm_started_shards = 0;
  /// Completed SwapIndex calls.
  uint64_t index_swaps = 0;
  /// Points admitted through Insert/InsertBatch.
  uint64_t inserts = 0;
  /// Successful Remove calls.
  uint64_t removes = 0;
  /// Remove calls naming an id that was never live or already removed.
  uint64_t remove_misses = 0;
  /// Shard compactions installed (background or explicit).
  uint64_t compactions = 0;
  /// Compactions abandoned because a SwapIndex (or competing install)
  /// replaced the shard while the rebuild ran off-lock.
  uint64_t compaction_aborts = 0;
  /// Current overlay size, summed over every tenant's shards (gauges,
  /// not cumulative).
  uint64_t delta_points = 0;
  uint64_t tombstones = 0;
  /// Approximate tier: engine groups / query rows answered through the
  /// ANN graph search (a subset of engine_groups / batched_queries).
  uint64_t approx_groups = 0;
  uint64_t approx_queries = 0;
  /// Range modality: same-radius groups run through the shards, query
  /// rows in them, and in-ball matches returned.
  uint64_t range_groups = 0;
  uint64_t range_queries = 0;
  uint64_t range_matches = 0;
  /// Offline jobs by terminal state (submitted >= the other three +
  /// still-active jobs).
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  uint64_t jobs_cancelled = 0;
  uint64_t jobs_failed = 0;

  /// Mean fraction of max_batch_size filled per dispatched micro-batch
  /// (> 1 is possible when one JoinBatch request exceeds max_batch_size).
  double BatchOccupancy(int max_batch_size) const {
    if (batches == 0 || max_batch_size <= 0) return 0.0;
    return static_cast<double>(batched_queries) /
           (static_cast<double>(batches) *
            static_cast<double>(max_batch_size));
  }
  double MeanBatchSize() const {
    if (batches == 0) return 0.0;
    return static_cast<double>(batched_queries) /
           static_cast<double>(batches);
  }
  /// Critical-path device time amortized over every batched query row —
  /// the number micro-batching drives down.
  double AmortizedSimTimePerQuery() const {
    if (batched_queries == 0) return 0.0;
    return critical_sim_time_s / static_cast<double>(batched_queries);
  }
};

/// A concurrent batched KNN serving front-end over sharded
/// TiKnnEngine indexes — the "many users, many datasets" code path of
/// the ROADMAP's north star.
///
/// The service is multi-tenant: an IndexManager hosts any number of
/// named indexes (the constructor's target becomes the "default"
/// tenant; CreateIndex/DropIndex add and remove others at runtime),
/// each sharded, mutable, and snapshot-able independently. Client
/// threads call Search/JoinBatch concurrently — with a CallOptions
/// naming a tenant and optionally carrying a deadline — and requests
/// land in a weighted-fair admission scheduler (serve/scheduler.h):
/// per-tenant sub-queues drained in deficit-round-robin order, so a
/// flooding tenant cannot starve the others, and an optional
/// max_queue_depth bound sheds overload with kUnavailable instead of
/// letting tail latency grow without bound. The dispatcher thread
/// drains the scheduler with dynamic micro-batching (max_batch_size /
/// max_batch_wait, one tenant per batch); each micro-batch fans out
/// over the tenant's shards on the shared host thread pool and the
/// per-shard top-k lists are merged into the exact global top-k —
/// answers are bit-identical to a single-engine RunOnce over that
/// tenant's unsharded target set.
///
/// Every target set is mutable while serving: Insert/Remove buffer
/// changes in per-shard delta overlays (new points served by an exact
/// brute-force side scan merged through MergeMutableResults, deleted ids
/// tombstone-masked), and a background compactor folds over-threshold
/// overlays into freshly clustered bases off the serving path —
/// queries never block on a compaction, and every answer reflects one
/// consistent index state (mutations and swaps are serialized with
/// query groups on the tenant's index mutex). Rows are named by stable
/// ids per tenant: the initial rows get 0..rows-1 and Insert allocates
/// upward.
///
///   KnnService service(gallery, {.num_shards = 4});
///   service.CreateIndex("faces", faces_matrix, /*weight=*/4.0);
///   // from many threads:
///   std::vector<Neighbor> nn = service.Search(point, /*k=*/10).value();
///   auto fnn = service.Search({.tenant = "faces"}, point, 10);
///
/// Lock order (to keep the TSan suites meaningful): a tenant's index
/// mutex may be held while taking stats_mutex_, compact_mutex_, or the
/// manager's map mutex (never the reverse); two tenants' index mutexes
/// are never held together; cache_mutex_ never nests with any of them —
/// cache bookkeeping that needs stats releases the cache lock first.
class KnnService {
 public:
  explicit KnnService(const HostMatrix& target,
                      const ServiceConfig& config = {});
  ~KnnService();

  KnnService(const KnnService&) = delete;
  KnnService& operator=(const KnnService&) = delete;

  /// Adopts a complete shard snapshot set — including any mutation
  /// overlays (.sksnap v2) — as a new service's default tenant. The
  /// number of shards comes from the file set (config.num_shards is
  /// ignored); the fingerprints must match `config`. This is how a
  /// mutated service warm-starts exactly: SaveSnapshots + FromSnapshots
  /// round-trips every answer bit-identically.
  static Result<std::unique_ptr<KnnService>> FromSnapshots(
      const std::string& dir, const ServiceConfig& config = {});

  // -- Index management (multi-tenancy; see docs/serving.md) ----------

  /// Creates a named index over `target` with the given fair-share
  /// weight. The index is built off to the side (cold, or warm from
  /// "<snapshot_dir>/<name>/" when the bytes match) and published
  /// atomically: no query sees it half-built. InvalidArgument on a
  /// malformed or duplicate name; Unavailable when shutting down. Must
  /// not be called from a host-pool worker thread.
  Status CreateIndex(const std::string& name, const HostMatrix& target,
                     double weight = 1.0);

  /// Removes a named index. In-flight and queued requests naming it
  /// complete with NotFound; its shards die with the last reference.
  /// The default tenant cannot be dropped.
  Status DropIndex(const std::string& name);

  /// Live index names, lexicographic (always includes "default").
  std::vector<std::string> ListIndexes() const;

  /// Updates a tenant's fair-share weight (takes effect on the next
  /// scheduler round). NotFound when unknown.
  Status SetIndexWeight(const std::string& name, double weight);

  // -- Queries --------------------------------------------------------

  /// The k nearest target rows of one query point. Thread-safe; blocks
  /// until the request's micro-batch has been served (or a cache hit
  /// answers immediately). Returns Unavailable — without aborting and
  /// without side effects — if the request raced a concurrent
  /// Shutdown() (counted in stats().rejected_requests) or was shed by
  /// the max_queue_depth bound (counted in stats().shed_requests).
  Result<std::vector<Neighbor>> Search(const std::vector<float>& query_point,
                                       int k);
  /// Mode-selected Search: exact (the default above) or approx under a
  /// recall SLA. Effectively exact modes (recall_target >= 1.0) batch,
  /// cache, and answer identically to plain Search.
  Result<std::vector<Neighbor>> Search(const std::vector<float>& query_point,
                                       int k, const ann::SearchMode& mode);
  /// Tenant-qualified Search: targets opts.tenant, honors opts.timeout
  /// (kDeadlineExceeded when it expires in the queue). NotFound for
  /// unknown tenants.
  Result<std::vector<Neighbor>> Search(const CallOptions& opts,
                                       const std::vector<float>& query_point,
                                       int k);
  Result<std::vector<Neighbor>> Search(const CallOptions& opts,
                                       const std::vector<float>& query_point,
                                       int k, const ann::SearchMode& mode);

  /// The k nearest target rows for every row of `queries`, as one
  /// request (the rows always ride in the same micro-batch and the row
  /// order is preserved). Thread-safe; blocks until served. Returns
  /// Unavailable if the request raced a concurrent Shutdown() or was
  /// shed by the admission bound.
  Result<KnnResult> JoinBatch(const HostMatrix& queries, int k);
  /// Mode-selected JoinBatch; see the Search overload.
  Result<KnnResult> JoinBatch(const HostMatrix& queries, int k,
                              const ann::SearchMode& mode);
  /// Tenant-qualified JoinBatch; see the Search overload.
  Result<KnnResult> JoinBatch(const CallOptions& opts,
                              const HostMatrix& queries, int k);
  Result<KnnResult> JoinBatch(const CallOptions& opts,
                              const HostMatrix& queries, int k,
                              const ann::SearchMode& mode);

  /// Every live point within the closed ball of each query row, as one
  /// request through the admission queue (variable-cardinality rows;
  /// see common/range_result.h). Answers are bit-identical across
  /// planner routes, SIMD tiers, and shard counts. Thread-safe; blocks
  /// until served; Unavailable on shutdown/shed like JoinBatch.
  Result<RangeResult> RadiusSearch(const HostMatrix& queries, float radius);
  Result<RangeResult> RadiusSearch(const CallOptions& opts,
                                   const HostMatrix& queries, float radius);

  // -- Offline jobs (docs/modalities.md) ------------------------------

  /// Enqueues a long-running job; returns its id immediately. Jobs run
  /// one at a time on the job thread, chunked through the same
  /// weighted-fair admission queue as point lookups — lookups keep
  /// being served while a job runs. Unavailable when shutting down;
  /// NotFound for an unknown tenant; InvalidArgument on a malformed
  /// spec (kRadiusSearch without queries, kKnnGraph with k <= 0, ...).
  Result<uint64_t> SubmitJob(const JobSpec& spec);

  /// The job's state and progress. NotFound for an unknown (or already
  /// taken) id.
  Result<JobProgress> PollJob(uint64_t job_id) const;

  /// Requests cancellation. Takes effect at the next chunk boundary
  /// (kPending jobs cancel before running at all); terminal jobs are
  /// left as they ended. NotFound for an unknown id.
  Status CancelJob(uint64_t job_id);

  /// Moves a kDone job's output out and erases the job (poll/take of
  /// the id fail with NotFound afterwards). InvalidArgument while the
  /// job is pending/running/cancelled/failed.
  Result<JobOutput> TakeJobResult(uint64_t job_id);

  /// Synchronous self-join: submit + poll + take. Every unordered pair
  /// of live points within the closed radius, exactly once (a < b).
  Result<std::vector<SelfJoinPair>> SelfJoin(float radius);
  Result<std::vector<SelfJoinPair>> SelfJoin(const CallOptions& opts,
                                             float radius);

  /// Synchronous exact kNN graph over the live set: output.query_ids
  /// pairs with output.graph rows.
  Result<JobOutput> KnnGraph(int k);
  Result<JobOutput> KnnGraph(const CallOptions& opts, int k);

  // -- Mutations ------------------------------------------------------

  /// Adds a point to the serving set; returns its stable id. The point
  /// is served exactly from the next admitted query group on.
  /// Thread-safe; never blocks on a compaction. Returns Unavailable
  /// when racing a Shutdown().
  Result<uint32_t> Insert(const std::vector<float>& point);
  Result<uint32_t> Insert(const CallOptions& opts,
                          const std::vector<float>& point);

  /// Insert for many rows under one lock acquisition; returns their
  /// stable ids in row order.
  Result<std::vector<uint32_t>> InsertBatch(const HostMatrix& points);
  Result<std::vector<uint32_t>> InsertBatch(const CallOptions& opts,
                                            const HostMatrix& points);

  /// Deletes the point with this stable id. Returns true if it was
  /// live, false if unknown or already removed; Unavailable when racing
  /// a Shutdown(). Removing every point is allowed — queries then
  /// answer all padding.
  Result<bool> Remove(uint32_t id);
  Result<bool> Remove(const CallOptions& opts, uint32_t id);

  /// Synchronously folds one shard's overlay into a freshly clustered
  /// base (same protocol as the background compactor: capture under the
  /// lock, rebuild off-lock, install behind the in-flight group).
  /// Returns Unavailable if a competing compaction or swap superseded
  /// the rebuild; Ok when installed or when there was nothing to do.
  Status CompactShard(int shard);
  Status CompactShard(const std::string& tenant, int shard);
  /// CompactShard over every shard, stopping at the first error.
  Status CompactAll();
  Status CompactAll(const std::string& tenant);

  /// Rejects new requests and mutations, drains everything already
  /// admitted, and joins the dispatcher and the compactor. Idempotent;
  /// also run by the destructor. Every future admitted before the
  /// shutdown still resolves with its answer.
  void Shutdown();

  /// Persists every tenant's shards into `dir` (created if missing):
  /// the default tenant's as "shard-<s>-of-<n>.sksnap" at the root —
  /// byte-identical to the single-tenant layout — and each named
  /// tenant's under "<dir>/<tenant>/". Waits for in-flight micro-
  /// batches per tenant; safe to call while clients keep submitting.
  Status SaveSnapshots(const std::string& dir);
  /// Persists one tenant's shards into `dir` (at the root).
  Status SaveSnapshots(const std::string& tenant, const std::string& dir);

  /// Hot-swap: loads a complete shard set from `dir` (v1 or v2),
  /// re-materializes the replacement engines off to the side, then
  /// swaps them in behind the in-flight micro-batch, bumps the index
  /// generation, and clears the result cache. Every request is answered
  /// entirely by one index generation — never a mix — and answers
  /// computed against the old generation can never repopulate the cache
  /// after the swap. Pending (uncompacted) mutations of the old
  /// generation are replaced wholesale along with it. The set must have
  /// the tenant's shard count, dims, and the service's options/device
  /// fingerprints; on any failure the live index stays untouched and
  /// the error is returned. Must not be called from a host-pool worker
  /// thread (it runs its own fork-join region).
  Status SwapIndex(const std::string& dir);
  Status SwapIndex(const std::string& tenant, const std::string& dir);

  /// Consistent snapshot of the cumulative counters.
  ServiceStats stats() const;

  /// The service's metrics registry: latency histograms (queue wait,
  /// batch assembly, shard fan-out, merge, end-to-end), per-stage
  /// simulated-time counters, adaptive-decision counts,
  /// mutation/compaction counters, counter mirrors of ServiceStats,
  /// and the per-tenant labeled series (sweetknn_tenant_*{tenant="x"}).
  /// See docs/serving.md, "Metrics".
  const common::MetricsRegistry& metrics() const { return metrics_; }
  /// Registry exports with the queue-depth/peak/tenant-count gauges
  /// refreshed first. The queue-depth gauge is computed from the live
  /// scheduler size at export time only — it is never Set on the
  /// submit/dispatch paths, where two racing writers used to be able
  /// to publish a stale depth.
  std::string ExportMetricsJson() const;
  std::string ExportMetricsText() const;

  /// Test-only: invoked on the client thread after a cache-miss Search
  /// has computed its answer, immediately before the result-cache
  /// insert. Set it before any traffic; used to force the
  /// swap-vs-insert interleaving deterministically.
  void SetPreCacheInsertHookForTest(std::function<void()> hook) {
    pre_cache_insert_hook_ = std::move(hook);
  }

  /// Test-only: invoked on the dispatcher thread right after it dequeues
  /// the first request of each micro-batch, with no scheduler lock held.
  /// Lets tests park the dispatcher (submit a sentinel, block in the
  /// hook) to hold a known queue depth. Safe to set at any time.
  void SetPreDispatchHookForTest(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(hook_mutex_);
    pre_dispatch_hook_ = std::move(hook);
  }

  /// The batch router (live mode switch; route counters). Thread-safe.
  core::RoutePlanner& planner() { return planner_; }
  const core::RoutePlanner& planner() const { return planner_; }

  /// Shards of the default tenant (named tenants may clamp lower).
  int num_shards() const { return config_.num_shards; }
  /// Live rows of the default tenant: base minus tombstones plus delta.
  size_t target_rows() const;
  /// Live rows of a named tenant; NotFound when unknown.
  Result<size_t> target_rows(const std::string& tenant) const;
  size_t dims() const { return dims_; }
  const ServiceConfig& config() const { return config_; }

 private:
  struct Request {
    /// The index this request targets; pinned so a concurrent DropIndex
    /// can never pull the shards out from under a queued request.
    std::shared_ptr<TenantIndex> tenant;
    std::vector<float> rows;  ///< num_rows * dims query coordinates.
    size_t num_rows = 0;
    int k = 0;
    /// Normalized at admission (Normalize()), so grouping and caching
    /// treat approx(recall 1.0) and exact as the same traffic.
    ann::SearchMode mode;
    /// Relative deadline copied from CallOptions; 0 = none. Submit
    /// turns it into the absolute `deadline` below at admit time.
    std::chrono::microseconds timeout{0};
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point admit_time;
    std::promise<Result<KnnResult>> promise;
    /// Range requests (is_range) group on radius instead of (k, mode)
    /// and resolve range_promise; k/mode/promise are unused for them.
    bool is_range = false;
    float radius = 0.0f;
    std::promise<Result<RangeResult>> range_promise;
  };
  using RequestPtr = std::unique_ptr<Request>;

  /// One queued/running offline job (jobs_mutex_ guards everything but
  /// `cancel`, which PollJob-era readers never touch, and the job
  /// thread's private use of `output` while kRunning).
  struct Job {
    uint64_t id = 0;
    JobSpec spec;
    std::shared_ptr<TenantIndex> tenant;
    JobState state = JobState::kPending;
    uint64_t total_rows = 0;
    uint64_t done_rows = 0;
    std::string error;
    /// The chunk status that killed a kFailed job (sync wrappers
    /// propagate it verbatim).
    Status fail_status = Status::Ok();
    std::atomic<bool> cancel{false};
    std::chrono::steady_clock::time_point submit_time;
    JobOutput output;
  };

  /// Snapshot-set adoption (FromSnapshots).
  struct AdoptTag {};
  KnnService(AdoptTag, std::vector<store::IndexSnapshot> snapshots,
             const ServiceConfig& config);

  static FairScheduler<RequestPtr>::Options SchedOptions(
      const ServiceConfig& config);

  /// Registers every metric of the registry and caches the pointers.
  void InitMetrics();
  /// Registers the tenant's labeled series (TenantLabel(name)).
  void RegisterTenantMetrics(TenantIndex* tenant);
  /// Starts the dispatcher and (if configured) the compactor.
  void StartThreads();

  /// "<snapshot_dir>/<name>/" for named tenants, the root for the
  /// default tenant, "" when snapshots are not configured.
  std::string TenantSnapshotDir(const std::string& name) const;

  /// The tenant, or NotFound. Never nullptr on Ok.
  Result<std::shared_ptr<TenantIndex>> ResolveTenant(
      const std::string& name) const;

  /// Builds a complete tenant off to the side: contiguous slices,
  /// per-shard engines (warm from `snapshot_dir` when it matches, cold
  /// otherwise), id allocator, labeled metrics. Publishing it is the
  /// caller's job (IndexManager::Install + scheduler weight).
  std::shared_ptr<TenantIndex> BuildTenant(const std::string& name,
                                           double weight,
                                           const HostMatrix& target,
                                           const std::string& snapshot_dir);

  /// Admission. Fails with Unavailable — counting the rejection or the
  /// shed — when the scheduler is closed or the max_queue_depth bound
  /// bounces the request; a successful return guarantees the future
  /// resolves, because the dispatcher drains everything admitted
  /// before the close.
  Result<std::future<Result<KnnResult>>> Submit(RequestPtr request);
  /// Admission for range requests (the range twin of Submit; same
  /// shed/reject handling, resolves the range promise's future).
  Result<std::future<Result<RangeResult>>> SubmitRange(RequestPtr request);
  /// Shared admission tail: queue submit + accounting. On success the
  /// caller's pre-extracted future is valid.
  Status AdmitRequest(RequestPtr request);
  void DispatchLoop();
  /// Resolves whichever promise the request carries with `status`.
  static void FailRequest(Request* request, Status status);
  /// Completes a popped request without touching the shards when its
  /// tenant was dropped (NotFound) or its deadline expired while
  /// queued (DeadlineExceeded). True = the request was consumed.
  bool FailFast(RequestPtr* request);
  /// Runs one same-(k, mode) group of one tenant's coalesced requests
  /// through the tenant's shards and fulfills their promises. Holds the
  /// tenant's index mutex for the whole group, so a group never
  /// straddles a SwapIndex, mutation, or compaction install.
  void RunGroup(std::vector<RequestPtr> group);
  /// Runs one same-radius range group of one tenant's coalesced
  /// requests (the range twin of RunGroup; same index-mutex scope).
  void RunRangeGroup(std::vector<RequestPtr> group);
  /// Folds one range group into ServiceStats and the range metrics.
  /// Caller must NOT hold stats_mutex_.
  void RecordRangeGroupStats(size_t rows, size_t matches);
  /// Folds one engine group's shard answers into ServiceStats and the
  /// metrics registry. Host-routed shards contribute no simulated-device
  /// stats (no device ran for them) and are skipped for the adaptive-
  /// decision counters. Caller must NOT hold stats_mutex_.
  void RecordGroupStats(const std::vector<core::ShardAnswer>& answers,
                        size_t rows);

  /// The job thread: runs queued jobs one at a time, chunking each
  /// through the admission queue. See docs/modalities.md.
  void JobLoop();
  /// Executes one job end to end (chunk loop, cancel checks). Called by
  /// the job thread with no locks held; publishes progress and the
  /// terminal state under jobs_mutex_.
  void RunJob(Job* job);
  /// The tenant's live points and stable ids, globally ascending by id
  /// (per-shard ExportLive merged). Takes and releases the tenant's
  /// index mutex.
  void SnapshotLive(TenantIndex* tenant, std::vector<uint32_t>* ids,
                    HostMatrix* points) const;
  /// Blocking range scan of `queries` used by the job chunk loop:
  /// admission-queue submit + wait, like RadiusSearch.
  Result<RangeResult> RangeChunk(const std::shared_ptr<TenantIndex>& tenant,
                                 const HostMatrix& queries, float radius);
  /// Marks the job terminal and updates the job counters/gauge.
  void FinishJob(Job* job, JobState state, Status status = Status::Ok());
  /// Blocks until the job is terminal, then takes its output (kDone) or
  /// propagates the cancelled/failed status, erasing the job either way
  /// — the synchronous wrappers' tail.
  Result<JobOutput> WaitAndTake(uint64_t job_id);

  /// The background compactor: sleeps until a mutation pushes some shard
  /// over the threshold (or Shutdown), then rebuilds candidates one at a
  /// time across every tenant.
  void CompactorLoop();
  /// First over-threshold shard of this tenant with no compaction in
  /// flight, or -1.
  int PickCompactionCandidate(TenantIndex* tenant);
  /// Capture -> rebuild (off-lock) -> install for one shard. See
  /// docs/mutability.md for the protocol.
  Status CompactShardInternal(TenantIndex* tenant, int s);
  /// Wakes the compactor if `shard` warrants it. Caller holds the
  /// owning tenant's index mutex.
  void MaybeScheduleCompaction(const SweetKnnIndex& shard);
  /// Shard of `tenant` owning stable id `id`, or -1. Caller holds the
  /// tenant's index mutex.
  int OwningShard(const TenantIndex& tenant, uint32_t id) const;
  /// Marks answers computed before now as stale for the cache; the
  /// clear runs separately (ClearCache) after the index lock drops.
  void BumpCacheEpoch();
  void ClearCache();
  /// Mirrors one tenant's overlay sizes into its atomics and per-tenant
  /// gauge. Caller holds the tenant's index mutex.
  void UpdateOverlayGaugesLocked(TenantIndex* tenant);
  /// Re-sums the cross-tenant overlay gauges from the atomics (no
  /// index mutex needed).
  void RefreshGlobalOverlayGauges();

  /// Loads and fully validates "<dir>/shard-<s>-of-<num_shards>.sksnap"
  /// for every shard (files read in parallel on the host pool): shard
  /// geometry, dims (0 = adopt the files' dims), and the options/device
  /// fingerprints of `config`. Pristine sets must tile the target
  /// contiguously; sets with mutation overlays (only accepted when
  /// `allow_overlay`) are instead checked for globally unique stable
  /// ids. Nothing about the live service changes.
  static Result<std::vector<store::IndexSnapshot>> LoadShardSet(
      const std::string& dir, int num_shards, const ServiceConfig& config,
      size_t dims, bool allow_overlay);

  /// A replacement shard set materialized off to the side, ready to
  /// install. Epochs are assigned at install time (under the tenant's
  /// index mutex).
  struct ShardSet {
    std::vector<std::unique_ptr<SweetKnnIndex>> shards;
    size_t live_rows = 0;
    uint32_t next_id = 0;
  };
  /// Materializes shards from validated snapshots (restored in parallel
  /// on the host pool). Touches nothing of the live service.
  ShardSet BuildShardsFromSnapshots(
      std::vector<store::IndexSnapshot> snapshots) const;

  Status SaveTenantSnapshots(TenantIndex* tenant, const std::string& dir);
  Status SwapIndexInternal(TenantIndex* tenant, const std::string& dir);

  // LRU result cache (single-row Search results), guarded by cache_mutex_
  // and shared across tenants. Keys are tenant-prefixed, so two tenants'
  // answers for the same point bytes never collide; keys also include
  // the (normalized) mode, so exact and approx answers never collide.
  static std::string CacheKey(const std::string& tenant, const float* row,
                              size_t dims, int k,
                              const ann::SearchMode& mode);
  bool CacheLookup(const std::string& key, std::vector<Neighbor>* out);
  /// Inserts unless `epoch` (captured before the query ran) is no
  /// longer the live cache epoch — a swap, mutation, or compaction
  /// completed in between, and the value would resurrect stale
  /// neighbors into the fresh cache.
  void CacheInsert(const std::string& key, std::vector<Neighbor> value,
                   uint64_t epoch);

  ServiceConfig config_;
  size_t dims_ = 0;  ///< Default tenant's dims (legacy accessor).
  /// Routes each group's per-shard base scan; internally atomic (the
  /// dispatcher chooses while tests flip the mode).
  core::RoutePlanner planner_;

  /// The named indexes. Each TenantIndex carries its own index mutex
  /// (the per-tenant successor of the old service-wide index_mutex_).
  IndexManager manager_;
  /// The constructor's tenant; pinned so the legacy single-tenant API
  /// never pays a map lookup.
  std::shared_ptr<TenantIndex> default_tenant_;

  /// Source of shard epochs (TenantIndex::shard_epochs), shared by every
  /// tenant.
  std::atomic<uint64_t> epoch_counter_{0};
  /// Bumped by every completed SwapIndex; surfaced as a gauge.
  std::atomic<uint64_t> index_generation_{0};
  /// Bumped by every index change that invalidates computed answers:
  /// swaps, mutations, compaction installs, drops. Cache inserts tagged
  /// with an older epoch are dropped (see CacheInsert).
  std::atomic<uint64_t> cache_epoch_{0};

  /// The weighted-fair admission scheduler (replaces the old single
  /// FIFO BlockingQueue).
  FairScheduler<RequestPtr> queue_;
  std::thread dispatcher_;

  /// Compactor wake-up state. compact_mutex_ may be taken while holding
  /// a tenant's index mutex (mutations scheduling work), never the
  /// reverse — the compactor drops it before touching any index.
  std::mutex compact_mutex_;
  std::condition_variable compact_cv_;
  bool compact_pending_ = false;
  bool compactor_stop_ = false;
  std::thread compactor_;
  /// Set by Shutdown before the queue closes; mutations check it.
  std::atomic<bool> stopping_{false};

  /// Offline-job state. jobs_mutex_ is a leaf lock: never held while
  /// taking a tenant's index mutex, the scheduler, or any other service
  /// lock (the job thread drops it before touching the index).
  mutable std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::unordered_map<uint64_t, std::unique_ptr<Job>> jobs_;
  std::vector<uint64_t> pending_jobs_;  // FIFO by submit order
  uint64_t next_job_id_ = 1;
  bool jobs_stop_ = false;
  std::thread job_thread_;

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;  // guarded by stats_mutex_ (except peak_queue_depth
                        // and the overlay gauges, read at snapshot time)

  common::MetricsRegistry metrics_;
  // Cached registry pointers (stable for the registry's lifetime).
  common::Counter* m_requests_ = nullptr;
  common::Counter* m_queries_ = nullptr;
  common::Counter* m_rejected_ = nullptr;
  common::Counter* m_shed_requests_ = nullptr;
  common::Counter* m_deadline_exceeded_ = nullptr;
  common::Counter* m_batches_ = nullptr;
  common::Counter* m_engine_groups_ = nullptr;
  common::Counter* m_batched_queries_ = nullptr;
  common::Counter* m_cache_lookups_ = nullptr;
  common::Counter* m_cache_hits_ = nullptr;
  common::Counter* m_cache_stale_drops_ = nullptr;
  common::Counter* m_index_swaps_ = nullptr;
  common::Counter* m_distance_calcs_ = nullptr;
  common::Counter* m_sim_level1_ = nullptr;
  common::Counter* m_sim_level2_ = nullptr;
  common::Counter* m_sim_transfer_ = nullptr;
  common::Counter* m_sim_preprocess_ = nullptr;
  common::Counter* m_sim_total_ = nullptr;
  common::Counter* m_sim_critical_ = nullptr;
  common::Counter* m_filter_full_ = nullptr;
  common::Counter* m_filter_partial_ = nullptr;
  common::Counter* m_placement_global_ = nullptr;
  common::Counter* m_placement_shared_ = nullptr;
  common::Counter* m_placement_registers_ = nullptr;
  common::Counter* m_inserts_ = nullptr;
  common::Counter* m_removes_ = nullptr;
  common::Counter* m_remove_misses_ = nullptr;
  common::Counter* m_compactions_ = nullptr;
  common::Counter* m_compaction_aborts_ = nullptr;
  common::Counter* m_compacted_rows_ = nullptr;
  common::Counter* m_planner_device_routes_ = nullptr;
  common::Counter* m_planner_host_routes_ = nullptr;
  common::Histogram* m_route_device_seconds_ = nullptr;
  common::Histogram* m_route_host_seconds_ = nullptr;
  common::Histogram* m_compaction_seconds_ = nullptr;
  common::Histogram* m_threads_per_query_ = nullptr;
  common::Histogram* m_queue_wait_ = nullptr;
  common::Histogram* m_batch_assembly_ = nullptr;
  common::Histogram* m_shard_fanout_ = nullptr;
  common::Histogram* m_merge_ = nullptr;
  common::Histogram* m_request_latency_ = nullptr;
  common::Histogram* m_batch_rows_ = nullptr;
  common::Counter* m_range_groups_ = nullptr;
  common::Counter* m_range_queries_ = nullptr;
  common::Counter* m_range_matches_ = nullptr;
  common::Counter* m_jobs_submitted_ = nullptr;
  common::Counter* m_jobs_completed_ = nullptr;
  common::Counter* m_jobs_cancelled_ = nullptr;
  common::Counter* m_jobs_failed_ = nullptr;
  common::Histogram* m_job_seconds_ = nullptr;
  common::Gauge* m_active_jobs_ = nullptr;
  common::Counter* m_approx_groups_ = nullptr;
  common::Counter* m_approx_queries_ = nullptr;
  common::Counter* m_ann_hops_ = nullptr;
  common::Counter* m_ann_candidates_ = nullptr;
  common::Counter* m_recall_probes_ = nullptr;
  common::Histogram* m_recall_estimate_ = nullptr;
  common::Gauge* m_queue_depth_ = nullptr;
  common::Gauge* m_peak_queue_depth_ = nullptr;
  common::Gauge* m_tenants_ = nullptr;
  common::Gauge* m_index_generation_ = nullptr;
  common::Gauge* m_delta_points_ = nullptr;
  common::Gauge* m_tombstones_ = nullptr;
  common::Gauge* m_live_rows_ = nullptr;

  /// Approx groups seen by the dispatcher (recall-probe cadence).
  /// Dispatcher-thread only.
  uint64_t approx_group_counter_ = 0;

  std::function<void()> pre_cache_insert_hook_;
  /// Guarded by hook_mutex_ (the dispatcher copies it per batch, so a
  /// test may install it while traffic is flowing).
  mutable std::mutex hook_mutex_;
  std::function<void()> pre_dispatch_hook_;

  std::mutex cache_mutex_;
  std::list<std::string> lru_;  // front = most recent
  struct CacheEntry {
    std::list<std::string>::iterator lru_pos;
    std::vector<Neighbor> neighbors;
  };
  std::unordered_map<std::string, CacheEntry> cache_;
};

}  // namespace sweetknn::serve

#endif  // SWEETKNN_SERVE_KNN_SERVICE_H_
