#ifndef SWEETKNN_SERVE_ROUTER_H_
#define SWEETKNN_SERVE_ROUTER_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/metrics.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/wire.h"
#include "serve/knn_service.h"

namespace sweetknn::serve {

/// Knobs of the cluster front-end (docs/distributed.md).
struct RouterConfig {
  /// The serving knobs shared with the in-process backend: num_shards,
  /// micro-batching, options/device/planner mode, dataset_name.
  /// cache_capacity, snapshot_dir, auto_compact and
  /// compact_delta_fraction are ignored (the router has no result cache
  /// and compacts only explicitly).
  ServiceConfig service;
  /// Worker processes. Clamped to [1, num_shards]; shard s's primary is
  /// worker s % num_workers.
  int num_workers = 2;
  /// Extra copies of each shard on distinct workers (clamped to
  /// num_workers - 1). With replicas >= 1 a worker death fails over:
  /// the replica is promoted and the group retried, bit-identically.
  int replicas = 0;
  /// Per-RPC budget (send + reply). A worker that misses it is declared
  /// dead — SIGSTOP wedges and SIGKILLs look the same from here.
  std::chrono::milliseconds rpc_timeout{10000};
  /// Budget for prepare RPCs (cold builds cluster the whole slice) and
  /// for replica catch-up (save + adopt a snapshot).
  std::chrono::milliseconds prepare_timeout{120000};
  /// The worker executable, exec'd as
  /// "<worker_binary> shard-worker --socket=<path>". Tests and the CLI
  /// pass the sweetknn_cli binary.
  std::string worker_binary;
  /// Sockets and catch-up snapshots live here; created (and removed at
  /// Shutdown) when empty: a fresh directory under TMPDIR.
  std::string work_dir;
  /// Named index this cluster serves. Rides every prepare and query
  /// frame; workers record it at prepare time and reject queries naming
  /// a different one (one tenant per cluster today; docs/serving.md).
  std::string tenant = kDefaultTenant;
};

/// Cumulative cluster counters, the router-side subset of ServiceStats
/// plus the failure-path counters the cluster adds.
struct RouterStats {
  uint64_t requests = 0;
  uint64_t queries = 0;
  uint64_t rejected_requests = 0;
  uint64_t batches = 0;
  uint64_t engine_groups = 0;
  uint64_t batched_queries = 0;
  uint64_t inserts = 0;
  uint64_t removes = 0;
  uint64_t remove_misses = 0;
  uint64_t compactions = 0;
  /// Workers declared dead (timeout, transport error, or bad reply).
  uint64_t worker_deaths = 0;
  /// RPCs that missed their deadline.
  uint64_t rpc_timeouts = 0;
  /// Query groups re-fanned after a failover.
  uint64_t retried_groups = 0;
  /// Replicas re-established by RestoreReplication.
  uint64_t replicas_restored = 0;
  /// Completed cluster jobs (RadiusSearch / SelfJoin / KnnGraph).
  uint64_t jobs = 0;
};

/// The multi-process cluster front-end: KnnService's dispatch/merge
/// logic over shard-worker processes instead of in-process threads
/// (docs/distributed.md).
///
/// Start() spawns num_workers worker processes, connects to each over a
/// unix socket, and cold-builds the same contiguous target slices
/// KnnService would build, placing shard s's primary on worker s % W and
/// its replicas on the following workers. Search/JoinBatch admit into
/// the same micro-batching dispatcher (max_batch_size / max_batch_wait,
/// per-k groups); each group fans out one Query RPC per primary worker
/// and the per-shard answers are merged with core::MergeShardAnswers —
/// the identical exact merge the in-process backend runs, so cluster
/// answers are bit-identical to a local KnnService over the same target
/// and mutation sequence (tests/integration/cluster_differential_test.cc
/// proves this byte for byte, across worker counts and through worker
/// kills).
///
/// Mutations mirror KnnService's semantics: Insert allocates stable ids
/// upward and lands id on shard id % S; Remove resolves its owner
/// deterministically (initial rows by slice, inserted rows by modulo);
/// both are applied to the primary and every replica of the shard, so
/// replicas track primaries exactly. CompactShard runs the same
/// capture/rebuild/install protocol on every host of the shard.
///
/// Failure handling: every RPC carries rpc_timeout. A worker that times
/// out, drops its connection, or answers garbage is declared dead
/// (SIGKILLed for good measure); its primaries fail over to their
/// replicas and the in-flight group is re-fanned — callers just see the
/// answer, a little later. A shard with no live host left fails requests
/// with Unavailable. RestoreReplication() re-establishes missing
/// replicas on surviving workers via snapshot catch-up (primary exports
/// a .sksnap, the new host adopts it).
///
/// Thread model: Search/JoinBatch/Insert/Remove/Compact* are
/// thread-safe. mutex_ serializes query groups, mutations, and topology
/// changes (failover, catch-up) — one consistent cluster state per
/// answer, like index_mutex_ in KnnService.
class Router {
 public:
  /// Spawns and prepares the cluster. On any spawn/connect/prepare
  /// failure every already-started worker is torn down and the error
  /// returned.
  static Result<std::unique_ptr<Router>> Start(const HostMatrix& target,
                                               const RouterConfig& config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// The k nearest target rows of one query point. Blocks until the
  /// micro-batch holding it has been served.
  Result<std::vector<Neighbor>> Search(const std::vector<float>& query_point,
                                       int k);
  /// Mode-selected Search: exact (the default above) or approx under a
  /// recall SLA, answered by the workers' ANN tier (requires
  /// service.enable_ann; approx against graph-free workers falls back to
  /// the exact path shard by shard).
  Result<std::vector<Neighbor>> Search(const std::vector<float>& query_point,
                                       int k, const ann::SearchMode& mode);
  /// The k nearest target rows for every row of `queries`, as one
  /// request (rows ride in one micro-batch, order preserved).
  Result<KnnResult> JoinBatch(const HostMatrix& queries, int k);
  /// Mode-selected JoinBatch; see the Search overload.
  Result<KnnResult> JoinBatch(const HostMatrix& queries, int k,
                              const ann::SearchMode& mode);

  // -- Offline jobs (docs/modalities.md) ------------------------------
  // Each runs as a wire-level job on every primary worker (kJobSubmit /
  // kJobPoll / kJobResult; one chunk per poll) and merges the per-worker
  // stable-id answers with the same reductions KnnService applies —
  // cluster job answers are bit-identical to local ones. The calls are
  // synchronous and serialize with queries and mutations on the
  // cluster mutex (one consistent cluster state per job). A worker
  // death mid-job fails the job with Unavailable (jobs are not
  // re-fanned; the caller simply resubmits).

  /// Every live point within the closed ball of each query row.
  Result<RangeResult> RadiusSearch(const HostMatrix& queries, float radius);
  /// Every unordered live pair within `radius`, once per pair (a < b).
  Result<std::vector<SelfJoinPair>> SelfJoin(float radius);
  /// Exact kNN graph over the live set; output.query_ids pairs with
  /// output.graph rows, ascending stable-id order.
  Result<JobOutput> KnnGraph(int k);

  /// Adds a point; returns its stable id (same allocation sequence as
  /// KnnService::Insert). Applied to the shard's primary and replicas.
  Result<uint32_t> Insert(const std::vector<float>& point);
  /// Deletes a stable id. True if it was live, false if unknown or
  /// already removed.
  Result<bool> Remove(uint32_t id);

  /// Synchronously folds shard `shard`'s overlay into a fresh base on
  /// every host of the shard.
  Status CompactShard(int shard);
  Status CompactAll();

  /// Re-establishes missing replicas (after worker deaths) on surviving
  /// workers: the primary exports a snapshot into work_dir, the new host
  /// adopts it. No-op for shards already at full replication; error if
  /// a shard has fewer live hosts than possible candidates allow.
  Status RestoreReplication();

  /// Rejects new work, drains admitted requests, stops every worker
  /// (Shutdown RPC, then waitpid with a SIGKILL fallback), and removes
  /// the work directory if this router created it. Idempotent; also run
  /// by the destructor.
  void Shutdown();

  RouterStats stats() const;
  /// Cluster metrics: the per-worker health/latency series
  /// ("sweetknn_router_worker<w>_..." — RPC latency histogram, RPC and
  /// failure counters, liveness gauge) plus router-level counters and
  /// latency histograms, all through the PR-4 registry.
  const common::MetricsRegistry& metrics() const { return metrics_; }
  std::string ExportMetricsJson() const;

  int num_shards() const { return num_shards_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  size_t dims() const { return dims_; }
  size_t target_rows() const;
  /// False once the router has declared worker `w` dead.
  bool worker_alive(int w) const;
  /// The worker's process id — tests kill/SIGSTOP it to drive failover.
  pid_t worker_pid(int w) const;
  /// Asks worker `w` for the names of the indexes it hosts (the
  /// kListIndexes RPC) — the wire-level counterpart of
  /// KnnService::ListIndexes.
  Result<std::vector<std::string>> ListWorkerIndexes(int w);

 private:
  struct Request {
    std::vector<float> rows;
    size_t num_rows = 0;
    int k = 0;
    /// Normalized at admission, like KnnService's.
    ann::SearchMode mode;
    std::chrono::steady_clock::time_point admit_time;
    /// Unlike KnnService's, a group can fail here (every host of a shard
    /// dead), so the promise carries a Result.
    std::promise<Result<KnnResult>> promise;
  };
  using RequestPtr = std::unique_ptr<Request>;

  /// One in-flight RPC's resolution, pushed by the worker's IO thread.
  struct RpcReply {
    int worker = -1;
    net::Frame frame;
    Status status;  ///< Transport-level; the frame may still be kError.
  };
  using ReplyQueue = common::BlockingQueue<RpcReply>;

  /// One pending RPC in a worker's outbox.
  struct Call {
    uint32_t type = 0;
    std::string payload;
    std::chrono::milliseconds timeout{0};
    std::shared_ptr<ReplyQueue> reply_to;
  };

  /// One worker process: its pipe to the world. The IO thread drains the
  /// outbox strictly in order — the protocol is synchronous
  /// request/reply per connection, so the first transport failure (or
  /// timeout) poisons the channel: the connection closes and every later
  /// call fails fast. A poisoned channel never desynchronizes (a late
  /// reply to call N can never be taken for a reply to call N+1).
  class WorkerChannel {
   public:
    WorkerChannel(int index, pid_t pid, net::Connection conn,
                  common::Histogram* rpc_seconds, common::Counter* rpcs,
                  common::Counter* failures);
    ~WorkerChannel();

    /// Enqueues an RPC; the reply (or its failure) lands in
    /// `call.reply_to`. False once the channel is closed for shutdown.
    bool Submit(Call call);
    /// Poisons the channel from outside (failover): pending and future
    /// calls fail with Unavailable, the socket closes (unblocking any
    /// in-flight poll).
    void Poison();
    /// Stops accepting calls, drains the outbox (failing what's left),
    /// and joins the IO thread.
    void Join();

    int index() const { return index_; }
    pid_t pid() const { return pid_; }

   private:
    void IoLoop();

    const int index_;
    const pid_t pid_;
    net::Connection conn_;
    std::atomic<bool> poisoned_{false};
    common::BlockingQueue<Call> outbox_;
    common::Histogram* rpc_seconds_;
    common::Counter* rpcs_;
    common::Counter* failures_;
    std::thread io_;
  };

  Router(const RouterConfig& config, size_t dims, size_t rows);

  void InitMetrics();

  /// Spawn + connect + prepare, factored out of Start(). On error the
  /// caller tears the router down.
  Status Bootstrap(const HostMatrix& target);
  Result<pid_t> SpawnWorker(const std::string& socket_path) const;

  Result<std::future<Result<KnnResult>>> Submit(RequestPtr request);
  void DispatchLoop();
  void RunGroup(std::vector<RequestPtr> group);
  /// One fan-out attempt over the current placement. Fills `answers`
  /// (indexed by shard) on success; on failure records the workers to
  /// declare dead in `failed`. Caller holds mutex_.
  bool TryFanout(const HostMatrix& queries, int k,
                 const ann::SearchMode& mode,
                 std::vector<core::ShardAnswer>* answers,
                 std::vector<int>* failed);

  /// Sends one RPC to worker `w` and waits for its reply frame,
  /// expecting `expect_type` (or kError, decoded into the Status).
  /// Caller holds mutex_ for placement-dependent calls.
  Result<net::Frame> CallWorker(int w, net::MsgType type,
                                std::string payload,
                                std::chrono::milliseconds timeout,
                                net::MsgType expect_type);

  /// Declares a worker dead: poisons its channel, SIGKILLs the process,
  /// promotes replicas of its primaries, drops it from replica lists.
  /// Caller holds mutex_.
  void MarkWorkerDeadLocked(int w, const std::string& why);

  /// Bumps the RPC-timeout counter + stats. Called both when the
  /// router-side reply wait expires and when a channel IO thread
  /// reports DeadlineExceeded for an individual call (the channel
  /// enforces the same deadline and usually loses the race by less).
  void NoteRpcTimeout();

  /// Every live host of shard `s`, primary first. Caller holds mutex_.
  std::vector<int> ShardHostsLocked(int s) const;
  /// Deterministic owner of stable id `id` (initial rows by slice,
  /// inserted rows by modulo) — no broadcast needed. Caller holds mutex_.
  int OwningShardLocked(uint32_t id) const;

  /// Applies one mutation RPC to every live host of shard `s`, marking
  /// failed hosts dead. Returns the primary's reply, or Unavailable when
  /// no host is left. Caller holds mutex_.
  Result<net::Frame> MutateShardLocked(int s, net::MsgType type,
                                       const std::string& payload,
                                       net::MsgType expect_type);

  /// The job fan-out plan: (worker, its primary shards), ascending by
  /// worker, every shard covered exactly once. Unavailable when a shard
  /// has no live host. Caller holds mutex_.
  Result<std::vector<std::pair<int, std::vector<uint32_t>>>> JobPlanLocked()
      const;

  /// Runs one wire-level job over `plan` to completion: submit on every
  /// worker, poll rounds (each poll advances a worker by one chunk),
  /// result fetch. Fills `replies` in plan order. On any worker failure
  /// the job is cancelled on the survivors and the error returned (the
  /// failing worker is declared dead on transport-level errors). Caller
  /// holds mutex_.
  Status RunWireJobLocked(
      net::WireJobKind kind, float radius, uint32_t k,
      const HostMatrix& queries,
      const std::vector<std::pair<int, std::vector<uint32_t>>>& plan,
      std::vector<net::JobResultReply>* replies);

  /// The cluster's live points in globally ascending stable-id order
  /// (kExportLive per worker + merge) — the query source of SelfJoin
  /// and KnnGraph, mirroring KnnService::SnapshotLive. Caller holds
  /// mutex_.
  Status ExportLiveLocked(
      const std::vector<std::pair<int, std::vector<uint32_t>>>& plan,
      std::vector<uint32_t>* ids, HostMatrix* points);

  /// Bumps the completed-jobs counter + stats.
  void NoteJobDone();

  RouterConfig config_;
  size_t dims_ = 0;
  int num_shards_ = 0;
  /// First global row of each initial slice (Remove's owner lookup).
  std::vector<uint32_t> shard_offsets_;
  /// Rows the constructor's target held (ids 0..n0-1 are slice-owned).
  uint32_t initial_rows_ = 0;
  bool own_work_dir_ = false;

  /// Guards placement (primary_, replicas_, alive_), next_id_,
  /// target_rows_, and serializes query groups with mutations and
  /// failovers — the cluster's index_mutex_.
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<WorkerChannel>> workers_;
  std::vector<bool> alive_;
  std::vector<int> primary_;                ///< shard -> worker, -1 = lost
  std::vector<std::vector<int>> replicas_;  ///< shard -> replica workers
  uint32_t next_id_ = 0;
  size_t target_rows_ = 0;
  uint64_t catchup_counter_ = 0;  ///< names catch-up snapshot files
  uint64_t next_wire_job_id_ = 1;  ///< names cluster jobs on the wire

  common::BlockingQueue<RequestPtr> queue_;
  std::thread dispatcher_;
  std::atomic<bool> stopping_{false};
  bool shut_down_ = false;

  mutable std::mutex stats_mutex_;
  RouterStats stats_;

  common::MetricsRegistry metrics_;
  common::Counter* m_requests_ = nullptr;
  common::Counter* m_queries_ = nullptr;
  common::Counter* m_rejected_ = nullptr;
  common::Counter* m_batches_ = nullptr;
  common::Counter* m_engine_groups_ = nullptr;
  common::Counter* m_batched_queries_ = nullptr;
  common::Counter* m_inserts_ = nullptr;
  common::Counter* m_removes_ = nullptr;
  common::Counter* m_remove_misses_ = nullptr;
  common::Counter* m_compactions_ = nullptr;
  common::Counter* m_worker_deaths_ = nullptr;
  common::Counter* m_rpc_timeouts_ = nullptr;
  common::Counter* m_retried_groups_ = nullptr;
  common::Counter* m_replicas_restored_ = nullptr;
  common::Counter* m_jobs_ = nullptr;
  common::Histogram* m_queue_wait_ = nullptr;
  common::Histogram* m_merge_ = nullptr;
  common::Histogram* m_request_latency_ = nullptr;
  common::Gauge* m_workers_alive_ = nullptr;
  // Per-worker series, indexed by worker ("sweetknn_router_worker<w>_...").
  std::vector<common::Histogram*> m_worker_rpc_seconds_;
  std::vector<common::Counter*> m_worker_rpcs_;
  std::vector<common::Counter*> m_worker_failures_;
  std::vector<common::Gauge*> m_worker_alive_;
};

}  // namespace sweetknn::serve

#endif  // SWEETKNN_SERVE_ROUTER_H_
