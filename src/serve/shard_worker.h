#ifndef SWEETKNN_SERVE_SHARD_WORKER_H_
#define SWEETKNN_SERVE_SHARD_WORKER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/knn_result.h"
#include "common/range_result.h"
#include "common/status.h"
#include "core/route_planner.h"
#include "core/sweet_knn.h"
#include "net/frame.h"
#include "net/wire.h"

namespace sweetknn::serve {

/// One worker process of the shard cluster: hosts a set of shard
/// indexes (SweetKnnIndex, core/sweet_knn.h, one per target slice) and
/// serves the router's framed RPCs over a unix socket (net/wire.h,
/// docs/distributed.md). The worker is the remote counterpart of
/// KnnService's in-process fan-out — both backends run the identical
/// SweetKnnIndex code against identical state, which is what makes
/// cluster answers bit-identical to local ones.
///
/// Thread model: strictly single-threaded. One connection (the router),
/// one request in flight at a time, replies in request order. The router
/// serializes all mutations and query groups on its own mutex anyway, so
/// per-worker concurrency would buy nothing and cost the determinism the
/// differential harness depends on. Shard engines run with sim_threads=1
/// like KnnService's (bit-identical at any worker count, but the
/// fan-out across workers is already the parallel axis).
///
/// Protocol errors split two ways: a malformed or inapplicable request
/// (bad payload, unknown shard) is answered with an Error frame and the
/// loop continues; a transport failure (peer gone, send timeout) ends
/// Run(). A clean EOF — the router closed the connection or died — is a
/// normal exit, not an error.
class ShardWorker {
 public:
  explicit ShardWorker(std::string socket_path);

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Binds the socket, accepts the router, and serves until a kShutdown
  /// request, peer EOF, or a transport error. Returns Ok on the first
  /// two.
  Status Run();

 private:
  /// Computes the reply frame for one request. Never fails: handler
  /// errors become Error frames.
  net::Frame Dispatch(const net::Frame& request, bool* shutdown);

  Status HandlePrepareCold(const std::string& payload);
  Status HandlePrepareSnapshot(const std::string& payload);
  Status HandleQuery(const std::string& payload, net::Frame* reply);
  Status HandleInsert(const std::string& payload);
  Status HandleRemove(const std::string& payload, net::Frame* reply);
  Status HandleCompact(const std::string& payload);
  Status HandleSaveShard(const std::string& payload);
  net::Frame HandleHealth() const;
  net::Frame HandleListIndexes() const;

  // Offline jobs (docs/modalities.md): the worker holds one job slot
  // that each poll advances by one chunk — bounded work per RPC, so the
  // serve loop stays responsive between polls.
  Status HandleJobSubmit(const std::string& payload);
  Status HandleJobPoll(const std::string& payload, net::Frame* reply);
  net::Frame HandleJobCancel(const std::string& payload);
  Status HandleJobResult(const std::string& payload, net::Frame* reply);
  Status HandleExportLive(const std::string& payload, net::Frame* reply);

  /// The shard named by a request, or nullptr (callers answer NotFound).
  SweetKnnIndex* FindShard(uint32_t shard_index);

  /// The worker's single active job: the submit request plus the
  /// accumulated stable-id answer (range rows or knn rows, merged over
  /// this worker's shards chunk by chunk).
  struct WorkerJob {
    net::JobSubmitRequest spec;
    uint64_t done_rows = 0;
    bool failed = false;
    std::string error;
    RangeResult range;
    KnnResult knn;
  };

  /// Advances the active job by one chunk; a handler error marks the
  /// job failed instead of erroring the poll RPC.
  void AdvanceJob();

  std::string socket_path_;

  /// Routes every shard's base scan; built from the first prepare RPC
  /// (each shard index keeps its own device, engine and ANN config).
  std::unique_ptr<core::RoutePlanner> planner_;
  /// The named index this worker's shards belong to, adopted from the
  /// first prepare. Every later prepare must name the same tenant, and
  /// queries naming a different one are rejected — the cluster serves
  /// one tenant per worker set today, and this pins that invariant on
  /// the wire instead of by convention.
  std::string tenant_ = "default";

  /// Hosted shards by global shard index (primaries and replicas look
  /// identical here; the role lives in the router's placement tables).
  std::map<uint32_t, std::unique_ptr<SweetKnnIndex>> shards_;
  size_t dims_ = 0;
  uint64_t queries_served_ = 0;
  /// Active job, nullptr when idle (at most one per worker).
  std::unique_ptr<WorkerJob> job_;
};

}  // namespace sweetknn::serve

#endif  // SWEETKNN_SERVE_SHARD_WORKER_H_
