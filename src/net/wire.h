#ifndef SWEETKNN_NET_WIRE_H_
#define SWEETKNN_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ann/knn_graph.h"
#include "ann/search_mode.h"
#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/range_result.h"
#include "common/status.h"
#include "core/options.h"
#include "core/route_planner.h"
#include "core/shard_merge.h"
#include "gpusim/device_spec.h"

namespace sweetknn::net {

/// RPC message types carried in the frame header (docs/distributed.md).
/// Payloads are encoded with the .sksnap payload codec
/// (store/payload_io.h): native-endian scalars, u64-length-prefixed
/// strings and arrays, every decoder bounds-checked.
enum class MsgType : uint32_t {
  kError = 1,  ///< Any request may be answered with an Error payload.
  kAck = 2,    ///< Empty payload: the request succeeded.

  kPrepareCold = 10,      ///< Build one shard from a target slice.
  kPrepareSnapshot = 11,  ///< Adopt one shard from a .sksnap file.

  kQuery = 20,  ///< One same-k group against this worker's shards.
  kQueryReply = 21,

  kInsert = 30,  ///< Append one point to a shard's delta.
  kRemove = 31,
  kRemoveReply = 32,
  kCompact = 33,  ///< Synchronously fold one shard's overlay.

  kSaveShard = 40,  ///< Export one shard as a .sksnap (replica catch-up).

  kHealth = 50,
  kHealthReply = 51,

  kShutdown = 60,  ///< Worker acks, then exits its serve loop.

  kListIndexes = 70,  ///< Names of the indexes this worker hosts.
  kListIndexesReply = 71,

  // Offline jobs (docs/modalities.md): the router drives a worker-side
  // job slot through submit / poll / cancel / result. Each poll advances
  // the job by one chunk — bounded work per RPC, so the worker's
  // single-threaded serve loop stays responsive to point lookups.
  kJobSubmit = 80,
  kJobPoll = 81,
  kJobPollReply = 82,
  kJobCancel = 83,
  kJobResult = 84,
  kJobResultReply = 85,
  kExportLive = 86,  ///< Live ids + points of the named shards.
  kExportLiveReply = 87,
};

// --- Prepare ----------------------------------------------------------------

/// Cold-builds one shard on the worker: PrepareTarget over `slice`, which
/// covers global rows [offset, offset + slice.rows()). The options /
/// device / planner blocks ride in every prepare so a bare worker process
/// needs no configuration of its own.
struct PrepareColdRequest {
  uint32_t shard_index = 0;
  uint64_t offset = 0;
  HostMatrix slice;
  core::TiOptions options;
  gpusim::DeviceSpec device;
  core::PlannerConfig planner;
  /// ANN tier (docs/approx.md): when enabled the worker builds the
  /// kNN graph right after the cold build, with these NN-descent knobs.
  bool enable_ann = false;
  ann::GraphBuildParams ann_params;
  /// Named index this shard belongs to (docs/serving.md). The distributed
  /// tier serves one tenant per cluster today; workers record the name at
  /// prepare time and reject queries that name a different one.
  std::string tenant = "default";
};

/// Warm-starts (or replica-catches-up) one shard from a snapshot file the
/// worker reads itself — the bulk bytes never cross the socket twice.
/// The snapshot's fingerprints must match `options`/`device`.
struct PrepareSnapshotRequest {
  uint32_t shard_index = 0;
  std::string path;
  core::TiOptions options;
  gpusim::DeviceSpec device;
  core::PlannerConfig planner;
  /// ANN tier: adopt the snapshot's persisted graph when present (v3),
  /// rebuild otherwise.
  bool enable_ann = false;
  ann::GraphBuildParams ann_params;
  /// Named index this shard belongs to (see PrepareColdRequest::tenant).
  std::string tenant = "default";
};

// --- Query ------------------------------------------------------------------

/// One same-k query group, fanned to every shard this worker hosts that
/// appears in `shard_indices` (the router names them so a replica host
/// answers only for the shards it is primary of).
struct QueryRequest {
  uint32_t k = 0;
  HostMatrix queries;
  std::vector<uint32_t> shard_indices;
  /// Per-group search mode (normalized by the router); every named shard
  /// answers under the same mode, exactly like the in-process groups.
  ann::SearchMode mode;
  /// Named index the group targets. Workers answer only for the tenant
  /// they were prepared with — a mismatch is an InvalidArgument error
  /// frame, never a silent cross-tenant answer.
  std::string tenant = "default";
};

/// Per-shard answers, parallel to `shard_indices`.
struct QueryReply {
  std::vector<uint32_t> shard_indices;
  std::vector<core::ShardAnswer> answers;
};

// --- Mutations --------------------------------------------------------------

struct InsertRequest {
  uint32_t shard_index = 0;
  uint32_t id = 0;  ///< Stable id, allocated by the router.
  std::vector<float> point;
};

struct RemoveRequest {
  uint32_t shard_index = 0;
  uint32_t id = 0;
};

struct RemoveReply {
  bool found = false;
};

struct CompactRequest {
  uint32_t shard_index = 0;
};

// --- Snapshots / health -----------------------------------------------------

/// Exports one shard to `path` as a .sksnap the PrepareSnapshot of
/// another worker can adopt (replica catch-up; docs/distributed.md).
struct SaveShardRequest {
  uint32_t shard_index = 0;
  /// Global shard count, recorded as the snapshot's shard geometry.
  uint32_t shard_count = 1;
  std::string path;
  std::string dataset_name;
  /// The router's global id allocator position, recorded in mutated
  /// snapshots (must exceed every id in the file).
  uint32_t next_id = 0;
};

/// Names of the indexes a worker hosts (kListIndexes has an empty
/// payload). One name per distinct tenant across the hosted shards —
/// today at most one, but the wire shape already carries many.
struct ListIndexesReply {
  std::vector<std::string> names;
};

// --- Offline jobs -----------------------------------------------------------

/// The two scan primitives a worker job executes. The modality split
/// (radius search / self-join / kNN graph) lives at the router: a
/// self-join is a range job whose answers the router pair-filters, a
/// graph build is a knn job at k + 1 whose answers it self-drops —
/// identical to the in-process KnnService reductions.
enum class WireJobKind : uint32_t { kRange = 0, kKnn = 1 };

/// A worker job's lifecycle on the wire. There is no pending state: a
/// submitted job is running from its first poll.
enum class WireJobState : uint32_t { kRunning = 0, kDone = 1, kFailed = 2 };

/// Installs one job in the worker's single job slot. The worker rejects
/// a submit while another job id is active (the router runs at most one
/// cluster job at a time per worker).
struct JobSubmitRequest {
  uint64_t job_id = 0;  ///< Router-allocated, echoed by every poll.
  WireJobKind kind = WireJobKind::kRange;
  float radius = 0.0f;  ///< kRange: closed-ball radius.
  uint32_t k = 0;       ///< kKnn: neighbors per query row.
  HostMatrix queries;
  /// Shards this worker answers for (primaries only, like QueryRequest).
  std::vector<uint32_t> shard_indices;
  /// Query rows advanced per poll.
  uint32_t chunk_rows = 64;
  std::string tenant = "default";
};

struct JobPollRequest {
  uint64_t job_id = 0;
};

struct JobPollReply {
  WireJobState state = WireJobState::kRunning;
  uint64_t total_rows = 0;
  uint64_t done_rows = 0;
  std::string error;  ///< Set when state == kFailed.
};

/// Drops the job (idempotent: unknown ids ack too — the router cancels
/// on cleanup paths where the worker may already have forgotten it).
struct JobCancelRequest {
  uint64_t job_id = 0;
};

struct JobResultRequest {
  uint64_t job_id = 0;
};

/// The finished job's accumulated answer in stable-id space, merged
/// over the worker's shards (MergeRangeShardAnswers / MergeShardAnswers
/// — the same exact merges the in-process backend runs per chunk). The
/// router merges these across workers.
struct JobResultReply {
  WireJobKind kind = WireJobKind::kRange;
  RangeResult range;  ///< kRange: one row per query row.
  KnnResult knn;      ///< kKnn: stable-id top-k rows.
};

/// Asks for the live points of the named shards — the query source of
/// the router's self-join and kNN-graph jobs (the cluster counterpart
/// of SweetKnnIndex::ExportLive).
struct ExportLiveRequest {
  std::vector<uint32_t> shard_indices;
  std::string tenant = "default";
};

/// Parallel ids/points, ascending id within each shard; the router
/// re-sorts globally.
struct ExportLiveReply {
  std::vector<uint32_t> ids;
  HostMatrix points;
};

struct HealthReply {
  uint64_t queries_served = 0;
  struct ShardHealth {
    uint32_t index = 0;
    uint64_t base_rows = 0;
    uint64_t delta_points = 0;
    uint64_t tombstones = 0;
    uint64_t live_rows = 0;
  };
  std::vector<ShardHealth> shards;
};

// --- Codecs -----------------------------------------------------------------
// Every message has an Encode producing the frame payload and a Decode
// that rejects malformed payloads with a clean Status (never a crash:
// tests/net/frame_fuzz_test.cc drives these over corrupted bytes too).

std::string EncodePrepareCold(const PrepareColdRequest& req);
Status DecodePrepareCold(const std::string& payload, PrepareColdRequest* req);

std::string EncodePrepareSnapshot(const PrepareSnapshotRequest& req);
Status DecodePrepareSnapshot(const std::string& payload,
                             PrepareSnapshotRequest* req);

std::string EncodeQuery(const QueryRequest& req);
Status DecodeQuery(const std::string& payload, QueryRequest* req);

std::string EncodeQueryReply(const QueryReply& reply);
Status DecodeQueryReply(const std::string& payload, QueryReply* reply);

std::string EncodeInsert(const InsertRequest& req);
Status DecodeInsert(const std::string& payload, InsertRequest* req);

std::string EncodeRemove(const RemoveRequest& req);
Status DecodeRemove(const std::string& payload, RemoveRequest* req);

std::string EncodeRemoveReply(const RemoveReply& reply);
Status DecodeRemoveReply(const std::string& payload, RemoveReply* reply);

std::string EncodeCompact(const CompactRequest& req);
Status DecodeCompact(const std::string& payload, CompactRequest* req);

std::string EncodeSaveShard(const SaveShardRequest& req);
Status DecodeSaveShard(const std::string& payload, SaveShardRequest* req);

std::string EncodeHealthReply(const HealthReply& reply);
Status DecodeHealthReply(const std::string& payload, HealthReply* reply);

std::string EncodeJobSubmit(const JobSubmitRequest& req);
Status DecodeJobSubmit(const std::string& payload, JobSubmitRequest* req);

std::string EncodeJobPoll(const JobPollRequest& req);
Status DecodeJobPoll(const std::string& payload, JobPollRequest* req);

std::string EncodeJobPollReply(const JobPollReply& reply);
Status DecodeJobPollReply(const std::string& payload, JobPollReply* reply);

std::string EncodeJobCancel(const JobCancelRequest& req);
Status DecodeJobCancel(const std::string& payload, JobCancelRequest* req);

std::string EncodeJobResult(const JobResultRequest& req);
Status DecodeJobResult(const std::string& payload, JobResultRequest* req);

std::string EncodeJobResultReply(const JobResultReply& reply);
Status DecodeJobResultReply(const std::string& payload,
                            JobResultReply* reply);

std::string EncodeExportLive(const ExportLiveRequest& req);
Status DecodeExportLive(const std::string& payload, ExportLiveRequest* req);

std::string EncodeExportLiveReply(const ExportLiveReply& reply);
Status DecodeExportLiveReply(const std::string& payload,
                             ExportLiveReply* reply);

std::string EncodeListIndexesReply(const ListIndexesReply& reply);
Status DecodeListIndexesReply(const std::string& payload,
                              ListIndexesReply* reply);

/// An Error frame's payload: the failing Status, round-tripped so the
/// router sees the worker's exact code + message.
std::string EncodeError(const Status& status);
/// Reconstructs the Status carried by an Error payload. A malformed
/// error payload yields an IoError describing that instead.
Status DecodeError(const std::string& payload);

}  // namespace sweetknn::net

#endif  // SWEETKNN_NET_WIRE_H_
