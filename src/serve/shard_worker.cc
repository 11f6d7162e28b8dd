#include "serve/shard_worker.h"

#include <chrono>
#include <utility>
#include <vector>

#ifdef __linux__
#include <signal.h>
#include <sys/prctl.h>
#endif

#include "common/logging.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/index_manager.h"
#include "store/snapshot.h"

namespace sweetknn::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// How long the worker waits for the router to connect after binding.
constexpr std::chrono::seconds kAcceptTimeout{60};
/// Per-reply send budget. The router always reads its pending reply, so
/// hitting this means the router is gone or wedged — exit either way.
constexpr std::chrono::seconds kSendTimeout{30};
/// Idle budget between requests. Effectively "forever": a dead router
/// surfaces as EOF (or the parent-death signal below) long before this.
constexpr std::chrono::hours kIdleTimeout{24};

net::Frame ErrorFrame(const Status& status) {
  net::Frame frame;
  frame.type = static_cast<uint32_t>(net::MsgType::kError);
  frame.payload = net::EncodeError(status);
  return frame;
}

net::Frame AckFrame() {
  net::Frame frame;
  frame.type = static_cast<uint32_t>(net::MsgType::kAck);
  return frame;
}

}  // namespace

ShardWorker::ShardWorker(std::string socket_path)
    : socket_path_(std::move(socket_path)) {}

Status ShardWorker::Run() {
#ifdef __linux__
  // A router that dies without a clean Shutdown (test harnesses, crashed
  // benches) must not leak worker processes: die with the parent.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  Result<net::Listener> listener = net::Listener::Bind(socket_path_);
  SK_RETURN_IF_ERROR(listener.status());
  Result<net::Connection> accepted =
      listener.value().Accept(SteadyClock::now() + kAcceptTimeout);
  SK_RETURN_IF_ERROR(accepted.status());
  net::Connection conn = std::move(accepted).value();

  for (;;) {
    Result<net::Frame> request =
        net::RecvFrame(conn, SteadyClock::now() + kIdleTimeout);
    if (!request.ok()) {
      if (request.status().code() == StatusCode::kUnavailable) {
        return Status::Ok();  // router closed the connection (or died)
      }
      return request.status();
    }
    bool shutdown = false;
    const net::Frame reply = Dispatch(request.value(), &shutdown);
    SK_RETURN_IF_ERROR(net::SendFrame(conn, reply.type, reply.payload,
                                      SteadyClock::now() + kSendTimeout));
    if (shutdown) return Status::Ok();
  }
}

net::Frame ShardWorker::Dispatch(const net::Frame& request, bool* shutdown) {
  switch (static_cast<net::MsgType>(request.type)) {
    case net::MsgType::kPrepareCold: {
      const Status status = HandlePrepareCold(request.payload);
      return status.ok() ? AckFrame() : ErrorFrame(status);
    }
    case net::MsgType::kPrepareSnapshot: {
      const Status status = HandlePrepareSnapshot(request.payload);
      return status.ok() ? AckFrame() : ErrorFrame(status);
    }
    case net::MsgType::kQuery: {
      net::Frame reply;
      const Status status = HandleQuery(request.payload, &reply);
      return status.ok() ? std::move(reply) : ErrorFrame(status);
    }
    case net::MsgType::kInsert: {
      const Status status = HandleInsert(request.payload);
      return status.ok() ? AckFrame() : ErrorFrame(status);
    }
    case net::MsgType::kRemove: {
      net::Frame reply;
      const Status status = HandleRemove(request.payload, &reply);
      return status.ok() ? std::move(reply) : ErrorFrame(status);
    }
    case net::MsgType::kCompact: {
      const Status status = HandleCompact(request.payload);
      return status.ok() ? AckFrame() : ErrorFrame(status);
    }
    case net::MsgType::kSaveShard: {
      const Status status = HandleSaveShard(request.payload);
      return status.ok() ? AckFrame() : ErrorFrame(status);
    }
    case net::MsgType::kJobSubmit: {
      const Status status = HandleJobSubmit(request.payload);
      return status.ok() ? AckFrame() : ErrorFrame(status);
    }
    case net::MsgType::kJobPoll: {
      net::Frame reply;
      const Status status = HandleJobPoll(request.payload, &reply);
      return status.ok() ? std::move(reply) : ErrorFrame(status);
    }
    case net::MsgType::kJobCancel:
      return HandleJobCancel(request.payload);
    case net::MsgType::kJobResult: {
      net::Frame reply;
      const Status status = HandleJobResult(request.payload, &reply);
      return status.ok() ? std::move(reply) : ErrorFrame(status);
    }
    case net::MsgType::kExportLive: {
      net::Frame reply;
      const Status status = HandleExportLive(request.payload, &reply);
      return status.ok() ? std::move(reply) : ErrorFrame(status);
    }
    case net::MsgType::kHealth:
      return HandleHealth();
    case net::MsgType::kListIndexes:
      return HandleListIndexes();
    case net::MsgType::kShutdown:
      *shutdown = true;
      return AckFrame();
    default:
      return ErrorFrame(Status::InvalidArgument(
          "shard worker: unknown message type " +
          std::to_string(request.type)));
  }
}

SweetKnnIndex* ShardWorker::FindShard(uint32_t shard_index) {
  const auto it = shards_.find(shard_index);
  return it == shards_.end() ? nullptr : it->second.get();
}

Status ShardWorker::HandlePrepareCold(const std::string& payload) {
  net::PrepareColdRequest req;
  SK_RETURN_IF_ERROR(net::DecodePrepareCold(payload, &req));
  if (req.slice.empty()) {
    return Status::InvalidArgument("PrepareCold: empty target slice");
  }
  if (dims_ != 0 && req.slice.cols() != dims_) {
    return Status::InvalidArgument(
        "PrepareCold: slice has " + std::to_string(req.slice.cols()) +
        " dims, this worker serves " + std::to_string(dims_));
  }
  if (!shards_.empty() && req.tenant != tenant_) {
    return Status::InvalidArgument("PrepareCold: shard belongs to index '" +
                                   req.tenant + "', this worker hosts '" +
                                   tenant_ + "'");
  }
  tenant_ = req.tenant;
  // The planner comes from the first prepare only, so its route
  // counters span the worker's lifetime like KnnService's.
  if (!planner_) planner_ = std::make_unique<core::RoutePlanner>(req.planner);
  // Same shard config as KnnService's in-process shards.
  shards_[req.shard_index] = std::make_unique<SweetKnnIndex>(
      req.slice,
      ShardIndexConfig(req.options, req.device, req.enable_ann,
                       req.ann_params),
      static_cast<uint32_t>(req.offset));
  dims_ = req.slice.cols();
  return Status::Ok();
}

Status ShardWorker::HandlePrepareSnapshot(const std::string& payload) {
  net::PrepareSnapshotRequest req;
  SK_RETURN_IF_ERROR(net::DecodePrepareSnapshot(payload, &req));
  Result<store::IndexSnapshot> loaded = store::LoadIndexSnapshot(req.path);
  SK_RETURN_IF_ERROR(loaded.status());
  const store::IndexSnapshot& snap = loaded.value();
  if (snap.shard_index != req.shard_index) {
    return Status::InvalidArgument(
        req.path + " records shard " + std::to_string(snap.shard_index) +
        ", expected " + std::to_string(req.shard_index));
  }
  const size_t dims = snap.target.cols();
  if (dims_ != 0 && dims != dims_) {
    return Status::InvalidArgument(
        req.path + " holds " + std::to_string(dims) +
        "-dimensional points, this worker serves " + std::to_string(dims_));
  }
  if (!shards_.empty() && req.tenant != tenant_) {
    return Status::InvalidArgument(
        "PrepareSnapshot: shard belongs to index '" + req.tenant +
        "', this worker hosts '" + tenant_ + "'");
  }
  // Restore checks the options and device fingerprints against the
  // request's config before anything is adopted.
  Result<std::unique_ptr<SweetKnnIndex>> shard = SweetKnnIndex::Restore(
      std::move(loaded).value(),
      ShardIndexConfig(req.options, req.device, req.enable_ann,
                       req.ann_params),
      req.path);
  SK_RETURN_IF_ERROR(shard.status());
  tenant_ = req.tenant;
  if (!planner_) planner_ = std::make_unique<core::RoutePlanner>(req.planner);
  dims_ = dims;
  shards_[req.shard_index] = std::move(shard).value();
  return Status::Ok();
}

Status ShardWorker::HandleQuery(const std::string& payload,
                                net::Frame* reply) {
  net::QueryRequest req;
  SK_RETURN_IF_ERROR(net::DecodeQuery(payload, &req));
  if (req.tenant != tenant_) {
    return Status::InvalidArgument("Query: names index '" + req.tenant +
                                   "', this worker hosts '" + tenant_ + "'");
  }
  if (req.k == 0) return Status::InvalidArgument("Query: k must be > 0");
  if (req.queries.empty()) {
    return Status::InvalidArgument("Query: empty query matrix");
  }
  if (req.queries.cols() != dims_) {
    return Status::InvalidArgument(
        "Query: " + std::to_string(req.queries.cols()) +
        "-dimensional queries, this worker serves " + std::to_string(dims_));
  }
  if (req.shard_indices.empty()) {
    return Status::InvalidArgument("Query: no shard indices named");
  }
  net::QueryReply out;
  out.shard_indices = req.shard_indices;
  out.answers.reserve(req.shard_indices.size());
  for (const uint32_t index : req.shard_indices) {
    SweetKnnIndex* shard = FindShard(index);
    if (shard == nullptr) {
      return Status::NotFound("Query: shard " + std::to_string(index) +
                              " is not hosted by this worker");
    }
    // Per-shard routing through the worker's own planner, as in
    // KnnService. Both routes answer bit-identically, so the cluster's
    // answers cannot depend on the route a shard takes.
    const core::QueryRoute route = planner_->Choose();
    out.answers.push_back(shard->Answer(
        req.queries, static_cast<int>(req.k), route, req.mode));
  }
  queries_served_ += req.queries.rows();
  reply->type = static_cast<uint32_t>(net::MsgType::kQueryReply);
  reply->payload = net::EncodeQueryReply(out);
  return Status::Ok();
}

Status ShardWorker::HandleInsert(const std::string& payload) {
  net::InsertRequest req;
  SK_RETURN_IF_ERROR(net::DecodeInsert(payload, &req));
  SweetKnnIndex* shard = FindShard(req.shard_index);
  if (shard == nullptr) {
    return Status::NotFound("Insert: shard " +
                            std::to_string(req.shard_index) +
                            " is not hosted by this worker");
  }
  if (req.point.size() != dims_) {
    return Status::InvalidArgument(
        "Insert: point has " + std::to_string(req.point.size()) +
        " dims, this worker serves " + std::to_string(dims_));
  }
  // The router allocates ids strictly upward; a rejected id means a
  // router bug or a replayed frame, not a crash-worthy invariant.
  const Status inserted = shard->Insert(req.id, req.point.data());
  if (!inserted.ok()) {
    return Status::InvalidArgument("Insert: " + inserted.message());
  }
  return Status::Ok();
}

Status ShardWorker::HandleRemove(const std::string& payload,
                                 net::Frame* reply) {
  net::RemoveRequest req;
  SK_RETURN_IF_ERROR(net::DecodeRemove(payload, &req));
  SweetKnnIndex* shard = FindShard(req.shard_index);
  if (shard == nullptr) {
    return Status::NotFound("Remove: shard " +
                            std::to_string(req.shard_index) +
                            " is not hosted by this worker");
  }
  net::RemoveReply out;
  out.found = shard->Remove(req.id);
  reply->type = static_cast<uint32_t>(net::MsgType::kRemoveReply);
  reply->payload = net::EncodeRemoveReply(out);
  return Status::Ok();
}

Status ShardWorker::HandleCompact(const std::string& payload) {
  net::CompactRequest req;
  SK_RETURN_IF_ERROR(net::DecodeCompact(payload, &req));
  SweetKnnIndex* shard = FindShard(req.shard_index);
  if (shard == nullptr) {
    return Status::NotFound("Compact: shard " +
                            std::to_string(req.shard_index) +
                            " is not hosted by this worker");
  }
  // The worker is single-threaded, so the capture/rebuild/install steps
  // run back to back with nothing to race — the same steps, on the same
  // state, as KnnService's background compactor.
  shard->Compact();
  return Status::Ok();
}

Status ShardWorker::HandleSaveShard(const std::string& payload) {
  net::SaveShardRequest req;
  SK_RETURN_IF_ERROR(net::DecodeSaveShard(payload, &req));
  SweetKnnIndex* shard = FindShard(req.shard_index);
  if (shard == nullptr) {
    return Status::NotFound("SaveShard: shard " +
                            std::to_string(req.shard_index) +
                            " is not hosted by this worker");
  }
  return store::SaveIndexSnapshot(
      shard->ExportSnapshot(req.dataset_name, "ShardWorker::SaveShard",
                            req.shard_index, req.shard_count, req.next_id),
      req.path);
}

Status ShardWorker::HandleJobSubmit(const std::string& payload) {
  net::JobSubmitRequest req;
  SK_RETURN_IF_ERROR(net::DecodeJobSubmit(payload, &req));
  if (req.tenant != tenant_) {
    return Status::InvalidArgument("JobSubmit: names index '" + req.tenant +
                                   "', this worker hosts '" + tenant_ + "'");
  }
  if (job_ != nullptr) {
    return Status::InvalidArgument(
        "JobSubmit: job " + std::to_string(job_->spec.job_id) +
        " is already active (one job slot per worker)");
  }
  if (req.queries.rows() > 0 && req.queries.cols() != dims_) {
    return Status::InvalidArgument(
        "JobSubmit: " + std::to_string(req.queries.cols()) +
        "-dimensional queries, this worker serves " + std::to_string(dims_));
  }
  if (req.kind == net::WireJobKind::kKnn && req.k == 0) {
    return Status::InvalidArgument("JobSubmit: knn jobs need k > 0");
  }
  if (req.shard_indices.empty()) {
    return Status::InvalidArgument("JobSubmit: no shard indices named");
  }
  for (const uint32_t index : req.shard_indices) {
    if (FindShard(index) == nullptr) {
      return Status::NotFound("JobSubmit: shard " + std::to_string(index) +
                              " is not hosted by this worker");
    }
  }
  if (req.chunk_rows == 0) req.chunk_rows = 1;
  auto job = std::make_unique<WorkerJob>();
  if (req.kind == net::WireJobKind::kKnn) {
    job->knn = KnnResult(req.queries.rows(), static_cast<int>(req.k));
  }
  job->spec = std::move(req);
  job_ = std::move(job);
  return Status::Ok();
}

void ShardWorker::AdvanceJob() {
  WorkerJob& job = *job_;
  const size_t total = job.spec.queries.rows();
  if (job.failed || job.done_rows >= total) return;
  const size_t begin = job.done_rows;
  const size_t end =
      std::min<size_t>(total, begin + job.spec.chunk_rows);
  HostMatrix chunk(end - begin, dims_);
  std::memcpy(chunk.mutable_data(), job.spec.queries.row(begin),
              (end - begin) * dims_ * sizeof(float));
  std::vector<core::RangeShardAnswer> range_answers;
  std::vector<core::ShardAnswer> knn_answers;
  for (const uint32_t index : job.spec.shard_indices) {
    SweetKnnIndex* shard = FindShard(index);
    if (shard == nullptr) {  // cannot happen in the single-threaded loop
      job.failed = true;
      job.error = "shard " + std::to_string(index) + " disappeared mid-job";
      return;
    }
    const core::QueryRoute route = planner_->Choose();
    if (job.spec.kind == net::WireJobKind::kRange) {
      range_answers.push_back(
          shard->RangeAnswer(chunk, job.spec.radius, route));
    } else {
      knn_answers.push_back(
          shard->Answer(chunk, static_cast<int>(job.spec.k), route));
    }
  }
  if (job.spec.kind == net::WireJobKind::kRange) {
    job.range.AppendRows(
        core::MergeRangeShardAnswers(range_answers, chunk.rows()));
  } else {
    const KnnResult merged =
        core::MergeShardAnswers(knn_answers, static_cast<int>(job.spec.k));
    for (size_t q = 0; q < merged.num_queries(); ++q) {
      std::memcpy(job.knn.mutable_row(begin + q), merged.row(q),
                  job.spec.k * sizeof(Neighbor));
    }
  }
  job.done_rows = end;
  queries_served_ += chunk.rows();
}

Status ShardWorker::HandleJobPoll(const std::string& payload,
                                  net::Frame* reply) {
  net::JobPollRequest req;
  SK_RETURN_IF_ERROR(net::DecodeJobPoll(payload, &req));
  if (job_ == nullptr || job_->spec.job_id != req.job_id) {
    return Status::NotFound("JobPoll: no active job " +
                            std::to_string(req.job_id));
  }
  AdvanceJob();
  net::JobPollReply out;
  out.total_rows = job_->spec.queries.rows();
  out.done_rows = job_->done_rows;
  if (job_->failed) {
    out.state = net::WireJobState::kFailed;
    out.error = job_->error;
  } else if (job_->done_rows >= out.total_rows) {
    out.state = net::WireJobState::kDone;
  } else {
    out.state = net::WireJobState::kRunning;
  }
  reply->type = static_cast<uint32_t>(net::MsgType::kJobPollReply);
  reply->payload = net::EncodeJobPollReply(out);
  return Status::Ok();
}

net::Frame ShardWorker::HandleJobCancel(const std::string& payload) {
  net::JobCancelRequest req;
  const Status status = net::DecodeJobCancel(payload, &req);
  if (!status.ok()) return ErrorFrame(status);
  // Idempotent: cancelling an unknown (already finished, never started)
  // job is an ack — the router cancels on cleanup paths where the
  // worker may have forgotten the job long ago.
  if (job_ != nullptr && job_->spec.job_id == req.job_id) job_.reset();
  return AckFrame();
}

Status ShardWorker::HandleJobResult(const std::string& payload,
                                    net::Frame* reply) {
  net::JobResultRequest req;
  SK_RETURN_IF_ERROR(net::DecodeJobResult(payload, &req));
  if (job_ == nullptr || job_->spec.job_id != req.job_id) {
    return Status::NotFound("JobResult: no active job " +
                            std::to_string(req.job_id));
  }
  if (job_->failed) {
    const std::string error = job_->error;
    job_.reset();
    return Status::Internal("JobResult: job failed: " + error);
  }
  if (job_->done_rows < job_->spec.queries.rows()) {
    return Status::InvalidArgument(
        "JobResult: job " + std::to_string(req.job_id) +
        " is still running");
  }
  net::JobResultReply out;
  out.kind = job_->spec.kind;
  out.range = std::move(job_->range);
  out.knn = std::move(job_->knn);
  job_.reset();
  reply->type = static_cast<uint32_t>(net::MsgType::kJobResultReply);
  reply->payload = net::EncodeJobResultReply(out);
  return Status::Ok();
}

Status ShardWorker::HandleExportLive(const std::string& payload,
                                     net::Frame* reply) {
  net::ExportLiveRequest req;
  SK_RETURN_IF_ERROR(net::DecodeExportLive(payload, &req));
  if (req.tenant != tenant_) {
    return Status::InvalidArgument("ExportLive: names index '" + req.tenant +
                                   "', this worker hosts '" + tenant_ + "'");
  }
  if (req.shard_indices.empty()) {
    return Status::InvalidArgument("ExportLive: no shard indices named");
  }
  std::vector<std::vector<uint32_t>> ids(req.shard_indices.size());
  std::vector<HostMatrix> points(req.shard_indices.size());
  size_t total = 0;
  for (size_t s = 0; s < req.shard_indices.size(); ++s) {
    SweetKnnIndex* shard = FindShard(req.shard_indices[s]);
    if (shard == nullptr) {
      return Status::NotFound("ExportLive: shard " +
                              std::to_string(req.shard_indices[s]) +
                              " is not hosted by this worker");
    }
    shard->ExportLive(&ids[s], &points[s]);
    total += ids[s].size();
  }
  net::ExportLiveReply out;
  out.ids.reserve(total);
  out.points = HostMatrix(total, dims_);
  size_t row = 0;
  for (size_t s = 0; s < ids.size(); ++s) {
    for (size_t r = 0; r < ids[s].size(); ++r, ++row) {
      out.ids.push_back(ids[s][r]);
      std::memcpy(out.points.mutable_row(row), points[s].row(r),
                  dims_ * sizeof(float));
    }
  }
  reply->type = static_cast<uint32_t>(net::MsgType::kExportLiveReply);
  reply->payload = net::EncodeExportLiveReply(out);
  return Status::Ok();
}

net::Frame ShardWorker::HandleHealth() const {
  net::HealthReply out;
  out.queries_served = queries_served_;
  for (const auto& [index, shard] : shards_) {
    net::HealthReply::ShardHealth health;
    health.index = index;
    health.base_rows = shard->base_rows();
    health.delta_points = shard->delta_size();
    health.tombstones = shard->tombstone_count();
    health.live_rows = shard->size();
    out.shards.push_back(health);
  }
  net::Frame reply;
  reply.type = static_cast<uint32_t>(net::MsgType::kHealthReply);
  reply.payload = net::EncodeHealthReply(out);
  return reply;
}

net::Frame ShardWorker::HandleListIndexes() const {
  net::ListIndexesReply out;
  if (!shards_.empty()) out.names.push_back(tenant_);
  net::Frame reply;
  reply.type = static_cast<uint32_t>(net::MsgType::kListIndexesReply);
  reply.payload = net::EncodeListIndexesReply(out);
  return reply;
}

}  // namespace sweetknn::serve
