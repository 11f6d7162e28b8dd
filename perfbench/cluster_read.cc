// cluster_read: a Router with 2 shard-worker processes (this build's
// sweetknn_cli), no replicas, over a 16k x 16 clustered base (1 MiB,
// L2-resident), driven open-loop with read-only single-row exact k=10
// Search at a fixed Poisson rate, then a closed-loop phase for the
// saturation rate. Compute is small, so the net encode/RPC/decode and
// the Router's dispatcher dominate.
//
// Correctness: every answer must be byte-identical to an in-process
// KnnService on the same target. The traced run also replays the
// traced schedule against that in-process service: the per-request
// difference is the RPC overhead.

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>

#include "common/rng.h"
#include "net/wire.h"
#include "serve/router.h"
#include "workloads.h"

namespace sweetknn::perfbench {
namespace {

constexpr size_t kBaseRows = 16384;
constexpr size_t kDims = 16;
constexpr size_t kReadPool = 4096;
constexpr int kK = 10;
/// About 30% of the closed-loop saturation rate of the seed on a 4-core
/// AVX-512 host (~2100-3300/s as the shared host's load varies). At
/// 1200/s, slow stretches of the host queued all callers long enough to
/// push the median send past the lateness limit, so the run was invalid.
/// Fixed so later commits face the same offered load.
constexpr double kOfferedRps = 600.0;
constexpr double kOpenShare = 0.5;
/// Slices per load phase for the windowed medians.
constexpr int kWindows = 8;

/// Wire bytes one single-row read costs: a query frame to each worker
/// and its reply, sized with the wire codec itself.
double FrameBytesPerRead(const HostMatrix& reads, int shards, Tracer* tracer) {
  ScopedSpan span(tracer, "net.EncodeQuery", Layer::kNet);
  double bytes = 0.0;
  for (int s = 0; s < shards; ++s) {
    net::QueryRequest request;
    request.k = kK;
    request.queries = HostMatrix(1, kDims);
    std::memcpy(request.queries.mutable_row(0), reads.row(0),
                kDims * sizeof(float));
    request.shard_indices = {static_cast<uint32_t>(s)};
    net::QueryReply reply;
    reply.shard_indices = {static_cast<uint32_t>(s)};
    core::ShardAnswer answer;
    answer.result = KnnResult(1, kK);
    reply.answers.push_back(std::move(answer));
    bytes += static_cast<double>(net::EncodeQuery(request).size() +
                                 net::EncodeQueryReply(reply).size());
  }
  return bytes;
}

}  // namespace

RunResult RunClusterRead(const Args& args, Tracer* tracer,
                         const std::string& worker_binary) {
  RunResult result;
  result.offered_rps = kOfferedRps;
  Tracer untraced(false);

  const HostMatrix all =
      ClusteredPoints(kBaseRows + kReadPool, kDims, args.seed);
  HostMatrix base(kBaseRows, kDims), reads(kReadPool, kDims);
  std::memcpy(base.mutable_data(), all.data(), base.size() * sizeof(float));
  std::memcpy(reads.mutable_data(), all.row(kBaseRows),
              reads.size() * sizeof(float));

  // Sockets live in a short relative directory inside the build tree
  // (unix socket paths are length-limited; workers inherit the cwd).
  serve::RouterConfig config;
  config.num_workers = 2;
  config.replicas = 0;
  config.worker_binary = worker_binary;
  config.work_dir = ".bench_build/cluster-" + std::to_string(::getpid());

  // Set-up: worker spawn + connect + prepare (cold builds of the slices).
  std::unique_ptr<serve::Router> router;
  std::vector<double> setup_s;
  {
    ScopedSpan root(tracer, "setup", Layer::kHarness);
    for (int rep = 0; rep < kSetupReps; ++rep) {
      router.reset();
      ScopedSpan span(tracer, "serve.Router.Start", Layer::kServe, root.id());
      const Clock::time_point t0 = Clock::now();
      Result<std::unique_ptr<serve::Router>> started =
          serve::Router::Start(base, config);
      setup_s.push_back(Since(t0, Clock::now()));
      if (!started.ok()) {
        std::fprintf(stderr, "Router::Start failed: %s\n",
                     started.status().ToString().c_str());
        std::exit(1);
      }
      router = std::move(started).value();
    }
  }

  const double open_s = args.seconds * kOpenShare;
  std::vector<OpRecord> ops =
      PoissonSchedule(kOfferedRps, open_s, args.seed);
  std::mt19937_64 rng(args.seed ^ 0xc1057e7ull);
  std::vector<uint32_t> row(ops.size());
  for (uint32_t& r : row) r = static_cast<uint32_t>(rng() % kReadPool);
  std::vector<std::vector<Neighbor>> answers(ops.size());
  std::vector<int64_t> serve_span(ops.size(), -1);

  const double traced_from_s = args.trace ? open_s / 2 : open_s + 1.0;
  auto issue = [&](size_t i, OpRecord* op, Clock::time_point t0) {
    Tracer* t = op->scheduled_s >= traced_from_s ? tracer : &untraced;
    const uint64_t request = i + 1;
    const int64_t root = t->OpenScheduled("request", request, Due(t0, *op));
    {
      ScopedSpan span(t, "serve.Router.Search", Layer::kServe, root, request);
      serve_span[i] = span.id();
      Result<std::vector<Neighbor>> got =
          router->Search(RowVector(reads, row[i]), kK);
      op->fail = Classify(got.status());
      if (got.ok()) answers[i] = std::move(got).value();
    }
    t->Close(root);
  };
  const double open_wall_s = RunOpenLoop(&ops, Callers(), issue);
  const Lateness late = MeasureLateness(ops, open_s);

  // Peak memory through set-up and the open loop, read before the closed
  // loop: that phase's per-op records and kept answers grow with the
  // throughput, which would otherwise move peak_rss_mb with the speed of
  // the machine.
  std::vector<int> worker_pids;
  for (int w = 0; w < router->num_workers(); ++w) {
    worker_pids.push_back(router->worker_pid(w));
  }
  const double rss = PeakRssMb(worker_pids);

  // Closed-loop phase: answers are kept (row, neighbors) for the gate.
  std::vector<OpRecord> closed;
  std::mutex closed_mutex;
  std::vector<std::pair<uint32_t, std::vector<Neighbor>>> closed_answers;
  double closed_wall_s = 0.0;
  if (!args.trace) {
    closed_wall_s = RunClosedLoop(
        args.seconds - open_s, Callers(),
        [&](size_t i, OpRecord* op, Clock::time_point) {
          op->kind = kRead;
          const uint32_t r = static_cast<uint32_t>(
              SplitMix64(args.seed * 0x9e3779b97f4a7c15ull + i) % kReadPool);
          Result<std::vector<Neighbor>> got =
              router->Search(RowVector(reads, r), kK);
          op->fail = Classify(got.status());
          if (got.ok()) {
            std::lock_guard<std::mutex> lock(closed_mutex);
            closed_answers.emplace_back(r, std::move(got).value());
          }
        },
        &closed);
  }

  const serve::RouterStats rstats = router->stats();
  const double queue_wait_p50_ms =
      router->metrics()
          .SnapshotHistogram("sweetknn_router_queue_wait_seconds")
          .Percentile(0.50) *
      1e3;
  const double frame_bytes =
      FrameBytesPerRead(reads, router->num_shards(), tracer);
  {
    ScopedSpan span(tracer, "serve.Router.Shutdown", Layer::kServe);
    router->Shutdown();
    router.reset();
  }
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);

  // Correctness gate: the in-process service on the same target.
  serve::KnnService local(base, config.service);
  {
    ScopedSpan gate(tracer, "gate", Layer::kHarness);
    const Result<KnnResult> reference = [&] {
      ScopedSpan span(tracer, "serve.JoinBatch", Layer::kServe, gate.id());
      return local.JoinBatch(reads, kK);
    }();
    result.Phase("gate").Add(Classify(reference.status()));
    auto same = [&](uint32_t r, const std::vector<Neighbor>& got) {
      return reference.ok() && got.size() == static_cast<size_t>(kK) &&
             SameNeighbors(got.data(), reference.value().row(r), kK);
    };
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].fail == Fail::kNone && !same(row[i], answers[i])) {
        ops[i].fail = Fail::kMismatch;
      }
    }
    // Closed-loop ops were tallied by outcome; a wrong answer among the
    // successful ones is a failure too.
    for (const auto& [r, got] : closed_answers) {
      if (!same(r, got)) ++result.Phase("closed_loop").mismatch;
    }
  }
  TallyOps(ops, &result.Phase("open_loop"));
  TallyOps(closed, &result.Phase("closed_loop"));

  // Medians over the phases' windows (see AppendWindowQuantiles).
  auto windowed = [](const std::vector<OpRecord>& phase, double q,
                     double phase_s, uint64_t* n) {
    std::vector<double> per_window;
    *n = 0;
    AppendWindowQuantiles(phase, kReads, q, phase_s, kWindows, &per_window, n);
    return Median(per_window);
  };
  uint64_t reads_n = 0;
  const double read_p50 = windowed(ops, 0.50, open_s, &reads_n);
  const double read_p99 = windowed(ops, 0.99, open_s, &reads_n);
  std::vector<double> rates;
  AppendWindowRates(closed, closed_wall_s, kWindows, &rates);
  const double saturation_rps = Median(rates);
  char line[200];
  std::snprintf(line, sizeof(line),
                "open loop: %zu reads offered at %.0f/s over %.2f s (wall "
                "%.2f s), late p50 %.3f ms p99 %.3f ms, final lag %.1f%%",
                ops.size(), kOfferedRps, open_s, open_wall_s, late.p50_ms,
                late.p99_ms, late.final_lag_frac * 100);
  result.notes.push_back(line);
  result.report = {
      {"setup_s", "s", Median(setup_s), kSetupReps},
      {"read_p50_ms", "ms", read_p50, reads_n},
      {"read_p99_ms", "ms", read_p99, reads_n},
      {"saturation_rps", "1/s", saturation_rps, closed.size()},
      {"peak_rss_mb", "MiB", rss, 1},
  };
  if (late.invalid) {
    result.invalid = true;
    result.invalid_reason =
        std::string("generator fell behind its schedule: ") + line;
  }
  if (!args.trace) {
    // Reads at saturation are this workload's second latency.
    uint64_t closed_n = 0;
    result.Add("setup_s", "s", Median(setup_s), kSetupReps);
    result.Add("read_p50_ms", "ms", read_p50, reads_n);
    result.Add("read_rows_per_s", "1/s", saturation_rps, closed.size());
    result.Add("aux_p50_ms", "ms",
               windowed(closed, 0.50, closed_wall_s, &closed_n),
               closed.size());
    result.Add("peak_rss_mb", "MiB", rss);
    return result;
  }

  // Traced run only: replay the same schedule against the in-process
  // service; the per-request difference is what the wire adds. It is
  // charged to net as a child span of the traced cluster request.
  std::vector<OpRecord> replay = ops;
  for (OpRecord& op : replay) op.fail = Fail::kNone;
  RunOpenLoop(&replay, Callers(),
              [&](size_t i, OpRecord* op, Clock::time_point) {
                const uint64_t device0 = local.planner().device_routes();
                op->fail = Classify(
                    local.Search(RowVector(reads, row[i]), kK).status());
                op->device_exposed =
                    local.planner().device_routes() != device0;
              });
  TallyOps(replay, &result.Phase("local_replay"));
  std::vector<double> overhead_ms;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].fail != Fail::kNone || replay[i].fail != Fail::kNone) continue;
    const double extra = ops[i].latency_ms() - replay[i].latency_ms();
    overhead_ms.push_back(extra);
    if (serve_span[i] >= 0 && extra > 0) {
      tracer->RecordTail(serve_span[i], "net.rpc", Layer::kNet,
                         static_cast<int64_t>(extra * 1e6));
    }
  }
  LayerMetrics layers;
  layers.samples = ops.size();
  AddServiceLayers(local, &layers);
  AddRouteSplit(replay, open_s, &layers);
  layers.net_queue_wait_p50_ms = queue_wait_p50_ms;
  layers.net_rpc_overhead_p50_ms = Quantile(overhead_ms, 0.50);
  layers.net_rpc_overhead_p99_ms = Quantile(overhead_ms, 0.99);
  layers.net_frame_bytes_per_read = frame_bytes;
  layers.net_rpc_timeouts = rstats.rpc_timeouts;
  layers.net_worker_deaths = rstats.worker_deaths;
  layers.net_retried_groups = rstats.retried_groups;
  AddLayerMetrics(layers, &result);
  AddHarnessLayerMetrics(*tracer, late, ReadOverheadPct(ops, traced_from_s),
                         &result);
  local.Shutdown();
  return result;
}

}  // namespace sweetknn::perfbench
