// Shared machinery of the repo benchmark: command-line arguments, the
// seeded open-loop and closed-loop load generators, failure accounting,
// the in-memory span tracer, and the result record that main() prints.
// Every number the benchmark reports is either timed around a call into
// a layer's public API or read from the counters that layer exports.

#ifndef SWEETKNN_PERFBENCH_HARNESS_H_
#define SWEETKNN_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "common/topk.h"

namespace sweetknn::perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span file.
  std::string trace_dir = ".bench_build/traces";
};

/// Parses --workload/--seed/--seconds/--trace/--trace-dir; exits with
/// code 2 on malformed input.
Args ParseArgs(int argc, char** argv);

/// Seconds since `t0`.
inline double Since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

/// q-quantile (q in [0, 1]) of `values` by linear interpolation between
/// order statistics (the same rule as numpy's default); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// -- Failure accounting --------------------------------------------------

/// Why an operation failed. Every failure counts against the run.
enum class Fail : uint8_t {
  kNone = 0,
  kShed,         ///< refused by the admission bound
  kDeadline,     ///< deadline expired while queued
  kUnavailable,  ///< service or shard unavailable
  kRpcError,     ///< any other transport or engine error
  kMismatch,     ///< answered, but not what the oracle says
};

/// Maps a layer's Status to a failure class (kNone for ok).
Fail Classify(const Status& status);

/// Attempted/succeeded/failed per failure class, summed over phases.
struct FailureTally {
  uint64_t attempted = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t unavailable = 0;
  uint64_t rpc_error = 0;
  uint64_t mismatch = 0;

  void Add(Fail fail);
  void Merge(const FailureTally& other);
  uint64_t failed() const {
    return shed + deadline + unavailable + rpc_error + mismatch;
  }
};

// -- Load generation -----------------------------------------------------

/// One scheduled operation of a load phase, filled in by the runner.
struct OpRecord {
  uint8_t kind = 0;          ///< workload-defined op type
  double scheduled_s = 0.0;  ///< from phase start
  double sent_s = 0.0;
  double done_s = 0.0;
  Fail fail = Fail::kNone;
  /// Serving reads: a device-routed shard run was decided while this
  /// request was in flight (the dispatcher runs groups one at a time,
  /// so every in-flight request waits for it).
  bool device_exposed = false;

  double latency_ms() const { return (done_s - scheduled_s) * 1e3; }
  double late_ms() const { return (sent_s - scheduled_s) * 1e3; }
};

/// When `op` was due, given its phase's start.
inline Clock::time_point Due(Clock::time_point phase_t0, const OpRecord& op) {
  return phase_t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(op.scheduled_s));
}

/// Poisson arrivals at `rate_per_s` over [0, seconds): the schedule of
/// an open-loop phase (all ops kind 0). Deterministic in `seed`.
std::vector<OpRecord> PoissonSchedule(double rate_per_s, double seconds,
                                      uint64_t seed);

/// Performs op `index` (the call plus its spans) and sets record.fail
/// and device_exposed; `phase_t0` anchors the record's times.
using IssueFn =
    std::function<void(size_t index, OpRecord* record,
                       Clock::time_point phase_t0)>;

/// Issues every scheduled op from `callers` threads: each thread takes
/// the next op in schedule order, sleeps until its scheduled send time,
/// and runs `issue`. Latency is timed from the scheduled send, so a
/// stalled server cannot hide its backlog; no op is ever skipped.
/// Returns the phase wall time in seconds.
double RunOpenLoop(std::vector<OpRecord>* ops, int callers,
                   const IssueFn& issue);

/// `callers` threads issue back-to-back ops for `seconds`; each op's
/// scheduled time is its send time. Returns the phase wall time.
double RunClosedLoop(double seconds, int callers, const IssueFn& issue,
                     std::vector<OpRecord>* ops);

/// Generator lateness of an open-loop phase.
struct Lateness {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// How far behind schedule the last op was sent, as a share of the
  /// phase length.
  double final_lag_frac = 0.0;
  /// The generator could not keep its schedule: the run is invalid.
  bool invalid = false;
};
Lateness MeasureLateness(const std::vector<OpRecord>& ops,
                         double phase_seconds);

// -- Tracing -------------------------------------------------------------

/// The layers a span can be charged to: the five src/ modules the
/// benchmark times, plus the harness itself (generator, gates).
enum class Layer : uint8_t { kHarness, kSimd, kCore, kGpusim, kServe, kNet };
inline constexpr int kNumLayers = 6;
const char* LayerName(Layer layer);

/// One timed call. Parent -1 = root; spans of one request share
/// `request_id`.
struct Span {
  const char* name = "";
  Layer layer = Layer::kHarness;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request_id = 0;
};

/// In-memory span recorder. Disabled tracers record nothing and return
/// id -1, so the untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span ending at Close(); returns its id.
  int64_t Open(const char* name, Layer layer, int64_t parent,
               uint64_t request_id);
  /// Opens the harness root span of a scheduled request at its due time,
  /// so the root's self time is how late the generator sent it.
  int64_t OpenScheduled(const char* name, uint64_t request_id,
                        Clock::time_point due);
  void Close(int64_t id);
  /// Records a child of closed span `parent` covering its last
  /// `duration_ns` (clamped to the parent): a share of the parent's time
  /// measured separately, e.g. the wire's part of a cluster request.
  int64_t RecordTail(int64_t parent, const char* name, Layer layer,
                     int64_t duration_ns);

  /// Self time (span minus its children) summed per layer, in ms, over
  /// every span outside the "gate" subtrees (the correctness gates).
  std::vector<double> LayerSelfMs() const;
  /// Self time of harness-layer spans by name, gates excluded: the time
  /// no layer call accounts for.
  std::map<std::string, double> ResidualMs() const;
  size_t size() const;

  /// Writes every span as JSON lines to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  int64_t ToNs(Clock::time_point t) const;
  int64_t Record(const char* name, Layer layer, int64_t start_ns,
                 int64_t end_ns, int64_t parent, uint64_t request_id);

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, Layer layer,
             int64_t parent = -1, uint64_t request_id = 0)
      : tracer_(tracer),
        id_(tracer->enabled()
                ? tracer->Open(name, layer, parent, request_id)
                : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// -- Results -------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  uint64_t samples = 0;
};

/// What a workload hands back to main().
struct RunResult {
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Op outcomes per phase (load phases, gates), in first-use order.
  std::vector<std::pair<std::string, FailureTally>> phases;
  /// Set when the generator fell behind: the run reports nothing.
  bool invalid = false;
  std::string invalid_reason;
  /// The workload's fixed offered rate (0 = closed-loop only).
  double offered_rps = 0.0;
  /// The workload's numbers under their workload-specific names (e.g.
  /// join_rows_per_s, sim_join_ms), printed as a table before the result.
  std::vector<Metric> report;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void Add(const std::string& name, const std::string& unit, double value,
           uint64_t samples = 1);
  FailureTally& Phase(const std::string& name);
  FailureTally Total() const;
};

/// Appends the harness's per-layer metrics shared by every workload:
/// span self time per layer, the unattributed residual, generator
/// lateness and failure counters.
void AddHarnessLayerMetrics(const Tracer& tracer, const Lateness& late,
                            double overhead_pct, RunResult* result);

/// Peak resident set of this process plus `extra_pids` (live workers),
/// in MiB, from /proc/<pid>/status VmHWM.
double PeakRssMb(const std::vector<int>& extra_pids = {});

/// Hardware threads available to the generator (nproc).
int Callers();

/// Row `row` of `points` as a vector (a single-row query).
std::vector<float> RowVector(const HostMatrix& points, size_t row);

/// `points` with its rows in a seeded random order.
HostMatrix ShuffledRows(const HostMatrix& points, uint64_t seed);

/// The generator seed of every mixture's geometry (centers, embedding,
/// samples). Runs differ only in the seeded row order, so a run seed
/// changes which rows are base, queries and inserts — not how hard the
/// data is.
inline constexpr uint64_t kGeometrySeed = 20170419;

/// A clustered point set for the serving and join workloads: `n` rows of
/// a `dims`-dimensional Gaussian mixture with low intrinsic
/// dimensionality (the regime where the paper's filter pays off), rows
/// shuffled by `seed`. Queries and inserted points come from extra rows
/// of the same mixture.
HostMatrix ClusteredPoints(size_t n, size_t dims, uint64_t seed);

/// Byte equality of neighbor lists (ids and distance bits).
bool SameNeighbors(const Neighbor* a, const Neighbor* b, size_t count);

}  // namespace sweetknn::perfbench

#endif  // SWEETKNN_PERFBENCH_HARNESS_H_
