#include "harness.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>

#include "dataset/generators.h"

namespace sweetknn::perfbench {

namespace {

/// How long before a scheduled send the generator stops sleeping and
/// spins.
constexpr std::chrono::microseconds kSpinBeforeSend{100};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n",
               argv0);
  std::exit(2);
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage(argv[0]);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) Usage(argv[0]);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") Usage(argv[0]);
      args.trace = value == "1";
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (args.workload.empty()) Usage(argv[0]);
  return args;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

Fail Classify(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return Fail::kNone;
    case StatusCode::kDeadlineExceeded:
      return Fail::kDeadline;
    case StatusCode::kUnavailable:
      // The in-process service reports admission-bound sheds as
      // Unavailable too; callers that can tell them apart (by the shed
      // counter) reclassify.
      return Fail::kUnavailable;
    default:
      return Fail::kRpcError;
  }
}

void FailureTally::Add(Fail fail) {
  ++attempted;
  switch (fail) {
    case Fail::kNone:
      break;
    case Fail::kShed:
      ++shed;
      break;
    case Fail::kDeadline:
      ++deadline;
      break;
    case Fail::kUnavailable:
      ++unavailable;
      break;
    case Fail::kRpcError:
      ++rpc_error;
      break;
    case Fail::kMismatch:
      ++mismatch;
      break;
  }
}

void FailureTally::Merge(const FailureTally& other) {
  attempted += other.attempted;
  shed += other.shed;
  deadline += other.deadline;
  unavailable += other.unavailable;
  rpc_error += other.rpc_error;
  mismatch += other.mismatch;
}

std::vector<OpRecord> PoissonSchedule(double rate_per_s, double seconds,
                                      uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_per_s);
  std::vector<OpRecord> ops;
  ops.reserve(static_cast<size_t>(rate_per_s * seconds * 1.1) + 16);
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    OpRecord op;
    op.scheduled_s = t;
    ops.push_back(op);
  }
  return ops;
}

double RunOpenLoop(std::vector<OpRecord>* ops, int callers,
                   const IssueFn& issue) {
  std::atomic<size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&] {
      // Precise sends: no timer slack, and the last stretch before the
      // scheduled time is spun rather than slept, so the generator's own
      // wake-up jitter does not land in sub-millisecond latencies.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= ops->size()) return;
        OpRecord& op = (*ops)[i];
        const Clock::time_point due = Due(t0, op);
        std::this_thread::sleep_until(due - kSpinBeforeSend);
        while (Clock::now() < due) {
        }
        op.sent_s = Since(t0, Clock::now());
        issue(i, &op, t0);
        op.done_s = Since(t0, Clock::now());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return Since(t0, Clock::now());
}

double RunClosedLoop(double seconds, int callers, const IssueFn& issue,
                     std::vector<OpRecord>* ops) {
  std::mutex mutex;
  std::atomic<size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&] {
      std::vector<OpRecord> local;
      while (Since(t0, Clock::now()) < seconds) {
        OpRecord op;
        op.scheduled_s = op.sent_s = Since(t0, Clock::now());
        issue(next.fetch_add(1), &op, t0);
        op.done_s = Since(t0, Clock::now());
        local.push_back(op);
      }
      std::lock_guard<std::mutex> lock(mutex);
      ops->insert(ops->end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) t.join();
  return Since(t0, Clock::now());
}

Lateness MeasureLateness(const std::vector<OpRecord>& ops,
                         double phase_seconds) {
  Lateness late;
  if (ops.empty()) return late;
  std::vector<double> ms;
  ms.reserve(ops.size());
  for (const OpRecord& op : ops) ms.push_back(op.late_ms());
  late.p50_ms = Quantile(ms, 0.50);
  late.p99_ms = Quantile(ms, 0.99);
  late.final_lag_frac = (ops.back().sent_s - ops.back().scheduled_s) /
                        std::max(phase_seconds, 1e-9);
  // At the offered rate most sends leave on time; a median send that is
  // a millisecond late, or a backlog worth a fifth of the phase at the
  // end, means the offered load was not what the schedule says.
  late.invalid = late.p50_ms > 1.0 || late.final_lag_frac > 0.2;
  return late;
}

// -- Tracing -------------------------------------------------------------

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kHarness:
      return "harness";
    case Layer::kSimd:
      return "simd";
    case Layer::kCore:
      return "core";
    case Layer::kGpusim:
      return "gpusim";
    case Layer::kServe:
      return "serve";
    case Layer::kNet:
      return "net";
  }
  return "?";
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int64_t Tracer::ToNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int64_t Tracer::Record(const char* name, Layer layer, int64_t start_ns,
                       int64_t end_ns, int64_t parent, uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, layer, start_ns, end_ns, parent, request_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Open(const char* name, Layer layer, int64_t parent,
                     uint64_t request_id) {
  if (!enabled_) return -1;
  const int64_t now = ToNs(Clock::now());
  return Record(name, layer, now, now, parent, request_id);
}

int64_t Tracer::OpenScheduled(const char* name, uint64_t request_id,
                              Clock::time_point due) {
  if (!enabled_) return -1;
  const int64_t start = ToNs(due);
  return Record(name, Layer::kHarness, start, start, -1, request_id);
}

void Tracer::Close(int64_t id) {
  if (id < 0) return;
  const int64_t end = ToNs(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

int64_t Tracer::RecordTail(int64_t parent, const char* name, Layer layer,
                           int64_t duration_ns) {
  if (!enabled_ || parent < 0) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& p = spans_[static_cast<size_t>(parent)];
  const int64_t start =
      std::max(p.start_ns, p.end_ns - std::max<int64_t>(0, duration_ns));
  spans_.push_back(Span{name, layer, start, p.end_ns, parent, p.request_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

namespace {

/// Per-span self time in ns (duration minus the children's durations);
/// spans under a root named "gate" count 0: the correctness gates are
/// recorded in the span file but are not the workload's time.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  std::vector<bool> gated(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = s.end_ns - s.start_ns;
    // Parents are recorded before their children.
    gated[i] = s.parent < 0 ? std::strcmp(s.name, "gate") == 0
                            : gated[static_cast<size_t>(s.parent)];
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (gated[i]) self[i] = 0;
  }
  return self;
}

}  // namespace

std::vector<double> Tracer::LayerSelfMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<int64_t> self = SelfTimes(spans_);
  std::vector<double> ms(kNumLayers, 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    ms[static_cast<size_t>(spans_[i].layer)] +=
        static_cast<double>(self[i]) * 1e-6;
  }
  return ms;
}

std::map<std::string, double> Tracer::ResidualMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<int64_t> self = SelfTimes(spans_);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer == Layer::kHarness &&
        std::strcmp(spans_[i].name, "gate") != 0) {
      out[spans_[i].name] += static_cast<double>(self[i]) * 1e-6;
    }
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

Status Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"layer\": \"" << LayerName(s.layer)
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request_id
        << "}\n";
  }
  return out ? Status::Ok() : Status::IoError("short write to " + path);
}

// -- Results -------------------------------------------------------------

void RunResult::Add(const std::string& name, const std::string& unit,
                    double value, uint64_t samples) {
  metrics.push_back(Metric{name, unit, value, samples});
}

FailureTally& RunResult::Phase(const std::string& name) {
  for (auto& [phase, tally] : phases) {
    if (phase == name) return tally;
  }
  phases.emplace_back(name, FailureTally{});
  return phases.back().second;
}

FailureTally RunResult::Total() const {
  FailureTally total;
  for (const auto& [phase, tally] : phases) total.Merge(tally);
  return total;
}

void AddHarnessLayerMetrics(const Tracer& tracer, const Lateness& late,
                            double overhead_pct, RunResult* result) {
  const std::vector<double> self = tracer.LayerSelfMs();
  const uint64_t spans = tracer.size();
  for (int l = 1; l < kNumLayers; ++l) {
    result->Add(std::string("span.") + LayerName(static_cast<Layer>(l)) +
                    "_self_ms",
                "ms", self[l], spans);
  }
  const std::map<std::string, double> residual = tracer.ResidualMs();
  double total = 0.0;
  std::string top;
  double top_ms = -1.0;
  for (const auto& [name, ms] : residual) {
    total += ms;
    if (ms > top_ms) {
      top_ms = ms;
      top = name;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "unattributed %-28s %12.3f ms",
                  name.c_str(), ms);
    result->notes.push_back(line);
  }
  result->Add("span.unattributed_ms", "ms", total, spans);
  if (!top.empty()) {
    result->notes.push_back("largest unattributed residual: " + top);
  }
  result->Add("gen.late_p50_ms", "ms", late.p50_ms);
  result->Add("gen.late_p99_ms", "ms", late.p99_ms);
  const FailureTally t = result->Total();
  result->Add("gen.attempted", "count", static_cast<double>(t.attempted));
  result->Add("gen.failed", "count", static_cast<double>(t.failed()));
  result->Add("gen.failed_shed", "count", static_cast<double>(t.shed));
  result->Add("gen.failed_deadline", "count", static_cast<double>(t.deadline));
  result->Add("gen.failed_unavailable", "count",
              static_cast<double>(t.unavailable));
  result->Add("gen.failed_rpc", "count", static_cast<double>(t.rpc_error));
  result->Add("gen.failed_mismatch", "count", static_cast<double>(t.mismatch));
  result->Add("trace.overhead_pct", "%", overhead_pct);
}

namespace {

/// VmHWM of /proc/<pid>/status in KiB (0 when unreadable).
double VmHwmKib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb(const std::vector<int>& extra_pids) {
  double kib = VmHwmKib("self");
  for (int pid : extra_pids) kib += VmHwmKib(std::to_string(pid));
  return kib / 1024.0;
}

int Callers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::vector<float> RowVector(const HostMatrix& points, size_t row) {
  return std::vector<float>(points.row(row), points.row(row) + points.cols());
}

HostMatrix ShuffledRows(const HostMatrix& points, uint64_t seed) {
  std::vector<size_t> order(points.rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  HostMatrix out(order.size(), points.cols());
  for (size_t i = 0; i < order.size(); ++i) {
    std::memcpy(out.mutable_row(i), points.row(order[i]),
                points.cols() * sizeof(float));
  }
  return out;
}

HostMatrix ClusteredPoints(size_t n, size_t dims, uint64_t seed) {
  dataset::MixtureConfig cfg;
  cfg.n = n;
  cfg.dims = dims;
  cfg.clusters = 64;
  cfg.spread = 0.03f;
  cfg.size_skew = 0.5f;
  cfg.intrinsic_dim = 3;
  cfg.seed = kGeometrySeed;
  return ShuffledRows(dataset::MakeGaussianMixture("perfbench", cfg).points,
                      seed);
}

bool SameNeighbors(const Neighbor* a, const Neighbor* b, size_t count) {
  return std::memcmp(a, b, count * sizeof(Neighbor)) == 0;
}

}  // namespace sweetknn::perfbench
