// The repo benchmark's driver: runs one seeded workload, prints its
// metrics as a table (name, unit, samples), an env block, and as the
// last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 the
// per-layer metrics of a separate traced run, whose spans are written to
// <trace-dir>/trace_<workload>_<seed>.jsonl. perfbench/run.py builds and
// invokes it; METRICS.md maps every metric to the layer it measures.
//
// Usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "workloads.h"

namespace sweetknn::perfbench {
namespace {

void MakeDirs(const std::string& path) {
  for (size_t pos = path.find('/', 1); ; pos = path.find('/', pos + 1)) {
    ::mkdir(path.substr(0, pos).c_str(), 0755);
    if (pos == std::string::npos) break;
  }
}

/// Full-precision JSON number (non-finite values cannot occur in a valid
/// run; they print as -1 so the result stays parseable).
std::string Number(double v) {
  if (!std::isfinite(v)) return "-1";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Tracer tracer(args.trace);
  RunResult result;
  if (args.workload == "serve_rw") {
    result = RunServeRw(args, &tracer);
  } else if (args.workload == "cluster_read") {
    result = RunClusterRead(args, &tracer, PERFBENCH_WORKER_BINARY);
  } else if (args.workload == "join_batch") {
    result = RunJoinBatch(args, &tracer);
  } else if (args.workload == "paper_sim") {
    result = RunPaperSim(args, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload '%s' (serve_rw, cluster_read, "
                 "join_batch, paper_sim)\n", args.workload.c_str());
    return 2;
  }

  std::string env = bench::EnvJson(bench::DetectEnv());
  env = env.substr(2, env.rfind(',') - 2);  // drop indent and ",\n"
  std::printf("{%s, \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"offered_rps\": %g}\n",
              env.c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, result.offered_rps);
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const auto& [phase, p] : result.phases) {
    std::printf("phase %-13s attempted %7llu ok %7llu failed %llu (shed %llu, "
                "deadline %llu, unavailable %llu, rpc %llu, mismatch %llu)\n",
                phase.c_str(), static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.attempted - p.failed()),
                static_cast<unsigned long long>(p.failed()),
                static_cast<unsigned long long>(p.shed),
                static_cast<unsigned long long>(p.deadline),
                static_cast<unsigned long long>(p.unavailable),
                static_cast<unsigned long long>(p.rpc_error),
                static_cast<unsigned long long>(p.mismatch));
  }
  std::printf("%-30s %16s %-6s %8s\n", "metric", "value", "unit", "samples");
  auto print = [](const Metric& m) {
    std::printf("%-30s %16.6g %-6s %8llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  };
  for (const Metric& m : result.report) print(m);
  std::printf("--\n");
  for (const Metric& m : result.metrics) print(m);

  if (args.trace) {
    MakeDirs(args.trace_dir);
    const std::string path = args.trace_dir + "/trace_" + args.workload + "_" +
                             std::to_string(args.seed) + ".jsonl";
    const Status written = tracer.WriteJson(path);
    std::printf("%s: %zu spans -> %s\n",
                written.ok() ? "trace" : "trace FAILED", tracer.size(),
                path.c_str());
  }
  if (result.invalid) {
    std::fprintf(stderr, "run invalid, not reported: %s\n",
                 result.invalid_reason.c_str());
    std::fflush(stdout);
    return 3;
  }
  const FailureTally t = result.Total();
  const bool correct = t.failed() == 0 && t.attempted > 0;
  std::string metrics;
  for (const Metric& m : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed()), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sweetknn::perfbench

int main(int argc, char** argv) {
  return sweetknn::perfbench::Main(argc, argv);
}
