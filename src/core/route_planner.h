#ifndef SWEETKNN_CORE_ROUTE_PLANNER_H_
#define SWEETKNN_CORE_ROUTE_PLANNER_H_

#include <atomic>
#include <cstdint>

namespace sweetknn::core {

/// Which execution path answers a query fragment. Both paths return
/// bit-identical neighbor lists (the mutation-differential fuzz suite
/// proves engine == brute force, and the vectorized host path IS the
/// brute-force kernels), so routing never changes an answer.
enum class QueryRoute { kDevice, kHost };

enum class PlannerMode {
  kAuto,         ///< the serving default: the vectorized host kernels
  kForceDevice,  ///< always the simulated-GPU TI engine (pre-planner behavior)
  kForceHost,    ///< always the vectorized host kernels
};

/// The "device" is a cycle-accounting simulator: its wall time measures
/// simulation overhead, not GPU silicon, so no wall-clock model can
/// price it against the host. Only a caller that wants the simulated
/// engine's answer — the paper benches, the forced-route suites — asks
/// for it with kForceDevice; everything else answers on the host.
struct PlannerConfig {
  PlannerMode mode = PlannerMode::kAuto;
  /// Not a knob, and nothing in src/ reads it: the block cycle
  /// perfbench/join_batch groups its work by, kept so join_batch's run
  /// length stays the same on both sides of a benchmark comparison.
  static constexpr int explore_interval = 16;
};

/// Thread-safe route switch between the simulated-GPU TI engine and the
/// vectorized host path. Choose() is lock-free (plain atomics): the
/// serving dispatcher calls it per shard per group while tests and the
/// fuzz harness flip the mode concurrently.
class RoutePlanner {
 public:
  /// `config.mode` may be overridden by SWEETKNN_PLANNER
  /// ("auto" | "device" | "host"); unknown values are ignored.
  explicit RoutePlanner(const PlannerConfig& config = {});

  /// Routes one query fragment (one shard's base scan) and counts the
  /// decision.
  QueryRoute Choose();

  /// Live mode switch (tests and the mutation fuzz harness).
  void set_mode(PlannerMode mode) {
    mode_.store(static_cast<int>(mode), std::memory_order_relaxed);
  }
  PlannerMode mode() const {
    return static_cast<PlannerMode>(mode_.load(std::memory_order_relaxed));
  }

  uint64_t device_routes() const {
    return device_routes_.load(std::memory_order_relaxed);
  }
  uint64_t host_routes() const {
    return host_routes_.load(std::memory_order_relaxed);
  }

  const PlannerConfig& config() const { return config_; }

 private:
  PlannerConfig config_;
  std::atomic<int> mode_;
  std::atomic<uint64_t> device_routes_{0};
  std::atomic<uint64_t> host_routes_{0};
};

}  // namespace sweetknn::core

#endif  // SWEETKNN_CORE_ROUTE_PLANNER_H_
