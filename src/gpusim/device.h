#ifndef SWEETKNN_GPUSIM_DEVICE_H_
#define SWEETKNN_GPUSIM_DEVICE_H_

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "gpusim/cache_sim.h"
#include "gpusim/cost_model.h"
#include "gpusim/device_spec.h"
#include "gpusim/exec_engine.h"
#include "gpusim/memory.h"
#include "gpusim/stats.h"
#include "gpusim/warp.h"

namespace sweetknn::gpusim {

/// Launch geometry (1-D grids are sufficient for every kernel here).
struct LaunchConfig {
  int grid_blocks = 1;
  int block_threads = 256;

  /// Grid covering at least `threads` threads with the given block size.
  static LaunchConfig Cover(int64_t threads, int block_threads) {
    SK_CHECK_GT(threads, 0);
    SK_CHECK_GT(block_threads, 0);
    LaunchConfig cfg;
    cfg.block_threads = block_threads;
    cfg.grid_blocks =
        static_cast<int>((threads + block_threads - 1) / block_threads);
    return cfg;
  }

  int64_t TotalThreads() const {
    return static_cast<int64_t>(grid_blocks) * block_threads;
  }
};

/// Static kernel resource requirements, as the CUDA compiler would report.
/// They drive the occupancy computation (and therefore simulated time).
struct KernelMeta {
  std::string name;
  int regs_per_thread = 32;
  int shared_bytes_per_block = 0;
  /// Ordered block span: the parallel engine splits the grid only at
  /// multiples of this many blocks, and one worker runs each span's
  /// blocks in block order. Set it when threads of neighbouring blocks
  /// share state whose *functional* result depends on execution order —
  /// e.g. a cooperating thread group that straddles a block edge and
  /// min-reduces into a slot it also reads back. Spans never share such
  /// state, so every span replays exactly as the serial engine would.
  ///
  /// kWholeGrid pins the launch to the serial engine on the calling
  /// thread: for kernels whose cross-block atomic *old values* feed
  /// functional state (fetch-add slot reservation followed by stores at
  /// the reserved offsets). Order-free atomics (pure add/min/max
  /// reductions) need neither.
  static constexpr int kWholeGrid = std::numeric_limits<int>::max();
  int ordered_span_blocks = 1;
};

/// A simulated GPU: owns global memory, executes kernels warp by warp in
/// lockstep SIMT semantics, and accumulates a Profile of launches with
/// simulated times from the cost model.
class Device {
 public:
  explicit Device(DeviceSpec spec)
      : spec_(std::move(spec)),
        allocator_(spec_.global_mem_bytes),
        cost_model_(spec_),
        cache_(spec_.l2_cache_bytes / Warp::kSegmentBytes) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceSpec& spec() const { return spec_; }
  const CostModel& cost_model() const { return cost_model_; }

  // --- Memory ---------------------------------------------------------------

  size_t free_bytes() const { return allocator_.free_bytes(); }
  size_t used_bytes() const { return allocator_.used(); }
  size_t peak_used_bytes() const { return allocator_.peak_used(); }

  /// Allocates `count` elements; aborts if the device is out of memory
  /// (callers that partition should consult free_bytes() / CanAllocate
  /// first, like real code sizing against cudaMemGetInfo).
  template <typename T>
  DeviceBuffer<T> Alloc(size_t count, const char* what = "buffer") {
    uint64_t base = 0;
    SK_CHECK(allocator_.Allocate(count * sizeof(T), &base))
        << "simulated device out of memory allocating " << count * sizeof(T)
        << " bytes for " << what << " (free: " << allocator_.free_bytes()
        << ")";
    return DeviceBuffer<T>(&allocator_, base, count);
  }

  bool CanAllocate(size_t bytes) const {
    // Same rounding the allocator applies, so the two can never disagree.
    return internal_memory::RoundUpAllocation(bytes) <=
           allocator_.free_bytes();
  }

  /// Host-to-device copy: fills the buffer and charges PCIe transfer time.
  template <typename T>
  void CopyToDevice(DeviceBuffer<T>* buf, const T* src, size_t count) {
    SK_CHECK_LE(count, buf->size());
    std::memcpy(buf->data(), src, count * sizeof(T));
    profile_.transfer_time_s += cost_model_.TransferTime(count * sizeof(T));
  }

  /// Device-to-host copy; charges PCIe transfer time.
  template <typename T>
  void CopyToHost(const DeviceBuffer<T>& buf, T* dst, size_t count) {
    SK_CHECK_LE(count, buf.size());
    std::memcpy(dst, buf.data(), count * sizeof(T));
    profile_.transfer_time_s += cost_model_.TransferTime(count * sizeof(T));
  }

  /// Charges PCIe time for a transfer whose data already lives host-side
  /// (used by hybrid kernels that fill host results directly).
  void ChargeTransfer(size_t bytes) {
    profile_.transfer_time_s += cost_model_.TransferTime(bytes);
  }

  // --- Execution --------------------------------------------------------------

  /// Host worker threads used to execute simulated grids. 1 (the default
  /// unless SWEETKNN_SIM_THREADS says otherwise) is the exact legacy serial
  /// engine; N > 1 dispatches blocks across the shared thread pool with
  /// bit-identical stats and results (see docs/gpusim.md, "Execution
  /// engine").
  int execution_threads() const { return execution_threads_; }
  void set_execution_threads(int n) {
    execution_threads_ = std::clamp(n, 1, common::kMaxSimThreads);
  }

  /// Launches `kernel` (signature void(Warp&)) over the grid: the functor
  /// runs once per warp, with partial trailing warps masked. With
  /// execution_threads() > 1 the grid's blocks run on concurrent host
  /// threads — `kernel` must then be safe to invoke concurrently (capture
  /// no mutable host state outside Warp; every Sweet KNN kernel qualifies
  /// or declares KernelMeta::ordered_span_blocks). Returns the finalized
  /// launch record; the reference stays valid until ResetProfile
  /// (launches live in a std::deque, so later launches never invalidate
  /// it).
  template <typename KernelFn>
  const LaunchRecord& Launch(const KernelMeta& meta, const LaunchConfig& cfg,
                             KernelFn&& kernel) {
    SK_CHECK_GT(cfg.grid_blocks, 0);
    SK_CHECK_GT(cfg.block_threads, 0);
    SK_CHECK_LE(cfg.block_threads, spec_.max_threads_per_block);

    LaunchRecord record;
    record.kernel_name = meta.name;
    record.grid_blocks = cfg.grid_blocks;
    record.block_threads = cfg.block_threads;
    record.regs_per_thread = meta.regs_per_thread;
    record.shared_bytes_per_block = meta.shared_bytes_per_block;

    SK_CHECK_GT(meta.ordered_span_blocks, 0);
    const int span = std::min(meta.ordered_span_blocks, cfg.grid_blocks);
    const int workers =
        std::min(execution_threads_, (cfg.grid_blocks + span - 1) / span);
    if (workers <= 1) {
      for (int block = 0; block < cfg.grid_blocks; ++block) {
        RunBlock(block, cfg, kernel, &record.stats, &cache_,
                 /*locks=*/nullptr, /*trace=*/nullptr);
      }
    } else {
      RunGridParallel(cfg, kernel, workers, span, &record.stats);
    }

    cost_model_.Finalize(&record);
    profile_.launches.push_back(std::move(record));
    return profile_.launches.back();
  }

  /// Records an analytically modeled launch (e.g. a CUBLAS GEMM call):
  /// no functional execution, just a named time contribution.
  const LaunchRecord& RecordAnalyticLaunch(const std::string& name,
                                           double sim_time_s);

  // --- Profiling ---------------------------------------------------------------

  const Profile& profile() const { return profile_; }
  Profile* mutable_profile() { return &profile_; }
  void ResetProfile() { profile_.Clear(); }

  /// Simulated time accumulated so far (kernels + transfers).
  double SimTime() const { return profile_.TotalTime(); }

 private:
  /// Runs all warps of one block against the given stat sink / cache /
  /// lock-table / trace combination.
  template <typename KernelFn>
  void RunBlock(int block, const LaunchConfig& cfg, KernelFn& kernel,
                KernelStats* stats, CacheSim* cache, HostAtomicLocks* locks,
                SegmentTrace* trace) {
    const int warps_per_block =
        (cfg.block_threads + kWarpSize - 1) / kWarpSize;
    for (int w = 0; w < warps_per_block; ++w) {
      const int lanes_before = w * kWarpSize;
      const int lanes = std::min(kWarpSize, cfg.block_threads - lanes_before);
      const LaneMask mask =
          lanes >= kWarpSize ? kFullMask : ((LaneMask{1} << lanes) - 1);
      Warp warp(stats, block, cfg.block_threads, w, mask, cache, locks,
                trace);
      kernel(warp);
    }
  }

  /// Parallel engine: splits the grid into chunks of consecutive blocks,
  /// runs chunks on pool workers against private KernelStats shards and
  /// per-chunk segment traces, then merges shards and replays traces in
  /// block order through the device cache. Stat counters are additive and
  /// the replay reproduces the serial cache-access sequence, so the merged
  /// record is bit-identical to serial execution for any worker count or
  /// chunking. Chunks are whole multiples of `span_blocks`, so each
  /// ordered span runs in block order on one worker; beyond that, chunk
  /// size only affects scheduling granularity.
  template <typename KernelFn>
  void RunGridParallel(const LaunchConfig& cfg, KernelFn& kernel, int workers,
                       int span_blocks, KernelStats* out_stats) {
    const int spans_per_chunk =
        std::max(1, cfg.grid_blocks / (workers * 4) / span_blocks);
    const int chunk_blocks = spans_per_chunk * span_blocks;
    const int num_chunks =
        (cfg.grid_blocks + chunk_blocks - 1) / chunk_blocks;
    struct Shard {
      KernelStats stats;
      SegmentTrace trace;
      std::atomic<bool> done{false};
    };
    std::vector<Shard> shards(static_cast<size_t>(num_chunks));
    std::atomic<int> cursor{0};
    std::mutex replay_mutex;
    int replay_frontier = 0;   // guarded by replay_mutex
    uint64_t replay_dram = 0;  // guarded by replay_mutex
    // Replays every finished chunk that is next in block order and frees
    // its trace, keeping peak trace memory near one in-flight chunk per
    // worker instead of the whole launch.
    auto drain_replays = [&] {
      std::lock_guard<std::mutex> lock(replay_mutex);
      while (replay_frontier < num_chunks &&
             shards[static_cast<size_t>(replay_frontier)].done.load(
                 std::memory_order_acquire)) {
        Shard& shard = shards[static_cast<size_t>(replay_frontier)];
        replay_dram += shard.trace.ReplayInto(&cache_);
        shard.trace.Release();
        ++replay_frontier;
      }
    };
    common::ThreadPool::Global()->ForkJoin(
        std::min(workers, num_chunks), [&](int) {
          for (;;) {
            const int c = cursor.fetch_add(1, std::memory_order_relaxed);
            if (c >= num_chunks) return;
            Shard& shard = shards[static_cast<size_t>(c)];
            const int begin = c * chunk_blocks;
            const int end = std::min(cfg.grid_blocks, begin + chunk_blocks);
            for (int block = begin; block < end; ++block) {
              RunBlock(block, cfg, kernel, &shard.stats, /*cache=*/nullptr,
                       &atomic_locks_, &shard.trace);
            }
            shard.done.store(true, std::memory_order_release);
            // The worker that completes the last outstanding chunk in
            // block order drains everything behind it, so after the join
            // the frontier has always reached num_chunks.
            drain_replays();
          }
        });
    for (const Shard& shard : shards) out_stats->Merge(shard.stats);
    SK_DCHECK(replay_frontier == num_chunks);
    out_stats->dram_transactions += replay_dram;
  }

  DeviceSpec spec_;
  internal_memory::Allocator allocator_;
  CostModel cost_model_;
  CacheSim cache_;
  HostAtomicLocks atomic_locks_;
  Profile profile_;
  int execution_threads_ = common::SimThreadsFromEnv();
};

}  // namespace sweetknn::gpusim

#endif  // SWEETKNN_GPUSIM_DEVICE_H_
