#ifndef SWEETKNN_GPUSIM_WARP_H_
#define SWEETKNN_GPUSIM_WARP_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "gpusim/cache_sim.h"
#include "gpusim/device_spec.h"
#include "gpusim/exec_engine.h"
#include "gpusim/memory.h"
#include "gpusim/stats.h"

namespace sweetknn::gpusim {

/// Bitmask over the 32 lanes of a warp; bit i set means lane i is active.
using LaneMask = uint32_t;
inline constexpr LaneMask kFullMask = 0xffffffffu;

/// Per-lane register value: the kernel-visible model of a thread-private
/// variable held across SIMT instructions.
template <typename T>
struct Reg {
  std::array<T, kWarpSize> lane{};
  T& operator[](int i) { return lane[static_cast<size_t>(i)]; }
  const T& operator[](int i) const { return lane[static_cast<size_t>(i)]; }
};

/// Execution context of one warp. Kernels are written against this class:
/// every arithmetic/control step is expressed as a masked SIMT instruction,
/// so divergence (If/While with partially-true predicates) serializes and
/// is charged exactly as on real hardware, and every global-memory access
/// is broken into 128-byte transactions for coalescing accounting.
///
/// The model is warp-synchronous: warps of a block execute sequentially and
/// there is no cross-warp __syncthreads (no Sweet KNN kernel requires it).
class Warp {
 public:
  /// Bytes per coalesced global-memory transaction.
  static constexpr uint64_t kSegmentBytes = 128;

  /// `cache`: L2 model consulted inline (serial engine). `locks`: striped
  /// spinlocks making atomics host-atomic, passed only when blocks run on
  /// concurrent host threads. `trace`: when set, cache-order-dependent
  /// accesses are recorded instead of probed inline (`cache` is ignored) so
  /// the engine can replay them in block order — see SegmentTrace.
  Warp(KernelStats* stats, int block_id, int block_threads, int warp_in_block,
       LaneMask initial_mask, CacheSim* cache = nullptr,
       HostAtomicLocks* locks = nullptr, SegmentTrace* trace = nullptr)
      : stats_(stats),
        block_id_(block_id),
        block_threads_(block_threads),
        warp_in_block_(warp_in_block),
        active_(initial_mask),
        cache_(cache),
        locks_(locks),
        trace_(trace) {}

  Warp(const Warp&) = delete;
  Warp& operator=(const Warp&) = delete;

  // --- Geometry -----------------------------------------------------------

  int block_id() const { return block_id_; }
  int block_threads() const { return block_threads_; }
  int warp_in_block() const { return warp_in_block_; }
  /// Global thread id of a lane (blockIdx.x * blockDim.x + threadIdx.x).
  int GlobalThreadId(int lane) const {
    return block_id_ * block_threads_ + warp_in_block_ * kWarpSize + lane;
  }
  /// Thread id within the block.
  int BlockThreadId(int lane) const {
    return warp_in_block_ * kWarpSize + lane;
  }

  LaneMask active() const { return active_; }
  bool AnyActive() const { return active_ != 0; }
  int ActiveCount() const { return std::popcount(active_); }

  // --- Compute instructions ------------------------------------------------

  /// Issues one SIMT instruction (or `cost` fused instructions, e.g. a
  /// d-dimensional distance evaluated as 2d FLOP-instructions) and runs
  /// `body(lane)` for every active lane.
  template <typename F>
  void Op(F&& body, uint64_t cost = 1) {
    ChargeInstruction(cost);
    ForActive(std::forward<F>(body));
  }

  /// Evaluates `pred(lane)` over active lanes into a mask; one instruction.
  template <typename F>
  LaneMask Ballot(F&& pred) {
    ChargeInstruction(1);
    LaneMask result = 0;
    LaneMask m = active_;
    while (m != 0) {
      const int lane = std::countr_zero(m);
      m &= m - 1;
      if (pred(lane)) result |= LaneMask{1} << lane;
    }
    return result;
  }

  // --- Control flow ---------------------------------------------------------

  /// Executes `then_body` with the active mask narrowed to pred. Counts a
  /// divergent branch when only part of the warp takes it.
  template <typename FT>
  void If(LaneMask pred, FT&& then_body) {
    const LaneMask taken = pred & active_;
    if (taken != 0 && taken != active_) ++stats_->divergent_branches;
    if (taken == 0) return;
    const LaneMask saved = active_;
    active_ = taken;
    then_body();
    active_ = RejoinMask(saved);
  }

  /// Two-sided branch; both sides execute serially when the warp diverges.
  template <typename FT, typename FE>
  void IfElse(LaneMask pred, FT&& then_body, FE&& else_body) {
    const LaneMask saved = active_;
    const LaneMask taken = pred & saved;
    const LaneMask not_taken = ~pred & saved;
    if (taken != 0 && not_taken != 0) ++stats_->divergent_branches;
    if (taken != 0) {
      active_ = taken;
      then_body();
    }
    // Lanes may have broken out of an enclosing loop inside then_body;
    // RejoinMask keeps those lanes off.
    if (not_taken != 0) {
      active_ = RejoinMask(not_taken);
      if (active_ != 0) else_body();
    }
    active_ = RejoinMask(saved);
  }

  /// Lockstep loop: iterates while any live lane's `cond(lane)` holds.
  /// Lanes whose condition fails sit idle (costing efficiency) until every
  /// lane is done, exactly like a divergent loop on hardware. Inside the
  /// body, BreakIf/ContinueIf give per-lane break/continue.
  template <typename FC, typename FB>
  void While(FC&& cond, FB&& body) {
    const LaneMask saved = active_;
    loop_stack_.push_back(LoopFrame{active_});
    while (true) {
      LoopFrame& frame = loop_stack_.back();
      active_ = frame.live;
      if (active_ == 0) break;
      const LaneMask continuing = Ballot(cond);
      if (continuing != active_ && continuing != 0) {
        ++stats_->divergent_branches;
      }
      frame.live &= continuing;
      active_ = frame.live;
      if (active_ == 0) break;
      body();
    }
    loop_stack_.pop_back();
    active_ = saved;
    // Propagate breaks to an enclosing loop, if any.
    active_ = RejoinMask(active_);
  }

  /// Removes `pred` lanes from the innermost While loop (and from the
  /// current active set) — the SIMT equivalent of `break`.
  void BreakIf(LaneMask pred) {
    SK_DCHECK(!loop_stack_.empty());
    const LaneMask breaking = pred & active_;
    if (breaking != 0 && breaking != active_) ++stats_->divergent_branches;
    loop_stack_.back().live &= ~breaking;
    active_ &= ~breaking;
  }

  /// Deactivates `pred` lanes for the remainder of this loop iteration —
  /// the SIMT equivalent of `continue`. They rejoin at the next iteration.
  void ContinueIf(LaneMask pred) {
    const LaneMask skipping = pred & active_;
    if (skipping != 0 && skipping != active_) ++stats_->divergent_branches;
    active_ &= ~skipping;
  }

  // --- Global memory --------------------------------------------------------

  /// Per-lane gather load: lane reads element `index(lane)`; delivers the
  /// value through `sink(lane, value)`. One load instruction plus one
  /// transaction per distinct 128-byte segment touched.
  template <typename T, typename IdxF, typename SinkF>
  void Load(const DeviceBuffer<T>& buf, IdxF&& index, SinkF&& sink) {
    ChargeInstruction(1);
    ++stats_->global_load_instructions;
    BeginSegments();
    ForActive([&](int lane) {
      const size_t i = static_cast<size_t>(index(lane));
      SK_DCHECK(i < buf.size());
      AddSegments(buf.AddressOf(i), sizeof(T));
      sink(lane, buf[i]);
    });
    FlushSegments();
  }

  /// Per-lane scatter store of `value(lane)` to element `index(lane)`.
  template <typename T, typename IdxF, typename ValF>
  void Store(DeviceBuffer<T>& buf, IdxF&& index, ValF&& value) {
    ChargeInstruction(1);
    ++stats_->global_store_instructions;
    BeginSegments();
    ForActive([&](int lane) {
      const size_t i = static_cast<size_t>(index(lane));
      SK_DCHECK(i < buf.size());
      AddSegments(buf.AddressOf(i), sizeof(T));
      buf[i] = value(lane);
    });
    FlushSegments();
  }

  /// Contiguous-range load: lane reads `count` consecutive elements
  /// starting at `first(lane)` (e.g. a whole d-dimensional point with
  /// float4 vector loads of width `vector_width` elements). Delivers a
  /// pointer to the range via `sink(lane, ptr)`. Issues
  /// ceil(count/vector_width) load instructions and counts the union of
  /// 128-byte segments touched by all lanes (so lanes reading the same
  /// point broadcast-coalesce into shared transactions).
  template <typename T, typename IdxF, typename SinkF>
  void LoadRange(const DeviceBuffer<T>& buf, IdxF&& first, size_t count,
                 int vector_width, SinkF&& sink) {
    SK_DCHECK(vector_width > 0);
    const uint64_t instructions =
        (count + static_cast<size_t>(vector_width) - 1) /
        static_cast<size_t>(vector_width);
    ChargeInstruction(instructions);
    stats_->global_load_instructions += instructions;
    BeginSegments();
    ForActive([&](int lane) {
      const size_t i = static_cast<size_t>(first(lane));
      SK_DCHECK(i + count <= buf.size());
      AddSegments(buf.AddressOf(i), count * sizeof(T));
      sink(lane, buf.data() + i);
    });
    FlushSegments();
  }

  /// Strided-range load: lane reads `count` elements spaced `stride`
  /// elements apart starting at `first(lane)` — the access pattern of a
  /// column-major point layout (paper Fig. 7a), where consecutive
  /// dimensions of one point are |N| apart. Issues one instruction per
  /// element. Transactions are counted exactly for the first element
  /// across lanes and multiplied by `count`: with stride*sizeof(T) >= 128
  /// (always true for column-major point matrices of any real size) each
  /// element repeats the same lane-coalescing pattern.
  template <typename T, typename IdxF, typename SinkF>
  void LoadStrided(const DeviceBuffer<T>& buf, IdxF&& first, size_t count,
                   size_t stride, SinkF&& sink) {
    SK_DCHECK(count > 0);
    ChargeInstruction(count);
    stats_->global_load_instructions += count;
    BeginSegments();
    ForActive([&](int lane) {
      const size_t i = static_cast<size_t>(first(lane));
      SK_DCHECK(i + (count - 1) * stride < buf.size());
      AddSegments(buf.AddressOf(i), sizeof(T));
      sink(lane, buf.data() + i);
    });
    // Count the distinct segments of element 0, consult the cache for
    // them, and replicate both counts per element (each further element
    // repeats the same lane pattern shifted by the stride).
    SortSegments();
    std::array<uint64_t, kWarpSize> distinct;
    size_t first_elem_segments = 0;
    uint64_t prev = ~uint64_t{0};
    for (size_t s = 0; s < num_segments_; ++s) {
      if (segments_[s].first != prev) {
        distinct[first_elem_segments++] = segments_[s].first;
      }
      prev = segments_[s].first;
    }
    stats_->global_transactions +=
        static_cast<uint64_t>(first_elem_segments) * count;
    if (trace_ != nullptr) {
      // DRAM charge is resolved at block-ordered replay time.
      trace_->AddStrided(count, distinct.data(), first_elem_segments);
      return;
    }
    uint64_t first_elem_misses = 0;
    for (size_t s = 0; s < first_elem_segments; ++s) {
      if (cache_ == nullptr || !cache_->Access(distinct[s])) {
        ++first_elem_misses;
      }
    }
    stats_->dram_transactions += first_elem_misses * count;
  }

  /// Contiguous-range store mirror of LoadRange: lane writes `count`
  /// elements produced by `value(lane, j)` starting at `first(lane)`.
  template <typename T, typename IdxF, typename ValF>
  void StoreRange(DeviceBuffer<T>& buf, IdxF&& first, size_t count,
                  int vector_width, ValF&& value) {
    SK_DCHECK(vector_width > 0);
    const uint64_t instructions =
        (count + static_cast<size_t>(vector_width) - 1) /
        static_cast<size_t>(vector_width);
    ChargeInstruction(instructions);
    stats_->global_store_instructions += instructions;
    BeginSegments();
    ForActive([&](int lane) {
      const size_t i = static_cast<size_t>(first(lane));
      SK_DCHECK(i + count <= buf.size());
      AddSegments(buf.AddressOf(i), count * sizeof(T));
      for (size_t j = 0; j < count; ++j) buf[i + j] = value(lane, j);
    });
    FlushSegments();
  }

  // --- Manual accounting -------------------------------------------------------

  /// Charges pre-aggregated instruction counts, for hybrid kernels that
  /// run a tight scalar inner loop functionally and account for it in
  /// bulk (e.g. the baseline's k-selection scan). `active_lane_ops` must
  /// be <= 32 * instructions.
  void ChargeManual(uint64_t instructions, uint64_t active_lane_ops) {
    SK_DCHECK(active_lane_ops <= instructions * kWarpSize);
    stats_->warp_instructions += instructions;
    stats_->active_lane_ops += active_lane_ops;
  }

  /// Charges pre-aggregated global-memory traffic. `dram_transactions`
  /// (default: all of them) is the portion assumed to miss L2 — bulk
  /// streaming scans pass the default; charges for known-hot regions
  /// (e.g. a thread's own kNearests heap that fits in cache) pass less.
  void ChargeMemory(uint64_t transactions, uint64_t load_instructions,
                    uint64_t store_instructions,
                    uint64_t dram_transactions = ~uint64_t{0}) {
    stats_->global_transactions += transactions;
    stats_->dram_transactions +=
        dram_transactions == ~uint64_t{0} ? transactions
                                          : dram_transactions;
    stats_->global_load_instructions += load_instructions;
    stats_->global_store_instructions += store_instructions;
    stats_->warp_instructions += load_instructions + store_instructions;
    stats_->active_lane_ops +=
        (load_instructions + store_instructions) *
        static_cast<uint64_t>(std::popcount(active_));
  }

  // --- Atomics ---------------------------------------------------------------

  /// atomicAdd: lane adds `value(lane)` to element `index(lane)` and
  /// receives the previous value through `old_sink(lane, old)`. Lanes of
  /// the warp hitting the same address serialize (counted).
  template <typename T, typename IdxF, typename ValF, typename OldF>
  void AtomicAdd(DeviceBuffer<T>& buf, IdxF&& index, ValF&& value,
                 OldF&& old_sink) {
    AtomicRmw(
        buf, std::forward<IdxF>(index),
        [&](int lane, T& cell) {
          const T old = cell;
          cell = old + value(lane);
          old_sink(lane, old);
        });
  }

  /// atomicMin on integral types (e.g. packed (distance bits, index)
  /// keys for argmin reductions).
  template <typename T, typename IdxF, typename ValF>
  void AtomicMin(DeviceBuffer<T>& buf, IdxF&& index, ValF&& value) {
    AtomicRmw(buf, std::forward<IdxF>(index), [&](int lane, T& cell) {
      cell = std::min(cell, value(lane));
    });
  }

  /// atomicMin on floats (the paper implements it with a CAS loop; we
  /// charge it like a plain atomic plus conflict serialization).
  template <typename IdxF, typename ValF>
  void AtomicMinFloat(DeviceBuffer<float>& buf, IdxF&& index, ValF&& value) {
    AtomicRmw(buf, std::forward<IdxF>(index), [&](int lane, float& cell) {
      cell = std::min(cell, value(lane));
    });
  }

  /// atomicMax on floats (used for per-cluster max member distance).
  template <typename IdxF, typename ValF>
  void AtomicMaxFloat(DeviceBuffer<float>& buf, IdxF&& index, ValF&& value) {
    AtomicRmw(buf, std::forward<IdxF>(index), [&](int lane, float& cell) {
      cell = std::max(cell, value(lane));
    });
  }

 private:
  struct LoopFrame {
    LaneMask live;
  };

  void ChargeInstruction(uint64_t cost) {
    stats_->warp_instructions += cost;
    stats_->active_lane_ops +=
        cost * static_cast<uint64_t>(std::popcount(active_));
  }

  /// Runs body(lane) for every active lane in ascending lane order.
  template <typename F>
  void ForActive(F&& body) {
    LaneMask m = active_;
    while (m != 0) {
      const int lane = std::countr_zero(m);
      m &= m - 1;
      body(lane);
    }
  }

  /// A mask a scope wants to restore, minus lanes that broke out of the
  /// innermost loop while the scope was running.
  LaneMask RejoinMask(LaneMask mask) const {
    if (loop_stack_.empty()) return mask;
    return mask & loop_stack_.back().live;
  }

  template <typename T, typename IdxF, typename RmwF>
  void AtomicRmw(DeviceBuffer<T>& buf, IdxF&& index, RmwF&& rmw) {
    ChargeInstruction(1);
    BeginSegments();
    std::array<uint64_t, kWarpSize> addresses;
    int n = 0;
    ForActive([&](int lane) {
      const size_t i = static_cast<size_t>(index(lane));
      SK_DCHECK(i < buf.size());
      const uint64_t addr = buf.AddressOf(i);
      addresses[static_cast<size_t>(n++)] = addr;
      AddSegments(addr, sizeof(T));
      if (locks_ != nullptr) {
        // Blocks run on concurrent host threads: the simulated atomic must
        // be a real host atomic on the backing cell.
        locks_->Lock(addr);
        rmw(lane, buf[i]);
        locks_->Unlock(addr);
      } else {
        rmw(lane, buf[i]);
      }
    });
    FlushSegments();
    stats_->atomic_operations += static_cast<uint64_t>(n);
    // Conflicts: lanes minus distinct addresses serialize.
    std::sort(addresses.begin(), addresses.begin() + n);
    const int distinct = static_cast<int>(
        std::unique(addresses.begin(), addresses.begin() + n) -
        addresses.begin());
    stats_->atomic_serializations += static_cast<uint64_t>(n - distinct);
  }

  // Segment accounting: segments_ accumulates [first,last] 128B-segment
  // intervals touched by the lanes of one memory instruction (at most one
  // per lane); FlushSegments merges them and charges the distinct segment
  // count.
  struct SegmentInterval {
    uint64_t first;
    uint64_t last;
  };

  void BeginSegments() { num_segments_ = 0; }
  void AddSegments(uint64_t addr, uint64_t bytes) {
    SK_DCHECK(num_segments_ < segments_.size());
    segments_[num_segments_++] = {addr / kSegmentBytes,
                                  (addr + bytes - 1) / kSegmentBytes};
  }
  /// Orders the intervals by first segment. Broadcast and lane-ascending
  /// accesses arrive ordered and skip the sort. The order among intervals
  /// sharing a first segment is left open: the ascending merge folds them
  /// into one run whatever their order, so the merged runs (and the cache
  /// probes they make) are the same as after a full sort.
  void SortSegments() {
    const auto by_first = [](const SegmentInterval& a,
                             const SegmentInterval& b) {
      return a.first < b.first;
    };
    const auto begin = segments_.begin();
    const auto end = begin + static_cast<std::ptrdiff_t>(num_segments_);
    if (!std::is_sorted(begin, end, by_first)) std::sort(begin, end, by_first);
  }
  void FlushSegments() {
    if (num_segments_ == 0) return;
    SortSegments();
    uint64_t count = 0;
    uint64_t cur_first = segments_[0].first;
    uint64_t cur_last = segments_[0].last;
    auto emit = [&](uint64_t first, uint64_t last) {
      count += last - first + 1;
      if (trace_ != nullptr) {
        // DRAM charge is resolved at block-ordered replay time.
        trace_->AddInterval(first, last);
      } else if (cache_ != nullptr) {
        for (uint64_t seg = first; seg <= last; ++seg) {
          if (!cache_->Access(seg)) ++stats_->dram_transactions;
        }
      } else {
        stats_->dram_transactions += last - first + 1;
      }
    };
    for (size_t i = 1; i < num_segments_; ++i) {
      const SegmentInterval next = segments_[i];
      if (next.first <= cur_last + 1) {
        cur_last = std::max(cur_last, next.last);
      } else {
        emit(cur_first, cur_last);
        cur_first = next.first;
        cur_last = next.last;
      }
    }
    emit(cur_first, cur_last);
    stats_->global_transactions += count;
  }

  KernelStats* stats_;
  int block_id_;
  int block_threads_;
  int warp_in_block_;
  LaneMask active_;
  CacheSim* cache_;
  HostAtomicLocks* locks_ = nullptr;
  SegmentTrace* trace_ = nullptr;
  std::vector<LoopFrame> loop_stack_;
  std::array<SegmentInterval, kWarpSize> segments_{};
  size_t num_segments_ = 0;
};

}  // namespace sweetknn::gpusim

#endif  // SWEETKNN_GPUSIM_WARP_H_
