#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gpusim/cache_sim.h"
#include "gpusim/device.h"
#include "gpusim/exec_engine.h"
#include "gpusim/warp.h"
#include "gtest/gtest.h"

namespace sweetknn::gpusim {
namespace {

/// Device with a huge cold cache so DRAM counts equal transaction counts
/// unless a test wants hits.
class CoalescingTest : public ::testing::Test {
 protected:
  CoalescingTest() : dev_(DeviceSpec::TeslaK20c()) {}

  /// Launches a single full warp running `body`.
  template <typename F>
  KernelStats RunWarp(F&& body) {
    const LaunchRecord& rec =
        dev_.Launch(KernelMeta{"test", 32, 0}, LaunchConfig{1, 32},
                    [&](Warp& w) { body(w); });
    return rec.stats;
  }

  Device dev_;
};

TEST_F(CoalescingTest, BroadcastLoadIsOneTransaction) {
  auto buf = dev_.Alloc<float>(1024, "buf");
  const KernelStats s = RunWarp([&](Warp& w) {
    w.Load(buf, [](int) { return 0; }, [](int, float) {});
  });
  EXPECT_EQ(s.global_transactions, 1u);
  EXPECT_EQ(s.global_load_instructions, 1u);
}

TEST_F(CoalescingTest, ConsecutiveFloatsCoalesceToOneSegment) {
  auto buf = dev_.Alloc<float>(1024, "buf");
  // 32 x 4B = 128B = exactly one segment (alloc is 256-aligned).
  const KernelStats s = RunWarp([&](Warp& w) {
    w.Load(buf, [](int lane) { return lane; }, [](int, float) {});
  });
  EXPECT_EQ(s.global_transactions, 1u);
}

TEST_F(CoalescingTest, Stride32FloatsIsFullyScattered) {
  auto buf = dev_.Alloc<float>(32 * 32, "buf");
  const KernelStats s = RunWarp([&](Warp& w) {
    w.Load(buf, [](int lane) { return lane * 32; }, [](int, float) {});
  });
  EXPECT_EQ(s.global_transactions, 32u);
}

TEST_F(CoalescingTest, Stride2FloatsTouchesTwoSegments) {
  auto buf = dev_.Alloc<float>(64, "buf");
  const KernelStats s = RunWarp([&](Warp& w) {
    w.Load(buf, [](int lane) { return lane * 2; }, [](int, float) {});
  });
  EXPECT_EQ(s.global_transactions, 2u);
}

TEST_F(CoalescingTest, StoreCountsLikeLoad) {
  auto buf = dev_.Alloc<float>(1024, "buf");
  const KernelStats s = RunWarp([&](Warp& w) {
    w.Store(buf, [](int lane) { return lane; }, [](int) { return 1.0f; });
  });
  EXPECT_EQ(s.global_transactions, 1u);
  EXPECT_EQ(s.global_store_instructions, 1u);
  EXPECT_EQ(buf[5], 1.0f);
}

TEST_F(CoalescingTest, LoadRangeChargesVectorizedInstructions) {
  auto buf = dev_.Alloc<float>(32 * 64, "buf");
  // Each lane reads 64 consecutive floats with float4 loads.
  const KernelStats s = RunWarp([&](Warp& w) {
    w.LoadRange(buf, [](int lane) { return lane * 64; }, 64, 4,
                [](int, const float*) {});
  });
  EXPECT_EQ(s.global_load_instructions, 16u);  // 64 / 4.
  // 64 floats = 256B = 2 segments per lane, all disjoint.
  EXPECT_EQ(s.global_transactions, 64u);
}

TEST_F(CoalescingTest, LoadRangeScalarChargesPerElement) {
  auto buf = dev_.Alloc<float>(32 * 64, "buf");
  const KernelStats s = RunWarp([&](Warp& w) {
    w.LoadRange(buf, [](int lane) { return lane * 64; }, 64, 1,
                [](int, const float*) {});
  });
  EXPECT_EQ(s.global_load_instructions, 64u);
}

TEST_F(CoalescingTest, LoadRangeBroadcastSharesSegments) {
  auto buf = dev_.Alloc<float>(1024, "buf");
  // All lanes read the same 64-float row: segments are shared.
  const KernelStats s = RunWarp([&](Warp& w) {
    w.LoadRange(buf, [](int) { return 0; }, 64, 4, [](int, const float*) {});
  });
  EXPECT_EQ(s.global_transactions, 2u);
}

TEST_F(CoalescingTest, LoadStridedMultipliesFirstElementPattern) {
  // Column-major layout: 64 points x 8 dims, stride = 64.
  auto buf = dev_.Alloc<float>(64 * 8, "buf");
  const KernelStats s = RunWarp([&](Warp& w) {
    w.LoadStrided(buf, [](int lane) { return lane; }, 8, 64,
                  [](int, const float*) {});
  });
  EXPECT_EQ(s.global_load_instructions, 8u);
  // Lanes 0..31 consecutive -> 1 segment per dimension.
  EXPECT_EQ(s.global_transactions, 8u);
}

TEST_F(CoalescingTest, LoadStridedScatteredLanes) {
  auto buf = dev_.Alloc<float>(32 * 64 * 4, "buf");
  const KernelStats s = RunWarp([&](Warp& w) {
    // Lanes 64 apart: each lane's element is its own segment.
    w.LoadStrided(buf, [](int lane) { return lane * 64; }, 4, 2048,
                  [](int, const float*) {});
  });
  EXPECT_EQ(s.global_transactions, 32u * 4u);
}

TEST_F(CoalescingTest, StoreRangeWritesValues) {
  auto buf = dev_.Alloc<float>(32 * 4, "buf");
  RunWarp([&](Warp& w) {
    w.StoreRange(buf, [](int lane) { return lane * 4; }, 4, 4,
                 [](int lane, size_t j) {
                   return static_cast<float>(lane * 10 + static_cast<int>(j));
                 });
  });
  EXPECT_FLOAT_EQ(buf[0], 0.0f);
  EXPECT_FLOAT_EQ(buf[5 * 4 + 2], 52.0f);
}

TEST_F(CoalescingTest, CacheHitsReduceDramTraffic) {
  auto buf = dev_.Alloc<float>(32, "buf");
  const KernelStats first = RunWarp([&](Warp& w) {
    w.Load(buf, [](int lane) { return lane; }, [](int, float) {});
  });
  EXPECT_EQ(first.dram_transactions, 1u);  // Cold miss.
  const KernelStats second = RunWarp([&](Warp& w) {
    w.Load(buf, [](int lane) { return lane; }, [](int, float) {});
  });
  EXPECT_EQ(second.global_transactions, 1u);
  EXPECT_EQ(second.dram_transactions, 0u);  // L2 hit.
}

// --- Differential check against the sort-then-merge coalescer -------------

/// The coalescer as it stood before the ordered-input fast path: every
/// memory instruction sorts all of its lane intervals, then merges them in
/// ascending order. The Warp must charge the same transactions and make the
/// same cache probes, in the same order, for every lane pattern.
class ReferenceCoalescer {
 public:
  using Intervals = std::vector<std::pair<uint64_t, uint64_t>>;

  explicit ReferenceCoalescer(size_t cache_segments) : cache_(cache_segments) {}

  /// Load / Store / LoadRange / AtomicAdd: one interval per active lane.
  void Contiguous(Intervals segs) {
    if (segs.empty()) return;
    std::sort(segs.begin(), segs.end());
    uint64_t cur_first = segs[0].first;
    uint64_t cur_last = segs[0].second;
    for (size_t i = 1; i < segs.size(); ++i) {
      if (segs[i].first <= cur_last + 1) {
        cur_last = std::max(cur_last, segs[i].second);
      } else {
        Emit(cur_first, cur_last);
        cur_first = segs[i].first;
        cur_last = segs[i].second;
      }
    }
    Emit(cur_first, cur_last);
  }

  /// LoadStrided: distinct first-element segments, charged `count` times.
  void Strided(Intervals segs, uint64_t count) {
    std::sort(segs.begin(), segs.end());
    uint64_t distinct = 0;
    uint64_t misses = 0;
    uint64_t prev = ~uint64_t{0};
    for (const auto& seg : segs) {
      if (seg.first != prev) {
        ++distinct;
        if (!cache_.Access(seg.first)) ++misses;
      }
      prev = seg.first;
    }
    transactions += distinct * count;
    dram += misses * count;
  }

  uint64_t transactions = 0;
  uint64_t dram = 0;

 private:
  void Emit(uint64_t first, uint64_t last) {
    transactions += last - first + 1;
    for (uint64_t seg = first; seg <= last; ++seg) {
      if (!cache_.Access(seg)) ++dram;
    }
  }

  CacheSim cache_;
};

enum class MemKind { kLoad, kStore, kLoadRange, kAtomicAdd, kLoadStrided };

/// One memory instruction of a randomized program: which Warp method, the
/// active mask, the element each lane starts at, and (for ranges and
/// strided loads) the elements per lane.
struct MemInstruction {
  MemKind kind;
  LaneMask mask;
  std::array<size_t, kWarpSize> index;
  size_t count;
};

constexpr size_t kDiffElems = size_t{1} << 14;  // 512 segments of floats
constexpr size_t kDiffStride = 512;             // column-major stride
constexpr size_t kDiffCacheSegments = 64;       // small L2: many evictions

/// Seeded lane patterns: broadcast, ascending, descending, shuffled,
/// duplicate addresses, and ranges that straddle or exactly touch segment
/// edges, under full, partial, prefix and single-lane masks.
std::vector<MemInstruction> MakeProgram(uint64_t seed, size_t length) {
  Rng rng(seed);
  std::array<size_t, kWarpSize> perm{};
  std::vector<MemInstruction> program;
  program.reserve(length);
  for (size_t n = 0; n < length; ++n) {
    MemInstruction ins{};
    ins.kind = static_cast<MemKind>(rng.NextBounded(5));
    switch (rng.NextBounded(5)) {
      case 0:
      case 1:
        ins.mask = kFullMask;
        break;
      case 2:
        ins.mask = static_cast<LaneMask>(rng.NextU64()) | 1u;
        break;
      case 3:
        ins.mask = kFullMask >> rng.NextBounded(kWarpSize);  // prefix
        break;
      default:
        ins.mask = LaneMask{1} << rng.NextBounded(kWarpSize);
        break;
    }
    static constexpr size_t kCounts[] = {1, 2, 4, 30, 32, 33, 64};
    ins.count = 1;
    if (ins.kind == MemKind::kLoadRange) {
      ins.count = kCounts[rng.NextBounded(std::size(kCounts))];
    } else if (ins.kind == MemKind::kLoadStrided) {
      ins.count = 1 + rng.NextBounded(8);
    }
    const size_t limit =
        ins.kind == MemKind::kLoadStrided
            ? kDiffElems - (ins.count - 1) * kDiffStride
            : kDiffElems - ins.count + 1;
    // Segment-edge offsets (0, 1, 30, 31 floats into a 32-float segment)
    // make ranges straddle or touch edges.
    static constexpr size_t kEdgeOffsets[] = {0, 1, 30, 31};
    const size_t base =
        rng.NextBounded(limit / 64) * 32 +
        kEdgeOffsets[rng.NextBounded(std::size(kEdgeOffsets))];
    static constexpr size_t kSteps[] = {0, 1, 2, 31, 32, 33, 100};
    // A step equal to the range length makes consecutive lanes' ranges
    // touch end to start.
    const size_t step = rng.NextBounded(4) == 0
                            ? ins.count
                            : kSteps[rng.NextBounded(std::size(kSteps))];
    for (size_t i = 0; i < kWarpSize; ++i) perm[i] = i;
    for (size_t i = kWarpSize - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.NextBounded(i + 1)]);
    }
    const uint64_t pattern = rng.NextBounded(5);
    for (size_t lane = 0; lane < kWarpSize; ++lane) {
      size_t slot = 0;
      switch (pattern) {
        case 0: slot = 0; break;                           // broadcast
        case 1: slot = lane; break;                        // ascending
        case 2: slot = kWarpSize - 1 - lane; break;        // descending
        case 3: slot = perm[lane]; break;                  // shuffled
        default: slot = rng.NextBounded(3); break;         // duplicates
      }
      ins.index[lane] = (base + slot * step) % limit;
    }
    program.push_back(ins);
  }
  return program;
}

/// Runs `ins` on a fresh warp (sharing `stats`, `cache`, `trace`) and
/// mirrors it into the reference. Returns the atomic serializations the
/// reference expects (lanes minus distinct addresses).
uint64_t RunInstruction(const MemInstruction& ins, DeviceBuffer<float>& buf,
                        KernelStats* stats, CacheSim* cache,
                        SegmentTrace* trace, ReferenceCoalescer* ref) {
  Warp w(stats, 0, 256, 0, ins.mask, cache, /*locks=*/nullptr, trace);
  const auto index = [&](int lane) {
    return ins.index[static_cast<size_t>(lane)];
  };
  ReferenceCoalescer::Intervals segs;
  std::vector<uint64_t> addresses;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if ((ins.mask >> lane & 1u) == 0) continue;
    const uint64_t addr = buf.AddressOf(index(lane));
    const uint64_t bytes =
        (ins.kind == MemKind::kLoadRange ? ins.count : 1) * sizeof(float);
    segs.emplace_back(addr / Warp::kSegmentBytes,
                      (addr + bytes - 1) / Warp::kSegmentBytes);
    addresses.push_back(addr);
  }
  switch (ins.kind) {
    case MemKind::kLoad:
      w.Load(buf, index, [](int, float) {});
      break;
    case MemKind::kStore:
      w.Store(buf, index, [](int) { return 1.0f; });
      break;
    case MemKind::kLoadRange:
      w.LoadRange(buf, index, ins.count, 4, [](int, const float*) {});
      break;
    case MemKind::kAtomicAdd:
      w.AtomicAdd(buf, index, [](int) { return 1.0f; }, [](int, float) {});
      break;
    case MemKind::kLoadStrided:
      w.LoadStrided(buf, index, ins.count, kDiffStride,
                    [](int, const float*) {});
      break;
  }
  if (ins.kind == MemKind::kLoadStrided) {
    ref->Strided(std::move(segs), ins.count);
  } else {
    ref->Contiguous(std::move(segs));
  }
  if (ins.kind != MemKind::kAtomicAdd) return 0;
  std::sort(addresses.begin(), addresses.end());
  const auto distinct = static_cast<uint64_t>(
      std::unique(addresses.begin(), addresses.end()) - addresses.begin());
  return addresses.size() - distinct;
}

TEST_F(CoalescingTest, MatchesSortThenMergeReferenceInline) {
  auto buf = dev_.Alloc<float>(kDiffElems, "buf");
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    KernelStats stats;
    CacheSim cache(kDiffCacheSegments);
    ReferenceCoalescer ref(kDiffCacheSegments);
    uint64_t serializations = 0;
    const auto program = MakeProgram(seed, 2000);
    for (size_t n = 0; n < program.size(); ++n) {
      serializations +=
          RunInstruction(program[n], buf, &stats, &cache, nullptr, &ref);
      ASSERT_EQ(stats.global_transactions, ref.transactions) << "at " << n;
      ASSERT_EQ(stats.dram_transactions, ref.dram) << "at " << n;
    }
    EXPECT_EQ(stats.atomic_serializations, serializations);
  }
}

TEST_F(CoalescingTest, MatchesSortThenMergeReferenceTraced) {
  auto buf = dev_.Alloc<float>(kDiffElems, "buf");
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE(seed);
    KernelStats stats;
    SegmentTrace trace;
    ReferenceCoalescer ref(kDiffCacheSegments);
    uint64_t serializations = 0;
    for (const MemInstruction& ins : MakeProgram(seed, 2000)) {
      serializations +=
          RunInstruction(ins, buf, &stats, nullptr, &trace, &ref);
    }
    CacheSim replay_cache(kDiffCacheSegments);
    EXPECT_EQ(stats.global_transactions, ref.transactions);
    EXPECT_EQ(stats.dram_transactions, 0u);  // Resolved at replay.
    EXPECT_EQ(trace.ReplayInto(&replay_cache), ref.dram);
    EXPECT_EQ(stats.atomic_serializations, serializations);
  }
}

TEST(WarpLaneOrderTest, OpAndBallotVisitActiveLanesAscending) {
  for (const LaneMask mask :
       {kFullMask, LaneMask{1}, LaneMask{0x80000000u}, LaneMask{0x0f0f00f1u},
        LaneMask{0x7fffffffu}, LaneMask{0xfffffffeu}}) {
    SCOPED_TRACE(mask);
    KernelStats stats;
    Warp w(&stats, 0, 256, 0, mask);
    std::vector<int> expected;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if ((mask >> lane & 1u) != 0) expected.push_back(lane);
    }
    std::vector<int> op_lanes;
    w.Op([&](int lane) { op_lanes.push_back(lane); });
    EXPECT_EQ(op_lanes, expected);
    // Order-dependent predicate: true only while lanes keep ascending.
    std::vector<int> ballot_lanes;
    int prev = -1;
    const LaneMask ballot = w.Ballot([&](int lane) {
      ballot_lanes.push_back(lane);
      const bool ascending = lane > prev;
      prev = lane;
      return ascending;
    });
    EXPECT_EQ(ballot, mask);
    EXPECT_EQ(ballot_lanes, expected);
  }
}

}  // namespace
}  // namespace sweetknn::gpusim
