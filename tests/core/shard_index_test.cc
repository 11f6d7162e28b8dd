// SweetKnnIndex as one shard of a serving set: KnnService's in-process
// threads and the shard-worker processes both hold one index per target
// slice and merge the per-shard Answer contributions with
// core::MergeShardAnswers. These tests pin that contract directly: merged
// answers are bit-identical to a single-engine run over the whole target
// (pristine) and to a brute-force oracle over the live point set
// (mutated), on either query route, across compactions, and at every
// state between a compaction's capture and its install. The cluster
// differential harness (tests/integration/cluster_differential_test.cc)
// then only has to prove the transport moves these answers faithfully.

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "baseline/brute_force_cpu.h"
#include "core/shard_merge.h"
#include "core/sweet_knn.h"
#include "core/ti_knn_gpu.h"
#include "gtest/gtest.h"
#include "store/snapshot.h"
#include "test_util.h"

namespace sweetknn {
namespace {

/// The config both serving backends run per shard: one execution thread,
/// no index-level auto-compaction.
SweetKnn::Config ShardConfig(core::Metric metric) {
  SweetKnn::Config config;
  config.options.metric = metric;
  config.options.sim_threads = 1;
  config.compact_delta_fraction = 0.0;
  return config;
}

using Shards = std::vector<std::unique_ptr<SweetKnnIndex>>;

/// Cold-builds `num_shards` indexes over the same contiguous slices
/// KnnService and the Router carve: rows / S each, the remainder spread
/// over the first shards.
Shards BuildShards(const HostMatrix& target, int num_shards,
                   const SweetKnn::Config& config) {
  Shards shards;
  const size_t per = target.rows() / static_cast<size_t>(num_shards);
  const size_t rem = target.rows() % static_cast<size_t>(num_shards);
  size_t offset = 0;
  for (int s = 0; s < num_shards; ++s) {
    const size_t rows = per + (static_cast<size_t>(s) < rem ? 1 : 0);
    HostMatrix slice(rows, target.cols());
    std::memcpy(slice.mutable_row(0), target.row(offset),
                rows * target.cols() * sizeof(float));
    shards.push_back(std::make_unique<SweetKnnIndex>(
        slice, config, static_cast<uint32_t>(offset)));
    offset += rows;
  }
  return shards;
}

KnnResult MergedAnswer(const Shards& shards, const HostMatrix& queries, int k,
                       core::QueryRoute route) {
  std::vector<core::ShardAnswer> answers;
  answers.reserve(shards.size());
  for (const auto& shard : shards) {
    answers.push_back(shard->Answer(queries, k, route));
  }
  return core::MergeShardAnswers(answers, k);
}

void ExpectBitIdentical(const KnnResult& want, const KnnResult& got,
                        const char* what) {
  ASSERT_EQ(want.num_queries(), got.num_queries()) << what;
  ASSERT_EQ(want.k(), got.k()) << what;
  for (size_t q = 0; q < want.num_queries(); ++q) {
    for (int i = 0; i < want.k(); ++i) {
      const Neighbor& w = want.row(q)[i];
      const Neighbor& g = got.row(q)[i];
      ASSERT_TRUE(w.index == g.index &&
                  std::memcmp(&w.distance, &g.distance, sizeof(float)) == 0)
          << what << ": query " << q << " rank " << i << " want ("
          << w.index << ", " << w.distance << ") got (" << g.index << ", "
          << g.distance << ")";
    }
  }
}

/// Live point set keyed by stable id, for the mutated-oracle checks.
using Model = std::map<uint32_t, std::vector<float>>;

KnnResult OracleTopK(const Model& model, size_t dims,
                     const HostMatrix& queries, int k, core::Metric metric) {
  HostMatrix points(model.size(), dims);
  std::vector<uint32_t> ids;
  size_t row = 0;
  for (const auto& [id, coords] : model) {
    std::memcpy(points.mutable_row(row++), coords.data(),
                dims * sizeof(float));
    ids.push_back(id);
  }
  KnnResult expected = baseline::BruteForceCpu(queries, points, k, metric);
  for (size_t q = 0; q < expected.num_queries(); ++q) {
    Neighbor* out = expected.mutable_row(q);
    for (int i = 0; i < k; ++i) {
      if (out[i].index != kInvalidNeighbor) {
        out[i] = {ids[out[i].index], out[i].distance};
      }
    }
  }
  return expected;
}

std::vector<float> RandomPoint(Rng* rng, size_t dims) {
  std::vector<float> point(dims);
  for (float& x : point) x = rng->NextFloat();
  return point;
}

TEST(ShardIndexTest, PristineMergeMatchesSingleEngine) {
  for (const core::Metric metric :
       {core::Metric::kEuclidean, core::Metric::kManhattan}) {
    const SweetKnn::Config config = ShardConfig(metric);
    const HostMatrix target =
        testing::ClusteredPoints(120, 5, 3, /*seed=*/1001, 0.08f);
    const HostMatrix queries = testing::UniformPoints(7, 5, /*seed=*/77);
    const int k = 6;

    gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
    core::KnnRunStats stats;
    const KnnResult single = core::TiKnnEngine::RunOnce(
        &dev, queries, target, k, config.options, &stats);

    for (const int num_shards : {1, 2, 3}) {
      const Shards shards = BuildShards(target, num_shards, config);
      const KnnResult merged =
          MergedAnswer(shards, queries, k, core::QueryRoute::kDevice);
      ExpectBitIdentical(single, merged, "pristine device route");
      const KnnResult merged_host =
          MergedAnswer(shards, queries, k, core::QueryRoute::kHost);
      ExpectBitIdentical(single, merged_host, "pristine host route");
    }
  }
}

TEST(ShardIndexTest, MutatedMergeMatchesOracle) {
  const core::Metric metric = core::Metric::kEuclidean;
  const size_t n0 = 60;
  const size_t dims = 4;
  const int num_shards = 3;
  const HostMatrix target =
      testing::ClusteredPoints(n0, dims, 2, /*seed=*/2002, 0.08f);
  Shards shards = BuildShards(target, num_shards, ShardConfig(metric));

  Model model;
  for (size_t i = 0; i < n0; ++i) {
    model[static_cast<uint32_t>(i)] =
        std::vector<float>(target.row(i), target.row(i) + dims);
  }

  // Inserts land on shard id % S with router-allocated ascending ids,
  // removes resolve through Owns/Remove — the same deterministic
  // placement both serving backends use.
  Rng rng(4242);
  uint32_t next_id = static_cast<uint32_t>(n0);
  for (int i = 0; i < 12; ++i) {
    const std::vector<float> point = RandomPoint(&rng, dims);
    const uint32_t id = next_id++;
    ASSERT_TRUE(shards[id % num_shards]->Insert(id, point.data()).ok());
    model[id] = point;
  }
  for (int i = 0; i < 15; ++i) {
    const uint32_t id = static_cast<uint32_t>(rng.NextBounded(next_id));
    bool found = false;
    for (auto& shard : shards) {
      if (shard->Owns(id)) {
        found = shard->Remove(id);
        break;
      }
    }
    EXPECT_EQ(found, model.erase(id) > 0) << "remove of id " << id;
  }

  const HostMatrix queries = testing::UniformPoints(6, dims, /*seed=*/99);
  // k beyond one shard's live count exercises the padding path too.
  for (const int k : {1, 5, 12}) {
    const KnnResult want = OracleTopK(model, dims, queries, k, metric);
    const KnnResult device =
        MergedAnswer(shards, queries, k, core::QueryRoute::kDevice);
    ExpectBitIdentical(want, device, "mutated device route");
    const KnnResult host =
        MergedAnswer(shards, queries, k, core::QueryRoute::kHost);
    ExpectBitIdentical(want, host, "mutated host route");
  }
}

TEST(ShardIndexTest, InsertRejectsStaleOrOwnedIds) {
  const size_t dims = 3;
  const HostMatrix target =
      testing::ClusteredPoints(20, dims, 2, /*seed=*/17, 0.08f);
  SweetKnnIndex shard(target, ShardConfig(core::Metric::kEuclidean),
                      /*offset=*/100);
  const std::vector<float> point(dims, 0.5f);
  // Base ids are 100..119.
  EXPECT_FALSE(shard.Insert(105, point.data()).ok());
  ASSERT_TRUE(shard.Insert(130, point.data()).ok());
  EXPECT_FALSE(shard.Insert(130, point.data()).ok());
  EXPECT_FALSE(shard.Insert(125, point.data()).ok());
  EXPECT_EQ(shard.delta_size(), 1u);
  EXPECT_TRUE(shard.Owns(130));
  EXPECT_TRUE(shard.Owns(100));
  EXPECT_FALSE(shard.Owns(99));
  EXPECT_FALSE(shard.Owns(120));
  EXPECT_EQ(shard.next_id(), 131u);
}

TEST(ShardIndexTest, CompactionRoundTripKeepsAnswers) {
  const size_t dims = 3;
  const HostMatrix target =
      testing::ClusteredPoints(40, dims, 2, /*seed=*/3003, 0.08f);
  Shards shards =
      BuildShards(target, 2, ShardConfig(core::Metric::kEuclidean));

  Rng rng(7);
  uint32_t next_id = 40;
  for (int i = 0; i < 8; ++i) {
    const std::vector<float> point = RandomPoint(&rng, dims);
    const uint32_t id = next_id++;
    ASSERT_TRUE(shards[id % 2]->Insert(id, point.data()).ok());
  }
  ASSERT_TRUE(shards[0]->Remove(4));
  ASSERT_TRUE(shards[1]->Remove(21));

  const HostMatrix queries = testing::UniformPoints(5, dims, /*seed=*/5);
  const int k = 7;
  const KnnResult before =
      MergedAnswer(shards, queries, k, core::QueryRoute::kDevice);

  // The background compactor's protocol: capture, rebuild, install.
  for (auto& shard : shards) {
    SweetKnnIndex::CompactionPlan plan;
    ASSERT_TRUE(shard->CaptureCompaction(&plan));
    SweetKnnIndex::RebuildCompaction(&plan);
    shard->InstallCompaction(&plan);
    EXPECT_EQ(shard->delta_size(), 0u);
    EXPECT_EQ(shard->tombstone_count(), 0u);
    EXPECT_EQ(shard->compactions(), 1u);
  }

  const KnnResult after =
      MergedAnswer(shards, queries, k, core::QueryRoute::kDevice);
  ExpectBitIdentical(before, after, "post-compaction");
  const KnnResult after_host =
      MergedAnswer(shards, queries, k, core::QueryRoute::kHost);
  ExpectBitIdentical(before, after_host, "post-compaction host route");
}

/// Applies every mutation of the mid-compaction scenario below to `index`
/// (and the model). With `plan` set, the compaction is captured after the
/// first block, so the second block lands between capture and install.
void RunMidCompactionScenario(SweetKnnIndex* index, Model* model,
                              SweetKnnIndex::CompactionPlan* plan) {
  const size_t dims = index->dims();
  Rng rng(1234);
  for (int i = 0; i < 6; ++i) {
    const std::vector<float> point = RandomPoint(&rng, dims);
    (*model)[index->Insert(point)] = point;  // ids 40..45
  }
  ASSERT_TRUE(index->Remove(3));
  model->erase(3);

  if (plan != nullptr) {
    ASSERT_TRUE(index->CaptureCompaction(plan));
    EXPECT_EQ(plan->watermark, 6u);
    EXPECT_TRUE(index->compaction_in_flight());
  }

  // An insert past the watermark, and a second one removed again below.
  for (int i = 0; i < 2; ++i) {
    const std::vector<float> point = RandomPoint(&rng, dims);
    (*model)[index->Insert(point)] = point;  // ids 46, 47
  }
  // A captured delta entry: tombstoned mid-compaction (the rebuild
  // already holds it), erased outright otherwise.
  ASSERT_TRUE(index->Remove(41));
  model->erase(41);
  EXPECT_FALSE(index->Remove(41));
  // A base row.
  ASSERT_TRUE(index->Remove(7));
  model->erase(7);
  // A post-watermark delta entry: erased outright either way.
  ASSERT_TRUE(index->Remove(47));
  model->erase(47);
}

void ExpectMatchesOracle(SweetKnnIndex* index, const Model& model,
                         const HostMatrix& queries, const char* what) {
  for (const core::PlannerMode mode :
       {core::PlannerMode::kForceDevice, core::PlannerMode::kForceHost}) {
    index->planner().set_mode(mode);
    for (const int k : {1, 6, 60}) {
      ExpectBitIdentical(OracleTopK(model, index->dims(), queries, k,
                                    core::Metric::kEuclidean),
                         index->Query(queries, k), what);
    }
  }
}

TEST(ShardIndexTest, MidCompactionMutationsStayExact) {
  const size_t dims = 3;
  const HostMatrix target =
      testing::ClusteredPoints(40, dims, 2, /*seed=*/4004, 0.08f);
  const SweetKnn::Config config = ShardConfig(core::Metric::kEuclidean);
  const HostMatrix queries = testing::UniformPoints(6, dims, /*seed=*/8);
  Model model;
  for (size_t i = 0; i < target.rows(); ++i) {
    model[static_cast<uint32_t>(i)] =
        std::vector<float>(target.row(i), target.row(i) + dims);
  }

  SweetKnnIndex index(target, config);
  SweetKnnIndex::CompactionPlan plan;
  Model live = model;
  RunMidCompactionScenario(&index, &live, &plan);
  if (::testing::Test::HasFatalFailure()) return;

  // Between capture and install: 41 is a tombstoned delta entry, 47 is
  // gone, 46 sits past the watermark.
  EXPECT_EQ(index.delta_size(), 7u);      // 40..46, 41 still present
  EXPECT_EQ(index.tombstone_count(), 3u);  // 3, 41, 7
  EXPECT_EQ(index.size(), live.size());
  EXPECT_TRUE(index.Owns(41));
  EXPECT_FALSE(index.Owns(47));
  ExpectMatchesOracle(&index, live, queries, "mid-compaction");

  std::vector<uint32_t> want_ids;
  for (const auto& entry : live) want_ids.push_back(entry.first);
  EXPECT_EQ(index.LiveIds(), want_ids);
  std::vector<uint32_t> ids;
  HostMatrix points;
  index.ExportLive(&ids, &points);
  EXPECT_EQ(ids, want_ids);
  for (size_t r = 0; r < ids.size(); ++r) {
    EXPECT_EQ(std::memcmp(points.row(r), live.at(ids[r]).data(),
                          dims * sizeof(float)),
              0)
        << "exported row of id " << ids[r];
  }

  // The snapshot drops the dead delta entry together with its tombstone.
  const store::IndexSnapshot snap =
      index.ExportSnapshot("mid", "shard_index_test", 0, 1, index.next_id());
  EXPECT_TRUE(store::ValidateIndexSnapshot(snap).ok());
  EXPECT_EQ(snap.delta_ids,
            (std::vector<uint32_t>{40, 42, 43, 44, 45, 46}));
  EXPECT_EQ(snap.tombstones, (std::vector<uint32_t>{3, 7}));
  Result<std::unique_ptr<SweetKnnIndex>> restored =
      SweetKnnIndex::Restore(snap, config, "mid-compaction export");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectMatchesOracle(restored.value().get(), live, queries,
                      "restored mid-compaction export");

  SweetKnnIndex::RebuildCompaction(&plan);
  ExpectMatchesOracle(&index, live, queries, "rebuilt, not installed");
  index.InstallCompaction(&plan);
  EXPECT_FALSE(index.compaction_in_flight());
  // Carried forward: 46 in the delta; 41 and 7 as tombstones of the new
  // base (it holds every point live at capture, 3 excluded).
  EXPECT_EQ(index.base_rows(), 45u);
  EXPECT_EQ(index.delta_size(), 1u);
  EXPECT_EQ(index.tombstone_count(), 2u);
  EXPECT_EQ(index.LiveIds(), want_ids);
  ExpectMatchesOracle(&index, live, queries, "installed");

  // The same final state reached with no compaction in between, then
  // compacted synchronously, answers identically.
  SweetKnnIndex twin(target, config);
  Model twin_live = model;
  RunMidCompactionScenario(&twin, &twin_live, nullptr);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(twin_live, live);
  twin.Compact();
  EXPECT_EQ(twin.delta_size(), 0u);
  EXPECT_EQ(twin.tombstone_count(), 0u);
  for (const core::PlannerMode mode :
       {core::PlannerMode::kForceDevice, core::PlannerMode::kForceHost}) {
    index.planner().set_mode(mode);
    twin.planner().set_mode(mode);
    for (const int k : {1, 6, 60}) {
      ExpectBitIdentical(twin.Query(queries, k), index.Query(queries, k),
                         "installed vs synchronous Compact()");
    }
    EXPECT_TRUE(BitIdentical(twin.RadiusSearch(queries, 0.3f),
                             index.RadiusSearch(queries, 0.3f)));
  }
}

}  // namespace
}  // namespace sweetknn
