#include "store/snapshot.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/brute_force_cpu.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "core/sweet_knn.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"

namespace sweetknn::store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

HostMatrix RandomMatrix(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  HostMatrix m(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dims; ++j) {
      m.at(i, j) = static_cast<float>(rng.NextDouble() * 10.0 - 5.0);
    }
  }
  return m;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A freshly built single-shard index snapshot, produced through the real
/// build path (SweetKnnIndex::Save).
IndexSnapshot BuildSnapshot(const std::string& path, size_t n = 80,
                            size_t dims = 6, uint64_t seed = 7) {
  const HostMatrix target = RandomMatrix(n, dims, seed);
  SweetKnnIndex index(target);
  EXPECT_TRUE(index.Save(path, "unit-test").ok());
  Result<IndexSnapshot> snap = LoadIndexSnapshot(path);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  return std::move(snap).value();
}

TEST(SnapshotWriterReaderTest, SectionRoundTrip) {
  const std::string path = TempPath("sections.sksnap");
  {
    SnapshotWriter writer(path);
    ASSERT_TRUE(writer.WriteSection(kSectionMeta, "hello").ok());
    ASSERT_TRUE(writer.WriteSection(kSectionTarget, std::string()).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().format_version(), kSnapshotFormatVersion);
  ASSERT_EQ(reader.value().sections().size(), 2u);
  ASSERT_NE(reader.value().Section(kSectionMeta), nullptr);
  EXPECT_EQ(*reader.value().Section(kSectionMeta), "hello");
  ASSERT_NE(reader.value().Section(kSectionTarget), nullptr);
  EXPECT_TRUE(reader.value().Section(kSectionTarget)->empty());
  EXPECT_EQ(reader.value().Section(kSectionClustering), nullptr);
  std::remove(path.c_str());
}

TEST(SnapshotWriterReaderTest, EndMarkerIdIsReserved) {
  const std::string path = TempPath("reserved.sksnap");
  SnapshotWriter writer(path);
  EXPECT_FALSE(writer.WriteSection(kSectionEnd, "x").ok());
  std::remove(path.c_str());
}

TEST(SnapshotWriterReaderTest, MissingFileIsDescriptiveError) {
  Result<SnapshotReader> reader =
      SnapshotReader::Open("/nonexistent/no.sksnap");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

TEST(SnapshotWriterReaderTest, BadMagicRejected) {
  const std::string path = TempPath("magic.sksnap");
  WriteFile(path, "NOTASNAP-------------------------");
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos)
      << reader.status().message();
  std::remove(path.c_str());
}

TEST(SnapshotWriterReaderTest, VersionSkewRejected) {
  const std::string path = TempPath("version.sksnap");
  {
    SnapshotWriter writer(path);
    ASSERT_TRUE(writer.WriteSection(kSectionMeta, "x").ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  std::string bytes = ReadFile(path);
  const uint32_t future = kSnapshotFormatVersion + 1;
  std::memcpy(bytes.data() + sizeof(kSnapshotMagic), &future,
              sizeof(future));
  WriteFile(path, bytes);
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("version skew"),
            std::string::npos)
      << reader.status().message();
  std::remove(path.c_str());
}

TEST(SnapshotWriterReaderTest, TrailingGarbageRejected) {
  const std::string path = TempPath("trailing.sksnap");
  {
    SnapshotWriter writer(path);
    ASSERT_TRUE(writer.WriteSection(kSectionMeta, "x").ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  WriteFile(path, ReadFile(path) + "junk");
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("trailing"), std::string::npos)
      << reader.status().message();
  std::remove(path.c_str());
}

TEST(SnapshotWriterReaderTest, EveryTruncationRejected) {
  const std::string path = TempPath("trunc.sksnap");
  {
    SnapshotWriter writer(path);
    ASSERT_TRUE(writer.WriteSection(kSectionMeta, "payload").ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  const std::string bytes = ReadFile(path);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFile(path, bytes.substr(0, len));
    Result<SnapshotReader> reader = SnapshotReader::Open(path);
    EXPECT_FALSE(reader.ok()) << "accepted a " << len << "-byte prefix of a "
                              << bytes.size() << "-byte snapshot";
  }
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, SaveLoadPreservesEverything) {
  const std::string path = TempPath("index.sksnap");
  const HostMatrix target = RandomMatrix(120, 5, 3);
  SweetKnnIndex index(target);
  ASSERT_TRUE(index.Save(path, "dataset-name").ok());

  Result<IndexSnapshot> snap = LoadIndexSnapshot(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const IndexSnapshot& s = snap.value();
  EXPECT_EQ(s.dataset_name, "dataset-name");
  EXPECT_EQ(s.builder, "SweetKnnIndex::Save");
  EXPECT_EQ(s.shard_index, 0u);
  EXPECT_EQ(s.shard_count, 1u);
  EXPECT_EQ(s.shard_offset, 0u);
  ASSERT_EQ(s.target.rows(), target.rows());
  ASSERT_EQ(s.target.cols(), target.cols());
  EXPECT_EQ(std::memcmp(s.target.data(), target.data(),
                        target.size() * sizeof(float)),
            0);
  EXPECT_GT(s.clustering.num_clusters, 0);
  EXPECT_EQ(s.clustering.assignment.size(), target.rows());
  EXPECT_EQ(s.options_fingerprint,
            OptionsFingerprint(core::TiOptions::Sweet()));
  EXPECT_EQ(s.device_fingerprint,
            DeviceFingerprint(gpusim::DeviceSpec::TeslaK20c()));
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, SaveLoadSaveIsByteIdentical) {
  const std::string path1 = TempPath("canonical1.sksnap");
  const std::string path2 = TempPath("canonical2.sksnap");
  const IndexSnapshot snap = BuildSnapshot(path1);
  ASSERT_TRUE(SaveIndexSnapshot(snap, path2).ok());
  EXPECT_EQ(ReadFile(path1), ReadFile(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(IndexSnapshotTest, WarmLoadedIndexAnswersBitIdentically) {
  const std::string path = TempPath("warm.sksnap");
  const HostMatrix target = RandomMatrix(150, 7, 11);
  SweetKnnIndex cold(target);
  ASSERT_TRUE(cold.Save(path).ok());

  Result<std::unique_ptr<SweetKnnIndex>> warm = SweetKnnIndex::Load(path);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm.value()->size(), cold.size());
  EXPECT_EQ(warm.value()->dims(), cold.dims());

  const HostMatrix queries = RandomMatrix(40, 7, 12);
  for (const int k : {1, 5, 17}) {
    const KnnResult a = cold.Query(queries, k);
    const KnnResult b = warm.value()->Query(queries, k);
    ASSERT_EQ(a.num_queries(), b.num_queries());
    ASSERT_EQ(a.k(), b.k());
    for (size_t q = 0; q < a.num_queries(); ++q) {
      ASSERT_EQ(std::memcmp(a.row(q), b.row(q),
                            static_cast<size_t>(k) * sizeof(Neighbor)),
                0)
          << "k=" << k << " query " << q;
    }
  }
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, LoadRejectsOptionsFingerprintMismatch) {
  const std::string path = TempPath("optmismatch.sksnap");
  BuildSnapshot(path);
  SweetKnn::Config config;
  config.options = core::TiOptions::BasicTi();
  Result<std::unique_ptr<SweetKnnIndex>> loaded =
      SweetKnnIndex::Load(path, config);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("different options"),
            std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, LoadRejectsDeviceFingerprintMismatch) {
  const std::string path = TempPath("devmismatch.sksnap");
  BuildSnapshot(path);
  SweetKnn::Config config;
  config.device = gpusim::DeviceSpec::TeslaK40();
  Result<std::unique_ptr<SweetKnnIndex>> loaded =
      SweetKnnIndex::Load(path, config);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("different device"),
            std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, SimThreadsDoesNotChangeTheFingerprint) {
  core::TiOptions a = core::TiOptions::Sweet();
  core::TiOptions b = a;
  b.sim_threads = 7;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
  b.kmeans_iterations = 3;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
}

uint32_t FileFormatVersion(const std::string& path) {
  const std::string bytes = ReadFile(path);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kSnapshotMagic),
              sizeof(version));
  return version;
}

TEST(SnapshotVersionTest, PristineSnapshotsStayFormatV1) {
  // The v2 format bump must not disturb pristine files: an unmutated
  // index writes exactly the bytes a pre-v2 build wrote, so existing
  // snapshot fleets stay byte-stable (and hash-stable) across upgrades.
  const std::string path = TempPath("pristine_v1.sksnap");
  const IndexSnapshot snap = BuildSnapshot(path);
  EXPECT_FALSE(snap.HasOverlay());
  EXPECT_EQ(FileFormatVersion(path), kSnapshotFormatV1);

  // The v2 reader reports the original version and re-encodes the file
  // byte-identically.
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().format_version(), kSnapshotFormatV1);
  EXPECT_EQ(reader.value().Section(kSectionMutation), nullptr);
  const std::string resaved = TempPath("pristine_v1_resave.sksnap");
  ASSERT_TRUE(SaveIndexSnapshot(snap, resaved).ok());
  EXPECT_EQ(ReadFile(path), ReadFile(resaved));
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

/// A snapshot carrying every overlay field: explicit id map (base ids
/// with holes), delta points, tombstones, and an allocator watermark.
IndexSnapshot OverlaySnapshot(const std::string& path) {
  IndexSnapshot snap = BuildSnapshot(path, 40, 3, 19);
  const size_t dims = snap.target.cols();
  snap.id_map.clear();
  for (uint32_t i = 0; i < snap.target.rows(); ++i) {
    snap.id_map.push_back(2 * i);  // holes: compacted-away history
  }
  snap.delta_ids = {90, 93, 95};
  snap.delta_points = HostMatrix(3, dims);
  Rng rng(23);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t j = 0; j < dims; ++j) {
      snap.delta_points.at(r, j) = rng.NextFloat();
    }
  }
  snap.tombstones = {4, 38};
  snap.next_id = 96;
  return snap;
}

TEST(SnapshotVersionTest, OverlayRoundTripsThroughV2) {
  const std::string path = TempPath("overlay_v2.sksnap");
  const IndexSnapshot snap = OverlaySnapshot(path);
  ASSERT_TRUE(snap.HasOverlay());
  ASSERT_TRUE(ValidateIndexSnapshot(snap).ok());
  ASSERT_TRUE(SaveIndexSnapshot(snap, path).ok());
  EXPECT_EQ(FileFormatVersion(path), kSnapshotFormatV2);

  Result<IndexSnapshot> loaded = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const IndexSnapshot& l = loaded.value();
  EXPECT_EQ(l.id_map, snap.id_map);
  EXPECT_EQ(l.delta_ids, snap.delta_ids);
  EXPECT_EQ(l.tombstones, snap.tombstones);
  EXPECT_EQ(l.next_id, snap.next_id);
  ASSERT_EQ(l.delta_points.rows(), snap.delta_points.rows());
  ASSERT_EQ(l.delta_points.cols(), snap.delta_points.cols());
  EXPECT_EQ(std::memcmp(l.delta_points.data(), snap.delta_points.data(),
                        snap.delta_points.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(l.target.data(), snap.target.data(),
                        snap.target.size() * sizeof(float)),
            0);

  // v2 encoding is canonical too: Save(Load(file)) == file.
  const std::string resaved = TempPath("overlay_v2_resave.sksnap");
  ASSERT_TRUE(SaveIndexSnapshot(l, resaved).ok());
  EXPECT_EQ(ReadFile(path), ReadFile(resaved));
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(SnapshotVersionTest, MutatedIndexSavesAsV2AndWarmLoadsExactly) {
  // Through the real index path: mutate, save (must become v2), load,
  // and answer bit-identically to the still-live mutated index.
  const std::string path = TempPath("mutated_index.sksnap");
  const HostMatrix target = RandomMatrix(90, 5, 31);
  SweetKnnIndex index(target);
  Rng rng(37);
  for (int i = 0; i < 7; ++i) {
    std::vector<float> p(5);
    for (float& x : p) x = rng.NextFloat();
    index.Insert(p);
  }
  ASSERT_TRUE(index.Remove(12));
  ASSERT_TRUE(index.Remove(57));
  ASSERT_TRUE(index.Save(path).ok());
  EXPECT_EQ(FileFormatVersion(path), kSnapshotFormatV2);

  Result<std::unique_ptr<SweetKnnIndex>> warm = SweetKnnIndex::Load(path);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm.value()->size(), index.size());
  EXPECT_EQ(warm.value()->next_id(), index.next_id());
  const HostMatrix queries = RandomMatrix(25, 5, 41);
  for (const int k : {1, 4, 11}) {
    const KnnResult a = index.Query(queries, k);
    const KnnResult b = warm.value()->Query(queries, k);
    for (size_t q = 0; q < a.num_queries(); ++q) {
      ASSERT_EQ(std::memcmp(a.row(q), b.row(q),
                            static_cast<size_t>(k) * sizeof(Neighbor)),
                0)
          << "k=" << k << " query " << q;
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotVersionTest, OverlayValidationRejectsInconsistency) {
  const std::string path = TempPath("overlay_bad.sksnap");
  const IndexSnapshot good = OverlaySnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(ValidateIndexSnapshot(good).ok());

  {
    IndexSnapshot bad = good;
    std::swap(bad.delta_ids[0], bad.delta_ids[1]);
    const Status s = ValidateIndexSnapshot(bad);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("not strictly increasing"),
              std::string::npos)
        << s.message();
  }
  {
    // A tombstone naming a delta id: deletes of delta-resident points
    // are physical erases, never tombstones.
    IndexSnapshot bad = good;
    bad.tombstones.push_back(bad.delta_ids[1]);
    const Status s = ValidateIndexSnapshot(bad);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("erased, not tombstoned"), std::string::npos)
        << s.message();
  }
  {
    // Allocator watermark below an existing id would hand out dupes.
    IndexSnapshot bad = good;
    bad.next_id = bad.delta_ids.back();
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    // Delta matrix shape must agree with the delta id list.
    IndexSnapshot bad = good;
    bad.delta_ids.push_back(bad.next_id - 1);
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    // Delta ids must sit above every base id (monotone allocation).
    IndexSnapshot bad = good;
    bad.delta_ids[0] = bad.id_map.back() - 1;
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    IndexSnapshot bad = good;
    bad.id_map[0] = bad.id_map[1];  // not strictly increasing
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
}

TEST(ValidateIndexSnapshotTest, CatchesStructuralCorruption) {
  const std::string path = TempPath("structural.sksnap");
  const IndexSnapshot good = BuildSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(ValidateIndexSnapshot(good).ok());

  {
    IndexSnapshot bad = good;
    bad.clustering.assignment[0] =
        static_cast<uint32_t>(bad.clustering.num_clusters);
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    IndexSnapshot bad = good;
    bad.clustering.member_offsets.back() += 1;
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    IndexSnapshot bad = good;
    bad.clustering.member_ids[1] = bad.clustering.member_ids[0];
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    IndexSnapshot bad = good;
    bad.clustering.num_clusters = 0;
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    IndexSnapshot bad = good;
    bad.shard_index = 3;
    bad.shard_count = 2;
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
}

TEST(ShardDirectoryTest, PathNamingAndListing) {
  EXPECT_EQ(ShardSnapshotPath("/d", 2, 8), "/d/shard-2-of-8.sksnap");

  const std::string dir = TempPath("shardset");
  std::filesystem::create_directories(dir);
  for (int s = 0; s < 3; ++s) {
    WriteFile(ShardSnapshotPath(dir, s, 3), "placeholder");
  }
  Result<std::vector<std::string>> listed = ListShardSnapshots(dir);
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed.value().size(), 3u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(listed.value()[static_cast<size_t>(s)],
              ShardSnapshotPath(dir, s, 3));
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardDirectoryTest, IncompleteOrInconsistentSetsRejected) {
  EXPECT_FALSE(ListShardSnapshots("/nonexistent/dir").ok());

  const std::string dir = TempPath("badshardset");
  std::filesystem::create_directories(dir);
  EXPECT_FALSE(ListShardSnapshots(dir).ok());  // no snapshots at all

  WriteFile(ShardSnapshotPath(dir, 0, 3), "x");
  WriteFile(ShardSnapshotPath(dir, 2, 3), "x");
  Result<std::vector<std::string>> gap = ListShardSnapshots(dir);
  ASSERT_FALSE(gap.ok());
  EXPECT_NE(gap.status().message().find("missing shard 1"),
            std::string::npos)
      << gap.status().message();

  WriteFile(ShardSnapshotPath(dir, 1, 3), "x");
  WriteFile(ShardSnapshotPath(dir, 0, 2), "x");  // mixed shard counts
  EXPECT_FALSE(ListShardSnapshots(dir).ok());
  std::filesystem::remove_all(dir);
}

/// Brute-force top-k over `points`, reported as `ids` (ascending, so
/// index order and id order agree on ties).
KnnResult OracleWithIds(const HostMatrix& queries, const HostMatrix& points,
                        const std::vector<uint32_t>& ids, int k) {
  KnnResult expected =
      baseline::BruteForceCpu(queries, points, k, core::Metric::kEuclidean);
  for (size_t q = 0; q < expected.num_queries(); ++q) {
    Neighbor* row = expected.mutable_row(q);
    for (int i = 0; i < k; ++i) {
      if (row[i].index != kInvalidNeighbor) row[i].index = ids[row[i].index];
    }
  }
  return expected;
}

bool SameAnswers(const KnnResult& a, const KnnResult& b) {
  if (a.num_queries() != b.num_queries() || a.k() != b.k()) return false;
  for (size_t q = 0; q < a.num_queries(); ++q) {
    for (int i = 0; i < a.k(); ++i) {
      if (a.row(q)[i].index != b.row(q)[i].index ||
          std::memcmp(&a.row(q)[i].distance, &b.row(q)[i].distance,
                      sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

// A shard file of a serving set loads standalone as its slice: stable ids
// keep the shard's offset, answers match the oracle over the slice's live
// points, and a Save/Load round trip keeps them.
TEST(ShardDirectoryTest, StandaloneLoadOfOffsetShardKeepsStableIds) {
  const HostMatrix target = RandomMatrix(90, 4, 23);
  const HostMatrix queries = RandomMatrix(9, 4, 24);
  const int k = 7;
  serve::ServiceConfig config;
  config.num_shards = 2;
  config.auto_compact = false;
  serve::KnnService service(target, config);

  // Shard 1 holds rows 45..89; inserts land on shard id % 2.
  std::map<uint32_t, std::vector<float>> shard1;
  for (uint32_t id = 45; id < 90; ++id) {
    shard1[id] = std::vector<float>(target.row(id), target.row(id) + 4);
  }
  for (const bool mutated : {false, true}) {
    if (mutated) {
      const HostMatrix inserts = RandomMatrix(6, 4, 25);
      Result<std::vector<uint32_t>> ids = service.InsertBatch(inserts);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      for (size_t r = 0; r < ids.value().size(); ++r) {
        const uint32_t id = ids.value()[r];
        if (id % 2 == 1) {
          shard1[id] =
              std::vector<float>(inserts.row(r), inserts.row(r) + 4);
        }
      }
      for (const uint32_t id : {10u, 50u, 60u, 93u}) {
        ASSERT_TRUE(service.Remove(id).value()) << id;
        shard1.erase(id);
      }
    }
    const std::string dir =
        TempPath(mutated ? "offset_shard_mutated" : "offset_shard_pristine");
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(service.SaveSnapshots(dir).ok());

    HostMatrix points(shard1.size(), 4);
    std::vector<uint32_t> ids;
    for (const auto& [id, coords] : shard1) {
      std::memcpy(points.mutable_row(ids.size()), coords.data(),
                  4 * sizeof(float));
      ids.push_back(id);
    }
    const KnnResult want = OracleWithIds(queries, points, ids, k);

    Result<std::unique_ptr<SweetKnnIndex>> loaded =
        SweetKnnIndex::Load(ShardSnapshotPath(dir, 1, 2));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->pristine(), !mutated);
    EXPECT_EQ(loaded.value()->LiveIds(), ids);
    EXPECT_TRUE(SameAnswers(loaded.value()->Query(queries, k), want));

    const std::string resaved = TempPath("offset_shard_resaved.sksnap");
    ASSERT_TRUE(loaded.value()->Save(resaved).ok());
    Result<std::unique_ptr<SweetKnnIndex>> reloaded =
        SweetKnnIndex::Load(resaved);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(reloaded.value()->LiveIds(), ids);
    EXPECT_TRUE(SameAnswers(reloaded.value()->Query(queries, k), want));
    std::remove(resaved.c_str());
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace sweetknn::store
