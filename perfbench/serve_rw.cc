// serve_rw: an in-process KnnService (2 shards, default batching and
// compaction) over a 64k x 16 clustered base, driven open-loop at a
// fixed Poisson rate with 90% single-row exact k=10 Search, 5% Insert
// and 5% Remove of live ids, then a closed-loop read phase that gives
// the saturation rate. The serve queue/batching/fan-out/merge and the
// core overlay merge do most of the work; writes grow the overlay
// during the run.
//
// The run is a few identical episodes, each on a freshly built service
// (which is also a set-up sample): every episode grows the overlay from
// zero by the same share, so the statistics of one run do not depend on
// how far the overlay had drifted.
//
// Correctness (outside the timed regions): after every episode the
// service must answer a fixed probe set identically to the simd brute
// force over the surviving rows. After the last one the write tape is
// also replayed into a SweetKnnIndex, which must answer identically, as
// must a cold-built index over the surviving rows in ascending stable-id
// order (docs/mutability.md).

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>

#include "common/rng.h"
#include "core/device_points.h"
#include "core/sweet_knn.h"
#include "workloads.h"

namespace sweetknn::perfbench {
namespace {

constexpr size_t kBaseRows = 65536;
constexpr size_t kDims = 16;
constexpr size_t kReadPool = 4096;
constexpr size_t kInsertPool = 4096;
constexpr size_t kProbeRows = 256;
constexpr int kK = 10;
/// About half the closed-loop saturation rate of the seed on a 4-core
/// AVX-512 host once writes have grown the overlay; fixed so later
/// commits face the same offered load.
constexpr double kOfferedRps = 250.0;
/// Seconds per episode, and the open-loop share of it (the rest is the
/// closed-loop phase).
constexpr double kEpisodeSeconds = 5.0;
constexpr double kOpenShare = 0.65;
/// Slices per phase for the windowed medians.
constexpr int kWindows = 2;
constexpr int kOverlayTimingReps = 5;

/// Rows of `in` mapped through `ids` (row -> stable id).
KnnResult MapIds(const KnnResult& in, const std::vector<uint32_t>& ids) {
  KnnResult out = in;
  for (size_t q = 0; q < out.num_queries(); ++q) {
    Neighbor* row = out.mutable_row(q);
    for (int j = 0; j < out.k(); ++j) {
      if (row[j].index != kInvalidNeighbor) row[j].index = ids[row[j].index];
    }
  }
  return out;
}

/// What one episode's writes did: (stable id the service assigned,
/// insert-pool row) per insert, and the removed ids.
struct Tape {
  std::mutex mutex;
  std::vector<std::pair<uint32_t, uint32_t>> inserted;
  std::vector<uint32_t> removed;
};

/// The rows alive after `tape` (sorted), ascending by stable id.
void Survivors(const HostMatrix& base, const HostMatrix& inserts,
               const Tape& tape, std::vector<uint32_t>* ids,
               HostMatrix* rows) {
  std::vector<const float*> src;
  for (uint32_t id = 0, r = 0; id < base.rows(); ++id) {
    if (r < tape.removed.size() && tape.removed[r] == id) {
      ++r;
      continue;
    }
    ids->push_back(id);
    src.push_back(base.row(id));
  }
  for (const auto& [id, row] : tape.inserted) {
    ids->push_back(id);
    src.push_back(inserts.row(row));
  }
  *rows = HostMatrix(src.size(), base.cols());
  for (size_t i = 0; i < src.size(); ++i) {
    std::memcpy(rows->mutable_row(i), src[i], base.cols() * sizeof(float));
  }
}

}  // namespace

RunResult RunServeRw(const Args& args, Tracer* tracer) {
  RunResult result;
  result.offered_rps = kOfferedRps;
  Tracer untraced(false);

  const HostMatrix all = ClusteredPoints(
      kBaseRows + kReadPool + kInsertPool + kProbeRows, kDims, args.seed);
  auto slice = [&](size_t begin, size_t rows) {
    HostMatrix m(rows, kDims);
    std::memcpy(m.mutable_data(), all.row(begin), m.size() * sizeof(float));
    return m;
  };
  const HostMatrix base = slice(0, kBaseRows);
  const HostMatrix reads = slice(kBaseRows, kReadPool);
  const HostMatrix inserts = slice(kBaseRows + kReadPool, kInsertPool);
  const HostMatrix probes =
      slice(kBaseRows + kReadPool + kInsertPool, kProbeRows);
  const simd::Dist dist = core::SimdDistFor(core::TiOptions().metric);

  const int episodes =
      std::max(3, static_cast<int>(args.seconds / kEpisodeSeconds + 0.5));
  const double episode_s = args.seconds / episodes;
  const double open_s = episode_s * kOpenShare;
  const double closed_s = episode_s - open_s;

  const serve::ServiceConfig config;
  std::unique_ptr<serve::KnnService> service;
  Tape tape;
  LayerMetrics layers;
  std::vector<double> setup_s;
  std::vector<OpRecord> all_ops;  // every episode's open-loop ops
  std::vector<double> read_p50s, read_p99s, write_p50s, write_p99s, rates,
      saturated_p50s;
  std::vector<double> untraced_read_ms, traced_read_ms;
  uint64_t reads_n = 0, writes_n = 0, closed_n = 0, counted_twice = 0;
  Lateness late;
  double simd_s = 0.0;
  size_t survivors_rows = 0;

  for (int e = 0; e < episodes; ++e) {
    const uint64_t seed = args.seed * 1000 + static_cast<uint64_t>(e);
    const bool traced = args.trace && e >= episodes / 2;
    Tracer* t = traced ? tracer : &untraced;

    // Set-up: shard cold builds, from constructor call to ready.
    service.reset();
    {
      ScopedSpan root(t, "setup", Layer::kHarness);
      ScopedSpan span(t, "serve.KnnService", Layer::kServe, root.id());
      const Clock::time_point t0 = Clock::now();
      service = std::make_unique<serve::KnnService>(base, config);
      setup_s.push_back(Since(t0, Clock::now()));
    }
    serve::KnnService& svc = *service;
    const core::RoutePlanner& planner = svc.planner();

    // The open-loop schedule: one op in 20 inserts and one removes, in a
    // fixed rotation so every episode grows the overlay by the same
    // share. Each op's argument is a read-pool row, the next insert-pool
    // row, or the next base id of a seeded permutation (so every Remove
    // names a distinct, live row).
    std::vector<OpRecord> ops = PoissonSchedule(kOfferedRps, open_s, seed);
    std::vector<uint32_t> arg(ops.size());
    {
      std::mt19937_64 rng(seed ^ 0x5eed5eedull);
      std::vector<uint32_t> removable(kBaseRows);
      std::iota(removable.begin(), removable.end(), 0u);
      std::shuffle(removable.begin(), removable.end(), rng);
      size_t next_insert = 0, next_remove = 0;
      for (size_t i = 0; i < ops.size(); ++i) {
        ops[i].kind = i % 20 == 7 ? kInsert : i % 20 == 17 ? kRemove : kRead;
        if (ops[i].kind == kRead) {
          arg[i] = static_cast<uint32_t>(rng() % kReadPool);
        } else if (ops[i].kind == kInsert) {
          arg[i] = static_cast<uint32_t>(next_insert++ % kInsertPool);
        } else {
          arg[i] = removable[next_remove++];
        }
      }
    }
    tape.inserted.clear();
    tape.removed.clear();

    auto issue = [&](size_t i, OpRecord* op, Clock::time_point t0) {
      const uint64_t request = (static_cast<uint64_t>(e) << 32) | (i + 1);
      const int64_t root = t->OpenScheduled("request", request, Due(t0, *op));
      const uint64_t device0 = planner.device_routes();
      if (op->kind == kRead) {
        ScopedSpan span(t, "serve.Search", Layer::kServe, root, request);
        op->fail = Classify(svc.Search(RowVector(reads, arg[i]), kK).status());
      } else if (op->kind == kInsert) {
        ScopedSpan span(t, "serve.Insert", Layer::kServe, root, request);
        const Result<uint32_t> id = svc.Insert(RowVector(inserts, arg[i]));
        op->fail = Classify(id.status());
        if (id.ok()) {
          std::lock_guard<std::mutex> lock(tape.mutex);
          tape.inserted.emplace_back(id.value(), arg[i]);
        }
      } else {
        ScopedSpan span(t, "serve.Remove", Layer::kServe, root, request);
        const Result<bool> hit = svc.Remove(arg[i]);
        op->fail = Classify(hit.status());
        if (hit.ok() && !hit.value()) op->fail = Fail::kMismatch;
        if (hit.ok() && hit.value()) {
          std::lock_guard<std::mutex> lock(tape.mutex);
          tape.removed.push_back(arg[i]);
        }
      }
      op->device_exposed = planner.device_routes() != device0;
      t->Close(root);
    };
    RunOpenLoop(&ops, Callers(), issue);
    const Lateness episode_late = MeasureLateness(ops, open_s);
    late.p50_ms = std::max(late.p50_ms, episode_late.p50_ms);
    late.p99_ms = std::max(late.p99_ms, episode_late.p99_ms);
    late.final_lag_frac =
        std::max(late.final_lag_frac, episode_late.final_lag_frac);
    late.invalid = late.invalid || episode_late.invalid;
    TallyOps(ops, &result.Phase("open_loop"));

    // Closed-loop saturation phase: reads only.
    std::vector<OpRecord> closed;
    const double closed_wall_s = RunClosedLoop(
        closed_s, Callers(),
        [&](size_t i, OpRecord* op, Clock::time_point) {
          op->kind = kRead;
          const uint32_t r = static_cast<uint32_t>(
              SplitMix64(seed * 0x9e3779b97f4a7c15ull + i) % kReadPool);
          op->fail = Classify(svc.Search(RowVector(reads, r), kK).status());
        },
        &closed);
    TallyOps(closed, &result.Phase("closed_loop"));

    AppendWindowQuantiles(ops, kReads, 0.50, open_s, kWindows, &read_p50s,
                          &reads_n);
    AppendWindowQuantiles(ops, kReads, 0.99, open_s, kWindows, &read_p99s,
                          &counted_twice);
    AppendWindowQuantiles(ops, kWrites, 0.50, open_s, kWindows, &write_p50s,
                          &writes_n);
    AppendWindowQuantiles(ops, kWrites, 0.99, open_s, kWindows, &write_p99s,
                          &counted_twice);
    AppendWindowRates(closed, closed_wall_s, kWindows, &rates);
    AppendWindowQuantiles(closed, kReads, 0.50, closed_wall_s, kWindows,
                          &saturated_p50s, &counted_twice);
    closed_n += closed.size();
    const std::vector<double> read_ms = LatenciesMs(ops, kReads, open_s);
    std::vector<double>& read_half = traced ? traced_read_ms : untraced_read_ms;
    read_half.insert(read_half.end(), read_ms.begin(), read_ms.end());
    all_ops.insert(all_ops.end(), ops.begin(), ops.end());

    // Gate: the live service against the brute force over the survivors.
    ScopedSpan gate(tracer, "gate", Layer::kHarness);
    std::sort(tape.inserted.begin(), tape.inserted.end());
    std::sort(tape.removed.begin(), tape.removed.end());
    std::vector<uint32_t> live_ids;
    HostMatrix survivors;
    Survivors(base, inserts, tape, &live_ids, &survivors);
    survivors_rows = survivors.rows();
    const Result<KnnResult> live = [&] {
      ScopedSpan span(tracer, "serve.JoinBatch", Layer::kServe, gate.id());
      return svc.JoinBatch(probes, kK);
    }();
    result.Phase("gate").Add(Classify(live.status()));
    KnnResult brute;
    {
      ScopedSpan span(tracer, "simd.PackedKnn", Layer::kSimd, gate.id());
      const Clock::time_point t0 = Clock::now();
      const simd::PackedTargets packed = simd::PackedTargets::Pack(
          survivors.data(), survivors.rows(), survivors.cols());
      brute = MapIds(simd::PackedKnn(probes, packed, kK, dist, Callers()),
                     live_ids);
      simd_s += Since(t0, Clock::now());
    }
    for (size_t q = 0; q < kProbeRows; ++q) {
      const bool same = live.ok() &&
                        SameNeighbors(live.value().row(q), brute.row(q), kK);
      result.Phase("gate").Add(same ? Fail::kNone : Fail::kMismatch);
    }
    if (e + 1 < episodes) continue;

    // Last episode: replay the tape (inserts in stable-id order reproduce
    // the ids) and cold-build the survivors; both must agree too.
    SweetKnn::Config replay_config;
    replay_config.compact_delta_fraction = 0.0;  // keep the overlay
    SweetKnnIndex replay(base, replay_config);
    bool tape_ok = true;
    for (const auto& [id, row] : tape.inserted) {
      tape_ok &= replay.Insert(RowVector(inserts, row)) == id;
    }
    for (uint32_t id : tape.removed) tape_ok &= replay.Remove(id);
    tape_ok &= replay.LiveIds() == live_ids;
    const KnnResult replayed = replay.Query(probes, kK);
    SweetKnnIndex cold_index(survivors);
    const KnnResult cold = MapIds(cold_index.Query(probes, kK), live_ids);
    for (size_t q = 0; q < kProbeRows; ++q) {
      const bool same = tape_ok &&
                        SameNeighbors(replayed.row(q), brute.row(q), kK) &&
                        SameNeighbors(cold.row(q), brute.row(q), kK);
      result.Phase("replay").Add(same ? Fail::kNone : Fail::kMismatch);
    }
    if (!tape_ok) result.notes.push_back("write tape did not replay cleanly");
    if (!args.trace) continue;

    // Traced run only: overlay cost. The replayed index (with its
    // overlay) and its compacted twin answer the probe set on the host
    // route, so the difference is the overlay merge alone. The twin is
    // the cold build over the survivors in stable-id order — what
    // Compact() builds by its contract. Compact() itself is not called:
    // it frees the old engine's device buffers after destroying their
    // device (a heap use-after-free AddressSanitizer reports).
    auto time_probes = [&](const char* name, SweetKnnIndex* index,
                           const std::vector<uint32_t>& ids) {
      index->planner().set_mode(core::PlannerMode::kForceHost);
      ScopedSpan root(tracer, name, Layer::kHarness);
      std::vector<double> ms;
      KnnResult answer;
      for (int rep = 0; rep < kOverlayTimingReps; ++rep) {
        ScopedSpan span(tracer, "core.Query", Layer::kCore, root.id());
        const Clock::time_point t0 = Clock::now();
        answer = index->Query(probes, kK);
        ms.push_back(Since(t0, Clock::now()) * 1e3);
      }
      if (!ids.empty()) answer = MapIds(answer, ids);
      result.Phase("overlay_probe")
          .Add(SameNeighbors(answer.row(0), brute.row(0), kProbeRows * kK)
                   ? Fail::kNone
                   : Fail::kMismatch);
      return Median(ms);
    };
    layers.core_overlay_rows = replay.delta_size() + replay.tombstone_count();
    layers.core_overlay_read_ms = time_probes("overlay_probe", &replay, {});
    layers.core_compacted_read_ms =
        time_probes("compacted_probe", &cold_index, live_ids);
  }

  const double rss = PeakRssMb();
  char line[200];
  std::snprintf(line, sizeof(line),
                "open loop: %d episodes x %.2f s at %.0f/s, %zu ops; late "
                "p50 %.3f ms p99 %.3f ms, final lag %.1f%% (worst episode)",
                episodes, open_s, kOfferedRps, all_ops.size(), late.p50_ms,
                late.p99_ms, late.final_lag_frac * 100);
  result.notes.push_back(line);
  const uint64_t setups = setup_s.size();
  result.report = {
      {"setup_s", "s", Median(setup_s), setups},
      {"read_p50_ms", "ms", Median(read_p50s), reads_n},
      {"read_p99_ms", "ms", Median(read_p99s), reads_n},
      {"write_p50_ms", "ms", Median(write_p50s), writes_n},
      {"write_p99_ms", "ms", Median(write_p99s), writes_n},
      {"saturation_rps", "1/s", Median(rates), closed_n},
      {"peak_rss_mb", "MiB", rss, 1},
  };
  if (late.invalid) {
    result.invalid = true;
    result.invalid_reason =
        std::string("generator fell behind its schedule: ") + line;
  }
  if (!args.trace) {
    result.Add("setup_s", "s", Median(setup_s), setups);
    result.Add("read_p50_ms", "ms", Median(read_p50s), reads_n);
    result.Add("read_rows_per_s", "1/s", Median(rates), closed_n);
    // Write latency (~20 us at p50) moves by a third between runs on a
    // shared host, beyond the largest bound a gated metric may have; it
    // is printed above, and the gated second latency is the reads' at
    // saturation.
    result.Add("aux_p50_ms", "ms", Median(saturated_p50s), closed_n);
    result.Add("peak_rss_mb", "MiB", rss);
    return result;
  }

  layers.samples = all_ops.size();
  AddServiceLayers(*service, &layers);
  AddRouteSplit(all_ops, open_s, &layers);
  layers.simd_knn_s = simd_s;
  layers.simd_knn_gbps =
      simd_s > 0 ? static_cast<double>(episodes * kProbeRows) *
                       static_cast<double>(survivors_rows * kDims) *
                       sizeof(float) / simd_s / 1e9
                 : 0.0;
  AddLayerMetrics(layers, &result);
  AddHarnessLayerMetrics(*tracer, late,
                         OverheadPct(untraced_read_ms, traced_read_ms),
                         &result);
  return result;
}

}  // namespace sweetknn::perfbench
