#include "core/route_planner.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/matrix.h"
#include "core/sweet_knn.h"
#include "gtest/gtest.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/knn_service.h"
#include "serve/shard_worker.h"
#include "test_util.h"

namespace sweetknn {
namespace {

using testing::ClusteredPoints;

// The planner's whole contract is that routing is invisible in the
// answers, so these comparisons are bit-for-bit, not tolerance-based.
void ExpectBitIdentical(const KnnResult& want, const KnnResult& got,
                        const char* what) {
  ASSERT_EQ(want.k(), got.k()) << what;
  ASSERT_EQ(want.num_queries(), got.num_queries()) << what;
  for (size_t q = 0; q < want.num_queries(); ++q) {
    const Neighbor* w = want.row(q);
    const Neighbor* g = got.row(q);
    for (int i = 0; i < want.k(); ++i) {
      EXPECT_EQ(w[i].index, g[i].index)
          << what << " query " << q << " rank " << i;
      EXPECT_EQ(std::memcmp(&w[i].distance, &g[i].distance, sizeof(float)),
                0)
          << what << " query " << q << " rank " << i;
    }
  }
}

TEST(RoutePlannerTest, ForcedModesAlwaysRouteAndCount) {
  core::PlannerConfig config;
  config.mode = core::PlannerMode::kForceDevice;
  core::RoutePlanner device_planner(config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(device_planner.Choose(), core::QueryRoute::kDevice);
  }
  EXPECT_EQ(device_planner.device_routes(), 10u);
  EXPECT_EQ(device_planner.host_routes(), 0u);

  config.mode = core::PlannerMode::kForceHost;
  core::RoutePlanner host_planner(config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(host_planner.Choose(), core::QueryRoute::kHost);
  }
  EXPECT_EQ(host_planner.device_routes(), 0u);
  EXPECT_EQ(host_planner.host_routes(), 10u);
}

TEST(RoutePlannerTest, DefaultPlannerRoutesEveryDecisionToHost) {
  core::RoutePlanner planner;
  ASSERT_EQ(planner.mode(), core::PlannerMode::kAuto);
  // The simulator's wall time prices no real GPU, so auto never sends a
  // fragment to the device: not the first, not any later one.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(planner.Choose(), core::QueryRoute::kHost) << "decision " << i;
  }
  EXPECT_EQ(planner.device_routes(), 0u);
  EXPECT_EQ(planner.host_routes(), 1000u);
}

TEST(RoutePlannerTest, EnvVariableOverridesConfiguredMode) {
  ::setenv("SWEETKNN_PLANNER", "host", 1);
  core::PlannerConfig config;
  config.mode = core::PlannerMode::kForceDevice;
  EXPECT_EQ(core::RoutePlanner(config).mode(),
            core::PlannerMode::kForceHost);
  ::setenv("SWEETKNN_PLANNER", "device", 1);
  EXPECT_EQ(core::RoutePlanner().mode(), core::PlannerMode::kForceDevice);
  ::setenv("SWEETKNN_PLANNER", "auto", 1);
  EXPECT_EQ(core::RoutePlanner(config).mode(), core::PlannerMode::kAuto);
  // Unknown values are ignored, not an error.
  ::setenv("SWEETKNN_PLANNER", "quantum", 1);
  EXPECT_EQ(core::RoutePlanner(config).mode(),
            core::PlannerMode::kForceDevice);
  ::unsetenv("SWEETKNN_PLANNER");
}

// TSan target (tools/check_tsan.sh): Choose and set_mode race freely;
// every decision must land in exactly one route counter.
TEST(RoutePlannerTest, ConcurrentChooseAndModeFlipsLoseNoDecisions) {
  core::RoutePlanner planner;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&planner, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      for (int i = 0; i < kPerThread; ++i) {
        switch (rng() % 8) {
          case 0:
            planner.set_mode(core::PlannerMode::kForceHost);
            break;
          case 1:
            planner.set_mode(core::PlannerMode::kForceDevice);
            break;
          case 2:
            planner.set_mode(core::PlannerMode::kAuto);
            break;
          default:
            break;
        }
        planner.Choose();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(planner.device_routes() + planner.host_routes(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

SweetKnn::Config IndexConfig(core::PlannerMode mode, core::Metric metric) {
  SweetKnn::Config config;
  config.planner.mode = mode;
  config.options.metric = metric;
  return config;
}

// The planner's correctness claim: the merged answers are bit-identical
// no matter which route served the base scan — including through
// mutations, where the host route feeds the same overlay merge.
TEST(RoutePlannerTest, IndexAnswersBitIdenticallyOnEveryRoute) {
  for (const core::Metric metric :
       {core::Metric::kEuclidean, core::Metric::kManhattan}) {
    const HostMatrix target = ClusteredPoints(300, 6, 4, 515);
    const HostMatrix queries = ClusteredPoints(24, 6, 3, 516);
    SweetKnnIndex device_index(
        target, IndexConfig(core::PlannerMode::kForceDevice, metric));
    SweetKnnIndex host_index(
        target, IndexConfig(core::PlannerMode::kForceHost, metric));
    SweetKnnIndex auto_index(
        target, IndexConfig(core::PlannerMode::kAuto, metric));

    const KnnResult want = device_index.Query(queries, 5);
    ExpectBitIdentical(want, host_index.Query(queries, 5), "pristine host");
    ExpectBitIdentical(want, auto_index.Query(queries, 5), "pristine auto");

    // Mutate all three identically; the base scan now over-queries and
    // merges with the delta overlay on whichever route.
    for (SweetKnnIndex* index : {&device_index, &host_index, &auto_index}) {
      index->Insert({0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f});
      index->Insert({-0.4f, 0.0f, 0.7f, -0.1f, 0.2f, 0.9f});
      index->Remove(7);
      index->Remove(42);
    }
    const KnnResult mutated = device_index.Query(queries, 5);
    ExpectBitIdentical(mutated, host_index.Query(queries, 5),
                       "mutated host");
    ExpectBitIdentical(mutated, auto_index.Query(queries, 5),
                       "mutated auto");
  }
}

TEST(RoutePlannerTest, DefaultIndexNeverTakesTheDeviceRoute) {
  const HostMatrix target = ClusteredPoints(300, 6, 4, 519);
  const HostMatrix queries = ClusteredPoints(32, 6, 3, 520);
  SweetKnnIndex index(target);
  for (size_t q = 0; q < queries.rows(); ++q) {
    index.Query(std::vector<float>(queries.row(q),
                                   queries.row(q) + queries.cols()),
                5);
  }
  EXPECT_EQ(index.planner().device_routes(), 0u);
  EXPECT_EQ(index.planner().host_routes(), 32u);
}

TEST(RoutePlannerTest, DefaultServiceNeverTakesTheDeviceRoute) {
  const HostMatrix target = ClusteredPoints(260, 4, 3, 521);
  const HostMatrix queries = ClusteredPoints(64, 4, 2, 522);
  serve::ServiceConfig config;
  config.num_shards = 2;
  serve::KnnService service(target, config);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const std::vector<float> point(queries.row(q),
                                   queries.row(q) + queries.cols());
    ASSERT_TRUE(service.Search(point, 4).ok());
  }
  ASSERT_TRUE(service.JoinBatch(queries, 4).ok());
  EXPECT_EQ(service.planner().device_routes(), 0u);
  EXPECT_GT(service.planner().host_routes(), 0u);
  EXPECT_EQ(service.stats().total_sim_time_s, 0.0);
}

/// Prepares one shard over `target` on an in-process shard worker with
/// the given planner mode, sends each query row as its own single-row
/// group (the shape of a cluster read), and returns the worker's answers
/// in order.
std::vector<core::ShardAnswer> WorkerAnswers(core::PlannerMode mode,
                                             const HostMatrix& target,
                                             const HostMatrix& queries,
                                             int k, const char* tag) {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  const auto deadline = [] {
    return steady_clock::now() + milliseconds(30000);
  };
  const std::string path = ::testing::TempDir() + "/sweetknn_planner_" +
                           tag + "_" + std::to_string(::getpid()) + ".sock";
  serve::ShardWorker worker(path);
  Status served;
  std::thread server([&] { served = worker.Run(); });

  std::vector<core::ShardAnswer> answers;
  Result<net::Connection> conn = net::Connection::Connect(path, deadline());
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
  if (conn.ok()) {
    // Sends one request and returns its reply, failing the test on a
    // transport error or an unexpected reply type.
    const auto call = [&](net::MsgType type, const std::string& payload,
                          net::MsgType want) -> Result<net::Frame> {
      SK_RETURN_IF_ERROR(net::SendFrame(conn.value(),
                                        static_cast<uint32_t>(type),
                                        payload, deadline()));
      Result<net::Frame> reply = net::RecvFrame(conn.value(), deadline());
      SK_RETURN_IF_ERROR(reply.status());
      if (reply.value().type != static_cast<uint32_t>(want)) {
        return Status::Internal("unexpected reply type " +
                                std::to_string(reply.value().type));
      }
      return reply;
    };

    net::PrepareColdRequest prepare;
    prepare.slice = target;
    prepare.device = gpusim::DeviceSpec::TeslaK20c();
    prepare.planner.mode = mode;
    const Result<net::Frame> prepared =
        call(net::MsgType::kPrepareCold, net::EncodePrepareCold(prepare),
             net::MsgType::kAck);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    for (size_t q = 0; prepared.ok() && q < queries.rows(); ++q) {
      net::QueryRequest query;
      query.k = static_cast<uint32_t>(k);
      query.queries = HostMatrix(1, queries.cols());
      std::memcpy(query.queries.mutable_data(), queries.row(q),
                  queries.cols() * sizeof(float));
      query.shard_indices = {0};
      const Result<net::Frame> reply =
          call(net::MsgType::kQuery, net::EncodeQuery(query),
               net::MsgType::kQueryReply);
      net::QueryReply decoded;
      if (!reply.ok() ||
          !net::DecodeQueryReply(reply.value().payload, &decoded).ok() ||
          decoded.answers.size() != 1) {
        ADD_FAILURE() << "query " << q << ": bad reply";
        break;
      }
      answers.push_back(std::move(decoded.answers[0]));
    }
    const Result<net::Frame> bye =
        call(net::MsgType::kShutdown, "", net::MsgType::kAck);
    EXPECT_TRUE(bye.ok()) << bye.status().ToString();
  }
  server.join();
  EXPECT_TRUE(served.ok()) << served.ToString();
  return answers;
}

TEST(RoutePlannerTest, DefaultShardWorkerNeverTakesTheDeviceRoute) {
  const HostMatrix target = ClusteredPoints(300, 6, 4, 523);
  const HostMatrix queries = ClusteredPoints(32, 6, 3, 524);
  const std::vector<core::ShardAnswer> host = WorkerAnswers(
      core::PlannerConfig().mode, target, queries, 5, "default");
  ASSERT_EQ(host.size(), queries.rows());
  for (size_t q = 0; q < host.size(); ++q) {
    EXPECT_FALSE(host[q].device_routed) << "group " << q;
    EXPECT_EQ(host[q].sim_time_s, 0.0) << "group " << q;
  }

  // A forced device route still reaches the simulated engine, and the
  // two routes agree bit for bit.
  const std::vector<core::ShardAnswer> device = WorkerAnswers(
      core::PlannerMode::kForceDevice, target, queries, 5, "device");
  ASSERT_EQ(device.size(), queries.rows());
  for (size_t q = 0; q < device.size(); ++q) {
    EXPECT_TRUE(device[q].device_routed) << "group " << q;
    EXPECT_GT(device[q].sim_time_s, 0.0) << "group " << q;
    ExpectBitIdentical(device[q].result, host[q].result, "worker route");
  }
}

TEST(RoutePlannerTest, ServiceAnswersBitIdenticallyOnEveryRoute) {
  const HostMatrix target = ClusteredPoints(260, 4, 3, 517);
  const HostMatrix queries = ClusteredPoints(16, 4, 2, 518);
  serve::ServiceConfig device_config;
  device_config.num_shards = 2;
  device_config.planner.mode = core::PlannerMode::kForceDevice;
  serve::ServiceConfig host_config = device_config;
  host_config.planner.mode = core::PlannerMode::kForceHost;

  serve::KnnService device_service(target, device_config);
  serve::KnnService host_service(target, host_config);
  const Result<KnnResult> want = device_service.JoinBatch(queries, 4);
  const Result<KnnResult> got = host_service.JoinBatch(queries, 4);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(want.value(), got.value(), "service host route");
  EXPECT_GT(host_service.planner().host_routes(), 0u);
  EXPECT_GT(device_service.planner().device_routes(), 0u);
}

}  // namespace
}  // namespace sweetknn
