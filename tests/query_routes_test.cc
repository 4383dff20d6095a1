// Reverse-path routes owned by the shard per query (core/query_routes.h): a
// hop is the duplicate-suppression record, a departure erases the peer's
// hops, and a query's cleanup erases its whole table. The engine rows run
// churn at four shards, so the TSan CI job covers the departure walk under
// real threads.
#include "core/query_routes.h"

#include <gtest/gtest.h>

#include "common/arena.h"
#include "core/engine.h"
#include "core/experiment.h"

namespace locaware::core {
namespace {

TEST(QueryRoutesTest, DuplicateCopyIsDropped) {
  QueryRoutes routes;
  EXPECT_TRUE(routes.Admit(/*qid=*/7, /*peer=*/3, /*from=*/1));
  // A second copy over another link is a duplicate; the first hop stays.
  EXPECT_FALSE(routes.Admit(7, 3, 2));
  EXPECT_EQ(routes.NextHop(7, 3), 1u);
  // The same peer may still take other queries.
  EXPECT_TRUE(routes.Admit(8, 3, 2));
  EXPECT_EQ(routes.NextHop(8, 3), 2u);
  EXPECT_EQ(routes.query_count(), 2u);
}

TEST(QueryRoutesTest, DepartedPeerAcceptsLaterCopyAfterRejoin) {
  QueryRoutes routes;
  ASSERT_TRUE(routes.Admit(7, /*peer=*/3, /*from=*/1));
  ASSERT_TRUE(routes.Admit(7, /*peer=*/4, /*from=*/3));
  ASSERT_TRUE(routes.Admit(9, /*peer=*/3, /*from=*/5));

  routes.DropPeer(3);
  // Every live query lost peer 3's hop, and only that hop.
  EXPECT_EQ(routes.NextHop(7, 3), kInvalidPeer);
  EXPECT_EQ(routes.NextHop(9, 3), kInvalidPeer);
  EXPECT_EQ(routes.NextHop(7, 4), 3u);
  EXPECT_EQ(routes.query_count(), 2u);

  // Rejoined, peer 3 takes a later copy of the same query as new.
  EXPECT_TRUE(routes.Admit(7, 3, 6));
  EXPECT_EQ(routes.NextHop(7, 3), 6u);
}

TEST(QueryRoutesTest, ResponseAfterCleanupIsDropped) {
  QueryRoutes routes;
  ASSERT_TRUE(routes.Admit(7, 3, 1));
  ASSERT_TRUE(routes.Admit(7, 4, 3));
  ASSERT_TRUE(routes.Admit(8, 4, 2));
  routes.Erase(7);
  // No next hop: a response still walking back stops here.
  EXPECT_EQ(routes.NextHop(7, 3), kInvalidPeer);
  EXPECT_EQ(routes.NextHop(7, 4), kInvalidPeer);
  EXPECT_EQ(routes.NextHop(8, 4), 2u);
  EXPECT_EQ(routes.query_count(), 1u);
  routes.Erase(8);
  EXPECT_EQ(routes.query_count(), 0u);
}

TEST(QueryRoutesTest, TablesComeFromTheShardArena) {
  common::Arena arena;
  QueryRoutes routes;
  routes.set_arena(&arena);
  for (PeerId p = 0; p < 100; ++p) ASSERT_TRUE(routes.Admit(1, p, p + 1));
  const size_t carved = arena.bytes_allocated();
  EXPECT_GT(carved, 0u);
  // A cleaned-up query's buffers go back to the arena's free lists, so the
  // next query of the same size carves nothing new.
  routes.Erase(1);
  for (PeerId p = 0; p < 100; ++p) ASSERT_TRUE(routes.Admit(2, p, p + 1));
  EXPECT_GT(arena.freelist_hits(), 0u);
}

/// Flooding under brisk churn: hundreds of hops per query, with peers
/// leaving mid-query on every shard.
ExperimentConfig ChurnyFlood(uint32_t shards) {
  ExperimentConfig cfg = MakePaperConfig(ProtocolKind::kFlooding, /*num_queries=*/300,
                                         /*seed=*/11);
  cfg.num_peers = 150;
  cfg.underlay.num_routers = 30;
  cfg.catalog.num_files = 300;
  cfg.catalog.keyword_pool_size = 900;
  cfg.workload.query_rate_per_peer_s = 0.02;
  cfg.churn.enabled = true;
  cfg.churn.mean_session_s = 60;
  cfg.churn.mean_offline_s = 20;
  cfg.scheduler.shards = shards;
  return cfg;
}

TEST(QueryRoutesTest, ChurnRunDrainsEveryShardsRoutesAtAnyShardCount) {
  auto serial = std::move(Engine::Create(ChurnyFlood(1))).ValueOrDie();
  serial->Run();
  auto sharded = std::move(Engine::Create(ChurnyFlood(4))).ValueOrDie();
  sharded->Run();
  ASSERT_GT(serial->metrics().churn_events(), 0u) << "config produced no churn";
  for (const Engine* e : {serial.get(), sharded.get()}) {
    EXPECT_EQ(e->routed_query_count(), 0u) << e->num_shards() << " shards";
    EXPECT_EQ(e->tracked_query_count(), 0u) << e->num_shards() << " shards";
  }
  const auto& a = serial->metrics().records();
  const auto& b = sharded->metrics().records();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].success, b[i].success) << "slot " << i;
    EXPECT_EQ(a[i].query_msgs, b[i].query_msgs) << "slot " << i;
    EXPECT_EQ(a[i].response_msgs, b[i].response_msgs) << "slot " << i;
    EXPECT_EQ(a[i].responses_received, b[i].responses_received) << "slot " << i;
  }
}

// A deadline shorter than the slowest forwarding path: copies still in flight
// reach shards whose cleanup already ran. They must be dropped, not admitted
// into a hop table that nothing erases afterwards.
TEST(QueryRoutesTest, CopiesArrivingAfterCleanupLeaveNoRoutesBehind) {
  for (uint32_t shards : {1u, 4u}) {
    ExperimentConfig cfg = MakePaperConfig(ProtocolKind::kFlooding, /*num_queries=*/300,
                                           /*seed=*/42);
    cfg.num_peers = 300;
    cfg.underlay.num_routers = 40;
    cfg.params.query_deadline = 100 * sim::kMillisecond;
    cfg.scheduler.shards = shards;
    auto e = std::move(Engine::Create(cfg)).ValueOrDie();
    e->Run();
    EXPECT_EQ(e->routed_query_count(), 0u) << shards << " shards";
    EXPECT_EQ(e->tracked_query_count(), 0u) << shards << " shards";
  }
}

}  // namespace
}  // namespace locaware::core
