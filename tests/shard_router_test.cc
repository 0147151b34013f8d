// Server sharding (DESIGN.md §10): the ShardMap partition function, the
// monolith-equivalence contract of the ShardRouter while focal objects walk
// across RQI slices, and multi-shard checkpoint/restore (including restoring
// into a deployment with a different shard count).

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "mobieyes/core/server.h"
#include "mobieyes/core/server_shard.h"
#include "mobieyes/core/snapshot.h"
#include "test_harness.h"

namespace mobieyes {
namespace {

using core::ShardMap;
using core::ShardingOptions;

core::MobiEyesOptions ShardedOptions(int num_shards) {
  core::MobiEyesOptions options;
  options.sharding.num_shards = num_shards;
  return options;
}

// --- ShardMap ----------------------------------------------------------------

TEST(ShardMapTest, RowBandPartitionCoversEveryCellExactlyOnce) {
  geo::Grid grid = *geo::Grid::Make(geo::Rect{0, 0, 100, 100}, 10.0);
  for (int n : {1, 2, 3, 4, 8, 64}) {
    ShardingOptions options;
    options.num_shards = n;
    ShardMap map(grid, options);
    std::vector<int64_t> owned(static_cast<size_t>(n), 0);
    for (int32_t j = 0; j < grid.rows(); ++j) {
      for (int32_t i = 0; i < grid.columns(); ++i) {
        int s = map.ShardOf({i, j});
        ASSERT_GE(s, 0);
        ASSERT_LT(s, n);
        ++owned[static_cast<size_t>(s)];
        // Row bands: ownership depends on j only.
        EXPECT_EQ(s, map.ShardOf({0, j}));
      }
    }
    // More shards than rows leaves trailing shards empty; every other shard
    // owns at least one full row.
    int64_t total = 0;
    for (int64_t count : owned) total += count;
    EXPECT_EQ(total,
              static_cast<int64_t>(grid.rows()) * grid.columns());
  }
}

// The shard count arrives in the daemon's config frame, so band sizing must
// hold up at any int: with more shards than rows each row is its own shard.
TEST(ShardMapTest, HugeShardCountGivesOneRowPerShard) {
  geo::Grid grid = *geo::Grid::Make(geo::Rect{0, 0, 100, 100}, 10.0);
  ShardingOptions options;
  options.num_shards = std::numeric_limits<int>::max();
  ShardMap map(grid, options);
  for (int32_t j = 0; j < grid.rows(); ++j) {
    EXPECT_EQ(map.ShardOf({0, j}), j);
  }
}

TEST(ShardMapTest, ShardsIntersectingIsExactForRowBands) {
  geo::Grid grid = *geo::Grid::Make(geo::Rect{0, 0, 100, 100}, 10.0);
  ShardingOptions options;
  options.num_shards = 4;
  ShardMap map(grid, options);
  for (int32_t j_lo = 0; j_lo < grid.rows(); j_lo += 2) {
    for (int32_t j_hi = j_lo; j_hi < grid.rows(); j_hi += 3) {
      geo::CellRange range{0, grid.columns() - 1, j_lo, j_hi};
      std::vector<int> shards = map.ShardsIntersecting(range);
      // Exactly the shards owning at least one cell, ascending, no dups.
      std::vector<bool> expected(4, false);
      range.ForEach(
          [&](int32_t i, int32_t j) { expected[map.ShardOf({i, j})] = true; });
      std::vector<int> want;
      for (int s = 0; s < 4; ++s) {
        if (expected[s]) want.push_back(s);
      }
      EXPECT_EQ(shards, want) << "rows [" << j_lo << ", " << j_hi << "]";
    }
  }
}

// --- Boundary walk -----------------------------------------------------------

// Objects that keep their focal role while marching straight through every
// row band of the grid, so their monitoring regions move across RQI slices.
// The sharded server must stay observably identical to a monolith twin fed
// the same workload — result sets, RQI rows, and wireless traffic included.
TEST(ShardRouterTest, BoundaryWalkKeepsShardedServerEquivalentToMonolith) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 10; ++k) {
    // March up in y (the row/j axis) so row-band boundaries are crossed
    // repeatedly; a few slower objects serve as non-focal targets.
    double vy = k < 5 ? 0.08 : 0.01;
    specs.push_back(test::ObjectSpec({10.0 + 9.0 * k, 5.0 + 3.0 * k},
                                     {0.0, vy},
                                     /*max_speed_in=*/0.1));
  }
  test::MiniDeployment mono(specs, ShardedOptions(1));
  test::MiniDeployment sharded(specs, ShardedOptions(4));
  const core::ShardRouter& router = sharded.server().router();
  ASSERT_EQ(router.num_shards(), 4);

  for (ObjectId oid = 0; oid < 5; ++oid) {
    ASSERT_TRUE(mono.server().InstallQuery(oid, 12.0, 0.5).ok());
    ASSERT_TRUE(sharded.server().InstallQuery(oid, 12.0, 0.5).ok());
  }

  auto expect_equivalent = [&](const std::string& context) {
    ASSERT_EQ(sharded.server().query_count(), mono.server().query_count())
        << context;
    for (QueryId qid = 0; qid < 5; ++qid) {
      const core::SqtEntry* a = mono.server().FindQuery(qid);
      const core::SqtEntry* b = sharded.server().FindQuery(qid);
      ASSERT_NE(a, nullptr) << context;
      ASSERT_NE(b, nullptr) << context;
      EXPECT_EQ(b->result, a->result) << context << " qid " << qid;
      EXPECT_EQ(b->curr_cell.i, a->curr_cell.i) << context;
      EXPECT_EQ(b->curr_cell.j, a->curr_cell.j) << context;
      EXPECT_EQ(b->mon_region.j_lo, a->mon_region.j_lo) << context;
      EXPECT_EQ(b->mon_region.j_hi, a->mon_region.j_hi) << context;
    }
    // RQI row equality on every cell: the sharded slices, read through the
    // router and through the server facade, must reproduce the monolith's
    // rows element-for-element (order included — broadcast order depends
    // on it).
    const geo::Grid& grid = mono.grid();
    for (int32_t j = 0; j < grid.rows(); ++j) {
      for (int32_t i = 0; i < grid.columns(); ++i) {
        const std::vector<QueryId>& want = mono.server().QueriesForCell({i, j});
        EXPECT_EQ(router.QueriesForCell({i, j}), want)
            << context << " cell (" << i << ", " << j << ")";
        EXPECT_EQ(sharded.server().QueriesForCell({i, j}), want)
            << context << " cell (" << i << ", " << j << ")";
      }
    }
    // The wireless byte streams match: clients cannot tell the deployments
    // apart.
    EXPECT_EQ(sharded.network().stats().uplink_bytes,
              mono.network().stats().uplink_bytes)
        << context;
    EXPECT_EQ(sharded.network().stats().downlink_bytes,
              mono.network().stats().downlink_bytes)
        << context;
    EXPECT_EQ(sharded.network().stats().broadcast_receptions,
              mono.network().stats().broadcast_receptions)
        << context;
  };

  // Row band of each focal's cell at install time.
  std::vector<int> first_band;
  for (ObjectId oid = 0; oid < 5; ++oid) {
    const core::FotEntry* focal = sharded.server().FindFocal(oid);
    ASSERT_NE(focal, nullptr);
    first_band.push_back(router.shard_map().ShardOf(focal->cell));
  }

  expect_equivalent("after install");
  for (int step = 0; step < 25; ++step) {
    mono.Tick();
    sharded.Tick();
    expect_equivalent("step " + std::to_string(step));
  }

  // The walk really crossed RQI slices: some focal's cell ended in another
  // shard's row band than it started in.
  int crossed = 0;
  for (ObjectId oid = 0; oid < 5; ++oid) {
    const core::FotEntry* focal = sharded.server().FindFocal(oid);
    ASSERT_NE(focal, nullptr);
    if (router.shard_map().ShardOf(focal->cell) != first_band[oid]) ++crossed;
  }
  EXPECT_GT(crossed, 0);
}

// --- Multi-shard checkpoint/restore ------------------------------------------

// The checkpoint image is shard-count-independent: the router writes its
// FOT and SQT in ascending key order and the image holds no RQI, so
// identical logical state yields identical bytes whatever the shard count.
TEST(ShardRouterTest, CheckpointImageIsByteIdenticalAcrossShardCounts) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 8; ++k) {
    specs.push_back(test::ObjectSpec({8.0 + 11.0 * k, 20.0 + 6.0 * k},
                                     {0.0, 0.07},
                                     /*max_speed_in=*/0.1));
  }
  std::vector<std::vector<uint8_t>> images;
  for (int shards : {1, 2, 4}) {
    test::MiniDeployment d(specs, ShardedOptions(shards));
    core::Snapshot store;
    d.server().set_durable_store(&store);
    for (ObjectId oid = 0; oid < 4; ++oid) {
      ASSERT_TRUE(d.server().InstallQuery(oid, 12.0, 0.5).ok());
    }
    d.TickN(12);
    d.server().Checkpoint();
    ASSERT_FALSE(store.checkpoint.empty());
    images.push_back(store.checkpoint);
  }
  EXPECT_EQ(images[1], images[0]);
  EXPECT_EQ(images[2], images[0]);
}

// A store written by an N-shard server restores into an M-shard server: the
// tables come back entry for entry and the RQI rebuilds under the restoring
// deployment's shard map, row for row.
TEST(ShardRouterTest, MultiShardRestoreRehomesAcrossShardCounts) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 10; ++k) {
    specs.push_back(test::ObjectSpec({6.0 + 9.0 * k, 15.0 + 7.0 * k},
                                     {0.02, 0.05},
                                     /*max_speed_in=*/0.1));
  }
  core::MobiEyesOptions live_options = ShardedOptions(4);
  test::MiniDeployment d(specs, live_options);
  core::Snapshot store;
  store.wal_limit = 4096;
  d.server().set_durable_store(&store);
  for (ObjectId oid = 0; oid < 5; ++oid) {
    ASSERT_TRUE(d.server().InstallQuery(oid, 12.0, 0.5).ok());
  }
  d.TickN(6);
  d.server().Checkpoint();
  d.TickN(6);  // post-checkpoint uplinks land in the WAL
  ASSERT_GT(store.wal.size(), 0u);

  for (int restore_shards : {1, 2, 4, 8}) {
    core::MobiEyesServer restored(d.grid(), d.layout(), d.bmap(), d.network(),
                                  ShardedOptions(restore_shards));
    size_t replayed = 0;
    Status status = restored.Restore(store, &replayed);
    ASSERT_TRUE(status.ok())
        << restore_shards << " shards: " << status.ToString();
    EXPECT_EQ(replayed, store.wal.size());
    EXPECT_EQ(restored.query_count(), d.server().query_count())
        << restore_shards << " shards";
    const core::ShardRouter& router = restored.router();
    for (QueryId qid = 0; qid < 5; ++qid) {
      const core::SqtEntry* live = d.server().FindQuery(qid);
      const core::SqtEntry* back = restored.FindQuery(qid);
      ASSERT_NE(live, nullptr);
      ASSERT_NE(back, nullptr) << restore_shards << " shards, qid " << qid;
      EXPECT_EQ(back->result, live->result)
          << restore_shards << " shards, qid " << qid;
      EXPECT_EQ(back->curr_cell.j, live->curr_cell.j);
      const core::FotEntry* focal = restored.FindFocal(back->focal_oid);
      const core::FotEntry* live_focal = d.server().FindFocal(live->focal_oid);
      ASSERT_NE(focal, nullptr);
      ASSERT_NE(live_focal, nullptr);
      EXPECT_EQ(focal->cell.i, live_focal->cell.i);
      EXPECT_EQ(focal->cell.j, live_focal->cell.j);
      EXPECT_EQ(focal->queries, live_focal->queries);
    }
    // RQI rows rebuild identically whatever the restoring shard count.
    const geo::Grid& grid = d.grid();
    for (int32_t j = 0; j < grid.rows(); ++j) {
      for (int32_t i = 0; i < grid.columns(); ++i) {
        EXPECT_EQ(router.QueriesForCell({i, j}),
                  d.server().router().QueriesForCell({i, j}))
            << restore_shards << " shards, cell (" << i << ", " << j << ")";
      }
    }
  }
}

// A restored multi-shard deployment keeps serving: post-restore ticks keep
// it in lockstep with the crashed-then-restored monolith equivalent.
TEST(ShardRouterTest, MultiShardServerResumesAfterRestore) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 8; ++k) {
    specs.push_back(test::ObjectSpec({10.0 + 10.0 * k, 30.0},
                                     {0.0, 0.06},
                                     /*max_speed_in=*/0.1));
  }
  test::MiniDeployment d(specs, ShardedOptions(4));
  core::Snapshot store;
  d.server().set_durable_store(&store);
  for (ObjectId oid = 0; oid < 4; ++oid) {
    ASSERT_TRUE(d.server().InstallQuery(oid, 12.0, 0.5).ok());
  }
  d.TickN(5);
  d.server().Checkpoint();
  d.TickN(3);

  core::MobiEyesServer restored(d.grid(), d.layout(), d.bmap(), d.network(),
                                ShardedOptions(2));
  ASSERT_TRUE(restored.Restore(store).ok());
  restored.set_durable_store(&store);
  // The restored server answers exactly like the live one it replaced.
  for (QueryId qid = 0; qid < 4; ++qid) {
    auto live = d.server().QueryResult(qid);
    auto back = restored.QueryResult(qid);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, *live) << "qid " << qid;
  }
  // And it can advance time / expire / checkpoint without the old shards.
  restored.AdvanceTime(d.world().now() + 30.0);
  restored.Checkpoint();
  EXPECT_FALSE(store.checkpoint.empty());
}

}  // namespace
}  // namespace mobieyes